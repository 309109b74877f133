//! Offline training-trace generation (§IV-D).
//!
//! The paper creates the GON training dataset Λ = {M_t, S_t, G_t} by
//! running DeFog workloads for 1000 intervals on the testbed, changing the
//! graph topology every ten intervals (≈100 distinct topologies), under
//! *normal* (fault-free) execution. [`generate_trace`] reproduces that
//! procedure on the simulator.

use crate::replay::{RecordingWorkload, TraceEvent};
use crate::{BagOfTasks, BenchmarkSuite, Workload};
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{SimConfig, Simulator, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a trace-generation run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of scheduling intervals to record (paper: 1000).
    pub intervals: usize,
    /// Change the topology every this many intervals (paper: 10).
    pub topology_period: usize,
    /// Arrival rate per interval.
    pub arrival_rate: f64,
    /// Benchmark suite to draw tasks from (paper: DeFog for training).
    pub suite: BenchmarkSuite,
    /// Master seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            intervals: 1000,
            topology_period: 10,
            arrival_rate: 7.2,
            suite: BenchmarkSuite::DeFog,
            seed: 0,
        }
    }
}

/// Applies one random, validity-preserving topology mutation: promote a
/// worker, demote an empty broker, or reassign a worker across LEIs.
///
/// Each draw picks one of the three operations and random operands, and
/// an attempt fails only when the drawn operation's precondition does not
/// hold (e.g. demoting when the target broker equals the source, or
/// reassigning when fewer than two brokers exist). The attempt bound
/// scales with federation size — `max(16, n_hosts)` — because the failure
/// probability of a single draw is at most a size-independent constant
/// (< 3/4 on any valid topology: the promote arm succeeds whenever it
/// draws a worker, and workers outnumber brokers in every generated
/// configuration), so the chance of exhausting the bound is ≤ (3/4)^16
/// ≈ 1% at the old fixed bound and vanishes further as `n` grows.
/// Exhausting it leaves the topology unchanged, which is valid too — the
/// guarantee `tests` enforce is *validity after every call*, not that a
/// mutation always lands.
pub fn random_topology_mutation(topo: &mut Topology, rng: &mut StdRng) {
    let attempts = topo.len().max(16);
    for _attempt in 0..attempts {
        match rng.gen_range(0..3u8) {
            0 => {
                let workers = topo.workers();
                if workers.len() > 1 {
                    let w = workers[rng.gen_range(0..workers.len())];
                    if topo.promote(w).is_ok() {
                        return;
                    }
                }
            }
            1 => {
                let brokers = topo.brokers();
                if brokers.len() > 1 {
                    let b = brokers[rng.gen_range(0..brokers.len())];
                    let target = brokers[rng.gen_range(0..brokers.len())];
                    if b != target {
                        // Move b's workers to target first.
                        for w in topo.workers_of(b).to_vec() {
                            let _ = topo.reassign(w, target);
                        }
                        if topo.demote(b, target).is_ok() {
                            return;
                        }
                    }
                }
            }
            _ => {
                let workers = topo.workers();
                let brokers = topo.brokers();
                if !workers.is_empty() && brokers.len() > 1 {
                    let w = workers[rng.gen_range(0..workers.len())];
                    let b = brokers[rng.gen_range(0..brokers.len())];
                    if topo.reassign(w, b).is_ok() {
                        return;
                    }
                }
            }
        }
    }
}

/// Runs the §IV-D procedure and returns one [`SystemState`] per interval.
///
/// The trace is fault-free by construction — the GON learns the
/// distribution of *normal* execution so that deviations at test time
/// depress its confidence score.
pub fn generate_trace(config: &TraceConfig, sim_config: SimConfig) -> Vec<SystemState> {
    let mut workload = BagOfTasks::new(config.suite, config.arrival_rate, config.seed ^ 0x57_4C);
    generate_trace_from(&mut workload, config, sim_config)
}

/// [`generate_trace`] with the recorded arrival stream attached: the
/// returned [`TraceEvent`]s round-trip through the JSONL schema
/// ([`crate::replay::export_jsonl`] / [`crate::replay::load_jsonl`]) and,
/// replayed via [`generate_trace_from`], reproduce this run's states.
pub fn generate_trace_recorded(
    config: &TraceConfig,
    sim_config: SimConfig,
) -> (Vec<SystemState>, Vec<TraceEvent>) {
    let mut workload = BagOfTasks::new(config.suite, config.arrival_rate, config.seed ^ 0x57_4C);
    let mut recorder = RecordingWorkload::new(&mut workload);
    let states = generate_trace_from(&mut recorder, config, sim_config);
    (states, recorder.into_events())
}

/// The §IV-D loop over an arbitrary arrival process: `config.suite` and
/// `config.arrival_rate` are ignored (the workload supplies arrivals);
/// topology mutation still follows `config.topology_period` and
/// `config.seed`, so a replayed trace visits the same topology sequence
/// as the run it was recorded from.
pub fn generate_trace_from(
    workload: &mut dyn Workload,
    config: &TraceConfig,
    sim_config: SimConfig,
) -> Vec<SystemState> {
    // Same normalisation the experiment runner applies at this federation
    // size (identical to the default for every LEI span ≤ 4), so GON
    // training traces and runtime snapshots share one feature scale.
    let norm = Normalizer::for_federation(sim_config.specs.len(), sim_config.n_brokers);
    let mut sim = Simulator::new(sim_config);
    let mut scheduler = LeastLoadScheduler::new();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x54_4F);

    let mut states = Vec::with_capacity(config.intervals);
    for t in 0..config.intervals {
        if config.topology_period > 0 && t > 0 && t % config.topology_period == 0 {
            let mut topo = sim.topology().clone();
            random_topology_mutation(&mut topo, &mut rng);
            sim.set_topology(topo);
        }
        let arrivals = workload.sample_interval(t);
        let report = sim.step(arrivals, &mut scheduler);
        states.push(SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            &report.decision,
            &norm,
        ));
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(intervals: usize, seed: u64) -> Vec<SystemState> {
        let cfg = TraceConfig {
            intervals,
            topology_period: 5,
            arrival_rate: 1.2,
            suite: BenchmarkSuite::DeFog,
            seed,
        };
        generate_trace(&cfg, SimConfig::small(8, 2, seed))
    }

    #[test]
    fn trace_has_one_state_per_interval() {
        let trace = small_trace(30, 1);
        assert_eq!(trace.len(), 30);
        for s in &trace {
            assert_eq!(s.n_hosts(), 8);
            s.topology.validate().unwrap();
        }
    }

    #[test]
    fn trace_visits_multiple_topologies() {
        let trace = small_trace(60, 2);
        let distinct: std::collections::HashSet<&Topology> =
            trace.iter().map(|s| &s.topology).collect();
        assert!(
            distinct.len() > 3,
            "only {} topologies seen",
            distinct.len()
        );
    }

    #[test]
    fn trace_is_deterministic() {
        let a = small_trace(20, 7);
        let b = small_trace(20, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.topology, y.topology);
        }
    }

    #[test]
    fn mutation_preserves_validity() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut topo = Topology::balanced(16, 4).unwrap();
        for _ in 0..500 {
            random_topology_mutation(&mut topo, &mut rng);
            topo.validate().unwrap();
        }
    }

    #[test]
    fn mutation_never_invalidates_128_host_federations() {
        // Regression for the old fixed 16-attempt bound: on large
        // federations every mutation must still leave a valid topology,
        // and the walk must keep actually mutating (not silently stall
        // once the shape drifts away from balanced).
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut topo = Topology::balanced(128, 16).unwrap();
        let mut changed = 0usize;
        for i in 0..10_000 {
            let before = topo.roles().to_vec();
            random_topology_mutation(&mut topo, &mut rng);
            topo.validate()
                .unwrap_or_else(|e| panic!("mutation {i} broke the topology: {e}"));
            if topo.roles() != before {
                changed += 1;
            }
        }
        assert!(
            changed > 9_000,
            "mutations should land nearly always, landed {changed}/10000"
        );
    }

    #[test]
    fn recorded_trace_replays_to_the_same_states() {
        let cfg = TraceConfig {
            intervals: 24,
            topology_period: 6,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 13,
        };
        let (original, events) = generate_trace_recorded(&cfg, SimConfig::small(8, 2, 13));
        assert_eq!(original.len(), 24);
        assert!(!events.is_empty());

        // Round-trip the events through the JSONL schema, then replay.
        let text = crate::replay::export_jsonl(&events);
        let loaded = crate::replay::load_jsonl(&text).unwrap();
        let mut replay = crate::replay::ReplayWorkload::new(&loaded);
        let replayed = generate_trace_from(&mut replay, &cfg, SimConfig::small(8, 2, 13));

        assert_eq!(original.len(), replayed.len());
        for (t, (a, b)) in original.iter().zip(&replayed).enumerate() {
            assert_eq!(a.topology, b.topology, "interval {t}: topology diverged");
            // The schema carries no disk column, so the disk (2) and
            // io_wait (5) metric columns may differ; everything else —
            // including the CPU, energy and SLO columns the QoS objective
            // reads — must replay bit-exactly.
            for (h, (ra, rb)) in a.metrics.iter().zip(&b.metrics).enumerate() {
                for col in [0usize, 1, 3, 4, 6, 7, 8, 9] {
                    assert_eq!(
                        ra[col].to_bits(),
                        rb[col].to_bits(),
                        "interval {t}, host {h}, metric column {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_states_show_load() {
        let trace = small_trace(40, 3);
        let busy = trace
            .iter()
            .any(|s| s.metrics.iter().any(|row| row[0] > 0.05));
        assert!(busy, "trace should show CPU activity somewhere");
    }
}
