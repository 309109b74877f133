//! The experimental loop of §V: drives any [`ResiliencePolicy`] over the
//! simulated testbed with AIoTBench workloads and broker fault injection,
//! measuring exactly the six quantities of Fig. 5 — energy, response time,
//! SLO violation rate, decision time, memory consumption and fine-tuning
//! overhead.

use crate::policy::ResiliencePolicy;
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{PhaseTimings, Scheduler, SimConfig, Simulator};
use faults::{FaultInjector, FaultModel, TargetPolicy};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use workloads::{BagOfTasks, BenchmarkSuite, Workload};

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Simulator / testbed description.
    pub sim: SimConfig,
    /// Number of scheduling intervals (paper: 100 at test time).
    pub intervals: usize,
    /// Workload suite (paper: AIoTBench at test time).
    pub suite: BenchmarkSuite,
    /// Poisson arrival rate per interval (paper: 1.2).
    pub arrival_rate: f64,
    /// Poisson fault rate per interval, federation-wide (paper: 0.5).
    pub fault_rate: f64,
    /// Who gets attacked.
    pub fault_target: TargetPolicy,
    /// Correlated fault structure layered on the base Poisson stream
    /// ([`FaultModel::Iid`] reproduces the paper's independent faults
    /// bit-identically).
    pub fault_model: FaultModel,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The §V configuration: 16-node testbed, 100 intervals, AIoTBench at
    /// λ scaled to 1.8 per LEI (7.2 federation-wide; the paper's testbed
    /// keeps its containers continuously busy), broker faults at
    /// λ_f = 0.5.
    pub fn paper(seed: u64) -> Self {
        Self {
            sim: SimConfig::testbed(seed),
            intervals: 100,
            suite: BenchmarkSuite::AIoTBench,
            arrival_rate: 7.2,
            fault_rate: 0.5,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            seed,
        }
    }

    /// A miniature configuration for fast tests.
    pub fn small(seed: u64) -> Self {
        Self {
            sim: SimConfig::small(8, 2, seed),
            intervals: 20,
            suite: BenchmarkSuite::AIoTBench,
            arrival_rate: 2.4,
            fault_rate: 0.5,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            seed,
        }
    }
}

/// Testbed-equivalent seconds of failure-handling infrastructure charged
/// per repair event regardless of policy: unresponsiveness confirmation
/// across the broker mesh, the shared PostgreSQL failure record, VRRP
/// virtual-IP reassignment and topology sync (§IV-G/H/I). Identical for
/// every method, so it shifts but never reorders Fig. 5(d).
pub const INFRA_REPAIR_S: f64 = 1.9;

/// Everything one experiment run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Policy name.
    pub name: String,
    /// Total federation energy over the run, watt-hours.
    pub total_energy_wh: f64,
    /// Mean response time of completed tasks, seconds.
    pub mean_response_s: f64,
    /// Fraction of completed tasks that missed their deadline.
    pub slo_violation_rate: f64,
    /// Completed-task count.
    pub completed: usize,
    /// Mean testbed-equivalent seconds per *repair decision* (failure
    /// intervals only) — Fig. 5(d)'s decision time. Includes the shared
    /// [`INFRA_REPAIR_S`] constant plus the policy's modeled algorithm
    /// cost (see `ResiliencePolicy::modeled_decision_s`).
    pub mean_decision_time_s: f64,
    /// Repair decisions taken.
    pub decision_events: usize,
    /// Total testbed-equivalent seconds spent fine-tuning — Fig. 5(f)'s
    /// overhead.
    pub fine_tune_overhead_s: f64,
    /// Fine-tune events.
    pub fine_tune_events: usize,
    /// Raw measured wall-clock of all repair calls on this machine, s.
    pub measured_decision_wall_s: f64,
    /// Raw measured wall-clock of all fine-tune observations, s.
    pub measured_overhead_wall_s: f64,
    /// Policy model memory as % of federation RAM — Fig. 5(e).
    pub memory_pct: f64,
    /// Broker failures observed over the run.
    pub broker_failures: usize,
    /// Forced task restarts.
    pub restarts: usize,
    /// Response times of every completed task (for percentile analysis).
    pub response_times_s: Vec<f64>,
    /// Cumulative wall-clock per simulator pipeline stage over the run
    /// (measurement only — absent from pre-phase-pipeline artifacts,
    /// hence the serde default).
    #[serde(default)]
    pub phase_timings: PhaseTimings,
}

/// Runs `policy` under `config` and collects the §V metrics, sampling
/// arrivals from the configured suite and placing tasks with the default
/// [`LeastLoadScheduler`]. See [`run_experiment_full`] for the general
/// entry point the scenario engine uses (replayed workloads, alternative
/// schedulers).
pub fn run_experiment(
    policy: &mut dyn ResiliencePolicy,
    config: &ExperimentConfig,
) -> ExperimentResult {
    let mut workload = BagOfTasks::new(config.suite, config.arrival_rate, config.seed ^ 0x5754);
    let mut scheduler = LeastLoadScheduler::new();
    run_experiment_full(policy, config, &mut workload, &mut scheduler)
}

/// The general experimental loop: any arrival process, any underlying
/// scheduler. `config.suite` / `config.arrival_rate` are ignored here —
/// the workload supplies arrivals. Metric normalisation uses
/// [`Normalizer::for_fleet`], which equals the historical default for
/// every all-Pi fleet with LEI span ≤ 4 (so all pre-scenario results are
/// bit-identical), widens the task-pressure scale for >16-host
/// federations, and widens the energy scale for fleets with server-class
/// hosts.
pub fn run_experiment_full(
    policy: &mut dyn ResiliencePolicy,
    config: &ExperimentConfig,
    workload: &mut dyn Workload,
    scheduler: &mut dyn Scheduler,
) -> ExperimentResult {
    let mut engine = ExperimentEngine::new(config);
    for t in 0..config.intervals {
        let arrivals = workload.sample_interval(t);
        engine.step(policy, arrivals, scheduler);
    }
    engine.finish(policy)
}

/// The incremental form of [`run_experiment_full`]: one
/// repair → inject → simulate → observe cycle per [`ExperimentEngine::step`]
/// call, with the metric accumulators held between calls.
///
/// This is what both the batch runner above and the streaming service
/// daemon ([`crate::service`]) drive — the batch loop calls `step` with
/// arrivals sampled from a [`Workload`], the daemon calls it with
/// arrivals decoded from a live `carol-trace` stream. Because the cycle
/// body is byte-for-byte the old loop body (arrival sampling is the
/// workload's own RNG stream, independent of the simulation), a streamed
/// run is bit-identical to the equivalent batch run — gated in
/// `tests/determinism.rs`.
#[derive(Debug)]
pub struct ExperimentEngine {
    config: ExperimentConfig,
    sim: Simulator,
    injector: FaultInjector,
    norm: Normalizer,
    snapshot: SystemState,
    interval: usize,
    decision_time_s: f64,
    decision_events: usize,
    fine_tune_overhead_s: f64,
    fine_tune_events: usize,
    broker_failures: usize,
    measured_decision_wall_s: f64,
    measured_overhead_wall_s: f64,
    phase_timings: PhaseTimings,
}

impl ExperimentEngine {
    /// Sets up the simulator, fault injector, normalizer and initial
    /// snapshot — everything [`run_experiment_full`] prepared before its
    /// loop. `config.intervals` is *not* consulted: the caller decides
    /// how many [`ExperimentEngine::step`]s to run.
    pub fn new(config: &ExperimentConfig) -> Self {
        let sim = Simulator::new(config.sim.clone());
        let injector = FaultInjector::with_model(
            config.fault_rate,
            config.fault_target,
            config.fault_model.clone(),
            config.seed ^ 0x4654,
        );
        let norm = Normalizer::for_fleet(&config.sim.specs, config.sim.n_brokers);
        let snapshot = SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            &edgesim::SchedulingDecision::new(),
            &norm,
        );
        Self {
            config: config.clone(),
            sim,
            injector,
            norm,
            snapshot,
            interval: 0,
            decision_time_s: 0.0,
            decision_events: 0,
            fine_tune_overhead_s: 0.0,
            fine_tune_events: 0,
            broker_failures: 0,
            measured_decision_wall_s: 0.0,
            measured_overhead_wall_s: 0.0,
            phase_timings: PhaseTimings::default(),
        }
    }

    /// Intervals stepped so far.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Repair decisions taken so far.
    pub fn decision_events(&self) -> usize {
        self.decision_events
    }

    /// Fine-tune events observed so far.
    pub fn fine_tune_events(&self) -> usize {
        self.fine_tune_events
    }

    /// Cumulative wall-clock per simulator pipeline stage across every
    /// step so far — the phase vocabulary of [`edgesim::phases`] surfaced
    /// at the experiment level (metrics endpoint, `PHASES_PR.json`).
    pub fn phase_timings(&self) -> &PhaseTimings {
        &self.phase_timings
    }

    /// One full scheduling interval: repair (Algorithm 2 lines 4–8),
    /// fault injection, the simulation step over `arrivals`, and the
    /// observation phase (lines 10–16).
    pub fn step(
        &mut self,
        policy: &mut dyn ResiliencePolicy,
        arrivals: Vec<edgesim::TaskSpec>,
        scheduler: &mut dyn Scheduler,
    ) {
        let t = self.interval;
        self.interval += 1;

        // --- Repair phase (Algorithm 2 lines 4–8).
        let had_failure = !self.sim.failed_brokers().is_empty();
        let modeled_before = policy.modeled_decision_s();
        let start = Instant::now();
        let repaired = policy.repair(&self.sim, &self.snapshot);
        self.measured_decision_wall_s += start.elapsed().as_secs_f64();
        if had_failure {
            self.decision_time_s += INFRA_REPAIR_S + policy.modeled_decision_s() - modeled_before;
            self.decision_events += 1;
        }
        if let Some(topo) = repaired {
            self.sim.set_topology(topo);
        }

        // --- Fault injection + the interval itself.
        self.injector.inject(t, &mut self.sim);
        let report = self.sim.step(arrivals, scheduler);
        self.broker_failures += report.failed_brokers.len();
        self.phase_timings.accumulate(&report.phases);

        self.snapshot = SystemState::capture(
            self.sim.topology(),
            self.sim.specs(),
            self.sim.host_states(),
            self.sim.tasks(),
            &report.decision,
            &self.norm,
        );

        // --- Observation phase (lines 10–16).
        let modeled_before = policy.modeled_overhead_s();
        let start = Instant::now();
        let outcome = policy.observe(&self.sim, &self.snapshot, &report);
        if outcome.fine_tuned {
            self.measured_overhead_wall_s += start.elapsed().as_secs_f64();
            self.fine_tune_overhead_s += policy.modeled_overhead_s() - modeled_before;
            self.fine_tune_events += 1;
        }
    }

    /// Collects the §V metrics over everything stepped so far.
    pub fn finish(self, policy: &dyn ResiliencePolicy) -> ExperimentResult {
        let total_ram_gb: f64 = self.sim.specs().iter().map(|s| s.ram_mb / 1024.0).sum();
        let memory_pct =
            100.0 * policy.memory_gb() * self.config.sim.n_brokers as f64 / total_ram_gb.max(1e-9);

        ExperimentResult {
            name: policy.name().to_string(),
            total_energy_wh: self.sim.total_energy_wh(),
            mean_response_s: self.sim.mean_response_time(),
            slo_violation_rate: self.sim.violation_rate(),
            completed: self.sim.completed_count(),
            mean_decision_time_s: if self.decision_events > 0 {
                self.decision_time_s / self.decision_events as f64
            } else {
                0.0
            },
            decision_events: self.decision_events,
            fine_tune_overhead_s: self.fine_tune_overhead_s,
            fine_tune_events: self.fine_tune_events,
            memory_pct,
            broker_failures: self.broker_failures,
            restarts: self.sim.total_restarts(),
            response_times_s: self.sim.response_times().to_vec(),
            measured_decision_wall_s: self.measured_decision_wall_s,
            measured_overhead_wall_s: self.measured_overhead_wall_s,
            phase_timings: self.phase_timings,
        }
    }
}

/// Runs `make_policy(seed)` across `seeds` and returns all results — the
/// paper averages each metric over five seeded runs.
///
/// Seeds execute **in parallel** on `threads` workers (`1` runs them
/// serially; pass [`par::thread_count`] for the `CAROL_THREADS` default).
/// Every seed owns its RNG streams and its policy instance, so the result
/// vector is bit-identical to serial execution — same order, same bits —
/// a guarantee enforced by `tests/determinism.rs`.
pub fn run_seeds<P: ResiliencePolicy>(
    threads: usize,
    make_policy: impl Fn(u64) -> P + Sync,
    base: &ExperimentConfig,
    seeds: &[u64],
) -> Vec<ExperimentResult> {
    par::par_map_threads(threads, seeds, |&seed| {
        let mut policy = make_policy(seed);
        let config = ExperimentConfig {
            sim: SimConfig {
                seed,
                ..base.sim.clone()
            },
            seed,
            ..base.clone()
        };
        run_experiment(&mut policy, &config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carol::{Carol, CarolConfig};

    #[test]
    fn experiment_produces_complete_metrics() {
        let mut policy = Carol::pretrained(CarolConfig::fast_test(), 1);
        let config = ExperimentConfig::small(1);
        let r = run_experiment(&mut policy, &config);
        assert_eq!(r.name, "CAROL");
        assert!(r.total_energy_wh > 0.0, "energy must accumulate");
        assert!(r.completed > 0, "some AIoT tasks must complete");
        assert!(r.mean_response_s > 0.0);
        assert!((0.0..=1.0).contains(&r.slo_violation_rate));
        assert!(r.memory_pct > 0.0);
        assert_eq!(r.response_times_s.len(), r.completed);
        assert!(
            r.phase_timings.total_s() > 0.0,
            "per-phase wall-clock must accumulate across steps"
        );
        assert!((0.0..=1.0).contains(&r.phase_timings.determine_failures_frac()));
    }

    #[test]
    fn failures_trigger_decisions() {
        let mut policy = Carol::pretrained(CarolConfig::fast_test(), 2);
        let config = ExperimentConfig {
            fault_rate: 2.0, // hammer the brokers
            intervals: 15,
            ..ExperimentConfig::small(2)
        };
        let r = run_experiment(&mut policy, &config);
        assert!(r.broker_failures > 0, "fault storm must fell brokers");
        assert!(r.decision_events > 0, "failures must trigger repairs");
        assert!(r.mean_decision_time_s > 0.0);
    }

    #[test]
    fn seeded_runs_are_reproducible_in_qos() {
        let config = ExperimentConfig::small(5);
        let run = || {
            let mut policy = Carol::pretrained(CarolConfig::fast_test(), 5);
            run_experiment(&mut policy, &config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_energy_wh, b.total_energy_wh);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.slo_violation_rate, b.slo_violation_rate);
    }

    #[test]
    fn run_seeds_covers_all_seeds() {
        let config = ExperimentConfig {
            intervals: 6,
            ..ExperimentConfig::small(0)
        };
        let results = run_seeds(
            2,
            |seed| Carol::pretrained(CarolConfig::fast_test(), seed),
            &config,
            &[1, 2, 3],
        );
        assert_eq!(results.len(), 3);
    }

    // A 2-seed smoke of the serial/parallel equivalence; the full 8-seed
    // bit-identity contract is gated in release by `tests/determinism.rs`.
    #[test]
    fn parallel_seed_fanout_smoke_matches_serial() {
        let config = ExperimentConfig {
            intervals: 6,
            ..ExperimentConfig::small(0)
        };
        let make = |seed| Carol::pretrained(CarolConfig::fast_test(), seed);
        let serial = run_seeds(1, make, &config, &[1, 2]);
        let parallel = run_seeds(2, make, &config, &[1, 2]);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.completed, p.completed);
            assert_eq!(s.total_energy_wh.to_bits(), p.total_energy_wh.to_bits());
        }
    }
}
