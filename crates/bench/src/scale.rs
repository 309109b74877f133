//! Host-count scaling sweep: the same CAROL policy over growing
//! federations (16 → 4096 hosts), reporting per-size QoS and wall-clock.
//!
//! The paper never leaves its 16-host testbed; this sweep is the
//! scenario engine's scale axis made measurable. Each size runs one
//! AIoTBench scenario at the paper's per-host arrival intensity
//! (0.45 tasks/host/interval) plus, for the trace axis, one replayed
//! DeFog trace recorded at the same scale — so both new workload *and*
//! new scale are exercised per size.
//!
//! Results serialise to a JSON artifact: the `scale` binary writes it to
//! `--out <path>` and CI uploads the file next to `BENCH_PR.json`.

use carol::carol::{Carol, CarolConfig};
use carol::scenario::{run_scenario, ScenarioSpec, SchedulerKind, WorkloadSource};
use carol::service::ExperimentSpec;
use edgesim::{FleetMix, PhaseTimings, SimConfig};
use faults::{FaultModel, TargetPolicy};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use workloads::replay::record_suite;
use workloads::{ArrivalShape, BenchmarkSuite};

/// Configuration of one scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// `(n_hosts, n_brokers)` per size, ascending.
    pub sizes: Vec<(usize, usize)>,
    /// Scheduling intervals per scenario.
    pub intervals: usize,
    /// Master seed.
    pub seed: u64,
    /// Also run a replayed-trace scenario per size.
    pub with_replay: bool,
    /// Named registry scenarios appended after the per-size cells, run
    /// at their registered size with the horizon capped at `intervals` —
    /// the scenario-frontier axes (correlated faults, heterogeneous
    /// fleets, non-stationary arrivals) showing up in the same artifact.
    pub extra_scenarios: Vec<&'static str>,
}

impl ScaleConfig {
    /// The full sweep: 16 → 4096 hosts, 30 intervals, replay included,
    /// plus the cascade and heterogeneous-flash-crowd frontier scenarios.
    pub fn full(seed: u64) -> Self {
        Self {
            sizes: vec![
                (16, 4),
                (32, 8),
                (64, 8),
                (128, 16),
                (256, 16),
                (512, 32),
                (1024, 64),
                (4096, 128),
            ],
            intervals: 30,
            seed,
            with_replay: true,
            extra_scenarios: vec!["cascade-64", "flashcrowd-hetero-64"],
        }
    }

    /// CI-budget sweep: 16 → 256 hosts, 10 intervals, one frontier
    /// scenario.
    pub fn fast(seed: u64) -> Self {
        Self {
            sizes: vec![(16, 4), (32, 8), (64, 8), (128, 16), (256, 16)],
            intervals: 10,
            seed,
            with_replay: true,
            extra_scenarios: vec!["cascade-64"],
        }
    }
}

/// One `(scenario, size)` cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Scenario label, e.g. `"aiot-64"` or `"replay-64"`.
    pub scenario: String,
    /// Federation size.
    pub n_hosts: usize,
    /// LEI count.
    pub n_brokers: usize,
    /// Intervals run.
    pub intervals: usize,
    /// Completed-task count.
    pub completed: usize,
    /// Total federation energy, Wh.
    pub energy_wh: f64,
    /// Mean response time, s.
    pub mean_response_s: f64,
    /// SLO violation rate over completed tasks.
    pub slo_violation_rate: f64,
    /// Broker failures observed.
    pub broker_failures: usize,
    /// Repair decisions taken.
    pub decision_events: usize,
    /// Wall-clock of the scenario run on this machine, seconds.
    pub wall_s: f64,
    /// Wall-clock of one isolated repair episode (single broker failure,
    /// batched tabu over the surrogate) at this federation size, seconds.
    /// Measured outside the scenario run so the repair path's scaling is
    /// visible on its own axis.
    #[serde(default)]
    pub repair_wall_s: f64,
    /// Surrogate queries that repair episode issued (neighbourhood size ×
    /// tabu iterations — the batch volume behind `repair_wall_s`).
    #[serde(default)]
    pub repair_queries: usize,
    /// Which neighbourhood the scenario's repair path used: `"full"` at or
    /// below [`FULL_NEIGHBORHOOD_MAX_HOSTS`] hosts, `"sampled"` above.
    #[serde(default)]
    pub repair_mode: String,
    /// Wall-clock of the isolated repair episode under the *sampled*
    /// neighbourhood, seconds. Measured at every size; at sizes where the
    /// full path is priced too, the pair quantifies the trade.
    #[serde(default)]
    pub sampled_repair_wall_s: f64,
    /// Surrogate queries behind `sampled_repair_wall_s`.
    #[serde(default)]
    pub sampled_repair_queries: usize,
    /// Minor page faults the process took during the sampled repair
    /// episode (`minflt` of `/proc/self/stat`; 0 where `/proc` is
    /// absent) — the allocator-churn signal: a repair that hands its
    /// working set back to the kernel after every scoring chunk faults it
    /// back in on the next.
    #[serde(default)]
    pub sampled_repair_minor_faults: u64,
    /// Tabu objective (lower is better) of the full-neighbourhood repair's
    /// winner. `0.0` at sizes where the full path is not priced.
    #[serde(default)]
    pub repair_score_full: f64,
    /// Tabu objective of the sampled-neighbourhood repair's winner — the
    /// QoS side of the QoS-vs-wall-clock trade.
    #[serde(default)]
    pub repair_score_sampled: f64,
    /// Cumulative per-stage simulator wall-clock over the scenario run
    /// (the phase-pipeline vocabulary of `edgesim::phases`).
    #[serde(default)]
    pub phase_timings: PhaseTimings,
    /// Share of simulator-step wall-clock spent determining failures —
    /// the scale row proving the failure scan no longer dominates.
    #[serde(default)]
    pub determine_failures_frac: f64,
}

/// Largest federation the sweep prices with the full Θ(n·brokers)
/// neighbourhood. Above this the scenario runs (and the headline
/// `repair_wall_s` column) switch to the sampled O(n·k) neighbourhood —
/// the full path at 1024 hosts would score hundreds of thousands of
/// candidates per repair.
pub const FULL_NEIGHBORHOOD_MAX_HOSTS: usize = 128;

/// Per-iteration candidate cap of the sampled neighbourhood in the sweep.
pub const SAMPLED_MAX_MOVES: usize = 160;

/// The sweep's sampled-neighbourhood setting at a given size (seeded per
/// size so rows stay independent and reproducible).
pub fn sampled_neighborhood(seed: u64, n_hosts: usize) -> carol::tabu::Neighborhood {
    carol::tabu::Neighborhood::Sampled {
        max_moves: SAMPLED_MAX_MOVES,
        seed: seed ^ 0x5a17 ^ n_hosts as u64,
    }
}

/// [`sweep_carol_config`] with the neighbourhood chosen by federation
/// size: the paper's full move set up to
/// [`FULL_NEIGHBORHOOD_MAX_HOSTS`] hosts, sampled beyond.
pub fn sweep_carol_config_sized(seed: u64, n_hosts: usize) -> CarolConfig {
    let mut config = sweep_carol_config(seed);
    if n_hosts > FULL_NEIGHBORHOOD_MAX_HOSTS {
        config.tabu.neighborhood = sampled_neighborhood(seed, n_hosts);
    }
    config
}

/// A CAROL configuration sized for sweep throughput: the service-tier
/// small controller of [`ExperimentSpec::carol_config`]. Its GON stays at
/// test-scale (it is host-count-agnostic, so one small network serves
/// every federation size) and pre-trains on an 8-host DeFog trace; the
/// spec contributes only `seed`.
pub fn sweep_carol_config(seed: u64) -> CarolConfig {
    ExperimentSpec::new(ScenarioSpec::paper(seed)).carol_config()
}

/// Fault intensity of the sweep. Higher than the paper's λ_f = 0.5:
/// attacks are intensity-scaled (0.65–1.15×) and only saturate loaded
/// brokers, so short sweeps at 0.5 can pass without a single repair —
/// and the whole point of the wall-clock column is to price CAROL's
/// repair path (node-shift + tabu over the GON) as the federation grows.
pub const SWEEP_FAULT_RATE: f64 = 2.0;

/// The scenarios one sweep cell runs at `(n_hosts, n_brokers)`.
fn size_scenarios(config: &ScaleConfig, n_hosts: usize, n_brokers: usize) -> Vec<ScenarioSpec> {
    let rate = 0.45 * n_hosts as f64;
    let mut specs = vec![ScenarioSpec {
        name: format!("aiot-{n_hosts}"),
        workload: WorkloadSource::Suite {
            suite: BenchmarkSuite::AIoTBench,
            rate,
        },
        shape: ArrivalShape::Stationary,
        n_hosts,
        n_brokers,
        fleet: FleetMix::Pi,
        intervals: config.intervals,
        fault_rate: SWEEP_FAULT_RATE,
        fault_target: TargetPolicy::BrokersOnly,
        fault_model: FaultModel::Iid,
        scheduler: SchedulerKind::LeastLoad,
        seed: config.seed,
    }];
    if config.with_replay {
        let events = record_suite(
            BenchmarkSuite::DeFog,
            rate,
            config.seed ^ 0x7265,
            config.intervals,
        );
        specs.push(ScenarioSpec {
            name: format!("replay-{n_hosts}"),
            workload: WorkloadSource::Replay { events },
            shape: ArrivalShape::Stationary,
            n_hosts,
            n_brokers,
            fleet: FleetMix::Pi,
            intervals: config.intervals,
            fault_rate: SWEEP_FAULT_RATE,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            scheduler: SchedulerKind::LeastLoad,
            seed: config.seed,
        });
    }
    specs
}

/// Minor page faults this process has taken so far: field 10 (`minflt`)
/// of `/proc/self/stat`, or 0 where `/proc` is absent.
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_minflt(&stat))
        .unwrap_or(0)
}

/// `minflt` of one `/proc/<pid>/stat` line. Field 2 (the command name)
/// is parenthesised and may hold spaces or ')', so fields 3 onward are
/// read after the *last* ')': `minflt` is the 8th of them.
fn parse_minflt(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Times one isolated repair episode — a single broker failure resolved
/// through the batched tabu/surrogate path — at the given federation
/// size under the given controller configuration. Returns `(wall_s,
/// surrogate_queries, best_score, minor_faults)`, the last being the
/// process's minor page faults across the repair.
pub fn measure_repair_with(
    n_hosts: usize,
    n_brokers: usize,
    seed: u64,
    config: CarolConfig,
) -> (f64, usize, f64, u64) {
    use carol::ResiliencePolicy;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::state::{Normalizer, SystemState};
    use edgesim::FaultLoad;

    let mut sim = edgesim::Simulator::new(SimConfig::small(n_hosts, n_brokers, seed));
    let mut sched = LeastLoadScheduler::new();
    let broker = sim.topology().brokers()[0];
    sim.inject_fault(
        broker,
        FaultLoad {
            cpu: 1.0,
            ..Default::default()
        },
    );
    let report = sim.step(Vec::new(), &mut sched);
    let snapshot = SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &report.decision,
        &Normalizer::for_federation(n_hosts, n_brokers),
    );
    let mut policy = Carol::from_model(gon::GonModel::new(config.gon.clone()), config, seed);
    let faults_before = minor_faults();
    let start = Instant::now();
    let repaired = policy.repair(&sim, &snapshot);
    let wall_s = start.elapsed().as_secs_f64();
    let faults = minor_faults().saturating_sub(faults_before);
    assert!(repaired.is_some(), "broker failure must produce a repair");
    let score = policy.last_repair_score.expect("repair records its score");
    (wall_s, policy.surrogate_queries, score, faults)
}

/// Runs one scenario cell — pretrain, run, and the isolated repair
/// measurements — into a [`ScalePoint`].
///
/// Repair pricing is two-sided where affordable: at or below
/// [`FULL_NEIGHBORHOOD_MAX_HOSTS`] hosts both the full and the sampled
/// neighbourhood are measured (the pair is the QoS-vs-wall-clock trade);
/// above it only the sampled path runs and fills the headline
/// `repair_wall_s` column.
pub fn run_cell(spec: &ScenarioSpec, seed: u64) -> ScalePoint {
    let mut policy = Carol::pretrained(sweep_carol_config_sized(seed, spec.n_hosts), seed);
    let start = Instant::now();
    let out = run_scenario(&mut policy, spec);
    let wall_s = start.elapsed().as_secs_f64();

    let mut sampled_cfg = sweep_carol_config(seed);
    sampled_cfg.tabu.neighborhood = sampled_neighborhood(seed, spec.n_hosts);
    let (
        sampled_repair_wall_s,
        sampled_repair_queries,
        repair_score_sampled,
        sampled_repair_minor_faults,
    ) = measure_repair_with(spec.n_hosts, spec.n_brokers, seed, sampled_cfg);

    let full_priced = spec.n_hosts <= FULL_NEIGHBORHOOD_MAX_HOSTS;
    let (repair_wall_s, repair_queries, repair_score_full, repair_mode) = if full_priced {
        let (w, q, score, _) =
            measure_repair_with(spec.n_hosts, spec.n_brokers, seed, sweep_carol_config(seed));
        (w, q, score, "full")
    } else {
        (
            sampled_repair_wall_s,
            sampled_repair_queries,
            0.0,
            "sampled",
        )
    };

    ScalePoint {
        scenario: out.scenario,
        n_hosts: spec.n_hosts,
        n_brokers: spec.n_brokers,
        intervals: spec.intervals,
        completed: out.result.completed,
        energy_wh: out.result.total_energy_wh,
        mean_response_s: out.result.mean_response_s,
        slo_violation_rate: out.result.slo_violation_rate,
        broker_failures: out.result.broker_failures,
        decision_events: out.result.decision_events,
        wall_s,
        repair_wall_s,
        repair_queries,
        repair_mode: repair_mode.into(),
        sampled_repair_wall_s,
        sampled_repair_queries,
        sampled_repair_minor_faults,
        repair_score_full,
        repair_score_sampled,
        phase_timings: out.result.phase_timings,
        determine_failures_frac: out.result.phase_timings.determine_failures_frac(),
    }
}

/// Runs the sweep **sequentially** (one scenario at a time, so the
/// per-size wall-clock is not polluted by sibling runs) and returns one
/// point per `(scenario, size)` cell.
pub fn sweep(config: &ScaleConfig) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &(n_hosts, n_brokers) in &config.sizes {
        for spec in size_scenarios(config, n_hosts, n_brokers) {
            points.push(run_cell(&spec, config.seed));
        }
    }
    for name in &config.extra_scenarios {
        let mut spec = ScenarioSpec::named(name, config.seed)
            .unwrap_or_else(|| panic!("{name} is not a registered scenario"));
        spec.intervals = spec.intervals.min(config.intervals);
        points.push(run_cell(&spec, config.seed));
    }
    points
}

/// Serialises sweep points as pretty JSON (the `--out` artifact).
pub fn to_json(points: &[ScalePoint]) -> String {
    serde_json::to_string_pretty(points).expect("scale points serialise")
}

/// Renders the points as an aligned text table for stdout.
pub fn render_table(points: &[ScalePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>8}{:>10}{:>12}{:>12}{:>10}{:>10}{:>10}{:>12}{:>9}{:>13}{:>13}\n",
        "scenario",
        "hosts",
        "done",
        "energy_wh",
        "resp_s",
        "slo",
        "repairs",
        "wall_s",
        "repair_ms",
        "mode",
        "sampled_ms",
        "sampled_flt"
    ));
    out.push_str(&"-".repeat(133));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:<14}{:>8}{:>10}{:>12.1}{:>12.1}{:>10.3}{:>10}{:>10.2}{:>12.1}{:>9}{:>13.1}{:>13}\n",
            p.scenario,
            p.n_hosts,
            p.completed,
            p.energy_wh,
            p.mean_response_s,
            p.slo_violation_rate,
            p.decision_events,
            p.wall_s,
            p.repair_wall_s * 1e3,
            p.repair_mode,
            p.sampled_repair_wall_s * 1e3,
            p.sampled_repair_minor_faults
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_controller_is_the_service_controller() {
        for seed in [0, 1, 3, 7, 41, 0xC0FF_EE00] {
            let sweep = serde_json::to_string(&sweep_carol_config(seed)).unwrap();
            for &name in ScenarioSpec::registry_names() {
                let spec = ExperimentSpec::named(name, seed).unwrap();
                let service = serde_json::to_string(&spec.carol_config()).unwrap();
                assert_eq!(service, sweep, "{name} at seed {seed}");
            }
        }
    }

    #[test]
    fn fast_sweep_produces_one_point_per_cell() {
        let config = ScaleConfig {
            sizes: vec![(16, 4), (32, 8)],
            intervals: 4,
            seed: 1,
            with_replay: true,
            extra_scenarios: Vec::new(),
        };
        let points = sweep(&config);
        assert_eq!(points.len(), 4, "2 sizes × (suite + replay)");
        for p in &points {
            assert!(p.energy_wh > 0.0, "{}: no energy", p.scenario);
            assert!(p.wall_s > 0.0);
            assert_eq!(p.intervals, 4);
            assert!(p.repair_wall_s > 0.0, "{}: repair not priced", p.scenario);
            assert!(
                p.repair_queries > p.n_hosts,
                "{}: repair must batch-score a real neighbourhood",
                p.scenario
            );
            assert!(
                p.phase_timings.total_s() > 0.0,
                "{}: phase columns must be populated",
                p.scenario
            );
            assert!((0.0..=1.0).contains(&p.determine_failures_frac));
        }
        // Energy grows with federation size — more hosts draw more power.
        assert!(points[2].energy_wh > points[0].energy_wh);
    }

    #[test]
    fn extra_scenarios_join_the_sweep_with_a_capped_horizon() {
        let config = ScaleConfig {
            sizes: Vec::new(),
            intervals: 3,
            seed: 1,
            with_replay: false,
            extra_scenarios: vec!["cascade-64", "cliff-partition-16"],
        };
        let points = sweep(&config);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].scenario, "cascade-64");
        assert_eq!(points[0].n_hosts, 64);
        assert_eq!(points[0].intervals, 3, "horizon capped to the sweep's");
        assert_eq!(points[1].scenario, "cliff-partition-16");
        assert!(points.iter().all(|p| p.energy_wh > 0.0));
    }

    #[test]
    fn points_round_trip_through_json() {
        let config = ScaleConfig {
            sizes: vec![(16, 4)],
            intervals: 3,
            seed: 2,
            with_replay: false,
            extra_scenarios: Vec::new(),
        };
        let points = sweep(&config);
        let json = to_json(&points);
        let back: Vec<ScalePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), points.len());
        assert_eq!(back[0].scenario, points[0].scenario);
        assert_eq!(back[0].energy_wh.to_bits(), points[0].energy_wh.to_bits());
        let table = render_table(&points);
        assert!(table.contains("aiot-16"));
        assert!(table.contains("sampled_flt"));
    }

    #[test]
    fn minflt_is_field_ten_of_proc_stat() {
        let line = "4242 (odd) name) S 1 4242 4242 0 -1 4194560 31337 0 12 0 5 3";
        assert_eq!(parse_minflt(line), Some(31337));
        assert_eq!(parse_minflt("garbage"), None);
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(minor_faults() > 0, "a running process has faulted pages in");
        }
    }
}
