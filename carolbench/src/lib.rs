//! The CAROL benchmark: two closed-loop workloads driven through the
//! program's public entry points, measured untraced for the end-to-end
//! metrics and, in a separate traced run, broken down layer by layer.
//!
//! * `paper16-daemon` serves a recorded §V trace (16 hosts, 4 LEIs,
//!   AIoTBench λ = 7.2, λ_f = 0.5) through
//!   [`FederationSet::serve`](carol::service::FederationSet::serve) with
//!   background fine-tuning and cadenced checkpoints: the product surface.
//! * `storm1024-repair` steps a right-sized (≈5 workers per broker)
//!   1024-host federation through a scripted broker-fault storm with the
//!   sampled tabu neighbourhood through
//!   [`ExperimentEngine::step`](carol::runner::ExperimentEngine::step):
//!   few, large repairs.
//!
//! A third workload, a fault-free 4096-host fleet, was left out: its
//! memory-bound simulator steps swung by up to 30 % with co-tenant load on
//! a shared 2-vCPU machine, even best of ten repeats, which no bound the
//! benchmark may set would absorb.
//!
//! Every input — trace, scenario, controller config — is generated from
//! the seed, except the storm's fault script and controller, which are
//! fixed so that every seed meets the same storm with the same controller
//! (see [`STORM_FAULT_SCRIPT`] and [`STORM_CONTROLLER`]). One untraced
//! run repeats its workload from a fresh controller until the time budget
//! is spent: every repeat is a full set-up plus a full pass over the same
//! inputs and must reproduce the same QoS bit for bit.

pub mod report;
pub mod run;
pub mod traced;

use carol::carol::CarolConfig;
use carol::runner::ExperimentConfig;
use carol::service::{CheckpointSpec, ExperimentSpec};
use carol::ScenarioSpec;
use faults::{FaultModel, TargetPolicy};
use par::EngineConfig;
use report::Outcome;
use std::path::{Path, PathBuf};
use workloads::replay::{export_jsonl, record_suite, TraceEvent};
use workloads::BenchmarkSuite;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The served §V replay.
    Paper16Daemon,
    /// The 1024-host broker-fault storm.
    Storm1024Repair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Paper16Daemon, Workload::Storm1024Repair];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16Daemon => "paper16-daemon",
            Workload::Storm1024Repair => "storm1024-repair",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Intervals in one pass at full size. The storm's traced run covers
    /// its first half: the probe scores every candidate twice more, and
    /// the whole storm traced took two minutes, too close to the three a
    /// run may take on a busier machine.
    pub fn full_intervals(self, trace: bool) -> usize {
        match (self, trace) {
            (Workload::Paper16Daemon, _) => bench::serve::FULL_INTERVALS,
            (Workload::Storm1024Repair, false) => STORM_INTERVALS,
            (Workload::Storm1024Repair, true) => STORM_INTERVALS / 2,
        }
    }
}

/// Evaluation, training and simulator worker threads. One worker keeps
/// every measurement on one core: on a 2-vCPU machine shared with other
/// tenants, a second worker made the storm's repeat-to-repeat spread
/// about four times wider.
pub const WORKERS: usize = 1;

/// Per-host AIoTBench arrival intensity of the paper (7.2 tasks over 16
/// hosts per interval), kept at the storm's 1024 hosts.
const TASKS_PER_HOST: f64 = 0.45;

/// Intervals between daemon checkpoints at full size.
const CHECKPOINT_EVERY: usize = 2_048;

/// Seed of the storm's fault injector. A seeded Poisson storm repaired
/// 4 to 9 times in 12 intervals depending on the seed, which made the
/// storm's throughput a measure of the seed. Under this fixed script every
/// seed tried meets the same storm: 15 of the 20 intervals repair, about
/// ten of them one broker, the rest two, so the interval median falls
/// among the one-broker repairs.
pub const STORM_FAULT_SCRIPT: u64 = 26;

/// Seed of the storm's controller: its pretraining, GON and sampled tabu
/// neighbourhood. Each broker search scores the same number of
/// candidates, but how fast the GON's ascent settles depends on the
/// weights: with a seeded controller, two seeds run back to back averaged
/// 1.55 s and 1.36 s per broker search, and with this one three seeds
/// averaged 1.12 to 1.17 s. A fixed controller leaves the seed the
/// arrival trace, and with it the loads the searches score.
pub const STORM_CONTROLLER: u64 = 7;

/// Intervals in one storm pass: enough repairs that the interval median
/// sits well inside the one-broker repairs, and two passes fit a
/// 50-second budget.
const STORM_INTERVALS: usize = 20;

/// Everything one workload run feeds the program, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// The recorded arrival trace.
    pub events: Vec<TraceEvent>,
    /// The same trace as `carol-trace` v1 JSONL, the daemon's stream.
    pub trace: String,
    /// Scenario, engine, trainer and checkpoint cadence.
    pub spec: ExperimentSpec,
    /// The experiment the storm steps (the daemon derives the
    /// same from `spec`).
    pub config: ExperimentConfig,
    /// The controller configuration every set-up pretrains.
    pub carol: CarolConfig,
    /// The seed every set-up pretrains the controller with.
    pub controller_seed: u64,
    /// Intervals the trace covers (last event interval + 1).
    pub horizon: usize,
    /// Tasks in the trace.
    pub tasks: usize,
    /// Where the traced pass writes the daemon's checkpoints.
    pub checkpoint_path: PathBuf,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed` over `intervals`
    /// intervals, with [`WORKERS`] pinned in every engine configuration.
    /// The traced pass writes the daemon's checkpoints to
    /// `checkpoint_path`.
    pub fn generate(
        workload: Workload,
        seed: u64,
        intervals: usize,
        checkpoint_path: &Path,
    ) -> Self {
        let engine = EngineConfig::batched(WORKERS);
        let (scenario, events) = match workload {
            Workload::Paper16Daemon => {
                let events = record_suite(BenchmarkSuite::AIoTBench, 7.2, seed, intervals);
                let mut scenario = ScenarioSpec::paper(seed);
                scenario.intervals = intervals;
                (scenario, events)
            }
            Workload::Storm1024Repair => {
                // ≈5 workers per broker, matching the simulator's
                // `broker_span`, so the federation is not saturated.
                let (n_hosts, n_brokers) = (1024, 171);
                let rate = TASKS_PER_HOST * n_hosts as f64;
                let events =
                    record_suite(BenchmarkSuite::AIoTBench, rate, seed ^ 0x7472, intervals);
                let mut scenario =
                    ScenarioSpec::replay(workload.name(), events.clone(), n_hosts, n_brokers, seed);
                scenario.fault_rate = bench::scale::SWEEP_FAULT_RATE;
                scenario.fault_target = TargetPolicy::BrokersOnly;
                scenario.fault_model = FaultModel::Iid;
                (scenario, events)
            }
        };

        let mut spec = ExperimentSpec::new(scenario).with_engine(engine);
        spec.train.train_threads = Some(WORKERS);
        let mut config = spec.scenario.experiment_config();
        let (carol, controller_seed) = match workload {
            Workload::Paper16Daemon => {
                // Untraced passes checkpoint in memory: written to a file,
                // a checkpoint's cost grows with the controller's unbounded
                // dataset Γ, which made throughput vary twofold between
                // seeds. The traced pass writes and restores them.
                spec.checkpoint = CheckpointSpec {
                    every: Some(CHECKPOINT_EVERY.min(intervals).max(1)),
                    path: None,
                };
                // The daemon pretrains with its scenario's seed.
                (spec.carol_config(), spec.scenario.seed)
            }
            Workload::Storm1024Repair => {
                config.seed = STORM_FAULT_SCRIPT;
                let mut carol = bench::scale::sweep_carol_config(STORM_CONTROLLER);
                carol.tabu.neighborhood =
                    bench::scale::sampled_neighborhood(STORM_CONTROLLER, spec.scenario.n_hosts);
                carol.offline.train_threads = Some(WORKERS);
                (carol.with_engine(engine), STORM_CONTROLLER)
            }
        };
        Self {
            workload,
            seed,
            trace: export_jsonl(&events),
            horizon: events.iter().map(|e| e.interval + 1).max().unwrap_or(0),
            tasks: events.iter().map(|e| e.arrivals).sum(),
            events,
            spec,
            config,
            carol,
            controller_seed,
            checkpoint_path: checkpoint_path.to_path_buf(),
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Intervals per repeat (shortened forms use fewer than
    /// [`Workload::full_intervals`]).
    pub intervals: usize,
}

/// Untraced repeats a run makes whatever its budget, so that QoS is
/// compared across at least two passes.
const MIN_REPEATS: usize = 2;

/// The directory the daemon's checkpoints go to, inside the benchmark's
/// own directory.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one benchmark run and returns what it prints last.
pub fn run(config: &RunConfig) -> Outcome {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("the benchmark's scratch directory is writable");
    let checkpoint = dir.join(format!(
        "{}-{}-{}-{}.json",
        config.workload.name(),
        config.seed,
        std::process::id(),
        if config.trace { "traced" } else { "untraced" }
    ));
    let inputs = Inputs::generate(config.workload, config.seed, config.intervals, &checkpoint);
    if config.trace {
        let traced = traced::run(&inputs);
        return Outcome::new(
            traced.attempted,
            traced.failed,
            traced.metrics,
            traced.failures,
        );
    }
    let (setups, repeats) = run::measure(&inputs, config.seconds, MIN_REPEATS);
    let failures: Vec<String> = repeats.iter().flat_map(|r| r.failures.clone()).collect();
    let failed_repeats = repeats.iter().filter(|r| !r.failures.is_empty()).count();
    Outcome::new(
        repeats.len() * inputs.horizon,
        failed_repeats * inputs.horizon,
        report::end_to_end(&setups, &repeats),
        failures,
    )
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` directory when there is one.
pub fn commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}
