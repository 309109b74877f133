//! Named scenarios: one registry entry = workload source (synthetic suite
//! or recorded trace) × federation size × fault intensity × underlying
//! scheduler.
//!
//! The paper evaluates every policy on exactly one shape — AIoTBench on
//! the 16-host testbed with λ_f = 0.5 broker faults over the least-load
//! scheduler. The scenario engine turns each of those choices into an
//! axis, so resilience claims can be probed on workloads and scales
//! CAROL was never tuned for: trace replays, 32/64/128-host federations,
//! fault storms, load-blind round-robin placement, correlated fault
//! models (rack cascades, network partitions), heterogeneous fleets and
//! non-stationary arrivals (diurnal cycles, flash crowds). Every spec is
//! serde-round-trippable so fuzzer-found shapes can be checked in as
//! named scenarios (the `cliff-*` entries).
//!
//! [`run_scenarios`] fans a scenario list out over the
//! [`par`] thread pool exactly like
//! [`run_seeds`](crate::runner::run_seeds): every scenario owns its RNG
//! streams and policy instance, so results are bit-identical to serial
//! execution in any thread configuration (`tests/determinism.rs` gates
//! this for a 64-host replay scenario).

use crate::policy::ResiliencePolicy;
use crate::runner::{run_experiment_full, ExperimentConfig, ExperimentResult};
use edgesim::scheduler::{LeastLoadScheduler, RoundRobinScheduler};
use edgesim::{FleetMix, Scheduler, SimConfig};
use faults::{FaultModel, TargetPolicy};
use serde::{Deserialize, Serialize};
use workloads::replay::{check_events, record_suite, ReplayWorkload, TraceEvent};
use workloads::{ArrivalShape, BagOfTasks, BenchmarkSuite, Workload};

/// Where a scenario's arrivals come from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum WorkloadSource {
    /// Sample a synthetic suite at the given Poisson rate per interval.
    Suite {
        /// Benchmark suite to draw tasks from.
        suite: BenchmarkSuite,
        /// Poisson arrival rate per interval, federation-wide.
        rate: f64,
    },
    /// Replay recorded trace events (see [`workloads::replay`]).
    Replay {
        /// The trace to replay, interval-sorted.
        events: Vec<TraceEvent>,
    },
}

/// Checks replayed events as a trace's are checked
/// ([`workloads::replay::check_events`]), so that no JSON spec carries an
/// event that [`ReplayWorkload::new`] would expand without bound.
impl Deserialize for WorkloadSource {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (variant, payload) = match v {
            serde::Value::Map(entries) if entries.len() == 1 => (&entries[0].0, &entries[0].1),
            other => return Err(serde::Error::expected("enum WorkloadSource", other)),
        };
        let field = |name: &str| {
            let missing = || {
                serde::Error(format!(
                    "missing field `{name}` in WorkloadSource::{variant}"
                ))
            };
            payload.get(name).ok_or_else(missing)
        };
        match variant.as_str() {
            "Suite" => Ok(Self::Suite {
                suite: Deserialize::from_value(field("suite")?)?,
                rate: Deserialize::from_value(field("rate")?)?,
            }),
            "Replay" => {
                let events: Vec<TraceEvent> = Deserialize::from_value(field("events")?)?;
                check_events(&events).map_err(|e| serde::Error(format!("replay events: {e}")))?;
                Ok(Self::Replay { events })
            }
            other => Err(serde::Error(format!(
                "unknown variant `{other}` of WorkloadSource"
            ))),
        }
    }
}

/// The underlying task scheduler a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// GOBI-style least-projected-load placement (the paper's setting).
    LeastLoad,
    /// Load-blind round-robin rotation per LEI.
    RoundRobin,
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::LeastLoad => Box::new(LeastLoadScheduler::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
        }
    }
}

/// A fully specified, reproducible experiment shape. Serializable, so
/// fuzzer-found scenarios can be written out as JSON and promoted to
/// named registry entries (see [`ScenarioSpec::to_json`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Registry name (or a caller-chosen label for ad-hoc scenarios).
    pub name: String,
    /// Arrival process.
    pub workload: WorkloadSource,
    /// Non-stationary modulation of the arrival rate (synthetic suites
    /// only; replayed traces carry their shape in the events themselves).
    pub shape: ArrivalShape,
    /// Federation size.
    pub n_hosts: usize,
    /// LEI / broker count.
    pub n_brokers: usize,
    /// Hardware composition of the federation.
    pub fleet: FleetMix,
    /// Scheduling intervals to run.
    pub intervals: usize,
    /// Poisson fault rate per interval, federation-wide (λ_f; the paper
    /// uses 0.5).
    pub fault_rate: f64,
    /// Who the injector attacks.
    pub fault_target: TargetPolicy,
    /// Correlated fault structure (cascades, partitions) layered on the
    /// base Poisson stream.
    pub fault_model: FaultModel,
    /// Underlying task scheduler.
    pub scheduler: SchedulerKind,
    /// Master seed for the simulator, workload and injector streams.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The §V paper shape as a scenario: AIoTBench, 16 hosts / 4 LEIs,
    /// λ_f = 0.5 broker faults, least-load scheduling.
    pub fn paper(seed: u64) -> Self {
        Self {
            name: "paper-16".into(),
            workload: WorkloadSource::Suite {
                suite: BenchmarkSuite::AIoTBench,
                rate: 7.2,
            },
            shape: ArrivalShape::Stationary,
            n_hosts: 16,
            n_brokers: 4,
            fleet: FleetMix::Pi,
            intervals: 100,
            fault_rate: 0.5,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            scheduler: SchedulerKind::LeastLoad,
            seed,
        }
    }

    /// Looks a named scenario up in the registry. `None` for unknown
    /// names; see [`ScenarioSpec::registry_names`] for the catalogue.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        // Arrival rates keep the paper's per-host intensity (7.2 / 16 =
        // 0.45 tasks/host/interval) as the federation grows, so larger
        // scenarios stress scale rather than merely idling more hosts.
        let scaled = |n_hosts: usize| 0.45 * n_hosts as f64;
        let base = |name: &str, suite, n_hosts: usize, n_brokers: usize| ScenarioSpec {
            name: name.into(),
            workload: WorkloadSource::Suite {
                suite,
                rate: scaled(n_hosts),
            },
            shape: ArrivalShape::Stationary,
            n_hosts,
            n_brokers,
            fleet: FleetMix::Pi,
            intervals: 50,
            fault_rate: 0.5,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            scheduler: SchedulerKind::LeastLoad,
            seed,
        };
        match name {
            "paper-16" => Some(ScenarioSpec::paper(seed)),
            "aiot-32" => Some(base("aiot-32", BenchmarkSuite::AIoTBench, 32, 8)),
            "aiot-64" => Some(base("aiot-64", BenchmarkSuite::AIoTBench, 64, 8)),
            "aiot-128" => Some(base("aiot-128", BenchmarkSuite::AIoTBench, 128, 16)),
            "aiot-256" => Some(base("aiot-256", BenchmarkSuite::AIoTBench, 256, 16)),
            "aiot-512" => Some(base("aiot-512", BenchmarkSuite::AIoTBench, 512, 32)),
            "aiot-1024" => Some(base("aiot-1024", BenchmarkSuite::AIoTBench, 1024, 64)),
            "aiot-4096" => Some(base("aiot-4096", BenchmarkSuite::AIoTBench, 4096, 128)),
            "defog-32" => Some(base("defog-32", BenchmarkSuite::DeFog, 32, 8)),
            "storm-64" => Some(ScenarioSpec {
                fault_rate: 2.0,
                fault_target: TargetPolicy::AnyHost,
                ..base("storm-64", BenchmarkSuite::AIoTBench, 64, 8)
            }),
            "roundrobin-16" => Some(ScenarioSpec {
                name: "roundrobin-16".into(),
                scheduler: SchedulerKind::RoundRobin,
                ..ScenarioSpec::paper(seed)
            }),
            "replay-64" => {
                // A 64-host federation replaying a DeFog trace recorded at
                // the same scale: the canonical "new workload × new scale"
                // scenario of the engine. The trace itself is a seeded
                // function of `seed`, so the scenario stays a pure
                // function of its inputs.
                let events = record_suite(BenchmarkSuite::DeFog, scaled(64), seed ^ 0x7265, 30);
                Some(ScenarioSpec {
                    name: "replay-64".into(),
                    workload: WorkloadSource::Replay { events },
                    intervals: 30,
                    ..base("replay-64", BenchmarkSuite::DeFog, 64, 8)
                })
            }
            // --- Correlated-fault and heterogeneous-fleet axes. These hit
            // any host: cascades and partitions model rack-scale blast
            // radius, not targeted broker attacks.
            "cascade-64" => Some(ScenarioSpec {
                fault_target: TargetPolicy::AnyHost,
                fault_model: FaultModel::Cascade {
                    rack_size: 8,
                    boost: 2.0,
                    decay: 0.5,
                },
                ..base("cascade-64", BenchmarkSuite::AIoTBench, 64, 8)
            }),
            "partition-128" => Some(ScenarioSpec {
                fault_target: TargetPolicy::AnyHost,
                fault_model: FaultModel::Partition {
                    rack_size: 8,
                    rate: 0.25,
                    duration: 2,
                },
                ..base("partition-128", BenchmarkSuite::AIoTBench, 128, 16)
            }),
            "flashcrowd-hetero-64" => Some(ScenarioSpec {
                fleet: FleetMix::Hetero,
                shape: ArrivalShape::FlashCrowd {
                    at: 20,
                    duration: 6,
                    magnitude: 3.0,
                },
                ..base("flashcrowd-hetero-64", BenchmarkSuite::AIoTBench, 64, 8)
            }),
            "diurnal-32" => Some(ScenarioSpec {
                shape: ArrivalShape::Diurnal {
                    period: 24,
                    amplitude: 0.7,
                },
                ..base("diurnal-32", BenchmarkSuite::AIoTBench, 32, 8)
            }),
            "hetero-32" => Some(ScenarioSpec {
                fleet: FleetMix::Hetero,
                ..base("hetero-32", BenchmarkSuite::AIoTBench, 32, 8)
            }),
            _ => Self::named_cliff(name, seed),
        }
    }

    /// Names of every registered scenario.
    pub fn registry_names() -> &'static [&'static str] {
        &[
            "paper-16",
            "aiot-32",
            "aiot-64",
            "aiot-128",
            "aiot-256",
            "aiot-512",
            "aiot-1024",
            "aiot-4096",
            "defog-32",
            "storm-64",
            "roundrobin-16",
            "replay-64",
            "cascade-64",
            "partition-128",
            "flashcrowd-hetero-64",
            "diurnal-32",
            "hetero-32",
            "cliff-cascade-16",
            "cliff-partition-16",
            "cliff-flashcrowd-32",
        ]
    }

    /// Fuzzer-found QoS-cliff scenarios, promoted verbatim from the
    /// `bench` scenario fuzzer's shrunk minima (discovery seed 0, see
    /// README § "Adversarial scenarios & fuzzing"): shapes where CAROL's
    /// QoS either loses to the LBOS baseline on the same seed or
    /// collapses against the same scenario one fault-rate notch lower.
    /// `tests/regression_scenarios.rs` pins their exact numbers at the
    /// discovery seed; at other seeds they are ordinary scenarios.
    fn named_cliff(name: &str, seed: u64) -> Option<Self> {
        let base = |name: &str, n_hosts: usize, n_brokers: usize| ScenarioSpec {
            name: name.into(),
            workload: WorkloadSource::Suite {
                suite: BenchmarkSuite::AIoTBench,
                rate: 0.45 * n_hosts as f64,
            },
            shape: ArrivalShape::Stationary,
            n_hosts,
            n_brokers,
            fleet: FleetMix::Pi,
            intervals: 4,
            fault_rate: 2.0,
            fault_target: TargetPolicy::AnyHost,
            fault_model: FaultModel::Iid,
            scheduler: SchedulerKind::LeastLoad,
            seed,
        };
        match name {
            // fuzz-16h-pi-stationary-cascade-r8-i4: a rack cascade at
            // λ_f = 2.0 drops CAROL from QoS 29 (λ_f = 1.75) to 19.
            "cliff-cascade-16" => Some(ScenarioSpec {
                fault_model: FaultModel::Cascade {
                    rack_size: 8,
                    boost: 2.0,
                    decay: 0.5,
                },
                ..base("cliff-cascade-16", 16, 4)
            }),
            // fuzz-16h-pi-stationary-partition-r6-i4: rack partitions at
            // λ_f = 1.5 drop CAROL from QoS 29 (λ_f = 1.25) to 19.
            "cliff-partition-16" => Some(ScenarioSpec {
                fault_rate: 1.5,
                fault_model: FaultModel::Partition {
                    rack_size: 8,
                    rate: 0.25,
                    duration: 2,
                },
                ..base("cliff-partition-16", 16, 4)
            }),
            // fuzz-32h-pi-flashcrowd-iid-r7-i10: under a 3× flash crowd
            // CAROL (QoS 109) loses to plain LBOS (122) on the same seed.
            "cliff-flashcrowd-32" => Some(ScenarioSpec {
                shape: ArrivalShape::FlashCrowd {
                    at: 2,
                    duration: 3,
                    magnitude: 3.0,
                },
                intervals: 10,
                fault_rate: 1.75,
                ..base("cliff-flashcrowd-32", 32, 8)
            }),
            _ => None,
        }
    }

    /// Serialises this scenario as pretty JSON (the format the scenario
    /// fuzzer writes candidate cliffs in).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario specs serialise")
    }

    /// Parses a scenario from [`ScenarioSpec::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// An ad-hoc replay scenario over caller-supplied trace events.
    pub fn replay(
        name: impl Into<String>,
        events: Vec<TraceEvent>,
        n_hosts: usize,
        n_brokers: usize,
        seed: u64,
    ) -> Self {
        let intervals = events.iter().map(|e| e.interval + 1).max().unwrap_or(0);
        Self {
            name: name.into(),
            workload: WorkloadSource::Replay { events },
            shape: ArrivalShape::Stationary,
            n_hosts,
            n_brokers,
            fleet: FleetMix::Pi,
            intervals,
            fault_rate: 0.5,
            fault_target: TargetPolicy::BrokersOnly,
            fault_model: FaultModel::Iid,
            scheduler: SchedulerKind::LeastLoad,
            seed,
        }
    }

    /// The experiment configuration this scenario induces.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let (suite, rate) = match &self.workload {
            WorkloadSource::Suite { suite, rate } => (*suite, *rate),
            // Ignored by `run_experiment_full`; recorded for completeness.
            WorkloadSource::Replay { .. } => (BenchmarkSuite::DeFog, 0.0),
        };
        ExperimentConfig {
            sim: SimConfig::fleet(self.n_hosts, self.n_brokers, self.fleet, self.seed),
            intervals: self.intervals,
            suite,
            arrival_rate: rate,
            fault_rate: self.fault_rate,
            fault_target: self.fault_target,
            fault_model: self.fault_model.clone(),
            seed: self.seed,
        }
    }

    /// Builds this scenario's arrival process.
    pub fn build_workload(&self) -> Box<dyn Workload> {
        match &self.workload {
            WorkloadSource::Suite { suite, rate } => Box::new(BagOfTasks::with_shape(
                *suite,
                *rate,
                self.shape,
                self.seed ^ 0x5754,
            )),
            WorkloadSource::Replay { events } => Box::new(ReplayWorkload::new(events)),
        }
    }
}

/// One scenario's outcome: the standard §V metrics tagged with the
/// scenario identity.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// Federation size the scenario ran at.
    pub n_hosts: usize,
    /// The §V metrics.
    pub result: ExperimentResult,
}

/// Runs one scenario under `policy`.
pub fn run_scenario(policy: &mut dyn ResiliencePolicy, spec: &ScenarioSpec) -> ScenarioResult {
    let config = spec.experiment_config();
    let mut workload = spec.build_workload();
    let mut scheduler = spec.scheduler.build();
    let result = run_experiment_full(policy, &config, workload.as_mut(), scheduler.as_mut());
    ScenarioResult {
        scenario: spec.name.clone(),
        n_hosts: spec.n_hosts,
        result,
    }
}

/// Runs `make_policy(spec)` across scenarios **in parallel** on
/// [`par::thread_count`] workers (`CAROL_THREADS` overrides; `1` forces
/// the serial path), mirroring [`crate::runner::run_seeds`]. Every
/// scenario owns its policy and RNG streams, so the result vector is
/// bit-identical to serial execution — same order, same bits.
pub fn run_scenarios<P: ResiliencePolicy>(
    make_policy: impl Fn(&ScenarioSpec) -> P + Sync,
    specs: &[ScenarioSpec],
) -> Vec<ScenarioResult> {
    run_scenarios_threads(par::thread_count(), make_policy, specs)
}

/// [`run_scenarios`] with an explicit worker count, for callers (and the
/// determinism suite) that must pin the parallelism level.
pub fn run_scenarios_threads<P: ResiliencePolicy>(
    threads: usize,
    make_policy: impl Fn(&ScenarioSpec) -> P + Sync,
    specs: &[ScenarioSpec],
) -> Vec<ScenarioResult> {
    par::par_map_threads(threads, specs, |spec| {
        let mut policy = make_policy(spec);
        run_scenario(&mut policy, spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carol::{Carol, CarolConfig};

    fn tiny(spec: &mut ScenarioSpec, intervals: usize) {
        spec.intervals = intervals;
        if let WorkloadSource::Replay { events } = &mut spec.workload {
            events.retain(|e| e.interval < intervals);
        }
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in ScenarioSpec::registry_names() {
            let spec = ScenarioSpec::named(name, 1).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(&spec.name, name);
            assert!(spec.n_hosts >= 16);
            assert!(spec.n_brokers > 0 && spec.n_brokers <= spec.n_hosts);
            assert!(spec.intervals > 0);
            // Every scenario must induce a buildable simulator config.
            let cfg = spec.experiment_config();
            assert_eq!(cfg.sim.specs.len(), spec.n_hosts);
        }
        assert!(ScenarioSpec::named("no-such-scenario", 1).is_none());
    }

    #[test]
    fn scenario_specs_round_trip_through_json() {
        for name in [
            "paper-16",
            "cascade-64",
            "partition-128",
            "flashcrowd-hetero-64",
            "replay-64",
        ] {
            let spec = ScenarioSpec::named(name, 7).unwrap();
            let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, back, "{name}");
        }
    }

    #[test]
    fn correlated_axes_actually_change_execution() {
        // Same base scenario, three fault models: the correlated layers
        // must alter the run, and Iid must match the axis-free original.
        let run = |model: FaultModel, target| {
            let mut spec = ScenarioSpec::named("paper-16", 3).unwrap();
            spec.fault_model = model;
            spec.fault_target = target;
            spec.fault_rate = 1.0;
            tiny(&mut spec, 10);
            let mut policy = baseline();
            run_scenario(&mut policy, &spec).result
        };
        let iid = run(FaultModel::Iid, TargetPolicy::AnyHost);
        let cascade = run(
            FaultModel::Cascade {
                rack_size: 4,
                boost: 3.0,
                decay: 0.6,
            },
            TargetPolicy::AnyHost,
        );
        let partition = run(
            FaultModel::Partition {
                rack_size: 4,
                rate: 0.5,
                duration: 2,
            },
            TargetPolicy::AnyHost,
        );
        assert_ne!(
            iid.total_energy_wh.to_bits(),
            cascade.total_energy_wh.to_bits(),
            "cascade layer must change the run"
        );
        assert_ne!(
            iid.total_energy_wh.to_bits(),
            partition.total_energy_wh.to_bits(),
            "partition layer must change the run"
        );
        assert!(
            partition.restarts > 0 || partition.broker_failures > 0,
            "rack partitions must actually fell hosts"
        );
    }

    #[test]
    fn hetero_fleet_and_shape_axes_change_execution() {
        let run = |mutate: fn(&mut ScenarioSpec)| {
            let mut spec = ScenarioSpec::named("paper-16", 5).unwrap();
            mutate(&mut spec);
            tiny(&mut spec, 8);
            let mut policy = baseline();
            run_scenario(&mut policy, &spec).result
        };
        let plain = run(|_| {});
        let hetero = run(|s| s.fleet = FleetMix::Hetero);
        let crowd = run(|s| {
            s.shape = ArrivalShape::FlashCrowd {
                at: 2,
                duration: 3,
                magnitude: 3.0,
            }
        });
        assert_ne!(
            plain.total_energy_wh.to_bits(),
            hetero.total_energy_wh.to_bits(),
            "fleet axis must change the run"
        );
        assert!(
            hetero.total_energy_wh > plain.total_energy_wh,
            "server-class hosts draw more power"
        );
        assert_ne!(
            (plain.completed, plain.total_energy_wh.to_bits()),
            (crowd.completed, crowd.total_energy_wh.to_bits()),
            "arrival shape must change the run"
        );
    }

    #[test]
    fn replay_scenario_covers_its_trace_horizon() {
        let spec = ScenarioSpec::named("replay-64", 3).unwrap();
        let WorkloadSource::Replay { events } = &spec.workload else {
            panic!("replay-64 must carry a trace");
        };
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.interval < spec.intervals));
    }

    #[test]
    fn named_scenarios_are_pure_functions_of_the_seed() {
        let a = ScenarioSpec::named("replay-64", 9).unwrap();
        let b = ScenarioSpec::named("replay-64", 9).unwrap();
        let (WorkloadSource::Replay { events: ea }, WorkloadSource::Replay { events: eb }) =
            (&a.workload, &b.workload)
        else {
            panic!("replay scenarios expected");
        };
        assert_eq!(ea, eb);
    }

    #[test]
    fn scenario_runs_end_to_end_with_carol() {
        let mut spec = ScenarioSpec::paper(5);
        tiny(&mut spec, 8);
        let mut policy = Carol::pretrained(CarolConfig::fast_test(), 5);
        let out = run_scenario(&mut policy, &spec);
        assert_eq!(out.scenario, "paper-16");
        assert_eq!(out.n_hosts, 16);
        assert!(out.result.total_energy_wh > 0.0);
        assert!(out.result.completed > 0);
    }

    #[test]
    fn scheduler_axis_changes_outcomes() {
        let run = |kind| {
            let mut spec = ScenarioSpec::paper(11);
            spec.scheduler = kind;
            tiny(&mut spec, 10);
            let mut policy = baseline();
            run_scenario(&mut policy, &spec).result
        };
        let ll = run(SchedulerKind::LeastLoad);
        let rr = run(SchedulerKind::RoundRobin);
        assert!(ll.completed > 0 && rr.completed > 0);
        assert_ne!(
            (ll.total_energy_wh.to_bits(), ll.completed),
            (rr.total_energy_wh.to_bits(), rr.completed),
            "the scheduler axis must actually change execution"
        );
    }

    #[test]
    fn scenario_fanout_matches_serial() {
        let specs: Vec<ScenarioSpec> = ["paper-16", "roundrobin-16"]
            .iter()
            .map(|n| {
                let mut s = ScenarioSpec::named(n, 2).unwrap();
                tiny(&mut s, 6);
                s
            })
            .collect();
        let make = |_: &ScenarioSpec| baseline();
        let serial = run_scenarios_threads(1, make, &specs);
        let parallel = run_scenarios_threads(2, make, &specs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(
                a.result.total_energy_wh.to_bits(),
                b.result.total_energy_wh.to_bits()
            );
            assert_eq!(a.result.completed, b.result.completed);
        }
    }

    /// A no-repair stand-in so scenario tests don't pay GON pretraining.
    fn baseline() -> impl ResiliencePolicy {
        struct Noop;
        impl ResiliencePolicy for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn repair(
                &mut self,
                _sim: &edgesim::Simulator,
                _snapshot: &edgesim::SystemState,
            ) -> Option<edgesim::Topology> {
                None
            }
            fn observe(
                &mut self,
                _sim: &edgesim::Simulator,
                _snapshot: &edgesim::SystemState,
                _report: &edgesim::IntervalReport,
            ) -> crate::policy::ObserveOutcome {
                crate::policy::ObserveOutcome { fine_tuned: false }
            }
            fn modeled_decision_s(&self) -> f64 {
                0.0
            }
            fn modeled_overhead_s(&self) -> f64 {
                0.0
            }
            fn memory_gb(&self) -> f64 {
                0.0
            }
        }
        Noop
    }
}
