//! Scenario fuzzer: random search over the scenario axes with a
//! QoS-cliff oracle and proptest-style shrinking.
//!
//! The scenario registry ([`carol::scenario`]) makes workload, arrival
//! shape, fleet mix, scale and fault model independent axes; this module
//! drives random points of that product space through the experiment
//! runner and flags **QoS cliffs** — scenario shapes where CAROL's
//! repair either
//!
//! 1. **loses to a baseline** ([`baselines::Lbos`]) on the same seed by
//!    more than a configured margin, or
//! 2. **falls off its own neighbourhood**: the same scenario with the
//!    fault-rate knob one notch lower scores ≥ `drop` better, i.e. a
//!    small parameter change produces an outsized QoS collapse.
//!
//! Every hit is shrunk to a local minimum with the vendored proptest
//! shrinker ([`proptest::shrink_failure`]) — the genome is a plain
//! 6-tuple of `usize` knobs, so each shrink candidate moves one knob
//! toward its simplest value (fewest hosts, stationary arrivals, i.i.d.
//! faults, rate 0, shortest run) while the oracle keeps failing. The
//! minimal scenario is emitted as a serialised [`ScenarioSpec`], ready
//! to be checked in as a named `cliff-*` registry entry and pinned by a
//! regression test.
//!
//! Everything here is a pure function of `(genome, seed)`: the policy is
//! pre-trained once per fuzz run from the seed (bit-identical to
//! [`Carol::pretrained`], see [`pretrained_gon`]), so a reported cliff
//! replays exactly from its spec alone.

use crate::scale::sweep_carol_config;
use baselines::Lbos;
use carol::carol::Carol;
use carol::scenario::{run_scenario, ScenarioSpec, SchedulerKind, WorkloadSource};
use edgesim::FleetMix;
use faults::{FaultModel, TargetPolicy};
use gon::{train_offline, GonModel};
use proptest::strategy::Strategy;
use proptest::{shrink_failure, SeedableRng, StdRng, TestCaseError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Instant;
use workloads::trace::{generate_trace, TraceConfig};
use workloads::{ArrivalShape, BenchmarkSuite};

/// `(n_hosts, n_brokers)` sizes the fuzzer may pick, ascending — index 0
/// is the shrink target.
pub const SIZES: [(usize, usize); 3] = [(16, 4), (32, 8), (64, 8)];

/// One sampled point of the scenario space: `(size_idx, fleet_idx,
/// shape_idx, model_idx, rate_q, intervals)`. All components shrink
/// toward their range start, which [`decode`] maps to the simplest
/// scenario (16 Pi hosts, stationary arrivals, i.i.d. faults at rate 0,
/// shortest run) — so proptest's greedy shrinker moves every hit toward
/// a minimal reproducer.
pub type Genome = (usize, usize, usize, usize, usize, usize);

/// The strategy tuple shape behind [`genome_strategies`]: one
/// `Range<usize>` per genome knob.
pub type GenomeStrategies = (
    Range<usize>,
    Range<usize>,
    Range<usize>,
    Range<usize>,
    Range<usize>,
    Range<usize>,
);

/// Strategy tuple generating [`Genome`]s; also the shrinker.
pub fn genome_strategies() -> GenomeStrategies {
    (0..SIZES.len(), 0..2, 0..4, 0..3, 0..13, 2..13)
}

/// Draws one genome from the strategy tuple.
pub fn generate_genome(rng: &mut StdRng) -> Genome {
    let s = genome_strategies();
    (
        s.0.generate(rng),
        s.1.generate(rng),
        s.2.generate(rng),
        s.3.generate(rng),
        s.4.generate(rng),
        s.5.generate(rng),
    )
}

/// Maps a genome to a concrete scenario. Pure: the same `(genome,
/// seed)` always yields the same spec, which is what makes shrinking
/// sound and reported cliffs replayable.
pub fn decode(genome: &Genome, seed: u64) -> ScenarioSpec {
    let (size_idx, fleet_idx, shape_idx, model_idx, rate_q, intervals) = *genome;
    let (n_hosts, n_brokers) = SIZES[size_idx];
    let fleet = if fleet_idx == 0 {
        FleetMix::Pi
    } else {
        FleetMix::Hetero
    };
    let shape = match shape_idx {
        0 => ArrivalShape::Stationary,
        1 => ArrivalShape::Diurnal {
            period: 8,
            amplitude: 0.7,
        },
        2 => ArrivalShape::FlashCrowd {
            at: 2,
            duration: 3,
            magnitude: 3.0,
        },
        _ => ArrivalShape::Ramp {
            to: 3.0,
            over: intervals,
        },
    };
    let fault_model = match model_idx {
        0 => FaultModel::Iid,
        1 => FaultModel::Cascade {
            rack_size: 8,
            boost: 2.0,
            decay: 0.5,
        },
        _ => FaultModel::Partition {
            rack_size: 8,
            rate: 0.25,
            duration: 2,
        },
    };
    ScenarioSpec {
        name: format!(
            "fuzz-{n_hosts}h-{}-{}-{}-r{rate_q}-i{intervals}",
            fleet.label(),
            shape.label(),
            fault_model.label()
        ),
        workload: WorkloadSource::Suite {
            suite: BenchmarkSuite::AIoTBench,
            rate: 0.45 * n_hosts as f64,
        },
        shape,
        n_hosts,
        n_brokers,
        fleet,
        intervals,
        fault_rate: rate_q as f64 * 0.25,
        fault_target: TargetPolicy::AnyHost,
        fault_model,
        scheduler: SchedulerKind::LeastLoad,
        seed,
    }
}

/// The pre-training half of [`Carol::pretrained`] under
/// [`sweep_carol_config`], split out so one fuzz run trains the GON once
/// and every oracle evaluation rebuilds the policy from a clone.
/// `Carol::from_model(pretrained_gon(seed), sweep_carol_config(seed),
/// seed)` is bit-identical to `Carol::pretrained(sweep_carol_config(
/// seed), seed)` (pinned by a test below), so reported cliffs replay
/// through the ordinary constructor.
pub fn pretrained_gon(seed: u64) -> GonModel {
    let config = sweep_carol_config(seed);
    let trace = generate_trace(
        &TraceConfig {
            intervals: config.pretrain_intervals,
            topology_period: 10,
            arrival_rate: 7.2,
            suite: BenchmarkSuite::DeFog,
            seed,
        },
        config.pretrain_sim.clone(),
    );
    let mut gon = GonModel::new(config.gon.clone());
    train_offline(&mut gon, &trace, &config.offline);
    gon
}

/// Scalar QoS of one run: completed tasks discounted by the SLO
/// violation rate — the quantity both cliff oracles compare.
pub fn qos(completed: usize, slo_violation_rate: f64) -> f64 {
    completed as f64 * (1.0 - slo_violation_rate)
}

/// Which oracle flagged the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CliffKind {
    /// CAROL lost to the [`Lbos`] baseline on the same seed.
    BaselineLoss,
    /// CAROL's QoS collapsed relative to the same scenario at one
    /// fault-rate notch lower.
    NeighborhoodDrop,
}

/// Oracle verdict for one genome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Judgment {
    /// CAROL's QoS on the scenario.
    pub carol_qos: f64,
    /// CAROL's completed-task count.
    pub carol_completed: usize,
    /// [`Lbos`]'s QoS on the same scenario and seed.
    pub baseline_qos: f64,
    /// [`Lbos`]'s completed-task count.
    pub baseline_completed: usize,
    /// CAROL's QoS with the fault-rate knob one notch lower (`None` at
    /// rate 0).
    pub neighbor_qos: Option<f64>,
    /// The oracle that fired, if any.
    pub cliff: Option<CliffKind>,
}

/// Runs CAROL on `spec` (policy rebuilt from the pre-trained GON) and
/// returns `(qos, completed)`.
fn run_carol(gon: &GonModel, spec: &ScenarioSpec) -> (f64, usize) {
    let mut policy = Carol::from_model(gon.clone(), sweep_carol_config(spec.seed), spec.seed);
    let r = run_scenario(&mut policy, spec).result;
    (qos(r.completed, r.slo_violation_rate), r.completed)
}

/// Evaluates both cliff oracles on one genome.
pub fn judge(gon: &GonModel, genome: &Genome, seed: u64, config: &FuzzConfig) -> Judgment {
    let spec = decode(genome, seed);
    let (carol_qos, carol_completed) = run_carol(gon, &spec);
    let (baseline_qos, baseline_completed) = {
        let mut policy = Lbos::new(seed);
        let r = run_scenario(&mut policy, &spec).result;
        (qos(r.completed, r.slo_violation_rate), r.completed)
    };
    let neighbor_qos = (genome.4 > 0).then(|| {
        let neighbor = (
            genome.0,
            genome.1,
            genome.2,
            genome.3,
            genome.4 - 1,
            genome.5,
        );
        run_carol(gon, &decode(&neighbor, seed)).0
    });
    let cliff = if baseline_qos > 0.0 && carol_qos < baseline_qos * (1.0 - config.margin) {
        Some(CliffKind::BaselineLoss)
    } else {
        neighbor_qos
            .filter(|&n| n > 0.0 && carol_qos < n * (1.0 - config.drop))
            .map(|_| CliffKind::NeighborhoodDrop)
    };
    Judgment {
        carol_qos,
        carol_completed,
        baseline_qos,
        baseline_completed,
        neighbor_qos,
        cliff,
    }
}

/// Fuzz-run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Maximum cases to generate.
    pub cases: usize,
    /// Wall-clock budget in seconds; generation stops and shrinking is
    /// truncated once spent.
    pub budget_s: f64,
    /// [`CliffKind::BaselineLoss`] margin: flag when `carol_qos <
    /// baseline_qos · (1 − margin)`.
    pub margin: f64,
    /// [`CliffKind::NeighborhoodDrop`] threshold: flag when `carol_qos <
    /// neighbor_qos · (1 − drop)`.
    pub drop: f64,
    /// Master seed: spec seed of every case, and (xor case index) the
    /// genome-sampling seed.
    pub seed: u64,
}

impl FuzzConfig {
    /// Full search: 512 cases, 10-minute budget.
    pub fn full(seed: u64) -> Self {
        Self {
            cases: 512,
            budget_s: 600.0,
            margin: 0.10,
            drop: 0.30,
            seed,
        }
    }

    /// CI smoke budget: 128 cases, stops after ~55 s regardless of
    /// progress. At seed 0 this reproduces the first checked-in cliffs
    /// within the budget.
    pub fn fast(seed: u64) -> Self {
        Self {
            cases: 128,
            budget_s: 55.0,
            ..Self::full(seed)
        }
    }
}

/// One shrunk cliff, as serialised into the JSON report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cliff {
    /// Case index that found it.
    pub case: usize,
    /// The **minimal** scenario — replayable via
    /// [`ScenarioSpec::from_json`] or by promoting it to a registry
    /// entry.
    pub scenario: ScenarioSpec,
    /// Oracle verdict on the minimal scenario.
    pub judgment: Judgment,
    /// Successful shrink steps from the original hit to the minimum.
    pub shrink_steps: usize,
    /// Host count of the original (pre-shrink) hit.
    pub initial_hosts: usize,
    /// Intervals of the original (pre-shrink) hit.
    pub initial_intervals: usize,
    /// Human-readable oracle message for the minimal scenario.
    pub message: String,
}

/// Machine-readable fuzz summary, written next to `BENCH_PR.json` /
/// `SCALE_PR.json` in CI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Cases generated and judged.
    pub cases_run: usize,
    /// Cliffs found (== `cliffs.len()`).
    pub cliffs_found: usize,
    /// Wall-clock spent, seconds.
    pub elapsed_s: f64,
    /// Configured budget, seconds.
    pub budget_s: f64,
    /// Baseline-loss margin used.
    pub margin: f64,
    /// Neighbourhood-drop threshold used.
    pub drop: f64,
    /// The shrunk cliffs.
    pub cliffs: Vec<Cliff>,
}

impl FuzzReport {
    /// Pretty JSON for the artifact file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fuzz report serialises")
    }
}

fn cliff_message(genome: &Genome, j: &Judgment) -> String {
    match j.cliff {
        Some(CliffKind::BaselineLoss) => format!(
            "{:?}: CAROL qos {:.2} < LBOS qos {:.2}",
            genome, j.carol_qos, j.baseline_qos
        ),
        Some(CliffKind::NeighborhoodDrop) => format!(
            "{:?}: CAROL qos {:.2} collapsed vs neighbour {:.2}",
            genome,
            j.carol_qos,
            j.neighbor_qos.unwrap_or(0.0)
        ),
        None => format!("{genome:?}: no cliff"),
    }
}

/// Runs the fuzzer: sample genomes, judge each, shrink every hit to a
/// local minimum, and return the report. Deterministic given the
/// config; the wall-clock budget only *truncates* work (fewer cases, or
/// a less-shrunk minimum), it never changes a verdict.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let strategies = genome_strategies();
    let start = Instant::now();
    let gon = pretrained_gon(config.seed);
    let mut cases_run = 0;
    let mut cliffs: Vec<Cliff> = Vec::new();
    for case in 0..config.cases {
        if start.elapsed().as_secs_f64() >= config.budget_s {
            break;
        }
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let genome = generate_genome(&mut rng);
        let verdict = judge(&gon, &genome, config.seed, config);
        cases_run += 1;
        let Some(_) = verdict.cliff else { continue };
        let initial_msg = cliff_message(&genome, &verdict);
        let run = |g: &Genome| -> Result<(), TestCaseError> {
            if start.elapsed().as_secs_f64() >= config.budget_s {
                // Out of budget: report the candidate as passing so the
                // greedy loop stops at the current (still-failing) best.
                return Ok(());
            }
            let j = judge(&gon, g, config.seed, config);
            match j.cliff {
                Some(_) => Err(TestCaseError::Fail(cliff_message(g, &j))),
                None => Ok(()),
            }
        };
        let (min_genome, message, shrink_steps) =
            shrink_failure(&strategies, genome, initial_msg, run);
        let scenario = decode(&min_genome, config.seed);
        // Hits that shrink from different starts routinely land on the
        // same minimum; re-recording it buys nothing.
        if cliffs.iter().any(|c| c.scenario == scenario) {
            continue;
        }
        let judgment = judge(&gon, &min_genome, config.seed, config);
        cliffs.push(Cliff {
            case,
            scenario,
            judgment,
            shrink_steps,
            initial_hosts: SIZES[genome.0].0,
            initial_intervals: genome.5,
            message,
        });
    }
    FuzzReport {
        seed: config.seed,
        cases_run,
        cliffs_found: cliffs.len(),
        elapsed_s: start.elapsed().as_secs_f64(),
        budget_s: config.budget_s,
        margin: config.margin,
        drop: config.drop,
        cliffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_is_pure_and_round_trips_serde() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            let g = generate_genome(&mut rng);
            let a = decode(&g, 7);
            let b = decode(&g, 7);
            assert_eq!(a, b);
            let back = ScenarioSpec::from_json(&a.to_json()).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn genome_range_starts_decode_to_the_simplest_scenario() {
        let spec = decode(&(0, 0, 0, 0, 0, 2), 1);
        assert_eq!(spec.n_hosts, 16);
        assert_eq!(spec.fleet, FleetMix::Pi);
        assert_eq!(spec.shape, ArrivalShape::Stationary);
        assert_eq!(spec.fault_model, FaultModel::Iid);
        assert_eq!(spec.fault_rate, 0.0);
        assert_eq!(spec.intervals, 2);
    }

    #[test]
    fn split_pretrain_matches_carol_pretrained_bitwise() {
        // The fuzzer amortises pre-training across evaluations; that is
        // only sound if the split construction is the ordinary one.
        let seed = 5;
        let spec = decode(&(0, 0, 0, 0, 4, 4), seed);
        let mut split = Carol::from_model(pretrained_gon(seed), sweep_carol_config(seed), seed);
        let mut whole = Carol::pretrained(sweep_carol_config(seed), seed);
        let a = run_scenario(&mut split, &spec).result;
        let b = run_scenario(&mut whole, &spec).result;
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.total_energy_wh.to_bits(), b.total_energy_wh.to_bits());
        assert_eq!(a.mean_response_s.to_bits(), b.mean_response_s.to_bits());
    }

    #[test]
    fn promoted_cliff_scenarios_match_their_fuzz_genomes() {
        // The `cliff-*` registry entries claim to be verbatim promotions
        // of fuzzer minima; pin the mapping so a registry edit that
        // drifts from the discovered shape fails loudly.
        for (name, genome) in [
            ("cliff-cascade-16", (0, 0, 0, 1, 8, 4)),
            ("cliff-partition-16", (0, 0, 0, 2, 6, 4)),
            ("cliff-flashcrowd-32", (1, 0, 2, 0, 7, 10)),
        ] {
            let registry = ScenarioSpec::named(name, 0).unwrap();
            let fuzzed = ScenarioSpec {
                name: registry.name.clone(),
                ..decode(&genome, 0)
            };
            assert_eq!(registry, fuzzed, "{name}");
        }
    }

    #[test]
    fn shrunk_scenario_still_trips_the_same_oracle() {
        // Property: whatever minimum `shrink_failure` lands on, the
        // oracle that accepted each adopted candidate is the one that
        // still fires on it. Use a synthetic always-cliff oracle so the
        // test is fast and exercises the plumbing, not the simulator.
        let strategies = genome_strategies();
        let initial = (2usize, 1usize, 3usize, 2usize, 12usize, 12usize);
        let oracle = |g: &Genome| g.4 >= 3 && g.0 >= 1;
        let run = |g: &Genome| -> Result<(), TestCaseError> {
            if oracle(g) {
                Err(TestCaseError::Fail(format!("{g:?}")))
            } else {
                Ok(())
            }
        };
        assert!(oracle(&initial));
        let (min_genome, _msg, steps) = shrink_failure(&strategies, initial, "initial".into(), run);
        assert!(oracle(&min_genome), "minimum must still trip the oracle");
        assert!(steps > 0, "a strictly smaller failing genome exists");
        assert_eq!(min_genome.4, 3, "rate knob shrinks to the oracle floor");
        assert_eq!(min_genome.0, 1, "size knob shrinks to the oracle floor");
        // Components irrelevant to the oracle shrink all the way down.
        assert_eq!((min_genome.1, min_genome.2, min_genome.3), (0, 0, 0));
        assert_eq!(min_genome.5, 2);
    }
}
