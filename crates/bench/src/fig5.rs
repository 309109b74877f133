//! Fig. 5 — the headline comparison: CAROL vs seven baselines and four
//! ablations on six metrics (energy, response time, SLO violation rate,
//! decision time, memory consumption, fine-tuning overhead), averaged
//! over seeded runs.

use baselines::{Dyverse, Eclb, Elbs, Fras, Lbos, StepGan, TopoMad};
use carol::carol::{Carol, CarolConfig, CarolVariant, FineTuneMode};
use carol::policy::ResiliencePolicy;
use carol::runner::{run_experiment, ExperimentConfig, ExperimentResult};
use edgesim::SimConfig;
use metrics::Summary;

/// Every policy evaluated in Fig. 5, in the paper's order: baselines,
/// CAROL, then the hatched ablation bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// DYVERSE heuristic baseline.
    Dyverse,
    /// ECLB meta-heuristic baseline.
    Eclb,
    /// LBOS RL baseline.
    Lbos,
    /// ELBS surrogate baseline.
    Elbs,
    /// FRAS surrogate baseline.
    Fras,
    /// TopoMAD reconstruction baseline.
    TopoMad,
    /// StepGAN reconstruction baseline.
    StepGan,
    /// CAROL proper.
    Carol,
    /// Ablation: fine-tune every interval.
    AlwaysFineTune,
    /// Ablation: never fine-tune.
    NeverFineTune,
    /// Ablation: GAN surrogate.
    WithGan,
    /// Ablation: feed-forward surrogate.
    WithTraditionalSurrogate,
}

impl PolicyKind {
    /// All policies in presentation order.
    pub const ALL: [PolicyKind; 12] = [
        PolicyKind::Dyverse,
        PolicyKind::Eclb,
        PolicyKind::Lbos,
        PolicyKind::Elbs,
        PolicyKind::Fras,
        PolicyKind::TopoMad,
        PolicyKind::StepGan,
        PolicyKind::Carol,
        PolicyKind::AlwaysFineTune,
        PolicyKind::NeverFineTune,
        PolicyKind::WithGan,
        PolicyKind::WithTraditionalSurrogate,
    ];

    /// Just CAROL and the baselines (no ablations).
    pub const COMPARISON: [PolicyKind; 8] = [
        PolicyKind::Dyverse,
        PolicyKind::Eclb,
        PolicyKind::Lbos,
        PolicyKind::Elbs,
        PolicyKind::Fras,
        PolicyKind::TopoMad,
        PolicyKind::StepGan,
        PolicyKind::Carol,
    ];

    /// Instantiates the policy for one seeded run.
    pub fn build(self, carol_cfg: &CarolConfig, seed: u64) -> Box<dyn ResiliencePolicy> {
        match self {
            PolicyKind::Dyverse => Box::new(Dyverse::new()),
            PolicyKind::Eclb => Box::new(Eclb::new()),
            PolicyKind::Lbos => Box::new(Lbos::new(seed)),
            PolicyKind::Elbs => Box::new(Elbs::new(seed)),
            PolicyKind::Fras => Box::new(Fras::new(seed)),
            PolicyKind::TopoMad => Box::new(TopoMad::new(seed)),
            PolicyKind::StepGan => Box::new(StepGan::new(seed)),
            PolicyKind::Carol => Box::new(Carol::pretrained(carol_cfg.clone(), seed)),
            PolicyKind::AlwaysFineTune => Box::new(Carol::pretrained(
                CarolConfig {
                    fine_tune: FineTuneMode::Always,
                    ..carol_cfg.clone()
                },
                seed,
            )),
            PolicyKind::NeverFineTune => Box::new(Carol::pretrained(
                CarolConfig {
                    fine_tune: FineTuneMode::Never,
                    ..carol_cfg.clone()
                },
                seed,
            )),
            PolicyKind::WithGan => Box::new(Carol::pretrained(
                CarolConfig {
                    variant: CarolVariant::Gan,
                    ..carol_cfg.clone()
                },
                seed,
            )),
            PolicyKind::WithTraditionalSurrogate => Box::new(Carol::pretrained(
                CarolConfig {
                    variant: CarolVariant::TraditionalSurrogate,
                    ..carol_cfg.clone()
                },
                seed,
            )),
        }
    }
}

/// Aggregated Fig. 5 metrics for one policy across seeds.
#[derive(Debug, Clone)]
pub struct PolicyMetrics {
    /// Policy name.
    pub name: String,
    /// Fig. 5(a): total energy, kWh.
    pub energy_kwh: Summary,
    /// Fig. 5(b): mean response time, seconds.
    pub response_s: Summary,
    /// Fig. 5(c): SLO violation rate (fraction).
    pub slo_rate: Summary,
    /// Fig. 5(d): mean decision time, seconds.
    pub decision_s: Summary,
    /// Fig. 5(e): memory consumption, % of federation RAM.
    pub memory_pct: Summary,
    /// Fig. 5(f): total fine-tuning overhead, seconds.
    pub overhead_s: Summary,
    /// Raw per-seed results, for deeper analysis.
    pub raw: Vec<ExperimentResult>,
}

impl PolicyMetrics {
    /// Mean fine-tuning overhead over seeds, seconds.
    pub fn fine_tune_overhead(&self) -> f64 {
        self.overhead_s.mean()
    }

    fn from_results(name: String, results: Vec<ExperimentResult>) -> Self {
        let mut energy_kwh = Summary::new("energy_kwh");
        let mut response_s = Summary::new("response_s");
        let mut slo_rate = Summary::new("slo_rate");
        let mut decision_s = Summary::new("decision_s");
        let mut memory_pct = Summary::new("memory_pct");
        let mut overhead_s = Summary::new("overhead_s");
        for r in &results {
            energy_kwh.add_run(r.total_energy_wh / 1000.0);
            response_s.add_run(r.mean_response_s);
            slo_rate.add_run(r.slo_violation_rate);
            decision_s.add_run(r.mean_decision_time_s);
            memory_pct.add_run(r.memory_pct);
            overhead_s.add_run(r.fine_tune_overhead_s);
        }
        Self {
            name,
            energy_kwh,
            response_s,
            slo_rate,
            decision_s,
            memory_pct,
            overhead_s,
            raw: results,
        }
    }
}

/// Configuration of the Fig. 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Base experiment (per-seed fields are overridden per run).
    pub experiment: ExperimentConfig,
    /// Seeds (paper: five runs).
    pub seeds: Vec<u64>,
    /// CAROL configuration shared by CAROL and its ablations.
    pub carol: CarolConfig,
    /// Which policies to run.
    pub policies: Vec<PolicyKind>,
}

impl Fig5Config {
    /// The paper's full setting: 100 intervals, 5 seeds, all 12 policies.
    pub fn paper() -> Self {
        Self {
            experiment: ExperimentConfig::paper(0),
            seeds: vec![1, 2, 3, 4, 5],
            carol: fig5_carol_config(),
            policies: PolicyKind::ALL.to_vec(),
        }
    }

    /// A reduced sweep for CI / smoke runs.
    pub fn fast() -> Self {
        Self {
            experiment: ExperimentConfig {
                intervals: 25,
                ..ExperimentConfig::paper(0)
            },
            seeds: vec![1, 2],
            carol: CarolConfig {
                pretrain_intervals: 40,
                offline: gon::TrainConfig {
                    epochs: 4,
                    minibatch: 16,
                    patience: 4,
                    lr: 1e-3,
                    ..Default::default()
                },
                ..fig5_carol_config()
            },
            policies: PolicyKind::ALL.to_vec(),
        }
    }
}

/// The CAROL configuration used for the headline experiments: paper
/// hyperparameters (α = β = 0.5, tabu list 100, 1 GB GON) with a
/// generation budget tuned for the warm-start convergence §III-B relies
/// on.
pub fn fig5_carol_config() -> CarolConfig {
    CarolConfig {
        gon: gon::GonConfig {
            gen_steps: 10,
            ..Default::default()
        },
        tabu: carol::tabu::TabuConfig {
            list_size: 100,
            max_iters: 4,
            ..Default::default()
        },
        pretrain_intervals: 200,
        pretrain_sim: SimConfig::testbed(0),
        offline: gon::TrainConfig {
            epochs: 10,
            minibatch: 32,
            patience: 4,
            lr: 1e-3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Runs the sweep and returns one [`PolicyMetrics`] per policy, in input
/// order.
///
/// The policy × seed grid is flattened into one parallel fan-out over
/// [`par::thread_count`] workers (override with `CAROL_THREADS`). Each
/// grid cell builds its own policy and RNG streams, so results are
/// bit-identical to the serial sweep in any thread configuration.
pub fn run(config: &Fig5Config) -> Vec<PolicyMetrics> {
    let grid: Vec<(PolicyKind, u64)> = config
        .policies
        .iter()
        .flat_map(|&kind| config.seeds.iter().map(move |&seed| (kind, seed)))
        .collect();
    let cells = par::par_map_threads(par::thread_count(), &grid, |&(kind, seed)| {
        let mut policy = kind.build(&config.carol, seed);
        let exp = ExperimentConfig {
            sim: SimConfig {
                seed,
                ..config.experiment.sim.clone()
            },
            seed,
            ..config.experiment.clone()
        };
        run_experiment(policy.as_mut(), &exp)
    });
    // Regroup the flat cell list back into one row per policy, by
    // ownership (a response-time vector per cell makes cloning costly).
    // With no seeds this still yields one empty row per policy.
    let mut cells = cells.into_iter();
    config
        .policies
        .iter()
        .map(|_| {
            let results: Vec<ExperimentResult> = cells.by_ref().take(config.seeds.len()).collect();
            let name = results.first().map(|r| r.name.clone()).unwrap_or_default();
            PolicyMetrics::from_results(name, results)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> Fig5Config {
        Fig5Config {
            experiment: ExperimentConfig {
                intervals: 8,
                ..ExperimentConfig::small(0)
            },
            seeds: vec![1],
            carol: CarolConfig::fast_test(),
            policies: vec![PolicyKind::Dyverse, PolicyKind::Carol],
        }
    }

    #[test]
    fn sweep_produces_one_row_per_policy() {
        let rows = run(&smoke_config());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "DYVERSE");
        assert_eq!(rows[1].name, "CAROL");
        for row in &rows {
            assert_eq!(row.energy_kwh.len(), 1);
            assert!(row.energy_kwh.mean() > 0.0);
            assert!(row.memory_pct.mean() > 0.0);
        }
    }

    #[test]
    fn all_policy_kinds_build() {
        let cfg = CarolConfig::fast_test();
        let names: std::collections::BTreeSet<String> = PolicyKind::ALL
            .iter()
            .map(|kind| kind.build(&cfg, 0).name().to_string())
            .collect();
        assert!(!names.contains(""));
        assert_eq!(names.len(), 12, "12 policies, 12 distinct names");
    }

    #[test]
    fn comparison_subset_excludes_ablations() {
        for kind in PolicyKind::COMPARISON {
            assert!(!matches!(
                kind,
                PolicyKind::AlwaysFineTune
                    | PolicyKind::NeverFineTune
                    | PolicyKind::WithGan
                    | PolicyKind::WithTraditionalSurrogate
            ));
        }
    }
}
