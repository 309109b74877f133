//! End-to-end integration tests: the full CAROL pipeline (offline
//! training → online resilience) and policy comparisons over the
//! simulated federation.

use bench::fig5::PolicyKind;
use carol::carol::{Carol, CarolConfig};
use carol::runner::{run_experiment, run_seeds, ExperimentConfig};

fn fast_experiment(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        intervals: 15,
        ..ExperimentConfig::small(seed)
    }
}

#[test]
fn carol_full_pipeline_produces_sane_metrics() {
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 11);
    let result = run_experiment(&mut policy, &fast_experiment(11));

    assert_eq!(result.name, "CAROL");
    assert!(result.total_energy_wh > 0.0);
    assert!(result.completed > 0, "tasks must complete");
    assert!((0.0..=1.0).contains(&result.slo_violation_rate));
    assert_eq!(result.response_times_s.len(), result.completed);
    assert!(result
        .response_times_s
        .iter()
        .all(|&t| t.is_finite() && t > 0.0));
    // Confidence was tracked every interval.
    assert_eq!(policy.confidence_history.len(), 15);
    assert!(policy
        .confidence_history
        .iter()
        .all(|&c| (0.0..=1.0).contains(&c)));
}

#[test]
fn all_policies_survive_the_same_fault_sequence() {
    let config = fast_experiment(13);
    let base = CarolConfig::fast_test();
    let results: Vec<_> = PolicyKind::COMPARISON
        .iter()
        .map(|kind| run_experiment(kind.build(&base, 13).as_mut(), &config))
        .collect();

    assert_eq!(results.len(), 8);
    // Identical workload/fault seeds ⇒ identical admissions; every policy
    // must keep the federation alive enough to finish some tasks.
    for r in &results {
        assert!(r.completed > 0, "{} starved the federation", r.name);
        assert!(r.total_energy_wh > 0.0);
    }
    // Memory ordering of Fig. 5(e): heuristics < CAROL < ELBS.
    let mem = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.memory_pct)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert!(mem("DYVERSE") < mem("CAROL"));
    assert!(mem("CAROL") < mem("ELBS"));
    assert!(mem("LBOS") < mem("CAROL"));
}

#[test]
fn ablations_run_and_differ_in_overhead_behaviour() {
    let config = fast_experiment(17);
    let base = CarolConfig::fast_test();

    let ra = run_experiment(
        PolicyKind::AlwaysFineTune.build(&base, 17).as_mut(),
        &config,
    );
    let rn = run_experiment(PolicyKind::NeverFineTune.build(&base, 17).as_mut(), &config);

    assert!(ra.fine_tune_events > 0, "always-FT must tune");
    assert_eq!(rn.fine_tune_events, 0, "never-FT must not tune");
    assert!(ra.fine_tune_overhead_s > rn.fine_tune_overhead_s);
}

#[test]
fn multi_seed_runner_varies_outcomes() {
    let results = run_seeds(
        par::thread_count(),
        |seed| Carol::pretrained(CarolConfig::fast_test(), seed),
        &fast_experiment(0),
        &[1, 2, 3],
    );
    assert_eq!(results.len(), 3);
    // Different seeds should not produce bit-identical energy (different
    // workloads / fault sequences).
    assert!(
        results[0].total_energy_wh != results[1].total_energy_wh
            || results[1].total_energy_wh != results[2].total_energy_wh
    );
}

#[test]
fn decision_cost_model_orders_policies_like_figure_5d() {
    use baselines::{Dyverse, Elbs, Lbos};
    let config = ExperimentConfig {
        intervals: 20,
        fault_rate: 1.5, // plenty of repairs to average over
        ..ExperimentConfig::small(23)
    };
    let mut dyverse = Dyverse::new();
    let mut lbos = Lbos::new(23);
    let mut elbs = Elbs::new(23);
    let rd = run_experiment(&mut dyverse, &config);
    let rl = run_experiment(&mut lbos, &config);
    let re = run_experiment(&mut elbs, &config);
    assert!(rd.decision_events > 0);
    // DYVERSE fastest; LBOS and ELBS the slowest deciders (§V-C).
    assert!(rd.mean_decision_time_s < re.mean_decision_time_s);
    assert!(rd.mean_decision_time_s < rl.mean_decision_time_s);
}

#[test]
fn carol_tracks_pot_threshold_after_calibration() {
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 29);
    let config = ExperimentConfig {
        intervals: 40, // beyond the 30-interval POT calibration
        ..ExperimentConfig::small(29)
    };
    run_experiment(&mut policy, &config);
    let calibrated = policy
        .threshold_history
        .iter()
        .filter(|t| t.is_some())
        .count();
    assert!(calibrated >= 5, "POT must calibrate within the run");
}
