//! Integration tests for the extension features: the proactive variant
//! (the paper's §VI future work) and the relative-SLO analysis utilities.

use carol::analysis::relative_slo_rate;
use carol::carol::{Carol, CarolConfig};
use carol::proactive::ProactiveCarol;
use carol::runner::{run_experiment, ExperimentConfig};

fn experiment(seed: u64, intervals: usize) -> ExperimentConfig {
    ExperimentConfig {
        intervals,
        ..ExperimentConfig::small(seed)
    }
}

#[test]
fn proactive_carol_completes_an_experiment_with_preventive_passes() {
    let inner = Carol::pretrained(CarolConfig::fast_test(), 41);
    let mut policy = ProactiveCarol::new(inner, 3, -1.0); // negative bar: any best candidate installs
    let config = ExperimentConfig {
        fault_rate: 0.0,
        ..experiment(41, 12)
    };
    let result = run_experiment(&mut policy, &config);
    assert!(result.completed > 0);
    // With no failures and a permissive bar, at least one preventive pass
    // should have considered (and installed) a change, or correctly found
    // the current topology optimal. Either way, the run must stay valid.
    assert!(policy.preventive_changes <= 12 / 3);
}

#[test]
fn proactive_handles_failures_like_reactive_carol() {
    let inner = Carol::pretrained(CarolConfig::fast_test(), 43);
    let mut policy = ProactiveCarol::new(inner, 5, 0.05);
    let config = ExperimentConfig {
        fault_rate: 1.5,
        ..experiment(43, 15)
    };
    let result = run_experiment(&mut policy, &config);
    assert!(result.broker_failures > 0);
    assert!(
        result.decision_events > 0,
        "failures must still be repaired"
    );
    assert!(result.completed > 0);
}

#[test]
fn response_summary_and_relative_slo_compose() {
    let mut a = Carol::pretrained(CarolConfig::fast_test(), 47);
    let result_a = run_experiment(&mut a, &experiment(47, 12));
    let mut b = baselines::Fras::new(47);
    let result_b = run_experiment(&mut b, &experiment(47, 12));

    let times = &result_a.response_times_s;
    let summary = metrics::LatencySummary::from_samples(times).expect("tasks completed");
    let p90 = metrics::quantile(times, 0.9).expect("tasks completed");
    assert!(summary.p50 <= p90);
    assert!(summary.count == result_a.completed);

    // Re-scoring either run against the other's p90 must give a rate in
    // [0, 1]; a run scored against itself gives ≈ 10% by construction.
    let cross = relative_slo_rate(&result_a, &result_b).expect("both ran");
    assert!((0.0..=1.0).contains(&cross));
    let self_rate = relative_slo_rate(&result_a, &result_a).unwrap();
    assert!(
        self_rate <= 0.2,
        "self p90 violation rate ≈ 10%: {self_rate}"
    );
}
