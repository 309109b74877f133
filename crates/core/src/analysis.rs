//! Post-run analysis utilities.
//!
//! The paper's SLO definition is *relative* (§V-B): "the deadline is the
//! 90th percentile response time for the same application on the
//! state-of-the-art method StepGAN". [`relative_slo_rate`] implements
//! exactly that re-scoring, so any run can be re-evaluated against a
//! reference method's percentile deadlines.

use crate::runner::ExperimentResult;

/// The paper's relative SLO (§V-B): the deadline is the 90th percentile
/// response time of the *reference* run; returns the fraction of the
/// evaluated run's tasks exceeding it. `None` when either run completed
/// nothing.
///
/// # Examples
///
/// ```
/// # use carol::analysis::relative_slo_rate_from_times;
/// let reference = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
/// let ours = vec![50.0, 95.0, 120.0];
/// // Reference p90 = 91.0; two of our three tasks exceed it.
/// let rate = relative_slo_rate_from_times(&ours, &reference).unwrap();
/// assert!((rate - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn relative_slo_rate_from_times(ours: &[f64], reference: &[f64]) -> Option<f64> {
    if ours.is_empty() {
        return None;
    }
    let deadline = metrics::quantile(reference, 0.90)?;
    let violations = ours.iter().filter(|&&t| t > deadline).count();
    Some(violations as f64 / ours.len() as f64)
}

/// [`relative_slo_rate_from_times`] applied to two experiment results.
pub fn relative_slo_rate(ours: &ExperimentResult, reference: &ExperimentResult) -> Option<f64> {
    relative_slo_rate_from_times(&ours.response_times_s, &reference.response_times_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_yield_none() {
        assert!(relative_slo_rate_from_times(&[], &[1.0]).is_none());
    }

    #[test]
    fn relative_slo_against_itself_is_about_ten_percent() {
        // By construction ~10% of a run's tasks exceed its own p90.
        let times: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let rate = relative_slo_rate_from_times(&times, &times).unwrap();
        assert!((rate - 0.1).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn faster_run_violates_less() {
        let reference: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let fast: Vec<f64> = (1..=100).map(|i| i as f64 * 0.5).collect();
        let slow: Vec<f64> = (1..=100).map(|i| i as f64 * 2.0).collect();
        let fast_rate = relative_slo_rate_from_times(&fast, &reference).unwrap();
        let slow_rate = relative_slo_rate_from_times(&slow, &reference).unwrap();
        assert!(fast_rate < slow_rate);
        assert_eq!(fast_rate, 0.0);
    }
}
