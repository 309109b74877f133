//! Summary statistics and evaluation metrics shared across the CAROL
//! reproduction suite.
//!
//! The paper reports means over five seeded runs, percentile-based SLO
//! deadlines (90th percentile response time of the reference method) and
//! prediction MSE. This crate provides those primitives with
//! deterministic, allocation-light implementations so every other crate can
//! agree on their semantics.

#![warn(missing_docs)]

pub mod online;
pub mod summary;

pub use online::OnlineStats;
pub use summary::Summary;

/// Returns the `q`-quantile (`0.0 ..= 1.0`) of `values` using linear
/// interpolation between closest ranks (the "R-7" rule used by NumPy's
/// default, which the paper's analysis scripts rely on).
///
/// Returns `None` when `values` is empty or `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(metrics::quantile(&v, 0.5), Some(2.5));
/// assert_eq!(metrics::quantile(&v, 0.0), Some(1.0));
/// assert_eq!(metrics::quantile(&v, 1.0), Some(4.0));
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) || q.is_nan() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Arithmetic mean; `None` for an empty slice.
///
/// ```
/// assert_eq!(metrics::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(metrics::mean(&[]), None);
/// ```
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation (Bessel-corrected); `None` for fewer than two
/// samples.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    Some(var.sqrt())
}

/// Mean squared error between two equal-length series.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(metrics::mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
/// ```
pub fn mse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "mse requires equal-length series"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum::<f64>()
        / predicted.len() as f64
}

/// Latency distribution summary over a sample set — the p50/p99 block
/// the service daemon reports per decision and the `serve` bench writes
/// into `SERVE_PR.json`.
///
/// ```
/// let s = metrics::LatencySummary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.p50, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarised.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (R-7 interpolation, as [`quantile`]).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises `samples`; `None` when empty (or all-NaN).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        Some(Self {
            count: samples.len(),
            mean: mean(samples)?,
            p50: quantile(samples, 0.5)?,
            p99: quantile(samples, 0.99)?,
            max: quantile(samples, 1.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[5.0], 0.3), Some(5.0));
    }

    #[test]
    fn quantile_rejects_bad_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
        assert_eq!(quantile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn quantile_ignores_nans() {
        let v = [1.0, f64::NAN, 3.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let v = [9.0, 1.0, 4.0, 7.0, 2.0];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let val = quantile(&v, q).unwrap();
            assert!(val >= last);
            last = val;
        }
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), Some(5.0));
        let sd = std_dev(&v).unwrap();
        assert!((sd - 2.13808993529939).abs() < 1e-12);
    }

    #[test]
    fn std_dev_needs_two_samples() {
        assert_eq!(std_dev(&[1.0]), None);
    }

    #[test]
    fn mse_of_empty_series_is_zero() {
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mse_rejects_mismatched_lengths() {
        mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 100.0);
        assert_eq!(LatencySummary::from_samples(&[]), None);
    }
}
