//! Metrics, the end-to-end set, and the one-line JSON result.

use crate::run::Repeat;

/// Units the benchmark reports in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds.
    S,
    /// Milliseconds.
    Ms,
    /// Events per second.
    PerS,
    /// Mebibytes.
    Mb,
    /// Watt-hours.
    Wh,
    /// A fraction in `[0, 1]`.
    Ratio,
    /// A percentage.
    Pct,
    /// A count of events or items.
    Count,
    /// Bytes.
    Bytes,
}

impl Unit {
    /// The unit as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::PerS => "1/s",
            Unit::Mb => "MB",
            Unit::Wh => "Wh",
            Unit::Ratio => "ratio",
            Unit::Pct => "%",
            Unit::Count => "count",
            Unit::Bytes => "bytes",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: Unit,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: Unit) -> Self {
        Self { name, value, unit }
    }
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Intervals attempted.
    pub attempted: usize,
    /// Intervals of passes whose checks failed.
    pub failed: usize,
    /// The metrics of this run's mode.
    pub metrics: Vec<Metric>,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Builds the outcome; a non-finite metric value is itself a failed
    /// check.
    pub fn new(
        attempted: usize,
        mut failed: usize,
        metrics: Vec<Metric>,
        mut failures: Vec<String>,
    ) -> Self {
        for m in &metrics {
            if !m.value.is_finite() {
                failures.push(format!("{} is not finite", m.name));
            }
        }
        if !failures.is_empty() && failed == 0 {
            failed = attempted;
        }
        Self {
            correct: failures.is_empty(),
            attempted,
            failed,
            metrics,
            failures,
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// every value printed with all its digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    value,
                    m.unit.label()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values`, NaN when empty.
fn median(values: &[f64]) -> f64 {
    metrics::quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced run. Set-up is the median of
/// every set-up sample; throughput and interval median are medians over
/// the run's passes of each pass's own figure. QoS comes from the first
/// repeat: every repeat reproduces it exactly or is marked failed.
/// Response time is the completed tasks' median, not their mean: the
/// overloaded paper testbed's tail (p90 from 316 to 415 s across seeds)
/// put the interquartile range of the daemon's mean response at 0.22 of
/// its median over ten seeds, against 0.01 for the median response over
/// twenty.
pub fn end_to_end(setups_s: &[f64], repeats: &[Repeat]) -> Vec<Metric> {
    let over_passes = |f: fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    let qos = repeats.first().and_then(|r| r.result.as_ref());
    let qos_of = |f: fn(&carol::runner::ExperimentResult) -> f64| qos.map_or(f64::NAN, f);
    vec![
        Metric::new("setup_s", median(setups_s), Unit::S),
        Metric::new(
            "intervals_per_s",
            over_passes(Repeat::intervals_per_s),
            Unit::PerS,
        ),
        Metric::new(
            "interval_p50_ms",
            over_passes(Repeat::p50_s) * 1e3,
            Unit::Ms,
        ),
        Metric::new("energy_wh", qos_of(|r| r.total_energy_wh), Unit::Wh),
        Metric::new(
            "slo_attainment",
            qos_of(|r| 1.0 - r.slo_violation_rate),
            Unit::Ratio,
        ),
        Metric::new(
            "response_p50_s",
            qos_of(|r| median(&r.response_times_s)),
            Unit::S,
        ),
    ]
}
