//! Per-phase wall-clock profile of the interval engine: the `phases`
//! binary's library half, producing `PHASES_PR.json`.
//!
//! The simulator's step is a pipeline of seven stages
//! ([`edgesim::phases`]), each timed by the facade into
//! [`IntervalReport::phases`](edgesim::IntervalReport). This module
//! drives registry scenarios through bare simulator steps — no
//! controller, so the numbers isolate the simulation itself — and
//! accumulates the per-stage wall-clock into one row per scenario.
//!
//! CI consumes two columns: `determine_failures_s` at `aiot-1024` is
//! gated against `ci/phase_baseline.json` (>20% regression fails), and
//! `determine_failures_frac` at `aiot-4096` documents that failure
//! determination no longer dominates the interval (the engine before the
//! phase pipeline spent the majority of large-federation steps there).
//! Every stage runs serially, so the rows do not depend on
//! `CAROL_THREADS`.

use carol::scenario::ScenarioSpec;
use edgesim::{PhaseTimings, Simulator};
use faults::FaultInjector;
use serde::{Deserialize, Serialize};

/// Configuration of one phase-profile run.
#[derive(Debug, Clone)]
pub struct PhasesConfig {
    /// Registry scenario names to profile, in order.
    pub scenarios: Vec<&'static str>,
    /// Scheduling intervals per scenario.
    pub intervals: usize,
    /// Master seed.
    pub seed: u64,
}

impl PhasesConfig {
    /// The full profile: up to 4096 hosts, 12 intervals per scenario.
    pub fn full(seed: u64) -> Self {
        Self {
            scenarios: vec!["aiot-256", "aiot-1024", "aiot-4096"],
            intervals: 12,
            seed,
        }
    }

    /// CI-budget profile: up to 1024 hosts, 8 intervals.
    pub fn fast(seed: u64) -> Self {
        Self {
            scenarios: vec!["aiot-256", "aiot-1024"],
            intervals: 8,
            seed,
        }
    }
}

/// One scenario's phase profile — a `PHASES_PR.json` row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhasePoint {
    /// Registry scenario name.
    pub scenario: String,
    /// Federation size.
    pub n_hosts: usize,
    /// LEI count.
    pub n_brokers: usize,
    /// Intervals stepped.
    pub intervals: usize,
    /// Cumulative per-stage wall-clock over the run.
    pub timings: PhaseTimings,
    /// Sum of the stage columns, seconds.
    pub total_s: f64,
    /// Mean simulator-step wall-clock per interval, seconds.
    pub per_interval_s: f64,
    /// Share of step wall-clock spent determining failures — the
    /// column the failure scan is meant to keep small.
    pub determine_failures_frac: f64,
}

/// Profiles one registry scenario: bare simulator steps (arrivals from
/// the scenario's workload, faults from its injector, no resilience
/// policy) with the facade's per-stage timings accumulated.
///
/// # Panics
///
/// Panics on an unknown scenario name — profile targets are
/// compile-time constants, not user input.
pub fn profile_scenario(name: &str, intervals: usize, seed: u64) -> PhasePoint {
    let mut spec = ScenarioSpec::named(name, seed)
        .unwrap_or_else(|| panic!("{name} is not a registered scenario"));
    spec.intervals = intervals;
    let config = spec.experiment_config();
    let mut sim = Simulator::new(config.sim.clone());
    let mut workload = spec.build_workload();
    let mut scheduler = spec.scheduler.build();
    let mut injector = FaultInjector::with_model(
        config.fault_rate,
        config.fault_target,
        config.fault_model.clone(),
        config.seed ^ 0x4654,
    );

    let mut timings = PhaseTimings::default();
    for t in 0..intervals {
        injector.inject(t, &mut sim);
        let report = sim.step(workload.sample_interval(t), scheduler.as_mut());
        timings.accumulate(&report.phases);
    }

    let total_s = timings.total_s();
    PhasePoint {
        scenario: spec.name,
        n_hosts: spec.n_hosts,
        n_brokers: spec.n_brokers,
        intervals,
        timings,
        total_s,
        per_interval_s: total_s / intervals.max(1) as f64,
        determine_failures_frac: timings.determine_failures_frac(),
    }
}

/// Runs the profile **sequentially** (so no row's wall-clock is
/// polluted by a sibling) and returns one point per scenario.
pub fn profile(config: &PhasesConfig) -> Vec<PhasePoint> {
    config
        .scenarios
        .iter()
        .map(|name| profile_scenario(name, config.intervals, config.seed))
        .collect()
}

/// Serialises profile points as pretty JSON (the `--out` artifact).
pub fn to_json(points: &[PhasePoint]) -> String {
    serde_json::to_string_pretty(&points.to_vec()).expect("phase points serialise")
}

/// Renders the points as an aligned text table for stdout.
pub fn render_table(points: &[PhasePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:>7}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}\n",
        "scenario", "hosts", "admit_ms", "determ_ms", "sched_ms", "exec_ms", "step_ms", "determ%"
    ));
    out.push_str(&"-".repeat(89));
    out.push('\n');
    for p in points {
        let per = |s: f64| 1e3 * s / p.intervals.max(1) as f64;
        out.push_str(&format!(
            "{:<12}{:>7}{:>12.2}{:>12.2}{:>12.2}{:>12.2}{:>12.2}{:>10.1}\n",
            p.scenario,
            p.n_hosts,
            per(p.timings.admit_s),
            per(p.timings.determine_failures_s),
            per(p.timings.schedule_dispatch_s),
            per(p.timings.execute_s),
            1e3 * p.per_interval_s,
            100.0 * p.determine_failures_frac,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_times_every_stage_and_round_trips() {
        let config = PhasesConfig {
            scenarios: vec!["paper-16"],
            intervals: 4,
            seed: 3,
        };
        let points = profile(&config);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.scenario, "paper-16");
        assert_eq!(p.n_hosts, 16);
        assert!(p.total_s > 0.0, "stages must be timed");
        assert!(p.per_interval_s > 0.0);
        assert!((0.0..=1.0).contains(&p.determine_failures_frac));
        assert!(
            (p.total_s - p.timings.total_s()).abs() < 1e-12,
            "summary columns mirror the timings struct"
        );

        let json = to_json(&points);
        let back: Vec<PhasePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back[0].scenario, points[0].scenario);
        assert_eq!(back[0].total_s.to_bits(), points[0].total_s.to_bits());
        let table = render_table(&points);
        assert!(table.contains("paper-16"));
        assert!(table.contains("determ%"));
    }
}
