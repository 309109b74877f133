//! The `serve` artefact: replays a `carol-trace` stream through the
//! federation-controller daemon ([`carol::service`]) and prices the
//! service loop — decisions per second, p50/p99 decision latency — into
//! `SERVE_PR.json`, the service-mode companion of the BENCH/SCALE/
//! FUZZ/PHASES artifacts.
//!
//! Two tiers:
//!
//! * **smoke** (`--fast`): the checked-in 40-interval AIoTBench trace
//!   (`data/smoke-trace.jsonl`), with a 10-interval checkpoint cadence
//!   — start → ingest → checkpoint → restore → drain → clean shutdown,
//!   end to end, in CI seconds.
//! * **full**: a freshly recorded paper-16-shaped trace of ≥ 100 000
//!   tasks (AIoTBench at the paper's federation-wide λ = 7.2 over
//!   14 200 intervals), the scale at which the decisions/sec figure is
//!   quotable.
//!
//! Both tiers verify the checkpoint file round-trips: the last
//! checkpoint written during the run is read back, restored into a live
//! [`Carol`] controller, and checked against the
//! interval it froze at.

use carol::service::{
    serve_trace, CheckpointSpec, ExperimentSpec, FederationSet, ServeOptions, ServeReport,
};
use carol::{Carol, CarolCheckpoint};
use serde::{Deserialize, Serialize};
use std::io::Cursor;
use workloads::replay::{export_jsonl, record_suite};
use workloads::BenchmarkSuite;

/// The checked-in CI smoke trace: AIoTBench at federation-wide λ = 4.0,
/// seed 7, 40 intervals (157 tasks).
pub const SMOKE_TRACE: &str = include_str!("../data/smoke-trace.jsonl");

/// Intervals in [`SMOKE_TRACE`].
pub const SMOKE_INTERVALS: usize = 40;

/// Full-tier trace length: 14 200 intervals at the paper's λ = 7.2
/// ≈ 102 000 tasks — safely past the 100 000-task bar for a quotable
/// decisions/sec figure.
pub const FULL_INTERVALS: usize = 14_200;

/// Task floor the full tier asserts after recording its trace.
pub const FULL_TASK_FLOOR: usize = 100_000;

/// The smoke-tier spec: the §V paper shape trimmed to the smoke trace's
/// horizon, checkpointing every 10 intervals to `checkpoint_path`.
pub fn smoke_spec(seed: u64, checkpoint_path: &str) -> ExperimentSpec {
    let mut scenario = carol::ScenarioSpec::paper(seed);
    scenario.intervals = SMOKE_INTERVALS;
    ExperimentSpec::new(scenario).with_checkpoint(CheckpointSpec {
        every: Some(10),
        path: Some(checkpoint_path.to_string()),
    })
}

/// The full-tier spec: the §V paper shape over [`FULL_INTERVALS`]
/// intervals, checkpointing every 2 048 intervals.
pub fn full_spec(seed: u64, checkpoint_path: &str) -> ExperimentSpec {
    let mut scenario = carol::ScenarioSpec::paper(seed);
    scenario.intervals = FULL_INTERVALS;
    ExperimentSpec::new(scenario).with_checkpoint(CheckpointSpec {
        every: Some(2_048),
        path: Some(checkpoint_path.to_string()),
    })
}

/// Records the full-tier trace: paper-16 AIoTBench arrivals over
/// [`FULL_INTERVALS`] intervals, exported as `carol-trace` v1 JSONL.
///
/// # Panics
///
/// Panics if the recorded trace falls short of [`FULL_TASK_FLOOR`]
/// tasks (statistically impossible at λ = 7.2 × 14 200; a failure here
/// means the arrival process regressed).
pub fn full_trace(seed: u64) -> String {
    let events = record_suite(BenchmarkSuite::AIoTBench, 7.2, seed, FULL_INTERVALS);
    let tasks: usize = events.iter().map(|e| e.arrivals).sum();
    assert!(
        tasks >= FULL_TASK_FLOOR,
        "full serve trace has {tasks} tasks, need ≥ {FULL_TASK_FLOOR}"
    );
    export_jsonl(&events)
}

/// What one `serve` bench run produces — the `SERVE_PR.json` schema.
/// The daemon's [`ServeReport`] (spec echoed verbatim inside) plus the
/// bench-level checkpoint-restore verification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// The daemon's own report, spec included.
    pub report: ServeReport,
    /// `true` once the last checkpoint file was read back, restored
    /// into a live controller, and matched the interval it froze at.
    pub checkpoint_restore_verified: bool,
}

impl ServeBenchReport {
    /// Serialises for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serve report serialises")
    }

    /// Serialises a multi-federation run (one report per federation) for
    /// the CI artifact.
    pub fn list_to_json(benches: &[ServeBenchReport]) -> String {
        serde_json::to_string_pretty(&benches.to_vec()).expect("serve reports serialise")
    }
}

/// Replays `trace` through the daemon under `spec`, then verifies the
/// checkpoint file (when the spec wrote one) restores to the interval
/// it was taken at.
///
/// # Panics
///
/// Panics if the daemon errors, or if the written checkpoint fails to
/// parse, restore, or land on [`ServeReport::last_checkpoint_interval`]
/// — in a bench artefact every one of those is a regression, not a
/// condition to report gracefully.
pub fn run_serve_bench(
    spec: &ExperimentSpec,
    trace: &str,
    options: &ServeOptions,
) -> ServeBenchReport {
    let report = serve_trace(spec, Cursor::new(trace.as_bytes().to_vec()), options)
        .unwrap_or_else(|e| panic!("serve failed: {e}"));
    verify_checkpoint(report)
}

/// Replays `trace` through a multi-federation daemon: every federation
/// in `set` ingests its own copy of the trace concurrently, then each
/// spec's checkpoint file is verified exactly like [`run_serve_bench`].
/// Reports come back in spec order.
///
/// # Panics
///
/// Same contract as [`run_serve_bench`], applied per federation.
pub fn run_federation_bench(
    set: &FederationSet,
    trace: &str,
    options: &ServeOptions,
) -> Vec<ServeBenchReport> {
    let readers: Vec<_> = set
        .specs()
        .iter()
        .map(|_| Cursor::new(trace.as_bytes().to_vec()))
        .collect();
    let reports = set
        .serve(readers, options)
        .unwrap_or_else(|e| panic!("serve failed: {e}"));
    reports.into_iter().map(verify_checkpoint).collect()
}

/// Reads back the checkpoint file the run wrote (when its spec named
/// one), restores it into a live controller, and checks the interval it
/// froze at — the bench-level half of the checkpoint contract.
fn verify_checkpoint(report: ServeReport) -> ServeBenchReport {
    let mut verified = false;
    if let Some(path) = &report.spec.checkpoint.path {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("checkpoint file {path} unreadable: {e}"));
        let ckpt = CarolCheckpoint::from_json(&json)
            .unwrap_or_else(|e| panic!("checkpoint file {path} malformed: {e}"));
        let restored = Carol::restore(&ckpt).unwrap_or_else(|e| panic!("restore failed: {e}"));
        let expected = report
            .last_checkpoint_interval
            .expect("a checkpoint path implies at least one cadenced checkpoint");
        assert_eq!(
            restored.interval(),
            expected,
            "restored controller resumed at the wrong interval"
        );
        verified = true;
    }

    ServeBenchReport {
        report,
        checkpoint_restore_verified: verified,
    }
}

/// Human summary printed after a run.
pub fn render_summary(bench: &ServeBenchReport) -> String {
    let r = &bench.report;
    let (p50_ms, p99_ms) = r
        .decision_latency_s
        .map(|l| (l.p50 * 1e3, l.p99 * 1e3))
        .unwrap_or((0.0, 0.0));
    format!(
        "serve: {} intervals, {} tasks in {:.2} s — {:.1} decisions/s\n\
         decision latency: p50 {:.3} ms, p99 {:.3} ms\n\
         repairs {}, fine-tunes {}, checkpoints {} (restore verified: {})\n",
        r.intervals,
        r.tasks_ingested,
        r.wall_s,
        r.decisions_per_s,
        p50_ms,
        p99_ms,
        r.repairs_triggered,
        r.fine_tune_events,
        r.checkpoints_taken,
        bench.checkpoint_restore_verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_is_valid_and_sized() {
        let events = workloads::replay::load_jsonl(SMOKE_TRACE).expect("smoke trace parses");
        let horizon = events.iter().map(|e| e.interval + 1).max().unwrap_or(0);
        assert_eq!(horizon, SMOKE_INTERVALS);
        assert!(events.iter().map(|e| e.arrivals).sum::<usize>() > 100);
    }

    #[test]
    fn federation_smoke_bench_serves_two_federations() {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        let paths: Vec<String> = (0..2)
            .map(|i| {
                base.join(format!("serve-fed-test-{pid}-{i}.json"))
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        let set = FederationSet::new(vec![smoke_spec(7, &paths[0]), smoke_spec(9, &paths[1])]);
        let benches = run_federation_bench(&set, SMOKE_TRACE, &ServeOptions::default());
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
        assert_eq!(benches.len(), 2);
        for bench in &benches {
            assert_eq!(bench.report.intervals, SMOKE_INTERVALS);
            assert_eq!(bench.report.checkpoints_taken, 4);
            assert!(bench.checkpoint_restore_verified);
        }
        // Different seeds steer different federations: the daemon kept
        // the two streams apart.
        assert_ne!(
            benches[0].report.result.total_energy_wh.to_bits(),
            benches[1].report.result.total_energy_wh.to_bits()
        );
        let json = ServeBenchReport::list_to_json(&benches);
        assert!(json.starts_with('['), "multi-federation artifact is a list");
    }

    #[test]
    fn smoke_bench_end_to_end() {
        let path =
            std::env::temp_dir().join(format!("serve-bench-test-{}.json", std::process::id()));
        let spec = smoke_spec(7, &path.to_string_lossy());
        let bench = run_serve_bench(&spec, SMOKE_TRACE, &ServeOptions::default());
        std::fs::remove_file(&path).ok();
        assert_eq!(bench.report.intervals, SMOKE_INTERVALS);
        assert_eq!(bench.report.checkpoints_taken, 4);
        assert!(bench.checkpoint_restore_verified);
        let summary = render_summary(&bench);
        assert!(summary.contains("decisions/s"));
        let json = bench.to_json();
        assert!(json.contains("\"paper-16\""), "spec echoed into artifact");
    }
}
