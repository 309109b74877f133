//! Untraced repeats: the source of every end-to-end metric.
//!
//! One repeat is a full set-up (pretraining plus engine construction)
//! followed by one closed-loop pass over the workload's trace, driven
//! through the same public call the product uses: [`FederationSet::serve`]
//! for the daemon, [`ExperimentEngine::step`] for the storm.

use crate::{Inputs, Workload};
use carol::runner::{ExperimentEngine, ExperimentResult};
use carol::service::{CheckpointSpec, FederationSet, ServeOptions};
use carol::{Carol, CarolCheckpoint};
use metrics::LatencySummary;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;
use workloads::replay::{export_jsonl, ReplayWorkload};
use workloads::Workload as _;

/// What one untraced repeat measured and checked.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Seconds from the entry call to the first interval.
    pub setup_s: f64,
    /// Seconds of the decision loop (serve loop or stepping loop).
    pub wall_s: f64,
    /// Intervals served.
    pub intervals: usize,
    /// Decision-cycle latencies of the pass: the daemon's own summary, or
    /// this benchmark's timing of every `step` (`None` when the pass
    /// errored).
    pub latency: Option<LatencySummary>,
    /// The §V metrics of the pass (`None` when the pass errored).
    pub result: Option<ExperimentResult>,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
}

impl Repeat {
    /// Decision cycles per wall-clock second.
    pub fn intervals_per_s(&self) -> f64 {
        self.intervals as f64 / self.wall_s
    }

    /// Median decision-cycle latency, seconds (NaN when the pass errored).
    pub fn p50_s(&self) -> f64 {
        self.latency.map_or(f64::NAN, |l| l.p50)
    }

    /// The QoS every repeat of one seed must reproduce exactly.
    pub fn qos_bits(&self) -> Option<[u64; 5]> {
        self.result.as_ref().map(qos_bits)
    }
}

/// The QoS fields compared bit for bit across repeats and passes.
pub fn qos_bits(r: &ExperimentResult) -> [u64; 5] {
    [
        r.total_energy_wh.to_bits(),
        r.slo_violation_rate.to_bits(),
        r.mean_response_s.to_bits(),
        r.completed as u64,
        r.decision_events as u64,
    ]
}

/// Seconds of back-to-back set-ups sampled before each pass and after
/// the last. A set-up takes milliseconds, and on a shared machine a
/// second in six or so ran 1.6 times slower; windows spread over the run
/// keep such a second from setting the median.
const SETUP_WINDOW_S: f64 = 1.0;

/// Repeats the workload until `budget_s` seconds are spent, starting no
/// repeat that would overrun the budget once `min_repeats` are done, and
/// samples set-ups in a window before each repeat and after the last.
/// Repeats whose QoS differs from the first repeat's are marked failed.
/// Returns the set-up samples (seconds, the repeats' own included) and
/// the repeats.
pub fn measure(inputs: &Inputs, budget_s: f64, min_repeats: usize) -> (Vec<f64>, Vec<Repeat>) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    loop {
        sample_setups(inputs, &mut setups);
        let began = Instant::now();
        let mut rep = repeat(inputs);
        if let Some(first) = repeats.first() {
            check_reproduced(first, &mut rep);
        }
        setups.push(rep.setup_s);
        repeats.push(rep);
        let took = began.elapsed().as_secs_f64();
        if repeats.len() >= min_repeats
            && start.elapsed().as_secs_f64() + took + 2.0 * SETUP_WINDOW_S > budget_s
        {
            sample_setups(inputs, &mut setups);
            return (setups, repeats);
        }
    }
}

/// Times set-ups back to back for [`SETUP_WINDOW_S`].
fn sample_setups(inputs: &Inputs, setups: &mut Vec<f64>) {
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        setups.push(setup_once(inputs));
    }
}

/// Marks `later` failed unless it reproduces `first`'s QoS bit for bit.
pub fn check_reproduced(first: &Repeat, later: &mut Repeat) {
    if later.qos_bits() != first.qos_bits() {
        later
            .failures
            .push("QoS differs from the first repeat of this seed".into());
    }
}

/// One untraced repeat of the workload.
pub fn repeat(inputs: &Inputs) -> Repeat {
    match inputs.workload {
        Workload::Paper16Daemon => serve_repeat(inputs),
        Workload::Storm1024Repair => engine_repeat(inputs),
    }
}

/// Times one set-up without running the workload: a serve call over the
/// trace's first interval for the daemon (call wall minus serve-loop
/// wall), pretraining plus engine construction otherwise.
pub fn setup_once(inputs: &Inputs) -> f64 {
    match inputs.workload {
        Workload::Paper16Daemon => {
            let first = inputs.events.first().map_or(0, |e| e.interval);
            let prefix: Vec<_> = inputs
                .events
                .iter()
                .filter(|e| e.interval == first)
                .cloned()
                .collect();
            let spec = inputs
                .spec
                .clone()
                .with_checkpoint(CheckpointSpec::default());
            let reader = Cursor::new(export_jsonl(&prefix).into_bytes());
            let called = Instant::now();
            let report = FederationSet::new(vec![spec])
                .serve(vec![reader], &serve_options())
                .expect("a one-interval prefix of the trace serves");
            called.elapsed().as_secs_f64() - report[0].wall_s
        }
        Workload::Storm1024Repair => {
            let set_up = Instant::now();
            let policy = Carol::pretrained(inputs.carol.clone(), inputs.controller_seed);
            let engine = ExperimentEngine::new(&inputs.config);
            let scheduler = inputs.spec.scenario.scheduler.build();
            let setup_s = set_up.elapsed().as_secs_f64();
            drop((policy, engine, scheduler));
            setup_s
        }
    }
}

/// The daemon's options: accelerated replay, background fine-tuning, no
/// metrics endpoint.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        pace_interval_s: None,
        metrics_addr: None,
        background_tune: true,
    }
}

/// Serves the trace once through a one-federation [`FederationSet`].
fn serve_repeat(inputs: &Inputs) -> Repeat {
    let set = FederationSet::new(vec![inputs.spec.clone()]);
    let reader = Cursor::new(inputs.trace.clone().into_bytes());
    let called = Instant::now();
    let served = set.serve(vec![reader], &serve_options());
    let call_s = called.elapsed().as_secs_f64();
    let report = match served {
        Ok(mut reports) => reports
            .pop()
            .expect("a one-federation set yields one report"),
        Err(e) => {
            return Repeat {
                setup_s: f64::NAN,
                wall_s: f64::NAN,
                intervals: 0,
                latency: None,
                result: None,
                failures: vec![format!("serve failed: {e}")],
            }
        }
    };
    let mut failures = common_checks(inputs, report.intervals, report.tasks_ingested);
    let every = report.spec.checkpoint.every.unwrap_or(0).max(1);
    let expected = report.intervals / every * every;
    if report.checkpoints_taken != report.intervals / every
        || report.last_checkpoint_interval != Some(expected)
    {
        failures.push(format!(
            "{} checkpoints, the last at {:?}; expected {} up to {expected}",
            report.checkpoints_taken,
            report.last_checkpoint_interval,
            report.intervals / every
        ));
    }
    let latency = report.decision_latency_s;
    if latency.map(|l| l.count) != Some(report.intervals) {
        failures.push("daemon reported no latency for some intervals".into());
    }
    Repeat {
        setup_s: call_s - report.wall_s,
        wall_s: report.wall_s,
        intervals: report.intervals,
        latency,
        result: Some(report.result),
        failures,
    }
}

/// Reads back a checkpoint file, removes it, restores it into a
/// controller and checks it resumes at interval `expected` — the read-back
/// half of `bench::serve::run_serve_bench`.
pub fn verify_checkpoint(path: &Path, expected: usize) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("checkpoint unreadable: {e}"))?;
    std::fs::remove_file(path).map_err(|e| format!("checkpoint not removable: {e}"))?;
    let ckpt = CarolCheckpoint::from_json(&json).map_err(|e| format!("checkpoint: {e}"))?;
    let restored = Carol::restore(&ckpt).map_err(|e| format!("restore: {e}"))?;
    if restored.interval() != expected {
        return Err(format!(
            "checkpoint restored at interval {}, expected {expected}",
            restored.interval()
        ));
    }
    Ok(())
}

/// Checks shared by both paths: every interval of the input served and
/// every task of the trace ingested.
fn common_checks(inputs: &Inputs, intervals: usize, tasks: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if intervals != inputs.horizon {
        failures.push(format!(
            "served {intervals} of {} intervals",
            inputs.horizon
        ));
    }
    if tasks != inputs.tasks {
        failures.push(format!("ingested {tasks} of {} tasks", inputs.tasks));
    }
    failures
}

/// Steps the engine over the trace once, timing every `step` call: the
/// storm's repeat, and the daemon's replay in the traced run.
/// The arrivals are unpacked before timing starts, so the loop times only
/// the program.
pub fn engine_repeat(inputs: &Inputs) -> Repeat {
    let mut replay = ReplayWorkload::new(&inputs.events);
    let batches: Vec<_> = (0..inputs.horizon)
        .map(|t| replay.sample_interval(t))
        .collect();
    let tasks_ingested = batches.iter().map(Vec::len).sum();

    let set_up = Instant::now();
    let mut policy = Carol::pretrained(inputs.carol.clone(), inputs.controller_seed);
    let mut engine = ExperimentEngine::new(&inputs.config);
    let mut scheduler = inputs.spec.scenario.scheduler.build();
    let setup_s = set_up.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(batches.len());
    let looped = Instant::now();
    for arrivals in batches {
        let stepped = Instant::now();
        engine.step(&mut policy, arrivals, scheduler.as_mut());
        latencies.push(stepped.elapsed().as_secs_f64());
    }
    let wall_s = looped.elapsed().as_secs_f64();

    let intervals = engine.interval();
    Repeat {
        setup_s,
        wall_s,
        intervals,
        latency: LatencySummary::from_samples(&latencies),
        failures: common_checks(inputs, intervals, tasks_ingested),
        result: Some(engine.finish(&policy)),
    }
}

/// Peak resident set size of this process (`VmHWM`), mebibytes; NaN where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kib.map_or(f64::NAN, |kib| kib / 1024.0)
}
