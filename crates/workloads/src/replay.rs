//! Trace-replay workloads: a versioned JSONL cluster-trace schema and a
//! [`ReplayWorkload`] that drives the simulator from recorded arrivals
//! instead of a synthetic sampler.
//!
//! The paper only exercises CAROL on its two synthetic suites
//! (DeFog/AIoTBench); this module opens the workload axis to *recorded*
//! traces — exported from a synthetic run ([`record_suite`]) or written
//! by hand from real cluster logs — so resilience claims can be probed on
//! arrival patterns the policies were never tuned for.
//!
//! # Trace format
//!
//! A trace is JSON-Lines text: a header record followed by one
//! [`TraceEvent`] per line, sorted by interval:
//!
//! ```text
//! {"schema":"carol-trace","version":1}
//! {"interval":0,"app":"yolo","arrivals":1,"cpu_ms":231250,"mem_mb":1485.2,"net_kb":58163.2,"deadline_ms":300000}
//! {"interval":2,"app":"aeneas","arrivals":2,"cpu_ms":60500,"mem_mb":402.8,"net_kb":15052.8,"deadline_ms":130000}
//! ```
//!
//! Resource columns use cluster-log units — milliseconds of CPU on the
//! reference Pi 4B core set, megabytes of RAM, kilobytes of network
//! traffic, milliseconds of deadline — and convert to simulator units
//! losslessly (the CPU and network factors are powers of two, so
//! `TaskSpec` → event → `TaskSpec` is bit-exact for those columns). The
//! schema deliberately carries **no disk column**, mirroring public
//! cluster traces (Azure/Alibaba logs record CPU/memory/network only);
//! replayed tasks run disk-free, which perturbs the host `disk`/`io_wait`
//! metrics but none of the completion-relevant accounting.
//!
//! The loader is strict: a malformed line, a negative or non-finite
//! resource value, a zero-arrival event, an interval that goes
//! backwards, or one past [`MAX_INTERVAL_JUMP`] or
//! [`MAX_INTERVAL_ARRIVALS`] is a typed [`TraceError`], never a
//! silently-skipped record.

use crate::Workload;
use edgesim::TaskSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::BufRead;

/// Schema identifier carried by the trace header line.
pub const TRACE_SCHEMA: &str = "carol-trace";

/// Current trace schema version, written by [`export_jsonl`].
pub const TRACE_VERSION: u32 = 1;

/// The most intervals an event may step past the previous event (past
/// interval 0 for the first event). A consumer steps every interval a
/// jump skips, so one line with a huge interval would otherwise run a
/// trillion empty intervals. A recorded trace never jumps further than
/// its horizon, and the longest any generator in this workspace records
/// is the `serve` bench's 14,200 intervals: `1 << 16` leaves 4.6×
/// headroom.
pub const MAX_INTERVAL_JUMP: usize = 1 << 16;

/// The most arrivals one interval may carry, summed over that
/// interval's events. A consumer expands every arrival into a task, so
/// one line with a huge count would otherwise exhaust memory. No
/// generator in this workspace samples more than 10,001 arrivals in an
/// interval (the cap of [`crate::poisson`]): `1 << 16` leaves 6.5×
/// headroom.
pub const MAX_INTERVAL_ARRIVALS: usize = 1 << 16;

/// CPU work units (simulator MIPS-equivalents) per millisecond of CPU
/// time on the reference Pi 4B core set (4000 units/s). A power-of-two
/// factor, so the work ↔ milliseconds conversion is bit-exact.
pub const WORK_UNITS_PER_CPU_MS: f64 = 4.0;

/// One arrival record of a cluster trace: at `interval`, `arrivals`
/// tasks of application `app` enter the federation, each with the given
/// per-task resource demands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Scheduling interval (0-based) at which the tasks arrive.
    pub interval: usize,
    /// Application name, e.g. `"yolo"`.
    pub app: String,
    /// Number of identical tasks this event contributes (≥ 1).
    pub arrivals: usize,
    /// Per-task CPU demand in milliseconds on the reference Pi core set.
    pub cpu_ms: f64,
    /// Per-task resident memory, MB.
    pub mem_mb: f64,
    /// Per-task network traffic (input + output), KB.
    pub net_kb: f64,
    /// Per-task soft SLO deadline, milliseconds.
    pub deadline_ms: f64,
}

impl TraceEvent {
    /// Records one concrete task as a single-arrival event.
    pub fn from_spec(interval: usize, spec: &TaskSpec) -> Self {
        Self {
            interval,
            app: spec.app.clone(),
            arrivals: 1,
            cpu_ms: spec.cpu_work / WORK_UNITS_PER_CPU_MS,
            mem_mb: spec.ram_mb,
            net_kb: spec.net_mb * 1024.0,
            deadline_ms: spec.deadline_s * 1000.0,
        }
    }

    /// The per-task [`TaskSpec`] this event describes. The schema has no
    /// disk column, so replayed tasks carry `disk_mb = 0`.
    pub fn to_spec(&self) -> TaskSpec {
        TaskSpec {
            app: self.app.clone(),
            cpu_work: self.cpu_ms * WORK_UNITS_PER_CPU_MS,
            ram_mb: self.mem_mb,
            disk_mb: 0.0,
            net_mb: self.net_kb / 1024.0,
            deadline_s: self.deadline_ms / 1000.0,
        }
    }

    /// Validates one event's fields; `line` is the 1-based JSONL line
    /// number reported in errors.
    fn validate(&self, line: usize) -> Result<(), TraceError> {
        if self.app.is_empty() {
            return Err(TraceError::EmptyApp { line });
        }
        if self.arrivals == 0 {
            return Err(TraceError::ZeroArrivals { line });
        }
        for (field, value) in [
            ("cpu_ms", self.cpu_ms),
            ("mem_mb", self.mem_mb),
            ("net_kb", self.net_kb),
            ("deadline_ms", self.deadline_ms),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::NegativeField { line, field });
            }
        }
        Ok(())
    }
}

/// Errors raised by [`load_jsonl`]. Each variant carries the 1-based line
/// number of the offending record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The first line is missing or is not a `carol-trace` header.
    Header {
        /// What was found instead of the header.
        message: String,
    },
    /// The header names a schema version this loader does not implement.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// A line is not a valid JSON `TraceEvent` record.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Parser/decoder message.
        message: String,
    },
    /// A resource field is negative or non-finite.
    NegativeField {
        /// 1-based line number.
        line: usize,
        /// Offending field name.
        field: &'static str,
    },
    /// An event's interval precedes the previous event's interval.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
        /// Interval of the offending event.
        interval: usize,
        /// Interval of the preceding event.
        previous: usize,
    },
    /// An event contributes zero arrivals.
    ZeroArrivals {
        /// 1-based line number.
        line: usize,
    },
    /// An event has an empty application name.
    EmptyApp {
        /// 1-based line number.
        line: usize,
    },
    /// An event steps more than [`MAX_INTERVAL_JUMP`] intervals past the
    /// previous event, or brings its interval past
    /// [`MAX_INTERVAL_ARRIVALS`] arrivals.
    OverLimit {
        /// 1-based line number.
        line: usize,
        /// `"interval"` or `"arrivals"`.
        field: &'static str,
        /// The limit the event exceeds.
        limit: usize,
    },
    /// The underlying reader failed (streaming ingestion only; the
    /// in-memory [`load_jsonl`] never raises it).
    Io {
        /// 1-based line number at which the read failed.
        line: usize,
        /// The I/O error message.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Header { message } => {
                write!(f, "line 1 is not a {TRACE_SCHEMA} header: {message}")
            }
            TraceError::Version { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (loader speaks {TRACE_VERSION})"
                )
            }
            TraceError::Malformed { line, message } => {
                write!(f, "line {line}: malformed trace event: {message}")
            }
            TraceError::NegativeField { line, field } => {
                write!(f, "line {line}: field `{field}` is negative or non-finite")
            }
            TraceError::OutOfOrder {
                line,
                interval,
                previous,
            } => write!(
                f,
                "line {line}: interval {interval} precedes previous interval {previous}"
            ),
            TraceError::ZeroArrivals { line } => {
                write!(f, "line {line}: event contributes zero arrivals")
            }
            TraceError::EmptyApp { line } => {
                write!(f, "line {line}: event has an empty app name")
            }
            TraceError::OverLimit { line, field, limit } => {
                write!(
                    f,
                    "line {line}: `{field}` exceeds the trace limit of {limit}"
                )
            }
            TraceError::Io { line, message } => {
                write!(f, "line {line}: read failed: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The header record of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceHeader {
    schema: String,
    version: u32,
}

/// Serialises `events` as versioned JSONL (header line + one compact
/// JSON record per event). Inverse of [`load_jsonl`]: the round trip is
/// bit-identical, including every `f64` bit pattern.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let header = TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        version: TRACE_VERSION,
    };
    let mut out = serde_json::to_string(&header).expect("header serialises");
    out.push('\n');
    for event in events {
        out.push_str(&serde_json::to_string(event).expect("event serialises"));
        out.push('\n');
    }
    out
}

/// Parses and validates a versioned JSONL trace. Blank lines are
/// permitted (and skipped) anywhere after the header; everything else
/// must be a valid, in-order [`TraceEvent`]. This is the collect-all
/// form of [`StreamingTrace`], which the service daemon uses to decode
/// the same format incrementally from stdin or a socket.
pub fn load_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    StreamingTrace::open(text.as_bytes())?.collect()
}

/// Checks `events` as the trace decoder checks a stream of them: each
/// event's fields, intervals that never go backwards nor jump past
/// [`MAX_INTERVAL_JUMP`], and at most [`MAX_INTERVAL_ARRIVALS`] arrivals
/// per interval. An error names the line the event has in
/// [`export_jsonl`]'s output (event `i` on line `i + 2`). Events that
/// arrive by another path than a trace, such as a scenario's JSON, pass
/// through here before anything expands them.
pub fn check_events(events: &[TraceEvent]) -> Result<(), TraceError> {
    let mut sequence = Sequence::default();
    for (i, event) in events.iter().enumerate() {
        sequence.check(event, i + 2)?;
    }
    Ok(())
}

/// The checks across a trace's events, in order: [`StreamingTrace`]
/// runs them on each decoded line and [`check_events`] on a list.
#[derive(Debug, Default)]
struct Sequence {
    previous: Option<usize>,
    /// Arrivals so far in the interval of `previous`.
    previous_arrivals: usize,
}

impl Sequence {
    /// Checks `event`, on 1-based `line`, after the events checked so
    /// far.
    fn check(&mut self, event: &TraceEvent, line: usize) -> Result<(), TraceError> {
        event.validate(line)?;
        let previous = self.previous.unwrap_or(0);
        if event.interval < previous {
            return Err(TraceError::OutOfOrder {
                line,
                interval: event.interval,
                previous,
            });
        }
        let over = |field, limit| Err(TraceError::OverLimit { line, field, limit });
        if event.interval - previous > MAX_INTERVAL_JUMP {
            return over("interval", MAX_INTERVAL_JUMP);
        }
        let so_far = if self.previous == Some(event.interval) {
            self.previous_arrivals
        } else {
            0
        };
        if event.arrivals > MAX_INTERVAL_ARRIVALS - so_far {
            return over("arrivals", MAX_INTERVAL_ARRIVALS);
        }
        self.previous = Some(event.interval);
        self.previous_arrivals = so_far + event.arrivals;
        Ok(())
    }
}

/// Incremental `carol-trace` v1 decoder over any buffered reader — the
/// streaming twin of [`load_jsonl`], built for the service daemon's
/// stdin/socket ingestion where the whole trace never sits in memory.
///
/// [`StreamingTrace::open`] consumes and validates the header line;
/// iteration then yields each event as it is read, applying exactly the
/// validation [`load_jsonl`] applies (same [`TraceError`] variants, same
/// 1-based line numbers, blank lines skipped, in-order and size-limit
/// checks across events). After yielding an error the iterator is
/// fused: subsequent calls return `None`.
///
/// # Examples
///
/// ```
/// use workloads::replay::{export_jsonl, record_suite, StreamingTrace};
/// use workloads::BenchmarkSuite;
/// let text = export_jsonl(&record_suite(BenchmarkSuite::DeFog, 2.0, 7, 5));
/// let events: Result<Vec<_>, _> = StreamingTrace::open(text.as_bytes()).unwrap().collect();
/// assert!(!events.unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct StreamingTrace<R> {
    reader: R,
    /// 1-based number of lines consumed so far.
    line: usize,
    sequence: Sequence,
    done: bool,
}

impl<R: BufRead> StreamingTrace<R> {
    /// Reads and validates the header (skipping leading blank lines),
    /// returning the event iterator positioned at the first record.
    pub fn open(mut reader: R) -> Result<Self, TraceError> {
        let mut line = 0usize;
        let header_raw = loop {
            let mut buf = String::new();
            let read = reader.read_to_line(&mut buf, line + 1)?;
            line += 1;
            if read == 0 {
                return Err(TraceError::Header {
                    message: "empty input".to_string(),
                });
            }
            if !buf.trim().is_empty() {
                break buf;
            }
        };
        let header: TraceHeader = serde_json::from_str(header_raw.trim_end_matches(['\n', '\r']))
            .map_err(|e| TraceError::Header {
            message: e.to_string(),
        })?;
        if header.schema != TRACE_SCHEMA {
            return Err(TraceError::Header {
                message: format!("schema is `{}`", header.schema),
            });
        }
        if header.version != TRACE_VERSION {
            return Err(TraceError::Version {
                found: header.version,
            });
        }
        Ok(Self {
            reader,
            line,
            sequence: Sequence::default(),
            done: false,
        })
    }
}

/// `read_line` with the error wrapped as a [`TraceError::Io`] carrying
/// the line number being read.
trait ReadToLine {
    fn read_to_line(&mut self, buf: &mut String, line: usize) -> Result<usize, TraceError>;
}

impl<R: BufRead> ReadToLine for R {
    fn read_to_line(&mut self, buf: &mut String, line: usize) -> Result<usize, TraceError> {
        self.read_line(buf).map_err(|e| TraceError::Io {
            line,
            message: e.to_string(),
        })
    }
}

impl<R: BufRead> Iterator for StreamingTrace<R> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let result = loop {
            let mut buf = String::new();
            match self.reader.read_to_line(&mut buf, self.line + 1) {
                Err(e) => break Err(e),
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
            }
            self.line += 1;
            let raw = buf.trim_end_matches(['\n', '\r']);
            if raw.trim().is_empty() {
                continue;
            }
            let line = self.line;
            let event: TraceEvent = match serde_json::from_str(raw) {
                Ok(event) => event,
                Err(e) => {
                    break Err(TraceError::Malformed {
                        line,
                        message: e.to_string(),
                    })
                }
            };
            break self.sequence.check(&event, line).map(|()| event);
        };
        if result.is_err() {
            self.done = true;
        }
        Some(result)
    }
}

/// A workload that replays a recorded trace: interval `t` yields exactly
/// the tasks the trace recorded for `t` (expanded to `arrivals` copies
/// per event, in trace order), and nothing after the trace ends.
///
/// # Examples
///
/// ```
/// use workloads::replay::{record_suite, ReplayWorkload};
/// use workloads::{BenchmarkSuite, Workload};
/// let events = record_suite(BenchmarkSuite::DeFog, 2.0, 7, 5);
/// let mut replay = ReplayWorkload::new(&events);
/// let n: usize = (0..5).map(|t| replay.sample_interval(t).len()).sum();
/// assert_eq!(n, events.iter().map(|e| e.arrivals).sum::<usize>());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayWorkload {
    /// Arrivals per interval, dense from interval 0 through the last
    /// recorded interval.
    intervals: Vec<Vec<TaskSpec>>,
}

impl ReplayWorkload {
    /// Builds the replay schedule from (interval-sorted) events. It
    /// allocates for every interval and arrival they name, so events
    /// from outside the program pass [`check_events`] first (the trace
    /// decoder and a scenario's JSON run it).
    pub fn new(events: &[TraceEvent]) -> Self {
        let len = events.iter().map(|e| e.interval + 1).max().unwrap_or(0);
        let mut intervals = vec![Vec::new(); len];
        for event in events {
            let spec = event.to_spec();
            intervals[event.interval].extend(std::iter::repeat_n(spec, event.arrivals));
        }
        Self { intervals }
    }

    /// Number of intervals the trace covers (last interval + 1).
    pub fn horizon(&self) -> usize {
        self.intervals.len()
    }

    /// Total tasks the full replay will inject.
    pub fn total_tasks(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }
}

impl Workload for ReplayWorkload {
    fn sample_interval(&mut self, interval: usize) -> Vec<TaskSpec> {
        self.intervals.get(interval).cloned().unwrap_or_default()
    }
}

/// Pass-through wrapper that records every sampled task as a
/// single-arrival [`TraceEvent`] while forwarding the untouched specs to
/// the caller — the exporter used by
/// [`generate_trace_recorded`](crate::trace::generate_trace_recorded) so
/// a run and its trace come from one arrival stream.
pub struct RecordingWorkload<'a> {
    inner: &'a mut dyn Workload,
    events: Vec<TraceEvent>,
}

impl fmt::Debug for RecordingWorkload<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RecordingWorkload({} events)", self.events.len())
    }
}

impl<'a> RecordingWorkload<'a> {
    /// Wraps `inner`, recording everything it samples.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            events: Vec::new(),
        }
    }

    /// The events recorded so far, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Workload for RecordingWorkload<'_> {
    fn sample_interval(&mut self, interval: usize) -> Vec<TaskSpec> {
        let specs = self.inner.sample_interval(interval);
        for spec in &specs {
            self.events.push(TraceEvent::from_spec(interval, spec));
        }
        specs
    }
}

/// Records `intervals` intervals of a [`BagOfTasks`](crate::BagOfTasks)
/// run over `suite` as trace events, one single-arrival event per task —
/// the exporter half of the synthetic → trace round trip.
pub fn record_suite(
    suite: crate::BenchmarkSuite,
    rate: f64,
    seed: u64,
    intervals: usize,
) -> Vec<TraceEvent> {
    let mut bag = crate::BagOfTasks::new(suite, rate, seed);
    record_workload(&mut bag, intervals)
}

/// Records `intervals` intervals of any workload as trace events.
pub fn record_workload(workload: &mut dyn Workload, intervals: usize) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for t in 0..intervals {
        for spec in workload.sample_interval(t) {
            events.push(TraceEvent::from_spec(t, &spec));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchmarkSuite;

    fn sample_events() -> Vec<TraceEvent> {
        record_suite(BenchmarkSuite::DeFog, 2.0, 11, 8)
    }

    #[test]
    fn export_load_round_trips_bit_identically() {
        let events = sample_events();
        assert!(!events.is_empty());
        let text = export_jsonl(&events);
        let back = load_jsonl(&text).unwrap();
        assert_eq!(events.len(), back.len());
        for (a, b) in events.iter().zip(&back) {
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.app, b.app);
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.cpu_ms.to_bits(), b.cpu_ms.to_bits());
            assert_eq!(a.mem_mb.to_bits(), b.mem_mb.to_bits());
            assert_eq!(a.net_kb.to_bits(), b.net_kb.to_bits());
            assert_eq!(a.deadline_ms.to_bits(), b.deadline_ms.to_bits());
        }
    }

    #[test]
    fn spec_conversion_is_bit_exact_for_power_of_two_columns() {
        let mut bag = crate::BagOfTasks::new(BenchmarkSuite::AIoTBench, 4.0, 3);
        for t in 0..10 {
            for spec in crate::Workload::sample_interval(&mut bag, t) {
                let back = TraceEvent::from_spec(t, &spec).to_spec();
                assert_eq!(spec.cpu_work.to_bits(), back.cpu_work.to_bits());
                assert_eq!(spec.ram_mb.to_bits(), back.ram_mb.to_bits());
                assert_eq!(spec.net_mb.to_bits(), back.net_mb.to_bits());
                assert_eq!(spec.app, back.app);
                // Deadlines are whole milliseconds in both suites.
                assert_eq!(spec.deadline_s.to_bits(), back.deadline_s.to_bits());
                assert_eq!(back.disk_mb, 0.0, "schema carries no disk column");
            }
        }
    }

    #[test]
    fn loader_requires_header() {
        let err = load_jsonl("").unwrap_err();
        assert!(matches!(err, TraceError::Header { .. }), "{err}");
        let err = load_jsonl("{\"interval\":0}").unwrap_err();
        assert!(matches!(err, TraceError::Header { .. }), "{err}");
    }

    #[test]
    fn loader_rejects_future_versions() {
        let err = load_jsonl("{\"schema\":\"carol-trace\",\"version\":99}\n").unwrap_err();
        assert_eq!(err, TraceError::Version { found: 99 });
    }

    #[test]
    fn loader_rejects_malformed_lines_with_line_numbers() {
        let mut text = export_jsonl(&sample_events()[..2]);
        text.push_str("not json at all\n");
        let err = load_jsonl(&text).unwrap_err();
        assert!(
            matches!(err, TraceError::Malformed { line: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn loader_rejects_negative_and_nonfinite_fields() {
        let mut event = sample_events()[0].clone();
        event.cpu_ms = -1.0;
        let err = load_jsonl(&export_jsonl(&[event.clone()])).unwrap_err();
        assert_eq!(
            err,
            TraceError::NegativeField {
                line: 2,
                field: "cpu_ms"
            }
        );
        event.cpu_ms = 1.0;
        event.net_kb = f64::NAN;
        let err = load_jsonl(&export_jsonl(&[event])).unwrap_err();
        assert_eq!(
            err,
            TraceError::NegativeField {
                line: 2,
                field: "net_kb"
            }
        );
    }

    #[test]
    fn loader_rejects_out_of_order_intervals() {
        let events = sample_events();
        let mut shuffled = vec![events[events.len() - 1].clone(), events[0].clone()];
        shuffled[0].interval = 5;
        shuffled[1].interval = 2;
        let err = load_jsonl(&export_jsonl(&shuffled)).unwrap_err();
        assert_eq!(
            err,
            TraceError::OutOfOrder {
                line: 3,
                interval: 2,
                previous: 5
            }
        );
        assert_eq!(check_events(&shuffled), Err(err));
    }

    #[test]
    fn loader_rejects_zero_arrivals_and_empty_apps() {
        let mut event = sample_events()[0].clone();
        event.arrivals = 0;
        let err = load_jsonl(&export_jsonl(&[event.clone()])).unwrap_err();
        assert_eq!(err, TraceError::ZeroArrivals { line: 2 });
        event.arrivals = 1;
        event.app.clear();
        let err = load_jsonl(&export_jsonl(&[event])).unwrap_err();
        assert_eq!(err, TraceError::EmptyApp { line: 2 });
    }

    /// The loader and [`check_events`] agree on every case, errors and
    /// their lines included.
    #[test]
    fn loader_bounds_interval_jumps_and_arrivals_per_interval() {
        let load = |events: &[(usize, usize)]| {
            let base = sample_events()[0].clone();
            let events: Vec<TraceEvent> = events
                .iter()
                .map(|&(interval, arrivals)| TraceEvent {
                    interval,
                    arrivals,
                    ..base.clone()
                })
                .collect();
            let loaded = load_jsonl(&export_jsonl(&events));
            assert_eq!(check_events(&events).map(|()| events), loaded);
            loaded
        };
        let over = |line, field, limit| Err(TraceError::OverLimit { line, field, limit });
        let (jump, most) = (MAX_INTERVAL_JUMP, MAX_INTERVAL_ARRIVALS);
        // The first event jumps from interval 0, every later one from its
        // predecessor.
        assert!(load(&[(jump, 1)]).is_ok());
        assert_eq!(load(&[(jump + 1, 1)]), over(2, "interval", jump));
        assert_eq!(load(&[(1_000_000_000_000, 1)]), over(2, "interval", jump));
        let far = [(5, 1), (5 + jump, 1), (6 + 2 * jump, 1)];
        assert_eq!(load(&far), over(4, "interval", jump));
        // Arrivals add up over one interval's events and start again at
        // the next interval.
        assert_eq!(load(&[(0, usize::MAX)]), over(2, "arrivals", most));
        let half = most / 2;
        assert_eq!(
            load(&[(3, half), (3, half), (3, 1)]),
            over(4, "arrivals", most)
        );
        assert!(load(&[(3, half), (3, half), (4, most)]).is_ok());
    }

    #[test]
    fn loader_skips_blank_lines() {
        let events = sample_events();
        let text = export_jsonl(&events).replace('\n', "\n\n");
        assert_eq!(load_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn streaming_trace_matches_batch_loader() {
        let events = sample_events();
        let text = export_jsonl(&events).replace('\n', "\n\n");
        let streamed: Vec<TraceEvent> = StreamingTrace::open(text.as_bytes())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed, events);
    }

    #[test]
    fn streaming_trace_fuses_after_an_error() {
        let mut text = export_jsonl(&sample_events()[..2]);
        text.push_str("not json\n");
        text.push_str(&serde_json::to_string(&sample_events()[2]).unwrap());
        text.push('\n');
        let mut stream = StreamingTrace::open(text.as_bytes()).unwrap();
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().unwrap().is_ok());
        assert!(matches!(
            stream.next().unwrap().unwrap_err(),
            TraceError::Malformed { line: 4, .. }
        ));
        assert!(stream.next().is_none(), "errors fuse the stream");
    }

    #[test]
    fn streaming_trace_surfaces_io_errors() {
        #[derive(Debug)]
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("wire cut"))
            }
        }
        let reader = std::io::BufReader::new(FailingReader);
        match StreamingTrace::open(reader) {
            Err(TraceError::Io { line: 1, message }) => {
                assert!(message.contains("wire cut"), "{message}")
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn replay_expands_multi_arrival_events() {
        let event = TraceEvent {
            interval: 3,
            app: "burst".into(),
            arrivals: 4,
            cpu_ms: 1000.0,
            mem_mb: 128.0,
            net_kb: 1024.0,
            deadline_ms: 60_000.0,
        };
        let mut replay = ReplayWorkload::new(&[event]);
        assert_eq!(replay.horizon(), 4);
        assert_eq!(replay.total_tasks(), 4);
        assert!(replay.sample_interval(0).is_empty());
        let burst = replay.sample_interval(3);
        assert_eq!(burst.len(), 4);
        assert!(burst.iter().all(|s| s.app == "burst" && s.net_mb == 1.0));
        assert!(replay.sample_interval(4).is_empty(), "past the horizon");
    }

    #[test]
    fn replay_reproduces_the_recorded_arrival_stream() {
        let events = record_suite(BenchmarkSuite::AIoTBench, 3.0, 9, 12);
        let mut bag = crate::BagOfTasks::new(BenchmarkSuite::AIoTBench, 3.0, 9);
        let mut replay = ReplayWorkload::new(&events);
        for t in 0..12 {
            let original = crate::Workload::sample_interval(&mut bag, t);
            let replayed = replay.sample_interval(t);
            assert_eq!(original.len(), replayed.len(), "interval {t}");
            for (a, b) in original.iter().zip(&replayed) {
                assert_eq!(a.app, b.app);
                assert_eq!(a.cpu_work.to_bits(), b.cpu_work.to_bits());
            }
        }
    }
}
