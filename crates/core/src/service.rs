//! CAROL as a long-running federation-controller service.
//!
//! The paper positions CAROL as a *runtime* resilience controller — it
//! observes, checks confidence, and repairs continuously — yet the rest
//! of this crate runs finish-and-exit experiments. This module closes
//! that gap with a std-only daemon (one thread per federation, no async
//! runtime):
//!
//! * **Ingestion** — each federation decodes its own `carol-trace` v1
//!   events incrementally ([`workloads::replay::StreamingTrace`]) from
//!   stdin, a socket, or any buffered reader, on the thread that steps
//!   its engine.
//! * **Control loop** — per scheduling interval the controller runs the
//!   full Algorithm-2 cycle through
//!   [`ExperimentEngine`]: repair →
//!   inject → simulate → observe, at wall-clock or accelerated rate.
//!   Streamed arrivals reach the engine exactly as a
//!   [`ReplayWorkload`](workloads::replay::ReplayWorkload) would deliver
//!   them, so a served run is **bit-identical** to the equivalent batch
//!   replay (gated in `tests/determinism.rs`).
//! * **Multi-federation** — a [`FederationSet`] serves N independent
//!   federations concurrently from one daemon: each spec gets its own
//!   pretrained controller, engine, checkpoint cadence, metrics rows and
//!   thread, and because a federation shares no state with the others
//!   and reads its events in stream order, its served run stays
//!   bit-identical to serving it alone (and hence to its batch replay).
//! * **Fine-tuning** — inline, inside the interval's observe step, as
//!   Algorithm 2 line 15 places it; its wall time is charged to the
//!   interval that fired it.
//! * **Checkpointing** — every `checkpoint.every` intervals the full
//!   controller state freezes to a [`CarolCheckpoint`](crate::CarolCheckpoint); restore resumes
//!   the stream as if never interrupted. A checkpoint file is written to
//!   `<path>.tmp`, synced and renamed over `<path>`, so a crash mid-write
//!   leaves the previous checkpoint whole.
//! * **Metrics endpoint** — an optional TCP listener answers every
//!   connection with a plain-text health block (decisions served,
//!   repairs triggered, p50/p99 decision latency, last checkpoint age).
//!
//! The whole experiment — scenario × engines × trainer × checkpoints —
//! is one serializable [`ExperimentSpec`], registry-constructed by name
//! like [`ScenarioSpec`] and echoed verbatim into every emitted JSON
//! artifact, so CI can diff whole-config JSON instead of CLI flags.

use crate::carol::{Carol, CarolCheckpointError, CarolConfig};
use crate::runner::{ExperimentEngine, ExperimentResult};
use crate::scenario::ScenarioSpec;
use crate::tabu::TabuConfig;
use edgesim::{PhaseTimings, TaskSpec};
use gon::{GonConfig, TrainConfig};
use metrics::LatencySummary;
use par::EngineConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use workloads::replay::{StreamingTrace, TraceError};

/// When and where the service freezes controller state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Checkpoint every N completed intervals (`None` = never; values
    /// below 1 are clamped to 1).
    pub every: Option<usize>,
    /// File the latest checkpoint JSON is written to, atomically through
    /// `<path>.tmp` (`None` keeps the checkpoint in memory only).
    pub path: Option<String>,
}

/// One serializable value describing a whole experiment: the scenario
/// shape, the candidate-evaluation engine, the trainer, and the
/// checkpoint cadence. Builder-style, registry-constructed by name like
/// [`ScenarioSpec::named`], and accepted by the `serve` binary via
/// `--config <json>`.
///
/// # Examples
///
/// ```
/// use carol::service::ExperimentSpec;
/// let spec = ExperimentSpec::named("paper-16", 7)
///     .unwrap()
///     .with_engine(par::EngineConfig::batched(4));
/// let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
/// assert_eq!(back.scenario.name, "paper-16");
/// assert_eq!(back.engine.worker_count(), 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Experiment shape: workload × federation × faults × scheduler.
    pub scenario: ScenarioSpec,
    /// Candidate-evaluation worker count, copied into
    /// `CarolConfig::eval_threads` by [`ExperimentSpec::carol_config`].
    pub engine: EngineConfig,
    /// Offline-training / fine-tuning configuration, including the
    /// training worker count (`TrainConfig::train_threads`).
    pub train: TrainConfig,
    /// Checkpoint cadence and destination.
    pub checkpoint: CheckpointSpec,
}

impl ExperimentSpec {
    /// Wraps a scenario with default engine, trainer, and no
    /// checkpointing; chain the `with_*` builders to override.
    pub fn new(scenario: ScenarioSpec) -> Self {
        Self {
            scenario,
            engine: EngineConfig::default(),
            train: service_train_config(),
            checkpoint: CheckpointSpec::default(),
        }
    }

    /// Registry constructor: resolves `name` through
    /// [`ScenarioSpec::named`] and wraps it with defaults. `None` for
    /// unknown names (see [`ScenarioSpec::registry_names`]).
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        ScenarioSpec::named(name, seed).map(Self::new)
    }

    /// Replaces the candidate-evaluation worker count.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the trainer configuration.
    pub fn with_train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Replaces the checkpoint cadence.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Serialises to pretty JSON — the `serve --config` format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment specs serialise")
    }

    /// Parses [`ExperimentSpec::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The full CAROL configuration this spec induces: the service-tier
    /// GON (the `scale` sweep's proven-fast shape) with this spec's
    /// trainer and evaluation worker count plugged in.
    pub fn carol_config(&self) -> CarolConfig {
        CarolConfig {
            gon: GonConfig {
                hidden: 16,
                head_layers: 2,
                gat_dim: 8,
                gat_att: 4,
                gen_lr: 5e-3,
                gen_steps: 5,
                seed: self.scenario.seed,
            },
            tabu: TabuConfig {
                list_size: 20,
                max_iters: 2,
                ..Default::default()
            },
            offline: self.train.clone(),
            pretrain_intervals: 24,
            pretrain_sim: edgesim::SimConfig::small(8, 2, self.scenario.seed),
            ..CarolConfig::default()
        }
        .with_engine(self.engine)
    }
}

/// Trainer defaults for service specs: short fine-tune passes sized for
/// an online controller rather than a full offline run.
fn service_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        minibatch: 8,
        patience: 3,
        lr: 1e-3,
        ..TrainConfig::default()
    }
}

/// Runtime options of one [`serve_trace`] call — everything that shapes
/// *how* the daemon runs without changing *what* it computes.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Seconds of wall clock per scheduling interval, applied to each
    /// federation on its own thread (`None` = accelerated: step as fast
    /// as events drain).
    pub pace_interval_s: Option<f64>,
    /// Bind address for the plain-text metrics/health endpoint, e.g.
    /// `"127.0.0.1:0"` (`None` = no endpoint). Every accepted connection
    /// receives the current metrics block and is closed.
    pub metrics_addr: Option<String>,
    /// Ignored: fine-tuning always runs inline. Kept only so existing
    /// struct literals that set it still compile.
    #[deprecated(note = "ignored: fine-tuning always runs inline")]
    pub background_tune: bool,
}

/// What one service run produced — the `SERVE_PR.json` payload. The
/// originating [`ExperimentSpec`] is echoed verbatim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// The spec this run executed, echoed verbatim.
    pub spec: ExperimentSpec,
    /// Scheduling intervals served (one decision cycle each).
    pub intervals: usize,
    /// Tasks ingested from the trace.
    pub tasks_ingested: usize,
    /// Repair decisions triggered by broker failures.
    pub repairs_triggered: usize,
    /// Fine-tune events.
    pub fine_tune_events: usize,
    /// Checkpoints taken.
    pub checkpoints_taken: usize,
    /// Interval count at the latest checkpoint, if any.
    pub last_checkpoint_interval: Option<usize>,
    /// Wall-clock seconds of the serve loop (pretraining excluded).
    pub wall_s: f64,
    /// Decision cycles per wall-clock second.
    pub decisions_per_s: f64,
    /// Wall-clock latency distribution of the per-interval decision
    /// cycle (repair + simulate + observe).
    pub decision_latency_s: Option<LatencySummary>,
    /// The metrics-endpoint text fetched over TCP just before shutdown
    /// (`None` when no endpoint was configured).
    pub metrics_snapshot: Option<String>,
    /// The standard §V metrics over the served run.
    pub result: ExperimentResult,
}

/// Why a service run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The trace stream was malformed or the reader failed.
    Trace(TraceError),
    /// Checkpoint capture or restore failed.
    Checkpoint(CarolCheckpointError),
    /// A socket or file operation failed.
    Io(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "trace ingestion: {e}"),
            Self::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            Self::Io(msg) => write!(f, "I/O: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<TraceError> for ServiceError {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

impl From<CarolCheckpointError> for ServiceError {
    fn from(e: CarolCheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Live counters behind the metrics endpoint — one per federation.
#[derive(Debug, Default)]
struct MetricsState {
    intervals: usize,
    tasks: usize,
    repairs: usize,
    fine_tunes: usize,
    latencies_s: Vec<f64>,
    last_checkpoint_interval: Option<usize>,
    /// Cumulative per-stage simulator wall-clock, mirrored from
    /// [`ExperimentEngine::phase_timings`] after every interval.
    phases: PhaseTimings,
}

/// One federation's metrics handle as the endpoint thread sees it.
struct FedMetrics {
    name: String,
    state: Arc<Mutex<MetricsState>>,
}

/// Renders one federation's counter block (no header).
fn render_metrics_body(m: &MetricsState) -> String {
    let latency = LatencySummary::from_samples(&m.latencies_s);
    let (p50_ms, p99_ms) = latency
        .map(|l| (l.p50 * 1e3, l.p99 * 1e3))
        .unwrap_or((0.0, 0.0));
    let checkpoint_age = m
        .last_checkpoint_interval
        .map(|at| (m.intervals - at).to_string())
        .unwrap_or_else(|| "never".to_string());
    let mut text = format!(
        "decisions_served: {}\n\
         tasks_ingested: {}\n\
         repairs_triggered: {}\n\
         fine_tune_events: {}\n\
         decision_latency_p50_ms: {p50_ms:.3}\n\
         decision_latency_p99_ms: {p99_ms:.3}\n\
         last_checkpoint_age_intervals: {checkpoint_age}\n",
        m.intervals, m.tasks, m.repairs, m.fine_tunes
    );
    for (phase, secs) in m.phases.rows() {
        text.push_str(&format!("phase_{phase}_s: {secs:.6}\n"));
    }
    text.push_str(&format!(
        "phase_determine_failures_pct: {:.1}\n",
        100.0 * m.phases.determine_failures_frac()
    ));
    text
}

/// Renders the plain-text health block the endpoint serves: the shared
/// header, then one counter block per federation. A single federation
/// renders unlabelled — the historical `carol-service v1` format —
/// while a multi-federation set labels each block `federation: <idx> <name>`.
fn render_metrics(feds: &[FedMetrics], uptime_s: f64) -> String {
    let mut text = format!(
        "carol-service v1\n\
         status: ok\n\
         uptime_s: {uptime_s:.3}\n"
    );
    if feds.len() > 1 {
        text.push_str(&format!("federations: {}\n", feds.len()));
    }
    for (idx, fed) in feds.iter().enumerate() {
        if feds.len() > 1 {
            text.push_str(&format!("federation: {idx} {}\n", fed.name));
        }
        let m = fed.state.lock().expect("metrics state poisoned");
        text.push_str(&render_metrics_body(&m));
    }
    text
}

/// The metrics endpoint: answers every accepted connection with the
/// current health block and closes it. Non-blocking accept so the `stop`
/// flag is honoured promptly.
fn metrics_listener(
    listener: TcpListener,
    feds: Vec<FedMetrics>,
    stop: Arc<AtomicBool>,
    started: Instant,
) {
    listener
        .set_nonblocking(true)
        .expect("metrics listener: set_nonblocking");
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                let text = render_metrics(&feds, started.elapsed().as_secs_f64());
                let _ = conn.write_all(text.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// Serves one federation's `carol-trace` v1 stream from any buffered
/// reader through a one-spec [`FederationSet`].
///
/// Pretrains CAROL per `spec.carol_config()`, then drains the stream one
/// scheduling interval at a time. Returns once the stream ends (clean
/// shutdown) or a trace/checkpoint error surfaces. The served decisions
/// are bit-identical to [`run_scenario`](crate::scenario::run_scenario)
/// on the equivalent replay scenario.
pub fn serve_trace<R>(
    spec: &ExperimentSpec,
    reader: R,
    options: &ServeOptions,
) -> Result<ServeReport, ServiceError>
where
    R: BufRead + Send,
{
    let mut reports = FederationSet::new(vec![spec.clone()]).serve(vec![reader], options)?;
    Ok(reports.pop().expect("one federation yields one report"))
}

/// N independent federations served concurrently by one daemon — the
/// `serve --config '[spec, spec, …]'` object.
///
/// Each [`ExperimentSpec`] gets its own pretrained controller,
/// [`ExperimentEngine`], checkpoint cadence and metrics rows, and
/// [`FederationSet::serve`] gives each federation one thread that
/// decodes its trace and steps its engine: the first federation runs on
/// the calling thread, every other on its own scoped thread. A
/// federation reads its events in stream order and shares no state with
/// the others, so each served federation is bit-identical to serving it
/// alone, and hence to its batch replay (gated in
/// `tests/determinism.rs`). Because federations step concurrently, the
/// evaluation workers of their specs (`engine.threads`) add up, and
/// [`ServeOptions::pace_interval_s`] paces each federation on its own.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FederationSet {
    specs: Vec<ExperimentSpec>,
}

impl FederationSet {
    /// Bundles the specs to serve together.
    ///
    /// # Panics
    ///
    /// Panics on an empty spec list — a daemon with nothing to serve is
    /// a configuration bug, not a runtime condition.
    pub fn new(specs: Vec<ExperimentSpec>) -> Self {
        assert!(!specs.is_empty(), "federation set needs at least one spec");
        Self { specs }
    }

    /// The specs this set serves, in federation order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// Parses the `serve --config` JSON: either a single
    /// [`ExperimentSpec`] object (the historical format) or a list of
    /// them.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let specs: Vec<ExperimentSpec> = if json.trim_start().starts_with('[') {
            serde_json::from_str(json)?
        } else {
            vec![ExperimentSpec::from_json(json)?]
        };
        if specs.is_empty() {
            return Err(serde::Error("federation set needs at least one spec".into()).into());
        }
        Ok(Self::new(specs))
    }

    /// Serialises to pretty JSON (always the list form).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.specs).expect("experiment specs serialise")
    }

    /// Serves one trace reader per federation (matched by index) until
    /// every stream ends, returning one [`ServeReport`] per federation
    /// in spec order. `wall_s` on every report is the shared serve-loop
    /// wall clock; `metrics_snapshot` is the shared endpoint block.
    ///
    /// An error ends the whole serve: the failing federation raises a
    /// stop flag, every other federation returns at its next event, and
    /// the error of the lowest-index federation that failed is
    /// returned.
    pub fn serve<R>(
        &self,
        readers: Vec<R>,
        options: &ServeOptions,
    ) -> Result<Vec<ServeReport>, ServiceError>
    where
        R: BufRead + Send,
    {
        if readers.len() != self.specs.len() {
            return Err(ServiceError::Io(format!(
                "federation set: {} specs but {} trace readers",
                self.specs.len(),
                readers.len()
            )));
        }
        let mut feds: Vec<FedState> = self.specs.iter().map(FedState::new).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();

        // Metrics endpoint (optional).
        let mut endpoint_addr = None;
        let mut endpoint_thread = None;
        if let Some(addr) = &options.metrics_addr {
            let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Io(e.to_string()))?;
            endpoint_addr = Some(
                listener
                    .local_addr()
                    .map_err(|e| ServiceError::Io(e.to_string()))?,
            );
            let feds_view: Vec<FedMetrics> = feds
                .iter()
                .map(|f| FedMetrics {
                    name: f.spec.scenario.name.clone(),
                    state: Arc::clone(&f.state),
                })
                .collect();
            let stop = Arc::clone(&stop);
            endpoint_thread = Some(thread::spawn(move || {
                metrics_listener(listener, feds_view, stop, started);
            }));
        }

        // One thread per federation, each decoding its own stream and
        // stepping its own engine. The first federation runs on the
        // calling thread, so a one-spec set starts no thread of its own.
        // A federation that fails raises `stop`, which ends the others.
        let drain = |fed: &mut FedState, reader: R| {
            fed.drain(reader, options, &stop)
                .inspect_err(|_| stop.store(true, Ordering::SeqCst))
        };
        let outcome: Result<(), ServiceError> = thread::scope(|scope| {
            let mut pairs = feds.iter_mut().zip(readers);
            let (first, first_reader) = pairs.next().expect("a federation set is never empty");
            let others: Vec<_> = pairs
                .map(|(fed, reader)| scope.spawn(move || drain(fed, reader)))
                .collect();
            // The lowest-index federation that failed names the error.
            std::iter::once(drain(first, first_reader))
                .chain(
                    others
                        .into_iter()
                        .map(|handle| handle.join().expect("federation thread panicked")),
                )
                .collect()
        });

        // Snapshot the endpoint over real TCP before shutting it down,
        // so a served run exercises the full metrics path end-to-end.
        let metrics_snapshot = match (&outcome, endpoint_addr) {
            (Ok(()), Some(addr)) => fetch_metrics(addr),
            _ => None,
        };

        // Clean shutdown: stop the endpoint and join its thread.
        stop.store(true, Ordering::SeqCst);
        if let Some(handle) = endpoint_thread {
            handle.join().expect("metrics endpoint thread panicked");
        }

        outcome?;
        let wall_s = started.elapsed().as_secs_f64();
        Ok(feds
            .into_iter()
            .map(|f| f.into_report(wall_s, metrics_snapshot.clone()))
            .collect())
    }
}

/// Serves a [`FederationSet`] over sockets: accepts one connection per
/// federation, **in spec order**, on the caller-bound listener, and
/// drains each to EOF.
pub fn serve_federation_listener(
    set: &FederationSet,
    listener: &TcpListener,
    options: &ServeOptions,
) -> Result<Vec<ServeReport>, ServiceError> {
    let mut readers = Vec::with_capacity(set.specs().len());
    for _ in set.specs() {
        let (conn, _) = listener
            .accept()
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        readers.push(BufReader::new(conn));
    }
    set.serve(readers, options)
}

/// One federation's controller state inside a [`FederationSet`] run:
/// the policy and engine being driven, the checkpoint ledger, and the
/// metrics the endpoint publishes.
struct FedState {
    spec: ExperimentSpec,
    policy: Carol,
    engine: ExperimentEngine,
    scheduler: Box<dyn edgesim::Scheduler>,
    state: Arc<Mutex<MetricsState>>,
    tasks: usize,
    checkpoints: usize,
    last_checkpoint_interval: Option<usize>,
}

impl FedState {
    /// Pretrains the federation's controller and sets up its engine —
    /// exactly what a solo [`serve_trace`] did before serving.
    fn new(spec: &ExperimentSpec) -> Self {
        let policy = Carol::pretrained(spec.carol_config(), spec.scenario.seed);
        let engine = ExperimentEngine::new(&spec.scenario.experiment_config());
        let scheduler = spec.scenario.scheduler.build();
        Self {
            spec: spec.clone(),
            policy,
            engine,
            scheduler,
            state: Arc::new(Mutex::new(MetricsState::default())),
            tasks: 0,
            checkpoints: 0,
            last_checkpoint_interval: None,
        }
    }

    /// One scheduling interval of this federation: pace, step the
    /// engine, take the cadenced checkpoint, publish metrics.
    fn run_interval(
        &mut self,
        arrivals: Vec<TaskSpec>,
        options: &ServeOptions,
    ) -> Result<(), ServiceError> {
        let t = self.engine.interval();
        if t > 0 {
            if let Some(pace_s) = options.pace_interval_s {
                thread::sleep(Duration::from_secs_f64(pace_s.max(0.0)));
            }
        }
        let start = Instant::now();
        self.engine
            .step(&mut self.policy, arrivals, self.scheduler.as_mut());
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(every) = self.spec.checkpoint.every.map(|n| n.max(1)) {
            if (t + 1).is_multiple_of(every) {
                let ckpt = self.policy.checkpoint()?;
                if let Some(path) = &self.spec.checkpoint.path {
                    write_atomically(path, &ckpt.to_json())
                        .map_err(|e| ServiceError::Io(format!("checkpoint {path}: {e}")))?;
                }
                self.checkpoints += 1;
                self.last_checkpoint_interval = Some(t + 1);
            }
        }
        let mut m = self.state.lock().expect("metrics state poisoned");
        m.intervals = t + 1;
        m.tasks = self.tasks;
        m.repairs = self.engine.decision_events();
        m.fine_tunes = self.engine.fine_tune_events();
        m.latencies_s.push(elapsed);
        m.last_checkpoint_interval = self.last_checkpoint_interval;
        m.phases = *self.engine.phase_timings();
        Ok(())
    }

    /// Decodes this federation's stream and steps its engine on the
    /// calling thread until the stream ends, fails, or `stop` is raised
    /// (checked once per event). Events are grouped by interval and each
    /// closed interval runs one engine step — intervals with no events
    /// included, exactly like
    /// [`ReplayWorkload`](workloads::replay::ReplayWorkload) delivers
    /// them — so the stream horizon is `last event interval + 1`.
    fn drain(
        &mut self,
        reader: impl BufRead,
        options: &ServeOptions,
        stop: &AtomicBool,
    ) -> Result<(), ServiceError> {
        // Every event carries at least one arrival, so the batch is
        // empty at end of stream only if the stream had no events.
        let mut batch = Vec::new();
        for event in StreamingTrace::open(reader)? {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let event = event?;
            while self.engine.interval() < event.interval {
                self.run_interval(std::mem::take(&mut batch), options)?;
            }
            self.tasks += event.arrivals;
            batch.extend(std::iter::repeat_n(event.to_spec(), event.arrivals));
        }
        if !batch.is_empty() {
            self.run_interval(batch, options)?;
        }
        Ok(())
    }

    /// Collapses this federation's state into its [`ServeReport`].
    fn into_report(self, wall_s: f64, metrics_snapshot: Option<String>) -> ServeReport {
        let intervals = self.engine.interval();
        let latencies = {
            let m = self.state.lock().expect("metrics state poisoned");
            m.latencies_s.clone()
        };
        let result = self.engine.finish(&self.policy);
        ServeReport {
            spec: self.spec,
            intervals,
            tasks_ingested: self.tasks,
            repairs_triggered: result.decision_events,
            fine_tune_events: result.fine_tune_events,
            checkpoints_taken: self.checkpoints,
            last_checkpoint_interval: self.last_checkpoint_interval,
            wall_s,
            decisions_per_s: if wall_s > 0.0 {
                intervals as f64 / wall_s
            } else {
                0.0
            },
            decision_latency_s: LatencySummary::from_samples(&latencies),
            metrics_snapshot,
            result,
        }
    }
}

/// One TCP round trip against the endpoint; `None` on any failure (the
/// snapshot is best-effort diagnostics, not a correctness surface).
fn fetch_metrics(addr: std::net::SocketAddr) -> Option<String> {
    let mut conn = TcpStream::connect(addr).ok()?;
    let mut text = String::new();
    conn.read_to_string(&mut text).ok()?;
    Some(text)
}

/// Writes `contents` to `path` atomically: into `<path>.tmp`, synced to
/// disk, then renamed over `path`, and the rename synced through the
/// parent directory. A crash mid-write leaves the previous file whole.
fn write_atomically(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = std::path::Path::new(path).parent();
    let dir = dir.filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carol::CarolCheckpoint;
    use crate::scenario::WorkloadSource;
    use gon::TrainConfig;
    use std::io::Cursor;
    use workloads::replay::{export_jsonl, load_jsonl, record_suite, TraceEvent};
    use workloads::BenchmarkSuite;

    /// A small, cheap spec: 8-host federation replaying a recorded
    /// AIoTBench burst, single fine-tune epoch.
    fn small_spec(seed: u64) -> (ExperimentSpec, String) {
        let events = record_suite(BenchmarkSuite::AIoTBench, 2.5, seed, 6);
        let trace = export_jsonl(&events);
        let scenario = ScenarioSpec::replay("svc-test", events, 8, 2, seed);
        let spec = ExperimentSpec::new(scenario).with_train(TrainConfig {
            epochs: 1,
            minibatch: 4,
            patience: 1,
            ..TrainConfig::default()
        });
        (spec, trace)
    }

    #[test]
    fn spec_named_registry_and_json_round_trip() {
        let spec = ExperimentSpec::named("paper-16", 7)
            .unwrap()
            .with_engine(EngineConfig::batched(4))
            .with_checkpoint(CheckpointSpec {
                every: Some(10),
                path: None,
            });
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.scenario.name, "paper-16");
        assert_eq!(back.scenario.n_hosts, 16);
        assert_eq!(back.engine, EngineConfig::batched(4));
        assert_eq!(back.checkpoint.every, Some(10));
        assert_eq!(back.train.epochs, spec.train.epochs);
        assert!(ExperimentSpec::named("no-such-scenario", 7).is_none());
    }

    /// Wraps counters the way the endpoint thread sees them.
    fn fed(name: &str, m: MetricsState) -> FedMetrics {
        FedMetrics {
            name: name.to_string(),
            state: Arc::new(Mutex::new(m)),
        }
    }

    #[test]
    fn render_metrics_reports_required_fields() {
        let m = MetricsState {
            intervals: 12,
            tasks: 90,
            repairs: 3,
            fine_tunes: 2,
            latencies_s: vec![0.010, 0.020, 0.030, 0.040],
            last_checkpoint_interval: Some(10),
            phases: PhaseTimings {
                determine_failures_s: 0.25,
                execute_s: 0.75,
                ..PhaseTimings::default()
            },
        };
        let text = render_metrics(&[fed("paper-16", m)], 1.5);
        assert!(text.contains("decisions_served: 12"));
        assert!(text.contains("repairs_triggered: 3"));
        assert!(text.contains("decision_latency_p50_ms: 25.000"));
        assert!(text.contains("decision_latency_p99_ms:"));
        assert!(text.contains("last_checkpoint_age_intervals: 2"));
        assert!(text.contains("phase_determine_failures_s: 0.250000"));
        assert!(text.contains("phase_execute_s: 0.750000"));
        assert!(text.contains("phase_determine_failures_pct: 25.0"));
        assert!(
            !text.contains("federation:"),
            "single federation renders unlabelled"
        );

        let empty = render_metrics(&[fed("paper-16", MetricsState::default())], 0.0);
        assert!(empty.contains("last_checkpoint_age_intervals: never"));
        assert!(empty.contains("decision_latency_p50_ms: 0.000"));
    }

    #[test]
    fn render_metrics_labels_multiple_federations() {
        let feds = [
            fed("paper-16", MetricsState::default()),
            fed("aiot-256", MetricsState::default()),
        ];
        let text = render_metrics(&feds, 0.5);
        assert!(text.contains("federations: 2"));
        assert!(text.contains("federation: 0 paper-16"));
        assert!(text.contains("federation: 1 aiot-256"));
    }

    #[test]
    fn federation_set_parses_single_spec_or_list() {
        let solo = ExperimentSpec::named("paper-16", 7).unwrap();
        let set = FederationSet::from_json(&solo.to_json()).unwrap();
        assert_eq!(set.specs().len(), 1);
        assert_eq!(set.specs()[0].scenario.name, "paper-16");

        let pair = FederationSet::new(vec![
            solo.clone(),
            ExperimentSpec::named("paper-16", 9).unwrap(),
        ]);
        let back = FederationSet::from_json(&pair.to_json()).unwrap();
        assert_eq!(back.specs().len(), 2);
        assert_eq!(back.specs()[1].scenario.seed, 9);
    }

    /// Replay events that arrive as JSON pass the trace's checks: an
    /// over-limit interval jump, an over-limit arrival total in one
    /// interval and an out-of-order pair are each rejected by
    /// `ScenarioSpec::from_json` and by `FederationSet::from_json`, alone
    /// and in a list, with the trace's error.
    #[test]
    fn json_specs_reject_replay_events_a_trace_would() {
        use workloads::replay::{check_events, MAX_INTERVAL_ARRIVALS, MAX_INTERVAL_JUMP};
        let events = |pairs: &[(usize, usize)]| -> Vec<TraceEvent> {
            let event = |&(interval, arrivals)| TraceEvent {
                interval,
                app: "yolo".into(),
                arrivals,
                cpu_ms: 1.0,
                mem_mb: 1.0,
                net_kb: 1.0,
                deadline_ms: 1000.0,
            };
            pairs.iter().map(event).collect()
        };
        let half = MAX_INTERVAL_ARRIVALS / 2;
        let good = ExperimentSpec::new(ScenarioSpec::replay("ok", events(&[(0, 1)]), 8, 2, 1));
        for (case, pairs) in [
            ("jump", &[(MAX_INTERVAL_JUMP + 1, 1)][..]),
            ("arrivals", &[(3, half), (3, half), (3, 1)][..]),
            ("order", &[(5, 1), (2, 1)][..]),
        ] {
            let events = events(pairs);
            let want = check_events(&events).expect_err(case).to_string();
            let spec = ExperimentSpec::new(ScenarioSpec::replay(case, events, 8, 2, 1));
            let errors = [
                ScenarioSpec::from_json(&spec.scenario.to_json()).err(),
                FederationSet::from_json(&spec.to_json()).err(),
                FederationSet::from_json(&FederationSet::new(vec![good.clone(), spec]).to_json())
                    .err(),
            ];
            for err in errors {
                let err = err
                    .unwrap_or_else(|| panic!("{case}: accepted"))
                    .to_string();
                assert!(err.contains(&want), "{case}: {err}");
            }
        }
        assert!(FederationSet::from_json(&good.to_json()).is_ok());
    }

    #[test]
    fn federation_set_rejects_reader_count_mismatch() {
        let (spec, trace) = small_spec(31);
        let set = FederationSet::new(vec![spec]);
        let err = set
            .serve(
                vec![
                    Cursor::new(trace.clone().into_bytes()),
                    Cursor::new(trace.into_bytes()),
                ],
                &ServeOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "got {err:?}");
    }

    #[test]
    fn serve_reports_counts_and_metrics_snapshot() {
        let (spec, trace) = small_spec(11);
        let expected_tasks: usize = match &spec.scenario.workload {
            WorkloadSource::Replay { events } => events.iter().map(|e| e.arrivals).sum(),
            _ => unreachable!(),
        };
        let options = ServeOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        };
        let report = serve_trace(&spec, Cursor::new(trace.into_bytes()), &options).unwrap();
        assert_eq!(report.intervals, spec.scenario.intervals);
        assert_eq!(report.tasks_ingested, expected_tasks);
        assert_eq!(
            report.decision_latency_s.map(|l| l.count),
            Some(report.intervals)
        );
        assert!(report.wall_s > 0.0 && report.decisions_per_s > 0.0);
        let snapshot = report.metrics_snapshot.expect("endpoint was configured");
        assert!(snapshot.contains(&format!("decisions_served: {}", report.intervals)));
        assert!(snapshot.contains(&format!("tasks_ingested: {expected_tasks}")));
        assert!(snapshot.contains("phase_determine_failures_s:"));
        assert!(snapshot.contains("phase_execute_s:"));
        assert_eq!(report.result.decision_events, report.repairs_triggered);
        assert!(
            report.result.phase_timings.total_s() > 0.0,
            "served runs must surface per-phase wall-clock"
        );
    }

    #[test]
    fn federation_set_serves_each_federation_bit_identical_to_solo() {
        let (spec_a, trace_a) = small_spec(23);
        let (spec_b, trace_b) = small_spec(29);
        let solo_a = serve_trace(
            &spec_a,
            Cursor::new(trace_a.clone().into_bytes()),
            &ServeOptions::default(),
        )
        .unwrap();
        let solo_b = serve_trace(
            &spec_b,
            Cursor::new(trace_b.clone().into_bytes()),
            &ServeOptions::default(),
        )
        .unwrap();

        let set = FederationSet::new(vec![spec_a, spec_b]);
        let options = ServeOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        };
        let reports = set
            .serve(
                vec![
                    Cursor::new(trace_a.into_bytes()),
                    Cursor::new(trace_b.into_bytes()),
                ],
                &options,
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        for (multi, solo) in reports.iter().zip([&solo_a, &solo_b]) {
            assert_eq!(multi.intervals, solo.intervals);
            assert_eq!(multi.tasks_ingested, solo.tasks_ingested);
            assert_eq!(multi.result.completed, solo.result.completed);
            assert_eq!(
                multi.result.total_energy_wh.to_bits(),
                solo.result.total_energy_wh.to_bits(),
                "serving alongside another federation must not perturb a stream"
            );
        }
        let snapshot = reports[0]
            .metrics_snapshot
            .as_ref()
            .expect("endpoint was configured");
        assert!(snapshot.contains("federations: 2"));
        assert!(snapshot.contains("federation: 0 svc-test"));
        assert!(snapshot.contains("federation: 1 svc-test"));
    }

    #[test]
    fn serve_checkpoints_on_cadence_and_restores() {
        let path = std::env::temp_dir().join(format!(
            "carol-service-ckpt-{}-{}.json",
            std::process::id(),
            line!()
        ));
        let (mut spec, trace) = small_spec(13);
        spec.checkpoint = CheckpointSpec {
            every: Some(2),
            path: Some(path.to_string_lossy().into_owned()),
        };
        let report = serve_trace(
            &spec,
            Cursor::new(trace.into_bytes()),
            &ServeOptions::default(),
        )
        .unwrap();
        assert_eq!(report.intervals, 6);
        assert_eq!(report.checkpoints_taken, 3);
        assert_eq!(report.last_checkpoint_interval, Some(6));

        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let ckpt = CarolCheckpoint::from_json(&json).unwrap();
        let restored = Carol::restore(&ckpt).unwrap();
        assert_eq!(restored.interval(), 6);
    }

    #[test]
    fn checkpoint_writes_replace_the_file_atomically() {
        let path = std::env::temp_dir().join(format!(
            "carol-service-ckpt-{}-{}.json",
            std::process::id(),
            line!()
        ));
        let tmp = format!("{}.tmp", path.display());
        let (mut spec, trace) = small_spec(13);
        spec.checkpoint = CheckpointSpec {
            every: Some(2),
            path: Some(path.to_string_lossy().into_owned()),
        };
        let serve = || {
            serve_trace(
                &spec,
                Cursor::new(trace.clone().into_bytes()),
                &ServeOptions::default(),
            )
        };

        // A normal run leaves the checkpoint and no temporary file.
        serve().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!(!std::path::Path::new(&tmp).exists(), "stray {tmp}");

        // A write that cannot complete fails the run and keeps the last
        // good checkpoint byte for byte.
        std::fs::create_dir(&tmp).unwrap();
        let err = serve().unwrap_err();
        let after = std::fs::read(&path).unwrap();
        std::fs::remove_dir(&tmp).ok();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ServiceError::Io(_)), "got {err:?}");
        assert!(after == good, "the last good checkpoint was overwritten");
    }

    #[test]
    fn serve_federation_listener_ingests_over_socket() {
        let (spec, trace) = small_spec(17);
        let batch = serve_trace(
            &spec,
            Cursor::new(trace.clone().into_bytes()),
            &ServeOptions::default(),
        )
        .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let producer = thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(trace.as_bytes()).unwrap();
        });
        let set = FederationSet::new(vec![spec]);
        let served = serve_federation_listener(&set, &listener, &ServeOptions::default())
            .unwrap()
            .pop()
            .unwrap();
        producer.join().unwrap();

        assert_eq!(served.intervals, batch.intervals);
        assert_eq!(served.tasks_ingested, batch.tasks_ingested);
        assert_eq!(served.result.completed, batch.result.completed);
        assert_eq!(
            served.result.total_energy_wh.to_bits(),
            batch.result.total_energy_wh.to_bits()
        );
    }

    /// A well-formed event past a trace limit fails the serve with the
    /// typed error before its interval is stepped.
    #[test]
    fn serve_rejects_events_past_the_trace_limits() {
        let (spec, trace) = small_spec(37);
        let hostile = TraceEvent {
            interval: 1_000_000_000_000,
            ..load_jsonl(&trace).unwrap().remove(0)
        };
        let text = trace.clone() + &serde_json::to_string(&hostile).unwrap() + "\n";
        let err = serve_trace(&spec, Cursor::new(text), &ServeOptions::default()).unwrap_err();
        let line = trace.lines().count() + 1;
        let limit = workloads::replay::MAX_INTERVAL_JUMP;
        let want = TraceError::OverLimit {
            line,
            field: "interval",
            limit,
        };
        assert_eq!(err, ServiceError::Trace(want));
    }

    /// A malformed line late in the second federation's stream fails
    /// the whole serve with that federation's typed error.
    #[test]
    fn federation_set_fails_on_one_malformed_stream() {
        let (spec_a, trace_a) = small_spec(41);
        let (spec_b, trace_b) = small_spec(43);
        let mut lines: Vec<&str> = trace_b.lines().collect();
        assert!(lines.len() > 5, "the trace needs events after the bad line");
        lines.insert(4, "not a trace event");
        let broken_b = lines.join("\n") + "\n";
        let err = FederationSet::new(vec![spec_a, spec_b])
            .serve(
                vec![
                    Cursor::new(trace_a.into_bytes()),
                    Cursor::new(broken_b.into_bytes()),
                ],
                &ServeOptions::default(),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Trace(TraceError::Malformed { line: 5, .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn serve_surfaces_trace_errors() {
        let (spec, _) = small_spec(19);
        let garbage = "not a carol-trace header\n";
        let err = serve_trace(
            &spec,
            Cursor::new(garbage.as_bytes().to_vec()),
            &ServeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ServiceError::Trace(_)), "got {err:?}");
    }
}
