//! The traced run: per-layer metrics timed from outside the program.
//!
//! The engine's trait boundaries are wrapped — [`ResiliencePolicy`]
//! around [`Carol`], [`Scheduler`] around the placement policy, and the
//! replayed workload — and the simulator's own phase timings are read
//! back. The repair breakdown comes from a probe: before each real repair
//! it builds a copy of the controller around the GON and node-shift RNG
//! state read from [`Carol::checkpoint`], replays the node-shift and tabu
//! search of `Carol::repair` on the copy with a timing [`BatchObjective`],
//! and re-times `SystemState::with_topology` and
//! `GonModel::generate_batch` on the same candidate batches. The probe's
//! own time is excluded from the traced throughput; its topology must
//! equal the real repair's.
//!
//! A checkpoint clones the controller's whole history, so the probe takes
//! one only at the start and after each fine-tune (the only steps that
//! change the GON) and advances its copy of the RNG by replaying the same
//! node-shifts the repair makes; the topology check catches any drift.
//!
//! `paper16-daemon` is traced as the [`ExperimentEngine`] replay of the
//! trace it serves (served ≡ replayed is gated in the repository's
//! determinism suite), with the daemon's checkpoint cadence and trace
//! decoding timed at the points the daemon performs them.

use crate::report::{Metric, Unit};
use crate::run::{self, Repeat};
use crate::{Inputs, Workload};
use carol::carol::CarolConfig;
use carol::nodeshift::random_shift;
use carol::runner::{ExperimentEngine, ExperimentResult};
use carol::tabu::{self, BatchObjective};
use carol::{Carol, ObserveOutcome, ResiliencePolicy};
use edgesim::state::SystemState;
use edgesim::{HostId, HostSpec, HostState, IntervalReport, NodeRole, Scheduler};
use edgesim::{SchedulingDecision, Simulator, Task, Topology};
use gon::GonModel;
use rand::rngs::StdRng;
use std::io::Cursor;
use std::time::Instant;
use workloads::replay::{ReplayWorkload, StreamingTrace};
use workloads::Workload as _;

/// Candidates per stacked surrogate forward in `Carol::objective_batch`;
/// the probe re-times the same chunks.
const SCORE_BATCH: usize = 16;

/// Outcome of one traced run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Intervals attempted across the untraced and traced passes.
    pub attempted: usize,
    /// Intervals of passes whose checks failed.
    pub failed: usize,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
}

/// Runs the untraced replay, then the traced pass over the same inputs,
/// and derives the per-layer metrics; the traced pass must reproduce the
/// untraced QoS bit for bit. The daemon is also served untraced, for its
/// serving overhead and the served ≡ replayed check.
pub fn run(inputs: &Inputs) -> TracedRun {
    let replay = run::engine_repeat(inputs);
    let served = (inputs.workload == Workload::Paper16Daemon).then(|| {
        let mut served = run::repeat(inputs);
        run::check_reproduced(&replay, &mut served);
        served
    });
    let mut traced = traced_pass(inputs);
    if replay.qos_bits() != Some(run::qos_bits(&traced.result)) {
        traced
            .failures
            .push("traced QoS differs from the untraced pass".into());
    }

    let mut outcome = TracedRun {
        metrics: layer_metrics(&replay, served.as_ref(), &traced),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let untraced = [Some(&replay), served.as_ref()].into_iter().flatten();
    for pass_failures in untraced.map(|r| &r.failures).chain([&traced.failures]) {
        outcome.attempted += inputs.horizon;
        if !pass_failures.is_empty() {
            outcome.failed += inputs.horizon;
            outcome.failures.extend(pass_failures.iter().cloned());
        }
    }
    outcome
}

/// Timings and counts gathered by the wrappers and the probe.
#[derive(Debug, Clone, Default)]
struct Layers {
    step_s: f64,
    repair_calls: usize,
    repair_s: Vec<f64>,
    idle_repair_s: f64,
    surrogate_queries: usize,
    observe_calls: usize,
    observe_s: f64,
    finetune_events: usize,
    finetune_s: f64,
    finetune_samples: usize,
    gamma: usize,
    probe_s: f64,
    probe_mismatches: usize,
    shift_s: f64,
    search_s: f64,
    objective_s: f64,
    retime_s: f64,
    with_topology_s: f64,
    generate_s: f64,
    ascent_iters: usize,
    iterations: usize,
    improving_iterations: usize,
    candidates: usize,
    scheduler_s: f64,
    live_tasks: usize,
    arrivals: usize,
    checkpoint_s: Vec<f64>,
    checkpoint_bytes: usize,
    decode_s: f64,
}

/// What the traced pass produced.
struct TracedPass {
    layers: Layers,
    intervals: usize,
    wall_s: f64,
    result: ExperimentResult,
    failures: Vec<String>,
}

/// [`ResiliencePolicy`] wrapper timing every call into the controller and
/// probing every real repair.
struct TracedPolicy<'a> {
    inner: &'a mut Carol,
    mirror: &'a mut Mirror,
    layers: &'a mut Layers,
}

/// What the probe needs of the controller: its GON, its configuration and
/// the position of its node-shift RNG stream.
struct Mirror {
    gon: GonModel,
    config: CarolConfig,
    rng: StdRng,
}

impl Mirror {
    fn capture(carol: &mut Carol) -> Self {
        let ckpt = carol.checkpoint().expect("the GON controller checkpoints");
        Self {
            gon: ckpt.gon.restore().expect("a fresh GON checkpoint restores"),
            config: ckpt.config,
            rng: StdRng::from_state(ckpt.rng_state),
        }
    }
}

impl ResiliencePolicy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        if sim.failed_brokers().is_empty() {
            let started = Instant::now();
            let out = self.inner.repair(sim, snapshot);
            self.layers.idle_repair_s += started.elapsed().as_secs_f64();
            return out;
        }
        let probed = Instant::now();
        let expected = probe(self.mirror, sim, snapshot, self.layers);
        self.layers.probe_s += probed.elapsed().as_secs_f64();

        let queries = self.inner.surrogate_queries;
        let started = Instant::now();
        let out = self.inner.repair(sim, snapshot);
        self.layers.repair_s.push(started.elapsed().as_secs_f64());
        self.layers.repair_calls += 1;
        self.layers.surrogate_queries += self.inner.surrogate_queries - queries;
        if out.as_ref() != Some(&expected) {
            self.layers.probe_mismatches += 1;
        }
        out
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        snapshot: &SystemState,
        report: &IntervalReport,
    ) -> ObserveOutcome {
        self.layers.live_tasks += sim.live_task_count();
        // Γ gains every fault-free interval and is spent by a fine-tune.
        if report.failed_brokers.is_empty() {
            self.layers.gamma += 1;
        }
        let started = Instant::now();
        let outcome = self.inner.observe(sim, snapshot, report);
        let elapsed = started.elapsed().as_secs_f64();
        if outcome.fine_tuned {
            let refreshed = Instant::now();
            *self.mirror = Mirror::capture(self.inner);
            self.layers.probe_s += refreshed.elapsed().as_secs_f64();
            self.layers.finetune_events += 1;
            self.layers.finetune_s += elapsed;
            self.layers.finetune_samples += self.layers.gamma;
            self.layers.gamma = 0;
        } else {
            self.layers.observe_calls += 1;
            self.layers.observe_s += elapsed;
        }
        outcome
    }

    fn memory_gb(&self) -> f64 {
        self.inner.memory_gb()
    }

    fn modeled_decision_s(&self) -> f64 {
        self.inner.modeled_decision_s()
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.inner.modeled_overhead_s()
    }
}

/// [`Scheduler`] wrapper timing placement.
struct TracedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    busy_s: f64,
}

impl Scheduler for TracedScheduler<'_> {
    fn schedule(
        &mut self,
        tasks: &[&Task],
        topology: &Topology,
        specs: &[HostSpec],
        states: &[HostState],
    ) -> SchedulingDecision {
        let started = Instant::now();
        let decision = self.inner.schedule(tasks, topology, specs, states);
        self.busy_s += started.elapsed().as_secs_f64();
        decision
    }
}

/// Replays `Carol::repair` on a copy of the controller built from
/// `mirror` and returns the topology it settles on, accumulating the
/// breakdown.
fn probe(
    mirror: &mut Mirror,
    sim: &Simulator,
    snapshot: &SystemState,
    layers: &mut Layers,
) -> Topology {
    let mut copy = Carol::from_model(mirror.gon.clone(), mirror.config.clone(), 0);

    let banned: Vec<HostId> = sim
        .host_states()
        .iter()
        .enumerate()
        .filter_map(|(h, st)| st.failed.then_some(h))
        .collect();
    let mut topo = sim.topology().clone();
    for &b in sim.failed_brokers() {
        if !matches!(topo.role(b), NodeRole::Broker) {
            continue;
        }
        let shifted = Instant::now();
        topo = random_shift(&topo, b, &banned, &mut mirror.rng);
        layers.shift_s += shifted.elapsed().as_secs_f64();

        let mut objective = TimingObjective {
            inner: copy.batch_objective(snapshot),
            gon: &mirror.gon,
            base: snapshot,
            layers: &mut *layers,
            best: None,
        };
        let searched = Instant::now();
        let result = tabu::search(topo, &banned, &mirror.config.tabu, &mut objective);
        layers.search_s += searched.elapsed().as_secs_f64();
        topo = result.best;
    }
    topo
}

/// The real batched objective, timed, with the same candidate chunks
/// re-timed through `with_topology` and `generate_batch` alone.
struct TimingObjective<'a, O> {
    inner: O,
    gon: &'a GonModel,
    base: &'a SystemState,
    layers: &'a mut Layers,
    best: Option<f64>,
}

impl<O: BatchObjective> BatchObjective for TimingObjective<'_, O> {
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        let started = Instant::now();
        let scores = self.inner.score_batch(candidates);
        self.layers.objective_s += started.elapsed().as_secs_f64();

        let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
        match self.best {
            // The first call scores the search's start topology.
            None => self.best = Some(min),
            Some(best) => {
                self.layers.iterations += 1;
                self.layers.candidates += candidates.len();
                // The best improves exactly when some candidate beats it:
                // such a candidate passes the tabu check by aspiration.
                if min < best {
                    self.layers.improving_iterations += 1;
                    self.best = Some(min);
                }
            }
        }

        let retimed = Instant::now();
        for chunk in candidates.chunks(SCORE_BATCH) {
            let mut model = self.gon.clone();
            let built = Instant::now();
            let probes: Vec<SystemState> =
                chunk.iter().map(|t| self.base.with_topology(t)).collect();
            let generated_at = Instant::now();
            let generated = model.generate_batch(&probes);
            let done = Instant::now();
            self.layers.with_topology_s += (generated_at - built).as_secs_f64();
            self.layers.generate_s += (done - generated_at).as_secs_f64();
            self.layers.ascent_iters += generated.iter().map(|g| g.iterations).sum::<usize>();
        }
        self.layers.retime_s += retimed.elapsed().as_secs_f64();
        scores
    }
}

/// Steps the engine over the trace with every boundary wrapped.
fn traced_pass(inputs: &Inputs) -> TracedPass {
    let mut layers = Layers::default();
    let mut failures = Vec::new();
    let decoded = Instant::now();
    let events: Result<Vec<_>, _> =
        StreamingTrace::open(Cursor::new(inputs.trace.as_bytes())).and_then(Iterator::collect);
    layers.decode_s = decoded.elapsed().as_secs_f64();
    match events {
        Ok(events) if events == inputs.events => {}
        Ok(_) => failures.push("decoded trace differs from the recorded events".into()),
        Err(e) => failures.push(format!("trace does not decode: {e}")),
    }

    let mut carol = Carol::pretrained(inputs.carol.clone(), inputs.controller_seed);
    let mut mirror = Mirror::capture(&mut carol);
    let mut engine = ExperimentEngine::new(&inputs.config);
    let mut inner_scheduler = inputs.spec.scenario.scheduler.build();
    let mut scheduler = TracedScheduler {
        inner: inner_scheduler.as_mut(),
        busy_s: 0.0,
    };
    let mut workload = ReplayWorkload::new(&inputs.events);
    let checkpoint_every = inputs.spec.checkpoint.every.map(|every| every.max(1));
    let mut last_checkpoint = None;

    let looped = Instant::now();
    let mut probe_total_s = 0.0;
    for t in 0..inputs.horizon {
        let arrivals = workload.sample_interval(t);
        layers.arrivals += arrivals.len();
        let probe_before = layers.probe_s;
        let stepped = Instant::now();
        let mut policy = TracedPolicy {
            inner: &mut carol,
            mirror: &mut mirror,
            layers: &mut layers,
        };
        engine.step(&mut policy, arrivals, &mut scheduler);
        let probe_s = layers.probe_s - probe_before;
        layers.step_s += stepped.elapsed().as_secs_f64() - probe_s;
        probe_total_s += probe_s;

        // The daemon's cadenced checkpoint, written to a file and timed as
        // the daemon takes it.
        if checkpoint_every.is_some_and(|every| (t + 1) % every == 0) {
            let started = Instant::now();
            match carol.checkpoint() {
                Ok(ckpt) => {
                    let json = ckpt.to_json();
                    if let Err(e) = std::fs::write(&inputs.checkpoint_path, &json) {
                        failures.push(format!("checkpoint write failed: {e}"));
                    }
                    layers.checkpoint_bytes = json.len();
                    last_checkpoint = Some(t + 1);
                }
                Err(e) => failures.push(format!("checkpoint failed: {e}")),
            }
            layers.checkpoint_s.push(started.elapsed().as_secs_f64());
        }
    }
    // The untraced replay this is compared with takes no checkpoints.
    let checkpoint_total_s: f64 = layers.checkpoint_s.iter().sum();
    let wall_s = looped.elapsed().as_secs_f64() - probe_total_s - checkpoint_total_s;
    if let Some(at) = last_checkpoint {
        if let Err(e) = run::verify_checkpoint(&inputs.checkpoint_path, at) {
            failures.push(e);
        }
    }
    layers.scheduler_s = scheduler.busy_s;

    let intervals = engine.interval();
    if intervals != inputs.horizon || layers.arrivals != inputs.tasks {
        failures.push(format!(
            "traced pass served {intervals} of {} intervals and {} of {} tasks",
            inputs.horizon, layers.arrivals, inputs.tasks
        ));
    }
    if layers.probe_mismatches > 0 {
        failures.push(format!(
            "{} probed repairs differ from the real repair",
            layers.probe_mismatches
        ));
    }
    let result = engine.finish(&carol);
    TracedPass {
        layers,
        intervals,
        wall_s,
        result,
        failures,
    }
}

/// Median of `values` (0 when empty: the layer did no such work).
fn median(values: &[f64]) -> f64 {
    metrics::quantile(values, 0.5).unwrap_or(0.0)
}

/// `total / count`, 0 when nothing was counted.
fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
fn layer_metrics(replay: &Repeat, served: Option<&Repeat>, traced: &TracedPass) -> Vec<Metric> {
    let l = &traced.layers;
    let n = traced.intervals;
    let phases = &traced.result.phase_timings;
    let ms = 1e3;
    let repairs = l.repair_calls;
    let repair_total_s: f64 = l.repair_s.iter().sum();
    let untraced_ips = replay.intervals_per_s();
    let replay_p99_s = replay.latency.map_or(f64::NAN, |l| l.p99);
    let traced_ips = n as f64 / traced.wall_s;
    // The daemon's serving overhead: its serve-loop wall minus the wall of
    // the same intervals stepped directly, both untraced. The storm has no
    // server.
    let overhead_s = served.map_or(0.0, |s| s.wall_s - replay.wall_s);
    let step_other_s =
        l.step_s - repair_total_s - l.idle_repair_s - l.observe_s - l.finetune_s - phases.total_s();
    let m = Metric::new;
    vec![
        m(
            "service.checkpoint_ms",
            median(&l.checkpoint_s) * ms,
            Unit::Ms,
        ),
        m(
            "service.checkpoint_bytes",
            l.checkpoint_bytes as f64,
            Unit::Bytes,
        ),
        m("service.decode_ms", l.decode_s * ms, Unit::Ms),
        m("service.overhead_s", overhead_s, Unit::S),
        m("runner.step_ms", per(l.step_s, n) * ms, Unit::Ms),
        m("runner.other_ms", per(step_other_s, n) * ms, Unit::Ms),
        m("runner.interval_p99_ms", replay_p99_s * ms, Unit::Ms),
        m("runner.peak_rss_mb", run::peak_rss_mb(), Unit::Mb),
        m("carol.repair_calls", repairs as f64, Unit::Count),
        m(
            "carol.repair_ms",
            per(repair_total_s, repairs) * ms,
            Unit::Ms,
        ),
        m("carol.repair_p50_ms", median(&l.repair_s) * ms, Unit::Ms),
        m(
            "carol.surrogate_queries",
            l.surrogate_queries as f64,
            Unit::Count,
        ),
        m(
            "carol.observe_ms",
            per(l.observe_s, l.observe_calls) * ms,
            Unit::Ms,
        ),
        m(
            "carol.finetune_events",
            l.finetune_events as f64,
            Unit::Count,
        ),
        m(
            "carol.finetune_ms",
            per(l.finetune_s, l.finetune_events) * ms,
            Unit::Ms,
        ),
        m(
            "carol.finetune_samples",
            l.finetune_samples as f64,
            Unit::Count,
        ),
        m(
            "carol.objective_other_ms",
            per(l.objective_s - l.with_topology_s - l.generate_s, repairs) * ms,
            Unit::Ms,
        ),
        m(
            "nodeshift.random_shift_ms",
            per(l.shift_s, repairs) * ms,
            Unit::Ms,
        ),
        m("tabu.iterations", l.iterations as f64, Unit::Count),
        m("tabu.candidates", l.candidates as f64, Unit::Count),
        m(
            "tabu.improve_ratio",
            per(l.improving_iterations as f64, l.iterations),
            Unit::Ratio,
        ),
        m(
            "tabu.objective_ms",
            per(l.objective_s, repairs) * ms,
            Unit::Ms,
        ),
        m(
            "tabu.self_ms",
            per(l.search_s - l.objective_s - l.retime_s, repairs) * ms,
            Unit::Ms,
        ),
        m(
            "state.with_topology_ms",
            per(l.with_topology_s, repairs) * ms,
            Unit::Ms,
        ),
        m(
            "gon.generate_batch_ms",
            per(l.generate_s, repairs) * ms,
            Unit::Ms,
        ),
        m("gon.ascent_iters", l.ascent_iters as f64, Unit::Count),
        m("edgesim.admit_ms", per(phases.admit_s, n) * ms, Unit::Ms),
        m(
            "edgesim.determine_failures_ms",
            per(phases.determine_failures_s, n) * ms,
            Unit::Ms,
        ),
        m(
            "edgesim.schedule_dispatch_ms",
            per(phases.schedule_dispatch_s, n) * ms,
            Unit::Ms,
        ),
        m("edgesim.scheduler_ms", per(l.scheduler_s, n) * ms, Unit::Ms),
        m(
            "edgesim.execute_ms",
            per(phases.execute_s, n) * ms,
            Unit::Ms,
        ),
        m(
            "edgesim.other_ms",
            per(phases.retire_s + phases.restart_s + phases.report_s, n) * ms,
            Unit::Ms,
        ),
        m(
            "edgesim.live_tasks",
            per(l.live_tasks as f64, n),
            Unit::Count,
        ),
        m(
            "faults.broker_failures",
            traced.result.broker_failures as f64,
            Unit::Count,
        ),
        m("workloads.arrivals", l.arrivals as f64, Unit::Count),
        m("trace.probe_s", l.probe_s, Unit::S),
        m(
            "trace.overhead_pct",
            100.0 * (untraced_ips - traced_ips) / untraced_ips,
            Unit::Pct,
        ),
    ]
}
