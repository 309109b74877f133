//! The CAROL resilience model (Algorithm 2) and its §V-D ablations.

use crate::nodeshift::{apply_move, random_shift, Move, Touched};
use crate::policy::{ObserveOutcome, ResiliencePolicy};
use crate::pot::PotDetector;
use crate::tabu::{self, TabuConfig};
use edgesim::state::{
    qos_components, Projection, SystemState, GRAPH_DIM, METRIC_DIM, QOS_ALPHA, QOS_BETA,
};
use edgesim::{HostId, IntervalReport, NodeRole, SimConfig, Simulator, Topology};
use gon::surrogates::{FeedForwardSurrogate, GanSurrogate};
use gon::{
    train_offline, CandidateRows, Generated, GonCheckpoint, GonConfig, GonModel, ParentRecord,
    TrainConfig,
};
use nn::Adam;
use par::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use workloads::trace::{generate_trace, TraceConfig};
use workloads::BenchmarkSuite;

/// When the surrogate gets fine-tuned (the §V-D fine-tuning ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FineTuneMode {
    /// Only when confidence dips below the POT threshold (CAROL proper).
    Confidence,
    /// Every interval ("Always Fine-Tune" ablation).
    Always,
    /// Never ("Never Fine-Tune" ablation).
    Never,
}

/// Which surrogate model drives the QoS prediction (§V-D model ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CarolVariant {
    /// The GON discriminator (CAROL proper).
    Gon,
    /// A traditional GAN ("With GAN" ablation): one-shot generation, no
    /// input-space optimisation, ~6× the memory.
    Gan,
    /// A plain feed-forward QoS regressor ("With Traditional Surrogate"):
    /// no confidence signal, so it must fine-tune every interval.
    TraditionalSurrogate,
}

/// Full CAROL configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CarolConfig {
    /// GON network hyperparameters.
    pub gon: GonConfig,
    /// Tabu-search configuration (list size 100 in the paper).
    pub tabu: TabuConfig,
    /// Fine-tuning trigger.
    pub fine_tune: FineTuneMode,
    /// Surrogate variant.
    pub variant: CarolVariant,
    /// Offline-training configuration for [`Carol::pretrained`].
    pub offline: TrainConfig,
    /// Intervals of DeFog trace generated for offline training.
    pub pretrain_intervals: usize,
    /// Simulator configuration used to generate the pre-training trace.
    pub pretrain_sim: SimConfig,
    /// Worker threads for batched candidate evaluation. `None` uses
    /// [`par::thread_count`] (the `CAROL_THREADS` override); tests pin
    /// explicit counts here instead of mutating the environment.
    pub eval_threads: Option<usize>,
}

impl Default for CarolConfig {
    fn default() -> Self {
        Self {
            gon: GonConfig::default(),
            tabu: TabuConfig::default(),
            fine_tune: FineTuneMode::Confidence,
            variant: CarolVariant::Gon,
            offline: TrainConfig::default(),
            pretrain_intervals: 120,
            pretrain_sim: SimConfig::testbed(0),
            eval_threads: None,
        }
    }
}

impl CarolConfig {
    /// Fast configuration for unit tests: tiny network, short training.
    pub fn fast_test() -> Self {
        Self {
            gon: GonConfig {
                hidden: 12,
                head_layers: 2,
                gat_dim: 6,
                gat_att: 4,
                gen_lr: 5e-3,
                gen_steps: 5,
                seed: 1,
            },
            tabu: TabuConfig {
                list_size: 20,
                max_iters: 2,
                ..Default::default()
            },
            offline: TrainConfig {
                epochs: 3,
                minibatch: 8,
                patience: 3,
                lr: 1e-3,
                ..Default::default()
            },
            pretrain_intervals: 24,
            pretrain_sim: SimConfig::small(8, 2, 0),
            ..Default::default()
        }
    }

    /// Replaces the candidate-evaluation worker count with `engine`'s.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.eval_threads = engine.threads;
        self
    }

    /// The offline-training trace of [`Carol::pretrained`]:
    /// `pretrain_intervals` of DeFog load (λ = 7.2, the topology reshuffled
    /// every 10 intervals) simulated on `pretrain_sim`.
    pub fn pretraining_trace(&self, seed: u64) -> Vec<SystemState> {
        generate_trace(
            &TraceConfig {
                intervals: self.pretrain_intervals,
                topology_period: 10,
                arrival_rate: 7.2,
                suite: BenchmarkSuite::DeFog,
                seed,
            },
            self.pretrain_sim.clone(),
        )
    }
}

/// Calls and wall seconds of one repair stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Times the stage ran.
    #[serde(default)]
    pub calls: u64,
    /// Seconds it took, summed over the calls.
    #[serde(default)]
    pub seconds: f64,
}

impl StageTiming {
    /// Adds one call of `seconds`.
    fn add(&mut self, seconds: f64) {
        self.calls += 1;
        self.seconds += seconds;
    }
}

/// Where [`Carol`]'s repairs spent their time, summed over every repair
/// so far ([`Carol::repair_timings`]). Measurement only: nothing reads it
/// back, and [`Carol::checkpoint`] leaves it out.
///
/// The projection and surrogate stages are timed inside the scoring
/// workers, so with one worker the five stages partition a repair's
/// wall time (less the glue between them); with more, those two sum the
/// workers' time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairTimings {
    /// Algorithm 2 line 7: the random node-shift of each failed broker.
    #[serde(default)]
    pub random_shift: StageTiming,
    /// Building each tabu iteration's candidate moves.
    #[serde(default)]
    pub sampling: StageTiming,
    /// Projecting the snapshot onto the candidates (and each tabu
    /// parent), one call per scored chunk.
    #[serde(default)]
    pub projection: StageTiming,
    /// The surrogate: each parent's record and each chunk's batched
    /// eq.-1 ascent.
    #[serde(default)]
    pub surrogate: StageTiming,
    /// The tabu search's own selection, move and tabu-list updates, one
    /// call per iteration.
    #[serde(default)]
    pub bookkeeping: StageTiming,
}

impl RepairTimings {
    /// Seconds summed over the five stages.
    pub fn total_s(&self) -> f64 {
        [
            self.random_shift,
            self.sampling,
            self.projection,
            self.surrogate,
            self.bookkeeping,
        ]
        .iter()
        .map(|s| s.seconds)
        .sum()
    }
}

/// The CAROL policy (Algorithm 2). Construct with [`Carol::pretrained`]
/// (offline training per §IV-D/E) or [`Carol::from_model`] when a trained
/// GON is already at hand.
pub struct Carol {
    config: CarolConfig,
    gon: GonModel,
    gan: Option<GanSurrogate>,
    ff: Option<FeedForwardSurrogate>,
    pot: PotDetector,
    /// Running dataset Γ of fault-free intervals (Algorithm 2 line 10).
    gamma: Vec<SystemState>,
    adam: Adam,
    rng: StdRng,
    interval: usize,
    /// Confidence score per observed interval (the Fig. 2 series).
    pub confidence_history: Vec<f64>,
    /// POT threshold per observed interval (`None` during calibration).
    pub threshold_history: Vec<Option<f64>>,
    /// Intervals at which fine-tuning fired (the Fig. 2 blue bands).
    pub fine_tune_intervals: Vec<usize>,
    /// Surrogate evaluations issued to tabu search so far.
    pub surrogate_queries: usize,
    /// Objective value (`Ω`, lower is better) of the winning topology in
    /// the most recent [`ResiliencePolicy::repair`] call, if any — lets
    /// harnesses compare repair quality across neighbourhood modes
    /// without re-scoring.
    pub last_repair_score: Option<f64>,
    modeled_decision_s: f64,
    modeled_overhead_s: f64,
    timings: RepairTimings,
}

impl std::fmt::Debug for Carol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Carol(variant={:?}, fine_tune={:?}, tuned {} times)",
            self.config.variant,
            self.config.fine_tune,
            self.fine_tune_intervals.len()
        )
    }
}

impl Carol {
    /// Builds CAROL around an already-trained GON.
    pub fn from_model(gon: GonModel, config: CarolConfig, seed: u64) -> Self {
        let gan =
            matches!(config.variant, CarolVariant::Gan).then(|| GanSurrogate::new(64, seed ^ 0x47));
        let ff = matches!(config.variant, CarolVariant::TraditionalSurrogate)
            .then(|| FeedForwardSurrogate::new(64, seed ^ 0x46));
        Self {
            pot: PotDetector::carol_defaults(),
            gamma: Vec::new(),
            adam: Adam::new(config.offline.lr.max(1e-4), gon::WEIGHT_DECAY),
            rng: StdRng::seed_from_u64(seed),
            interval: 0,
            confidence_history: Vec::new(),
            threshold_history: Vec::new(),
            fine_tune_intervals: Vec::new(),
            surrogate_queries: 0,
            last_repair_score: None,
            modeled_decision_s: 0.0,
            modeled_overhead_s: 0.0,
            timings: RepairTimings::default(),
            gon,
            gan,
            ff,
            config,
        }
    }

    /// Full offline pipeline: generate a DeFog trace (§IV-D), train the
    /// configured surrogate (§IV-E), and return the ready policy.
    pub fn pretrained(config: CarolConfig, seed: u64) -> Self {
        let trace = config.pretraining_trace(seed);
        // The GAN and feed-forward ablations never read the GON, so only
        // the GON variant pays for its offline training.
        let mut gon = GonModel::new(config.gon.clone());
        if matches!(config.variant, CarolVariant::Gon) {
            train_offline(&mut gon, &trace, &config.offline);
        }
        let mut policy = Self::from_model(gon, config, seed);
        // Train the ablation surrogates on the same trace.
        if let Some(gan) = policy.gan.as_mut() {
            for (i, state) in trace.iter().enumerate() {
                gan.train_step(state, seed ^ i as u64);
            }
        }
        if let Some(ff) = policy.ff.as_mut() {
            for state in &trace {
                let (qe, qs) = state.qos_components();
                ff.train_step(state, QOS_ALPHA * qe + QOS_BETA * qs);
            }
        }
        policy
    }

    /// The configuration in use.
    pub fn config(&self) -> &CarolConfig {
        &self.config
    }

    /// Number of fine-tuning events so far.
    pub fn fine_tune_count(&self) -> usize {
        self.fine_tune_intervals.len()
    }

    /// Intervals observed so far.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// The repair stages' calls and seconds so far.
    pub fn repair_timings(&self) -> &RepairTimings {
        &self.timings
    }

    /// Transition cost of installing `candidate` over the current
    /// topology (§III-B: "the overhead corresponding to the node-shift
    /// operations … initialization of the broker management systems and
    /// synchronization of the system topology"). Role changes dominate;
    /// worker re-assignments are cheap IP refreshes (§IV-H).
    fn transition_cost(current: &Topology, candidate: &Topology) -> f64 {
        let mut cost = 0.0;
        for h in 0..current.len() {
            match (current.role(h), candidate.role(h)) {
                (NodeRole::Broker, NodeRole::Worker { .. })
                | (NodeRole::Worker { .. }, NodeRole::Broker) => cost += 0.04,
                (NodeRole::Worker { broker: a }, NodeRole::Worker { broker: b }) if a != b => {
                    cost += 0.004
                }
                _ => {}
            }
        }
        cost
    }

    /// A [`tabu::BatchObjective`] view of this policy's surrogate, scoring
    /// candidates against `base`. This is what the repair path hands to
    /// [`tabu::search`]; extensions like
    /// [`crate::proactive::ProactiveCarol`] use it the same way.
    ///
    /// Building the view prepares `base`'s [`SystemState::projection`]
    /// once for every candidate it will score.
    pub fn batch_objective<'a>(&'a mut self, base: &'a SystemState) -> CarolObjective<'a> {
        CarolObjective {
            carol: self,
            base: base.projection(),
            record: None,
            scorers: Vec::new(),
        }
    }

    /// The worker count of the candidate scorers.
    fn eval_workers(&self) -> usize {
        EngineConfig {
            threads: self.config.eval_threads,
        }
        .worker_count()
    }

    /// Charges scored chunks to the bookkeeping, in candidate order, and
    /// returns each candidate's Ω: its transition cost plus its
    /// predicted QoS objective.
    fn charge(&mut self, chunks: Vec<Scored>) -> Vec<f64> {
        let mut out = Vec::new();
        for chunk in chunks {
            self.timings.projection.add(chunk.projection_s);
            self.timings.surrogate.add(chunk.surrogate_s);
            for (objective, cost, transition) in chunk.candidates {
                self.surrogate_queries += 1;
                self.modeled_decision_s += cost;
                out.push(transition + objective);
            }
        }
        out
    }

    /// Ω(G) of every candidate against the prepared snapshot `base`.
    ///
    /// Candidates are chunked by [`gon::batch_len`] — about 2,048 stacked
    /// host rows per chunk, 16 candidates up to 128 hosts, 2 at 1,024 —
    /// so a chunk's activations stay a small working set the allocator
    /// reuses instead of returning to the kernel and faulting back in.
    /// Each chunk is projected whole and runs as one stacked network
    /// forward (for the GON, one batched eq.-1 ascent,
    /// [`GonModel::generate_batch`]), and the chunks fan out over
    /// [`par::par_map_init`] workers that each clone the model once and
    /// score all their chunks on that replica. Chunk boundaries are a
    /// pure function of the candidate list, results are written to
    /// input-index slots, and the modeled decision-time costs are charged
    /// in candidate order afterwards — so the returned scores *and* every
    /// accumulator on `self` are bit-identical to scoring one candidate at
    /// a time through [`GonModel::generate`], at any thread count. The differential
    /// oracle in `tests/objective_oracle.rs` checks exactly that against
    /// a plain per-candidate reference.
    fn score_candidates(&mut self, base: &Projection<'_>, candidates: &[Topology]) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let threads = self.eval_workers();
        let chunks: Vec<&[Topology]> = candidates
            .chunks(gon::batch_len(base.base().n_hosts()))
            .collect();
        let snapshot = &base.base().topology;
        let probes = |chunk: &[Topology]| -> (Vec<SystemState>, f64) {
            timed(|| chunk.iter().map(|t| base.with_topology(t)).collect())
        };
        // A chunk's (objective, modeled cost) pairs with its transition
        // costs and timings.
        let scored = |chunk: &[Topology], qos: Vec<(f64, f64)>, projection_s, surrogate_s| {
            let transitions = chunk.iter().map(|t| Self::transition_cost(snapshot, t));
            Scored {
                candidates: qos
                    .into_iter()
                    .zip(transitions)
                    .map(|((q, cost), t)| (q, cost, t))
                    .collect(),
                projection_s,
                surrogate_s,
            }
        };

        // Per-candidate objective-without-transition and modeled decision
        // cost, computed in parallel; bookkeeping is replayed in
        // candidate order by `charge`, so the f64 accumulation order does
        // not depend on the worker count. Testbed-equivalent cost per
        // query (see `ResiliencePolicy::modeled_decision_s`): the GON
        // pays per ascent iteration (γ and model depth control how
        // many/much — the Fig. 6a/6b scheduling-time effects); the
        // one-shot GAN and the feed-forward surrogate pay a flat
        // inference cost.
        let scored: Vec<Scored> = match self.config.variant {
            CarolVariant::Gon => {
                let depth_factor = self.config.gon.head_layers.max(1) as f64 / 3.0;
                let gon = &self.gon;
                par::par_map_init(
                    threads,
                    &chunks,
                    || gon.clone(),
                    |model, chunk| {
                        let (states, projected) = probes(chunk);
                        let (generated, generated_s) = timed(|| model.generate_batch(&states));
                        let qos = gon_qos(&generated, depth_factor);
                        scored(chunk, qos, projected, generated_s)
                    },
                )
            }
            CarolVariant::Gan => {
                let gan = self.gan.as_ref().expect("GAN variant carries a GAN");
                par::par_map_init(
                    threads,
                    &chunks,
                    || gan.clone(),
                    |model, chunk| {
                        let (states, projected) = probes(chunk);
                        let (qos, predicted) = timed(|| model.predict_qos_batch(&states, 17));
                        let qos = qos.into_iter().map(|q| (q, 0.00045)).collect();
                        scored(chunk, qos, projected, predicted)
                    },
                )
            }
            CarolVariant::TraditionalSurrogate => {
                let ff = self.ff.as_ref().expect("FF variant carries a regressor");
                par::par_map_init(
                    threads,
                    &chunks,
                    || ff.clone(),
                    |model, chunk| {
                        let (states, projected) = probes(chunk);
                        let (qos, predicted) = timed(|| model.predict_qos_batch(&states));
                        let qos = qos.into_iter().map(|q| (q, 0.0002)).collect();
                        scored(chunk, qos, projected, predicted)
                    },
                )
            }
        };
        self.charge(scored)
    }

    /// [`Carol::score_candidates`] of the topologies `moves` lead to from
    /// `parent`, for the GON variant, without building them: each of
    /// `scorers` (one per worker, kept across calls) holds a scratch copy
    /// of `parent` and the reused buffers of a chunk, applies each move
    /// to the scratch in place, projects only the rows the move touches
    /// ([`Move::touches`]) into its chunk's [`CandidateRows`], and undoes
    /// it; [`GonModel::generate_listed`] then scores the chunk against
    /// `parent`'s [`ParentRecord`], kept in `record` and recorded anew
    /// (every scorer resynced with it) only when the parent changes.
    /// Chunks, worker fan-out and bookkeeping are `score_candidates`', so
    /// the scores and accumulators are the same bits.
    fn score_moves(
        &mut self,
        base: &Projection<'_>,
        parent: &Topology,
        record: &mut Option<ParentRecord>,
        scorers: &mut Vec<MoveScorer>,
        moves: &[Move],
    ) -> Vec<f64> {
        if moves.is_empty() {
            return Vec::new();
        }
        let chunks: Vec<&[Move]> = moves.chunks(gon::batch_len(parent.len())).collect();
        let workers = self.eval_workers().min(chunks.len());
        let record = match record {
            Some(kept) if kept.topology() == parent => kept,
            _ => {
                let (state, projected) = timed(|| base.with_topology(parent));
                let (recorded, recorded_s) = timed(|| self.gon.record_parent(&state));
                let ((), synced) = timed(|| scorers.iter_mut().for_each(|s| s.sync(base, parent)));
                self.timings.projection.add(projected + synced);
                self.timings.surrogate.add(recorded_s);
                record.insert(recorded)
            }
        };
        while scorers.len() < workers {
            scorers.push(MoveScorer::new(&self.gon, base, parent));
        }
        let depth_factor = self.config.gon.head_layers.max(1) as f64 / 3.0;
        let scored = par::par_map_states(&mut scorers[..workers], &chunks, |scorer, chunk| {
            scorer.score(base, record, chunk, depth_factor)
        });
        self.charge(scored)
    }

    /// Freezes the full controller state — config, GON weights (via
    /// [`GonCheckpoint`]), POT detector, running dataset Γ, optimizer,
    /// RNG stream position, histories, and modeled-cost accumulators —
    /// so [`Carol::restore`] continues the run bit-identically (gated in
    /// `tests/determinism.rs`). Only the GON variant checkpoints; the
    /// GAN / feed-forward ablation surrogates have no serialized form.
    pub fn checkpoint(&mut self) -> Result<CarolCheckpoint, CarolCheckpointError> {
        if !matches!(self.config.variant, CarolVariant::Gon) {
            return Err(CarolCheckpointError::UnsupportedVariant(
                self.config.variant,
            ));
        }
        Ok(CarolCheckpoint {
            config: self.config.clone(),
            gon: GonCheckpoint::capture(&mut self.gon),
            pot: self.pot.clone(),
            gamma: self.gamma.clone(),
            adam: self.adam.clone(),
            rng_state: self.rng.state(),
            interval: self.interval,
            confidence_history: self.confidence_history.clone(),
            threshold_history: self.threshold_history.clone(),
            fine_tune_intervals: self.fine_tune_intervals.clone(),
            surrogate_queries: self.surrogate_queries,
            modeled_decision_s: self.modeled_decision_s,
            modeled_overhead_s: self.modeled_overhead_s,
        })
    }

    /// Rebuilds the controller a [`Carol::checkpoint`] froze.
    /// `restore(checkpoint())` followed by any observe/repair sequence is
    /// bit-identical to running that sequence on the original.
    pub fn restore(ckpt: &CarolCheckpoint) -> Result<Self, CarolCheckpointError> {
        if !matches!(ckpt.config.variant, CarolVariant::Gon) {
            return Err(CarolCheckpointError::UnsupportedVariant(
                ckpt.config.variant,
            ));
        }
        let gon = ckpt.gon.restore().map_err(CarolCheckpointError::Gon)?;
        Ok(Self {
            config: ckpt.config.clone(),
            gon,
            gan: None,
            ff: None,
            pot: ckpt.pot.clone(),
            gamma: ckpt.gamma.clone(),
            adam: ckpt.adam.clone(),
            rng: StdRng::from_state(ckpt.rng_state),
            interval: ckpt.interval,
            confidence_history: ckpt.confidence_history.clone(),
            threshold_history: ckpt.threshold_history.clone(),
            fine_tune_intervals: ckpt.fine_tune_intervals.clone(),
            surrogate_queries: ckpt.surrogate_queries,
            last_repair_score: None,
            modeled_decision_s: ckpt.modeled_decision_s,
            modeled_overhead_s: ckpt.modeled_overhead_s,
            timings: RepairTimings::default(),
        })
    }

    /// Confidence score of the current state under the surrogate.
    fn confidence(&mut self, snapshot: &SystemState) -> f64 {
        match self.config.variant {
            CarolVariant::Gon => {
                let c = self.gon.score(snapshot);
                self.gon.zero_grad();
                c
            }
            CarolVariant::Gan => self.gan.as_mut().expect("GAN present").score(snapshot),
            // A plain regressor has no likelihood output — the defining
            // deficiency of the "traditional surrogate" ablation.
            CarolVariant::TraditionalSurrogate => 1.0,
        }
    }
}

/// `f`'s result and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// One scored chunk: each candidate's (predicted QoS objective, modeled
/// decision cost, transition cost), and the seconds the chunk's
/// projection and surrogate took.
struct Scored {
    candidates: Vec<(f64, f64, f64)>,
    projection_s: f64,
    surrogate_s: f64,
}

/// Each GON generation's QoS objective `α·q_energy + β·q_slo` of its
/// converged metrics, with its modeled decision cost: 0.08 ms per ascent
/// iteration at the reference depth of 3 layers; deeper models pay
/// proportionally more per pass (the Fig. 6b scheduling-time growth).
fn gon_qos(generated: &[Generated], depth_factor: f64) -> Vec<(f64, f64)> {
    let qos = |gen: &Generated| {
        let (qe, qs) = qos_components(&gen.metrics_flat);
        let cost = 8.0e-5 * depth_factor * gen.iterations as f64;
        (QOS_ALPHA * qe + QOS_BETA * qs, cost)
    };
    generated.iter().map(qos).collect()
}

/// One scoring worker of [`Carol::score_moves`]: a GON replica, a
/// scratch copy of the kept record's tabu parent that each move is
/// applied to in place and undone, and the buffers of one chunk, all
/// kept across chunks and calls.
struct MoveScorer {
    gon: GonModel,
    /// The parent, between moves.
    topology: Topology,
    /// The parent's per-LEI task pressure; while a move is applied, the
    /// LEIs it changes hold theirs.
    pressure: Vec<f64>,
    /// The changed LEIs' parent pressure, to restore.
    saved: Vec<f64>,
    undo: Vec<HostId>,
    touched: Touched,
    metrics: Vec<[f64; METRIC_DIM]>,
    features: Vec<[f64; GRAPH_DIM]>,
    rows: CandidateRows,
    transitions: Vec<f64>,
}

impl MoveScorer {
    /// A scorer of moves from `parent`, projected from `base`.
    fn new(gon: &GonModel, base: &Projection<'_>, parent: &Topology) -> Self {
        let mut pressure = Vec::new();
        base.pressure_into(parent, &mut pressure);
        Self {
            gon: gon.clone(),
            topology: parent.clone(),
            pressure,
            saved: Vec::new(),
            undo: Vec::new(),
            touched: Touched::default(),
            metrics: Vec::new(),
            features: Vec::new(),
            rows: CandidateRows::default(),
            transitions: Vec::new(),
        }
    }

    /// Makes `parent` the topology the scorer's moves start from.
    fn sync(&mut self, base: &Projection<'_>, parent: &Topology) {
        self.topology.clone_from(parent);
        base.pressure_into(parent, &mut self.pressure);
    }

    /// Scores `moves` from the topology of `record`, which the scorer is
    /// synced with (see [`Carol::score_moves`]).
    fn score(
        &mut self,
        base: &Projection<'_>,
        record: &ParentRecord,
        moves: &[Move],
        depth_factor: f64,
    ) -> Scored {
        let projecting = Instant::now();
        let snapshot = base.base();
        self.rows.clear();
        self.transitions.clear();
        for &mv in moves {
            let t = &mut self.topology;
            mv.touches(t, &mut self.touched);
            mv.apply(t, &mut self.undo).expect("a scored move applies");
            self.saved.clear();
            for &b in &self.touched.leis {
                self.saved.push(self.pressure[b]);
                self.pressure[b] = base.lei_pressure(t, b);
            }
            let hosts = &self.touched.metric_rows;
            self.metrics.clear();
            self.features.clear();
            let (metrics, features) = (&mut self.metrics, &mut self.features);
            base.rows_into(t, &self.pressure, hosts.iter().copied(), metrics, features);
            self.rows.push_candidate();
            for (k, &h) in hosts.iter().enumerate() {
                self.rows.push_row(h, &metrics[k], &snapshot.schedule[h]);
            }
            for &h in &self.touched.gat_rows {
                let k = hosts.binary_search(&h).expect("GAT hosts are projected");
                self.rows.push_graph(h, &features[k], t.gat_row(h));
            }
            self.transitions
                .push(Carol::transition_cost(&snapshot.topology, t));
            mv.undo(t, &self.undo);
            for (&b, &p) in self.touched.leis.iter().zip(&self.saved).rev() {
                self.pressure[b] = p;
            }
        }
        let projection_s = projecting.elapsed().as_secs_f64();
        let (generated, surrogate_s) = timed(|| self.gon.generate_listed(record, &self.rows));
        let qos = gon_qos(&generated, depth_factor);
        Scored {
            candidates: qos
                .into_iter()
                .zip(&self.transitions)
                .map(|((q, cost), &t)| (q, cost, t))
                .collect(),
            projection_s,
            surrogate_s,
        }
    }
}

/// Everything [`Carol::checkpoint`] freezes: restore with
/// [`Carol::restore`] and the controller continues the run as if never
/// interrupted. The vendored serde round-trips every `f64` bit-exactly,
/// so the JSON form is a faithful wire format for daemon restarts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CarolCheckpoint {
    /// Full configuration the controller ran with.
    pub config: CarolConfig,
    /// GON weights, gradients, and optimizer moment buffers.
    pub gon: GonCheckpoint,
    /// POT threshold detector state (calibration window + exceedances).
    pub pot: PotDetector,
    /// Running dataset Γ accumulated since the last fine-tune.
    pub gamma: Vec<SystemState>,
    /// Adam optimizer scalars (learning rate, decay, step count).
    pub adam: Adam,
    /// xoshiro256** state of the node-shift RNG stream.
    pub rng_state: [u64; 4],
    /// Intervals observed so far.
    pub interval: usize,
    /// Confidence score per observed interval.
    pub confidence_history: Vec<f64>,
    /// POT threshold per observed interval.
    pub threshold_history: Vec<Option<f64>>,
    /// Intervals at which fine-tuning fired.
    pub fine_tune_intervals: Vec<usize>,
    /// Surrogate evaluations issued so far.
    pub surrogate_queries: usize,
    /// Modeled decision-time accumulator.
    pub modeled_decision_s: f64,
    /// Modeled fine-tune-overhead accumulator.
    pub modeled_overhead_s: f64,
}

impl CarolCheckpoint {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("CarolCheckpoint serialization cannot fail")
    }

    /// Deserializes from JSON produced by [`CarolCheckpoint::to_json`].
    pub fn from_json(text: &str) -> Result<Self, CarolCheckpointError> {
        serde_json::from_str(text).map_err(|e| CarolCheckpointError::Json(e.to_string()))
    }
}

/// Why a controller checkpoint could not be captured or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CarolCheckpointError {
    /// Only the GON variant has a serialized surrogate form.
    UnsupportedVariant(CarolVariant),
    /// The embedded GON checkpoint was inconsistent.
    Gon(gon::CheckpointError),
    /// JSON (de)serialization failed.
    Json(String),
}

impl std::fmt::Display for CarolCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVariant(v) => {
                write!(f, "variant {v:?} has no checkpoint form (GON only)")
            }
            Self::Gon(e) => write!(f, "GON checkpoint: {e}"),
            Self::Json(msg) => write!(f, "checkpoint JSON error: {msg}"),
        }
    }
}

impl std::error::Error for CarolCheckpointError {}

/// Borrowed view of a [`Carol`] as a batched tabu objective: candidates
/// are scored against one snapshot, prepared once by
/// [`Carol::batch_objective`]; the GON variant scores moves as deltas
/// against their tabu parent.
pub struct CarolObjective<'a> {
    carol: &'a mut Carol,
    base: Projection<'a>,
    /// The last moves' parent's record (GON variant): [`tabu::search`]
    /// scores each iteration's moves from one parent.
    record: Option<ParentRecord>,
    /// The GON variant's move scorers, one per worker, kept across calls.
    scorers: Vec<MoveScorer>,
}

impl tabu::BatchObjective for CarolObjective<'_> {
    /// Scores whole candidate topologies, each projected from the
    /// snapshot and run through the surrogate's plain batched forward.
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        self.carol.score_candidates(&self.base, candidates)
    }

    /// The GON variant scores the moves without building their
    /// topologies: per-worker scorers apply each move to a scratch copy
    /// of `parent`, project only the rows it touches and undo it. The
    /// ablation surrogates score the applied moves.
    fn score_moves(&mut self, parent: &Topology, moves: &[Move]) -> Vec<f64> {
        let (base, record) = (&self.base, &mut self.record);
        if matches!(self.carol.config.variant, CarolVariant::Gon) {
            return self
                .carol
                .score_moves(base, parent, record, &mut self.scorers, moves);
        }
        let apply = |&mv: &Move| apply_move(parent, mv).expect("a scored move applies");
        let candidates: Vec<Topology> = moves.iter().map(apply).collect();
        self.carol.score_candidates(base, &candidates)
    }
}

impl ResiliencePolicy for Carol {
    fn name(&self) -> &str {
        match (self.config.variant, self.config.fine_tune) {
            (CarolVariant::Gon, FineTuneMode::Confidence) => "CAROL",
            (CarolVariant::Gon, FineTuneMode::Always) => "CAROL-AlwaysFineTune",
            (CarolVariant::Gon, FineTuneMode::Never) => "CAROL-NeverFineTune",
            (CarolVariant::Gan, _) => "CAROL-WithGAN",
            (CarolVariant::TraditionalSurrogate, _) => "CAROL-WithTraditionalSurrogate",
        }
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let failed: Vec<HostId> = sim.failed_brokers().to_vec();
        if failed.is_empty() {
            return None;
        }
        // Hosts unresponsive last interval must not become brokers now.
        let banned: Vec<HostId> = sim
            .host_states()
            .iter()
            .enumerate()
            .filter_map(|(h, st)| st.failed.then_some(h))
            .collect();

        let mut topo = sim.topology().clone();
        for &b in &failed {
            if !matches!(topo.role(b), NodeRole::Broker) {
                continue; // already handled while repairing a peer
            }
            // Algorithm 2 line 7: random node-shift seeds the search …
            let (shifted, shift_s) = timed(|| random_shift(&topo, b, &banned, &mut self.rng));
            self.timings.random_shift.add(shift_s);
            // … line 8: tabu search over Ω(G; D, S, O), each iteration
            // scoring the whole neighbourhood through the batched
            // surrogate engine.
            let tabu_cfg = self.config.tabu.clone();
            let result = tabu::search(shifted, &banned, &tabu_cfg, self.batch_objective(snapshot));
            for (stage, seconds) in [
                (&mut self.timings.sampling, result.sampling_s),
                (&mut self.timings.bookkeeping, result.bookkeeping_s),
            ] {
                stage.calls += result.iterations as u64;
                stage.seconds += seconds;
            }
            self.last_repair_score = Some(result.best_score);
            topo = result.best;
        }
        Some(topo)
    }

    fn observe(
        &mut self,
        _sim: &Simulator,
        snapshot: &SystemState,
        report: &IntervalReport,
    ) -> ObserveOutcome {
        let t = self.interval;
        self.interval += 1;

        // Line 10: fault-free intervals feed the running dataset Γ.
        if report.failed_brokers.is_empty() {
            self.gamma.push(snapshot.clone());
        }

        // Lines 11–12: confidence score and POT threshold.
        let confidence = self.confidence(snapshot);
        let alarm = self.pot.observe(confidence);
        self.confidence_history.push(confidence);
        self.threshold_history.push(self.pot.threshold());

        // Line 13: the trigger, per the configured ablation.
        let should_tune = match self.config.fine_tune {
            FineTuneMode::Confidence => {
                matches!(self.config.variant, CarolVariant::TraditionalSurrogate) || alarm
            }
            FineTuneMode::Always => true,
            FineTuneMode::Never => false,
        };
        if !should_tune {
            return ObserveOutcome { fine_tuned: false };
        }

        // Lines 14–16: fine-tune on Γ, then clear it.
        match self.config.variant {
            CarolVariant::Gon => {
                if self.gamma.is_empty() {
                    return ObserveOutcome { fine_tuned: false };
                }
                gon::training::fine_tune(
                    &mut self.gon,
                    &self.gamma,
                    &mut self.adam,
                    &self.config.offline,
                    t as u64,
                );
            }
            CarolVariant::Gan => {
                if self.gamma.is_empty() {
                    return ObserveOutcome { fine_tuned: false };
                }
                let gan = self.gan.as_mut().expect("GAN present");
                for (i, state) in self.gamma.iter().enumerate() {
                    gan.train_step(state, (t + i) as u64);
                }
            }
            CarolVariant::TraditionalSurrogate => {
                // Regression toward the *observed* objective each interval.
                let (qe, qs) = snapshot.qos_components();
                let target = QOS_ALPHA * qe + QOS_BETA * qs;
                self.ff
                    .as_mut()
                    .expect("FF present")
                    .train_step(snapshot, target);
            }
        }
        // Testbed-equivalent fine-tuning cost: a fixed optimiser set-up
        // plus a per-sample gradient cost over Γ, on the basis of
        // `ResiliencePolicy::modeled_decision_s`.
        self.modeled_overhead_s += match self.config.variant {
            CarolVariant::Gon => 0.5 + 0.45 * self.gamma.len().max(1) as f64,
            CarolVariant::Gan => 0.4 + 0.30 * self.gamma.len().max(1) as f64,
            CarolVariant::TraditionalSurrogate => 1.7,
        };
        self.gamma.clear();
        self.fine_tune_intervals.push(t);
        ObserveOutcome { fine_tuned: true }
    }

    fn modeled_decision_s(&self) -> f64 {
        self.modeled_decision_s
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.modeled_overhead_s
    }

    fn memory_gb(&self) -> f64 {
        match self.config.variant {
            CarolVariant::Gon => self.config.gon.nominal_memory_gb(),
            // Carrying a generator blows the footprint up ~6× (§V-D: 5% →
            // 30% memory consumption).
            CarolVariant::Gan => 6.0 * self.config.gon.nominal_memory_gb(),
            CarolVariant::TraditionalSurrogate => 0.5 * self.config.gon.nominal_memory_gb(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabu::BatchObjective;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::state::Normalizer;
    use edgesim::FaultLoad;

    fn capture(sim: &Simulator, decision: &edgesim::SchedulingDecision) -> SystemState {
        SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            decision,
            &Normalizer::default(),
        )
    }

    #[test]
    fn pretrained_carol_repairs_a_broker_failure() {
        let mut policy = Carol::pretrained(CarolConfig::fast_test(), 1);
        let mut sim = Simulator::new(SimConfig::small(8, 2, 1));
        let mut sched = LeastLoadScheduler::new();
        sim.inject_fault(
            0,
            FaultLoad {
                cpu: 1.0,
                ..Default::default()
            },
        );
        let report = sim.step(Vec::new(), &mut sched);
        assert!(report.failed_brokers.contains(&0));
        let snapshot = capture(&sim, &report.decision);

        let repaired = policy
            .repair(&sim, &snapshot)
            .expect("failure must produce a repair");
        repaired.validate().unwrap();
        assert!(
            matches!(repaired.role(0), NodeRole::Worker { .. }),
            "failed broker must be demoted: {repaired:?}"
        );
        assert!(
            policy.surrogate_queries > 0,
            "tabu must query the surrogate"
        );
    }

    /// A storm-shaped repair (a sampled neighbourhood, a felled broker of
    /// a many-broker federation, one scoring worker) times every stage,
    /// and the stages fit inside the repair's wall time.
    #[test]
    fn repair_timings_cover_every_stage_within_the_repair_wall() {
        let mut config = CarolConfig::fast_test();
        config.eval_threads = Some(1);
        config.tabu.neighborhood = crate::tabu::Neighborhood::Sampled {
            max_moves: 6,
            seed: 2,
        };
        let mut policy = Carol::from_model(GonModel::new(config.gon.clone()), config, 7);
        let mut sim = Simulator::new(SimConfig::small(48, 8, 7));
        let broker = sim.topology().brokers()[3];
        sim.inject_fault(
            broker,
            FaultLoad {
                cpu: 1.0,
                ..Default::default()
            },
        );
        let report = sim.step(Vec::new(), &mut LeastLoadScheduler::new());
        assert!(report.failed_brokers.contains(&broker));
        let snapshot = capture(&sim, &report.decision);
        let started = Instant::now();
        policy
            .repair(&sim, &snapshot)
            .expect("a failed broker is repaired");
        let wall = started.elapsed().as_secs_f64();
        let t = *policy.repair_timings();
        for (name, stage) in [
            ("random_shift", t.random_shift),
            ("sampling", t.sampling),
            ("projection", t.projection),
            ("surrogate", t.surrogate),
            ("bookkeeping", t.bookkeeping),
        ] {
            assert!(stage.calls > 0, "{name} has no calls: {t:?}");
        }
        assert!(
            t.total_s() <= wall,
            "stages {} s > repair {wall} s",
            t.total_s()
        );
    }

    #[test]
    fn no_failure_means_no_repair() {
        let mut policy = Carol::pretrained(CarolConfig::fast_test(), 2);
        let mut sim = Simulator::new(SimConfig::small(8, 2, 2));
        let mut sched = LeastLoadScheduler::new();
        let report = sim.step(Vec::new(), &mut sched);
        let snapshot = capture(&sim, &report.decision);
        assert!(policy.repair(&sim, &snapshot).is_none());
    }

    #[test]
    fn confidence_mode_tunes_rarely_always_mode_every_interval() {
        let mut conf = Carol::pretrained(CarolConfig::fast_test(), 3);
        let mut always = Carol::pretrained(
            CarolConfig {
                fine_tune: FineTuneMode::Always,
                ..CarolConfig::fast_test()
            },
            3,
        );
        let mut never = Carol::pretrained(
            CarolConfig {
                fine_tune: FineTuneMode::Never,
                ..CarolConfig::fast_test()
            },
            3,
        );
        let mut sim = Simulator::new(SimConfig::small(8, 2, 3));
        let mut sched = LeastLoadScheduler::new();
        let intervals = 12;
        for _ in 0..intervals {
            let report = sim.step(Vec::new(), &mut sched);
            let snapshot = capture(&sim, &report.decision);
            conf.observe(&sim, &snapshot, &report);
            always.observe(&sim, &snapshot, &report);
            never.observe(&sim, &snapshot, &report);
        }
        assert_eq!(never.fine_tune_count(), 0);
        assert!(
            always.fine_tune_count() >= intervals - 2,
            "always should tune ~every interval (needs Γ)"
        );
        assert!(conf.fine_tune_count() <= always.fine_tune_count());
        assert_eq!(conf.confidence_history.len(), intervals);
        assert_eq!(conf.threshold_history.len(), intervals);
    }

    /// The batched objective — at any thread count — must agree
    /// bit-for-bit with scoring one candidate per call, on scores *and*
    /// on the policy's bookkeeping accumulators, for every surrogate
    /// variant. A batch of N must not leak anything across candidates.
    #[test]
    fn objective_batch_matches_one_call_per_candidate_for_every_variant() {
        for variant in [
            CarolVariant::Gon,
            CarolVariant::Gan,
            CarolVariant::TraditionalSurrogate,
        ] {
            let mk = |threads: usize| {
                Carol::pretrained(
                    CarolConfig {
                        variant,
                        eval_threads: Some(threads),
                        ..CarolConfig::fast_test()
                    },
                    9,
                )
            };
            let mut one_by_one = mk(1);
            let mut batched_1 = mk(1);
            let mut batched_4 = mk(4);

            let mut sim = Simulator::new(SimConfig::small(12, 3, 9));
            let mut sched = LeastLoadScheduler::new();
            let report = sim.step(Vec::new(), &mut sched);
            let base = capture(&sim, &report.decision);
            let candidates = crate::nodeshift::mutations(sim.topology(), &[]);
            assert!(candidates.len() > 4, "need a real neighbourhood");

            let want: Vec<f64> = candidates
                .iter()
                .map(|t| {
                    one_by_one
                        .batch_objective(&base)
                        .score_batch(std::slice::from_ref(t))[0]
                })
                .collect();
            for (label, policy) in [("1 thread", &mut batched_1), ("4 threads", &mut batched_4)] {
                let got = policy.batch_objective(&base).score_batch(&candidates);
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{variant:?}/{label}: candidate {i} diverged ({a} vs {b})"
                    );
                }
                assert_eq!(policy.surrogate_queries, one_by_one.surrogate_queries);
                assert_eq!(
                    policy.modeled_decision_s.to_bits(),
                    one_by_one.modeled_decision_s.to_bits(),
                    "{variant:?}/{label}: modeled decision time diverged"
                );
            }
        }
    }

    /// Scoring moves equals scoring the topologies they lead to: for
    /// parents at the snapshot's topology, a move away, two moves away
    /// and unrelated to it, each scored first alone (as `tabu::search`
    /// scores its start), `score_moves` on one objective that keeps its
    /// last parent's record (repeated and changing parents) and on fresh
    /// ones equals `score_batch` of the applied moves, scores and
    /// bookkeeping alike, on one worker and on three. The snapshot
    /// carries tasks, so every LEI's task pressure enters the rows.
    #[test]
    fn score_moves_is_bit_identical_to_score_batch_for_any_parent() {
        for (n_hosts, n_brokers) in [(16, 4), (1024, 171)] {
            let mut sim = Simulator::new(SimConfig::small(n_hosts, n_brokers, 3));
            let rate = n_hosts as f64 / 2.0;
            let tasks =
                workloads::BagOfTasks::new(BenchmarkSuite::AIoTBench, rate, 3).sample_interval(0);
            assert!(!tasks.is_empty());
            let report = sim.step(tasks, &mut LeastLoadScheduler::new());
            let base = capture(&sim, &report.decision);
            let mut rng = StdRng::seed_from_u64(4);
            let snapshot = sim.topology().clone();
            let near = crate::nodeshift::mutations_sampled(&snapshot, &[], 2, &mut rng);
            let further = crate::nodeshift::mutations_sampled(&near[0], &[], 1, &mut rng);
            let unrelated = Topology::balanced(n_hosts, n_brokers / 2 + 1).unwrap();
            let parents = [
                ("snapshot", &snapshot),
                ("a move away", &near[0]),
                ("a move away again", &near[0]),
                ("another move away", &near[1]),
                ("two moves away", &further[0]),
                ("unrelated", &unrelated),
                ("snapshot again", &snapshot),
            ];
            let moves: Vec<Vec<Move>> = parents
                .iter()
                .map(|(_, p)| crate::nodeshift::sample_moves(p, &[], 5, &mut rng))
                .collect();
            for threads in [1, 3] {
                let mut config = CarolConfig::fast_test();
                config.eval_threads = Some(threads);
                let gon = GonModel::new(config.gon.clone());
                let policy = || Carol::from_model(gon.clone(), config.clone(), 3);
                let (mut want, mut kept, mut fresh) = (policy(), policy(), policy());
                let mut objective = kept.batch_objective(&base);
                for ((label, parent), moves) in parents.iter().zip(&moves) {
                    let lone = std::slice::from_ref(*parent);
                    let applied: Vec<Topology> = moves
                        .iter()
                        .map(|&m| apply_move(parent, m).unwrap())
                        .collect();
                    let mut want = want.batch_objective(&base);
                    let want = [want.score_batch(lone), want.score_batch(&applied)].concat();
                    let mut fresh = fresh.batch_objective(&base);
                    let got = [
                        [
                            objective.score_batch(lone),
                            objective.score_moves(parent, moves),
                        ]
                        .concat(),
                        [fresh.score_batch(lone), fresh.score_moves(parent, moves)].concat(),
                    ];
                    for got in got {
                        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{n_hosts} hosts, {threads} workers, {label} parent: score {i}"
                            );
                        }
                    }
                }
                drop(objective);
                for policy in [&kept, &fresh] {
                    assert_eq!(policy.surrogate_queries, want.surrogate_queries);
                    assert_eq!(
                        policy.modeled_decision_s.to_bits(),
                        want.modeled_decision_s.to_bits()
                    );
                }
            }
        }
    }

    /// A policy whose GON was pretrained (and is fine-tuned) on four
    /// training workers behaves bit-identically to one trained on a
    /// single worker.
    #[test]
    fn training_worker_count_builds_bit_identical_policies() {
        let mk = |threads: usize| {
            let mut config = CarolConfig::fast_test();
            config.offline.train_threads = Some(threads);
            Carol::pretrained(config, 8)
        };
        let run = |mut policy: Carol| {
            let mut sim = Simulator::new(SimConfig::small(8, 2, 8));
            let mut sched = LeastLoadScheduler::new();
            for _ in 0..10 {
                let report = sim.step(Vec::new(), &mut sched);
                let snapshot = capture(&sim, &report.decision);
                policy.observe(&sim, &snapshot, &report);
            }
            policy
        };
        let one = run(mk(1));
        let four = run(mk(4));
        assert_eq!(
            four.fine_tune_intervals, one.fine_tune_intervals,
            "fine-tune triggers diverged"
        );
        for (i, (a, b)) in one
            .confidence_history
            .iter()
            .zip(&four.confidence_history)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "confidence at interval {i} diverged"
            );
        }
    }

    #[test]
    fn variant_names_are_distinct() {
        let mk = |variant, fine_tune| {
            Carol::pretrained(
                CarolConfig {
                    variant,
                    fine_tune,
                    ..CarolConfig::fast_test()
                },
                4,
            )
            .name()
            .to_string()
        };
        let names = [
            mk(CarolVariant::Gon, FineTuneMode::Confidence),
            mk(CarolVariant::Gon, FineTuneMode::Always),
            mk(CarolVariant::Gon, FineTuneMode::Never),
            mk(CarolVariant::Gan, FineTuneMode::Confidence),
            mk(CarolVariant::TraditionalSurrogate, FineTuneMode::Confidence),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn gan_variant_has_bigger_memory_ff_smaller() {
        let gon = Carol::pretrained(CarolConfig::fast_test(), 5);
        let gan = Carol::pretrained(
            CarolConfig {
                variant: CarolVariant::Gan,
                ..CarolConfig::fast_test()
            },
            5,
        );
        let ff = Carol::pretrained(
            CarolConfig {
                variant: CarolVariant::TraditionalSurrogate,
                ..CarolConfig::fast_test()
            },
            5,
        );
        assert!(gan.memory_gb() > gon.memory_gb());
        assert!(ff.memory_gb() < gon.memory_gb());
    }

    #[test]
    fn traditional_surrogate_tunes_every_interval_despite_confidence_mode() {
        let mut ff = Carol::pretrained(
            CarolConfig {
                variant: CarolVariant::TraditionalSurrogate,
                fine_tune: FineTuneMode::Confidence,
                ..CarolConfig::fast_test()
            },
            6,
        );
        let mut sim = Simulator::new(SimConfig::small(8, 2, 6));
        let mut sched = LeastLoadScheduler::new();
        for _ in 0..8 {
            let report = sim.step(Vec::new(), &mut sched);
            let snapshot = capture(&sim, &report.decision);
            let out = ff.observe(&sim, &snapshot, &report);
            assert!(out.fine_tuned, "no confidence signal ⇒ tune every interval");
        }
        assert_eq!(ff.fine_tune_count(), 8);
    }
}
