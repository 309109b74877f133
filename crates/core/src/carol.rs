//! The CAROL resilience model (Algorithm 2) and its §V-D ablations.

use crate::nodeshift::random_shift;
use crate::policy::{ObserveOutcome, ResiliencePolicy};
use crate::pot::PotDetector;
use crate::tabu::{self, TabuConfig};
use edgesim::state::{qos_components, Projection, SystemState, QOS_ALPHA, QOS_BETA};
use edgesim::{HostId, IntervalReport, NodeRole, SimConfig, Simulator, Topology};
use gon::surrogates::{FeedForwardSurrogate, GanSurrogate};
use gon::{train_offline, GonCheckpoint, GonConfig, GonModel, ParentRecord, TrainConfig};
use nn::Adam;
use par::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
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
        let gan = matches!(config.variant, CarolVariant::Gan)
            .then(|| GanSurrogate::new(64, config.pretrain_sim.specs.len(), seed ^ 0x47));
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
            gon,
            gan,
            ff,
            config,
        }
    }

    /// Full offline pipeline: generate a DeFog trace (§IV-D), train the
    /// configured surrogate (§IV-E), and return the ready policy.
    pub fn pretrained(config: CarolConfig, seed: u64) -> Self {
        let trace = generate_trace(
            &TraceConfig {
                intervals: config.pretrain_intervals,
                topology_period: 10,
                arrival_rate: 7.2,
                suite: BenchmarkSuite::DeFog,
                seed,
            },
            config.pretrain_sim.clone(),
        );
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
        }
    }

    /// Ω(G) of every candidate against the prepared snapshot `base` —
    /// the engine behind every tabu iteration. `parent` is the topology
    /// the candidates are moves from; any topology over the same hosts
    /// gives the same bits, but one close to the candidates leaves the
    /// GON little to recompute.
    ///
    /// Candidates are chunked by [`gon::batch_len`] — about 2,048 stacked
    /// host rows per chunk, 16 candidates up to 128 hosts, 2 at 1,024 —
    /// so a chunk's activations stay a small working set the allocator
    /// reuses instead of returning to the kernel and faulting back in.
    /// Each chunk runs as one stacked network forward (for the GON, one
    /// batched eq.-1 ascent whose graph branch and first encoder step are
    /// deltas against the parent's [`ParentRecord`], kept in `record`
    /// and recorded anew only when the parent changes), and the chunks
    /// fan out over [`par::par_map_init`]
    /// workers that each clone the model once and score all their chunks
    /// on that replica; every worker reads the one parent record. Chunk
    /// boundaries are a pure function of the candidate list, results are
    /// written to input-index slots, and the modeled decision-time costs
    /// are charged in candidate order afterwards — so the returned scores
    /// *and* every accumulator on `self` are bit-identical to scoring one
    /// candidate at a time through the full-forward
    /// [`GonModel::generate`], at any thread count. The differential
    /// oracle in `tests/objective_oracle.rs` checks exactly that against
    /// a plain per-candidate reference.
    fn score_candidates(
        &mut self,
        base: &Projection<'_>,
        parent: &Topology,
        record: &mut Option<ParentRecord>,
        candidates: &[Topology],
    ) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let threads = EngineConfig {
            threads: self.config.eval_threads,
        }
        .worker_count();
        let chunks: Vec<&[Topology]> = candidates
            .chunks(gon::batch_len(base.base().n_hosts()))
            .collect();
        let probes = |chunk: &[Topology]| -> Vec<SystemState> {
            chunk.iter().map(|t| base.with_topology(t)).collect()
        };

        // Per-candidate (objective-without-transition, modeled decision
        // cost), computed in parallel; bookkeeping is replayed in
        // candidate order below, so the f64 accumulation order does not
        // depend on the worker count. Testbed-equivalent cost per query
        // (see `ResiliencePolicy::modeled_decision_s`): the GON pays per
        // ascent iteration (γ and model depth control how many/much — the
        // Fig. 6a/6b scheduling-time effects); the one-shot GAN and the
        // feed-forward surrogate pay a flat inference cost.
        let scored: Vec<Vec<(f64, f64)>> = match self.config.variant {
            CarolVariant::Gon => {
                let parent: &ParentRecord = match record.take() {
                    Some(kept) if kept.topology() == parent => record.insert(kept),
                    _ => record.insert(self.gon.record_parent(&base.with_topology(parent))),
                };
                let gon = &self.gon;
                let depth_factor = self.config.gon.head_layers.max(1) as f64 / 3.0;
                par::par_map_init(
                    threads,
                    &chunks,
                    || gon.clone(),
                    |model, chunk| {
                        model
                            .generate_candidates(parent, &probes(chunk))
                            .iter()
                            .map(|gen| {
                                let (qe, qs) = qos_components(&gen.metrics_flat);
                                // 0.08 ms per ascent iteration at the
                                // reference depth of 3 layers; deeper
                                // models pay proportionally more per pass
                                // (the Fig. 6b scheduling-time growth).
                                let cost = 8.0e-5 * depth_factor * gen.iterations as f64;
                                (QOS_ALPHA * qe + QOS_BETA * qs, cost)
                            })
                            .collect()
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
                        model
                            .predict_qos_batch(&probes(chunk), 17)
                            .into_iter()
                            .map(|q| (q, 0.00045))
                            .collect()
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
                        model
                            .predict_qos_batch(&probes(chunk))
                            .into_iter()
                            .map(|q| (q, 0.0002))
                            .collect()
                    },
                )
            }
        };

        let mut out = Vec::with_capacity(candidates.len());
        for ((objective, cost), candidate) in scored.into_iter().flatten().zip(candidates) {
            self.surrogate_queries += 1;
            self.modeled_decision_s += cost;
            out.push(Self::transition_cost(&base.base().topology, candidate) + objective);
        }
        out
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
/// [`Carol::batch_objective`], as deltas against their tabu parent.
pub struct CarolObjective<'a> {
    carol: &'a mut Carol,
    base: Projection<'a>,
    /// The last parent's record (GON variant): [`tabu::search`] scores
    /// its start, then the start's neighbours, against one parent.
    record: Option<ParentRecord>,
}

impl tabu::BatchObjective for CarolObjective<'_> {
    /// [`tabu::BatchObjective::score_neighbors`] with the snapshot's own
    /// topology as the parent.
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        let snapshot = self.base.base();
        self.score_neighbors(&snapshot.topology, candidates)
    }

    fn score_neighbors(&mut self, parent: &Topology, candidates: &[Topology]) -> Vec<f64> {
        self.carol
            .score_candidates(&self.base, parent, &mut self.record, candidates)
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
            topo = random_shift(&topo, b, &banned, &mut self.rng);
            // … line 8: tabu search over Ω(G; D, S, O), each iteration
            // scoring the whole neighbourhood through the batched
            // surrogate engine.
            let tabu_cfg = self.config.tabu.clone();
            let result = tabu::search(topo, &banned, &tabu_cfg, self.batch_objective(snapshot));
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

    /// The tabu parent decides only how much of each candidate the GON
    /// recomputes, never the bits: `score_neighbors` against the
    /// snapshot's topology, a candidate, a move away from the candidates
    /// and an unrelated topology all equal `score_batch`, on a fresh
    /// objective and on one that keeps its last parent's record across
    /// repeated and changing parents.
    #[test]
    fn score_neighbors_is_bit_identical_to_score_batch_for_any_parent() {
        for (n_hosts, n_brokers) in [(16, 4), (1024, 171)] {
            let config = CarolConfig::fast_test();
            let gon = GonModel::new(config.gon.clone());
            let mut policy = Carol::from_model(gon, config, 3);
            let mut sim = Simulator::new(SimConfig::small(n_hosts, n_brokers, 3));
            let report = sim.step(Vec::new(), &mut LeastLoadScheduler::new());
            let base = capture(&sim, &report.decision);
            let mut rng = StdRng::seed_from_u64(4);
            let snapshot = sim.topology().clone();
            let candidates = crate::nodeshift::mutations_sampled(&snapshot, &[], 5, &mut rng);
            let further = crate::nodeshift::mutations_sampled(&candidates[0], &[], 3, &mut rng);
            let unrelated = Topology::balanced(n_hosts, n_brokers / 2 + 1).unwrap();

            let want = policy.batch_objective(&base).score_batch(&candidates);
            let parents = [
                ("snapshot", &snapshot),
                ("first candidate", &candidates[0]),
                ("first candidate again", &candidates[0]),
                ("last candidate", &candidates[4]),
                ("two moves away", &further[0]),
                ("unrelated", &unrelated),
                ("snapshot again", &snapshot),
            ];
            let mut kept = Vec::new();
            {
                let mut objective = policy.batch_objective(&base);
                for (label, parent) in parents {
                    kept.push((label, objective.score_neighbors(parent, &candidates)));
                }
            }
            for (label, parent) in parents {
                let fresh = policy
                    .batch_objective(&base)
                    .score_neighbors(parent, &candidates);
                kept.push((label, fresh));
            }
            for (label, got) in kept {
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{n_hosts} hosts, {label} parent: candidate {i}"
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
