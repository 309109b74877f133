//! The GON discriminator network and input-space generation loop.

use edgesim::state::{SystemState, GRAPH_DIM, METRIC_DIM, SCHED_DIM};
use edgesim::Topology;
use nn::gat::{GraphDelta, Reference};
use nn::init::Initializer;
use nn::kernel;
use nn::layer::{Activation, Dense, Layer, Param, Sequential};
use nn::{Adjacency, GraphAttention, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Convergence threshold of the generation loop on the per-step
/// confidence gain, at the reference step size γ = 1e-3; the loop scales
/// it with γ so the stopping point does not depend on the step size.
pub const GEN_TOL: f64 = 1e-7;

/// Hyperparameters of the GON network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GonConfig {
    /// Hidden width of every feed-forward layer (paper: 128, §IV-E).
    pub hidden: usize,
    /// Number of hidden layers in the head. The paper's grid search picks
    /// 3 layers (a ~1 GB process footprint on the Pi); the sensitivity
    /// analysis of Fig. 6(b) sweeps this.
    pub head_layers: usize,
    /// GAT embedding width.
    pub gat_dim: usize,
    /// GAT attention key/query width.
    pub gat_att: usize,
    /// Step size γ of the generation loop (paper: 1e-3 optimal, Fig. 6a).
    pub gen_lr: f64,
    /// Maximum generation iterations per query.
    pub gen_steps: usize,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for GonConfig {
    fn default() -> Self {
        Self {
            hidden: 128,
            head_layers: 3,
            gat_dim: 32,
            gat_att: 16,
            gen_lr: 1e-3,
            gen_steps: 40,
            seed: 7,
        }
    }
}

impl GonConfig {
    /// Maps a target process footprint in GB to a layer count, following
    /// the paper's sensitivity grid (Fig. 6b: {0.25, 0.5, 1, 2, 5} GB ↔
    /// growing network depth, with 1 GB = 3 layers chosen).
    pub fn with_memory_gb(mut self, gb: f64) -> Self {
        self.head_layers = if gb <= 0.25 {
            1
        } else if gb <= 0.5 {
            2
        } else if gb <= 1.0 {
            3
        } else if gb <= 2.0 {
            4
        } else {
            6
        };
        self
    }

    /// Nominal process footprint in GB implied by the layer count — the
    /// figure the paper reports for Fig. 5(e)/6(b). The parameters
    /// themselves are tiny; the footprint models the full inference stack
    /// (activations, framework, buffers) measured on the testbed.
    pub fn nominal_memory_gb(&self) -> f64 {
        match self.head_layers {
            0 | 1 => 0.25,
            2 => 0.5,
            3 => 1.0,
            4 => 2.0,
            _ => 5.0,
        }
    }
}

/// Stacked host rows one batched forward aims for: enough rows for the
/// blocked matmul to amortise, few enough that a chunk's activations stay
/// a small working set the allocator reuses instead of returning it to
/// the kernel between chunks (16 candidates × 128 hosts fills it).
const BATCH_ROWS: usize = 2048;

/// Most candidates one batched forward stacks, however small the
/// federation: chunks must still outnumber workers for parallel balance.
const MAX_BATCH: usize = 16;

/// Candidates (or training samples) per stacked forward at `n_hosts`
/// hosts — the one chunk-size policy of every batched engine: about
/// 2,048 stacked rows per chunk, between 1 and 16 candidates. Up to 128
/// hosts a chunk holds 16 candidates; at 1024 it holds 2, and from 2048
/// on it holds 1. Results never depend on it — every batched path is
/// bit-identical to its per-candidate sibling — only the working set
/// does.
///
/// # Examples
///
/// ```
/// assert_eq!(gon::batch_len(16), 16);
/// assert_eq!(gon::batch_len(128), 16);
/// assert_eq!(gon::batch_len(1024), 2);
/// assert_eq!(gon::batch_len(4096), 1);
/// ```
pub fn batch_len(n_hosts: usize) -> usize {
    (BATCH_ROWS / n_hosts.max(1)).clamp(1, MAX_BATCH)
}

/// Result of one generation query (eq. 1 run to convergence).
#[derive(Debug, Clone)]
pub struct Generated {
    /// The converged performance-metric prediction `M*` (flattened,
    /// `n_hosts × METRIC_DIM`, values clamped to `[0, 1]`).
    pub metrics_flat: Vec<f64>,
    /// The confidence score `D(M*, S, G) ∈ [0, 1]`.
    pub confidence: f64,
    /// Iterations the ascent took.
    pub iterations: usize,
}

/// The GAT inputs of a batch: every state's graph-feature rows stacked,
/// and its [`edgesim::Topology::gat_row`]s pushed straight into one
/// [`Adjacency`] at the state's row offset — the disjoint union of the
/// state graphs, built in one pass.
pub(crate) fn stacked_graph(states: &[&SystemState]) -> (Matrix, Adjacency) {
    let total: usize = states.iter().map(|s| s.n_hosts()).sum();
    let mut g = Matrix::zeros(total, GRAPH_DIM);
    let mut adjacency = Adjacency::default();
    let mut offset = 0;
    for s in states {
        for h in 0..s.n_hosts() {
            g.row_mut(offset + h).copy_from_slice(&s.graph_features[h]);
            adjacency.push_row(offset, s.topology.gat_row(h));
        }
        offset += s.n_hosts();
    }
    (g, adjacency)
}

/// Mean-pools `rows` into the zeroed `out`: ascending-row accumulation
/// per column, then one multiply by the reciprocal row count.
fn pool_rows<'a>(out: &mut [f64], rows: impl ExactSizeIterator<Item = &'a [f64]>) {
    let n = rows.len();
    for row in rows {
        kernel::add_assign(out, row);
    }
    kernel::scale_assign(out, 1.0 / n as f64);
}

/// A tabu parent prepared for [`GonModel::generate_candidates`], once
/// per tabu iteration: its topology, its GAT forward, its `[M | S]` rows
/// and each `[M | S]` encoder layer's output for them. Valid for the
/// weights that built it (and any clone's) until they next change, and
/// only for candidates projected from the snapshot it was projected
/// from: a record must not outlive its snapshot.
#[derive(Debug, Clone)]
pub struct ParentRecord {
    topology: Topology,
    graph: Reference,
    ms: Matrix,
    encoder: Vec<Matrix>,
}

impl ParentRecord {
    /// The parent's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether every host of `state` outside `listed` (ascending) has
    /// the parent's graph features and GAT row, bit for bit: what the
    /// graph delta takes on trust for the hosts it does not list.
    fn matches_outside(&self, state: &SystemState, listed: &[usize]) -> bool {
        let features = self.graph.features();
        let mut listed = listed.iter().peekable();
        (0..state.n_hosts()).all(|h| {
            listed.next_if_eq(&&h).is_some()
                || (state.graph_features[h]
                    .iter()
                    .zip(features.row(h))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && state.topology.gat_row(h).eq(self.topology.gat_row(h)))
        })
    }
}

/// The composite discriminator of Fig. 3.
///
/// The model is `Clone`: batched candidate evaluation hands each worker
/// thread its own replica (parameters are frozen during scoring, so
/// replicas produce bit-identical results to the original).
#[derive(Clone)]
pub struct GonModel {
    config: GonConfig,
    ms_encoder: Sequential,
    gat: GraphAttention,
    head: Sequential,
}

impl std::fmt::Debug for GonModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GonModel(hidden={}, head_layers={}, params={})",
            self.config.hidden,
            self.config.head_layers,
            self.param_count()
        )
    }
}

impl GonModel {
    /// Builds the network from a configuration.
    pub fn new(config: GonConfig) -> Self {
        let mut init = Initializer::new(config.seed);
        let mut ms_encoder = Sequential::new();
        ms_encoder.push(Dense::new(METRIC_DIM + SCHED_DIM, config.hidden, &mut init));
        ms_encoder.push(Activation::relu());

        let gat = GraphAttention::new(GRAPH_DIM, config.gat_dim, config.gat_att, &mut init);

        let mut head = Sequential::new();
        let mut in_dim = config.hidden + config.gat_dim;
        for _ in 0..config.head_layers.saturating_sub(1) {
            head.push(Dense::new(in_dim, config.hidden, &mut init));
            head.push(Activation::tanh());
            in_dim = config.hidden;
        }
        head.push(Dense::new(in_dim, 1, &mut init));
        head.push(Activation::sigmoid());

        Self {
            config,
            ms_encoder,
            gat,
            head,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &GonConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.ms_encoder.param_count() + self.gat.param_count() + self.head.param_count()
    }

    /// All trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.ms_encoder.params_mut();
        p.extend(self.gat.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Forward pass: `D(M, S, G; θ) ∈ [0, 1]`.
    pub fn score(&mut self, state: &SystemState) -> f64 {
        self.forward_batch_internal(&[state]).0[(0, 0)]
    }

    /// Backward pass after [`GonModel::score`]: given `dL/dD`, accumulates
    /// parameter gradients and returns the gradient of the loss with
    /// respect to the *metric entries* of the input (`n_hosts ×
    /// METRIC_DIM`) — the tensor eq. 1 ascends.
    pub fn backward(&mut self, n_hosts: usize, grad_score: f64) -> Matrix {
        let g_head = self
            .head
            .backward(&Matrix::from_vec(1, 1, vec![grad_score]));
        let (g_ms_pooled, g_g_pooled) = g_head.hsplit(self.config.hidden);

        let segments = [(0, n_hosts)];
        let g_ms = Self::unpool_segments(&g_ms_pooled, &segments);
        let g_g = Self::unpool_segments(&g_g_pooled, &segments);

        let dx = self.ms_encoder.backward(&g_ms);
        let _dgraph = self.gat.backward(&g_g); // graph features are inputs too
        dx.column_block(0, METRIC_DIM)
    }

    /// Runs the generation loop of eq. 1: starting from the metrics in
    /// `state` (the paper warm-starts from `M_{t-1}`, §III-B), ascends
    /// `log D` over `M` with step size γ until convergence. Returns the
    /// converged metrics and confidence.
    ///
    /// Parameter gradients are untouched: the ascent takes the
    /// input-gradient-only backward, so gradients accumulated before the
    /// call survive it bit-for-bit. This is what lets adversarial training
    /// converge fake samples *inside* a minibatch without disturbing the
    /// real-sample gradients already accumulated (Algorithm 1 lines 3–4).
    pub fn generate(&mut self, state: &SystemState) -> Generated {
        // One-candidate batch. Bit-identical by the `generate_batch`
        // contract (gated in this file's tests and `tests/properties.rs`)
        // and inherits its structural savings: the step-invariant graph
        // branch runs once per query instead of once per ascent step, and
        // the input-only backward skips the parameter-gradient work.
        self.generate_stacked(std::slice::from_ref(state), None)
            .pop()
            .expect("one candidate in, one result out")
    }

    // --- Batched evaluation -------------------------------------------
    //
    // Tabu search scores whole candidate neighbourhoods at once, so the
    // batch entry points below stack every candidate's per-host rows into
    // one matrix: each network layer then runs one blocked matmul per
    // *batch* instead of per candidate, and the GAT sees the disjoint
    // union of the candidate graphs (neighbour indices offset per
    // candidate), which it evaluates block-by-block bit-identically to
    // separate forwards. Everything here is bit-identical to mapping the
    // serial sibling over the batch — `tests/properties.rs` and
    // `tests/objective_oracle.rs` gate that contract.

    /// Stacks the `[M | S]` per-host rows of all states; returns them with
    /// the `(row offset, n_hosts)` segment of each state. The graph half
    /// is [`stacked_graph`].
    fn stacked_ms(states: &[&SystemState]) -> (Matrix, Vec<(usize, usize)>) {
        let total: usize = states.iter().map(|s| s.n_hosts()).sum();
        let mut data = Vec::with_capacity(total * (METRIC_DIM + SCHED_DIM));
        let mut segments = Vec::with_capacity(states.len());
        for s in states {
            segments.push((data.len() / (METRIC_DIM + SCHED_DIM), s.n_hosts()));
            for (m, sched) in s.metrics.iter().zip(&s.schedule) {
                data.extend_from_slice(m);
                data.extend_from_slice(sched);
            }
        }
        (
            Matrix::from_vec(total, METRIC_DIM + SCHED_DIM, data),
            segments,
        )
    }

    /// Per-segment mean-pool: ascending-row accumulation per column, then
    /// one multiply by the precomputed reciprocal — so each pooled row is
    /// independent of the other segments in the batch.
    fn pool_segments(m: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let mut out = Matrix::zeros(segments.len(), m.cols());
        for (b, &(offset, n)) in segments.iter().enumerate() {
            pool_rows(out.row_mut(b), (offset..offset + n).map(|r| m.row(r)));
        }
        out
    }

    /// Mean-pool backward, the adjoint of [`GonModel::pool_segments`]:
    /// every row of segment `b` receives `pooled` row `b` divided by the
    /// segment's row count.
    fn unpool_segments(pooled: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let total: usize = segments.iter().map(|&(_, n)| n).sum();
        let mut out = Matrix::zeros(total, pooled.cols());
        for (b, &(offset, n)) in segments.iter().enumerate() {
            let nf = n as f64;
            for h in offset..offset + n {
                for (o, &p) in out.row_mut(h).iter_mut().zip(pooled.row(b)) {
                    *o = p / nf;
                }
            }
        }
        out
    }

    /// Batched forward over state refs; returns the `B × 1` score column
    /// and the row segments (needed by the batched backward).
    fn forward_batch_internal(&mut self, states: &[&SystemState]) -> (Matrix, Vec<(usize, usize)>) {
        let (x, segments) = Self::stacked_ms(states);
        let (gfeat, adjacency) = stacked_graph(states);
        let e = self.ms_encoder.forward(&x); // [Σn × hidden]
        let e_ms = Self::pool_segments(&e, &segments); // [B × hidden]
        let eg = self.gat.forward(&gfeat, &adjacency); // [Σn × gat_dim]
        let e_g = Self::pool_segments(&eg, &segments);
        let z = self.head.forward(&e_ms.hcat(&e_g)); // [B × 1]
        (z, segments)
    }

    /// Batched [`GonModel::score`]: `D(M, S, G)` for every state, one
    /// stacked forward. Bit-identical to mapping `score` over the batch.
    pub fn score_batch(&mut self, states: &[SystemState]) -> Vec<f64> {
        if states.is_empty() {
            return Vec::new();
        }
        let refs: Vec<&SystemState> = states.iter().collect();
        self.forward_batch_internal(&refs).0.into_vec()
    }

    /// Input-metric gradient of the batched score: one `grad_scores` entry
    /// per segment (`dL/dD` for that candidate), returning the stacked
    /// `Σn × METRIC_DIM` gradient. Parameter gradients are left untouched
    /// — the generation loop discards them anyway, which is what lets
    /// this path skip the grad-accumulation work the serial
    /// [`GonModel::backward`] pays per candidate.
    fn backward_metrics_batch(
        &mut self,
        segments: &[(usize, usize)],
        grad_scores: &[f64],
    ) -> Matrix {
        debug_assert_eq!(segments.len(), grad_scores.len());
        let g = Matrix::from_vec(grad_scores.len(), 1, grad_scores.to_vec());
        let g_head = self.head.backward_input(&g); // [B × hidden + gat_dim]
        let g_ms_pooled = g_head.column_block(0, self.config.hidden);

        let g_ms = Self::unpool_segments(&g_ms_pooled, segments);
        // The GAT branch is skipped entirely: its backward contributes
        // nothing to the metric gradient (graph features are a separate
        // input), matching the serial path where its output is discarded.
        let dx = self.ms_encoder.backward_input(&g_ms);
        dx.column_block(0, METRIC_DIM)
    }

    /// Batched [`GonModel::generate`]: runs every candidate's eq.-1 ascent
    /// in lock-step, with per-candidate convergence. Candidates that
    /// overshoot or plateau drop out of the ascent (their recorded best is
    /// frozen); the rest keep ascending on stacked matrices. Bit-identical
    /// to mapping `generate` over the batch: per-candidate trajectories
    /// are row-independent through every layer.
    ///
    /// Two structural savings over the serial loop, both bit-neutral:
    /// the graph branch (GAT + pool) sees only graph features and
    /// adjacency — constant across eq.-1 steps — so its pooled embedding
    /// is computed **once per batch** instead of once per step per
    /// candidate; and the stacked `[M | S]` input is built once, with
    /// only the metric columns rewritten between steps. Like `generate`,
    /// it leaves parameter gradients untouched; side-effect-free
    /// evaluation during training runs on this.
    pub fn generate_batch(&mut self, states: &[SystemState]) -> Vec<Generated> {
        self.generate_stacked(states, None)
    }

    /// The [`ParentRecord`] of `parent`: a tabu parent projected from
    /// the snapshot (`snapshot.with_topology(parent topology)`), whose
    /// neighbours [`GonModel::generate_candidates`] then scores as deltas.
    pub fn record_parent(&mut self, parent: &SystemState) -> ParentRecord {
        let (ms, _) = Self::stacked_ms(&[parent]);
        let (gfeat, adjacency) = stacked_graph(&[parent]);
        ParentRecord {
            topology: parent.topology.clone(),
            graph: self.gat.reference(&gfeat, &adjacency),
            encoder: self.ms_encoder.forward_layers(&ms),
            ms,
        }
    }

    /// [`GonModel::generate_batch`] of candidates scored as deltas
    /// against the [`GonModel::record_parent`] of their tabu parent.
    ///
    /// The graph branch is [`GraphAttention::forward_delta`] over the
    /// hosts [`Topology::gat_changes_from`] names, and each candidate
    /// pools the parent's GAT rows with the recomputed ones in their
    /// place. The first ascent step runs the `[M | S]` encoder only on
    /// rows that differ bitwise from the parent's, copying the rest from
    /// the record; later steps move every row and run it whole.
    /// Bit-identical to `generate_batch`, by row independence, for any
    /// parent projected from the same snapshot as the candidates: only
    /// the hosts `gat_changes_from` names may differ in graph features
    /// (debug builds check every other host against the record).
    ///
    /// # Panics
    ///
    /// Panics if a state's host count differs from the parent's.
    pub fn generate_candidates(
        &mut self,
        parent: &ParentRecord,
        states: &[SystemState],
    ) -> Vec<Generated> {
        for s in states {
            assert_eq!(s.n_hosts(), parent.ms.rows(), "host count mismatch");
        }
        self.generate_stacked(states, Some(parent))
    }

    /// The pooled graph branch of each candidate against `parent`: the
    /// rows [`GraphAttention::forward_delta`] recomputes, the parent's
    /// rows elsewhere, summed in row order as
    /// [`GonModel::pool_segments`] sums.
    fn pooled_graph_delta(&self, parent: &ParentRecord, states: &[SystemState]) -> Matrix {
        let deltas: Vec<GraphDelta> = states
            .iter()
            .map(|s| {
                let listed = s.topology.gat_changes_from(&parent.topology);
                debug_assert!(
                    parent.matches_outside(s, &listed),
                    "a candidate differs from its parent record outside the listed hosts \
                     (was the record projected from another snapshot?)"
                );
                let mut delta = GraphDelta::default();
                for h in listed {
                    delta.push(h, &s.graph_features[h], s.topology.gat_row(h));
                }
                delta
            })
            .collect();
        let patches = self.gat.forward_delta(&parent.graph, &deltas);
        let mut out = Matrix::zeros(states.len(), self.config.gat_dim);
        for (b, patch) in patches.iter().enumerate() {
            pool_rows(out.row_mut(b), patch.output_rows(&parent.graph));
        }
        out
    }

    /// The masked batched ascent of [`GonModel::generate_batch`]; with a
    /// `parent`, the graph branch and the first encoder step are deltas
    /// against it ([`GonModel::generate_candidates`]).
    fn generate_stacked(
        &mut self,
        states: &[SystemState],
        parent: Option<&ParentRecord>,
    ) -> Vec<Generated> {
        let b = states.len();
        if b == 0 {
            return Vec::new();
        }
        let refs: Vec<&SystemState> = states.iter().collect();
        let (mut x, segments) = Self::stacked_ms(&refs);
        // The pooled graph branch is constant across steps.
        let (e_g, fresh) = match parent {
            Some(parent) => {
                let width = METRIC_DIM + SCHED_DIM;
                let parent_rows = parent.ms.data().chunks_exact(width).cycle();
                let rows = x.data().chunks_exact(width).zip(parent_rows);
                let fresh: Vec<usize> = (0..)
                    .zip(rows)
                    .filter(|(_, (a, p))| {
                        let bits = a.iter().zip(*p).map(|(a, p)| a.to_bits() ^ p.to_bits());
                        bits.fold(0, |acc, d| acc | d) != 0
                    })
                    .map(|(r, _)| r)
                    .collect();
                (self.pooled_graph_delta(parent, states), fresh)
            }
            None => {
                let (gfeat, adjacency) = stacked_graph(&refs);
                let eg = self.gat.forward(&gfeat, &adjacency);
                (Self::pool_segments(&eg, &segments), Vec::new())
            }
        };

        // Every candidate's M, stacked in the `d_metrics` layout: candidate
        // i owns `METRIC_DIM`-wide rows `segments[i]`.
        let mut metrics = Vec::with_capacity(x.rows() * METRIC_DIM);
        for s in states {
            metrics.extend_from_slice(s.metrics.as_flattened());
        }
        let block = |(offset, n): (usize, usize)| offset * METRIC_DIM..(offset + n) * METRIC_DIM;
        let mut outs: Vec<Generated> = segments
            .iter()
            .map(|&seg| Generated {
                metrics_flat: metrics[block(seg)].to_vec(),
                confidence: f64::NEG_INFINITY,
                iterations: 0,
            })
            .collect();
        let mut prev = vec![f64::NEG_INFINITY; b];
        let mut active = vec![true; b];
        let mut n_active = b;
        // Step-size-invariant tolerance, exactly as in `generate`.
        let tol = GEN_TOL * (self.config.gen_lr / 1e-3).max(1e-6);

        for it in 0..self.config.gen_steps {
            if n_active == 0 {
                break;
            }
            // Forward: stopped candidates' rows ride along unused — they
            // cannot perturb active rows (row independence), and one
            // rectangular matmul beats re-stacking the batch every step.
            // The first step's rows outside `fresh` are the parent's.
            let e = match parent {
                Some(parent) if it == 0 => {
                    self.ms_encoder.forward_reusing(&x, &fresh, &parent.encoder)
                }
                _ => self.ms_encoder.forward(&x),
            };
            let e_ms = Self::pool_segments(&e, &segments);
            let scores = self.head.forward(&e_ms.hcat(&e_g)); // [B × 1]

            let mut grads = vec![0.0; b];
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let score = scores[(i, 0)];
                if score > outs[i].confidence {
                    outs[i].confidence = score;
                    outs[i]
                        .metrics_flat
                        .copy_from_slice(&metrics[block(segments[i])]);
                }
                outs[i].iterations = it + 1;
                // Same stop conditions as the serial loop: overshoot
                // first, then plateau.
                let overshoot = score < prev[i];
                let plateaued = it > 0 && score - prev[i] < tol;
                if overshoot || plateaued {
                    active[i] = false;
                    n_active -= 1;
                } else {
                    prev[i] = score;
                    // ∇_M log D = (1/D) ∇_M D; stopped rows keep a zero
                    // grad, so their d_metrics rows are never applied.
                    grads[i] = 1.0 / score.max(1e-9);
                }
            }
            if n_active == 0 {
                break; // every remaining candidate stopped this step
            }
            let d_metrics = self.backward_metrics_batch(&segments, &grads);
            for i in 0..b {
                if !active[i] {
                    continue;
                }
                let (offset, n) = segments[i];
                let rows = block(segments[i]);
                // The candidate's d_metrics rows are contiguous (METRIC_DIM
                // columns), so the whole eq.-1 step + clamp is one
                // elementwise kernel call.
                kernel::ascent_update(
                    &mut metrics[rows.clone()],
                    &d_metrics.data()[rows],
                    self.config.gen_lr,
                );
                for h in offset..offset + n {
                    // Refresh the metric columns of the stacked input.
                    x.row_mut(h)[..METRIC_DIM]
                        .copy_from_slice(&metrics[h * METRIC_DIM..(h + 1) * METRIC_DIM]);
                }
            }
        }

        // gen_steps == 0: score the untouched warm start, as `generate`
        // does in its fallback.
        if outs.iter().any(|o| o.confidence == f64::NEG_INFINITY) {
            let e = self.ms_encoder.forward(&x);
            let e_ms = Self::pool_segments(&e, &segments);
            let scores = self.head.forward(&e_ms.hcat(&e_g));
            for (i, out) in outs.iter_mut().enumerate() {
                if out.confidence == f64::NEG_INFINITY {
                    out.confidence = scores[(i, 0)];
                }
            }
        }
        outs
    }

    /// One batched adversarial update (Algorithm 1 lines 3–6) over a
    /// whole minibatch: returns the per-sample BCE losses
    /// (`−log D(real) − log(1 − D(fake))`) and accumulates the summed
    /// parameter gradients into the model.
    ///
    /// Three stages, each batch-first:
    ///
    /// 1. **Fake convergence** — every sample's noise-initialised metrics
    ///    run the configured eq.-1 ascent via the masked batched engine
    ///    ([`GonModel::generate_batch`]), chunked by [`batch_len`] of
    ///    the largest state and fanned out over [`par::par_map_init`]
    ///    workers that each hold one model replica for all their chunks.
    ///    The ascent is parameter-gradient-free, chunk boundaries are a
    ///    pure function of the minibatch, and results land in input-index
    ///    slots — so the fakes are bit-identical at any worker count.
    /// 2. **One stacked discriminator pass with a shared graph branch** —
    ///    real and fake states interleave (`[real₀, fake₀, real₁, fake₁,
    ///    …]`) into a single forward: one blocked matmul per layer for the
    ///    whole minibatch. Each fake is its real twin with only the
    ///    metrics replaced, so graph features and adjacency — the only
    ///    GAT inputs — are identical between the halves: the GAT runs
    ///    over the `B` real components **once** and its pooled embedding
    ///    rows are duplicated to both halves, bitwise equal to pooling
    ///    the fake segments separately. This halves the GAT cost of every
    ///    training step.
    /// 3. **One in-order gradient reduction** — the head and `[M | S]`
    ///    encoder accumulate each segment's parameter gradients in that
    ///    interleaved order via [`nn::Layer::backward_batch`], and the
    ///    GAT backpropagates both halves against its single shared cache
    ///    ([`GraphAttention::backward_interleaved`]) — exactly the
    ///    real/fake alternation the serial per-sample step produces.
    ///
    /// Bit-identity contract: equal to mapping the serial adversarial
    /// step (`gon::training`) over the minibatch — same losses, same
    /// accumulated gradients, same RNG stream consumption (noise is drawn
    /// per sample in minibatch order; the ascent draws nothing).
    /// `tests/properties.rs` property-tests this for batch sizes
    /// including 0 and 1.
    pub fn adversarial_step_batch(
        &mut self,
        states: &[&SystemState],
        rng: &mut StdRng,
        threads: usize,
    ) -> Vec<f64> {
        if states.is_empty() {
            return Vec::new();
        }
        const EPS: f64 = 1e-9;

        // Stage 1: noise-initialise every fake in minibatch order (the
        // serial step's RNG stream), then converge them all through the
        // batched eq.-1 ascent on one model replica per worker.
        let mut fakes: Vec<SystemState> = states
            .iter()
            .map(|s| {
                let mut fake = (*s).clone();
                let noise: Vec<f64> = (0..fake.n_hosts() * METRIC_DIM)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                fake.set_metrics_flat(&noise);
                fake
            })
            .collect();
        let chunk_len = batch_len(states.iter().map(|s| s.n_hosts()).max().unwrap_or(1));
        let chunks: Vec<&[SystemState]> = fakes.chunks(chunk_len).collect();
        let this: &Self = self;
        let generated: Vec<Generated> = par::par_map_init(
            threads,
            &chunks,
            || this.clone(),
            |model, chunk| model.generate_batch(chunk),
        )
        .into_iter()
        .flatten()
        .collect();
        for (fake, gen) in fakes.iter_mut().zip(&generated) {
            fake.set_metrics_flat(&gen.metrics_flat);
        }

        // Stage 2: one stacked forward over [real₀, fake₀, real₁, …],
        // sharing the graph branch between the halves. fake_b is real_b
        // with only the metrics replaced, so the GAT — a pure function of
        // graph features and adjacency — runs over the B real components
        // once; its pooled rows are bitwise equal to the fake segments'.
        // The interleaving puts real_b's rows at twice its row offset
        // among the reals alone, which is what the GAT's cache holds.
        let mut combined: Vec<&SystemState> = Vec::with_capacity(2 * states.len());
        for (real, fake) in states.iter().zip(&fakes) {
            combined.push(real);
            combined.push(fake);
        }
        let (x, segments) = Self::stacked_ms(&combined);
        let real_segments: Vec<(usize, usize)> = segments
            .iter()
            .step_by(2)
            .map(|&(offset, n)| (offset / 2, n))
            .collect();
        let (gfeat, adjacency) = stacked_graph(states);
        let eg = self.gat.forward(&gfeat, &adjacency);
        let e_g_real = Self::pool_segments(&eg, &real_segments); // [B × gat_dim]
        let mut e_g = Matrix::zeros(2 * states.len(), self.config.gat_dim);
        for i in 0..states.len() {
            e_g.row_mut(2 * i).copy_from_slice(e_g_real.row(i));
            e_g.row_mut(2 * i + 1).copy_from_slice(e_g_real.row(i));
        }

        let e = self.ms_encoder.forward(&x); // [Σ2n × hidden]
        let e_ms = Self::pool_segments(&e, &segments); // [2B × hidden]
        let scores = self.head.forward(&e_ms.hcat(&e_g)); // [2B × 1]

        // Stage 3: per-segment dL/dD — ascend log D on reals, descend
        // log(1 − D) on fakes — then one in-order gradient reduction.
        let mut grads = vec![0.0; combined.len()];
        let mut losses = Vec::with_capacity(states.len());
        for b in 0..states.len() {
            let z_real = scores[(2 * b, 0)].clamp(EPS, 1.0 - EPS);
            let z_fake = scores[(2 * b + 1, 0)].clamp(EPS, 1.0 - EPS);
            grads[2 * b] = -1.0 / z_real;
            grads[2 * b + 1] = 1.0 / (1.0 - z_fake);
            let loss_real = -z_real.ln();
            let loss_fake = -(1.0 - z_fake).ln();
            losses.push(loss_real + loss_fake);
        }

        // Backpropagate the head and `[M | S]` encoder per segment, in
        // segment order; the GAT half backpropagates both grad halves
        // against its single shared (real-only) cache.
        let g = Matrix::from_vec(combined.len(), 1, grads);
        let head_segments: Vec<(usize, usize)> = (0..combined.len()).map(|i| (i, 1)).collect();
        let g_head = self.head.backward_batch(&g, &head_segments);
        let (g_ms_pooled, g_g_pooled) = g_head.hsplit(self.config.hidden);

        // Mean-pool backward over the combined segments: because the
        // stacking interleaves per component, real_b's rows start at
        // twice its cache offset — exactly the [real₀, fake₀, …] grad
        // layout `backward_interleaved` expects.
        let g_ms = Self::unpool_segments(&g_ms_pooled, &segments);
        let g_g = Self::unpool_segments(&g_g_pooled, &segments);
        self.ms_encoder.backward_batch(&g_ms, &segments);
        self.gat.backward_interleaved(&g_g, &real_segments);
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::SchedulingDecision;
    use edgesim::state::Normalizer;
    use edgesim::{HostSpec, HostState, Topology};
    use nn::gradcheck::{max_abs_diff, numerical_grad};

    fn test_state(n_hosts: usize, n_brokers: usize, load: f64) -> SystemState {
        let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
        let mut states = vec![HostState::default(); n_hosts];
        for (i, st) in states.iter_mut().enumerate() {
            st.cpu = (load + 0.05 * i as f64).min(1.0);
            st.ram = (load * 0.8).min(1.0);
            st.energy_wh = 0.3 * load;
        }
        SystemState::capture(
            &topo,
            &specs,
            &states,
            &[],
            &SchedulingDecision::new(),
            &Normalizer::default(),
        )
    }

    fn small_config() -> GonConfig {
        GonConfig {
            hidden: 16,
            head_layers: 2,
            gat_dim: 8,
            gat_att: 4,
            gen_lr: 1e-2,
            gen_steps: 20,
            seed: 3,
        }
    }

    #[test]
    fn score_is_a_probability() {
        let mut model = GonModel::new(small_config());
        for load in [0.0, 0.3, 0.9] {
            let s = test_state(8, 2, load);
            let z = model.score(&s);
            assert!((0.0..=1.0).contains(&z), "score {z} out of range");
        }
    }

    #[test]
    fn same_weights_serve_different_host_counts() {
        let mut model = GonModel::new(small_config());
        let a = model.score(&test_state(4, 1, 0.4));
        let b = model.score(&test_state(16, 4, 0.4));
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn metric_gradient_matches_numerical() {
        let mut model = GonModel::new(small_config());
        let state = test_state(4, 2, 0.5);
        let score = model.score(&state);
        model.zero_grad();
        let analytic = model.backward(4, 1.0);
        let _ = score;

        let numeric = numerical_grad(
            &Matrix::from_vec(4, METRIC_DIM, state.metrics_flat()),
            1e-6,
            |probe| {
                let mut s = state.clone();
                s.set_metrics_flat(probe.data());
                model.score(&s)
            },
        );
        assert!(
            max_abs_diff(&analytic, &numeric) < 1e-6,
            "metric gradient mismatch"
        );
    }

    #[test]
    fn generation_increases_score() {
        let mut model = GonModel::new(small_config());
        let state = test_state(6, 2, 0.5);
        let before = model.score(&state);
        let generated = model.generate(&state);
        assert!(
            generated.confidence >= before - 1e-9,
            "ascent must not reduce the score: {before} → {}",
            generated.confidence
        );
        assert!(generated.iterations >= 1);
        assert!(generated
            .metrics_flat
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn generation_preserves_shape() {
        let mut model = GonModel::new(small_config());
        let state = test_state(8, 2, 0.4);
        let generated = model.generate(&state);
        assert_eq!(generated.metrics_flat.len(), 8 * METRIC_DIM);
    }

    fn mixed_batch() -> Vec<SystemState> {
        vec![
            test_state(8, 2, 0.1),
            test_state(8, 2, 0.55),
            test_state(4, 2, 0.9),
            test_state(6, 2, 0.35),
        ]
    }

    #[test]
    fn score_batch_is_bit_identical_to_mapped_score() {
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        let serial: Vec<f64> = states.iter().map(|s| model.score(s)).collect();
        let batched = model.score_batch(&states);
        assert_eq!(batched.len(), states.len());
        for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "candidate {i} diverged");
        }
        // Degenerate batch sizes.
        assert!(model.score_batch(&[]).is_empty());
        let one = model.score_batch(&states[..1]);
        assert_eq!(one[0].to_bits(), serial[0].to_bits());
    }

    #[test]
    fn generate_batch_is_bit_identical_to_mapped_generate() {
        // gen_lr large enough that candidates overshoot/plateau at
        // *different* steps — the per-candidate convergence masks must
        // reproduce every serial trajectory exactly.
        let mut model = GonModel::new(small_config());
        let states = mixed_batch();
        let serial: Vec<Generated> = states.iter().map(|s| model.generate(s)).collect();
        let batched = model.generate_batch(&states);
        assert_eq!(batched.len(), serial.len());
        for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "candidate {i}: confidence diverged ({} vs {})",
                a.confidence,
                b.confidence
            );
            assert_eq!(a.iterations, b.iterations, "candidate {i}: iterations");
            assert_eq!(a.metrics_flat.len(), b.metrics_flat.len());
            for (x, y) in a.metrics_flat.iter().zip(&b.metrics_flat) {
                assert_eq!(x.to_bits(), y.to_bits(), "candidate {i}: metrics diverged");
            }
        }
        // Parameter gradients are untouched: still zero from construction.
        for p in model.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    fn assert_same_generations(got: &[Generated], want: &[Generated], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}: count");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "{case}: {i}"
            );
            assert_eq!(a.iterations, b.iterations, "{case}: {i} iterations");
            for (x, y) in a.metrics_flat.iter().zip(&b.metrics_flat) {
                assert_eq!(x.to_bits(), y.to_bits(), "{case}: {i} metrics");
            }
        }
    }

    /// Any parent record gives `generate_batch`'s bits: the candidates'
    /// own topology, a promotion (another broker count) and an unrelated
    /// topology, on chunks that reuse the parent's step-0 encoder rows
    /// and on chunks that mostly cannot.
    #[test]
    fn generate_candidates_is_bit_identical_to_generate_batch() {
        let base = test_state(12, 3, 0.4);
        let topology = base.topology.clone();
        let mut promoted = topology.clone();
        promoted.promote(5).unwrap();
        let mut moved = topology.clone();
        moved.reassign(7, 0).unwrap();
        let unrelated = Topology::balanced(12, 5).unwrap();
        let candidates: Vec<SystemState> = [&topology, &promoted, &moved, &unrelated]
            .map(|t| base.with_topology(t))
            .to_vec();
        for gen_steps in [0, 20] {
            let mut model = GonModel::new(GonConfig {
                gen_steps,
                ..small_config()
            });
            for parent in [&topology, &promoted, &unrelated] {
                let record = model.record_parent(&base.with_topology(parent));
                for chunk in [&candidates[..], &candidates[2..3], &candidates[..3]] {
                    let want = model.generate_batch(chunk);
                    let got = model.generate_candidates(&record, chunk);
                    let case = format!("{gen_steps} steps, {} candidates", chunk.len());
                    assert_same_generations(&got, &want, &case);
                }
            }
        }
    }

    /// A record projected from another snapshot, with the same host
    /// count and topology, trips the debug check instead of scoring the
    /// candidates against the wrong graph features.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the listed hosts")]
    fn generate_candidates_rejects_a_record_of_another_snapshot() {
        let mut model = GonModel::new(small_config());
        let record = model.record_parent(&test_state(12, 3, 0.9));
        model.generate_candidates(&record, &[test_state(12, 3, 0.4)]);
    }

    #[test]
    fn generate_batch_zero_steps_matches_serial_fallback() {
        let config = GonConfig {
            gen_steps: 0,
            ..small_config()
        };
        let mut model = GonModel::new(config);
        let states = mixed_batch();
        let serial: Vec<Generated> = states.iter().map(|s| model.generate(s)).collect();
        let batched = model.generate_batch(&states);
        for (a, b) in serial.iter().zip(&batched) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.metrics_flat, b.metrics_flat);
        }
    }

    #[test]
    fn cloned_model_scores_bit_identically() {
        let mut model = GonModel::new(small_config());
        let mut replica = model.clone();
        assert_eq!(replica.param_count(), model.param_count());
        let state = test_state(8, 2, 0.5);
        assert_eq!(
            model.score(&state).to_bits(),
            replica.score(&state).to_bits()
        );
        let a = model.generate(&state);
        let b = replica.generate(&state);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.metrics_flat, b.metrics_flat);
    }

    #[test]
    fn memory_mapping_follows_figure_6b() {
        for (gb, layers) in [(0.25, 1), (0.5, 2), (1.0, 3), (2.0, 4), (5.0, 6)] {
            let c = GonConfig::default().with_memory_gb(gb);
            assert_eq!(c.head_layers, layers, "gb={gb}");
            assert_eq!(c.nominal_memory_gb(), gb);
        }
    }

    #[test]
    fn deeper_heads_have_more_parameters() {
        let small = GonModel::new(GonConfig::default().with_memory_gb(0.25));
        let big = GonModel::new(GonConfig::default().with_memory_gb(5.0));
        assert!(big.param_count() > small.param_count());
    }
}
