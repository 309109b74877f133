//! The GON discriminator network and input-space generation loop.

use edgesim::state::{SystemState, GRAPH_DIM, METRIC_DIM, SCHED_DIM};
use edgesim::Topology;
use nn::gat::{GraphDelta, Reference};
use nn::init::Initializer;
use nn::kernel;
use nn::layer::{Activation, ActivationKind, Dense, Layer, Param, Sequential, Workspace};
use nn::{Adjacency, GraphAttention, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// Mean-pools `f` of `rows` into `out`: ascending-row accumulation per
/// column from +0.0, then one multiply by the reciprocal row count.
fn pool_rows<'a>(
    out: &mut [f64],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    f: impl Fn(f64) -> f64,
) {
    let n = rows.len();
    out.fill(0.0);
    for row in rows {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += f(v);
        }
    }
    kernel::scale_assign(out, 1.0 / n as f64);
}

/// Mean-pool backward, the adjoint of [`pool_rows`] per segment: each
/// row `r` of segment `b` of `rows` becomes `f(g / n, rows[r])` for `g`
/// the columns `cols` of row `b` of `grads` and `n` the segment's row
/// count, with `g / n` divided once per segment into `scratch`.
fn unpool(
    grads: &Matrix,
    cols: Range<usize>,
    segments: &[(usize, usize)],
    rows: &mut Matrix,
    scratch: &mut Vec<f64>,
    f: impl Fn(f64, f64) -> f64,
) {
    for (b, &(offset, n)) in segments.iter().enumerate() {
        scratch.clear();
        scratch.extend(grads.row(b)[cols.clone()].iter().map(|&g| g / n as f64));
        for r in offset..offset + n {
            for (v, &g) in rows.row_mut(r).iter_mut().zip(scratch.iter()) {
                *v = f(g, *v);
            }
        }
    }
}

/// The encoder's `ReLU` backward at pre-activation `z`.
fn relu_mask(g: f64, z: f64) -> f64 {
    g * ActivationKind::Relu.derivative(z)
}

/// Stacks the `[M | S]` rows of `states` into `x` and records each
/// state's `(row offset, n_hosts)` in `segments`, reusing both buffers.
fn stack_ms_into<'a>(
    states: impl Iterator<Item = &'a SystemState> + Clone,
    x: &mut Matrix,
    segments: &mut Vec<(usize, usize)>,
) {
    let total = states.clone().map(|s| s.n_hosts()).sum();
    x.resize(total, METRIC_DIM + SCHED_DIM);
    segments.clear();
    let mut rows = x.data_mut().chunks_exact_mut(METRIC_DIM + SCHED_DIM);
    let mut offset = 0;
    for s in states {
        segments.push((offset, s.n_hosts()));
        offset += s.n_hosts();
        for ((m, sched), row) in s.metrics.iter().zip(&s.schedule).zip(&mut rows) {
            row[..METRIC_DIM].copy_from_slice(m);
            row[METRIC_DIM..].copy_from_slice(sched);
        }
    }
}

/// A tabu parent prepared for [`GonModel::generate_candidates`], once
/// per tabu iteration: its topology, its GAT forward, its `[M | S]` rows
/// and the encoder's pre-activation rows for them. Valid for the
/// weights that built it (and any clone's) until they next change, and
/// only for candidates projected from the snapshot it was projected
/// from: a record must not outlive its snapshot.
#[derive(Debug, Clone)]
pub struct ParentRecord {
    topology: Topology,
    graph: Reference,
    ms: Matrix,
    z: Matrix,
}

impl ParentRecord {
    /// The parent's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

/// A chunk of candidates for [`GonModel::generate_listed`], each given
/// by the rows in which it differs from a [`ParentRecord`]: its
/// `[M | S]` rows and its GAT rows (graph features and neighbour row) at
/// the hosts it lists. Every host it does not list keeps the parent's
/// rows. Listing a host whose rows equal the parent's is allowed. The
/// buffers are kept across [`CandidateRows::clear`], so refilling it
/// with a chunk of the same shape allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CandidateRows {
    /// Each candidate's first entry in `hosts`.
    starts: Vec<usize>,
    /// The listed `[M | S]` hosts, ascending per candidate.
    hosts: Vec<usize>,
    /// One `[M | S]` row per entry of `hosts`, flat.
    rows: Vec<f64>,
    /// Each candidate's GAT rows; only the first `starts.len()` are in
    /// use.
    graphs: Vec<GraphDelta>,
}

impl CandidateRows {
    /// Drops every candidate, keeping the buffers.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.hosts.clear();
        self.rows.clear();
    }

    /// The number of candidates.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Starts the next candidate: rows pushed from here on are its.
    pub fn push_candidate(&mut self) {
        self.starts.push(self.hosts.len());
        match self.graphs.get_mut(self.starts.len() - 1) {
            Some(graph) => graph.clear(),
            None => self.graphs.push(GraphDelta::default()),
        }
    }

    /// Gives the current candidate host `h`'s `[M | S]` row: metrics
    /// `m`, schedule `s`.
    ///
    /// # Panics
    ///
    /// Panics unless a candidate was started and `h` is above every host
    /// it has listed this way.
    pub fn push_row(&mut self, h: usize, m: &[f64; METRIC_DIM], s: &[f64; SCHED_DIM]) {
        let start = *self.starts.last().expect("push_candidate first");
        assert!(
            self.hosts[start..].last().is_none_or(|&last| last < h),
            "listed hosts must ascend"
        );
        self.hosts.push(h);
        self.rows.extend_from_slice(m);
        self.rows.extend_from_slice(s);
    }

    /// Gives the current candidate host `h`'s graph-feature row and GAT
    /// neighbour row ([`edgesim::Topology::gat_row`]).
    ///
    /// # Panics
    ///
    /// Panics unless a candidate was started and `h` is above every host
    /// it has listed this way.
    pub fn push_graph(
        &mut self,
        h: usize,
        features: &[f64; GRAPH_DIM],
        row: impl IntoIterator<Item = usize>,
    ) {
        let graph = self.graphs[..self.starts.len()]
            .last_mut()
            .expect("push_candidate first");
        graph.push(h, features, row);
    }

    /// Candidate `i`'s listed hosts and their `[M | S]` rows.
    fn rows_of(&self, i: usize) -> impl Iterator<Item = (usize, &[f64])> {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.hosts.len());
        let width = METRIC_DIM + SCHED_DIM;
        let rows = self.rows[self.starts[i] * width..end * width].chunks_exact(width);
        self.hosts[self.starts[i]..end].iter().copied().zip(rows)
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
    /// The `[M | S]` encoder's dense layer (eq. 3 is `ReLU` of it, which
    /// every pass applies to the pre-activation rows as it pools them).
    ms_encoder: Dense,
    gat: GraphAttention,
    head: Sequential,
    /// The eq.-1 ascent's buffers.
    ascent: Pass,
    /// The training passes' buffers: [`GonModel::score`] fills them and
    /// [`GonModel::backward`] reads them, whatever ascent runs between.
    train: Pass,
}

/// The buffers of one stacked discriminator pass, reused from call to
/// call: [`GonModel::generate_batch`]'s eq.-1 ascent runs in one, the
/// training passes in another. Once they have held a chunk of a shape, a
/// step of the ascent allocates nothing. A clone starts empty, since the
/// contents are scratch.
#[derive(Debug, Default)]
struct Pass {
    /// The stacked `[M | S]` rows. Their metric columns are the
    /// candidates' current `M`, which each step updates in place.
    x: Matrix,
    /// Each candidate's `(row offset, n_hosts)` in `x`.
    segments: Vec<(usize, usize)>,
    /// The encoder's pre-activation rows; the backward overwrites them
    /// with their gradient.
    z: Matrix,
    /// One head input row per candidate: the pooled encoder rows, then
    /// the pooled graph branch, which is constant across steps.
    pooled: Matrix,
    /// The head's layer outputs and gradients.
    head: Workspace,
    /// `dL/dD` per candidate: `1 / D` while it ascends, 0 once stopped.
    grads: Matrix,
    /// The metric columns of the gradient with respect to `x`.
    d_metrics: Matrix,
    /// Each candidate's last score, and whether it still ascends.
    prev: Vec<f64>,
    active: Vec<bool>,
    /// Whether each row of `x` may differ from its parent row: the rows
    /// the first step of [`GonModel::generate_listed`] encodes.
    fresh: Vec<bool>,
    /// One candidate's pooled gradient divided by its row count.
    unpooled: Vec<f64>,
    /// The GAT pass of the last [`GonModel::score`], which
    /// [`GonModel::backward`] reads.
    graph: Option<Reference>,
}

impl Clone for Pass {
    fn clone(&self) -> Self {
        Self::default()
    }
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
        let ms_encoder = Dense::new(METRIC_DIM + SCHED_DIM, config.hidden, &mut init);

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
            ascent: Pass::default(),
            train: Pass::default(),
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
        self.discriminate(&[state])[0]
    }

    /// Backward pass after [`GonModel::score`] of a state of `n_hosts`
    /// hosts: given `dL/dD`, accumulates parameter gradients and returns
    /// the gradient of the loss with respect to the *metric entries* of
    /// the input (`n_hosts × METRIC_DIM`) — the tensor eq. 1 ascends.
    pub fn backward(&mut self, n_hosts: usize, grad_score: f64) -> Matrix {
        let mut ws = std::mem::take(&mut self.train);
        assert_eq!(ws.segments, [(0, n_hosts)], "score one state first");
        ws.grads.resize(1, 1);
        ws.grads[(0, 0)] = grad_score;
        let g_graph = self.train_backward(&mut ws);
        let graph = ws.graph.as_ref().expect("score runs first");
        self.gat.accumulate_grads(graph, &g_graph);
        self.ms_encoder
            .input_grad_into(&ws.z, METRIC_DIM, &mut ws.d_metrics);
        let dx = ws.d_metrics.clone();
        self.train = ws;
        dx
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
        self.generate_stacked(std::slice::from_ref(state))
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

    /// `D` of every state, one stacked forward in the training
    /// workspace, which keeps the GAT pass for [`GonModel::backward`].
    fn discriminate(&mut self, states: &[&SystemState]) -> Vec<f64> {
        let mut ws = std::mem::take(&mut self.train);
        stack_ms_into(states.iter().copied(), &mut ws.x, &mut ws.segments);
        ws.pooled
            .resize(states.len(), self.config.hidden + self.config.gat_dim);
        ws.graph = Some(self.graph_branch(states, &ws.segments, &mut ws.pooled));
        self.encode(&mut ws, None);
        let scores = self.head.forward(&ws.pooled, &mut ws.head).data().to_vec();
        self.train = ws;
        scores
    }

    /// The training backward of the forward in `ws`: `ws.grads` (one
    /// `dL/dD` per state) through the head, accumulating its parameter
    /// gradients per state; the mean-pool backward of the encoder
    /// columns fused with the `ReLU` mask, written over `ws.z`; the
    /// encoder's parameter gradients per state. Returns the mean-pool
    /// backward of the graph columns, one row per GAT row, for the
    /// caller's GAT backward.
    fn train_backward(&mut self, ws: &mut Pass) -> Matrix {
        let (hidden, gat_dim) = (self.config.hidden, self.config.gat_dim);
        let head_segments: Vec<(usize, usize)> = (0..ws.segments.len()).map(|i| (i, 1)).collect();
        let g_head = self
            .head
            .backward(&ws.pooled, &ws.grads, &head_segments, &mut ws.head);
        let mut g_graph = Matrix::zeros(ws.z.rows(), gat_dim);
        let (segments, scratch) = (&ws.segments, &mut ws.unpooled);
        unpool(g_head, 0..hidden, segments, &mut ws.z, scratch, relu_mask);
        let graph_cols = hidden..hidden + gat_dim;
        unpool(
            g_head,
            graph_cols,
            segments,
            &mut g_graph,
            scratch,
            |g, _| g,
        );
        self.ms_encoder.accumulate_grads(&ws.x, &ws.z, &ws.segments);
        g_graph
    }

    /// Batched [`GonModel::score`]: `D(M, S, G)` for every state, one
    /// stacked forward. Bit-identical to mapping `score` over the batch.
    pub fn score_batch(&mut self, states: &[SystemState]) -> Vec<f64> {
        let refs: Vec<&SystemState> = states.iter().collect();
        self.discriminate(&refs)
    }

    /// Batched [`GonModel::generate`]: runs every candidate's eq.-1 ascent
    /// in lock-step, with per-candidate convergence. Candidates that
    /// overshoot or plateau drop out of the ascent (their recorded best is
    /// frozen); the rest keep ascending on stacked matrices. Bit-identical
    /// to mapping `generate` over the batch: per-candidate trajectories
    /// are row-independent through every layer.
    ///
    /// The graph branch (GAT + pool) sees only graph features and
    /// adjacency — constant across eq.-1 steps — so its pooled embedding
    /// is computed **once per batch**. Every step runs in the model's
    /// reused workspace: the `[M | S]` stack (whose metric columns the
    /// eq.-1 update rewrites in place), the encoder rows, the pooled head
    /// input, the head's layers, and only the `METRIC_DIM` columns of the
    /// input gradient that the ascent reads. Like `generate`, it leaves
    /// parameter gradients untouched; side-effect-free evaluation during
    /// training runs on this.
    pub fn generate_batch(&mut self, states: &[SystemState]) -> Vec<Generated> {
        self.generate_stacked(states)
    }

    /// The [`ParentRecord`] of `parent`: a tabu parent projected from
    /// the snapshot (`snapshot.with_topology(parent topology)`), whose
    /// neighbours [`GonModel::generate_candidates`] then scores as deltas.
    pub fn record_parent(&mut self, parent: &SystemState) -> ParentRecord {
        let (mut ms, mut z) = (Matrix::default(), Matrix::default());
        stack_ms_into(std::iter::once(parent), &mut ms, &mut Vec::new());
        let (gfeat, adjacency) = stacked_graph(&[parent]);
        self.ms_encoder.forward_into(&ms, &mut z);
        ParentRecord {
            topology: parent.topology.clone(),
            graph: self.gat.forward(&gfeat, &adjacency),
            ms,
            z,
        }
    }

    /// [`GonModel::generate_batch`] of candidates given by the rows in
    /// which they differ from the [`GonModel::record_parent`] of their
    /// tabu parent ([`CandidateRows`]).
    ///
    /// The graph branch is [`GraphAttention::forward_delta`] over each
    /// candidate's listed GAT rows, and each candidate pools the
    /// parent's GAT rows with the recomputed ones in their place. The
    /// first ascent step copies the parent's encoder rows for every host
    /// the candidate does not list and runs the encoder only on the
    /// listed ones; later steps move every row and run it whole.
    /// Bit-identical to `generate_batch` of the whole candidate states,
    /// by row independence, whenever the listing covers every row that
    /// differs from the record.
    ///
    /// # Panics
    ///
    /// Panics if a listed host is outside the parent.
    pub fn generate_listed(
        &mut self,
        parent: &ParentRecord,
        candidates: &CandidateRows,
    ) -> Vec<Generated> {
        let b = candidates.len();
        if b == 0 {
            return Vec::new();
        }
        let mut ws = std::mem::take(&mut self.ascent);
        let (n, width) = (parent.ms.rows(), parent.ms.cols());
        ws.x.resize(b * n, width);
        ws.segments.clear();
        ws.fresh.clear();
        ws.fresh.resize(b * n, false);
        for (i, block) in ws.x.data_mut().chunks_exact_mut(n * width).enumerate() {
            ws.segments.push((i * n, n));
            block.copy_from_slice(parent.ms.data());
            for (h, row) in candidates.rows_of(i) {
                block[h * width..(h + 1) * width].copy_from_slice(row);
                ws.fresh[i * n + h] = true;
            }
        }
        ws.pooled
            .resize(b, self.config.hidden + self.config.gat_dim);
        let graphs = &candidates.graphs[..b];
        let patches = self.gat.forward_delta(&parent.graph, graphs);
        for (i, patch) in patches.iter().enumerate() {
            let out = &mut ws.pooled.row_mut(i)[self.config.hidden..];
            pool_rows(out, patch.output_rows(&parent.graph), |v| v);
        }
        let outs = self.ascend(&mut ws, Some(parent));
        self.ascent = ws;
        outs
    }

    /// [`GonModel::generate_listed`] of whole candidate states: each
    /// lists the hosts whose `[M | S]` row, graph features or GAT row
    /// differ from `parent`'s, bit for bit. Bit-identical to
    /// `generate_batch` for any record.
    ///
    /// # Panics
    ///
    /// Panics if a state's host count differs from the parent's.
    pub fn generate_candidates(
        &mut self,
        parent: &ParentRecord,
        states: &[SystemState],
    ) -> Vec<Generated> {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let features = parent.graph.features();
        let mut candidates = CandidateRows::default();
        for s in states {
            assert_eq!(s.n_hosts(), parent.ms.rows(), "host count mismatch");
            candidates.push_candidate();
            for (h, (m, sched)) in s.metrics.iter().zip(&s.schedule).enumerate() {
                let (pm, ps) = parent.ms.row(h).split_at(METRIC_DIM);
                if !same(m, pm) || !same(sched, ps) {
                    candidates.push_row(h, m, sched);
                }
            }
            // Over one broker list a GAT row differs exactly where the
            // role or the host's own worker list does.
            let (t, p) = (&s.topology, &parent.topology);
            let same_brokers = t.brokers() == p.brokers();
            let row_differs = |h| {
                if same_brokers {
                    t.role(h) != p.role(h) || t.workers_of(h) != p.workers_of(h)
                } else {
                    !t.gat_row(h).eq(p.gat_row(h))
                }
            };
            for (h, f) in s.graph_features.iter().enumerate() {
                if !same(f, features.row(h)) || row_differs(h) {
                    candidates.push_graph(h, f, t.gat_row(h));
                }
            }
        }
        self.generate_listed(parent, &candidates)
    }

    /// The GAT pass over the disjoint union of `states`' graphs, each
    /// state's rows (its segment) mean-pooled into the graph columns of
    /// its `pooled` row.
    fn graph_branch(
        &self,
        states: &[&SystemState],
        segments: &[(usize, usize)],
        pooled: &mut Matrix,
    ) -> Reference {
        let (gfeat, adjacency) = stacked_graph(states);
        let graph = self.gat.forward(&gfeat, &adjacency);
        for (i, &(offset, n)) in segments.iter().enumerate() {
            let rows = (offset..offset + n).map(|r| graph.output().row(r));
            pool_rows(&mut pooled.row_mut(i)[self.config.hidden..], rows, |v| v);
        }
        graph
    }

    /// [`GonModel::generate_batch`]: the stacked states' graph branch
    /// whole, then the masked batched ascent.
    fn generate_stacked(&mut self, states: &[SystemState]) -> Vec<Generated> {
        if states.is_empty() {
            return Vec::new();
        }
        let mut ws = std::mem::take(&mut self.ascent);
        stack_ms_into(states.iter(), &mut ws.x, &mut ws.segments);
        ws.pooled
            .resize(states.len(), self.config.hidden + self.config.gat_dim);
        let refs: Vec<&SystemState> = states.iter().collect();
        self.graph_branch(&refs, &ws.segments, &mut ws.pooled);
        let outs = self.ascend(&mut ws, None);
        self.ascent = ws;
        outs
    }

    /// The masked batched eq.-1 ascent of the candidates stacked in `ws`
    /// (`x`, `segments`, and the graph columns of `pooled`, which are
    /// constant across steps). With a `parent`, the first step's encoder
    /// rows outside `ws.fresh` are the record's.
    fn ascend(&mut self, ws: &mut Pass, parent: Option<&ParentRecord>) -> Vec<Generated> {
        let b = ws.segments.len();
        let width = ws.x.cols();
        let mut outs: Vec<Generated> = ws
            .segments
            .iter()
            .map(|&(offset, n)| {
                let mut metrics_flat = Vec::with_capacity(n * METRIC_DIM);
                for row in ws.x.data()[offset * width..(offset + n) * width].chunks_exact(width) {
                    metrics_flat.extend_from_slice(&row[..METRIC_DIM]);
                }
                Generated {
                    metrics_flat,
                    confidence: f64::NEG_INFINITY,
                    iterations: 0,
                }
            })
            .collect();
        ws.prev.clear();
        ws.prev.resize(b, f64::NEG_INFINITY);
        ws.active.clear();
        ws.active.resize(b, true);
        ws.grads.resize(b, 1);
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
            // The first step's rows that equal the parent's are its.
            self.encode(ws, parent.filter(|_| it == 0));
            let scores = self.head.forward(&ws.pooled, &mut ws.head); // [B × 1]
            for i in 0..b {
                ws.grads[(i, 0)] = 0.0;
                if !ws.active[i] {
                    continue;
                }
                let score = scores[(i, 0)];
                if score > outs[i].confidence {
                    outs[i].confidence = score;
                    let rows = ws.x.data().chunks_exact(METRIC_DIM + SCHED_DIM);
                    let (offset, _) = ws.segments[i];
                    let best = outs[i].metrics_flat.chunks_exact_mut(METRIC_DIM);
                    for (dst, row) in best.zip(rows.skip(offset)) {
                        dst.copy_from_slice(&row[..METRIC_DIM]);
                    }
                }
                outs[i].iterations = it + 1;
                // Same stop conditions as the serial loop: overshoot
                // first, then plateau.
                let overshoot = score < ws.prev[i];
                let plateaued = it > 0 && score - ws.prev[i] < tol;
                if overshoot || plateaued {
                    ws.active[i] = false;
                    n_active -= 1;
                } else {
                    ws.prev[i] = score;
                    // ∇_M log D = (1/D) ∇_M D; stopped candidates keep a
                    // zero grad, and their rows are never updated.
                    ws.grads[(i, 0)] = 1.0 / score.max(1e-9);
                }
            }
            if n_active == 0 {
                break; // every remaining candidate stopped this step
            }
            self.metric_gradient(ws);
            for (i, &(offset, n)) in ws.segments.iter().enumerate() {
                if !ws.active[i] {
                    continue;
                }
                for h in offset..offset + n {
                    kernel::ascent_update(
                        &mut ws.x.row_mut(h)[..METRIC_DIM],
                        ws.d_metrics.row(h),
                        self.config.gen_lr,
                    );
                }
            }
        }

        // gen_steps == 0: score the untouched warm start, as `generate`
        // does in its fallback.
        if outs.iter().any(|o| o.confidence == f64::NEG_INFINITY) {
            self.encode(ws, None);
            let scores = self.head.forward(&ws.pooled, &mut ws.head);
            for (i, out) in outs.iter_mut().enumerate() {
                if out.confidence == f64::NEG_INFINITY {
                    out.confidence = scores[(i, 0)];
                }
            }
        }
        outs
    }

    /// The encoder half of an ascent step's forward: the pre-activation
    /// rows of `ws.x` into `ws.z`, then each candidate's mean-pooled
    /// `ReLU` of them into its `pooled` row. With `reuse`, a row not
    /// marked in `ws.fresh` copies the record's encoder row, and each run
    /// of the marked rows goes through the encoder in one call (an
    /// all-fresh chunk is one call over every row).
    fn encode(&self, ws: &mut Pass, reuse: Option<&ParentRecord>) {
        let Pass {
            x,
            z,
            segments,
            pooled,
            fresh,
            ..
        } = ws;
        let (rows, width, hidden) = (x.rows(), x.cols(), self.config.hidden);
        z.resize(rows, hidden);
        match reuse {
            None => self.ms_encoder.forward_rows_into(x.data(), z.data_mut()),
            Some(parent) => {
                let parent_z = parent.z.data().chunks_exact(hidden).cycle();
                // `from` starts the run of fresh rows before row `r`.
                let mut from = 0;
                for (r, (&is_fresh, parent_row)) in fresh.iter().zip(parent_z).enumerate() {
                    if is_fresh {
                        continue;
                    }
                    if from < r {
                        self.ms_encoder.forward_rows_into(
                            &x.data()[from * width..r * width],
                            &mut z.data_mut()[from * hidden..r * hidden],
                        );
                    }
                    z.row_mut(r).copy_from_slice(parent_row);
                    from = r + 1;
                }
                self.ms_encoder.forward_rows_into(
                    &x.data()[from * width..],
                    &mut z.data_mut()[from * hidden..],
                );
            }
        }
        let relu = |v| ActivationKind::Relu.apply(v);
        for (i, &(offset, n)) in segments.iter().enumerate() {
            let rows = (offset..offset + n).map(|r| z.row(r));
            pool_rows(&mut pooled.row_mut(i)[..hidden], rows, relu);
        }
    }

    /// The ascent step's backward, after [`GonModel::encode`] and the
    /// head's forward: `ws.grads` through the head, then the mean-pool
    /// backward fused with the `ReLU` mask, each encoder row's gradient
    /// written over its pre-activation, then only the `METRIC_DIM`
    /// columns of `dX` into `ws.d_metrics`. The GAT branch is skipped:
    /// graph features are a separate input, so it adds nothing to the
    /// metric gradient. Parameter gradients are untouched.
    fn metric_gradient(&mut self, ws: &mut Pass) {
        let hidden = self.config.hidden;
        let g_head = self
            .head
            .backward_input(&ws.pooled, &ws.grads, &mut ws.head);
        let (segments, scratch) = (&ws.segments, &mut ws.unpooled);
        unpool(g_head, 0..hidden, segments, &mut ws.z, scratch, relu_mask);
        self.ms_encoder
            .input_grad_into(&ws.z, METRIC_DIM, &mut ws.d_metrics);
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
    ///    …]`) into a single forward in the training workspace: one
    ///    blocked matmul per layer for the whole minibatch. Each fake is its real twin with only the
    ///    metrics replaced, so graph features and adjacency — the only
    ///    GAT inputs — are identical between the halves: the GAT runs
    ///    over the `B` real components **once** and its pooled embedding
    ///    rows are duplicated to both halves, bitwise equal to pooling
    ///    the fake segments separately. This halves the GAT cost of every
    ///    training step.
    /// 3. **One in-order gradient reduction** — the head and `[M | S]`
    ///    encoder accumulate each segment's parameter gradients in that
    ///    interleaved order via [`nn::Layer::accumulate_grads`], and the
    ///    GAT backpropagates both halves against its single shared pass
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
        // among the reals alone, which is where the GAT pass holds them.
        let pairs = states.iter().zip(&fakes);
        let combined: Vec<&SystemState> = pairs.flat_map(|(real, fake)| [*real, fake]).collect();
        let mut ws = std::mem::take(&mut self.train);
        stack_ms_into(combined.iter().copied(), &mut ws.x, &mut ws.segments);
        let real_segments: Vec<(usize, usize)> = ws
            .segments
            .iter()
            .step_by(2)
            .map(|&(offset, n)| (offset / 2, n))
            .collect();
        let (hidden, width) = (self.config.hidden, self.config.hidden + self.config.gat_dim);
        ws.pooled.resize(combined.len(), width);
        let graph = self.graph_branch(states, &real_segments, &mut ws.pooled);
        // Real_b's pooled graph row goes to rows 2b and 2b + 1, last first.
        for b in (0..states.len()).rev() {
            for row in [2 * b + 1, 2 * b] {
                let from = b * width + hidden..(b + 1) * width;
                ws.pooled.data_mut().copy_within(from, row * width + hidden);
            }
        }
        self.encode(&mut ws, None);
        let scores = self.head.forward(&ws.pooled, &mut ws.head); // [2B × 1]

        // Stage 3: per-segment dL/dD — ascend log D on reals, descend
        // log(1 − D) on fakes — then one in-order gradient reduction.
        ws.grads.resize(combined.len(), 1);
        let mut losses = Vec::with_capacity(states.len());
        for b in 0..states.len() {
            let z_real = scores[(2 * b, 0)].clamp(EPS, 1.0 - EPS);
            let z_fake = scores[(2 * b + 1, 0)].clamp(EPS, 1.0 - EPS);
            ws.grads[(2 * b, 0)] = -1.0 / z_real;
            ws.grads[(2 * b + 1, 0)] = 1.0 / (1.0 - z_fake);
            losses.push(-z_real.ln() - (1.0 - z_fake).ln());
        }

        // The head and `[M | S]` encoder backpropagate per segment, in
        // segment order. Because the stacking interleaves per component,
        // real_b's graph-gradient rows start at twice its pass offset —
        // exactly the [real₀, fake₀, …] layout `backward_interleaved`
        // expects against the single shared (real-only) GAT pass.
        let g_graph = self.train_backward(&mut ws);
        self.gat
            .backward_interleaved(&graph, &g_graph, &real_segments);
        self.train = ws;
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

    /// The training passes and the ascent keep separate workspaces: a
    /// `generate` and a `generate_candidates` between a `score` and its
    /// `backward` change neither the metric dX the backward returns nor
    /// any parameter gradient, bit for bit.
    #[test]
    fn ascent_between_score_and_backward_changes_nothing() {
        let (real, base) = (test_state(8, 2, 0.3), test_state(12, 3, 0.4));
        let mut moved = base.topology.clone();
        moved.reassign(7, 0).unwrap();
        let run = |ascend_between: bool| {
            let mut model = GonModel::new(small_config());
            model.score(&real);
            if ascend_between {
                model.generate(&test_state(6, 2, 0.7));
                let record = model.record_parent(&base);
                model.generate_candidates(&record, &[base.with_topology(&moved)]);
            }
            let dx = model.backward(real.n_hosts(), 0.7);
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let grads: Vec<_> = model.params_mut().iter().map(|p| bits(&p.grad)).collect();
            (bits(&dx), grads)
        };
        assert_eq!(run(true), run(false), "metric dX or a parameter gradient");
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
    /// count and topology, lists every host whose rows differ from it,
    /// so it still gives `generate_batch`'s bits.
    #[test]
    fn generate_candidates_against_another_snapshot_lists_what_differs() {
        let mut model = GonModel::new(small_config());
        let record = model.record_parent(&test_state(12, 3, 0.9));
        let states = [test_state(12, 3, 0.4)];
        let want = model.generate_batch(&states);
        let got = model.generate_candidates(&record, &states);
        assert_same_generations(&got, &want, "another snapshot");
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
