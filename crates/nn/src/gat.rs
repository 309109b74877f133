//! Graph attention layer (eq. 4 of the paper).
//!
//! CAROL encodes the federation topology with a graph attention network so
//! the discriminator is "agnostic to the number of nodes in the system
//! topology" (§IV-A). Each node's feature vector is transformed with a
//! shared dense map, and neighbours are aggregated with dot-product
//! self-attention:
//!
//! ```text
//! h_j = tanh(W·u_j + b)
//! α_ij = softmax_{j ∈ n(i)} ( (W_q h_i) · (W_k h_j) / sqrt(d) )
//! e_i  = tanh( Σ_{j ∈ n(i)} α_ij · h_j )
//! ```
//!
//! The layer is variadic in the node count: the same parameters serve any
//! topology, which is what lets CAROL evaluate candidate graphs of
//! different shapes during tabu search. The graph is an [`Adjacency`]:
//! every node's neighbour row in one flat CSR array, built row by row.

use crate::init::Initializer;
use crate::kernel;
use crate::layer::Param;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Neighbour rows of a graph in compressed sparse row form: row `i` is
/// `targets[offsets[i]..offsets[i + 1]]`.
///
/// Rows are appended with [`Adjacency::push_row`], whose `offset` shifts
/// every index of the row. Pushing several graphs with each one's first
/// row index as its offset builds their *disjoint union* — the stacked
/// layout the batched scorers feed [`GraphAttention::forward`].
///
/// # Examples
///
/// ```
/// use nn::gat::Adjacency;
/// // Two 2-node graphs, each node linked to itself and the other node.
/// let mut adj = Adjacency::default();
/// for offset in [0, 2] {
///     adj.push_row(offset, [0, 1]);
///     adj.push_row(offset, [1, 0]);
/// }
/// assert_eq!(adj.rows(), 4);
/// assert_eq!(adj.row(3), [3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Default for Adjacency {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl Adjacency {
    /// Appends one row: the neighbours `row`, each shifted by `offset`.
    pub fn push_row(&mut self, offset: usize, row: impl IntoIterator<Item = usize>) {
        self.targets.extend(row.into_iter().map(|j| j + offset));
        self.offsets.push(self.targets.len());
    }

    /// Number of rows (nodes).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of node `i`, in push order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.targets[self.span(i)]
    }

    /// Where row `i` lives in `targets` (and in every edge-aligned array).
    fn span(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }
}

/// Graph attention layer with dot-product self-attention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphAttention {
    w: Param,
    b: Param,
    wq: Param,
    wk: Param,
    #[serde(skip)]
    cache: Option<Cache>,
    /// `Wᵀ`, `W_qᵀ` and `W_kᵀ` for the backward's input-gradient
    /// products, built on first use after each
    /// [`GraphAttention::params_mut`], as `Dense` caches its `Wᵀ`.
    #[serde(skip)]
    transposes: Option<[Matrix; 3]>,
}

/// One graph's forward pass: its inputs, the `h`, `q`, `k` rows, the
/// attention values and the output.
#[derive(Debug, Clone)]
struct Record {
    features: Matrix,
    adjacency: Adjacency,
    h: Matrix,
    q: Matrix,
    k: Matrix,
    /// Attention logits, one per edge, aligned with `adjacency.targets`.
    logits: Vec<f64>,
    /// `exp(logit − row max)`, one per edge.
    exps: Vec<f64>,
    /// Each row's largest logit (−∞ for an empty row).
    max: Vec<f64>,
    output: Matrix,
}

/// One graph's forward pass, recorded so that
/// [`GraphAttention::forward_delta`] can evaluate graphs that differ
/// from it in a few nodes by recomputing only the rows those nodes
/// touch. Built by [`GraphAttention::reference`]; only valid with the
/// weights that built it.
#[derive(Debug, Clone)]
pub struct Reference {
    graph: Record,
    /// Row `j`: the nodes whose neighbour row holds `j`.
    incoming: Adjacency,
}

impl Reference {
    /// Number of nodes in the recorded graph.
    pub fn rows(&self) -> usize {
        self.graph.features.rows()
    }

    /// The recorded graph's node features, one row per node.
    pub fn features(&self) -> &Matrix {
        &self.graph.features
    }
}

/// A graph over a [`Reference`]'s nodes, given as its differences from
/// the reference graph: each listed node's feature row and neighbour
/// row. Every node not listed keeps the reference's rows. A node may be
/// listed with its reference rows unchanged.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    nodes: Vec<usize>,
    features: Vec<f64>,
    adjacency: Adjacency,
}

impl GraphDelta {
    /// Gives `node` the feature row `features` and the neighbour row
    /// `row`.
    ///
    /// # Panics
    ///
    /// Panics unless `node` is above every node pushed before it.
    pub fn push(&mut self, node: usize, features: &[f64], row: impl IntoIterator<Item = usize>) {
        assert!(
            self.nodes.last().is_none_or(|&last| last < node),
            "delta nodes must ascend"
        );
        self.nodes.push(node);
        self.features.extend_from_slice(features);
        self.adjacency.push_row(0, row);
    }
}

/// The output rows [`GraphAttention::forward_delta`] recomputed for one
/// [`GraphDelta`]; every other row is the reference's.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Recomputed nodes, ascending.
    rows: Vec<usize>,
    /// One output row per entry of `rows`.
    output: Matrix,
}

impl Patch {
    /// The patched graph's output rows in node order: the recomputed row
    /// where there is one, the reference's otherwise.
    pub fn output_rows<'a>(
        &'a self,
        reference: &'a Reference,
    ) -> impl ExactSizeIterator<Item = &'a [f64]> {
        let mut next = self.rows.iter().enumerate().peekable();
        (0..reference.rows()).map(move |r| match next.next_if(|&(_, &p)| p == r) {
            Some((k, _)) => self.output.row(k),
            None => reference.graph.output.row(r),
        })
    }
}

/// What `backward` needs: the forward's record plus its softmax weights.
#[derive(Debug, Clone)]
struct Cache {
    graph: Record,
    /// Softmax weights, one per edge, aligned with `graph.adjacency`.
    attention: Vec<f64>,
}

/// Marks "no row" in the index arrays of a delta forward.
const NONE: usize = usize::MAX;

/// Where the h/q/k rows of a graph's nodes live: node `g` reads row
/// `fresh_of[g]` of the `fresh` matrices when that entry exists and is
/// not [`NONE`], and row `g` of the `base` ones otherwise.
struct Nodes<'a> {
    base: [&'a Matrix; 3],
    fresh: [&'a Matrix; 3],
    fresh_of: &'a [usize],
}

impl<'a> Nodes<'a> {
    #[inline]
    fn row(&self, which: usize, g: usize) -> &'a [f64] {
        match self.fresh_of.get(g) {
            Some(&s) if s != NONE => self.fresh[which].row(s),
            _ => self.base[which].row(g),
        }
    }

    #[inline]
    fn h(&self, g: usize) -> &'a [f64] {
        self.row(0, g)
    }

    #[inline]
    fn q(&self, g: usize) -> &'a [f64] {
        self.row(1, g)
    }

    #[inline]
    fn k(&self, g: usize) -> &'a [f64] {
        self.row(2, g)
    }
}

/// The reference values one attention row may reuse: `slots[t]` is the
/// reference edge holding row edge `t`'s logit (same query node, same
/// key node, both unchanged), or [`NONE`].
#[derive(Clone, Copy)]
struct Reuse<'a> {
    slots: &'a [usize],
    logits: &'a [f64],
    exps: &'a [f64],
    max: f64,
}

impl Reuse<'_> {
    #[inline]
    fn logit(&self, t: usize) -> Option<f64> {
        let p = self.slots[t];
        (p != NONE).then(|| self.logits[p])
    }

    #[inline]
    fn exp(&self, t: usize) -> Option<f64> {
        let p = self.slots[t];
        (p != NONE).then(|| self.exps[p])
    }
}

/// The per-edge outputs of one attention row, and room for its
/// neighbours' `h` rows.
struct EdgeRow<'a, 'n> {
    logits: &'a mut [f64],
    exps: &'a mut [f64],
    alpha: &'a mut [f64],
    h_rows: &'a mut Vec<&'n [f64]>,
}

/// One node's attention, the one chain every forward form runs: logits
/// `q_i·k_j / √d` (each its own ascending chain, four fresh ones per SIMD
/// call; the exp stays scalar libm), the row max, `exp(logit − max)`, the
/// ordered sum, the divide, the ordered `Σ α_j h_j` into the zeroed `out`
/// and its tanh. With `reuse`, a logit is copied from the reference
/// edge that holds it, and so is its exp when the row max is bitwise the
/// reference max — the same bits this chain would compute. Returns the
/// row max.
fn attend_row<'n>(
    qi: &[f64],
    nbrs: &[usize],
    nodes: &Nodes<'n>,
    scale: f64,
    reuse: Option<Reuse<'_>>,
    edges: EdgeRow<'_, 'n>,
    out: &mut [f64],
) -> f64 {
    let EdgeRow {
        logits,
        exps,
        alpha,
        h_rows,
    } = edges;
    let mut fresh = [0usize; 4];
    let mut pending = 0;
    for t in 0..nbrs.len() {
        if let Some(l) = reuse.and_then(|r| r.logit(t)) {
            logits[t] = l;
            continue;
        }
        fresh[pending] = t;
        pending += 1;
        if pending == 4 {
            let dots = kernel::dot4_rows(
                qi,
                nodes.k(nbrs[fresh[0]]),
                nodes.k(nbrs[fresh[1]]),
                nodes.k(nbrs[fresh[2]]),
                nodes.k(nbrs[fresh[3]]),
            );
            for (&t, &d) in fresh.iter().zip(&dots) {
                logits[t] = d * scale;
            }
            pending = 0;
        }
    }
    for &t in &fresh[..pending] {
        logits[t] = kernel::dot(qi, nodes.k(nbrs[t])) * scale;
    }

    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let same_max = reuse.filter(|r| r.max.to_bits() == max.to_bits());
    for (t, (e, &l)) in exps.iter_mut().zip(logits.iter()).enumerate() {
        *e = same_max
            .and_then(|r| r.exp(t))
            .unwrap_or_else(|| (l - max).exp());
    }
    let denom: f64 = exps.iter().sum();
    for (a, &e) in alpha.iter_mut().zip(exps.iter()) {
        *a = e / denom;
    }
    h_rows.clear();
    h_rows.extend(nbrs.iter().map(|&j| nodes.h(j)));
    kernel::axpy_rows(out, alpha, h_rows);
    for v in out.iter_mut() {
        *v = v.tanh();
    }
    max
}

/// Whether two rows hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl GraphAttention {
    /// New layer mapping `in_dim`-dimensional node features to `out_dim`
    /// embeddings, with `att_dim`-dimensional attention keys/queries.
    pub fn new(in_dim: usize, out_dim: usize, att_dim: usize, init: &mut Initializer) -> Self {
        Self {
            w: Param::new(init.glorot(in_dim, out_dim)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            wq: Param::new(init.glorot(out_dim, att_dim)),
            wk: Param::new(init.glorot(out_dim, att_dim)),
            cache: None,
            transposes: None,
        }
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output embedding dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len() + self.wq.len() + self.wk.len()
    }

    /// Mutable access to all parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.transposes = None;
        vec![&mut self.w, &mut self.b, &mut self.wq, &mut self.wk]
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Forward pass over a graph with `features` (`n × in_dim`) and one
    /// [`Adjacency`] row per node. Include `i` in row `i` to get
    /// self-loops (CAROL does).
    ///
    /// Nodes with empty rows produce zero embeddings.
    ///
    /// Because attention only ever mixes a node with its listed
    /// neighbours, a *disjoint union* of graphs (feature rows stacked,
    /// each graph's rows pushed with its first row index as the offset)
    /// evaluates every component bit-identically to separate forwards —
    /// the contract the batched candidate scorer (`gon`'s `score_batch`)
    /// is built on, and what turns B candidate topologies into one blocked
    /// matmul per layer.
    ///
    /// # Panics
    ///
    /// Panics if `adjacency.rows() != features.rows()`, if
    /// `features.cols() != in_dim`, or if a neighbour index is out of range.
    pub fn forward(&mut self, features: &Matrix, adjacency: &Adjacency) -> Matrix {
        let (graph, attention) = self.attend(features, adjacency);
        let output = graph.output.clone();
        self.cache = Some(Cache { graph, attention });
        output
    }

    /// [`GraphAttention::forward`] without the backward cache, recorded
    /// as a [`Reference`] for [`GraphAttention::forward_delta`].
    ///
    /// # Panics
    ///
    /// As [`GraphAttention::forward`].
    pub fn reference(&self, features: &Matrix, adjacency: &Adjacency) -> Reference {
        let graph = self.attend(features, adjacency).0;
        let n = graph.features.rows();
        let mut offsets = vec![0; n + 1];
        for &j in &graph.adjacency.targets {
            offsets[j + 1] += 1;
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0; graph.adjacency.targets.len()];
        for i in 0..n {
            for &j in graph.adjacency.row(i) {
                targets[fill[j]] = i;
                fill[j] += 1;
            }
        }
        Reference {
            graph,
            incoming: Adjacency { offsets, targets },
        }
    }

    /// Inference-only [`GraphAttention::forward`] of each graph in
    /// `deltas`, given by its differences from `reference`: returns, per
    /// delta, the output rows that differ from the reference's, bit for
    /// bit what `forward` of the whole graph puts there. Every other
    /// row's output is the reference's ([`Patch::output_rows`]).
    ///
    /// A listed node whose feature row differs bitwise from the
    /// reference's gets new `h`, `q`, `k` rows — one gathered matmul per
    /// weight for all deltas. A row is recomputed when its node has new
    /// features, when its neighbour row differs from the reference's, or
    /// when one of its neighbours has new features (found through the
    /// reference's incoming edges); no other row is read. A recomputed
    /// row reuses the reference logit of each edge between unchanged
    /// nodes that the reference row also holds, and that edge's exp too
    /// when the row's max is bitwise the reference max.
    ///
    /// # Panics
    ///
    /// Panics if a delta names a node outside the reference, or has a
    /// feature row not `in_dim` wide.
    pub fn forward_delta(&self, reference: &Reference, deltas: &[GraphDelta]) -> Vec<Patch> {
        let n = reference.rows();
        let in_dim = self.in_dim();
        let graph = &reference.graph;

        // Every delta's changed feature rows, gathered for one projection.
        let mut gathered = Vec::new();
        let mut fresh_rows: Vec<Vec<usize>> = Vec::with_capacity(deltas.len());
        for d in deltas {
            assert_eq!(
                d.features.len(),
                d.nodes.len() * in_dim,
                "feature width mismatch"
            );
            if let Some(&j) = d
                .nodes
                .last()
                .into_iter()
                .chain(&d.adjacency.targets)
                .find(|&&j| j >= n)
            {
                panic!("node {j} out of range for {n} nodes");
            }
            let rows = d.features.chunks_exact(in_dim).zip(&d.nodes);
            fresh_rows.push(
                rows.map(|(f, &g)| {
                    if same_bits(f, graph.features.row(g)) {
                        NONE
                    } else {
                        gathered.extend_from_slice(f);
                        gathered.len() / in_dim - 1
                    }
                })
                .collect(),
            );
        }
        let gathered = Matrix::from_vec(gathered.len() / in_dim, in_dim, gathered);
        let [fresh_h, fresh_q, fresh_k] = self.project(&gathered);

        let scale = self.scale();
        // Per node, reset after every delta: its fresh h/q/k row and its
        // place in the delta's node list. `position[x]`: the reference
        // edge from the row being recomputed to node `x`; reset after
        // every row.
        let mut fresh_of = vec![NONE; n];
        let mut listed = vec![NONE; n];
        let mut position = vec![NONE; n];
        let (mut slots, mut logits, mut exps, mut alpha) = (vec![], vec![], vec![], vec![]);
        let mut patches = Vec::with_capacity(deltas.len());
        for (d, fresh) in deltas.iter().zip(&fresh_rows) {
            for (p, (&g, &f)) in d.nodes.iter().zip(fresh).enumerate() {
                fresh_of[g] = f;
                listed[g] = p;
            }
            let nodes = Nodes {
                base: [&graph.h, &graph.q, &graph.k],
                fresh: [&fresh_h, &fresh_q, &fresh_k],
                fresh_of: &fresh_of,
            };
            let mut h_rows = Vec::new();
            let row_of = |i: usize| match listed[i] {
                NONE => graph.adjacency.row(i),
                p => d.adjacency.row(p),
            };

            let mut rows: Vec<usize> = Vec::new();
            for (p, &g) in d.nodes.iter().enumerate() {
                let nbrs = d.adjacency.row(p);
                if fresh_of[g] != NONE
                    || nbrs != graph.adjacency.row(g)
                    || nbrs.iter().any(|&j| fresh_of[j] != NONE)
                {
                    rows.push(g);
                }
            }
            for &g in d.nodes.iter().filter(|&&g| fresh_of[g] != NONE) {
                rows.extend(
                    reference
                        .incoming
                        .row(g)
                        .iter()
                        .filter(|&&i| listed[i] == NONE),
                );
            }
            rows.sort_unstable();
            rows.dedup();

            let mut output = Matrix::zeros(rows.len(), self.out_dim());
            for (r, &i) in rows.iter().enumerate() {
                let nbrs = row_of(i);
                let len = nbrs.len();
                for buf in [&mut logits, &mut exps, &mut alpha] {
                    buf.resize(len.max(buf.len()), 0.0);
                }
                // An unchanged query reuses the logits of its reference
                // row's edges to unchanged keys.
                slots.clear();
                if fresh_of[i] == NONE {
                    let ref_row = graph.adjacency.row(i);
                    for (p, &x) in graph.adjacency.span(i).zip(ref_row) {
                        position[x] = p;
                    }
                    slots.extend(nbrs.iter().map(|&j| match fresh_of[j] {
                        NONE => position[j],
                        _ => NONE,
                    }));
                    for &x in ref_row {
                        position[x] = NONE;
                    }
                }
                let reuse = (fresh_of[i] == NONE).then_some(Reuse {
                    slots: &slots,
                    logits: &graph.logits,
                    exps: &graph.exps,
                    max: graph.max[i],
                });
                attend_row(
                    nodes.q(i),
                    nbrs,
                    &nodes,
                    scale,
                    reuse,
                    EdgeRow {
                        logits: &mut logits[..len],
                        exps: &mut exps[..len],
                        alpha: &mut alpha[..len],
                        h_rows: &mut h_rows,
                    },
                    output.row_mut(r),
                );
            }
            for &g in &d.nodes {
                (fresh_of[g], listed[g]) = (NONE, NONE);
            }
            patches.push(Patch { rows, output });
        }
        patches
    }

    /// The shape and index checks every forward form makes.
    fn check_graph(&self, features: &Matrix, adjacency: &Adjacency) {
        let n = features.rows();
        assert_eq!(adjacency.rows(), n, "one neighbour list per node required");
        assert_eq!(features.cols(), self.in_dim(), "feature width mismatch");
        if let Some(j) = adjacency.targets.iter().find(|&&j| j >= n) {
            panic!("neighbour index {j} out of range for {n} nodes");
        }
    }

    /// `h = tanh(U·W + b)`, `q = h·W_q` and `k = h·W_k` of `features`'
    /// rows: one matmul per weight, each row independent of the others.
    fn project(&self, features: &Matrix) -> [Matrix; 3] {
        let h = features
            .matmul(&self.w.value)
            .add_row_broadcast(&self.b.value)
            .map(f64::tanh);
        let q = h.matmul(&self.wq.value);
        let k = h.matmul(&self.wk.value);
        [h, q, k]
    }

    /// The logit scale `1/√d` of the attention width.
    fn scale(&self) -> f64 {
        1.0 / (self.wq.value.cols() as f64).sqrt()
    }

    /// The full forward: every row through [`attend_row`]. Returns the
    /// record and the softmax weights.
    fn attend(&self, features: &Matrix, adjacency: &Adjacency) -> (Record, Vec<f64>) {
        self.check_graph(features, adjacency);
        let n = features.rows();
        let [h, q, k] = self.project(features);
        let empty = Matrix::zeros(0, 0);
        let nodes = Nodes {
            base: [&h, &q, &k],
            fresh: [&empty, &empty, &empty],
            fresh_of: &[],
        };
        let scale = self.scale();
        let edges = adjacency.targets.len();
        let (mut logits, mut exps, mut alpha) =
            (vec![0.0; edges], vec![0.0; edges], vec![0.0; edges]);
        let mut max = vec![f64::NEG_INFINITY; n];
        let mut output = Matrix::zeros(n, self.out_dim());
        let mut h_rows = Vec::new();
        for (i, m) in max.iter_mut().enumerate() {
            let span = adjacency.span(i);
            *m = attend_row(
                q.row(i),
                adjacency.row(i),
                &nodes,
                scale,
                None,
                EdgeRow {
                    logits: &mut logits[span.clone()],
                    exps: &mut exps[span.clone()],
                    alpha: &mut alpha[span],
                    h_rows: &mut h_rows,
                },
                output.row_mut(i),
            );
        }
        let graph = Record {
            features: features.clone(),
            adjacency: adjacency.clone(),
            h,
            q,
            k,
            logits,
            exps,
            max,
            output,
        };
        (graph, alpha)
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input features.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphAttention::forward`].
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let n = self.cached_rows();
        self.backward_batch(grad_output, &[(0, n)])
    }

    /// Batched [`GraphAttention::backward`] over the disjoint union of
    /// per-sample graphs (the stacked layout [`GraphAttention::forward`]
    /// documents): accumulates parameter gradients **per `(row offset,
    /// node count)` segment, in segment order**, bit-identical to running
    /// `forward` + `backward` once per component graph. Attention never
    /// crosses segment boundaries, so the per-node gradient flows are
    /// already block-diagonal; only the four parameter-gradient
    /// reductions (`W`, `b`, `W_q`, `W_k`) need the segment structure to
    /// keep the f64 accumulation chains per-sample.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphAttention::forward`], if the
    /// segments don't tile the cached rows, or if `grad_output` doesn't
    /// hold one row per cached row.
    pub fn backward_batch(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let n = self.tiled_rows(segments);
        assert_eq!(
            grad_output.shape(),
            (n, self.out_dim()),
            "grad_output shape mismatch"
        );
        let grad_segments: Vec<_> = segments.iter().map(|&(o, k)| (o, k, o)).collect();
        let d_hpre = self.backward_segments(grad_output, &grad_segments);
        d_hpre.matmul(&self.transposes()[0])
    }

    /// Backward over **interleaved real/fake gradient pairs sharing one
    /// cached forward** — the stacked-discriminator lever: in
    /// `adversarial_step_batch` every fake sample is its real sample with
    /// only the metric columns replaced, and the GAT consumes graph
    /// features + adjacency only, so the fake component's forward rows
    /// are bitwise duplicates of the real component's. This method lets
    /// the model run the GAT forward over the `B` real components once
    /// and still backpropagate `2B` gradient segments.
    ///
    /// `segments` are the **cache** segments of the forward pass (one
    /// `(row offset, node count)` per component). `grad_output` has
    /// twice the cached rows, laid out `[real₀, fake₀, real₁, fake₁, …]`:
    /// component `b` with cache offset `o_b` owns grad rows
    /// `[2o_b, 2o_b+n_b)` (real) and `[2o_b+n_b, 2o_b+2n_b)` (fake).
    /// Parameter gradients accumulate in grad-segment order — exactly
    /// the order `backward_batch` over a physically duplicated stacking
    /// would use, so the result is bit-identical to it. The gradient
    /// with respect to the input features is **not** computed (every
    /// adversarial caller discards it), which also skips the final
    /// `dX = dH_pre·Wᵀ` product.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphAttention::forward`], if the
    /// segments don't tile the cached rows, or if `grad_output` doesn't
    /// hold exactly two rows per cached row.
    pub fn backward_interleaved(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) {
        let n = self.tiled_rows(segments);
        assert_eq!(
            grad_output.shape(),
            (2 * n, self.out_dim()),
            "grad_output must hold interleaved real/fake rows"
        );
        let grad_segments: Vec<_> = segments
            .iter()
            .flat_map(|&(o, k)| [(o, k, 2 * o), (o, k, 2 * o + k)])
            .collect();
        self.backward_segments(grad_output, &grad_segments);
    }

    /// `[Wᵀ, W_qᵀ, W_kᵀ]`, built if [`GraphAttention::params_mut`]
    /// dropped them.
    fn transposes(&mut self) -> &[Matrix; 3] {
        self.transposes
            .get_or_insert_with(|| [&self.w, &self.wq, &self.wk].map(|p| p.value.transpose()))
    }

    fn cached_rows(&self) -> usize {
        self.cache
            .as_ref()
            .expect("GraphAttention::backward called before forward")
            .graph
            .features
            .rows()
    }

    /// The cached row count, checked to equal the segments' total.
    fn tiled_rows(&self, segments: &[(usize, usize)]) -> usize {
        let n = self.cached_rows();
        assert_eq!(
            segments.iter().map(|&(_, k)| k).sum::<usize>(),
            n,
            "segments must tile the cached node rows"
        );
        n
    }

    /// The backward both public forms share. Each `(cache row, node
    /// count, grad row)` segment backpropagates grad rows `[grad row,
    /// grad row + count)` through cached component `[cache row, cache row
    /// + count)`; parameter gradients accumulate per segment, in segment
    /// order. Returns `dL/dH_pre`, laid out like `grad_output`.
    fn backward_segments(
        &mut self,
        grad_output: &Matrix,
        segments: &[(usize, usize, usize)],
    ) -> Matrix {
        let rows = grad_output.rows();
        let d_out = self.out_dim();
        let d_att = self.wq.value.cols();
        let scale = 1.0 / (d_att as f64).sqrt();
        self.transposes();
        let [_, wqt, wkt] = self.transposes.as_ref().expect("just built");
        let cache = self
            .cache
            .as_ref()
            .expect("GraphAttention::backward called before forward");

        // Through a tanh whose outputs are the cached `y`: each grad row
        // scales by `1 − y²` of the cache row it backs onto.
        let through_tanh = |d: &mut Matrix, y: &Matrix| {
            for &(co, nb, go) in segments {
                for r in 0..nb {
                    for c in 0..d_out {
                        let y = y[(co + r, c)];
                        d[(go + r, c)] *= 1.0 - y * y;
                    }
                }
            }
        };

        // Through the output tanh, then the attention rows.
        let mut d_agg = grad_output.clone();
        through_tanh(&mut d_agg, &cache.graph.output);
        let mut d_h = Matrix::zeros(rows, d_out);
        let mut d_q = Matrix::zeros(rows, d_att);
        let mut d_k = Matrix::zeros(rows, d_att);
        for &(co, nb, go) in segments {
            attention_backward_rows(
                cache,
                scale,
                &d_agg,
                &mut d_h,
                &mut d_q,
                &mut d_k,
                co,
                co + nb,
                go - co,
            );
        }

        // Through Q = H·Wq and K = H·Wk, one segment at a time so each
        // `Hᵀ·dQ` reduction chain matches the serial per-sample backward.
        for &(co, nb, go) in segments {
            let hseg = cache.graph.h.row_block(co, nb).transpose();
            self.wq
                .grad
                .add_in_place(&hseg.matmul(&d_q.row_block(go, nb)));
            self.wk
                .grad
                .add_in_place(&hseg.matmul(&d_k.row_block(go, nb)));
        }
        d_h.add_in_place(&d_q.matmul(wqt));
        d_h.add_in_place(&d_k.matmul(wkt));

        // Through H = tanh(U·W + b).
        let mut d_hpre = d_h;
        through_tanh(&mut d_hpre, &cache.graph.h);
        for &(co, nb, go) in segments {
            let useg = cache.graph.features.row_block(co, nb);
            let gseg = d_hpre.row_block(go, nb);
            self.w.grad.add_in_place(&useg.transpose().matmul(&gseg));
            self.b.grad.add_in_place(&gseg.sum_rows());
        }
        d_hpre
    }
}

/// The attention/softmax backward for cache nodes `[cache_lo, cache_hi)`
/// whose gradient rows live at `cache row + delta` — one call per
/// segment of `GraphAttention::backward_segments`. Per neighbour: `dα = dAgg_i·h_j` (four chains as SIMD lanes),
/// the aggregation path `d_h[j] += α·dAgg_i`, then the softmax backward
/// `ds = α(dα − Σ α dα)` feeding `d_q`/`d_k` — every f64 chain in the
/// same order as the original fused loop.
#[allow(clippy::too_many_arguments)]
fn attention_backward_rows(
    cache: &Cache,
    scale: f64,
    d_agg: &Matrix,
    d_h: &mut Matrix,
    d_q: &mut Matrix,
    d_k: &mut Matrix,
    cache_lo: usize,
    cache_hi: usize,
    delta: usize,
) {
    // dα of one row, reused across rows (every slot is written before
    // it is read).
    let mut d_alpha: Vec<f64> = Vec::new();
    for i in cache_lo..cache_hi {
        let nbrs = cache.graph.adjacency.row(i);
        if nbrs.is_empty() {
            continue;
        }
        let alpha = &cache.attention[cache.graph.adjacency.span(i)];
        let ig = i + delta;
        // dα_ij = dAgg_i · h_j ; and aggregation path into h_j.
        d_alpha.resize(nbrs.len(), 0.0);
        let mut idx = 0;
        while idx + 4 <= nbrs.len() {
            let dots = kernel::dot4_rows(
                d_agg.row(ig),
                cache.graph.h.row(nbrs[idx]),
                cache.graph.h.row(nbrs[idx + 1]),
                cache.graph.h.row(nbrs[idx + 2]),
                cache.graph.h.row(nbrs[idx + 3]),
            );
            d_alpha[idx..idx + 4].copy_from_slice(&dots);
            for t in 0..4 {
                kernel::axpy(
                    d_h.row_mut(nbrs[idx + t] + delta),
                    alpha[idx + t],
                    d_agg.row(ig),
                );
            }
            idx += 4;
        }
        while idx < nbrs.len() {
            d_alpha[idx] = kernel::dot(d_agg.row(ig), cache.graph.h.row(nbrs[idx]));
            kernel::axpy(d_h.row_mut(nbrs[idx] + delta), alpha[idx], d_agg.row(ig));
            idx += 1;
        }
        // Softmax backward: ds_j = α_j (dα_j − Σ_k α_k dα_k).
        let weighted: f64 = alpha.iter().zip(&d_alpha).map(|(a, d)| a * d).sum();
        for (idx, &j) in nbrs.iter().enumerate() {
            let ds = alpha[idx] * (d_alpha[idx] - weighted);
            kernel::axpy_scaled(d_q.row_mut(ig), ds, cache.graph.k.row(j), scale);
            kernel::axpy_scaled(d_k.row_mut(j + delta), ds, cache.graph.q.row(i), scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_abs_diff, numerical_grad};

    /// Pushes an `n`-node ring (self, next, previous) whose first row is
    /// `offset`.
    fn push_ring(adj: &mut Adjacency, offset: usize, n: usize) {
        for i in 0..n {
            adj.push_row(offset, [i, (i + 1) % n, (i + n - 1) % n]);
        }
    }

    fn ring(n: usize) -> Adjacency {
        let mut adj = Adjacency::default();
        push_ring(&mut adj, 0, n);
        adj
    }

    /// The disjoint union of one ring per matrix: rows stacked, each ring
    /// pushed at its component's row offset, plus the `(offset, n)`
    /// segments.
    fn stack_rings<'a>(
        parts: impl IntoIterator<Item = &'a Matrix>,
    ) -> (Matrix, Adjacency, Vec<(usize, usize)>) {
        let parts: Vec<&Matrix> = parts.into_iter().collect();
        let total: usize = parts.iter().map(|m| m.rows()).sum();
        let mut stacked = Matrix::zeros(total, parts[0].cols());
        let mut adj = Adjacency::default();
        let mut segments = Vec::new();
        let mut offset = 0;
        for part in parts {
            let n = part.rows();
            for r in 0..n {
                stacked.row_mut(offset + r).copy_from_slice(part.row(r));
            }
            push_ring(&mut adj, offset, n);
            segments.push((offset, n));
            offset += n;
        }
        (stacked, adj, segments)
    }

    #[test]
    fn output_shape_follows_node_count() {
        let mut init = Initializer::new(1);
        let mut gat = GraphAttention::new(4, 6, 3, &mut init);
        for n in [2usize, 5, 9] {
            let feats = Initializer::new(n as u64).normal(n, 4, 1.0);
            let out = gat.forward(&feats, &ring(n));
            assert_eq!(out.shape(), (n, 6));
        }
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut init = Initializer::new(2);
        let mut gat = GraphAttention::new(3, 4, 4, &mut init);
        let feats = Initializer::new(3).normal(5, 3, 1.0);
        gat.forward(&feats, &ring(5));
        let cache = gat.cache.as_ref().unwrap();
        assert_eq!(cache.attention.len(), 15);
        for i in 0..5 {
            let alpha = &cache.attention[cache.graph.adjacency.span(i)];
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn isolated_node_gets_zero_embedding() {
        let mut init = Initializer::new(4);
        let mut gat = GraphAttention::new(3, 4, 2, &mut init);
        let feats = Initializer::new(9).normal(3, 3, 1.0);
        let mut adj = Adjacency::default();
        adj.push_row(0, [0, 1]);
        adj.push_row(0, [1, 0]);
        adj.push_row(0, []);
        let out = gat.forward(&feats, &adj);
        // tanh(0) = 0 for the isolated node's row.
        assert!(out.row(2).iter().all(|&v| v == 0.0));
    }

    /// The cached transposes follow a weight change made through
    /// `params_mut`: the input gradient after it equals a fresh layer's
    /// with the changed weights.
    #[test]
    fn cached_transposes_are_invalidated_by_params_mut() {
        let mut gat = GraphAttention::new(3, 4, 3, &mut Initializer::new(8));
        let feats = Initializer::new(14).normal(4, 3, 0.8);
        let adj = ring(4);
        let grad = Initializer::new(15).normal(4, 4, 0.5);
        gat.forward(&feats, &adj);
        let before = gat.backward(&grad);
        for p in gat.params_mut() {
            p.value = p.value.scale(1.5);
        }
        let mut fresh = gat.clone();
        fresh.transposes = None;
        gat.forward(&feats, &adj);
        fresh.forward(&feats, &adj);
        let after = gat.backward(&grad);
        assert_ne!(before, after, "stale transposes survived params_mut");
        assert_eq!(after, fresh.backward(&grad));
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut init = Initializer::new(7);
        let mut gat = GraphAttention::new(3, 4, 3, &mut init);
        let feats = Initializer::new(13).normal(4, 3, 0.8);
        let adj = ring(4);

        let loss = |g: &mut GraphAttention, x: &Matrix| -> f64 {
            let y = g.forward(x, &adj);
            0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
        };

        let y = gat.forward(&feats, &adj);
        let analytic = gat.backward(&y);
        let numeric = numerical_grad(&feats, 1e-6, |probe| loss(&mut gat, probe));
        assert!(
            max_abs_diff(&analytic, &numeric) < 1e-6,
            "GAT input gradient mismatch"
        );
    }

    #[test]
    fn parameter_gradients_match_numerical() {
        let mut init = Initializer::new(21);
        let mut gat = GraphAttention::new(2, 3, 2, &mut init);
        let feats = Initializer::new(5).normal(3, 2, 0.7);
        let adj = ring(3);

        let y = gat.forward(&feats, &adj);
        gat.backward(&y);
        let analytic: Vec<Matrix> = gat.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Numerically perturb each parameter tensor in turn.
        for which in 0..4 {
            let base = {
                let params = gat.params_mut();
                params[which].value.clone()
            };
            let numeric = numerical_grad(&base, 1e-6, |probe| {
                {
                    let mut params = gat.params_mut();
                    params[which].value = probe.clone();
                }
                let y = gat.forward(&feats, &adj);
                {
                    let mut params = gat.params_mut();
                    params[which].value = base.clone();
                }
                0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
            });
            assert!(
                max_abs_diff(&analytic[which], &numeric) < 1e-6,
                "parameter {which} gradient mismatch"
            );
        }
    }

    #[test]
    fn disjoint_union_is_bit_identical_to_separate_forwards() {
        // Stack three differently-sized ring graphs into one block-
        // diagonal batch; every component's embedding rows must match the
        // per-graph forward bit-for-bit (the batched-candidate contract).
        let mut init = Initializer::new(31);
        let mut gat = GraphAttention::new(3, 5, 4, &mut init);
        let feats: Vec<Matrix> = [3usize, 4, 6]
            .iter()
            .enumerate()
            .map(|(i, &n)| Initializer::new(40 + i as u64).normal(n, 3, 0.9))
            .collect();
        let (stacked, adj, segments) = stack_rings(&feats);

        let batched = gat.forward(&stacked, &adj);
        for (f, &(offset, n)) in feats.iter().zip(&segments) {
            let single = gat.forward(f, &ring(n));
            for r in 0..n {
                for (a, b) in batched.row(offset + r).iter().zip(single.row(r)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "component of {n} nodes diverged at row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_batch_over_disjoint_union_matches_per_graph_backwards() {
        // Stack three ring graphs block-diagonally; backward_batch with
        // per-graph segments must accumulate exactly the parameter
        // gradients (and input gradients) of three separate
        // forward+backward passes, bit for bit.
        let mut init = Initializer::new(37);
        let mut gat = GraphAttention::new(3, 5, 4, &mut init);
        let sizes = [2usize, 4, 3];
        let feats: Vec<Matrix> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Initializer::new(50 + i as u64).normal(n, 3, 0.8))
            .collect();
        let grads_out: Vec<Matrix> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Initializer::new(60 + i as u64).normal(n, 5, 0.5))
            .collect();

        // Serial reference, grads accumulating across graphs in order.
        let mut serial = gat.clone();
        let mut serial_dx = Vec::new();
        for (f, g) in feats.iter().zip(&grads_out) {
            serial.forward(f, &ring(f.rows()));
            serial_dx.push(serial.backward(g));
        }
        let serial_grads: Vec<Matrix> =
            serial.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Stacked disjoint union.
        let (stacked, adj, segments) = stack_rings(&feats);
        let (stacked_g, _, _) = stack_rings(&grads_out);

        gat.forward(&stacked, &adj);
        let dx = gat.backward_batch(&stacked_g, &segments);
        for (&(offset, n), want) in segments.iter().zip(&serial_dx) {
            let got = dx.row_block(offset, n);
            for (a, b) in got.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "GAT input gradient diverged");
            }
        }
        for (p, want) in gat.params_mut().iter().zip(&serial_grads) {
            for (a, b) in p.grad.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "GAT parameter gradient diverged");
            }
        }
    }

    /// `backward_interleaved` over one cached forward of B components
    /// must accumulate bit-identical parameter gradients to
    /// `backward_batch` over a physically duplicated stacking
    /// [real₀, fake₀, real₁, …] — the shared-embedding lever's contract.
    #[test]
    fn backward_interleaved_matches_duplicated_stacking_bitwise() {
        let mut init = Initializer::new(43);
        let gat = GraphAttention::new(3, 5, 4, &mut init);
        let sizes = [3usize, 5, 2];
        let feats: Vec<Matrix> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Initializer::new(70 + i as u64).normal(n, 3, 0.8))
            .collect();
        // Distinct real/fake gradients per component.
        let grads: Vec<Matrix> = sizes
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| {
                [
                    Initializer::new(80 + i as u64).normal(n, 5, 0.5),
                    Initializer::new(90 + i as u64).normal(n, 5, 0.5),
                ]
            })
            .collect();
        let (grad_rows, _, _) = stack_rings(&grads);

        // Reference: every component physically duplicated.
        let (dup_feats, dup_adj, dup_segs) = stack_rings(feats.iter().flat_map(|f| [f, f]));
        let mut reference = gat.clone();
        reference.forward(&dup_feats, &dup_adj);
        reference.backward_batch(&grad_rows, &dup_segs);
        let want: Vec<Matrix> = reference
            .params_mut()
            .iter()
            .map(|p| p.grad.clone())
            .collect();

        // Lever: forward each component once, backprop both halves.
        let (feats1, adj1, segs1) = stack_rings(&feats);
        let mut lever = gat.clone();
        lever.forward(&feats1, &adj1);
        lever.backward_interleaved(&grad_rows, &segs1);
        for (p, want) in lever.params_mut().iter().zip(&want) {
            for (a, b) in p.grad.data().iter().zip(want.data()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "interleaved backward diverged from duplicated stacking"
                );
            }
        }
    }

    /// A random graph: `n` feature rows and, per node, a random
    /// neighbour row (self first, then up to five others in random order;
    /// every fourth row empty).
    fn random_graph(n: usize, seed: u64) -> (Matrix, Vec<Vec<usize>>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let feats = Initializer::new(seed).normal(n, 3, 1.0);
        let rows = (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    return Vec::new();
                }
                let mut row = vec![i];
                for _ in 0..rng.gen_range(1..6) {
                    let j = rng.gen_range(0..n);
                    if !row.contains(&j) {
                        row.push(j);
                    }
                }
                row
            })
            .collect();
        (feats, rows)
    }

    fn to_adjacency(rows: &[Vec<usize>]) -> Adjacency {
        let mut adj = Adjacency::default();
        for row in rows {
            adj.push_row(0, row.iter().copied());
        }
        adj
    }

    /// The graph `(feats, rows)` as a delta listing `nodes`.
    fn delta_of(feats: &Matrix, rows: &[Vec<usize>], nodes: &[usize]) -> GraphDelta {
        let mut delta = GraphDelta::default();
        for &g in nodes {
            delta.push(g, feats.row(g), rows[g].iter().copied());
        }
        delta
    }

    /// The nodes whose feature or neighbour row differs from the
    /// reference graph's.
    fn changed(base: (&Matrix, &[Vec<usize>]), feats: &Matrix, rows: &[Vec<usize>]) -> Vec<usize> {
        (0..rows.len())
            .filter(|&g| rows[g] != base.1[g] || !same_bits(feats.row(g), base.0.row(g)))
            .collect()
    }

    /// `forward_delta` of the graph `(feats, rows)`, listing `nodes`,
    /// patches `reference` into exactly `forward`'s output, bit for bit.
    /// Returns the rows it recomputed.
    fn assert_delta_is_forward(
        gat: &GraphAttention,
        reference: &Reference,
        (feats, rows): (&Matrix, &[Vec<usize>]),
        nodes: &[usize],
        case: &str,
    ) -> Vec<usize> {
        let want = gat.clone().forward(feats, &to_adjacency(rows));
        let patch = gat
            .forward_delta(reference, &[delta_of(feats, rows, nodes)])
            .pop()
            .expect("one patch per delta");
        assert!(patch.rows.windows(2).all(|w| w[0] < w[1]), "{case}: rows");
        for (r, got) in patch.output_rows(reference).enumerate() {
            for (a, b) in got.iter().zip(want.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{case}: row {r} ({a} vs {b})");
            }
        }
        patch.rows
    }

    #[test]
    fn delta_forward_is_bit_identical_to_forward() {
        let gat = GraphAttention::new(3, 5, 4, &mut Initializer::new(101));
        let scale = gat.scale();
        for seed in 0..6u64 {
            let n = 16;
            let (feats, rows) = random_graph(n, 200 + seed);
            let reference = gat.reference(&feats, &to_adjacency(&rows));
            let graph = &reference.graph;
            let every: Vec<usize> = (0..n).collect();
            let check = |f: &Matrix, r: &[Vec<usize>], case: &str| {
                let case = format!("seed {seed}: {case}");
                // The exact changes, and every node listed.
                let exact = changed((&feats, &rows), f, r);
                assert_delta_is_forward(&gat, &reference, (f, r), &exact, &case);
                let all = format!("{case}, every node listed");
                assert_delta_is_forward(&gat, &reference, (f, r), &every, &all)
            };

            let kept = check(&feats, &rows, "unchanged graph");
            assert!(kept.is_empty(), "an unchanged graph recomputes {kept:?}");

            let mut edited = feats.clone();
            let noise = Initializer::new(300 + seed).normal(3, 3, 1.0);
            for (r, node) in [1usize, 6, 9].into_iter().enumerate() {
                edited.row_mut(node).copy_from_slice(noise.row(r));
            }
            check(&edited, &rows, "edited feature rows");

            let mut grown = rows.clone();
            grown[0].extend([5, 11, 14]);
            grown[2].truncate(1);
            check(&feats, &grown, "a row gains targets, a row loses them");

            let mut emptied = rows.clone();
            emptied[4].clear();
            emptied[3] = vec![3, 7];
            check(&feats, &emptied, "a row empties, an empty row fills");

            // A new neighbour whose logit tops the row: reused exps would
            // be stale, so every exp of the row must be recomputed.
            let logit = |i: usize, j: usize| kernel::dot(graph.q.row(i), graph.k.row(j)) * scale;
            let (i, j) = (0..n)
                .filter(|&i| !rows[i].is_empty())
                .find_map(|i| {
                    (0..n)
                        .filter(|j| !rows[i].contains(j))
                        .find(|&j| logit(i, j) > graph.max[i])
                        .map(|j| (i, j))
                })
                .expect("some node must out-score a row's max");
            let mut topped = rows.clone();
            topped[i].push(j);
            check(&feats, &topped, "a new neighbour holds the max");

            // Drop each row's max holder in turn.
            let mut beheaded = rows.clone();
            for (i, row) in beheaded.iter_mut().enumerate() {
                if let Some(t) = row
                    .iter()
                    .position(|&j| logit(i, j).to_bits() == graph.max[i].to_bits())
                {
                    row.remove(t);
                }
            }
            check(&feats, &beheaded, "the max holders removed");

            check(&edited, &topped, "edits and a new max together");
        }
    }

    #[test]
    fn deltas_of_one_call_match_their_own_calls() {
        // Three graphs over one reference in one call share the gathered
        // projection; each patch must equal that delta's call alone.
        let gat = GraphAttention::new(3, 5, 4, &mut Initializer::new(103));
        let n = 12;
        let (feats, rows) = random_graph(n, 77);
        let reference = gat.reference(&feats, &to_adjacency(&rows));
        let mut deltas = Vec::new();
        for b in 0..3 {
            let (mut f, mut r) = (feats.clone(), rows.clone());
            if b != 2 {
                r[5].push(8 - 3 * b);
                f.row_mut(2 + b)[0] += 0.5;
            }
            let nodes = changed((&feats, &rows), &f, &r);
            deltas.push(delta_of(&f, &r, &nodes));
            assert_delta_is_forward(&gat, &reference, (&f, &r), &nodes, "alone");
        }
        let together = gat.forward_delta(&reference, &deltas);
        for (d, patch) in deltas.iter().zip(&together) {
            let alone = gat.forward_delta(&reference, std::slice::from_ref(d));
            assert_eq!(patch.rows, alone[0].rows);
            for (a, b) in patch.output.data().iter().zip(alone[0].output.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "a shared call diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "delta nodes must ascend")]
    fn delta_nodes_must_ascend() {
        let mut delta = GraphDelta::default();
        delta.push(3, &[0.0], [3]);
        delta.push(1, &[0.0], [1]);
    }

    #[test]
    #[should_panic(expected = "one neighbour list per node")]
    fn neighbor_list_length_checked() {
        let mut init = Initializer::new(0);
        let mut gat = GraphAttention::new(2, 2, 2, &mut init);
        let mut adj = Adjacency::default();
        adj.push_row(0, [0]);
        gat.forward(&Matrix::zeros(3, 2), &adj);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_bounds_checked() {
        let mut init = Initializer::new(0);
        let mut gat = GraphAttention::new(2, 2, 2, &mut init);
        let mut adj = Adjacency::default();
        adj.push_row(0, [5]);
        adj.push_row(0, [0]);
        gat.forward(&Matrix::zeros(2, 2), &adj);
    }
}
