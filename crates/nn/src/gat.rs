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
//! different shapes during tabu search.

use crate::init::Initializer;
use crate::kernel;
use crate::layer::Param;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Graph attention layer with dot-product self-attention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphAttention {
    w: Param,
    b: Param,
    wq: Param,
    wk: Param,
    #[serde(skip)]
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    features: Matrix,
    h: Matrix,
    q: Matrix,
    k: Matrix,
    attention: Vec<Vec<f64>>,
    neighbors: Vec<Vec<usize>>,
    output: Matrix,
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
        vec![&mut self.w, &mut self.b, &mut self.wq, &mut self.wk]
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Forward pass over a graph with `features` (`n × in_dim`) and
    /// per-node neighbour lists. Include `i` in `neighbors[i]` to get
    /// self-loops (CAROL does).
    ///
    /// Nodes with empty neighbour lists produce zero embeddings.
    ///
    /// Because attention only ever mixes a node with its listed
    /// neighbours, a *disjoint union* of graphs (feature rows stacked,
    /// neighbour indices offset per graph) evaluates every component
    /// bit-identically to separate forwards — the contract the batched
    /// candidate scorer (`gon`'s `score_batch`) is built on, and what
    /// turns B candidate topologies into one blocked matmul per layer.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors.len() != features.rows()`, if
    /// `features.cols() != in_dim`, or if a neighbour index is out of range.
    pub fn forward(&mut self, features: &Matrix, neighbors: &[Vec<usize>]) -> Matrix {
        let n = features.rows();
        assert_eq!(neighbors.len(), n, "one neighbour list per node required");
        assert_eq!(features.cols(), self.in_dim(), "feature width mismatch");

        let h_pre = features
            .matmul(&self.w.value)
            .add_row_broadcast(&self.b.value);
        let h = h_pre.map(f64::tanh);
        let q = h.matmul(&self.wq.value);
        let k = h.matmul(&self.wk.value);
        let scale = 1.0 / (self.wq.value.cols() as f64).sqrt();

        let d_out = self.out_dim();
        let mut output = Matrix::zeros(n, d_out);
        let mut attention = Vec::with_capacity(n);
        // One node's logits, exponentiated in place: a buffer reused
        // across nodes (every slot is written before it is read); only
        // the normalised `alpha` is kept, for backward.
        let mut scratch: Vec<f64> = Vec::new();
        for (i, nbrs) in neighbors.iter().enumerate() {
            for &j in nbrs {
                assert!(j < n, "neighbour index {j} out of range for {n} nodes");
            }
            if nbrs.is_empty() {
                attention.push(Vec::new());
                continue;
            }
            // Dot-product attention logits, softmax-normalised with the
            // usual max-subtraction for stability. Each logit is its own
            // ascending-c chain, so four neighbours' logits run as
            // parallel SIMD lanes; the exp stays scalar (libm).
            let qi = q.row(i);
            scratch.resize(nbrs.len(), 0.0);
            let logits = &mut scratch[..];
            let mut idx = 0;
            while idx + 4 <= nbrs.len() {
                let dots = kernel::dot4_rows(
                    qi,
                    k.row(nbrs[idx]),
                    k.row(nbrs[idx + 1]),
                    k.row(nbrs[idx + 2]),
                    k.row(nbrs[idx + 3]),
                );
                for (t, &d) in dots.iter().enumerate() {
                    logits[idx + t] = d * scale;
                }
                idx += 4;
            }
            while idx < nbrs.len() {
                logits[idx] = kernel::dot(qi, k.row(nbrs[idx])) * scale;
                idx += 1;
            }
            let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for l in logits.iter_mut() {
                *l = (*l - max).exp();
            }
            let denom: f64 = logits.iter().sum();
            let alpha: Vec<f64> = logits.iter().map(|e| e / denom).collect();

            for (idx, &j) in nbrs.iter().enumerate() {
                kernel::axpy(output.row_mut(i), alpha[idx], h.row(j));
            }
            attention.push(alpha);
        }
        let output = output.map(f64::tanh);

        self.cache = Some(Cache {
            features: features.clone(),
            h,
            q,
            k,
            attention,
            neighbors: neighbors.to_vec(),
            output: output.clone(),
        });
        output
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input features.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphAttention::forward`].
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let n = self
            .cache
            .as_ref()
            .expect("GraphAttention::backward called before forward")
            .features
            .rows();
        self.backward_batch(grad_output, &[(0, n)])
    }

    /// Batched [`GraphAttention::backward`] over the disjoint union of
    /// per-sample graphs (the stacked, offset-adjacency layout
    /// [`GraphAttention::forward`] documents): accumulates parameter
    /// gradients **per `(row offset, node count)` segment, in segment
    /// order**, bit-identical to running `forward` + `backward` once per
    /// component graph. Attention never crosses segment boundaries, so the
    /// per-node gradient flows are already block-diagonal; only the four
    /// parameter-gradient reductions (`W`, `b`, `W_q`, `W_k`) need the
    /// segment structure to keep the f64 accumulation chains per-sample.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphAttention::forward`].
    pub fn backward_batch(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let cache = self
            .cache
            .as_ref()
            .expect("GraphAttention::backward called before forward");
        let n = cache.features.rows();
        debug_assert_eq!(
            segments.iter().map(|&(_, k)| k).sum::<usize>(),
            n,
            "segments must tile the stacked node rows"
        );
        let d_out = self.out_dim();
        let d_att = self.wq.value.cols();
        let scale = 1.0 / (d_att as f64).sqrt();
        assert_eq!(
            grad_output.shape(),
            (n, d_out),
            "grad_output shape mismatch"
        );

        // Through the output tanh.
        let mut d_agg = grad_output.clone();
        for i in 0..d_agg.len() {
            let y = cache.output.data()[i];
            d_agg.data_mut()[i] *= 1.0 - y * y;
        }

        let mut d_h = Matrix::zeros(n, d_out);
        let mut d_q = Matrix::zeros(n, d_att);
        let mut d_k = Matrix::zeros(n, d_att);

        attention_backward_rows(cache, scale, &d_agg, &mut d_h, &mut d_q, &mut d_k, 0, n, 0);

        // Through Q = H·Wq and K = H·Wk, one sample segment at a time so
        // each `Hᵀ·dQ` reduction chain matches the serial per-sample
        // backward. The dX = dY·Wᵀ products use the fused transposed-B
        // kernel: W is already laid out as the transpose of what the dot
        // products need.
        for &(offset, k) in segments {
            let hseg = cache.h.row_block(offset, k).transpose();
            self.wq
                .grad
                .add_in_place(&hseg.matmul(&d_q.row_block(offset, k)));
            self.wk
                .grad
                .add_in_place(&hseg.matmul(&d_k.row_block(offset, k)));
        }
        d_h.add_in_place(&d_q.matmul_transpose_b(&self.wq.value));
        d_h.add_in_place(&d_k.matmul_transpose_b(&self.wk.value));

        // Through H = tanh(U·W + b).
        let mut d_hpre = d_h;
        for i in 0..d_hpre.len() {
            let y = cache.h.data()[i];
            d_hpre.data_mut()[i] *= 1.0 - y * y;
        }
        for &(offset, k) in segments {
            let useg = cache.features.row_block(offset, k);
            let gseg = d_hpre.row_block(offset, k);
            self.w.grad.add_in_place(&useg.transpose().matmul(&gseg));
            self.b.grad.add_in_place(&gseg.sum_rows());
        }
        d_hpre.matmul_transpose_b(&self.w.value)
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
        let cache = self
            .cache
            .as_ref()
            .expect("GraphAttention::backward called before forward");
        let n = cache.features.rows();
        assert_eq!(
            segments.iter().map(|&(_, k)| k).sum::<usize>(),
            n,
            "segments must tile the cached node rows"
        );
        let d_out = self.out_dim();
        let d_att = self.wq.value.cols();
        let scale = 1.0 / (d_att as f64).sqrt();
        assert_eq!(
            grad_output.shape(),
            (2 * n, d_out),
            "grad_output must hold interleaved real/fake rows"
        );

        // Through the output tanh; grad row r backs onto cache row
        // map(r) within its component.
        let mut d_agg = grad_output.clone();
        for &(co, nb) in segments {
            for half in 0..2 {
                let gro = 2 * co + half * nb;
                for r in 0..nb {
                    for c in 0..d_out {
                        let y = cache.output[(co + r, c)];
                        d_agg[(gro + r, c)] *= 1.0 - y * y;
                    }
                }
            }
        }

        let mut d_h = Matrix::zeros(2 * n, d_out);
        let mut d_q = Matrix::zeros(2 * n, d_att);
        let mut d_k = Matrix::zeros(2 * n, d_att);
        for &(co, nb) in segments {
            // delta maps a cache row to its grad row: real then fake.
            attention_backward_rows(
                cache,
                scale,
                &d_agg,
                &mut d_h,
                &mut d_q,
                &mut d_k,
                co,
                co + nb,
                co,
            );
            attention_backward_rows(
                cache,
                scale,
                &d_agg,
                &mut d_h,
                &mut d_q,
                &mut d_k,
                co,
                co + nb,
                co + nb,
            );
        }

        // Parameter reductions in grad-segment order, each against the
        // single cached component both halves share.
        for &(co, nb) in segments {
            let hseg = cache.h.row_block(co, nb).transpose();
            for half in 0..2 {
                let gro = 2 * co + half * nb;
                self.wq
                    .grad
                    .add_in_place(&hseg.matmul(&d_q.row_block(gro, nb)));
                self.wk
                    .grad
                    .add_in_place(&hseg.matmul(&d_k.row_block(gro, nb)));
            }
        }
        d_h.add_in_place(&d_q.matmul_transpose_b(&self.wq.value));
        d_h.add_in_place(&d_k.matmul_transpose_b(&self.wk.value));

        // Through H = tanh(U·W + b), again mapping grad rows onto the
        // shared cache rows.
        let mut d_hpre = d_h;
        for &(co, nb) in segments {
            for half in 0..2 {
                let gro = 2 * co + half * nb;
                for r in 0..nb {
                    for c in 0..d_out {
                        let y = cache.h[(co + r, c)];
                        d_hpre[(gro + r, c)] *= 1.0 - y * y;
                    }
                }
            }
        }
        for &(co, nb) in segments {
            let useg = cache.features.row_block(co, nb);
            let ut = useg.transpose();
            for half in 0..2 {
                let gro = 2 * co + half * nb;
                let gseg = d_hpre.row_block(gro, nb);
                self.w.grad.add_in_place(&ut.matmul(&gseg));
                self.b.grad.add_in_place(&gseg.sum_rows());
            }
        }
    }
}

/// The attention/softmax backward for cache nodes `[cache_lo, cache_hi)`
/// whose gradient rows live at `cache row + delta` — shared by
/// [`GraphAttention::backward_batch`] (`delta = 0`) and
/// [`GraphAttention::backward_interleaved`] (one pass per real/fake
/// half). Per neighbour: `dα = dAgg_i·h_j` (four chains as SIMD lanes),
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
    for i in cache_lo..cache_hi {
        let nbrs = &cache.neighbors[i];
        if nbrs.is_empty() {
            continue;
        }
        let alpha = &cache.attention[i];
        let ig = i + delta;
        // dα_ij = dAgg_i · h_j ; and aggregation path into h_j.
        let mut d_alpha = vec![0.0; nbrs.len()];
        let mut idx = 0;
        while idx + 4 <= nbrs.len() {
            let dots = kernel::dot4_rows(
                d_agg.row(ig),
                cache.h.row(nbrs[idx]),
                cache.h.row(nbrs[idx + 1]),
                cache.h.row(nbrs[idx + 2]),
                cache.h.row(nbrs[idx + 3]),
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
            d_alpha[idx] = kernel::dot(d_agg.row(ig), cache.h.row(nbrs[idx]));
            kernel::axpy(d_h.row_mut(nbrs[idx] + delta), alpha[idx], d_agg.row(ig));
            idx += 1;
        }
        // Softmax backward: ds_j = α_j (dα_j − Σ_k α_k dα_k).
        let weighted: f64 = alpha.iter().zip(&d_alpha).map(|(a, d)| a * d).sum();
        for (idx, &j) in nbrs.iter().enumerate() {
            let ds = alpha[idx] * (d_alpha[idx] - weighted);
            kernel::axpy_scaled(d_q.row_mut(ig), ds, cache.k.row(j), scale);
            kernel::axpy_scaled(d_k.row_mut(j + delta), ds, cache.q.row(i), scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_abs_diff, numerical_grad};

    fn ring_neighbors(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| vec![i, (i + 1) % n, (i + n - 1) % n])
            .collect()
    }

    #[test]
    fn output_shape_follows_node_count() {
        let mut init = Initializer::new(1);
        let mut gat = GraphAttention::new(4, 6, 3, &mut init);
        for n in [2usize, 5, 9] {
            let feats = Initializer::new(n as u64).normal(n, 4, 1.0);
            let out = gat.forward(&feats, &ring_neighbors(n));
            assert_eq!(out.shape(), (n, 6));
        }
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut init = Initializer::new(2);
        let mut gat = GraphAttention::new(3, 4, 4, &mut init);
        let feats = Initializer::new(3).normal(5, 3, 1.0);
        gat.forward(&feats, &ring_neighbors(5));
        let cache = gat.cache.as_ref().unwrap();
        for alpha in &cache.attention {
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
        let neighbors = vec![vec![0, 1], vec![1, 0], vec![]];
        let out = gat.forward(&feats, &neighbors);
        // tanh(0) = 0 for the isolated node's row.
        assert!(out.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut init = Initializer::new(7);
        let mut gat = GraphAttention::new(3, 4, 3, &mut init);
        let feats = Initializer::new(13).normal(4, 3, 0.8);
        let neighbors = ring_neighbors(4);

        let loss = |g: &mut GraphAttention, x: &Matrix| -> f64 {
            let y = g.forward(x, &neighbors);
            0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
        };

        let y = gat.forward(&feats, &neighbors);
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
        let neighbors = ring_neighbors(3);

        let y = gat.forward(&feats, &neighbors);
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
                let y = gat.forward(&feats, &neighbors);
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
        let sizes = [3usize, 4, 6];
        let feats: Vec<Matrix> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Initializer::new(40 + i as u64).normal(n, 3, 0.9))
            .collect();

        let total: usize = sizes.iter().sum();
        let mut stacked = Matrix::zeros(total, 3);
        let mut neighbors = Vec::with_capacity(total);
        let mut offset = 0;
        for (f, &n) in feats.iter().zip(&sizes) {
            for r in 0..n {
                stacked.row_mut(offset + r).copy_from_slice(f.row(r));
            }
            for mut nbrs in ring_neighbors(n) {
                for j in &mut nbrs {
                    *j += offset;
                }
                neighbors.push(nbrs);
            }
            offset += n;
        }

        let batched = gat.forward(&stacked, &neighbors);
        let mut offset = 0;
        for (f, &n) in feats.iter().zip(&sizes) {
            let single = gat.forward(f, &ring_neighbors(n));
            for r in 0..n {
                for (a, b) in batched.row(offset + r).iter().zip(single.row(r)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "component of {n} nodes diverged at row {r}"
                    );
                }
            }
            offset += n;
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
        for ((f, g), &n) in feats.iter().zip(&grads_out).zip(&sizes) {
            serial.forward(f, &ring_neighbors(n));
            serial_dx.push(serial.backward(g));
        }
        let serial_grads: Vec<Matrix> =
            serial.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Stacked disjoint union.
        let total: usize = sizes.iter().sum();
        let mut stacked = Matrix::zeros(total, 3);
        let mut stacked_g = Matrix::zeros(total, 5);
        let mut neighbors = Vec::with_capacity(total);
        let mut segments = Vec::new();
        let mut offset = 0;
        for ((f, g), &n) in feats.iter().zip(&grads_out).zip(&sizes) {
            for r in 0..n {
                stacked.row_mut(offset + r).copy_from_slice(f.row(r));
                stacked_g.row_mut(offset + r).copy_from_slice(g.row(r));
            }
            for mut nbrs in ring_neighbors(n) {
                for j in &mut nbrs {
                    *j += offset;
                }
                neighbors.push(nbrs);
            }
            segments.push((offset, n));
            offset += n;
        }

        gat.forward(&stacked, &neighbors);
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
        let grads: Vec<(Matrix, Matrix)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (
                    Initializer::new(80 + i as u64).normal(n, 5, 0.5),
                    Initializer::new(90 + i as u64).normal(n, 5, 0.5),
                )
            })
            .collect();

        let stack = |reps: usize| {
            let total: usize = sizes.iter().map(|&n| n * reps).sum();
            let mut stacked = Matrix::zeros(total, 3);
            let mut neighbors = Vec::with_capacity(total);
            let mut segments = Vec::new();
            let mut offset = 0;
            for (f, &n) in feats.iter().zip(&sizes) {
                for _ in 0..reps {
                    for r in 0..n {
                        stacked.row_mut(offset + r).copy_from_slice(f.row(r));
                    }
                    for mut nbrs in ring_neighbors(n) {
                        for j in &mut nbrs {
                            *j += offset;
                        }
                        neighbors.push(nbrs);
                    }
                    segments.push((offset, n));
                    offset += n;
                }
            }
            (stacked, neighbors, segments)
        };

        // Reference: every component physically duplicated.
        let (dup_feats, dup_nbrs, dup_segs) = stack(2);
        let mut grad_rows = Matrix::zeros(dup_feats.rows(), 5);
        let mut offset = 0;
        for ((real, fake), &n) in grads.iter().zip(&sizes) {
            for r in 0..n {
                grad_rows.row_mut(offset + r).copy_from_slice(real.row(r));
                grad_rows
                    .row_mut(offset + n + r)
                    .copy_from_slice(fake.row(r));
            }
            offset += 2 * n;
        }
        let mut reference = gat.clone();
        reference.forward(&dup_feats, &dup_nbrs);
        reference.backward_batch(&grad_rows, &dup_segs);
        let want: Vec<Matrix> = reference
            .params_mut()
            .iter()
            .map(|p| p.grad.clone())
            .collect();

        // Lever: forward each component once, backprop both halves.
        let (feats1, nbrs1, segs1) = stack(1);
        let mut lever = gat.clone();
        lever.forward(&feats1, &nbrs1);
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

    #[test]
    #[should_panic(expected = "one neighbour list per node")]
    fn neighbor_list_length_checked() {
        let mut init = Initializer::new(0);
        let mut gat = GraphAttention::new(2, 2, 2, &mut init);
        gat.forward(&Matrix::zeros(3, 2), &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_bounds_checked() {
        let mut init = Initializer::new(0);
        let mut gat = GraphAttention::new(2, 2, 2, &mut init);
        gat.forward(&Matrix::zeros(2, 2), &[vec![5], vec![0]]);
    }
}
