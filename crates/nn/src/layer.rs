//! Feed-forward layers with explicit forward/backward passes.
//!
//! The f64 hot paths underneath these layers — blocked matmuls, the
//! `Xᵀ` products of the weight gradients, bias broadcasts and row-sum
//! reductions — all route through [`crate::kernel`], so every layer
//! picks up its runtime-dispatched AVX2 build on x86-64 (bit-identical
//! to the baseline build by construction; pin with `CAROL_SIMD`).
//! Activation transcendentals (`tanh`/`exp`) stay scalar: libm calls
//! cannot be vectorised bit-identically.

use crate::init::Initializer;
use crate::kernel;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A trainable tensor together with its accumulated gradient and Adam
/// moment buffers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Matrix,
    /// Adam first-moment buffer.
    pub m: Matrix,
    /// Adam second-moment buffer.
    pub v: Matrix,
}

impl Param {
    /// Wraps a value with zeroed gradient and moment buffers.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// Resets the gradient to zero (call between minibatches). Fills the
    /// existing buffer rather than reallocating — this runs once per
    /// parameter per GON generation step.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True for an empty (0-element) parameter.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable computation stage.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// gradient of the loss with respect to the layer output and returns the
/// gradient with respect to the layer *input* (this input gradient is what
/// the GON generation loop ascends) while accumulating parameter gradients.
///
/// Every `forward` is batch-first: the input rows are independent samples
/// (candidate metric rows in the GON repair path), and each output row is
/// bit-identical to running that row through a single-row `forward` — the
/// matmul kernel accumulates every output element over ascending `k`
/// regardless of how many rows share the call.
pub trait Layer {
    /// Computes the layer output for `input` and caches activations.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Backpropagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient with respect to the last `forward` input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Batched [`Layer::backward`] over a stacked minibatch whose rows are
    /// grouped into per-sample `(row offset, row count)` segments:
    /// accumulates parameter gradients **per segment, in segment order**,
    /// and returns the full input gradient.
    ///
    /// This is the training sibling of [`Layer::backward_input_into`]:
    /// where the generation loop skips parameter gradients entirely, adversarial
    /// training needs them — and needs the accumulation to be
    /// **bit-identical** to running `forward` + `backward` once per
    /// sample. A single stacked `Xᵀ·dY` matmul would chain the f64
    /// reduction across sample boundaries; accumulating one segment at a
    /// time reproduces the serial per-sample chain exactly. The returned
    /// input gradient is row-independent and needs no segmentation.
    ///
    /// Layers with parameters must override this; the default delegates to
    /// `backward` and is only correct for parameter-free layers (where
    /// the segment structure is irrelevant).
    fn backward_batch(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let _ = segments;
        self.backward(grad_output)
    }

    /// [`Layer::forward`] into the caller's `out` (reshaped to the
    /// output's shape, then fully overwritten), caching nothing:
    /// [`Layer::backward_input_into`] reads this pass's input and output
    /// from the caller instead. `forward` is this body plus the cache.
    fn forward_into(&self, input: &Matrix, out: &mut Matrix);

    /// The input gradient [`Layer::backward`] returns, into the caller's
    /// `grad_input`, for the pass [`Layer::forward_into`] ran from `input`
    /// to `output`: reads its derivative from those two, not from a
    /// cache, and leaves parameter gradients untouched — the GON's eq.-1
    /// ascent ascends the input and discards them. Bit-identical to the
    /// gradient `backward` returns.
    fn backward_input_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad_output: &Matrix,
        grad_input: &mut Matrix,
    );

    /// Mutable access to this layer's parameters (empty for activations).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        0
    }

    /// Clones the layer behind a fresh box — what lets [`Sequential`]
    /// (and every model built on it) be `Clone`, so batched candidate
    /// evaluation can hand each worker thread its own model replica.
    fn clone_boxed(&self) -> Box<dyn Layer + Send + Sync>;
}

/// Fully connected layer: `Y = X·W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weight: Param,
    bias: Param,
    #[serde(skip)]
    cached_input: Option<Matrix>,
    /// Lazily materialised `Wᵀ` for the `dX = dY·Wᵀ` input-gradient
    /// product. Weights only change through [`Layer::params_mut`], which
    /// drops this cache, so a whole GON generation run (many backward
    /// passes, frozen weights) pays for one transpose instead of one per
    /// step.
    #[serde(skip)]
    cached_wt: Option<Matrix>,
}

impl Dense {
    /// Glorot-initialised dense layer mapping `in_dim` → `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Self {
        Self {
            weight: Param::new(init.glorot(in_dim, out_dim)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
            cached_wt: None,
        }
    }

    /// Builds a dense layer from explicit weights (tests, serde round-trips).
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is `1 × weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.cols(), "bias width must match weight");
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
            cached_wt: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Read-only view of the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight.value
    }

    /// `Y = X·W + b` of the rows of `input` into `out` (the same rows
    /// of `out_dim` columns): the one body of every Dense forward, also
    /// run on a run of rows of a larger stack.
    ///
    /// # Panics
    ///
    /// Panics unless `input` holds whole `in_dim` rows and `out` as
    /// many `out_dim` rows.
    pub fn forward_rows_into(&self, input: &[f64], out: &mut [f64]) {
        let (k, n) = self.weight.value.shape();
        let m = input.len() / k.max(1);
        kernel::matmul_into(out, input, self.weight.value.data(), m, k, n);
        for row in out.chunks_exact_mut(n) {
            kernel::add_assign(row, self.bias.value.data());
        }
    }

    /// The first `cols` columns of `dX = dY·Wᵀ`, into `out`: a product
    /// against the cached transpose of `W`'s first `cols` rows, built on
    /// first use after each [`Layer::params_mut`] or change of `cols`.
    /// Each output element is its own ascending-`k` chain, so the
    /// columns are bitwise those of the full product.
    ///
    /// # Panics
    ///
    /// Panics if `cols > in_dim` or `grad_output` is not `out_dim` wide.
    pub fn input_grad_into(&mut self, grad_output: &Matrix, cols: usize, out: &mut Matrix) {
        if self.cached_wt.as_ref().is_none_or(|wt| wt.cols() != cols) {
            self.cached_wt = Some(self.weight.value.row_block(0, cols).transpose());
        }
        let wt = self.cached_wt.as_ref().expect("just built");
        grad_output.matmul_into(wt, out);
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), self.out_dim());
        self.forward_into(input, &mut out);
        refill(&mut self.cached_input, input);
        out
    }

    fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.in_dim(), "Dense input width");
        out.resize(input.rows(), self.out_dim());
        self.forward_rows_into(input.data(), out.data_mut());
    }

    fn backward_input_into(
        &mut self,
        _input: &Matrix,
        _output: &Matrix,
        grad_output: &Matrix,
        grad_input: &mut Matrix,
    ) {
        self.input_grad_into(grad_output, self.in_dim(), grad_input);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.backward_batch(grad_output, &[(0, grad_output.rows())])
    }

    fn backward_batch(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // Parameter gradients accumulate one sample segment at a time —
        // the same `Xᵀ·dY` kernel and `add_in_place` chain the serial
        // per-sample `backward` produces, in the same order.
        for &(offset, n) in segments {
            let iseg = input.row_block(offset, n);
            let gseg = grad_output.row_block(offset, n);
            self.weight
                .grad
                .add_in_place(&iseg.transpose().matmul(&gseg));
            self.bias.grad.add_in_place(&gseg.sum_rows());
        }
        // dX rows are sample-independent; one matmul serves all.
        let mut dx = Matrix::default();
        self.input_grad_into(grad_output, self.in_dim(), &mut dx);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.cached_wt = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clone_boxed(&self) -> Box<dyn Layer + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Elementwise activation functions used by the CAROL network (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `max(0, x)` — used after the metric/schedule encoder (eq. 3).
    Relu,
    /// `tanh(x)` — used inside the graph update (eq. 4).
    Tanh,
    /// `1/(1+e^{-x})` — used by the discriminator head (eq. 5).
    Sigmoid,
    /// `max(0.01x, x)` — used on attention logits.
    LeakyRelu,
}

impl ActivationKind {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
        }
    }

    /// Whether [`ActivationKind::derivative`] reads the activation's
    /// output `y` (tanh, sigmoid) rather than its input `x`.
    fn derivative_reads_output(self) -> bool {
        matches!(self, ActivationKind::Tanh | ActivationKind::Sigmoid)
    }

    /// Derivative at `v`: the input `x` for ReLU and LeakyReLU, the
    /// output `y` for tanh and sigmoid.
    #[inline]
    pub fn derivative(self, v: f64) -> f64 {
        match self {
            ActivationKind::Relu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - v * v,
            ActivationKind::Sigmoid => v * (1.0 - v),
            ActivationKind::LeakyRelu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }
}

/// Refills a layer cache with `src`, reusing its buffer once it exists.
fn refill(cache: &mut Option<Matrix>, src: &Matrix) {
    match cache {
        Some(m) => m.clone_from(src),
        None => *cache = Some(src.clone()),
    }
}

/// Stateless activation layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Activation {
    kind: ActivationKind,
    /// The one tensor the derivative reads: the last input for ReLU and
    /// LeakyReLU, the last output for tanh and sigmoid.
    #[serde(skip)]
    cached: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cached: None }
    }

    /// ReLU activation.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Tanh activation.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Sigmoid activation.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }

    /// `grad_input = grad_output ⊙ f′`, with `f′` read from `read`: the
    /// layer's input or output, as [`ActivationKind::derivative`] takes.
    fn backward_from(&self, read: &Matrix, grad_output: &Matrix, grad_input: &mut Matrix) {
        assert_eq!(read.shape(), grad_output.shape(), "activation grad shape");
        grad_input.resize(read.rows(), read.cols());
        let pairs = grad_output.data().iter().zip(read.data());
        for (g, (&dy, &v)) in grad_input.data_mut().iter_mut().zip(pairs) {
            *g = dy * self.kind.derivative(v);
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), input.cols());
        self.forward_into(input, &mut out);
        let read = if self.kind.derivative_reads_output() {
            &out
        } else {
            input
        };
        refill(&mut self.cached, read);
        out
    }

    fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        out.resize(input.rows(), input.cols());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = self.kind.apply(v);
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cached = self
            .cached
            .as_ref()
            .expect("Activation::backward called before forward");
        let mut grad = Matrix::default();
        self.backward_from(cached, grad_output, &mut grad);
        grad
    }

    fn backward_input_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad_output: &Matrix,
        grad_input: &mut Matrix,
    ) {
        let read = if self.kind.derivative_reads_output() {
            output
        } else {
            input
        };
        self.backward_from(read, grad_output, grad_input);
    }

    fn clone_boxed(&self) -> Box<dyn Layer + Send + Sync> {
        Box::new(self.clone())
    }
}

/// A stack of layers applied in sequence. It is not itself a [`Layer`]:
/// it holds leaf layers, and runs their allocating passes through its
/// own `forward` / `backward` and their workspace passes through
/// [`Sequential::forward_with`] / [`Sequential::backward_input_with`].
///
/// # Examples
///
/// ```
/// use nn::{Dense, Activation, Sequential, Matrix};
/// use nn::init::Initializer;
/// let mut init = Initializer::new(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, &mut init));
/// net.push(Activation::relu());
/// net.push(Dense::new(8, 1, &mut init));
/// let y = net.forward(&Matrix::zeros(2, 4));
/// assert_eq!(y.shape(), (2, 1));
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.iter().map(|l| l.clone_boxed()).collect(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({} layers, {} params)",
            self.layers.len(),
            self.param_count()
        )
    }
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + Send + Sync + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layers have been added.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// [`Layer::forward`] through the stack: each layer caches what its
    /// `backward` needs.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        chain(self.layers.iter_mut(), input, |l, x| l.forward(x))
    }

    /// [`Layer::backward`] through the stack, after [`Sequential::forward`].
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        chain(self.layers.iter_mut().rev(), grad_output, |l, g| {
            l.backward(g)
        })
    }

    /// [`Layer::backward_batch`] through the stack, after
    /// [`Sequential::forward`] of the stacked minibatch.
    pub fn backward_batch(&mut self, grad_output: &Matrix, segments: &[(usize, usize)]) -> Matrix {
        chain(self.layers.iter_mut().rev(), grad_output, |l, g| {
            l.backward_batch(g, segments)
        })
    }

    /// Every layer's parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Zeroes gradients of all parameters.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// [`Layer::forward_into`] through the stack, each layer writing
    /// its output into `ws`; returns the last output (`input` itself
    /// for an empty stack). Once `ws` has held one pass of these
    /// shapes, another allocates nothing.
    pub fn forward_with<'w>(&self, input: &'w Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        ws.outputs.resize_with(self.layers.len(), Matrix::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.outputs.split_at_mut(i);
            layer.forward_into(done.last().unwrap_or(input), &mut rest[0]);
        }
        ws.outputs.last().unwrap_or(input)
    }

    /// [`Layer::backward_input_into`] through the stack, after
    /// [`Sequential::forward_with`] of `input` into the same `ws`: each
    /// layer reads its input and output from there and writes the
    /// gradient with respect to its input into `ws`. Returns the
    /// gradient with respect to `input`; parameter gradients are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `ws` does not hold one output per layer.
    pub fn backward_input_with<'w>(
        &mut self,
        input: &Matrix,
        grad_output: &'w Matrix,
        ws: &'w mut Workspace,
    ) -> &'w Matrix {
        let n = self.layers.len();
        assert_eq!(ws.outputs.len(), n, "forward_with must run first");
        ws.grads.resize_with(n, Matrix::default);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let (below, above) = ws.grads.split_at_mut(i + 1);
            let layer_input = if i == 0 { input } else { &ws.outputs[i - 1] };
            let grad = above.first().unwrap_or(grad_output);
            layer.backward_input_into(layer_input, &ws.outputs[i], grad, &mut below[i]);
        }
        ws.grads.first().unwrap_or(grad_output)
    }
}

/// The buffers of a [`Sequential`] pass run through
/// [`Sequential::forward_with`] and [`Sequential::backward_input_with`]:
/// each layer's output and the gradient with respect to each layer's
/// input, kept between calls. A clone starts empty, since the contents
/// are scratch.
#[derive(Debug, Default)]
pub struct Workspace {
    outputs: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Runs `step` through `layers` in turn; the first layer reads `x`
/// itself, so no copy of it is made unless there are no layers.
fn chain<'a>(
    mut layers: impl Iterator<Item = &'a mut Box<dyn Layer + Send + Sync>>,
    x: &Matrix,
    mut step: impl FnMut(&mut Box<dyn Layer + Send + Sync>, &Matrix) -> Matrix,
) -> Matrix {
    match layers.next() {
        Some(first) => {
            let y = step(first, x);
            layers.fold(y, |y, layer| step(layer, &y))
        }
        None => x.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_abs_diff, numerical_grad};

    fn loss_of(net: &mut Sequential, x: &Matrix) -> f64 {
        // Simple quadratic loss: 0.5 * ||f(x)||^2 so dL/dy = y.
        let y = net.forward(x);
        0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
    }

    #[test]
    fn dense_forward_known_values() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Matrix::row_vector(&[1.0, -1.0]);
        let mut d = Dense::from_parts(w, b);
        let y = d.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y, Matrix::from_rows(&[&[4.0, 7.0]]));
    }

    #[test]
    fn dense_input_gradient_matches_numerical() {
        let mut init = Initializer::new(42);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, &mut init));
        net.push(Activation::tanh());
        net.push(Dense::new(5, 2, &mut init));
        net.push(Activation::sigmoid());

        let x = Initializer::new(7).normal(2, 3, 1.0);
        let y = net.forward(&x);
        let analytic = net.backward(&y); // dL/dy = y for 0.5||y||^2
        let numeric = numerical_grad(&x, 1e-5, |probe| loss_of(&mut net, probe));
        assert!(
            max_abs_diff(&analytic, &numeric) < 1e-6,
            "input gradient mismatch: {:?} vs {:?}",
            analytic,
            numeric
        );
    }

    #[test]
    fn dense_param_gradients_match_numerical() {
        let mut init = Initializer::new(9);
        let mut dense = Dense::new(3, 2, &mut init);
        let x = Initializer::new(5).normal(4, 3, 1.0);

        let y = dense.forward(&x);
        dense.backward(&y);
        let analytic_w = dense.weight.grad.clone();
        let analytic_b = dense.bias.grad.clone();

        let w0 = dense.weight.value.clone();
        let numeric_w = numerical_grad(&w0, 1e-5, |probe| {
            let mut d = Dense::from_parts(probe.clone(), dense.bias.value.clone());
            let y = d.forward(&x);
            0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
        });
        assert!(max_abs_diff(&analytic_w, &numeric_w) < 1e-6);

        let b0 = dense.bias.value.clone();
        let numeric_b = numerical_grad(&b0, 1e-5, |probe| {
            let mut d = Dense::from_parts(dense.weight.value.clone(), probe.clone());
            let y = d.forward(&x);
            0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
        });
        assert!(max_abs_diff(&analytic_b, &numeric_b) < 1e-6);
    }

    #[test]
    fn relu_gradient_matches_numerical() {
        let mut act = Activation::relu();
        // Offset inputs away from the kink at 0 for clean finite differences.
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[-0.3, 2.0, -1.0]]);
        let y = act.forward(&x);
        let analytic = act.backward(&y);
        let numeric = numerical_grad(&x, 1e-6, |probe| {
            let mut a = Activation::relu();
            let y = a.forward(probe);
            0.5 * y.data().iter().map(|v| v * v).sum::<f64>()
        });
        assert!(max_abs_diff(&analytic, &numeric) < 1e-6);
    }

    #[test]
    fn activation_values() {
        assert_eq!(ActivationKind::Relu.apply(-3.0), 0.0);
        assert_eq!(ActivationKind::Relu.apply(3.0), 3.0);
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((ActivationKind::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(ActivationKind::LeakyRelu.apply(-1.0), -0.01);
    }

    /// A workspace pass — `forward_with`, then `backward_input_with` —
    /// returns the bits of `forward` and `backward`, through each
    /// kind of activation, on a workspace reused across batch sizes
    /// (stale values from a larger pass must not leak into a smaller
    /// one), and leaves parameter gradients untouched.
    #[test]
    fn workspace_pass_is_bit_identical_to_forward_and_backward() {
        let mut init = Initializer::new(17);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 6, &mut init));
        net.push(Activation::relu());
        net.push(Dense::new(6, 5, &mut init));
        net.push(Activation::new(ActivationKind::LeakyRelu));
        net.push(Dense::new(5, 4, &mut init));
        net.push(Activation::tanh());
        net.push(Dense::new(4, 2, &mut init));
        net.push(Activation::sigmoid());
        let mut ws = Workspace::default();
        for (rows, seed) in [(15usize, 18u64), (4, 19), (15, 20), (1, 21)] {
            let x = Initializer::new(seed).normal(rows, 3, 1.0);
            let grad = Initializer::new(seed + 100).normal(rows, 2, 1.0);
            let mut full = net.clone();
            let want_y = full.forward(&x);
            let want_dx = full.backward(&grad);
            let got_y = net.forward_with(&x, &mut ws).clone();
            let got_dx = net.backward_input_with(&x, &grad, &mut ws);
            for (got, want) in [(&got_y, &want_y), (got_dx, &want_dx)] {
                assert_eq!(got.shape(), want.shape(), "{rows} rows");
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{rows} rows");
                }
            }
        }
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn param_counts() {
        let mut init = Initializer::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(10, 20, &mut init));
        net.push(Activation::relu());
        net.push(Dense::new(20, 1, &mut init));
        assert_eq!(net.param_count(), 10 * 20 + 20 + 20 + 1);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut init = Initializer::new(0);
        let mut d = Dense::new(2, 2, &mut init);
        d.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn dense_input_gradient_entry_points_agree() {
        let mut init = Initializer::new(3);
        // Every entry point returns the bits of `dY·Wᵀ` through
        // `Matrix::matmul`, at 1, 8 and 9 rows and with exact zeros (the
        // kernel's skipped terms) in dY; `input_grad_into` of the first
        // 4 columns returns those columns of it.
        let mut dense = Dense::new(6, 5, &mut init);
        for m in [1usize, 8, 9] {
            let x = Initializer::new(40 + m as u64).normal(m, 6, 0.7);
            let mut dy = Initializer::new(50 + m as u64).normal(m, 5, 0.5);
            for (t, v) in dy.data_mut().iter_mut().enumerate() {
                if t % 3 == 1 {
                    *v = if t % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let want = dy.matmul(&dense.weight().transpose());
            let y = dense.forward(&x);
            let mut into = Matrix::default();
            dense.backward_input_into(&x, &y, &dy, &mut into);
            let mut four = Matrix::default();
            dense.input_grad_into(&dy, 4, &mut four);
            let got = [
                ("backward", dense.backward(&dy)),
                ("backward_input_into", into),
                ("backward_batch", dense.backward_batch(&dy, &[(0, m)])),
            ];
            for (name, got) in got {
                assert_eq!(got.shape(), (m, 6));
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name} at m = {m}");
                }
            }
            assert_eq!(four.shape(), (m, 4));
            for r in 0..m {
                for (a, b) in four.row(r).iter().zip(want.row(r)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "4 columns at m = {m}");
                }
            }
        }
    }

    #[test]
    fn backward_batch_is_bit_identical_to_per_sample_backwards() {
        // Three "samples" of different row counts (host blocks), stacked.
        let mut init = Initializer::new(17);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 7, &mut init));
        net.push(Activation::tanh());
        net.push(Dense::new(7, 2, &mut init));
        net.push(Activation::sigmoid());

        let sizes = [3usize, 1, 5];
        let total: usize = sizes.iter().sum();
        let x = Initializer::new(23).normal(total, 4, 0.8);
        let gy = Initializer::new(29).normal(total, 2, 0.6);

        // Serial reference: forward + backward once per sample, grads
        // accumulating across samples in order.
        let mut serial = net.clone();
        let mut serial_dx = Vec::new();
        let mut offset = 0;
        for &n in &sizes {
            let y = serial.forward(&x.row_block(offset, n));
            assert_eq!(y.rows(), n);
            serial_dx.push(serial.backward(&gy.row_block(offset, n)));
            offset += n;
        }
        let serial_grads: Vec<Matrix> =
            serial.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Batched: one stacked forward, one segment-aware backward.
        let mut segments = Vec::new();
        let mut offset = 0;
        for &n in &sizes {
            segments.push((offset, n));
            offset += n;
        }
        let _ = net.forward(&x);
        let dx = net.backward_batch(&gy, &segments);
        for (&(offset, n), want) in segments.iter().zip(&serial_dx) {
            let got = dx.row_block(offset, n);
            for (a, b) in got.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "input gradient diverged");
            }
        }
        for (p, want) in net.params_mut().iter().zip(&serial_grads) {
            for (a, b) in p.grad.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter gradient diverged");
            }
        }
    }

    #[test]
    fn cached_wt_is_invalidated_by_params_mut() {
        let mut init = Initializer::new(4);
        let mut dense = Dense::new(3, 2, &mut init);
        let x = Initializer::new(6).normal(10, 3, 1.0);
        let y = dense.forward(&x);
        let dx = |dense: &mut Dense| {
            let mut out = Matrix::default();
            dense.input_grad_into(&y, 3, &mut out);
            out
        };
        let before = dx(&mut dense);
        // Mutate the weights through the only mutable access path.
        {
            let mut params = dense.params_mut();
            let w = &mut params[0].value;
            let scaled = w.scale(2.0);
            *w = scaled;
        }
        let after = dx(&mut dense);
        // A stale Wᵀ cache would reproduce `before` exactly.
        assert_ne!(before, after, "Wᵀ cache survived a parameter update");
        let expected = y.matmul(&dense.weight().transpose());
        for (a, b) in after.data().iter().zip(expected.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cloned_sequential_is_independent_and_identical() {
        let mut init = Initializer::new(8);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, &mut init));
        net.push(Activation::relu());
        net.push(Dense::new(5, 1, &mut init));
        let mut replica = net.clone();
        assert_eq!(replica.param_count(), net.param_count());

        let x = Initializer::new(2).normal(4, 3, 1.0);
        let a = net.forward(&x);
        let b = replica.forward(&x);
        for (u, v) in a.data().iter().zip(b.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "clone diverged on forward");
        }
        // Training the replica must not leak into the original.
        replica.backward(&b);
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut init = Initializer::new(0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut init));
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let y = net.forward(&x);
        net.backward(&y);
        let nonzero = net
            .params_mut()
            .iter()
            .any(|p| p.grad.data().iter().any(|&g| g != 0.0));
        assert!(nonzero);
        net.zero_grad();
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }
}
