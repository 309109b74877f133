//! Minimal deep-learning substrate for the CAROL reproduction.
//!
//! The paper trains its models with PyTorch 1.8 on the broker nodes. The
//! reproduction hint flags Rust ML crates as immature, so this crate
//! implements the exact subset CAROL needs from scratch:
//!
//! * dense [`Matrix`] algebra (f64, row-major),
//! * [`Dense`] feed-forward layers with ReLU / Tanh / Sigmoid activations
//!   and full explicit backpropagation — including gradients **with respect
//!   to the inputs**, which the GON generation loop (eq. 1 of the paper)
//!   ascends,
//! * a [`GraphAttention`] layer implementing eq. 4 (graph-to-graph update
//!   with dot-product self-attention over each node's neighbourhood),
//! * the [`Adam`] optimizer with decoupled weight decay (lr 1e-4, decay
//!   1e-5 in the paper's §IV-E),
//! * the mean-squared-error loss of the reconstruction and regression
//!   surrogates.
//!
//! The f64 hot loops live in [`kernel`]: each reduction is one safe
//! blocked loop, compiled for the baseline ISA and, on x86-64, again for
//! runtime-detected AVX2 — bit-identical by construction and pinnable
//! via `CAROL_SIMD` (see [`kernel::SIMD_ENV`]); the elementwise kernels
//! are plain loops.
//!
//! Everything is deterministic given a seed and carries numerical
//! gradient-check tests.

#![warn(missing_docs)]

pub mod adam;
#[doc(hidden)]
pub mod alloc_count;
pub mod gat;
pub mod init;
pub mod kernel;
pub mod layer;
pub mod loss;
pub mod matrix;

pub use adam::Adam;
pub use gat::{Adjacency, GraphAttention};
pub use layer::{Activation, Dense, Layer, Param, Sequential};
pub use matrix::Matrix;

/// Numerical gradient checking utilities shared by this crate's tests and
/// downstream crates (`gon`) that compose layers manually.
pub mod gradcheck {
    use crate::matrix::Matrix;

    /// Central-difference numerical gradient of `f` with respect to `x`.
    ///
    /// `f` must be a pure function of `x`. `eps` around `1e-5` works well
    /// for the f64 math in this crate.
    pub fn numerical_grad(x: &Matrix, eps: f64, mut f: impl FnMut(&Matrix) -> f64) -> Matrix {
        let mut grad = Matrix::zeros(x.rows(), x.cols());
        let mut probe = x.clone();
        for i in 0..x.len() {
            let orig = probe.data()[i];
            probe.data_mut()[i] = orig + eps;
            let up = f(&probe);
            probe.data_mut()[i] = orig - eps;
            let down = f(&probe);
            probe.data_mut()[i] = orig;
            grad.data_mut()[i] = (up - down) / (2.0 * eps);
        }
        grad
    }

    /// Maximum absolute elementwise difference between two matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        assert_eq!(a.shape(), b.shape(), "gradcheck shape mismatch");
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }
}
