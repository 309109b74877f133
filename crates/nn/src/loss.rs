//! Mean-squared-error loss for the reconstruction and regression
//! surrogates (TopoMAD, the GAN and feed-forward ablations).

use crate::matrix::Matrix;

/// Mean-squared-error loss between predictions and targets.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse(y: &Matrix, t: &Matrix) -> f64 {
    assert_eq!(y.shape(), t.shape(), "mse shape mismatch");
    if y.is_empty() {
        return 0.0;
    }
    y.data()
        .iter()
        .zip(t.data())
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        / y.len() as f64
}

/// Gradient of [`mse`] with respect to `y`.
pub fn mse_grad(y: &Matrix, t: &Matrix) -> Matrix {
    assert_eq!(y.shape(), t.shape(), "mse_grad shape mismatch");
    let n = y.len() as f64;
    let mut g = Matrix::zeros(y.rows(), y.cols());
    for i in 0..y.len() {
        g.data_mut()[i] = 2.0 * (y.data()[i] - t.data()[i]) / n;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_abs_diff, numerical_grad};

    #[test]
    fn mse_grad_matches_numerical() {
        let y = Matrix::row_vector(&[0.3, -0.7, 2.5]);
        let t = Matrix::row_vector(&[1.0, 0.0, 1.0]);
        let analytic = mse_grad(&y, &t);
        let numeric = numerical_grad(&y, 1e-6, |p| mse(p, &t));
        assert!(max_abs_diff(&analytic, &numeric) < 1e-6);
    }
}
