//! Adam optimizer with decoupled weight decay.
//!
//! The paper trains the GON with Adam at learning rate `1e-4` and weight
//! decay `1e-5` (§IV-E); [`Adam::paper_defaults`] reproduces exactly that
//! configuration.

use crate::layer::Param;
use serde::{Deserialize, Serialize};

/// Adam optimizer state shared across all parameters it steps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate (α).
    pub lr: f64,
    /// First-moment decay (β₁).
    pub beta1: f64,
    /// Second-moment decay (β₂).
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f64,
    t: u64,
}

impl Adam {
    /// Adam with explicit learning rate and weight decay, standard betas.
    pub fn new(lr: f64, weight_decay: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
        }
    }

    /// The paper's training configuration: lr `1e-4`, weight decay `1e-5`.
    pub fn paper_defaults() -> Self {
        Self::new(1e-4, 1e-5)
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to every parameter in `params` using their
    /// accumulated gradients, then leaves gradients untouched (call
    /// `zero_grad` yourself between minibatches).
    pub fn step(&mut self, params: Vec<&mut Param>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params {
            for i in 0..p.value.len() {
                let g = p.grad.data()[i];
                let m = self.beta1 * p.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * p.v.data()[i] + (1.0 - self.beta2) * g * g;
                p.m.data_mut()[i] = m;
                p.v.data_mut()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                let w = p.value.data()[i];
                p.value.data_mut()[i] =
                    w - self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layer::{Dense, Sequential};
    use crate::matrix::Matrix;

    #[test]
    fn minimises_a_quadratic() {
        // Minimise f(w) = ||w - target||^2 by feeding Adam the gradient.
        let target = Matrix::row_vector(&[3.0, -2.0, 0.5]);
        let mut p = Param::new(Matrix::zeros(1, 3));
        let mut adam = Adam::new(0.05, 0.0);
        for _ in 0..2000 {
            p.grad = (&p.value - &target).scale(2.0);
            adam.step(vec![&mut p]);
        }
        for (w, t) in p.value.data().iter().zip(target.data()) {
            assert!((w - t).abs() < 1e-3, "w={w} target={t}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new(Matrix::row_vector(&[10.0]));
        let mut adam = Adam::new(0.01, 0.5);
        for _ in 0..200 {
            p.zero_grad(); // zero loss gradient; only decay acts
            adam.step(vec![&mut p]);
        }
        // w shrinks by (1 - lr·decay) per step: 10·0.995^200 ≈ 3.67.
        assert!(p.value.data()[0].abs() < 4.0);
        assert!(p.value.data()[0] > 0.0);
    }

    #[test]
    fn trains_a_network_to_fit_xor_like_data() {
        let mut init = Initializer::new(3);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, &mut init));
        net.push(crate::layer::Activation::tanh());
        net.push(Dense::new(16, 1, &mut init));
        net.push(crate::layer::Activation::sigmoid());

        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = [0.0, 1.0, 1.0, 0.0];
        let mut adam = Adam::new(0.05, 0.0);
        let mut final_loss = f64::INFINITY;
        let mut ws = crate::layer::Workspace::default();
        for _ in 0..800 {
            let y = net.forward(&x, &mut ws);
            // BCE gradient through sigmoid output: dL/dy = (y - t)/(y(1-y)N)
            let mut grad = Matrix::zeros(4, 1);
            let mut loss = 0.0;
            for i in 0..4 {
                let yi = y[(i, 0)].clamp(1e-9, 1.0 - 1e-9);
                loss += -(t[i] * yi.ln() + (1.0 - t[i]) * (1.0 - yi).ln());
                grad[(i, 0)] = (yi - t[i]) / (yi * (1.0 - yi) * 4.0);
            }
            final_loss = loss / 4.0;
            net.zero_grad();
            net.backward(&x, &grad, &[(0, 4)], &mut ws);
            adam.step(net.params_mut());
        }
        assert!(final_loss < 0.05, "XOR not learned, loss={final_loss}");
    }

    #[test]
    fn paper_defaults_match_section_4e() {
        let adam = Adam::paper_defaults();
        assert_eq!(adam.lr, 1e-4);
        assert_eq!(adam.weight_decay, 1e-5);
    }
}
