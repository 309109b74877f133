//! Comparator surrogate models for the §V-D ablations.
//!
//! * [`GanSurrogate`] — "With GAN": a traditional generator+discriminator
//!   pair. The generator predicts `M*` in one forward pass (no input-space
//!   optimisation, hence the lower decision time the paper observes), but
//!   carrying a generator multiplies the memory footprint (~5% → ~30% on
//!   the testbed).
//! * [`FeedForwardSurrogate`] — "With Traditional Surrogate": a plain
//!   regression network from `(M_{t-1}, S, G)` straight to the QoS scalar,
//!   as in GOBI/ELBS-style methods \[17\], \[19\], \[33\]. Fast, but it emits no
//!   confidence signal, so a CAROL built on it must fine-tune every
//!   interval — which is exactly the overhead pathology the ablation
//!   demonstrates.

use crate::model::stacked_graph;
use edgesim::state::{
    qos_components, SystemState, GRAPH_DIM, METRIC_DIM, QOS_ALPHA, QOS_BETA, SCHED_DIM,
};
use nn::init::Initializer;
use nn::layer::{Activation, Dense, Sequential, Workspace};
use nn::{Adam, GraphAttention, Matrix};

/// Pools per-host rows into fixed-size statistics (mean over hosts) so the
/// surrogates stay host-count agnostic like the GON: one row of metric,
/// schedule and graph-feature means, in that order.
pub fn pooled_input(state: &SystemState) -> Matrix {
    let n = state.n_hosts().max(1) as f64;
    let mut row = vec![0.0; METRIC_DIM + SCHED_DIM + GRAPH_DIM];
    for h in 0..state.n_hosts() {
        for (i, v) in state.metrics[h].iter().enumerate() {
            row[i] += v / n;
        }
        for (i, v) in state.schedule[h].iter().enumerate() {
            row[METRIC_DIM + i] += v / n;
        }
        for (i, v) in state.graph_features[h].iter().enumerate() {
            row[METRIC_DIM + SCHED_DIM + i] += v / n;
        }
    }
    Matrix::row_vector(&row)
}

/// Traditional feed-forward QoS surrogate ("With Traditional Surrogate").
#[derive(Clone)]
pub struct FeedForwardSurrogate {
    net: Sequential,
    adam: Adam,
}

impl std::fmt::Debug for FeedForwardSurrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FeedForwardSurrogate(params={})", self.net.param_count())
    }
}

impl FeedForwardSurrogate {
    /// Builds the regressor: pooled features → hidden → hidden → QoS.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(
            METRIC_DIM + SCHED_DIM + GRAPH_DIM,
            hidden,
            &mut init,
        ));
        net.push(Activation::relu());
        net.push(Dense::new(hidden, hidden, &mut init));
        net.push(Activation::tanh());
        net.push(Dense::new(hidden, 1, &mut init));
        Self {
            net,
            adam: Adam::new(1e-3, 1e-5),
        }
    }

    /// Predicted QoS objective for a candidate state (lower = better).
    pub fn predict_qos(&mut self, state: &SystemState) -> f64 {
        self.predict_qos_batch(std::slice::from_ref(state))[0]
    }

    /// Batched [`FeedForwardSurrogate::predict_qos`]: pooled rows stacked
    /// into one matrix, one forward for the whole candidate batch.
    /// Bit-identical to mapping the serial call (row independence of
    /// every layer).
    pub fn predict_qos_batch(&mut self, states: &[SystemState]) -> Vec<f64> {
        let mut x = Matrix::zeros(states.len(), METRIC_DIM + SCHED_DIM + GRAPH_DIM);
        for (r, state) in states.iter().enumerate() {
            x.row_mut(r).copy_from_slice(pooled_input(state).data());
        }
        let mut ws = Workspace::default();
        let y = self.net.forward(&x, &mut ws);
        (0..states.len()).map(|r| y[(r, 0)]).collect()
    }

    /// One supervised regression step against the observed objective.
    pub fn train_step(&mut self, state: &SystemState, target_qos: f64) -> f64 {
        let x = pooled_input(state);
        let mut ws = Workspace::default();
        let err = self.net.forward(&x, &mut ws)[(0, 0)] - target_qos;
        self.net.zero_grad();
        let grad = Matrix::from_vec(1, 1, vec![2.0 * err]);
        self.net.backward(&x, &grad, &[(0, 1)], &mut ws);
        self.adam.step(self.net.params_mut());
        err * err
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }
}

/// Traditional GAN surrogate ("With GAN"): a generator maps
/// `(noise, S, G)` to predicted metrics in one shot; a discriminator
/// scores tuples like the GON does.
#[derive(Clone)]
pub struct GanSurrogate {
    generator: Sequential,
    discriminator: Sequential,
    gat: GraphAttention,
    gen_adam: Adam,
    disc_adam: Adam,
    noise_dim: usize,
    gat_dim: usize,
}

impl std::fmt::Debug for GanSurrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GanSurrogate(params={})", self.param_count())
    }
}

impl GanSurrogate {
    /// Builds generator and discriminator with `hidden`-wide layers. The
    /// generator emits per-host rows and both nets pool over hosts, so one
    /// surrogate serves any federation size.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let noise_dim = 16;
        let gat_dim = 16;

        // Generator: [noise | pooled S | pooled G-features] → per-host M row.
        let mut generator = Sequential::new();
        generator.push(Dense::new(
            noise_dim + SCHED_DIM + GRAPH_DIM,
            hidden,
            &mut init,
        ));
        generator.push(Activation::relu());
        generator.push(Dense::new(hidden, hidden, &mut init));
        generator.push(Activation::relu());
        generator.push(Dense::new(hidden, METRIC_DIM, &mut init));
        generator.push(Activation::sigmoid());

        // Discriminator mirrors the GON head over pooled features.
        let mut discriminator = Sequential::new();
        discriminator.push(Dense::new(
            METRIC_DIM + SCHED_DIM + gat_dim,
            hidden,
            &mut init,
        ));
        discriminator.push(Activation::tanh());
        discriminator.push(Dense::new(hidden, 1, &mut init));
        discriminator.push(Activation::sigmoid());

        let gat = GraphAttention::new(GRAPH_DIM, gat_dim, 8, &mut init);

        Self {
            generator,
            discriminator,
            gat,
            gen_adam: Adam::new(1e-3, 1e-5),
            disc_adam: Adam::new(1e-3, 1e-5),
            noise_dim,
            gat_dim,
        }
    }

    /// Total parameter count (generator + discriminator + GAT). The
    /// generator is what makes this ~6× the GON footprint in the paper's
    /// Fig. 5(e).
    pub fn param_count(&self) -> usize {
        self.generator.param_count() + self.discriminator.param_count() + self.gat.param_count()
    }

    /// The generator's input rows for `states`, stacked: per host, noise
    /// drawn from a fresh `Initializer::new(seed)` per state, then the
    /// host's schedule and graph-feature rows.
    fn generator_input(&self, states: &[SystemState], seed: u64) -> Matrix {
        let total: usize = states.iter().map(|s| s.n_hosts()).sum();
        let width = self.noise_dim + SCHED_DIM + GRAPH_DIM;
        let mut x = Matrix::zeros(total, width);
        let mut offset = 0;
        for state in states {
            let mut init = Initializer::new(seed);
            for h in 0..state.n_hosts() {
                let noise = init.uniform(1, self.noise_dim, 0.0, 1.0);
                let row = x.row_mut(offset + h);
                row[..self.noise_dim].copy_from_slice(noise.data());
                row[self.noise_dim..self.noise_dim + SCHED_DIM].copy_from_slice(&state.schedule[h]);
                row[self.noise_dim + SCHED_DIM..].copy_from_slice(&state.graph_features[h]);
            }
            offset += state.n_hosts();
        }
        x
    }

    /// Generates predicted per-host metrics in a single forward pass
    /// (no input-space optimisation — the GAN's speed advantage).
    pub fn generate(&mut self, state: &SystemState, seed: u64) -> Vec<f64> {
        let x = self.generator_input(std::slice::from_ref(state), seed);
        let mut ws = Workspace::default();
        self.generator.forward(&x, &mut ws).data().to_vec()
    }

    /// Discriminator score over a state (pooled M/S + GAT embedding).
    pub fn score(&mut self, state: &SystemState) -> f64 {
        let row = self.discriminator_input(state);
        self.discriminator.forward(&row, &mut Workspace::default())[(0, 0)]
    }

    /// The discriminator's input row for `state`: pooled `M` and `S`,
    /// then the pooled GAT embedding.
    fn discriminator_input(&self, state: &SystemState) -> Matrix {
        let mut row = pooled_input(state).data()[..METRIC_DIM + SCHED_DIM].to_vec();
        let (gfeat, adjacency) = stacked_graph(&[state]);
        let emb = self.gat.forward(&gfeat, &adjacency);
        let n = state.n_hosts().max(1) as f64;
        let pooled = emb.output().sum_rows().scale(1.0 / n);
        debug_assert_eq!(pooled.cols(), self.gat_dim);
        row.extend_from_slice(pooled.data());
        Matrix::row_vector(&row)
    }

    /// Predicted QoS for a candidate state: generate `M*`, substitute it,
    /// and read the objective columns `α·q_energy + β·q_slo` — the same
    /// objective CAROL reads off the GON's generated `M*`, so the
    /// surrogates are swappable.
    pub fn predict_qos(&mut self, state: &SystemState, seed: u64) -> f64 {
        self.predict_qos_batch(std::slice::from_ref(state), seed)[0]
    }

    /// Batched [`GanSurrogate::predict_qos`]: one generator forward over
    /// the stacked per-host rows of every candidate, each candidate's
    /// objective read off its block of the output. Each candidate draws
    /// its noise from a fresh `Initializer::new(seed)` exactly as the
    /// serial call does, so the result is bit-identical to mapping
    /// `predict_qos` over the candidates.
    pub fn predict_qos_batch(&mut self, states: &[SystemState], seed: u64) -> Vec<f64> {
        let x = self.generator_input(states, seed);
        let mut ws = Workspace::default();
        let y = self.generator.forward(&x, &mut ws); // [Σn × METRIC_DIM]
        let mut offset = 0;
        states
            .iter()
            .map(|state| {
                let n = state.n_hosts();
                let (qe, qs) =
                    qos_components(&y.data()[offset * METRIC_DIM..(offset + n) * METRIC_DIM]);
                offset += n;
                QOS_ALPHA * qe + QOS_BETA * qs
            })
            .collect()
    }

    /// One adversarial training round on a real state. The generator
    /// learns to fool the discriminator on per-host rows; the
    /// discriminator learns real-vs-fake. Returns `(d_loss, g_loss)`.
    pub fn train_step(&mut self, state: &SystemState, seed: u64) -> (f64, f64) {
        const EPS: f64 = 1e-9;
        // The fake metrics: [`GanSurrogate::generate`]'s forward, which
        // `gen_ws` keeps for the generator step.
        let x = self.generator_input(std::slice::from_ref(state), seed);
        let mut gen_ws = Workspace::default();
        let fake_m = self.generator.forward(&x, &mut gen_ws).data().to_vec();
        // --- Discriminator step: descend −log D on the real state, then
        // −log(1 − D) on the fake; each backward reads the input row of
        // the forward just before it.
        let mut fake_state = state.clone();
        fake_state.set_metrics_flat(&fake_m);
        self.discriminator.zero_grad();
        self.gat.zero_grad();
        let (mut ws, mut z) = (Workspace::default(), [0.0; 2]);
        let d_loss_d_z: [fn(f64) -> f64; 2] = [|z| -1.0 / z, |z| 1.0 / (1.0 - z)];
        for (i, s) in [state, &fake_state].into_iter().enumerate() {
            let input = self.discriminator_input(s);
            z[i] = self.discriminator.forward(&input, &mut ws)[(0, 0)].clamp(EPS, 1.0 - EPS);
            let g = Matrix::from_vec(1, 1, vec![d_loss_d_z[i](z[i])]);
            self.discriminator.backward(&input, &g, &[(0, 1)], &mut ws);
        }
        self.disc_adam.step(self.discriminator.params_mut());
        let d_loss = -z[0].ln() - (1.0 - z[1]).ln();

        // --- Generator step: make fakes look real on the *metric rows*
        // via a proxy regression toward the true metrics (non-saturating
        // trick approximated by supervised pull — stable in f64 and enough
        // for the ablation's behavioural contrast), one host row at a
        // time: parameter gradients accumulate per host.
        let n = state.n_hosts();
        let (mut g_loss, mut grad) = (0.0, Matrix::zeros(n, METRIC_DIM));
        let rows = fake_m.chunks_exact(METRIC_DIM).zip(&state.metrics);
        for (h, (y, target)) in rows.enumerate() {
            let (y, target) = (Matrix::row_vector(y), Matrix::row_vector(target));
            g_loss += nn::loss::mse(&y, &target);
            grad.row_mut(h)
                .copy_from_slice(nn::loss::mse_grad(&y, &target).data());
        }
        let hosts: Vec<(usize, usize)> = (0..n).map(|h| (h, 1)).collect();
        self.generator.zero_grad();
        self.generator.backward(&x, &grad, &hosts, &mut gen_ws);
        for p in self.generator.params_mut() {
            p.grad = p.grad.scale(1.0 / n.max(1) as f64);
        }
        self.gen_adam.step(self.generator.params_mut());
        g_loss /= n.max(1) as f64;

        (d_loss, g_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::SchedulingDecision;
    use edgesim::state::Normalizer;
    use edgesim::{HostSpec, HostState, Topology};

    fn test_state(load: f64) -> SystemState {
        sized_state(6, 2, load)
    }

    fn sized_state(n_hosts: usize, n_brokers: usize, load: f64) -> SystemState {
        let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
        let mut states = vec![HostState::default(); n_hosts];
        for st in &mut states {
            st.cpu = load;
            st.ram = load * 0.7;
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

    #[test]
    fn ff_surrogate_learns_a_target() {
        let mut s = FeedForwardSurrogate::new(16, 1);
        let state = test_state(0.5);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            last = s.train_step(&state, 3.0);
        }
        assert!(last < 0.01, "regression should converge, err²={last}");
        assert!((s.predict_qos(&state) - 3.0).abs() < 0.2);
    }

    #[test]
    fn gan_outweighs_ff_at_equal_width() {
        let gan = GanSurrogate::new(64, 0);
        let ff = FeedForwardSurrogate::new(64, 0);
        assert!(
            gan.param_count() > ff.param_count(),
            "carrying a generator must cost parameters: {} vs {}",
            gan.param_count(),
            ff.param_count()
        );
    }

    #[test]
    fn gan_generates_valid_metric_rows() {
        let mut gan = GanSurrogate::new(16, 2);
        let state = test_state(0.4);
        let m = gan.generate(&state, 9);
        assert_eq!(m.len(), 6 * METRIC_DIM);
        assert!(m.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gan_training_reduces_generator_error() {
        let mut gan = GanSurrogate::new(24, 3);
        let state = test_state(0.6);
        let mut first = None;
        let mut last = 0.0;
        for i in 0..200 {
            let (_, g) = gan.train_step(&state, i as u64);
            if first.is_none() {
                first = Some(g);
            }
            last = g;
        }
        assert!(
            last < first.unwrap(),
            "generator loss should fall: {first:?} → {last}"
        );
    }

    #[test]
    fn gan_score_is_probability() {
        let mut gan = GanSurrogate::new(16, 4);
        let z = gan.score(&test_state(0.3));
        assert!((0.0..=1.0).contains(&z));
    }

    fn batch() -> Vec<SystemState> {
        vec![test_state(0.2), test_state(0.7), sized_state(9, 3, 0.5)]
    }

    /// The batched QoS predictors are bit-identical to mapping the
    /// one-state calls over the batch, and empty in means empty out.
    #[test]
    fn predict_qos_batch_matches_mapped_predict_qos() {
        let states = batch();

        let mut gan = GanSurrogate::new(12, 9);
        let mapped: Vec<f64> = states.iter().map(|s| gan.predict_qos(s, 17)).collect();
        let batched = gan.predict_qos_batch(&states, 17);
        assert_eq!(mapped.len(), batched.len());
        for (a, b) in mapped.iter().zip(&batched) {
            assert_eq!(a.to_bits(), b.to_bits(), "GAN predictor diverged");
        }
        assert!(gan.predict_qos_batch(&[], 17).is_empty());

        let mut ff = FeedForwardSurrogate::new(12, 9);
        let mapped: Vec<f64> = states.iter().map(|s| ff.predict_qos(s)).collect();
        let batched = ff.predict_qos_batch(&states);
        assert_eq!(mapped.len(), batched.len());
        for (a, b) in mapped.iter().zip(&batched) {
            assert_eq!(a.to_bits(), b.to_bits(), "FF predictor diverged");
        }
        assert!(ff.predict_qos_batch(&[]).is_empty());
    }

    #[test]
    fn gan_qos_prediction_is_finite_and_swappable() {
        let mut gan = GanSurrogate::new(16, 5);
        let q = gan.predict_qos(&test_state(0.5), 7);
        assert!(q.is_finite());
        assert!(q >= 0.0);
    }
}
