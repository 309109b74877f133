//! Surrogate-model baselines: ELBS \[19\] and FRAS \[20\].
//!
//! Both predict QoS with a neural surrogate and — lacking any confidence
//! signal — fine-tune it **every interval**, the overhead pathology CAROL
//! is built to avoid (§II: "their parameters need to be periodically
//! fine-tuned to adapt to dynamic environments, giving rise to high
//! overheads").

use carol::nodeshift::neighborhood;
use carol::policy::{ObserveOutcome, ResiliencePolicy};
use edgesim::state::{SystemState, GRAPH_DIM, METRIC_DIM, SCHED_DIM};
use edgesim::{HostId, IntervalReport, NodeRole, Simulator, Topology};
use gon::surrogates::pooled_input;
use nn::init::Initializer;
use nn::layer::{Activation, Dense, Layer, Sequential, Workspace};
use nn::{Adam, Matrix};

const POOLED_DIM: usize = METRIC_DIM + SCHED_DIM + GRAPH_DIM;

/// Fuzzified pooled-mean input row shared by both surrogates: 3
/// memberships per pooled dimension.
fn fuzzy_input(state: &SystemState) -> Matrix {
    let mut row = Vec::with_capacity(POOLED_DIM * 3);
    for &v in pooled_input(state).data() {
        row.extend_from_slice(&fuzzify(v));
    }
    Matrix::row_vector(&row)
}

/// Triangular membership degrees (low / medium / high) of a value in
/// `[0, 1]` — the fuzzification front-end both fuzzy baselines share.
pub fn fuzzify(x: f64) -> [f64; 3] {
    let x = x.clamp(0.0, 1.0);
    let low = (1.0 - 2.0 * x).max(0.0);
    let medium = (1.0 - (2.0 * x - 1.0).abs()).max(0.0);
    let high = (2.0 * x - 1.0).max(0.0);
    [low, medium, high]
}

/// Picks the candidate repair with the lowest surrogate score, resolving
/// every failed broker via the full node-shift neighbourhood (like CAROL,
/// but greedy single-pass — no tabu escape from local optima).
fn best_neighbor_repair(
    sim: &Simulator,
    snapshot: &SystemState,
    queries: &mut usize,
    mut score: impl FnMut(&SystemState) -> f64,
) -> Option<Topology> {
    let failed = sim.failed_brokers();
    if failed.is_empty() {
        return None;
    }
    let banned: Vec<HostId> = sim
        .host_states()
        .iter()
        .enumerate()
        .filter_map(|(h, st)| st.failed.then_some(h))
        .collect();
    let mut topo = sim.topology().clone();
    for &b in failed {
        if !matches!(topo.role(b), NodeRole::Broker) {
            continue;
        }
        let candidates = neighborhood(&topo, b, &banned);
        if candidates.is_empty() {
            continue;
        }
        *queries += candidates.len();
        topo = candidates
            .into_iter()
            .min_by(|a, c| {
                let sa = score(&snapshot.with_topology(a));
                let sc = score(&snapshot.with_topology(c));
                sa.partial_cmp(&sc).expect("surrogate scores are finite")
            })
            .expect("candidate list is non-empty");
    }
    Some(topo)
}

/// ELBS \[19\]: effective load balancing with fuzzy + probabilistic neural
/// networks.
///
/// A fuzzy inference system converts (SLO pressure, priority, estimated
/// processing time) into task priorities; a *large* neural surrogate then
/// scores allocations during an exhaustive match-making pass. The paper
/// measures ELBS as the most memory-hungry method with the highest
/// decision latency — both properties come from the published design:
/// fuzzy+probabilistic networks are resource-intensive, and matchmaking
/// iterates priorities × hosts.
pub struct Elbs {
    surrogate: Sequential,
    adam: Adam,
    fine_tunes: usize,
    modeled_decision_s: f64,
    modeled_overhead_s: f64,
}

impl std::fmt::Debug for Elbs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Elbs(params={})", self.surrogate.param_count())
    }
}

impl Elbs {
    /// Builds ELBS's (deliberately large) fuzzy-input surrogate.
    pub fn new(seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let mut surrogate = Sequential::new();
        // Fuzzified pooled features: 3 memberships per pooled dimension.
        surrogate.push(Dense::new(POOLED_DIM * 3, 256, &mut init));
        surrogate.push(Activation::relu());
        surrogate.push(Dense::new(256, 256, &mut init));
        surrogate.push(Activation::tanh());
        surrogate.push(Dense::new(256, 1, &mut init));
        Self {
            surrogate,
            adam: Adam::new(1e-3, 1e-5),
            fine_tunes: 0,
            modeled_decision_s: 0.0,
            modeled_overhead_s: 0.0,
        }
    }

    /// Surrogate QoS score (lower = better) with the match-making pass:
    /// the fuzzy priority of every metric row is matched against every
    /// host's headroom, which is the O(p·|H|) loop the paper blames for
    /// ELBS's decision time.
    pub fn score(&mut self, state: &SystemState) -> f64 {
        Self::score_with(&self.surrogate, &mut Workspace::default(), state)
    }

    fn score_with(surrogate: &Sequential, ws: &mut Workspace, state: &SystemState) -> f64 {
        let neural = surrogate.forward(&fuzzy_input(state), ws)[(0, 0)];
        let mut matchmaking = 0.0;
        for h in 0..state.n_hosts() {
            let headroom = 1.0 - state.metrics[h][0];
            for other in 0..state.n_hosts() {
                let [low, med, high] = fuzzify(state.metrics[other][8]);
                matchmaking += (0.2 * low + 0.5 * med + 0.9 * high) * (1.0 - headroom);
            }
        }
        neural + 0.01 * matchmaking / state.n_hosts().max(1) as f64
    }

    /// Fine-tune counter (every interval by construction).
    pub fn fine_tune_count(&self) -> usize {
        self.fine_tunes
    }
}

impl ResiliencePolicy for Elbs {
    fn name(&self) -> &str {
        "ELBS"
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let mut queries = 0usize;
        let mut ws = Workspace::default();
        let repaired = best_neighbor_repair(sim, snapshot, &mut queries, |s| {
            Self::score_with(&self.surrogate, &mut ws, s)
        });
        // Fuzzy inference + matchmaking per candidate (§II: "time-
        // consuming … match-making algorithms"): 0.15 s testbed-equivalent.
        self.modeled_decision_s += 0.15 * queries as f64;
        repaired
    }

    fn observe(
        &mut self,
        _sim: &Simulator,
        snapshot: &SystemState,
        _report: &IntervalReport,
    ) -> ObserveOutcome {
        self.modeled_overhead_s += 2.0;
        // Supervised pull toward the observed objective, every interval.
        let (qe, qs) = snapshot.qos_components();
        let target = 0.5 * qe + 0.5 * qs;
        let x = fuzzy_input(snapshot);
        let mut ws = Workspace::default();
        let err = self.surrogate.forward(&x, &mut ws)[(0, 0)] - target;
        self.surrogate.zero_grad();
        let grad = Matrix::from_vec(1, 1, vec![2.0 * err]);
        self.surrogate.backward(&x, &grad, &[(0, 1)], &mut ws);
        self.adam.step(self.surrogate.params_mut());
        self.fine_tunes += 1;
        ObserveOutcome { fine_tuned: true }
    }

    fn modeled_decision_s(&self) -> f64 {
        self.modeled_decision_s
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.modeled_overhead_s
    }

    fn memory_gb(&self) -> f64 {
        5.0 // fuzzy + probabilistic networks: the heaviest method measured
    }
}

/// FRAS \[20\]: fuzzy-based real-time auto-scaling.
///
/// A fuzzy *recurrent* neural network predicts QoS for autoscaling
/// decisions; the hidden state carries temporal context across intervals.
/// FRAS is the strongest baseline on response time / SLO in the paper and
/// the cheapest AI baseline to keep fine-tuned (121 s per 100 intervals),
/// but it still pays that cost **every** interval.
pub struct Fras {
    wx: Dense,
    wh: Dense,
    head: Dense,
    hidden: Matrix,
    hidden_dim: usize,
    adam: Adam,
    fine_tunes: usize,
    modeled_decision_s: f64,
    modeled_overhead_s: f64,
}

impl std::fmt::Debug for Fras {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fras(hidden={})", self.hidden_dim)
    }
}

impl Fras {
    /// Builds the fuzzy recurrent surrogate.
    pub fn new(seed: u64) -> Self {
        let hidden_dim = 64;
        let mut init = Initializer::new(seed);
        Self {
            wx: Dense::new(POOLED_DIM * 3, hidden_dim, &mut init),
            wh: Dense::new(hidden_dim, hidden_dim, &mut init),
            head: Dense::new(hidden_dim, 1, &mut init),
            hidden: Matrix::zeros(1, hidden_dim),
            hidden_dim,
            adam: Adam::new(1e-3, 1e-5),
            fine_tunes: 0,
            modeled_decision_s: 0.0,
            modeled_overhead_s: 0.0,
        }
    }

    /// One recurrent step from the committed hidden state on the fuzzy
    /// input row `x`: the next hidden row `tanh(x·W_x + h·W_h)` and the
    /// head's QoS prediction from it.
    fn step(&self, x: &Matrix) -> (Matrix, f64) {
        let (mut zx, mut zh, mut y) = (Matrix::default(), Matrix::default(), Matrix::default());
        self.wx.forward_into(x, &mut zx);
        self.wh.forward_into(&self.hidden, &mut zh);
        let hidden = (&zx + &zh).map(f64::tanh);
        self.head.forward_into(&hidden, &mut y);
        (hidden, y[(0, 0)])
    }

    /// One recurrent step *without* committing the hidden state — used
    /// when scoring hypothetical repair candidates.
    fn peek(&self, state: &SystemState) -> f64 {
        self.step(&fuzzy_input(state)).1
    }

    /// Fine-tune counter.
    pub fn fine_tune_count(&self) -> usize {
        self.fine_tunes
    }
}

impl ResiliencePolicy for Fras {
    fn name(&self) -> &str {
        "FRAS"
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let mut queries = 0usize;
        let repaired = best_neighbor_repair(sim, snapshot, &mut queries, |s| self.peek(s));
        // Recurrent-surrogate inference per candidate: 0.04 s on the Pi.
        self.modeled_decision_s += 0.04 * queries as f64;
        repaired
    }

    fn observe(
        &mut self,
        _sim: &Simulator,
        snapshot: &SystemState,
        _report: &IntervalReport,
    ) -> ObserveOutcome {
        self.modeled_overhead_s += 1.2;
        let (qe, qs) = snapshot.qos_components();
        let target = 0.5 * qe + 0.5 * qs;
        // Truncated-BPTT(1) update: advance the hidden state (end of each
        // real interval), then pull the head toward the observed
        // objective through the last step only, which read `x` and the
        // previous hidden row.
        let x = fuzzy_input(snapshot);
        let (hidden, y) = self.step(&x);
        let previous = std::mem::replace(&mut self.hidden, hidden);
        let err = y - target;
        let params = self.wx.params_mut().into_iter().chain(self.wh.params_mut());
        for p in params.chain(self.head.params_mut()) {
            p.zero_grad();
        }
        let grad = Matrix::from_vec(1, 1, vec![2.0 * err]);
        self.head.accumulate_grads(&self.hidden, &grad, &[(0, 1)]);
        let mut g_pre = Matrix::default();
        self.head
            .input_grad_into(&grad, self.hidden_dim, &mut g_pre);
        // Through tanh into the two input maps.
        for i in 0..g_pre.len() {
            let h = self.hidden.data()[i];
            g_pre.data_mut()[i] *= 1.0 - h * h;
        }
        self.wx.accumulate_grads(&x, &g_pre, &[(0, 1)]);
        self.wh.accumulate_grads(&previous, &g_pre, &[(0, 1)]);
        let mut params = self.wx.params_mut();
        params.extend(self.wh.params_mut());
        params.extend(self.head.params_mut());
        self.adam.step(params);
        self.fine_tunes += 1;
        ObserveOutcome { fine_tuned: true }
    }

    fn modeled_decision_s(&self) -> f64 {
        self.modeled_decision_s
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.modeled_overhead_s
    }

    fn memory_gb(&self) -> f64 {
        1.5 // recurrent network + fuzzifier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::state::Normalizer;
    use edgesim::{FaultLoad, SimConfig};

    fn capture(sim: &Simulator) -> SystemState {
        SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            &edgesim::SchedulingDecision::new(),
            &Normalizer::default(),
        )
    }

    #[test]
    fn fuzzify_partitions_unity_at_extremes() {
        assert_eq!(fuzzify(0.0), [1.0, 0.0, 0.0]);
        assert_eq!(fuzzify(0.5), [0.0, 1.0, 0.0]);
        assert_eq!(fuzzify(1.0), [0.0, 0.0, 1.0]);
        for x in [0.1, 0.25, 0.4, 0.6, 0.9] {
            let m = fuzzify(x);
            assert!(m.iter().all(|&d| (0.0..=1.0).contains(&d)));
            assert!(m.iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn elbs_and_fras_repair_failures() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 1));
        let mut sched = LeastLoadScheduler::new();
        sim.inject_fault(
            0,
            FaultLoad {
                cpu: 1.0,
                ..Default::default()
            },
        );
        sim.step(Vec::new(), &mut sched);
        let snapshot = capture(&sim);

        let mut elbs = Elbs::new(1);
        let t1 = elbs.repair(&sim, &snapshot).expect("ELBS repairs");
        t1.validate().unwrap();
        assert!(matches!(t1.role(0), NodeRole::Worker { .. }));

        let mut fras = Fras::new(1);
        let t2 = fras.repair(&sim, &snapshot).expect("FRAS repairs");
        t2.validate().unwrap();
        assert!(matches!(t2.role(0), NodeRole::Worker { .. }));
    }

    #[test]
    fn both_fine_tune_every_interval() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 2));
        let mut sched = LeastLoadScheduler::new();
        let mut elbs = Elbs::new(2);
        let mut fras = Fras::new(2);
        for _ in 0..6 {
            let report = sim.step(Vec::new(), &mut sched);
            let snapshot = capture(&sim);
            assert!(elbs.observe(&sim, &snapshot, &report).fine_tuned);
            assert!(fras.observe(&sim, &snapshot, &report).fine_tuned);
        }
        assert_eq!(elbs.fine_tune_count(), 6);
        assert_eq!(fras.fine_tune_count(), 6);
    }

    #[test]
    fn fras_hidden_state_carries_memory() {
        let mut sim = Simulator::new(SimConfig::small(6, 2, 3));
        let mut sched = LeastLoadScheduler::new();
        let mut fras = Fras::new(3);
        let r = sim.step(Vec::new(), &mut sched);
        let snapshot = capture(&sim);
        let before = fras.hidden.clone();
        fras.observe(&sim, &snapshot, &r);
        assert_ne!(before, fras.hidden, "hidden state must advance");
    }

    #[test]
    fn fras_learning_reduces_prediction_error() {
        let mut sim = Simulator::new(SimConfig::small(6, 2, 4));
        let mut sched = LeastLoadScheduler::new();
        let mut fras = Fras::new(4);
        let mut errors = Vec::new();
        for _ in 0..60 {
            let report = sim.step(Vec::new(), &mut sched);
            let snapshot = capture(&sim);
            let (qe, qs) = snapshot.qos_components();
            let target = 0.5 * qe + 0.5 * qs;
            let pred = fras.peek(&snapshot);
            errors.push((pred - target).abs());
            fras.observe(&sim, &snapshot, &report);
        }
        // The target itself drifts interval to interval; the recurrent
        // surrogate must track it without diverging: the tail of the error
        // series stays bounded and finite.
        let tail = &errors[errors.len() - 10..];
        assert!(tail.iter().all(|e| e.is_finite()));
        let tail_mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(tail_mean < 0.5, "tracking error diverged: {tail_mean}");
    }

    #[test]
    fn elbs_is_the_memory_heavyweight() {
        assert!(Elbs::new(0).memory_gb() > Fras::new(0).memory_gb());
        assert!(Elbs::new(0).memory_gb() >= 5.0);
    }
}
