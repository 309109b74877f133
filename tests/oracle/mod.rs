//! Differential oracle for the repair objective, shared by
//! `tests/objective_oracle.rs` and `tests/determinism.rs`.
//!
//! Tabu search (Algorithm 2) scores a candidate topology `G` as
//! `α·q_energy + β·q_slo` of the metrics the GON generates for it (eq. 1)
//! plus the transition cost of installing `G` (§III-B). Production runs
//! that as an engine: row-budget chunks, worker fan-out, patched GAT
//! branches and SIMD reductions. [`Reference`] computes it the plain way,
//! one candidate at a time on the scalar kernels, through an eq.-1 loop
//! of its own ([`reference_generate`]: the training path's allocating
//! `GonModel::score` and `GonModel::backward`, not the ascent engine
//! under test), and repairs over it as Algorithm 2 does.
//! [`check`] requires the engine to match both bit for bit.

use carol::carol::{Carol, CarolConfig};
use carol::nodeshift::{apply_move, enumerate_moves, neighborhood, random_shift, Move};
use carol::tabu::{self, BatchObjective, Neighborhood};
use carol::ResiliencePolicy;
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::{qos_components, Normalizer, SystemState, METRIC_DIM, QOS_ALPHA, QOS_BETA};
use edgesim::{FaultLoad, HostId, NodeRole, SimConfig, Simulator, Topology};
use gon::{Generated, GonModel, GEN_TOL};
use nn::kernel::{self, Backend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// Seed of the policy under test: its node-shift RNG stream.
const POLICY_SEED: u64 = 11;

/// The test controller: `gen_steps` ascent steps, `max_iters` tabu
/// iterations over `neighborhood`, and a narrow GON (5-wide layers,
/// 2-wide attention). Chunks, fan-out and patches do not depend on layer
/// widths; the narrow layers halve this suite's debug-build time.
pub fn carol_config(gen_steps: usize, max_iters: usize, neighborhood: Neighborhood) -> CarolConfig {
    let mut config = CarolConfig::fast_test();
    (config.gon.hidden, config.gon.gat_dim, config.gon.gat_att) = (5, 5, 2);
    config.gon.gen_steps = gen_steps;
    config.tabu.max_iters = max_iters;
    config.tabu.neighborhood = neighborhood;
    config
}

/// An `n_hosts`-host federation one interval after its broker
/// `brokers()[victim]` was felled, and its snapshot.
pub fn failed_federation(
    n_hosts: usize,
    n_brokers: usize,
    victim: usize,
) -> (Simulator, SystemState) {
    let mut sim = Simulator::new(SimConfig::small(n_hosts, n_brokers, 5));
    let broker = sim.topology().brokers()[victim];
    let fault = FaultLoad {
        cpu: 1.0,
        ..Default::default()
    };
    sim.inject_fault(broker, fault);
    let report = sim.step(Vec::new(), &mut LeastLoadScheduler::new());
    assert!(report.failed_brokers.contains(&broker));
    let snapshot = SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &report.decision,
        &Normalizer::for_federation(n_hosts, n_brokers),
    );
    (sim, snapshot)
}

/// Serialises backend swaps, so that one test's restore cannot undo
/// another's pin. It guards no data, so a poisoned lock is safe to take.
static BACKEND: Mutex<()> = Mutex::new(());

/// Holds off every other backend swap in this test binary while the
/// guard lives.
pub fn backend_lock() -> MutexGuard<'static, ()> {
    BACKEND.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on the scalar kernels. Tests running meanwhile see the swap,
/// which is harmless only because every backend gives the same bits.
fn on_scalar<T>(f: impl FnOnce() -> T) -> T {
    let _guard = backend_lock();
    let previous = kernel::set_backend(Backend::Scalar);
    let out = f();
    kernel::set_backend(previous);
    out
}

/// The eq.-1 ascent of `state` (`M ← clamp(M + γ·∇_M log D)`), one
/// step at a time through the training path: `score` runs the whole
/// network, `backward` the whole gradient, and only its metric columns
/// enter the update. A candidate stops when its score drops below the
/// last one (overshoot) or, past the first step, gains less than
/// `GEN_TOL` scaled by γ (plateau); it returns its best-scoring metrics,
/// that score, and the steps it took. With no steps it scores the warm
/// start.
fn reference_generate(gon: &mut GonModel, state: &SystemState) -> Generated {
    let (steps, lr) = (gon.config().gen_steps, gon.config().gen_lr);
    let tol = GEN_TOL * (lr / 1e-3).max(1e-6);
    let mut probe = state.clone();
    let mut metrics = state.metrics_flat();
    let mut best = Generated {
        metrics_flat: metrics.clone(),
        confidence: f64::NEG_INFINITY,
        iterations: 0,
    };
    let mut prev = f64::NEG_INFINITY;
    for it in 0..steps {
        probe.set_metrics_flat(&metrics);
        let score = gon.score(&probe);
        if score > best.confidence {
            best.confidence = score;
            best.metrics_flat.clone_from(&metrics);
        }
        best.iterations = it + 1;
        if score < prev || (it > 0 && score - prev < tol) {
            break;
        }
        prev = score;
        let gradient = gon.backward(state.n_hosts(), 1.0 / score.max(1e-9));
        assert_eq!(gradient.cols(), METRIC_DIM);
        kernel::ascent_update(&mut metrics, gradient.data(), lr);
    }
    if best.confidence == f64::NEG_INFINITY {
        probe.set_metrics_flat(&metrics);
        best.confidence = gon.score(&probe);
    }
    best
}

/// The cost of installing `candidate` over `current`: 0.04 per host that
/// changes layer, 0.004 per worker that changes broker.
fn transition_cost(current: &Topology, candidate: &Topology) -> f64 {
    let mut cost = 0.0;
    for h in 0..current.len() {
        cost += match (current.role(h), candidate.role(h)) {
            (NodeRole::Broker, NodeRole::Broker) => 0.0,
            (NodeRole::Worker { broker: a }, NodeRole::Worker { broker: b }) if a == b => 0.0,
            (NodeRole::Worker { .. }, NodeRole::Worker { .. }) => 0.004,
            _ => 0.04,
        };
    }
    cost
}

/// The reference objective, with a log of every candidate it scored, its
/// generation and its score, in order.
struct Reference {
    gon: GonModel,
    config: CarolConfig,
    candidates: Vec<Topology>,
    generated: Vec<Generated>,
    scores: Vec<f64>,
}

impl Reference {
    /// The objective of `candidate` against `snapshot`.
    fn objective(&mut self, snapshot: &SystemState, candidate: &Topology) -> f64 {
        let probe = snapshot.with_topology(candidate);
        let generated = on_scalar(|| reference_generate(&mut self.gon, &probe));
        let (q_energy, q_slo) = qos_components(&generated.metrics_flat);
        let qos = QOS_ALPHA * q_energy + QOS_BETA * q_slo;
        let score = transition_cost(&snapshot.topology, candidate) + qos;
        self.candidates.push(candidate.clone());
        self.generated.push(generated);
        self.scores.push(score);
        score
    }

    /// The modeled decision time of the log's `range`: 0.08 ms per ascent
    /// iteration at the reference depth of 3 layers, summed in order.
    fn modeled_s(&self, range: Range<usize>) -> f64 {
        let depth = self.config.gon.head_layers.max(1) as f64 / 3.0;
        let cost = |g: &Generated| 8.0e-5 * depth * g.iterations as f64;
        self.generated[range]
            .iter()
            .fold(0.0, |total, g| total + cost(g))
    }

    /// Algorithm 2's repair of every failed broker: a random node-shift
    /// on the policy's seeded RNG, then tabu search over the objective.
    /// Returns the repaired topology and the last search's best score.
    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> (Topology, f64) {
        let tabu = self.config.tabu.clone();
        let states = sim.host_states();
        let banned: Vec<HostId> = (0..states.len()).filter(|&h| states[h].failed).collect();
        let mut rng = StdRng::seed_from_u64(POLICY_SEED);
        let (mut topology, mut score) = (sim.topology().clone(), f64::NAN);
        for &b in sim.failed_brokers() {
            if matches!(topology.role(b), NodeRole::Broker) {
                topology = random_shift(&topology, b, &banned, &mut rng);
                let objective = tabu::from_fn(|c: &Topology| self.objective(snapshot, c));
                let result = tabu::search(topology, &banned, &tabu, objective);
                (topology, score) = (result.best, result.best_score);
            }
        }
        (topology, score)
    }
}

/// Asserts that `got` equals `want` bit for bit, naming the first value
/// that differs.
fn assert_bits(case: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{case}: {what} count");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{case}: {what} {i} is {:e}, not {:e}", got[i], want[i]);
    }
}

/// Checks the engine against the reference, which scores `candidates`,
/// repairs the federation and scores the move candidates, on each worker
/// count in `workers`:
///
/// 1. `GonModel::generate_batch`, chunked by `gon::batch_len` and fanned
///    over the workers, on `candidates`: every metric, the confidence
///    and the iteration count;
/// 2. `Carol::batch_objective`'s `score_batch` on `candidates`, then on
///    every candidate the reference search scored: scores, queries and
///    modeled time;
/// 3. `Carol::repair`: topology, best score, queries and modeled time;
/// 4. the objective's `score_moves` on the first and last move of each
///    kind from two parents, in turn on one objective: the snapshot's
///    topology, and a repair shift whose broker count differs. Scores
///    and modeled time.
pub fn check(
    case: &str,
    federation: &(Simulator, SystemState),
    candidates: &[Topology],
    config: CarolConfig,
    workers: &[usize],
) {
    let (sim, snapshot) = federation;
    let gon = GonModel::new(config.gon.clone());
    let mut reference = Reference {
        gon: gon.clone(),
        config,
        candidates: Vec::new(),
        generated: Vec::new(),
        scores: Vec::new(),
    };
    for c in candidates {
        reference.objective(snapshot, c);
    }
    let (want_repair, want_score) = reference.repair(sim, snapshot);
    let (n, total) = (candidates.len(), reference.scores.len());
    let brokers = snapshot.topology.brokers().len();
    let failed = sim.failed_brokers();
    let shifted = neighborhood(sim.topology(), failed[0], failed)
        .into_iter()
        .find(|t| t.brokers().len() != brokers)
        .expect("some repair shift changes the broker count");
    let moves: Vec<(&Topology, Vec<Move>)> = [&snapshot.topology, &shifted]
        .into_iter()
        .map(|parent| (parent, first_last_moves(parent, sim)))
        .collect();
    for (parent, moves) in &moves {
        for &m in moves {
            let candidate = apply_move(parent, m).expect("a listed move applies");
            reference.objective(snapshot, &candidate);
        }
    }
    let all = reference.scores.len();

    for &w in workers {
        let case = format!("{case} / {w} workers");
        let mut config = reference.config.clone();
        config.eval_threads = Some(w);
        let policy = || Carol::from_model(gon.clone(), config.clone(), POLICY_SEED);

        // 1. The chunked, fanned-out generation.
        let probes: Vec<SystemState> = candidates
            .iter()
            .map(|c| snapshot.with_topology(c))
            .collect();
        let chunks: Vec<&[SystemState]> =
            probes.chunks(gon::batch_len(snapshot.n_hosts())).collect();
        let generate = |m: &mut GonModel, chunk: &&[SystemState]| m.generate_batch(chunk);
        let generated = par::par_map_init(w, &chunks, || gon.clone(), generate).concat();
        assert_eq!(generated.len(), n, "{case}: generated count");
        for (i, (got, want)) in generated.iter().zip(&reference.generated).enumerate() {
            let at = format!("{case}: candidate {i}");
            assert_bits(&at, "metric", &got.metrics_flat, &want.metrics_flat);
            assert_bits(&at, "confidence", &[got.confidence], &[want.confidence]);
            assert_eq!(got.iterations, want.iterations, "{at}: iterations");
        }

        // 2. The batched objective and its bookkeeping, in two batches
        // that keep their own chunk boundaries.
        let mut carol = policy();
        for (batch, range) in [("given score", 0..n), ("searched score", n..total)] {
            let candidates = &reference.candidates[range.clone()];
            let got = carol.batch_objective(snapshot).score_batch(candidates);
            assert_bits(&case, batch, &got, &reference.scores[range]);
        }
        let queries = carol.surrogate_queries;
        assert_eq!(queries, total, "{case}: queries");
        let got = [carol.modeled_decision_s()];
        let want = [reference.modeled_s(0..total)];
        assert_bits(&case, "modeled time", &got, &want);

        // 3. The whole repair.
        let mut carol = policy();
        let repaired = carol
            .repair(sim, snapshot)
            .expect("a failed broker is repaired");
        assert_eq!(repaired, want_repair, "{case}: repaired topology");
        let score = [carol.last_repair_score.expect("a repair records its score")];
        assert_bits(&case, "repair score", &score, &[want_score]);
        let queries = carol.surrogate_queries;
        assert_eq!(queries, total - n, "{case}: repair queries");
        let got = [carol.modeled_decision_s()];
        let want = [reference.modeled_s(n..total)];
        assert_bits(&case, "repair time", &got, &want);

        // 4. Moves from the snapshot's topology, then from the shifted
        // parent, whose record replaces the first.
        let mut carol = policy();
        let mut objective = carol.batch_objective(snapshot);
        let mut start = total;
        for (parent, moves) in &moves {
            let got = objective.score_moves(parent, moves);
            let range = start..start + moves.len();
            let label = format!("moves from {} brokers", parent.brokers().len());
            assert_bits(&case, &label, &got, &reference.scores[range]);
            start += moves.len();
        }
        drop(objective);
        assert_eq!(carol.surrogate_queries, all - total, "{case}: move queries");
        let got = [carol.modeled_decision_s()];
        let want = [reference.modeled_s(total..all)];
        assert_bits(&case, "move time", &got, &want);
    }
}

/// The first and last move of each kind from `parent`.
fn first_last_moves(parent: &Topology, sim: &Simulator) -> Vec<Move> {
    let mut ends = Vec::new();
    for k in 0..3 {
        let moves = moves_of_kind(parent, sim, k);
        ends.extend(moves.first());
        ends.extend(moves.last().filter(|_| moves.len() > 1));
    }
    ends
}

/// A repair of the failed broker: `pick` indexes its repair neighbourhood.
pub fn repair_shift(sim: &Simulator, pick: usize) -> Topology {
    let failed = sim.failed_brokers();
    let repairs = neighborhood(sim.topology(), failed[0], failed);
    repairs[pick % repairs.len()].clone()
}

/// The moves from `start` of kind `k`: 0 promote, 1 demote, 2 reassign.
pub fn moves_of_kind(start: &Topology, sim: &Simulator, k: usize) -> Vec<Move> {
    let kind = |m: &Move| match m {
        Move::Promote { .. } => 0,
        Move::Demote { .. } => 1,
        Move::Reassign { .. } => 2,
    };
    let moves = enumerate_moves(start, sim.failed_brokers());
    moves.into_iter().filter(|m| kind(m) == k).collect()
}

/// The last repair shift of the failed broker, then the first and last
/// move of each kind from the snapshot's topology and from the shifted
/// one (two moves from the snapshot, as tabu's second iteration scores).
pub fn first_last(sim: &Simulator) -> Vec<Topology> {
    let shifted = repair_shift(sim, usize::MAX);
    let mut candidates = vec![shifted.clone()];
    for start in [sim.topology(), &shifted] {
        for k in 0..3 {
            let moves = moves_of_kind(start, sim, k);
            let first_last = [moves.first(), moves.last()].into_iter().flatten();
            let applied: Vec<Topology> = first_last.filter_map(|&m| apply_move(start, m)).collect();
            assert!(!applied.is_empty(), "move kind {k} is missing");
            candidates.extend(applied);
        }
    }
    candidates
}

/// A corner-table row: hosts, brokers, the candidates to score besides
/// the repair's, the controller, and the worker counts.
pub type Row = (usize, usize, Candidates, CarolConfig, &'static [usize]);
pub type Candidates = fn(&Simulator) -> Vec<Topology>;

pub fn check_row((n_hosts, n_brokers, candidates, config, workers): Row) {
    let federation = failed_federation(n_hosts, n_brokers, 0);
    let (gen, tabu) = (config.gon.gen_steps, &config.tabu);
    let search = format!("{} x {:?}", tabu.max_iters, tabu.neighborhood);
    let case = format!("{n_hosts}/{n_brokers} hosts/brokers, {gen} steps, {search}");
    let candidates = candidates(&federation.0);
    check(&case, &federation, &candidates, config, workers);
}

pub const fn sampled(max_moves: usize, seed: u64) -> Neighborhood {
    Neighborhood::Sampled { max_moves, seed }
}
