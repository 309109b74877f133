//! Deterministic tabu search over the topology space (§III-B).
//!
//! The paper selects tabu search "due to its deterministic nature and
//! empirically faster convergence" \[49\]. The search walks the generic
//! node-shift moves ([`crate::nodeshift::enumerate_moves`]), always moving
//! to the best non-tabu neighbour, while a FIFO tabu list of visited
//! topologies (size `L = 100` in the paper, Fig. 6c) prevents cycling.
//!
//! One iteration:
//!
//! 1. lists its candidate [`Move`]s from the current topology, all of
//!    them or a seeded sample ([`Neighborhood`]), without building a
//!    topology;
//! 2. hands them to a [`BatchObjective`] in one
//!    [`BatchObjective::score_moves`] call, so surrogate-backed
//!    objectives can stack candidates into batched network forwards and
//!    fan them out over worker threads;
//! 3. picks the best admissible move — ties break toward the earlier
//!    move, and a tabu move is admitted only when it beats the global
//!    best (aspiration) — and applies only that one to the current
//!    topology.
//!
//! Tabu membership is a 64-bit hash of the role vector, updated per move
//! from the hosts the move changes; a candidate's role vector is built
//! and compared with a list entry's only when their hashes match. Scores
//! come back index-slotted, so a deterministic batch objective yields
//! bit-identical results to scoring one candidate at a time.

use crate::nodeshift::{apply_move, enumerate_moves, sample_moves, Move};
use edgesim::{HostId, NodeRole, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

/// An objective that scores candidate topologies in batches.
///
/// `score_batch` must return exactly one score per candidate, in input
/// order, and must behave as a pure function of each candidate (the
/// batched/parallel scorers keep this by construction: stacked network
/// forwards are row-independent and results are written to input-index
/// slots). Lower is better.
pub trait BatchObjective {
    /// Scores every candidate, in order.
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64>;

    /// [`BatchObjective::score_batch`] of the topologies `moves` lead to
    /// from `parent`, each move applied alone. [`search`] scores every
    /// neighbourhood through this. The default applies each move to a
    /// copy of `parent` and scores the copies; it is the reference an
    /// objective that scores the moves themselves must match bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if a move does not apply to `parent`.
    fn score_moves(&mut self, parent: &Topology, moves: &[Move]) -> Vec<f64> {
        let apply = |&mv: &Move| apply_move(parent, mv).expect("a scored move applies");
        let candidates: Vec<Topology> = moves.iter().map(apply).collect();
        self.score_batch(&candidates)
    }
}

impl<T: BatchObjective + ?Sized> BatchObjective for &mut T {
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        (**self).score_batch(candidates)
    }

    fn score_moves(&mut self, parent: &Topology, moves: &[Move]) -> Vec<f64> {
        (**self).score_moves(parent, moves)
    }
}

/// Adapter that lifts a serial `FnMut(&Topology) -> f64` objective into a
/// [`BatchObjective`] by mapping it over the batch in candidate order —
/// the pre-batching reference path, and the convenient form for tests and
/// cheap closures.
pub struct FnObjective<F>(pub F);

impl<F: FnMut(&Topology) -> f64> BatchObjective for FnObjective<F> {
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        candidates.iter().map(|t| (self.0)(t)).collect()
    }
}

/// Wraps a serial closure objective for [`search`].
pub fn from_fn<F: FnMut(&Topology) -> f64>(f: F) -> FnObjective<F> {
    FnObjective(f)
}

/// How each iteration builds the candidate neighbourhood.
///
/// The full node-shift move set is Θ(n·brokers) moves, so one iteration
/// scores O(n²)-ish candidates — fine to ~128 hosts, prohibitive at 1024.
/// `Sampled` caps the per-iteration neighbourhood at `max_moves` moves
/// drawn uniformly without replacement ([`crate::nodeshift::sample_moves`]).
/// This
/// **knowingly changes search results** versus `Full` — the walk sees a
/// random subsequence of each neighbourhood — in exchange for O(n·k)
/// repair cost. It stays deterministic: the RNG is seeded once per
/// [`search`] call from `seed`, and sampling happens before scoring, so
/// results are identical at any evaluator worker count or batch shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Neighborhood {
    /// Enumerate every node-shift move (the paper's setting).
    #[default]
    Full,
    /// Score at most `max_moves` uniformly-sampled moves per iteration.
    Sampled {
        /// Per-iteration candidate cap.
        max_moves: usize,
        /// Seed for the per-search sampling RNG.
        seed: u64,
    },
}

/// Tabu-search configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TabuConfig {
    /// FIFO tabu-list capacity (paper default: 100).
    pub list_size: usize,
    /// Maximum search iterations (each evaluates a full neighbourhood).
    pub max_iters: usize,
    /// Neighbourhood construction (defaults to the full move set).
    #[serde(default)]
    pub neighborhood: Neighborhood,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            list_size: 100,
            max_iters: 8,
            neighborhood: Neighborhood::Full,
        }
    }
}

/// Outcome of a tabu search.
#[derive(Debug, Clone)]
pub struct TabuResult {
    /// Best topology found.
    pub best: Topology,
    /// Objective value of `best` (lower is better).
    pub best_score: f64,
    /// Objective value of the start topology — the search scores it
    /// first, so a caller comparing against it needs no query of its own.
    pub start_score: f64,
    /// Candidate topologies evaluated (surrogate queries issued).
    pub evaluations: usize,
    /// Iterations the search ran.
    pub iterations: usize,
    /// Seconds spent building the iterations' neighbourhoods.
    pub sampling_s: f64,
    /// Seconds spent in the search's own bookkeeping: picking the best
    /// admissible neighbour, moving to it and updating the tabu list.
    pub bookkeeping_s: f64,
}

/// The FIFO tabu list: each visited topology's role vector with its
/// [`role_hash`]. A candidate's roles are compared with an entry's only
/// when their hashes match.
struct TabuList {
    capacity: usize,
    entries: VecDeque<(u64, Vec<NodeRole>)>,
}

impl TabuList {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity + 1),
        }
    }

    /// Appends a visited topology, dropping the oldest entry when full.
    fn push(&mut self, hash: u64, roles: &[NodeRole]) {
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((hash, roles.to_vec()));
    }

    /// Whether the topology `mv` leads to from `current`, whose role
    /// hash is `hash`, is on the list. On a hash match `mv` is applied to
    /// `current` for the compare and undone after it.
    fn holds(&self, current: &mut Topology, hash: u64, mv: Move, undo: &mut Vec<HostId>) -> bool {
        let moved = moved_hash(current, hash, mv);
        let mut hits = self.entries.iter().filter(|(h, _)| *h == moved).peekable();
        if hits.peek().is_none() {
            return false;
        }
        mv.apply(current, undo).expect("a scored move applies");
        let held = hits.any(|(_, roles)| roles[..] == *current.roles());
        mv.undo(current, undo);
        held
    }
}

/// Host `h` holding `role`, hashed (a splitmix64 finalisation).
fn role_key(h: HostId, role: NodeRole) -> u64 {
    let code = match role {
        NodeRole::Broker => 0,
        NodeRole::Worker { broker } => broker as u64 + 1,
    };
    let mut z = (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ code;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tabu list's hash of a role vector: the wrapping sum of its hosts'
/// [`role_key`]s, so a move updates it from the hosts it changes alone.
fn role_hash(roles: &[NodeRole]) -> u64 {
    let keys = roles.iter().enumerate().map(|(h, &r)| role_key(h, r));
    keys.fold(0, u64::wrapping_add)
}

/// The [`role_hash`] of the topology `mv` leads to from `topo`, whose
/// hash is `hash`.
fn moved_hash(topo: &Topology, hash: u64, mv: Move) -> u64 {
    let swap = |hash: u64, h: HostId, to: NodeRole| {
        hash.wrapping_sub(role_key(h, topo.role(h)))
            .wrapping_add(role_key(h, to))
    };
    match mv {
        Move::Promote { w } => swap(hash, w, NodeRole::Broker),
        Move::Reassign { w, bkr } => swap(hash, w, NodeRole::Worker { broker: bkr }),
        Move::Demote { bkr, target } => {
            let to = NodeRole::Worker { broker: target };
            let hash = swap(hash, bkr, to);
            topo.workers_of(bkr)
                .iter()
                .fold(hash, |hash, &w| swap(hash, w, to))
        }
    }
}

/// Minimises `objective` over topologies reachable from `start` by
/// node-shift moves, never promoting hosts in `banned`.
///
/// `objective` is `Ω(G; D, S, O)` in the paper: the surrogate-predicted
/// QoS of candidate `G`. The start is scored with one `score_batch` call,
/// and each iteration's moves with one `score_moves` call whose parent is
/// the iteration's current topology. The search is deterministic: ties
/// break toward the earlier-listed move, and a tabu move is only admitted
/// when it beats the global best (aspiration criterion). Serial closures
/// plug in via [`from_fn`].
pub fn search(
    start: Topology,
    banned: &[HostId],
    config: &TabuConfig,
    mut objective: impl BatchObjective,
) -> TabuResult {
    let mut evaluations = 1usize;
    let start_scores = objective.score_batch(std::slice::from_ref(&start));
    assert_eq!(
        start_scores.len(),
        1,
        "objective must score every candidate"
    );
    let start_score = start_scores[0];
    let (mut sampling_s, mut bookkeeping_s, mut iterations) = (0.0, 0.0, 0);
    let mut best = start.clone();
    let mut best_score = start_score;
    let mut current = start;
    let mut hash = role_hash(current.roles());
    let mut tabu = TabuList::new(config.list_size);
    tabu.push(hash, current.roles());
    let mut undo = Vec::new();

    // Sampling RNG lives outside the loop: one seed, one draw sequence,
    // independent of how (or on how many threads) candidates are scored.
    let mut sample_rng = match config.neighborhood {
        Neighborhood::Sampled { seed, .. } => Some(StdRng::seed_from_u64(seed)),
        Neighborhood::Full => None,
    };

    for _ in 0..config.max_iters {
        let sampling = Instant::now();
        let moves = match config.neighborhood {
            Neighborhood::Full => enumerate_moves(&current, banned),
            Neighborhood::Sampled { max_moves, .. } => sample_moves(
                &current,
                banned,
                max_moves,
                sample_rng.as_mut().expect("rng exists for sampled mode"),
            ),
        };
        sampling_s += sampling.elapsed().as_secs_f64();
        let scores = objective.score_moves(&current, &moves);
        assert_eq!(
            scores.len(),
            moves.len(),
            "objective must score every candidate"
        );
        evaluations += moves.len();
        iterations += 1;

        let bookkeeping = Instant::now();
        let mut chosen: Option<(usize, f64)> = None;
        for (i, (&mv, &s)) in moves.iter().zip(&scores).enumerate() {
            // Aspiration criterion: a tabu move is allowed if it beats the
            // global best.
            if s >= best_score && tabu.holds(&mut current, hash, mv, &mut undo) {
                continue;
            }
            match chosen {
                Some((_, cs)) if s >= cs => {}
                _ => chosen = Some((i, s)),
            }
        }
        let Some((idx, next_score)) = chosen else {
            bookkeeping_s += bookkeeping.elapsed().as_secs_f64();
            break; // whole neighbourhood tabu and non-aspiring
        };
        hash = moved_hash(&current, hash, moves[idx]);
        moves[idx]
            .apply(&mut current, &mut undo)
            .expect("a scored move applies");
        tabu.push(hash, current.roles());
        if next_score < best_score {
            best.clone_from(&current);
            best_score = next_score;
        }
        bookkeeping_s += bookkeeping.elapsed().as_secs_f64();
    }

    TabuResult {
        best,
        best_score,
        start_score,
        evaluations,
        iterations,
        sampling_s,
        bookkeeping_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeshift::mutations;

    /// Toy objective: prefer exactly `target` brokers, tie-break on worker
    /// balance across LEIs.
    fn broker_count_objective(target: usize) -> impl FnMut(&Topology) -> f64 {
        move |t: &Topology| {
            let brokers = t.brokers();
            let count_term = (brokers.len() as f64 - target as f64).abs();
            let sizes: Vec<f64> = brokers
                .iter()
                .map(|&b| t.workers_of(b).len() as f64)
                .collect();
            let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
            let imbalance: f64 = sizes.iter().map(|s| (s - mean).abs()).sum();
            count_term * 10.0 + imbalance
        }
    }

    #[test]
    fn finds_the_target_broker_count() {
        let start = Topology::balanced(12, 1).unwrap();
        let result = search(
            start,
            &[],
            &TabuConfig {
                list_size: 50,
                max_iters: 10,
                ..Default::default()
            },
            from_fn(broker_count_objective(3)),
        );
        assert_eq!(result.best.brokers().len(), 3, "best={:?}", result.best);
        result.best.validate().unwrap();
        assert!(result.evaluations > 0);
    }

    #[test]
    fn is_deterministic() {
        let start = Topology::balanced(10, 2).unwrap();
        let run = || {
            search(
                start.clone(),
                &[],
                &TabuConfig::default(),
                from_fn(broker_count_objective(4)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn never_promotes_banned_hosts() {
        let start = Topology::balanced(10, 2).unwrap();
        let banned = [4usize, 6];
        let result = search(
            start,
            &banned,
            &TabuConfig::default(),
            from_fn(broker_count_objective(5)),
        );
        for &h in &banned {
            assert!(
                matches!(result.best.role(h), edgesim::NodeRole::Worker { .. }),
                "banned host {h} ended up a broker"
            );
        }
    }

    #[test]
    fn best_is_no_worse_than_start() {
        let start = Topology::balanced(9, 3).unwrap();
        let mut obj = broker_count_objective(2);
        let start_score = obj(&start);
        let result = search(start, &[], &TabuConfig::default(), from_fn(obj));
        assert_eq!(result.start_score, start_score);
        assert!(result.best_score <= start_score);
    }

    #[test]
    fn tiny_tabu_list_still_terminates() {
        let start = Topology::balanced(8, 2).unwrap();
        let result = search(
            start,
            &[],
            &TabuConfig {
                list_size: 1,
                max_iters: 20,
                ..Default::default()
            },
            from_fn(broker_count_objective(3)),
        );
        result.best.validate().unwrap();
    }

    #[test]
    fn larger_lists_explore_at_least_as_well() {
        // Fig. 6(c): bigger tabu lists trade scheduling time for QoS.
        let start = Topology::balanced(12, 2).unwrap();
        let small = search(
            start.clone(),
            &[],
            &TabuConfig {
                list_size: 2,
                max_iters: 12,
                ..Default::default()
            },
            from_fn(broker_count_objective(5)),
        );
        let large = search(
            start,
            &[],
            &TabuConfig {
                list_size: 200,
                max_iters: 12,
                ..Default::default()
            },
            from_fn(broker_count_objective(5)),
        );
        assert!(large.best_score <= small.best_score + 1e-9);
    }

    #[test]
    fn sampled_neighborhood_is_deterministic_and_cheaper() {
        let start = Topology::balanced(32, 8).unwrap();
        let full_cfg = TabuConfig {
            list_size: 50,
            max_iters: 6,
            ..Default::default()
        };
        let sampled_cfg = TabuConfig {
            neighborhood: Neighborhood::Sampled {
                max_moves: 16,
                seed: 11,
            },
            ..full_cfg.clone()
        };
        let run =
            |cfg: &TabuConfig| search(start.clone(), &[], cfg, from_fn(broker_count_objective(6)));
        let a = run(&sampled_cfg);
        let b = run(&sampled_cfg);
        assert_eq!(a.best, b.best, "sampled search must be self-identical");
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.evaluations, b.evaluations);

        let full = run(&full_cfg);
        assert!(
            a.evaluations < full.evaluations,
            "sampling must cut surrogate queries: {} vs {}",
            a.evaluations,
            full.evaluations
        );
        a.best.validate().unwrap();
    }

    #[test]
    fn sampled_with_huge_cap_equals_full_search() {
        let start = Topology::balanced(12, 3).unwrap();
        let full = search(
            start.clone(),
            &[],
            &TabuConfig::default(),
            from_fn(broker_count_objective(4)),
        );
        let sampled = search(
            start,
            &[],
            &TabuConfig {
                neighborhood: Neighborhood::Sampled {
                    max_moves: 10_000,
                    seed: 1,
                },
                ..Default::default()
            },
            from_fn(broker_count_objective(4)),
        );
        assert_eq!(full.best, sampled.best);
        assert_eq!(full.best_score.to_bits(), sampled.best_score.to_bits());
        assert_eq!(full.evaluations, sampled.evaluations);
    }

    /// A batch objective that mirrors a serial closure while recording the
    /// batch sizes it was handed.
    struct Recording<F> {
        f: F,
        batch_sizes: Vec<usize>,
    }

    impl<F: FnMut(&Topology) -> f64> BatchObjective for Recording<F> {
        fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
            self.batch_sizes.push(candidates.len());
            candidates.iter().map(|t| (self.f)(t)).collect()
        }
    }

    #[test]
    fn batch_objective_matches_serial_closure_bitwise() {
        let start = Topology::balanced(12, 3).unwrap();
        let config = TabuConfig {
            list_size: 30,
            max_iters: 6,
            ..Default::default()
        };
        let serial = search(
            start.clone(),
            &[],
            &config,
            from_fn(broker_count_objective(4)),
        );
        let mut recording = Recording {
            f: broker_count_objective(4),
            batch_sizes: Vec::new(),
        };
        let batched = search(start, &[], &config, &mut recording);
        assert_eq!(serial.best, batched.best);
        assert_eq!(serial.best_score.to_bits(), batched.best_score.to_bits());
        assert_eq!(serial.evaluations, batched.evaluations);
        // The search must actually batch: one call for the start, then one
        // whole-neighbourhood call per iteration.
        assert_eq!(recording.batch_sizes[0], 1);
        assert!(recording.batch_sizes.iter().skip(1).all(|&n| n > 1));
        assert_eq!(
            recording.batch_sizes.iter().sum::<usize>(),
            batched.evaluations
        );
    }

    /// A serial closure objective that logs each `score_moves` call's
    /// parent and moves.
    struct Parents<F> {
        f: F,
        calls: Vec<(Topology, Vec<Move>)>,
    }

    impl<F: FnMut(&Topology) -> f64> BatchObjective for Parents<F> {
        fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
            candidates.iter().map(|t| (self.f)(t)).collect()
        }

        fn score_moves(&mut self, parent: &Topology, moves: &[Move]) -> Vec<f64> {
            self.calls.push((parent.clone(), moves.to_vec()));
            let candidates: Vec<Topology> = moves
                .iter()
                .map(|&m| apply_move(parent, m).unwrap())
                .collect();
            self.score_batch(&candidates)
        }
    }

    #[test]
    fn search_scores_each_neighbourhood_against_its_current_topology() {
        let start = Topology::balanced(12, 3).unwrap();
        let config = TabuConfig {
            list_size: 30,
            max_iters: 5,
            ..Default::default()
        };
        let mut parents = Parents {
            f: broker_count_objective(5),
            calls: Vec::new(),
        };
        search(start.clone(), &[], &config, &mut parents);
        let calls = parents.calls;
        assert_eq!(calls.len(), config.max_iters);
        assert_eq!(calls[0].0, start);
        for (k, (parent, moves)) in calls.iter().enumerate() {
            assert_eq!(*moves, enumerate_moves(parent, &[]), "iteration {k}");
            if k > 0 {
                // The parent is the move the previous iteration took.
                let (before, taken) = &calls[k - 1];
                let reached = taken.iter().map(|&m| apply_move(before, m).unwrap());
                assert!(reached.into_iter().any(|t| t == *parent), "iteration {k}");
            }
        }
    }

    /// The hash a move leads to is the hash of the topology it leads to,
    /// for every move kind.
    #[test]
    fn moved_hash_is_the_hash_of_the_moved_topology() {
        for (n_hosts, n_brokers) in [(8, 2), (16, 4), (54, 18)] {
            let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
            let hash = role_hash(topo.roles());
            for mv in enumerate_moves(&topo, &[]) {
                let moved = apply_move(&topo, mv).unwrap();
                assert_eq!(
                    moved_hash(&topo, hash, mv),
                    role_hash(moved.roles()),
                    "{mv:?}"
                );
            }
        }
    }

    /// A list entry whose hash collides with a candidate's but whose
    /// roles differ does not make the candidate tabu; the candidate's own
    /// roles do.
    #[test]
    fn a_hash_collision_the_role_compare_rejects_leaves_the_move_admissible() {
        let mut current = Topology::balanced(12, 3).unwrap();
        let hash = role_hash(current.roles());
        let moves = enumerate_moves(&current, &[]);
        let (mv, other) = (moves[0], moves[1]);
        let (candidate, unrelated) = (
            apply_move(&current, mv).unwrap(),
            apply_move(&current, other).unwrap(),
        );
        let collision = moved_hash(&current, hash, mv);
        let mut undo = Vec::new();
        let mut tabu = TabuList::new(4);
        tabu.push(collision, unrelated.roles());
        assert!(
            !tabu.holds(&mut current, hash, mv, &mut undo),
            "a collision made {mv:?} tabu"
        );
        assert_eq!(
            current,
            Topology::balanced(12, 3).unwrap(),
            "the compare undoes the move"
        );
        tabu.push(collision, candidate.roles());
        assert!(tabu.holds(&mut current, hash, mv, &mut undo));
        assert!(!tabu.holds(&mut current, hash, other, &mut undo));
    }

    /// Aspiration criterion: a tabu move is accepted iff it beats the
    /// global best. Scripted scores drive the search back to the (tabu)
    /// start topology: when the revisit scores below the global best it
    /// must be taken; when it merely beats the other neighbours it must be
    /// skipped.
    #[test]
    fn aspiration_admits_tabu_moves_only_when_beating_global_best() {
        // 8 hosts / 2 brokers: iteration 1 promotes a worker (3 brokers),
        // iteration 2 can demote it straight back — the tabu revisit.
        let start = Topology::balanced(8, 2).unwrap();
        let start_roles = start.roles().to_vec();
        // The neighbour the first iteration will pick (score 5.0).
        let step_one_roles = mutations(&start, &[])[0].roles().to_vec();
        let config = TabuConfig {
            list_size: 50,
            max_iters: 2,
            ..Default::default()
        };

        let run = |revisit_score: f64| {
            let mut seen_start = false;
            let (start_roles, step_one_roles) = (start_roles.clone(), step_one_roles.clone());
            search(
                start.clone(),
                &[],
                &config,
                from_fn(move |t: &Topology| {
                    if t.roles() == start_roles {
                        if seen_start {
                            return revisit_score; // the tabu revisit
                        }
                        seen_start = true;
                        10.0 // the start's own score; global best = 5.0 after iter 1
                    } else if t.roles() == step_one_roles {
                        5.0
                    } else {
                        8.0
                    }
                }),
            )
        };

        // Revisit scores 1.0 < global best 5.0: aspiration admits it.
        let aspiring = run(1.0);
        assert_eq!(
            aspiring.best.roles(),
            start_roles,
            "a tabu move beating the global best must be accepted"
        );
        assert_eq!(aspiring.best_score, 1.0);

        // Revisit scores 6.0: better than every non-tabu neighbour (8.0)
        // but not better than the global best — it must stay blocked.
        let blocked = run(6.0);
        assert_ne!(
            blocked.best.roles(),
            start_roles,
            "a tabu move not beating the global best must stay tabu"
        );
        assert_eq!(blocked.best_score, 5.0);
    }
}
