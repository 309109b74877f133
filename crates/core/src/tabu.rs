//! Deterministic tabu search over the topology space (§III-B).
//!
//! The paper selects tabu search "due to its deterministic nature and
//! empirically faster convergence" \[49\]. The search walks the generic
//! node-shift move set ([`crate::nodeshift::mutations`]), always moving to
//! the best non-tabu neighbour, while a FIFO tabu list of visited
//! topologies' role vectors (size `L = 100` in the paper, Fig. 6c)
//! prevents cycling.
//!
//! The search is **batch-first**: each iteration enumerates the whole
//! neighbourhood up front and hands it to a [`BatchObjective`] in one
//! call, so surrogate-backed objectives can stack candidates into batched
//! network forwards and fan them out over worker threads. Candidate order
//! is fixed (the enumeration order of [`mutations`]) and scores come back
//! index-slotted, so selection — tie-breaking toward the earlier
//! neighbour, aspiration against the global best — is identical to
//! scoring one candidate at a time, and a deterministic batch objective
//! yields bit-identical results to the serial path.

use crate::nodeshift::{mutations, mutations_sampled};
use edgesim::{HostId, NodeRole, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

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

    /// [`BatchObjective::score_batch`] of candidates that are moves from
    /// `parent`: the same scores, which an objective may compute as
    /// deltas against `parent`. [`search`] scores every neighbourhood
    /// through this. The default ignores `parent`.
    fn score_neighbors(&mut self, parent: &Topology, candidates: &[Topology]) -> Vec<f64> {
        let _ = parent;
        self.score_batch(candidates)
    }
}

impl<T: BatchObjective + ?Sized> BatchObjective for &mut T {
    fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
        (**self).score_batch(candidates)
    }

    fn score_neighbors(&mut self, parent: &Topology, candidates: &[Topology]) -> Vec<f64> {
        (**self).score_neighbors(parent, candidates)
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
/// The full node-shift move set is Θ(n·brokers) topologies, so one
/// iteration clones and scores O(n²)-ish candidates — fine to ~128 hosts,
/// prohibitive at 1024. `Sampled` caps the per-iteration neighbourhood at
/// `max_moves` candidates drawn uniformly without replacement from the
/// move descriptors ([`crate::nodeshift::mutations_sampled`]). This
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
}

/// Minimises `objective` over topologies reachable from `start` by
/// node-shift moves, never promoting hosts in `banned`.
///
/// `objective` is `Ω(G; D, S, O)` in the paper: the surrogate-predicted
/// QoS of candidate `G`. Each iteration enumerates the full node-shift
/// neighbourhood and scores it with **one** `score_neighbors` call, whose
/// parent is the iteration's current topology (and `start` itself for
/// the start score). The
/// search is deterministic: ties break toward the earlier-enumerated
/// neighbour, and a tabu move is only admitted when it beats the global
/// best (aspiration criterion). Serial closures plug in via [`from_fn`].
pub fn search(
    start: Topology,
    banned: &[HostId],
    config: &TabuConfig,
    mut objective: impl BatchObjective,
) -> TabuResult {
    let mut evaluations = 1usize;
    let start_scores = objective.score_neighbors(&start, std::slice::from_ref(&start));
    assert_eq!(
        start_scores.len(),
        1,
        "objective must score every candidate"
    );
    let start_score = start_scores[0];
    let mut best = start.clone();
    let mut best_score = start_score;
    let mut current = start;

    let mut tabu: VecDeque<Vec<NodeRole>> = VecDeque::with_capacity(config.list_size + 1);
    tabu.push_back(current.roles().to_vec());

    // Sampling RNG lives outside the loop: one seed, one draw sequence,
    // independent of how (or on how many threads) candidates are scored.
    let mut sample_rng = match config.neighborhood {
        Neighborhood::Sampled { seed, .. } => Some(StdRng::seed_from_u64(seed)),
        Neighborhood::Full => None,
    };

    for _ in 0..config.max_iters {
        let mut neighbors = match config.neighborhood {
            Neighborhood::Full => mutations(&current, banned),
            Neighborhood::Sampled { max_moves, .. } => mutations_sampled(
                &current,
                banned,
                max_moves,
                sample_rng.as_mut().expect("rng exists for sampled mode"),
            ),
        };
        let scores = objective.score_neighbors(&current, &neighbors);
        assert_eq!(
            scores.len(),
            neighbors.len(),
            "objective must score every candidate"
        );
        evaluations += neighbors.len();

        let mut chosen: Option<(usize, f64)> = None;
        for (i, (cand, &s)) in neighbors.iter().zip(&scores).enumerate() {
            // Aspiration criterion: a tabu move is allowed if it beats the
            // global best.
            if tabu.iter().any(|roles| roles == cand.roles()) && s >= best_score {
                continue;
            }
            match chosen {
                Some((_, cs)) if s >= cs => {}
                _ => chosen = Some((i, s)),
            }
        }
        let Some((idx, next_score)) = chosen else {
            break; // whole neighbourhood tabu and non-aspiring
        };
        current = neighbors.swap_remove(idx);
        if tabu.len() >= config.list_size {
            tabu.pop_front();
        }
        tabu.push_back(current.roles().to_vec());
        if next_score < best_score {
            best = current.clone();
            best_score = next_score;
        }
    }

    TabuResult {
        best,
        best_score,
        start_score,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A serial closure objective that logs each call's parent and
    /// candidates.
    struct Parents<F> {
        f: F,
        calls: Vec<(Topology, Vec<Topology>)>,
    }

    impl<F: FnMut(&Topology) -> f64> BatchObjective for Parents<F> {
        fn score_batch(&mut self, candidates: &[Topology]) -> Vec<f64> {
            candidates.iter().map(|t| (self.f)(t)).collect()
        }

        fn score_neighbors(&mut self, parent: &Topology, candidates: &[Topology]) -> Vec<f64> {
            self.calls.push((parent.clone(), candidates.to_vec()));
            self.score_batch(candidates)
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
        assert_eq!(calls.len(), 1 + config.max_iters);
        assert_eq!(calls[0], (start.clone(), vec![start.clone()]));
        assert_eq!(calls[1].0, start);
        for (k, (parent, candidates)) in calls.iter().enumerate().skip(1) {
            assert_eq!(*candidates, mutations(parent, &[]), "iteration {k}");
            if k > 1 {
                // The parent is the move the previous iteration took.
                assert!(calls[k - 1].1.contains(parent), "iteration {k}");
            }
        }
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
