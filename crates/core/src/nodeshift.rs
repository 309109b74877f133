//! Node-shift operations (§III-B, Fig. 1).
//!
//! When a broker fails its workers are *orphaned*. Three worker→broker
//! shift types resolve the failure:
//!
//! * **Type 1** — promote *two* orphans to the broker layer and split the
//!   remaining orphans evenly between them (broker count **+1**);
//! * **Type 2** — hand all orphans to an existing broker (broker count
//!   **−1**);
//! * **Type 3** — promote *one* orphan to manage the others (broker count
//!   unchanged).
//!
//! The failed broker itself is demoted to a worker in every candidate (it
//! is rebooting and rejoins as a worker, §IV-I). [`neighborhood`]
//! enumerates all candidates `N(G, b)`; [`mutations`] yields the generic
//! single-step moves tabu search uses beyond the first repair.

use edgesim::{HostId, NodeRole, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Structural bounds on the broker layer: a federation keeps at least two
/// interconnected brokers (one per LEI; a single broker makes every broker
/// failure a total outage) and at most half the hosts (more brokers than
/// workers starves the worker layer). Degenerate inputs (fewer than four
/// hosts, or already outside the band) fall back to permissive bounds so
/// repairs always remain possible.
pub fn broker_bounds(topo: &Topology) -> (usize, usize) {
    let n = topo.len();
    let current = topo.brokers().len();
    if n < 4 {
        return (1, n.max(1));
    }
    let lo = 2.min(current.max(1));
    let hi = (n / 2).max(current.min(n));
    (lo, hi)
}

/// Enumerates the repair neighbourhood `N(G, b)` of a failed broker `b`
/// (Algorithm 2 line 7). Hosts in `banned` (e.g. simultaneously failed
/// nodes) are never promoted and never receive orphans as brokers.
///
/// Every returned topology is valid and demotes `b` to a worker. Returns
/// an empty vector only if the failure cannot be repaired (no live hosts).
pub fn neighborhood(topo: &Topology, b: HostId, banned: &[HostId]) -> Vec<Topology> {
    let mut out = Vec::new();
    if !matches!(topo.role(b), NodeRole::Broker) {
        return out;
    }
    let is_banned = |h: HostId| h == b || banned.contains(&h);
    let mut orphans = topo.workers_of(b).to_vec();
    orphans.retain(|&w| !is_banned(w));
    let mut other_brokers = topo.brokers().to_vec();
    other_brokers.retain(|&x| !is_banned(x));

    // --- Type 2: merge the LEI into each surviving broker.
    for &target in &other_brokers {
        let mut t = topo.clone();
        for &w in &orphans {
            t.reassign(w, target).expect("orphan reassignment is valid");
        }
        // Any workers of b that were banned still need a broker.
        for w in t.workers_of(b).to_vec() {
            t.reassign(w, target).expect("banned-worker reassignment");
        }
        if t.demote(b, target).is_ok() {
            out.push(t);
        }
    }

    // --- Type 3: promote one orphan to replace b.
    for &leader in &orphans {
        let mut t = topo.clone();
        t.promote(leader).expect("orphan promotion is valid");
        for &w in &orphans {
            if w != leader {
                t.reassign(w, leader).expect("sibling reassignment");
            }
        }
        for w in t.workers_of(b).to_vec() {
            t.reassign(w, leader).expect("leftover reassignment");
        }
        if t.demote(b, leader).is_ok() {
            out.push(t);
        }
    }

    // --- Type 1: promote a pair of orphans and split the rest evenly.
    for i in 0..orphans.len() {
        for j in (i + 1)..orphans.len() {
            let (a, c) = (orphans[i], orphans[j]);
            let mut t = topo.clone();
            t.promote(a).expect("pair promotion a");
            t.promote(c).expect("pair promotion c");
            let rest: Vec<HostId> = orphans
                .iter()
                .copied()
                .filter(|&w| w != a && w != c)
                .collect();
            for (k, &w) in rest.iter().enumerate() {
                let target = if k % 2 == 0 { a } else { c };
                t.reassign(w, target).expect("even split reassignment");
            }
            for w in t.workers_of(b).to_vec() {
                t.reassign(w, a).expect("leftover to first new broker");
            }
            if t.demote(b, a).is_ok() {
                out.push(t);
            }
        }
    }

    // Keep the broker layer inside the structural band when possible;
    // fall back to the unfiltered set so a failure is always repairable.
    let (lo, hi) = broker_bounds(topo);
    let bounded: Vec<Topology> = out
        .iter()
        .filter(|t| (lo..=hi).contains(&t.brokers().len()))
        .cloned()
        .collect();
    if bounded.is_empty() {
        out
    } else {
        bounded
    }
}

/// Picks one random node-shift from the repair neighbourhood (Algorithm 2
/// line 7's "random node-shift" before tabu search). Falls back to the
/// input topology if no repair exists.
pub fn random_shift(topo: &Topology, b: HostId, banned: &[HostId], rng: &mut StdRng) -> Topology {
    let nbrs = neighborhood(topo, b, banned);
    if nbrs.is_empty() {
        topo.clone()
    } else {
        nbrs[rng.gen_range(0..nbrs.len())].clone()
    }
}

/// One generic node-shift move, described by its operands rather than by
/// the topology it produces. Enumerating descriptors is O(moves) with no
/// topology clones, so a sampled neighbourhood can pick `k` of them and
/// pay the clone-and-apply cost only for the chosen few.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Promote worker `w` to the broker layer.
    Promote {
        /// Worker to promote.
        w: HostId,
    },
    /// Demote broker `bkr`, migrating its workers to `target` first.
    Demote {
        /// Broker to demote.
        bkr: HostId,
        /// Surviving broker that receives `bkr`'s workers (and `bkr`).
        target: HostId,
    },
    /// Reassign worker `w` to broker `bkr` across LEIs.
    Reassign {
        /// Worker to move.
        w: HostId,
        /// Destination broker.
        bkr: HostId,
    },
}

/// Enumerates the move descriptors of the generic node-shift
/// neighbourhood, in exactly the order [`mutations`] yields their
/// resulting topologies: promotions (worker order), demotions (nested
/// broker × target order), then cross-LEI reassignments (nested worker ×
/// broker order). Precondition filters that depend only on `topo` are
/// applied here; per-move fallibility (e.g. a demotion that fails after
/// reassignment) lives in [`apply_move`].
pub fn enumerate_moves(topo: &Topology, banned: &[HostId]) -> Vec<Move> {
    let mut out = Vec::new();
    let is_banned = |h: HostId| banned.contains(&h);
    let brokers = topo.brokers();
    let workers = topo.workers();
    let (lo, hi) = broker_bounds(topo);

    // Promotions (bounded above: don't starve the worker layer).
    if brokers.len() < hi {
        for &w in &workers {
            if !is_banned(w) {
                out.push(Move::Promote { w });
            }
        }
    }

    // Demotions (each surviving peer as the receiving broker; bounded
    // below: never collapse the federation to a single point of failure).
    if brokers.len() > lo {
        for &bkr in brokers {
            for &target in brokers {
                if bkr != target && !is_banned(target) {
                    out.push(Move::Demote { bkr, target });
                }
            }
        }
    }

    // Cross-LEI reassignments.
    for &w in &workers {
        for &bkr in brokers {
            if topo.broker_of(w) != bkr && !is_banned(bkr) {
                out.push(Move::Reassign { w, bkr });
            }
        }
    }

    out
}

/// Applies one move descriptor to `topo`. Returns `None` when the move's
/// own preconditions fail — the same candidates the eager enumeration in
/// [`mutations`] silently drops.
pub fn apply_move(topo: &Topology, mv: Move) -> Option<Topology> {
    let mut t = topo.clone();
    let ok = match mv {
        Move::Promote { w } => t.promote(w).is_ok(),
        Move::Demote { bkr, target } => {
            for w in t.workers_of(bkr).to_vec() {
                // Failed reassignments are ignored, exactly like the
                // original loop; the demotion below then decides.
                let _ = t.reassign(w, target);
            }
            t.demote(bkr, target).is_ok()
        }
        Move::Reassign { w, bkr } => t.reassign(w, bkr).is_ok(),
    };
    ok.then_some(t)
}

/// Generic single node-shift moves from `topo` for tabu exploration:
/// promote any non-banned worker, demote any broker (its workers migrate
/// to the busiest-mesh peer choice is delegated — each peer generates one
/// candidate), and reassign any worker across LEIs. The initial broker
/// repair guarantees `banned` hosts are workers; these moves keep them so.
pub fn mutations(topo: &Topology, banned: &[HostId]) -> Vec<Topology> {
    enumerate_moves(topo, banned)
        .into_iter()
        .filter_map(|mv| apply_move(topo, mv))
        .collect()
}

/// At most `max_moves` node-shift candidates, drawn uniformly without
/// replacement from the full descriptor set. When the neighbourhood is
/// already within the cap this is exactly [`mutations`]; above the cap a
/// partial Fisher–Yates selects descriptor indices, which are then
/// applied in ascending enumeration order so the surviving candidate
/// order (and therefore tabu tie-breaking) matches a subsequence of the
/// full neighbourhood. The caller owns the RNG, so a fixed seed gives an
/// identical sample regardless of how candidates are later scored.
pub fn mutations_sampled(
    topo: &Topology,
    banned: &[HostId],
    max_moves: usize,
    rng: &mut StdRng,
) -> Vec<Topology> {
    let moves = enumerate_moves(topo, banned);
    if moves.len() <= max_moves {
        return moves
            .into_iter()
            .filter_map(|mv| apply_move(topo, mv))
            .collect();
    }
    let mut idx: Vec<usize> = (0..moves.len()).collect();
    for i in 0..max_moves {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    let mut chosen = idx[..max_moves].to_vec();
    chosen.sort_unstable();
    chosen
        .into_iter()
        .filter_map(|i| apply_move(topo, moves[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn neighborhood_covers_all_three_types() {
        // 12 hosts, 3 brokers; broker 0 has workers {3, 6, 9}.
        let topo = Topology::balanced(12, 3).unwrap();
        let nbrs = neighborhood(&topo, 0, &[]);
        assert!(!nbrs.is_empty());
        let counts: Vec<usize> = nbrs.iter().map(|t| t.brokers().len()).collect();
        // Type 2 lowers the count to 2, type 3 keeps 3, type 1 raises to 4.
        assert!(counts.contains(&2), "type 2 missing: {counts:?}");
        assert!(counts.contains(&3), "type 3 missing: {counts:?}");
        assert!(counts.contains(&4), "type 1 missing: {counts:?}");
    }

    #[test]
    fn neighborhood_respects_broker_floor() {
        // 8 hosts, 2 brokers: merging to a single broker would make every
        // failure a total outage, so type 2 must be filtered out while
        // types 1/3 exist.
        let topo = Topology::balanced(8, 2).unwrap();
        let nbrs = neighborhood(&topo, 0, &[]);
        assert!(!nbrs.is_empty());
        assert!(
            nbrs.iter().all(|t| t.brokers().len() >= 2),
            "single-broker candidates must be filtered"
        );
    }

    #[test]
    fn broker_bounds_band() {
        let t = Topology::balanced(16, 4).unwrap();
        assert_eq!(broker_bounds(&t), (2, 8));
        let small = Topology::balanced(2, 1).unwrap();
        assert_eq!(broker_bounds(&small), (1, 2));
    }

    #[test]
    fn all_neighbors_are_valid_and_demote_the_failed_broker() {
        let topo = Topology::balanced(16, 4).unwrap();
        for t in neighborhood(&topo, 2, &[]) {
            t.validate().unwrap();
            assert!(
                matches!(t.role(2), NodeRole::Worker { .. }),
                "failed broker must become a worker"
            );
        }
    }

    #[test]
    fn banned_hosts_are_never_promoted() {
        let topo = Topology::balanced(8, 2).unwrap();
        let banned = [2usize, 4];
        for t in neighborhood(&topo, 0, &banned) {
            for &h in &banned {
                assert!(
                    matches!(t.role(h), NodeRole::Worker { .. }),
                    "banned host {h} became a broker"
                );
            }
        }
    }

    #[test]
    fn neighborhood_of_worker_is_empty() {
        let topo = Topology::balanced(8, 2).unwrap();
        let w = topo.workers()[0];
        assert!(neighborhood(&topo, w, &[]).is_empty());
    }

    #[test]
    fn lone_broker_failure_promotes_an_orphan() {
        let topo = Topology::balanced(4, 1).unwrap();
        let nbrs = neighborhood(&topo, 0, &[]);
        assert!(!nbrs.is_empty(), "type 3/1 must still repair a lone broker");
        for t in &nbrs {
            t.validate().unwrap();
            assert!(matches!(t.role(0), NodeRole::Worker { .. }));
        }
    }

    #[test]
    fn random_shift_returns_valid_topology() {
        let topo = Topology::balanced(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let t = random_shift(&topo, 0, &[], &mut rng);
            t.validate().unwrap();
        }
    }

    #[test]
    fn random_shift_falls_back_when_unrepairable() {
        // Two hosts, one broker with one worker, and the worker is banned:
        // type 3/1 impossible, type 2 impossible (no other broker).
        let topo = Topology::balanced(2, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_shift(&topo, 0, &[1], &mut rng);
        assert_eq!(t, topo);
    }

    #[test]
    fn mutations_are_valid_and_plentiful() {
        let topo = Topology::balanced(16, 4).unwrap();
        let muts = mutations(&topo, &[]);
        assert!(
            muts.len() > 16,
            "expected a rich move set, got {}",
            muts.len()
        );
        for t in &muts {
            t.validate().unwrap();
        }
    }

    #[test]
    fn mutations_respect_bans() {
        let topo = Topology::balanced(8, 2).unwrap();
        let banned = [3usize];
        for t in mutations(&topo, &banned) {
            assert!(
                matches!(t.role(3), NodeRole::Worker { .. }),
                "banned host promoted by a mutation"
            );
        }
    }

    #[test]
    fn sampled_under_cap_is_exactly_the_full_set() {
        let topo = Topology::balanced(16, 4).unwrap();
        let full = mutations(&topo, &[]);
        let mut rng = StdRng::seed_from_u64(9);
        let sampled = mutations_sampled(&topo, &[], full.len() + 10, &mut rng);
        assert_eq!(full, sampled);
    }

    #[test]
    fn sampled_is_a_deterministic_ordered_subsequence() {
        let topo = Topology::balanced(32, 8).unwrap();
        let full = mutations(&topo, &[]);
        let cap = 12;
        assert!(full.len() > cap, "need an over-cap neighbourhood");

        let sample = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            mutations_sampled(&topo, &[], cap, &mut rng)
        };
        let a = sample(3);
        let b = sample(3);
        assert_eq!(a, b, "same seed must give the same sample");
        assert!(a.len() <= cap);

        // Every sampled candidate appears in the full set, in the same
        // relative order (indices ascending after selection).
        let mut cursor = 0usize;
        for cand in &a {
            let pos = full[cursor..]
                .iter()
                .position(|t| t == cand)
                .unwrap_or_else(|| panic!("sampled candidate not in full set after {cursor}"));
            cursor += pos + 1;
        }
    }

    #[test]
    fn sampled_respects_bans() {
        let topo = Topology::balanced(16, 4).unwrap();
        let banned = [5usize, 9];
        let mut rng = StdRng::seed_from_u64(4);
        for t in mutations_sampled(&topo, &banned, 8, &mut rng) {
            t.validate().unwrap();
            for &h in &banned {
                assert!(
                    matches!(t.role(h), NodeRole::Worker { .. }),
                    "banned host {h} became a broker in a sampled move"
                );
            }
        }
    }

    #[test]
    fn enumerate_moves_matches_mutations_order() {
        let topo = Topology::balanced(12, 3).unwrap();
        let moves = enumerate_moves(&topo, &[]);
        let applied: Vec<Topology> = moves
            .iter()
            .filter_map(|&mv| apply_move(&topo, mv))
            .collect();
        assert_eq!(applied, mutations(&topo, &[]));
        assert!(moves.len() >= applied.len());
    }

    #[test]
    fn mutations_change_the_roles() {
        let topo = Topology::balanced(8, 2).unwrap();
        for t in mutations(&topo, &[]) {
            assert_ne!(t.roles(), topo.roles());
        }
    }
}
