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
//! enumerates all candidates `N(G, b)` and [`random_shift`] builds one of
//! them. Beyond the first repair, tabu search walks the generic
//! single-step [`Move`]s: [`enumerate_moves`] lists them and
//! [`sample_moves`] draws a few, both without building a topology; a
//! move is applied in place ([`Move::apply`], [`Move::undo`]) and names
//! the rows it may change ([`Move::touches`]).

use edgesim::{HostId, NodeRole, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

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

/// One repair of a failed broker, by its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shift {
    /// Type 2: every worker of the failed broker moves to `target`.
    Merge { target: HostId },
    /// Type 3: `leader` is promoted and takes the failed broker's other
    /// workers.
    Replace { leader: HostId },
    /// Type 1: `a` and `c` are promoted; the other orphans alternate
    /// between them, starting with `a`, and banned workers go to `a`.
    Split { a: HostId, c: HostId },
}

/// The repair neighbourhood `N(G, b)` as descriptors, indexed in
/// [`neighborhood`] order — merges (surviving broker order), replacements
/// (orphan order), then splits (orphan pairs, lexicographic) — with the
/// kinds whose broker count falls outside [`broker_bounds`] left out,
/// unless that leaves none.
struct Repairs<'t> {
    topo: &'t Topology,
    /// The failed broker.
    b: HostId,
    /// Its workers that are not banned.
    orphans: Vec<HostId>,
    /// The other brokers that are not banned.
    survivors: Vec<HostId>,
    /// Candidates of each kind in the neighbourhood: merges,
    /// replacements, splits.
    counts: [usize; 3],
}

impl<'t> Repairs<'t> {
    /// `None` when `b` is not a broker.
    fn new(topo: &'t Topology, b: HostId, banned: &[HostId]) -> Option<Self> {
        if !matches!(topo.role(b), NodeRole::Broker) {
            return None;
        }
        let open = |h: &&HostId| **h != b && !banned.contains(h);
        let orphans: Vec<HostId> = topo.workers_of(b).iter().filter(open).copied().collect();
        let survivors: Vec<HostId> = topo.brokers().iter().filter(open).copied().collect();
        let m = orphans.len();
        let all = [survivors.len(), m, m * m.saturating_sub(1) / 2];
        // Merges leave B − 1 brokers, replacements B, splits B + 1.
        let (lo, hi) = broker_bounds(topo);
        let brokers = topo.brokers().len();
        let mut counts = [0; 3];
        for (k, count) in counts.iter_mut().enumerate() {
            if (lo..=hi).contains(&(brokers + k).wrapping_sub(1)) {
                *count = all[k];
            }
        }
        if counts.iter().sum::<usize>() == 0 {
            counts = all;
        }
        Some(Self {
            topo,
            b,
            orphans,
            survivors,
            counts,
        })
    }

    fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The `i`-th repair.
    fn get(&self, mut i: usize) -> Shift {
        if i < self.counts[0] {
            return Shift::Merge {
                target: self.survivors[i],
            };
        }
        i -= self.counts[0];
        if i < self.counts[1] {
            return Shift::Replace {
                leader: self.orphans[i],
            };
        }
        i -= self.counts[1];
        let m = self.orphans.len();
        let mut first = 0;
        while i >= m - 1 - first {
            i -= m - 1 - first;
            first += 1;
        }
        Shift::Split {
            a: self.orphans[first],
            c: self.orphans[first + 1 + i],
        }
    }

    /// The topology `shift` repairs to.
    fn apply(&self, shift: Shift) -> Topology {
        let mut t = self.topo.clone();
        let b = self.b;
        let head = match shift {
            Shift::Merge { target } => target,
            Shift::Replace { leader } => {
                t.promote(leader).expect("orphan promotion is valid");
                leader
            }
            Shift::Split { a, c } => {
                t.promote(a).expect("pair promotion a");
                t.promote(c).expect("pair promotion c");
                let rest = self.orphans.iter().filter(|&&w| w != a && w != c);
                for (k, &w) in rest.enumerate() {
                    let target = if k % 2 == 0 { a } else { c };
                    t.reassign(w, target).expect("even split reassignment");
                }
                a
            }
        };
        // Whatever workers `b` still has go to the head, banned ones too.
        while let Some(&w) = t.workers_of(b).first() {
            t.reassign(w, head).expect("orphan reassignment is valid");
        }
        t.demote(b, head)
            .expect("a repair demotes the failed broker");
        t
    }
}

/// Enumerates the repair neighbourhood `N(G, b)` of a failed broker `b`
/// (Algorithm 2 line 7). Hosts in `banned` (e.g. simultaneously failed
/// nodes) are never promoted and never receive orphans as brokers.
///
/// Every returned topology is valid and demotes `b` to a worker. Returns
/// an empty vector only if the failure cannot be repaired (no live hosts).
pub fn neighborhood(topo: &Topology, b: HostId, banned: &[HostId]) -> Vec<Topology> {
    let Some(repairs) = Repairs::new(topo, b, banned) else {
        return Vec::new();
    };
    (0..repairs.len())
        .map(|i| repairs.apply(repairs.get(i)))
        .collect()
}

/// Picks one random node-shift from the repair neighbourhood (Algorithm 2
/// line 7's "random node-shift" before tabu search): one draw over the
/// neighbourhood's size, and only the drawn repair is built. Falls back
/// to the input topology, without a draw, if no repair exists.
pub fn random_shift(topo: &Topology, b: HostId, banned: &[HostId], rng: &mut StdRng) -> Topology {
    match Repairs::new(topo, b, banned) {
        Some(repairs) if repairs.len() > 0 => {
            let pick = rng.gen_range(0..repairs.len());
            repairs.apply(repairs.get(pick))
        }
        _ => topo.clone(),
    }
}

/// One generic node-shift move, described by its operands rather than by
/// the topology it produces.
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

/// The hosts a move may change, as [`Move::touches`] lists them into
/// reused buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touched {
    /// The hosts whose projected metric row may change, ascending: a
    /// reassigned worker and both LEIs it moves between; every host for
    /// a promotion or demotion, which changes the broker count and with
    /// it every host's stall-risk (`blast`) term.
    pub metric_rows: Vec<HostId>,
    /// The hosts whose GAT row or graph features may change, ascending:
    /// every host whose role changes, the brokers whose worker lists
    /// change, and the brokers whose attention window shifts. A subset
    /// of `metric_rows`.
    pub gat_rows: Vec<HostId>,
    /// The brokers whose LEI gains or loses a host, once the move is
    /// applied; their LEI pressure changes.
    pub leis: Vec<HostId>,
}

impl Move {
    /// Lists into `touched` the hosts whose projection and GAT rows this
    /// move may change, read off `topo` before the move is applied.
    pub fn touches(self, topo: &Topology, touched: &mut Touched) {
        let Touched {
            metric_rows,
            gat_rows,
            leis,
        } = touched;
        metric_rows.clear();
        gat_rows.clear();
        leis.clear();
        match self {
            Move::Reassign { w, bkr } => {
                let old = topo.broker_of(w);
                for b in [old, bkr] {
                    metric_rows.push(b);
                    metric_rows.extend_from_slice(topo.workers_of(b));
                }
                metric_rows.sort_unstable();
                gat_rows.extend([w, old, bkr]);
                leis.extend([old, bkr]);
            }
            Move::Promote { w } => {
                let old = topo.broker_of(w);
                metric_rows.extend(0..topo.len());
                gat_rows.extend([w, old]);
                gat_rows.extend(topo.gat_window_holders(w));
                leis.extend([old, w]);
            }
            Move::Demote { bkr, target } => {
                metric_rows.extend(0..topo.len());
                gat_rows.extend([bkr, target]);
                gat_rows.extend_from_slice(topo.workers_of(bkr));
                gat_rows.extend(topo.gat_window_holders(bkr));
                leis.push(target);
            }
        }
        gat_rows.sort_unstable();
        gat_rows.dedup();
    }

    /// Applies the move to `topo` in place, keeping in `undo` what
    /// [`Move::undo`] needs to restore it. On an error `topo` may be
    /// left part-way; every move [`enumerate_moves`] lists applies.
    pub fn apply(self, topo: &mut Topology, undo: &mut Vec<HostId>) -> Result<(), TopologyError> {
        undo.clear();
        let n = topo.len();
        let check = |h: HostId| (h < n).then_some(h).ok_or(TopologyError::UnknownHost(h));
        match self {
            Move::Promote { w } => {
                undo.push(topo.broker_of(check(w)?));
                topo.promote(w)
            }
            Move::Demote { bkr, target } => {
                undo.extend_from_slice(topo.workers_of(check(bkr)?));
                for &w in undo.iter() {
                    // A failed reassignment leaves the worker where it
                    // was; the demotion below then decides.
                    let _ = topo.reassign(w, target);
                }
                topo.demote(bkr, target)
            }
            Move::Reassign { w, bkr } => {
                undo.push(topo.broker_of(check(w)?));
                topo.reassign(w, bkr)
            }
        }
    }

    /// Restores the topology a successful [`Move::apply`] started from,
    /// given the `undo` it kept.
    pub fn undo(self, topo: &mut Topology, undo: &[HostId]) {
        const RESTORES: &str = "undoing an applied move restores a valid topology";
        match self {
            Move::Promote { w } => topo.demote(w, undo[0]).expect(RESTORES),
            Move::Demote { bkr, .. } => {
                topo.promote(bkr).expect(RESTORES);
                for &w in undo {
                    topo.reassign(w, bkr).expect(RESTORES);
                }
            }
            Move::Reassign { w, .. } => topo.reassign(w, undo[0]).expect(RESTORES),
        }
    }
}

/// The generic node-shift move set of one topology, indexed in
/// [`enumerate_moves`] order and decoded arithmetically from per-kind
/// counts, so a sample of it never lists the rest.
struct MoveSet<'t> {
    topo: &'t Topology,
    /// Promotable workers (not banned), ascending; empty when the broker
    /// layer is at its upper bound.
    promotable: Vec<HostId>,
    /// Brokers that may receive hosts (not banned), ascending.
    open: Vec<HostId>,
    /// Cumulative demotion counts per broker rank; empty when the broker
    /// layer is at its lower bound.
    demotions: Vec<usize>,
    /// Every worker, ascending.
    workers: Vec<HostId>,
    /// Cumulative reassignment counts per entry of `workers`.
    reassignments: Vec<usize>,
}

impl<'t> MoveSet<'t> {
    fn new(topo: &'t Topology, banned: &[HostId]) -> Self {
        let brokers = topo.brokers();
        let workers = topo.workers();
        let (lo, hi) = broker_bounds(topo);
        let open: Vec<HostId> = brokers
            .iter()
            .copied()
            .filter(|h| !banned.contains(h))
            .collect();
        let is_open = |h: HostId| open.binary_search(&h).is_ok();
        let promotable = if brokers.len() < hi {
            let open_worker = |h: &HostId| !banned.contains(h);
            workers.iter().copied().filter(open_worker).collect()
        } else {
            Vec::new()
        };
        // Each host moves to every open broker but its own.
        let cumulative = |hosts: &[HostId], own: &dyn Fn(HostId) -> HostId| -> Vec<usize> {
            let mut total = 0;
            let per = |h: HostId| open.len() - is_open(own(h)) as usize;
            hosts
                .iter()
                .map(|&h| {
                    total += per(h);
                    total
                })
                .collect()
        };
        let demotions = if brokers.len() > lo {
            cumulative(brokers, &|b| b)
        } else {
            Vec::new()
        };
        let reassignments = cumulative(&workers, &|w| topo.broker_of(w));
        Self {
            topo,
            promotable,
            open,
            demotions,
            workers,
            reassignments,
        }
    }

    fn len(&self) -> usize {
        let last = |v: &[usize]| v.last().copied().unwrap_or(0);
        self.promotable.len() + last(&self.demotions) + last(&self.reassignments)
    }

    /// The `k`-th open broker other than `skip`.
    fn open_but(&self, skip: HostId, k: usize) -> HostId {
        let at = self.open.partition_point(|&h| h < skip);
        let skipped = self.open.get(at) == Some(&skip) && k >= at;
        self.open[k + skipped as usize]
    }

    /// The `i`-th move.
    fn get(&self, mut i: usize) -> Move {
        // Entry `i` of a cumulative count: its owner's index and its
        // rank among the owner's moves.
        let locate = |ends: &[usize], i: usize| {
            let owner = ends.partition_point(|&e| e <= i);
            (owner, i - owner.checked_sub(1).map_or(0, |p| ends[p]))
        };
        if i < self.promotable.len() {
            return Move::Promote {
                w: self.promotable[i],
            };
        }
        i -= self.promotable.len();
        let demotions = self.demotions.last().copied().unwrap_or(0);
        if i < demotions {
            let (rank, k) = locate(&self.demotions, i);
            let bkr = self.topo.brokers()[rank];
            return Move::Demote {
                bkr,
                target: self.open_but(bkr, k),
            };
        }
        let (at, k) = locate(&self.reassignments, i - demotions);
        let w = self.workers[at];
        Move::Reassign {
            w,
            bkr: self.open_but(self.topo.broker_of(w), k),
        }
    }
}

/// Enumerates the move descriptors of the generic node-shift
/// neighbourhood: promotions (worker order), demotions (nested broker ×
/// target order), then cross-LEI reassignments (nested worker × broker
/// order). Promotions stop at the upper [`broker_bounds`], demotions at
/// the lower, and no host in `banned` is promoted or receives a host.
/// Every listed move applies ([`Move::apply`]).
pub fn enumerate_moves(topo: &Topology, banned: &[HostId]) -> Vec<Move> {
    let set = MoveSet::new(topo, banned);
    (0..set.len()).map(|i| set.get(i)).collect()
}

/// At most `max_moves` of [`enumerate_moves`]' moves, drawn uniformly
/// without replacement. When the neighbourhood is already within the
/// cap this is every move, with no draw; above the cap a partial
/// Fisher–Yates (over a sparse swap map, so the move set is never
/// listed) selects move indices, which are then decoded in ascending
/// order so the sample (and therefore tabu tie-breaking) is a
/// subsequence of the full neighbourhood. The caller owns the RNG, so a
/// fixed seed gives an identical sample regardless of how candidates are
/// later scored.
pub fn sample_moves(
    topo: &Topology,
    banned: &[HostId],
    max_moves: usize,
    rng: &mut StdRng,
) -> Vec<Move> {
    let set = MoveSet::new(topo, banned);
    let len = set.len();
    if len <= max_moves {
        return (0..len).map(|i| set.get(i)).collect();
    }
    // `swapped[p]`: the index now at position `p`, where it is not `p`.
    let mut swapped: BTreeMap<usize, usize> = BTreeMap::new();
    let mut chosen = Vec::with_capacity(max_moves);
    for i in 0..max_moves {
        let j = rng.gen_range(i..len);
        let at = |p: usize| swapped.get(&p).copied().unwrap_or(p);
        let (vi, vj) = (at(i), at(j));
        swapped.insert(j, vi);
        chosen.push(vj);
    }
    chosen.sort_unstable();
    chosen.into_iter().map(|i| set.get(i)).collect()
}

/// Applies one move descriptor to a copy of `topo`. Returns `None` when
/// the move's own preconditions fail.
pub fn apply_move(topo: &Topology, mv: Move) -> Option<Topology> {
    let mut t = topo.clone();
    mv.apply(&mut t, &mut Vec::new()).ok()?;
    Some(t)
}

/// Generic single node-shift moves from `topo` for tabu exploration, as
/// topologies: promote any non-banned worker, demote any broker into
/// each non-banned peer (its workers move to that peer first), and
/// reassign any worker to any other non-banned broker. The initial
/// broker repair guarantees `banned` hosts are workers; these moves keep
/// them so.
pub fn mutations(topo: &Topology, banned: &[HostId]) -> Vec<Topology> {
    applied(topo, enumerate_moves(topo, banned))
}

/// [`sample_moves`] as topologies.
pub fn mutations_sampled(
    topo: &Topology,
    banned: &[HostId],
    max_moves: usize,
    rng: &mut StdRng,
) -> Vec<Topology> {
    applied(topo, sample_moves(topo, banned, max_moves, rng))
}

/// Each move applied to its own copy of `topo`.
fn applied(topo: &Topology, moves: Vec<Move>) -> Vec<Topology> {
    let apply = |mv| apply_move(topo, mv).expect("every enumerated move applies");
    moves.into_iter().map(apply).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::SchedulingDecision;
    use edgesim::state::{Normalizer, SystemState};
    use edgesim::{HostSpec, HostState};
    use rand::SeedableRng;

    /// The repair neighbourhood as it was built before [`Repairs`]: every
    /// candidate cloned and applied, then filtered by broker count.
    fn reference_neighborhood(topo: &Topology, b: HostId, banned: &[HostId]) -> Vec<Topology> {
        let mut out = Vec::new();
        if !matches!(topo.role(b), NodeRole::Broker) {
            return out;
        }
        let is_banned = |h: HostId| h == b || banned.contains(&h);
        let mut orphans = topo.workers_of(b).to_vec();
        orphans.retain(|&w| !is_banned(w));
        let mut other_brokers = topo.brokers().to_vec();
        other_brokers.retain(|&x| !is_banned(x));
        for &target in &other_brokers {
            let mut t = topo.clone();
            for &w in &orphans {
                t.reassign(w, target).unwrap();
            }
            for w in t.workers_of(b).to_vec() {
                t.reassign(w, target).unwrap();
            }
            if t.demote(b, target).is_ok() {
                out.push(t);
            }
        }
        for &leader in &orphans {
            let mut t = topo.clone();
            t.promote(leader).unwrap();
            for &w in &orphans {
                if w != leader {
                    t.reassign(w, leader).unwrap();
                }
            }
            for w in t.workers_of(b).to_vec() {
                t.reassign(w, leader).unwrap();
            }
            if t.demote(b, leader).is_ok() {
                out.push(t);
            }
        }
        for i in 0..orphans.len() {
            for j in (i + 1)..orphans.len() {
                let (a, c) = (orphans[i], orphans[j]);
                let mut t = topo.clone();
                t.promote(a).unwrap();
                t.promote(c).unwrap();
                let rest: Vec<HostId> = orphans
                    .iter()
                    .copied()
                    .filter(|&w| w != a && w != c)
                    .collect();
                for (k, &w) in rest.iter().enumerate() {
                    t.reassign(w, if k % 2 == 0 { a } else { c }).unwrap();
                }
                for w in t.workers_of(b).to_vec() {
                    t.reassign(w, a).unwrap();
                }
                if t.demote(b, a).is_ok() {
                    out.push(t);
                }
            }
        }
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

    /// The move list as it was enumerated before [`MoveSet`]: nested
    /// loops over the whole neighbourhood.
    fn reference_moves(topo: &Topology, banned: &[HostId]) -> Vec<Move> {
        let mut out = Vec::new();
        let is_banned = |h: HostId| banned.contains(&h);
        let brokers = topo.brokers();
        let workers = topo.workers();
        let (lo, hi) = broker_bounds(topo);
        if brokers.len() < hi {
            for &w in &workers {
                if !is_banned(w) {
                    out.push(Move::Promote { w });
                }
            }
        }
        if brokers.len() > lo {
            for &bkr in brokers {
                for &target in brokers {
                    if bkr != target && !is_banned(target) {
                        out.push(Move::Demote { bkr, target });
                    }
                }
            }
        }
        for &w in &workers {
            for &bkr in brokers {
                if topo.broker_of(w) != bkr && !is_banned(bkr) {
                    out.push(Move::Reassign { w, bkr });
                }
            }
        }
        out
    }

    /// The sampled neighbourhood as it was drawn before [`sample_moves`]:
    /// a partial Fisher–Yates over the listed move indices.
    fn reference_sampled(
        topo: &Topology,
        banned: &[HostId],
        max_moves: usize,
        rng: &mut StdRng,
    ) -> Vec<Topology> {
        let moves = reference_moves(topo, banned);
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

    /// Federations to check moves on: balanced ones, one whose broker
    /// ids are spread out, and each with a promoted worker; with the
    /// banned hosts to use on each.
    fn federations() -> Vec<(Topology, Vec<HostId>)> {
        let mut out = Vec::new();
        for (n_hosts, n_brokers) in [(8, 2), (16, 4), (54, 18), (128, 16), (1024, 171)] {
            let balanced = Topology::balanced(n_hosts, n_brokers).unwrap();
            let spread = Topology::new(
                (0..n_hosts)
                    .map(|h| match h % 6 {
                        0 => NodeRole::Broker,
                        r => NodeRole::Worker { broker: h - r },
                    })
                    .collect(),
            )
            .unwrap();
            let mut promoted = balanced.clone();
            promoted.promote(n_hosts - 1).unwrap();
            for t in [balanced, spread, promoted] {
                let workers = t.workers();
                let banned = vec![workers[0], workers[workers.len() / 2], t.brokers()[1]];
                out.push((t.clone(), Vec::new()));
                out.push((t, banned));
            }
        }
        out
    }

    #[test]
    fn random_shift_is_todays_pick_from_the_neighbourhood() {
        for (n_hosts, n_brokers) in [(16, 4), (128, 16), (1024, 171)] {
            let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
            for (failed, banned) in [
                (0, vec![]),
                (3, vec![n_brokers + 3, 7]),
                (n_brokers - 1, vec![2 * n_brokers - 1, n_brokers]),
            ] {
                let want_all = reference_neighborhood(&topo, failed, &banned);
                assert_eq!(neighborhood(&topo, failed, &banned), want_all);
                for seed in 0..4 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut reference = StdRng::seed_from_u64(seed);
                    let got = random_shift(&topo, failed, &banned, &mut rng);
                    let want = want_all[reference.gen_range(0..want_all.len())].clone();
                    let case = format!("{n_hosts} hosts, broker {failed}, seed {seed}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(rng.state(), reference.state(), "{case}: RNG state");
                }
            }
        }
    }

    #[test]
    fn moves_are_todays_enumeration_and_sample() {
        for (topo, banned) in federations() {
            let case = format!("{} hosts, banned {banned:?}", topo.len());
            let moves = enumerate_moves(&topo, &banned);
            assert!(moves == reference_moves(&topo, &banned), "{case}");
            // An uncapped draw applies every move: only on small ones.
            let uncapped = if topo.len() <= 128 { 100_000 } else { 160 };
            for (cap, seed) in [(1, 3), (12, 5), (160, 7), (uncapped, 9)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference = StdRng::seed_from_u64(seed);
                let got = mutations_sampled(&topo, &banned, cap, &mut rng);
                let want = reference_sampled(&topo, &banned, cap, &mut reference);
                assert!(got == want, "{case}, cap {cap}");
                assert_eq!(rng.state(), reference.state(), "{case}, cap {cap}: RNG");
            }
        }
    }

    /// Scoring never drops a candidate: every listed move applies, in
    /// place and on a copy, and undoing it restores the topology (every
    /// move up to 128 hosts, every 61st beyond).
    #[test]
    fn every_enumerated_move_applies_and_undoes() {
        for (topo, banned) in federations() {
            let mut t = topo.clone();
            let mut undo = Vec::new();
            let stride = if topo.len() <= 128 { 1 } else { 61 };
            for mv in enumerate_moves(&topo, &banned).into_iter().step_by(stride) {
                let copy = apply_move(&topo, mv).unwrap_or_else(|| panic!("{mv:?} fails"));
                mv.apply(&mut t, &mut undo).unwrap();
                assert_eq!(t, copy, "{mv:?}");
                t.validate().unwrap();
                mv.undo(&mut t, &undo);
                assert_eq!(t, topo, "{mv:?} undone");
            }
        }
    }

    /// A snapshot of `topo` whose metric and graph-feature columns hold
    /// spread-out values, so every LEI has its own task pressure.
    fn loaded_snapshot(topo: &Topology, seed: u64) -> SystemState {
        let n = topo.len();
        let specs: Vec<HostSpec> = (0..n).map(HostSpec::rpi4gb).collect();
        let mut state = SystemState::capture(
            topo,
            &specs,
            &vec![HostState::default(); n],
            &[],
            &SchedulingDecision::new(),
            &Normalizer::default(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for row in &mut state.metrics {
            row.iter_mut().for_each(|v| *v = rng.gen_range(0.0..1.0));
        }
        for row in &mut state.graph_features {
            row[0] = rng.gen_range(0.0..1.0);
        }
        state
    }

    /// For every move kind, promotions and demotions whose broker window
    /// wraps included: the listed GAT hosts cover `gat_changes_from`,
    /// and the parent's projection with the listed rows re-projected
    /// (the listed LEIs' pressure recomputed) is `with_topology` of the
    /// candidate, bit for bit.
    #[test]
    fn touched_rows_patch_the_parent_projection_into_the_candidates() {
        let bits = |rows: &[[f64; 10]]| -> Vec<u64> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let gbits = |rows: &[[f64; 6]]| -> Vec<u64> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let mut rng = StdRng::seed_from_u64(21);
        for (parent, banned) in federations().into_iter().step_by(2) {
            // The snapshot is another topology: its projection onto the
            // parent already moves rows.
            let snapshot = apply_move(&parent, enumerate_moves(&parent, &banned)[0]).unwrap();
            let base = loaded_snapshot(&snapshot, parent.len() as u64);
            let projection = base.projection();
            let before = projection.with_topology(&parent);
            let moves = enumerate_moves(&parent, &banned);
            // The first and last of each kind (ranks 0 and B − 1 wrap),
            // and a sample.
            let mut picks: Vec<Move> = Vec::new();
            for kind in 0..3 {
                let of_kind: Vec<Move> = moves
                    .iter()
                    .copied()
                    .filter(|m| {
                        matches!(
                            (kind, m),
                            (0, Move::Promote { .. })
                                | (1, Move::Demote { .. })
                                | (2, Move::Reassign { .. })
                        )
                    })
                    .collect();
                picks.extend(of_kind.first().into_iter().chain(of_kind.last()));
            }
            picks.extend(sample_moves(&parent, &banned, 24, &mut rng));
            let (mut t, mut undo, mut touched) = (parent.clone(), Vec::new(), Touched::default());
            let mut pressure = Vec::new();
            for mv in picks {
                let case = format!("{} hosts, {mv:?}", parent.len());
                mv.touches(&t, &mut touched);
                mv.apply(&mut t, &mut undo).unwrap();
                for h in t.gat_changes_from(&parent) {
                    assert!(
                        touched.gat_rows.binary_search(&h).is_ok(),
                        "{case}: GAT host {h}"
                    );
                }
                projection.pressure_into(&parent, &mut pressure);
                for &b in &touched.leis {
                    pressure[b] = projection.lei_pressure(&t, b);
                }
                let hosts = &touched.metric_rows;
                for h in &touched.gat_rows {
                    assert!(
                        hosts.binary_search(h).is_ok(),
                        "{case}: GAT host {h} unprojected"
                    );
                }
                let (mut metrics, mut features) = (Vec::new(), Vec::new());
                projection.rows_into(
                    &t,
                    &pressure,
                    hosts.iter().copied(),
                    &mut metrics,
                    &mut features,
                );
                let mut patched = before.clone();
                for (k, &h) in hosts.iter().enumerate() {
                    patched.metrics[h] = metrics[k];
                    patched.graph_features[h] = features[k];
                }
                let want = projection.with_topology(&t);
                assert_eq!(
                    bits(&patched.metrics),
                    bits(&want.metrics),
                    "{case}: metrics"
                );
                assert_eq!(
                    gbits(&patched.graph_features),
                    gbits(&want.graph_features),
                    "{case}: graph features"
                );
                mv.undo(&mut t, &undo);
            }
        }
    }

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
