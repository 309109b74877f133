//! Broker–worker topology of the edge federation.
//!
//! The assignment of hosts to the broker layer or the worker layer — and of
//! each worker to exactly one broker — *is* the decision variable CAROL
//! optimises (§III-A: "the assignment of edge nodes as brokers or workers
//! and the allocation of all workers to one of a broker defines the
//! topology of the system").

use crate::host::HostId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Role of a host within the federation topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Manages a local edge infrastructure (LEI); meshes with all brokers.
    Broker,
    /// Executes tasks under the direction of `broker`.
    Worker {
        /// The broker this worker reports to.
        broker: HostId,
    },
}

/// Errors raised by topology validation and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no broker at all.
    NoBrokers,
    /// A worker references a host that is not a broker (or out of range).
    DanglingWorker {
        /// The offending worker.
        worker: HostId,
        /// The invalid broker reference.
        broker: HostId,
    },
    /// A host id was out of range.
    UnknownHost(HostId),
    /// The operation would orphan the workers of a broker.
    WouldOrphanWorkers(HostId),
    /// The referenced host does not have the role the operation requires.
    WrongRole(HostId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoBrokers => write!(f, "topology has no brokers"),
            TopologyError::DanglingWorker { worker, broker } => {
                write!(f, "worker {worker} references non-broker {broker}")
            }
            TopologyError::UnknownHost(h) => write!(f, "host {h} out of range"),
            TopologyError::WouldOrphanWorkers(b) => {
                write!(f, "demoting broker {b} would orphan its workers")
            }
            TopologyError::WrongRole(h) => write!(f, "host {h} has the wrong role"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Broker–worker topology over `n` hosts.
///
/// Invariants (checked by [`Topology::validate`] and preserved by every
/// mutating method): at least one broker exists, and every worker points at
/// a host whose role is `Broker`.
///
/// Next to `roles` the topology keeps a membership index — the broker
/// list and each broker's workers, both ascending — that every mutating
/// method updates in place. The index is a pure function of `roles`, so
/// it is skipped on the wire (the JSON is `{"roles":[...]}`) and rebuilt
/// by [`Topology::new`] on deserialisation; the derived `Eq`/`Hash` stay
/// consistent with comparing `roles` alone.
///
/// # Examples
///
/// ```
/// use edgesim::Topology;
/// // 8 hosts, 2 LEIs of 1 broker + 3 workers each.
/// let topo = Topology::balanced(8, 2).unwrap();
/// assert_eq!(topo.brokers().len(), 2);
/// assert_eq!(topo.workers_of(topo.brokers()[0]).len(), 3);
/// topo.validate().unwrap();
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize)]
pub struct Topology {
    roles: Vec<NodeRole>,
    /// Broker hosts, ascending.
    #[serde(skip)]
    brokers: Vec<HostId>,
    /// Workers of each host, ascending (empty for workers).
    #[serde(skip)]
    members: Vec<Vec<HostId>>,
}

/// `clone_from` reuses the target's buffers, member lists included, so
/// re-syncing a scratch copy allocates nothing once it has held a
/// topology of the same shape.
impl Clone for Topology {
    fn clone(&self) -> Self {
        Self {
            roles: self.roles.clone(),
            brokers: self.brokers.clone(),
            members: self.members.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.roles.clone_from(&source.roles);
        self.brokers.clone_from(&source.brokers);
        self.members.clone_from(&source.members);
    }
}

/// Goes through [`Topology::new`], so checkpoints rebuild the membership
/// index and invalid role vectors are rejected.
impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let roles = v
            .get("roles")
            .ok_or_else(|| serde::Error("missing field `roles` in Topology".into()))?;
        Topology::new(Vec::from_value(roles)?).map_err(|e| serde::Error(e.to_string()))
    }
}

impl Topology {
    /// Builds a topology from explicit roles, validating invariants.
    pub fn new(roles: Vec<NodeRole>) -> Result<Self, TopologyError> {
        let n = roles.len();
        let mut t = Self {
            roles,
            brokers: Vec::new(),
            members: vec![Vec::new(); n],
        };
        t.validate()?;
        for (h, role) in t.roles.iter().enumerate() {
            match *role {
                NodeRole::Broker => t.brokers.push(h),
                NodeRole::Worker { broker } => t.members[broker].push(h),
            }
        }
        Ok(t)
    }

    /// Evenly partitions `n_hosts` into `n_brokers` LEIs: host `i` of each
    /// chunk's first position becomes the broker, the rest its workers.
    /// Mirrors the testbed's symmetric starting topology (§IV-C).
    pub fn balanced(n_hosts: usize, n_brokers: usize) -> Result<Self, TopologyError> {
        if n_brokers == 0 || n_brokers > n_hosts {
            return Err(TopologyError::NoBrokers);
        }
        let mut roles = vec![NodeRole::Broker; n_hosts];
        // Brokers are hosts 0..n_brokers; workers are distributed round-robin
        // so heterogeneous specs (ordered 8GB-first) spread across LEIs.
        for (w, role) in roles.iter_mut().enumerate().skip(n_brokers) {
            *role = NodeRole::Worker {
                broker: w % n_brokers,
            };
        }
        Self::new(roles)
    }

    /// Number of hosts (brokers + workers).
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True for a zero-host topology (never valid).
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Role of `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn role(&self, host: HostId) -> NodeRole {
        self.roles[host]
    }

    /// All roles, indexed by host.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// Hosts currently acting as brokers, ascending. Read from the
    /// membership index, so O(1); `brokers().binary_search(&b)` is the
    /// rank of broker `b`.
    pub fn brokers(&self) -> &[HostId] {
        &self.brokers
    }

    /// Hosts currently acting as workers, ascending.
    pub fn workers(&self) -> Vec<HostId> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| matches!(r, NodeRole::Worker { .. }).then_some(i))
            .collect()
    }

    /// Workers managed by `broker`, ascending (empty if `broker` is not a
    /// broker). Read from the membership index, so O(1).
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn workers_of(&self, broker: HostId) -> &[HostId] {
        &self.members[broker]
    }

    /// The LEI of `broker`: the broker itself plus its workers.
    pub fn lei(&self, broker: HostId) -> Vec<HostId> {
        let mut nodes = vec![broker];
        nodes.extend_from_slice(self.workers_of(broker));
        nodes
    }

    /// The broker responsible for `host` (itself when `host` is a broker).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn broker_of(&self, host: HostId) -> HostId {
        match self.roles[host] {
            NodeRole::Broker => host,
            NodeRole::Worker { broker } => broker,
        }
    }

    /// Broker currently serving the host that admitted a task — the
    /// management node its traffic flows through while it is pending.
    ///
    /// `admitted_by` was recorded against the topology current at
    /// admission time; by the time a pending task is dispatched a repair
    /// may have installed a different topology, so the id is clamped into
    /// range defensively before the role lookup (the historical
    /// `admitted_by.min(n - 1)` clamp from the dispatch and
    /// state-capture paths, now in one place).
    pub fn admitting_broker(&self, admitted_by: HostId) -> HostId {
        self.broker_of(admitted_by.min(self.len().saturating_sub(1)))
    }

    /// Checks all invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if !self.roles.iter().any(|r| matches!(r, NodeRole::Broker)) {
            return Err(TopologyError::NoBrokers);
        }
        for (w, role) in self.roles.iter().enumerate() {
            if let NodeRole::Worker { broker } = role {
                if *broker >= self.roles.len() {
                    return Err(TopologyError::UnknownHost(*broker));
                }
                if !matches!(self.roles[*broker], NodeRole::Broker) {
                    return Err(TopologyError::DanglingWorker {
                        worker: w,
                        broker: *broker,
                    });
                }
            }
        }
        Ok(())
    }

    /// Promotes worker `w` to the broker layer. Its previous broker keeps
    /// its other workers.
    pub fn promote(&mut self, w: HostId) -> Result<(), TopologyError> {
        if w >= self.roles.len() {
            return Err(TopologyError::UnknownHost(w));
        }
        match self.roles[w] {
            NodeRole::Worker { broker } => {
                self.roles[w] = NodeRole::Broker;
                remove_sorted(&mut self.members[broker], w);
                insert_sorted(&mut self.brokers, w);
                Ok(())
            }
            NodeRole::Broker => Err(TopologyError::WrongRole(w)),
        }
    }

    /// Demotes broker `b` to a worker under `new_broker`. Fails if `b`
    /// still manages workers (reassign them first) or if `new_broker` is
    /// not a broker distinct from `b`.
    pub fn demote(&mut self, b: HostId, new_broker: HostId) -> Result<(), TopologyError> {
        if b >= self.roles.len() {
            return Err(TopologyError::UnknownHost(b));
        }
        if new_broker >= self.roles.len() {
            return Err(TopologyError::UnknownHost(new_broker));
        }
        if !matches!(self.roles[b], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(b));
        }
        if b == new_broker || !matches!(self.roles[new_broker], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(new_broker));
        }
        if !self.members[b].is_empty() {
            return Err(TopologyError::WouldOrphanWorkers(b));
        }
        if self.brokers.len() == 1 {
            return Err(TopologyError::NoBrokers);
        }
        self.roles[b] = NodeRole::Worker { broker: new_broker };
        remove_sorted(&mut self.brokers, b);
        insert_sorted(&mut self.members[new_broker], b);
        Ok(())
    }

    /// Reassigns worker `w` to `new_broker`.
    pub fn reassign(&mut self, w: HostId, new_broker: HostId) -> Result<(), TopologyError> {
        if w >= self.roles.len() {
            return Err(TopologyError::UnknownHost(w));
        }
        if new_broker >= self.roles.len() {
            return Err(TopologyError::UnknownHost(new_broker));
        }
        let NodeRole::Worker { broker: old } = self.roles[w] else {
            return Err(TopologyError::WrongRole(w));
        };
        if !matches!(self.roles[new_broker], NodeRole::Broker) {
            return Err(TopologyError::WrongRole(new_broker));
        }
        self.roles[w] = NodeRole::Worker { broker: new_broker };
        remove_sorted(&mut self.members[old], w);
        insert_sorted(&mut self.members[new_broker], w);
        Ok(())
    }

    /// Neighbour row of `host` in the federation graph the GAT encoder
    /// attends over (§IV-A): every worker links to its broker, each
    /// broker links to its own workers and to the [`GAT_BROKER_DEGREE`]
    /// brokers nearest its rank in [`Topology::brokers`], half on either
    /// side and wrapping around modulo the broker count, and each node
    /// carries a self-loop. With at most `GAT_BROKER_DEGREE + 1` brokers
    /// the window covers all of them, so small federations (the paper's
    /// 4-broker testbed included) keep the full broker mesh; larger ones
    /// get a graph linear in the broker count, in which a promote or
    /// demote changes only the rows of the brokers around its rank.
    ///
    /// The order is fixed, because the attention softmax sums in it: a
    /// broker yields itself, its window's other brokers ascending, then
    /// its own workers ascending; a worker yields itself, then its
    /// broker.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn gat_row(&self, host: HostId) -> impl Iterator<Item = HostId> + '_ {
        let [a, b, c]: [&[HostId]; 3] = match &self.roles[host] {
            NodeRole::Broker => self.broker_window(host),
            NodeRole::Worker { broker } => [std::slice::from_ref(broker), &[], &[]],
        };
        let rest = a.iter().chain(b).chain(c).chain(&self.members[host]);
        std::iter::once(host).chain(rest.copied())
    }

    /// The brokers whose attention window holds `host`'s rank among the
    /// brokers, `host` included, once `host` is a broker: for a broker,
    /// the brokers whose [`Topology::gat_row`] a demotion of it may
    /// change; for a worker, those a promotion of it may change (`host`
    /// among them). Every other broker's window keeps the same brokers
    /// on both sides of the move. All of them when there are at most
    /// `GAT_BROKER_DEGREE + 1` brokers (with `host`); `GAT_BROKER_DEGREE
    /// + 1` of them otherwise, in no particular order.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn gat_window_holders(&self, host: HostId) -> impl Iterator<Item = HostId> + '_ {
        let inserted = !matches!(self.roles[host], NodeRole::Broker);
        let rank = self.brokers.partition_point(|&x| x < host);
        let n = self.brokers.len() + inserted as usize;
        let len = (GAT_BROKER_DEGREE + 1).min(n);
        (0..len).map(move |t| {
            let p = (rank + n + len / 2 - t) % n;
            match p.cmp(&rank) {
                std::cmp::Ordering::Equal if inserted => host,
                std::cmp::Ordering::Greater if inserted => self.brokers[p - 1],
                _ => self.brokers[p],
            }
        })
    }

    /// The hosts whose [`Topology::gat_row`] or role-derived GAT features
    /// (broker flag, worker share) may differ from `parent`'s, ascending:
    /// every host whose role differs, the old and new broker of each such
    /// worker (their worker lists change), and the brokers whose windows
    /// may have shifted. When one broker list is the other plus one
    /// broker (a promotion or demotion), those are the brokers whose
    /// window in the longer list holds its rank: every other broker's
    /// window keeps the same brokers on both sides. After any other
    /// change of the broker list they are all brokers. A superset, found
    /// without reading the unchanged hosts' rows.
    ///
    /// A diff of two whole role vectors: the repair path lists the hosts
    /// of each move instead, and tests check that listing against this.
    ///
    /// # Panics
    ///
    /// Panics if the host counts differ.
    pub fn gat_changes_from(&self, parent: &Topology) -> Vec<HostId> {
        assert_eq!(self.len(), parent.len(), "host count mismatch");
        let mut hosts = Vec::new();
        for (h, (&new, &old)) in self.roles.iter().zip(&parent.roles).enumerate() {
            if new != old {
                hosts.push(h);
                for role in [new, old] {
                    if let NodeRole::Worker { broker } = role {
                        hosts.push(broker);
                    }
                }
            }
        }
        if self.brokers != parent.brokers {
            match one_inserted(&self.brokers, &parent.brokers) {
                Some((longer, rank)) => hosts.extend(windows_holding(longer, rank)),
                None => hosts.extend_from_slice(&self.brokers),
            }
        }
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// The brokers in broker `b`'s attention window, other than `b`, as
    /// at most three ascending, consecutive runs of [`Topology::brokers`].
    /// The window is the `len = min(GAT_BROKER_DEGREE + 1, B)` circular
    /// ranks from `rank − len / 2`, so it is every broker when
    /// `B ≤ GAT_BROKER_DEGREE + 1`. In ascending order it is the run
    /// `[start, end)` when it does not wrap, and `[0, end − B)` followed
    /// by `[start, B)` when it does, with `b` cut out of the run that
    /// holds it.
    fn broker_window(&self, b: HostId) -> [&[HostId]; 3] {
        let n = self.brokers.len();
        let rank = self.brokers.partition_point(|&x| x < b);
        let len = (GAT_BROKER_DEGREE + 1).min(n);
        let start = if rank >= len / 2 {
            rank - len / 2
        } else {
            rank + n - len / 2
        };
        let end = start + len;
        let wrapped = &self.brokers[..end.saturating_sub(n)];
        let run = &self.brokers[start..end.min(n)];
        if rank >= start {
            let (before, after) = run.split_at(rank - start);
            [wrapped, before, &after[1..]]
        } else {
            let (before, after) = wrapped.split_at(rank);
            [before, &after[1..], run]
        }
    }
}

/// When one of `a` and `b` (ascending) is the other with one entry
/// inserted, that longer list and the entry's rank in it.
fn one_inserted<'a>(a: &'a [HostId], b: &'a [HostId]) -> Option<(&'a [HostId], usize)> {
    let (longer, shorter) = if a.len() > b.len() { (a, b) } else { (b, a) };
    if longer.len() != shorter.len() + 1 {
        return None;
    }
    let rank = longer
        .iter()
        .zip(shorter)
        .take_while(|(x, y)| x == y)
        .count();
    (longer[rank + 1..] == shorter[rank..]).then_some((longer, rank))
}

/// The brokers of the ascending list `brokers` whose attention window
/// (see `Topology::broker_window`) holds rank `rank`: the window of rank
/// `p` spans `[p − len/2, p − len/2 + len)` circularly, so these are the
/// `len` ranks `rank + len/2 − t` for `t` in `0..len`.
fn windows_holding(brokers: &[HostId], rank: usize) -> impl Iterator<Item = HostId> + '_ {
    let n = brokers.len();
    let len = (GAT_BROKER_DEGREE + 1).min(n);
    (0..len).map(move |t| brokers[(rank + n + len / 2 - t) % n])
}

/// Broker neighbours of each broker in the GAT graph
/// ([`Topology::gat_row`]) once a federation has more than
/// `GAT_BROKER_DEGREE + 1` brokers: half of them on either side of its
/// rank.
pub const GAT_BROKER_DEGREE: usize = 16;

/// Inserts `h` into the ascending list `v` (no-op if present).
fn insert_sorted(v: &mut Vec<HostId>, h: HostId) {
    if let Err(pos) = v.binary_search(&h) {
        v.insert(pos, h);
    }
}

/// Removes `h` from the ascending list `v` (no-op if absent).
fn remove_sorted(v: &mut Vec<HostId>, h: HostId) {
    if let Ok(pos) = v.binary_search(&h) {
        v.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_topology_matches_testbed() {
        let t = Topology::balanced(16, 4).unwrap();
        assert_eq!(t.brokers(), [0, 1, 2, 3]);
        assert_eq!(t.workers().len(), 12);
        for &b in t.brokers() {
            assert_eq!(t.workers_of(b).len(), 3);
            assert_eq!(t.lei(b).len(), 4);
        }
    }

    #[test]
    fn balanced_rejects_degenerate_configs() {
        assert!(Topology::balanced(4, 0).is_err());
        assert!(Topology::balanced(4, 5).is_err());
        assert!(Topology::balanced(4, 4).is_ok());
    }

    #[test]
    fn validation_catches_dangling_worker() {
        let roles = vec![
            NodeRole::Broker,
            NodeRole::Worker { broker: 2 }, // host 2 is a worker, not broker
            NodeRole::Worker { broker: 0 },
        ];
        assert_eq!(
            Topology::new(roles).unwrap_err(),
            TopologyError::DanglingWorker {
                worker: 1,
                broker: 2
            }
        );
    }

    #[test]
    fn validation_requires_a_broker() {
        let roles = vec![NodeRole::Worker { broker: 0 }];
        assert_eq!(Topology::new(roles).unwrap_err(), TopologyError::NoBrokers);
    }

    #[test]
    fn promote_then_reassign_preserves_invariants() {
        let mut t = Topology::balanced(8, 2).unwrap();
        let w = t.workers()[0];
        t.promote(w).unwrap();
        assert_eq!(t.brokers().len(), 3);
        t.validate().unwrap();
        let other = t.workers()[0];
        t.reassign(other, w).unwrap();
        t.validate().unwrap();
        assert!(t.workers_of(w).contains(&other));
    }

    #[test]
    fn demote_guards_orphans_and_last_broker() {
        let mut t = Topology::balanced(4, 2).unwrap();
        // broker 0 still has a worker: refuse.
        assert_eq!(
            t.demote(0, 1).unwrap_err(),
            TopologyError::WouldOrphanWorkers(0)
        );
        // Move 0's workers to 1, then demote works.
        for w in t.workers_of(0).to_vec() {
            t.reassign(w, 1).unwrap();
        }
        t.demote(0, 1).unwrap();
        t.validate().unwrap();
        assert_eq!(t.brokers(), [1]);
        // Demoting the last broker must fail.
        assert!(t.demote(1, 1).is_err());
    }

    #[test]
    fn broker_of_resolves_both_roles() {
        let t = Topology::balanced(6, 2).unwrap();
        assert_eq!(t.broker_of(0), 0);
        let w = t.workers()[0];
        let b = match t.role(w) {
            NodeRole::Worker { broker } => broker,
            _ => unreachable!(),
        };
        assert_eq!(t.broker_of(w), b);
    }

    fn gat_row(t: &Topology, host: HostId) -> Vec<HostId> {
        t.gat_row(host).collect()
    }

    #[test]
    fn gat_neighbors_structure() {
        // Exact rows: the attention softmax sums in this order, so a
        // reordered row would silently change every score.
        let mut t = Topology::balanced(16, 4).unwrap();
        assert_eq!(gat_row(&t, 0), [0, 1, 2, 3, 4, 8, 12]);
        assert_eq!(gat_row(&t, 1), [1, 0, 2, 3, 5, 9, 13]);
        assert_eq!(gat_row(&t, 2), [2, 0, 1, 3, 6, 10, 14]);
        assert_eq!(gat_row(&t, 3), [3, 0, 1, 2, 7, 11, 15]);
        for w in 4..16 {
            assert_eq!(gat_row(&t, w), [w, w % 4]);
        }

        // A promoted worker joins the mesh in rank order, with no workers.
        t.promote(5).unwrap();
        assert_eq!(gat_row(&t, 5), [5, 0, 1, 2, 3]);
        assert_eq!(gat_row(&t, 0), [0, 1, 2, 3, 5, 4, 8, 12]);
        assert_eq!(gat_row(&t, 1), [1, 0, 2, 3, 5, 9, 13]);
        assert_eq!(gat_row(&t, 3), [3, 0, 1, 2, 5, 7, 11, 15]);

        // A reassigned worker moves from its old broker's row to the new.
        t.reassign(9, 5).unwrap();
        assert_eq!(gat_row(&t, 9), [9, 5]);
        assert_eq!(gat_row(&t, 1), [1, 0, 2, 3, 5, 13]);
        assert_eq!(gat_row(&t, 5), [5, 0, 1, 2, 3, 9]);

        // A demoted broker leaves the mesh and lands in ascending order
        // among its new broker's workers.
        t.reassign(9, 2).unwrap();
        t.demote(5, 2).unwrap();
        assert_eq!(gat_row(&t, 5), [5, 2]);
        assert_eq!(gat_row(&t, 0), [0, 1, 2, 3, 4, 8, 12]);
        assert_eq!(gat_row(&t, 2), [2, 0, 1, 3, 5, 6, 9, 10, 14]);
        assert_eq!(gat_row(&t, 9), [9, 2]);
    }

    #[test]
    fn gat_neighbors_symmetric() {
        let t = Topology::balanced(16, 4).unwrap();
        for i in 0..t.len() {
            for j in t.gat_row(i).filter(|&j| j != i) {
                assert!(t.gat_row(j).any(|k| k == i), "edge {i}->{j} not symmetric");
            }
        }
    }

    /// `n_hosts` hosts in LEIs of `span`: host `span·i` is the broker of
    /// hosts `span·i + 1 ..`, so broker ids are spread out and a promoted
    /// worker lands mid-rank.
    fn spread(n_hosts: usize, span: usize) -> Topology {
        let roles = (0..n_hosts)
            .map(|h| match h % span {
                0 => NodeRole::Broker,
                r => NodeRole::Worker { broker: h - r },
            })
            .collect();
        Topology::new(roles).unwrap()
    }

    /// The full-mesh row, read off the roles alone: itself, every other
    /// broker ascending, then its workers ascending; a worker's is
    /// itself and its broker.
    fn clique_row(t: &Topology, host: HostId) -> Vec<HostId> {
        let roles = t.roles();
        let NodeRole::Broker = roles[host] else {
            return vec![host, t.broker_of(host)];
        };
        let brokers = (0..t.len()).filter(|&h| h != host && roles[h] == NodeRole::Broker);
        let workers = (0..t.len()).filter(|&h| roles[h] == NodeRole::Worker { broker: host });
        std::iter::once(host)
            .chain(brokers)
            .chain(workers)
            .collect()
    }

    #[test]
    fn gat_window_is_the_full_mesh_up_to_seventeen_brokers() {
        for b in 1..=GAT_BROKER_DEGREE + 1 {
            let mut shapes = vec![Topology::balanced(3 * b + 2, b).unwrap(), spread(3 * b, 3)];
            // Scattered broker ids: promote a worker between every two of
            // the first brokers, up to `b` brokers in all.
            let mut promoted = spread(4 * b.div_ceil(2), 4);
            for i in 0..b / 2 {
                promoted.promote(4 * i + 2).unwrap();
            }
            assert_eq!(promoted.brokers().len(), b);
            shapes.push(promoted);
            for t in &shapes {
                for h in 0..t.len() {
                    assert_eq!(gat_row(t, h), clique_row(t, h), "{b} brokers, host {h}");
                }
            }
        }
    }

    #[test]
    fn gat_window_has_k_ascending_brokers_past_seventeen() {
        let k = GAT_BROKER_DEGREE;
        for (n_hosts, n_brokers) in [(54, 18), (1024, 171), (4096, 683)] {
            for t in [
                Topology::balanced(n_hosts, n_brokers).unwrap(),
                spread(3 * n_brokers, 3),
            ] {
                let brokers = t.brokers();
                for (rank, &b) in brokers.iter().enumerate() {
                    let row = gat_row(&t, b);
                    assert_eq!(row[0], b);
                    let (peers, workers) = row[1..].split_at(k);
                    assert_eq!(workers, t.workers_of(b), "{n_brokers} brokers, broker {b}");
                    assert!(
                        peers.windows(2).all(|p| p[0] < p[1]),
                        "{peers:?} not ascending"
                    );
                    assert!(!peers.contains(&b), "broker {b} attends to itself twice");
                    let mut want: Vec<HostId> = (1..=k / 2)
                        .flat_map(|d| [rank + d, rank + n_brokers - d])
                        .map(|r| brokers[r % n_brokers])
                        .collect();
                    want.sort_unstable();
                    assert_eq!(peers, want, "{n_brokers} brokers, rank {rank}");
                }
                // The window wraps at both ends of the rank order.
                let (first, last) = (brokers[0], brokers[n_brokers - 1]);
                assert!(gat_row(&t, first).contains(&last));
                assert!(gat_row(&t, last).contains(&first));
                for i in 0..t.len() {
                    for j in t.gat_row(i) {
                        assert!(t.gat_row(j).any(|h| h == i), "edge {i}->{j} not symmetric");
                    }
                }
            }
        }
    }

    #[test]
    fn one_move_changes_at_most_k_plus_two_gat_rows() {
        // 1,024 hosts, 171 brokers. Brokers 0 (rank 0) and 1020 (the last
        // rank) lend their workers to a neighbour, so they can be demoted.
        let mut snapshot = spread(1024, 6);
        assert_eq!(snapshot.brokers().len(), 171);
        for w in 1..6 {
            snapshot.reassign(w, 6).unwrap();
        }
        for w in 1021..1024 {
            snapshot.reassign(w, 1014).unwrap();
        }
        let mut promoted = snapshot.clone();
        promoted.promote(511).unwrap();
        type Move = fn(&mut Topology) -> Result<(), TopologyError>;
        let moves: [(&str, &Topology, Move); 9] = [
            ("promote to rank 1", &snapshot, |t| t.promote(7)),
            ("promote mid-rank", &snapshot, |t| t.promote(511)),
            ("promote to the last rank", &snapshot, |t| t.promote(1023)),
            ("demote rank 0", &snapshot, |t| t.demote(0, 6)),
            ("demote the last rank", &snapshot, |t| t.demote(1020, 1014)),
            ("demote mid-rank", &promoted, |t| t.demote(511, 510)),
            ("reassign across the wrap", &snapshot, |t| {
                t.reassign(1, 1014)
            }),
            ("reassign mid-rank", &snapshot, |t| t.reassign(509, 12)),
            ("reassign to a neighbour", &snapshot, |t| {
                t.reassign(509, 498)
            }),
        ];
        let rows = |t: &Topology| (0..t.len()).map(|h| gat_row(t, h)).collect::<Vec<_>>();
        for (name, base, apply) in moves {
            let mut t = base.clone();
            apply(&mut t).unwrap();
            let changed = rows(&t)
                .iter()
                .zip(rows(base))
                .filter(|(a, b)| **a != *b)
                .count();
            assert!(changed > 0, "{name}: no row changed");
            assert!(
                changed <= GAT_BROKER_DEGREE + 2,
                "{name}: {changed} rows changed"
            );
            // The delta's host list is as short: a promotion or demotion
            // lists the brokers whose window holds its rank, not all 171.
            let listed = t.gat_changes_from(base).len();
            assert!(
                listed <= GAT_BROKER_DEGREE + 2,
                "{name}: {listed} hosts listed"
            );
        }
    }

    /// A node-shift move on `t`: promote worker `a`, demote broker `a`
    /// into broker `b` (its workers move to `b` first), or reassign
    /// worker `a` to broker `b`. `None` if the move does not apply.
    fn shift(t: &Topology, kind: usize, a: HostId, b: HostId) -> Option<Topology> {
        let mut t = t.clone();
        let ok = match kind {
            0 => t.promote(a).is_ok(),
            1 => {
                if a != b && t.role(b) == NodeRole::Broker {
                    for w in t.workers_of(a).to_vec() {
                        t.reassign(w, b).unwrap();
                    }
                }
                t.demote(a, b).is_ok()
            }
            _ => t.broker_of(a) != b && t.reassign(a, b).is_ok(),
        };
        ok.then_some(t)
    }

    /// `child.gat_changes_from(parent)` is ascending and names every
    /// host whose GAT row, broker flag or worker count differs.
    fn assert_changes_cover(parent: &Topology, child: &Topology, case: &str) {
        let changes = child.gat_changes_from(parent);
        assert!(
            changes.windows(2).all(|w| w[0] < w[1]),
            "{case}: not ascending"
        );
        let features = |t: &Topology, h| (t.role(h) == NodeRole::Broker, t.workers_of(h).len());
        for h in 0..child.len() {
            if gat_row(child, h) != gat_row(parent, h) || features(child, h) != features(parent, h)
            {
                assert!(changes.binary_search(&h).is_ok(), "{case}: host {h} missed");
            }
        }
    }

    #[test]
    fn gat_changes_cover_every_changed_row_and_feature() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for (n_hosts, span) in [(24, 3), (51, 3), (54, 3), (1024, 6)] {
            let base = spread(n_hosts, span);
            let brokers = base.brokers().to_vec();
            let (first, last) = (brokers[0], brokers[brokers.len() - 1]);
            // The window wraps at ranks 0 and B − 1: demote both ends,
            // promote past the last rank, move a worker onto either end.
            let mut moves = vec![
                (1, first, brokers[1]),
                (1, last, first),
                (0, n_hosts - 1, 0),
                (2, 1, last),
                (2, n_hosts - 1, first),
            ];
            for _ in 0..60 {
                let kind = rng.gen_range(0..3);
                let a = rng.gen_range(0..n_hosts);
                moves.push((kind, a, brokers[rng.gen_range(0..brokers.len())]));
            }
            let mut walk = base.clone();
            for (kind, a, b) in moves {
                let case = format!("{} brokers, move {kind} of {a} onto {b}", brokers.len());
                if let Some(child) = shift(&base, kind, a, b) {
                    assert_changes_cover(&base, &child, &case);
                    assert_changes_cover(&child, &base, &format!("{case}, reversed"));
                }
                // Unrelated pairs too: a random walk against the base.
                if let Some(next) = shift(&walk, kind, a, b) {
                    walk = next;
                    assert_changes_cover(&base, &walk, &format!("{case}, walked"));
                }
            }
        }
    }

    #[test]
    fn roles_distinguish_topologies() {
        let a = Topology::balanced(6, 2).unwrap();
        let mut b = a.clone();
        let w = b.workers()[0];
        b.promote(w).unwrap();
        assert_ne!(a.roles(), b.roles());
        assert_eq!(a.roles(), a.clone().roles());
    }

    #[test]
    fn serde_round_trip() {
        let t = Topology::balanced(8, 2).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.workers_of(0), t.workers_of(0));
    }
}
