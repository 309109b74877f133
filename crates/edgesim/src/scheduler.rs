//! The underlying task scheduler `S_t`.
//!
//! CAROL assumes "an underlying scheduler in the system independent from
//! the proposed fault-tolerance solution" (§III-A); the testbed uses the
//! GOBI surrogate scheduler \[33\]. This module provides the simulated
//! equivalent: a least-projected-interference placer that assigns each
//! pending task to the lightest-loaded worker of the LEI that admitted it,
//! which is the behaviourally relevant property (resilience models, not the
//! scheduler, are the experimental variable).

use crate::host::{HostId, HostSpec, HostState};
use crate::task::{Task, TaskId, TaskStatus};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The placement decision for one interval: task → host.
///
/// Convertible to the `[p × |H|]` one-hot matrix of §IV-A via
/// [`SchedulingDecision::one_hot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulingDecision {
    assignments: BTreeMap<TaskId, HostId>,
}

impl SchedulingDecision {
    /// Empty decision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `task` to `host` (replacing any previous assignment).
    pub fn assign(&mut self, task: TaskId, host: HostId) {
        self.assignments.insert(task, host);
    }

    /// Host chosen for `task`, if any.
    pub fn host_of(&self, task: TaskId) -> Option<HostId> {
        self.assignments.get(&task).copied()
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no tasks were placed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates `(task, host)` pairs in task-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, HostId)> + '_ {
        self.assignments.iter().map(|(t, h)| (*t, *h))
    }

    /// One-hot `[p × n_hosts]` matrix in task-id order (the `S` input of
    /// the CAROL neural network).
    pub fn one_hot(&self, n_hosts: usize) -> Vec<Vec<f64>> {
        self.assignments
            .values()
            .map(|&h| {
                let mut row = vec![0.0; n_hosts];
                if h < n_hosts {
                    row[h] = 1.0;
                }
                row
            })
            .collect()
    }
}

/// A placement policy invoked once per scheduling interval. `Send`, so
/// a federation's engine and scheduler can step on their own thread.
pub trait Scheduler: Send {
    /// Chooses hosts for every pending task. Running tasks keep their
    /// placement; implementations should only place `Pending` tasks on
    /// non-failed hosts.
    ///
    /// `tasks` is a view of the simulator's task store — its unretired
    /// tasks only — so one scheduling round costs O(live), independent of
    /// the run horizon.
    fn schedule(
        &mut self,
        tasks: &[&Task],
        topology: &Topology,
        specs: &[HostSpec],
        states: &[HostState],
    ) -> SchedulingDecision;
}

/// Shared admission rule: a task fits on `host` when resident RAM plus
/// already-granted admissions this interval stays under ~95% of physical
/// memory — containers are never over-committed past that.
fn ram_fits(
    host: HostId,
    task: &Task,
    specs: &[HostSpec],
    states: &[HostState],
    extra_ram: &BTreeMap<HostId, f64>,
) -> bool {
    states[host].ram
        + extra_ram.get(&host).copied().unwrap_or(0.0)
        + task.spec.ram_mb / specs[host].ram_mb
        <= 0.95
}

/// Shared admission-point resolution: the task's admitting broker if it
/// is still a live broker, otherwise the first live broker (re-homing
/// after broker death), otherwise `None` — total outage, the task stays
/// pending.
fn admission_point(task: &Task, topology: &Topology, states: &[HostState]) -> Option<HostId> {
    let live = |h: HostId| !states[h].failed;
    if task.admitted_by < topology.len()
        && matches!(
            topology.role(task.admitted_by),
            crate::topology::NodeRole::Broker
        )
        && live(task.admitted_by)
    {
        return Some(task.admitted_by);
    }
    topology.brokers().iter().copied().find(|&b| live(b))
}

/// Shared candidate set: the live workers of the admitting LEI — LEIs
/// are silos (§III-A) — with the broker itself standing in for an empty
/// LEI ("act as a worker", §I).
fn lei_candidates(admit: HostId, topology: &Topology, states: &[HostState]) -> Vec<HostId> {
    let mut candidates = topology.workers_of(admit).to_vec();
    candidates.retain(|&w| !states[w].failed);
    if candidates.is_empty() {
        candidates.push(admit);
    }
    candidates
}

/// GOBI-style least-projected-load scheduler (the simulated stand-in for
/// the gradient-based surrogate scheduler the testbed runs).
///
/// For each pending task, candidate hosts are the live workers of the
/// admitting LEI (falling back to the broker itself, then to any live
/// worker federation-wide — brokers "act as a worker" when their LEI is
/// empty, §I). The candidate minimising projected load after placement
/// wins.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadScheduler;

impl LeastLoadScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }

    fn projected_load(
        task: &Task,
        host: HostId,
        specs: &[HostSpec],
        states: &[HostState],
        extra_tasks: &BTreeMap<HostId, f64>,
    ) -> f64 {
        let spec = &specs[host];
        let st = &states[host];
        let queued = extra_tasks.get(&host).copied().unwrap_or(0.0);
        let cpu_add = task.spec.cpu_work / (spec.cpu_capacity * crate::INTERVAL_SECONDS);
        let ram_add = task.spec.ram_mb / spec.ram_mb;
        st.load_score() + queued + 0.6 * cpu_add + 0.4 * ram_add
    }
}

impl Scheduler for LeastLoadScheduler {
    fn schedule(
        &mut self,
        tasks: &[&Task],
        topology: &Topology,
        specs: &[HostSpec],
        states: &[HostState],
    ) -> SchedulingDecision {
        let mut decision = SchedulingDecision::new();
        // Projected additional load per host from decisions made *this*
        // interval, so a burst of arrivals spreads out.
        let mut extra: BTreeMap<HostId, f64> = BTreeMap::new();
        // Projected RAM per host for admission control (see `ram_fits`);
        // tasks that don't fit anywhere in the LEI queue at the broker.
        let mut extra_ram: BTreeMap<HostId, f64> = BTreeMap::new();

        for task in tasks
            .iter()
            .copied()
            .filter(|t| t.status == TaskStatus::Pending)
        {
            let Some(admit) = admission_point(task, topology, states) else {
                continue; // total outage: task stays pending
            };
            let mut candidates = lei_candidates(admit, topology, states);
            candidates.retain(|&h| ram_fits(h, task, specs, states, &extra_ram));
            if candidates.is_empty() {
                continue; // no memory anywhere in the LEI: queue at broker
            }

            let best = candidates
                .into_iter()
                .min_by(|&a, &b| {
                    let la = Self::projected_load(task, a, specs, states, &extra);
                    let lb = Self::projected_load(task, b, specs, states, &extra);
                    la.partial_cmp(&lb).expect("load scores are finite")
                })
                .expect("candidate list is never empty here");

            let spec = &specs[best];
            let cpu_add = task.spec.cpu_work / (spec.cpu_capacity * crate::INTERVAL_SECONDS);
            *extra.entry(best).or_insert(0.0) +=
                0.6 * cpu_add + 0.4 * task.spec.ram_mb / spec.ram_mb;
            *extra_ram.entry(best).or_insert(0.0) += task.spec.ram_mb / spec.ram_mb;
            decision.assign(task.id, best);
        }
        decision
    }
}

/// Deterministic round-robin placer: each LEI keeps a rotating cursor
/// over its live workers and hands pending tasks out in turn, subject to
/// the same ~95% RAM admission bound as [`LeastLoadScheduler`]. The
/// contrast scheduler of the scenario engine — load-blind placement shows
/// how much of a policy's QoS is owed to the underlying scheduler.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    /// Per-broker rotation cursor, persisted across intervals so the
    /// rotation does not restart at worker 0 every interval.
    cursors: BTreeMap<HostId, usize>,
}

impl RoundRobinScheduler {
    /// Creates the scheduler with all cursors at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn schedule(
        &mut self,
        tasks: &[&Task],
        topology: &Topology,
        specs: &[HostSpec],
        states: &[HostState],
    ) -> SchedulingDecision {
        let mut decision = SchedulingDecision::new();
        let mut extra_ram: BTreeMap<HostId, f64> = BTreeMap::new();

        for task in tasks
            .iter()
            .copied()
            .filter(|t| t.status == TaskStatus::Pending)
        {
            let Some(admit) = admission_point(task, topology, states) else {
                continue; // total outage: task stays pending
            };
            let ring = lei_candidates(admit, topology, states);
            let cursor = self.cursors.entry(admit).or_insert(0);
            // Probe at most one full rotation for a host with RAM headroom.
            let placed = (0..ring.len()).find_map(|probe| {
                let host = ring[(*cursor + probe) % ring.len()];
                ram_fits(host, task, specs, states, &extra_ram).then_some((host, probe))
            });
            let Some((host, probe)) = placed else {
                continue; // no memory anywhere in the LEI: queue at broker
            };
            *cursor = (*cursor + probe + 1) % ring.len();
            *extra_ram.entry(host).or_insert(0.0) += task.spec.ram_mb / specs[host].ram_mb;
            decision.assign(task.id, host);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn mk_task(id: TaskId, admitted_by: HostId) -> Task {
        Task::new(
            id,
            TaskSpec {
                app: "t".into(),
                cpu_work: 4000.0,
                ram_mb: 512.0,
                disk_mb: 10.0,
                net_mb: 10.0,
                deadline_s: 60.0,
            },
            0,
            admitted_by,
        )
    }

    fn setup() -> (Topology, Vec<HostSpec>, Vec<HostState>) {
        let topo = Topology::balanced(8, 2).unwrap();
        let specs = (0..8).map(HostSpec::rpi4gb).collect::<Vec<_>>();
        let states = vec![HostState::default(); 8];
        (topo, specs, states)
    }

    /// The live-view shape the simulator hands to `schedule`.
    fn refs(tasks: &[Task]) -> Vec<&Task> {
        tasks.iter().collect()
    }

    #[test]
    fn places_pending_tasks_in_admitting_lei() {
        let (topo, specs, states) = setup();
        let tasks = vec![mk_task(0, 0), mk_task(1, 1)];
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&refs(&tasks), &topo, &specs, &states);
        assert_eq!(d.len(), 2);
        let h0 = d.host_of(0).unwrap();
        let h1 = d.host_of(1).unwrap();
        assert!(topo.workers_of(0).contains(&h0));
        assert!(topo.workers_of(1).contains(&h1));
    }

    #[test]
    fn skips_running_tasks() {
        let (topo, specs, states) = setup();
        let mut t = mk_task(0, 0);
        t.status = TaskStatus::Running;
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&[&t], &topo, &specs, &states);
        assert!(d.is_empty());
    }

    #[test]
    fn avoids_failed_workers() {
        let (topo, specs, mut states) = setup();
        for &w in topo.workers_of(0) {
            states[w].failed = true;
        }
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        // Falls back to the broker itself.
        assert_eq!(d.host_of(0), Some(0));
    }

    #[test]
    fn rehomes_tasks_from_dead_broker() {
        let (topo, specs, mut states) = setup();
        states[0].failed = true;
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        let h = d.host_of(0).unwrap();
        // Rehomed to broker 1's LEI.
        assert!(topo.workers_of(1).contains(&h));
    }

    #[test]
    fn total_outage_leaves_task_pending() {
        let (topo, specs, mut states) = setup();
        for state in states.iter_mut().take(8) {
            state.failed = true;
        }
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        assert!(d.is_empty());
    }

    #[test]
    fn spreads_a_burst_across_workers() {
        let (topo, specs, states) = setup();
        let tasks: Vec<Task> = (0..3).map(|i| mk_task(i, 0)).collect();
        let mut sched = LeastLoadScheduler::new();
        let d = sched.schedule(&refs(&tasks), &topo, &specs, &states);
        let hosts: std::collections::BTreeSet<_> = d.iter().map(|(_, h)| h).collect();
        assert_eq!(hosts.len(), 3, "burst should spread: {d:?}");
    }

    #[test]
    fn round_robin_rotates_through_lei_workers() {
        let (topo, specs, states) = setup();
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 0)).collect();
        let mut sched = RoundRobinScheduler::new();
        let d = sched.schedule(&refs(&tasks), &topo, &specs, &states);
        assert_eq!(d.len(), 6);
        let workers = topo.workers_of(0);
        // Six tasks over three workers: each worker gets exactly two,
        // in rotation order.
        for (i, (_, h)) in d.iter().enumerate() {
            assert_eq!(h, workers[i % workers.len()], "task {i} off-rotation");
        }
    }

    #[test]
    fn round_robin_cursor_persists_across_intervals() {
        let (topo, specs, states) = setup();
        let mut sched = RoundRobinScheduler::new();
        let d1 = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        let d2 = sched.schedule(&[&mk_task(1, 0)], &topo, &specs, &states);
        assert_ne!(
            d1.host_of(0),
            d2.host_of(1),
            "second interval must continue the rotation, not restart it"
        );
    }

    #[test]
    fn round_robin_skips_failed_workers_and_falls_back_to_broker() {
        let (topo, specs, mut states) = setup();
        for &w in topo.workers_of(0) {
            states[w].failed = true;
        }
        let mut sched = RoundRobinScheduler::new();
        let d = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        assert_eq!(d.host_of(0), Some(0));
    }

    #[test]
    fn round_robin_respects_ram_admission() {
        let (topo, specs, mut states) = setup();
        // Saturate every host in LEI 0 (workers and broker).
        for h in topo.lei(0) {
            states[h].ram = 0.94;
        }
        let mut sched = RoundRobinScheduler::new();
        let d = sched.schedule(&[&mk_task(0, 0)], &topo, &specs, &states);
        assert!(d.is_empty(), "over-committed LEI must queue the task");
    }

    #[test]
    fn round_robin_is_deterministic() {
        let (topo, specs, states) = setup();
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 1)).collect();
        let mut a = RoundRobinScheduler::new();
        let mut b = RoundRobinScheduler::new();
        assert_eq!(
            a.schedule(&refs(&tasks), &topo, &specs, &states),
            b.schedule(&refs(&tasks), &topo, &specs, &states)
        );
    }

    #[test]
    fn one_hot_rows_sum_to_one() {
        let mut d = SchedulingDecision::new();
        d.assign(3, 1);
        d.assign(7, 0);
        let m = d.one_hot(4);
        assert_eq!(m.len(), 2);
        for row in &m {
            assert_eq!(row.iter().sum::<f64>(), 1.0);
        }
        assert_eq!(m[0][1], 1.0); // task 3 first (id order)
        assert_eq!(m[1][0], 1.0);
    }
}
