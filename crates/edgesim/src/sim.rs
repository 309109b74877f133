//! Interval-driven simulation engine.
//!
//! One [`Simulator::step`] models one five-minute scheduling interval
//! (§III-A): task arrival via the gateway model, placement by the
//! underlying scheduler, processor-shared execution with contention,
//! failure effects, and energy/QoS accounting. Resilience policies interact
//! with the engine exactly where Algorithm 2 does: they read
//! [`Simulator::failed_brokers`] after a step and install a repaired
//! topology with [`Simulator::set_topology`] before the next one.

use crate::host::{HostId, HostSpec, HostState};
use crate::network::NetworkModel;
use crate::phases::{self, PhaseTimings};
use crate::scheduler::{Scheduler, SchedulingDecision};
use crate::task::{Task, TaskId, TaskSpec, TaskStatus};
use crate::topology::{NodeRole, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Fraction of idle power drawn by a task-less worker in standby mode.
pub const STANDBY_POWER_FRACTION: f64 = 0.45;

/// Fraction of a broker's CPU consumed by the management stack itself.
/// The simulator charges it and candidate projection
/// ([`crate::state::Projection`]) prices it, so both read this one value.
pub const BROKER_BASE_CPU: f64 = 0.08;

/// Additional broker CPU fraction per managed worker (synchronisation,
/// audits); shared like [`BROKER_BASE_CPU`].
pub const BROKER_PER_WORKER_CPU: f64 = 0.015;

/// RAM (MB) consumed by the broker management software; shared like
/// [`BROKER_BASE_CPU`].
pub const BROKER_MGMT_RAM_MB: f64 = 512.0;

/// Workers one broker manages at full efficiency. Beyond this span the
/// LEI's workers run degraded — the "low broker count can cause
/// bottlenecks and contentions" effect of §I — and candidate projection
/// prices the same contention.
pub const BROKER_SPAN: usize = 5;

/// Seconds of unavailability charged to a node whose role changed
/// (management-container start-up + state sync, §IV-H).
pub const NODE_SHIFT_COST_S: f64 = 20.0;

/// Extra resource pressure applied to one host for one interval by the
/// fault-injection module (CPU hog, memory thrasher, IOZone, DDoS — §IV-F).
/// Values are utilisation fractions added on top of organic load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLoad {
    /// Added CPU utilisation.
    pub cpu: f64,
    /// Added RAM utilisation.
    pub ram: f64,
    /// Added disk-bandwidth utilisation.
    pub disk: f64,
    /// Added network-bandwidth utilisation.
    pub net: f64,
}

impl FaultLoad {
    /// Componentwise sum.
    pub fn merge(&mut self, other: FaultLoad) {
        self.cpu += other.cpu;
        self.ram += other.ram;
        self.disk += other.disk;
        self.net += other.net;
    }
}

/// Hardware composition of a federation: which [`HostSpec`] classes the
/// host table is built from. The historical constructors are all
/// [`FleetMix::Pi`]; [`FleetMix::Hetero`] mixes server-class and
/// accelerator nodes into the Pi fabric so scenarios can probe resilience
/// when capacity — and therefore placement pressure and blast radius — is
/// unevenly distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FleetMix {
    /// Alternating 8 GB / 4 GB Raspberry Pi boards (the testbed mix).
    #[default]
    Pi,
    /// Heterogeneous: every 8th host a server, every 8th (offset 4) an
    /// accelerator, Pis elsewhere — one server + one accelerator per
    /// 8-host rack, mirroring a small edge site with one beefy node and
    /// one GPU box per rack.
    Hetero,
}

impl FleetMix {
    /// Builds the host inventory for an `n_hosts` federation.
    pub fn specs(self, n_hosts: usize) -> Vec<HostSpec> {
        (0..n_hosts)
            .map(|i| match self {
                FleetMix::Pi => {
                    if i % 2 == 0 {
                        HostSpec::rpi8gb(i)
                    } else {
                        HostSpec::rpi4gb(i)
                    }
                }
                FleetMix::Hetero => match i % 8 {
                    0 => HostSpec::server(i),
                    4 => HostSpec::accelerator(i),
                    _ if i % 2 == 0 => HostSpec::rpi8gb(i),
                    _ => HostSpec::rpi4gb(i),
                },
            })
            .collect()
    }

    /// Short label for tables and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            FleetMix::Pi => "pi",
            FleetMix::Hetero => "hetero",
        }
    }
}

/// Static configuration of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Host inventory.
    pub specs: Vec<HostSpec>,
    /// Initial broker count (= number of LEIs).
    pub n_brokers: usize,
    /// RNG seed for everything inside the engine.
    pub seed: u64,
}

impl SimConfig {
    /// The §IV-C testbed: 16 Pi boards, 4 LEIs.
    pub fn testbed(seed: u64) -> Self {
        Self {
            specs: HostSpec::testbed16(),
            n_brokers: 4,
            seed,
        }
    }

    /// A federation of arbitrary size with the testbed's hardware mix
    /// ([`FleetMix::Pi`]: alternating 8 GB / 4 GB Pi boards) —
    /// `small(16, 4, s)` is hardware-equivalent to [`SimConfig::testbed`]
    /// up to host ordering. Every component
    /// downstream (topology, GON encoders, normalizer) is
    /// host-count-agnostic, so this serves fast tests and the 32 → 4096-host
    /// scenario sweeps alike.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n_brokers ≤ n_hosts`.
    pub fn small(n_hosts: usize, n_brokers: usize, seed: u64) -> Self {
        assert!(
            n_brokers > 0 && n_brokers <= n_hosts,
            "need 0 < n_brokers ({n_brokers}) ≤ n_hosts ({n_hosts})"
        );
        Self {
            specs: FleetMix::Pi.specs(n_hosts),
            n_brokers,
            seed,
        }
    }

    /// A federation with an explicit hardware [`FleetMix`].
    /// `fleet(n, b, FleetMix::Pi, s)` equals `small(n, b, s)` exactly
    /// (same specs), so Pi scenarios keep their historical bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n_brokers ≤ n_hosts`.
    pub fn fleet(n_hosts: usize, n_brokers: usize, mix: FleetMix, seed: u64) -> Self {
        Self {
            specs: mix.specs(n_hosts),
            ..Self::small(n_hosts, n_brokers, seed)
        }
    }
}

/// Everything that happened in one interval, for policies and harnesses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntervalReport {
    /// Interval index (0-based).
    pub interval: usize,
    /// Energy consumed across the federation this interval, watt-hours.
    pub energy_wh: f64,
    /// Tasks that completed this interval: `(id, response_s, violated)`.
    pub completed: Vec<(TaskId, f64, bool)>,
    /// Number of tasks that arrived this interval.
    pub arrivals: usize,
    /// Hosts that were failed (unresponsive) during this interval.
    pub failed_hosts: Vec<HostId>,
    /// Brokers among the failed hosts.
    pub failed_brokers: Vec<HostId>,
    /// Tasks forcibly restarted because their host failed.
    pub restarted_tasks: usize,
    /// Seconds of stall inflicted on LEI members by broker failures.
    pub broker_stall_s: f64,
    /// The scheduling decision taken this interval.
    pub decision: SchedulingDecision,
    /// Wall-clock spent in each pipeline stage of this step (measurement
    /// only — never feeds back into the simulation, and absent from
    /// pre-phase-pipeline artifacts, hence the serde default).
    #[serde(default)]
    pub phases: PhaseTimings,
}

/// The simulation engine. See the crate docs for the driver-loop shape.
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: SimConfig,
    pub(crate) topology: Topology,
    pub(crate) states: Vec<HostState>,
    /// The task store: every unretired task — each Pending/Running task
    /// plus last interval's completions (retirement is deferred one step
    /// so interval-end snapshots still see them) — in ascending-id order.
    /// Retired tasks live on only in the cumulative accounting below.
    pub(crate) tasks: Vec<Task>,
    pub(crate) network: NetworkModel,
    pub(crate) rng: StdRng,
    pub(crate) interval: usize,
    pub(crate) next_task_id: TaskId,
    pub(crate) pending_faults: Vec<FaultLoad>,
    /// Hosts down for the current interval (failure latched last interval).
    pub(crate) recovering: Vec<usize>,
    /// Per-host seconds of unavailability carried into the next interval
    /// from node-shift role changes.
    pub(crate) shift_penalty_s: Vec<f64>,
    /// Last interval's failed brokers (what the resilience policy reacts to).
    pub(crate) last_failed_brokers: Vec<HostId>,
    // Cumulative accounting.
    pub(crate) total_energy_wh: f64,
    pub(crate) completed_count: usize,
    pub(crate) violation_count: usize,
    pub(crate) response_times: Vec<f64>,
    pub(crate) total_restarts: usize,
}

impl Simulator {
    /// Builds a simulator with a balanced initial topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot produce a valid topology.
    pub fn new(config: SimConfig) -> Self {
        let n = config.specs.len();
        let topology = Topology::balanced(n, config.n_brokers)
            .expect("SimConfig must describe a valid federation");
        let network = NetworkModel::new(config.n_brokers, config.seed ^ 0x004E_4554);
        Self::with_topology(config, topology, network)
    }

    /// Builds a simulator with an explicit starting topology.
    pub fn with_topology(config: SimConfig, topology: Topology, network: NetworkModel) -> Self {
        let n = config.specs.len();
        assert_eq!(topology.len(), n, "topology size must match host count");
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            topology,
            states: vec![HostState::default(); n],
            tasks: Vec::new(),
            network,
            rng,
            interval: 0,
            next_task_id: 0,
            pending_faults: vec![FaultLoad::default(); n],
            recovering: vec![0; n],
            shift_penalty_s: vec![0.0; n],
            last_failed_brokers: Vec::new(),
            total_energy_wh: 0.0,
            completed_count: 0,
            violation_count: 0,
            response_times: Vec::new(),
            total_restarts: 0,
        }
    }

    /// Current interval index (number of completed steps).
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Host inventory.
    pub fn specs(&self) -> &[HostSpec] {
        &self.config.specs
    }

    /// Latest per-host states (from the last completed interval).
    pub fn host_states(&self) -> &[HostState] {
        &self.states
    }

    /// Current topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Network / gateway model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The unretired tasks in ascending-id order: every Pending/Running
    /// task plus the completions of the last finished interval (retired
    /// at the start of the next step). Its length tracks the load, not the
    /// horizon; totals over retired tasks come from the cumulative
    /// counters ([`Simulator::completed_count`] and friends).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of unretired tasks (`tasks().len()`).
    pub fn live_task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Brokers that failed during the last completed interval — the input
    /// to the resilience policy's repair step.
    pub fn failed_brokers(&self) -> &[HostId] {
        &self.last_failed_brokers
    }

    /// Cumulative energy, watt-hours.
    pub fn total_energy_wh(&self) -> f64 {
        self.total_energy_wh
    }

    /// Cumulative completed-task count.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Cumulative SLO violations among completed tasks.
    pub fn violation_count(&self) -> usize {
        self.violation_count
    }

    /// SLO violation rate over completed tasks (0 when none completed).
    pub fn violation_rate(&self) -> f64 {
        if self.completed_count == 0 {
            0.0
        } else {
            self.violation_count as f64 / self.completed_count as f64
        }
    }

    /// Response times of all completed tasks, seconds.
    pub fn response_times(&self) -> &[f64] {
        &self.response_times
    }

    /// Mean response time, seconds (0 when nothing completed).
    pub fn mean_response_time(&self) -> f64 {
        metrics::mean(&self.response_times).unwrap_or(0.0)
    }

    /// Total forced task restarts caused by host failures.
    pub fn total_restarts(&self) -> usize {
        self.total_restarts
    }

    /// Queues fault pressure against `host` for the *next* step.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn inject_fault(&mut self, host: HostId, load: FaultLoad) {
        self.pending_faults[host].merge(load);
    }

    /// Installs a repaired topology (Algorithm 2 line 17). Role changes are
    /// charged the node-shift cost of §IV-H: every host whose role changed
    /// is unavailable for [`NODE_SHIFT_COST_S`] at the start of the next
    /// interval, and orphan reassignment costs a smaller sync penalty.
    ///
    /// # Panics
    ///
    /// Panics if the new topology has a different host count or is invalid.
    pub fn set_topology(&mut self, new: Topology) {
        assert_eq!(new.len(), self.topology.len(), "host count must not change");
        new.validate()
            .expect("refusing to install an invalid topology");
        for h in 0..new.len() {
            let old_role = self.topology.role(h);
            let new_role = new.role(h);
            match (old_role, new_role) {
                (NodeRole::Broker, NodeRole::Worker { .. })
                | (NodeRole::Worker { .. }, NodeRole::Broker) => {
                    self.shift_penalty_s[h] += NODE_SHIFT_COST_S;
                }
                (NodeRole::Worker { broker: a }, NodeRole::Worker { broker: b }) if a != b => {
                    // Refreshing the broker IP is cheap (§IV-H).
                    self.shift_penalty_s[h] += 2.0;
                }
                _ => {}
            }
        }
        self.topology = new;
    }

    /// Runs one scheduling interval — the phase pipeline facade.
    ///
    /// Composes the stages of [`crate::phases`] in their fixed order
    /// (retire → admit → determine_failures → restart → schedule_dispatch
    /// → execute → report), timing each stage into
    /// [`IntervalReport::phases`]. Every stage runs serially on the
    /// calling thread; see the `phases` module docs for what each does.
    pub fn step(
        &mut self,
        arrivals: Vec<TaskSpec>,
        scheduler: &mut dyn Scheduler,
    ) -> IntervalReport {
        let t0 = Instant::now();
        phases::retire(self);
        let t1 = Instant::now();
        let n_arrivals = phases::admit(self, arrivals);
        let t2 = Instant::now();
        let failures = phases::determine_failures(self);
        let t3 = Instant::now();
        let restarted = phases::restart_stranded(self, &failures);
        let t4 = Instant::now();
        let decision = phases::schedule_dispatch(self, scheduler, &failures);
        let t5 = Instant::now();
        let exec = phases::execute(self, &failures);
        let t6 = Instant::now();
        let mut report = phases::report(self, n_arrivals, restarted, decision, failures, exec);
        let t7 = Instant::now();
        report.phases = PhaseTimings {
            retire_s: (t1 - t0).as_secs_f64(),
            admit_s: (t2 - t1).as_secs_f64(),
            determine_failures_s: (t3 - t2).as_secs_f64(),
            restart_s: (t4 - t3).as_secs_f64(),
            schedule_dispatch_s: (t5 - t4).as_secs_f64(),
            execute_s: (t6 - t5).as_secs_f64(),
            report_s: (t7 - t6).as_secs_f64(),
        };
        report
    }

    /// One pass over the task store: running-task indices grouped per host
    /// (ascending id order, matching the historical full-ledger scan) plus
    /// the pending backlog count per admitting broker.
    pub(crate) fn live_placement(&self, n: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut running_by_host: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut queued_pending = vec![0usize; n];
        for (idx, task) in self.tasks.iter().enumerate() {
            match task.status {
                TaskStatus::Running => {
                    if let Some(h) = task.host {
                        running_by_host[h].push(idx);
                    }
                }
                TaskStatus::Pending => queued_pending[task.admitted_by] += 1,
                TaskStatus::Completed => {}
            }
        }
        (running_by_host, queued_pending)
    }

    /// LEI index of `host` for the network-latency model: rank of its
    /// broker in the sorted broker list, folded into the modelled LEI count.
    pub(crate) fn lei_index_of(&self, host: HostId) -> usize {
        let broker = self.topology.broker_of(host);
        let rank = self.topology.brokers().binary_search(&broker).unwrap_or(0);
        rank % self.network.n_leis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LeastLoadScheduler;
    use crate::INTERVAL_SECONDS;

    fn quick_spec(work: f64) -> TaskSpec {
        TaskSpec {
            app: "test".into(),
            cpu_work: work,
            ram_mb: 256.0,
            disk_mb: 5.0,
            net_mb: 5.0,
            deadline_s: 400.0,
        }
    }

    fn sim() -> Simulator {
        Simulator::new(SimConfig::small(8, 2, 42))
    }

    #[test]
    fn small_config_scales_to_128_hosts() {
        for (n_hosts, n_brokers) in [(32, 8), (64, 8), (128, 16)] {
            let mut s = Simulator::new(SimConfig::small(n_hosts, n_brokers, 7));
            assert_eq!(s.specs().len(), n_hosts);
            assert_eq!(s.topology().brokers().len(), n_brokers);
            s.topology().validate().unwrap();
            let mut sched = LeastLoadScheduler::new();
            let arrivals: Vec<TaskSpec> = (0..n_hosts / 4).map(|_| quick_spec(50_000.0)).collect();
            let r = s.step(arrivals, &mut sched);
            assert!(r.energy_wh > 0.0);
            assert!(
                !r.completed.is_empty(),
                "{n_hosts}-host federation completed nothing"
            );
        }
    }

    #[test]
    fn small_16_4_matches_testbed_hardware_envelope() {
        let fed = SimConfig::small(16, 4, 0);
        let testbed = SimConfig::testbed(0);
        assert_eq!(fed.specs.len(), testbed.specs.len());
        assert_eq!(fed.n_brokers, testbed.n_brokers);
        let ram = |specs: &[HostSpec]| specs.iter().map(|s| s.ram_mb).sum::<f64>();
        assert_eq!(ram(&fed.specs), ram(&testbed.specs));
    }

    #[test]
    #[should_panic(expected = "n_brokers")]
    fn small_rejects_zero_brokers() {
        SimConfig::small(32, 0, 0);
    }

    #[test]
    fn pi_fleet_equals_small_exactly() {
        let fleet = SimConfig::fleet(32, 8, FleetMix::Pi, 5);
        let fed = SimConfig::small(32, 8, 5);
        assert_eq!(fleet.specs, fed.specs);
        assert_eq!(fleet.n_brokers, fed.n_brokers);
    }

    #[test]
    fn hetero_fleet_mixes_all_three_host_classes_and_runs() {
        let config = SimConfig::fleet(16, 4, FleetMix::Hetero, 3);
        let servers = config
            .specs
            .iter()
            .filter(|s| s.name.starts_with("server"))
            .count();
        let accels = config
            .specs
            .iter()
            .filter(|s| s.name.starts_with("accel"))
            .count();
        let pis = config
            .specs
            .iter()
            .filter(|s| s.name.starts_with("rpi"))
            .count();
        assert_eq!(
            (servers, accels, pis),
            (2, 2, 12),
            "one server + accel per 8-host rack"
        );
        let mut s = Simulator::new(config);
        let mut sched = LeastLoadScheduler::new();
        let arrivals: Vec<TaskSpec> = (0..8).map(|_| quick_spec(100_000.0)).collect();
        let r = s.step(arrivals, &mut sched);
        assert!(r.energy_wh > 0.0);
        // The server idles hotter than every Pi peaks, so a hetero fleet
        // must draw more idle energy than the same-size Pi fleet.
        let mut pi = Simulator::new(SimConfig::fleet(16, 4, FleetMix::Pi, 3));
        let r_pi = pi.step(Vec::new(), &mut sched);
        let mut hetero_idle = Simulator::new(SimConfig::fleet(16, 4, FleetMix::Hetero, 3));
        let r_het = hetero_idle.step(Vec::new(), &mut sched);
        assert!(r_het.energy_wh > r_pi.energy_wh);
    }

    #[test]
    fn empty_interval_consumes_idle_energy() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        let r = s.step(Vec::new(), &mut sched);
        assert_eq!(r.completed.len(), 0);
        // Brokers idle at their management utilisation; task-less workers
        // drop to standby power.
        let expected: f64 = s
            .specs()
            .iter()
            .enumerate()
            .map(|(h, spec)| {
                let is_broker = matches!(s.topology().role(h), crate::topology::NodeRole::Broker);
                let watts = if is_broker {
                    spec.power_at(s.host_states()[h].cpu)
                } else {
                    STANDBY_POWER_FRACTION * spec.power_idle_w
                };
                watts * INTERVAL_SECONDS / 3600.0
            })
            .sum();
        assert!((r.energy_wh - expected).abs() < 1e-9);
        assert!(r.energy_wh > 0.0);
    }

    #[test]
    fn standby_workers_draw_less_than_idle_brokers() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        s.step(Vec::new(), &mut sched);
        let worker = s.topology().workers()[0];
        let broker = s.topology().brokers()[0];
        assert!(
            s.host_states()[worker].energy_wh < s.host_states()[broker].energy_wh,
            "standby worker must undercut a management-loaded broker"
        );
    }

    #[test]
    fn small_task_completes_in_first_interval() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        let r = s.step(vec![quick_spec(4000.0)], &mut sched);
        assert_eq!(r.completed.len(), 1);
        let (_, resp, violated) = r.completed[0];
        assert!(resp > 0.0 && resp < 10.0, "resp={resp}");
        assert!(!violated);
        assert_eq!(s.completed_count(), 1);
        assert_eq!(s.violation_rate(), 0.0);
    }

    #[test]
    fn long_task_spans_intervals() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        // 4000 units/s capacity × 300 s = 1.2M units/interval.
        let r = s.step(vec![quick_spec(1.8e6)], &mut sched);
        assert!(r.completed.is_empty());
        let r2 = s.step(Vec::new(), &mut sched);
        assert_eq!(r2.completed.len(), 1);
        let (_, resp, _) = r2.completed[0];
        assert!(resp > 300.0 && resp < 600.0, "resp={resp}");
    }

    #[test]
    fn processor_sharing_slows_concurrent_tasks() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        // Two tasks on a 2-LEI/8-host system spread out; force same host by
        // saturating: send 8 tasks (more tasks than workers).
        let arrivals: Vec<TaskSpec> = (0..8).map(|_| quick_spec(600_000.0)).collect();
        let r = s.step(arrivals, &mut sched);
        // 600k work at 4000/s solo = 150 s — but some hosts got 2 tasks, so
        // their tasks ran slower than solo.
        assert!(!r.completed.is_empty());
        let max_resp = r
            .completed
            .iter()
            .map(|&(_, t, _)| t)
            .fold(0.0f64, f64::max);
        assert!(max_resp > 150.0, "sharing should slow someone: {max_resp}");
    }

    #[test]
    fn fault_load_saturates_and_fails_host() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        s.inject_fault(
            0,
            FaultLoad {
                cpu: 1.0,
                ..Default::default()
            },
        );
        let r = s.step(Vec::new(), &mut sched);
        assert!(r.failed_hosts.contains(&0));
        assert!(r.failed_brokers.contains(&0));
        assert_eq!(s.failed_brokers(), &[0]);
        // Host recovers next interval.
        let r2 = s.step(Vec::new(), &mut sched);
        assert!(!r2.failed_hosts.contains(&0));
    }

    #[test]
    fn broker_failure_stalls_its_lei() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        // Start a long task in broker 0's LEI.
        let spec = TaskSpec {
            deadline_s: 10_000.0,
            ..quick_spec(2.0e6)
        };
        s.step(vec![spec.clone(), spec], &mut sched);
        let before: Vec<f64> = s.tasks().iter().map(|t| t.remaining_work).collect();
        // Fail broker 0.
        s.inject_fault(
            0,
            FaultLoad {
                cpu: 1.0,
                ..Default::default()
            },
        );
        let r = s.step(Vec::new(), &mut sched);
        assert!(r.failed_brokers.contains(&0));
        assert!(r.broker_stall_s > 0.0);
        // Tasks on broker 0's LEI made no progress.
        for (task, prev) in s.tasks().iter().zip(&before) {
            if let Some(h) = task.host {
                if s.topology().lei(0).contains(&h) && task.status == TaskStatus::Running {
                    assert_eq!(task.remaining_work, *prev, "stalled task progressed");
                }
            }
        }
    }

    #[test]
    fn worker_failure_restarts_tasks() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        s.step(vec![quick_spec(2.0e6)], &mut sched);
        let host = s
            .tasks()
            .iter()
            .find(|t| t.status == TaskStatus::Running)
            .and_then(|t| t.host)
            .expect("task should be running");
        s.inject_fault(
            host,
            FaultLoad {
                ram: 1.0,
                ..Default::default()
            },
        );
        let r = s.step(Vec::new(), &mut sched);
        assert!(r.failed_hosts.contains(&host));
        assert_eq!(r.restarted_tasks, 1);
        assert_eq!(s.total_restarts(), 1);
    }

    #[test]
    fn node_shift_charges_penalty() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        s.step(Vec::new(), &mut sched);
        let mut topo = s.topology().clone();
        let w = topo.workers()[0];
        topo.promote(w).unwrap();
        s.set_topology(topo);
        assert!(s.shift_penalty_s[w] > 0.0);
        // The penalty drains on the next step.
        s.step(Vec::new(), &mut sched);
        assert_eq!(s.shift_penalty_s[w], 0.0);
    }

    #[test]
    fn tasks_are_never_lost() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        let mut admitted = 0;
        let mut last_completed = 0;
        for i in 0..20 {
            let arrivals: Vec<TaskSpec> = (0..(i % 3)).map(|_| quick_spec(500_000.0)).collect();
            admitted += arrivals.len();
            if i % 5 == 0 {
                s.inject_fault(
                    i % 8,
                    FaultLoad {
                        cpu: 1.0,
                        ..Default::default()
                    },
                );
            }
            last_completed = s.step(arrivals, &mut sched).completed.len();
        }
        let (done, unfinished): (Vec<&Task>, Vec<&Task>) = s
            .tasks()
            .iter()
            .partition(|t| t.status == TaskStatus::Completed);
        assert_eq!(admitted, s.completed_count() + unfinished.len());
        assert_eq!(done.len(), last_completed);
    }

    #[test]
    fn energy_increases_with_load() {
        let mut idle = sim();
        let mut busy = sim();
        let mut sched = LeastLoadScheduler::new();
        for _ in 0..5 {
            idle.step(Vec::new(), &mut sched);
            busy.step(vec![quick_spec(1.0e6); 4], &mut sched);
        }
        assert!(busy.total_energy_wh() > idle.total_energy_wh());
    }

    #[test]
    fn deadline_violation_recorded() {
        let mut s = sim();
        let mut sched = LeastLoadScheduler::new();
        let spec = TaskSpec {
            deadline_s: 1.0, // impossible
            ..quick_spec(900_000.0)
        };
        let mut done = false;
        s.step(vec![spec], &mut sched);
        for _ in 0..5 {
            let r = s.step(Vec::new(), &mut sched);
            if !r.completed.is_empty() {
                assert!(r.completed[0].2, "must be violated");
                done = true;
                break;
            }
        }
        assert!(done || s.violation_count() > 0 || s.completed_count() == 0);
        assert!(s.violation_rate() > 0.0);
    }
}
