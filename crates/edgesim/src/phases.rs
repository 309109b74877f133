//! The interval cycle as a typed phase pipeline.
//!
//! [`Simulator::step`] is a facade over seven stages, run in this fixed
//! order every interval (Algorithm 2's per-interval cycle):
//!
//! 1. [`retire`] — drop last interval's completions from the task store;
//!    recovering hosts come back.
//! 2. [`admit`] — gateway mobility + task admission.
//! 3. [`determine_failures`] — per-host utilisation + saturation scan.
//! 4. [`restart_stranded`] — re-queue tasks stranded on failed workers.
//! 5. [`schedule_dispatch`] — place pending tasks, charge dispatch
//!    transfers.
//! 6. [`execute`] — processor-shared execution per host.
//! 7. [`report`] — cumulative accounting + the [`IntervalReport`].
//!
//! Every stage runs serially on the calling thread, visiting tasks in
//! store order and hosts in ascending index order, so each f64
//! accumulation chain has exactly one order and a seeded run replays
//! bit-for-bit.
//!
//! The stage functions are public so they can be tested (and timed)
//! individually, but they are building blocks, not an API: calling them
//! out of the order above leaves the simulation in an unspecified (though
//! memory-safe) state. Drive experiments through [`Simulator::step`],
//! which also fills [`IntervalReport::phases`] with per-stage wall-clock.

use crate::host::{HostId, HostState};
use crate::network::GATEWAY_BROKER_HOP_S;
use crate::scheduler::{Scheduler, SchedulingDecision};
use crate::sim::{
    FaultLoad, IntervalReport, SimConfig, Simulator, BROKER_BASE_CPU, BROKER_MGMT_RAM_MB,
    BROKER_PER_WORKER_CPU, BROKER_SPAN, STANDBY_POWER_FRACTION,
};
use crate::task::{Task, TaskId, TaskSpec, TaskStatus};
use crate::topology::{NodeRole, Topology};
use crate::INTERVAL_SECONDS;
use serde::{Deserialize, Serialize};

/// Wall-clock seconds spent in each stage of one [`Simulator::step`].
///
/// Carried on every [`IntervalReport`] (and accumulated by the experiment
/// engine / serve metrics endpoint) so the per-interval cost profile is
/// measurable at any scale. Timing is measurement, not simulation state:
/// the fields never feed back into the simulation and are excluded from
/// determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Stage 1: retire completions, recovering hosts come back.
    pub retire_s: f64,
    /// Stage 2: gateway mobility + task admission.
    pub admit_s: f64,
    /// Stage 3: per-host utilisation + saturation scan.
    pub determine_failures_s: f64,
    /// Stage 4: restart of tasks stranded on failed workers.
    pub restart_s: f64,
    /// Stage 5: scheduling + broker→worker dispatch.
    pub schedule_dispatch_s: f64,
    /// Stage 6: processor-shared execution per host.
    pub execute_s: f64,
    /// Stage 7: bookkeeping + report assembly.
    pub report_s: f64,
}

impl PhaseTimings {
    /// Total wall-clock across all stages, seconds.
    pub fn total_s(&self) -> f64 {
        self.retire_s
            + self.admit_s
            + self.determine_failures_s
            + self.restart_s
            + self.schedule_dispatch_s
            + self.execute_s
            + self.report_s
    }

    /// Componentwise sum, for accumulating per-interval timings into a
    /// per-run profile.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.retire_s += other.retire_s;
        self.admit_s += other.admit_s;
        self.determine_failures_s += other.determine_failures_s;
        self.restart_s += other.restart_s;
        self.schedule_dispatch_s += other.schedule_dispatch_s;
        self.execute_s += other.execute_s;
        self.report_s += other.report_s;
    }

    /// Fraction of total stage wall-clock spent determining failures
    /// (0 when nothing was timed) — the scale-sweep acceptance metric.
    pub fn determine_failures_frac(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.determine_failures_s / total
        } else {
            0.0
        }
    }

    /// `(name, seconds)` rows in stage order, for tables and metrics
    /// endpoints.
    pub fn rows(&self) -> [(&'static str, f64); 7] {
        [
            ("retire", self.retire_s),
            ("admit", self.admit_s),
            ("determine_failures", self.determine_failures_s),
            ("restart", self.restart_s),
            ("schedule_dispatch", self.schedule_dispatch_s),
            ("execute", self.execute_s),
            ("report", self.report_s),
        ]
    }
}

/// Output of [`determine_failures`]: this interval's fault pressure and
/// the per-host unresponsiveness verdicts, consumed by every later stage.
pub struct FailureSet {
    /// Fault-injection pressure applied to each host this interval
    /// (drained from the pending-fault queue).
    pub fault_loads: Vec<FaultLoad>,
    /// `failed_now[h]` — host `h` is unresponsive for this interval.
    pub failed_now: Vec<bool>,
}

/// Output of [`execute`]: the results the [`report`] stage folds into
/// the simulator's cumulative accounting.
pub struct ExecutionOutcome {
    /// `(id, response_s, violated)` per completion, in ascending host
    /// order then processor-sharing completion order.
    pub completed: Vec<(TaskId, f64, bool)>,
    /// Next interval-end host states, ascending host order.
    pub new_states: Vec<HostState>,
    /// Seconds of stall inflicted on LEI members by broker failures.
    pub broker_stall_s: f64,
}

/// Stage 1: retire last interval's completions from the task store and
/// let hosts recovering from last interval's failure come back.
///
/// Retirement is deferred by one interval so that interval-end observers
/// (e.g. `SystemState::capture` over [`Simulator::tasks`]) still see
/// tasks that completed within the interval just simulated. The
/// order-preserving `retain` keeps the store in ascending-id order, so
/// every later per-task walk visits tasks in the same relative order.
pub fn retire(sim: &mut Simulator) {
    sim.tasks.retain(|t| t.status != TaskStatus::Completed);
    for r in &mut sim.recovering {
        if *r > 0 {
            *r -= 1;
        }
    }
}

/// Stage 2: gateway mobility + task admission. Returns the arrival count.
///
/// One pass in arrival order: draw the arrival's entry LEI (the phase's
/// only RNG consumer), map it to a live entry broker, charge the
/// gateway→broker hop and push the task with the next dense id.
pub fn admit(sim: &mut Simulator, arrivals: Vec<TaskSpec>) -> usize {
    let t = sim.interval;
    sim.network.step_mobility(t);
    let n_arrivals = arrivals.len();

    // Entry-broker table for this interval: brokers still recovering do
    // not accept traffic; with every broker down, arrivals fall back to
    // the first broker (which stalls them) rather than being dropped.
    let brokers = sim.topology.brokers();
    let live_brokers: Vec<HostId> = brokers
        .iter()
        .copied()
        .filter(|&b| sim.recovering[b] == 0)
        .collect();
    let fallback = brokers.first().copied();

    for spec in arrivals {
        let lei = sim.network.sample_entry_lei(&mut sim.rng);
        let broker = if live_brokers.is_empty() {
            fallback
        } else {
            Some(live_brokers[lei % live_brokers.len()])
        };
        let Some(broker) = broker else {
            continue;
        };
        let id = sim.next_task_id;
        sim.next_task_id += 1;
        let mut task = Task::new(id, spec, t, broker);
        // Gateway→broker hop latency charged immediately.
        task.elapsed_s += sim.network.latency_s(lei, lei) + GATEWAY_BROKER_HOP_S;
        sim.tasks.push(task);
    }
    n_arrivals
}

/// Read-only inputs of the per-host saturation check: each host's verdict
/// is a pure function of these.
struct FailureScanCtx<'a> {
    config: &'a SimConfig,
    topology: &'a Topology,
    tasks: &'a [Task],
    recovering: &'a [usize],
    running_by_host: &'a [Vec<usize>],
    queued_pending: &'a [usize],
    fault_loads: &'a [FaultLoad],
}

/// Management `(cpu, ram)` utilisation of host `h`: zero for a worker; a
/// broker pays a base CPU share, a share per managed worker, and a share
/// that grows with the backlog of `queued` pending tasks parked at it —
/// deep queues are the "processing bottleneck" of §I that makes loaded
/// brokers fragile — plus the management stack's RAM.
fn broker_management(
    config: &SimConfig,
    topology: &Topology,
    queued: usize,
    h: HostId,
) -> (f64, f64) {
    if !matches!(topology.role(h), NodeRole::Broker) {
        return (0.0, 0.0);
    }
    let cpu = BROKER_BASE_CPU
        + BROKER_PER_WORKER_CPU * topology.workers_of(h).len() as f64
        + (0.012 * queued as f64).min(0.25);
    (cpu, BROKER_MGMT_RAM_MB / config.specs[h].ram_mb)
}

/// Organic (task + management) utilisation of `h` before fault load, as
/// `(cpu, ram, disk, net)`. `running_by_host[h]` comes from
/// `Simulator::live_placement`, whose ascending-index bucket order is the
/// order the historical per-host full-ledger scan summed in, so the f64
/// chains are bit-identical.
fn organic_utilisation(ctx: &FailureScanCtx<'_>, h: HostId) -> (f64, f64, f64, f64) {
    let spec = &ctx.config.specs[h];
    let (mgmt_cpu, mgmt_ram) =
        broker_management(ctx.config, ctx.topology, ctx.queued_pending[h], h);
    let mut cpu = mgmt_cpu;
    let mut ram = mgmt_ram;
    let mut disk = 0.0;
    let mut net = 0.0;
    let mut task_cpu = 0.0;
    for &i in &ctx.running_by_host[h] {
        let task = &ctx.tasks[i];
        // CPU demand share: the work a task would do this interval
        // at full speed, as a fraction of interval capacity.
        task_cpu += (task.remaining_work / (spec.cpu_capacity * INTERVAL_SECONDS)).min(1.0);
        ram += task.spec.ram_mb / spec.ram_mb;
        disk += task.spec.disk_mb / (spec.disk_bw * INTERVAL_SECONDS);
        net += task.spec.net_mb / (spec.net_bw * INTERVAL_SECONDS);
    }
    // Processor sharing degrades gracefully under pure CPU pressure —
    // task demand alone cannot render a host unresponsive (the kernel
    // still schedules the management plane). It contributes at most
    // 0.65, so byzantine failure needs fault injection or RAM/disk/
    // network exhaustion on top of organic load.
    cpu += task_cpu.min(0.65);
    (cpu, ram, disk, net)
}

/// One host's failure verdict: already recovering, or saturated past the
/// unresponsiveness threshold on any resource axis.
fn saturated(ctx: &FailureScanCtx<'_>, h: usize) -> bool {
    if ctx.recovering[h] > 0 {
        return true;
    }
    let organic = organic_utilisation(ctx, h);
    let fl = &ctx.fault_loads[h];
    organic.0 + fl.cpu >= 0.999
        || organic.1 + fl.ram >= 0.999
        || organic.2 + fl.disk >= 0.999
        || organic.3 + fl.net >= 0.999
}

/// Stage 3: failure determination for this interval.
///
/// Computes provisional utilisation from current placement + queued
/// fault loads; saturated hosts are unresponsive this interval. One pass
/// over the task store groups running tasks by host and counts each
/// broker's pending backlog, then each host's verdict is read off that
/// snapshot, and the 1–5-minute recovery window (§IV-I) is latched for
/// hosts that failed fresh.
pub fn determine_failures(sim: &mut Simulator) -> FailureSet {
    let n = sim.config.specs.len();
    let (running_by_host, queued_pending) = sim.live_placement(n);
    let fault_loads = std::mem::replace(&mut sim.pending_faults, vec![FaultLoad::default(); n]);
    let ctx = FailureScanCtx {
        config: &sim.config,
        topology: &sim.topology,
        tasks: &sim.tasks,
        recovering: &sim.recovering,
        running_by_host: &running_by_host,
        queued_pending: &queued_pending,
        fault_loads: &fault_loads,
    };
    let failed_now: Vec<bool> = (0..n).map(|h| saturated(&ctx, h)).collect();
    // Recovery takes 1–5 minutes — down for the rest of this interval,
    // live again next interval.
    for (h, &fell) in failed_now.iter().enumerate() {
        if fell && sim.recovering[h] == 0 {
            sim.recovering[h] = 1;
        }
    }
    FailureSet {
        fault_loads,
        failed_now,
    }
}

/// Stage 4: restart tasks stranded on failed workers (the paper's
/// worker-failure rule: rerun in the LEI; placement happens via the
/// scheduler in [`schedule_dispatch`]). Returns the restart count.
pub fn restart_stranded(sim: &mut Simulator, failures: &FailureSet) -> usize {
    let mut restarted = 0usize;
    for task in &mut sim.tasks {
        if task.status == TaskStatus::Running {
            if let Some(h) = task.host {
                if failures.failed_now[h] {
                    task.remaining_work = task.spec.cpu_work;
                    task.host = None;
                    task.status = TaskStatus::Pending;
                    task.restarts += 1;
                    restarted += 1;
                }
            }
        }
    }
    sim.total_restarts += restarted;
    restarted
}

/// Stage 5: scheduling of pending tasks + broker→worker dispatch.
///
/// The scheduler sees a failure-aware view of host state; decisions
/// against dying hosts are skipped, and every accepted placement is
/// charged its dispatch transfer latency from the admitting broker's LEI.
/// A decision naming a task id not in the store (retired, or never
/// admitted) is skipped, as is one naming a task that is no longer
/// Pending.
pub fn schedule_dispatch(
    sim: &mut Simulator,
    scheduler: &mut dyn Scheduler,
    failures: &FailureSet,
) -> SchedulingDecision {
    let mut fail_view = sim.states.clone();
    for (view, &fell) in fail_view.iter_mut().zip(&failures.failed_now) {
        view.failed = fell;
    }
    let tasks: Vec<&Task> = sim.tasks.iter().collect();
    let decision = scheduler.schedule(&tasks, &sim.topology, &sim.config.specs, &fail_view);
    for (task_id, host) in decision.iter() {
        if failures.failed_now[host] {
            continue; // stale decision against a dying host: skip
        }
        let Ok(idx) = sim.tasks.binary_search_by_key(&task_id, |t| t.id) else {
            continue;
        };
        if sim.tasks[idx].status != TaskStatus::Pending {
            continue;
        }
        // Broker→worker dispatch transfer.
        let from = sim.topology.admitting_broker(sim.tasks[idx].admitted_by);
        let lei_a = sim.lei_index_of(from);
        let lei_b = sim.lei_index_of(host);
        let transfer = sim.network.transfer_s(
            lei_a,
            lei_b,
            sim.tasks[idx].spec.net_mb,
            sim.config.specs[host].net_bw,
        );
        let task = &mut sim.tasks[idx];
        task.status = TaskStatus::Running;
        task.host = Some(host);
        task.elapsed_s += transfer;
    }
    decision
}

/// Read-only inputs shared by every host's execution window in one
/// interval.
struct HostStepCtx<'a> {
    topology: &'a Topology,
    config: &'a SimConfig,
    per_host_tasks: &'a [Vec<usize>],
    queued_now: &'a [usize],
    fault_loads: &'a [FaultLoad],
    failed_now: &'a [bool],
    stalled_host: &'a [bool],
    shift_penalty_s: &'a [f64],
}

/// One host's execution window: advances the host's resident tasks in
/// place, appends `(id, response_s, violated)` for each completion in
/// processor-sharing completion order, and returns the host's
/// interval-end state.
fn step_host(
    ctx: &HostStepCtx<'_>,
    tasks: &mut [Task],
    h: usize,
    completed: &mut Vec<(TaskId, f64, bool)>,
) -> HostState {
    let spec_h = &ctx.config.specs[h];
    let fl = ctx.fault_loads[h];
    let failed = ctx.failed_now[h];
    let is_broker = matches!(ctx.topology.role(h), NodeRole::Broker);
    let (mgmt_cpu, mgmt_ram) = broker_management(ctx.config, ctx.topology, ctx.queued_now[h], h);

    let task_idxs = &ctx.per_host_tasks[h];

    // RAM pressure from resident tasks.
    let resident_ram: f64 =
        task_idxs.iter().map(|&i| tasks[i].spec.ram_mb).sum::<f64>() / spec_h.ram_mb;
    let ram_util = resident_ram + mgmt_ram + fl.ram;
    let ram = ram_util.min(1.0);
    let swap = (ram_util - 1.0).clamp(0.0, 1.0);

    // Disk / network pressure.
    let disk_demand: f64 = task_idxs
        .iter()
        .map(|&i| tasks[i].spec.disk_mb)
        .sum::<f64>()
        / (spec_h.disk_bw * INTERVAL_SECONDS);
    let net_demand: f64 = task_idxs.iter().map(|&i| tasks[i].spec.net_mb).sum::<f64>()
        / (spec_h.net_bw * INTERVAL_SECONDS);
    let disk = (disk_demand + fl.disk).min(1.0);
    let net = (net_demand + fl.net).min(1.0);
    let io_wait = (0.5 * swap + 0.3 * disk + 0.2 * net).min(1.0);

    // Effective task time this interval after stalls/penalties.
    let shift_pen = ctx.shift_penalty_s[h];
    let mut usable_s: f64 = INTERVAL_SECONDS - shift_pen;
    if failed || ctx.stalled_host[h] {
        usable_s = 0.0;
    }
    usable_s = usable_s.max(0.0);
    let stall_s = INTERVAL_SECONDS - usable_s;

    // Thrashing: swap pressure halves effective capacity (§I:
    // storage-mapped virtual memory over congested backhaul).
    let thrash = 1.0 / (1.0 + 2.0 * swap);
    // Broker-bottleneck contention (§I): a worker whose broker manages
    // more than `BROKER_SPAN` peers runs degraded, waiting on
    // dispatch/synchronisation from the saturated broker.
    let span_eff = if is_broker {
        1.0
    } else {
        let siblings = ctx
            .topology
            .workers_of(ctx.topology.broker_of(h))
            .len()
            .max(1);
        (BROKER_SPAN as f64 / siblings as f64).min(1.0)
    };
    let cap_frac = (1.0 - mgmt_cpu - fl.cpu).max(0.0);
    let capacity_per_s = spec_h.cpu_capacity * cap_frac * thrash * span_eff;

    // Exact processor sharing within the usable window: with k active
    // tasks each runs at capacity/k; process completions in order of
    // remaining work.
    let mut active: Vec<usize> = task_idxs.clone();
    active.sort_by(|&a, &b| {
        tasks[a]
            .remaining_work
            .partial_cmp(&tasks[b].remaining_work)
            .expect("work values are finite")
    });
    let mut time_left = usable_s;
    let mut i = 0;
    while i < active.len() && time_left > 0.0 && capacity_per_s > 0.0 {
        let k = (active.len() - i) as f64;
        let rate = capacity_per_s / k;
        let t_finish = tasks[active[i]].remaining_work / rate;
        if t_finish <= time_left {
            // Head task completes inside the window.
            let elapsed_until_done = usable_s - time_left + t_finish;
            for &j in &active[i..] {
                tasks[j].remaining_work -= rate * t_finish;
            }
            let task = &mut tasks[active[i]];
            task.remaining_work = 0.0;
            task.status = TaskStatus::Completed;
            task.elapsed_s += stall_s + elapsed_until_done;
            completed.push((
                task.id,
                task.elapsed_s,
                task.elapsed_s > task.spec.deadline_s,
            ));
            time_left -= t_finish;
            i += 1;
        } else {
            for &j in &active[i..] {
                tasks[j].remaining_work -= rate * time_left;
            }
            time_left = 0.0;
        }
    }
    // Survivors carry the whole interval in elapsed time.
    for &j in &active[i..] {
        tasks[j].elapsed_s += INTERVAL_SECONDS;
    }

    // CPU utilisation: busy-time accounting. While any task is resident
    // the cores spin at their allocated fraction whether the cycles are
    // productive or lost to thrashing / broker-span contention —
    // inefficient topologies therefore *burn energy*, not just time.
    let busy_s = usable_s - time_left;
    let work_util = if INTERVAL_SECONDS > 0.0 {
        (busy_s / INTERVAL_SECONDS) * cap_frac
    } else {
        0.0
    };
    let mut cpu = (work_util + mgmt_cpu + fl.cpu).min(1.0);
    if failed {
        // An unresponsive node pins whichever resource the fault hit.
        cpu = cpu.max((fl.cpu > 0.0) as u8 as f64);
    }

    // Energy: linear power curve over the interval (reboot = idle-ish).
    // Workers with no resident tasks drop into standby (§V-C: the
    // "remaining hosts in standby mode to conserve energy").
    let standby = !is_broker && task_idxs.is_empty() && !failed && fl.cpu == 0.0;
    let util_for_power = if failed { 0.2 } else { cpu };
    let power_w = if standby {
        STANDBY_POWER_FRACTION * spec_h.power_idle_w
    } else {
        spec_h.power_at(util_for_power)
    };
    let energy_wh = power_w * INTERVAL_SECONDS / 3600.0;

    HostState {
        cpu,
        ram,
        disk,
        net,
        swap,
        io_wait,
        energy_wh,
        active_tasks: task_idxs.len(),
        failed,
    }
}

/// Stage 6: execution with processor sharing per host.
///
/// Scheduling just moved tasks Pending→Running, so the task store is
/// regrouped (the pending backlog per broker changed too); members of a
/// failed broker's LEI are stalled first ("all active tasks within the
/// LEI and all incoming tasks ... are impacted", §I). Hosts then step in
/// ascending index order, each advancing only its own resident tasks (a
/// task is resident on exactly one host).
pub fn execute(sim: &mut Simulator, failures: &FailureSet) -> ExecutionOutcome {
    let n = sim.config.specs.len();

    // Broker-failure stalls.
    let mut stalled_host = vec![false; n];
    for &b in sim.topology.brokers() {
        if failures.failed_now[b] {
            for member in sim.topology.lei(b) {
                stalled_host[member] = true;
            }
        }
    }

    let (per_host_tasks, queued_now) = sim.live_placement(n);
    let shift_pen_all = std::mem::replace(&mut sim.shift_penalty_s, vec![0.0; n]);
    let ctx = HostStepCtx {
        topology: &sim.topology,
        config: &sim.config,
        per_host_tasks: &per_host_tasks,
        queued_now: &queued_now,
        fault_loads: &failures.fault_loads,
        failed_now: &failures.failed_now,
        stalled_host: &stalled_host,
        shift_penalty_s: &shift_pen_all,
    };
    let mut completed: Vec<(TaskId, f64, bool)> = Vec::new();
    let mut new_states = Vec::with_capacity(n);
    let mut broker_stall_s = 0.0;
    for (h, (&stalled, &failed)) in stalled_host.iter().zip(&failures.failed_now).enumerate() {
        // A host stalled by a broker failure without failing itself
        // contributes one interval of broker stall.
        if stalled && !failed {
            broker_stall_s += INTERVAL_SECONDS;
        }
        new_states.push(step_host(&ctx, &mut sim.tasks, h, &mut completed));
    }

    // Pending tasks (unplaced, e.g. dead broker or outage) also wait.
    for task in &mut sim.tasks {
        if task.status == TaskStatus::Pending {
            task.elapsed_s += INTERVAL_SECONDS;
        }
    }

    ExecutionOutcome {
        completed,
        new_states,
        broker_stall_s,
    }
}

/// Stage 7: cumulative bookkeeping and report assembly. Installs the new
/// host states, folds completions into the energy/QoS accounting,
/// records the failed-broker list the resilience policy reads, and
/// advances the interval counter. The facade fills
/// [`IntervalReport::phases`] after timing this stage.
pub fn report(
    sim: &mut Simulator,
    n_arrivals: usize,
    restarted: usize,
    decision: SchedulingDecision,
    failures: FailureSet,
    exec: ExecutionOutcome,
) -> IntervalReport {
    let t = sim.interval;
    let n = sim.config.specs.len();
    let energy: f64 = exec.new_states.iter().map(|s| s.energy_wh).sum();
    sim.total_energy_wh += energy;
    for &(_, resp, violated) in &exec.completed {
        sim.completed_count += 1;
        sim.response_times.push(resp);
        if violated {
            sim.violation_count += 1;
        }
    }
    sim.states = exec.new_states;
    let failed_hosts: Vec<HostId> = (0..n).filter(|&h| failures.failed_now[h]).collect();
    let mut failed_brokers = sim.topology.brokers().to_vec();
    failed_brokers.retain(|&b| failures.failed_now[b]);
    sim.last_failed_brokers = failed_brokers.clone();
    sim.interval += 1;

    IntervalReport {
        interval: t,
        energy_wh: energy,
        completed: exec.completed,
        arrivals: n_arrivals,
        failed_hosts,
        failed_brokers,
        restarted_tasks: restarted,
        broker_stall_s: exec.broker_stall_s,
        decision,
        phases: PhaseTimings::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LeastLoadScheduler;
    use crate::sim::SimConfig;

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

    /// Drives `sim` one interval through the individual stages, exactly
    /// as the facade composes them (minus timing).
    fn step_by_stages(
        sim: &mut Simulator,
        arrivals: Vec<TaskSpec>,
        scheduler: &mut dyn Scheduler,
    ) -> IntervalReport {
        retire(sim);
        let n_arrivals = admit(sim, arrivals);
        let failures = determine_failures(sim);
        let restarted = restart_stranded(sim, &failures);
        let decision = schedule_dispatch(sim, scheduler, &failures);
        let exec = execute(sim, &failures);
        report(sim, n_arrivals, restarted, decision, failures, exec)
    }

    #[test]
    fn stagewise_stepping_matches_facade_bitwise() {
        let mut facade = Simulator::new(SimConfig::small(8, 2, 42));
        let mut staged = Simulator::new(SimConfig::small(8, 2, 42));
        let mut sched_a = LeastLoadScheduler::new();
        let mut sched_b = LeastLoadScheduler::new();
        for t in 0..12 {
            let arrivals: Vec<TaskSpec> = (0..(t % 4)).map(|_| quick_spec(300_000.0)).collect();
            if t % 3 == 0 {
                let load = FaultLoad {
                    cpu: 1.0,
                    ..Default::default()
                };
                facade.inject_fault(t % 8, load);
                staged.inject_fault(t % 8, load);
            }
            let ra = facade.step(arrivals.clone(), &mut sched_a);
            let rb = step_by_stages(&mut staged, arrivals, &mut sched_b);
            assert_eq!(ra.energy_wh.to_bits(), rb.energy_wh.to_bits());
            assert_eq!(ra.completed, rb.completed);
            assert_eq!(ra.failed_hosts, rb.failed_hosts);
            assert_eq!(ra.restarted_tasks, rb.restarted_tasks);
            assert_eq!(ra.broker_stall_s.to_bits(), rb.broker_stall_s.to_bits());
        }
    }

    #[test]
    fn retire_drops_completions_and_recovers_hosts() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 7));
        let mut sched = LeastLoadScheduler::new();
        sim.step(vec![quick_spec(4000.0)], &mut sched);
        assert_eq!(sim.live_task_count(), 1, "completion retires next step");
        sim.recovering[3] = 1;
        retire(&mut sim);
        assert_eq!(sim.live_task_count(), 0);
        assert_eq!(sim.recovering[3], 0);
    }

    /// Places whatever task ids it was built with, ignoring its view.
    struct Scripted(Vec<(TaskId, HostId)>);

    impl Scheduler for Scripted {
        fn schedule(
            &mut self,
            _tasks: &[&Task],
            _topology: &Topology,
            _specs: &[crate::HostSpec],
            _states: &[HostState],
        ) -> SchedulingDecision {
            let mut decision = SchedulingDecision::new();
            for &(id, host) in &self.0 {
                decision.assign(id, host);
            }
            decision
        }
    }

    #[test]
    fn schedule_dispatch_skips_ids_missing_from_the_store() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 7));
        let mut sched = LeastLoadScheduler::new();
        let done = sim.step(vec![quick_spec(4000.0)], &mut sched);
        assert_eq!(done.completed.len(), 1, "task 0 completes in one interval");
        retire(&mut sim);
        admit(&mut sim, vec![quick_spec(4000.0)]);
        let failures = determine_failures(&mut sim);
        restart_stranded(&mut sim, &failures);
        let before = sim.tasks.clone();
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].id, 1, "task 0 retired, task 1 pending");

        let host = sim.topology.workers()[0];
        let (retired, never_admitted) = (0, 7);
        let mut scripted = Scripted(vec![(retired, host), (never_admitted, host)]);
        let decision = schedule_dispatch(&mut sim, &mut scripted, &failures);
        assert_eq!(decision.len(), 2, "the decision itself is reported as made");
        assert_eq!(sim.tasks, before, "misses must leave the store unchanged");
    }

    #[test]
    fn admit_assigns_dense_ids_and_charges_gateway_hop() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 7));
        let n = admit(&mut sim, vec![quick_spec(1000.0), quick_spec(2000.0)]);
        assert_eq!(n, 2);
        assert_eq!(sim.tasks.len(), 2);
        for (i, task) in sim.tasks.iter().enumerate() {
            assert_eq!(task.id, i);
            assert!(
                task.elapsed_s >= GATEWAY_BROKER_HOP_S,
                "gateway hop must be charged at admission"
            );
            assert_eq!(task.status, TaskStatus::Pending);
        }
    }

    #[test]
    fn determine_failures_latches_saturated_hosts() {
        let mut sim = Simulator::new(SimConfig::small(16, 4, 11));
        let mut sched = LeastLoadScheduler::new();
        // Build up organic load first so the scan sums real chains.
        for _ in 0..3 {
            let arrivals: Vec<TaskSpec> = (0..6).map(|_| quick_spec(800_000.0)).collect();
            sim.step(arrivals, &mut sched);
        }
        sim.inject_fault(
            2,
            FaultLoad {
                ram: 1.0,
                ..Default::default()
            },
        );
        retire(&mut sim);
        admit(&mut sim, Vec::new());
        let failures = determine_failures(&mut sim);
        assert!(failures.failed_now[2], "RAM-saturated host must fail");
        for (h, &fell) in failures.failed_now.iter().enumerate() {
            assert_eq!(sim.recovering[h] > 0, fell, "host {h}: recovery latch");
        }
    }

    #[test]
    fn phase_timings_accumulate_and_total() {
        let mut acc = PhaseTimings::default();
        let one = PhaseTimings {
            retire_s: 1.0,
            admit_s: 2.0,
            determine_failures_s: 3.0,
            restart_s: 4.0,
            schedule_dispatch_s: 5.0,
            execute_s: 6.0,
            report_s: 7.0,
        };
        acc.accumulate(&one);
        acc.accumulate(&one);
        assert_eq!(acc.total_s(), 2.0 * 28.0);
        assert!((acc.determine_failures_frac() - 3.0 / 28.0).abs() < 1e-12);
        assert_eq!(one.rows()[2], ("determine_failures", 3.0));
    }

    #[test]
    fn step_reports_phase_timings() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 1));
        let mut sched = LeastLoadScheduler::new();
        let r = sim.step(vec![quick_spec(10_000.0)], &mut sched);
        assert!(r.phases.total_s() > 0.0, "facade must time its stages");
        assert!(r.phases.execute_s > 0.0);
    }
}
