//! Bag-of-tasks workload model (§III-A): independent tasks entering each
//! LEI at interval starts, each with a soft SLO deadline.

use crate::host::HostId;
use serde::{Deserialize, Serialize};

/// Identifier of a task, unique within one simulation run.
pub type TaskId = usize;

/// Immutable requirements of one task, produced by a workload generator
/// (see the `workloads` crate for the DeFog / AIoTBench profiles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Application name, e.g. `"yolo"` or `"resnet18"`.
    pub app: String,
    /// Total CPU work in MIPS-seconds-equivalent units.
    pub cpu_work: f64,
    /// Resident memory while running, in MB.
    pub ram_mb: f64,
    /// Disk traffic over the task's lifetime, in MB.
    pub disk_mb: f64,
    /// Network traffic (input + output), in MB.
    pub net_mb: f64,
    /// Soft SLO deadline on response time, in seconds.
    pub deadline_s: f64,
}

impl TaskSpec {
    /// Ideal (contention-free) execution time on a host with
    /// `cpu_capacity` units/second.
    pub fn ideal_runtime_s(&self, cpu_capacity: f64) -> f64 {
        assert!(cpu_capacity > 0.0, "capacity must be positive");
        self.cpu_work / cpu_capacity
    }
}

/// Lifecycle of a task inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskStatus {
    /// Waiting at a broker for placement.
    Pending,
    /// Executing on a worker.
    Running,
    /// Finished; response time is final.
    Completed,
}

/// A task instance tracked by the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// Static requirements.
    pub spec: TaskSpec,
    /// Interval index at which the task arrived.
    pub arrival_interval: usize,
    /// Seconds of response time already accumulated (queueing + network +
    /// execution + stalls).
    pub elapsed_s: f64,
    /// CPU work still outstanding.
    pub remaining_work: f64,
    /// Current placement, if any.
    pub host: Option<HostId>,
    /// LEI broker that admitted the task.
    pub admitted_by: HostId,
    /// Lifecycle state.
    pub status: TaskStatus,
    /// Times this task had to restart because its host failed.
    pub restarts: usize,
}

impl Task {
    /// Creates a freshly arrived, unplaced task.
    pub fn new(id: TaskId, spec: TaskSpec, arrival_interval: usize, admitted_by: HostId) -> Self {
        let remaining_work = spec.cpu_work;
        Self {
            id,
            spec,
            arrival_interval,
            elapsed_s: 0.0,
            remaining_work,
            host: None,
            admitted_by,
            status: TaskStatus::Pending,
            restarts: 0,
        }
    }

    /// True when the task finished after its deadline.
    pub fn violated_slo(&self) -> bool {
        self.status == TaskStatus::Completed && self.elapsed_s > self.spec.deadline_s
    }

    /// Fraction of total work completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.spec.cpu_work <= 0.0 {
            return 1.0;
        }
        (1.0 - self.remaining_work / self.spec.cpu_work).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            app: "yolo".into(),
            cpu_work: 8000.0,
            ram_mb: 800.0,
            disk_mb: 50.0,
            net_mb: 30.0,
            deadline_s: 60.0,
        }
    }

    #[test]
    fn ideal_runtime_scales_with_capacity() {
        let s = spec();
        assert_eq!(s.ideal_runtime_s(4000.0), 2.0);
        assert_eq!(s.ideal_runtime_s(8000.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ideal_runtime_rejects_zero_capacity() {
        spec().ideal_runtime_s(0.0);
    }

    #[test]
    fn new_task_is_pending_with_full_work() {
        let t = Task::new(1, spec(), 3, 0);
        assert_eq!(t.status, TaskStatus::Pending);
        assert_eq!(t.remaining_work, 8000.0);
        assert_eq!(t.progress(), 0.0);
        assert!(!t.violated_slo());
    }

    #[test]
    fn progress_and_violation() {
        let mut t = Task::new(1, spec(), 0, 0);
        t.remaining_work = 2000.0;
        assert!((t.progress() - 0.75).abs() < 1e-12);
        t.remaining_work = 0.0;
        t.status = TaskStatus::Completed;
        t.elapsed_s = 90.0;
        assert!(t.violated_slo());
        t.elapsed_s = 30.0;
        assert!(!t.violated_slo());
    }

    #[test]
    fn zero_work_task_is_complete_immediately() {
        let mut s = spec();
        s.cpu_work = 0.0;
        let t = Task::new(1, s, 0, 0);
        assert_eq!(t.progress(), 1.0);
    }
}
