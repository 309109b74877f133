//! The interface every resilience model implements.
//!
//! CAROL, its ablations and all seven baselines plug into the experiment
//! runner through [`ResiliencePolicy`], mirroring where the paper's
//! methods sit in the testbed: they see the previous interval's outcome,
//! may repair the topology before the next interval, and may spend time
//! fine-tuning their models afterwards.

use edgesim::state::SystemState;
use edgesim::{IntervalReport, Simulator, Topology};

/// What a policy did during its observation phase (used by the runner to
/// attribute measured wall-clock to fine-tuning overhead, Fig. 5f).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// The policy updated its internal model this interval.
    pub fine_tuned: bool,
}

/// A broker-resilience policy (Algorithm 2's replaceable core).
pub trait ResiliencePolicy {
    /// Human-readable name, used in experiment tables.
    fn name(&self) -> &str;

    /// Called at the start of every interval. `snapshot` is the state
    /// captured at the end of the previous interval. Returns the repaired
    /// topology, or `None` to keep the current one. Implementations should
    /// return `Some` only when they actually want a change — installing a
    /// topology charges node-shift costs in the simulator.
    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology>;

    /// Called after every interval with the fresh snapshot and report.
    /// Model fine-tuning, threshold updates and dataset collection happen
    /// here.
    fn observe(
        &mut self,
        sim: &Simulator,
        snapshot: &SystemState,
        report: &IntervalReport,
    ) -> ObserveOutcome;

    /// Nominal per-broker memory footprint of the policy's models, in GB
    /// (the quantity behind Fig. 5e's memory-consumption comparison).
    fn memory_gb(&self) -> f64;

    /// Cumulative *testbed-equivalent* seconds this policy's algorithm has
    /// spent inside repair decisions.
    ///
    /// The paper measures decision time on Raspberry-Pi 4B brokers running
    /// PyTorch; this reproduction executes the same algorithms in native
    /// Rust on a fast host, so raw wall-clock cannot reproduce the
    /// testbed's ordering. Instead each policy counts its real algorithmic
    /// operations (surrogate queries, GA generations, matchmaking passes)
    /// and charges them the per-operation costs of the testbed. The
    /// experiment runner adds the infrastructure constant shared by all
    /// policies.
    fn modeled_decision_s(&self) -> f64;

    /// Cumulative testbed-equivalent seconds spent fine-tuning / updating
    /// models (the Fig. 5f overhead), on the same basis as
    /// [`ResiliencePolicy::modeled_decision_s`].
    fn modeled_overhead_s(&self) -> f64;
}
