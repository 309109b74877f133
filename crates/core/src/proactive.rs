//! Proactive CAROL — the paper's stated future work (§VI).
//!
//! > "For stationary settings, we propose to extend the current reactive
//! > model to a proactive scheme that is able to prevent node failures.
//! > However, proactive optimization may entail higher computation for
//! > improved predictive performance."
//!
//! [`ProactiveCarol`] wraps the reactive [`Carol`] policy and additionally
//! runs a topology optimisation every `period` intervals *even without a
//! failure*, whenever the surrogate predicts a QoS improvement larger
//! than the node-shift transition cost. This prevents the slow decay the
//! reactive model suffers under workload drift (hot LEIs keep their
//! stale worker pools until a broker happens to fail there) — at the cost
//! of extra surrogate queries, exactly the trade-off §VI anticipates.

use crate::carol::Carol;
use crate::policy::{ObserveOutcome, ResiliencePolicy};
use crate::tabu::{self, TabuConfig};
use edgesim::state::SystemState;
use edgesim::{IntervalReport, Simulator, Topology};

/// Reactive CAROL plus periodic preventive topology optimisation.
pub struct ProactiveCarol {
    inner: Carol,
    /// Run a preventive optimisation every this many intervals.
    period: usize,
    /// Minimum predicted objective improvement (absolute) required to
    /// actually install a preventive change.
    min_gain: f64,
    interval: usize,
    /// Preventive optimisations that actually changed the topology.
    pub preventive_changes: usize,
}

impl std::fmt::Debug for ProactiveCarol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProactiveCarol(period={}, preventive_changes={})",
            self.period, self.preventive_changes
        )
    }
}

impl ProactiveCarol {
    /// Wraps a (typically pretrained) CAROL.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(inner: Carol, period: usize, min_gain: f64) -> Self {
        assert!(period > 0, "period must be positive");
        Self {
            inner,
            period,
            min_gain,
            interval: 0,
            preventive_changes: 0,
        }
    }

    /// The wrapped reactive policy.
    pub fn inner(&self) -> &Carol {
        &self.inner
    }

    /// Preventive pass: tabu-optimise from the *current* topology and
    /// adopt the best candidate only if it clears the improvement bar.
    fn preventive(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let banned: Vec<usize> = sim
            .host_states()
            .iter()
            .enumerate()
            .filter_map(|(h, st)| st.failed.then_some(h))
            .collect();
        let current = sim.topology().clone();
        let tabu_cfg = TabuConfig {
            // A shorter walk than the failure path: prevention is a
            // refinement, not a rescue.
            max_iters: 2,
            ..self.inner.config().tabu.clone()
        };
        // One objective view scores `current` (the search's start) and
        // every neighbourhood, so the snapshot is prepared once.
        let result = tabu::search(
            current.clone(),
            &banned,
            &tabu_cfg,
            self.inner.batch_objective(snapshot),
        );
        if result.best != current && result.best_score < result.start_score - self.min_gain {
            self.preventive_changes += 1;
            Some(result.best)
        } else {
            None
        }
    }
}

impl ResiliencePolicy for ProactiveCarol {
    fn name(&self) -> &str {
        "CAROL-Proactive"
    }

    fn repair(&mut self, sim: &Simulator, snapshot: &SystemState) -> Option<Topology> {
        let t = self.interval;
        self.interval += 1;
        // Failures take priority and use the full reactive path.
        if !sim.failed_brokers().is_empty() {
            return self.inner.repair(sim, snapshot);
        }
        if t > 0 && t.is_multiple_of(self.period) {
            return self.preventive(sim, snapshot);
        }
        None
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        snapshot: &SystemState,
        report: &IntervalReport,
    ) -> ObserveOutcome {
        self.inner.observe(sim, snapshot, report)
    }

    fn memory_gb(&self) -> f64 {
        self.inner.memory_gb()
    }

    fn modeled_decision_s(&self) -> f64 {
        self.inner.modeled_decision_s()
    }

    fn modeled_overhead_s(&self) -> f64 {
        self.inner.modeled_overhead_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carol::CarolConfig;
    use crate::runner::{run_experiment, ExperimentConfig};
    use edgesim::state::Normalizer;
    use edgesim::SchedulingDecision;

    #[test]
    fn proactive_wraps_and_runs() {
        let inner = Carol::pretrained(CarolConfig::fast_test(), 31);
        let mut policy = ProactiveCarol::new(inner, 4, 0.0);
        let config = ExperimentConfig {
            intervals: 12,
            ..ExperimentConfig::small(31)
        };
        let result = run_experiment(&mut policy, &config);
        assert_eq!(result.name, "CAROL-Proactive");
        assert!(result.completed > 0);
    }

    #[test]
    fn high_gain_bar_suppresses_preventive_changes() {
        let inner = Carol::pretrained(CarolConfig::fast_test(), 32);
        let mut policy = ProactiveCarol::new(inner, 2, f64::INFINITY);
        let config = ExperimentConfig {
            intervals: 10,
            fault_rate: 0.0, // no failures ⇒ only preventive passes run
            ..ExperimentConfig::small(32)
        };
        run_experiment(&mut policy, &config);
        assert_eq!(
            policy.preventive_changes, 0,
            "an infinite bar must block every change"
        );
    }

    /// A preventive pass issues exactly the search's surrogate queries:
    /// the start topology's score comes from the search, not from a
    /// query of its own.
    #[test]
    fn preventive_pass_queries_only_the_search() {
        let sim = Simulator::new(ExperimentConfig::small(34).sim);
        let snapshot = SystemState::capture(
            sim.topology(),
            sim.specs(),
            sim.host_states(),
            sim.tasks(),
            &SchedulingDecision::new(),
            &Normalizer::default(),
        );
        let mut policy =
            ProactiveCarol::new(Carol::pretrained(CarolConfig::fast_test(), 34), 1, 0.0);
        // The search `preventive` runs: same start, no banned host, its
        // two-iteration walk.
        let tabu_cfg = TabuConfig {
            max_iters: 2,
            ..policy.inner.config().tabu.clone()
        };
        let inner = &mut policy.inner;
        let search = tabu::search(
            sim.topology().clone(),
            &[],
            &tabu_cfg,
            inner.batch_objective(&snapshot),
        );
        let before = policy.inner.surrogate_queries;
        policy.preventive(&sim, &snapshot);
        assert_eq!(policy.inner.surrogate_queries - before, search.evaluations);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let inner = Carol::pretrained(CarolConfig::fast_test(), 33);
        ProactiveCarol::new(inner, 0, 0.0);
    }
}
