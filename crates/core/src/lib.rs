//! CAROL — Confidence-Aware Resilience Model for Edge Federations.
//!
//! This crate is the paper's primary contribution (Tuli, Casale, Jennings;
//! DSN 2022): a broker-resilience layer that, on every scheduling
//! interval,
//!
//! 1. detects failed brokers,
//! 2. repairs the broker–worker topology by a random [`nodeshift`]
//!    followed by [`tabu`] search, scoring every candidate with a
//!    GON-surrogate QoS prediction `Ω(G; D, S, O)`,
//! 3. tracks the surrogate's **confidence score** with a streaming
//!    peaks-over-threshold detector ([`pot`]), and
//! 4. fine-tunes the surrogate *only* when confidence dips below the
//!    dynamic threshold — the "parsimonious fine-tuning" that produces the
//!    paper's 36% overhead reduction.
//!
//! The [`Carol`] policy implements Algorithm 2 end-to-end; the §V-D
//! ablations ([`CarolVariant`]) swap the surrogate or the fine-tuning
//! trigger. [`runner`] drives any [`ResiliencePolicy`] over the
//! `edgesim` substrate with fault injection, reproducing the paper's
//! experimental loop.
//!
//! # Quickstart
//!
//! ```no_run
//! use carol::{Carol, CarolConfig};
//! use carol::runner::{run_experiment, ExperimentConfig};
//!
//! // Train offline on a DeFog trace, then run the AIoT experiment.
//! let mut policy = Carol::pretrained(CarolConfig::default(), 42);
//! let result = run_experiment(&mut policy, &ExperimentConfig::paper(42));
//! println!("energy = {:.1} Wh, SLO violations = {:.1}%",
//!          result.total_energy_wh, 100.0 * result.slo_violation_rate);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod carol;
pub mod nodeshift;
pub mod policy;
pub mod pot;
pub mod proactive;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod tabu;

pub use crate::carol::{
    Carol, CarolCheckpoint, CarolCheckpointError, CarolConfig, CarolVariant, FineTuneMode,
    RepairTimings, StageTiming,
};
pub use policy::{ObserveOutcome, ResiliencePolicy};
pub use pot::PotDetector;
pub use scenario::{
    run_scenario, run_scenarios, ScenarioResult, ScenarioSpec, SchedulerKind, WorkloadSource,
};
pub use service::{
    serve_federation_listener, serve_trace, CheckpointSpec, ExperimentSpec, FederationSet,
    ServeOptions, ServeReport, ServiceError,
};
