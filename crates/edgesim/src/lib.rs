//! Discrete-interval simulator of a federated edge cluster.
//!
//! The paper evaluates CAROL on a physical testbed: 16 Raspberry Pi 4B
//! nodes (8×4 GB + 8×8 GB) arranged into 4 local edge infrastructures
//! (LEIs), each with one broker and three workers, running Docker
//! containers under 5-minute scheduling intervals (§IV-C). That hardware is
//! not available to this reproduction, so this crate implements the closest
//! simulated equivalent that exercises the same code paths:
//!
//! * heterogeneous [`HostSpec`]s with the published Pi 4B capacity, memory
//!   and power characteristics ([`host`]),
//! * a broker–worker [`Topology`] with full broker mesh and per-LEI worker
//!   assignment ([`topology`]),
//! * a bag-of-tasks lifecycle — arrival, placement, capacity-shared
//!   execution, completion — with energy, response-time and SLO accounting
//!   ([`sim`], [`task`]),
//! * the underlying GOBI-style least-estimated-interference scheduler the
//!   paper layers CAROL on top of ([`scheduler`]),
//! * a WAN/LAN latency model with gateway mobility shifting load across
//!   LEIs over time, which is what makes the workload non-stationary
//!   ([`network`]).
//!
//! Resilience policies (CAROL and the baselines) plug in from outside: the
//! simulator exposes which brokers failed during an interval and accepts a
//! repaired [`Topology`] before the next interval begins, mirroring
//! Algorithm 2's structure.

#![warn(missing_docs)]

pub mod host;
pub mod network;
pub mod phases;
pub mod scheduler;
pub mod sim;
pub mod state;
pub mod task;
pub mod topology;

pub use host::{HostId, HostSpec, HostState};
pub use network::{NetworkModel, GATEWAY_BROKER_HOP_S};
pub use phases::PhaseTimings;
pub use scheduler::{Scheduler, SchedulingDecision};
pub use sim::{FaultLoad, FleetMix, IntervalReport, SimConfig, Simulator};
pub use state::SystemState;
pub use task::{Task, TaskId, TaskSpec, TaskStatus};
pub use topology::{NodeRole, Topology, TopologyError};

/// Duration of one scheduling interval in seconds (five minutes, §IV-D).
pub const INTERVAL_SECONDS: f64 = 300.0;
