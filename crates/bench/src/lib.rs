//! Experiment harness for the CAROL reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`):
//!
//! | Binary | Artefact |
//! |---|---|
//! | `table1` | Table I — related-work feature matrix |
//! | `fig2` | Fig. 2 — confidence scores + POT threshold over 1000 intervals |
//! | `fig4` | Fig. 4 — GON training curves (loss, MSE, confidence) |
//! | `fig5` | Fig. 5(a–f) — CAROL vs 7 baselines + 4 ablations on all six metrics |
//! | `fig6` | Fig. 6(a–c) — sensitivity to learning rate, model memory, tabu list |
//! | `scale` | Beyond the paper: host-count scaling sweep (16 → 4096 hosts, synthetic + replayed traces) |
//! | `fuzz` | Beyond the paper: scenario fuzzer — QoS-cliff search over the scenario axes with shrinking |
//! | `serve` | Beyond the paper: streaming service daemon — carol-trace replay through the federation controller, decisions/sec + p50/p99 |
//!
//! The library part holds shared experiment plumbing (multi-seed fan-out,
//! table rendering) plus the fig5/fig6/scale implementations so they are
//! unit testable.

#![warn(missing_docs)]

pub mod cli;
pub mod fig5;
pub mod fig6;
pub mod fuzz;
pub mod phases;
pub mod render;
pub mod scale;
pub mod serve;

pub use cli::scenario_from_args;
pub use render::{render_comparison, Row};
