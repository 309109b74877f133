//! Generative Optimization Network (GON) surrogate — the neural heart of
//! CAROL (§III-B, §IV-A).
//!
//! A GON \[25\] is a GAN without the generator: a single discriminator
//! `D(M, S, G; θ)` scores how likely a `(metrics, schedule, graph)` tuple
//! is under the training distribution, and *samples are generated by
//! gradient ascent in the input space*:
//!
//! ```text
//! M ← M + γ · ∇_M log D(M, S, G; θ)          (eq. 1)
//! ```
//!
//! The converged score `D(M*, S, G)` doubles as a **confidence score**:
//! high for states resembling training data, low for unseen regimes —
//! which is what CAROL's POT trigger watches to decide when fine-tuning is
//! worth its cost.
//!
//! The network architecture follows Fig. 3: a feed-forward encoder with
//! ReLU over the stacked `[M, S]` rows (eq. 3), a graph attention network
//! over the topology (eq. 4), and a sigmoid feed-forward head over the
//! concatenated embeddings (eq. 5). All encoders are shared across hosts
//! and pooled, so one set of weights serves any federation size.
//!
//! This crate also provides the two ablation comparators of §V-D:
//! [`surrogates::GanSurrogate`] (a traditional generator+discriminator
//! pair — faster inference, ~6× the memory) and
//! [`surrogates::FeedForwardSurrogate`] (direct QoS regression — no
//! confidence signal, so it must be fine-tuned every interval).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod model;
pub mod surrogates;
pub mod training;

pub use checkpoint::{CheckpointError, GonCheckpoint};
pub use model::{batch_len, CandidateRows, Generated, GonConfig, GonModel, ParentRecord, GEN_TOL};
pub use training::{train_offline, EpochStats, TrainConfig, TRAIN_FRACTION, WEIGHT_DECAY};
