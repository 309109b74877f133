//! Serde checkpoint/restore for GON weights.
//!
//! A [`GonCheckpoint`] freezes everything a [`GonModel`] owns that is not
//! derivable from its config: the full parameter set, including the Adam
//! moment buffers `m`/`v` carried inside each [`Param`]. Restoring builds
//! a fresh model from the checkpointed config and overwrites its
//! parameters slot by slot, so `checkpoint → restore → decide` is
//! bit-identical to never having checkpointed at all (the vendored serde
//! round-trips every `f64` exactly; `tests/serde_roundtrip.rs` gates this
//! with `to_bits` comparisons).
//!
//! The service daemon pairs this with `carol::CarolCheckpoint`, which
//! snapshots the controller state wrapped *around* the model.

use crate::model::{GonConfig, GonModel};
use nn::layer::Param;
use serde::{Deserialize, Serialize};

/// A frozen GON: architecture config plus every parameter tensor (values,
/// gradients, and Adam moments) in `params_mut()` order — ms-encoder,
/// GAT, head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GonCheckpoint {
    /// Architecture the parameters belong to; restore rebuilds from this.
    pub config: GonConfig,
    /// All parameter tensors, in [`GonModel::params_mut`] order.
    pub params: Vec<Param>,
}

/// Why a checkpoint could not be restored or (de)serialized.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The checkpointed parameter list does not match the architecture
    /// its config describes.
    ParamCountMismatch {
        /// Parameter tensors the rebuilt architecture expects.
        expected: usize,
        /// Parameter tensors the checkpoint carries.
        found: usize,
    },
    /// A parameter tensor's shape disagrees with the rebuilt
    /// architecture at `index` (in `params_mut()` order).
    ShapeMismatch {
        /// Position in `params_mut()` order.
        index: usize,
        /// Shape the rebuilt architecture expects.
        expected: (usize, usize),
        /// Shape the checkpoint carries.
        found: (usize, usize),
    },
    /// JSON (de)serialization failed.
    Json(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParamCountMismatch { expected, found } => write!(
                f,
                "checkpoint has {found} parameter tensors but the config implies {expected}"
            ),
            Self::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} has shape {found:?} but the config implies {expected:?}"
            ),
            Self::Json(msg) => write!(f, "checkpoint JSON error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl GonCheckpoint {
    /// Snapshots the model (config + all parameter tensors). Takes `&mut`
    /// only because parameter access goes through `params_mut`; the model
    /// is left untouched.
    pub fn capture(model: &mut GonModel) -> Self {
        let config = model.config().clone();
        let params = model.params_mut().into_iter().map(|p| p.clone()).collect();
        Self { config, params }
    }

    /// Rebuilds the model: fresh architecture from `config`, then every
    /// parameter tensor overwritten from the checkpoint. Fails if the
    /// checkpoint disagrees with its own config about parameter count or
    /// shapes (a corrupted or hand-edited file).
    pub fn restore(&self) -> Result<GonModel, CheckpointError> {
        let mut model = GonModel::new(self.config.clone());
        let slots = model.params_mut();
        if slots.len() != self.params.len() {
            return Err(CheckpointError::ParamCountMismatch {
                expected: slots.len(),
                found: self.params.len(),
            });
        }
        for (index, (slot, saved)) in slots.into_iter().zip(&self.params).enumerate() {
            if slot.value.shape() != saved.value.shape() {
                return Err(CheckpointError::ShapeMismatch {
                    index,
                    expected: slot.value.shape(),
                    found: saved.value.shape(),
                });
            }
            *slot = saved.clone();
        }
        Ok(model)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("GonCheckpoint serialization cannot fail")
    }

    /// Deserializes from JSON produced by [`GonCheckpoint::to_json`].
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        serde_json::from_str(text).map_err(|e| CheckpointError::Json(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> GonModel {
        GonModel::new(GonConfig {
            hidden: 10,
            head_layers: 2,
            gat_dim: 6,
            gat_att: 4,
            gen_lr: 5e-3,
            gen_steps: 5,
            seed: 3,
        })
    }

    fn param_bits(model: &mut GonModel) -> Vec<u64> {
        model
            .params_mut()
            .iter()
            .flat_map(|p| {
                p.value
                    .data()
                    .iter()
                    .chain(p.grad.data())
                    .chain(p.m.data())
                    .chain(p.v.data())
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn capture_restore_is_bit_exact() {
        let mut model = tiny_model();
        // Dirty the moment buffers so the round trip covers more than
        // freshly initialised values.
        for p in model.params_mut() {
            for x in p.m.data_mut() {
                *x = 0.125;
            }
        }
        let before = param_bits(&mut model);
        let ckpt = GonCheckpoint::capture(&mut model);
        let mut restored = ckpt.restore().expect("restore");
        assert_eq!(param_bits(&mut restored), before);
    }

    #[test]
    fn restore_rejects_truncated_params() {
        let mut model = tiny_model();
        let mut ckpt = GonCheckpoint::capture(&mut model);
        let expected = ckpt.params.len();
        ckpt.params.pop();
        assert_eq!(
            ckpt.restore().unwrap_err(),
            CheckpointError::ParamCountMismatch {
                expected,
                found: expected - 1,
            }
        );
    }

    #[test]
    fn restore_rejects_reshaped_params() {
        let mut model = tiny_model();
        let mut ckpt = GonCheckpoint::capture(&mut model);
        let expected = ckpt.params[0].value.shape();
        ckpt.params[0] = Param::new(nn::Matrix::zeros(1, 1));
        match ckpt.restore().unwrap_err() {
            CheckpointError::ShapeMismatch {
                index,
                expected: e,
                found,
            } => {
                assert_eq!(index, 0);
                assert_eq!(e, expected);
                assert_eq!(found, (1, 1));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn json_round_trip() {
        let mut model = tiny_model();
        let ckpt = GonCheckpoint::capture(&mut model);
        let back = GonCheckpoint::from_json(&ckpt.to_json()).expect("parse");
        assert_eq!(back, ckpt);
        assert!(matches!(
            GonCheckpoint::from_json("not json"),
            Err(CheckpointError::Json(_))
        ));
    }
}
