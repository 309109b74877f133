//! Offline GON training (Algorithm 1) and online fine-tuning.
//!
//! Training is adversarial with a single network: converged generated
//! samples `Z*` act as fakes, dataset tuples act as reals, and the
//! discriminator ascends `log D(M,S,G) + log(1 − D(Z*,S,G))` (eq. 2).
//! The paper trains with Adam (lr 1e-4, weight decay 1e-5), minibatch 32,
//! an 80/20 train/test split, and early stopping on the held-out metric —
//! convergence lands around 30 epochs (Fig. 4).
//!
//! Every minibatch runs through one engine,
//! [`GonModel::adversarial_step_batch`]: it converges every fake sample
//! through the masked batched eq.-1 ascent (row-budget chunks fanned out
//! over [`par`] workers that each hold one model replica), then runs
//! **one** stacked discriminator forward and **one** in-order
//! per-segment gradient reduction for the whole minibatch, through the
//! ascent's stateless passes in a model workspace of its own. Because
//! each fake is its real twin with only the metrics replaced, the GAT
//! embedding runs once per component and is shared across the real/fake
//! halves — half the GAT cost of every training step, bit-neutral by
//! construction.
//!
//! [`adversarial_step`] is the one-state-at-a-time reference the engine
//! is bit-identical to (losses, gradients, RNG consumption), and results
//! ([`EpochStats`], parameters) do not depend on
//! [`TrainConfig::train_threads`]. `tests/determinism.rs` and
//! `tests/properties.rs` gate both, the former at 64-host federations.

use crate::model::GonModel;
use edgesim::state::SystemState;
use edgesim::state::METRIC_DIM;
use nn::Adam;
use par::EngineConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Train fraction of the 80/20 chronological train/test split (§IV-E).
pub const TRAIN_FRACTION: f64 = 0.8;

/// Adam weight decay of GON offline training and fine-tuning (paper:
/// 1e-5, §IV-E).
pub const WEIGHT_DECAY: f64 = 1e-5;

/// Hyperparameters of offline training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs (paper: convergence ≤ 30).
    pub epochs: usize,
    /// Minibatch size (paper: 32, §IV-E).
    pub minibatch: usize,
    /// Early-stopping patience in epochs without improvement of the
    /// held-out (test-split) prediction MSE — the §IV-E criterion.
    /// Training loss keeps falling on an overfitting run; the test metric
    /// is what stalls, so that is what the patience counter watches.
    pub patience: usize,
    /// Adam learning rate (paper: 1e-4).
    pub lr: f64,
    /// Shuffling / noise seed.
    pub seed: u64,
    /// Worker threads for the batched fake-sample ascent. `None` uses
    /// [`par::thread_count`] (the `CAROL_THREADS` override); tests pin
    /// explicit counts here instead of mutating the environment.
    pub train_threads: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            minibatch: 32,
            patience: 5,
            lr: 1e-4,
            seed: 11,
            train_threads: None,
        }
    }
}

/// Per-epoch training diagnostics — the series plotted in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean adversarial BCE loss over the training set.
    pub loss: f64,
    /// MSE between generated `M*` and the true metrics, on the test split.
    pub mse: f64,
    /// Mean confidence `D(M,S,G)` on real test tuples.
    pub confidence: f64,
}

/// One adversarial update on a single state — the serial reference the
/// batched engine is bit-identical to. Returns the sample's BCE loss
/// contribution and accumulates gradients into the model.
///
/// The fake sample converges first, through the **configured** eq.-1
/// ascent ([`GonModel::generate`]): the same `gen_steps`, `gen_lr` and
/// γ-scaled [`GEN_TOL`](crate::model::GEN_TOL) stopping rule applied at
/// inference time, with no hard-coded iteration count or `gen_lr` floor.
/// The ascent leaves previously accumulated parameter gradients
/// untouched, which is what lets this step be mapped over a minibatch.
pub fn adversarial_step(model: &mut GonModel, state: &SystemState, rng: &mut StdRng) -> f64 {
    let n = state.n_hosts();
    const EPS: f64 = 1e-9;

    // Fake sample: noise-initialised metrics converged through eq. 1
    // (Algorithm 1 lines 3–4), before any gradient of this sample
    // accumulates.
    let mut fake = state.clone();
    let noise: Vec<f64> = (0..n * METRIC_DIM)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    fake.set_metrics_flat(&noise);
    let generated = model.generate(&fake);
    fake.set_metrics_flat(&generated.metrics_flat);

    // Real sample: ascend log D(M,S,G) ⇒ descend −log D.
    let z_real = model.score(state).clamp(EPS, 1.0 - EPS);
    model.backward(n, -1.0 / z_real);

    // Fake sample: descend −log(1 − D(fake)): dL/dD = 1/(1 − D).
    let z_fake = model.score(&fake).clamp(EPS, 1.0 - EPS);
    model.backward(n, 1.0 / (1.0 - z_fake));

    let loss_real = -z_real.ln();
    let loss_fake = -(1.0 - z_fake).ln();
    loss_real + loss_fake
}

/// Runs one minibatch through the batched adversarial engine on
/// `config.train_threads` workers, returning per-sample losses.
fn minibatch_losses(
    model: &mut GonModel,
    states: &[&SystemState],
    rng: &mut StdRng,
    config: &TrainConfig,
) -> Vec<f64> {
    let threads = EngineConfig {
        threads: config.train_threads,
    }
    .worker_count();
    model.adversarial_step_batch(states, rng, threads)
}

/// Evaluates MSE (generated vs. true metrics, warm-started from the true
/// metrics of the *previous* test state, as §III-B prescribes) and mean
/// confidence over a slice of states.
///
/// Evaluation is **side-effect-free on optimizer state**: the batched
/// ascent ([`GonModel::generate_batch`]) leaves parameter gradients
/// untouched and scoring is forward-only, so gradients accumulated before
/// the call survive it bit-for-bit.
pub fn evaluate(model: &mut GonModel, states: &[SystemState]) -> (f64, f64) {
    let (mse, confidence, _windows) = evaluate_detailed(model, states);
    (mse, confidence)
}

/// [`evaluate`] plus the count of valid warm-start windows the MSE was
/// averaged over. A degenerate test split (a single state, or host counts
/// changing every interval) yields zero windows and an `mse` of `0.0`
/// that means "unavailable", not "perfect" — `train_offline` uses the
/// count to fall back to the training loss as its early-stopping metric
/// in that case instead of treating the sentinel as an unbeatable best.
fn evaluate_detailed(model: &mut GonModel, states: &[SystemState]) -> (f64, f64, usize) {
    if states.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut probes = Vec::new();
    let mut truths = Vec::new();
    for w in states.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if prev.n_hosts() != cur.n_hosts() {
            continue;
        }
        let mut probe = cur.clone();
        probe.set_metrics_flat(&prev.metrics_flat());
        probes.push(probe);
        truths.push(cur.metrics_flat());
    }
    let generated = model.generate_batch(&probes);
    let mut mse_total = 0.0;
    for (gen, truth) in generated.iter().zip(&truths) {
        let mse: f64 = gen
            .metrics_flat
            .iter()
            .zip(truth)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            / truth.len() as f64;
        mse_total += mse;
    }
    let conf_total: f64 = model.score_batch(states).iter().sum();
    let mse = if probes.is_empty() {
        0.0
    } else {
        mse_total / probes.len() as f64
    };
    (mse, conf_total / states.len() as f64, probes.len())
}

/// Trains the GON offline per Algorithm 1 and returns per-epoch stats
/// (the Fig. 4 curves). The chronological prefix of the trace becomes the
/// training split so evaluation respects temporal ordering; early
/// stopping watches the **held-out** prediction MSE (§IV-E), not the
/// training loss.
pub fn train_offline(
    model: &mut GonModel,
    dataset: &[SystemState],
    config: &TrainConfig,
) -> Vec<EpochStats> {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let split = ((dataset.len() as f64) * TRAIN_FRACTION).round() as usize;
    let split = split.clamp(1, dataset.len());
    let (train, test) = dataset.split_at(split);
    let test = if test.is_empty() { train } else { test };

    let mut adam = Adam::new(config.lr, WEIGHT_DECAY);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = Vec::with_capacity(config.epochs);
    let mut best_metric = f64::INFINITY;
    let mut stale = 0usize;

    let mut order: Vec<usize> = (0..train.len()).collect();
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(config.minibatch.max(1)) {
            model.zero_grad();
            let states: Vec<&SystemState> = chunk.iter().map(|&i| &train[i]).collect();
            let losses = minibatch_losses(model, &states, &mut rng, config);
            let batch_loss: f64 = losses.iter().sum();
            // Average gradients over the minibatch.
            let scale = 1.0 / chunk.len() as f64;
            for p in model.params_mut() {
                p.grad = p.grad.scale(scale);
            }
            adam.step(model.params_mut());
            epoch_loss += batch_loss;
        }
        epoch_loss /= (train.len() * 2).max(1) as f64; // per-term mean

        let (mse, confidence, windows) = evaluate_detailed(model, test);
        stats.push(EpochStats {
            epoch,
            loss: epoch_loss,
            mse,
            confidence,
        });

        // Early stopping (§IV-E): the patience counter watches the
        // held-out test-split MSE. Training loss is ignored while that
        // metric exists — it keeps improving on an overfitting run while
        // the test metric stalls, which is exactly when training should
        // stop. Only when the split yields no valid warm-start windows at
        // all (so the MSE is a 0.0 "unavailable" sentinel, constant by
        // construction) does the criterion fall back to the training
        // loss; otherwise the sentinel would halt every such run after
        // `patience + 1` epochs regardless of convergence.
        let monitored = if windows > 0 { mse } else { epoch_loss };
        if monitored + 1e-9 < best_metric {
            best_metric = monitored;
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.patience {
                break;
            }
        }
    }
    stats
}

/// Online fine-tuning on the running dataset Γ (Algorithm 2 line 15):
/// a handful of adversarial minibatch steps over the freshest data.
/// Returns the mean loss across the pass.
pub fn fine_tune(
    model: &mut GonModel,
    running: &[SystemState],
    adam: &mut Adam,
    config: &TrainConfig,
    seed: u64,
) -> f64 {
    if running.is_empty() {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    // One pass over Γ in minibatches of 8 (Γ is small between triggers).
    for chunk in running.chunks(8) {
        model.zero_grad();
        let states: Vec<&SystemState> = chunk.iter().collect();
        let losses = minibatch_losses(model, &states, &mut rng, config);
        let batch: f64 = losses.iter().sum();
        for p in model.params_mut() {
            p.grad = p.grad.scale(1.0 / chunk.len() as f64);
        }
        adam.step(model.params_mut());
        total += batch;
    }
    total / (running.len() * 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GonConfig;
    use workloads::trace::{generate_trace, TraceConfig};
    use workloads::BenchmarkSuite;

    fn tiny_config() -> GonConfig {
        GonConfig {
            hidden: 12,
            head_layers: 2,
            gat_dim: 6,
            gat_att: 4,
            gen_lr: 5e-3,
            gen_steps: 6,
            seed: 1,
        }
    }

    fn tiny_model() -> GonModel {
        GonModel::new(tiny_config())
    }

    fn trace_with(n: usize, hosts: usize, seed: u64) -> Vec<SystemState> {
        generate_trace(
            &TraceConfig {
                intervals: n,
                topology_period: 7,
                arrival_rate: 1.2,
                suite: BenchmarkSuite::DeFog,
                seed,
            },
            edgesim::SimConfig::small(hosts, 2, seed),
        )
    }

    fn tiny_trace(n: usize) -> Vec<SystemState> {
        trace_with(n, 6, 5)
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = tiny_model();
        let trace = tiny_trace(40);
        let stats = train_offline(
            &mut model,
            &trace,
            &TrainConfig {
                epochs: 12,
                minibatch: 8,
                patience: 12,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert!(stats.len() >= 2);
        let first = stats.first().unwrap().loss;
        let last = stats.last().unwrap().loss;
        assert!(
            last < first,
            "loss should fall: {first} → {last} ({stats:?})"
        );
    }

    #[test]
    fn training_raises_confidence_on_seen_data() {
        let mut model = tiny_model();
        let trace = tiny_trace(40);
        let (_, conf_before) = evaluate(&mut model, &trace[32..]);
        train_offline(
            &mut model,
            &trace,
            &TrainConfig {
                epochs: 15,
                minibatch: 8,
                patience: 15,
                lr: 3e-3,
                ..Default::default()
            },
        );
        let (_, conf_after) = evaluate(&mut model, &trace[32..]);
        assert!(
            conf_after > conf_before,
            "confidence on in-distribution data should rise: {conf_before} → {conf_after}"
        );
    }

    #[test]
    fn early_stopping_bounds_epochs() {
        let mut model = tiny_model();
        let trace = tiny_trace(16);
        let stats = train_offline(
            &mut model,
            &trace,
            &TrainConfig {
                epochs: 50,
                minibatch: 8,
                patience: 2,
                lr: 0.0, // no progress ⇒ stop after patience
                ..Default::default()
            },
        );
        assert!(stats.len() <= 4, "should stop early, ran {}", stats.len());
    }

    /// The §IV-E regression: early stopping must watch the *held-out*
    /// metric, not the training loss. On this trace the training loss
    /// falls **every recorded epoch** — the old training-loss rule would
    /// have run the full 40-epoch budget — while the test-split MSE
    /// stalls within a handful of epochs, so the fixed rule exits early,
    /// and the exit is explained entirely by the trailing `patience`
    /// epochs failing to improve the best held-out MSE.
    #[test]
    fn early_stopping_tracks_test_metric_not_training_loss() {
        let mut model = tiny_model();
        let trace = tiny_trace(50);
        let epochs = 40;
        let patience = 3;
        let stats = train_offline(
            &mut model,
            &trace,
            &TrainConfig {
                epochs,
                minibatch: 8,
                patience,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert!(
            stats.iter().all(|s| s.mse > 0.0),
            "the test split must yield a real held-out MSE: {stats:?}"
        );
        assert!(
            stats.len() < epochs,
            "must stop before the epoch budget: {stats:?}"
        );
        assert!(
            stats.windows(2).all(|w| w[1].loss < w[0].loss),
            "training loss must improve every recorded epoch — otherwise this \
             trace does not separate the two stopping rules: {stats:?}"
        );
        // The stop must be the held-out-MSE rule: none of the trailing
        // `patience` epochs improved on the best MSE seen before them.
        let best_before = stats[..stats.len() - patience]
            .iter()
            .map(|s| s.mse)
            .fold(f64::INFINITY, f64::min);
        for s in &stats[stats.len() - patience..] {
            assert!(
                s.mse + 1e-9 >= best_before,
                "epoch {} improved the held-out MSE — the early exit is unexplained: {stats:?}",
                s.epoch
            );
        }
    }

    /// A degenerate test split — host counts alternate every interval, so
    /// no warm-start window is valid and the MSE is a constant 0.0
    /// "unavailable" sentinel — must *not* abort training after
    /// `patience + 1` epochs: the criterion falls back to the training
    /// loss, which keeps improving here, so the full budget runs.
    #[test]
    fn early_stopping_falls_back_to_loss_without_test_windows() {
        let mut model = tiny_model();
        let mut dataset = trace_with(40, 6, 5);
        let four = trace_with(5, 4, 9);
        let six = trace_with(5, 6, 9);
        for (a, b) in four.into_iter().zip(six) {
            dataset.push(a);
            dataset.push(b);
        }
        // TRAIN_FRACTION splits at 40: the alternating tail is the test set.
        assert_eq!(dataset.len(), 50);
        let epochs = 6;
        let stats = train_offline(
            &mut model,
            &dataset,
            &TrainConfig {
                epochs,
                minibatch: 8,
                patience: 2,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert!(
            stats.iter().all(|s| s.mse == 0.0),
            "test split must have no valid windows: {stats:?}"
        );
        assert_eq!(
            stats.len(),
            epochs,
            "the 0.0 MSE sentinel must not trigger early stopping while the \
             training loss improves: {stats:?}"
        );
    }

    /// The fake-sample ascent must honour the configured `gen_lr` — the
    /// old code clamped it with `.max(1e-3)`, so any two sub-1e-3 values
    /// trained identically. With the fix, the γ-dependence of both the
    /// step size and the scaled tolerance shows up in the trajectory.
    #[test]
    fn sub_reference_gen_lr_changes_training_trajectory() {
        let run = |gen_lr: f64| {
            let mut model = GonModel::new(GonConfig {
                gen_lr,
                ..tiny_config()
            });
            let trace = tiny_trace(16);
            train_offline(
                &mut model,
                &trace,
                &TrainConfig {
                    epochs: 2,
                    minibatch: 8,
                    patience: 4,
                    lr: 3e-3,
                    ..Default::default()
                },
            );
            let params: Vec<u64> = model
                .params_mut()
                .iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect();
            params
        };
        assert_ne!(
            run(4e-4),
            run(8e-4),
            "two sub-1e-3 gen_lr values must produce different training trajectories"
        );
    }

    /// Evaluation must not disturb optimizer state: gradients accumulated
    /// before `evaluate` survive it bit-for-bit.
    #[test]
    fn evaluate_preserves_accumulated_gradients() {
        let mut model = tiny_model();
        let trace = tiny_trace(12);
        // Accumulate some nonzero gradients mid-minibatch.
        let mut rng = StdRng::seed_from_u64(3);
        let _ = adversarial_step(&mut model, &trace[0], &mut rng);
        let before: Vec<Vec<u64>> = model
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect();
        assert!(
            before.iter().flatten().any(|&b| b != 0),
            "the step must have accumulated gradients"
        );
        let _ = evaluate(&mut model, &trace);
        let after: Vec<Vec<u64>> = model
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect();
        assert_eq!(before, after, "evaluate disturbed accumulated gradients");
    }

    /// Training is bit-identical end to end at 1 and 4 workers: same
    /// per-epoch stats, same final parameters. The minibatch (24 train
    /// states) exceeds the 16-sample fake-ascent chunk, so multi-chunk
    /// fan-out and reassembly are exercised.
    #[test]
    fn train_offline_is_bit_identical_across_workers() {
        let trace = tiny_trace(30);
        let run = |threads: usize| {
            let mut model = tiny_model();
            let stats = train_offline(
                &mut model,
                &trace,
                &TrainConfig {
                    epochs: 3,
                    minibatch: 32,
                    patience: 3,
                    lr: 3e-3,
                    train_threads: Some(threads),
                    ..Default::default()
                },
            );
            let params: Vec<u64> = model
                .params_mut()
                .iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect();
            (stats, params)
        };
        let (one_stats, one_params) = run(1);
        let (stats, params) = run(4);
        assert_eq!(stats.len(), one_stats.len(), "epoch counts");
        for (a, b) in one_stats.iter().zip(&stats) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss diverged");
            assert_eq!(a.mse.to_bits(), b.mse.to_bits(), "mse diverged");
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "confidence diverged"
            );
        }
        assert_eq!(params, one_params, "final parameters diverged");
    }

    #[test]
    fn fine_tune_moves_parameters() {
        let mut model = tiny_model();
        let trace = tiny_trace(12);
        let before: Vec<f64> = model.params_mut().iter().map(|p| p.value.norm()).collect();
        let mut adam = Adam::new(1e-3, 0.0);
        let loss = fine_tune(&mut model, &trace, &mut adam, &TrainConfig::default(), 3);
        assert!(loss.is_finite() && loss > 0.0);
        let after: Vec<f64> = model.params_mut().iter().map(|p| p.value.norm()).collect();
        assert_ne!(before, after, "fine-tune must update parameters");
    }

    /// `fine_tune` is bit-identical — loss and resulting parameters — at
    /// 1 and 4 workers.
    #[test]
    fn fine_tune_is_bit_identical_across_workers() {
        let trace = tiny_trace(12);
        let run = |threads: usize| {
            let mut model = tiny_model();
            let mut adam = Adam::new(1e-3, 0.0);
            let config = TrainConfig {
                train_threads: Some(threads),
                ..Default::default()
            };
            let loss = fine_tune(&mut model, &trace, &mut adam, &config, 3);
            let params: Vec<u64> = model
                .params_mut()
                .iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect();
            (loss, params)
        };
        let (one_loss, one_params) = run(1);
        let (loss, params) = run(4);
        assert_eq!(loss.to_bits(), one_loss.to_bits());
        assert_eq!(params, one_params);
    }

    #[test]
    fn fine_tune_on_empty_is_noop() {
        let mut model = tiny_model();
        let mut adam = Adam::new(1e-3, 0.0);
        assert_eq!(
            fine_tune(&mut model, &[], &mut adam, &TrainConfig::default(), 0),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_rejects_empty_dataset() {
        let mut model = tiny_model();
        train_offline(&mut model, &[], &TrainConfig::default());
    }
}
