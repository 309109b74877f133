//! Determinism guard: the whole pipeline — workload draws, fault
//! injection, simulation, GON training and topology repair — must be a
//! pure function of the experiment seed.
//!
//! These tests pin replayability end to end: seed fan-out, scenario
//! fan-out, the batched trainer, the SIMD backends, the service daemon
//! and checkpoint/restore, each on one worker and on several.
//! Comparisons are bit-exact (`==` on `f64`), not approximate: any
//! reordering of floating-point accumulation or RNG draws fails loudly.
//! The repair objective's engine (chunked, fanned-out, patched scoring
//! and the tabu repair) is checked against a plain per-candidate
//! reference, the oracle of `tests/oracle/mod.rs`: its corner rows are
//! gates here, its full neighbourhood at 128 hosts and its random
//! federations are in `tests/objective_oracle.rs`.

mod oracle;

use baselines::Lbos;
use carol::carol::{Carol, CarolConfig};
use carol::nodeshift::mutations_sampled;
use carol::runner::{run_experiment, run_seeds_threads, ExperimentConfig, ExperimentResult};
use carol::scenario::{run_scenarios_threads, ScenarioSpec, WorkloadSource};
use carol::tabu::Neighborhood;
use edgesim::{Simulator, Topology};
use oracle::{carol_config, check_row, first_last, sampled};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        intervals: 10,
        ..ExperimentConfig::small(seed)
    }
}

fn run_carol(seed: u64) -> ExperimentResult {
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), seed);
    run_experiment(&mut policy, &fast_config(seed))
}

/// Asserts bit-identical observable outcomes of two runs.
fn assert_identical(a: &ExperimentResult, b: &ExperimentResult) {
    assert_eq!(a.completed, b.completed, "completed-task counts diverged");
    assert_eq!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "energy diverged: {} vs {}",
        a.total_energy_wh,
        b.total_energy_wh
    );
    assert_eq!(
        a.response_times_s.len(),
        b.response_times_s.len(),
        "response-time counts diverged"
    );
    for (i, (x, y)) in a
        .response_times_s
        .iter()
        .zip(&b.response_times_s)
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "response time {i} diverged: {x} vs {y}"
        );
    }
}

#[test]
fn same_seed_is_bit_identical_for_carol() {
    let first = run_carol(42);
    let second = run_carol(42);
    assert_identical(&first, &second);
    // The run must have actually exercised the pipeline.
    assert!(first.completed > 0, "run completed no tasks");
    assert!(first.total_energy_wh > 0.0);
}

#[test]
fn different_seeds_diverge_for_carol() {
    let a = run_carol(1);
    let b = run_carol(2);
    // Energy integrates every placement and utilisation decision of the
    // run; two different-seed runs agreeing bit-for-bit would mean the
    // seed is being ignored somewhere.
    assert_ne!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "different seeds produced identical energy"
    );
    assert_ne!(
        a.response_times_s, b.response_times_s,
        "different seeds produced identical response-time streams"
    );
}

/// The parallel fan-out contract: `run_seeds` on one worker and on four
/// workers must produce bit-identical results for every seed. Each seed
/// owns its RNG streams and its policy instance, so thread count and OS
/// scheduling must never leak into the outputs.
///
/// The worker counts are pinned through `run_seeds_threads` rather than
/// the `CAROL_THREADS` env var: mutating the environment would race
/// with this binary's other tests (setenv/getenv from concurrent libtest
/// threads is UB on glibc). The env-override plumbing is covered by
/// `tests/carol_threads_env.rs`, whose binary holds exactly one test.
#[test]
fn parallel_seed_fanout_is_bit_identical_to_serial() {
    let seeds: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    let base = fast_config(0);
    let make = |seed| Carol::pretrained(CarolConfig::fast_test(), seed);

    let serial = run_seeds_threads(1, make, &base, &seeds);
    let parallel = run_seeds_threads(4, make, &base, &seeds);

    assert_eq!(serial.len(), seeds.len());
    assert_eq!(parallel.len(), seeds.len());
    for (seed, (a, b)) in seeds.iter().zip(serial.iter().zip(&parallel)) {
        assert!(a.completed > 0, "seed {seed} completed no tasks");
        assert_identical(a, b);
    }
}

/// The scenario engine's fan-out contract at scale: `run_scenarios` over
/// 64-host named scenarios — including one replaying an exported trace —
/// is bit-identical on one worker and on four. This is the acceptance
/// gate for the >16-host scenario axis: every scenario owns its RNG
/// streams, trace and policy instance, so thread count must never leak
/// into the outputs.
#[test]
fn scenario_fanout_64_hosts_is_bit_identical_to_serial() {
    let specs: Vec<ScenarioSpec> = (1..=3)
        .map(|seed| ScenarioSpec::named("replay-64", seed).expect("replay-64 is registered"))
        .collect();
    assert!(specs.iter().all(|s| s.n_hosts == 64));
    // The replay workload must actually carry a trace (not fall back to
    // a sampler) for this to gate what it claims to gate.
    for spec in &specs {
        let WorkloadSource::Replay { events } = &spec.workload else {
            panic!("replay-64 must replay a recorded trace");
        };
        assert!(!events.is_empty());
    }

    let make = |spec: &ScenarioSpec| Lbos::new(spec.seed);
    let serial = run_scenarios_threads(1, make, &specs);
    let parallel = run_scenarios_threads(4, make, &specs);

    assert_eq!(serial.len(), specs.len());
    for ((spec, a), b) in specs.iter().zip(&serial).zip(&parallel) {
        assert_eq!(a.scenario, "replay-64");
        assert_eq!(a.n_hosts, 64);
        assert!(
            a.result.completed > 0,
            "seed {}: 64-host replay completed no tasks",
            spec.seed
        );
        assert_identical(&a.result, &b.result);
    }
    // Different seeds record different traces and must diverge.
    assert_ne!(
        serial[0].result.total_energy_wh.to_bits(),
        serial[1].result.total_energy_wh.to_bits(),
        "different replay seeds produced identical energy"
    );
}

/// Replayed traces are deterministic across runs: replaying the same
/// exported trace twice — same scenario, same seed — is bit-identical.
#[test]
fn trace_replay_is_bit_identical_across_runs() {
    let run = || {
        let spec = ScenarioSpec::named("replay-64", 7).expect("registered");
        let mut policy = Lbos::new(7);
        carol::scenario::run_scenario(&mut policy, &spec)
    };
    let first = run();
    let second = run();
    assert!(first.result.completed > 0);
    assert_identical(&first.result, &second.result);
}

/// Oracle candidates: none beyond those the repair scores.
fn none(_: &Simulator) -> Vec<Topology> {
    Vec::new()
}

/// Nine sampled candidates: at 512 hosts `gon::batch_len` is 4, so they
/// score as chunks of 4 + 4 + 1 — a short tail, and more chunks than
/// workers at 3 workers.
fn nine_sampled(sim: &Simulator) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(29);
    let mut candidates = mutations_sampled(sim.topology(), &[], 12, &mut rng);
    candidates.truncate(9);
    assert_eq!(candidates.len(), 9);
    candidates
}

/// The full neighbourhood of a 64-host repair, scored and searched on 1
/// and 4 workers; two ascent steps exercise the per-candidate stop masks.
/// (The 128-host full neighbourhood is in `tests/objective_oracle.rs`.)
#[test]
fn batched_tabu_repair_is_bit_identical_to_serial() {
    let full = carol_config(2, 1, Neighborhood::Full);
    check_row((64, 8, none, full, &[1, 4]));
}

/// Row-budget chunks of 4 + 4 + 1 at 512 hosts, on 1 and 3 workers.
#[test]
fn row_budget_chunks_score_bit_identically_at_512_hosts() {
    let config = carol_config(2, 1, sampled(2, 29));
    check_row((512, 64, nine_sampled, config, &[1, 3]));
}

/// Patched promote, demote and reassign moves, from the snapshot and
/// from a repair shift, up to 171 brokers, where each broker attends to
/// a wrapped window of 16 (`Topology::gat_row`).
#[test]
fn patched_graph_branch_generates_bit_identically_to_full_batches() {
    for (n_hosts, n_brokers) in [(64, 8), (512, 64), (1024, 171)] {
        let config = carol_config(3, 1, sampled(2, 5));
        check_row((n_hosts, n_brokers, first_last, config, &[1, 3]));
    }
}

/// A two-iteration sampled repair whose cap binds, on 1 and 4 workers.
#[test]
fn sampled_tabu_repair_is_bit_identical_across_engines_and_workers() {
    check_row((128, 16, none, carol_config(1, 2, sampled(48, 23)), &[1, 4]));
}

/// A 64-host DeFog trace of `intervals` captured states.
fn defog_64_trace(intervals: usize) -> Vec<edgesim::state::SystemState> {
    use workloads::trace::{generate_trace, TraceConfig};

    generate_trace(
        &TraceConfig {
            intervals,
            topology_period: 5,
            arrival_rate: 0.45 * 64.0,
            suite: workloads::BenchmarkSuite::DeFog,
            seed: 3,
        },
        edgesim::SimConfig::small(64, 8, 3),
    )
}

/// The small GON the training gates train.
fn training_gon() -> gon::GonModel {
    let mut config = CarolConfig::fast_test().gon;
    config.gen_steps = 3;
    gon::GonModel::new(config)
}

/// `train_offline` of [`training_gon`] on `threads` workers: the trained
/// model and its per-epoch `[epoch, loss, mse, confidence]` as bits.
fn train(
    trace: &[edgesim::state::SystemState],
    epochs: usize,
    threads: usize,
) -> (gon::GonModel, Vec<[u64; 4]>) {
    let mut model = training_gon();
    let stats = gon::train_offline(
        &mut model,
        trace,
        &gon::TrainConfig {
            epochs,
            minibatch: 32,
            patience: 2,
            lr: 1e-3,
            train_threads: Some(threads),
            ..Default::default()
        },
    );
    let stats = stats
        .iter()
        .map(|s| {
            [
                s.epoch as u64,
                s.loss.to_bits(),
                s.mse.to_bits(),
                s.confidence.to_bits(),
            ]
        })
        .collect();
    (model, stats)
}

/// Every parameter value of `model`, as bits.
fn param_bits(model: &mut gon::GonModel) -> Vec<u64> {
    model
        .params_mut()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// The batched trainer's contract, on 64-host federation states:
///
/// * one `adversarial_step_batch` over a 17-state minibatch — spanning
///   two 16-sample fake-ascent chunks — on one worker and on four equals
///   `adversarial_step` mapped over the same states: same per-sample
///   losses, same accumulated gradients, same next RNG draw;
/// * `train_offline` on one worker and on four produces the same
///   per-epoch `EpochStats` and the same final parameters.
///
/// Interleaved real/fake gradient segments and fixed fake-ascent chunk
/// boundaries are what make this hold; this test is the tripwire.
#[test]
fn batched_training_is_bit_identical_to_serial() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let trace = defog_64_trace(24);
    assert!(trace.iter().all(|s| s.n_hosts() == 64));
    let grad_bits = |m: &mut gon::GonModel| -> Vec<Vec<u64>> {
        m.params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect()
    };

    // One minibatch: the batched step vs the mapped one-state step.
    let minibatch = &trace[..17];
    let mut mapped_model = training_gon();
    let mut mapped_rng = StdRng::seed_from_u64(21);
    let mapped_losses: Vec<f64> = minibatch
        .iter()
        .map(|s| gon::training::adversarial_step(&mut mapped_model, s, &mut mapped_rng))
        .collect();
    let mapped_grads = grad_bits(&mut mapped_model);
    let mapped_next: u64 = mapped_rng.gen();
    let refs: Vec<&edgesim::state::SystemState> = minibatch.iter().collect();
    for threads in [1, 4] {
        let mut batched_model = training_gon();
        let mut batched_rng = StdRng::seed_from_u64(21);
        let losses = batched_model.adversarial_step_batch(&refs, &mut batched_rng, threads);
        assert_eq!(losses.len(), mapped_losses.len());
        for (i, (a, b)) in mapped_losses.iter().zip(&losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{threads} workers: sample {i} loss diverged ({a} vs {b})"
            );
        }
        assert_eq!(
            grad_bits(&mut batched_model),
            mapped_grads,
            "{threads} workers: accumulated gradients diverged"
        );
        assert_eq!(
            batched_rng.gen::<u64>(),
            mapped_next,
            "{threads} workers: RNG stream consumption diverged"
        );
    }

    // Whole offline training: one worker vs four. Minibatch 32 over a
    // 19-state train split spans two 16-sample fake-ascent chunks, so
    // the multi-chunk `par` fan-out and in-order reassembly are priced.
    let (mut one, one_stats) = train(&trace, 2, 1);
    assert_eq!(one_stats.len(), 2, "both epochs must run");
    let (mut four, stats) = train(&trace, 2, 4);
    assert_eq!(
        stats, one_stats,
        "per-epoch [epoch, loss, mse, confidence] diverged"
    );
    assert_eq!(
        param_bits(&mut four),
        param_bits(&mut one),
        "final parameters diverged"
    );
}

#[test]
fn simd_and_scalar_kernels_are_bit_identical_end_to_end() {
    use nn::kernel::{self, Backend};

    // One leg per kernel backend: the auto-resolved one (AVX2 where the
    // host supports it, honouring CAROL_SIMD) and the pinned scalar
    // build. Each leg runs the full pipeline — GON pretraining,
    // simulation, fault repair — plus an explicit offline-train +
    // generate trajectory at 64 hosts. `set_backend` swaps a
    // process-global, which is safe precisely because of the invariant
    // under test: concurrently running tests cannot observe the swap
    // unless some kernel is *not* bit-identical. On hosts where auto
    // resolves to scalar the comparison is trivially scalar-vs-scalar;
    // the AVX2 CI leg is where it bites. The oracle's scalar pins take
    // the same lock, so neither leg's restore can undo the other's swap.
    let _backend = oracle::backend_lock();
    let trace = defog_64_trace(12);

    let leg = |backend: Backend| {
        let prev = kernel::set_backend(backend);
        let experiment = run_carol(11);
        let (mut model, stats) = train(&trace, 1, 2);
        let generated = model.generate(&trace[0]);
        let params = param_bits(&mut model);
        kernel::set_backend(prev);
        (experiment, stats, generated, params)
    };

    let auto = kernel::active();
    let (exp_simd, stats_simd, gen_simd, params_simd) = leg(auto);
    let (exp_scalar, stats_scalar, gen_scalar, params_scalar) = leg(Backend::Scalar);

    assert_identical(&exp_simd, &exp_scalar);
    assert_eq!(
        stats_simd,
        stats_scalar,
        "training [epoch, loss, mse, confidence] diverged between {} and scalar backends",
        auto.name()
    );
    assert_eq!(
        gen_simd.confidence.to_bits(),
        gen_scalar.confidence.to_bits(),
        "generate confidence diverged between {} and scalar backends",
        auto.name()
    );
    assert_eq!(gen_simd.iterations, gen_scalar.iterations);
    for (x, y) in gen_simd.metrics_flat.iter().zip(&gen_scalar.metrics_flat) {
        assert_eq!(x.to_bits(), y.to_bits(), "generated metrics diverged");
    }
    assert_eq!(
        params_simd,
        params_scalar,
        "trained parameters diverged between {} and scalar backends",
        auto.name()
    );
}

#[test]
fn same_seed_is_bit_identical_for_seeded_baseline() {
    // A cheaper, Carol-free policy: guards the simulator/workload/fault
    // substrate itself, so a nondeterminism regression in the substrate is
    // attributed correctly even if Carol's own pipeline also breaks.
    let run = |seed: u64| {
        let mut policy = Lbos::new(seed);
        run_experiment(&mut policy, &fast_config(seed))
    };
    let first = run(7);
    let second = run(7);
    assert_identical(&first, &second);
}

/// The correlated-fault and heterogeneity axes' fan-out contract: rack
/// cascades, network partitions, heterogeneous fleets and non-stationary
/// arrivals — including every checked-in fuzzer-found `cliff-*` scenario
/// — are bit-identical on one worker and on four. Each new stochastic
/// layer (per-rack hazards, partition windows, shaped arrival sampling)
/// draws from scenario-owned RNG streams, so worker count must never
/// leak into the outputs.
#[test]
fn correlated_and_heterogeneous_scenarios_are_bit_identical_across_workers() {
    let mut specs: Vec<ScenarioSpec> = [
        "cascade-64",
        "partition-128",
        "flashcrowd-hetero-64",
        "cliff-cascade-16",
        "cliff-partition-16",
        "cliff-flashcrowd-32",
    ]
    .iter()
    .map(|name| ScenarioSpec::named(name, 9).unwrap_or_else(|| panic!("{name} is registered")))
    .collect();
    // Debug-budget horizon for the big federations; the shrunk cliff
    // scenarios are already minimal.
    for spec in &mut specs {
        spec.intervals = spec.intervals.min(6);
    }

    let make = |spec: &ScenarioSpec| Lbos::new(spec.seed);
    let serial = run_scenarios_threads(1, make, &specs);
    let parallel = run_scenarios_threads(4, make, &specs);

    assert_eq!(serial.len(), specs.len());
    for ((spec, a), b) in specs.iter().zip(&serial).zip(&parallel) {
        assert!(
            a.result.completed > 0,
            "{}: scenario completed no tasks",
            spec.name
        );
        assert_identical(&a.result, &b.result);
    }
}

/// The service daemon's contract: streaming a recorded trace through
/// `serve_trace` — stream decoding, interval grouping, inline
/// fine-tuning, checkpoint cadence and all — is bit-identical to
/// the equivalent batch replay through `run_experiment_full`, on one
/// evaluation worker and on four.
#[test]
fn service_stream_is_bit_identical_to_batch_replay() {
    use carol::service::{serve_trace, CheckpointSpec, ExperimentSpec, ServeOptions};
    use gon::TrainConfig;
    use std::io::Cursor;
    use workloads::replay::{export_jsonl, record_suite, ReplayWorkload};
    use workloads::BenchmarkSuite;

    let seed = 21;
    let events = record_suite(BenchmarkSuite::AIoTBench, 2.5, seed, 8);
    let trace = export_jsonl(&events);
    let scenario = ScenarioSpec::replay("svc-vs-batch", events.clone(), 8, 2, seed);
    let spec_for = |threads: usize| {
        ExperimentSpec::new(scenario.clone())
            .with_engine(par::EngineConfig::batched(threads))
            .with_train(TrainConfig {
                epochs: 1,
                minibatch: 4,
                patience: 1,
                ..TrainConfig::default()
            })
            .with_checkpoint(CheckpointSpec {
                every: Some(3),
                path: None,
            })
    };

    // The batch reference: same pretraining, same replayed arrivals,
    // driven through the classic finish-and-exit loop.
    let batch = {
        let spec = spec_for(1);
        let mut policy = Carol::pretrained(spec.carol_config(), seed);
        let mut workload = ReplayWorkload::new(&events);
        let mut scheduler = scenario.scheduler.build();
        carol::runner::run_experiment_full(
            &mut policy,
            &scenario.experiment_config(),
            &mut workload,
            scheduler.as_mut(),
        )
    };
    assert!(batch.completed > 0, "replay must complete tasks");

    for (label, threads) in [("1 worker", 1), ("4 workers", 4)] {
        let report = serve_trace(
            &spec_for(threads),
            Cursor::new(trace.clone().into_bytes()),
            &ServeOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{label}: serve failed: {e}"));
        assert_eq!(
            report.intervals, scenario.intervals,
            "{label}: stream horizon diverged from the replay horizon"
        );
        assert!(report.checkpoints_taken > 0, "{label}: cadence never fired");
        assert_identical(&batch, &report.result);
    }
}

/// The multi-federation extension of the service contract: one daemon
/// serving 1, 2 and 4 federations concurrently — one engine and one
/// thread per federation — must leave each federation bit-identical to
/// (a) its own solo batch replay through `run_experiment_full` and
/// (b) the same spec served alone, with per-federation worker counts
/// (1 or 4 evaluation workers) changing nothing.
#[test]
fn federation_set_stream_is_bit_identical_to_batch_replay_per_federation() {
    use carol::service::{
        serve_trace, CheckpointSpec, ExperimentSpec, FederationSet, ServeOptions,
    };
    use gon::TrainConfig;
    use std::io::Cursor;
    use workloads::replay::{export_jsonl, record_suite, ReplayWorkload};
    use workloads::BenchmarkSuite;

    // Deliberately different federations: distinct seeds, horizons
    // offset by stream length, and distinct evaluation-engine widths.
    let build = |seed: u64, intervals: usize, threads: usize| {
        let events = record_suite(BenchmarkSuite::AIoTBench, 2.5, seed, intervals);
        let trace = export_jsonl(&events);
        let scenario = ScenarioSpec::replay(format!("fedset-{seed}"), events.clone(), 8, 2, seed);
        let spec = ExperimentSpec::new(scenario)
            .with_engine(par::EngineConfig::batched(threads))
            .with_train(TrainConfig {
                epochs: 1,
                minibatch: 4,
                patience: 1,
                ..TrainConfig::default()
            })
            .with_checkpoint(CheckpointSpec {
                every: Some(3),
                path: None,
            });
        (spec, trace, events)
    };
    let feds = [
        build(33, 8, 1),
        build(37, 6, 4),
        build(39, 7, 1),
        build(43, 5, 4),
    ];

    // Per-federation references: the batch replay and the solo serve.
    let references: Vec<_> = feds
        .iter()
        .map(|(spec, trace, events)| {
            let mut policy = Carol::pretrained(spec.carol_config(), spec.scenario.seed);
            let mut workload = ReplayWorkload::new(events);
            let mut scheduler = spec.scenario.scheduler.build();
            let batch = carol::runner::run_experiment_full(
                &mut policy,
                &spec.scenario.experiment_config(),
                &mut workload,
                scheduler.as_mut(),
            );
            assert!(batch.completed > 0);
            let solo = serve_trace(
                spec,
                Cursor::new(trace.clone().into_bytes()),
                &ServeOptions::default(),
            )
            .expect("solo serve succeeds");
            (batch, solo)
        })
        .collect();

    // One daemon, the first 1, 2 and 4 federations.
    for n in [1, 2, 4] {
        let set = FederationSet::new(feds[..n].iter().map(|f| f.0.clone()).collect());
        let readers = feds[..n]
            .iter()
            .map(|f| Cursor::new(f.1.clone().into_bytes()))
            .collect();
        let reports = set
            .serve(readers, &ServeOptions::default())
            .expect("federation set serves");
        assert_eq!(reports.len(), n);
        for (idx, (report, ((spec, _, _), (batch, solo)))) in
            reports.iter().zip(feds.iter().zip(&references)).enumerate()
        {
            let label = format!("federation {idx} of {n}");
            assert_eq!(
                report.intervals, spec.scenario.intervals,
                "{label}: stream horizon diverged from the replay horizon"
            );
            assert!(report.checkpoints_taken > 0, "{label}: cadence never fired");
            assert_identical(batch, &report.result);
            assert_identical(&solo.result, &report.result);
            assert_eq!(
                solo.repairs_triggered, report.repairs_triggered,
                "{label}: repair counts diverged from the solo serve"
            );
        }
    }
    // The federations must not be clones of each other — the gate is
    // only meaningful if the set keeps distinct streams apart.
    let energies: std::collections::BTreeSet<u64> = references
        .iter()
        .map(|(batch, _)| batch.total_energy_wh.to_bits())
        .collect();
    assert_eq!(
        energies.len(),
        feds.len(),
        "federations should differ; the gate would pass trivially"
    );
}

/// The checkpoint/restore contract: freezing the controller mid-stream,
/// round-tripping it through JSON, restoring into a fresh `Carol` and
/// continuing the same engine is bit-identical to never having been
/// interrupted — on one evaluation worker and on four.
#[test]
fn checkpoint_restore_mid_stream_is_bit_identical_to_continuous() {
    use carol::runner::ExperimentEngine;
    use carol::CarolCheckpoint;
    use workloads::BagOfTasks;

    let seed = 31;
    let intervals = 14;
    let config = ExperimentConfig {
        intervals,
        fault_rate: 2.0, // force repairs so the GON/POT/RNG state matters
        ..ExperimentConfig::small(seed)
    };
    let make = |threads: usize| {
        Carol::pretrained(
            CarolConfig {
                eval_threads: Some(threads),
                ..CarolConfig::fast_test()
            },
            seed,
        )
    };
    // One pre-sampled arrival stream shared by both runs: the sampler's
    // RNG is independent of the simulation, exactly as in `run_experiment`.
    let all_arrivals: Vec<Vec<edgesim::TaskSpec>> = {
        let mut workload = BagOfTasks::new(config.suite, config.arrival_rate, seed ^ 0x5754);
        (0..intervals)
            .map(|t| workload.sample_interval(t))
            .collect()
    };
    let arrivals_for = |t: usize| all_arrivals[t].clone();

    for threads in [1usize, 4] {
        let continuous = {
            let mut policy = make(threads);
            let mut engine = ExperimentEngine::new(&config);
            let mut scheduler = edgesim::scheduler::LeastLoadScheduler::new();
            for t in 0..intervals {
                engine.step(&mut policy, arrivals_for(t), &mut scheduler);
            }
            engine.finish(&policy)
        };
        assert!(
            continuous.decision_events > 0,
            "{threads} workers: the run must exercise the repair path"
        );

        let interrupted = {
            let mut policy = make(threads);
            let mut engine = ExperimentEngine::new(&config);
            let mut scheduler = edgesim::scheduler::LeastLoadScheduler::new();
            for t in 0..intervals / 2 {
                engine.step(&mut policy, arrivals_for(t), &mut scheduler);
            }
            // Freeze → JSON → restore, then keep stepping the same engine.
            let ckpt = policy.checkpoint().expect("Gon variant checkpoints");
            let json = ckpt.to_json();
            let back = CarolCheckpoint::from_json(&json).expect("checkpoint JSON parses");
            let mut restored = Carol::restore(&back).expect("checkpoint restores");
            assert_eq!(restored.interval(), intervals / 2);
            for t in intervals / 2..intervals {
                engine.step(&mut restored, arrivals_for(t), &mut scheduler);
            }
            engine.finish(&restored)
        };
        assert_identical(&continuous, &interrupted);
        assert_eq!(
            continuous.decision_events, interrupted.decision_events,
            "{threads} workers: repair counts diverged across the restore"
        );
        assert_eq!(
            continuous.fine_tune_events, interrupted.fine_tune_events,
            "{threads} workers: fine-tune counts diverged across the restore"
        );
    }
}
