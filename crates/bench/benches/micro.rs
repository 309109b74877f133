//! Criterion micro-benchmarks for the performance-critical primitives:
//! GON scoring/generation (the inner loop of every tabu evaluation), the
//! blocked matmul kernel at GAT shapes, node-shift neighbourhood
//! enumeration, tabu search, POT updates and one full simulator interval.
//! These quantify the decision-time budget behind Fig. 5(d).
//!
//! Set `BENCH_JSON=<path>` to also write `{name, median_ns, iters}`
//! records as a JSON array (CI archives this as `BENCH_PR.json`); every
//! record carries a `"simd"` label naming the `nn::kernel` backend that
//! dispatched (pin the scalar oracle with `CAROL_SIMD=scalar`).

use carol::carol::{Carol, CarolConfig};
use carol::nodeshift::{apply_move, enumerate_moves, mutations, neighborhood, Move, Touched};
use carol::pot::PotDetector;
use carol::tabu::{self, BatchObjective, TabuConfig};
use carol::ResiliencePolicy;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::{Normalizer, SystemState, GRAPH_DIM};
use edgesim::{FaultLoad, SchedulingDecision, SimConfig, Simulator, Topology};
use gon::{GonConfig, GonModel};
use nn::gat::GraphDelta;
use nn::init::Initializer;
use nn::layer::Workspace;
use nn::{Activation, Adjacency, Dense, GraphAttention, Matrix, Sequential};

fn testbed_state() -> SystemState {
    let mut sim = Simulator::new(SimConfig::testbed(7));
    let mut sched = LeastLoadScheduler::new();
    let mut workload = workloads::BagOfTasks::new(workloads::BenchmarkSuite::AIoTBench, 2.0, 7);
    let mut last = SchedulingDecision::new();
    for t in 0..5 {
        let r = sim.step(workload.sample_interval(t), &mut sched);
        last = r.decision;
    }
    SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &last,
        &Normalizer::default(),
    )
}

fn bench_gon(c: &mut Criterion) {
    let state = testbed_state();
    let mut model = GonModel::new(GonConfig::default());
    c.bench_function("gon_score_16_hosts", |b| {
        b.iter(|| black_box(model.score(black_box(&state))))
    });
    let mut model2 = GonModel::new(GonConfig {
        gen_steps: 10,
        ..Default::default()
    });
    c.bench_function("gon_generate_10_steps", |b| {
        b.iter(|| black_box(model2.generate(black_box(&state))))
    });
}

fn bench_matmul(c: &mut Criterion) {
    // The GAT/head shapes of the GON forward and backward passes: a tall
    // activation block times a square weight, and a square block times a
    // narrow weight. These isolate the blocked kernel behind
    // `gon_generate_10_steps`.
    let a_16x64 = Matrix::lcg(16, 64, 1);
    let b_64x64 = Matrix::lcg(64, 64, 2);
    c.bench_function("matmul_16x64_64x64", |bch| {
        bch.iter(|| black_box(black_box(&a_16x64).matmul(black_box(&b_64x64))))
    });
    let a_64x64 = Matrix::lcg(64, 64, 3);
    let b_64x16 = Matrix::lcg(64, 16, 4);
    c.bench_function("matmul_64x64_64x16", |bch| {
        bch.iter(|| black_box(black_box(&a_64x64).matmul(black_box(&b_64x16))))
    });
}

fn bench_kernels(c: &mut Criterion) {
    // Record which kernel backend dispatched alongside every median —
    // the BENCH_JSON archive is meaningless without it.
    criterion::set_label("simd", nn::kernel::active().name());

    // The stacked shapes the batched engines actually run: a 16-candidate
    // × 16-host `[M | S]` block through the first encoder layer, and the
    // pooled head input at default widths (hidden 128 + gat_dim 32).
    let a_256x13 = Matrix::lcg(256, 13, 11);
    let b_13x128 = Matrix::lcg(13, 128, 12);
    c.bench_function("matmul_256x13_13x128_stacked", |bch| {
        bch.iter(|| black_box(black_box(&a_256x13).matmul(black_box(&b_13x128))))
    });
    // The storm's per-step encoder shapes (a 2,048-row `batch_len`
    // chunk): the forward, and the `dX = dY·Wᵀ` of the Dense input
    // gradient, whose left operand is about half exact
    // zeros after the ReLU, so every row takes its own skip decisions.
    let a_2048x13 = Matrix::lcg(2048, 13, 15);
    let b_13x16 = Matrix::lcg(13, 16, 16);
    c.bench_function("matmul_2048x13_13x16", |bch| {
        bch.iter(|| black_box(black_box(&a_2048x13).matmul(black_box(&b_13x16))))
    });
    let a_2048x16 = Matrix::lcg(2048, 16, 19).map(|v| v.max(0.0));
    let b_16x13 = Matrix::lcg(16, 13, 20);
    c.bench_function("matmul_2048x16_16x13", |bch| {
        bch.iter(|| black_box(black_box(&a_2048x16).matmul(black_box(&b_16x13))))
    });
    // A `Dense(13→16)` + ReLU workspace step at the same chunk: the
    // two encoder matmuls plus the bias and activation passes around
    // them, into buffers reused from one iteration to the next, as each
    // eq.-1 step of the ascent runs them.
    let mut encoder = Sequential::new();
    encoder.push(Dense::new(13, 16, &mut Initializer::new(23)));
    encoder.push(Activation::relu());
    let g_2048x16 = Matrix::lcg(2048, 16, 24);
    let mut ws = Workspace::default();
    c.bench_function("encoder_workspace_step_2048", |bch| {
        bch.iter(|| {
            black_box(encoder.forward(black_box(&a_2048x13), &mut ws));
            black_box(encoder.backward_input(&a_2048x13, black_box(&g_2048x16), &mut ws));
        })
    });
    // The head's 1-wide output layer at the storm's 2-candidate chunk and
    // at paper-16's 16 candidates, and one pooled row through a
    // default-width head layer: narrow `n` and small `m`, where any fixed
    // per-call cost of the kernel shows.
    let b_16x1 = Matrix::lcg(16, 1, 25);
    for m in [2usize, 16] {
        let a = Matrix::lcg(m, 16, 26);
        c.bench_function(&format!("matmul_{m}x16_16x1"), |bch| {
            bch.iter(|| black_box(black_box(&a).matmul(black_box(&b_16x1))))
        });
    }
    let a_1x160 = Matrix::lcg(1, 160, 27);
    let a_16x160 = Matrix::lcg(16, 160, 13);
    let b_160x128 = Matrix::lcg(160, 128, 14);
    c.bench_function("matmul_16x160_160x128_head", |bch| {
        bch.iter(|| black_box(black_box(&a_16x160).matmul(black_box(&b_160x128))))
    });
    c.bench_function("matmul_1x160_160x128", |bch| {
        bch.iter(|| black_box(black_box(&a_1x160).matmul(black_box(&b_160x128))))
    });

    // GAT attention rows (logits + softmax + aggregation) at the default
    // widths over a 64-node ring — the per-step graph-branch cost the
    // shared-embedding lever amortises.
    let mut init = nn::init::Initializer::new(17);
    let gat = nn::GraphAttention::new(6, 32, 16, &mut init);
    let feats = Matrix::lcg(64, 6, 18);
    let mut ring = nn::Adjacency::default();
    for i in 0..64 {
        ring.push_row(0, [(i + 63) % 64, i, (i + 1) % 64]);
    }
    c.bench_function("gat_attention_64_ring", |b| {
        b.iter(|| black_box(gat.forward(black_box(&feats), black_box(&ring))))
    });
}

fn bench_topology(c: &mut Criterion) {
    let topo = Topology::balanced(16, 4).unwrap();
    c.bench_function("neighborhood_16_hosts", |b| {
        b.iter(|| black_box(neighborhood(black_box(&topo), 0, &[])))
    });
    c.bench_function("mutations_16_hosts", |b| {
        b.iter(|| black_box(mutations(black_box(&topo), &[])))
    });
    c.bench_function("tabu_search_cheap_objective", |b| {
        b.iter(|| {
            let r = tabu::search(
                topo.clone(),
                &[],
                &TabuConfig {
                    list_size: 100,
                    max_iters: 4,
                    ..Default::default()
                },
                tabu::from_fn(|t: &Topology| t.brokers().len() as f64),
            );
            black_box(r.best_score)
        })
    });
}

/// One broker failure in an `n_hosts`-host federation plus a CAROL policy
/// ready to repair it. `eval_threads` pins the evaluation worker count —
/// the same knob the `CAROL_THREADS` env var resolves to, fixed per bench
/// row so one process can sweep 1/2/4 workers without racing on the
/// environment (`None` defers to the env var).
fn repair_fixture(
    n_hosts: usize,
    n_brokers: usize,
    eval_threads: Option<usize>,
) -> (Simulator, SystemState, Carol) {
    let config = CarolConfig {
        gon: GonConfig {
            hidden: 16,
            head_layers: 2,
            gat_dim: 8,
            gat_att: 4,
            gen_lr: 5e-3,
            gen_steps: 2,
            seed: 3,
        },
        tabu: TabuConfig {
            list_size: 20,
            max_iters: 1,
            ..Default::default()
        },
        eval_threads,
        ..CarolConfig::fast_test()
    };
    repair_fixture_with(n_hosts, n_brokers, config)
}

/// The GAT inputs of one state: its graph-feature rows and its
/// topology's neighbour rows.
fn gat_inputs(state: &SystemState) -> (Matrix, Adjacency) {
    let mut features = Matrix::zeros(state.n_hosts(), GRAPH_DIM);
    let mut adjacency = Adjacency::default();
    for (h, row) in state.graph_features.iter().enumerate() {
        features.row_mut(h).copy_from_slice(row);
        adjacency.push_row(0, state.topology.gat_row(h));
    }
    (features, adjacency)
}

/// The last repair shift of the failed broker.
fn repair_shift(sim: &Simulator) -> Topology {
    let failed = sim.failed_brokers();
    neighborhood(sim.topology(), failed[0], failed)
        .pop()
        .expect("a failed broker has repairs")
}

/// [`repair_fixture`] under an arbitrary controller configuration.
fn repair_fixture_with(
    n_hosts: usize,
    n_brokers: usize,
    config: CarolConfig,
) -> (Simulator, SystemState, Carol) {
    let (sim, snapshot) = failed_broker_snapshot(n_hosts, n_brokers);
    let policy = Carol::from_model(GonModel::new(config.gon.clone()), config, 3);
    (sim, snapshot, policy)
}

/// A `SimConfig::small` federation one interval after its first broker
/// failed, and the state captured from that interval.
fn failed_broker_snapshot(n_hosts: usize, n_brokers: usize) -> (Simulator, SystemState) {
    let mut sim = Simulator::new(SimConfig::small(n_hosts, n_brokers, 3));
    let mut sched = LeastLoadScheduler::new();
    let broker = sim.topology().brokers()[0];
    sim.inject_fault(
        broker,
        FaultLoad {
            cpu: 1.0,
            ..Default::default()
        },
    );
    let report = sim.step(Vec::new(), &mut sched);
    assert!(report.failed_brokers.contains(&broker));
    let snapshot = SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &report.decision,
        &Normalizer::for_federation(n_hosts, n_brokers),
    );
    (sim, snapshot)
}

fn bench_repair(c: &mut Criterion) {
    // The full repair path — random node-shift, tabu over the node-shift
    // move set, batched GON generation per candidate chunk (stacked
    // forwards, `par` fan-out) — at the two federation sizes the
    // determinism suite gates.
    for (n_hosts, n_brokers) in [(64usize, 8usize), (128, 16)] {
        let (sim, snapshot, mut policy) = repair_fixture(n_hosts, n_brokers, None);
        c.bench_function(&format!("repair_{n_hosts}_batched"), |b| {
            b.iter(|| {
                let repaired = policy
                    .repair(black_box(&sim), black_box(&snapshot))
                    .expect("failure must produce a repair");
                black_box(repaired)
            })
        });
    }

    // The storm's repair shape: 1024 hosts in 171 LEIs, the sweep
    // controller over the sampled neighbourhood — where `gon::batch_len`
    // shrinks the scoring chunk to 2 candidates (2,048 stacked rows).
    // Archived in BENCH_PR.json, not gated.
    let mut storm = bench::scale::sweep_carol_config(3);
    storm.tabu.neighborhood = bench::scale::sampled_neighborhood(3, 1024);
    let gat = GraphAttention::new(
        GRAPH_DIM,
        storm.gon.gat_dim,
        storm.gon.gat_att,
        &mut Initializer::new(3),
    );
    let (sim, snapshot, mut policy) = repair_fixture_with(1024, 171, storm.clone());
    c.bench_function("repair_1024_sampled", |b| {
        b.iter(|| {
            let repaired = policy
                .repair(black_box(&sim), black_box(&snapshot))
                .expect("failure must produce a repair");
            black_box(repaired)
        })
    });

    // One storm iteration's scoring: 160 moves spread evenly over the
    // repair shift's neighbourhood (as a uniform sample mixes the move
    // kinds), scored against the shift's record (kept after the first
    // call). Not gated.
    let shifted = repair_shift(&sim);
    let all = enumerate_moves(&shifted, sim.failed_brokers());
    let moves: Vec<Move> = all
        .iter()
        .copied()
        .step_by(all.len() / 160)
        .take(160)
        .collect();
    let mut objective = policy.batch_objective(&snapshot);
    c.bench_function("score_moves_1024", |b| {
        b.iter(|| black_box(objective.score_moves(black_box(&shifted), black_box(&moves))))
    });

    // The graph branch of one storm candidate — a worker reassignment
    // from the failed broker's repair shift, as tabu's second iteration
    // scores — through the full GAT forward and through the delta
    // forward against the shift's reference, which is what the repair
    // runs: at the storm's shape and at 4,096 hosts in 683 LEIs, where a
    // broker mesh would be quadratic.
    for (n_hosts, n_brokers) in [(1024, 171), (4096, 683)] {
        let (sim, snapshot) = failed_broker_snapshot(n_hosts, n_brokers);
        let shifted = repair_shift(&sim);
        let reassign = enumerate_moves(&shifted, sim.failed_brokers())
            .into_iter()
            .rfind(|m| matches!(m, Move::Reassign { .. }))
            .expect("a reassignment exists");
        let candidate = apply_move(&shifted, reassign).expect("the move applies");
        let probe = snapshot.with_topology(&candidate);
        let (features, adjacency) = gat_inputs(&probe);
        let (base_features, base_adjacency) = gat_inputs(&snapshot.with_topology(&shifted));
        let reference = gat.forward(&base_features, &base_adjacency);
        let mut touched = Touched::default();
        reassign.touches(&shifted, &mut touched);
        let mut delta = GraphDelta::default();
        for &h in &touched.gat_rows {
            delta.push(h, &probe.graph_features[h], candidate.gat_row(h));
        }
        let deltas = [delta];
        c.bench_function(&format!("gat_forward_{n_hosts}"), |b| {
            b.iter(|| black_box(gat.forward(black_box(&features), black_box(&adjacency))))
        });
        c.bench_function(&format!("gat_delta_{n_hosts}"), |b| {
            b.iter(|| black_box(gat.forward_delta(black_box(&reference), black_box(&deltas))))
        });
    }

    // One 2-candidate storm chunk (`gon::batch_len(1024)`) through
    // `generate_candidates` against its parent's record, as the repair
    // scores it: two reassignments of the repair shift, which keep the
    // broker count and change a few rows, and two demotions of a parent
    // at the snapshot's broker count, which raise every row's blast term
    // (the step-0 encoder then runs whole).
    let (sim, snapshot) = failed_broker_snapshot(1024, 171);
    let failed = sim.failed_brokers();
    let two_moves = |parent: &Topology, is_kind: fn(&Move) -> bool| -> Vec<Topology> {
        enumerate_moves(parent, failed)
            .into_iter()
            .filter(is_kind)
            .rev()
            .take(2)
            .map(|m| apply_move(parent, m).expect("the move applies"))
            .collect()
    };
    let is_reassign: fn(&Move) -> bool = |m| matches!(m, Move::Reassign { .. });
    let is_demotion: fn(&Move) -> bool = |m| matches!(m, Move::Demote { .. });
    let shifted = repair_shift(&sim);
    let demoted = two_moves(&shifted, is_demotion).swap_remove(0);
    assert_eq!(demoted.brokers().len(), snapshot.topology.brokers().len());
    let mut gon = GonModel::new(storm.gon.clone());
    for (kind, parent, is_kind) in [
        ("reassign", &shifted, is_reassign),
        ("demote", &demoted, is_demotion),
    ] {
        let record = gon.record_parent(&snapshot.with_topology(parent));
        let chunk: Vec<SystemState> = two_moves(parent, is_kind)
            .iter()
            .map(|t| snapshot.with_topology(t))
            .collect();
        assert_eq!(chunk.len(), gon::batch_len(1024));
        c.bench_function(&format!("storm_chunk_{kind}"), |b| {
            b.iter(|| black_box(gon.generate_candidates(black_box(&record), black_box(&chunk))))
        });
    }

    // The CAROL_THREADS sweep at 64 hosts: the worker count pinned to
    // 1/2/4 through the same `EngineConfig` path the env var resolves,
    // one row per count so a single run prices the fan-out (README
    // "Kernels" records the crossover).
    for threads in [1usize, 2, 4] {
        let (sim, snapshot, mut policy) = repair_fixture(64, 8, Some(threads));
        c.bench_function(&format!("repair_64_batched_t{threads}"), |b| {
            b.iter(|| {
                let repaired = policy
                    .repair(black_box(&sim), black_box(&snapshot))
                    .expect("failure must produce a repair");
                black_box(repaired)
            })
        });
    }
}

fn bench_gon_batch(c: &mut Criterion) {
    // The surrogate engine's inner loop in isolation: scoring one
    // 16-candidate batch at 64 hosts, batched vs mapped-serial.
    let sim = Simulator::new(SimConfig::small(64, 8, 5));
    let snapshot = SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &SchedulingDecision::new(),
        &Normalizer::for_federation(64, 8),
    );
    let candidates: Vec<SystemState> = mutations(sim.topology(), &[])
        .into_iter()
        .take(16)
        .map(|t| snapshot.with_topology(&t))
        .collect();
    let mut model = GonModel::new(GonConfig {
        hidden: 16,
        head_layers: 2,
        gat_dim: 8,
        gat_att: 4,
        gen_lr: 5e-3,
        gen_steps: 2,
        seed: 5,
    });
    c.bench_function("gon_generate_16x64_serial", |b| {
        b.iter(|| {
            let total: f64 = candidates
                .iter()
                .map(|s| black_box(model.generate(s)).confidence)
                .sum();
            black_box(total)
        })
    });
    c.bench_function("gon_generate_16x64_batched", |b| {
        b.iter(|| {
            let total: f64 = model
                .generate_batch(black_box(&candidates))
                .iter()
                .map(|g| g.confidence)
                .sum();
            black_box(total)
        })
    });
}

fn bench_train(c: &mut Criterion) {
    // One offline-training epoch on one worker, at two shapes: the
    // paper's 16-host testbed ("tiny") and a 64-host federation.
    use gon::{train_offline, TrainConfig};
    use workloads::trace::{generate_trace, TraceConfig};

    let fixture = |label: &str, n_hosts: usize, n_brokers: usize| {
        let trace = generate_trace(
            &TraceConfig {
                intervals: 12,
                topology_period: 5,
                arrival_rate: 0.45 * n_hosts as f64,
                suite: workloads::BenchmarkSuite::DeFog,
                seed: 7,
            },
            SimConfig::small(n_hosts, n_brokers, 7),
        );
        (label.to_string(), trace)
    };
    let gon_config = |seed: u64| GonConfig {
        hidden: 16,
        head_layers: 2,
        gat_dim: 8,
        gat_att: 4,
        gen_lr: 5e-3,
        gen_steps: 10, // the fig4 training shape — the ascent dominates
        seed,
    };
    for (label, trace) in [fixture("tiny", 16, 4), fixture("64", 64, 8)] {
        let model = GonModel::new(gon_config(9));
        let config = TrainConfig {
            epochs: 1,
            minibatch: 8,
            patience: 2,
            lr: 1e-3,
            train_threads: Some(1), // price the engine, not the thread pool
            ..Default::default()
        };
        c.bench_function(&format!("train_offline_{label}_batched"), |b| {
            b.iter(|| {
                let mut m = model.clone();
                black_box(train_offline(&mut m, black_box(&trace), &config))
            })
        });
    }

    // The CAROL_THREADS sweep for the trainer at 64 hosts:
    // `train_threads` pinned to 1/2/4 — the per-row analogue of the env
    // override, so one run maps where thread fan-out pays for itself
    // (README "Kernels" records the crossover).
    let (_, trace_64) = fixture("64", 64, 8);
    for threads in [1usize, 2, 4] {
        let model = GonModel::new(gon_config(9));
        let config = TrainConfig {
            epochs: 1,
            minibatch: 8,
            patience: 2,
            lr: 1e-3,
            train_threads: Some(threads),
            ..Default::default()
        };
        c.bench_function(&format!("train_offline_64_batched_t{threads}"), |b| {
            b.iter(|| {
                let mut m = model.clone();
                black_box(train_offline(&mut m, black_box(&trace_64), &config))
            })
        });
    }
}

fn bench_pot(c: &mut Criterion) {
    c.bench_function("pot_observe", |b| {
        let mut pot = PotDetector::carol_defaults();
        for i in 0..64 {
            pot.observe(0.8 + 0.001 * (i % 10) as f64);
        }
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = 0.8 + 0.05 * ((x >> 33) as f64 / u32::MAX as f64);
            black_box(pot.observe(v))
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulator_interval_16_hosts", |b| {
        let mut sim = Simulator::new(SimConfig::testbed(3));
        let mut sched = LeastLoadScheduler::new();
        let mut workload = workloads::BagOfTasks::new(workloads::BenchmarkSuite::AIoTBench, 1.2, 3);
        let mut t = 0;
        b.iter(|| {
            let arrivals = workload.sample_interval(t);
            t += 1;
            black_box(sim.step(arrivals, &mut sched).energy_wh)
        })
    });
}

criterion_group!(
    benches,
    bench_gon,
    bench_gon_batch,
    bench_matmul,
    bench_kernels,
    bench_topology,
    bench_repair,
    bench_train,
    bench_pot,
    bench_simulator
);
criterion_main!(benches);
