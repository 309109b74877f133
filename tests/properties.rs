//! Property-based integration tests (proptest): invariants that must hold
//! for arbitrary topology-mutation sequences, workload draws, fault
//! patterns and recorded traces.

use carol::nodeshift::{broker_bounds, mutations, neighborhood};
use carol::runner::{run_experiment, run_experiment_full, ExperimentConfig};
use carol::tabu::{search, TabuConfig};
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::SystemState;
use edgesim::{FaultLoad, NodeRole, SimConfig, Simulator, TaskStatus, Topology};
use gon::GonModel;
use proptest::prelude::*;
use workloads::replay::{export_jsonl, load_jsonl, record_suite, ReplayWorkload, TraceError};
use workloads::trace::{generate_trace, TraceConfig};
use workloads::{BagOfTasks, BenchmarkSuite};

/// `batch_size` captured states of one balanced `n_hosts`-host
/// federation; host `h` of state `b` carries load `loads[(b + h) % len]`.
fn federation_states(
    batch_size: usize,
    n_hosts: usize,
    n_brokers: usize,
    loads: &[f64],
) -> Vec<SystemState> {
    use edgesim::scheduler::SchedulingDecision;
    use edgesim::state::Normalizer;
    use edgesim::{HostSpec, HostState};

    let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
    let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
    (0..batch_size)
        .map(|b| {
            let mut host_states = vec![HostState::default(); n_hosts];
            for (h, st) in host_states.iter_mut().enumerate() {
                let load = loads[(b + h) % loads.len()];
                st.cpu = load;
                st.ram = (load * 0.8).min(1.0);
                st.energy_wh = 0.3 * load;
            }
            SystemState::capture(
                &topo,
                &specs,
                &host_states,
                &[],
                &SchedulingDecision::new(),
                &Normalizer::for_federation(n_hosts, n_brokers),
            )
        })
        .collect()
}

/// The small GON of the batch ≡ mapped properties.
fn small_gon(gen_steps: usize) -> GonModel {
    let mut config = carol::carol::CarolConfig::fast_test().gon;
    (config.hidden, config.gen_steps, config.seed) = (10, gen_steps, 13);
    GonModel::new(config)
}

/// One batched adversarial training step over `states` on `threads`
/// workers equals the serial step mapped over them: per-sample losses,
/// accumulated parameter gradients, and RNG stream consumption. This is
/// the contract the batched trainer rests on.
fn step_batch_equals_mapped_steps(
    states: &[SystemState],
    gen_steps: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let grad_bits = |m: &mut GonModel| -> Vec<u64> {
        let params = m.params_mut();
        params
            .iter()
            .flat_map(|p| p.grad.data().iter().map(|g| g.to_bits()))
            .collect()
    };
    let (mut serial_model, mut serial_rng) = (small_gon(gen_steps), StdRng::seed_from_u64(21));
    let serial_losses: Vec<u64> = states
        .iter()
        .map(|s| gon::training::adversarial_step(&mut serial_model, s, &mut serial_rng).to_bits())
        .collect();
    let (mut batched_model, mut batched_rng) = (small_gon(gen_steps), StdRng::seed_from_u64(21));
    let refs: Vec<&SystemState> = states.iter().collect();
    let batched_losses = batched_model.adversarial_step_batch(&refs, &mut batched_rng, threads);
    let batched_losses: Vec<u64> = batched_losses.iter().map(|l| l.to_bits()).collect();
    prop_assert_eq!(serial_losses, batched_losses);
    prop_assert_eq!(grad_bits(&mut serial_model), grad_bits(&mut batched_model));
    // Both engines must have consumed the RNG stream identically.
    prop_assert_eq!(serial_rng.gen::<u64>(), batched_rng.gen::<u64>());
    Ok(())
}

/// The trainer's row-budget chunk boundary, as one more input of
/// `adversarial_step_batch_equals_mapped_steps_bitwise`: at 256 hosts
/// `gon::batch_len` packs 8 fakes per ascent chunk, so a 9-state DeFog
/// minibatch converges as chunks of 8 + 1, on one worker and on two.
#[test]
fn row_budget_training_chunks_are_bit_identical_at_256_hosts() {
    let trace = generate_trace(
        &TraceConfig {
            intervals: 9,
            topology_period: 5,
            arrival_rate: 0.45 * 256.0,
            suite: BenchmarkSuite::DeFog,
            seed: 3,
        },
        SimConfig::small(256, 32, 3),
    );
    assert!(trace.len() == 9 && trace.iter().all(|s| s.n_hosts() == 256));
    assert_eq!(gon::batch_len(256), 8, "256 hosts must chunk by 8");
    for threads in [1, 2] {
        step_batch_equals_mapped_steps(&trace, 3, threads)
            .unwrap_or_else(|e| panic!("{threads} workers: {e:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of node-shift mutations keeps the topology valid and
    /// within the broker-count band.
    #[test]
    fn mutation_sequences_preserve_invariants(
        n_hosts in 4usize..20,
        n_brokers in 1usize..6,
        moves in proptest::collection::vec(0usize..64, 1..30),
    ) {
        prop_assume!(n_brokers <= n_hosts / 2);
        let mut topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        for pick in moves {
            let options = mutations(&topo, &[]);
            if options.is_empty() {
                break;
            }
            topo = options[pick % options.len()].clone();
            topo.validate().unwrap();
            // `Eq` compares the membership index, so this catches drift.
            prop_assert_eq!(&topo, &Topology::new(topo.roles().to_vec()).unwrap());
            let (lo, hi) = broker_bounds(&topo);
            let b = topo.brokers().len();
            prop_assert!(b >= lo.min(b) && b <= hi.max(b));
            // Every worker has exactly one broker, and it is a broker.
            for w in topo.workers() {
                let broker = topo.broker_of(w);
                prop_assert!(matches!(topo.role(broker), NodeRole::Broker));
            }
        }
    }

    /// Repairing any broker with any banned set yields only valid
    /// topologies that demote the failed broker.
    #[test]
    fn neighborhood_always_yields_valid_repairs(
        n_hosts in 4usize..16,
        n_brokers in 2usize..5,
        banned_mask in 0u16..256,
    ) {
        prop_assume!(n_brokers < n_hosts / 2);
        let topo = Topology::balanced(n_hosts, n_brokers).unwrap();
        let failed = topo.brokers()[0];
        let banned: Vec<usize> = (0..n_hosts)
            .filter(|&h| h != failed && (banned_mask >> (h % 16)) & 1 == 1)
            .collect();
        for cand in neighborhood(&topo, failed, &banned) {
            cand.validate().unwrap();
            prop_assert_eq!(&cand, &Topology::new(cand.roles().to_vec()).unwrap());
            let demoted = matches!(cand.role(failed), NodeRole::Worker { .. });
            prop_assert!(demoted, "failed broker must be demoted");
            for &b in &banned {
                // Banned hosts are never *newly promoted*; ones that were
                // already brokers keep their role until their own repair
                // pass handles them (Algorithm 2 iterates failed brokers).
                let was_worker = matches!(topo.role(b), NodeRole::Worker { .. });
                let now_broker = matches!(cand.role(b), NodeRole::Broker);
                prop_assert!(
                    !(was_worker && now_broker),
                    "banned worker {b} was promoted"
                );
            }
        }
    }

    /// Batched surrogate scoring is bit-identical to mapping the serial
    /// scorer, for random batch sizes (0 and 1 included), host counts and
    /// load patterns — the contract the batched repair engine rests on.
    #[test]
    fn score_batch_equals_mapped_score_bitwise(
        batch_size in 0usize..8,
        n_hosts in 4usize..12,
        n_brokers in 1usize..4,
        loads in proptest::collection::vec(0.0f64..1.0, 8),
        gen_steps in 0usize..4,
    ) {
        prop_assume!(n_brokers <= n_hosts / 2);
        let states = federation_states(batch_size, n_hosts, n_brokers, &loads);
        let mut model = small_gon(gen_steps);

        // score_batch ≡ mapped score, bit for bit.
        let serial: Vec<f64> = states.iter().map(|s| model.score(s)).collect();
        let batched = model.score_batch(&states);
        prop_assert_eq!(serial.len(), batched.len());
        for (a, b) in serial.iter().zip(&batched) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // generate_batch ≡ mapped generate (covers the eq.-1 ascent with
        // per-candidate convergence, including gen_steps == 0).
        let serial: Vec<gon::Generated> = states.iter().map(|s| model.generate(s)).collect();
        let batched = model.generate_batch(&states);
        for (a, b) in serial.iter().zip(&batched) {
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            prop_assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.metrics_flat.iter().zip(&b.metrics_flat) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The batched adversarial training step is bit-identical to mapping
    /// the serial step over the minibatch — per-sample losses, accumulated
    /// parameter gradients, and RNG stream consumption — for random batch
    /// sizes (0 and 1 included), host counts, load patterns and worker
    /// counts. This is the contract the batched trainer rests on.
    #[test]
    fn adversarial_step_batch_equals_mapped_steps_bitwise(
        // The upper bound crosses the 16-sample fake-ascent chunk size so
        // multi-chunk fan-out is exercised, not just the 1-chunk path.
        batch_size in 0usize..20,
        n_hosts in 4usize..10,
        n_brokers in 1usize..4,
        loads in proptest::collection::vec(0.0f64..1.0, 8),
        gen_steps in 0usize..4,
        threads in 1usize..4,
    ) {
        prop_assume!(n_brokers <= n_hosts / 2);
        let states = federation_states(batch_size, n_hosts, n_brokers, &loads);
        step_batch_equals_mapped_steps(&states, gen_steps, threads)?;
    }

    /// Tabu search never returns something worse than its start, for any
    /// random (but deterministic) objective.
    #[test]
    fn tabu_never_regresses(
        n_hosts in 6usize..14,
        n_brokers in 2usize..4,
        weights in proptest::collection::vec(0.0f64..1.0, 24),
    ) {
        prop_assume!(n_brokers <= n_hosts / 2);
        let start = Topology::balanced(n_hosts, n_brokers).unwrap();
        let objective = |t: &Topology| -> f64 {
            t.roles()
                .iter()
                .enumerate()
                .map(|(i, role)| {
                    let s = match *role {
                        NodeRole::Broker => usize::MAX,
                        NodeRole::Worker { broker } => broker,
                    };
                    let w = weights[i % weights.len()];
                    w * ((s % 97) as f64)
                })
                .sum()
        };
        let start_score = objective(&start);
        let result = search(
            start,
            &[],
            &TabuConfig { list_size: 16, max_iters: 4 , ..Default::default()},
            carol::tabu::from_fn(objective),
        );
        prop_assert!(result.best_score <= start_score + 1e-12);
        result.best.validate().unwrap();
    }

    /// Simulator conservation laws: tasks are never lost, energy is
    /// positive and finite, violation counts never exceed completions —
    /// under arbitrary (bounded) workloads and fault patterns.
    #[test]
    fn simulator_conservation(
        seed in 0u64..500,
        rate in 0.0f64..4.0,
        fault_host in 0usize..8,
        fault_interval in 0usize..10,
    ) {
        let mut sim = Simulator::new(SimConfig::small(8, 2, seed));
        let mut sched = LeastLoadScheduler::new();
        let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, rate, seed);
        let mut admitted = 0usize;
        let mut last_completed = 0usize;
        for t in 0..12 {
            if t == fault_interval {
                sim.inject_fault(fault_host, FaultLoad { ram: 1.1, ..Default::default() });
            }
            let report = sim.step(workload.sample_interval(t), &mut sched);
            admitted += report.arrivals;
            last_completed = report.completed.len();
            prop_assert!(report.energy_wh.is_finite() && report.energy_wh > 0.0);
        }
        // Every admitted task is either counted complete or still stored;
        // the store's completed tasks are exactly last interval's.
        let done = sim
            .tasks()
            .iter()
            .filter(|t| t.status == TaskStatus::Completed)
            .count();
        prop_assert_eq!(admitted, sim.completed_count() + sim.tasks().len() - done);
        prop_assert_eq!(done, last_completed);
        prop_assert!(sim.violation_count() <= sim.completed_count());
        prop_assert!(sim.total_energy_wh().is_finite());
        // Response times are positive and recorded once per completion.
        prop_assert_eq!(sim.response_times().len(), sim.completed_count());
        prop_assert!(sim.response_times().iter().all(|&r| r > 0.0));
    }

    /// The POT detector never alarms during calibration and always keeps a
    /// finite threshold afterwards, for arbitrary bounded streams.
    #[test]
    fn pot_detector_is_total(
        values in proptest::collection::vec(0.0f64..1.0, 40..120),
    ) {
        let mut pot = carol::PotDetector::new(0.02, 0.1, 16, 8);
        for (i, &v) in values.iter().enumerate() {
            let alarm = pot.observe(v);
            if i < 16 {
                prop_assert!(!alarm, "alarm during calibration at {i}");
            }
            if let Some(z) = pot.threshold() {
                prop_assert!(z.is_finite());
            }
        }
    }

    /// Workload generators only emit tasks from their suite with positive
    /// resource demands.
    #[test]
    fn workload_tasks_are_well_formed(seed in 0u64..1000, rate in 0.1f64..6.0) {
        let mut wl = BagOfTasks::new(BenchmarkSuite::DeFog, rate, seed);
        let names = BenchmarkSuite::DeFog.app_names();
        for t in 0..10 {
            for task in wl.sample_interval(t) {
                prop_assert!(names.contains(&task.app));
                prop_assert!(task.cpu_work > 0.0);
                prop_assert!(task.ram_mb > 0.0);
                prop_assert!(task.deadline_s > 0.0);
            }
        }
    }

    /// Welford online statistics agree with a two-pass batch recompute for
    /// arbitrary bounded streams: mean, sample variance, extrema, count.
    #[test]
    fn online_stats_match_batch_recompute(
        values in proptest::collection::vec(-1.0e3f64..1.0e3, 1..80),
    ) {
        let mut online = metrics::OnlineStats::new();
        for &v in &values {
            online.push(v);
        }
        let n = values.len() as f64;
        let batch_mean = values.iter().sum::<f64>() / n;
        prop_assert!(
            (online.mean() - batch_mean).abs() <= 1e-9 * (1.0 + batch_mean.abs()),
            "mean diverged: online {} vs batch {}",
            online.mean(),
            batch_mean
        );
        if values.len() >= 2 {
            let batch_var = values
                .iter()
                .map(|v| (v - batch_mean) * (v - batch_mean))
                .sum::<f64>()
                / (n - 1.0);
            prop_assert!(
                (online.variance() - batch_var).abs() <= 1e-6 * (1.0 + batch_var.abs()),
                "variance diverged: online {} vs batch {}",
                online.variance(),
                batch_var
            );
        } else {
            prop_assert_eq!(online.variance(), 0.0);
        }
        let batch_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let batch_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(online.min(), Some(batch_min));
        prop_assert_eq!(online.max(), Some(batch_max));
        prop_assert_eq!(online.count(), values.len() as u64);
    }

    /// The parallel Welford merge of a split stream equals processing the
    /// stream whole (the property `run_seeds` shard-combining relies on).
    #[test]
    fn online_stats_merge_equals_single_pass(
        values in proptest::collection::vec(-50.0f64..50.0, 2..60),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((values.len() as f64) * split_frac) as usize;
        let mut whole = metrics::OnlineStats::new();
        for &v in &values {
            whole.push(v);
        }
        let mut left = metrics::OnlineStats::new();
        let mut right = metrics::OnlineStats::new();
        for &v in &values[..split] {
            left.push(v);
        }
        for &v in &values[split..] {
            right.push(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!(
            (left.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + whole.mean().abs()),
            "merged mean {} vs single-pass {}",
            left.mean(),
            whole.mean()
        );
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                <= 1e-6 * (1.0 + whole.variance().abs()),
            "merged variance {} vs single-pass {}",
            left.variance(),
            whole.variance()
        );
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Matrix multiplication produces the right shape, is associative (up
    /// to floating-point tolerance) and has the identity as neutral
    /// element, on random small matrices.
    #[test]
    fn matmul_shape_identity_and_associativity(
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        p in 1usize..6,
        data in proptest::collection::vec(-2.0f64..2.0, 3 * 36),
    ) {
        use nn::Matrix;
        let a = Matrix::from_vec(m, k, data[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, data[36..36 + k * n].to_vec());
        let c = Matrix::from_vec(n, p, data[72..72 + n * p].to_vec());

        let ab = a.matmul(&b);
        prop_assert_eq!(ab.shape(), (m, n));

        // Identity neutrality, left and right.
        let ai = a.matmul(&Matrix::identity(k));
        let ia = Matrix::identity(m).matmul(&a);
        for (x, y) in ai.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() <= 1e-12, "A·I diverged: {} vs {}", x, y);
        }
        for (x, y) in ia.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() <= 1e-12, "I·A diverged: {} vs {}", x, y);
        }

        // Associativity: (A·B)·C == A·(B·C) within accumulation tolerance.
        let left = ab.matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert_eq!(left.shape(), (m, p));
        prop_assert_eq!(left.shape(), right.shape());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                "associativity violated: {} vs {}",
                x,
                y
            );
        }
    }

    /// JSONL trace export → load reproduces every event bit-identically,
    /// for arbitrary recorded suites, rates and horizons (the archive
    /// contract of the replay subsystem).
    #[test]
    fn trace_export_load_round_trips_bit_identically(
        seed in 0u64..1_000,
        rate in 0.2f64..6.0,
        intervals in 1usize..16,
        aiot in 0u8..2,
    ) {
        let suite = if aiot == 1 { BenchmarkSuite::AIoTBench } else { BenchmarkSuite::DeFog };
        let events = record_suite(suite, rate, seed, intervals);
        let loaded = load_jsonl(&export_jsonl(&events));
        prop_assert!(loaded.is_ok(), "loader rejected its own export: {:?}", loaded.err());
        let loaded = loaded.unwrap();
        prop_assert_eq!(events.len(), loaded.len());
        for (a, b) in events.iter().zip(&loaded) {
            prop_assert_eq!(a.interval, b.interval);
            prop_assert_eq!(&a.app, &b.app);
            prop_assert_eq!(a.arrivals, b.arrivals);
            prop_assert_eq!(a.cpu_ms.to_bits(), b.cpu_ms.to_bits());
            prop_assert_eq!(a.mem_mb.to_bits(), b.mem_mb.to_bits());
            prop_assert_eq!(a.net_kb.to_bits(), b.net_kb.to_bits());
            prop_assert_eq!(a.deadline_ms.to_bits(), b.deadline_ms.to_bits());
        }
    }

    /// Corrupting any resource column of any event to a negative value is
    /// rejected with `NegativeField` naming exactly that column.
    #[test]
    fn loader_rejects_negative_fields_with_the_right_variant(
        seed in 0u64..500,
        victim_frac in 0.0f64..1.0,
        column in 0usize..4,
        magnitude in 0.1f64..1.0e6,
    ) {
        let mut events = record_suite(BenchmarkSuite::DeFog, 3.0, seed, 6);
        prop_assume!(!events.is_empty());
        let victim = ((events.len() - 1) as f64 * victim_frac) as usize;
        let expected_field = ["cpu_ms", "mem_mb", "net_kb", "deadline_ms"][column];
        {
            let e = &mut events[victim];
            *[&mut e.cpu_ms, &mut e.mem_mb, &mut e.net_kb, &mut e.deadline_ms][column] =
                -magnitude;
        }
        match load_jsonl(&export_jsonl(&events)) {
            Err(TraceError::NegativeField { line, field }) => {
                prop_assert_eq!(field, expected_field);
                // Header occupies line 1; events start at line 2.
                prop_assert_eq!(line, victim + 2);
            }
            other => prop_assert!(false, "expected NegativeField, got {:?}", other),
        }
    }

    /// Any event whose interval precedes its predecessor's is rejected
    /// with `OutOfOrder` carrying both intervals.
    #[test]
    fn loader_rejects_out_of_order_events(
        seed in 0u64..500,
        jump in 1usize..50,
    ) {
        let mut events = record_suite(BenchmarkSuite::AIoTBench, 4.0, seed, 8);
        prop_assume!(events.len() >= 2);
        let last = events.len() - 1;
        // Push the predecessor strictly past its successor, whatever the
        // recorded gap between them was.
        events[last - 1].interval = events[last].interval + jump;
        let expected_prev = events[last - 1].interval;
        match load_jsonl(&export_jsonl(&events)) {
            Err(TraceError::OutOfOrder { interval, previous, .. }) => {
                prop_assert_eq!(previous, expected_prev);
                prop_assert!(interval < previous);
            }
            other => prop_assert!(false, "expected OutOfOrder, got {:?}", other),
        }
    }

    /// A replayed export of a synthetic run reproduces the original run's
    /// completed-task count — under the full experiment loop, fault
    /// injection included (the fault stream is a function of the config
    /// seed, so both runs face identical attacks).
    #[test]
    fn replay_reproduces_completed_task_count(seed in 0u64..12) {
        let config = ExperimentConfig {
            intervals: 12,
            ..ExperimentConfig::small(seed)
        };
        let mut original_policy = baselines::Lbos::new(seed);
        let original = run_experiment(&mut original_policy, &config);

        // Export the exact arrival stream the original sampled (same
        // derived workload seed), round-trip it through JSONL, replay.
        let events = record_suite(config.suite, config.arrival_rate, config.seed ^ 0x5754, 12);
        let loaded = load_jsonl(&export_jsonl(&events)).unwrap();
        let mut replay = ReplayWorkload::new(&loaded);
        let mut sched = LeastLoadScheduler::new();
        let mut replay_policy = baselines::Lbos::new(seed);
        let replayed = run_experiment_full(&mut replay_policy, &config, &mut replay, &mut sched);

        prop_assert_eq!(original.completed, replayed.completed);
        prop_assert_eq!(original.broker_failures, replayed.broker_failures);
        prop_assert_eq!(original.response_times_s.len(), replayed.response_times_s.len());
    }

    /// Transposition inverts itself and distributes over products as
    /// `(A·B)ᵀ = Bᵀ·Aᵀ` — exactly, since both sides compute identical
    /// dot products over identical operand orders.
    #[test]
    fn transpose_involution_and_product_rule(
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        data in proptest::collection::vec(-2.0f64..2.0, 2 * 36),
    ) {
        use nn::Matrix;
        let a = Matrix::from_vec(m, k, data[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, data[36..36 + k * n].to_vec());

        let att = a.transpose().transpose();
        prop_assert_eq!(att.shape(), a.shape());
        prop_assert_eq!(att.data(), a.data());

        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert_eq!(lhs.shape(), (n, m));
        prop_assert_eq!(lhs.shape(), rhs.shape());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                "(AB)ᵀ != BᵀAᵀ: {} vs {}",
                x,
                y
            );
        }
    }

    /// Rack partitions never orphan a task silently: for any partition
    /// rate/duration and seed, every arrival stays tracked by the
    /// simulator, and after each step no task is left `Running` on a
    /// host that was failed during that interval — stranded tasks are
    /// restarted (`Pending`) per the paper's worker-failure rule.
    #[test]
    fn partitions_never_orphan_tasks(
        seed in 0u64..500,
        rate in 0.1f64..0.6,
        duration in 1usize..4,
    ) {
        use faults::{FaultInjector, FaultModel, TargetPolicy};
        let mut sim = Simulator::new(SimConfig::small(16, 4, seed));
        let mut sched = LeastLoadScheduler::new();
        let mut bag = BagOfTasks::new(BenchmarkSuite::AIoTBench, 7.2, seed);
        let mut injector = FaultInjector::with_model(
            1.0,
            TargetPolicy::AnyHost,
            FaultModel::Partition {
                rack_size: 8,
                rate,
                duration,
            },
            seed ^ 0x4654,
        );
        let mut arrived = 0usize;
        for interval in 0..12 {
            injector.inject(interval, &mut sim);
            let report = sim.step(bag.sample_interval(interval), &mut sched);
            arrived += report.arrivals;
            // Conservation: every arrival is counted complete or stored,
            // and the store's completed tasks are exactly this interval's.
            let done = sim
                .tasks()
                .iter()
                .filter(|t| t.status == TaskStatus::Completed)
                .count();
            prop_assert_eq!(arrived, sim.completed_count() + sim.tasks().len() - done);
            prop_assert_eq!(done, report.completed.len());
            for task in sim.tasks() {
                if task.status == TaskStatus::Running {
                    let h = task.host.expect("running tasks are placed");
                    prop_assert!(
                        !report.failed_hosts.contains(&h),
                        "task {} left running on failed host {}",
                        task.id,
                        h
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both kernel backends (the auto-resolved one and the baseline-ISA
    /// build) are bit-identical to a naive per-element scalar oracle —
    /// one ascending-k chain per output, zero left operands skipped — for
    /// arbitrary matmul shapes and data: remainder rows and columns,
    /// k-block boundaries and the semantic zero-skip included. Zeros in
    /// the left operand fall periodically and under a random per-element
    /// mask; the right operand carries occasional ±∞ and NaN, so a zero
    /// `a` meets a non-finite `b` and the kernel's skipping re-run must
    /// reproduce the oracle's skip.
    #[test]
    fn simd_matmul_is_bit_identical_to_scalar_oracle(
        m in 1usize..14,
        k in 1usize..70,
        n in 1usize..24,
        seed in 0u64..1_000_000,
        zero_every in 1usize..7,
        zero_pct in 0u64..60,
        special_pct in 0u64..8,
    ) {
        use nn::kernel::{self, Backend};
        use nn::Matrix;

        // splitmix64 of (seed, stream, index): the masks' coin flips.
        let coin = |stream: u64, i: usize| {
            let mut z = (seed ^ stream.rotate_left(32))
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let sprinkle = |x: &mut Matrix, stream: u64| {
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                let c = coin(stream, i);
                if c % 100 < special_pct {
                    *v = specials[(c / 100 % 3) as usize];
                }
            }
        };
        let mut a = Matrix::lcg(m, k, seed);
        let mut b = Matrix::lcg(k, n, seed ^ 0x5eed);
        sprinkle(&mut b, 2);
        // Sprinkle exact zeros into the left operand: the kernels skip
        // zero multiplicands *semantically* (0·x never enters the
        // accumulator chain), so the skip must fire exactly where the
        // oracle's does.
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % zero_every == 0 || coin(1, i) % 100 < zero_pct {
                *v = 0.0;
            }
        }
        let chain = |x: &[f64], y: &mut dyn Iterator<Item = f64>| {
            let mut acc = 0.0f64;
            for (&xv, yv) in x.iter().zip(y) {
                if xv != 0.0 {
                    acc += xv * yv;
                }
            }
            acc
        };

        let mut want = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] = chain(a.row(i), &mut (0..k).map(|t| b.data()[t * n + j]));
            }
        }

        // A NaN result's sign and payload are unspecified (the compiler
        // may fold or reorder the operations that make one), so an
        // output the oracle gives as NaN must be NaN, and every other
        // output must match bit for bit.
        for backend in [kernel::active(), Backend::Scalar] {
            let mut got = vec![0.0; m * n];
            kernel::matmul_into_on(backend, &mut got, a.data(), b.data(), m, k, n);
            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    if x.is_nan() { y.is_nan() } else { x.to_bits() == y.to_bits() },
                    "matmul element {} diverged on {} ({} vs {})",
                    i, backend.name(), x, y
                );
            }
        }
    }

    /// The elementwise eq.-1 ascent kernel (step, clamp to [0, 1])
    /// equals the per-element `f64::clamp` expression bitwise for
    /// arbitrary values, step sizes and lengths.
    #[test]
    fn ascent_update_matches_per_element_clamp(
        v in proptest::collection::vec(-2.0f64..3.0, 0..40),
        lr in -1.0e-1f64..1.0e-1,
        seed in 0u64..1_000_000,
    ) {
        let d: Vec<f64> = nn::Matrix::lcg(1, v.len().max(1), seed).data()[..v.len()].to_vec();
        let want: Vec<f64> = v
            .iter()
            .zip(&d)
            .map(|(&x, &dx)| (x + dx * lr).clamp(0.0, 1.0))
            .collect();
        let mut got = v;
        nn::kernel::ascent_update(&mut got, &d, lr);
        for (x, y) in want.iter().zip(&got) {
            prop_assert!(x.to_bits() == y.to_bits(), "ascent diverged: {} vs {}", x, y);
        }
    }
}
