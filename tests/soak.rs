//! Long-horizon soak and trajectory-pin gates.
//!
//! The simulator once kept every task it ever admitted and rescanned that
//! archive every interval, so per-interval cost grew linearly with the
//! horizon — a 5000-interval run spent most of its time iterating
//! completed tasks. It now stores only unretired tasks. These tests pin
//! the fix (per-interval cost stays flat, the task store stays bounded
//! while arrivals grow with the horizon); pin the bit-exact trajectories
//! of 64-, 256- and 1,024-host runs of the full phase pipeline, harvested
//! from the sharded engine the serial step replaced (it had been shown
//! equal to serial at every worker count); and gate the multi-stream
//! `FederationSet` daemon: serving two federations from one process must
//! stay flat-cost with per-federation checkpoints that restore.

use edgesim::scheduler::LeastLoadScheduler;
use edgesim::{FaultLoad, SimConfig, Simulator};
use std::time::Instant;
use workloads::{BagOfTasks, BenchmarkSuite};

/// Drives `sim` for `intervals` steps with a seeded arrival stream and a
/// rotating periodic fault, returning per-step wall-clock in nanoseconds.
fn drive(sim: &mut Simulator, intervals: usize, arrival_rate: f64, workload_seed: u64) -> Vec<u64> {
    let n = sim.host_states().len();
    let mut sched = LeastLoadScheduler::new();
    let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, arrival_rate, workload_seed);
    let mut step_ns = Vec::with_capacity(intervals);
    for t in 0..intervals {
        if t % 7 == 3 {
            sim.inject_fault(
                t % n,
                FaultLoad {
                    cpu: 1.0,
                    ..Default::default()
                },
            );
        }
        let arrivals = workload.sample_interval(t);
        let start = Instant::now();
        sim.step(arrivals, &mut sched);
        step_ns.push(start.elapsed().as_nanos() as u64);
    }
    step_ns
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// 5000 intervals on a small federation: arrivals grow into the
/// thousands while the task store stays bounded, and the median per-interval
/// step cost of the last decile stays within a small factor of the first
/// decile's. Pre-ledger, the last decile was an order of magnitude slower
/// — the whole-archive rescans priced the horizon, not the load.
#[test]
fn five_thousand_interval_soak_keeps_step_cost_flat() {
    let intervals = 5000;
    let mut sim = Simulator::new(SimConfig::small(8, 2, 5));
    let mut max_live = 0usize;
    let mut arrived = 0usize;

    // Interleave the drive with store sampling: reuse `drive`'s shape but
    // sample the task store's length as the horizon grows.
    let n = sim.host_states().len();
    let mut sched = LeastLoadScheduler::new();
    let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, 2.0, 99);
    let mut step_ns = Vec::with_capacity(intervals);
    for t in 0..intervals {
        if t % 7 == 3 {
            sim.inject_fault(
                t % n,
                FaultLoad {
                    cpu: 1.0,
                    ..Default::default()
                },
            );
        }
        let arrivals = workload.sample_interval(t);
        let start = Instant::now();
        let report = sim.step(arrivals, &mut sched);
        step_ns.push(start.elapsed().as_nanos() as u64);
        arrived += report.arrivals;
        max_live = max_live.max(sim.tasks().len());
    }

    assert!(
        arrived > 5_000,
        "arrivals must grow with the horizon (got {arrived})"
    );
    assert!(
        sim.completed_count() > 4_000,
        "the run must complete tasks (got {})",
        sim.completed_count()
    );
    assert!(
        max_live < arrived / 4,
        "task store ({max_live}) must stay far below the arrivals ({arrived})"
    );

    let decile = intervals / 10;
    let first = median(step_ns[..decile].to_vec());
    let last = median(step_ns[intervals - decile..].to_vec());
    // Generous bound (4× + absolute slack for timer/scheduler noise):
    // the pre-ledger code fails it by an order of magnitude, a flat
    // O(live) step passes easily.
    assert!(
        last <= first.saturating_mul(4) + 100_000,
        "per-interval cost grew with the horizon: first-decile median \
         {first} ns, last-decile median {last} ns"
    );
}

/// Like [`drive`] but fault-heavy: every other interval, three rotating
/// hosts saturate at once, so the failure-determination phase has real
/// work (saturation scans, restarts, repair bookkeeping) every step.
fn drive_fault_heavy(sim: &mut Simulator, intervals: usize, arrival_rate: f64, workload_seed: u64) {
    let n = sim.host_states().len();
    let mut sched = LeastLoadScheduler::new();
    let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, arrival_rate, workload_seed);
    for t in 0..intervals {
        if t % 2 == 0 {
            for offset in [0, n / 3, 2 * n / 3] {
                sim.inject_fault(
                    (t + offset) % n,
                    FaultLoad {
                        cpu: 1.0,
                        ..Default::default()
                    },
                );
            }
        }
        let arrivals = workload.sample_interval(t);
        sim.step(arrivals, &mut sched);
    }
}

/// Full-accounting fingerprint of a finished run, bit-exact.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: usize,
    energy_bits: u64,
    violation_rate_bits: u64,
    /// FNV-1a over the bit patterns of every per-task response time, in
    /// completion order.
    response_hash: u64,
    /// FNV-1a over every final host state field (utilisations, energy,
    /// active-task count, failed flag), in host order.
    state_hash: u64,
}

fn fnv1a(values: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn fingerprint(sim: &Simulator) -> Fingerprint {
    let state_bits = sim.host_states().iter().flat_map(|s| {
        [
            s.cpu.to_bits(),
            s.ram.to_bits(),
            s.disk.to_bits(),
            s.net.to_bits(),
            s.swap.to_bits(),
            s.io_wait.to_bits(),
            s.energy_wh.to_bits(),
            s.active_tasks as u64,
            u64::from(s.failed),
        ]
    });
    Fingerprint {
        completed: sim.completed_count(),
        energy_bits: sim.total_energy_wh().to_bits(),
        violation_rate_bits: sim.violation_rate().to_bits(),
        response_hash: fnv1a(sim.response_times().iter().map(|t| t.to_bits())),
        state_hash: fnv1a(state_bits),
    }
}

/// 64 hosts under the rotating single-host fault: completions, energy,
/// SLO accounting, response-time stream and final per-host states.
#[test]
fn host_stepping_trajectory_is_pinned_at_64_hosts() {
    let mut sim = Simulator::new(SimConfig::small(64, 8, 11));
    drive(&mut sim, 40, 0.45 * 64.0, 17);
    assert_eq!(
        fingerprint(&sim),
        Fingerprint {
            completed: 1116,
            energy_bits: 0x4083_50ac_78ae_a7f5,
            violation_rate_bits: 0x3fdb_a43e_64ee_90fa,
            response_hash: 0x4457_7da5_cf16_755a,
            state_hash: 0x76be_6c01_0f9e_18fc,
        }
    );
}

/// 256 hosts with three saturated hosts every other interval, so failure
/// determination, restarts and broker stalls have real work every step.
#[test]
fn fault_heavy_trajectory_is_pinned_at_256_hosts() {
    let mut sim = Simulator::new(SimConfig::small(256, 16, 23));
    drive_fault_heavy(&mut sim, 24, 0.45 * 256.0, 31);
    assert_eq!(
        fingerprint(&sim),
        Fingerprint {
            completed: 2588,
            energy_bits: 0x409e_b4c9_d45a_34ae,
            violation_rate_bits: 0x3fee_f2f1_5c31_1039,
            response_hash: 0x3ddb_a9a4_7fbf_1752,
            state_hash: 0x4adb_dd5a_d44c_4ba4,
        }
    );
}

/// The fault-heavy drive at 1,024 hosts.
#[test]
fn fault_heavy_trajectory_is_pinned_at_1024_hosts() {
    let mut sim = Simulator::new(SimConfig::small(1024, 64, 5));
    drive_fault_heavy(&mut sim, 12, 0.45 * 1024.0, 9);
    assert_eq!(
        fingerprint(&sim),
        Fingerprint {
            completed: 5206,
            energy_bits: 0x40af_4cf3_e6c3_4f45,
            violation_rate_bits: 0x3fee_a43d_c338_8cd6,
            response_hash: 0x63a6_4813_7bae_0f3a,
            state_hash: 0xdf61_0f1e_4291_4184,
        }
    );
}

/// Multi-stream soak for the `FederationSet` daemon: two federations,
/// each streaming its own replayed trace through its own engine in one
/// process. Gates two properties: (a) per-interval serve cost stays
/// flat as the horizon grows 5× (the live-task ledger keeps the decide
/// cycle O(live), not O(archive)); (b) each federation's on-disk
/// checkpoint round-trips through JSON into a restored controller at
/// the interval the report claims.
#[test]
fn two_federation_soak_keeps_step_cost_flat_and_checkpoints_round_trip() {
    use carol::{
        Carol, CarolCheckpoint, CheckpointSpec, ExperimentSpec, FederationSet, ScenarioSpec,
        ServeOptions,
    };
    use gon::TrainConfig;
    use std::io::Cursor;
    use workloads::replay::{export_jsonl, record_suite};

    let serve_set = |intervals: usize, ckpt_paths: [Option<String>; 2]| {
        let mut specs = Vec::new();
        let mut readers = Vec::new();
        for (seed, path) in [41u64, 43].into_iter().zip(ckpt_paths) {
            let events = record_suite(BenchmarkSuite::AIoTBench, 2.5, seed, intervals);
            readers.push(Cursor::new(export_jsonl(&events).into_bytes()));
            let scenario = ScenarioSpec::replay(format!("soak-fed-{seed}"), events, 8, 2, seed);
            specs.push(
                ExperimentSpec::new(scenario)
                    .with_train(TrainConfig {
                        epochs: 1,
                        minibatch: 4,
                        patience: 1,
                        ..TrainConfig::default()
                    })
                    .with_checkpoint(CheckpointSpec {
                        every: Some(5),
                        path,
                    }),
            );
        }
        FederationSet::new(specs)
            .serve(readers, &ServeOptions::default())
            .expect("federation soak serves")
    };

    // Short reference horizon, then 5× longer with on-disk checkpoints.
    let short = serve_set(8, [None, None]);
    let dir = std::env::temp_dir();
    let paths: [String; 2] = [41u64, 43].map(|seed| {
        dir.join(format!("carol-soak-fed{seed}-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let long = serve_set(40, [Some(paths[0].clone()), Some(paths[1].clone())]);

    let per_interval = |reports: &[carol::ServeReport]| {
        let total: usize = reports.iter().map(|r| r.intervals).sum();
        reports[0].wall_s / total as f64
    };
    assert_eq!(short.len(), 2);
    assert_eq!(long.len(), 2);
    for r in &long {
        assert_eq!(
            r.intervals, 40,
            "{}: horizon diverged",
            r.spec.scenario.name
        );
        assert!(
            r.tasks_ingested > 40,
            "{}: trace too thin",
            r.spec.scenario.name
        );
    }
    // Flatness: generous 4× bound + 2ms absolute slack for timer and
    // scheduler noise; an O(archive) decide cycle scales per-interval
    // cost with the horizon and fails this by construction.
    let (short_s, long_s) = (per_interval(&short), per_interval(&long));
    assert!(
        long_s <= short_s * 4.0 + 2e-3,
        "per-interval serve cost grew with the horizon: {short_s:.6}s at 8 intervals, \
         {long_s:.6}s at 40"
    );

    // Per-federation checkpoint/restore round-trip from the files the
    // daemon wrote.
    for (r, path) in long.iter().zip(&paths) {
        assert!(
            r.checkpoints_taken >= 8,
            "{}: cadence under-fired",
            r.spec.scenario.name
        );
        let claimed = r
            .last_checkpoint_interval
            .expect("long run must checkpoint");
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("checkpoint file {path} unreadable: {e}"));
        let ckpt = CarolCheckpoint::from_json(&json).expect("checkpoint JSON parses");
        let restored = Carol::restore(&ckpt).expect("checkpoint restores");
        assert_eq!(
            restored.interval(),
            claimed,
            "{}: restored controller disagrees with the report",
            r.spec.scenario.name
        );
        let _ = std::fs::remove_file(path);
    }
}
