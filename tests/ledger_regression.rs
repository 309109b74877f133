//! Bit-exactness pins for the simulator's task store.
//!
//! The simulator used to rescan its entire append-only task ledger every
//! interval (restart scan, per-host grouping, broker queue counts) and to
//! resolve each scheduling decision with an O(n) `position()` lookup. It
//! now keeps only unretired tasks, in ascending-id order, and resolves a
//! decision by binary search over them. Neither step may change a single
//! bit of any trajectory: these fingerprints were harvested from the
//! full-ledger code and pin placement order, completion accounting,
//! energy, SLO accounting and forced-restart counts on paper-16, storm-64
//! and a long fault-heavy storm trace.

use carol::policy::{ObserveOutcome, ResiliencePolicy};
use carol::scenario::{run_scenario, ScenarioSpec};

/// A no-repair stand-in so the pins exercise the simulator, not GON.
fn noop() -> impl ResiliencePolicy {
    struct Noop;
    impl ResiliencePolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn repair(
            &mut self,
            _sim: &edgesim::Simulator,
            _snapshot: &edgesim::SystemState,
        ) -> Option<edgesim::Topology> {
            None
        }
        fn observe(
            &mut self,
            _sim: &edgesim::Simulator,
            _snapshot: &edgesim::SystemState,
            _report: &edgesim::IntervalReport,
        ) -> ObserveOutcome {
            ObserveOutcome { fine_tuned: false }
        }
        fn modeled_decision_s(&self) -> f64 {
            0.0
        }
        fn modeled_overhead_s(&self) -> f64 {
            0.0
        }
        fn memory_gb(&self) -> f64 {
            0.0
        }
    }
    Noop
}

/// Everything placement-order-sensitive the runner reports, bit-exact.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    completed: usize,
    energy_bits: u64,
    mean_response_bits: u64,
    slo_bits: u64,
    restarts: usize,
    broker_failures: usize,
    /// FNV-1a over the bit patterns of every per-task response time, in
    /// completion order — any reordering or perturbation shows up here.
    response_hash: u64,
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

fn fingerprint(name: &str, seed: u64, shape: Option<(usize, f64)>) -> Fingerprint {
    let mut spec = ScenarioSpec::named(name, seed).expect("registered scenario");
    if let Some((intervals, fault_rate)) = shape {
        spec.intervals = intervals;
        spec.fault_rate = fault_rate;
    }
    let mut policy = noop();
    let r = run_scenario(&mut policy, &spec).result;
    Fingerprint {
        completed: r.completed,
        energy_bits: r.total_energy_wh.to_bits(),
        mean_response_bits: r.mean_response_s.to_bits(),
        slo_bits: r.slo_violation_rate.to_bits(),
        restarts: r.restarts,
        broker_failures: r.broker_failures,
        response_hash: fnv1a(r.response_times_s.iter().map(|t| t.to_bits())),
    }
}

#[test]
fn paper_16_trajectory_is_bit_identical_to_the_pre_fix_path() {
    assert_eq!(
        fingerprint("paper-16", 7, None),
        Fingerprint {
            completed: 770,
            energy_bits: 4645486140776218335,
            mean_response_bits: 4639378169188819961,
            slo_bits: 4598350684465823318,
            restarts: 0,
            broker_failures: 23,
            response_hash: 201399385698702585,
        }
    );
}

#[test]
fn storm_64_trajectory_is_bit_identical_to_the_pre_fix_path() {
    assert_eq!(
        fingerprint("storm-64", 7, None),
        Fingerprint {
            completed: 1415,
            energy_bits: 4650136054511429461,
            mean_response_bits: 4640105963217001764,
            slo_bits: 4600800993179609037,
            restarts: 1,
            broker_failures: 2,
            response_hash: 2317391933493624004,
        }
    );
}

/// The long fault-heavy trace the restart-scan satellite asks for:
/// storm-64 cranked to λ_f = 6.0 (any-host targets) and run out to 200
/// intervals, so thousands of tasks complete and forced restarts keep
/// landing on a ledger that is mostly archive.
#[test]
fn long_storm_64_restart_counts_are_bit_identical_to_the_pre_fix_path() {
    assert_eq!(
        fingerprint("storm-64", 7, Some((200, 6.0))),
        Fingerprint {
            completed: 5828,
            energy_bits: 4659413835995783086,
            mean_response_bits: 4641400422286655910,
            slo_bits: 4602706638250647142,
            restarts: 61,
            broker_failures: 77,
            response_hash: 14668466738459004287,
        }
    );
}
