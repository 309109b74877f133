//! End-to-end coverage of the documented `CAROL_THREADS` override: the
//! same `run_seeds` call, given `par::thread_count()` workers, under
//! `CAROL_THREADS=1` and `CAROL_THREADS=4` must produce bit-identical
//! results.
//!
//! This binary deliberately holds exactly **one** test. `std::env::set_var`
//! while another thread calls `getenv` is undefined behaviour on glibc,
//! and libtest runs a binary's tests on concurrent threads — so the env
//! mutation lives alone here, where no sibling test can race it. The
//! thread-count-pinned variant of this contract (8 seeds, with the
//! worker counts passed to `run_seeds`) lives in `tests/determinism.rs`.

use carol::carol::{Carol, CarolConfig};
use carol::runner::{run_seeds, ExperimentConfig};

#[test]
fn carol_threads_env_override_is_bit_identical() {
    let seeds: [u64; 3] = [11, 12, 13];
    let base = ExperimentConfig {
        intervals: 8,
        ..ExperimentConfig::small(0)
    };
    let make = |seed| Carol::pretrained(CarolConfig::fast_test(), seed);

    std::env::set_var(par::THREADS_ENV, "1");
    let serial = run_seeds(par::thread_count(), make, &base, &seeds);
    std::env::set_var(par::THREADS_ENV, "4");
    let parallel = run_seeds(par::thread_count(), make, &base, &seeds);
    std::env::remove_var(par::THREADS_ENV);

    assert_eq!(serial.len(), seeds.len());
    assert_eq!(parallel.len(), seeds.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.completed > 0);
        assert_eq!(s.completed, p.completed);
        assert_eq!(s.total_energy_wh.to_bits(), p.total_energy_wh.to_bits());
        assert_eq!(s.response_times_s.len(), p.response_times_s.len());
        for (x, y) in s.response_times_s.iter().zip(&p.response_times_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
