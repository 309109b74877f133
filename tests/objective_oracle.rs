//! Differential oracle for the repair objective.
//!
//! [`oracle::check`] compares the production scoring engine (row-budget
//! chunks, worker fan-out, patched GAT branches, SIMD reductions) and the
//! tabu repair bit for bit with a plain per-candidate reference; see
//! `tests/oracle/mod.rs`. Here it runs on the full neighbourhood at 128
//! hosts and on random federations. The corner rows at 64, 512 and
//! 1,024 hosts are named gates in `tests/determinism.rs`.

mod oracle;

use carol::nodeshift::{apply_move, enumerate_moves};
use carol::tabu::Neighborhood;
use oracle::{
    carol_config, check, check_row, failed_federation, first_last, moves_of_kind, repair_shift,
    sampled,
};
use proptest::prelude::*;

/// The full neighbourhood at 128 hosts (about 2,200 candidates), scored
/// and searched on 1 and 4 workers. A wrongly patched GAT row left its
/// scores unchanged, so patched moves' generations are checked.
#[test]
fn full_neighbourhood_at_128_hosts_matches_the_reference() {
    let full = carol_config(1, 1, Neighborhood::Full);
    check_row((128, 16, first_last, full, &[1, 4]));
}

/// Federations at the edge of the GAT broker window: 17 brokers, which
/// the window covers whole, and 18, where it first wraps. The repair
/// shifts and moves cross between the two shapes.
#[test]
fn broker_window_edge_federations_match_the_reference() {
    for n_brokers in [17, 18] {
        let config = carol_config(2, 1, sampled(4, 3));
        check_row((4 * n_brokers, n_brokers, first_last, config, &[2]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random federations of 8 to 1,024 hosts (log-uniform), a random
    /// failed broker, and 1–3 random moves of each kind on top of a random
    /// repair shift, on a random worker count and ascent depth. The
    /// repair searches the `Full` neighbourhood where the snapshot's has
    /// at most 160 moves (up to about 32 hosts), and `Sampled` otherwise.
    #[test]
    fn random_federations_match_the_reference(
        hosts_log2 in 3.0f64..=10.0,
        hosts_per_broker in 3usize..12,
        victim in 0usize..1_000,
        shift_pick in 0usize..1_000,
        move_counts in proptest::collection::vec(1usize..4, 3),
        move_picks in proptest::collection::vec(0usize..1_000_000, 9),
        workers in 1usize..5,
        gen_steps in 0usize..4,
        full in 0usize..2,
        max_iters in 1usize..3,
        max_moves in 2usize..12,
        seed in 0u64..1_000,
    ) {
        let n_hosts = 2f64.powf(hosts_log2).round() as usize;
        let n_brokers = (n_hosts / hosts_per_broker).max(2);
        let federation = failed_federation(n_hosts, n_brokers, victim % n_brokers);
        let sim = &federation.0;
        let shifted = repair_shift(sim, shift_pick);
        let mut candidates = vec![shifted.clone()];
        for k in 0..3 {
            let moves = moves_of_kind(&shifted, sim, k);
            for pick in &move_picks[3 * k..3 * k + move_counts[k]] {
                if !moves.is_empty() {
                    candidates.extend(apply_move(&shifted, moves[pick % moves.len()]));
                }
            }
        }
        let full = full == 1 && enumerate_moves(sim.topology(), &[]).len() <= 160;
        let neighborhood = if full { Neighborhood::Full } else { sampled(max_moves, seed) };
        let failed = sim.failed_brokers()[0];
        let case = format!("{n_hosts}/{n_brokers} hosts/brokers, broker {failed} failed, \
            {} candidates, {gen_steps} steps, {max_iters} x {neighborhood:?}", candidates.len());
        let config = carol_config(gen_steps, max_iters, neighborhood);
        check(&case, &federation, &candidates, config, &[workers]);
    }
}
