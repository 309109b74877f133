//! Scoring a tabu iteration's moves allocates per call, not per host: a
//! warm `score_moves` call over the same moves allocates as often at
//! 1,024 hosts as at 256.

use carol::nodeshift::Move;
use carol::tabu::BatchObjective;
use carol::{Carol, CarolConfig};
use edgesim::scheduler::SchedulingDecision;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{HostSpec, HostState, NodeRole, Topology};
use gon::GonModel;
use nn::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `n_hosts` hosts in LEIs of six: host `6r` is the broker of rank `r`
/// and hosts `6r + 1 ..` its workers, so every LEI around the moves
/// below looks the same at any size. Loads vary by host.
fn snapshot(n_hosts: usize) -> SystemState {
    let roles = (0..n_hosts)
        .map(|h| match h % 6 {
            0 => NodeRole::Broker,
            r => NodeRole::Worker { broker: h - r },
        })
        .collect();
    let topology = Topology::new(roles).unwrap();
    let specs: Vec<HostSpec> = (0..n_hosts).map(HostSpec::rpi4gb).collect();
    let mut states = vec![HostState::default(); n_hosts];
    for (h, st) in states.iter_mut().enumerate() {
        st.cpu = 0.1 + 0.05 * (h % 11) as f64;
        st.ram = 0.3;
        st.energy_wh = 0.1;
    }
    let brokers = topology.brokers().len();
    SystemState::capture(
        &topology,
        &specs,
        &states,
        &[],
        &SchedulingDecision::new(),
        &Normalizer::for_federation(n_hosts, brokers),
    )
}

/// The calling thread's allocations while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CountingAlloc::count();
    let out = f();
    (CountingAlloc::count() - before, out)
}

#[test]
fn a_warm_score_moves_call_allocates_as_often_at_1024_hosts_as_at_256() {
    // Two moves a call: one chunk at both sizes (`gon::batch_len`).
    let calls = [
        [
            Move::Demote {
                bkr: 42,
                target: 48,
            },
            Move::Reassign { w: 19, bkr: 30 },
        ],
        [Move::Promote { w: 26 }, Move::Reassign { w: 57, bkr: 12 }],
    ];
    let mut counts = Vec::new();
    for n_hosts in [256, 1024] {
        let base = snapshot(n_hosts);
        let mut config = CarolConfig::fast_test();
        config.eval_threads = Some(1);
        let mut policy = Carol::from_model(GonModel::new(config.gon.clone()), config, 5);
        let mut objective = policy.batch_objective(&base);
        let parent = base.topology.clone();
        for moves in &calls {
            objective.score_moves(&parent, moves);
        }
        for moves in &calls {
            let (n, scores) = counted(|| objective.score_moves(&parent, moves));
            assert!(scores.iter().all(|s| s.is_finite()));
            counts.push((n_hosts, n));
        }
    }
    assert_eq!(counts[0].1, counts[2].1, "demote + reassign: {counts:?}");
    assert_eq!(counts[1].1, counts[3].1, "promote + reassign: {counts:?}");
}
