//! The eq.-1 ascent allocates nothing per step once its workspace is
//! warm: a second call of `generate_listed` or `generate_batch` on the
//! same model allocates as often at 5 ascent steps as at 1, on
//! candidates that take at least 3 of the 5.

use edgesim::scheduler::SchedulingDecision;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{HostSpec, HostState, Topology};
use gon::{CandidateRows, GonConfig, GonModel};
use nn::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A 24-host, 4-broker snapshot with a spread of loads.
fn snapshot() -> SystemState {
    let topology = Topology::balanced(24, 4).unwrap();
    let specs: Vec<HostSpec> = (0..24).map(HostSpec::rpi4gb).collect();
    let mut states = vec![HostState::default(); 24];
    for (i, st) in states.iter_mut().enumerate() {
        st.cpu = (0.2 + 0.03 * i as f64).min(1.0);
        st.ram = 0.35;
        st.energy_wh = 0.1;
    }
    SystemState::capture(
        &topology,
        &specs,
        &states,
        &[],
        &SchedulingDecision::new(),
        &Normalizer::default(),
    )
}

/// The calling thread's allocations while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CountingAlloc::count();
    let out = f();
    (CountingAlloc::count() - before, out)
}

#[test]
fn a_warm_ascent_allocates_per_call_not_per_step() {
    let base = snapshot();
    let mut promoted = base.topology.clone();
    promoted.promote(9).unwrap();
    let mut moved = base.topology.clone();
    moved.reassign(13, 0).unwrap();
    let candidates: Vec<SystemState> = [&base.topology, &promoted, &moved]
        .map(|t| base.with_topology(t))
        .to_vec();
    // Every host listed, which the `CandidateRows` contract allows.
    let mut rows = CandidateRows::default();
    for s in &candidates {
        rows.push_candidate();
        for (h, (m, sched)) in s.metrics.iter().zip(&s.schedule).enumerate() {
            rows.push_row(h, m, sched);
        }
        for (h, f) in s.graph_features.iter().enumerate() {
            rows.push_graph(h, f, s.topology.gat_row(h));
        }
    }
    let mut counts = Vec::new();
    for gen_steps in [1, 5] {
        let mut model = GonModel::new(GonConfig {
            hidden: 16,
            head_layers: 2,
            gat_dim: 8,
            gat_att: 4,
            gen_lr: 1e-3,
            gen_steps,
            seed: 3,
        });
        let record = model.record_parent(&base);
        for name in ["generate_listed", "generate_batch"] {
            let call = |m: &mut GonModel| match name {
                "generate_listed" => m.generate_listed(&record, &rows),
                _ => m.generate_batch(&candidates),
            };
            call(&mut model);
            let (n, generated) = counted(|| call(&mut model));
            for g in &generated {
                assert!(g.iterations >= gen_steps.min(3), "{name}: {}", g.iterations);
            }
            counts.push((gen_steps, name, n));
        }
    }
    assert_eq!(counts[0].2, counts[2].2, "generate_listed: {counts:?}");
    assert_eq!(counts[1].2, counts[3].2, "generate_batch: {counts:?}");
}
