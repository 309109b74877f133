//! Failure-injection integration tests: cascades, simultaneous broker
//! losses, recovery races and edge cases of the byzantine fault model.

use carol::carol::{Carol, CarolConfig};
use carol::policy::ResiliencePolicy;
use edgesim::scheduler::LeastLoadScheduler;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{FaultLoad, NodeRole, SimConfig, Simulator, TaskStatus};
use faults::{FaultInjector, FaultKind, TargetPolicy};
use workloads::{BagOfTasks, BenchmarkSuite};

fn capture(sim: &Simulator) -> SystemState {
    SystemState::capture(
        sim.topology(),
        sim.specs(),
        sim.host_states(),
        sim.tasks(),
        &edgesim::SchedulingDecision::new(),
        &Normalizer::default(),
    )
}

fn saturate(sim: &mut Simulator, host: usize) {
    sim.inject_fault(
        host,
        FaultLoad {
            cpu: 1.2,
            ..Default::default()
        },
    );
}

#[test]
fn simultaneous_loss_of_all_brokers_is_survivable() {
    let mut sim = Simulator::new(SimConfig::small(8, 2, 1));
    let mut sched = LeastLoadScheduler::new();
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 1);

    // Fell both brokers at once.
    saturate(&mut sim, 0);
    saturate(&mut sim, 1);
    let report = sim.step(Vec::new(), &mut sched);
    assert_eq!(report.failed_brokers.len(), 2);

    // CAROL must still produce a valid topology with live brokers.
    let snapshot = capture(&sim);
    let repaired = policy.repair(&sim, &snapshot).expect("repair expected");
    repaired.validate().unwrap();
    let live_brokers: Vec<_> = repaired
        .brokers()
        .iter()
        .filter(|&&b| !sim.host_states()[b].failed)
        .collect();
    assert!(
        !live_brokers.is_empty(),
        "at least one live broker required: {repaired:?}"
    );
}

#[test]
fn recovered_broker_rejoins_as_worker() {
    let mut sim = Simulator::new(SimConfig::small(8, 2, 2));
    let mut sched = LeastLoadScheduler::new();
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 2);

    saturate(&mut sim, 0);
    sim.step(Vec::new(), &mut sched);
    let snapshot = capture(&sim);
    let repaired = policy.repair(&sim, &snapshot).expect("repair");
    assert!(
        matches!(repaired.role(0), NodeRole::Worker { .. }),
        "failed broker must come back as a worker (§IV-I)"
    );
    sim.set_topology(repaired);

    // Next interval host 0 is live again and can serve tasks.
    let r = sim.step(Vec::new(), &mut sched);
    assert!(!r.failed_hosts.contains(&0));
}

#[test]
fn cascading_failures_over_many_intervals_do_not_wedge_the_system() {
    let mut sim = Simulator::new(SimConfig::small(8, 2, 3));
    let mut sched = LeastLoadScheduler::new();
    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 3);
    let mut injector = FaultInjector::new(1.5, TargetPolicy::AnyHost, 3);
    let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, 2.0, 3);
    let mut arrived = 0usize;

    for t in 0..25 {
        let snapshot = capture(&sim);
        if let Some(topo) = policy.repair(&sim, &snapshot) {
            sim.set_topology(topo);
        }
        injector.inject(t, &mut sim);
        let report = sim.step(workload.sample_interval(t), &mut sched);
        arrived += report.arrivals;
        let snapshot = capture(&sim);
        policy.observe(&sim, &snapshot, &report);
        sim.topology().validate().unwrap();
    }
    assert!(
        sim.completed_count() > 0,
        "the federation must make progress under a fault storm"
    );
    // No tasks vanished: each arrival is counted complete or still stored.
    let unfinished = sim
        .tasks()
        .iter()
        .filter(|t| t.status != TaskStatus::Completed)
        .count();
    assert_eq!(arrived, sim.completed_count() + unfinished);
}

#[test]
fn each_attack_kind_can_fell_a_broker() {
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 10 + i as u64));
        let mut sched = LeastLoadScheduler::new();
        sim.inject_fault(0, kind.load());
        let report = sim.step(Vec::new(), &mut sched);
        assert!(
            report.failed_brokers.contains(&0),
            "{kind:?} at nominal intensity must fell an idle broker"
        );
    }
}

#[test]
fn worker_failures_use_the_simple_rerun_rule() {
    // §III-A: worker failures rerun tasks; no topology change needed.
    let mut sim = Simulator::new(SimConfig::small(8, 2, 5));
    let mut sched = LeastLoadScheduler::new();
    // A task long enough (2 intervals solo) to still be running when the
    // fault lands.
    let task = edgesim::TaskSpec {
        app: "longjob".into(),
        cpu_work: 2.0e6,
        ram_mb: 512.0,
        disk_mb: 20.0,
        net_mb: 20.0,
        deadline_s: 4000.0,
    };
    sim.step(vec![task], &mut sched);

    let victim = sim
        .tasks()
        .iter()
        .find(|t| t.status == TaskStatus::Running)
        .and_then(|t| t.host)
        .expect("task running somewhere");
    saturate(&mut sim, victim);
    let report = sim.step(Vec::new(), &mut sched);
    assert_eq!(report.restarted_tasks, 1);

    // The task finishes on a different (or recovered) host eventually.
    let mut done = false;
    for _ in 0..10 {
        let r = sim.step(Vec::new(), &mut sched);
        if !r.completed.is_empty() {
            done = true;
            break;
        }
    }
    assert!(done, "restarted task must eventually complete");
    let restarted = sim.tasks().iter().find(|t| t.restarts > 0).unwrap();
    assert_eq!(restarted.status, TaskStatus::Completed);
}

#[test]
fn fault_free_run_has_no_failures_or_restarts() {
    let mut sim = Simulator::new(SimConfig::small(8, 2, 6));
    let mut sched = LeastLoadScheduler::new();
    let mut workload = BagOfTasks::new(BenchmarkSuite::DeFog, 1.5, 6);
    for t in 0..20 {
        let r = sim.step(workload.sample_interval(t), &mut sched);
        assert!(r.failed_hosts.is_empty(), "no faults ⇒ no failures");
    }
    assert_eq!(sim.total_restarts(), 0);
}
