//! Drive the edge-federation simulator directly: build a custom topology,
//! admit AIoTBench tasks, inject a DDoS attack against a broker, and watch
//! the interval-by-interval accounting — without any resilience policy.
//!
//! Useful as a tour of the `edgesim` + `workloads` + `faults` substrates.
//!
//! ```text
//! cargo run --release --example aiot_federation
//! ```

use edgesim::scheduler::LeastLoadScheduler;
use edgesim::{HostSpec, NodeRole, SimConfig, Simulator, Topology};
use faults::FaultKind;
use workloads::{BagOfTasks, BenchmarkSuite};

fn main() {
    // A custom 10-node federation: two LEIs, the first one larger.
    let roles = vec![
        NodeRole::Broker,               // host 0: broker of LEI A
        NodeRole::Broker,               // host 1: broker of LEI B
        NodeRole::Worker { broker: 0 }, // hosts 2-6: LEI A
        NodeRole::Worker { broker: 0 },
        NodeRole::Worker { broker: 0 },
        NodeRole::Worker { broker: 0 },
        NodeRole::Worker { broker: 0 },
        NodeRole::Worker { broker: 1 }, // hosts 7-9: LEI B
        NodeRole::Worker { broker: 1 },
        NodeRole::Worker { broker: 1 },
    ];
    let topology = Topology::new(roles).expect("hand-built topology is valid");

    let config = SimConfig {
        specs: (0..10).map(HostSpec::rpi8gb).collect(),
        n_brokers: 2,
        ..SimConfig::testbed(3)
    };
    let network = edgesim::NetworkModel::new(2, 3);
    let mut sim = Simulator::with_topology(config, topology, network);
    let mut scheduler = LeastLoadScheduler::new();
    let mut workload = BagOfTasks::new(BenchmarkSuite::AIoTBench, 4.0, 3);
    // Per-application admissions (violations), keyed by app name. Task
    // ids are dense in arrival order, so `apps[id]` names task `id`'s app.
    let mut apps: Vec<String> = Vec::new();
    let mut by_app: std::collections::BTreeMap<String, (usize, usize)> = Default::default();

    println!("interval  arrivals  done  violations  energy(Wh)  failed");
    for t in 0..12 {
        // At interval 5, a DDoS attack saturates broker 0's NIC.
        if t == 5 {
            sim.inject_fault(0, FaultKind::DdosAttack.load());
            println!(
                "  >>> injecting {:?} against broker 0",
                FaultKind::DdosAttack
            );
        }
        let arrivals = workload.sample_interval(t);
        for spec in &arrivals {
            by_app.entry(spec.app.clone()).or_default().0 += 1;
            apps.push(spec.app.clone());
        }
        let report = sim.step(arrivals, &mut scheduler);
        for &(id, _, violated) in &report.completed {
            if violated {
                by_app.get_mut(&apps[id]).expect("admitted app").1 += 1;
            }
        }
        println!(
            "{:>8}  {:>8}  {:>4}  {:>10}  {:>10.2}  {:?}",
            t,
            report.arrivals,
            report.completed.len(),
            report
                .completed
                .iter()
                .filter(|&&(_, _, violated)| violated)
                .count(),
            report.energy_wh,
            report.failed_hosts,
        );
    }

    println!("\ntotals after 12 intervals:");
    println!("  energy         : {:.1} Wh", sim.total_energy_wh());
    println!("  completed      : {}", sim.completed_count());
    println!("  mean response  : {:.1} s", sim.mean_response_time());
    println!("  SLO violations : {:.1} %", 100.0 * sim.violation_rate());
    println!("  task restarts  : {}", sim.total_restarts());

    println!("\nper-application admissions (violations):");
    for (app, (count, violations)) in by_app {
        println!("  {app:<14} {count:>3} ({violations})");
    }
}
