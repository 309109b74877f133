//! Serialization round-trips: traces, snapshots and experiment results
//! must survive JSON round-trips so runs can be archived and replotted.

use edgesim::scheduler::SchedulingDecision;
use edgesim::state::{Normalizer, SystemState};
use edgesim::{HostSpec, HostState, SimConfig, Topology};
use workloads::trace::{generate_trace, TraceConfig};
use workloads::BenchmarkSuite;

#[test]
fn system_state_round_trips() {
    let trace = generate_trace(
        &TraceConfig {
            intervals: 5,
            topology_period: 2,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 1,
        },
        SimConfig::small(6, 2, 1),
    );
    for state in &trace {
        let json = serde_json::to_string(state).expect("serialise");
        // The GAT adjacency is read off the topology, not stored.
        assert!(!json.contains("\"neighbors\""), "{json}");
        let back: SystemState = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(state, &back);
    }

    // A snapshot in the older format, which still carried the adjacency
    // as `"neighbors"`, loads and equals the same state captured today.
    let legacy = r#"{"metrics":[[0,0,0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0,0,0],[0.5,0,0,0,0,0,0,0,0,0]],"schedule":[[0,0,0],[0,0,0],[0,0,0],[0,0,0]],"graph_features":[[0,0,0.5,0.5,1,0.25],[0,0,0.5,0.5,1,0.25],[0,0,0.5,0.5,0,0],[0.5,0,0.5,0.5,0,0]],"neighbors":[[0,1,2],[1,0,3],[2,0],[3,1]],"topology":{"roles":["Broker","Broker",{"Worker":{"broker":0}},{"Worker":{"broker":1}}]},"ram_mb":[4096,4096,4096,4096],"costs":{"base_cpu":0.08,"per_worker_cpu":0.015,"mgmt_ram_mb":512,"span":5,"stall_risk":0.08}}"#;
    let loaded: SystemState = serde_json::from_str(legacy).expect("legacy snapshot");
    let specs: Vec<HostSpec> = (0..4).map(HostSpec::rpi4gb).collect();
    let mut host_states = vec![HostState::default(); 4];
    host_states[3].cpu = 0.5;
    let recaptured = SystemState::capture(
        &Topology::balanced(4, 2).unwrap(),
        &specs,
        &host_states,
        &[],
        &SchedulingDecision::new(),
        &Normalizer::default(),
    );
    assert_eq!(loaded, recaptured);
}

#[test]
fn topology_and_config_round_trip() {
    let topo = Topology::balanced(16, 4).unwrap();
    let json = serde_json::to_string(&topo).unwrap();
    let back: Topology = serde_json::from_str(&json).unwrap();
    assert_eq!(topo, back);

    // The membership index stays off the wire: checkpoint bytes are the
    // role vector alone.
    assert_eq!(
        serde_json::to_string(&Topology::balanced(4, 2).unwrap()).unwrap(),
        r#"{"roles":["Broker","Broker",{"Worker":{"broker":0}},{"Worker":{"broker":1}}]}"#
    );
    // Deserialisation validates: no brokers, or a worker under a worker.
    for bad in [
        r#"{"roles":[{"Worker":{"broker":1}},{"Worker":{"broker":0}}]}"#,
        r#"{"roles":["Broker",{"Worker":{"broker":2}},{"Worker":{"broker":0}}]}"#,
    ] {
        assert!(serde_json::from_str::<Topology>(bad).is_err(), "{bad}");
    }

    let cfg = SimConfig::testbed(9);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg.specs, back.specs);
    assert_eq!(cfg.n_brokers, back.n_brokers);
}

#[test]
fn experiment_result_round_trips() {
    use carol::carol::{Carol, CarolConfig};
    use carol::runner::{run_experiment, ExperimentConfig, ExperimentResult};

    let mut policy = Carol::pretrained(CarolConfig::fast_test(), 3);
    let config = ExperimentConfig {
        intervals: 6,
        ..ExperimentConfig::small(3)
    };
    let result = run_experiment(&mut policy, &config);
    let json = serde_json::to_string_pretty(&result).unwrap();
    let back: ExperimentResult = serde_json::from_str(&json).unwrap();
    assert_eq!(result.name, back.name);
    assert_eq!(result.completed, back.completed);
    assert_eq!(result.total_energy_wh, back.total_energy_wh);
    assert_eq!(result.response_times_s, back.response_times_s);
}

#[test]
fn gon_config_and_normalizer_survive_defaults() {
    // The normalizer default and the model constants are load-bearing for reproducibility.
    use {edgesim::sim::*, edgesim::state::*, gon::*};
    assert_eq!(Normalizer::default().max_tasks, 8.0);
    assert_eq!((MAX_DEADLINE_S, MAX_CPU_WORK), (600.0, 2.0e6));
    assert_eq!((BROKER_BASE_CPU, BROKER_PER_WORKER_CPU), (0.08, 0.015));
    assert_eq!((BROKER_MGMT_RAM_MB, BROKER_SPAN), (512.0, 5));
    assert_eq!((NODE_SHIFT_COST_S, STALL_RISK), (20.0, 0.08));
    assert_eq!((QOS_ALPHA, QOS_BETA), (0.5, 0.5));
    assert_eq!((GEN_TOL, TRAIN_FRACTION, WEIGHT_DECAY), (1e-7, 0.8, 1e-5));
}

/// GON checkpoint → JSON → restore is bit-exact on every `f64` of every
/// parameter — values, gradients, and both Adam moment buffers — even
/// after training has dirtied all of them.
#[test]
fn gon_checkpoint_restores_every_param_bit_exact() {
    use gon::{GonCheckpoint, GonConfig, GonModel, TrainConfig};
    use workloads::trace::{generate_trace, TraceConfig};
    use workloads::BenchmarkSuite;

    let trace = generate_trace(
        &TraceConfig {
            intervals: 8,
            topology_period: 3,
            arrival_rate: 2.0,
            suite: BenchmarkSuite::DeFog,
            seed: 5,
        },
        SimConfig::small(6, 2, 5),
    );
    let mut model = GonModel::new(GonConfig {
        hidden: 10,
        head_layers: 2,
        gat_dim: 6,
        gat_att: 2,
        gen_lr: 5e-3,
        gen_steps: 2,
        seed: 5,
    });
    // Dirty weights, gradients and Adam moments alike.
    gon::train_offline(
        &mut model,
        &trace,
        &TrainConfig {
            epochs: 1,
            minibatch: 4,
            patience: 1,
            ..Default::default()
        },
    );

    let ckpt = GonCheckpoint::capture(&mut model);
    let back = GonCheckpoint::from_json(&ckpt.to_json()).expect("checkpoint JSON parses");
    assert_eq!(ckpt, back, "JSON round-trip must be lossless");
    let mut restored = back.restore().expect("checkpoint restores");

    let originals = model.params_mut();
    let mut restored_params = restored.params_mut();
    assert_eq!(originals.len(), restored_params.len());
    let mut checked = 0usize;
    for (i, (a, b)) in originals.iter().zip(restored_params.iter_mut()).enumerate() {
        for (label, x, y) in [
            ("value", a.value.data(), b.value.data()),
            ("grad", a.grad.data(), b.grad.data()),
            ("m", a.m.data(), b.m.data()),
            ("v", a.v.data(), b.v.data()),
        ] {
            assert_eq!(x.len(), y.len(), "param {i} {label}: length diverged");
            for (j, (p, q)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "param {i} {label}[{j}] diverged: {p} vs {q}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "the sweep must cover a real model");
}

/// One `ExperimentSpec` JSON reconstructs the whole experiment —
/// scenario, evaluation engine, trainer, checkpoint cadence — and the
/// registry constructor resolves the same names as `ScenarioSpec`.
#[test]
fn experiment_spec_json_reconstructs_scenario_engine_and_trainer() {
    use carol::service::{CheckpointSpec, ExperimentSpec};
    use carol::ScenarioSpec;

    for name in ScenarioSpec::registry_names() {
        let spec = ExperimentSpec::named(name, 3).unwrap_or_else(|| panic!("{name} registered"));
        assert_eq!(&spec.scenario.name, name);
    }
    assert!(ExperimentSpec::named("not-a-scenario", 3).is_none());

    let spec = ExperimentSpec::named("storm-64", 11)
        .unwrap()
        .with_engine(par::EngineConfig::batched(3))
        .with_train(gon::TrainConfig {
            epochs: 2,
            minibatch: 16,
            ..Default::default()
        })
        .with_checkpoint(CheckpointSpec {
            every: Some(25),
            path: Some("ckpt.json".into()),
        });
    let back = ExperimentSpec::from_json(&spec.to_json()).expect("spec JSON parses");
    assert_eq!(back.scenario.name, "storm-64");
    assert_eq!(back.scenario.n_hosts, 64);
    assert_eq!(back.scenario.seed, 11);
    assert_eq!(back.engine, par::EngineConfig::batched(3));
    assert_eq!(back.engine.worker_count(), 3);
    assert_eq!(back.train.epochs, 2);
    assert_eq!(back.train.minibatch, 16);
    assert_eq!(back.checkpoint.every, Some(25));
    assert_eq!(back.checkpoint.path.as_deref(), Some("ckpt.json"));

    // The induced controller config reflects the spec's engine + trainer.
    let cc = back.carol_config();
    assert_eq!(cc.offline.minibatch, 16);
    assert_eq!(cc.eval_threads, Some(3));
    assert_eq!(cc.offline.epochs, 2);
}

/// `#[serde(default)]` fields take `Default::default()` when their key
/// is missing; a missing field without the attribute is still an error.
#[test]
fn serde_default_fills_only_the_fields_that_declare_it() {
    use carol::tabu::{Neighborhood, TabuConfig};
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::{IntervalReport, Simulator};

    let tabu: TabuConfig =
        serde_json::from_str(r#"{"list_size":100,"max_iters":10}"#).expect("defaulted field");
    assert_eq!(tabu.neighborhood, Neighborhood::Full);
    assert_eq!((tabu.list_size, tabu.max_iters), (100, 10));

    let mut sim = Simulator::new(SimConfig::small(6, 2, 1));
    let report = sim.step(Vec::new(), &mut LeastLoadScheduler::new());
    let serde::Value::Map(mut entries) =
        serde_json::parse_value(&serde_json::to_string(&report).unwrap()).unwrap()
    else {
        panic!("an IntervalReport serialises to a JSON object");
    };
    let before = entries.len();
    entries.retain(|(key, _)| key != "phases");
    assert_eq!(entries.len(), before - 1, "the report carries `phases`");
    let json = serde_json::to_string(&serde::Value::Map(entries)).unwrap();
    let back: IntervalReport = serde_json::from_str(&json).expect("`phases` is defaulted");
    assert_eq!(back.phases, Default::default());
    assert_eq!(back.failed_brokers, report.failed_brokers);

    let err = serde_json::from_str::<TabuConfig>(r#"{"list_size":100}"#)
        .expect_err("`max_iters` has no default");
    assert!(
        err.to_string().contains("missing field `max_iters`"),
        "unexpected error: {err}"
    );
}

/// Spec and controller JSON written before the serial engine was removed
/// still parses: its boolean engine switches are ignored as unknown keys
/// and the worker counts survive.
#[test]
fn legacy_engine_switch_json_still_parses() {
    use carol::carol::CarolConfig;
    use carol::service::ExperimentSpec;

    let spec = ExperimentSpec::from_json(
        r#"{"scenario":{"name":"paper-16","workload":{"Suite":{"suite":"AIoTBench","rate":7.2}},
        "shape":"Stationary","n_hosts":16,"n_brokers":4,"fleet":"Pi","intervals":100,
        "fault_rate":0.5,"fault_target":"BrokersOnly","fault_model":"Iid","scheduler":"LeastLoad",
        "seed":7},"engine":{"batched":false,"threads":1},"train":{"epochs":2,"minibatch":16,
        "patience":5,"train_fraction":0.8,"lr":0.0001,"weight_decay":0.00001,"seed":11,
        "batch_train":false,"train_threads":2},"checkpoint":{"every":null,"path":null}}"#,
    )
    .expect("legacy spec JSON parses");
    assert_eq!(spec.scenario.name, "paper-16");
    assert_eq!(spec.engine, par::EngineConfig::batched(1));
    assert_eq!(spec.train.train_threads, Some(2));
    assert_eq!(spec.train.epochs, 2);
    assert_eq!(spec.carol_config().eval_threads, Some(1));

    let cc: CarolConfig = serde_json::from_str(
        r#"{"gon":{"hidden":12,"head_layers":2,"gat_dim":6,"gat_att":4,"gen_lr":0.005,
        "gen_steps":5,"gen_tol":0.0000001,"seed":1},"alpha":0.5,"beta":0.5,
        "tabu":{"list_size":20,"max_iters":2,"neighborhood":"Full"},"fine_tune":"Confidence",
        "variant":"Gon","offline":{"epochs":3,"minibatch":8,"patience":3,"train_fraction":0.8,
        "lr":0.001,"weight_decay":0.00001,"seed":11,"batch_train":false,"train_threads":5},
        "pretrain_intervals":24,"pretrain_sim":{"specs":[
        {"name":"rpi8gb-00","cpu_capacity":4000,"ram_mb":8192,"disk_bw":40,"net_bw":125,"power_idle_w":2.8,"power_peak_w":7},
        {"name":"rpi4gb-01","cpu_capacity":4000,"ram_mb":4096,"disk_bw":40,"net_bw":125,"power_idle_w":2.7,"power_peak_w":6.4},
        {"name":"rpi8gb-02","cpu_capacity":4000,"ram_mb":8192,"disk_bw":40,"net_bw":125,"power_idle_w":2.8,"power_peak_w":7},
        {"name":"rpi4gb-03","cpu_capacity":4000,"ram_mb":4096,"disk_bw":40,"net_bw":125,"power_idle_w":2.7,"power_peak_w":6.4},
        {"name":"rpi8gb-04","cpu_capacity":4000,"ram_mb":8192,"disk_bw":40,"net_bw":125,"power_idle_w":2.8,"power_peak_w":7},
        {"name":"rpi4gb-05","cpu_capacity":4000,"ram_mb":4096,"disk_bw":40,"net_bw":125,"power_idle_w":2.7,"power_peak_w":6.4},
        {"name":"rpi8gb-06","cpu_capacity":4000,"ram_mb":8192,"disk_bw":40,"net_bw":125,"power_idle_w":2.8,"power_peak_w":7},
        {"name":"rpi4gb-07","cpu_capacity":4000,"ram_mb":4096,"disk_bw":40,"net_bw":125,"power_idle_w":2.7,"power_peak_w":6.4}],
        "n_brokers":2,"seed":0,"broker_base_overhead":0.08,"broker_per_worker_overhead":0.015,
        "node_shift_cost_s":20,"broker_mgmt_ram_mb":512,"broker_span":5},
        "batch_eval":false,"eval_threads":3}"#,
    )
    .expect("legacy controller JSON parses");
    assert_eq!(cc.eval_threads, Some(3));
    assert_eq!(cc.offline.train_threads, Some(5));
    assert_eq!(cc.pretrain_sim.specs.len(), 8);
}
