//! Self-test of the benchmark on shortened forms of every workload: each
//! metric `BENCHMARK.json` names is emitted once with its unit, every
//! per-layer metric has an entry in the layer map, and tampered outputs
//! trip the checks.
//!
//! Run optimised: `cargo test --release --manifest-path carolbench/Cargo.toml`.

use carol::Carol;
use carolbench::report::Outcome;
use carolbench::{run, traced, Inputs, RunConfig, Workload};
use serde::Value;
use std::path::PathBuf;

/// Intervals of each workload's shortened form: enough for the daemon to
/// checkpoint and fine-tune, and for the storm to repair.
fn quick_intervals(workload: Workload) -> usize {
    match workload {
        Workload::Paper16Daemon => 200,
        Workload::Storm1024Repair => 3,
    }
}

fn quick(workload: Workload, trace: bool) -> Outcome {
    carolbench::run(&RunConfig {
        workload,
        seed: 5,
        seconds: 0.01,
        trace,
        intervals: quick_intervals(workload),
    })
}

fn manifest(file: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::parse_value(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn benchmark_json() -> Value {
    manifest("../BENCHMARK.json")
}

fn entries<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// Asserts `outcome` emits exactly the metrics of `BENCHMARK.json`'s
/// `section`, in order, each with its declared unit.
fn assert_emits(outcome: &Outcome, section: &str) {
    let declared: Vec<(String, String)> = entries(&benchmark_json(), section)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect();
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.label().to_string()))
        .collect();
    assert_eq!(
        emitted, declared,
        "{section} metrics differ from BENCHMARK.json"
    );
    let line = serde_json::parse_value(&outcome.to_json()).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks {key}");
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let untraced = quick(workload, false);
        assert!(
            untraced.correct,
            "{}: {:?}",
            workload.name(),
            untraced.failures
        );
        assert!(untraced.attempted > 0 && untraced.failed == 0);
        assert_emits(&untraced, "end_to_end");

        let traced = quick(workload, true);
        assert!(
            traced.correct,
            "{} traced: {:?}",
            workload.name(),
            traced.failures
        );
        assert_emits(&traced, "per_layer");
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("emitted")
        };
        match workload {
            Workload::Paper16Daemon => {
                assert!(value("service.checkpoint_bytes") > 0.0);
                assert!(value("carol.repair_calls") > 0.0);
            }
            Workload::Storm1024Repair => {
                assert!(value("carol.repair_calls") > 0.0);
                assert!(value("gon.generate_batch_ms") > 0.0);
            }
        }
    }
}

#[test]
fn benchmark_json_names_every_workload_and_maps_every_layer_metric() {
    let bench = benchmark_json();
    let names: Vec<&str> = entries(&bench, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    let map = manifest("layers.json");
    for metric in entries(&bench, "per_layer") {
        let name = text(metric, "name");
        let entry = map
            .get(name)
            .unwrap_or_else(|| panic!("layers.json has no entry for {name}"));
        for key in ["moves", "on", "unchanged_on"] {
            assert!(entry.get(key).is_some(), "{name} lacks {key}");
        }
    }
    let Value::Map(mapped) = &map else {
        panic!("layers.json is not an object")
    };
    let declared: Vec<&str> = entries(&bench, "per_layer")
        .iter()
        .map(|m| text(m, "name"))
        .collect();
    for (name, _) in mapped {
        assert!(
            declared.contains(&name.as_str()),
            "{name} is mapped but not declared"
        );
    }
}

fn quick_inputs(workload: Workload, tag: &str) -> Inputs {
    let checkpoint =
        carolbench::scratch_dir().join(format!("selftest-{tag}-{}.json", std::process::id()));
    std::fs::create_dir_all(carolbench::scratch_dir()).unwrap();
    Inputs::generate(workload, 3, quick_intervals(workload), &checkpoint)
}

#[test]
fn a_tampered_repeat_or_trace_trips_the_checks() {
    let inputs = quick_inputs(Workload::Storm1024Repair, "repeat");
    let first = run::repeat(&inputs);
    let mut second = run::repeat(&inputs);
    run::check_reproduced(&first, &mut second);
    assert!(second.failures.is_empty(), "{:?}", second.failures);

    let mut tampered = second.clone();
    if let Some(result) = tampered.result.as_mut() {
        result.total_energy_wh = f64::from_bits(result.total_energy_wh.to_bits() + 1);
    }
    run::check_reproduced(&first, &mut tampered);
    assert!(
        !tampered.failures.is_empty(),
        "a one-ulp QoS change must fail"
    );

    // A trace that lost its last line serves fewer tasks than recorded.
    let mut truncated = quick_inputs(Workload::Paper16Daemon, "truncated");
    let keep = truncated
        .trace
        .trim_end()
        .rfind('\n')
        .expect("multi-line trace");
    truncated.trace.truncate(keep + 1);
    assert!(!run::repeat(&truncated).failures.is_empty());

    // A trace whose bytes no longer decode to the recorded events.
    let mut altered = quick_inputs(Workload::Storm1024Repair, "altered");
    altered.trace = altered
        .trace
        .replacen("\"arrivals\":1", "\"arrivals\":2", 1);
    let outcome = traced::run(&altered);
    assert!(
        outcome.failed > 0,
        "an altered trace must fail the traced run"
    );
}

#[test]
fn a_tampered_checkpoint_fails_verification() {
    let inputs = quick_inputs(Workload::Paper16Daemon, "checkpoint");
    let mut carol = Carol::pretrained(inputs.carol.clone(), inputs.controller_seed);
    let mut ckpt = carol.checkpoint().expect("the GON controller checkpoints");
    let path = &inputs.checkpoint_path;
    std::fs::write(path, ckpt.to_json()).unwrap();
    run::verify_checkpoint(path, 0).expect("an untouched checkpoint verifies");

    ckpt.interval += 1;
    std::fs::write(path, ckpt.to_json()).unwrap();
    assert!(run::verify_checkpoint(path, 0).is_err());
}

#[test]
fn a_non_finite_metric_fails_the_outcome() {
    use carolbench::report::{Metric, Unit};
    let outcome = Outcome::new(
        10,
        0,
        vec![Metric::new("intervals_per_s", f64::NAN, Unit::PerS)],
        Vec::new(),
    );
    assert!(!outcome.correct);
    assert_eq!(outcome.failed, 10);
    assert!(outcome.to_json().contains("\"value\": 0"));
}
