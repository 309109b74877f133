//! Federation-controller service daemon + replay bench.
//!
//! ```text
//! cargo run --release -p bench --bin serve                       # full bench: ≥100k-task replay → SERVE numbers
//! cargo run --release -p bench --bin serve -- --fast             # CI smoke: checked-in 40-interval trace
//! cargo run --release -p bench --bin serve -- --out SERVE.json   # write the report JSON
//! cargo run --release -p bench --bin serve -- --config spec.json # ExperimentSpec — or a JSON list of
//!                                                                # them for a multi-federation daemon
//! cat trace.jsonl | cargo run --release -p bench --bin serve -- --stdin
//! cargo run --release -p bench --bin serve -- --listen 127.0.0.1:7070
//! cargo run --release -p bench --bin serve -- --metrics 127.0.0.1:9090 --pace 1.0
//! ```
//!
//! Without `--stdin`/`--listen` the binary runs as a *bench*: it replays
//! a recorded trace through the daemon at full speed and reports
//! decisions/sec plus p50/p99 decision latency. With them it runs as a
//! *daemon*: events arrive over stdin or TCP, optionally paced to wall
//! clock (`--pace <seconds-per-interval>`), with the plain-text health
//! endpoint on `--metrics <addr>`. Every mode serves a
//! [`carol::service::FederationSet`], and the GON fine-tunes inline,
//! inside the interval whose confidence alarm fired it.
//!
//! A `--config` file holding a JSON **list** of specs serves all of them
//! as one multi-federation daemon: in bench mode every federation
//! replays its own copy of the trace; in `--listen` mode the daemon
//! accepts one trace connection per federation, in spec order.
//! `--stdin` is single-federation only (one stream cannot be
//! demultiplexed).

use bench::cli::Flag;
use bench::serve::{
    full_spec, full_trace, run_federation_bench, run_serve_bench, smoke_spec, ServeBenchReport,
    SMOKE_TRACE,
};
use carol::service::{serve_federation_listener, FederationSet, ServeOptions};
use std::io::BufReader;

fn main() {
    let args = bench::cli::CommonArgs::parse(&[
        Flag::Value("--config"),
        Flag::Value("--pace"),
        Flag::Value("--metrics"),
        Flag::Switch("--stdin"),
        Flag::Value("--listen"),
    ]);
    let seed = args.seed(7);
    let out_path = args.out_path();

    let checkpoint_path =
        std::env::temp_dir().join(format!("carol-serve-{}.json", std::process::id()));
    let checkpoint_path = checkpoint_path.to_string_lossy().into_owned();
    let mut set = if let Some(config_path) = args.flag_value("--config") {
        let json = std::fs::read_to_string(&config_path)
            .unwrap_or_else(|e| panic!("cannot read --config {config_path}: {e}"));
        FederationSet::from_json(&json).unwrap_or_else(|e| {
            panic!("--config {config_path} is not an ExperimentSpec or a list of them: {e}")
        })
    } else if args.fast {
        FederationSet::new(vec![smoke_spec(seed, &checkpoint_path)])
    } else {
        FederationSet::new(vec![full_spec(seed, &checkpoint_path)])
    };
    if let Some(scenario) = args.scenario(seed) {
        let mut specs = set.specs().to_vec();
        assert_eq!(
            specs.len(),
            1,
            "--scenario overrides a single-federation config only"
        );
        specs[0].scenario = scenario;
        set = FederationSet::new(specs);
    }

    let options = ServeOptions {
        pace_interval_s: args
            .flag_value("--pace")
            .map(|s| s.parse().expect("--pace takes seconds per interval")),
        metrics_addr: args.flag_value("--metrics"),
        ..ServeOptions::default()
    };

    // Daemon modes: ingest live stream(s), report, exit.
    let served = if args.has_flag("--stdin") {
        assert_eq!(
            set.specs().len(),
            1,
            "--stdin serves a single federation; use --listen for a multi-federation config"
        );
        eprintln!("[serve] daemon: ingesting carol-trace v1 from stdin…");
        Some(set.serve(vec![BufReader::new(std::io::stdin())], &options))
    } else if let Some(addr) = args.flag_value("--listen") {
        let listener = std::net::TcpListener::bind(&addr)
            .unwrap_or_else(|e| panic!("cannot bind --listen {addr}: {e}"));
        eprintln!(
            "[serve] daemon: waiting for {} trace connection(s) on {addr}…",
            set.specs().len()
        );
        Some(serve_federation_listener(&set, &listener, &options))
    } else {
        None
    };
    if let Some(served) = served {
        let reports = served.unwrap_or_else(|e| panic!("serve failed: {e}"));
        finish(
            reports
                .into_iter()
                .map(|report| ServeBenchReport {
                    report,
                    checkpoint_restore_verified: false,
                })
                .collect(),
            out_path,
        );
        return;
    }

    // Bench mode: replay a recorded trace at full speed.
    let trace = if args.fast {
        eprintln!("[serve] smoke: replaying the checked-in 40-interval trace…");
        SMOKE_TRACE.to_string()
    } else {
        eprintln!(
            "[serve] recording a paper-16 trace ({} intervals ≈ 100k+ tasks)…",
            bench::serve::FULL_INTERVALS
        );
        full_trace(seed)
    };
    let benches = if set.specs().len() == 1 {
        vec![run_serve_bench(&set.specs()[0], &trace, &options)]
    } else {
        eprintln!(
            "[serve] multi-federation bench: {} federations, each replaying the trace…",
            set.specs().len()
        );
        run_federation_bench(&set, &trace, &options)
    };
    std::fs::remove_file(&checkpoint_path).ok();
    finish(benches, out_path);
}

fn finish(benches: Vec<ServeBenchReport>, out_path: Option<String>) {
    for (idx, bench) in benches.iter().enumerate() {
        if benches.len() > 1 {
            print!(
                "federation {idx} ({}): ",
                bench.report.spec.scenario.name.as_str()
            );
        }
        print!("{}", bench::serve::render_summary(bench));
    }
    if let Some(path) = out_path {
        let json = if benches.len() == 1 {
            benches[0].to_json()
        } else {
            ServeBenchReport::list_to_json(&benches)
        };
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote report to {path}");
    }
}
