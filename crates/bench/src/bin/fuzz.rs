//! Scenario-fuzzer binary: random search over the scenario axes (scale,
//! fleet mix, arrival shape, fault model, fault rate, horizon) with a
//! QoS-cliff oracle, shrinking every hit to a minimal scenario.
//!
//! ```text
//! cargo run --release -p bench --bin fuzz                 # full search (~10 min budget)
//! cargo run --release -p bench --bin fuzz -- --fast       # CI smoke (55 s budget)
//! cargo run --release -p bench --bin fuzz -- --budget 120 # explicit budget, seconds
//! cargo run --release -p bench --bin fuzz -- --cases 16 --seed 3
//! cargo run --release -p bench --bin fuzz -- --fast --out FUZZ_PR.json
//! ```
//!
//! The JSON report carries every shrunk cliff as a full serialised
//! `ScenarioSpec`, so a hit can be replayed verbatim or promoted to a
//! named `cliff-*` registry scenario.

use bench::cli::Flag;
use bench::fuzz::{run_fuzz, FuzzConfig};

fn main() {
    let args = bench::cli::CommonArgs::parse(&[Flag::Value("--budget"), Flag::Value("--cases")]);
    let seed = args.seed(0);
    let mut config = if args.fast {
        FuzzConfig::fast(seed)
    } else {
        FuzzConfig::full(seed)
    };
    if let Some(budget) = args.flag_value("--budget") {
        config.budget_s = budget
            .trim_end_matches('s')
            .parse()
            .expect("--budget takes seconds");
    }
    if let Some(cases) = args.flag_value("--cases") {
        config.cases = cases.parse().expect("--cases takes a count");
    }
    let out_path = args.out_path();

    println!(
        "fuzz: up to {} cases, {:.0} s budget, seed {} (margin {:.0}%, drop {:.0}%)",
        config.cases,
        config.budget_s,
        config.seed,
        100.0 * config.margin,
        100.0 * config.drop,
    );
    let report = run_fuzz(&config);
    println!(
        "{} cases in {:.1} s: {} cliff(s)",
        report.cases_run, report.elapsed_s, report.cliffs_found
    );
    for cliff in &report.cliffs {
        println!(
            "  case {:>3}: {} ({} shrink steps from {} hosts/{} intervals) — {}",
            cliff.case,
            cliff.scenario.name,
            cliff.shrink_steps,
            cliff.initial_hosts,
            cliff.initial_intervals,
            cliff.message,
        );
    }

    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote report to {path}");
    }
}
