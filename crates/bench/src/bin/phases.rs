//! Phase-pipeline profile artefact.
//!
//! ```text
//! cargo run --release -p bench --bin phases                        # full: 256 → 4096 hosts, 12 intervals
//! cargo run --release -p bench --bin phases -- --fast              # CI: 256 → 1024 hosts, 8 intervals
//! cargo run --release -p bench --bin phases -- --out PHASES.json   # write the JSON rows
//! cargo run --release -p bench --bin phases -- --seed 9
//! ```
//!
//! Prints a per-interval stage table and, with `--out`, writes one JSON
//! row per scenario (CI's `PHASES_PR.json`) that CI gates:
//! `determine_failures_s` at `aiot-1024` must stay within 20% of
//! `ci/phase_baseline.json`.

use bench::phases::{profile, render_table, to_json, PhasesConfig};

fn main() {
    let args = bench::cli::CommonArgs::parse(&[]);
    let seed = args.seed(7);
    let out_path = args.out_path();

    let config = if args.fast {
        eprintln!("[phases] fast profile: 256 → 1024 hosts…");
        PhasesConfig::fast(seed)
    } else {
        eprintln!("[phases] full profile: 256 → 4096 hosts…");
        PhasesConfig::full(seed)
    };
    let points = profile(&config);

    print!("{}", render_table(&points));
    if let Some(path) = out_path {
        std::fs::write(&path, to_json(&points))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote report to {path}");
    }
}
