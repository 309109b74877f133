//! Host-count scaling sweep binary: CAROL over 16 → 4096-host federations
//! on synthetic and replayed workloads, with per-size QoS, wall-clock and
//! an isolated repair-path timing per size.
//!
//! ```text
//! cargo run --release -p bench --bin scale            # full sweep (→ 4096 hosts)
//! cargo run --release -p bench --bin scale -- --fast  # CI sweep (→ 256 hosts)
//! cargo run --release -p bench --bin scale -- --out scale.json
//! cargo run --release -p bench --bin scale -- --scenario storm-64 --seed 3
//! ```
//!
//! With `--scenario <name>` the sweep collapses to that one registry
//! scenario (still producing the full per-cell record, repair timing
//! included).

use bench::scale::{render_table, run_cell, sweep, to_json, ScaleConfig};

fn main() {
    let args = bench::cli::CommonArgs::parse(&[]);
    let fast = args.fast;
    let seed = args.seed(0);
    let out_path = args.out_path();

    let points = if let Some(mut spec) = args.scenario(seed) {
        if fast {
            // Same CI-budget cap as the fig2 scenario path.
            spec.intervals = spec.intervals.min(25);
            if let carol::scenario::WorkloadSource::Replay { events } = &mut spec.workload {
                events.retain(|e| e.interval < 25);
            }
        }
        println!(
            "scale: single scenario '{}' ({} hosts, {} intervals)",
            spec.name, spec.n_hosts, spec.intervals
        );
        vec![run_cell(&spec, spec.seed)]
    } else {
        let config = if fast {
            ScaleConfig::fast(seed)
        } else {
            ScaleConfig::full(seed)
        };
        println!(
            "scale sweep: sizes {:?}, {} intervals each{}",
            config.sizes,
            config.intervals,
            if fast { " (--fast)" } else { "" }
        );
        sweep(&config)
    };
    print!("{}", render_table(&points));

    if let Some(path) = out_path {
        std::fs::write(&path, to_json(&points))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {} points to {path}", points.len());
    }
}
