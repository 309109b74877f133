//! Regenerates Fig. 2: confidence scores and POT threshold values over
//! 1000 scheduling intervals, with the intervals where the model was
//! fine-tuned (the paper's blue bands).
//!
//! ```text
//! cargo run -p bench --bin fig2 --release            # 1000 intervals
//! cargo run -p bench --bin fig2 --release -- --fast  # 200 intervals
//! cargo run -p bench --bin fig2 --release -- --scenario storm-64
//! ```
//!
//! With `--scenario <name>` the confidence trace is recorded under that
//! registry scenario (workload, federation size, fault intensity and
//! scheduler all come from the registry entry) instead of the paper's
//! 16-host AIoTBench shape.

use bench::fig5::fig5_carol_config;
use carol::carol::Carol;
use carol::runner::{run_experiment, ExperimentConfig};
use carol::scenario::run_scenario;

fn print_history(policy: &Carol, intervals: usize, label: &str) {
    println!("# Fig. 2 — confidence scores and POT threshold, {intervals} intervals ({label})");
    println!(
        "# fine-tune events (blue bands in the paper): {:?}",
        policy.fine_tune_intervals
    );
    println!("interval\tconfidence\tpot_threshold\tfine_tuned");
    for (t, (c, z)) in policy
        .confidence_history
        .iter()
        .zip(&policy.threshold_history)
        .enumerate()
    {
        let tuned = policy.fine_tune_intervals.contains(&t) as u8;
        match z {
            Some(z) => println!("{t}\t{c:.4}\t{z:.4}\t{tuned}"),
            None => println!("{t}\t{c:.4}\tNA\t{tuned}"),
        }
    }

    let tunes = policy.fine_tune_intervals.len();
    println!("\n# summary: {tunes} fine-tune events over {intervals} intervals");
    println!(
        "# ({} of intervals — the parsimonious trigger of §III-B; an\n\
         # always-fine-tune policy would have tuned {intervals} times)",
        format_args!("{:.1}%", 100.0 * tunes as f64 / intervals as f64)
    );
}

fn main() {
    let args = bench::cli::CommonArgs::parse(&[]);
    let fast = args.fast;
    let seed = 42;

    if let Some(mut spec) = args.scenario(seed) {
        if fast {
            spec.intervals = spec.intervals.min(25);
        }
        eprintln!("[fig2] pretraining CAROL on a DeFog trace…");
        let mut policy = Carol::pretrained(fig5_carol_config(), seed);
        eprintln!(
            "[fig2] running scenario '{}' ({} hosts, {} intervals)…",
            spec.name, spec.n_hosts, spec.intervals
        );
        let _ = run_scenario(&mut policy, &spec);
        print_history(&policy, spec.intervals, &spec.name);
        return;
    }

    let intervals = if fast { 200 } else { 1000 };

    eprintln!("[fig2] pretraining CAROL on a DeFog trace…");
    let mut policy = Carol::pretrained(fig5_carol_config(), seed);

    eprintln!("[fig2] running {intervals} AIoTBench intervals with fault injection…");
    let config = ExperimentConfig {
        intervals,
        ..ExperimentConfig::paper(seed)
    };
    let _ = run_experiment(&mut policy, &config);

    print_history(&policy, intervals, "paper shape");
}
