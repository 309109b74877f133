//! Regenerates Fig. 5(a–f): CAROL vs the seven baselines and the four
//! ablated models on energy, response time, SLO violation rate, decision
//! time, memory consumption and fine-tuning overhead, averaged over
//! seeded runs.
//!
//! ```text
//! cargo run -p bench --bin fig5 --release             # 5 seeds × 100 intervals
//! cargo run -p bench --bin fig5 --release -- --fast   # 2 seeds × 25 intervals
//! ```

use bench::fig5::{run, Fig5Config, PolicyMetrics};
use bench::{render_comparison, Row};

fn rows_for(metric: &str, data: &[PolicyMetrics]) -> Vec<Row> {
    data.iter()
        .map(|p| Row {
            name: p.name.clone(),
            metrics: vec![match metric {
                "energy" => p.energy_kwh.clone(),
                "response" => p.response_s.clone(),
                "slo" => p.slo_rate.clone(),
                "decision" => p.decision_s.clone(),
                "memory" => p.memory_pct.clone(),
                "overhead" => p.overhead_s.clone(),
                _ => unreachable!("unknown metric"),
            }],
        })
        .collect()
}

fn main() {
    let args = bench::cli::CommonArgs::parse(&[]);
    let mut config = if args.fast {
        Fig5Config::fast()
    } else {
        Fig5Config::paper()
    };
    // --scenario <name>: run the whole policy × seed sweep under a
    // registry scenario's shape (workload suite/rate, federation size,
    // fault intensity) instead of the paper's 16-host testbed. The sweep
    // runs through `run_experiment`, which samples a synthetic suite on
    // the least-load scheduler — scenarios that replay a trace or swap
    // the scheduler would be silently misrepresented, so they are
    // rejected up front (use fig2/scale for those: they run the full
    // scenario engine).
    if let Some(spec) = args.scenario(config.experiment.seed) {
        use carol::scenario::{SchedulerKind, WorkloadSource};
        assert!(
            matches!(spec.workload, WorkloadSource::Suite { .. }),
            "fig5 --scenario only supports synthetic-suite scenarios \
             (the sweep has no trace-replay path); '{}' replays a trace — \
             use `fig2 --scenario` or `scale --scenario` instead",
            spec.name
        );
        assert!(
            spec.scheduler == SchedulerKind::LeastLoad,
            "fig5 --scenario only supports least-load scenarios \
             (the sweep has no scheduler axis); '{}' uses {:?} — \
             use `fig2 --scenario` or `scale --scenario` instead",
            spec.name,
            spec.scheduler
        );
        let intervals = config.experiment.intervals.min(spec.intervals);
        config.experiment = carol::runner::ExperimentConfig {
            intervals,
            ..spec.experiment_config()
        };
        eprintln!(
            "[fig5] scenario '{}': {} hosts, fault rate {}",
            spec.name, spec.n_hosts, spec.fault_rate
        );
    }
    eprintln!(
        "[fig5] running {} policies × {} seeds × {} intervals…",
        config.policies.len(),
        config.seeds.len(),
        config.experiment.intervals
    );
    let t0 = std::time::Instant::now();
    let data = run(&config);
    eprintln!(
        "[fig5] sweep finished in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let panels: [(&str, &str, &str); 6] = [
        ("a", "energy", "Energy (kWh)"),
        ("b", "response", "Response Time (s)"),
        ("c", "slo", "SLO Violation Rate"),
        ("d", "decision", "Decision Time (s)"),
        ("e", "memory", "Memory (%)"),
        ("f", "overhead", "Fine-Tune Overhead (s)"),
    ];
    for (panel, key, header) in panels {
        println!("\n=== Fig. 5({panel}) — {header} (mean ± std over seeds; % vs CAROL) ===");
        println!(
            "{}",
            render_comparison(&[header], &rows_for(key, &data), Some("CAROL"))
        );
    }

    // The paper's headline claims, checked against this run.
    let find = |name: &str| data.iter().find(|p| p.name == name);
    if let (Some(carol), Some(stepgan), Some(fras), Some(dyverse)) = (
        find("CAROL"),
        find("StepGAN"),
        find("FRAS"),
        find("DYVERSE"),
    ) {
        println!("\n=== Headline claims (paper → this run) ===");
        // Signed relative change of CAROL vs the named baseline; negative
        // means CAROL is lower (better for all four cost metrics).
        let delta = |ours: f64, base: f64| 100.0 * (ours - base) / base.max(1e-12);
        println!(
            "energy vs StepGAN:          paper −16.4%  → measured {:+.1}%",
            delta(carol.energy_kwh.mean(), stepgan.energy_kwh.mean())
        );
        println!(
            "response time vs FRAS:      paper −8.0%   → measured {:+.1}%",
            delta(carol.response_s.mean(), fras.response_s.mean())
        );
        println!(
            "SLO violations vs FRAS:     paper −17.0%  → measured {:+.1}%",
            delta(carol.slo_rate.mean(), fras.slo_rate.mean())
        );
        println!(
            "fine-tune overhead vs FRAS: paper −35.6%  → measured {:+.1}%",
            delta(carol.fine_tune_overhead(), fras.fine_tune_overhead())
        );
        println!(
            "decision time vs DYVERSE:   paper +6.8%   → measured {:+.1}%",
            delta(carol.decision_s.mean(), dyverse.decision_s.mean())
        );
    }
}
