//! Regenerates Fig. 6(a–c): sensitivity of MSE, decision time, energy and
//! SLO violation rate to the generation learning rate γ, the GON memory
//! footprint, and the tabu-list size.
//!
//! ```text
//! cargo run -p bench --bin fig6 --release             # standard setting
//! cargo run -p bench --bin fig6 --release -- --fast   # reduced setting
//! ```

use bench::fig6::{run, Fig6Config, SensitivityPoint, Sweep};

fn print_panel(panel: &str, sweep: Sweep, points: &[SensitivityPoint]) {
    println!(
        "\n=== Fig. 6({panel}) — sensitivity to {} ===",
        sweep.label()
    );
    println!(
        "{:>12}  {:>10}  {:>14}  {:>12}  {:>10}",
        sweep.label(),
        "MSE",
        "decision (s)",
        "energy (kWh)",
        "SLO rate"
    );
    for p in points {
        println!(
            "{:>12}  {:>10.4}  {:>14.5}  {:>12.2}  {:>10.4}",
            p.x, p.mse, p.decision_s, p.energy_kwh, p.slo_rate
        );
    }
}

fn main() {
    let fast = bench::cli::CommonArgs::parse(&[]).fast;
    let seed = 11;
    let config = if fast {
        Fig6Config::fast(seed)
    } else {
        Fig6Config::standard(seed)
    };

    for (panel, sweep) in [
        ("a", Sweep::LearningRate),
        ("b", Sweep::MemoryGb),
        ("c", Sweep::TabuListSize),
    ] {
        eprintln!("[fig6] sweeping {}…", sweep.label());
        let points = run(sweep, &config);
        print_panel(panel, sweep, &points);
    }

    println!(
        "\n# Paper shape targets: γ = 1e-3 gives the best QoS (higher γ fails to\n\
         # converge, lower γ inflates scheduling time); QoS gains flatten past\n\
         # 1 GB of model memory while scheduling time keeps rising; larger tabu\n\
         # lists trade scheduling time for better energy/SLO."
    );
}
