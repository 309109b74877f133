//! `carolbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run record line, then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics traced).

use carolbench::{RunConfig, Workload, WORKERS};
use std::process::ExitCode;

const USAGE: &str = "usage: carolbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        intervals: workload.full_intervals(trace),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the simulator's sharded stages to the controller's worker count,
    // before any thread starts.
    std::env::set_var(par::THREADS_ENV, WORKERS.to_string());

    let outcome = carolbench::run(&config);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failures = serde_json::to_string(&outcome.failures).expect("strings serialise");
    println!(
        "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"par_workers\": {WORKERS}, \"simd\": \"{}\", \"commit\": \"{}\", \"failures\": {failures}}}}}",
        config.workload.name(),
        config.seed,
        config.trace,
        nn::kernel::active().name(),
        carolbench::commit().unwrap_or_else(|| "unknown".into()),
    );
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
