//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark run and prints, in order: a run header, the simulated
//! model outputs, every metric by name with its unit, and as the last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero, naming the workload and the check, when an output check fails.

use perfbench::run::{run, Config, Report, END_TO_END, PER_LAYER, SETUP_REPS};
use perfbench::workload::{Sizes, Workload};
use perfbench::CountingAllocator;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str =
    "usage: perfbench --workload <soak|fleet|replay|chaos> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::BENCH,
    })
}

/// The commit of the checkout in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed_checks.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = config.workload.name();
    let report = match run(&config, process_start) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: workload {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench run header: workload={name} seed={} trace={} cpus={cpus} rustc=\"{}\" git={} passes={} setup_reps={SETUP_REPS}",
        config.seed,
        u8::from(config.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_revision(),
        report.passes,
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let directions = if config.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (metric, &(_, _, better)) in report.metrics.iter().zip(directions) {
        println!(
            "# {} = {} {} ({better} is better)",
            metric.name, metric.value, metric.unit
        );
    }
    println!("{}", json(&report));

    if report.failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        for check in &report.failed_checks {
            eprintln!("perfbench: workload {name}: output check failed: {check}");
        }
        ExitCode::FAILURE
    }
}
