//! The mediumgrain benchmark driver.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_collection --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in this process, checks every output, prints one
//! line per metric and, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any check failed and
//! 2 on bad arguments. See `README.md` beside this package.

mod inputs;
mod layers;
mod loadgen;
mod offline;
mod report;
mod serving;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["offline_collection", "serve_mixed", "route_bulk"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "offline_collection" => offline::run,
        "serve_mixed" => serving::serve_mixed,
        _ => serving::route_bulk,
    };
    let mut report: Report = run(args.seed, args.seconds, args.trace);
    report.expect_metrics(if args.trace { &PER_LAYER } else { &END_TO_END });
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
