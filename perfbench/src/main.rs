//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <recover-256|weather-32|served-16> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics for `--seconds`; with `--trace 1` it re-drives the
//! workload's trials with a span around every layer call and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}`. A wrong output
//! (an artifact that does not parse back or has the wrong shape, a
//! served result that differs from a direct `run_campaign`, an event
//! report that differs from its classic twin) exits with status 1.
//! Scratch files go under `.perfbench/<workload>/`.

mod report;
mod served;
mod spans;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER};
use workloads::Workload;

/// Default workload master seed (the paper's campaign seed).
const DEFAULT_SEED: u64 = 20_080_617;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let out = PathBuf::from(".perfbench").join(args.workload.name());
    if out.exists() {
        std::fs::remove_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (outcome, table) = if args.trace {
        (
            traced::run_traced(args.workload, args.seed, &out)?,
            &PER_LAYER[..],
        )
    } else {
        let outcome = match args.workload {
            Workload::Served => served::run_served(args.seed, args.seconds, &out)?,
            w => workloads::run_direct(w, args.seed, args.seconds, &out)?,
        };
        (outcome, &END_TO_END[..])
    };
    outcome.to_line(table)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
