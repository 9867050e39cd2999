//! The perf ledger CLI.
//!
//! ```text
//! cargo run -p wsn-bench --bin perf --release -- run [--smoke] [--out DIR]
//! cargo run -p wsn-bench --bin perf --release -- compare [--baselines DIR]
//!     [--results DIR] [--threshold PCT]
//! ```
//!
//! * `run` executes the core (word kernel + arena), campaign
//!   (end-to-end throughput), steady-state availability and
//!   event-engine benchmarks and writes `BENCH_core.json`,
//!   `BENCH_campaign.json`, `BENCH_avail.json` and `BENCH_event.json`
//!   into `results/` (or `--out`/`$WSN_RESULTS_DIR`).
//!   `--smoke` is the CI profile: seconds, 64×64 only. The full run also
//!   asserts the kernel acceptance ratio (word fold ≥ 5× the `BTreeSet`
//!   fold on the 256×256 mass-failure journal).
//! * `compare` is the regression gate: every `BENCH_*.json` present in
//!   both the baseline directory (default `baselines/`) and the fresh
//!   results directory (default `results/`) is matched benchmark by
//!   benchmark; exit code 1 when any `min_ns` regressed by more than
//!   the threshold (default 25%). To refresh the checked-in ledger:
//!   `perf run --out baselines` plus `replay bench` with
//!   `WSN_RESULTS_DIR=baselines`.

use std::path::PathBuf;
use std::process::ExitCode;

use wsn_bench::perf::{
    bench_avail, bench_campaign, bench_core, bench_event, compare_dirs, DEFAULT_THRESHOLD_PERCENT,
};
use wsn_simcore::shutdown;
use wsn_stats::JsonValue;

fn out_dir() -> PathBuf {
    std::env::var_os("WSN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Consumes `--flag value` / `--flag=value` from `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(v));
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        return Ok(Some(args.remove(i)[prefix.len()..].to_owned()));
    }
    Ok(None)
}

/// Consumes a bare `--flag` switch from `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<(), String> {
    let smoke = take_switch(&mut args, "--smoke");
    let dir = match take_flag(&mut args, "--out")? {
        Some(d) => PathBuf::from(d),
        None => out_dir(),
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let core = bench_core(smoke);
    let speedup = core
        .get("kernel_speedup_min")
        .and_then(JsonValue::as_f64)
        .expect("core ledger carries the speedup");
    let core_path = dir.join("BENCH_core.json");
    std::fs::write(&core_path, core.to_file_string()).map_err(|e| e.to_string())?;
    println!(
        "word kernel {speedup:.1}x over BTreeSet journal fold -> {}",
        core_path.display()
    );
    if !smoke && speedup < 5.0 {
        return Err(format!(
            "kernel acceptance failed: word fold only {speedup:.1}x over the BTreeSet fold \
             (need >= 5x on the 256x256 mass-failure journal)"
        ));
    }

    let write_throughput = |file: &str, doc: &JsonValue| -> Result<(), String> {
        let path = dir.join(file);
        std::fs::write(&path, doc.to_file_string()).map_err(|e| e.to_string())?;
        for entry in doc
            .get("benchmarks")
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
        {
            let name = entry.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            let stat = |key: &str| entry.get(key).and_then(JsonValue::as_f64);
            match stat("ns_per_round") {
                Some(ns) => println!("{name}: {ns:.0} ns/round"),
                None => println!(
                    "{name}: {:.2} trials/sec",
                    stat("trials_per_sec").unwrap_or(0.0)
                ),
            }
        }
        println!("-> {}", path.display());
        Ok(())
    };
    // Each ledger is flushed as soon as it is measured, so a
    // SIGINT/SIGTERM between sections keeps everything already written;
    // the sections themselves are seconds, not minutes.
    type Section = fn(bool) -> JsonValue;
    let sections: [(&str, Section); 3] = [
        ("BENCH_campaign.json", bench_campaign),
        ("BENCH_avail.json", bench_avail),
        ("BENCH_event.json", bench_event),
    ];
    for (file, section) in sections {
        if shutdown::requested() {
            return Err(format!(
                "interrupted by signal; ledgers before {file} are written and complete"
            ));
        }
        write_throughput(file, &section(smoke))?;
    }
    Ok(())
}

fn cmd_compare(mut args: Vec<String>) -> Result<bool, String> {
    let baselines = take_flag(&mut args, "--baselines")?
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("baselines"));
    let results = take_flag(&mut args, "--results")?
        .map(PathBuf::from)
        .unwrap_or_else(out_dir);
    let threshold: f64 = match take_flag(&mut args, "--threshold")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --threshold {v:?}, expected a percentage"))?,
        None => DEFAULT_THRESHOLD_PERCENT,
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let reports = compare_dirs(&baselines, &results, threshold)?;
    let mut ok = true;
    for report in &reports {
        println!("{} (threshold {threshold}%):", report.file);
        for c in &report.comparisons {
            println!("  {c}");
        }
        for name in &report.missing {
            println!("  skipped {name}: not in this run (baseline-only entry)");
        }
        for name in &report.fresh_only {
            println!(
                "  warning {name}: no baseline entry — refresh the checked-in ledger to gate it"
            );
        }
        ok &= report.is_ok();
    }
    if !ok {
        eprintln!("perf compare: regression over {threshold}% detected");
    }
    Ok(ok)
}

const USAGE: &str = "usage: perf <run|compare> [args]
  run     [--smoke] [--out DIR]
  compare [--baselines DIR] [--results DIR] [--threshold PCT]";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = args.remove(0);
    shutdown::install_signal_traps();
    let outcome: Result<bool, String> = match cmd.as_str() {
        "run" => cmd_run(args).map(|()| true),
        "compare" => cmd_compare(args),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
