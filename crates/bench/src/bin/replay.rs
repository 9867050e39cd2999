//! Record/replay tooling over the campaign matrix.
//!
//! ```text
//! cargo run -p wsn-bench --bin replay --release -- record sr --grid 8x8 --n 10 --trial 0
//! cargo run -p wsn-bench --bin replay --release -- diff a.trace b.trace
//! cargo run -p wsn-bench --bin replay --release -- verify a.trace
//! cargo run -p wsn-bench --bin replay --release -- shrink a.trace
//! cargo run -p wsn-bench --bin replay --release -- smoke
//! cargo run -p wsn-bench --bin replay --release -- bench
//! ```
//!
//! * `record` re-executes one campaign coordinate traced and saves a
//!   `replay_<coord>.trace` artifact (`--plan` attaches a fault
//!   schedule in `round:kill-nodes:1,2` text form, `--drive` picks the
//!   drive mode (`classic` or `event-<net model token>`, e.g.
//!   `event-loss100000-lat2`), `--scenario H:P` records a conformance
//!   scenario instead of a matrix trial).
//! * `diff` compares two artifacts event-by-event and prints the first
//!   divergent record with context; exit code 1 on divergence.
//! * `verify` re-executes an artifact's spec and diffs the fresh trace
//!   against the recorded one (the golden-fixture check).
//! * `shrink` delta-debugs an artifact's fault schedule against its
//!   recorded baseline until the divergence is 1-minimal, writing
//!   `<artifact>.shrunk.txt`.
//! * `smoke` is the CI entry point: records the planted-bug scheme
//!   against real SR on an 8×8 schedule, checks the diff pinpoints the
//!   corruption, shrinks to the known 1-batch/1-victim minimum, and
//!   round-trips the artifact — exit 0 only if every step holds.
//! * `bench` times record/replay overhead (untraced run vs traced run
//!   vs codec round-trip) and writes `BENCH_replay.json` in the
//!   ledger's min/mean/max shape.
//!
//! Artifacts land in `results/` at the workspace root (or
//! `$WSN_RESULTS_DIR`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wsn_bench::perf;
use wsn_bench::replay::{
    self, fault_plan_from_str, fault_plan_to_string, record, shrink_between, Recording,
    ReplayArtifact, ReplaySpec, PLANTED_SCHEME_ID,
};
use wsn_coverage::scheme::DriveMode;
use wsn_simcore::replay::diff_logs;
use wsn_simcore::FaultEvent;
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

fn parse_grid(s: &str) -> Result<(u16, u16), String> {
    let (c, r) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("bad grid {s:?}, expected COLSxROWS"))?;
    Ok((
        c.parse().map_err(|_| format!("bad grid cols {c:?}"))?,
        r.parse().map_err(|_| format!("bad grid rows {r:?}"))?,
    ))
}

fn build_spec(mut args: Vec<String>) -> Result<(ReplaySpec, Option<PathBuf>), String> {
    let grid = match take_flag(&mut args, "--grid")? {
        Some(g) => parse_grid(&g)?,
        None => (8, 8),
    };
    let n: usize = match take_flag(&mut args, "--n")? {
        Some(v) => v.parse().map_err(|_| format!("bad --n {v:?}"))?,
        None => 10,
    };
    let trial: u64 = match take_flag(&mut args, "--trial")? {
        Some(v) => v.parse().map_err(|_| format!("bad --trial {v:?}"))?,
        None => 0,
    };
    let scenario = take_flag(&mut args, "--scenario")?;
    let seed: Option<u64> = take_flag(&mut args, "--seed")?
        .map(|v| v.parse().map_err(|_| format!("bad --seed {v:?}")))
        .transpose()?;
    let plan = match take_flag(&mut args, "--plan")? {
        Some(text) => fault_plan_from_str(&text).map_err(|e| e.to_string())?,
        None => wsn_simcore::FaultPlan::new(),
    };
    let drive = match take_flag(&mut args, "--drive")? {
        Some(d) => d.parse().map_err(|e| format!("bad --drive: {e}"))?,
        None => DriveMode::Classic,
    };
    let out = take_flag(&mut args, "--out")?.map(PathBuf::from);
    let scheme = match args.iter().find(|a| !a.starts_with("--")) {
        Some(s) => s.clone(),
        None => return Err("record needs a scheme id".into()),
    };
    let mut spec = match scenario {
        Some(s) => {
            let (h, p) = s
                .split_once(':')
                .ok_or_else(|| format!("bad --scenario {s:?}, expected HOLES:PER_CELL"))?;
            ReplaySpec::scenario(
                &scheme,
                grid,
                h.parse().map_err(|_| format!("bad holes {h:?}"))?,
                p.parse().map_err(|_| format!("bad per_cell {p:?}"))?,
                seed.unwrap_or(42),
            )
        }
        None => {
            let mut m = ReplaySpec::matrix(&scheme, grid, n, trial);
            if let Some(seed) = seed {
                m.master_seed = seed;
            }
            m
        }
    };
    spec = spec.with_drive(drive).with_plan(plan);
    Ok((spec, out))
}

fn cmd_record(args: Vec<String>) -> Result<(), String> {
    let (spec, out) = build_spec(args)?;
    let rec = record(&spec).map_err(|e| e.to_string())?;
    let artifact = ReplayArtifact::from_recording(&rec, None);
    let path = out.unwrap_or_else(|| out_dir().join(artifact.file_name()));
    artifact.save(&path).map_err(|e| e.to_string())?;
    println!(
        "recorded {} (stream seed {}): {} events, {} moves, {} messages -> {}",
        spec.slug(),
        spec.stream_seed(),
        rec.trace.len(),
        rec.report.metrics.moves,
        rec.report.metrics.messages,
        path.display()
    );
    Ok(())
}

fn cmd_diff(a: &Path, b: &Path) -> Result<bool, String> {
    let left = ReplayArtifact::load(a).map_err(|e| format!("{}: {e}", a.display()))?;
    let right = ReplayArtifact::load(b).map_err(|e| format!("{}: {e}", b.display()))?;
    let diff = diff_logs(&left.trace, &right.trace);
    println!("{diff}");
    Ok(diff.is_clean())
}

fn cmd_verify(path: &Path) -> Result<bool, String> {
    let artifact = ReplayArtifact::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let diff = artifact.verify().map_err(|e| e.to_string())?;
    println!("{}: re-executed {}", path.display(), artifact.spec.slug());
    println!("{diff}");
    Ok(diff.is_clean())
}

fn cmd_shrink(path: &Path) -> Result<bool, String> {
    let artifact = ReplayArtifact::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some((baseline, baseline_drive)) = artifact.baseline.clone() else {
        return Err(format!(
            "{}: artifact records no baseline to diff against; re-record with one",
            path.display()
        ));
    };
    let left = artifact.spec.clone();
    let right = left
        .clone()
        .with_scheme(&baseline)
        .with_drive(baseline_drive);
    let report = shrink_between(&left, &right).map_err(|e| e.to_string())?;
    if !report.reproduced {
        println!("divergence does not reproduce from the recorded schedule; nothing to shrink");
        return Ok(false);
    }
    let text = fault_plan_to_string(&report.plan);
    let out = path.with_extension("shrunk.txt");
    std::fs::write(&out, format!("{text}\n")).map_err(|e| e.to_string())?;
    println!(
        "minimal failing schedule: {} of {} batches kept after {} oracle runs",
        report.plan.events().len(),
        report.initial_batches,
        report.oracle_calls
    );
    println!("  {}", if text.is_empty() { "<empty>" } else { &text });
    println!("  -> {}", out.display());
    Ok(true)
}

/// The CI smoke: prove the record -> diff -> shrink loop end-to-end on
/// an 8×8 schedule with the planted-bug scheme.
fn cmd_smoke(dir: &Path) -> Result<(), String> {
    let plan = wsn_simcore::FaultPlan::new()
        .at(1, FaultEvent::KillRandomEnabled { count: 1 })
        .at(3, FaultEvent::KillNodes(node_ids(&[5, 9])))
        .at(4, FaultEvent::KillNodes(node_ids(&[12])));
    let planted = ReplaySpec::matrix(PLANTED_SCHEME_ID, (8, 8), 10, 0).with_plan(plan.clone());
    let real = planted.clone().with_scheme("sr");

    // 1. Record both sides; the planted bug must diverge.
    let left = record(&planted).map_err(|e| e.to_string())?;
    let right = record(&real).map_err(|e| e.to_string())?;
    let diff = diff_logs(&left.trace, &right.trace);
    if diff.is_clean() {
        return Err("planted bug did not diverge from real SR".into());
    }
    println!(
        "planted divergence at record #{} (common prefix {})",
        diff.divergence.as_ref().map_or(0, |d| d.index),
        diff.common_prefix
    );

    // 2. Artifacts round-trip through the binary container.
    let artifact = ReplayArtifact::from_recording(&left, Some(("sr".into(), DriveMode::Classic)));
    let path = dir.join(artifact.file_name());
    artifact.save(&path).map_err(|e| e.to_string())?;
    let loaded = ReplayArtifact::load(&path).map_err(|e| e.to_string())?;
    if loaded != artifact {
        return Err(format!(
            "artifact round-trip mismatch for {}",
            path.display()
        ));
    }
    // Re-execution from the artifact alone reproduces the trace.
    let replayed = loaded.verify().map_err(|e| e.to_string())?;
    if !replayed.is_clean() {
        return Err("artifact did not replay to an identical trace".into());
    }
    println!("artifact round-trips and replays clean: {}", path.display());

    // 3. The shrinker lands on the hand-computed minimum: one
    //    kill-nodes batch with one victim.
    let report = shrink_between(&planted, &real).map_err(|e| e.to_string())?;
    if !report.reproduced {
        return Err("shrinker failed to reproduce the divergence".into());
    }
    let events = report.plan.events();
    let minimal = events.len() == 1
        && matches!(&events[0].event, FaultEvent::KillNodes(ids) if ids.len() == 1);
    if !minimal {
        return Err(format!(
            "expected a 1-batch/1-victim minimum, got {:?}",
            fault_plan_to_string(&report.plan)
        ));
    }
    // Deterministic: a second shrink takes the identical path.
    let again = shrink_between(&planted, &real).map_err(|e| e.to_string())?;
    if again.plan != report.plan || again.oracle_calls != report.oracle_calls {
        return Err("shrink is not deterministic across reruns".into());
    }
    let text = fault_plan_to_string(&report.plan);
    std::fs::write(path.with_extension("shrunk.txt"), format!("{text}\n"))
        .map_err(|e| e.to_string())?;
    println!(
        "shrunk {} -> {} batches in {} oracle runs: {}",
        report.initial_batches,
        events.len(),
        report.oracle_calls,
        text
    );
    println!("replay smoke OK");
    Ok(())
}

fn node_ids(raw: &[u32]) -> Vec<wsn_simcore::NodeId> {
    raw.iter().copied().map(wsn_simcore::NodeId::new).collect()
}

/// [`perf::time_ns`] after three untimed warm-up calls, which stabilize
/// caches first so `min_ns` is comparable across machines and runs (the
/// perf gate diffs it at 25%).
fn time_warm_ns(samples: usize, mut f: impl FnMut()) -> perf::Timing {
    for _ in 0..3 {
        f();
    }
    perf::time_ns(samples, f)
}

/// Measures trace record/replay overhead and writes `BENCH_replay.json`.
fn cmd_bench(dir: &Path) -> Result<(), String> {
    const SAMPLES: usize = 40;
    let spec = ReplaySpec::matrix("sr", (16, 16), 100, 0);
    let run_untraced = || {
        let scheme = replay::scheme_with_plan("sr", &spec.fault_plan).expect("sr is replayable");
        let mut net = spec.build_network();
        scheme
            .run(&mut net, spec.stream_seed(), spec.drive)
            .expect("sr runs the bench spec");
    };
    let run_traced = || -> Recording { record(&spec).expect("sr records the bench spec") };

    let untraced = time_warm_ns(SAMPLES, run_untraced);
    let traced = time_warm_ns(SAMPLES, || {
        run_traced();
    });
    let rec = run_traced();
    let artifact = ReplayArtifact::from_recording(&rec, None);
    let bytes = artifact.to_bytes();
    let codec = time_warm_ns(SAMPLES, || {
        let round = ReplayArtifact::from_bytes(&artifact.to_bytes()).expect("self round-trip");
        assert_eq!(round.trace.len(), rec.trace.len());
    });
    let replayed = time_warm_ns(SAMPLES, || {
        assert!(artifact.verify().expect("bench spec replays").is_clean());
    });

    let overhead_percent = if untraced.mean > 0.0 {
        (traced.mean / untraced.mean - 1.0) * 100.0
    } else {
        0.0
    };
    let json = JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-replay/1")),
        ("spec", JsonValue::from(spec.slug())),
        ("trace_events", JsonValue::from(rec.trace.len() as u64)),
        ("artifact_bytes", JsonValue::from(bytes.len() as u64)),
        ("record_overhead_percent", JsonValue::from(overhead_percent)),
        (
            "benchmarks",
            JsonValue::Arr(vec![
                perf::bench_entry("run_untraced_sr_16x16", SAMPLES, untraced),
                perf::bench_entry("run_traced_sr_16x16", SAMPLES, traced),
                perf::bench_entry("artifact_codec_round_trip", SAMPLES, codec),
                perf::bench_entry("replay_and_diff", SAMPLES, replayed),
            ]),
        ),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("BENCH_replay.json");
    std::fs::write(&path, json.to_file_string()).map_err(|e| e.to_string())?;
    println!(
        "traced run overhead {overhead_percent:.1}% over {} events -> {}",
        rec.trace.len(),
        path.display()
    );
    Ok(())
}

const USAGE: &str = "usage: replay <record|diff|verify|shrink|smoke|bench> [args]
  record <scheme> [--grid CxR] [--n N] [--trial T] [--seed S] [--plan TEXT]
                  [--drive classic|event-<net>] [--scenario H:P] [--out FILE]
  diff <a.trace> <b.trace>
  verify <a.trace>
  shrink <a.trace>
  smoke
  bench";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = args.remove(0);
    let outcome: Result<bool, String> = match cmd.as_str() {
        "record" => cmd_record(args).map(|()| true),
        "diff" => match args.as_slice() {
            [a, b] => cmd_diff(Path::new(a), Path::new(b)),
            _ => Err("diff needs exactly two artifact paths".into()),
        },
        "verify" => match args.as_slice() {
            [a] => cmd_verify(Path::new(a)),
            _ => Err("verify needs exactly one artifact path".into()),
        },
        "shrink" => match args.as_slice() {
            [a] => cmd_shrink(Path::new(a)),
            _ => Err("shrink needs exactly one artifact path".into()),
        },
        "smoke" => {
            let dir = out_dir();
            std::fs::create_dir_all(&dir)
                .map_err(|e| e.to_string())
                .and_then(|()| cmd_smoke(&dir))
                .map(|()| true)
        }
        "bench" => cmd_bench(&out_dir()).map(|()| true),
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
