//! The traced run: re-drives a workload's trials through the public API
//! with a span around every call, and derives the per-layer metrics.
//!
//! Calls are timed from outside the program: `derive_stream_seed`,
//! `deploy::uniform_masked`, `GridNetwork::with_mask`,
//! `CycleTopology::build_masked` and `elect_all_heads` (both timed
//! standalone on a copy, because `ReplacementScheme::run` repeats them
//! internally), one `repair_heads` scan of the elected copy, and
//! `ReplacementScheme::run` in classic and event drive.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use wsn_baselines::builtins;
use wsn_bench::campaign::{
    run_campaign, run_campaign_resumable, CampaignConfig, CampaignMode, CampaignResult,
    CampaignRun, CancelAfter,
};
use wsn_coverage::scheme::{DriveMode, SchemeRegistry, SchemeReport};
use wsn_grid::{deploy, GridNetwork, GridSystem, HeadElection, RegionMask};
use wsn_hamilton::CycleTopology;
use wsn_serve::CheckpointStore;
use wsn_simcore::{derive_stream_seed, Metrics, NetModelSpec, SimRng};
use wsn_stats::Summary;

use crate::report::{median, peak_rss_mb, Outcome, PER_LAYER};
use crate::served::{
    self, direct_artifact, probe_late_ms, probe_summary, run_job, state_dir, Daemon, Probe,
};
use crate::spans::{write_spans, Tracer};
use crate::workloads::{check_artifact, workers, Failures, Workload, ROUND_CAP};

/// Served jobs of the traced run's `/healthz`-under-load sample.
const TRACED_JOBS: u64 = 10;

/// One timed `ReplacementScheme::run`.
struct Run {
    scheme: String,
    n: usize,
    /// `None` for classic drive.
    net: Option<NetModelSpec>,
    time: Duration,
    report: SchemeReport,
}

/// Everything one re-drive pass measured.
#[derive(Default)]
struct Redrive {
    trials: u64,
    runs: Vec<Run>,
    deploy: Vec<f64>,
    build: Vec<f64>,
    topology: Vec<f64>,
    election: Vec<f64>,
    repair: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The network models a workload's trials run under besides classic
/// drive: the degraded sweep's, or Ideal weather alone (the event twin
/// of every classic run).
fn event_nets(cfg: &CampaignConfig) -> Vec<NetModelSpec> {
    if cfg.mode == CampaignMode::Degraded {
        (0..cfg.degraded.combo_count())
            .map(|c| cfg.degraded.spec(c))
            .collect()
    } else {
        vec![NetModelSpec::Ideal]
    }
}

/// Re-drives every trial of `cfg` (one full-region grid), recording
/// spans into `tracer`. Each Ideal-weather event report must equal its
/// classic twin.
fn redrive(
    cfg: &CampaignConfig,
    registry: &SchemeRegistry,
    tracer: &Tracer,
) -> Result<Redrive, String> {
    let (cols, rows) = cfg.grids[0];
    let nets = event_nets(cfg);
    let mut out = Redrive::default();
    for &n in &cfg.targets {
        for t in 0..cfg.seeds_per_cell {
            let coord = format!("{cols}x{rows}/n{n}/t{t}");
            let trial = tracer.open("trial", None, Some(&coord));
            let parent = Some(trial.id());
            let (seed, _) = tracer.time("derive_stream_seed", parent, || {
                derive_stream_seed(
                    cfg.master_seed,
                    &[u64::from(cols), u64::from(rows), n as u64, t],
                )
            });
            let sys = GridSystem::for_comm_range(cols, rows, cfg.comm_range)
                .map_err(|e| e.to_string())?;
            let mask = RegionMask::full(cols, rows);
            let (positions, d) = tracer.time("deploy::uniform_masked", parent, || {
                deploy::uniform_masked(
                    &sys,
                    &mask,
                    n + mask.enabled_count(),
                    &mut SimRng::seed_from_u64(seed),
                )
            });
            out.deploy.push(ms(d));
            let (net, d) = tracer.time("GridNetwork::with_mask", parent, || {
                GridNetwork::with_mask(sys, mask.clone(), &positions)
            });
            let net = net.map_err(|e| e.to_string())?;
            out.build.push(ms(d));
            let (topo, d) = tracer.time("CycleTopology::build_masked", parent, || {
                CycleTopology::build_masked(&mask)
            });
            topo.map_err(|e| e.to_string())?;
            out.topology.push(ms(d));
            let mut elected = net.clone();
            let (_, d) = tracer.time("GridNetwork::elect_all_heads", parent, || {
                elected.elect_all_heads(HeadElection::FirstId, &mut SimRng::seed_from_u64(seed));
            });
            out.election.push(ms(d));
            let (_, d) = tracer.time("GridNetwork::repair_heads", parent, || {
                elected.repair_heads(HeadElection::FirstId, &mut SimRng::seed_from_u64(seed))
            });
            out.repair.push(d.as_secs_f64() * 1e6);
            for id in &cfg.schemes {
                let scheme = registry
                    .get(id.as_str())
                    .ok_or("scheme missing from registry")?;
                let drive = |mode: DriveMode| -> Result<Run, String> {
                    let mut copy = net.clone();
                    let label = format!("{coord}/{id}/{mode}");
                    let open = tracer.open("ReplacementScheme::run", parent, Some(&label));
                    let report = scheme
                        .run(&mut copy, seed, mode)
                        .map_err(|e| e.to_string())?;
                    let m = &report.metrics;
                    let time = tracer.close(
                        open,
                        &[
                            ("rounds", m.rounds as f64),
                            ("moves", m.moves as f64),
                            ("messages", m.messages as f64),
                            ("cells_scanned", m.cells_scanned as f64),
                            ("messages_sent", report.health.messages_sent as f64),
                            ("messages_dropped", report.health.messages_dropped as f64),
                            (
                                "duplicate_initiations",
                                report.health.duplicate_initiations as f64,
                            ),
                        ],
                    );
                    let net = match mode {
                        DriveMode::EventDriven { net } => Some(net),
                        _ => None,
                    };
                    Ok(Run {
                        scheme: id.to_string(),
                        n,
                        net,
                        time,
                        report,
                    })
                };
                let classic = drive(DriveMode::Classic)?;
                for &spec in &nets {
                    let event = drive(DriveMode::EventDriven { net: spec })?;
                    if spec == NetModelSpec::Ideal && event.report != classic.report {
                        return Err(format!(
                            "{coord}/{id}: Ideal-weather event report differs from the classic one"
                        ));
                    }
                    out.runs.push(event);
                }
                out.runs.push(classic);
            }
            tracer.close(trial, &[]);
            out.trials += 1;
        }
    }
    Ok(out)
}

/// Whether `run` is one of the campaign's own trials: classic drive in
/// a classic campaign, the cell's weather in a degraded one.
fn campaign_run(cfg: &CampaignConfig, run: &Run) -> bool {
    (cfg.mode == CampaignMode::Degraded) == run.net.is_some()
}

/// Checks the re-driven trials reproduce the campaign's per-cell
/// aggregates exactly: same seeds, same deployments, same reports.
fn check_against_campaign(
    cfg: &CampaignConfig,
    result: &CampaignResult,
    runs: &[Run],
) -> Result<(), String> {
    // (scheme, N, weather) -> (moves, rounds, covered trials)
    type Cell = (Summary, Summary, u64);
    let mut cells: BTreeMap<(String, usize, Option<String>), Cell> = BTreeMap::new();
    for run in runs.iter().filter(|r| campaign_run(cfg, r)) {
        let cell = cells
            .entry((run.scheme.clone(), run.n, run.net.map(|s| s.token())))
            .or_insert_with(|| (Summary::new(), Summary::new(), 0));
        cell.0.push(run.report.metrics.moves as f64);
        cell.1.push(run.report.metrics.rounds as f64);
        cell.2 += u64::from(run.report.fully_covered);
    }
    if cells.len() != result.cells.len() {
        return Err(format!(
            "re-drive covers {} cells, campaign has {}",
            cells.len(),
            result.cells.len()
        ));
    }
    for c in &result.cells {
        let key = (c.scheme.to_string(), c.n_target, c.net.map(|s| s.token()));
        let (moves, rounds, covered) = cells
            .get(&key)
            .ok_or_else(|| format!("re-drive lacks cell {key:?}"))?;
        let mean = |name: &str| c.metric(name).map(|s| s.summary().mean());
        if mean("moves") != Some(moves.mean())
            || mean("rounds") != Some(rounds.mean())
            || c.covered_trials != *covered
        {
            return Err(format!(
                "re-driven trials disagree with campaign cell {key:?}"
            ));
        }
    }
    Ok(())
}

/// Totals over one scheme's classic runs.
struct Classic {
    runs: f64,
    /// Median time of one run, ms.
    run_ms: f64,
    time: Duration,
    rounds: f64,
    moves: f64,
    cells_scanned: f64,
    initiated: f64,
    converged: f64,
}

fn classic(runs: &[Run], scheme: &str) -> Option<Classic> {
    let mine: Vec<&Run> = runs
        .iter()
        .filter(|r| r.scheme == scheme && r.net.is_none())
        .collect();
    if mine.is_empty() {
        return None;
    }
    let sum = |f: fn(&Metrics) -> u64| mine.iter().map(|r| f(&r.report.metrics) as f64).sum();
    Some(Classic {
        runs: mine.len() as f64,
        run_ms: median(&mine.iter().map(|r| ms(r.time)).collect::<Vec<_>>()),
        time: mine.iter().map(|r| r.time).sum(),
        rounds: sum(|m| m.rounds),
        moves: sum(|m| m.moves),
        cells_scanned: sum(|m| m.cells_scanned),
        initiated: sum(|m| m.processes_initiated),
        converged: sum(|m| m.processes_converged),
    })
}

/// Event-drive time under Ideal weather over classic time, on the same
/// networks; 0 when the workload does not run `scheme`.
fn slowdown(runs: &[Run], scheme: &str) -> f64 {
    let total = |net: Option<NetModelSpec>| -> f64 {
        runs.iter()
            .filter(|r| r.scheme == scheme && r.net == net)
            .map(|r| r.time.as_secs_f64())
            .sum()
    };
    let classic = total(None);
    if classic > 0.0 {
        total(Some(NetModelSpec::Ideal)) / classic
    } else {
        0.0
    }
}

/// SR and SR-SC failures among the re-driven runs, by the end-to-end
/// definition.
fn failures(runs: &[Run]) -> Failures {
    let mut f = Failures::default();
    for r in runs
        .iter()
        .filter(|r| r.scheme == "sr" || r.scheme == "sr-sc")
    {
        f.trials += 1;
        let capped = r.report.metrics.rounds as f64 >= ROUND_CAP;
        let ideal = r.net.is_none_or(|n| n == NetModelSpec::Ideal);
        f.failed += u64::from(capped || (ideal && !r.report.fully_covered));
    }
    f
}

/// The traced run of workload `w`. Writes `spans.jsonl` (one span per
/// line, with self time) and `layers.txt` (self time by span name) to
/// `out`.
pub fn run_traced(w: Workload, seed: u64, out: &Path) -> Result<Outcome, String> {
    let workers = workers();
    let cfg = CampaignConfig {
        seeds_per_cell: w.traced_seeds_per_cell(),
        ..w.config(seed, 0, workers)
    };
    let registry = builtins();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();

    // The campaign itself, at full width and on one worker.
    let tracer = Tracer::new(true);
    let open = tracer.open("run_campaign", None, None);
    let result = run_campaign(&cfg).map_err(|e| e.to_string())?;
    let wall_w = tracer.close(open, &[("workers", workers as f64)]);
    let open = tracer.open("run_campaign", None, None);
    let single = run_campaign(&cfg.clone().with_workers(1)).map_err(|e| e.to_string())?;
    let wall_1 = tracer.close(open, &[("workers", 1.0)]);
    let t0 = Instant::now();
    let json = result.to_json().to_file_string();
    m.insert("artifact.json_ms", ms(t0.elapsed()));
    let t0 = Instant::now();
    let csv = result.to_csv();
    m.insert("artifact.csv_ms", ms(t0.elapsed()));
    m.insert("artifact.bytes", json.len() as f64);
    check_artifact(&cfg, &json, Some(&csv))?;
    if single.to_json().to_file_string() != json {
        return Err("one-worker artifact differs from the multi-worker one".into());
    }
    m.insert(
        "campaign.parallel_efficiency",
        wall_1.as_secs_f64() / (workers as f64 * wall_w.as_secs_f64()),
    );

    // The re-drive, traced between two untraced passes so that warm-up
    // and drift do not land on one side of the overhead ratio.
    let untraced = || -> Result<f64, String> {
        let t0 = Instant::now();
        redrive(&cfg, &registry, &Tracer::new(false))?;
        Ok(t0.elapsed().as_secs_f64())
    };
    let before = untraced()?;
    let t0 = Instant::now();
    let traced = redrive(&cfg, &registry, &tracer)?;
    let traced_wall = t0.elapsed().as_secs_f64();
    let after = untraced()?;
    m.insert("trace.overhead_ratio", 2.0 * traced_wall / (before + after));
    check_against_campaign(&cfg, &result, &traced.runs)?;
    let runs = &traced.runs;

    let campaign_time: Duration = runs
        .iter()
        .filter(|r| campaign_run(&cfg, r))
        .map(|r| r.time)
        .sum();
    m.insert(
        "campaign.fixed_us_per_trial",
        wall_1.saturating_sub(campaign_time).as_secs_f64() * 1e6 / cfg.trial_count() as f64,
    );
    m.insert("deploy.ms", median(&traced.deploy));
    m.insert("grid.build_ms", median(&traced.build));
    m.insert("topology.ms", median(&traced.topology));
    m.insert("election.ms", median(&traced.election));
    m.insert("grid.repair_heads_us", median(&traced.repair));
    if let Some(c) = classic(runs, "sr") {
        m.insert("sr.run_ms", c.run_ms);
        m.insert("sr.rounds", c.rounds / c.runs);
        m.insert(
            "sr.us_per_round",
            c.time.as_secs_f64() * 1e6 / c.rounds.max(1.0),
        );
        m.insert("sr.moves", c.moves / c.runs);
    }
    if let Some(c) = classic(runs, "sr-sc") {
        m.insert("sr-sc.run_ms", c.run_ms);
        m.insert("sr-sc.rounds", c.rounds / c.runs);
        m.insert(
            "sr-sc.us_per_round",
            c.time.as_secs_f64() * 1e6 / c.rounds.max(1.0),
        );
        m.insert(
            "sr-sc.cells_scanned_per_round",
            c.cells_scanned / c.rounds.max(1.0),
        );
    }
    if let Some(c) = classic(runs, "ar") {
        m.insert("ar.run_ms", c.run_ms);
        m.insert("ar.rounds", c.rounds / c.runs);
        m.insert("ar.ms_per_round", ms(c.time) / c.rounds.max(1.0));
        m.insert("ar.converged_ratio", c.converged / c.initiated.max(1.0));
    }
    m.insert("actor.sr.slowdown", slowdown(runs, "sr"));
    m.insert("actor.sr-sc.slowdown", slowdown(runs, "sr-sc"));
    m.insert("actor.ar.slowdown", slowdown(runs, "ar"));
    let events: Vec<&Run> = runs.iter().filter(|r| r.net.is_some()).collect();
    let sent: u64 = events.iter().map(|r| r.report.health.messages_sent).sum();
    let dropped: u64 = events
        .iter()
        .map(|r| r.report.health.messages_dropped)
        .sum();
    let event_time: Duration = events.iter().map(|r| r.time).sum();
    m.insert(
        "event.ns_per_message",
        event_time.as_secs_f64() * 1e9 / sent.max(1) as f64,
    );
    m.insert("event.drop_ratio", dropped as f64 / sent.max(1) as f64);
    m.insert(
        "event.duplicate_initiations",
        events
            .iter()
            .map(|r| r.report.health.duplicate_initiations as f64)
            .sum::<f64>()
            / events.len().max(1) as f64,
    );

    let trial_failures = failures(runs);
    let mut outcome = Outcome {
        correct: true,
        attempted: runs.len() as u64,
        failed: trial_failures.failed,
        ..Outcome::default()
    };
    if w == Workload::Served {
        let (requests, failed) = serve_layers(seed, out, &tracer, &mut m)?;
        outcome.attempted += requests;
        outcome.failed += failed;
    }

    let spans = tracer.into_spans();
    m.insert("trace.spans", spans.len() as f64);
    m.insert("trace.trials", traced.trials as f64);
    m.insert("process.peak_rss_mb", peak_rss_mb()?);
    let totals = write_spans(&spans, &out.join("spans.jsonl")).map_err(|e| e.to_string())?;
    let mut table = String::from("span\tcount\ttotal_ms\tself_ms\n");
    for (name, count, total, own) in totals {
        table += &format!(
            "{name}\t{count}\t{:.3}\t{:.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    std::fs::write(out.join("layers.txt"), &table).map_err(|e| e.to_string())?;
    eprint!("{table}");
    outcome.metrics = m;
    Ok(outcome)
}

/// The `served` layers: idle and loaded `/healthz`, submit, stream and
/// result over real sockets, checkpoints at the daemon default, and the
/// job's overhead over a direct `run_campaign`. Returns the requests
/// attempted and failed.
fn serve_layers(
    seed: u64,
    out: &Path,
    tracer: &Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(u64, u64), String> {
    let cfg = Workload::Served.config(seed, 0, workers());
    let mut direct = Vec::new();
    let mut expected = String::new();
    for _ in 0..3 {
        let (artifact, wall) = direct_artifact(&cfg)?;
        direct.push(wall.as_secs_f64());
        expected = artifact;
    }

    let daemon = Daemon::start(&state_dir(out, "traced-state")?, 0)?;
    daemon.ready()?;
    // Idle probes, spaced by seeded gaps so they do not lock onto the
    // accept loop's poll period.
    let mut rng = SimRng::seed_from_u64(served::probe_seed(seed, u64::MAX));
    let mut idle = Vec::new();
    let mut failed = 0u64;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_secs_f64(0.005 + 0.025 * rng.uniform_f64()));
        let open = tracer.open("http.healthz_idle", None, None);
        let ok = matches!(
            wsn_serve::client::request(&daemon.addr, "GET", "/healthz", None),
            Ok(r) if r.status == 200
        );
        idle.push(ms(tracer.close(open, &[])));
        failed += u64::from(!ok);
    }
    let jobs: Result<Vec<_>, String> = (0..TRACED_JOBS)
        .map(|rep| {
            let span = tracer.open("served.job", None, Some(&format!("served-16/job{rep}")));
            let job = run_job(
                &daemon,
                &cfg,
                served::probe_seed(seed, rep),
                tracer,
                Some(span.id()),
            );
            tracer.close(span, &[]);
            job
        })
        .collect();
    daemon.stop()?;
    let jobs = jobs?;
    let mut requests = idle.len() as u64;
    let mut probes: Vec<Probe> = Vec::new();
    let (mut submit, mut first_delta, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lines, mut bytes) = (0u64, 0u64);
    for job in jobs {
        if job.artifact != expected {
            return Err("served artifact differs from the direct run_campaign artifact".into());
        }
        submit.push(ms(job.submit));
        first_delta.push(ms(job.first_delta));
        walls.push(job.wall.as_secs_f64());
        lines += job.seen.lines;
        bytes += job.seen.bytes;
        requests += 3 + job.probes.len() as u64;
        failed += job.probes.iter().filter(|p| !p.ok).count() as u64;
        probes.extend(job.probes);
    }

    // The same job at the daemon's default checkpoint interval.
    let defaults = wsn_serve::ServeConfig::default_config();
    let daemon = Daemon::start(
        &state_dir(out, "traced-checkpoints")?,
        defaults.checkpoint_every,
    )?;
    daemon.ready()?;
    let job_span = tracer.open(
        "served.job_checkpointed",
        None,
        Some("served-16/checkpointed"),
    );
    let job = run_job(
        &daemon,
        &cfg,
        served::probe_seed(seed, TRACED_JOBS),
        tracer,
        Some(job_span.id()),
    );
    tracer.close(job_span, &[]);
    daemon.stop()?;
    let job = job?;
    if job.artifact != expected {
        return Err("checkpointed served artifact differs from the direct artifact".into());
    }
    requests += 3 + job.probes.len() as u64;
    failed += job.probes.iter().filter(|p| !p.ok).count() as u64;
    m.insert("serve.checkpoints", job.seen.checkpoints as f64);

    // `CheckpointStore::save_checkpoint` on a real mid-run checkpoint,
    // overwriting the previous save as a running job does.
    let cp = match run_campaign_resumable(&cfg, None, &CancelAfter::new(defaults.checkpoint_every))
        .map_err(|e| e.to_string())?
    {
        CampaignRun::Interrupted(cp) => cp,
        CampaignRun::Complete(_) => return Err("a budgeted campaign ran to completion".into()),
    };
    let store =
        CheckpointStore::open(&state_dir(out, "traced-store")?).map_err(|e| e.to_string())?;
    let mut saves = Vec::new();
    for _ in 0..5 {
        let open = tracer.open("CheckpointStore::save_checkpoint", None, None);
        store
            .save_checkpoint("job-0", &cp)
            .map_err(|e| e.to_string())?;
        saves.push(ms(tracer.close(open, &[])));
    }

    let (p50, tail, pct) = probe_summary(&probes);
    m.insert("serve.healthz_idle_ms", median(&idle));
    m.insert("serve.submit_ms", median(&submit));
    m.insert("serve.first_delta_ms", median(&first_delta));
    m.insert("serve.stream_lines", lines as f64 / TRACED_JOBS as f64);
    m.insert("serve.stream_bytes", bytes as f64 / TRACED_JOBS as f64);
    m.insert("serve.checkpoint_ms", median(&saves));
    m.insert("serve.overhead_ratio", median(&walls) / median(&direct));
    m.insert("serve.probe_late_ms", probe_late_ms(&probes));
    m.insert("serve.healthz_ms_p50", p50);
    m.insert("serve.healthz_ms_tail", tail);
    m.insert("serve.healthz_tail_pct", pct);
    m.insert("serve.healthz_samples", probes.len() as f64);
    m.insert(
        "serve.failed_request_ratio",
        failed as f64 / requests as f64,
    );
    Ok((requests, failed))
}
