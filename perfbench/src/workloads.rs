//! The three workloads, their campaign configs, and the end-to-end loop
//! of the two direct (non-served) workloads.

use std::path::Path;
use std::time::{Duration, Instant};

use wsn_baselines::builtins;
use wsn_bench::campaign::{run_campaign, CampaignConfig, CampaignMode, DegradedParams};
use wsn_coverage::SchemeId;
use wsn_simcore::{derive_stream_seed, NetModelSpec};
use wsn_stats::JsonValue;

use crate::report::{median, Outcome};

/// Round cap of every scheme's default config: a trial that reaches it
/// did not converge.
pub const ROUND_CAP: f64 = 100_000.0;

/// Set-ups timed before each direct campaign. The first one after a
/// 256² campaign runs on cold caches; the median of several is steady.
const SETUPS_PER_CAMPAIGN: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §5 full recovery on 256², classic drive: per-round grid work.
    Recover,
    /// Degraded sweep on 32² through the event engine.
    Weather,
    /// The 16² Figure 6–8 matrix as one `served` job: per-trial fixed
    /// costs and the daemon.
    Served,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Recover, Workload::Weather, Workload::Served];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Recover => "recover-256",
            Workload::Weather => "weather-32",
            Workload::Served => "served-16",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Grid side; also keys the workload's master-seed stream.
    fn side(self) -> u16 {
        match self {
            Workload::Recover => 256,
            Workload::Weather => 32,
            Workload::Served => 16,
        }
    }

    /// Trials per cell of one end-to-end campaign. Recover and weather
    /// campaigns repeat with fresh master seeds until the run's time is
    /// up, so a run averages over many deployments; the served job is
    /// one fixed campaign repeated.
    fn seeds_per_cell(self) -> u64 {
        match self {
            Workload::Recover => 2,
            Workload::Weather => 20,
            Workload::Served => 100,
        }
    }

    /// Trials per cell of the traced run's re-driven campaign.
    pub fn traced_seeds_per_cell(self) -> u64 {
        match self {
            Workload::Recover => 1,
            Workload::Weather => 12,
            Workload::Served => 30,
        }
    }

    /// The campaign of repetition `rep`: the program under test sees
    /// only this config, whose master seed derives from the run seed.
    pub fn config(self, seed: u64, rep: u64, workers: usize) -> CampaignConfig {
        let side = self.side();
        let base = CampaignConfig {
            name: format!("{}-{rep}", self.name()),
            grids: vec![(side, side)],
            seeds_per_cell: self.seeds_per_cell(),
            // 53 bits: the config's wire form carries seeds as exact
            // JSON numbers, and `POST /jobs` refuses anything wider.
            master_seed: derive_stream_seed(seed, &[u64::from(side), rep]) >> 11,
            workers: Some(workers),
            ..CampaignConfig::paper()
        };
        match self {
            Workload::Recover => CampaignConfig {
                schemes: SchemeId::list(&["sr", "ar"]),
                targets: vec![100, 1000],
                ..base
            },
            Workload::Weather => CampaignConfig {
                schemes: SchemeId::list(&["sr", "sr-sc", "ar"]),
                targets: vec![100, 1000],
                mode: CampaignMode::Degraded,
                degraded: DegradedParams {
                    latencies: vec![1, 2],
                    loss_ppms: vec![0, 100_000],
                },
                ..base
            },
            // The paper's Figure 6-8 target sweep, as `CampaignConfig::paper`.
            Workload::Served => CampaignConfig {
                schemes: SchemeId::list(&["ar", "sr", "sr-sc"]),
                ..base
            },
        }
    }
}

/// The workers every workload uses: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builds the registry and validates `cfg` against it, as the campaign
/// engine and `POST /jobs` do before running anything.
pub fn validate(cfg: &CampaignConfig) -> Result<(), String> {
    cfg.validate(&builtins()).map_err(|e| e.to_string())
}

/// Trials of SR and SR-SC cells in an artifact, and how many failed: a
/// trial fails if it reached the round cap or, under classic or Ideal
/// weather, ended with holes (every §5 deployment has spares = holes + N,
/// so Theorem 1 promises coverage). AR is excluded: it does not claim
/// complete coverage. A cell whose maximum round count reached the cap
/// counts at least one failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub trials: u64,
    pub failed: u64,
}

/// Checks one campaign artifact read back from disk: it parses, echoes
/// `cfg`, and holds `cell_count` cells of `seeds_per_cell` trials (and
/// the CSV one row per cell). Returns the SR/SR-SC failure count.
pub fn check_artifact(
    cfg: &CampaignConfig,
    json: &str,
    csv: Option<&str>,
) -> Result<Failures, String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("artifact does not parse: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("wsn-campaign/3") {
        return Err("artifact schema is not wsn-campaign/3".into());
    }
    if doc.get("config") != Some(&cfg.to_json()) {
        return Err("artifact config does not echo the submitted config".into());
    }
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_arr)
        .ok_or("artifact has no cells array")?;
    if cells.len() != cfg.cell_count() {
        return Err(format!(
            "artifact has {} cells, expected {}",
            cells.len(),
            cfg.cell_count()
        ));
    }
    if let Some(csv) = csv {
        let rows = csv.lines().count();
        if rows != cfg.cell_count() + 1 {
            return Err(format!(
                "CSV has {rows} lines, expected {}",
                cfg.cell_count() + 1
            ));
        }
    }
    let ideal = NetModelSpec::Ideal.token();
    let num = |v: &JsonValue, path: &[&str]| -> Result<f64, String> {
        let mut at = v;
        for key in path {
            at = at
                .get(key)
                .ok_or_else(|| format!("cell field {} missing", path.join(".")))?;
        }
        at.as_f64()
            .ok_or_else(|| format!("cell field {} is not a number", path.join(".")))
    };
    let mut failures = Failures::default();
    for cell in cells {
        let trials = num(cell, &["trials"])? as u64;
        if trials != cfg.seeds_per_cell {
            return Err(format!(
                "a cell holds {trials} trials, expected {}",
                cfg.seeds_per_cell
            ));
        }
        let scheme = cell.get("scheme").and_then(JsonValue::as_str).unwrap_or("");
        if scheme != "sr" && scheme != "sr-sc" {
            continue;
        }
        failures.trials += trials;
        let classic = cell
            .get("net")
            .and_then(JsonValue::as_str)
            .is_none_or(|net| net == ideal);
        let mut failed = if classic {
            trials - num(cell, &["covered_trials"])? as u64
        } else {
            0
        };
        if num(cell, &["metrics", "rounds", "max"])? >= ROUND_CAP {
            failed = failed.max(1);
        }
        failures.failed += failed;
    }
    Ok(failures)
}

/// The end-to-end run of `recover-256` and `weather-32`: campaigns with
/// fresh master seeds back to back until `seconds` have passed. Each
/// campaign first sets up (registry and config validation, timed
/// `SETUPS_PER_CAMPAIGN` times for `setup_s`), then is timed from the
/// `run_campaign` call to its artifact on disk; the artifacts are read
/// back and checked outside that window.
pub fn run_direct(w: Workload, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let workers = workers();
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut timed = Duration::ZERO;
    let mut trials = 0u64;
    let mut failures = Failures::default();
    let mut rep = 0;
    while rep == 0 || started.elapsed().as_secs_f64() < seconds {
        let cfg = w.config(seed, rep, workers);
        for _ in 0..SETUPS_PER_CAMPAIGN {
            let t0 = Instant::now();
            validate(&cfg)?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let result = run_campaign(&cfg).map_err(|e| e.to_string())?;
        let (json_path, csv_path) = result.save(out).map_err(|e| e.to_string())?;
        timed += t0.elapsed();
        trials += cfg.trial_count();
        let json = std::fs::read_to_string(&json_path).map_err(|e| e.to_string())?;
        let csv = std::fs::read_to_string(&csv_path).map_err(|e| e.to_string())?;
        let f = check_artifact(&cfg, &json, Some(&csv))?;
        failures.trials += f.trials;
        failures.failed += f.failed;
        std::fs::remove_file(json_path).map_err(|e| e.to_string())?;
        std::fs::remove_file(csv_path).map_err(|e| e.to_string())?;
        rep += 1;
    }
    let mut outcome = Outcome {
        correct: true,
        attempted: trials,
        failed: failures.failed,
        ..Outcome::default()
    };
    outcome.metrics.insert("setup_s", median(&setups));
    outcome
        .metrics
        .insert("trials_per_s", trials as f64 / timed.as_secs_f64());
    outcome
        .metrics
        .insert("trial_success_ratio", success_ratio(failures));
    Ok(outcome)
}

pub fn success_ratio(f: Failures) -> f64 {
    if f.trials == 0 {
        1.0
    } else {
        1.0 - f.failed as f64 / f.trials as f64
    }
}
