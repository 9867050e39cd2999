//! The Monte-Carlo sweep behind Figures 6, 7 and 8.
//!
//! Trials drive the schemes through the uniform
//! [`wsn_coverage::ReplacementScheme`] API (the trait path is proven
//! byte-identical to the old direct drivers by the golden sweep
//! fixture).

use serde::{Deserialize, Serialize};

use wsn_baselines::Ar;
use wsn_coverage::scheme::{DriveMode, ReplacementScheme};
use wsn_coverage::{Sr, SrSc};
use wsn_grid::{deploy, GridNetwork, GridSystem};
use wsn_simcore::{Metrics, SimRng};
use wsn_stats::JsonValue;

/// Sweep parameters. The defaults are the paper's §5 setup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Grid columns (`n`).
    pub cols: u16,
    /// Grid rows (`m`).
    pub rows: u16,
    /// Node communication range `R` in meters (`r = R/√5`).
    pub comm_range: f64,
    /// Target spare counts `N` (the x-axis of Figures 6–8).
    pub targets: Vec<usize>,
    /// Monte-Carlo trials (seeds) per target.
    pub trials: u64,
    /// Base seed; trial `t` of target index `i` uses
    /// `base_seed + i·10_000 + t`.
    pub base_seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            cols: 16,
            rows: 16,
            comm_range: 10.0,
            targets: vec![
                10, 25, 55, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, 1000,
            ],
            trials: 10,
            base_seed: 20_080_617, // ICDCS 2008 began June 17.
        }
    }
}

impl SweepConfig {
    /// A smaller, faster sweep for smoke tests and Criterion benches.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            targets: vec![10, 55, 200, 1000],
            trials: 3,
            ..SweepConfig::default()
        }
    }
}

/// One (target, seed) trial: both schemes run on byte-identical
/// deployments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// The swept spare target `N`.
    pub n_target: usize,
    /// Trial seed.
    pub seed: u64,
    /// Holes present after deployment.
    pub holes: usize,
    /// Actual spares after deployment (`N + holes` by construction).
    pub spares: usize,
    /// SR cost counters.
    pub sr: Metrics,
    /// SR reached complete coverage.
    pub sr_covered: bool,
    /// AR cost counters.
    pub ar: Metrics,
    /// AR reached complete coverage.
    pub ar_covered: bool,
}

/// Runs one single-hole replacement with exactly `n` spares placed
/// uniformly over the non-hole cells, returning the hop count of the
/// converged process — a direct sample from Theorem 2's distribution
/// (used by the `figpmf` extension figure and the validation tests).
pub fn simulate_single_replacement(cols: u16, rows: u16, n: usize, seed: u64) -> u64 {
    let sys = GridSystem::new(cols, rows, 4.4721).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let hole = sys.coord_of(rng.range_usize(sys.cell_count()));
    let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
    let occupied: Vec<_> = sys.iter_coords().filter(|c| *c != hole).collect();
    for _ in 0..n {
        let cell = occupied[rng.range_usize(occupied.len())];
        let rect = sys.cell_rect(cell).expect("in bounds");
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
    }
    let mut net = GridNetwork::new(sys, &pos);
    let report = Sr::new()
        .run(&mut net, seed, DriveMode::Classic)
        .expect("valid topology");
    assert!(report.fully_covered, "a spare exists, so SR converges");
    report.processes[0].hops
}

/// Like a plain sweep trial but additionally runs the SR-SC shortcut variant
/// on the same deployment (used by the `figsc` extension figure).
/// Returns `(trial, shortcut_metrics)`.
pub fn run_trial_with_shortcut(
    cfg: &SweepConfig,
    n_target: usize,
    seed: u64,
) -> (TrialResult, Metrics) {
    let trial = run_trial(cfg, n_target, seed);
    let sys = GridSystem::for_comm_range(cfg.cols, cfg.rows, cfg.comm_range)
        .expect("sweep dimensions are valid");
    let mut rng = SimRng::seed_from_u64(seed);
    let positions = deploy::uniform(&sys, n_target + sys.cell_count(), &mut rng);
    let mut net = GridNetwork::new(sys, &positions);
    let report = SrSc::new()
        .run(&mut net, seed, DriveMode::Classic)
        .expect("16x16-class grids have a single cycle");
    (trial, report.metrics)
}

fn run_trial(cfg: &SweepConfig, n_target: usize, seed: u64) -> TrialResult {
    let sys = GridSystem::for_comm_range(cfg.cols, cfg.rows, cfg.comm_range)
        .expect("sweep dimensions are valid");
    let mut rng = SimRng::seed_from_u64(seed);
    // The paper: "(N + m x n) enabled nodes", uniform.
    let enabled = n_target + sys.cell_count();
    let positions = deploy::uniform(&sys, enabled, &mut rng);
    let mut net_sr = GridNetwork::new(sys, &positions);
    let mut net_ar = net_sr.clone();
    let stats = net_sr.stats();

    // Both schemes run through the uniform trait API on byte-identical
    // deployments.
    let sr_report = Sr::new()
        .run(&mut net_sr, seed, DriveMode::Classic)
        .expect("16x16-class grids always have a topology");
    let ar_report = Ar::new()
        .run(&mut net_ar, seed, DriveMode::Classic)
        .expect("AR runs on any grid");

    TrialResult {
        n_target,
        seed,
        holes: stats.vacant,
        spares: stats.spares,
        sr: sr_report.metrics,
        sr_covered: sr_report.fully_covered,
        ar: ar_report.metrics,
        ar_covered: ar_report.fully_covered,
    }
}

/// Runs the full sweep, parallelized across (target, seed) pairs with
/// scoped threads. Results are returned sorted by `(n_target, seed)` so
/// the output is independent of scheduling.
pub fn run_sweep(cfg: &SweepConfig) -> Vec<TrialResult> {
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for (i, &t) in cfg.targets.iter().enumerate() {
        for trial in 0..cfg.trials {
            jobs.push((t, cfg.base_seed + i as u64 * 10_000 + trial));
        }
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(t, seed)) = jobs.get(k) else { break };
                let r = run_trial(cfg, t, seed);
                results.lock().expect("no poisoned trials").push(r);
            });
        }
    });
    let mut out = results.into_inner().expect("scope joined");
    out.sort_by_key(|r| (r.n_target, r.seed));
    out
}

fn metrics_json(m: &Metrics) -> JsonValue {
    JsonValue::obj([
        ("moves", JsonValue::from(m.moves)),
        ("distance", JsonValue::from(m.distance)),
        (
            "processes_initiated",
            JsonValue::from(m.processes_initiated),
        ),
        (
            "processes_converged",
            JsonValue::from(m.processes_converged),
        ),
        ("processes_failed", JsonValue::from(m.processes_failed)),
        (
            "success_rate_percent",
            JsonValue::from(m.success_rate_percent()),
        ),
        ("messages", JsonValue::from(m.messages)),
        ("energy", JsonValue::from(m.energy)),
        ("rounds", JsonValue::from(m.rounds)),
        ("cells_scanned", JsonValue::from(m.cells_scanned)),
    ])
}

/// Serializes a completed sweep as machine-readable JSON — the artifact
/// `results/sweep_<cols>x<rows>.json` that lets perf trajectories be
/// diffed across revisions instead of eyeballing ASCII figures. Trial
/// order is the deterministic `(n_target, seed)` order of
/// [`run_sweep`], so identical code produces identical files.
pub fn sweep_to_json(cfg: &SweepConfig, results: &[TrialResult]) -> JsonValue {
    let targets: Vec<JsonValue> = cfg.targets.iter().map(|&t| JsonValue::from(t)).collect();
    let trials: Vec<JsonValue> = results
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("n_target", JsonValue::from(r.n_target)),
                ("seed", JsonValue::from(r.seed)),
                ("holes", JsonValue::from(r.holes)),
                ("spares", JsonValue::from(r.spares)),
                ("sr", metrics_json(&r.sr)),
                ("sr_covered", JsonValue::from(r.sr_covered)),
                ("ar", metrics_json(&r.ar)),
                ("ar_covered", JsonValue::from(r.ar_covered)),
            ])
        })
        .collect();
    JsonValue::obj([
        (
            "config",
            JsonValue::obj([
                ("cols", JsonValue::from(usize::from(cfg.cols))),
                ("rows", JsonValue::from(usize::from(cfg.rows))),
                ("comm_range", JsonValue::from(cfg.comm_range)),
                ("targets", JsonValue::Arr(targets)),
                ("trials", JsonValue::from(cfg.trials)),
                ("base_seed", JsonValue::from(cfg.base_seed)),
            ]),
        ),
        ("trials", JsonValue::Arr(trials)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_invariant_spares_equal_target_plus_holes() {
        let cfg = SweepConfig {
            targets: vec![10, 200],
            trials: 3,
            ..SweepConfig::default()
        };
        for r in run_sweep(&cfg) {
            assert_eq!(
                r.spares,
                r.n_target + r.holes,
                "spares = N + holes by construction"
            );
        }
    }

    #[test]
    fn sr_always_succeeds_and_beats_ar_on_processes() {
        // The paper's headline claims, at sweep scale: SR covers fully
        // with 100% process success, with at most half the processes AR
        // initiates (aggregate).
        let cfg = SweepConfig {
            targets: vec![55, 300],
            trials: 4,
            ..SweepConfig::default()
        };
        let results = run_sweep(&cfg);
        let mut sr_proc = 0u64;
        let mut ar_proc = 0u64;
        for r in &results {
            assert!(r.sr_covered, "SR must fully cover (N={})", r.n_target);
            assert_eq!(r.sr.success_rate_percent(), 100.0);
            sr_proc += r.sr.processes_initiated;
            ar_proc += r.ar.processes_initiated;
        }
        assert!(
            2 * sr_proc <= ar_proc + results.len() as u64,
            "fewer than ~50% processes in SR: sr={sr_proc} ar={ar_proc}"
        );
    }

    #[test]
    fn sweep_is_deterministic_and_sorted() {
        let cfg = SweepConfig {
            targets: vec![100],
            trials: 4,
            ..SweepConfig::default()
        };
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| (w[0].n_target, w[0].seed) < (w[1].n_target, w[1].seed)));
    }

    #[test]
    fn sweep_json_is_deterministic_and_well_formed() {
        let cfg = SweepConfig {
            targets: vec![10],
            trials: 2,
            ..SweepConfig::default()
        };
        let results = run_sweep(&cfg);
        let a = sweep_to_json(&cfg, &results).to_string();
        let b = sweep_to_json(&cfg, &results).to_string();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"config\""));
        assert!(a.contains("\"cols\":16"));
        assert!(a.contains("\"n_target\":10"));
        assert!(a.contains("\"cells_scanned\""));
        // One trial object per (target, seed) pair.
        assert_eq!(a.matches("\"seed\":").count(), 2);
    }

    #[test]
    fn quick_config_is_small() {
        let q = SweepConfig::quick();
        assert!(q.targets.len() <= 6);
        assert!(q.trials <= 5);
        assert_eq!(q.cols, 16);
    }
}
