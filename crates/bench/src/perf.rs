//! The perf ledger: min/mean/max wall-clock benchmarks for the hot
//! paths, with a checked-in baseline comparison gate.
//!
//! Two artifacts, written by `cargo run -p wsn-bench --bin perf -- run`:
//!
//! * `BENCH_core.json` — micro benchmarks of the word-level kernels and
//!   the arena reset: one ascending sweep of the network's vacancy
//!   index (a [`HoleSet`](wsn_grid::HoleSet)) after a mass failure, as a
//!   detection sweep copies it, the masked-ring successor walk over the
//!   flat tables, and [`GridNetwork::reset_into`] vs a from-scratch
//!   build.
//! * `BENCH_campaign.json` — end-to-end campaign throughput: the full
//!   engine (deploy → repair → aggregate) on 64×64 and 256×256
//!   full-recovery matrices and 1024×1024 and 4096×4096
//!   single-replacement trials — plus the per-round flatness entries:
//!   one fixed-length SR cascade on 64×64, 256×256 and 1024×1024, timed
//!   round loop only and reported as `ns_per_round`, which must not
//!   grow with the grid.
//!
//! Every entry is the shape `{name, samples, min_ns, mean_ns, max_ns,
//! p50_ns}` plus, when the sample is large enough, `tail_ns` and
//! `tail_pct` (see [`Timing::tail`]), as [`time_ns`] and [`bench_entry`]
//! produce it; `replay bench` (`BENCH_replay.json`) and `served bench`
//! (`BENCH_serve.json`) time with the same pair. `min_ns` is the
//! comparison statistic: it is the least noisy summary of a loop's cost
//! on a busy machine. The median and the tail say how far a typical and
//! a slow sample sit above it.
//!
//! The **compare gate** (`perf compare`) parses a fresh `results/`
//! directory against the checked-in `baselines/` directory and fails
//! when any benchmark's `min_ns` regresses by more than the threshold
//! (25% by default). Benchmarks present only in the baseline (e.g. the
//! heavy grids that `--smoke` skips) are reported but never fail the
//! gate, so one baseline file serves both the full and the smoke run.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use wsn_coverage::scheme::{DriveMode, SchemeProtocol};
use wsn_coverage::{SrConfig, SrProtocol};
use wsn_grid::{deploy, GridNetwork, GridSystem, RegionShape};
use wsn_hamilton::{CycleTopology, MaskedCycle};
use wsn_simcore::{FaultEvent, RoundProtocol, SimRng, TraceLog};
use wsn_stats::JsonValue;

use crate::campaign::{
    build_trial_network, run_campaign, trial_stream_seed, CampaignConfig, CampaignMode, TrialArena,
};

/// Default regression threshold of the compare gate, in percent on
/// `min_ns`.
pub const DEFAULT_THRESHOLD_PERCENT: f64 = 25.0;

/// The ledger files `perf run` writes and `perf compare` checks. The
/// replay bench (`replay bench`) contributes `BENCH_replay.json` in the
/// same shape, the serve bench (`served bench`) `BENCH_serve.json`;
/// `BENCH_avail.json` carries the steady-state availability throughput.
pub const LEDGER_FILES: [&str; 6] = [
    "BENCH_core.json",
    "BENCH_campaign.json",
    "BENCH_replay.json",
    "BENCH_avail.json",
    "BENCH_event.json",
    "BENCH_serve.json",
];

/// A sample of times in nanoseconds, summarized as a ledger entry
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest sample: what `perf compare` gates on.
    pub min: f64,
    /// The mean.
    pub mean: f64,
    /// The slowest sample.
    pub max: f64,
    /// The nearest-rank median.
    pub p50: f64,
    /// `(percentile, value)` at the highest of p99, p95, p90 and p75
    /// (nearest rank) that leaves at least ten samples above its rank,
    /// so the tail rests on more than a few outliers. `None` when none
    /// does, which is every sample of fewer than 40.
    pub tail: Option<(f64, f64)>,
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave above its rank.
const TAIL_BEYOND: usize = 10;

/// Times one closure `samples` times (at least one): the ledger's entry
/// statistics.
pub fn time_ns(samples: usize, mut f: impl FnMut()) -> Timing {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    summarize(&times)
}

/// The [`Timing`] of a non-empty sample of times.
fn summarize(times: &[f64]) -> Timing {
    assert!(!times.is_empty(), "a timing needs at least one sample");
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least p% at or below it.
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).max(1);
    Timing {
        min: sorted[0],
        mean: times.iter().sum::<f64>() / n as f64,
        max: sorted[n - 1],
        p50: sorted[rank(50.0) - 1],
        tail: TAIL_PERCENTILES
            .iter()
            .find(|&&p| n - rank(p) >= TAIL_BEYOND)
            .map(|&p| (p, sorted[rank(p) - 1])),
    }
}

/// One ledger entry, `{name, samples, min_ns, mean_ns, max_ns, p50_ns}`
/// plus `tail_ns` and `tail_pct` when the timing has a tail, from a
/// [`time_ns`] result.
pub fn bench_entry(name: &str, samples: usize, timing: Timing) -> JsonValue {
    let mut pairs = vec![
        ("name", JsonValue::from(name)),
        ("samples", JsonValue::from(samples as u64)),
        ("min_ns", JsonValue::from(timing.min)),
        ("mean_ns", JsonValue::from(timing.mean)),
        ("max_ns", JsonValue::from(timing.max)),
        ("p50_ns", JsonValue::from(timing.p50)),
    ];
    if let Some((pct, ns)) = timing.tail {
        pairs.push(("tail_ns", JsonValue::from(ns)));
        pairs.push(("tail_pct", JsonValue::from(pct)));
    }
    JsonValue::obj(pairs)
}

/// A deployment one node per cell, then a 15% random mass failure: the
/// post-fault state whose vacancy index the sweep entries read.
fn mass_failure_state(cols: u16, rows: u16) -> GridNetwork {
    let sys = GridSystem::for_comm_range(cols, rows, 10.0).expect("bench grid is valid");
    let mut rng = SimRng::seed_from_u64(64_001);
    let pos = deploy::per_cell_exact(&sys, 1, &mut rng);
    let mut net = GridNetwork::new(sys, &pos);
    let kill = net.nodes().len() * 15 / 100;
    net.apply_fault(&FaultEvent::KillRandomEnabled { count: kill }, &mut rng);
    net
}

/// One ascending pass over the vacancy index of one grid's mass-failure
/// state, copied into a reused buffer as SR's, SR-SC's and AR's
/// detection sweeps copy it.
fn sweep_bench(cols: u16, rows: u16, samples: usize) -> JsonValue {
    let net = mass_failure_state(cols, rows);
    let holes = net.vacancies();
    assert!(!holes.is_empty(), "mass failure must open holes");
    let mut buf = Vec::with_capacity(holes.len());
    let sweep = time_ns(samples, || {
        buf.clear();
        buf.extend(holes.iter());
        assert_eq!(buf.len(), holes.len());
    });
    bench_entry(&format!("hole_sweep_{cols}x{rows}"), samples, sweep)
}

/// Runs the core (hole sweep + arena) benchmarks.
///
/// The 64×64 sweep always runs, so the smoke profile shares every
/// benchmark name with the full ledger; the full run adds the 256×256
/// sweep and reports that grid's hole count.
pub fn bench_core(smoke: bool) -> JsonValue {
    let samples = if smoke { 20 } else { 60 };
    let mut entries = vec![sweep_bench(64, 64, samples)];
    let swept_grid = if smoke { (64, 64) } else { (256, 256) };
    if !smoke {
        entries.push(sweep_bench(256, 256, samples));
    }
    let swept_holes = mass_failure_state(swept_grid.0, swept_grid.1).vacant_count();

    // Masked-ring successor queries over the flat tables: one full lap.
    let mask = RegionShape::Annulus.build_mask(64, 64);
    let ring = MaskedCycle::build(&mask).expect("annulus ring exists");
    let start = ring.order()[0];
    let ring_walk = time_ns(samples, || {
        let mut c = start;
        for _ in 0..ring.len() {
            c = ring.successor(c);
        }
        assert_eq!(c, start);
    });

    // Arena reuse: reset_into against a from-scratch trial build on the
    // 64×64 full-recovery deployment.
    let mode = CampaignMode::FullRecovery;
    let grid = (64, 64);
    let seed = trial_stream_seed(20_080_617, RegionShape::Full, grid, 100, 0);
    let build_samples = samples.min(20);
    let fresh_build = time_ns(build_samples, || {
        let net = build_trial_network(mode, 10.0, RegionShape::Full, grid, 100, seed);
        assert!(!net.nodes().is_empty());
    });
    let mut arena = TrialArena::new();
    arena.network(mode, 10.0, RegionShape::Full, grid, 100, seed); // warm the key
    let arena_reset = time_ns(build_samples, || {
        let net = arena.network(mode, 10.0, RegionShape::Full, grid, 100, seed);
        assert!(!net.nodes().is_empty());
    });

    entries.push(bench_entry("masked_ring_walk_64x64", samples, ring_walk));
    entries.push(bench_entry("trial_build_64x64", build_samples, fresh_build));
    entries.push(bench_entry("trial_reset_64x64", build_samples, arena_reset));
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-core/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("swept_holes", JsonValue::from(swept_holes)),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// One end-to-end campaign measurement: run the matrix, report total
/// wall time plus derived trial throughput.
fn campaign_entry(name: &str, samples: usize, cfg: &CampaignConfig) -> JsonValue {
    let trials = cfg.trial_count();
    let timing = time_ns(samples, || {
        let result = run_campaign(cfg).expect("ledger matrices are valid");
        assert_eq!(result.cells.len(), cfg.cell_count());
    });
    let mut entry = bench_entry(name, samples, timing);
    if let JsonValue::Obj(pairs) = &mut entry {
        pairs.push(("trials".into(), JsonValue::from(trials)));
        pairs.push((
            "trials_per_sec".into(),
            JsonValue::from(trials as f64 / (timing.mean / 1e9)),
        ));
    }
    entry
}

/// Hops of the flatness entries' cascade: the same protocol work on
/// every grid (it fits the 64×64 cycle of 4,096 cells).
const CASCADE_HOPS: usize = 4_000;

/// One SR cascade of [`CASCADE_HOPS`] hops on a `side × side` grid: one
/// node per cell, one hole, and the only spare [`CASCADE_HOPS`] cells
/// backward of it on the Hamilton cycle, so the process relays through
/// every cell in between. The clock covers the cascade's rounds after
/// its first relay, and the entry reports their wall time per round.
/// Outside it: deployment and the initial election (O(cells) set-up),
/// detection, and the first relay, whose move into the deployment's
/// hole may grow the member pool once (an O(cells) copy, not per-round
/// work).
fn single_cascade_entry(side: u16, samples: usize) -> JsonValue {
    let sys = GridSystem::for_comm_range(side, side, 10.0).expect("bench grid is valid");
    let topo = CycleTopology::build(side, side).expect("bench grid has a structure");
    let CycleTopology::Single(cycle) = &topo else {
        panic!("even grids carry a single Hamilton cycle");
    };
    let (spare_cell, hole) = (cycle.order()[0], cycle.order()[CASCADE_HOPS]);
    let mut rng = SimRng::seed_from_u64(64_002);
    let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
    pos.push(sys.cell_rect(spare_cell).expect("in bounds").center());
    let net = GridNetwork::new(sys, &pos);
    let mut times = Vec::with_capacity(samples);
    let mut rounds = 0;
    for _ in 0..samples {
        let mut copy = net.clone();
        let mut sr = SrProtocol::new(
            &mut copy,
            topo.clone(),
            SrConfig::default(),
            0,
            DriveMode::Classic,
            TraceLog::disabled(),
        );
        sr.execute_round(0);
        sr.execute_round(1);
        assert_eq!(sr.metrics().moves, 1, "round 1 makes the first relay");
        let mut round = 2;
        let t0 = Instant::now();
        while sr.active_processes() > 0 {
            sr.execute_round(round);
            round += 1;
        }
        times.push(t0.elapsed().as_nanos() as f64);
        assert_eq!(
            sr.network().vacant_count(),
            0,
            "the cascade reaches the spare"
        );
        assert_eq!(sr.metrics().moves, CASCADE_HOPS as u64);
        rounds = round - 2;
    }
    let timing = summarize(&times);
    let mut entry = bench_entry(&format!("sr_single_cascade_{side}x{side}"), samples, timing);
    if let JsonValue::Obj(pairs) = &mut entry {
        pairs.push(("rounds".into(), JsonValue::from(rounds)));
        pairs.push((
            "ns_per_round".into(),
            JsonValue::from(timing.min / rounds as f64),
        ));
    }
    entry
}

/// Runs the end-to-end campaign throughput benchmarks.
///
/// `smoke` keeps only the 64×64 SR matrix, the 32×32 SR-SC matrix and
/// the 64×64 cascade; the full ledger adds the 256×256 full-recovery
/// matrix, the 1024×1024 and 4096×4096 single-replacement trials (the
/// scale acceptance: a 16-million-cell SR trial completes inside the
/// campaign engine), and the 256×256 and 1024×1024 cascades.
pub fn bench_campaign(smoke: bool) -> JsonValue {
    // Fixed worker count: the ledger measures engine cost, not the CI
    // runner's core count.
    let base = CampaignConfig {
        name: "perf".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(64, 64)],
        targets: vec![100],
        seeds_per_cell: 2,
        workers: Some(2),
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "campaign_sr_full_recovery_64x64",
        if smoke { 3 } else { 5 },
        &base,
    )];
    // SR-SC's classic engine: its per-round cost is the beacon bill plus
    // the active couriers, never a pass over the grid.
    let sc = CampaignConfig {
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr-sc"]),
        grids: vec![(32, 32)],
        seeds_per_cell: 8,
        ..base.clone()
    };
    entries.push(campaign_entry(
        "campaign_sr_sc_full_recovery_32x32",
        10,
        &sc,
    ));
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(256, 256)],
            seeds_per_cell: 1,
            ..base.clone()
        };
        entries.push(campaign_entry("campaign_sr_full_recovery_256x256", 2, &big));
        let xl = CampaignConfig {
            grids: vec![(1024, 1024)],
            targets: vec![100],
            seeds_per_cell: 1,
            mode: CampaignMode::SingleReplacement,
            ..base.clone()
        };
        entries.push(campaign_entry(
            "campaign_sr_single_replacement_1024x1024",
            1,
            &xl,
        ));
        // The same spares per cell as 1024×1024 at N = 100: at N = 100
        // the expected walk (~166k hops) would exceed the round cap.
        let xxl = CampaignConfig {
            grids: vec![(4096, 4096)],
            targets: vec![1_600],
            ..xl
        };
        entries.push(campaign_entry(
            "campaign_sr_single_replacement_4096x4096",
            1,
            &xxl,
        ));
    }
    entries.push(single_cascade_entry(64, if smoke { 5 } else { 20 }));
    if !smoke {
        entries.push(single_cascade_entry(256, 10));
        entries.push(single_cascade_entry(1024, 5));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-campaign/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// Runs the steady-state availability throughput benchmarks
/// (`BENCH_avail.json`): the open-system workload (Poisson faults +
/// arrivals + jammer, per-tick repair) driven through the campaign
/// engine. The 8×8 SR matrix always runs; the full ledger adds the
/// 64×64 matrix of the `avail` preset's workload.
pub fn bench_avail(smoke: bool) -> JsonValue {
    use crate::steady::SteadyParams;
    let base = CampaignConfig {
        name: "perf-avail".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(8, 8)],
        targets: vec![40],
        seeds_per_cell: 2,
        workers: Some(2),
        mode: CampaignMode::SteadyState,
        steady: SteadyParams {
            ticks: 32,
            jammer_period: 16,
            ..SteadyParams::default()
        },
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "steady_sr_8x8_32ticks",
        if smoke { 3 } else { 5 },
        &base,
    )];
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(64, 64)],
            targets: vec![256],
            seeds_per_cell: 1,
            steady: SteadyParams {
                ticks: 32,
                fault_rate: 4.0,
                arrival_rate: 4.0,
                jammer_period: 16,
                jammer_radius_cells: 2.5,
                ..SteadyParams::default()
            },
            ..base.clone()
        };
        entries.push(campaign_entry("steady_sr_64x64_32ticks", 2, &big));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-avail/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// Runs the event-engine throughput benchmarks (`BENCH_event.json`):
/// degraded-mode campaigns driven through the message-passing engine.
/// The 8×8 four-weather SR matrix and the 32×32 SR-SC matrix under
/// Ideal and latency-2 weather, loss-free and at 10% loss, always run;
/// the full ledger adds a 16×16 matrix over the four-weather grid plus
/// a lossy three-scheme matrix (the queue-drain and RNG-stream cost at
/// AR's fan-out).
pub fn bench_event(smoke: bool) -> JsonValue {
    use crate::campaign::DegradedParams;
    let base = CampaignConfig {
        name: "perf-event".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(8, 8)],
        targets: vec![40],
        seeds_per_cell: 2,
        workers: Some(2),
        mode: CampaignMode::Degraded,
        degraded: DegradedParams {
            latencies: vec![1, 3],
            loss_ppms: vec![0, 300_000],
        },
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "degraded_sr_8x8_4weather",
        if smoke { 5 } else { 7 },
        &base,
    )];
    // The SR-SC actor under loss-free weather, where a round's beacons
    // are counted in one call instead of routed one by one.
    let sc = CampaignConfig {
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr-sc"]),
        grids: vec![(32, 32)],
        targets: vec![100],
        seeds_per_cell: 8,
        degraded: DegradedParams {
            latencies: vec![1, 2],
            loss_ppms: vec![0],
        },
        ..base.clone()
    };
    entries.push(campaign_entry("degraded_sr_sc_32x32_ideal_lat2", 10, &sc));
    // The same matrix at 10% loss, where every beacon is routed: one
    // addressed fate per spareless head per round.
    let sc_lossy = CampaignConfig {
        degraded: DegradedParams {
            latencies: vec![1, 2],
            loss_ppms: vec![100_000],
        },
        ..sc
    };
    entries.push(campaign_entry("degraded_sr_sc_32x32_loss10", 10, &sc_lossy));
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(16, 16)],
            targets: vec![128],
            seeds_per_cell: 1,
            ..base.clone()
        };
        entries.push(campaign_entry("degraded_sr_16x16_4weather", 2, &big));
        let lossy = CampaignConfig {
            schemes: wsn_coverage::scheme::SchemeId::list(&["ar", "sr", "sr-sc"]),
            degraded: DegradedParams {
                latencies: vec![2],
                loss_ppms: vec![300_000],
            },
            ..base.clone()
        };
        entries.push(campaign_entry(
            "degraded_three_schemes_8x8_lossy",
            2,
            &lossy,
        ));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-event/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// One benchmark's baseline-vs-fresh verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The benchmark name (shared key of baseline and fresh entry).
    pub name: String,
    /// Baseline `min_ns`.
    pub base_min_ns: f64,
    /// Fresh `min_ns`.
    pub fresh_min_ns: f64,
    /// Signed delta in percent (`> 0` = fresh is slower).
    pub delta_percent: f64,
    /// Whether the delta exceeds the gate threshold.
    pub regressed: bool,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {:.0}ns -> {:.0}ns ({:+.1}%)",
            if self.regressed { "REGRESSED" } else { "ok" },
            self.name,
            self.base_min_ns,
            self.fresh_min_ns,
            self.delta_percent
        )
    }
}

/// The compare gate's verdict for one ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// The ledger file name.
    pub file: String,
    /// Verdicts for every benchmark present on both sides.
    pub comparisons: Vec<Comparison>,
    /// Baseline benchmarks the fresh run did not produce (smoke runs
    /// legitimately skip the heavy grids — reported, never failing).
    pub missing: Vec<String>,
    /// Fresh benchmarks with no baseline counterpart. A new benchmark
    /// is ungated until its baseline is checked in, so these are
    /// surfaced as warnings rather than silently dropped.
    pub fresh_only: Vec<String>,
}

impl CompareReport {
    /// Names of the regressed benchmarks.
    pub fn regressions(&self) -> Vec<&str> {
        self.comparisons
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Whether the gate passes for this file.
    pub fn is_ok(&self) -> bool {
        self.comparisons.iter().all(|c| !c.regressed)
    }
}

fn benchmarks_of(doc: &JsonValue) -> Vec<(&str, f64)> {
    doc.get("benchmarks")
        .and_then(JsonValue::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| Some((e.get("name")?.as_str()?, e.get("min_ns")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares one fresh ledger document against its baseline, flagging
/// every benchmark whose `min_ns` regressed by more than
/// `threshold_percent`. Matching is by benchmark name; entries only in
/// the baseline land in [`CompareReport::missing`], entries only in the
/// fresh run in [`CompareReport::fresh_only`].
pub fn compare_docs(
    file: &str,
    baseline: &JsonValue,
    fresh: &JsonValue,
    threshold_percent: f64,
) -> CompareReport {
    let base_entries = benchmarks_of(baseline);
    let fresh_entries = benchmarks_of(fresh);
    let mut comparisons = Vec::new();
    let mut missing = Vec::new();
    for &(name, base_min) in &base_entries {
        match fresh_entries.iter().find(|(n, _)| *n == name) {
            Some(&(_, fresh_min)) => {
                let delta_percent = if base_min > 0.0 {
                    (fresh_min / base_min - 1.0) * 100.0
                } else {
                    0.0
                };
                comparisons.push(Comparison {
                    name: name.to_owned(),
                    base_min_ns: base_min,
                    fresh_min_ns: fresh_min,
                    delta_percent,
                    regressed: delta_percent > threshold_percent,
                });
            }
            None => missing.push(name.to_owned()),
        }
    }
    let fresh_only = fresh_entries
        .iter()
        .filter(|(name, _)| !base_entries.iter().any(|(b, _)| b == name))
        .map(|&(name, _)| name.to_owned())
        .collect();
    CompareReport {
        file: file.to_owned(),
        comparisons,
        missing,
        fresh_only,
    }
}

/// Runs the compare gate over every ledger file present in **both**
/// directories, returning one report per file.
///
/// # Errors
///
/// A human-readable message when no ledger file is comparable (nothing
/// to gate on is a configuration bug, not a pass) or when a present
/// file fails to read or parse.
pub fn compare_dirs(
    baseline_dir: &Path,
    results_dir: &Path,
    threshold_percent: f64,
) -> Result<Vec<CompareReport>, String> {
    let mut reports = Vec::new();
    for file in LEDGER_FILES {
        let base_path = baseline_dir.join(file);
        let fresh_path = results_dir.join(file);
        if !base_path.exists() || !fresh_path.exists() {
            continue;
        }
        let load = |p: &Path| -> Result<JsonValue, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            JsonValue::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        reports.push(compare_docs(
            file,
            &load(&base_path)?,
            &load(&fresh_path)?,
            threshold_percent,
        ));
    }
    if reports.is_empty() {
        return Err(format!(
            "no ledger file present in both {} and {} — ran `perf run` and `replay bench` first?",
            baseline_dir.display(),
            results_dir.display()
        ));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(entries: &[(&str, f64)]) -> JsonValue {
        JsonValue::obj([
            ("schema", JsonValue::from("wsn-bench-core/1")),
            (
                "benchmarks",
                JsonValue::Arr(
                    entries
                        .iter()
                        .map(|&(name, min)| bench_entry(name, 3, summarize(&[min; 3])))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn timings_report_the_median_and_a_tail_with_ten_samples_beyond() {
        let timing = |n: u32| summarize(&(1..=n).rev().map(f64::from).collect::<Vec<_>>());
        let t = timing(1000);
        assert_eq!((t.min, t.max, t.p50, t.mean), (1.0, 1000.0, 500.0, 500.5));
        // p99 leaves exactly ten samples above rank 990.
        assert_eq!(t.tail, Some((99.0, 990.0)));
        // p99 would leave two, p95 leaves ten.
        assert_eq!(timing(200).tail, Some((95.0, 190.0)));
        assert_eq!(timing(100).tail, Some((90.0, 90.0)));
        assert_eq!(timing(40).tail, Some((75.0, 30.0)));
        assert_eq!(timing(39).tail, None);
        assert_eq!(timing(1).p50, 1.0);
        assert_eq!(timing(2).p50, 1.0);
        // The entry carries the tail only when there is one.
        let keys = |t: Timing| match bench_entry("k", 1, t) {
            JsonValue::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            _ => unreachable!("entries are objects"),
        };
        let base = ["name", "samples", "min_ns", "mean_ns", "max_ns", "p50_ns"];
        assert_eq!(keys(timing(39)), base);
        assert_eq!(keys(timing(40))[6..], ["tail_ns", "tail_pct"]);
    }

    #[test]
    fn compare_flags_only_regressions_over_threshold() {
        let base = ledger(&[("a", 1000.0), ("b", 1000.0), ("c", 1000.0), ("gone", 5.0)]);
        let fresh = ledger(&[("a", 1200.0), ("b", 1300.0), ("c", 400.0), ("new", 7.0)]);
        let report = compare_docs("BENCH_core.json", &base, &fresh, 25.0);
        assert_eq!(report.comparisons.len(), 3);
        assert_eq!(report.regressions(), vec!["b"]);
        assert!(!report.is_ok());
        // Smoke-skipped entries are reported, not failed.
        assert_eq!(report.missing, vec!["gone".to_owned()]);
        // A benchmark without a baseline is surfaced, not silently
        // dropped — and never gates.
        assert_eq!(report.fresh_only, vec!["new".to_owned()]);
        let b = &report.comparisons[1];
        assert!((b.delta_percent - 30.0).abs() < 1e-9);
        assert!(b.to_string().starts_with("REGRESSED b:"), "{b}");
        // Exactly at threshold passes; the gate is strict-greater.
        let fresh = ledger(&[("a", 1250.0), ("b", 1000.0), ("c", 1000.0)]);
        assert!(compare_docs("x", &base, &fresh, 25.0).is_ok());
    }

    #[test]
    fn compare_reports_every_fresh_only_entry() {
        let base = ledger(&[("a", 1000.0)]);
        let fresh = ledger(&[("a", 1000.0), ("x", 1.0), ("y", 2.0)]);
        let report = compare_docs("BENCH_avail.json", &base, &fresh, 25.0);
        assert!(report.is_ok());
        assert_eq!(
            report.fresh_only,
            vec!["x".to_owned(), "y".to_owned()],
            "fresh-only entries must be warned about, in ledger order"
        );
        // Identical documents report nothing on either side.
        let clean = compare_docs("BENCH_avail.json", &base, &base, 25.0);
        assert!(clean.missing.is_empty() && clean.fresh_only.is_empty());
    }

    #[test]
    fn compare_round_trips_through_rendered_json() {
        let base = ledger(&[("k", 100.0)]);
        let fresh = JsonValue::parse(&ledger(&[("k", 90.0)]).to_file_string()).unwrap();
        let report = compare_docs("BENCH_core.json", &base, &fresh, 25.0);
        assert!(report.is_ok());
        assert!((report.comparisons[0].delta_percent + 10.0).abs() < 1e-9);
    }

    #[test]
    fn compare_dirs_requires_at_least_one_ledger_pair() {
        let dir = std::env::temp_dir().join("wsn_perf_compare_empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = compare_dirs(&dir, &dir, 25.0).unwrap_err();
        assert!(err.contains("no ledger file"), "{err}");
        // With one pair present, the gate runs.
        std::fs::write(
            dir.join("BENCH_core.json"),
            ledger(&[("k", 100.0)]).to_file_string(),
        )
        .unwrap();
        let reports = compare_dirs(&dir, &dir, 25.0).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn smoke_avail_ledger_round_trips() {
        let doc = bench_avail(true);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("wsn-bench-avail/1")
        );
        let names: Vec<_> = benchmarks_of(&doc)
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names, vec!["steady_sr_8x8_32ticks".to_owned()]);
        let parsed = JsonValue::parse(&doc.to_file_string()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn smoke_core_ledger_carries_the_kernel_contract() {
        let doc = bench_core(true);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("wsn-bench-core/1")
        );
        // The 64×64 mass failure kills 15% of its 4,096 one-node cells.
        let holes = doc
            .get("swept_holes")
            .and_then(JsonValue::as_f64)
            .expect("swept hole count");
        assert_eq!(holes, 614.0);
        // Every smoke entry is a sweep or arena entry the full ledger
        // also carries, in the full ledger's order.
        let names: Vec<_> = benchmarks_of(&doc)
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(
            names,
            [
                "hole_sweep_64x64",
                "masked_ring_walk_64x64",
                "trial_build_64x64",
                "trial_reset_64x64",
            ]
        );
        // Parses back: the gate can read what the ledger writes.
        let parsed = JsonValue::parse(&doc.to_file_string()).unwrap();
        assert_eq!(parsed, doc);
    }
}
