//! The parallel campaign engine: experiment matrices with streaming
//! statistics.
//!
//! A **campaign** runs the paper's §5 comparison as a full experiment
//! matrix — scheme × grid size × spare target `N` × seed — sized for
//! the grids the occupancy engine was built for (256×256+) and for
//! enough seeds per cell that every curve carries a confidence
//! interval. It is the only Monte-Carlo path: every figure, golden,
//! the `served` daemon and the repository benchmark run through it.
//! Three properties are load-bearing:
//!
//! * **Lazy expansion.** The matrix is never materialized: a trial is
//!   addressed by a single dense index, decoded on demand into
//!   `(scheme, grid, N, trial)`. A million-trial campaign costs a
//!   counter, not a job vector.
//! * **Deterministic RNG streams.** Trial `(cols, rows, N, t)` draws its
//!   seed from [`wsn_simcore::derive_stream_seed`] — addressed by
//!   coordinates, not by draw order — so any worker may run any trial
//!   and the scheme axis is deliberately excluded from the stream path:
//!   every scheme sees byte-identical deployments, exactly like the
//!   paper's paired comparison. Aggregates are folded **in trial
//!   order** per cell (a small reorder window buffers out-of-order
//!   completions), making campaign output bit-identical for any worker
//!   count — the property `tests/determinism.rs` proves.
//! * **Streaming aggregation.** Trial outcomes fold into per-cell
//!   [`StreamingStat`]s (Welford moments, 95% CI, online histograms for
//!   moves/distance) the moment they complete, so memory is O(matrix
//!   cells), not O(trials).
//!
//! A fourth axis, **region shape** ([`RegionShape`]), sweeps the same
//! matrix over irregular surveillance regions (L-shape, annulus,
//! corridor, random obstacles): each non-full region masks the grid,
//! deployment confines itself to enabled cells, and SR/AR/SR-SC run on
//! the masked replacement structures — `figures --masked` emits the
//! SR-vs-AR comparison across shapes.
//!
//! Execution uses a work-stealing pool of scoped threads: the trial
//! index space is split into per-worker ranges; a worker that drains its
//! range steals the back half of the largest remaining one. Results
//! export through [`CampaignResult::save`] as
//! `results/campaign_<name>.json` + `.csv`, and
//! [`crate::figures`] regenerates Figures 6–8 with CI whiskers from a
//! campaign.
//!
//! # Example
//!
//! A campaign is a plain config run through [`run_campaign`]; the
//! paper's full matrix is [`CampaignConfig::paper`], and any field can
//! be overridden for custom experiments. The scheme axis is a list of
//! registry ids ([`wsn_coverage::SchemeId`]) — any scheme in the
//! registry, including runtime-registered plugins via
//! [`run_campaign_with`], can join the matrix:
//!
//! ```
//! use wsn_bench::campaign::{run_campaign, CampaignConfig};
//!
//! // The paper's §5 matrix, shrunk to a doctest-sized grid.
//! let cfg = CampaignConfig {
//!     name: "doc".into(),
//!     grids: vec![(6, 6)],
//!     targets: vec![5, 20],
//!     seeds_per_cell: 2,
//!     ..CampaignConfig::paper()
//! };
//! let result = run_campaign(&cfg)?;
//! assert_eq!(result.cells.len(), cfg.cell_count());
//! // Paired deployments: SR and AR saw identical hole counts per cell.
//! let sr = result.cell("sr", 6, 6, 5).unwrap();
//! let ar = result.cell("ar", 6, 6, 5).unwrap();
//! assert_eq!(sr.holes, ar.holes);
//! # Ok::<(), wsn_bench::campaign::CampaignError>(())
//! ```
//!
//! ## RNG stream addressing
//!
//! Per-trial seeds come from [`wsn_simcore::derive_stream_seed`], keyed
//! by matrix *coordinates* rather than draw order, so any worker may run
//! any trial and the result is identical. The scheme axis is excluded
//! from the path — every scheme replays the same deployment — while
//! grid, target, and trial (plus the region, when not
//! [`RegionShape::Full`]) each shift the stream:
//!
//! ```
//! use wsn_simcore::derive_stream_seed;
//!
//! let master = 20_080_617;
//! // Trial 7 of the 16x16 / N=200 cell:
//! let seed = derive_stream_seed(master, &[16, 16, 200, 7]);
//! // Same coordinates, same seed — wherever and whenever it runs.
//! assert_eq!(seed, derive_stream_seed(master, &[16, 16, 200, 7]));
//! // Any coordinate change moves the stream.
//! assert_ne!(seed, derive_stream_seed(master, &[16, 16, 200, 8]));
//! assert_ne!(seed, derive_stream_seed(master, &[16, 16, 100, 7]));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::steady::{run_steady_trial, SteadyOutcome, SteadyParams, SteadySummary};
use wsn_baselines::builtins;
use wsn_coverage::scheme::{DriveMode, NetworkSpec, ReplacementScheme, SchemeId, SchemeRegistry};
use wsn_grid::{deploy, GridNetwork, GridSystem, RegionMask, RegionShape};
use wsn_simcore::{derive_stream_seed, Metrics, NetModelSpec, ProtocolHealth, SimRng};
use wsn_stats::{Histogram, JsonValue, StreamingStat};

/// Reads an exactly-representable non-negative integer field from a wire
/// object. [`JsonValue`] numbers are `f64`, so anything above 2^53 (or
/// fractional, or negative) is rejected rather than silently rounded —
/// a daemon restoring a checkpointed `master_seed` must get the exact
/// seed back or refuse.
pub(crate) fn wire_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    let n = wire_f64(v, key)?;
    if !(n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0) {
        return Err(format!("field '{key}': {n} is not an exact u64"));
    }
    Ok(n as u64)
}

/// [`wire_u64`] narrowed to `usize`.
pub(crate) fn wire_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(wire_u64(v, key)?).map_err(|_| format!("field '{key}' overflows usize"))
}

/// Reads a finite `f64` field from a wire object.
pub(crate) fn wire_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    let n = v
        .get(key)
        .ok_or_else(|| format!("field '{key}' missing"))?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))?;
    if !n.is_finite() {
        return Err(format!("field '{key}' is not finite"));
    }
    Ok(n)
}

/// Reads an array field from a wire object.
fn wire_arr<'v>(v: &'v JsonValue, key: &str) -> Result<&'v [JsonValue], String> {
    v.get(key)
        .ok_or_else(|| format!("field '{key}' missing"))?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' is not an array"))
}

/// [`wire_u64`] for a bare array element (no key to index by).
fn elem_u64(v: &JsonValue, what: &str) -> Result<u64, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0) {
        return Err(format!("{what}: {n} is not an exact u64"));
    }
    Ok(n as u64)
}

/// What one campaign trial measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignMode {
    /// The paper's §5 methodology: `(N + m·n)` nodes dropped uniformly,
    /// the scheme repairs every deployment hole (Figures 6–8).
    FullRecovery,
    /// Theorem 2's exact setting: one node per non-hole cell, exactly
    /// `N` spares, one hole, one replacement (Figures 3/5; SR only).
    SingleReplacement,
    /// The open-system availability workload ([`crate::steady`]): the
    /// §5 deployment evolves under Poisson faults, Poisson arrivals and
    /// recurring jammer weather for [`SteadyParams::ticks`] ticks, the
    /// scheme repairing each tick; trials report SLA availability, hole
    /// lifetimes, MTTR and energy burn (`figavail_*` figures).
    SteadyState,
    /// The degraded-network sweep: the §5 full-recovery workload driven
    /// through the event engine
    /// ([`DriveMode::EventDriven`]) over a latency × loss grid
    /// ([`DegradedParams`]), measuring what the synchronous model
    /// assumes away — duplicate initiations, lost cascades, stalled
    /// repairs (`figdeg_*` figures). The network axes join the matrix
    /// innermost; deployments stay paired across schemes *and* weather.
    Degraded,
}

impl CampaignMode {
    fn json_name(&self) -> &'static str {
        match self {
            CampaignMode::FullRecovery => "full_recovery",
            CampaignMode::SingleReplacement => "single_replacement",
            CampaignMode::SteadyState => "steady_state",
            CampaignMode::Degraded => "degraded",
        }
    }

    fn from_json_name(name: &str) -> Option<CampaignMode> {
        [
            CampaignMode::FullRecovery,
            CampaignMode::SingleReplacement,
            CampaignMode::SteadyState,
            CampaignMode::Degraded,
        ]
        .into_iter()
        .find(|m| m.json_name() == name)
    }
}

/// The network axes of a [`CampaignMode::Degraded`] sweep. Each
/// `(latency, loss)` pair maps to one [`NetModelSpec`]:
/// `(≤1, 0)` → `Ideal`, `(t, 0)` → `FixedLatency`, anything lossy →
/// `Bernoulli`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedParams {
    /// Delivery latencies in rounds (outer network axis; `1` = the
    /// classic next-round cadence).
    pub latencies: Vec<u32>,
    /// Loss probabilities in parts-per-million (inner network axis; `0`
    /// = lossless).
    pub loss_ppms: Vec<u32>,
}

impl Default for DegradedParams {
    fn default() -> Self {
        DegradedParams {
            latencies: vec![1],
            loss_ppms: vec![0],
        }
    }
}

impl DegradedParams {
    /// Number of `(latency, loss)` combinations in the sweep.
    pub fn combo_count(&self) -> usize {
        self.latencies.len() * self.loss_ppms.len()
    }

    /// The [`NetModelSpec`] of one combination (dense index, losses
    /// innermost).
    pub fn spec(&self, combo: usize) -> NetModelSpec {
        let latency = self.latencies[combo / self.loss_ppms.len()];
        let loss_ppm = self.loss_ppms[combo % self.loss_ppms.len()];
        match (latency, loss_ppm) {
            (0 | 1, 0) => NetModelSpec::Ideal,
            (ticks, 0) => NetModelSpec::FixedLatency { ticks },
            (latency, loss_ppm) => NetModelSpec::Bernoulli { loss_ppm, latency },
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.latencies.is_empty() || self.loss_ppms.is_empty() {
            return Err("latency and loss axes must be non-empty".into());
        }
        if let Some(l) = self.loss_ppms.iter().find(|&&l| l > 1_000_000) {
            return Err(format!("loss_ppm {l} exceeds 1_000_000 (certain loss)"));
        }
        Ok(())
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            (
                "latencies",
                JsonValue::Arr(
                    self.latencies
                        .iter()
                        .map(|&l| JsonValue::from(l as usize))
                        .collect(),
                ),
            ),
            (
                "loss_ppms",
                JsonValue::Arr(
                    self.loss_ppms
                        .iter()
                        .map(|&l| JsonValue::from(l as usize))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<DegradedParams, String> {
        let axis = |key: &str| -> Result<Vec<u32>, String> {
            wire_arr(v, key)?
                .iter()
                .map(|e| {
                    u32::try_from(elem_u64(e, &format!("'{key}' element"))?)
                        .map_err(|_| format!("'{key}' element overflows u32"))
                })
                .collect()
        };
        Ok(DegradedParams {
            latencies: axis("latencies")?,
            loss_ppms: axis("loss_ppms")?,
        })
    }
}

/// Campaign configuration: the experiment matrix plus execution knobs.
///
/// The matrix is the cartesian product
/// `schemes × regions × grids × targets`, with `seeds_per_cell` trials
/// per cell. `workers` affects wall-clock only — never results — and is
/// therefore excluded from the exported config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Artifact base name: results land in `campaign_<name>.json`/`.csv`.
    pub name: String,
    /// Registry ids of the schemes to run (figure legend order). Every
    /// id must resolve in the registry the campaign runs against
    /// ([`wsn_baselines::builtins`] for [`run_campaign`]).
    pub schemes: Vec<SchemeId>,
    /// Region shapes to sweep ([`RegionShape::Full`] alone reproduces
    /// the paper's rectangular setting; irregular shapes mask the grid).
    pub regions: Vec<RegionShape>,
    /// Grid dimensions `(cols, rows)` to sweep.
    pub grids: Vec<(u16, u16)>,
    /// Spare targets `N` (the x-axis of Figures 6–8).
    pub targets: Vec<usize>,
    /// Node communication range `R` in meters (`r = R/√5`).
    pub comm_range: f64,
    /// Monte-Carlo trials per matrix cell (≥30 for the paper figures, so
    /// normal-approximation intervals are defensible).
    pub seeds_per_cell: u64,
    /// Master seed every per-trial stream is derived from.
    pub master_seed: u64,
    /// What each trial measures.
    pub mode: CampaignMode,
    /// Open-system workload knobs, read only under
    /// [`CampaignMode::SteadyState`] (and only then exported into the
    /// artifact, so closed-mode artifacts are byte-stable).
    pub steady: SteadyParams,
    /// Degraded-network axes, read only under
    /// [`CampaignMode::Degraded`] (same byte-stability contract as
    /// `steady`).
    pub degraded: DegradedParams,
    /// Confidence level for exported intervals (0.90/0.95/0.99).
    pub ci_level: f64,
    /// Worker-thread override (`None` = available parallelism). Not part
    /// of the exported artifact: results are bit-identical for any value.
    pub workers: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::paper()
    }
}

impl CampaignConfig {
    /// The paper's §5 matrix with CI-grade statistics: SR vs AR on the
    /// 16×16 grid, the full Figure 6–8 target sweep, 30 seeds per cell.
    pub fn paper() -> CampaignConfig {
        CampaignConfig {
            name: "paper16".into(),
            schemes: SchemeId::list(&["ar", "sr"]),
            regions: vec![RegionShape::Full],
            grids: vec![(16, 16)],
            targets: vec![
                10, 25, 55, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, 1000,
            ],
            comm_range: 10.0,
            seeds_per_cell: 30,
            master_seed: 20_080_617, // ICDCS 2008 began June 17.
            mode: CampaignMode::FullRecovery,
            steady: SteadyParams::default(),
            degraded: DegradedParams::default(),
            ci_level: 0.95,
            workers: None,
        }
    }

    /// A reduced matrix (4 targets, 10 seeds) for local iteration.
    pub fn quick() -> CampaignConfig {
        CampaignConfig {
            name: "quick16".into(),
            targets: vec![10, 55, 200, 1000],
            seeds_per_cell: 10,
            ..CampaignConfig::paper()
        }
    }

    /// The seconds-long CI smoke matrix: **all five** built-in schemes
    /// on an 8×8 grid, two targets, three seeds. Also the fixture
    /// config of the golden-file test.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig {
            name: "smoke8".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc", "vf", "smart"]),
            grids: vec![(8, 8)],
            targets: vec![10, 100],
            seeds_per_cell: 3,
            ..CampaignConfig::paper()
        }
    }

    /// The irregular-region comparison matrix behind
    /// `figures --masked`: SR vs AR on a 16×16 grid over all
    /// four irregular shapes, with the full region as the rectangular
    /// reference.
    pub fn masked() -> CampaignConfig {
        CampaignConfig {
            name: "masked16".into(),
            regions: RegionShape::ALL.to_vec(),
            targets: vec![10, 25, 55, 100, 200, 400],
            ..CampaignConfig::paper()
        }
    }

    /// The seconds-long masked smoke matrix: **all five** built-in
    /// schemes on an 8×8 L-shape and annulus. Also the fixture config
    /// of the masked golden-file test.
    pub fn masked_smoke() -> CampaignConfig {
        CampaignConfig {
            name: "masked8".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc", "vf", "smart"]),
            regions: vec![RegionShape::LShape, RegionShape::Annulus],
            grids: vec![(8, 8)],
            targets: vec![10, 100],
            seeds_per_cell: 3,
            ..CampaignConfig::paper()
        }
    }

    /// The steady-state availability matrix behind `figures --avail`:
    /// all five schemes on the 64×64 grid under Poisson faults and
    /// arrivals plus a recurring jammer crossing, two spare budgets.
    pub fn avail() -> CampaignConfig {
        CampaignConfig {
            name: "avail64".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc", "vf", "smart"]),
            grids: vec![(64, 64)],
            targets: vec![128, 512],
            seeds_per_cell: 2,
            mode: CampaignMode::SteadyState,
            steady: SteadyParams {
                ticks: 96,
                fault_rate: 4.0,
                arrival_rate: 4.0,
                jammer_period: 48,
                jammer_radius_cells: 2.5,
                ..SteadyParams::default()
            },
            ..CampaignConfig::paper()
        }
    }

    /// The seconds-long steady-state smoke matrix: all five schemes on
    /// an 8×8 grid, short horizon, gentle rates.
    pub fn avail_smoke() -> CampaignConfig {
        CampaignConfig {
            name: "avail8".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc", "vf", "smart"]),
            grids: vec![(8, 8)],
            targets: vec![10, 40],
            seeds_per_cell: 2,
            mode: CampaignMode::SteadyState,
            steady: SteadyParams {
                ticks: 48,
                jammer_period: 16,
                ..SteadyParams::default()
            },
            ..CampaignConfig::paper()
        }
    }

    /// The degraded-network sweep behind `figures --degraded`: the
    /// event-capable schemes (AR, SR, SR-SC) on the 16×16 grid, driven
    /// through a latency × loss matrix from the classic cadence up to
    /// 4-round latency and 30% loss.
    pub fn degraded() -> CampaignConfig {
        CampaignConfig {
            name: "degraded16".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc"]),
            grids: vec![(16, 16)],
            targets: vec![55, 200],
            seeds_per_cell: 10,
            mode: CampaignMode::Degraded,
            degraded: DegradedParams {
                latencies: vec![1, 2, 4],
                loss_ppms: vec![0, 100_000, 300_000],
            },
            ..CampaignConfig::paper()
        }
    }

    /// The seconds-long degraded smoke matrix: AR, SR and SR-SC on an
    /// 8×8 grid over a 2×2 latency × loss grid. Also the fixture config
    /// of the degraded golden-file test.
    pub fn degraded_smoke() -> CampaignConfig {
        CampaignConfig {
            name: "event_smoke8".into(),
            schemes: SchemeId::list(&["ar", "sr", "sr-sc"]),
            grids: vec![(8, 8)],
            targets: vec![10, 100],
            seeds_per_cell: 3,
            mode: CampaignMode::Degraded,
            degraded: DegradedParams {
                latencies: vec![1, 3],
                loss_ppms: vec![0, 300_000],
            },
            ..CampaignConfig::paper()
        }
    }

    /// Sets the worker-thread count (testing and benchmarking knob).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> CampaignConfig {
        self.workers = Some(workers);
        self
    }

    /// Sets the trials-per-cell count.
    #[must_use]
    pub fn with_seeds_per_cell(mut self, seeds: u64) -> CampaignConfig {
        self.seeds_per_cell = seeds;
        self
    }

    /// Network-model combinations per `(scheme, region, grid, target)`
    /// coordinate: the degraded latency × loss grid, or 1 in every
    /// other mode.
    fn net_combo_count(&self) -> usize {
        if self.mode == CampaignMode::Degraded {
            self.degraded.combo_count()
        } else {
            1
        }
    }

    /// Number of matrix cells.
    pub fn cell_count(&self) -> usize {
        self.schemes.len()
            * self.regions.len()
            * self.grids.len()
            * self.targets.len()
            * self.net_combo_count()
    }

    /// Total trials the campaign will execute.
    pub fn trial_count(&self) -> u64 {
        self.cell_count() as u64 * self.seeds_per_cell
    }

    /// Decodes a dense cell index into `(scheme, region, (cols, rows), n)`
    /// — canonical order: schemes outermost, then regions, grids,
    /// targets, and (degraded mode only) the network combination
    /// innermost ([`CampaignConfig::cell_net`]).
    pub(crate) fn cell_params(&self, cell: usize) -> (&SchemeId, RegionShape, (u16, u16), usize) {
        let nets = self.net_combo_count();
        let per_target = nets;
        let per_grid = self.targets.len() * per_target;
        let per_region = self.grids.len() * per_grid;
        let per_scheme = self.regions.len() * per_region;
        let scheme = &self.schemes[cell / per_scheme];
        let rest = cell % per_scheme;
        let region = self.regions[rest / per_region];
        let rest = rest % per_region;
        let grid = self.grids[rest / per_grid];
        let n = self.targets[(rest % per_grid) / per_target];
        (scheme, region, grid, n)
    }

    /// The network model of a dense cell index —
    /// [`NetModelSpec::Ideal`] outside degraded mode.
    pub(crate) fn cell_net(&self, cell: usize) -> NetModelSpec {
        if self.mode != CampaignMode::Degraded {
            return NetModelSpec::Ideal;
        }
        self.degraded.spec(cell % self.net_combo_count())
    }

    /// Validates the matrix against `registry` — the same gate
    /// [`run_campaign_with`] applies before executing. Public so
    /// front-ends (the `served` daemon's `POST /jobs`) can reject bad
    /// configs at submission time instead of at run time.
    ///
    /// # Errors
    ///
    /// The first [`CampaignError`] the config violates.
    pub fn validate(&self, registry: &SchemeRegistry) -> Result<(), CampaignError> {
        if self.schemes.is_empty()
            || self.regions.is_empty()
            || self.grids.is_empty()
            || self.targets.is_empty()
        {
            return Err(CampaignError::EmptyMatrix);
        }
        for (i, id) in self.schemes.iter().enumerate() {
            if !registry.contains(id.as_str()) {
                return Err(CampaignError::UnknownScheme {
                    id: id.to_string(),
                    registered: registry.ids().iter().map(ToString::to_string).collect(),
                });
            }
            // A repeated id would duplicate whole matrix slabs (same
            // stream seeds, twice the trials, two identical series).
            if self.schemes[..i].contains(id) {
                return Err(CampaignError::DuplicateScheme { id: id.to_string() });
            }
        }
        if self.seeds_per_cell == 0 {
            return Err(CampaignError::ZeroSeeds);
        }
        if self.mode == CampaignMode::SingleReplacement
            && self.schemes.iter().any(|s| s.as_str() != "sr")
        {
            return Err(CampaignError::SingleReplacementNeedsSr);
        }
        if self.mode == CampaignMode::SteadyState {
            self.steady
                .validate()
                .map_err(CampaignError::BadSteadyParams)?;
        }
        if self.mode == CampaignMode::Degraded {
            self.degraded
                .validate()
                .map_err(CampaignError::BadDegradedParams)?;
            for id in &self.schemes {
                let scheme = registry.get(id.as_str()).expect("ids checked above");
                if !scheme.supports_event_driven() {
                    return Err(CampaignError::SchemeNotEventDriven { id: id.to_string() });
                }
            }
        }
        let supported = [0.90, 0.95, 0.99];
        if !supported.iter().any(|l| (l - self.ci_level).abs() < 1e-9) {
            return Err(CampaignError::UnsupportedCiLevel(self.ci_level));
        }
        if !(self.comm_range.is_finite() && self.comm_range > 0.0) {
            return Err(CampaignError::BadCommRange(self.comm_range));
        }
        // Establish every per-trial precondition here, so trial execution
        // cannot fail (or panic on a worker thread) for a validated
        // matrix: every scheme must support every (region, grid) of the
        // matrix.
        let invalid =
            |(cols, rows), reason: String| CampaignError::InvalidGrid { cols, rows, reason };
        for &grid in &self.grids {
            let (cols, rows) = grid;
            if let Err(e) = GridSystem::for_comm_range(cols, rows, self.comm_range) {
                return Err(invalid(grid, e.to_string()));
            }
            for &region in &self.regions {
                let mask = region.build_mask(cols, rows);
                if mask.enabled_count() == 0 {
                    return Err(invalid(grid, format!("region '{region}' enables no cells")));
                }
                let spec = NetworkSpec::masked(mask);
                for id in &self.schemes {
                    let scheme = registry.get(id.as_str()).expect("ids checked above");
                    if let Err(e) = scheme.supports(&spec) {
                        return Err(invalid(grid, format!("region '{region}': {e}")));
                    }
                }
            }
        }
        Ok(())
    }

    /// JSON view of the matrix definition — the `wsn-campaign/3` wire
    /// form [`CampaignConfig::from_json`] parses back. Deliberately
    /// excludes `workers`: the artifact must be bit-identical however
    /// the campaign was scheduled.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("name", JsonValue::from(self.name.as_str())),
            ("mode", JsonValue::from(self.mode.json_name())),
            (
                "schemes",
                JsonValue::Arr(
                    self.schemes
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "regions",
                JsonValue::Arr(
                    self.regions
                        .iter()
                        .map(|r| JsonValue::from(r.label()))
                        .collect(),
                ),
            ),
            (
                "grids",
                JsonValue::Arr(
                    self.grids
                        .iter()
                        .map(|&(c, r)| {
                            JsonValue::Arr(vec![
                                JsonValue::from(usize::from(c)),
                                JsonValue::from(usize::from(r)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "targets",
                JsonValue::Arr(self.targets.iter().map(|&t| JsonValue::from(t)).collect()),
            ),
            ("comm_range", JsonValue::from(self.comm_range)),
            ("seeds_per_cell", JsonValue::from(self.seeds_per_cell)),
            ("master_seed", JsonValue::from(self.master_seed)),
            ("ci_level", JsonValue::from(self.ci_level)),
        ];
        // Only steady-state artifacts carry the workload block: closed
        // campaign artifacts (including the checked-in golden files)
        // stay byte-identical.
        if self.mode == CampaignMode::SteadyState {
            fields.push(("steady", self.steady.to_json()));
        }
        if self.mode == CampaignMode::Degraded {
            fields.push(("degraded", self.degraded.to_json()));
        }
        JsonValue::obj(fields)
    }

    /// Parses the [`CampaignConfig::to_json`] wire form — the `config`
    /// block of a `wsn-campaign/3` artifact, or the body of a job
    /// submitted to the `served` daemon — back into a config.
    ///
    /// `workers` is never on the wire, so it comes back `None`
    /// (available parallelism); the `steady`/`degraded` blocks default
    /// when absent, mirroring how [`CampaignConfig::to_json`] omits
    /// them outside their modes. Shape errors (missing fields, wrong
    /// types, inexact integers) are reported here; *range* errors stay
    /// with [`CampaignConfig::validate`], which callers still run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &JsonValue) -> Result<CampaignConfig, String> {
        let str_field = |key: &str| -> Result<&str, String> {
            v.get(key)
                .ok_or_else(|| format!("field '{key}' missing"))?
                .as_str()
                .ok_or_else(|| format!("field '{key}' is not a string"))
        };
        let name = str_field("name")?.to_owned();
        let mode_name = str_field("mode")?;
        let mode = CampaignMode::from_json_name(mode_name)
            .ok_or_else(|| format!("unknown campaign mode '{mode_name}'"))?;
        let schemes = wire_arr(v, "schemes")?
            .iter()
            .map(|e| {
                let id = e.as_str().ok_or("'schemes' element is not a string")?;
                SchemeId::new(id).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<SchemeId>, String>>()?;
        let regions = wire_arr(v, "regions")?
            .iter()
            .map(|e| {
                let label = e.as_str().ok_or("'regions' element is not a string")?;
                RegionShape::from_label(label)
                    .ok_or_else(|| format!("unknown region shape '{label}'"))
            })
            .collect::<Result<Vec<RegionShape>, String>>()?;
        let grids = wire_arr(v, "grids")?
            .iter()
            .map(|e| {
                let pair = e.as_arr().ok_or("'grids' element is not an array")?;
                if pair.len() != 2 {
                    return Err(format!(
                        "'grids' element has {} entries, want [cols, rows]",
                        pair.len()
                    ));
                }
                let dim = |which: usize, what: &str| -> Result<u16, String> {
                    u16::try_from(elem_u64(&pair[which], what)?)
                        .map_err(|_| format!("{what} overflows u16"))
                };
                Ok((dim(0, "grid cols")?, dim(1, "grid rows")?))
            })
            .collect::<Result<Vec<(u16, u16)>, String>>()?;
        let targets = wire_arr(v, "targets")?
            .iter()
            .map(|e| {
                usize::try_from(elem_u64(e, "'targets' element")?)
                    .map_err(|_| "'targets' element overflows usize".to_owned())
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let steady = match v.get("steady") {
            Some(s) => SteadyParams::from_json(s)?,
            None => SteadyParams::default(),
        };
        let degraded = match v.get("degraded") {
            Some(d) => DegradedParams::from_json(d)?,
            None => DegradedParams::default(),
        };
        Ok(CampaignConfig {
            name,
            schemes,
            regions,
            grids,
            targets,
            comm_range: wire_f64(v, "comm_range")?,
            seeds_per_cell: wire_u64(v, "seeds_per_cell")?,
            master_seed: wire_u64(v, "master_seed")?,
            mode,
            steady,
            degraded,
            ci_level: wire_f64(v, "ci_level")?,
            workers: None,
        })
    }

    /// [`CampaignConfig::from_json`] over raw JSON text (a `served` job
    /// body, a config file).
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error or the first malformed field.
    pub fn from_json_str(text: &str) -> Result<CampaignConfig, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        CampaignConfig::from_json(&v)
    }
}

/// Campaign configuration errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// Schemes, grids or targets is empty.
    EmptyMatrix,
    /// A scheme id does not resolve in the registry the campaign runs
    /// against.
    UnknownScheme {
        /// The unresolved id.
        id: String,
        /// Every id the registry knows.
        registered: Vec<String>,
    },
    /// A scheme id appears more than once in the scheme axis (which
    /// would duplicate trials and artifact series).
    DuplicateScheme {
        /// The repeated id.
        id: String,
    },
    /// `seeds_per_cell` must be at least 1.
    ZeroSeeds,
    /// [`CampaignMode::SingleReplacement`] measures Theorem 2's SR
    /// setting; other schemes have no closed form to validate.
    SingleReplacementNeedsSr,
    /// The [`SteadyParams`] of a steady-state campaign are out of range.
    BadSteadyParams(String),
    /// The [`DegradedParams`] of a degraded campaign are out of range.
    BadDegradedParams(String),
    /// A scheme in a degraded campaign has no event-driven path
    /// ([`ReplacementScheme::supports_event_driven`] is false).
    SchemeNotEventDriven {
        /// The scheme without an event-driven driver.
        id: String,
    },
    /// `ci_level` must be 0.90, 0.95 or 0.99.
    UnsupportedCiLevel(f64),
    /// `comm_range` must be finite and positive.
    BadCommRange(f64),
    /// A resume checkpoint does not belong to the campaign being run
    /// (different config wire form, or inconsistent cell/watermark
    /// shape). Resuming it would silently produce a franken-artifact,
    /// so the engine refuses.
    CheckpointMismatch(String),
    /// A grid in the matrix cannot run the configured schemes (invalid
    /// dimensions, no Hamilton structure for SR, or no single cycle for
    /// SR-SC).
    InvalidGrid {
        /// Offending grid columns.
        cols: u16,
        /// Offending grid rows.
        rows: u16,
        /// What the grid fails to support.
        reason: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptyMatrix => write!(f, "campaign matrix has an empty axis"),
            CampaignError::UnknownScheme { id, registered } => write!(
                f,
                "unknown scheme id '{id}'; registered ids: {}",
                registered.join(", ")
            ),
            CampaignError::DuplicateScheme { id } => {
                write!(f, "scheme id '{id}' appears more than once in the matrix")
            }
            CampaignError::ZeroSeeds => write!(f, "seeds_per_cell must be at least 1"),
            CampaignError::SingleReplacementNeedsSr => {
                write!(
                    f,
                    "single-replacement campaigns support only the 'sr' scheme"
                )
            }
            CampaignError::BadSteadyParams(reason) => {
                write!(f, "invalid steady-state parameters: {reason}")
            }
            CampaignError::BadDegradedParams(reason) => {
                write!(f, "invalid degraded-network parameters: {reason}")
            }
            CampaignError::SchemeNotEventDriven { id } => {
                write!(
                    f,
                    "scheme '{id}' has no event-driven driver; degraded campaigns \
                     need one for every scheme"
                )
            }
            CampaignError::UnsupportedCiLevel(l) => {
                write!(f, "unsupported ci_level {l}; use 0.90/0.95/0.99")
            }
            CampaignError::BadCommRange(r) => {
                write!(f, "comm_range must be finite and positive, got {r}")
            }
            CampaignError::CheckpointMismatch(reason) => {
                write!(f, "checkpoint does not match this campaign: {reason}")
            }
            CampaignError::InvalidGrid { cols, rows, reason } => {
                write!(f, "grid {cols}x{rows} cannot run this matrix: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// What one trial observed (the unit that folds into a cell aggregate).
#[derive(Debug, Clone, PartialEq)]
struct TrialOutcome {
    holes: usize,
    spares: usize,
    covered: bool,
    metrics: Metrics,
    /// Present only under [`CampaignMode::SteadyState`].
    steady: Option<SteadyOutcome>,
    /// Present only under [`CampaignMode::Degraded`].
    health: Option<ProtocolHealth>,
}

/// Streaming aggregate of the [`ProtocolHealth`] ledger, one accumulator
/// per counter (degraded-mode cells only).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSummary {
    /// Inter-cell messages handed to the network, per trial.
    pub messages_sent: StreamingStat,
    /// Messages the network dropped, per trial.
    pub messages_dropped: StreamingStat,
    /// Repairs initiated for holes already owned by a live (but
    /// unobservable) process, per trial.
    pub duplicate_initiations: StreamingStat,
    /// Cascade notifications lost in transit, per trial.
    pub lost_cascades: StreamingStat,
    /// Processes stranded in flight when the run ended, per trial.
    pub stalled_repairs: StreamingStat,
    /// Processes terminated because a duplicate beat them to the hole,
    /// per trial.
    pub superseded_repairs: StreamingStat,
}

impl HealthSummary {
    fn new() -> HealthSummary {
        HealthSummary {
            messages_sent: StreamingStat::new(),
            messages_dropped: StreamingStat::new(),
            duplicate_initiations: StreamingStat::new(),
            lost_cascades: StreamingStat::new(),
            stalled_repairs: StreamingStat::new(),
            superseded_repairs: StreamingStat::new(),
        }
    }

    fn push(&mut self, h: &ProtocolHealth) {
        self.messages_sent.push(h.messages_sent as f64);
        self.messages_dropped.push(h.messages_dropped as f64);
        self.duplicate_initiations
            .push(h.duplicate_initiations as f64);
        self.lost_cascades.push(h.lost_cascades as f64);
        self.stalled_repairs.push(h.stalled_repairs as f64);
        self.superseded_repairs.push(h.superseded_repairs as f64);
    }

    fn to_json(&self, ci_level: f64) -> JsonValue {
        JsonValue::obj([
            ("messages_sent", self.messages_sent.to_json(ci_level)),
            ("messages_dropped", self.messages_dropped.to_json(ci_level)),
            (
                "duplicate_initiations",
                self.duplicate_initiations.to_json(ci_level),
            ),
            ("lost_cascades", self.lost_cascades.to_json(ci_level)),
            ("stalled_repairs", self.stalled_repairs.to_json(ci_level)),
            (
                "superseded_repairs",
                self.superseded_repairs.to_json(ci_level),
            ),
        ])
    }

    /// One `(name, accumulator)` view over the six counters — the single
    /// place their checkpoint order is defined.
    fn stats(&self) -> [(&'static str, &StreamingStat); 6] {
        [
            ("messages_sent", &self.messages_sent),
            ("messages_dropped", &self.messages_dropped),
            ("duplicate_initiations", &self.duplicate_initiations),
            ("lost_cascades", &self.lost_cascades),
            ("stalled_repairs", &self.stalled_repairs),
            ("superseded_repairs", &self.superseded_repairs),
        ]
    }

    fn to_state_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.stats()
                .into_iter()
                .map(|(name, stat)| (name.to_owned(), stat.to_state_json()))
                .collect(),
        )
    }

    fn from_state_json(v: &JsonValue) -> Result<HealthSummary, String> {
        let stat = |key: &str| -> Result<StreamingStat, String> {
            StreamingStat::from_state_json(
                v.get(key)
                    .ok_or_else(|| format!("health state field '{key}' missing"))?,
            )
        };
        Ok(HealthSummary {
            messages_sent: stat("messages_sent")?,
            messages_dropped: stat("messages_dropped")?,
            duplicate_initiations: stat("duplicate_initiations")?,
            lost_cascades: stat("lost_cascades")?,
            stalled_repairs: stat("stalled_repairs")?,
            superseded_repairs: stat("superseded_repairs")?,
        })
    }
}

/// Streaming aggregate of one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// The cell's scheme id (the registry key; also the artifact token).
    pub scheme: SchemeId,
    /// The scheme's figure-legend label, resolved from the registry at
    /// campaign start (e.g. `"SR-SC"` for id `sr-sc`).
    pub label: String,
    /// The cell's region shape.
    pub region: RegionShape,
    /// Grid columns.
    pub cols: u16,
    /// Grid rows.
    pub rows: u16,
    /// The cell's spare target `N`.
    pub n_target: usize,
    /// Trials folded so far.
    pub trials: u64,
    /// Trials that ended fully covered.
    pub covered_trials: u64,
    /// Deployment holes per trial.
    pub holes: StreamingStat,
    /// Deployment spares per trial.
    pub spares: StreamingStat,
    /// One accumulator per [`Metrics::FIELD_NAMES`] entry; `moves` and
    /// `distance` carry online histograms (32 bins, tails clamped).
    metrics: Vec<StreamingStat>,
    /// Steady-state SLA aggregate, present only under
    /// [`CampaignMode::SteadyState`].
    pub steady: Option<SteadySummary>,
    /// The cell's network model, present only under
    /// [`CampaignMode::Degraded`].
    pub net: Option<NetModelSpec>,
    /// Distributed-health aggregate, present only under
    /// [`CampaignMode::Degraded`].
    pub health: Option<HealthSummary>,
}

impl CellStats {
    fn new(
        scheme: SchemeId,
        label: String,
        region: RegionShape,
        (cols, rows): (u16, u16),
        n_target: usize,
        net: Option<NetModelSpec>,
        cfg: &CampaignConfig,
    ) -> CellStats {
        // Histogram ranges scale with the population the trials can
        // actually touch: the enabled cells of the region.
        let cells = region.build_mask(cols, rows).enabled_count();
        let side = cfg.comm_range / 5f64.sqrt();
        let metrics = Metrics::FIELD_NAMES
            .iter()
            .map(|&name| match name {
                "moves" => StreamingStat::with_histogram(
                    Histogram::new(0.0, (8 * cells) as f64, 32).expect("positive range"),
                ),
                "distance" => StreamingStat::with_histogram(
                    Histogram::new(0.0, (8 * cells) as f64 * 2.0 * side, 32)
                        .expect("positive range"),
                ),
                _ => StreamingStat::new(),
            })
            .collect();
        CellStats {
            scheme,
            label,
            region,
            cols,
            rows,
            n_target,
            trials: 0,
            covered_trials: 0,
            holes: StreamingStat::new(),
            spares: StreamingStat::new(),
            metrics,
            steady: (cfg.mode == CampaignMode::SteadyState)
                .then(|| SteadySummary::new(&cfg.steady)),
            net,
            health: (cfg.mode == CampaignMode::Degraded).then(HealthSummary::new),
        }
    }

    fn push(&mut self, t: &TrialOutcome) {
        self.trials += 1;
        self.covered_trials += u64::from(t.covered);
        self.holes.push(t.holes as f64);
        self.spares.push(t.spares as f64);
        for (stat, value) in self.metrics.iter_mut().zip(t.metrics.field_values()) {
            stat.push(value);
        }
        if let (Some(summary), Some(outcome)) = (self.steady.as_mut(), t.steady.as_ref()) {
            summary.push(outcome);
        }
        if let (Some(summary), Some(h)) = (self.health.as_mut(), t.health.as_ref()) {
            summary.push(h);
        }
    }

    /// The accumulator for one [`Metrics::FIELD_NAMES`] observable.
    pub fn metric(&self, name: &str) -> Option<&StreamingStat> {
        Metrics::FIELD_NAMES
            .iter()
            .position(|&f| f == name)
            .map(|i| &self.metrics[i])
    }

    /// Serializes the cell's mutable *state* — fold counters and every
    /// accumulator register — for campaign checkpoints. The identity
    /// fields (scheme, region, grid, target, net) are not on this wire:
    /// they re-derive from the config and the cell's dense index, so a
    /// checkpoint cannot describe a cell its config does not.
    pub fn to_state_json(&self) -> JsonValue {
        let metric_fields: Vec<(String, JsonValue)> = Metrics::FIELD_NAMES
            .iter()
            .zip(&self.metrics)
            .map(|(&name, stat)| (name.to_owned(), stat.to_state_json()))
            .collect();
        let mut fields = vec![
            ("trials", JsonValue::from(self.trials)),
            ("covered_trials", JsonValue::from(self.covered_trials)),
            ("holes", self.holes.to_state_json()),
            ("spares", self.spares.to_state_json()),
            ("metrics", JsonValue::Obj(metric_fields)),
        ];
        if let Some(summary) = &self.steady {
            fields.push(("steady", summary.to_state_json()));
        }
        if let Some(summary) = &self.health {
            fields.push(("health", summary.to_state_json()));
        }
        JsonValue::obj(fields)
    }

    /// Restores a [`CellStats::to_state_json`] state into this freshly
    /// built cell (identity fields already set by [`CellStats::new`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field,
    /// including a steady/health block that disagrees with the cell's
    /// mode.
    fn apply_state_json(&mut self, v: &JsonValue) -> Result<(), String> {
        self.trials = wire_u64(v, "trials")?;
        self.covered_trials = wire_u64(v, "covered_trials")?;
        self.holes =
            StreamingStat::from_state_json(v.get("holes").ok_or("cell field 'holes' missing")?)?;
        self.spares =
            StreamingStat::from_state_json(v.get("spares").ok_or("cell field 'spares' missing")?)?;
        let metrics = v.get("metrics").ok_or("cell field 'metrics' missing")?;
        self.metrics = Metrics::FIELD_NAMES
            .iter()
            .map(|&name| {
                StreamingStat::from_state_json(
                    metrics
                        .get(name)
                        .ok_or_else(|| format!("cell metric '{name}' missing"))?,
                )
            })
            .collect::<Result<Vec<StreamingStat>, String>>()?;
        match (&mut self.steady, v.get("steady")) {
            (Some(_), Some(s)) => self.steady = Some(SteadySummary::from_state_json(s)?),
            (None, None) => {}
            (Some(_), None) => return Err("steady-state cell lacks a 'steady' block".into()),
            (None, Some(_)) => return Err("non-steady cell carries a 'steady' block".into()),
        }
        match (&mut self.health, v.get("health")) {
            (Some(_), Some(h)) => self.health = Some(HealthSummary::from_state_json(h)?),
            (None, None) => {}
            (Some(_), None) => return Err("degraded cell lacks a 'health' block".into()),
            (None, Some(_)) => return Err("non-degraded cell carries a 'health' block".into()),
        }
        Ok(())
    }

    fn to_json(&self, ci_level: f64) -> JsonValue {
        let metric_fields: Vec<(String, JsonValue)> = Metrics::FIELD_NAMES
            .iter()
            .zip(&self.metrics)
            .map(|(&name, stat)| (name.to_owned(), stat.to_json(ci_level)))
            .collect();
        let mut fields = vec![
            ("scheme", JsonValue::from(self.scheme.as_str())),
            ("region", JsonValue::from(self.region.label())),
            ("cols", JsonValue::from(usize::from(self.cols))),
            ("rows", JsonValue::from(usize::from(self.rows))),
            ("n_target", JsonValue::from(self.n_target)),
            ("trials", JsonValue::from(self.trials)),
            ("covered_trials", JsonValue::from(self.covered_trials)),
            ("holes", self.holes.to_json(ci_level)),
            ("spares", self.spares.to_json(ci_level)),
            ("metrics", JsonValue::Obj(metric_fields)),
        ];
        if let Some(summary) = &self.steady {
            fields.push(("steady", summary.to_json(ci_level)));
        }
        if let Some(spec) = &self.net {
            fields.push(("net", JsonValue::from(spec.token().as_str())));
        }
        if let Some(summary) = &self.health {
            fields.push(("health", summary.to_json(ci_level)));
        }
        JsonValue::obj(fields)
    }
}

/// A completed campaign: the config echo plus one aggregate per cell, in
/// canonical matrix order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The matrix that was run.
    pub config: CampaignConfig,
    /// Per-cell aggregates (schemes outermost, targets innermost).
    pub cells: Vec<CellStats>,
}

impl CampaignResult {
    /// Looks up one cell's aggregate by scheme id, ignoring the region
    /// axis (the first region in matrix order wins — unambiguous for
    /// single-region campaigns; multi-region campaigns use
    /// [`CampaignResult::cell_in_region`]).
    pub fn cell(&self, scheme: &str, cols: u16, rows: u16, n_target: usize) -> Option<&CellStats> {
        self.cells.iter().find(|c| {
            c.scheme.as_str() == scheme
                && c.cols == cols
                && c.rows == rows
                && c.n_target == n_target
        })
    }

    /// Looks up a degraded-mode cell by scheme, target and network
    /// model (the first matching region/grid in matrix order wins).
    pub fn cell_with_net(
        &self,
        scheme: &str,
        n_target: usize,
        net: NetModelSpec,
    ) -> Option<&CellStats> {
        self.cells
            .iter()
            .find(|c| c.scheme.as_str() == scheme && c.n_target == n_target && c.net == Some(net))
    }

    /// Looks up one cell's aggregate on the full four-axis key.
    pub fn cell_in_region(
        &self,
        scheme: &str,
        region: RegionShape,
        cols: u16,
        rows: u16,
        n_target: usize,
    ) -> Option<&CellStats> {
        self.cells.iter().find(|c| {
            c.scheme.as_str() == scheme
                && c.region == region
                && c.cols == cols
                && c.rows == rows
                && c.n_target == n_target
        })
    }

    /// Serializes the campaign artifact. Schema `wsn-campaign/3`
    /// (`/2`'s shape with registry *ids* — lowercase tokens like
    /// `"sr-sc"` — in the scheme axis and cells, opening the axis to
    /// every registered scheme): `{schema, config, cells[]}` with fixed
    /// key order and shortest round-trip float formatting, so identical
    /// campaigns render byte-identical text regardless of worker count.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("schema", JsonValue::from("wsn-campaign/3")),
            ("config", self.config.to_json()),
            (
                "cells",
                JsonValue::Arr(
                    self.cells
                        .iter()
                        .map(|c| c.to_json(self.config.ci_level))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the headline per-cell statistics as wide CSV (one row
    /// per cell; mean and CI bounds for the Figure 6–8 metrics).
    pub fn to_csv(&self) -> String {
        let level = self.config.ci_level;
        let mut header: Vec<String> = [
            "scheme",
            "region",
            "cols",
            "rows",
            "n_target",
            "trials",
            "covered_trials",
            "holes_mean",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let headline = [
            "moves",
            "distance",
            "processes_initiated",
            "success_rate_percent",
        ];
        for m in headline {
            header.push(format!("{m}_mean"));
            header.push(format!("{m}_ci_low"));
            header.push(format!("{m}_ci_high"));
        }
        let steady_mode = self.config.mode == CampaignMode::SteadyState;
        if steady_mode {
            for col in [
                "availability_mean",
                "availability_ci_low",
                "availability_ci_high",
                "hole_lifetime_p50",
                "hole_lifetime_p99",
                "hole_lifetime_p999",
                "mttr_mean",
                "energy_rate_mean",
            ] {
                header.push(col.to_owned());
            }
        }
        let degraded_mode = self.config.mode == CampaignMode::Degraded;
        if degraded_mode {
            for col in [
                "net",
                "messages_dropped_mean",
                "duplicate_initiations_mean",
                "lost_cascades_mean",
                "stalled_repairs_mean",
            ] {
                header.push(col.to_owned());
            }
        }
        let mut rows: Vec<Vec<String>> = vec![header];
        for c in &self.cells {
            let mut row = vec![
                c.scheme.to_string(),
                c.region.label().to_owned(),
                c.cols.to_string(),
                c.rows.to_string(),
                c.n_target.to_string(),
                c.trials.to_string(),
                c.covered_trials.to_string(),
                c.holes.summary().mean().to_string(),
            ];
            for m in headline {
                let ci = c.metric(m).expect("headline metrics exist").ci(level);
                row.push(ci.mean.to_string());
                row.push(ci.low().to_string());
                row.push(ci.high().to_string());
            }
            if steady_mode {
                let s = c.steady.as_ref().expect("steady cells carry a summary");
                let avail = s.availability.ci(level);
                row.push(avail.mean.to_string());
                row.push(avail.low().to_string());
                row.push(avail.high().to_string());
                for p in [50.0, 99.0, 99.9] {
                    row.push(
                        s.lifetime_percentile(p)
                            .map(|v| v.to_string())
                            .unwrap_or_default(),
                    );
                }
                row.push(s.mttr.summary().mean().to_string());
                row.push(s.energy_rate.summary().mean().to_string());
            }
            if degraded_mode {
                let spec = c.net.as_ref().expect("degraded cells carry a net model");
                let h = c.health.as_ref().expect("degraded cells carry health");
                row.push(spec.token());
                row.push(h.messages_dropped.summary().mean().to_string());
                row.push(h.duplicate_initiations.summary().mean().to_string());
                row.push(h.lost_cascades.summary().mean().to_string());
                row.push(h.stalled_repairs.summary().mean().to_string());
            }
            rows.push(row);
        }
        let mut buf = Vec::new();
        wsn_stats::csv::write_rows(&mut buf, &rows).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("CSV is UTF-8")
    }

    /// Writes `campaign_<name>.json` and `campaign_<name>.csv` under
    /// `dir`, returning both paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("campaign_{}.json", self.config.name));
        let csv_path = dir.join(format!("campaign_{}.csv", self.config.name));
        std::fs::write(&json_path, self.to_json().to_file_string())?;
        std::fs::write(&csv_path, self.to_csv())?;
        Ok((json_path, csv_path))
    }
}

/// Runs one trial, addressed purely by matrix coordinates (any worker,
/// any order — same outcome).
/// The deterministic stream seed of a matrix trial — the address half of
/// the record/replay contract ([`crate::replay`] re-derives the identical
/// seed from a coordinate alone).
///
/// The scheme is deliberately not part of the stream path: every scheme
/// replays the identical deployment (the paper's paired methodology).
/// Full-region trials keep the original (pre-region) path so existing
/// campaign artifacts replay byte-identically; irregular regions extend
/// the path with their stable stream id.
pub(crate) fn trial_stream_seed(
    master_seed: u64,
    region: RegionShape,
    (cols, rows): (u16, u16),
    n_target: usize,
    trial: u64,
) -> u64 {
    if region == RegionShape::Full {
        derive_stream_seed(
            master_seed,
            &[u64::from(cols), u64::from(rows), n_target as u64, trial],
        )
    } else {
        derive_stream_seed(
            master_seed,
            &[
                u64::from(cols),
                u64::from(rows),
                region.stream_id(),
                n_target as u64,
                trial,
            ],
        )
    }
}

/// Generates the deployment positions of a matrix trial from its stream
/// seed — the generation half of [`build_trial_network`], shared with
/// the per-worker [`TrialArena`] so arena-reset trials draw the
/// byte-identical RNG stream as freshly built ones.
pub(crate) fn trial_positions(
    mode: CampaignMode,
    sys: &GridSystem,
    mask: &RegionMask,
    n_target: usize,
    seed: u64,
) -> Vec<wsn_geometry::Point2> {
    let mut rng = SimRng::seed_from_u64(seed);
    match mode {
        // Steady state and the degraded sweep open from the same §5
        // deployment the closed full-recovery trials use (degraded
        // differs only in the drive, never the deployment — paired
        // across weather conditions by construction).
        CampaignMode::FullRecovery | CampaignMode::SteadyState | CampaignMode::Degraded => {
            // §5: "(N + m x n) enabled nodes", uniform — with m·n read
            // as the enabled-cell count of the region.
            deploy::uniform_masked(sys, mask, n_target + mask.enabled_count(), &mut rng)
        }
        CampaignMode::SingleReplacement => {
            // Theorem 2's setting: one hole, one node everywhere else,
            // exactly N spares over the occupied (enabled) cells.
            let enabled: Vec<_> = mask.iter_enabled().collect();
            let hole = enabled[rng.range_usize(enabled.len())];
            let mut pos = deploy::with_holes_masked(sys, mask, &[hole], 1, &mut rng);
            let occupied: Vec<_> = enabled.into_iter().filter(|c| *c != hole).collect();
            for _ in 0..n_target {
                let cell = occupied[rng.range_usize(occupied.len())];
                let rect = sys.cell_rect(cell).expect("in bounds");
                pos.push(wsn_geometry::sample::point_in_rect(
                    &rect,
                    rng.uniform_f64(),
                    rng.uniform_f64(),
                ));
            }
            pos
        }
    }
}

/// Builds the deployment of a matrix trial from its stream seed — the
/// re-execution half of the record/replay contract: one function, used
/// by both the campaign workers and the [`crate::replay`] recorder, so a
/// recorded coordinate always reproduces the byte-identical network.
pub(crate) fn build_trial_network(
    mode: CampaignMode,
    comm_range: f64,
    region: RegionShape,
    (cols, rows): (u16, u16),
    n_target: usize,
    seed: u64,
) -> GridNetwork {
    let sys = GridSystem::for_comm_range(cols, rows, comm_range)
        .expect("campaign grid dimensions are valid");
    let mask = region.build_mask(cols, rows);
    let positions = trial_positions(mode, &sys, &mask, n_target, seed);
    GridNetwork::with_mask(sys, mask, &positions).expect("masked generator respects the mask")
}

/// Per-worker trial arena: one cached [`GridNetwork`] rebuilt in place
/// via [`GridNetwork::reset_into`] while consecutive trials share a
/// `(region, grid)` key, so the node vector, member pool, occupancy
/// words and head table are allocated once per worker instead of once
/// per trial. Trials on a new key rebuild the cache from scratch;
/// either way the network handed out is observation-equivalent to
/// [`build_trial_network`]'s (the `reset_into` proptest pins equality).
pub(crate) struct TrialArena {
    key: Option<(RegionShape, u16, u16)>,
    net: Option<GridNetwork>,
}

impl TrialArena {
    pub(crate) fn new() -> TrialArena {
        TrialArena {
            key: None,
            net: None,
        }
    }

    /// The trial network for the given matrix coordinates, reusing the
    /// cached allocations whenever the `(region, grid)` key matches.
    pub(crate) fn network(
        &mut self,
        mode: CampaignMode,
        comm_range: f64,
        region: RegionShape,
        (cols, rows): (u16, u16),
        n_target: usize,
        seed: u64,
    ) -> &mut GridNetwork {
        let reusable = self.key == Some((region, cols, rows)) && self.net.is_some();
        if reusable {
            let net = self.net.as_mut().expect("key implies cached network");
            let positions = trial_positions(mode, net.system(), net.mask(), n_target, seed);
            net.reset_into(&positions)
                .expect("masked generator respects the mask");
        } else {
            self.net = Some(build_trial_network(
                mode,
                comm_range,
                region,
                (cols, rows),
                n_target,
                seed,
            ));
            self.key = Some((region, cols, rows));
        }
        self.net.as_mut().expect("cached or just built")
    }
}

fn run_matrix_trial(
    cfg: &CampaignConfig,
    scheme: &dyn ReplacementScheme,
    arena: &mut TrialArena,
    (region, (cols, rows), n_target, net_spec): (RegionShape, (u16, u16), usize, NetModelSpec),
    trial: u64,
) -> TrialOutcome {
    // The network axes are deliberately absent from the stream seed:
    // every weather condition (and every scheme) replays the identical
    // deployment — the paired methodology, extended to the link layer.
    let seed = trial_stream_seed(cfg.master_seed, region, (cols, rows), n_target, trial);
    let net = arena.network(
        cfg.mode,
        cfg.comm_range,
        region,
        (cols, rows),
        n_target,
        seed,
    );
    let stats = net.stats();
    if cfg.mode == CampaignMode::SteadyState {
        // Open-system workload: the scheme repairs every tick while
        // faults, arrivals and weather evolve the deployment.
        let outcome = run_steady_trial(&cfg.steady, scheme, net, seed);
        return TrialOutcome {
            holes: stats.vacant,
            spares: stats.spares,
            covered: net.vacant_count() == 0,
            metrics: outcome.metrics,
            steady: Some(outcome),
            health: None,
        };
    }
    let degraded = cfg.mode == CampaignMode::Degraded;
    let drive = if degraded {
        DriveMode::EventDriven { net: net_spec }
    } else {
        DriveMode::Classic
    };
    // One uniform dispatch for every scheme in the registry — this is
    // the line the closed `match scheme` used to be.
    let report = scheme
        .run(net, seed, drive)
        .expect("validation proved every scheme supports every matrix cell");
    TrialOutcome {
        holes: stats.vacant,
        spares: stats.spares,
        covered: report.fully_covered,
        metrics: report.metrics,
        steady: None,
        health: degraded.then_some(report.health),
    }
}

/// Work-stealing deque over the dense trial index space: each worker
/// owns a contiguous range; an empty worker steals the back half of the
/// largest remaining range. Index *assignment* is scheduling-dependent,
/// which is fine — aggregation reorders per cell (see [`Folder`]).
struct WorkQueue {
    ranges: Vec<Mutex<(u64, u64)>>,
}

impl WorkQueue {
    fn new(total: u64, workers: usize) -> WorkQueue {
        let workers = workers.max(1) as u64;
        let chunk = total.div_ceil(workers);
        let ranges = (0..workers)
            .map(|w| {
                let start = (w * chunk).min(total);
                let end = ((w + 1) * chunk).min(total);
                Mutex::new((start, end))
            })
            .collect();
        WorkQueue { ranges }
    }

    fn pop(&self, me: usize) -> Option<u64> {
        {
            let mut own = self.ranges[me].lock().expect("queue lock");
            if own.0 < own.1 {
                let i = own.0;
                own.0 += 1;
                return Some(i);
            }
        }
        // Steal: take the back half of the largest remaining range.
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (j, m) in self.ranges.iter().enumerate() {
                if j == me {
                    continue;
                }
                let r = m.lock().expect("queue lock");
                let len = r.1 - r.0;
                if len > 0 && best.is_none_or(|(_, l)| len > l) {
                    best = Some((j, len));
                }
            }
            let (victim, _) = best?;
            let (start, end) = {
                let mut v = self.ranges[victim].lock().expect("queue lock");
                let len = v.1 - v.0;
                if len == 0 {
                    continue; // raced with another thief; rescan
                }
                let mid = v.1 - len.div_ceil(2);
                let stolen = (mid, v.1);
                v.1 = mid;
                stolen
            };
            let mut own = self.ranges[me].lock().expect("queue lock");
            *own = (start, end);
            let i = own.0;
            own.0 += 1;
            return Some(i);
        }
    }
}

/// In-order folder: completed trials enter per-cell reorder buffers and
/// are folded into the cell aggregate strictly in trial order, so the
/// aggregate (and therefore the exported JSON) is bit-identical for any
/// worker count. The buffer holds only out-of-order completions — in
/// practice a handful of trials, never the campaign.
struct Folder {
    cells: Vec<CellStats>,
    next_trial: Vec<u64>,
    pending: Vec<BTreeMap<u64, TrialOutcome>>,
}

impl Folder {
    fn new(cfg: &CampaignConfig, registry: &SchemeRegistry) -> Folder {
        let cells: Vec<CellStats> = (0..cfg.cell_count())
            .map(|c| {
                let (scheme, region, grid, n) = cfg.cell_params(c);
                let net = (cfg.mode == CampaignMode::Degraded).then(|| cfg.cell_net(c));
                let label = registry
                    .get(scheme.as_str())
                    .expect("validated ids")
                    .label()
                    .to_owned();
                CellStats::new(scheme.clone(), label, region, grid, n, net, cfg)
            })
            .collect();
        let n = cells.len();
        Folder {
            cells,
            next_trial: vec![0; n],
            pending: vec![BTreeMap::new(); n],
        }
    }

    /// Restores a folder from a checkpoint: cells and watermarks come
    /// back, the reorder buffers start empty (outcomes beyond a cell's
    /// watermark were deliberately dropped at checkpoint time — they
    /// re-run on resume, and coordinate-addressed RNG streams make the
    /// re-run byte-identical).
    fn from_checkpoint(start: CampaignCheckpoint) -> Folder {
        let n = start.cells.len();
        Folder {
            cells: start.cells,
            next_trial: start.done,
            pending: vec![BTreeMap::new(); n],
        }
    }

    fn fold(
        &mut self,
        trial_index: u64,
        seeds_per_cell: u64,
        outcome: TrialOutcome,
        observer: &dyn CampaignObserver,
    ) {
        let cell = (trial_index / seeds_per_cell) as usize;
        let trial = trial_index % seeds_per_cell;
        self.pending[cell].insert(trial, outcome);
        while let Some(o) = self.pending[cell].remove(&self.next_trial[cell]) {
            self.cells[cell].push(&o);
            self.next_trial[cell] += 1;
            observer.trial_folded(cell, self.next_trial[cell], &self.cells[cell]);
        }
    }
}

/// Progress and cancellation hooks for campaign execution.
///
/// [`CampaignObserver::trial_folded`] fires once per trial, *in each
/// cell's trial order*, under the folder lock — so every observer sees
/// the one canonical fold sequence regardless of worker count or
/// scheduling. That ordering is what lets the `served` daemon stream
/// per-cell deltas to any number of subscribers and promise them all
/// the same sequence. Keep the callback cheap: it runs on the fold
/// critical path.
///
/// [`CampaignObserver::cancel_requested`] is polled by every worker
/// between trials. Returning `true` drains the run: in-flight trials
/// finish and fold, queued ones are abandoned, and the engine returns
/// [`CampaignRun::Interrupted`] with a resumable checkpoint.
pub trait CampaignObserver: Sync {
    /// One trial folded into `stats` (the cell's aggregate after the
    /// fold); `done` is the cell's new in-order watermark.
    fn trial_folded(&self, cell: usize, done: u64, stats: &CellStats) {
        let _ = (cell, done, stats);
    }

    /// Whether the run should wind down at the next safe point.
    fn cancel_requested(&self) -> bool {
        false
    }
}

/// The no-op observer: no progress reporting, never cancels.
impl CampaignObserver for () {}

/// An observer that cancels once a global trial budget is reached —
/// the test harness for interruption, and the building block daemons
/// compose with shutdown flags.
#[derive(Debug)]
pub struct CancelAfter {
    budget: std::sync::atomic::AtomicU64,
}

impl CancelAfter {
    /// Cancels after `trials` folds have been observed.
    pub fn new(trials: u64) -> CancelAfter {
        CancelAfter {
            budget: std::sync::atomic::AtomicU64::new(trials),
        }
    }
}

impl CampaignObserver for CancelAfter {
    fn trial_folded(&self, _cell: usize, _done: u64, _stats: &CellStats) {
        // Saturating: the budget may already be 0 when late folds land.
        self.budget
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |b| Some(b.saturating_sub(1)),
            )
            .expect("fetch_update closure never returns None");
    }

    fn cancel_requested(&self) -> bool {
        self.budget.load(std::sync::atomic::Ordering::SeqCst) == 0
    }
}

/// A resumable snapshot of a partially executed campaign: the config
/// echo, each cell's in-order fold watermark, and each cell's
/// accumulator state at that watermark.
///
/// The contract: running the same config from a checkpoint produces the
/// byte-identical final artifact the uninterrupted run would have —
/// per-trial RNG streams are coordinate-addressed and cells fold
/// strictly in trial order, so "skip everything below the watermark,
/// run the rest" reconstructs the exact fold sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The campaign the snapshot belongs to (`workers` not preserved —
    /// it never affects results).
    pub config: CampaignConfig,
    /// Per-cell count of trials already folded, in dense cell order.
    pub done: Vec<u64>,
    /// Per-cell aggregates at the watermark, in dense cell order.
    pub cells: Vec<CellStats>,
}

impl CampaignCheckpoint {
    /// Trials already folded, across all cells.
    pub fn trials_done(&self) -> u64 {
        self.done.iter().sum()
    }

    /// Whether every trial has folded (the checkpoint of a finished
    /// campaign — resuming it returns immediately).
    pub fn is_complete(&self) -> bool {
        self.done.iter().all(|&d| d == self.config.seeds_per_cell)
    }

    /// Serializes the checkpoint (schema `wsn-checkpoint/1`): the
    /// `wsn-campaign/3` config block plus per-cell watermarks and
    /// accumulator states, fixed key order throughout.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("schema", JsonValue::from("wsn-checkpoint/1")),
            ("config", self.config.to_json()),
            (
                "done",
                JsonValue::Arr(self.done.iter().map(|&d| JsonValue::from(d)).collect()),
            ),
            (
                "cells",
                JsonValue::Arr(self.cells.iter().map(CellStats::to_state_json).collect()),
            ),
        ])
    }

    /// Parses a [`CampaignCheckpoint::to_json`] snapshot against the
    /// built-in scheme registry.
    ///
    /// # Errors
    ///
    /// As [`CampaignCheckpoint::from_json_with`].
    pub fn from_json(v: &JsonValue) -> Result<CampaignCheckpoint, String> {
        CampaignCheckpoint::from_json_with(v, &builtins())
    }

    /// Parses a [`CampaignCheckpoint::to_json`] snapshot, resolving
    /// scheme labels (and validating the embedded config) against
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: wrong
    /// schema tag, malformed config, axis/cell count disagreement,
    /// watermark past `seeds_per_cell`, or accumulator state that does
    /// not fit the config's mode.
    pub fn from_json_with(
        v: &JsonValue,
        registry: &SchemeRegistry,
    ) -> Result<CampaignCheckpoint, String> {
        match v.get("schema").and_then(JsonValue::as_str) {
            Some("wsn-checkpoint/1") => {}
            Some(other) => return Err(format!("unsupported checkpoint schema '{other}'")),
            None => return Err("checkpoint lacks a 'schema' tag".into()),
        }
        let config =
            CampaignConfig::from_json(v.get("config").ok_or("checkpoint lacks a 'config' block")?)?;
        config.validate(registry).map_err(|e| e.to_string())?;
        let done = wire_arr(v, "done")?
            .iter()
            .map(|d| elem_u64(d, "'done' element"))
            .collect::<Result<Vec<u64>, String>>()?;
        let cell_states = wire_arr(v, "cells")?;
        if done.len() != config.cell_count() || cell_states.len() != config.cell_count() {
            return Err(format!(
                "checkpoint shape mismatch: config has {} cells, snapshot has {} watermarks and {} cell states",
                config.cell_count(),
                done.len(),
                cell_states.len()
            ));
        }
        let mut cells = Vec::with_capacity(cell_states.len());
        for (i, state) in cell_states.iter().enumerate() {
            let (scheme, region, grid, n) = config.cell_params(i);
            let net = (config.mode == CampaignMode::Degraded).then(|| config.cell_net(i));
            let label = registry
                .get(scheme.as_str())
                .expect("config validated above")
                .label()
                .to_owned();
            let mut cell = CellStats::new(scheme.clone(), label, region, grid, n, net, &config);
            cell.apply_state_json(state)
                .map_err(|e| format!("cell {i}: {e}"))?;
            if cell.trials != done[i] {
                return Err(format!(
                    "cell {i}: watermark says {} trials folded but the aggregate counted {}",
                    done[i], cell.trials
                ));
            }
            if done[i] > config.seeds_per_cell {
                return Err(format!(
                    "cell {i}: watermark {} exceeds seeds_per_cell {}",
                    done[i], config.seeds_per_cell
                ));
            }
            cells.push(cell);
        }
        Ok(CampaignCheckpoint {
            config,
            done,
            cells,
        })
    }

    /// [`CampaignCheckpoint::from_json`] over raw JSON text.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error or the first structural problem.
    pub fn from_json_str(text: &str) -> Result<CampaignCheckpoint, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        CampaignCheckpoint::from_json(&v)
    }
}

/// How a resumable campaign run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRun {
    /// Every trial folded; the artifact is final.
    Complete(CampaignResult),
    /// The observer cancelled mid-matrix; the checkpoint resumes the
    /// run with no recomputation below each cell's watermark.
    Interrupted(CampaignCheckpoint),
}

/// Expands and executes the campaign matrix against the built-in scheme
/// registry ([`wsn_baselines::builtins`]) on a work-stealing pool of
/// scoped threads, streaming trial outcomes into per-cell aggregates.
///
/// # Errors
///
/// Returns a [`CampaignError`] for empty/invalid configurations; trial
/// execution itself cannot fail for valid matrices.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    run_campaign_with(cfg, &builtins())
}

/// Like [`run_campaign`], but against a caller-supplied registry — the
/// hook that lets runtime-registered plugin schemes join the matrix.
///
/// # Errors
///
/// As [`run_campaign`], plus [`CampaignError::UnknownScheme`] for ids
/// the registry cannot resolve.
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    registry: &SchemeRegistry,
) -> Result<CampaignResult, CampaignError> {
    match run_campaign_resumable_with(cfg, registry, None, &())? {
        CampaignRun::Complete(result) => Ok(result),
        CampaignRun::Interrupted(_) => unreachable!("the no-op observer never cancels"),
    }
}

/// [`run_campaign_resumable_with`] against the built-in registry.
///
/// # Errors
///
/// As [`run_campaign_resumable_with`].
pub fn run_campaign_resumable(
    cfg: &CampaignConfig,
    start: Option<CampaignCheckpoint>,
    observer: &dyn CampaignObserver,
) -> Result<CampaignRun, CampaignError> {
    run_campaign_resumable_with(cfg, &builtins(), start, observer)
}

/// The resumable campaign engine behind [`run_campaign`] and the
/// `served` daemon: executes the matrix from scratch or from a
/// [`CampaignCheckpoint`], reporting every fold to `observer` and
/// winding down (with a fresh checkpoint) when the observer cancels.
///
/// Trials below a resumed cell's watermark are skipped without
/// recomputation; everything else runs exactly as a fresh campaign
/// would, so the completed artifact is byte-identical whether the run
/// was interrupted zero or many times, at any worker count.
///
/// # Errors
///
/// As [`run_campaign_with`], plus [`CampaignError::CheckpointMismatch`]
/// when `start` snapshots a different campaign (config wire forms must
/// match exactly) or is internally inconsistent.
pub fn run_campaign_resumable_with(
    cfg: &CampaignConfig,
    registry: &SchemeRegistry,
    start: Option<CampaignCheckpoint>,
    observer: &dyn CampaignObserver,
) -> Result<CampaignRun, CampaignError> {
    cfg.validate(registry)?;
    let folder = match start {
        Some(checkpoint) => {
            // Wire-form equality: `workers` is excluded on both sides,
            // everything that affects results must agree byte for byte.
            if checkpoint.config.to_json().to_string() != cfg.to_json().to_string() {
                return Err(CampaignError::CheckpointMismatch(
                    "the checkpoint's config block differs from the campaign's".into(),
                ));
            }
            let cell_count = cfg.cell_count();
            if checkpoint.done.len() != cell_count || checkpoint.cells.len() != cell_count {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "config has {cell_count} cells, checkpoint has {} watermarks and {} cell states",
                    checkpoint.done.len(),
                    checkpoint.cells.len()
                )));
            }
            if let Some(over) = checkpoint.done.iter().find(|&&d| d > cfg.seeds_per_cell) {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "watermark {over} exceeds seeds_per_cell {}",
                    cfg.seeds_per_cell
                )));
            }
            Folder::from_checkpoint(checkpoint)
        }
        None => Folder::new(cfg, registry),
    };
    // The immutable skip map: trials below these watermarks already
    // folded. Workers must consult this frozen copy, never the live
    // `next_trial` (which advances as they fold).
    let done0 = folder.next_trial.clone();
    let total = cfg.trial_count();
    let workers = cfg
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, 256)
        .min(total.max(1) as usize);
    let queue = WorkQueue::new(total, workers);
    let folder = Mutex::new(folder);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let folder = &folder;
            let done0 = &done0;
            scope.spawn(move || {
                // One arena per worker: network allocations are reused
                // across every trial the worker runs on the same
                // (region, grid) key.
                let mut arena = TrialArena::new();
                while let Some(idx) = queue.pop(w) {
                    let cell = (idx / cfg.seeds_per_cell) as usize;
                    let trial = idx % cfg.seeds_per_cell;
                    if trial < done0[cell] {
                        continue; // folded before the checkpoint
                    }
                    if observer.cancel_requested() {
                        break;
                    }
                    let (scheme, region, grid, n) = cfg.cell_params(cell);
                    let net_spec = cfg.cell_net(cell);
                    let scheme = registry.get(scheme.as_str()).expect("validated ids");
                    let outcome = run_matrix_trial(
                        cfg,
                        scheme,
                        &mut arena,
                        (region, grid, n, net_spec),
                        trial,
                    );
                    folder.lock().expect("no poisoned folds").fold(
                        idx,
                        cfg.seeds_per_cell,
                        outcome,
                        observer,
                    );
                }
            });
        }
    });
    let folder = folder.into_inner().expect("scope joined");
    if folder.next_trial.iter().all(|&t| t == cfg.seeds_per_cell) {
        debug_assert!(folder.pending.iter().all(BTreeMap::is_empty));
        return Ok(CampaignRun::Complete(CampaignResult {
            config: cfg.clone(),
            cells: folder.cells,
        }));
    }
    // Interrupted: keep each cell's in-order prefix, drop out-of-order
    // completions beyond the watermark (they re-run on resume — their
    // coordinate-addressed streams make the re-run identical).
    Ok(CampaignRun::Interrupted(CampaignCheckpoint {
        config: cfg.clone(),
        done: folder.next_trial,
        cells: folder.cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            name: "tiny".into(),
            grids: vec![(6, 6)],
            targets: vec![5, 20],
            seeds_per_cell: 2,
            ..CampaignConfig::paper()
        }
    }

    fn id(s: &str) -> SchemeId {
        SchemeId::new(s).unwrap()
    }

    #[test]
    fn matrix_decoding_is_canonical() {
        let full = RegionShape::Full;
        let cfg = CampaignConfig {
            schemes: SchemeId::list(&["ar", "sr"]),
            grids: vec![(8, 8), (16, 16)],
            targets: vec![10, 100],
            ..CampaignConfig::paper()
        };
        assert_eq!(cfg.cell_count(), 8);
        assert_eq!(cfg.cell_params(0), (&id("ar"), full, (8, 8), 10));
        assert_eq!(cfg.cell_params(1), (&id("ar"), full, (8, 8), 100));
        assert_eq!(cfg.cell_params(2), (&id("ar"), full, (16, 16), 10));
        assert_eq!(cfg.cell_params(4), (&id("sr"), full, (8, 8), 10));
        assert_eq!(cfg.cell_params(7), (&id("sr"), full, (16, 16), 100));
    }

    #[test]
    fn region_axis_decodes_between_schemes_and_grids() {
        let cfg = CampaignConfig {
            schemes: SchemeId::list(&["ar", "sr"]),
            regions: vec![RegionShape::Full, RegionShape::LShape],
            grids: vec![(8, 8)],
            targets: vec![10, 100],
            ..CampaignConfig::paper()
        };
        assert_eq!(cfg.cell_count(), 8);
        assert_eq!(
            cfg.cell_params(0),
            (&id("ar"), RegionShape::Full, (8, 8), 10)
        );
        assert_eq!(
            cfg.cell_params(2),
            (&id("ar"), RegionShape::LShape, (8, 8), 10)
        );
        assert_eq!(
            cfg.cell_params(5),
            (&id("sr"), RegionShape::Full, (8, 8), 100)
        );
        assert_eq!(
            cfg.cell_params(7),
            (&id("sr"), RegionShape::LShape, (8, 8), 100)
        );
    }

    #[test]
    fn masked_campaign_runs_all_schemes_to_aggregates() {
        let cfg = CampaignConfig {
            seeds_per_cell: 2,
            ..CampaignConfig::masked_smoke()
        };
        let result = run_campaign(&cfg).unwrap();
        assert_eq!(result.cells.len(), cfg.cell_count());
        for cell in &result.cells {
            assert_eq!(cell.trials, 2, "{}/{}", cell.scheme, cell.region);
        }
        // SR fully covers every masked full-recovery trial; the masked
        // ring preserves Theorem 1 on irregular regions.
        for &region in &cfg.regions {
            for &n in &cfg.targets {
                let sr = result.cell_in_region("sr", region, 8, 8, n).unwrap();
                assert_eq!(sr.covered_trials, sr.trials, "{region} N={n}");
                // Paired deployments hold per region too — across all
                // five schemes, not just SR vs AR.
                for other in ["ar", "sr-sc", "vf", "smart"] {
                    let cell = result.cell_in_region(other, region, 8, 8, n).unwrap();
                    assert_eq!(sr.holes, cell.holes, "{other} {region} N={n}");
                }
            }
        }
        // The artifact carries the region axis and scheme ids.
        let json = result.to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"wsn-campaign/3\""));
        assert!(json.contains("\"schemes\":[\"ar\",\"sr\",\"sr-sc\",\"vf\",\"smart\"]"));
        assert!(json.contains("\"regions\":[\"l-shape\",\"annulus\"]"));
        assert!(json.contains("\"region\":\"l-shape\""));
        assert!(json.contains("\"scheme\":\"sr-sc\""));
        let csv = result.to_csv();
        assert!(csv.starts_with("scheme,region,"));
        assert!(csv.contains("\nsmart,"));
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        let mut cfg = tiny();
        cfg.schemes.clear();
        assert_eq!(run_campaign(&cfg).unwrap_err(), CampaignError::EmptyMatrix);
        let mut cfg = tiny();
        cfg.schemes.push(id("no-such-scheme"));
        let err = run_campaign(&cfg).unwrap_err();
        assert!(matches!(err, CampaignError::UnknownScheme { .. }));
        // The error lists every registered id, for CLI hand-holding.
        let msg = err.to_string();
        for known in ["sr", "sr-sc", "ar", "vf", "smart"] {
            assert!(msg.contains(known), "{msg}");
        }
        let cfg = tiny().with_seeds_per_cell(0);
        assert_eq!(run_campaign(&cfg).unwrap_err(), CampaignError::ZeroSeeds);
        let mut cfg = tiny();
        cfg.mode = CampaignMode::SingleReplacement;
        assert_eq!(
            run_campaign(&cfg).unwrap_err(),
            CampaignError::SingleReplacementNeedsSr
        );
        let mut cfg = tiny();
        cfg.ci_level = 0.5;
        assert!(matches!(
            run_campaign(&cfg).unwrap_err(),
            CampaignError::UnsupportedCiLevel(_)
        ));
        assert!(!CampaignError::EmptyMatrix.to_string().is_empty());
    }

    #[test]
    fn validation_rejects_duplicate_scheme_ids() {
        // A repeated id would double whole matrix slabs with identical
        // stream seeds — reject it instead of silently duplicating.
        let mut cfg = tiny();
        cfg.schemes = vec![id("sr"), id("ar"), id("sr")];
        assert_eq!(
            run_campaign(&cfg).unwrap_err(),
            CampaignError::DuplicateScheme { id: "sr".into() }
        );
    }

    #[test]
    fn validation_catches_config_invalid_schemes_up_front() {
        // A scheme whose *config* (not region) is unusable must fail
        // validation, not panic a worker thread mid-campaign: config
        // validity is part of the supports() contract.
        use wsn_coverage::{Sr, SrConfig};
        let mut registry = SchemeRegistry::new();
        registry
            .register(Sr::from_config(SrConfig::default().with_max_rounds(0)))
            .unwrap();
        let mut cfg = tiny();
        cfg.schemes = SchemeId::list(&["sr"]);
        let err = run_campaign_with(&cfg, &registry).unwrap_err();
        assert!(
            matches!(err, CampaignError::InvalidGrid { .. }),
            "expected up-front rejection, got {err:?}"
        );
        assert!(err.to_string().contains("max_rounds"), "{err}");
    }

    #[test]
    fn validation_establishes_per_trial_preconditions() {
        // Bad communication range fails up front, not on a worker.
        let mut cfg = tiny();
        cfg.comm_range = 0.0;
        assert_eq!(
            run_campaign(&cfg).unwrap_err(),
            CampaignError::BadCommRange(0.0)
        );
        // SR needs a Hamilton structure; 1xN grids have none.
        let mut cfg = tiny();
        cfg.grids = vec![(1, 4)];
        assert!(matches!(
            run_campaign(&cfg).unwrap_err(),
            CampaignError::InvalidGrid {
                cols: 1,
                rows: 4,
                ..
            }
        ));
        // SR-SC needs a single cycle; odd x odd grids only have the
        // dual-path structure.
        let mut cfg = tiny();
        cfg.schemes = SchemeId::list(&["sr-sc"]);
        cfg.grids = vec![(5, 5)];
        let err = run_campaign(&cfg).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::InvalidGrid {
                cols: 5,
                rows: 5,
                ..
            }
        ));
        assert!(err.to_string().contains("single Hamilton cycle"));
        // ...and runs fine on an even-sided grid.
        let mut cfg = tiny();
        cfg.schemes = SchemeId::list(&["sr-sc"]);
        cfg.seeds_per_cell = 1;
        let result = run_campaign(&cfg).unwrap();
        assert_eq!(result.cells.len(), 2);
        assert!(result.cells.iter().all(|c| c.trials == 1));
    }

    #[test]
    fn campaign_runs_and_aggregates_every_cell() {
        let result = run_campaign(&tiny()).unwrap();
        assert_eq!(result.cells.len(), 4);
        for cell in &result.cells {
            assert_eq!(cell.trials, 2);
            assert_eq!(cell.metric("moves").unwrap().summary().count(), 2);
            assert!(cell.metric("unknown").is_none());
        }
        // SR fully covers every 6x6 full-recovery trial.
        for &n in &[5usize, 20] {
            let sr = result.cell("sr", 6, 6, n).unwrap();
            assert_eq!(sr.covered_trials, sr.trials);
            assert_eq!(
                sr.metric("success_rate_percent").unwrap().summary().mean(),
                100.0
            );
            assert_eq!(sr.label, "SR");
        }
        // Paired deployments: SR and AR cells saw identical hole counts.
        for &n in &[5usize, 20] {
            let sr = result.cell("sr", 6, 6, n).unwrap();
            let ar = result.cell("ar", 6, 6, n).unwrap();
            assert_eq!(sr.holes, ar.holes, "N={n}");
            assert_eq!(sr.spares, ar.spares, "N={n}");
        }
        // §5's deployment invariant: `N + m·n` nodes leave exactly
        // `N + holes` spares in every trial, so the per-cell extremes
        // shift by `N` exactly and the means agree.
        for cell in &result.cells {
            let (holes, spares) = (cell.holes.summary(), cell.spares.summary());
            let n = cell.n_target as f64;
            let at = format!("{} N={}", cell.scheme, cell.n_target);
            assert_eq!(spares.min(), holes.min().map(|h| n + h), "{at}");
            assert_eq!(spares.max(), holes.max().map(|h| n + h), "{at}");
            assert!((spares.mean() - (n + holes.mean())).abs() < 1e-9, "{at}");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_artifact() {
        let base = run_campaign(&tiny().with_workers(1)).unwrap();
        let parallel = run_campaign(&tiny().with_workers(7)).unwrap();
        assert_eq!(base.to_json().to_string(), parallel.to_json().to_string());
        assert_eq!(base.to_csv(), parallel.to_csv());
    }

    fn steady_tiny() -> CampaignConfig {
        CampaignConfig {
            name: "steady-tiny".into(),
            steady: crate::steady::SteadyParams {
                ticks: 12,
                fault_rate: 2.0,
                ..CampaignConfig::avail_smoke().steady
            },
            targets: vec![10, 40],
            ..CampaignConfig::avail_smoke()
        }
    }

    #[test]
    fn steady_campaign_runs_all_five_schemes() {
        let result = run_campaign(&steady_tiny()).unwrap();
        assert_eq!(result.cells.len(), 10);
        for cell in &result.cells {
            assert_eq!(cell.trials, 2, "{}", cell.scheme);
            let s = cell.steady.as_ref().expect("steady mode fills summaries");
            assert_eq!(s.availability.summary().count(), 2);
            assert!(
                s.failures > 0,
                "{}: poisson faults must strike",
                cell.scheme
            );
            // `rounds` is accumulated across ticks, not maxed per run.
            assert!(cell.metric("rounds").unwrap().summary().mean() >= 12.0);
        }
        // Paired processes: every scheme saw the same initial deployment
        // and the same arrival counts (fault kill counts may diverge
        // once repairs shift occupancy).
        for &n in &[10usize, 40] {
            let sr = result.cell("sr", 8, 8, n).unwrap();
            for other in ["ar", "sr-sc", "vf", "smart"] {
                let cell = result.cell(other, 8, 8, n).unwrap();
                assert_eq!(sr.holes, cell.holes, "{other} N={n}");
                assert_eq!(
                    sr.steady.as_ref().unwrap().arrivals,
                    cell.steady.as_ref().unwrap().arrivals,
                    "{other} N={n}"
                );
            }
        }
        // The artifact carries the workload config and the per-cell SLA
        // block; closed-mode artifacts carry neither.
        let json = result.to_json().to_string();
        assert!(json.contains("\"mode\":\"steady_state\""));
        assert!(json.contains("\"steady\":{\"ticks\":12"));
        assert!(json.contains("\"availability\""));
        assert!(json.contains("\"hole_lifetime_p999\""));
        let csv = result.to_csv();
        assert!(csv.lines().next().unwrap().contains("availability_mean"));
        let closed = run_campaign(&tiny()).unwrap();
        let closed_json = closed.to_json().to_string();
        assert!(!closed_json.contains("\"steady\""));
        assert!(!closed.to_csv().contains("availability_mean"));
    }

    #[test]
    fn steady_artifact_is_worker_count_invariant() {
        let base = run_campaign(&steady_tiny().with_workers(1)).unwrap();
        for workers in [2, 8] {
            let parallel = run_campaign(&steady_tiny().with_workers(workers)).unwrap();
            assert_eq!(
                base.to_json().to_string(),
                parallel.to_json().to_string(),
                "workers={workers}"
            );
            assert_eq!(base.to_csv(), parallel.to_csv(), "workers={workers}");
        }
    }

    #[test]
    fn steady_validation_checks_workload_params() {
        let mut cfg = steady_tiny();
        cfg.steady.ticks = 0;
        let err = run_campaign(&cfg).unwrap_err();
        assert!(matches!(err, CampaignError::BadSteadyParams(_)));
        assert!(err.to_string().contains("ticks"), "{err}");
        // Closed modes never read (or reject) the steady knobs.
        let mut cfg = tiny();
        cfg.steady.ticks = 0;
        assert!(run_campaign(&cfg).is_ok());
    }

    #[test]
    fn single_replacement_mode_measures_one_process() {
        let cfg = CampaignConfig {
            name: "single6".into(),
            schemes: SchemeId::list(&["sr"]),
            grids: vec![(6, 6)],
            targets: vec![8],
            seeds_per_cell: 5,
            mode: CampaignMode::SingleReplacement,
            ..CampaignConfig::paper()
        };
        let result = run_campaign(&cfg).unwrap();
        let cell = &result.cells[0];
        assert_eq!(cell.covered_trials, cell.trials);
        assert_eq!(cell.holes.summary().mean(), 1.0);
        assert_eq!(cell.spares.summary().mean(), 8.0);
        assert_eq!(
            cell.metric("processes_initiated").unwrap().summary().mean(),
            1.0
        );
        assert!(cell.metric("moves").unwrap().summary().mean() >= 1.0);
    }

    #[test]
    fn json_and_csv_are_well_formed() {
        let result = run_campaign(&tiny()).unwrap();
        let json = result.to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"wsn-campaign/3\""));
        assert!(json.contains("\"config\""));
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"histogram\""));
        // Worker override must not leak into the artifact.
        assert!(!json.contains("workers"));
        let csv = result.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("scheme,region,cols,rows,n_target"));
        assert!(header.contains("moves_ci_low"));
        assert_eq!(csv.lines().count(), 1 + result.cells.len());
    }

    #[test]
    fn save_writes_both_artifacts() {
        let dir = std::env::temp_dir().join("wsn_campaign_save_test");
        let _ = std::fs::remove_dir_all(&dir);
        let result = run_campaign(&tiny()).unwrap();
        let (json_path, csv_path) = result.save(&dir).unwrap();
        assert!(json_path.ends_with("campaign_tiny.json"));
        assert!(std::fs::read_to_string(&json_path)
            .unwrap()
            .ends_with("}\n"));
        assert!(std::fs::read_to_string(&csv_path)
            .unwrap()
            .starts_with("scheme,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trial_arena_reuse_matches_fresh_builds() {
        // Consecutive trials on the same key reset in place; a key
        // change rebuilds. Either way the network must equal the
        // from-scratch build for the same coordinates.
        let mut arena = TrialArena::new();
        let coords = [
            (RegionShape::Full, (8u16, 8u16), 10usize, 0u64),
            (RegionShape::Full, (8, 8), 10, 1),
            (RegionShape::Full, (8, 8), 100, 2),
            (RegionShape::LShape, (8, 8), 10, 0),
            (RegionShape::LShape, (8, 8), 10, 1),
            (RegionShape::Full, (6, 6), 10, 0),
        ];
        for (region, grid, n, trial) in coords {
            let seed = trial_stream_seed(20_080_617, region, grid, n, trial);
            let mode = CampaignMode::FullRecovery;
            let fresh = build_trial_network(mode, 10.0, region, grid, n, seed);
            let reused = arena.network(mode, 10.0, region, grid, n, seed);
            assert_eq!(*reused, fresh, "{region} {grid:?} N={n} t={trial}");
            reused.debug_invariants();
            // Dirty the cached network so the next reset has real work.
            let any = reused.nodes().first().expect("nonempty deployment").id();
            reused.disable_node(any).unwrap();
        }
    }

    fn degraded_tiny() -> CampaignConfig {
        CampaignConfig {
            seeds_per_cell: 2,
            ..CampaignConfig::degraded_smoke()
        }
    }

    #[test]
    fn degraded_campaign_sweeps_weather_and_reports_health() {
        let cfg = degraded_tiny();
        let result = run_campaign(&cfg).unwrap();
        // 3 schemes x 2 targets x (2 latencies x 2 losses) = 24 cells.
        assert_eq!(result.cells.len(), 24);
        assert_eq!(result.cells.len(), cfg.cell_count());
        for cell in &result.cells {
            assert_eq!(cell.trials, 2, "{}", cell.scheme);
            assert!(
                cell.net.is_some(),
                "{}: degraded cells carry the net",
                cell.scheme
            );
            let health = cell.health.as_ref().expect("degraded cells carry health");
            assert_eq!(health.messages_sent.summary().count(), 2);
        }
        // Deployments are paired across schemes AND weather: the trial
        // stream seed has neither a scheme nor a network axis, so every
        // cell at the same target saw identical holes and spares.
        let reference = result.cell_with_net("sr", 10, NetModelSpec::Ideal).unwrap();
        for cell in result.cells.iter().filter(|c| c.n_target == 10) {
            assert_eq!(
                reference.holes, cell.holes,
                "{} {:?}",
                cell.scheme, cell.net
            );
            assert_eq!(
                reference.spares, cell.spares,
                "{} {:?}",
                cell.scheme, cell.net
            );
        }
        // A 30%-loss cell must actually lose messages.
        let lossy = NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        };
        let sr_lossy = result.cell_with_net("sr", 10, lossy).unwrap();
        let dropped = &sr_lossy.health.as_ref().unwrap().messages_dropped;
        assert!(dropped.summary().mean() > 0.0, "30% loss dropped nothing");
        // The artifact carries the degraded axes plus per-cell net and
        // health blocks.
        let json = result.to_json().to_string();
        assert!(json.contains("\"mode\":\"degraded\""));
        assert!(json.contains("\"degraded\":{\"latencies\":[1,3],\"loss_ppms\":[0,300000]}"));
        assert!(json.contains("\"net\":\"ideal\""));
        assert!(json.contains("\"net\":\"lat3\""));
        assert!(json.contains("\"net\":\"loss300000-lat3\""));
        assert!(json.contains("\"health\":{\"messages_sent\""));
        let csv = result.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("net,messages_dropped_mean"), "{header}");
        assert!(csv.contains(",loss300000-lat1,"));
        // Closed-mode artifacts carry none of it.
        let closed = run_campaign(&tiny()).unwrap();
        let closed_json = closed.to_json().to_string();
        assert!(!closed_json.contains("\"net\":"));
        assert!(!closed_json.contains("\"degraded\""));
        assert!(!closed.to_csv().lines().next().unwrap().contains("net,"));
    }

    #[test]
    fn degraded_ideal_cells_reproduce_the_classic_campaign() {
        // The conformance guarantee, observed at the aggregate level:
        // the event engine under Ideal weather folds the exact same
        // per-trial metrics the classic driver produces, so the Ideal
        // slice of a degraded campaign equals a closed full-recovery
        // campaign cell-for-cell.
        let degraded = run_campaign(&degraded_tiny()).unwrap();
        let classic_cfg = CampaignConfig {
            mode: CampaignMode::FullRecovery,
            degraded: DegradedParams::default(),
            ..degraded_tiny()
        };
        let classic = run_campaign(&classic_cfg).unwrap();
        for scheme in ["ar", "sr", "sr-sc"] {
            for &n in &[10usize, 100] {
                let ideal = degraded
                    .cell_with_net(scheme, n, NetModelSpec::Ideal)
                    .unwrap();
                let closed = classic.cell(scheme, 8, 8, n).unwrap();
                assert_eq!(
                    ideal.covered_trials, closed.covered_trials,
                    "{scheme} N={n}"
                );
                for field in Metrics::FIELD_NAMES {
                    assert_eq!(
                        ideal.metric(field).unwrap(),
                        closed.metric(field).unwrap(),
                        "{scheme} N={n} {field}"
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_artifact_is_worker_count_invariant() {
        // Bernoulli loss draws come from coordinate-addressed streams,
        // so the schedule interleaving across workers cannot change
        // which messages die.
        let base = run_campaign(&degraded_tiny().with_workers(1)).unwrap();
        for workers in [2, 8] {
            let parallel = run_campaign(&degraded_tiny().with_workers(workers)).unwrap();
            assert_eq!(
                base.to_json().to_string(),
                parallel.to_json().to_string(),
                "workers={workers}"
            );
            assert_eq!(base.to_csv(), parallel.to_csv(), "workers={workers}");
        }
    }

    #[test]
    fn degraded_validation_rejects_bad_axes_and_classic_only_schemes() {
        let mut cfg = degraded_tiny();
        cfg.degraded.latencies.clear();
        let err = run_campaign(&cfg).unwrap_err();
        assert!(matches!(err, CampaignError::BadDegradedParams(_)));
        assert!(err.to_string().contains("non-empty"), "{err}");
        let mut cfg = degraded_tiny();
        cfg.degraded.loss_ppms = vec![2_000_000];
        let err = run_campaign(&cfg).unwrap_err();
        assert!(matches!(err, CampaignError::BadDegradedParams(_)));
        // VF and SMART have no event-driven path; the matrix must say so
        // up front instead of panicking a worker.
        let mut cfg = degraded_tiny();
        cfg.schemes = SchemeId::list(&["sr", "vf"]);
        let err = run_campaign(&cfg).unwrap_err();
        assert_eq!(err, CampaignError::SchemeNotEventDriven { id: "vf".into() });
        assert!(err.to_string().contains("event-driven"), "{err}");
        // Closed modes never read the degraded knobs.
        let mut cfg = tiny();
        cfg.degraded.latencies.clear();
        assert!(run_campaign(&cfg).is_ok());
    }

    #[test]
    fn work_queue_hands_out_every_index_once() {
        let q = WorkQueue::new(100, 3);
        let mut seen = [false; 100];
        // Drain from a single "worker" (forces stealing from the others).
        while let Some(i) = q.pop(1) {
            assert!(!seen[i as usize], "index {i} handed out twice");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(q.pop(0).is_none());
    }
}
