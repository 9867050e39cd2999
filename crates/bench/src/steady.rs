//! Open-system steady-state availability workloads.
//!
//! The paper's §5 experiments are *closed*: drop a deployment, repair its
//! holes once, measure the bill. A deployed surveillance network lives in
//! an *open* system — sensors keep failing, spares keep arriving, weather
//! keeps rolling through — and the question becomes an SLA one: what
//! fraction of time does the network hold its coverage target, and how
//! long does a hole live before a replacement closes it?
//!
//! This module drives one [`ReplacementScheme`] through that regime:
//!
//! * **Poisson faults.** Each tick kills `Poisson(fault_rate)` enabled
//!   nodes chosen uniformly ([`wsn_simcore::FaultEvent::KillRandomEnabled`]),
//!   drawn from a dedicated RNG stream so every scheme replays the
//!   identical fault schedule (the paper's paired methodology, extended
//!   in time).
//! * **Poisson arrivals.** Each tick lands `Poisson(arrival_rate)` fresh
//!   nodes with configurable battery at uniform positions — the spare
//!   resupply that keeps the system from draining to zero.
//! * **Recurring weather.** A moving [`Jammer`] disk crosses the area
//!   every `jammer_period` ticks, killing everything it touches —
//!   including nodes exactly on its rim (closed boundary, see
//!   [`wsn_geometry::Disk::contains`]).
//! * **Energy.** Every tick's movement, messaging, and idle duty is
//!   billed through [`EnergyModel`]; idle duty also drains each node's
//!   [`Battery`], and a configurable [`SpareRotation`] policy retires
//!   weak spares before they die in place.
//!
//! The per-trial observable is a [`SteadyOutcome`]: coverage
//! availability (fraction of ticks at or above the SLA), hole lifetimes
//! in a mergeable [`Histogram`] (for p50/p99/p999), movement-energy burn
//! rate, and mean time to repair. [`crate::campaign`] aggregates
//! outcomes across seeds via [`SteadySummary`] under
//! [`CampaignMode::SteadyState`](crate::campaign::CampaignMode), with
//! the same worker-count-invariant artifact guarantee as the closed
//! modes.
//!
//! # Example
//!
//! ```
//! use wsn_bench::steady::{run_steady_trial, SteadyParams};
//! use wsn_coverage::ReplacementScheme;
//!
//! let params = SteadyParams {
//!     ticks: 16,
//!     ..SteadyParams::default()
//! };
//! let sys = wsn_grid::GridSystem::for_comm_range(6, 6, 10.0)?;
//! let mut rng = wsn_simcore::SimRng::seed_from_u64(7);
//! let positions = wsn_grid::deploy::uniform(&sys, 60, &mut rng);
//! let mut net = wsn_grid::GridNetwork::new(sys, &positions);
//! let sr = wsn_coverage::Sr::new();
//! let outcome = run_steady_trial(&params, &sr, &mut net, 42);
//! assert_eq!(outcome.ticks, 16);
//! assert!(outcome.availability() >= 0.0 && outcome.availability() <= 1.0);
//! # Ok::<(), wsn_grid::GridError>(())
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use wsn_coverage::scheme::{DriveMode, ReplacementScheme};
use wsn_geometry::{sample, Disk, Point2, Vec2};
use wsn_grid::{GridCoord, GridNetwork, GridSystem};
use wsn_simcore::{
    derive_stream_seed, Battery, EnergyModel, FaultEvent, Jammer, Metrics, NodeId, SimRng,
};
use wsn_stats::{Histogram, JsonValue, StreamingStat};

/// Stream tag for the fault process (kills per tick + victim choice).
const STREAM_FAULT: u64 = 0xFA;
/// Stream tag for the arrival process (arrivals per tick + positions).
const STREAM_ARRIVAL: u64 = 0xA1;
/// Stream tag prefix for per-tick repair seeds handed to the scheme.
const STREAM_REPAIR: u64 = 0x5E;

/// Spare-rotation policy: what to do with weak spares before they die in
/// place and (eventually) open a hole nobody can close.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpareRotation {
    /// Keep every spare until its battery dies.
    Off,
    /// Retire (disable) any *spare* whose battery fraction falls below
    /// the threshold. Retiring a spare never opens a hole: only cells
    /// with at least two members are scanned, and the head stays.
    RetireBelow {
        /// Battery fraction below which a spare is retired, in `(0, 1]`.
        fraction: f64,
    },
}

impl SpareRotation {
    fn to_json(self) -> JsonValue {
        match self {
            SpareRotation::Off => JsonValue::obj([("policy", JsonValue::from("off"))]),
            SpareRotation::RetireBelow { fraction } => JsonValue::obj([
                ("policy", JsonValue::from("retire_below")),
                ("fraction", JsonValue::from(fraction)),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<SpareRotation, String> {
        match v.get("policy").and_then(JsonValue::as_str) {
            Some("off") => Ok(SpareRotation::Off),
            Some("retire_below") => Ok(SpareRotation::RetireBelow {
                fraction: crate::campaign::wire_f64(v, "fraction")?,
            }),
            Some(other) => Err(format!("unknown rotation policy '{other}'")),
            None => Err("rotation block needs a 'policy' string".into()),
        }
    }
}

/// Configuration of one steady-state availability workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadyParams {
    /// Simulated ticks (one fault/arrival/repair cycle each).
    pub ticks: u64,
    /// Mean enabled-node kills per tick (Poisson).
    pub fault_rate: f64,
    /// Mean node arrivals per tick (Poisson).
    pub arrival_rate: f64,
    /// Battery capacity (J) of arriving nodes.
    pub arrival_battery: f64,
    /// Ticks between jammer crossings; `0` disables the jammer.
    pub jammer_period: u64,
    /// Jammer disk radius in units of the grid cell side.
    pub jammer_radius_cells: f64,
    /// Coverage fraction at or above which a tick counts as available.
    pub coverage_sla: f64,
    /// What to do with weak spares.
    pub rotation: SpareRotation,
    /// Bins of the hole-lifetime histogram (range is `[0, ticks + 1)`,
    /// fixed by the config so shards merge exactly).
    pub hole_life_bins: usize,
    /// Energy prices for movement, messaging, and idle duty.
    pub energy: EnergyModel,
}

impl Default for SteadyParams {
    fn default() -> Self {
        SteadyParams {
            ticks: 128,
            fault_rate: 1.0,
            arrival_rate: 1.0,
            arrival_battery: 10_000.0,
            jammer_period: 32,
            jammer_radius_cells: 1.5,
            coverage_sla: 0.98,
            rotation: SpareRotation::Off,
            hole_life_bins: 64,
            energy: EnergyModel::default(),
        }
    }
}

impl SteadyParams {
    /// Validates the workload parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when any knob is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.ticks == 0 {
            return Err("ticks must be at least 1".into());
        }
        if !(self.fault_rate.is_finite() && self.fault_rate >= 0.0) {
            return Err(format!(
                "fault_rate must be finite and >= 0, got {}",
                self.fault_rate
            ));
        }
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(format!(
                "arrival_rate must be finite and >= 0, got {}",
                self.arrival_rate
            ));
        }
        if !(self.arrival_battery.is_finite() && self.arrival_battery > 0.0) {
            return Err(format!(
                "arrival_battery must be finite and positive, got {}",
                self.arrival_battery
            ));
        }
        if self.jammer_period > 0
            && !(self.jammer_radius_cells.is_finite() && self.jammer_radius_cells > 0.0)
        {
            return Err(format!(
                "jammer_radius_cells must be finite and positive, got {}",
                self.jammer_radius_cells
            ));
        }
        if !(self.coverage_sla.is_finite() && (0.0..=1.0).contains(&self.coverage_sla)) {
            return Err(format!(
                "coverage_sla must be in [0, 1], got {}",
                self.coverage_sla
            ));
        }
        if let SpareRotation::RetireBelow { fraction } = self.rotation {
            if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
                return Err(format!(
                    "rotation fraction must be in (0, 1], got {fraction}"
                ));
            }
        }
        if self.hole_life_bins == 0 {
            return Err("hole_life_bins must be at least 1".into());
        }
        Ok(())
    }

    /// The (empty) hole-lifetime histogram this config prescribes. Every
    /// shard uses the identical binning, so [`Histogram::merge`] is
    /// exact.
    pub fn lifetime_histogram(&self) -> Histogram {
        Histogram::new(0.0, (self.ticks + 1) as f64, self.hole_life_bins)
            .expect("validated: ticks >= 1 and bins >= 1")
    }

    /// Stable JSON view (fixed key order) for campaign artifacts.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("ticks", JsonValue::from(self.ticks)),
            ("fault_rate", JsonValue::from(self.fault_rate)),
            ("arrival_rate", JsonValue::from(self.arrival_rate)),
            ("arrival_battery", JsonValue::from(self.arrival_battery)),
            ("jammer_period", JsonValue::from(self.jammer_period)),
            (
                "jammer_radius_cells",
                JsonValue::from(self.jammer_radius_cells),
            ),
            ("coverage_sla", JsonValue::from(self.coverage_sla)),
            ("rotation", self.rotation.to_json()),
            ("hole_life_bins", JsonValue::from(self.hole_life_bins)),
            (
                "energy",
                JsonValue::obj([
                    (
                        "move_cost_per_meter",
                        JsonValue::from(self.energy.move_cost_per_meter),
                    ),
                    ("message_cost", JsonValue::from(self.energy.message_cost)),
                    (
                        "idle_cost_per_round",
                        JsonValue::from(self.energy.idle_cost_per_round),
                    ),
                ]),
            ),
        ])
    }

    /// Parses the [`SteadyParams::to_json`] wire form back into params.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    /// Range validation stays with [`SteadyParams::validate`]; this only
    /// enforces wire-level shape (numbers are numbers, integers are
    /// exactly-representable integers).
    pub fn from_json(v: &JsonValue) -> Result<SteadyParams, String> {
        use crate::campaign::{wire_f64, wire_u64, wire_usize};
        let energy = v.get("energy").ok_or("steady field 'energy' missing")?;
        Ok(SteadyParams {
            ticks: wire_u64(v, "ticks")?,
            fault_rate: wire_f64(v, "fault_rate")?,
            arrival_rate: wire_f64(v, "arrival_rate")?,
            arrival_battery: wire_f64(v, "arrival_battery")?,
            jammer_period: wire_u64(v, "jammer_period")?,
            jammer_radius_cells: wire_f64(v, "jammer_radius_cells")?,
            coverage_sla: wire_f64(v, "coverage_sla")?,
            rotation: SpareRotation::from_json(
                v.get("rotation").ok_or("steady field 'rotation' missing")?,
            )?,
            hole_life_bins: wire_usize(v, "hole_life_bins")?,
            energy: EnergyModel {
                move_cost_per_meter: wire_f64(energy, "move_cost_per_meter")?,
                message_cost: wire_f64(energy, "message_cost")?,
                idle_cost_per_round: wire_f64(energy, "idle_cost_per_round")?,
            },
        })
    }
}

/// What one steady-state trial observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyOutcome {
    /// Ticks simulated.
    pub ticks: u64,
    /// Ticks whose post-repair coverage met the SLA.
    pub covered_ticks: u64,
    /// Lifetimes (ticks from first observation to repair) of every hole
    /// that closed during the trial.
    pub hole_lifetimes: Histogram,
    /// Holes that closed during the trial.
    pub repaired_holes: u64,
    /// Holes still open when the trial ended (right-censored: their
    /// lifetimes are *not* in the histogram).
    pub censored_holes: u64,
    /// Sum of all repaired-hole lifetimes, for the MTTR mean.
    pub lifetime_tick_sum: f64,
    /// Nodes killed by the fault and jammer processes.
    pub failures: u64,
    /// Nodes that arrived.
    pub arrivals: u64,
    /// Spares retired by the rotation policy.
    pub retired_spares: u64,
    /// Nodes disabled because idle duty drained their battery.
    pub battery_deaths: u64,
    /// Total energy billed (movement + messages + idle), joules.
    pub energy_joules: f64,
    /// Scheme metrics accumulated over every repair invocation
    /// (`rounds` is the true sum across ticks, not the per-run max).
    pub metrics: Metrics,
}

impl SteadyOutcome {
    /// Fraction of ticks that met the coverage SLA.
    pub fn availability(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.covered_ticks as f64 / self.ticks as f64
    }

    /// Mean time to repair in ticks (`None` when no hole was repaired).
    /// A hole opened and closed within the same tick has latency 0.
    pub fn mttr(&self) -> Option<f64> {
        if self.repaired_holes == 0 {
            return None;
        }
        Some(self.lifetime_tick_sum / self.repaired_holes as f64)
    }

    /// Energy burn rate in joules per tick.
    pub fn energy_rate(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.energy_joules / self.ticks as f64
    }
}

/// The jammer disks active at `tick`: one crossing starts at every
/// multiple of `jammer_period`, entering from the left edge at
/// mid-height and advancing one cell side per tick; crossings long
/// enough to overlap simply stack.
pub(crate) fn jammer_disks(params: &SteadyParams, sys: &GridSystem, tick: u64) -> Vec<Disk> {
    if params.jammer_period == 0 {
        return Vec::new();
    }
    let area = sys.area();
    let side = sys.cell_side();
    let radius = params.jammer_radius_cells * side;
    // Rounds until the disk has fully exited on the right.
    let duration = ((area.width() + 2.0 * radius) / side).ceil() as u64 + 1;
    let jammer = Jammer {
        start: Point2::new(area.min().x - radius, area.min().y + area.height() / 2.0),
        velocity: Vec2::new(side, 0.0),
        radius,
    };
    let mut disks = Vec::new();
    let mut t0 = 0u64;
    while t0 <= tick {
        let age = tick - t0;
        if age < duration {
            disks.push(jammer.disk_at(age).expect("validated: radius > 0"));
        }
        t0 += params.jammer_period;
    }
    disks
}

/// Drives one scheme through the open-system workload on `net`.
///
/// Fully deterministic in `(params, net, seed)`: the fault, arrival and
/// repair processes each draw from their own
/// [`wsn_simcore::SimRng::for_stream`] stream derived from `seed`, so
/// two schemes handed clones of the same deployment see byte-identical
/// fault schedules and arrival sequences — the paired-comparison
/// property the closed campaign modes already have, extended in time.
///
/// Each tick: faults strike (Poisson kills, then any active jammer
/// disks), arrivals land, hole openings are recorded, the scheme runs
/// one repair episode, closures are credited, energy is billed (idle
/// duty drains every enabled battery; depleted nodes die), and the
/// rotation policy retires weak spares.
pub fn run_steady_trial(
    params: &SteadyParams,
    scheme: &dyn ReplacementScheme,
    net: &mut GridNetwork,
    seed: u64,
) -> SteadyOutcome {
    let mut fault_rng = SimRng::for_stream(seed, &[STREAM_FAULT]);
    let mut arrival_rng = SimRng::for_stream(seed, &[STREAM_ARRIVAL]);
    let mut out = SteadyOutcome {
        ticks: params.ticks,
        covered_ticks: 0,
        hole_lifetimes: params.lifetime_histogram(),
        repaired_holes: 0,
        censored_holes: 0,
        lifetime_tick_sum: 0.0,
        failures: 0,
        arrivals: 0,
        retired_spares: 0,
        battery_deaths: 0,
        energy_joules: 0.0,
        metrics: Metrics::new(),
    };
    let mut rounds_sum = 0u64;
    // When each currently-open hole was first observed.
    let mut open_since: BTreeMap<GridCoord, u64> = BTreeMap::new();
    let enabled_cells: Vec<GridCoord> = net.mask().iter_enabled().collect();
    let total_cells = enabled_cells.len();

    for tick in 0..params.ticks {
        // 1. Poisson background failures.
        let kills = fault_rng.poisson(params.fault_rate) as usize;
        if kills > 0 {
            out.failures += net
                .apply_fault(
                    &FaultEvent::KillRandomEnabled { count: kills },
                    &mut fault_rng,
                )
                .len() as u64;
        }
        // 2. Weather: every active jammer crossing strikes once.
        for disk in jammer_disks(params, net.system(), tick) {
            out.failures += net
                .apply_fault(&FaultEvent::KillRegion(disk), &mut fault_rng)
                .len() as u64;
        }
        // 3. Poisson spare arrivals, uniform over enabled cells.
        let arrivals = arrival_rng.poisson(params.arrival_rate);
        for _ in 0..arrivals {
            let cell = enabled_cells[arrival_rng.range_usize(total_cells)];
            let rect = net
                .system()
                .cell_rect(cell)
                .expect("enabled cell in bounds");
            let p =
                sample::point_in_rect(&rect, arrival_rng.uniform_f64(), arrival_rng.uniform_f64());
            net.add_node_with_battery(p, Battery::new(params.arrival_battery))
                .expect("enabled cell accepts arrivals");
        }
        out.arrivals += arrivals;
        // 4. Record when each hole was first observed (pre-repair).
        for coord in net.vacant_iter() {
            open_since.entry(coord).or_insert(tick);
        }
        // 5. One repair episode.
        let repair_seed = derive_stream_seed(seed, &[STREAM_REPAIR, tick]);
        let report = scheme
            .run(net, repair_seed, DriveMode::Classic)
            .expect("campaign validation proved the scheme supports this network");
        rounds_sum += report.metrics.rounds;
        out.metrics += report.metrics;
        // 6. Credit closures: an observed hole whose cell is occupied
        //    again lived `tick - opened` ticks (0 = same-tick repair).
        let closed: Vec<GridCoord> = open_since
            .iter()
            .filter(|(c, _)| !net.is_vacant(**c).expect("tracked holes in bounds"))
            .map(|(c, _)| *c)
            .collect();
        for coord in closed {
            let opened = open_since.remove(&coord).expect("just observed");
            let lifetime = (tick - opened) as f64;
            out.hole_lifetimes.record(lifetime);
            out.lifetime_tick_sum += lifetime;
            out.repaired_holes += 1;
        }
        // 7. Energy: bill the tick globally, then drain idle duty from
        //    every enabled battery (depleted nodes die in place; the
        //    hole they open is observed next tick).
        let enabled_nodes: Vec<NodeId> = net
            .nodes()
            .iter()
            .filter(|n| n.status().is_enabled())
            .map(|n| n.id())
            .collect();
        out.energy_joules += params.energy.bill(
            report.metrics.distance,
            report.metrics.messages,
            enabled_nodes.len() as u64,
        );
        let idle_draw = params.energy.idle(1);
        for id in enabled_nodes {
            if net.draw_battery(id, idle_draw).expect("live id") {
                net.disable_node(id).expect("live id");
                out.battery_deaths += 1;
            }
        }
        // 8. Rotation: retire weak spares before they die in place.
        if let SpareRotation::RetireBelow { fraction } = params.rotation {
            let spareful: Vec<GridCoord> = net.spareful_iter().collect();
            let mut retire = Vec::new();
            for coord in spareful {
                let spares: Vec<NodeId> = net
                    .spare_iter(coord)
                    .expect("spareful cells are enabled")
                    .collect();
                for id in spares {
                    let node = net.node(id).expect("member ids are live");
                    if node.status().is_enabled() && node.battery().fraction() < fraction {
                        retire.push(id);
                    }
                }
            }
            for id in retire {
                net.disable_node(id).expect("live id");
                out.retired_spares += 1;
            }
        }
        // 9. Post-repair coverage vs the SLA.
        let coverage = 1.0 - net.vacant_count() as f64 / total_cells as f64;
        out.covered_ticks += u64::from(coverage >= params.coverage_sla);
    }
    // `Metrics + Metrics` keeps the max of the two `rounds` (it merges
    // concurrent phases); a time series needs the sum.
    out.metrics.rounds = rounds_sum;
    out.censored_holes = open_since.len() as u64;
    out
}

/// Streaming aggregate of steady-state outcomes across a cell's trials.
///
/// Hole lifetimes merge exactly (identical binning from the shared
/// [`SteadyParams`]); availability, MTTR and burn rate fold as per-trial
/// observations with CIs.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadySummary {
    /// Per-trial coverage availability in `[0, 1]`.
    pub availability: StreamingStat,
    /// Per-trial mean time to repair, ticks (trials with no repaired
    /// hole contribute no observation).
    pub mttr: StreamingStat,
    /// Per-trial energy burn rate, joules per tick.
    pub energy_rate: StreamingStat,
    /// Merged hole-lifetime histogram across every trial.
    pub hole_lifetimes: Histogram,
    /// Holes repaired across every trial.
    pub repaired_holes: u64,
    /// Holes still open at trial end, across every trial.
    pub censored_holes: u64,
    /// Kills by fault and jammer processes, across every trial.
    pub failures: u64,
    /// Node arrivals, across every trial.
    pub arrivals: u64,
    /// Spares retired by rotation, across every trial.
    pub retired_spares: u64,
    /// Battery-exhaustion deaths, across every trial.
    pub battery_deaths: u64,
}

impl SteadySummary {
    /// Empty aggregate with the binning the params prescribe.
    pub fn new(params: &SteadyParams) -> SteadySummary {
        SteadySummary {
            availability: StreamingStat::new(),
            mttr: StreamingStat::new(),
            energy_rate: StreamingStat::new(),
            hole_lifetimes: params.lifetime_histogram(),
            repaired_holes: 0,
            censored_holes: 0,
            failures: 0,
            arrivals: 0,
            retired_spares: 0,
            battery_deaths: 0,
        }
    }

    /// Folds one trial's outcome into the aggregate.
    pub fn push(&mut self, o: &SteadyOutcome) {
        self.availability.push(o.availability());
        if let Some(mttr) = o.mttr() {
            self.mttr.push(mttr);
        }
        self.energy_rate.push(o.energy_rate());
        self.hole_lifetimes.merge(&o.hole_lifetimes);
        self.repaired_holes += o.repaired_holes;
        self.censored_holes += o.censored_holes;
        self.failures += o.failures;
        self.arrivals += o.arrivals;
        self.retired_spares += o.retired_spares;
        self.battery_deaths += o.battery_deaths;
    }

    /// Hole-lifetime percentile from the merged histogram (`None` until
    /// a hole has been repaired).
    pub fn lifetime_percentile(&self, p: f64) -> Option<f64> {
        self.hole_lifetimes.percentile(p)
    }

    /// Stable JSON view (fixed key order) for campaign artifacts.
    pub fn to_json(&self, ci_level: f64) -> JsonValue {
        let pct = |p: f64| match self.hole_lifetimes.percentile(p) {
            Some(v) => JsonValue::from(v),
            None => JsonValue::Null,
        };
        JsonValue::obj([
            ("availability", self.availability.to_json(ci_level)),
            ("mttr", self.mttr.to_json(ci_level)),
            ("energy_rate", self.energy_rate.to_json(ci_level)),
            ("hole_lifetime_p50", pct(50.0)),
            ("hole_lifetime_p99", pct(99.0)),
            ("hole_lifetime_p999", pct(99.9)),
            (
                "hole_lifetime_counts",
                JsonValue::Arr(
                    self.hole_lifetimes
                        .counts()
                        .iter()
                        .map(|&c| JsonValue::from(c))
                        .collect(),
                ),
            ),
            ("repaired_holes", JsonValue::from(self.repaired_holes)),
            ("censored_holes", JsonValue::from(self.censored_holes)),
            ("failures", JsonValue::from(self.failures)),
            ("arrivals", JsonValue::from(self.arrivals)),
            ("retired_spares", JsonValue::from(self.retired_spares)),
            ("battery_deaths", JsonValue::from(self.battery_deaths)),
        ])
    }

    /// Serializes the aggregate *state* (accumulator registers and raw
    /// counters) for campaign checkpoints. [`SteadySummary::to_json`] is
    /// the report; this round-trips through
    /// [`SteadySummary::from_state_json`] so a resumed campaign keeps
    /// folding exactly where the interrupted one stopped.
    pub fn to_state_json(&self) -> JsonValue {
        JsonValue::obj([
            ("availability", self.availability.to_state_json()),
            ("mttr", self.mttr.to_state_json()),
            ("energy_rate", self.energy_rate.to_state_json()),
            ("hole_lifetimes", self.hole_lifetimes.to_state_json()),
            ("repaired_holes", JsonValue::from(self.repaired_holes)),
            ("censored_holes", JsonValue::from(self.censored_holes)),
            ("failures", JsonValue::from(self.failures)),
            ("arrivals", JsonValue::from(self.arrivals)),
            ("retired_spares", JsonValue::from(self.retired_spares)),
            ("battery_deaths", JsonValue::from(self.battery_deaths)),
        ])
    }

    /// Restores a [`SteadySummary::to_state_json`] state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_state_json(v: &JsonValue) -> Result<SteadySummary, String> {
        use crate::campaign::wire_u64;
        let stat = |key: &str| -> Result<StreamingStat, String> {
            StreamingStat::from_state_json(
                v.get(key)
                    .ok_or_else(|| format!("steady state field '{key}' missing"))?,
            )
        };
        Ok(SteadySummary {
            availability: stat("availability")?,
            mttr: stat("mttr")?,
            energy_rate: stat("energy_rate")?,
            hole_lifetimes: Histogram::from_state_json(
                v.get("hole_lifetimes")
                    .ok_or("steady state field 'hole_lifetimes' missing")?,
            )?,
            repaired_holes: wire_u64(v, "repaired_holes")?,
            censored_holes: wire_u64(v, "censored_holes")?,
            failures: wire_u64(v, "failures")?,
            arrivals: wire_u64(v, "arrivals")?,
            retired_spares: wire_u64(v, "retired_spares")?,
            battery_deaths: wire_u64(v, "battery_deaths")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_coverage::Sr;
    use wsn_grid::deploy;

    fn network(cols: u16, rows: u16, nodes: usize, seed: u64) -> GridNetwork {
        let sys = GridSystem::for_comm_range(cols, rows, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let positions = deploy::uniform(&sys, nodes, &mut rng);
        GridNetwork::new(sys, &positions)
    }

    #[test]
    fn params_validation_rejects_bad_knobs() {
        assert!(SteadyParams::default().validate().is_ok());
        let bad = [
            SteadyParams {
                ticks: 0,
                ..SteadyParams::default()
            },
            SteadyParams {
                fault_rate: -1.0,
                ..SteadyParams::default()
            },
            SteadyParams {
                arrival_rate: f64::NAN,
                ..SteadyParams::default()
            },
            SteadyParams {
                arrival_battery: 0.0,
                ..SteadyParams::default()
            },
            SteadyParams {
                jammer_radius_cells: 0.0,
                ..SteadyParams::default()
            },
            SteadyParams {
                coverage_sla: 1.5,
                ..SteadyParams::default()
            },
            SteadyParams {
                rotation: SpareRotation::RetireBelow { fraction: 0.0 },
                ..SteadyParams::default()
            },
            SteadyParams {
                hole_life_bins: 0,
                ..SteadyParams::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?}");
        }
        // A zero radius is fine while the jammer is off.
        let off = SteadyParams {
            jammer_period: 0,
            jammer_radius_cells: 0.0,
            ..SteadyParams::default()
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn trial_is_deterministic_in_seed() {
        let params = SteadyParams {
            ticks: 24,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut a = network(6, 6, 50, 9);
        let mut b = network(6, 6, 50, 9);
        let one = run_steady_trial(&params, &sr, &mut a, 1234);
        let two = run_steady_trial(&params, &sr, &mut b, 1234);
        assert_eq!(one, two);
        assert_eq!(a, b);
        a.debug_invariants();
        // A different seed moves every stochastic process.
        let mut c = network(6, 6, 50, 9);
        let other = run_steady_trial(&params, &sr, &mut c, 1235);
        assert_ne!(one, other);
    }

    #[test]
    fn fault_streams_are_paired_across_schemes() {
        // Two schemes handed clones of one deployment see the identical
        // fault schedule: kill counts differ only through repair-induced
        // occupancy differences, and with repairs that always succeed
        // the failure totals match exactly.
        let params = SteadyParams {
            ticks: 16,
            jammer_period: 8,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let ar = wsn_baselines::Ar::new();
        let mut a = network(6, 6, 80, 3);
        let mut b = a.clone();
        let sr_out = run_steady_trial(&params, &sr, &mut a, 77);
        let ar_out = run_steady_trial(&params, &ar, &mut b, 77);
        assert_eq!(sr_out.arrivals, ar_out.arrivals);
        assert!(sr_out.failures > 0);
    }

    #[test]
    fn jammer_schedule_covers_recurring_crossings() {
        let sys = GridSystem::for_comm_range(8, 8, 10.0).unwrap();
        let params = SteadyParams {
            jammer_period: 16,
            jammer_radius_cells: 1.0,
            ..SteadyParams::default()
        };
        // Tick 0: first crossing just entered from the left.
        let disks = jammer_disks(&params, &sys, 0);
        assert_eq!(disks.len(), 1);
        assert!(disks[0].center().x < sys.area().min().x + 1e-9);
        // The crossing takes width/side + 2*radius/side = 8 + 2 ticks;
        // at tick 16 the first is gone and the second just entered.
        let disks = jammer_disks(&params, &sys, 16);
        assert_eq!(disks.len(), 1);
        // Period shorter than the crossing: two disks active at once.
        let fast = SteadyParams {
            jammer_period: 4,
            jammer_radius_cells: 1.0,
            ..SteadyParams::default()
        };
        assert!(jammer_disks(&fast, &sys, 8).len() >= 2);
        // Off: never any disk.
        let off = SteadyParams {
            jammer_period: 0,
            ..SteadyParams::default()
        };
        assert!(jammer_disks(&off, &sys, 5).is_empty());
    }

    #[test]
    fn jammer_strikes_register_as_failures() {
        let params = SteadyParams {
            ticks: 16,
            fault_rate: 0.0,
            arrival_rate: 0.0,
            jammer_period: 4,
            jammer_radius_cells: 2.0,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut net = network(6, 6, 120, 11);
        let out = run_steady_trial(&params, &sr, &mut net, 5);
        assert!(out.failures > 0, "a radius-2-cell jammer must hit nodes");
        assert_eq!(out.arrivals, 0);
    }

    #[test]
    fn sr_holds_availability_with_ample_spares() {
        // Plenty of spares, gentle faults: SR repairs every hole within
        // the tick, so every tick meets the SLA and MTTR is 0.
        let params = SteadyParams {
            ticks: 32,
            fault_rate: 0.5,
            arrival_rate: 1.0,
            jammer_period: 0,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut net = network(6, 6, 120, 21);
        let out = run_steady_trial(&params, &sr, &mut net, 8);
        assert_eq!(out.covered_ticks, out.ticks);
        assert_eq!(out.availability(), 1.0);
        if out.repaired_holes > 0 {
            assert_eq!(out.mttr(), Some(0.0));
            assert_eq!(out.hole_lifetimes.percentile(99.0).unwrap() as u64, 0);
        }
        assert!(out.energy_joules > 0.0);
        assert!(out.energy_rate() > 0.0);
        net.debug_invariants();
    }

    #[test]
    fn starved_network_reports_censored_holes() {
        // No arrivals, heavy faults, no spares to begin with: holes open
        // and stay open; availability collapses and the survivors are
        // right-censored.
        let params = SteadyParams {
            ticks: 24,
            fault_rate: 3.0,
            arrival_rate: 0.0,
            jammer_period: 0,
            coverage_sla: 1.0,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut net = network(6, 6, 36, 2);
        let out = run_steady_trial(&params, &sr, &mut net, 31);
        assert!(out.censored_holes > 0);
        assert!(out.availability() < 1.0);
    }

    #[test]
    fn rotation_retires_weak_spares() {
        // Arrivals carry tiny batteries and idle duty is expensive:
        // spares decay fast, and the rotation policy retires them before
        // they die in place.
        let params = SteadyParams {
            ticks: 48,
            fault_rate: 0.2,
            arrival_rate: 3.0,
            arrival_battery: 0.01,
            jammer_period: 0,
            rotation: SpareRotation::RetireBelow { fraction: 0.5 },
            energy: EnergyModel {
                idle_cost_per_round: 0.002,
                ..EnergyModel::default()
            },
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut net = network(6, 6, 80, 4);
        let out = run_steady_trial(&params, &sr, &mut net, 12);
        assert!(out.retired_spares > 0, "{out:?}");
        net.debug_invariants();
    }

    #[test]
    fn battery_exhaustion_disables_nodes() {
        let params = SteadyParams {
            ticks: 16,
            fault_rate: 0.0,
            arrival_rate: 2.0,
            arrival_battery: 0.0005,
            jammer_period: 0,
            energy: EnergyModel {
                idle_cost_per_round: 0.001,
                ..EnergyModel::default()
            },
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut net = network(6, 6, 40, 6);
        let out = run_steady_trial(&params, &sr, &mut net, 19);
        assert!(out.battery_deaths > 0, "{out:?}");
        net.debug_invariants();
    }

    #[test]
    fn summary_folds_and_merges_lifetimes() {
        let params = SteadyParams {
            ticks: 24,
            fault_rate: 2.0,
            ..SteadyParams::default()
        };
        let sr = Sr::new();
        let mut summary = SteadySummary::new(&params);
        let mut whole = params.lifetime_histogram();
        for trial in 0..3u64 {
            let mut net = network(6, 6, 60, trial);
            let out = run_steady_trial(&params, &sr, &mut net, 100 + trial);
            whole.merge(&out.hole_lifetimes);
            summary.push(&out);
        }
        assert_eq!(summary.availability.summary().count(), 3);
        assert_eq!(summary.hole_lifetimes, whole);
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(summary.lifetime_percentile(p), whole.percentile(p));
        }
        let json = summary.to_json(0.95).to_string();
        assert!(json.contains("\"availability\""));
        assert!(json.contains("\"hole_lifetime_p999\""));
        // An empty summary reports null percentiles, not a crash.
        let empty = SteadySummary::new(&params);
        let json = empty.to_json(0.95).to_string();
        assert!(json.contains("\"hole_lifetime_p50\":null"));
    }
}
