//! Large-grid scenario presets and the indexed-vs-scan repair harness.
//!
//! The paper evaluates on a 16×16 grid, where a per-round full-grid
//! occupancy scan is noise. These presets exercise the grid sizes the
//! incremental [`VacancySet`] index was built for — 64×64 and 128×128
//! fault storms, jammer walks, and mass-failure waves — and
//! [`run_greedy_repair`] runs the same steady-state monitor-and-repair
//! loop under either discovery strategy:
//!
//! * [`OccupancyMode::WordKernel`] — holes are discovered by folding the
//!   change journal into a word-level [`HoleSet`] bitset and sweeping it
//!   with `u64`-block iteration: O(changed) folds with no allocation or
//!   tree rebalancing, `cells/64` word reads per sweep;
//! * [`OccupancyMode::Indexed`] — the PR 2 representation: the same
//!   journal folded into a `BTreeSet` pending set, O(changed) per round
//!   with tree inserts;
//! * [`OccupancyMode::FullScan`] — holes are rediscovered each round by
//!   [`GridNetwork::vacant_cells_scan`], the pre-index O(cells) code
//!   path kept as the baseline.
//!
//! All modes make byte-identical repair decisions (the property the
//! tests pin down); the `perf` binary measures the wall-clock gaps,
//! which are the tentpole acceptance criteria of the occupancy and
//! kernel refactors.
//!
//! [`VacancySet`]: wsn_grid::VacancySet

use std::collections::BTreeSet;

use wsn_geometry::{sample, Point2, Vec2};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, HoleSet, RegionShape};
use wsn_simcore::{FaultPlan, Jammer, NodeId, Round, SimRng};

/// A reproducible large-grid fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable id, e.g. `mass_failure_64x64`.
    pub name: String,
    /// Grid columns.
    pub cols: u16,
    /// Grid rows.
    pub rows: u16,
    /// Surveillance region shape ([`RegionShape::Full`] for the paper's
    /// rectangle; irregular shapes deploy and repair only enabled
    /// cells).
    pub region: RegionShape,
    /// Nodes deployed per cell (per-cell-exact deployment over the
    /// enabled cells, so the spare budget is `(per_cell - 1) · enabled`).
    pub per_cell: usize,
    /// Deployment and repair seed.
    pub seed: u64,
    /// Scheduled faults.
    pub fault_plan: FaultPlan,
    /// Monitoring horizon: the repair loop runs exactly this many rounds
    /// (steady-state monitoring included), which is what makes the
    /// per-round discovery cost visible.
    pub rounds: Round,
}

impl Scenario {
    /// The paper's cell geometry (`R = 10 m`) at `cols × rows`.
    fn system(cols: u16, rows: u16) -> GridSystem {
        GridSystem::for_comm_range(cols, rows, 10.0).expect("preset dimensions are valid")
    }

    /// One mass-failure wave at round 1 killing 15% of all nodes
    /// (opening ~`cells/45` holes), then a long quiet monitoring tail —
    /// the steady-state regime where per-round discovery cost is the
    /// whole story.
    pub fn mass_failure(cols: u16, rows: u16) -> Scenario {
        let cells = cols as usize * rows as usize;
        let per_cell = 2;
        let kill = per_cell * cells * 15 / 100;
        Scenario {
            name: format!("mass_failure_{cols}x{rows}"),
            cols,
            rows,
            region: RegionShape::Full,
            per_cell,
            seed: 64_001,
            fault_plan: FaultPlan::new().at(
                1,
                wsn_simcore::FaultEvent::KillRandomEnabled { count: kill },
            ),
            rounds: 1024,
        }
    }

    /// Twenty failure waves, one every ten rounds, each killing ~2% of
    /// the deployment — sustained churn rather than one shock.
    pub fn fault_storm(cols: u16, rows: u16) -> Scenario {
        let cells = cols as usize * rows as usize;
        let per_cell = 2;
        let kill = (per_cell * cells / 50).max(1);
        let mut plan = FaultPlan::new();
        for wave in 0..20 {
            plan = plan.at(
                1 + wave * 10,
                wsn_simcore::FaultEvent::KillRandomEnabled { count: kill },
            );
        }
        Scenario {
            name: format!("fault_storm_{cols}x{rows}"),
            cols,
            rows,
            region: RegionShape::Full,
            per_cell,
            seed: 64_002,
            fault_plan: plan,
            rounds: 512,
        }
    }

    /// A jammer disk walking across the middle of the area at one cell
    /// per round, killing everything in its footprint.
    pub fn jammer_walk(cols: u16, rows: u16) -> Scenario {
        let sys = Scenario::system(cols, rows);
        let r = sys.cell_side();
        let jammer = Jammer {
            start: Point2::new(0.0, sys.area().height() / 2.0),
            velocity: Vec2::new(r, 0.0),
            radius: 2.5 * r,
        };
        let walk_rounds = cols as u64 + 1;
        Scenario {
            name: format!("jammer_walk_{cols}x{rows}"),
            cols,
            rows,
            region: RegionShape::Full,
            per_cell: 3,
            seed: 64_003,
            fault_plan: jammer
                .plan(1, 1 + walk_rounds)
                .expect("valid jammer geometry"),
            rounds: walk_rounds + 128,
        }
    }

    /// The preset matrix the occupancy bench and the smoke tests use:
    /// every scenario shape at 64×64, plus a 128×128 mass failure.
    pub fn presets() -> Vec<Scenario> {
        vec![
            Scenario::mass_failure(64, 64),
            Scenario::fault_storm(64, 64),
            Scenario::jammer_walk(64, 64),
            Scenario::mass_failure(128, 128),
        ]
    }

    /// The extra-large tier: every scenario shape at 256×256 (65 536
    /// cells, ~131k deployed nodes for the mass failure) — the scale the
    /// ROADMAP's "fast as the hardware allows" goal is measured at.
    /// Kept out of [`Scenario::presets`] so the default bench matrix
    /// stays minutes-scale; campaign harnesses and the XL smoke test
    /// opt in explicitly.
    pub fn presets_xl() -> Vec<Scenario> {
        vec![
            Scenario::mass_failure(256, 256),
            Scenario::fault_storm(256, 256),
            Scenario::jammer_walk(256, 256),
        ]
    }

    /// Irregular-region presets: every [`RegionShape::IRREGULAR`] shape
    /// as a mass-failure scenario at 64×64 **and** 128×128 (eight
    /// scenarios). Each disables ≥15% of the grid's cells; deployment,
    /// faults, and repair all confine themselves to the enabled region.
    pub fn masked_presets() -> Vec<Scenario> {
        let mut out = Vec::new();
        for (cols, rows) in [(64u16, 64u16), (128, 128)] {
            for shape in RegionShape::IRREGULAR {
                let mut s = Scenario::mass_failure(cols, rows);
                // Scale the kill wave to the enabled-cell population.
                let enabled = shape.build_mask(cols, rows).enabled_count();
                let kill = s.per_cell * enabled * 15 / 100;
                s.fault_plan = FaultPlan::new().at(
                    1,
                    wsn_simcore::FaultEvent::KillRandomEnabled { count: kill },
                );
                s.name = format!("mass_failure_{}_{cols}x{rows}", shape.label());
                s.region = shape;
                out.push(s);
            }
        }
        out
    }

    /// Deploys the scenario's network (per-cell-exact over the enabled
    /// region, fully covered before the first fault).
    pub fn build_network(&self) -> GridNetwork {
        let sys = Scenario::system(self.cols, self.rows);
        let mask = self.region.build_mask(self.cols, self.rows);
        let mut rng = SimRng::seed_from_u64(self.seed);
        let pos = deploy::per_cell_exact_masked(&sys, &mask, self.per_cell, &mut rng);
        GridNetwork::with_mask(sys, mask, &pos).expect("masked generator respects the mask")
    }
}

/// How [`run_greedy_repair`] discovers holes each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyMode {
    /// Fold the occupancy change journal into a word-level [`HoleSet`]
    /// bitset and sweep it as `u64` blocks — O(changed) bit writes per
    /// round, no allocation, `cells/64` word reads per sweep.
    WordKernel,
    /// Fold the occupancy change journal into a `BTreeSet` pending set —
    /// the PR 2 representation: O(changed) tree inserts per round.
    Indexed,
    /// Rescan the whole member table every round — the pre-index
    /// O(cells) baseline.
    FullScan,
}

/// What one repair run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOutcome {
    /// Rounds executed (always the scenario horizon).
    pub rounds: Round,
    /// Spares moved into holes.
    pub moves: u64,
    /// Total distance of those moves, meters.
    pub distance: f64,
    /// Holes still open at the end of the horizon.
    pub unfilled: usize,
    /// Cells examined while discovering holes (journal entries + pending
    /// set in indexed mode; `cells × rounds` for the full scan). This is
    /// the diagnostic the two modes are expected to disagree on.
    pub cells_scanned: u64,
}

/// Runs a steady-state monitor-and-repair loop over `scenario.rounds`
/// rounds on `net` (usually [`Scenario::build_network`], supplied by the
/// caller so benches can keep deployment out of the timed region):
/// faults fire per the plan, every discovered hole pulls the lowest-id
/// spare from its richest 4-neighbor (row-major order, skipped when no
/// neighbor has spares), and the loop keeps monitoring through the
/// quiet tail. Repair decisions are identical across modes — only hole
/// *discovery* differs.
pub fn run_greedy_repair(
    scenario: &Scenario,
    mut net: GridNetwork,
    mode: OccupancyMode,
) -> RepairOutcome {
    let mut rng = SimRng::seed_from_u64(scenario.seed ^ 0x9e37_79b9);
    let sys = *net.system();
    net.clear_changed_cells();
    let mut pending: BTreeSet<usize> = net.occupancy().iter_vacant().collect();
    let mut kernel = HoleSet::new(sys.cell_count());
    kernel.assign_vacant(net.occupancy());
    let mut out = RepairOutcome {
        rounds: scenario.rounds,
        moves: 0,
        distance: 0.0,
        unfilled: 0,
        cells_scanned: 0,
    };
    let mut holes: Vec<GridCoord> = Vec::new();
    for round in 0..scenario.rounds {
        let events: Vec<_> = scenario.fault_plan.events_at(round).cloned().collect();
        for ev in events {
            net.apply_fault(&ev, &mut rng);
        }
        holes.clear();
        match mode {
            OccupancyMode::WordKernel => {
                out.cells_scanned += net.changed_cells().len() as u64;
                net.fold_changed_cells_into(&mut kernel);
                out.cells_scanned += kernel.len() as u64;
                holes.extend(kernel.iter().map(|i| sys.coord_of(i)));
            }
            OccupancyMode::Indexed => {
                out.cells_scanned += net.changed_cells().len() as u64;
                net.drain_changed_cells_into(&mut pending);
                out.cells_scanned += pending.len() as u64;
                holes.extend(pending.iter().map(|&i| sys.coord_of(i)));
            }
            OccupancyMode::FullScan => {
                out.cells_scanned += sys.cell_count() as u64;
                holes.extend(net.vacant_cells_scan());
            }
        }
        for &hole in &holes {
            let donor = sys
                .neighbors(hole)
                .into_iter()
                .max_by_key(|&c| net.spare_count(c).unwrap_or(0));
            let Some(donor) = donor.filter(|&c| net.spare_count(c).unwrap_or(0) > 0) else {
                continue; // no adjacent spare this round; stays pending
            };
            let spare: NodeId = net
                .spare_iter(donor)
                .expect("in bounds")
                .min()
                .expect("spare_count > 0");
            let rect = sys.cell_rect(hole).expect("in bounds");
            let dest = sample::point_in_central_area(&rect, rng.uniform_f64(), rng.uniform_f64());
            let moved = net.move_node(spare, dest).expect("dest inside the area");
            out.moves += 1;
            out.distance += moved.distance;
            match mode {
                // The fill lands in the journal; fold it now so the hole
                // leaves the pending set without waiting a round.
                OccupancyMode::WordKernel => net.fold_changed_cells_into(&mut kernel),
                OccupancyMode::Indexed => net.drain_changed_cells_into(&mut pending),
                OccupancyMode::FullScan => {}
            }
        }
    }
    out.unfilled = net.vacant_count();
    debug_assert_eq!(
        net.vacant_iter().collect::<Vec<_>>(),
        net.vacant_cells_scan()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_advertised_matrix() {
        let names: Vec<String> = Scenario::presets().into_iter().map(|s| s.name).collect();
        assert!(names.contains(&"mass_failure_64x64".to_string()));
        assert!(names.contains(&"fault_storm_64x64".to_string()));
        assert!(names.contains(&"jammer_walk_64x64".to_string()));
        assert!(names.contains(&"mass_failure_128x128".to_string()));
    }

    #[test]
    fn build_network_is_fully_covered_before_faults() {
        let s = Scenario::mass_failure(16, 16);
        let net = s.build_network();
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(net.total_spares(), 16 * 16);
        net.debug_invariants();
    }

    #[test]
    fn indexed_and_full_scan_make_identical_repairs() {
        // The equivalence the bench's speedup claim rests on: both modes
        // repair the same holes with the same spares — only the
        // discovery cost differs.
        for s in [
            Scenario::mass_failure(24, 24),
            Scenario::fault_storm(24, 24),
            Scenario::jammer_walk(24, 24),
        ] {
            let kernel = run_greedy_repair(&s, s.build_network(), OccupancyMode::WordKernel);
            let indexed = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
            let scanned = run_greedy_repair(&s, s.build_network(), OccupancyMode::FullScan);
            assert_eq!(indexed.moves, scanned.moves, "{}", s.name);
            assert_eq!(indexed.distance, scanned.distance, "{}", s.name);
            assert_eq!(indexed.unfilled, scanned.unfilled, "{}", s.name);
            assert_eq!(indexed.rounds, scanned.rounds, "{}", s.name);
            // The word kernel is observation-equivalent to the BTreeSet
            // fold in every field, discovery accounting included.
            assert_eq!(kernel, indexed, "{}", s.name);
            assert!(
                indexed.cells_scanned < scanned.cells_scanned / 5,
                "{}: indexed discovery must be far below the full scan \
                 ({} vs {})",
                s.name,
                indexed.cells_scanned,
                scanned.cells_scanned
            );
        }
    }

    #[test]
    fn mass_failure_64x64_recovers_with_indexed_discovery() {
        let s = Scenario::mass_failure(64, 64);
        let out = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
        assert!(out.moves > 0);
        // Greedy 1-hop repair closes the vast majority of holes; the
        // interior of dense hole clusters stays open once adjacent
        // donors run dry (that is SR's job, not this harness's).
        assert!(
            out.unfilled < out.moves as usize / 5,
            "most holes must close: {out:?}"
        );
        // Steady-state monitoring is nearly free: far fewer cells
        // examined than one full scan per round would cost.
        assert!(out.cells_scanned < s.rounds * 64 * 64 / 5);
    }

    #[test]
    fn xl_presets_cover_256x256() {
        let names: Vec<String> = Scenario::presets_xl().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "mass_failure_256x256".to_string(),
                "fault_storm_256x256".to_string(),
                "jammer_walk_256x256".to_string(),
            ]
        );
        for s in Scenario::presets_xl() {
            assert_eq!((s.cols, s.rows), (256, 256));
        }
    }

    #[test]
    fn mass_failure_256x256_recovers_with_indexed_discovery() {
        // The XL tier at test scale: shorten the quiet monitoring tail
        // (the bench runs the full horizon) but keep the full 256×256
        // deployment and fault wave.
        let mut s = Scenario::mass_failure(256, 256);
        s.rounds = 64;
        let out = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
        assert!(out.moves > 1000, "the wave must open thousands of holes");
        assert!(
            out.unfilled < out.moves as usize / 5,
            "most holes must close: {out:?}"
        );
        // Indexed discovery stays far below one full scan per round even
        // at 65 536 cells.
        assert!(out.cells_scanned < s.rounds * 256 * 256 / 5);
    }

    #[test]
    fn masked_presets_cover_both_tiers_with_heavy_masks() {
        let presets = Scenario::masked_presets();
        assert_eq!(presets.len(), 8);
        for s in &presets {
            assert_ne!(s.region, RegionShape::Full);
            let mask = s.region.build_mask(s.cols, s.rows);
            assert!(
                mask.disabled_count() * 100 >= mask.cell_count() * 15,
                "{}: only {} of {} cells disabled",
                s.name,
                mask.disabled_count(),
                mask.cell_count()
            );
        }
        assert!(presets.iter().any(|s| (s.cols, s.rows) == (64, 64)));
        assert!(presets.iter().any(|s| (s.cols, s.rows) == (128, 128)));
    }

    #[test]
    fn masked_scenario_repairs_only_enabled_cells() {
        // Shrink one masked preset to test scale and run both discovery
        // modes: identical repairs, no placements in disabled cells.
        let mut s = Scenario::mass_failure(24, 24);
        s.region = RegionShape::Annulus;
        let mask = s.region.build_mask(24, 24);
        let kill = s.per_cell * mask.enabled_count() * 15 / 100;
        s.fault_plan = FaultPlan::new().at(
            1,
            wsn_simcore::FaultEvent::KillRandomEnabled { count: kill },
        );
        s.rounds = 256;
        let kernel = run_greedy_repair(&s, s.build_network(), OccupancyMode::WordKernel);
        let indexed = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
        let scanned = run_greedy_repair(&s, s.build_network(), OccupancyMode::FullScan);
        assert_eq!(indexed.moves, scanned.moves);
        assert_eq!(indexed.distance, scanned.distance);
        assert_eq!(indexed.unfilled, scanned.unfilled);
        assert_eq!(
            kernel, indexed,
            "word kernel must match the fold on masked regions"
        );
        assert!(indexed.moves > 0);
        let net = s.build_network();
        net.debug_invariants();
        assert_eq!(net.stats().vacant, 0);
        assert_eq!(net.enabled_count(), mask.enabled_count() * s.per_cell);
    }

    #[test]
    fn jammer_walk_is_deterministic() {
        let s = Scenario::jammer_walk(24, 24);
        let a = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
        let b = run_greedy_repair(&s, s.build_network(), OccupancyMode::Indexed);
        assert_eq!(a, b);
    }
}
