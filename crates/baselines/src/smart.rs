//! A SMART-style scan-based balancing baseline (after Wu & Yang,
//! INFOCOM'05 — the paper's reference \[6\]).
//!
//! SMART treats the virtual grid as a 2-D mesh and balances load with two
//! global scans: first every **row** equalizes its cells' node counts,
//! then every **column** does the same. After both scans each cell holds
//! `⌊avg⌋` or `⌈avg⌉` nodes, so any total of at least `m·n` nodes yields
//! complete coverage. Movement is cascaded: a unit of flow crosses one
//! cell boundary per hop, which is what the movement counters measure.
//!
//! The paper's criticism (§1): the scans "require node adjustments in the
//! entire grid network, causing many unnecessary node movements just for
//! providing the coverage for a single hole" — the comparison benches
//! quantify exactly that against SR.

use wsn_coverage::scheme::{
    DriveMode, NetworkSpec, Quiescence, ReplacementScheme, RunReport, SchemeReport, Unsupported,
};
use wsn_grid::{GridCoord, GridNetwork};
use wsn_simcore::{Metrics, NodeId, SimRng, TraceEvent, TraceLog};

/// Balanced per-cell targets for a line of `loads`: each cell gets
/// `⌊avg⌋` or `⌈avg⌉`, with the remainder spread from the front.
fn line_targets(loads: &[usize]) -> Vec<usize> {
    let total: usize = loads.iter().sum();
    let n = loads.len();
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Executes the cascaded flow for one line of cells. `cells` lists the
/// coordinates of the line in scan order.
fn balance_line(
    net: &mut GridNetwork,
    cells: &[GridCoord],
    metrics: &mut Metrics,
    rng: &mut SimRng,
    round: u64,
    trace: &mut TraceLog,
) {
    // Each line scan reads every cell of the line — SMART's global
    // adjustment cost ("node adjustments in the entire grid network");
    // billed so the scan-work comparison against SR is quantified.
    metrics.cells_scanned += cells.len() as u64;
    let loads: Vec<usize> = cells
        .iter()
        .map(|&c| net.members(c).expect("line cells in bounds").len())
        .collect();
    let targets = line_targets(&loads);
    // Flow across boundary i (between cells i and i+1): prefix sum of
    // surplus. Positive flows move right in a left-to-right pass,
    // negative flows move left in a right-to-left pass; prefix-sum
    // feasibility guarantees the source cell always has the nodes.
    let mut flows: Vec<i64> = Vec::with_capacity(cells.len().saturating_sub(1));
    let mut acc: i64 = 0;
    for i in 0..cells.len().saturating_sub(1) {
        acc += loads[i] as i64 - targets[i] as i64;
        flows.push(acc);
    }
    let mut transfer = |net: &mut GridNetwork, from: GridCoord, to: GridCoord, count: u64| {
        for _ in 0..count {
            let members = net.members(from).expect("in bounds");
            let node: NodeId = *members
                .iter()
                .max()
                .expect("flow feasibility guarantees a node is available");
            let (u, v) = (rng.uniform_f64(), rng.uniform_f64());
            let dest =
                net.system()
                    .geometry()
                    .central_point(u32::from(to.x), u32::from(to.y), u, v);
            let out = net.move_node(node, dest).expect("targets inside area");
            metrics.record_move(out.distance);
            trace.record(
                round,
                TraceEvent::NodeMoved {
                    process: None,
                    node,
                    from: out.from.into(),
                    to: out.to.into(),
                    distance: out.distance,
                },
            );
        }
    };
    for i in 0..flows.len() {
        if flows[i] > 0 {
            transfer(net, cells[i], cells[i + 1], flows[i] as u64);
        }
    }
    for i in (0..flows.len()).rev() {
        if flows[i] < 0 {
            transfer(net, cells[i + 1], cells[i], (-flows[i]) as u64);
        }
    }
}

/// Splits a scan line into maximal runs of enabled cells. On masked
/// networks each run balances independently: SMART's cascaded flow
/// crosses one cell boundary per hop and cannot hop over an obstacle.
/// On full (rectangular) networks this is the whole line, unchanged.
fn enabled_runs(net: &GridNetwork, line: &[GridCoord]) -> Vec<Vec<GridCoord>> {
    let mut runs = Vec::new();
    let mut current = Vec::new();
    for &c in line {
        if net.is_cell_enabled(c).unwrap_or(false) {
            current.push(c);
        } else if !current.is_empty() {
            runs.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        runs.push(current);
    }
    runs
}

/// **SMART** as a registrable scheme: runs the two-scan balance (rows,
/// then columns), re-elects heads, and reports. It has no policy to
/// configure; the run's seed drives destination sampling within cells.
/// On masked networks each maximal enabled interval of a line balances
/// independently (flow cannot cross disabled cells). The network is
/// updated in place, so callers can compare before/after state without
/// cloning.
///
/// A traced run records one [`TraceEvent::NodeMoved`] (with `process:
/// None` — scan flow belongs to no replacement process) per cascaded
/// hop, stamped with the scan number as the round (row scan = round 0,
/// column scan = round 1).
#[derive(Debug, Clone, Copy)]
pub struct Smart;

impl ReplacementScheme for Smart {
    fn id(&self) -> &str {
        "smart"
    }

    fn label(&self) -> &str {
        "SMART"
    }

    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        // Scan lines split at obstacles into independent runs; any
        // region works.
        Ok(())
    }

    fn run_with(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
        mut trace: TraceLog,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        if mode != DriveMode::Classic {
            return Err(Unsupported::new(
                self.id(),
                "SMART supports only the classic drive (scans are one-shot and global)",
            ));
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let initial_stats = net.stats();
        let mut metrics = Metrics::new();
        let sys = *net.system();
        // Scan 1: every row.
        for y in 0..sys.rows() {
            let cells: Vec<GridCoord> = (0..sys.cols()).map(|x| GridCoord::new(x, y)).collect();
            for run in enabled_runs(net, &cells) {
                balance_line(net, &run, &mut metrics, &mut rng, 0, &mut trace);
            }
        }
        // Scan 2: every column.
        for x in 0..sys.cols() {
            let cells: Vec<GridCoord> = (0..sys.rows()).map(|y| GridCoord::new(x, y)).collect();
            for run in enabled_runs(net, &cells) {
                balance_line(net, &run, &mut metrics, &mut rng, 1, &mut trace);
            }
        }
        metrics.rounds = 2; // two global scans
        net.elect_all_heads(wsn_grid::HeadElection::FirstId, &mut rng);
        let final_stats = net.stats();
        let report = SchemeReport {
            run: RunReport {
                rounds: 2,
                termination: Quiescence::Reached,
            },
            metrics,
            initial_stats,
            fully_covered: final_stats.vacant == 0,
            final_stats,
            processes: Vec::new(),
            health: wsn_simcore::ProtocolHealth::default(),
        };
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_grid::{deploy, GridSystem};

    fn run(net: &mut GridNetwork, seed: u64) -> SchemeReport {
        Smart.run(net, seed, DriveMode::Classic).unwrap()
    }

    #[test]
    fn line_targets_spread_remainder() {
        assert_eq!(line_targets(&[5, 0, 1]), vec![2, 2, 2]);
        assert_eq!(line_targets(&[5, 0, 2]), vec![3, 2, 2]);
        assert_eq!(line_targets(&[0, 0, 0]), vec![0, 0, 0]);
        assert_eq!(line_targets(&[1, 1, 1, 1]), vec![1, 1, 1, 1]);
    }

    #[test]
    fn balances_any_network_with_enough_nodes() {
        let sys = GridSystem::new(6, 5, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        // Clustered deployment with >= one node per cell available.
        let pos = deploy::clustered(&sys, 2 * sys.cell_count(), 2, 4.0, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let report = run(&mut net, 0);
        assert!(report.fully_covered, "{report}");
        // Perfect balance: every cell within floor/ceil of the average.
        assert_eq!(report.final_stats.vacant, 0);
    }

    #[test]
    fn exact_balance_after_scans() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let pos = deploy::clustered(&sys, 32, 1, 2.0, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let total = net.enabled_count();
        let report = run(&mut net, 2);
        let avg = total as f64 / 16.0;
        // After balancing, occupancy equals cell count when avg >= 1.
        assert!(avg >= 1.0);
        assert!(report.fully_covered);
    }

    #[test]
    fn single_hole_costs_grid_wide_movement() {
        // The paper's criticism: one hole, yet the scans shuffle nodes
        // everywhere.
        use wsn_coverage::Sr;
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(3, 3)], 2, &mut rng);
        let mut smart_net = GridNetwork::new(sys, &pos);
        let mut sr_net = GridNetwork::new(sys, &pos);
        let smart = run(&mut smart_net, 3);
        let sr = Sr::new().run(&mut sr_net, 3, DriveMode::Classic).unwrap();
        assert!(smart.fully_covered && sr.fully_covered);
        assert!(
            smart.metrics.moves > 4 * sr.metrics.moves,
            "SMART {} moves vs SR {} moves",
            smart.metrics.moves,
            sr.metrics.moves
        );
    }

    #[test]
    fn already_balanced_network_moves_nothing() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(4);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let report = run(&mut net, 4);
        assert_eq!(report.metrics.moves, 0);
        assert!(report.fully_covered);
    }

    #[test]
    fn too_few_nodes_cannot_cover() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let pos = deploy::uniform(&sys, 10, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let report = run(&mut net, 5);
        assert!(!report.fully_covered);
        // Still balanced: at most one node per cell when total < cells.
        assert_eq!(report.final_stats.occupied, 10);
    }

    #[test]
    fn masked_region_balances_each_enabled_interval() {
        use wsn_grid::RegionMask;
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mask = RegionMask::annulus(8, 8);
        let mut rng = SimRng::seed_from_u64(11);
        // Two nodes per enabled cell, then drain a few cells to make
        // imbalance the scans must fix.
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes: Vec<GridCoord> = enabled.iter().copied().step_by(9).collect();
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let report = run(&mut net, 11);
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.final_stats.enabled, report.initial_stats.enabled);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let sys = GridSystem::new(5, 5, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(6);
            let pos = deploy::uniform(&sys, 60, &mut rng);
            GridNetwork::new(sys, &pos)
        };
        assert_eq!(run(&mut mk(), 1), run(&mut mk(), 1));
    }

    #[test]
    fn preserves_network_invariants() {
        let sys = GridSystem::new(5, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(7);
        let pos = deploy::clustered(&sys, 50, 2, 3.0, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let before = net.enabled_count();
        let report = run(&mut net, 7);
        assert_eq!(report.final_stats.enabled, before);
    }
}
