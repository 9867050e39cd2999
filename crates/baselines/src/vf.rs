//! A virtual-force deployment baseline (after Wang, Cao & La Porta \[5\]
//! and Zou & Chakrabarty \[10\], as characterized by the paper's §1).
//!
//! Nodes exert pairwise virtual forces: repulsion when closer than a
//! threshold, attraction when farther (up to a communication-range
//! cutoff). Each round every node takes a bounded step along its net
//! force; density gradients slowly push nodes from crowded cells toward
//! sparse regions and holes. The paper's criticism — "without global
//! information, these methods may take a long time to converge and are
//! not practical … due to the cost in total moving distance, total number
//! of movements" — is exactly what the bench harness measures.

use serde::{Deserialize, Serialize};

use wsn_coverage::scheme::{
    DriveMode, NetworkSpec, Quiescence, ReplacementScheme, RunReport, SchemeReport, Unsupported,
};
use wsn_geometry::{Point2, Vec2};
use wsn_grid::GridNetwork;
use wsn_simcore::{Metrics, SimRng, TraceEvent, TraceLog};

/// The policy of a virtual-force run. The run's seed (used only for
/// symmetry breaking) is not part of it: [`ReplacementScheme::run`]
/// takes it per trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfConfig {
    /// Preferred inter-node spacing, as a multiple of the cell side
    /// (nodes closer than this repel; default √2, the spacing that
    /// tiles one node per cell).
    pub spacing_factor: f64,
    /// Maximum step per round, as a multiple of the cell side.
    pub step_factor: f64,
    /// Movements smaller than this fraction of the cell side are treated
    /// as jitter and not executed.
    pub min_step_factor: f64,
    /// Round cap.
    pub max_rounds: u64,
}

impl Default for VfConfig {
    fn default() -> Self {
        VfConfig {
            spacing_factor: std::f64::consts::SQRT_2,
            step_factor: 0.5,
            min_step_factor: 0.05,
            max_rounds: 300,
        }
    }
}

/// **VF** as a registrable scheme: runs the virtual-force protocol to
/// force-equilibrium (no node wants to move) or the round cap, then
/// re-elects heads and reports. The network is updated in place, so
/// callers can compare before/after state without cloning. A traced run
/// records one [`TraceEvent::NodeMoved`] (with `process: None` — force
/// steps belong to no replacement process) per executed movement.
///
/// VF's equilibrium — the force field settled (no node moved above the
/// jitter threshold in the last round) before the round cap — is
/// exactly `report.run.is_quiescent()`:
///
/// ```
/// use wsn_baselines::Vf;
/// use wsn_coverage::scheme::{DriveMode, ReplacementScheme};
/// use wsn_grid::{deploy, GridNetwork, GridSystem};
/// use wsn_simcore::SimRng;
///
/// let sys = GridSystem::new(3, 3, 4.4721)?;
/// let mut rng = SimRng::seed_from_u64(1);
/// let pos = deploy::uniform(&sys, 20, &mut rng);
/// let mut net = GridNetwork::new(sys, &pos);
/// let (report, trace) = Vf::new().run_traced(&mut net, 0, DriveMode::Classic)?;
/// let last = report.run.rounds - 1;
/// let equilibrium = trace.records().iter().all(|r| r.round < last);
/// assert_eq!(equilibrium, report.run.is_quiescent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vf {
    config: VfConfig,
}

impl Vf {
    /// VF with the default configuration.
    pub fn new() -> Vf {
        Vf::default()
    }

    /// VF over an explicit config.
    pub fn from_config(config: VfConfig) -> Vf {
        Vf { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &VfConfig {
        &self.config
    }
}

impl ReplacementScheme for Vf {
    fn id(&self) -> &str {
        "vf"
    }

    fn label(&self) -> &str {
        "VF"
    }

    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        // Forces are geometric; any region works (moves into disabled
        // cells are rejected by the network itself).
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
                "VF supports only the classic drive (the force field is global and recomputed every round)",
            ));
        }
        let config = &self.config;
        let mut rng = SimRng::seed_from_u64(seed);
        let initial_stats = net.stats();
        let mut metrics = Metrics::new();
        let r = net.system().cell_side();
        let spacing = config.spacing_factor * r;
        let cutoff = net.system().comm_range();
        let max_step = config.step_factor * r;
        let min_step = config.min_step_factor * r;
        let area = net.system().area();

        let mut rounds = 0;
        let mut equilibrium = false;
        for round in 0..config.max_rounds {
            rounds = round + 1;
            // Gather enabled ids and positions (forces computed on a frozen
            // snapshot — synchronous rounds).
            let enabled: Vec<(wsn_simcore::NodeId, Point2)> = net
                .nodes()
                .iter()
                .filter(|n| n.status().is_enabled())
                .map(|n| (n.id(), n.position()))
                .collect();
            // VF recomputes the whole force field every round — the global
            // per-round scan the paper criticizes; bill it so the comparison
            // against SR's O(changed) detection is quantified.
            metrics.cells_scanned += enabled.len() as u64;
            let mut moved_any = false;
            for (i, &(id, pos)) in enabled.iter().enumerate() {
                let mut force = Vec2::ZERO;
                for (j, &(_, other)) in enabled.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let d = pos.distance(other);
                    if d >= cutoff || d <= f64::EPSILON {
                        continue;
                    }
                    let dir = match (pos - other).normalized() {
                        Some(v) => v,
                        None => continue,
                    };
                    if d < spacing {
                        // Repulsion grows as the overlap deepens.
                        force = force + dir * ((spacing - d) / spacing);
                    } else {
                        // Mild attraction keeps the network connected.
                        force = force - dir * (0.2 * (d - spacing) / cutoff);
                    }
                }
                let mag = force.length();
                if mag * r < min_step {
                    continue;
                }
                let step = force * (max_step / mag.max(1.0));
                let mut target = pos + step;
                // Tiny deterministic jitter breaks symmetric stalemates.
                target.x += (rng.uniform_f64() - 0.5) * 1e-3 * r;
                target.y += (rng.uniform_f64() - 0.5) * 1e-3 * r;
                let target = area.clamp_point(target);
                if let Ok(out) = net.move_node(id, target) {
                    if out.distance >= min_step {
                        metrics.record_move(out.distance);
                        moved_any = true;
                        trace.record(
                            round,
                            TraceEvent::NodeMoved {
                                process: None,
                                node: id,
                                from: out.from.into(),
                                to: out.to.into(),
                                distance: out.distance,
                            },
                        );
                    }
                }
            }
            if !moved_any {
                equilibrium = true;
                break;
            }
        }
        metrics.rounds = rounds;
        let mut rng2 = SimRng::seed_from_u64(seed.wrapping_add(1));
        net.elect_all_heads(wsn_grid::HeadElection::FirstId, &mut rng2);
        let final_stats = net.stats();
        let report = SchemeReport {
            run: RunReport {
                rounds,
                termination: if equilibrium {
                    Quiescence::Reached
                } else {
                    Quiescence::MaxRoundsExceeded
                },
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
    use wsn_grid::{deploy, GridCoord, GridSystem};

    fn run(net: &mut GridNetwork) -> SchemeReport {
        Vf::new().run(net, 0, DriveMode::Classic).unwrap()
    }

    #[test]
    fn spreads_clustered_deployment_toward_coverage() {
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        // Everything clustered in one corner: terrible initial coverage.
        let pos = deploy::clustered(&sys, 72, 1, 3.0, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let before = net.stats().occupied;
        let report = run(&mut net);
        assert!(
            report.final_stats.occupied > before,
            "VF must improve occupancy: {} -> {}",
            before,
            report.final_stats.occupied
        );
        assert!(report.metrics.moves > 0);
        assert!(report.metrics.distance > 0.0);
    }

    #[test]
    fn single_hole_costs_many_movements() {
        // The paper's point: VF moves *lots* of nodes to fix one hole.
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(3, 3)], 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let report = run(&mut net);
        // Dozens of nodes jostle, far more than SR's 1-2 moves.
        assert!(
            report.metrics.moves > 10,
            "expected many VF moves, got {}",
            report.metrics.moves
        );
    }

    #[test]
    fn equilibrium_network_stops_early() {
        // One node per cell at the centers: perfectly spaced, no forces
        // above threshold.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let pos: Vec<Point2> = sys
            .iter_coords()
            .map(|c| sys.cell_center(c).unwrap())
            .collect();
        let mut net = GridNetwork::new(sys, &pos);
        let report = run(&mut net);
        assert!(
            report.metrics.rounds < 50,
            "should settle fast, took {}",
            report.metrics.rounds
        );
        assert!(report.run.is_quiescent());
    }

    #[test]
    fn masked_region_keeps_nodes_out_of_obstacles() {
        use wsn_grid::RegionMask;
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mask = RegionMask::l_shape(8, 8);
        let mut rng = SimRng::seed_from_u64(21);
        let pos = deploy::uniform_masked(&sys, &mask, 100, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let report = run(&mut net);
        assert!(report.metrics.moves > 0);
        // Moves into obstacles are rejected by the network, so stats
        // stay confined to the enabled region throughout.
        assert!(report.final_stats.occupied + report.final_stats.vacant == mask.enabled_count());
        // The in-place contract: `net` is the settled network, and the
        // invariants (incl. no-node-in-disabled-cell) still hold on it.
        assert_eq!(net.stats(), report.final_stats);
        net.debug_invariants();
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let sys = GridSystem::new(5, 4, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(7);
            let pos = deploy::uniform(&sys, 50, &mut rng);
            GridNetwork::new(sys, &pos)
        };
        let a = run(&mut mk());
        let b = run(&mut mk());
        assert_eq!(a, b);
    }

    #[test]
    fn report_display() {
        let sys = GridSystem::new(3, 3, 1.0).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let report = run(&mut net);
        assert!(!report.fully_covered);
        assert!(!report.to_string().is_empty());
    }
}
