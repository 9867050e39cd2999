//! The one round driver behind SR, SR-SC and AR: it runs a round
//! protocol on a borrowed network to quiescence (or its round cap) and
//! assembles the [`SchemeReport`]. Everything public here is re-exported
//! from [`crate::scheme`].

use wsn_grid::GridNetwork;
use wsn_simcore::{Metrics, ProtocolHealth, RoundProtocol, RoundRunner, TraceLog};

use crate::process::ProcessSummary;
use crate::scheme::{SchemeDetails, SchemeReport, Unsupported};

/// What a protocol hands over when its run ends: the parts of a
/// [`SchemeReport`] only the protocol knows, plus its event trace.
#[derive(Debug)]
pub struct ProtocolOutcome {
    /// Cost counters.
    pub metrics: Metrics,
    /// Per-process summaries (empty for schemes without processes).
    pub processes: Vec<ProcessSummary>,
    /// The distributed-health ledger (all-zero without a network model).
    pub health: ProtocolHealth,
    /// The event trace (disabled unless the protocol was built with an
    /// enabled log).
    pub trace: TraceLog,
}

/// A round protocol [`run_to_quiescence`] can drive: it runs on a
/// borrowed network and, once the run ends, hands its results over.
pub trait SchemeProtocol: RoundProtocol {
    /// The network the protocol runs on.
    fn network(&self) -> &GridNetwork;

    /// Ends the run after `rounds` rounds: every process still active is
    /// failed (it is stuck behind an unfillable hole, or its message was
    /// lost), then the protocol's results are moved out.
    fn finish(self, rounds: u64) -> ProtocolOutcome;
}

/// Runs `protocol` until `runner` declares quiescence or hits its round
/// cap, and reports. The network the protocol borrowed is left in its
/// recovered state; the returned trace is the protocol's own log.
///
/// ```
/// use wsn_coverage::scheme::{round_runner, run_to_quiescence};
/// use wsn_coverage::{SrConfig, SrProtocol};
/// use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
/// use wsn_hamilton::CycleTopology;
/// use wsn_simcore::{SimRng, TraceLog};
///
/// let sys = GridSystem::new(6, 6, 4.4721)?;
/// let mut rng = SimRng::seed_from_u64(3);
/// let pos = deploy::with_holes(&sys, &[GridCoord::new(2, 2)], 2, &mut rng);
/// let mut net = GridNetwork::new(sys, &pos);
/// let topo = CycleTopology::build_masked(net.mask())?;
/// let protocol = SrProtocol::new(&mut net, topo, SrConfig::default(), TraceLog::new());
/// let (report, trace) = run_to_quiescence(protocol, round_runner("sr", 1_000)?);
/// assert!(report.fully_covered);
/// assert_eq!(report.metrics.processes_initiated, 1);
/// assert_eq!(trace.count_kind("process_initiated"), 1);
/// assert_eq!(net.stats(), report.final_stats); // recovered in place
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_to_quiescence<P: SchemeProtocol>(
    mut protocol: P,
    runner: RoundRunner,
) -> (SchemeReport, TraceLog) {
    let initial_stats = protocol.network().stats();
    let run = runner.run(&mut protocol);
    let final_stats = protocol.network().stats();
    let outcome = protocol.finish(run.rounds);
    let report = SchemeReport {
        run,
        metrics: outcome.metrics,
        initial_stats,
        final_stats,
        fully_covered: final_stats.vacant == 0,
        processes: outcome.processes,
        health: outcome.health,
        details: SchemeDetails::none(),
    };
    (report, outcome.trace)
}

/// The round runner for a scheme's round cap: the one configuration
/// check SR, SR-SC and AR share, in [`crate::ReplacementScheme::supports`]
/// and before every run. Quiescence takes two consecutive idle rounds,
/// the paper's one-round notification latency plus one.
///
/// # Errors
///
/// [`Unsupported`], attributed to `scheme`, when `max_rounds` is zero.
pub fn round_runner(scheme: &str, max_rounds: u64) -> Result<RoundRunner, Unsupported> {
    RoundRunner::new(max_rounds).map_err(|e| Unsupported::new(scheme, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{DriveMode, ReplacementScheme, Sr};
    use crate::{SrConfig, SrProtocol};
    use wsn_grid::{deploy, GridCoord, GridSystem};
    use wsn_hamilton::CycleTopology;
    use wsn_simcore::SimRng;

    #[test]
    fn report_round_trip_on_simple_network() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(1, 2)], 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let (report, trace) = Sr::new()
            .run_traced(&mut net, 0, DriveMode::Classic)
            .unwrap();
        assert!(report.fully_covered);
        assert_eq!(report.initial_stats.vacant, 1);
        assert_eq!(report.final_stats.vacant, 0);
        assert_eq!(report.processes.len(), 1);
        assert!(report.run.is_quiescent());
        assert!(!report.to_string().is_empty());
        assert!(!trace.is_empty());
    }

    #[test]
    fn masked_regions_recover_all_enabled_holes() {
        use wsn_grid::RegionShape;
        // SR on every irregular preset shape: crafted holes, spares
        // everywhere, full recovery of the enabled region, and zero
        // placements in disabled cells.
        for (i, shape) in RegionShape::IRREGULAR.into_iter().enumerate() {
            let sys = GridSystem::new(12, 12, 4.4721).unwrap();
            let mask = shape.build_mask(12, 12);
            let mut rng = SimRng::seed_from_u64(100 + i as u64);
            let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
            let holes: Vec<GridCoord> = enabled.iter().copied().step_by(17).collect();
            let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
            let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
            assert_eq!(net.stats().vacant, holes.len(), "{shape}");
            let topo = CycleTopology::build_masked(net.mask()).unwrap();
            assert!(topo.is_masked(), "{shape}");
            let config = SrConfig::default().with_seed(100 + i as u64);
            let protocol = SrProtocol::new(&mut net, topo, config, TraceLog::disabled());
            let (report, _) = run_to_quiescence(protocol, round_runner("sr", 100_000).unwrap());
            assert!(report.fully_covered, "{shape}: {report}");
            assert_eq!(report.metrics.processes_failed, 0, "{shape}");
            // Exactly one process per hole: the masked ring preserves
            // SR's synchronization on irregular regions.
            assert_eq!(
                report.metrics.processes_initiated,
                holes.len() as u64,
                "{shape}"
            );
            net.debug_invariants();
            for node in net.nodes() {
                if node.status().is_enabled() {
                    let cell = sys.cell_of(node.position()).unwrap();
                    assert!(mask.is_enabled(cell), "{shape}: node in disabled {cell}");
                }
            }
        }
    }

    #[test]
    fn masked_region_with_no_spares_fails_cleanly() {
        use wsn_grid::RegionMask;
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mask = RegionMask::l_shape(8, 8);
        let mut rng = SimRng::seed_from_u64(7);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let pos = deploy::with_holes_masked(&sys, &mask, &[enabled[10]], 1, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        assert_eq!(net.total_spares(), 0);
        let report = Sr::new().run(&mut net, 0, DriveMode::Classic).unwrap();
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.metrics.processes_failed >= 1);
    }

    #[test]
    fn intact_network_is_a_no_op() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(6);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let report = Sr::new().run(&mut net, 0, DriveMode::Classic).unwrap();
        assert!(report.fully_covered);
        assert_eq!(report.metrics.moves, 0);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert_eq!(report.metrics.success_rate_percent(), 100.0);
    }

    #[test]
    fn error_cases_are_reported() {
        // No replacement structure on a 1-wide strip.
        let sys = GridSystem::new(1, 4, 1.0).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let err = Sr::new().run(&mut net, 0, DriveMode::Classic).unwrap_err();
        assert_eq!(err.scheme, "sr");
        // A zero round cap is refused, up front and at run time alike.
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let sr = Sr::from_config(SrConfig::default().with_max_rounds(0));
        let err = sr.run(&mut net, 0, DriveMode::Classic).unwrap_err();
        assert!(err.reason.contains("max_rounds"), "{err}");
        assert_eq!(round_runner("sr", 0).unwrap_err(), err);
    }
}
