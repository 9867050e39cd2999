//! The one round loop behind SR, SR-SC and AR: it runs a round protocol
//! on a borrowed network to quiescence (or its round cap) and assembles
//! the [`SchemeReport`]. Everything public here is re-exported from
//! [`crate::scheme`].
//!
//! The paper describes its schemes "in a round-based system": each
//! round, every head observes the previous round's state of its
//! monitored cells, receives the notifications sent in the previous
//! round, and completes at most one action before the next round starts.
//! A protocol implements [`SchemeProtocol::execute_round`] with exactly
//! those semantics.

use wsn_grid::GridNetwork;
use wsn_simcore::{Metrics, ProtocolHealth, TraceLog};

use crate::process::ProcessSummary;
use crate::scheme::{Quiescence, RunReport, SchemeReport, Unsupported};

/// What a protocol hands over when its run ends: the parts of a
/// [`SchemeReport`] only the protocol knows, plus its event trace.
#[derive(Debug)]
pub struct ProtocolOutcome {
    /// Cost counters; [`run_to_quiescence`] sets `rounds`.
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
/// borrowed network one round at a time and, once the run ends, hands
/// its results over.
pub trait SchemeProtocol {
    /// Executes round `round` and reports whether it made or scheduled
    /// progress: movements, notifications, initiations, deferred
    /// initiations, messages still in flight. Implementations must be
    /// deterministic given their own state (randomness comes from an
    /// owned [`wsn_simcore::SimRng`]).
    fn execute_round(&mut self, round: u64) -> bool;

    /// The network the protocol runs on.
    fn network(&self) -> &GridNetwork;

    /// Ends the run after `rounds` rounds: every process still active is
    /// failed (it is stuck behind an unfillable hole, or its message was
    /// lost), then the protocol's results are moved out.
    fn finish(self, rounds: u64) -> ProtocolOutcome;
}

/// Consecutive idle rounds after which a run is quiescent: the paper's
/// one-round notification latency plus one. A head that just sent a
/// notification has no visible action in flight, but the system is not
/// yet stable.
const QUIESCENT_ROUNDS: u64 = 2;

/// Runs `protocol` round by round until two consecutive rounds make no
/// progress, or until `max_rounds` rounds have run, and reports. The
/// report's `rounds` (and `metrics.rounds`) is the last executed round
/// plus one, so a run cut by the cap reports `max_rounds`. The network
/// the protocol borrowed is left in its recovered state; the returned
/// trace is the protocol's own log. Check the cap with [`round_cap`]
/// before building the protocol: a zero cap runs no round.
///
/// ```
/// use wsn_coverage::scheme::{run_to_quiescence, DriveMode};
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
/// let protocol = SrProtocol::new(
///     &mut net,
///     topo,
///     SrConfig::default(),
///     0,
///     DriveMode::Classic,
///     TraceLog::new(),
/// );
/// let (report, trace) = run_to_quiescence(protocol, 1_000);
/// assert!(report.fully_covered);
/// assert!(report.run.is_quiescent());
/// assert_eq!(report.metrics.processes_initiated, 1);
/// assert_eq!(trace.count_kind("process_initiated"), 1);
/// assert_eq!(net.stats(), report.final_stats); // recovered in place
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_to_quiescence<P: SchemeProtocol>(
    mut protocol: P,
    max_rounds: u64,
) -> (SchemeReport, TraceLog) {
    let initial_stats = protocol.network().stats();
    let mut run = RunReport {
        rounds: max_rounds,
        termination: Quiescence::MaxRoundsExceeded,
    };
    let mut idle_streak = 0;
    for round in 0..max_rounds {
        if protocol.execute_round(round) {
            idle_streak = 0;
            continue;
        }
        idle_streak += 1;
        if idle_streak == QUIESCENT_ROUNDS {
            run = RunReport {
                rounds: round + 1,
                termination: Quiescence::Reached,
            };
            break;
        }
    }
    let final_stats = protocol.network().stats();
    let mut outcome = protocol.finish(run.rounds);
    outcome.metrics.rounds = run.rounds;
    let report = SchemeReport {
        run,
        metrics: outcome.metrics,
        initial_stats,
        final_stats,
        fully_covered: final_stats.vacant == 0,
        processes: outcome.processes,
        health: outcome.health,
    };
    (report, outcome.trace)
}

/// The one configuration check SR, SR-SC and AR share, in
/// [`crate::ReplacementScheme::supports`] and before every run builds
/// its protocol (so a refusal leaves the network untouched).
///
/// # Errors
///
/// [`Unsupported`], attributed to `scheme`, when `max_rounds` is zero.
pub fn round_cap(scheme: &str, max_rounds: u64) -> Result<(), Unsupported> {
    if max_rounds == 0 {
        return Err(Unsupported::new(scheme, "max_rounds must be at least 1"));
    }
    Ok(())
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
            let protocol = SrProtocol::new(
                &mut net,
                topo,
                SrConfig::default(),
                100 + i as u64,
                DriveMode::Classic,
                TraceLog::disabled(),
            );
            let (report, _) = run_to_quiescence(protocol, 100_000);
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
        assert_eq!(round_cap("sr", 0).unwrap_err(), err);
    }

    #[test]
    fn dropped_probes_keep_the_run_live() {
        // At 90% loss most probes drown. A drowned probe leaves its hole
        // to a later round, and that outstanding work must keep the run
        // going until a probe gets through: the monitor's cell holds a
        // spare, so one arriving probe covers the hole.
        use crate::SrSc;
        use wsn_simcore::NetModelSpec;
        let lossy = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 900_000,
                latency: 1,
            },
        };
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        for seed in 0..20 {
            let mut rng = SimRng::seed_from_u64(seed);
            let pos = deploy::with_holes(&sys, &[GridCoord::new(2, 2)], 2, &mut rng);
            let net = GridNetwork::new(sys, &pos);
            let schemes: [&dyn ReplacementScheme; 2] = [&Sr::new(), &SrSc::new()];
            for scheme in schemes {
                let report = scheme.run(&mut net.clone(), seed, lossy).unwrap();
                assert!(
                    report.fully_covered,
                    "{} seed {seed}: {report}",
                    scheme.id()
                );
                assert!(report.run.is_quiescent(), "{} seed {seed}", scheme.id());
            }
        }
    }

    /// A protocol that replays a progress script on a tiny network: round
    /// `r` makes progress when `progress[r]` is `true`, and every round
    /// past the script is idle.
    struct Script {
        net: GridNetwork,
        progress: Vec<bool>,
        executed: Vec<u64>,
    }

    impl Script {
        fn new(progress: &[bool]) -> Script {
            let sys = GridSystem::new(2, 2, 1.0).unwrap();
            Script {
                net: GridNetwork::new(sys, &[]),
                progress: progress.to_vec(),
                executed: Vec::new(),
            }
        }
    }

    impl SchemeProtocol for Script {
        fn execute_round(&mut self, round: u64) -> bool {
            self.executed.push(round);
            self.progress.get(round as usize).copied().unwrap_or(false)
        }

        fn network(&self) -> &GridNetwork {
            &self.net
        }

        fn finish(self, rounds: u64) -> ProtocolOutcome {
            assert_eq!(self.executed.len() as u64, rounds, "one call per round");
            ProtocolOutcome {
                metrics: Metrics::new(),
                processes: Vec::new(),
                health: ProtocolHealth::default(),
                trace: TraceLog::disabled(),
            }
        }
    }

    #[test]
    fn stops_after_quiescence_window() {
        let (report, _) = run_to_quiescence(Script::new(&[true, true, false, false]), 100);
        assert_eq!(report.run.rounds, 4);
        assert!(report.run.is_quiescent());
        // The round loop, not the protocol, writes the round count.
        assert_eq!(report.metrics.rounds, 4);
    }

    #[test]
    fn idle_streak_resets_on_progress() {
        // Idle, progress, idle, idle: the streak breaks at round 1, so the
        // run is quiescent after round 3.
        let (report, _) = run_to_quiescence(Script::new(&[false, true, false, false]), 100);
        assert_eq!(report.run.rounds, 4);
        assert!(report.run.is_quiescent());
    }

    #[test]
    fn cap_exceeded_is_reported() {
        let (report, _) = run_to_quiescence(Script::new(&[true; 20]), 10);
        assert_eq!(report.run.rounds, 10);
        assert_eq!(report.run.termination, Quiescence::MaxRoundsExceeded);
        assert!(!report.run.is_quiescent());
        assert_eq!(report.metrics.rounds, 10);
    }

    #[test]
    fn config_validation() {
        // A zero cap is refused before any protocol exists.
        let err = round_cap("script", 0).unwrap_err();
        assert_eq!(err.scheme, "script");
        assert!(round_cap("script", 1).is_ok());
    }

    #[test]
    fn error_and_report_display() {
        let err = round_cap("script", 0).unwrap_err();
        assert!(err.to_string().contains("max_rounds"), "{err}");
        let quiet = RunReport {
            rounds: 3,
            termination: Quiescence::Reached,
        };
        assert_eq!(quiet.to_string(), "quiescent after 3 rounds");
        let capped = RunReport {
            rounds: 10,
            termination: Quiescence::MaxRoundsExceeded,
        };
        assert_eq!(capped.to_string(), "round cap (10) exceeded");
    }
}
