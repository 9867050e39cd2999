//! The message layer of the event drive: what SR, SR-SC and AR send
//! each other when delivery is not an axiom.
//!
//! Each round scheme has one engine ([`crate::SrProtocol`],
//! [`crate::ShortcutProtocol`], `wsn_baselines::ArProtocol`). Under
//! [`DriveMode::Classic`] it runs with no link: a notification sent
//! this round is *known* next round, and nothing is routed, queued or
//! counted. Under [`DriveMode::EventDriven`] the same engine holds a
//! [`NetLink`], and every inter-cell exchange becomes an envelope routed
//! through it:
//!
//! * **`MonitorProbe`** — the monitoring head's same-tick occupancy
//!   probe of its watched cell. A dropped probe defers detection to the
//!   next round.
//! * **`HoleAnnounce`** — the backward notification carrying the
//!   cascade. It is the protocol's *baton*: the asked head acts only
//!   while holding it. A dropped announce loses the baton
//!   ([`ProtocolHealth::lost_cascades`]); a slow one leaves the
//!   receiving head ignorant, and an ignorant monitor re-initiates the
//!   repair ([`ProtocolHealth::duplicate_initiations`]).
//! * **`SpareRequest` / `MoveNotify`** — intra-cell head↔spare
//!   exchanges; a cell is one radio neighborhood, so these never
//!   traverse the lossy channel (counted, not routed).
//! * **`MoveAck`** — the filled cell's new head confirming arrival to
//!   the dispatcher; informational.
//!
//! # The conformance contract
//!
//! Under [`NetModelSpec::Ideal`] every envelope is delivered on the
//! classic one-round cadence, so the link and queue must reproduce
//! axiomatic delivery draw-for-draw: the run RNG sees the identical
//! call sequence (link randomness lives in a separate
//! [`derive_stream_seed`]ed stream), rounds make the identical progress
//! verdicts, and the resulting [`SchemeReport`]s are byte-identical to
//! the classic drives of [`crate::Sr`] and [`crate::SrSc`].
//! The conformance battery in the bench crate pins this over a scenario
//! grid; degraded models then *measure* what the synchronous model
//! assumes away, in [`SchemeReport::health`].
//!
//! [`DriveMode::Classic`]: crate::DriveMode::Classic
//! [`DriveMode::EventDriven`]: crate::DriveMode::EventDriven
//! [`SchemeReport`]: crate::SchemeReport
//! [`SchemeReport::health`]: crate::SchemeReport::health
//! [`ProtocolHealth::lost_cascades`]: wsn_simcore::ProtocolHealth::lost_cascades
//! [`ProtocolHealth::duplicate_initiations`]: wsn_simcore::ProtocolHealth::duplicate_initiations

use wsn_grid::{GridCoord, GridSystem};
use wsn_simcore::{
    derive_stream_seed, EventQueue, Fate, NetLink, NetModelSpec, TraceEvent, TraceLog,
};

/// Stream tag separating the network-model RNG from the run RNG: links
/// draw from `derive_stream_seed(config.seed, &[NET_STREAM_TAG])`, so
/// under `Ideal` (no link draws at all) the run RNG sees the
/// byte-identical sequence the classic drive does. Every scheme that
/// joins the event drive derives its link seed the same way, so a given
/// `(seed, net model)` is the same weather for every scheme.
pub const NET_STREAM_TAG: u64 = 0x004E_4554; // "NET"

/// The link endpoint of `cell`: its dense row-major index, the fate
/// function's stream coordinate. Positions are not part of it; a link
/// asks [`cell_center`] for them, and only under the jammer.
///
/// # Panics
///
/// Panics when `cell` is outside `sys`.
pub fn cell_endpoint(sys: &GridSystem, cell: GridCoord) -> u64 {
    sys.index_of(cell).expect("protocol cells are in bounds") as u64
}

/// The position function a [`NetLink`] routes with: the center, in
/// meters, of the cell at link endpoint `index`. Only
/// [`NetModelSpec::Jammer`] calls it, so no other model builds a cell
/// rectangle.
///
/// # Panics
///
/// The returned function panics on an index outside `sys`.
pub fn cell_center(sys: &GridSystem) -> impl Fn(u64) -> (f64, f64) + '_ {
    move |index| {
        let c = sys
            .cell_center(sys.coord_of(index as usize))
            .expect("protocol cells are in bounds");
        (c.x, c.y)
    }
}

/// Where a process's notification baton currently is. Without a link
/// it is always `Held`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatonState {
    /// The asked head holds the notification and can act.
    Held,
    /// The notification is in transit; delivery is scheduled.
    InFlight,
    /// The network dropped the notification; nobody holds the baton.
    Lost,
}

/// Scheduled deliveries (the event queue's payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Envelope {
    /// The cascade baton arriving at the asked cell of `process`.
    HoleAnnounce {
        /// Raw [`crate::ProcessId`] of the owning process.
        process: u64,
    },
    /// Informational convergence confirmation; delivery is a no-op.
    MoveAck,
}

impl Envelope {
    /// The kind token its `NetMessage` trace events carry.
    fn name(&self) -> &'static str {
        match self {
            Envelope::HoleAnnounce { .. } => "hole_announce",
            Envelope::MoveAck => "move_ack",
        }
    }
}

/// What SR and SR-SC hold only under the event drive: the network link
/// (with the run's health ledger) and the envelopes in flight on it.
#[derive(Debug)]
pub(crate) struct Wire {
    pub(crate) link: NetLink,
    queue: EventQueue<Envelope>,
}

impl Wire {
    /// A wire over `spec`'s network model for the run seeded `seed`.
    pub(crate) fn new(spec: NetModelSpec, seed: u64) -> Wire {
        Wire {
            link: spec.link(derive_stream_seed(seed, &[NET_STREAM_TAG])),
            queue: EventQueue::new(),
        }
    }

    /// Sends `envelope` from `from` to `to` in `round`: routes it,
    /// schedules its delivery unless the network drops it, and traces
    /// it. Returns whether it will arrive.
    pub(crate) fn send(
        &mut self,
        sys: &GridSystem,
        from: GridCoord,
        to: GridCoord,
        envelope: Envelope,
        round: u64,
        trace: &mut TraceLog,
    ) -> bool {
        let msg = envelope.name();
        let fate = self.link.route(
            cell_endpoint(sys, from),
            cell_endpoint(sys, to),
            cell_center(sys),
        );
        let deliver_at = match fate {
            Fate::Deliver(extra) => {
                let at = round + 1 + extra;
                self.queue.schedule(at, envelope);
                Some(at)
            }
            Fate::Drop => None,
        };
        trace.record_with(round, || TraceEvent::NetMessage {
            msg: msg.into(),
            from: from.into(),
            to: to.into(),
            deliver_at,
        });
        deliver_at.is_some()
    }

    /// The monitor's same-tick occupancy probe of `hole`, traced.
    /// Returns whether it got through.
    pub(crate) fn probe(
        &mut self,
        sys: &GridSystem,
        monitor: GridCoord,
        hole: GridCoord,
        round: u64,
        trace: &mut TraceLog,
    ) -> bool {
        let probed = self.link.sense(
            cell_endpoint(sys, monitor),
            cell_endpoint(sys, hole),
            cell_center(sys),
        );
        trace.record_with(round, || TraceEvent::NetMessage {
            msg: "monitor_probe".into(),
            from: monitor.into(),
            to: hole.into(),
            deliver_at: probed.then_some(round),
        });
        probed
    }

    /// The next envelope due by `round`, if any.
    pub(crate) fn pop_due(&mut self, round: u64) -> Option<Envelope> {
        self.queue.pop_due(round).map(|s| s.payload)
    }

    /// Whether envelopes are still in flight. That is scheduled work: a
    /// run must not go quiescent while a baton is in the air. Under
    /// `Ideal` every envelope scheduled in a progress round drains in
    /// the next, so this never changes a classic quiescence verdict.
    pub(crate) fn in_flight(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{DriveMode, ReplacementScheme, Sr, SrSc};
    use crate::SrConfig;
    use wsn_grid::{deploy, GridNetwork};
    use wsn_simcore::{NodeId, ProtocolHealth, SimRng};

    const IDEAL: DriveMode = DriveMode::EventDriven {
        net: NetModelSpec::Ideal,
    };

    fn network_with_holes(
        cols: u16,
        rows: u16,
        holes: &[GridCoord],
        per_cell: usize,
        seed: u64,
    ) -> GridNetwork {
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, holes, per_cell, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    /// One spare in a far corner so every repair is a long cascade —
    /// the regime where the network actually carries notifications.
    fn cascade_network(seed: u64) -> GridNetwork {
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let hole = GridCoord::new(4, 4);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn ideal_sr_matches_classic_byte_for_byte() {
        for (holes, seed) in [
            (vec![GridCoord::new(2, 2)], 1u64),
            (
                vec![
                    GridCoord::new(0, 0),
                    GridCoord::new(3, 1),
                    GridCoord::new(1, 3),
                ],
                7,
            ),
        ] {
            let net = network_with_holes(6, 6, &holes, 2, seed);
            let (classic, classic_trace) = Sr::new()
                .run_traced(&mut net.clone(), seed, DriveMode::Classic)
                .unwrap();
            let mut event_net = net;
            let (report, _) = Sr::new().run_traced(&mut event_net, seed, IDEAL).unwrap();
            assert_eq!(report, classic, "seed {seed}");
            assert_eq!(report.metrics, classic.metrics, "rounds included");
            assert!(report.health.is_clean());
            assert!(report.health.messages_sent > 0);
            // The classic drive has no link: it routes and counts nothing.
            assert_eq!(classic.health, ProtocolHealth::default());
            assert_eq!(classic_trace.count_kind("net_message"), 0);
            event_net.debug_invariants();
        }
    }

    #[test]
    fn ideal_sr_matches_classic_under_faults_and_cascades() {
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let net = cascade_network(3);
        let victims: Vec<NodeId> = net.members(GridCoord::new(6, 6)).unwrap().to_vec();
        let sr = Sr::from_config(
            SrConfig::default()
                .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims))),
        );
        let classic = sr.run(&mut net.clone(), 3, DriveMode::Classic).unwrap();
        let event = sr.run(&mut net.clone(), 3, IDEAL).unwrap();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
    }

    #[test]
    fn ideal_sr_matches_classic_on_dual_path_grids() {
        let net = network_with_holes(5, 5, &[GridCoord::new(2, 2), GridCoord::new(4, 0)], 2, 17);
        let classic = Sr::new()
            .run(&mut net.clone(), 17, DriveMode::Classic)
            .unwrap();
        let event = Sr::new().run(&mut net.clone(), 17, IDEAL).unwrap();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
    }

    #[test]
    fn ideal_sc_matches_classic_byte_for_byte() {
        let holes = [GridCoord::new(2, 2), GridCoord::new(6, 5)];
        let net = network_with_holes(8, 8, &holes, 2, 1);
        let (classic, classic_trace) = SrSc::new()
            .run_traced(&mut net.clone(), 1, DriveMode::Classic)
            .unwrap();
        let event = SrSc::new().run(&mut net.clone(), 1, IDEAL).unwrap();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
        assert!(event.health.is_clean());
        assert!(event.health.messages_sent > 0);
        // The classic drive has no link: it routes and counts nothing.
        assert_eq!(classic.health, ProtocolHealth::default());
        assert_eq!(classic_trace.count_kind("net_message"), 0);
    }

    #[test]
    fn fixed_latency_still_recovers() {
        let mut net = cascade_network(5);
        let net_model = NetModelSpec::FixedLatency { ticks: 3 };
        let report = Sr::new()
            .run(&mut net, 5, DriveMode::EventDriven { net: net_model })
            .unwrap();
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.health.messages_dropped, 0);
        net.debug_invariants();
    }

    #[test]
    fn lossy_sr_reports_duplicates_and_lost_cascades() {
        let drive = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 300_000,
                latency: 1,
            },
        };
        let mut duplicates = 0u64;
        let mut lost = 0u64;
        for seed in 0..24 {
            let report = Sr::new()
                .run(&mut cascade_network(seed), seed, drive)
                .unwrap();
            duplicates += report.health.duplicate_initiations;
            lost += report.health.lost_cascades;
        }
        assert!(lost > 0, "30% loss must drop some cascade notification");
        assert!(
            duplicates > 0,
            "a lost baton must provoke a duplicate initiation"
        );
    }

    #[test]
    fn lossy_sc_strands_couriers_as_stalled_repairs() {
        let drive = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 400_000,
                latency: 1,
            },
        };
        let sc = SrSc::builder().max_rounds(60).build_shortcut();
        let mut stalled = 0u64;
        for seed in 0..24 {
            let report = sc.run(&mut cascade_network(seed), seed, drive).unwrap();
            stalled += report.health.stalled_repairs;
        }
        assert!(
            stalled > 0,
            "a dropped courier forward must strand the repair"
        );
    }

    #[test]
    fn total_loss_prevents_detection_entirely() {
        let drive = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 1_000_000,
                latency: 1,
            },
        };
        let mut net = network_with_holes(4, 4, &[GridCoord::new(2, 2)], 2, 9);
        let sr = Sr::builder().max_rounds(40).build();
        let report = sr.run(&mut net, 9, drive).unwrap();
        assert!(!report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert!(report.health.messages_dropped > 0);
    }

    #[test]
    fn traces_carry_the_message_choreography() {
        let mut net = network_with_holes(4, 4, &[GridCoord::new(2, 2)], 2, 11);
        let (report, trace) = Sr::new().run_traced(&mut net, 11, IDEAL).unwrap();
        assert!(report.fully_covered);
        let net_msgs = trace.count_kind("net_message");
        assert!(net_msgs > 0, "probes and acks must be traced");
    }
}
