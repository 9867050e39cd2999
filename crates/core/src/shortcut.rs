//! **SR-SC** — the short-cut extension the paper leaves as future work.
//!
//! The paper's §5: "A short-cut along the Hamilton cycle can reduce the
//! length of the path for replacement process to approach a spare node.
//! The construction of such a short-cut will be our future work … the
//! cost of SR will be reduced greatly in the cases when N < 55."
//!
//! This module implements one concrete such construction, staying within
//! the paper's 1-hop communication model:
//!
//! * When a hole is detected, its monitor starts a **courier
//!   notification** that is forwarded backward along the directed
//!   Hamilton cycle, one hop per round, skipping the hole itself. It is
//!   the same blind backward search as SR's cascade, but no head needs to
//!   *move* to keep it going.
//! * The first head on that walk whose cell holds a spare dispatches it
//!   **straight across the grid** to the hole: one movement per
//!   replacement instead of Theorem 2's `M(L, N)`, and a chord-length
//!   distance instead of a path-length one.
//! * Nothing steers the walk: no head tells the courier where the
//!   spares are, and no monitoring message is sent. Detection sweeps
//!   the network's vacancy index as SR's does and bills the holes it
//!   visits (`Metrics::cells_scanned`).
//!
//! Trade-off (quantified by the `figsc` extension figure): SR-SC pays one
//! notification message per backward hop, in exchange for collapsing
//! the movement count; at low `N` — exactly where the paper predicts —
//! the savings are largest. The single long straight move also
//! concentrates battery drain on one node instead of spreading it over
//! the cascade, which is why SR proper remains the better choice for
//! energy-balanced deployments.
//!
//! The construction is defined on structures with a unique predecessor
//! per cell: single Hamilton cycles and the masked virtual ring of
//! irregular regions ([`wsn_hamilton::MaskedCycle`]) — so SR-SC runs
//! unchanged on masked grids. On both, [`CycleTopology::monitors`] is
//! the ring predecessor, which is all the courier walk needs.
//! [`crate::SrSc`] refuses odd×odd (dual-path) grids: extending the
//! courier walk over the A/B fork is possible but the paper's
//! future-work remark targets the plain cycle.

use wsn_grid::{GridCoord, GridNetwork};
use wsn_hamilton::CycleTopology;
use wsn_simcore::{TraceEvent, TraceLog};

use crate::actor::{BatonState, Wire};
use crate::process::ProcessId;
use crate::run::Run;
use crate::scheme::{DriveMode, ProtocolOutcome, SchemeProtocol};
use crate::{OwnerCounts, SpareSelection, SrConfig};

#[derive(Debug, Clone, Copy)]
struct ScProcess {
    id: ProcessId,
    hole: GridCoord,
    /// Where the notification currently sits.
    courier: GridCoord,
    /// Hops forwarded so far.
    forwarded: usize,
    /// Where the notification is; always `Held` without a link.
    baton: BatonState,
    /// Ended this round: a tombstone until the round's one compaction.
    retired: bool,
}

/// The SR-SC protocol over a borrowed network (see the module docs).
///
/// Like [`crate::SrProtocol`], one engine serves both drives: under
/// [`DriveMode::Classic`] it has no link; under
/// [`DriveMode::EventDriven`] it routes courier forwards, probes and
/// acks through a network model. A dropped courier forward
/// permanently strands the repair (the hole stays owned by its process,
/// so — unlike SR — no duplicate rescues it; the failure mode is
/// [`wsn_simcore::ProtocolHealth::stalled_repairs`]).
#[derive(Debug)]
pub struct ShortcutProtocol<'n> {
    run: Run<'n>,
    /// A single cycle or a masked ring, never the dual path.
    ring: CycleTopology,
    /// Active processes, in id order. A process that ends during the
    /// round's steps stays as a tombstone until [`Self::compact`].
    active: Vec<ScProcess>,
    /// Active processes per `hole`: detection's "already served" check
    /// without scanning `active`.
    owners: OwnerCounts,
    /// The network model under the event drive; `None` in the classic
    /// drive, which routes and counts nothing.
    link: Option<Wire>,
}

impl<'n> ShortcutProtocol<'n> {
    /// Creates the protocol for `drive` over a unique-predecessor ring
    /// (a single cycle or a masked ring), seeding the run RNG (and, under
    /// the event drive, the link) from `seed` as
    /// [`crate::SrProtocol::new`] does, recording into `trace`.
    pub(crate) fn new(
        net: &'n mut GridNetwork,
        ring: CycleTopology,
        config: SrConfig,
        seed: u64,
        drive: DriveMode,
        trace: TraceLog,
    ) -> Self {
        debug_assert!(!ring.is_dual(), "SR-SC needs a unique predecessor per cell");
        ShortcutProtocol {
            owners: OwnerCounts::new(net.system()),
            link: Wire::for_drive(drive, net.system(), seed),
            run: Run::new(net, config, seed, trace),
            ring,
            active: Vec::new(),
        }
    }

    /// Marks still-active processes failed (at the end of the run);
    /// stranded couriers count as stalled repairs.
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let reason = if p.baton == BatonState::Held {
                "no reachable spare (run ended)"
            } else {
                if let Some(wire) = &mut self.link {
                    wire.health().stalled_repairs += 1;
                }
                "notification lost in the network (run ended)"
            };
            self.run.fail(p.id, round, reason);
        }
    }

    /// Starts `p` as the owner of its hole. This, [`Self::retire`] and
    /// [`Self::retire_all`] are the only places that add or remove a
    /// process, so the owner table always matches `active`.
    fn enlist(&mut self, p: ScProcess) {
        self.owners.add(p.hole);
        self.active.push(p);
    }

    /// Ends process `i` (converged or failed), releasing its hole. Its
    /// entry stays as a tombstone, so ending a process shifts nothing.
    fn retire(&mut self, i: usize) {
        self.active[i].retired = true;
        self.owners.remove(self.active[i].hole);
    }

    /// Drops the round's tombstones in one ordered pass, as
    /// [`crate::SrProtocol`] does.
    fn compact(&mut self) {
        self.active.retain(|p| !p.retired);
    }

    /// Ends every active process, in start order, releasing their holes.
    /// Runs between rounds, when `active` holds no tombstone.
    fn retire_all(&mut self) -> Vec<ScProcess> {
        let all = std::mem::take(&mut self.active);
        for p in &all {
            self.owners.remove(p.hole);
        }
        all
    }

    /// Lands the courier batons due this round; they become actionable.
    fn land_due(&mut self, round: u64) {
        for p in &mut self.active {
            if p.baton.is_due(round) {
                p.baton = BatonState::Held;
            }
        }
    }

    fn step_process(&mut self, i: usize, round: u64) -> bool {
        let p = self.active[i];
        let run = &mut self.run;
        if p.baton != BatonState::Held || run.net.is_vacant(p.courier).unwrap_or(true) {
            // No notification to act on yet, or the courier cell lost its
            // head (hole run); wait for its repair.
            return false;
        }
        // Dispatch: the courier cell's lowest-id spare flies straight to
        // the hole. The walk's hops are its forwards plus the dispatch.
        if let Some(spare) = SpareSelection::FirstId.pick(run.net, p.courier, p.hole) {
            if let Some(wire) = &mut self.link {
                wire.link.local(); // SpareRequest to the co-located spare
            }
            run.execute_move(p.id, spare, p.hole, round);
            run.summaries[p.id.raw() as usize].hops = p.forwarded as u64 + 1;
            run.converge(p.id, round);
            self.retire(i);
            if let Some(wire) = &mut self.link {
                let sys = self.run.net.system();
                let trace = &mut self.run.trace;
                wire.send(sys, p.hole, p.courier, "move_ack", round, trace);
            }
            return true;
        }
        if p.forwarded >= self.ring.max_walk_hops() {
            let reason = "notification circled the cycle without finding a spare";
            run.fail(p.id, round, reason);
            let idx = run.net.system().index_of(p.hole);
            run.failed_holes.insert(idx.expect("holes are in bounds"));
            self.retire(i);
            return true;
        }
        // Forward the notification one hop backward: SR's blind backward
        // search, one hop per round, minus the node movements. Skip over
        // the hole itself (its cell cannot relay or hold the spare we
        // are looking for).
        let next = self.ring.monitors(p.courier);
        let target = if next == p.hole {
            self.ring.monitors(next)
        } else {
            next
        };
        self.active[i].courier = target;
        self.active[i].forwarded += 1;
        run.metrics.record_message();
        run.metrics.energy += run.energy.message_cost;
        run.trace
            .record_with(round, || TraceEvent::NotificationSent {
                process: p.id.raw(),
                from: p.courier.into(),
                to: target.into(),
            });
        if let Some(wire) = &mut self.link {
            let (sys, trace) = (run.net.system(), &mut run.trace);
            let (from, to) = (p.courier, target);
            self.active[i].baton = match wire.send(sys, from, to, "hole_announce", round, trace) {
                Some(at) => BatonState::InFlight { at },
                None => {
                    wire.health().lost_cascades += 1;
                    BatonState::Lost
                }
            };
        }
        true
    }

    /// Detection + initiation, as SR's: sweeps the vacancy index, which
    /// bills the holes it visits as scanned cells. Returns whether the
    /// sweep started a courier or a dropped probe deferred one.
    fn detect_and_initiate(&mut self, round: u64) -> bool {
        let buf = self.run.sweep();
        let mut active = false;
        for &idx in &buf {
            // Ownership first, by index: most pending holes are served by
            // a running courier, and the coordinate costs a division.
            if self.owners.is_owned_at(idx) {
                continue;
            }
            let run = &mut self.run;
            if run.failed_holes.contains(idx) {
                continue;
            }
            let g = run.net.system().coord_of(idx);
            let monitor = self.ring.monitors(g);
            if run.net.is_vacant(monitor).unwrap_or(true) {
                continue;
            }
            if let Some(wire) = &mut self.link {
                let sys = run.net.system();
                if !wire.probe(sys, monitor, g, round, &mut run.trace) {
                    active = true;
                    continue;
                }
            }
            let id = run.initiate(g, monitor, round);
            self.enlist(ScProcess {
                id,
                hole: g,
                courier: monitor,
                forwarded: 0,
                baton: BatonState::Held,
                retired: false,
            });
            active = true;
        }
        self.run.end_sweep(buf);
        self.owners.debug_check(self.active.iter().map(|p| p.hole));
        active
    }
}

impl SchemeProtocol for ShortcutProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> bool {
        if self.link.is_some() {
            self.land_due(round);
        }
        let mut progress = self.run.apply_faults(round);
        let run = &mut self.run;
        progress |= run.net.repair_heads(run.config.election, &mut run.rng) > 0;
        for i in 0..self.active.len() {
            progress |= self.step_process(i, round);
        }
        self.compact();
        progress |= self.detect_and_initiate(round);
        // Surveillance duty (battery dynamics only), as SR's heads pay it.
        progress |= self.run.drain_idle_heads();
        progress || self.link.as_ref().is_some_and(|w| w.in_flight(round))
    }

    fn network(&self) -> &GridNetwork {
        self.run.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.run.metrics,
            processes: self.run.summaries,
            health: self.link.map(|mut w| *w.health()).unwrap_or_default(),
            trace: self.run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{DriveMode, ReplacementScheme, SchemeReport, Sr, SrSc};
    use wsn_grid::{deploy, GridSystem};
    use wsn_simcore::{NodeId, SimRng};

    fn network_with_holes(holes: &[GridCoord], per_cell: usize, seed: u64) -> GridNetwork {
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, holes, per_cell, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    fn run_sc(net: &mut GridNetwork, seed: u64) -> SchemeReport {
        SrSc::new().run(net, seed, DriveMode::Classic).unwrap()
    }

    #[test]
    fn one_move_per_replacement() {
        let holes = [GridCoord::new(2, 2), GridCoord::new(6, 5)];
        let mut net = network_with_holes(&holes, 2, 1);
        let report = run_sc(&mut net, 1);
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_converged, 2);
        // The headline property: exactly one movement per hole.
        assert_eq!(report.metrics.moves, 2);
        net.debug_invariants();
    }

    #[test]
    fn beats_sr_on_moves_at_low_spare_density() {
        // One spare far away: SR cascades ~L hops; SR-SC moves once.
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let hole = GridCoord::new(4, 4);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        let net = GridNetwork::new(sys, &pos);

        let sr = Sr::new()
            .run(&mut net.clone(), 2, DriveMode::Classic)
            .unwrap();
        let sc = run_sc(&mut net.clone(), 2);
        assert!(sr.fully_covered && sc.fully_covered);
        assert!(sr.metrics.moves > 1);
        assert_eq!(sc.metrics.moves, 1);
        assert!(
            sc.metrics.distance < sr.metrics.distance,
            "straight chord {} must beat the cascade path {}",
            sc.metrics.distance,
            sr.metrics.distance
        );
    }

    #[test]
    fn no_spares_fails_cleanly() {
        let mut net = network_with_holes(&[GridCoord::new(3, 3)], 1, 3);
        assert_eq!(net.total_spares(), 0);
        let report = run_sc(&mut net, 3);
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.metrics.processes_failed >= 1);
        assert_eq!(report.metrics.moves, 0);
    }

    #[test]
    fn masked_region_dispatches_one_move_per_hole() {
        use wsn_grid::{deploy, RegionMask};
        let sys = GridSystem::new(10, 10, 4.4721).unwrap();
        let mask = RegionMask::annulus(10, 10);
        let mut rng = SimRng::seed_from_u64(13);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = [enabled[5], enabled[enabled.len() / 2]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let report = run_sc(&mut net, 13);
        assert!(report.fully_covered, "{report}");
        // The SR-SC headline survives masking: one movement per hole.
        assert_eq!(report.metrics.moves, 2);
        assert_eq!(report.metrics.processes_failed, 0);
        net.debug_invariants();
        for node in net.nodes() {
            if node.status().is_enabled() {
                assert!(mask.is_enabled(sys.cell_of(node.position()).unwrap()));
            }
        }
    }

    #[test]
    fn dual_path_grids_are_rejected() {
        use crate::scheme::NetworkSpec;
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let err = SrSc::new()
            .run(&mut net, 0, DriveMode::Classic)
            .unwrap_err();
        assert!(err.reason.contains("single Hamilton cycle"), "{err}");
        assert_eq!(SrSc::new().supports(&NetworkSpec::of(&net)), Err(err));
    }

    #[test]
    fn hole_runs_recover_sequentially() {
        let holes = [
            GridCoord::new(1, 1),
            GridCoord::new(1, 2),
            GridCoord::new(2, 1),
            GridCoord::new(2, 2),
        ];
        let mut net = network_with_holes(&holes, 2, 5);
        let report = run_sc(&mut net, 5);
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.metrics.moves, 4);
        assert_eq!(report.metrics.processes_failed, 0);
        net.debug_invariants();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| run_sc(&mut network_with_holes(&[GridCoord::new(5, 2)], 2, 7), seed);
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn battery_dynamics_disable_a_mover_the_dispatch_depletes() {
        // One spare in the far corner with 1 J left: the ~25 m chord to
        // the hole costs ~25 J, so the spare dies on arrival.
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let mut pos = deploy::with_holes(&sys, &[GridCoord::new(4, 4)], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        let mut net = GridNetwork::new(sys, &pos);
        let spare = NodeId::new(pos.len() as u32 - 1);
        let full = net.node(spare).unwrap().battery().charge();
        net.draw_battery(spare, full - 1.0).unwrap();
        let sc = SrSc::from_config(SrConfig::default().with_battery_dynamics(true));
        let (report, trace) = sc.run_traced(&mut net, 2, DriveMode::Classic).unwrap();
        assert!(report.run.is_quiescent());
        assert_eq!(report.metrics.moves, 1, "the one dispatch happens");
        assert!(!net.node(spare).unwrap().status().is_enabled());
        assert_eq!(trace.count_kind("node_disabled"), 1);
        // The hole reopens and no spare is left to refill it.
        assert!(!report.fully_covered);
        assert!(report.metrics.energy > 20.0, "the chord is billed");
        net.debug_invariants();
    }

    #[test]
    fn scheduled_faults_trace_one_node_disabled_per_victim() {
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        use wsn_simcore::TraceEvent;
        let mut net = network_with_holes(&[GridCoord::new(2, 2)], 2, 17);
        let cell = GridCoord::new(5, 6);
        let victims: Vec<NodeId> = net.members(cell).unwrap().to_vec();
        assert_eq!(victims.len(), 2);
        let plan = FaultPlan::new().at(3, FaultEvent::KillNodes(victims.clone()));
        let sc = SrSc::from_config(SrConfig::default().with_fault_plan(plan));
        let (report, trace) = sc.run_traced(&mut net, 17, DriveMode::Classic).unwrap();
        assert!(report.fully_covered, "{report}");
        let disabled: Vec<(u64, NodeId, (u16, u16))> = trace
            .of_kind("node_disabled")
            .map(|r| match r.event {
                TraceEvent::NodeDisabled { node, cell } => (r.round, node, cell),
                _ => unreachable!(),
            })
            .collect();
        let expected: Vec<_> = victims.iter().map(|&id| (3, id, cell.into())).collect();
        assert_eq!(disabled, expected);
    }

    #[test]
    fn notification_walks_back_to_the_nearest_spare() {
        // The backward walk forwards once per hop and stops at the first
        // cell holding a spare, so its message count equals the backward
        // distance from the hole's monitor to the nearest spare.
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let cycle = match CycleTopology::build(6, 6).unwrap() {
            CycleTopology::Single(c) => c,
            _ => unreachable!(),
        };
        let mut rng = SimRng::seed_from_u64(11);
        let hole = cycle.cell_at(12);
        // Spare 5 backward hops from the hole's monitor.
        let spare_cell = cycle.cell_at(12 - 6);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(spare_cell).unwrap().center());
        let mut net = GridNetwork::new(sys, &pos);
        let report = run_sc(&mut net, 11);
        assert!(report.fully_covered);
        assert_eq!(report.processes.len(), 1);
        assert_eq!(report.processes[0].hops, 6, "monitor + 5 forwards");
        assert_eq!(report.metrics.messages, 5);
    }
}
