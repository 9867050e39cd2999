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
//! * Every round, each head with no spare of its own hears a
//!   spare-status **beacon** from its predecessor on the ring. Nothing
//!   steers the walk by it; it is the protocol's standing monitoring
//!   cost, billed as one scanned cell per on-ring cell per round
//!   (`Metrics::cells_scanned`); under the event drive each beacon is
//!   also routed through the network link.
//!
//! Trade-off (quantified by the `figsc` extension figure): SR-SC pays one
//! notification message per backward hop and the beacon overhead, in
//! exchange for collapsing the movement count; at low `N` — exactly
//! where the paper predicts — the savings are largest. The single long
//! straight move also concentrates battery drain on one node instead of
//! spreading it over the cascade, which is why SR proper remains the
//! better choice for energy-balanced deployments.
//!
//! The construction is defined on structures with a unique predecessor
//! per cell: single Hamilton cycles and the masked virtual ring of
//! irregular regions ([`wsn_hamilton::MaskedCycle`]) — so SR-SC runs
//! unchanged on masked grids. [`crate::SrSc`] refuses odd×odd
//! (dual-path) grids: extending the courier walk over the A/B fork is
//! possible but the paper's future-work remark targets the plain cycle.

use wsn_grid::kernel::ones;
use wsn_grid::{GridCoord, GridNetwork};
use wsn_hamilton::{CycleTopology, HamiltonCycle, MaskedCycle};
use wsn_simcore::{NetModelSpec, RoundOutcome, RoundProtocol, TraceEvent, TraceLog};

use crate::actor::{cell_center, cell_endpoint, BatonState, Envelope, Wire};
use crate::process::ProcessId;
use crate::run::Run;
use crate::scheme::{ProtocolOutcome, SchemeProtocol};
use crate::{DetectionOutcome, OwnerCounts, SpareSelection, SrConfig};

/// The backward ring SR-SC forwards notifications along: either the
/// paper's single Hamilton cycle or the masked virtual ring. Both give
/// every on-ring cell a unique predecessor, which is all the courier
/// walk and the beacons need.
#[derive(Debug, Clone)]
pub(crate) enum ScRing {
    Cycle(HamiltonCycle),
    Masked(MaskedCycle),
}

impl ScRing {
    /// The ring of a replacement structure; `None` for the dual-path
    /// structure, which has no unique predecessor per cell.
    pub(crate) fn of(topo: CycleTopology) -> Option<ScRing> {
        match topo {
            CycleTopology::Single(cycle) => Some(ScRing::Cycle(cycle)),
            CycleTopology::Masked(ring) => Some(ScRing::Masked(ring)),
            CycleTopology::Dual(_) => None,
        }
    }

    pub(crate) fn predecessor(&self, cell: GridCoord) -> GridCoord {
        match self {
            ScRing::Cycle(c) => c.predecessor(cell),
            ScRing::Masked(m) => m.predecessor(cell),
        }
    }

    /// Cells on the ring (all cells for a cycle, enabled cells for a
    /// masked ring).
    pub(crate) fn len(&self) -> usize {
        match self {
            ScRing::Cycle(c) => c.len(),
            ScRing::Masked(m) => m.len(),
        }
    }

    /// The walk bound `L` (Theorem 2's parameter on the structure).
    pub(crate) fn max_hops(&self) -> usize {
        match self {
            ScRing::Cycle(c) => c.deduced_path_hops(),
            ScRing::Masked(m) => m.max_walk_hops(),
        }
    }
}

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
}

/// The SR-SC protocol over a borrowed network (see the module docs).
///
/// Like [`crate::SrProtocol`], one engine serves both drives: built by
/// `new` it runs the classic drive with no link; built by
/// `with_net_model` it routes courier forwards, probes, acks and
/// beacons through a network model. A dropped courier forward
/// permanently strands the repair (the hole stays owned by its process,
/// so — unlike SR — no duplicate rescues it; the failure mode is
/// [`wsn_simcore::ProtocolHealth::stalled_repairs`]).
#[derive(Debug)]
pub struct ShortcutProtocol<'n> {
    run: Run<'n>,
    cycle: ScRing,
    /// Active processes, in id order, so deliveries find theirs by
    /// binary search.
    active: Vec<ScProcess>,
    /// Active processes per `hole`: detection's "already served" check
    /// without scanning `active`.
    owners: OwnerCounts,
    /// The network model under the event drive; `None` in the classic
    /// drive, which routes, queues and counts nothing.
    link: Option<Wire>,
}

impl<'n> ShortcutProtocol<'n> {
    /// Creates the protocol for the classic drive over a
    /// unique-predecessor ring, recording into `trace`.
    pub(crate) fn new(
        net: &'n mut GridNetwork,
        cycle: ScRing,
        config: SrConfig,
        trace: TraceLog,
    ) -> Self {
        let owners = OwnerCounts::new(net.system());
        ShortcutProtocol {
            run: Run::new(net, config, trace),
            cycle,
            active: Vec::new(),
            owners,
            link: None,
        }
    }

    /// Like [`ShortcutProtocol::new`], with every inter-cell exchange
    /// routed through `spec`'s network model.
    pub(crate) fn with_net_model(
        net: &'n mut GridNetwork,
        cycle: ScRing,
        config: SrConfig,
        spec: NetModelSpec,
        trace: TraceLog,
    ) -> Self {
        let wire = Wire::new(spec, config.seed);
        let mut p = ShortcutProtocol::new(net, cycle, config, trace);
        p.link = Some(wire);
        p
    }

    /// Marks still-active processes failed (at the end of the run);
    /// stranded couriers count as stalled repairs.
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let reason = if p.baton == BatonState::Held {
                "no reachable spare (run ended)"
            } else {
                if let Some(wire) = &mut self.link {
                    wire.link.health.stalled_repairs += 1;
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

    /// Ends process `i` (converged or failed), releasing its hole.
    fn retire(&mut self, i: usize) -> ScProcess {
        let p = self.active.remove(i);
        self.owners.remove(p.hole);
        p
    }

    /// Ends every active process, in start order, releasing their holes.
    fn retire_all(&mut self) -> Vec<ScProcess> {
        let all = std::mem::take(&mut self.active);
        for p in &all {
            self.owners.remove(p.hole);
        }
        all
    }

    /// The round's beacon exchange along the ring: every head with no
    /// spare of its own hears its predecessor's spare status,
    /// `pred(c) → c`. Nothing reads it back; it is SR-SC's standing
    /// per-round cost, billed as one scanned cell per on-ring cell so the
    /// scan-cost comparison against SR's O(changed) detection stays
    /// honest. The paper does not bill monitoring beacons as messages,
    /// so neither do we; over a link each beacon is also one routed
    /// sense.
    ///
    /// The beacon cells are the set bits of the words `enabled &
    /// !vacant & !spareful`. Their popcount is the round's beacon count,
    /// so a loss-free link accounts the round without visiting a cell.
    /// A lossy link enumerates the same words in ascending cell order,
    /// and never touches a cell that sends no beacon.
    fn gossip(&mut self) {
        self.run.metrics.cells_scanned += self.cycle.len() as u64;
        let Some(wire) = &mut self.link else {
            return;
        };
        let net = &*self.run.net;
        let (sys, cycle) = (net.system(), &self.cycle);
        let words = net
            .mask()
            .enabled_words()
            .iter()
            .zip(net.occupancy().vacant_words())
            .zip(net.spareful_words())
            .map(|((&enabled, &vacant), &spareful)| enabled & !vacant & !spareful);
        let count = words.clone().map(|w| u64::from(w.count_ones())).sum();
        let beacons = words
            .enumerate()
            .flat_map(|(w, word)| ones(word, w * 64))
            .map(|c| {
                let pred = cycle.predecessor(sys.coord_of(c));
                (cell_endpoint(sys, pred), c as u64)
            });
        wire.link.sense_bulk(count, beacons, cell_center(sys));
    }

    /// Delivers due envelopes; courier batons become actionable.
    fn drain_due(&mut self, round: u64) {
        while let Some(envelope) = self.link.as_mut().and_then(|w| w.pop_due(round)) {
            if let Envelope::HoleAnnounce { process } = envelope {
                if let Ok(i) = self.active.binary_search_by_key(&process, |p| p.id.raw()) {
                    self.active[i].baton = BatonState::Held;
                }
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
                wire.send(sys, p.hole, p.courier, Envelope::MoveAck, round, trace);
            }
            return true;
        }
        if p.forwarded >= self.cycle.max_hops() {
            let reason = "notification circled the cycle without finding a spare";
            run.fail(p.id, round, reason);
            run.failed_holes.insert(p.hole);
            self.retire(i);
            return true;
        }
        // Forward the notification one hop backward: SR's blind backward
        // search, one hop per round, minus the node movements. Skip over
        // the hole itself (its cell cannot relay or hold the spare we
        // are looking for).
        let next = self.cycle.predecessor(p.courier);
        let target = if next == p.hole {
            self.cycle.predecessor(next)
        } else {
            next
        };
        self.active[i].courier = target;
        self.active[i].forwarded += 1;
        run.metrics.record_message();
        run.metrics.energy += run.energy.message_cost;
        run.trace.record(
            round,
            TraceEvent::NotificationSent {
                process: p.id.raw(),
                from: p.courier.into(),
                to: target.into(),
            },
        );
        if let Some(wire) = &mut self.link {
            let announce = Envelope::HoleAnnounce {
                process: p.id.raw(),
            };
            let (sys, trace) = (run.net.system(), &mut run.trace);
            self.active[i].baton = if wire.send(sys, p.courier, target, announce, round, trace) {
                BatonState::InFlight
            } else {
                wire.link.health.lost_cascades += 1;
                BatonState::Lost
            };
        }
        true
    }

    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        let buf = self.run.sweep();
        let mut outcome = DetectionOutcome::default();
        for &idx in &buf {
            // Ownership first, by index: most pending holes are served by
            // a running courier, and the coordinate costs a division.
            if self.owners.is_owned_at(idx) {
                continue;
            }
            let run = &mut self.run;
            let g = run.net.system().coord_of(idx);
            if run.failed_holes.contains(&g) {
                continue;
            }
            let monitor = self.cycle.predecessor(g);
            if run.net.is_vacant(monitor).unwrap_or(true) {
                continue;
            }
            if let Some(wire) = &mut self.link {
                let sys = run.net.system();
                if !wire.probe(sys, monitor, g, round, &mut run.trace) {
                    outcome.pending += 1;
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
            });
            outcome.initiated += 1;
        }
        self.run.end_sweep(buf);
        self.owners.debug_check(self.active.iter().map(|p| p.hole));
        outcome
    }
}

impl SchemeProtocol for ShortcutProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.run.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.run.metrics,
            processes: self.run.summaries,
            health: self.link.map(|w| w.link.health).unwrap_or_default(),
            trace: self.run.trace,
        }
    }
}

impl RoundProtocol for ShortcutProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        self.drain_due(round);
        let run = &mut self.run;
        let fault_events: Vec<_> = run.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = run.net.apply_fault(&ev, &mut run.rng);
            if !killed.is_empty() {
                run.failed_holes.clear();
                progress = true;
            }
        }
        progress |= run.net.repair_heads(run.config.election, &mut run.rng) > 0;
        self.gossip();
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            progress |= self.step_process(i, round);
            if self.active.len() == before {
                i += 1;
            }
        }
        progress |= self.detect_and_initiate(round).any_activity();
        // Surveillance duty (battery dynamics only), as SR's heads pay it.
        progress |= self.run.drain_idle_heads();
        progress |= self
            .run
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        progress |= self.link.as_ref().is_some_and(Wire::in_flight);
        self.run.metrics.rounds = round + 1;
        if progress {
            RoundOutcome::Progress
        } else {
            RoundOutcome::Quiescent
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
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let err = SrSc::new()
            .run(&mut net, 0, DriveMode::Classic)
            .unwrap_err();
        assert!(err.reason.contains("single Hamilton cycle"), "{err}");
        assert!(ScRing::of(CycleTopology::build(5, 5).unwrap()).is_none());
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
        let sc = SrSc::builder().battery_dynamics(true).build_shortcut();
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
        let hole = cycle.order()[12];
        // Spare 5 backward hops from the hole's monitor.
        let spare_cell = cycle.order()[12 - 6];
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
