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
//!   cost. This engine bills the exchange as one scanned cell per on-ring
//!   cell per round (`Metrics::cells_scanned`); the event engine also
//!   routes each beacon through its network link.
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

use wsn_grid::{GridCoord, GridNetwork};
use wsn_hamilton::{CycleTopology, HamiltonCycle, MaskedCycle};
use wsn_simcore::{
    EnergyModel, Metrics, ProtocolHealth, RoundOutcome, RoundProtocol, SimRng, TraceEvent, TraceLog,
};

use crate::movement::movement_target;
use crate::process::{ProcessId, ProcessStatus, ProcessSummary};
use crate::scheme::{ProtocolOutcome, SchemeProtocol};
use crate::{OwnerCounts, SrConfig};

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

#[derive(Debug, Clone)]
struct ScProcess {
    id: ProcessId,
    hole: GridCoord,
    /// Where the notification currently sits.
    courier: GridCoord,
    /// Hops forwarded so far.
    forwarded: usize,
}

/// The SR-SC protocol over a borrowed network (see the module docs).
#[derive(Debug)]
pub struct ShortcutProtocol<'n> {
    net: &'n mut GridNetwork,
    cycle: ScRing,
    config: SrConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    active: Vec<ScProcess>,
    /// Active processes per `hole`: detection's "already served" check
    /// without scanning `active`.
    owners: OwnerCounts,
    summaries: Vec<ProcessSummary>,
    failed_holes: std::collections::HashSet<GridCoord>,
    /// Current holes (dense indices, row-major), maintained from the
    /// occupancy change journal — same word-level O(changed) detection
    /// as SR ([`wsn_grid::HoleSet`]).
    pending_holes: wsn_grid::HoleSet,
    /// Scratch buffer reused by detection sweeps.
    detect_buf: Vec<usize>,
}

impl<'n> ShortcutProtocol<'n> {
    /// Creates the protocol over a unique-predecessor ring, recording
    /// into `trace`.
    pub(crate) fn new(
        net: &'n mut GridNetwork,
        cycle: ScRing,
        config: SrConfig,
        trace: TraceLog,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let cells = net.system().cell_count();
        let mut pending_holes = wsn_grid::HoleSet::new(cells);
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        let owners = OwnerCounts::new(net.system());
        ShortcutProtocol {
            net,
            cycle,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            owners,
            summaries: Vec::new(),
            failed_holes: std::collections::HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
        }
    }

    /// Marks still-active processes failed (at the end of the run).
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                process: p.id.raw(),
                reason: "no reachable spare (run ended)".into(),
            });
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

    fn spare_count(&self, cell: GridCoord) -> usize {
        self.net.spare_count(cell).unwrap_or(0)
    }

    /// The round's beacon exchange along the ring. Nothing reads it
    /// back; it is SR-SC's standing per-round cost, billed as one
    /// scanned cell per on-ring cell so the scan-cost comparison against
    /// SR's O(changed) detection stays honest. The paper does not bill
    /// monitoring beacons as messages, so neither do we.
    fn gossip(&mut self) {
        self.metrics.cells_scanned += self.cycle.len() as u64;
    }

    fn step_process(&mut self, i: usize, round: u64) -> bool {
        let p = self.active[i].clone();
        if self.net.is_vacant(p.courier).unwrap_or(true) {
            // Courier cell lost its head (hole run); wait for its repair.
            return false;
        }
        if self.spare_count(p.courier) > 0 {
            // Dispatch: the spare flies straight to the hole.
            let spare = self
                .net
                .spare_iter(p.courier)
                .expect("in bounds")
                .min()
                .expect("non-empty by spare_count");
            let dest = movement_target(self.net.system(), p.hole, &mut self.rng);
            let out = self
                .net
                .move_node(spare, dest)
                .expect("targets inside the area");
            self.net
                .set_head(p.hole, spare)
                .expect("spare just arrived");
            self.metrics.record_move(out.distance);
            self.metrics.energy += self.energy.movement(out.distance);
            self.trace.record(
                round,
                TraceEvent::NodeMoved {
                    process: Some(p.id.raw()),
                    node: spare,
                    from: out.from.into(),
                    to: out.to.into(),
                    distance: out.distance,
                },
            );
            let s = &mut self.summaries[p.id.raw() as usize];
            s.hops = p.forwarded as u64 + 1;
            s.moves += 1;
            s.distance += out.distance;
            s.status = ProcessStatus::Converged;
            s.ended_round = Some(round);
            self.metrics.processes_converged += 1;
            self.trace.record(
                round,
                TraceEvent::ProcessConverged {
                    process: p.id.raw(),
                    moves: s.moves,
                },
            );
            self.retire(i);
            return true;
        }
        if p.forwarded >= self.cycle.max_hops() {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                process: p.id.raw(),
                reason: "notification circled the cycle without finding a spare".into(),
            });
            self.failed_holes.insert(p.hole);
            self.retire(i);
            return true;
        }
        // Forward the notification one hop backward: SR's blind backward
        // search, one hop per round, minus the node movements.
        let next = self.cycle.predecessor(p.courier);
        if next == p.hole {
            // Skip over the hole itself (its cell cannot relay or hold
            // the spare we are looking for).
            let beyond = self.cycle.predecessor(next);
            self.active[i].courier = beyond;
        } else {
            self.active[i].courier = next;
        }
        self.active[i].forwarded += 1;
        self.metrics.record_message();
        self.metrics.energy += self.energy.message_cost;
        self.trace.record(
            round,
            TraceEvent::NotificationSent {
                process: p.id.raw(),
                from: p.courier.into(),
                to: self.active[i].courier.into(),
            },
        );
        true
    }

    fn detect_and_initiate(&mut self, round: u64) -> usize {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        let mut initiated = 0;
        for &idx in &buf {
            let g = self.net.system().coord_of(idx);
            if self.failed_holes.contains(&g) || self.owners.is_owned(g) {
                continue;
            }
            let monitor = self.cycle.predecessor(g);
            if self.net.is_vacant(monitor).unwrap_or(true) {
                continue;
            }
            let id = ProcessId::new(self.summaries.len() as u64);
            self.summaries.push(ProcessSummary {
                id,
                hole: g,
                initiator: monitor,
                initiated_round: round,
                ended_round: None,
                status: ProcessStatus::Active,
                hops: 0,
                moves: 0,
                distance: 0.0,
            });
            self.enlist(ScProcess {
                id,
                hole: g,
                courier: monitor,
                forwarded: 0,
            });
            self.metrics.processes_initiated += 1;
            self.trace.record(
                round,
                TraceEvent::ProcessInitiated {
                    process: id.raw(),
                    hole: g.into(),
                    initiator: monitor.into(),
                },
            );
            initiated += 1;
        }
        self.detect_buf = buf;
        self.owners.debug_check(self.active.iter().map(|p| p.hole));
        initiated
    }
}

impl SchemeProtocol for ShortcutProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.metrics,
            processes: self.summaries,
            health: ProtocolHealth::default(),
            trace: self.trace,
        }
    }
}

impl RoundProtocol for ShortcutProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        let fault_events: Vec<_> = self.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = self.net.apply_fault(&ev, &mut self.rng);
            if !killed.is_empty() {
                self.failed_holes.clear();
                progress = true;
            }
        }
        progress |= self.net.repair_heads(self.config.election, &mut self.rng) > 0;
        self.gossip();
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            progress |= self.step_process(i, round);
            if self.active.len() == before {
                i += 1;
            }
        }
        progress |= self.detect_and_initiate(round) > 0;
        progress |= self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        self.metrics.rounds = round + 1;
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
