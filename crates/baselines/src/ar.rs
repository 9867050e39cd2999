//! **AR**: the unsynchronized snake-like cascading replacement of Jiang
//! et al. (WSNS'07), re-implemented from this paper's description.
//!
//! Differences from SR, per the paper's §1/§5:
//!
//! * *No synchronization:* "due to the lack of synchronization, the
//!   existence of a hole will incur multiple replacement processes" —
//!   here, **every** head 4-adjacent to a vacant cell initiates its own
//!   process.
//! * *Local direction choice:* with only 1-hop knowledge and no global
//!   cycle, each cascade picks its next cell greedily (continue straight
//!   away from the hole when possible, otherwise scan the remaining
//!   neighbors), keeping a per-process visited set.
//! * *Conflicts fail:* two cascades that ask the same head in the same
//!   round collide — the later one fails (the paper's "overreaction").
//!   A cascade that runs into a vacant cell or runs out of unvisited
//!   neighbors also fails; there is no Hamilton path to guarantee
//!   progress, which is why AR "requires at least 4×m×n deployed nodes"
//!   to be reliable.
//! * *Redundant deliveries:* when several processes recover the same
//!   hole, the extra spares still travel (unnecessary node movements,
//!   counted) and the processes still count as converged — Figure 6(b)
//!   measures spare-finding, not usefulness.

use serde::{Deserialize, Serialize};

use wsn_grid::{Direction, GridCoord, GridNetwork};
use wsn_simcore::{
    derive_stream_seed, EnergyModel, Fate, Metrics, NetLink, NetModelSpec, NodeId, RoundOutcome,
    RoundProtocol, SimRng, TraceEvent, TraceLog,
};

use wsn_coverage::actor::{cell_center, cell_endpoint, NET_STREAM_TAG};
use wsn_coverage::scheme::{ProtocolOutcome, SchemeProtocol};
use wsn_coverage::{OwnerCounts, SpareSelection};

/// Configuration for an AR run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArConfig {
    /// Seed for the run's deterministic RNG.
    pub seed: u64,
    /// Head-election policy (same role as in SR).
    pub election: wsn_grid::HeadElection,
    /// Spare-selection policy within a cell.
    pub spare_selection: SpareSelection,
    /// Round cap.
    pub max_rounds: u64,
    /// Cascade TTL in hops (default `m·n` at run time when 0).
    pub ttl: usize,
}

impl Default for ArConfig {
    fn default() -> Self {
        ArConfig {
            seed: 0,
            election: wsn_grid::HeadElection::FirstId,
            spare_selection: SpareSelection::ClosestToTarget,
            max_rounds: 100_000,
            ttl: 0,
        }
    }
}

impl ArConfig {
    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug, Clone)]
struct ArProcess {
    id: u64,
    current_target: GridCoord,
    asked: GridCoord,
    /// The cascade's path: its hole first, then every cell it has
    /// relayed through. Searched linearly: a cascade relays at most one
    /// hop per round, so the path holds at most one cell more than the
    /// rounds the cascade has lived, and a check reads no more than that.
    visited: Vec<GridCoord>,
    hops: usize,
    /// First round in which the asked head may act — the in-flight ask's
    /// arrival time under the event engine's network model. Always 0 in
    /// classic mode (asks arrive by axiom).
    ready_at: u64,
}

/// The AR protocol as a round-based state machine over a borrowed
/// network. [`crate::Ar`] hands it to
/// [`wsn_coverage::scheme::run_to_quiescence`].
#[derive(Debug)]
pub struct ArProtocol<'n> {
    net: &'n mut GridNetwork,
    config: ArConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    active: Vec<ArProcess>,
    /// The round loop's second process buffer: each round drains
    /// `active` and refills this one with the survivors, then the two
    /// swap, so no round allocates a fresh list.
    survivors: Vec<ArProcess>,
    /// Active cascades per `current_target` cell: detection's "owned by
    /// a cascade" check without scanning `active`.
    owners: OwnerCounts,
    next_id: u64,
    /// The monitors that already fired during the current vacancy
    /// episode of each hole: per dense cell index, bit `i` stands for
    /// the hole's neighbour in direction `Direction::ALL[i]`. Cleared
    /// when the hole fills.
    initiated: Vec<u8>,
    /// The holes with any `initiated` bit set, so the per-round episode
    /// reset visits only them.
    initiated_holes: Vec<usize>,
    /// Cells where a cascade died (dense indices). Re-detecting them
    /// would retry the same doomed walk (AR has no mechanism that could
    /// do better on a second attempt), so they stay blacklisted — this
    /// is also what bounds AR in the under-provisioned regime the paper
    /// excludes ("requires at least 4×m×n deployed nodes").
    failed_holes: wsn_grid::HoleSet,
    ttl: usize,
    /// Current holes (dense row-major indices), maintained from the
    /// network's occupancy change journal — detection walks this in
    /// O(holes) instead of scanning every cell (word-level
    /// [`wsn_grid::HoleSet`], ascending order). AR keeps its redundant
    /// multi-initiation *per hole*; only hole discovery is indexed.
    pending_holes: wsn_grid::HoleSet,
    /// Scratch buffer reused by detection sweeps.
    detect_buf: Vec<usize>,
    /// The network model, when driven by the event engine
    /// ([`ArProtocol::with_net_model`]); `None` in classic mode, where
    /// detection and asks are axiomatic.
    link: Option<NetLink>,
}

impl<'n> ArProtocol<'n> {
    /// Creates the protocol and elects initial heads. Events are
    /// recorded into `trace` (pass [`TraceLog::disabled`] to record
    /// nothing).
    pub fn new(net: &'n mut GridNetwork, config: ArConfig, trace: TraceLog) -> ArProtocol<'n> {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let ttl = if config.ttl == 0 {
            net.system().cell_count()
        } else {
            config.ttl
        };
        let cells = net.system().cell_count();
        let mut pending_holes = wsn_grid::HoleSet::new(cells);
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        let owners = OwnerCounts::new(net.system());
        ArProtocol {
            net,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            survivors: Vec::new(),
            owners,
            next_id: 0,
            initiated: vec![0; cells],
            initiated_holes: Vec::new(),
            failed_holes: wsn_grid::HoleSet::new(cells),
            ttl,
            pending_holes,
            detect_buf: Vec::new(),
            link: None,
        }
    }

    /// Like [`ArProtocol::new`] but with every monitor probe and cascade
    /// ask routed through `spec`'s network model. The link draws from
    /// its own [`derive_stream_seed`]ed stream (tag
    /// [`NET_STREAM_TAG`], shared with the SR/SR-SC event engines), so
    /// under [`NetModelSpec::Ideal`] runs are identical to classic runs.
    pub fn with_net_model(
        net: &'n mut GridNetwork,
        config: ArConfig,
        spec: NetModelSpec,
        trace: TraceLog,
    ) -> ArProtocol<'n> {
        let link = spec.link(derive_stream_seed(config.seed, &[NET_STREAM_TAG]));
        let mut p = ArProtocol::new(net, config, trace);
        p.link = Some(link);
        p
    }

    /// Marks all still-active processes failed (at the end of the run).
    /// Processes whose ask was still in flight count as
    /// [`wsn_simcore::ProtocolHealth::stalled_repairs`].
    fn fail_remaining(&mut self, round: u64) {
        for p in std::mem::take(&mut self.active) {
            self.metrics.processes_failed += 1;
            if p.ready_at > round {
                if let Some(link) = &mut self.link {
                    link.health.stalled_repairs += 1;
                }
            }
            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                process: p.id,
                reason: "run ended".into(),
            });
            self.retire(p);
        }
    }

    /// Starts `p` as the owner of its target. This, [`Self::relay`] and
    /// [`Self::retire`] are the only places that add, re-home or remove
    /// an owner, so the owner table always matches the cascades alive
    /// (in `active`, or in hand during a round).
    fn enlist(&mut self, p: ArProcess) {
        self.owners.add(p.current_target);
        self.active.push(p);
    }

    /// Relays `p` one hop: the cell it asked becomes its target (the
    /// asked head just moved out of it), and it asks `next`.
    fn relay(&mut self, p: &mut ArProcess, next: GridCoord) {
        self.owners.remove(p.current_target);
        self.owners.add(p.asked);
        p.visited.push(p.asked);
        p.current_target = p.asked;
        p.asked = next;
        p.hops += 1;
    }

    /// Ends `p` (converged or failed), releasing its target.
    fn retire(&mut self, p: ArProcess) {
        self.owners.remove(p.current_target);
    }

    /// Routes a cascade ask over the network model. Returns the round
    /// the ask becomes actionable, or `None` when the network dropped it
    /// (`0` — immediately actionable — in classic mode).
    fn route_ask(&mut self, from: GridCoord, to: GridCoord, round: u64) -> Option<u64> {
        let Some(link) = &mut self.link else {
            return Some(0);
        };
        let sys = self.net.system();
        let fate = link.route(
            cell_endpoint(sys, from),
            cell_endpoint(sys, to),
            cell_center(sys),
        );
        let deliver_at = match fate {
            Fate::Deliver(extra) => Some(round + 1 + extra),
            Fate::Drop => {
                link.health.lost_cascades += 1;
                None
            }
        };
        self.trace.record_with(round, || TraceEvent::NetMessage {
            msg: "cascade_ask".into(),
            from: from.into(),
            to: to.into(),
            deliver_at,
        });
        deliver_at
    }

    /// A monitor's same-tick occupancy probe of a watched hole. Always
    /// succeeds in classic mode.
    fn probe(&mut self, monitor: GridCoord, hole: GridCoord, round: u64) -> bool {
        let Some(link) = &mut self.link else {
            return true;
        };
        let sys = self.net.system();
        let probed = link.sense(
            cell_endpoint(sys, monitor),
            cell_endpoint(sys, hole),
            cell_center(sys),
        );
        self.trace.record_with(round, || TraceEvent::NetMessage {
            msg: "monitor_probe".into(),
            from: monitor.into(),
            to: hole.into(),
            deliver_at: probed.then_some(round),
        });
        probed
    }

    fn is_occupied(&self, cell: GridCoord) -> bool {
        !self.net.is_vacant(cell).unwrap_or(true)
    }

    /// Whether `cell` can host a head — in bounds and not disabled by
    /// the network's region mask. Disabled cells read as occupied in the
    /// vacancy index (they are never holes), so cascades must filter
    /// them out explicitly before relaying through or initiating from
    /// them.
    fn is_usable(&self, cell: GridCoord) -> bool {
        self.net.is_cell_enabled(cell).unwrap_or(false)
    }

    /// Moves `node` into the central area of `target`; elects it head if
    /// the target was headless. Unlike SR's, the target may already be
    /// occupied (a redundant delivery), and then its head stays.
    fn execute_move(&mut self, process: u64, node: NodeId, target: GridCoord, round: u64) -> f64 {
        let (u, v) = (self.rng.uniform_f64(), self.rng.uniform_f64());
        let out = self
            .net
            .move_into_cell(node, target, u, v)
            .expect("AR moves into enabled cells");
        self.metrics.record_move(out.distance);
        self.metrics.energy += self.energy.movement(out.distance);
        self.trace.record(
            round,
            TraceEvent::NodeMoved {
                process: Some(process),
                node,
                from: out.from.into(),
                to: out.to.into(),
                distance: out.distance,
            },
        );
        out.distance
    }

    /// Picks the next cell of a cascade using 1-hop knowledge (heads
    /// beacon their cell's enabled count, so a head knows which neighbors
    /// hold spares): prefer an unvisited neighbor **with a spare**, then
    /// the straight-line continuation away from the target, then any
    /// occupied unvisited neighbor. A cascade with no occupied unvisited
    /// neighbor is dead-ended.
    ///
    /// Candidates are visited in one pass, straight continuation first
    /// and then [`Direction::ALL`] order, so the first candidate with a
    /// spare wins and the first occupied one is the fallback. Nothing is
    /// collected, so a step allocates nothing.
    fn next_cell(&self, p: &ArProcess) -> Option<GridCoord> {
        let sys = self.net.system();
        let straight = p
            .current_target
            .direction_to(p.asked)
            .and_then(|d| sys.neighbor(p.asked, d));
        let around = Direction::ALL
            .iter()
            .filter_map(|&d| sys.neighbor(p.asked, d))
            .filter(|&c| Some(c) != straight);
        let mut occupied = None;
        for c in straight.into_iter().chain(around) {
            if !self.is_usable(c) || p.visited.contains(&c) || c == p.current_target {
                continue;
            }
            if self.net.spare_count(c).is_ok_and(|n| n > 0) {
                return Some(c);
            }
            if occupied.is_none() && self.is_occupied(c) {
                occupied = Some(c);
            }
        }
        occupied
    }

    fn fail(&mut self, p: ArProcess, reason: &str, round: u64) {
        let sys = self.net.system();
        let hole = sys.index_of(p.current_target).expect("in bounds");
        self.failed_holes.insert(hole);
        self.metrics.processes_failed += 1;
        self.trace.record_with(round, || TraceEvent::ProcessFailed {
            process: p.id,
            reason: reason.into(),
        });
        self.retire(p);
    }
}

impl SchemeProtocol for ArProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.metrics,
            processes: Vec::new(),
            health: self.link.map(|l| l.health).unwrap_or_default(),
            trace: self.trace,
        }
    }
}

impl RoundProtocol for ArProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        let repaired = self.net.repair_heads(self.config.election, &mut self.rng);
        progress |= repaired > 0;

        // Processes execute in id order within the round; conflicts are
        // emergent — a cascade whose cell was drained by an earlier
        // cascade this round finds it vacant and fails.
        let mut processes = std::mem::take(&mut self.active);
        let mut still_active = std::mem::take(&mut self.survivors);
        for mut p in processes.drain(..) {
            if round < p.ready_at {
                // The ask is still in flight; the asked head does not
                // yet know it has been drafted.
                still_active.push(p);
                continue;
            }
            if !self.is_occupied(p.asked) {
                // No head to act and no synchronization to wait under:
                // either the cell was a hole all along or a competing
                // cascade just drained it (the paper's "overreaction").
                self.fail(p, "cascade ran into a vacant cell", round);
                progress = true;
                continue;
            }
            let spare = self
                .config
                .spare_selection
                .pick(self.net, p.asked, p.current_target);
            if let Some(spare) = spare {
                self.execute_move(p.id, spare, p.current_target, round);
                self.metrics.processes_converged += 1;
                self.trace.record(
                    round,
                    TraceEvent::ProcessConverged {
                        process: p.id,
                        moves: p.hops as u64 + 1,
                    },
                );
                self.retire(p);
                progress = true;
                continue;
            }
            if p.hops + 1 >= self.ttl {
                self.fail(p, "ttl exhausted", round);
                progress = true;
                continue;
            }
            match self.next_cell(&p) {
                Some(next) => {
                    self.metrics.record_message();
                    self.metrics.energy += self.energy.message_cost;
                    let ask = self.route_ask(p.asked, next, round);
                    // The relaying head committed when it sent the ask:
                    // it moves whether or not the ask survives the
                    // channel (the honest failure mode — a stranded
                    // cascade, not a clairvoyant abort).
                    let head = self
                        .net
                        .head_of(p.asked)
                        .expect("in bounds")
                        .expect("occupied cells are headed after repair");
                    self.execute_move(p.id, head, p.current_target, round);
                    self.relay(&mut p, next);
                    match ask {
                        Some(ready_at) => {
                            p.ready_at = ready_at;
                            still_active.push(p);
                        }
                        None => {
                            // Dropped in transit. The hole the cascade
                            // just created stays re-detectable: the loss
                            // was weather, not structure, so it is not
                            // blacklisted.
                            self.metrics.processes_failed += 1;
                            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                                process: p.id,
                                reason: "cascade ask lost in the network".into(),
                            });
                            self.retire(p);
                        }
                    }
                    progress = true;
                }
                None => {
                    self.fail(p, "no unvisited neighbor to continue", round);
                    progress = true;
                }
            }
        }
        self.active = still_active;
        self.survivors = processes;

        // Detection: every occupied neighbor of a vacant cell initiates,
        // once per vacancy episode. Episodes reset when the hole fills.
        let (occupancy, initiated) = (self.net.occupancy(), &mut self.initiated);
        self.initiated_holes.retain(|&hole| {
            let vacant = occupancy.is_vacant(hole);
            if !vacant {
                initiated[hole] = 0;
            }
            vacant
        });
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        self.metrics.cells_scanned += buf.len() as u64;
        for &hole_idx in &buf {
            let g = self.net.system().coord_of(hole_idx);
            // A vacancy created by a cascade relaying through is owned by
            // that cascade (its own tail refills it); without this, every
            // relay would spawn up to three fresh processes and the
            // network would storm. The paper's AR redundancy is the
            // multiple *initial* detectors per hole, modeled below.
            if self.owners.is_owned(g) {
                continue;
            }
            if self.failed_holes.contains(hole_idx) {
                continue; // a cascade already died here; see field docs
            }
            let mut spawned_for_hole = 0u64;
            for (bit, &d) in Direction::ALL.iter().enumerate() {
                let Some(w) = self.net.system().neighbor(g, d) else {
                    continue;
                };
                let monitor = 1u8 << bit;
                if !self.is_usable(w)
                    || !self.is_occupied(w)
                    || self.initiated[hole_idx] & monitor != 0
                {
                    continue;
                }
                if !self.probe(w, g, round) {
                    // The probe drowned; this monitor retries next round
                    // (its bit for this hole stays clear).
                    continue;
                }
                if self.initiated[hole_idx] == 0 {
                    self.initiated_holes.push(hole_idx);
                }
                self.initiated[hole_idx] |= monitor;
                if spawned_for_hole > 0 {
                    if let Some(link) = &mut self.link {
                        // AR's defining defect, now measured: every
                        // process past the first duplicates a repair
                        // already underway.
                        link.health.duplicate_initiations += 1;
                    }
                }
                spawned_for_hole += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.metrics.processes_initiated += 1;
                self.trace.record(
                    round,
                    TraceEvent::ProcessInitiated {
                        process: id,
                        hole: g.into(),
                        initiator: w.into(),
                    },
                );
                self.enlist(ArProcess {
                    id,
                    current_target: g,
                    asked: w,
                    visited: vec![g],
                    hops: 0,
                    ready_at: 0,
                });
                progress = true;
            }
        }
        self.detect_buf = buf;
        self.owners
            .debug_check(self.active.iter().map(|p| p.current_target));

        // An ask in flight is scheduled work: the run must not go
        // quiescent while one is still traveling. Never fires in classic
        // mode (ready_at stays 0).
        progress |= self.active.iter().any(|p| p.ready_at > round);

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
    use crate::Ar;
    use wsn_coverage::scheme::{DriveMode, ReplacementScheme, SchemeReport};
    use wsn_grid::{deploy, GridSystem};

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

    fn run_ar(net: &mut GridNetwork, seed: u64, mode: DriveMode) -> SchemeReport {
        Ar::new().run(net, seed, mode).unwrap()
    }

    #[test]
    fn single_hole_recovers_but_with_multiple_processes() {
        let hole = GridCoord::new(2, 2);
        let mut net = network_with_holes(6, 6, &[hole], 2, 1);
        let report = run_ar(&mut net, 1, DriveMode::Classic);
        assert!(report.fully_covered);
        // The headline AR defect: an interior hole has 4 occupied
        // neighbors, so 4 processes fire for one hole (SR fires 1).
        assert_eq!(report.metrics.processes_initiated, 4);
        assert!(report.metrics.processes_converged >= 1);
        // Redundant deliveries => more than one movement for one hole.
        assert!(report.metrics.moves >= 1);
        net.debug_invariants();
    }

    #[test]
    fn corner_hole_gets_two_processes() {
        let hole = GridCoord::new(0, 0);
        let mut net = network_with_holes(6, 6, &[hole], 2, 3);
        let report = run_ar(&mut net, 3, DriveMode::Classic);
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 2);
    }

    #[test]
    fn ar_moves_exceed_sr_moves_on_dense_networks() {
        // The paper's headline comparison at healthy density.
        use wsn_coverage::Sr;
        let holes = [
            GridCoord::new(1, 1),
            GridCoord::new(4, 2),
            GridCoord::new(2, 4),
        ];
        let ar = run_ar(
            &mut network_with_holes(6, 6, &holes, 3, 5),
            5,
            DriveMode::Classic,
        );
        let sr = Sr::new()
            .run(
                &mut network_with_holes(6, 6, &holes, 3, 5),
                5,
                DriveMode::Classic,
            )
            .unwrap();
        assert!(ar.fully_covered && sr.fully_covered);
        assert!(
            ar.metrics.processes_initiated > sr.metrics.processes_initiated,
            "AR {} vs SR {} processes",
            ar.metrics.processes_initiated,
            sr.metrics.processes_initiated
        );
        assert!(
            ar.metrics.moves >= sr.metrics.moves,
            "AR {} vs SR {} moves",
            ar.metrics.moves,
            sr.metrics.moves
        );
    }

    #[test]
    fn vacant_neighbor_dead_end_fails_cleanly() {
        // A 2x2 block of holes: cascades bump into vacant cells.
        let holes = [
            GridCoord::new(2, 2),
            GridCoord::new(3, 2),
            GridCoord::new(2, 3),
            GridCoord::new(3, 3),
        ];
        let mut net = network_with_holes(6, 6, &holes, 2, 7);
        let report = run_ar(&mut net, 7, DriveMode::Classic);
        // Recovery may or may not complete, but the run must terminate
        // and account every process.
        assert!(report.run.is_quiescent());
        assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        net.debug_invariants();
    }

    #[test]
    fn no_spares_cannot_complete_coverage() {
        // With 15 nodes for 16 cells AR can shuffle the hole around —
        // uncoordinated cascades even dump nodes into occupied cells,
        // creating transient "spares" for other cascades (the redundancy
        // defect) — but coverage can never complete, and the run must
        // terminate with every process accounted for.
        let mut net = network_with_holes(4, 4, &[GridCoord::new(1, 1)], 1, 9);
        assert_eq!(net.total_spares(), 0);
        let report = run_ar(&mut net, 9, DriveMode::Classic);
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.final_stats.vacant >= 1);
        assert!(report.metrics.processes_failed >= 1);
        assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        net.debug_invariants();
    }

    #[test]
    fn cascade_never_reenters_a_cell_it_relayed_through() {
        // A 4x4 grid masked down to seven cells, one node in each but
        // the hole H and two in S:
        //
        //   y=2  H 1 2 .     H: the hole; 1-4: the cascade's relays in
        //   y=1  . 4 3 .        order; X: the way out; S: the only
        //   y=0  S X . .        spare's cell; row y=3 is all disabled.
        //
        // H's one usable neighbour, 1, starts the only process, and each
        // relay has a single way on until 4. There the north neighbour
        // is 1 again: refilled by 2's head, so occupied, and first in
        // `Direction::ALL` order ahead of X in the south. Only the record
        // of 1 in the cascade's path sends it to X and on to S; without
        // it the cascade circles 1-2-3-4 until its TTL runs out and
        // strands a hole.
        let enabled = [(0, 2), (1, 2), (2, 2), (2, 1), (1, 1), (1, 0), (0, 0)];
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mask = wsn_grid::RegionMask::from_fn(4, 4, |c| enabled.contains(&(c.x, c.y)));
        let hole = GridCoord::new(0, 2);
        let mut rng = SimRng::seed_from_u64(17);
        let mut pos = deploy::with_holes_masked(&sys, &mask, &[hole], 1, &mut rng);
        pos.push(sys.cell_center(GridCoord::new(0, 0)).unwrap());
        let mut net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        let report = run_ar(&mut net, 17, DriveMode::Classic);
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.metrics.processes_initiated, 1);
        assert_eq!(report.metrics.processes_converged, 1);
        // Five relays (1, 2, 3, 4, X) and the spare's move into X.
        assert_eq!(report.metrics.moves, 6);
        net.debug_invariants();
    }

    #[test]
    fn masked_region_recovers_without_entering_disabled_cells() {
        use wsn_grid::RegionShape;
        for (i, shape) in RegionShape::IRREGULAR.into_iter().enumerate() {
            let sys = GridSystem::new(10, 10, 4.4721).unwrap();
            let mask = shape.build_mask(10, 10);
            let mut rng = SimRng::seed_from_u64(40 + i as u64);
            let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
            let holes: Vec<GridCoord> = enabled.iter().copied().step_by(13).collect();
            let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
            let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
            let report = run_ar(&mut net, 40 + i as u64, DriveMode::Classic);
            assert!(report.run.is_quiescent(), "{shape}");
            assert!(report.fully_covered, "{shape}: {report}");
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
    fn event_ideal_matches_classic() {
        let mk = || network_with_holes(6, 6, &[GridCoord::new(2, 2), GridCoord::new(4, 4)], 2, 31);
        let (classic, classic_trace) = Ar::new()
            .run_traced(&mut mk(), 31, DriveMode::Classic)
            .unwrap();
        let mut net = mk();
        let ideal = DriveMode::EventDriven {
            net: NetModelSpec::Ideal,
        };
        let report = run_ar(&mut net, 31, ideal);
        assert_eq!(report, classic);
        assert_eq!(report.metrics, classic.metrics);
        assert!(report.health.messages_sent > 0);
        // The classic drive has no link: it routes and counts nothing.
        assert_eq!(classic.health, wsn_simcore::ProtocolHealth::default());
        assert_eq!(classic_trace.count_kind("net_message"), 0);
        // AR's redundancy, measured: an interior hole spawns 4 processes,
        // 3 of which duplicate a repair already underway.
        assert!(report.health.duplicate_initiations >= 3);
        assert_eq!(report.health.lost_cascades, 0);
        net.debug_invariants();
    }

    #[test]
    fn lossy_event_runs_lose_cascades() {
        let drive = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 300_000,
                latency: 1,
            },
        };
        let mut lost = 0u64;
        let mut dropped = 0u64;
        for seed in 0..16 {
            // One node per cell plus a lone corner spare: every repair
            // must cascade across the grid, exposing asks to the weather.
            let sys = GridSystem::new(6, 6, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pos = deploy::with_holes(&sys, &[GridCoord::new(3, 3)], 1, &mut rng);
            pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
            let mut net = GridNetwork::new(sys, &pos);
            let report = run_ar(&mut net, seed, drive);
            lost += report.health.lost_cascades;
            dropped += report.health.messages_dropped;
            assert!(report.run.is_quiescent(), "seed {seed}");
            assert_eq!(
                report.metrics.processes_initiated,
                report.metrics.processes_converged + report.metrics.processes_failed,
                "seed {seed}"
            );
            net.debug_invariants();
        }
        assert!(dropped > 0, "30% loss must drop something across 16 runs");
        assert!(lost > 0, "some dropped ask must strand a cascade");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut net = network_with_holes(6, 6, &[GridCoord::new(3, 3)], 2, 11);
            run_ar(&mut net, seed, DriveMode::Classic)
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn report_display_nonempty() {
        let mut net = network_with_holes(4, 4, &[], 2, 13);
        let report = run_ar(&mut net, 0, DriveMode::Classic);
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert!(!report.to_string().is_empty());
    }
}
