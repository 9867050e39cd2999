//! The round-based SR protocol: Algorithm 1 (single directed Hamilton
//! cycle) and Algorithm 2 (dual-path structure for odd×odd grids).
//!
//! # Round semantics (from the paper)
//!
//! The paper describes the scheme "in a round-based system". Every round:
//!
//! 1. scheduled faults fire (nodes are disabled; new holes may appear);
//! 2. cells that lost their head but still hold members re-elect locally
//!    ("the role of each head can be rotated within the grid" — no
//!    movement needed);
//! 3. each active replacement process performs **one** action:
//!    * if the asked cell has a spare, the spare moves into the process's
//!      vacant cell and becomes its head — the process **converges**;
//!    * otherwise the asked head sends a notification backward (one
//!      message) and moves itself into the vacant cell, leaving its own
//!      cell vacant for the cascade — the snake advances one hop;
//!    * if the asked cell is itself vacant (another hole), the process
//!      **waits**: the paper's step 3(b) ("wait until the corresponding
//!      head w receives this notification") cannot complete until that
//!      hole is repaired by its own process;
//!    * if the walk has gone all the way around without finding a spare,
//!      the process **fails**;
//! 4. every vacant cell not already owned by an active process is
//!    detected by its (unique) monitoring head, which initiates a new
//!    process — the paper's synchronization guarantees one and only one
//!    initiation per hole.
//!
//! Within a round, processes act in id order; this sequential resolution
//! is deterministic and only matters in the rare dual-path corner where
//! two processes share an asked cell (`C` watches both `A` and `B`).
//!
//! One engine serves both drives. The classic drive has no link, so a
//! notification is known the round after it is sent. The event drive
//! ([`DriveMode::EventDriven`]) adds a step 0 — the batons due this
//! round land first, in process-id order — and a process acts only
//! while its asked head holds the notification baton
//! ([`crate::actor`]).

use wsn_grid::{GridCoord, GridNetwork};
use wsn_hamilton::{BackwardStep, CycleTopology};
use wsn_simcore::{Metrics, ProtocolHealth, TraceEvent, TraceLog};

use crate::actor::{BatonState, Wire};
use crate::process::ProcessId;
use crate::run::Run;
use crate::scheme::{DriveMode, ProtocolOutcome, SchemeProtocol};
use crate::{OwnerCounts, SrConfig};

/// Internal outcome of resolving the next backward hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackwardResolution {
    /// Relay and continue at this cell.
    Next(GridCoord),
    /// No occupied cell to relay through right now; retry next round.
    Wait,
    /// The walk covered the whole structure: no spare exists.
    Exhausted,
}

#[derive(Debug, Clone, Copy)]
struct ActiveProcess {
    id: ProcessId,
    hole: GridCoord,
    /// The cell currently needing a node (the snake's head).
    current_vacant: GridCoord,
    /// The cell whose head must act next.
    asked: GridCoord,
    /// Where the notification to `asked` is; always `Held` without a
    /// link.
    baton: BatonState,
    /// Ended this round: a tombstone until the round's one compaction.
    retired: bool,
}

/// What SR holds only because a notification can be late or lost.
#[derive(Debug)]
struct SrLink {
    wire: Wire,
    /// Active processes per `current_vacant` cell whose asked head holds
    /// the baton.
    held: OwnerCounts,
    /// Per cell, `round + 1` of the last relay that vacated it (0 =
    /// never): the one-round window in which its monitor may not yet
    /// have observed the vacancy, so detection does not treat it as
    /// unowned.
    vacated_at: Vec<u64>,
}

/// The SR protocol over a borrowed network and a cycle topology, one
/// round at a time via [`SchemeProtocol::execute_round`].
///
/// Under [`DriveMode::Classic`] it has no link: notifications are known
/// the round after they are sent. Under [`DriveMode::EventDriven`] the
/// same rounds route every inter-cell exchange through a network model
/// (the [`crate::actor`] messages), so latency and loss become
/// protocol inputs.
///
/// Most callers run SR through [`crate::Sr`], which hands this to
/// [`crate::scheme::run_to_quiescence`]; the protocol type is public for
/// custom drivers (e.g. lock-step comparisons against baselines).
#[derive(Debug)]
pub struct SrProtocol<'n> {
    run: Run<'n>,
    topo: CycleTopology,
    /// Active processes that can still act, in id order (ids are issued
    /// ascending and compaction keeps order), which is the order their
    /// batons land in. A process that ends mid-round stays as a
    /// tombstone until [`Self::compact`] at the end of the round's
    /// steps, which also parks every process whose baton the link
    /// dropped in `stranded`; so `active` never holds a lost baton, and
    /// a round visits only processes that can act.
    active: Vec<ActiveProcess>,
    /// Active processes whose baton the link dropped
    /// ([`BatonState::Lost`]), in the order they lost it. Nobody holds
    /// their notification, so they never act again, but they still own
    /// their vacancy: a monitor that re-initiates it counts a duplicate.
    /// They fail with the rest, in id order, when the run ends.
    stranded: Vec<ActiveProcess>,
    /// Active processes per `current_vacant` cell, stranded ones
    /// included: detection's "already owned" check without scanning
    /// `active`.
    owners: OwnerCounts,
    /// The network model under the event drive; `None` in the classic
    /// drive, which routes and counts nothing.
    link: Option<SrLink>,
}

impl<'n> SrProtocol<'n> {
    /// Creates the protocol for `drive`, electing initial heads in every
    /// occupied cell with the run RNG seeded from `seed`. Events are
    /// recorded into `trace` (pass [`TraceLog::disabled`] to record
    /// nothing).
    ///
    /// Under [`DriveMode::EventDriven`] the link draws from its own
    /// stream of `seed` ([`Wire::for_drive`]), so under
    /// [`wsn_simcore::NetModelSpec::Ideal`] the run equals the classic
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `topo` and `net` disagree on grid dimensions (they must
    /// be built from the same [`wsn_grid::GridSystem`]).
    pub fn new(
        net: &'n mut GridNetwork,
        topo: CycleTopology,
        config: SrConfig,
        seed: u64,
        drive: DriveMode,
        trace: TraceLog,
    ) -> SrProtocol<'n> {
        assert_eq!(
            (topo.cols(), topo.rows()),
            (net.system().cols(), net.system().rows()),
            "topology and network dimensions must match"
        );
        let owners = OwnerCounts::new(net.system());
        let link = Wire::for_drive(drive, net.system(), seed).map(|wire| SrLink {
            wire,
            held: owners.clone(),
            vacated_at: vec![0; net.system().cell_count()],
        });
        SrProtocol {
            run: Run::new(net, config, seed, trace),
            topo,
            active: Vec::new(),
            stranded: Vec::new(),
            owners,
            link,
        }
    }

    /// Cost counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.run.metrics
    }

    /// Number of processes still active (cascading, waiting, or
    /// stranded by a lost baton).
    pub fn active_processes(&self) -> usize {
        self.active.len() + self.stranded.len()
    }

    /// The health ledger, under the event drive.
    fn health(&mut self) -> Option<&mut ProtocolHealth> {
        self.link.as_mut().map(|l| l.wire.health())
    }

    /// Marks all still-active processes failed (at the end of the run,
    /// anything still active is stuck behind an unfillable hole).
    /// Processes whose baton was in flight or lost are additionally
    /// counted as [`ProtocolHealth::stalled_repairs`].
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let reason = if p.baton == BatonState::Held {
                "no reachable spare (run ended)"
            } else {
                if let Some(health) = self.health() {
                    health.stalled_repairs += 1;
                }
                "notification lost in the network (run ended)"
            };
            self.run.fail(p.id, round, reason);
        }
    }

    /// Starts `p` as an owner. This, [`Self::relay`], [`Self::land`],
    /// [`Self::retire`] and [`Self::retire_all`] are the only places that
    /// add, change or end a process, so the owner tables always match
    /// the live entries of `active`.
    fn enlist(&mut self, p: ActiveProcess) {
        self.claim(p);
        self.active.push(p);
    }

    /// Moves process `i`'s ownership to `vacant`, the cell its relay just
    /// emptied in `round`, and points it at `asked` with its notification
    /// `baton`.
    fn relay(
        &mut self,
        i: usize,
        (vacant, asked): (GridCoord, GridCoord),
        baton: BatonState,
        round: u64,
    ) {
        let p = &mut self.active[i];
        self.owners.remove(p.current_vacant);
        self.owners.add(vacant);
        if let Some(link) = &mut self.link {
            if p.baton == BatonState::Held {
                link.held.remove(p.current_vacant);
            }
            if baton == BatonState::Held {
                link.held.add(vacant);
            }
            let sys = self.run.net.system();
            link.vacated_at[sys.index_of(vacant).expect("relay cells are in bounds")] = round + 1;
        }
        p.current_vacant = vacant;
        p.asked = asked;
        p.baton = baton;
    }

    /// Hands process `i` its baton: the notification to its asked head
    /// arrived.
    fn land(&mut self, i: usize) {
        let p = &mut self.active[i];
        if p.baton != BatonState::Held {
            p.baton = BatonState::Held;
            if let Some(link) = &mut self.link {
                link.held.add(p.current_vacant);
            }
        }
    }

    /// Ends process `i` (converged, failed or superseded), releasing its
    /// cell. Its entry stays as a tombstone, so ending a process shifts
    /// nothing; [`Self::compact`] drops it.
    fn retire(&mut self, i: usize) -> ActiveProcess {
        let p = self.active[i];
        self.active[i].retired = true;
        self.release(p);
        p
    }

    /// Drops the round's tombstones and parks its lost batons in
    /// `stranded`, in one ordered pass: a round that ends k of n
    /// processes touches each entry once, not k·n times.
    fn compact(&mut self) {
        let stranded = &mut self.stranded;
        self.active.retain(|p| {
            if p.baton == BatonState::Lost && !p.retired {
                stranded.push(*p);
                return false;
            }
            !p.retired
        });
    }

    /// Ends every active process, stranded ones included, in id order,
    /// releasing their cells. Runs between rounds, when `active` holds
    /// no tombstone.
    fn retire_all(&mut self) -> Vec<ActiveProcess> {
        let mut all = std::mem::take(&mut self.active);
        all.append(&mut self.stranded);
        all.sort_unstable_by_key(|p| p.id);
        for &p in &all {
            self.release(p);
        }
        all
    }

    fn claim(&mut self, p: ActiveProcess) {
        self.owners.add(p.current_vacant);
        if let Some(link) = &mut self.link {
            if p.baton == BatonState::Held {
                link.held.add(p.current_vacant);
            }
        }
    }

    fn release(&mut self, p: ActiveProcess) {
        self.owners.remove(p.current_vacant);
        if let Some(link) = &mut self.link {
            if p.baton == BatonState::Held {
                link.held.remove(p.current_vacant);
            }
        }
    }

    fn spare_count(&self, cell: GridCoord) -> usize {
        self.run.net.spare_count(cell).unwrap_or(0)
    }

    fn is_occupied(&self, cell: GridCoord) -> bool {
        !self.run.net.is_vacant(cell).unwrap_or(true)
    }

    /// Resolves the next asked cell when `asked` must relay, applying the
    /// spare-aware fork/probe rules of Algorithm 2.
    fn resolve_backward(&self, asked: GridCoord, hole: GridCoord) -> BackwardResolution {
        let Some(step) = self.topo.backward_from(asked, hole) else {
            // The walk went all the way around the structure.
            return BackwardResolution::Exhausted;
        };
        match step {
            BackwardStep::One(p) => BackwardResolution::Next(p),
            BackwardStep::ForkAB { a, b } => {
                // "either A or B will be notified when any of them has at
                // least one spare node" — prefer A (case two's stated
                // preference); relay through an occupied special when
                // neither has spares; when both specials are themselves
                // holes, wait for their own processes to repair them.
                if self.spare_count(a) > 0 {
                    BackwardResolution::Next(a)
                } else if self.spare_count(b) > 0 {
                    BackwardResolution::Next(b)
                } else if self.is_occupied(a) {
                    BackwardResolution::Next(a)
                } else if self.is_occupied(b) {
                    BackwardResolution::Next(b)
                } else {
                    BackwardResolution::Wait
                }
            }
            BackwardStep::ProbeThen { probe, next } => {
                // "grid A with spare nodes is always preferred before the
                // replacement continues to stretch along path one."
                if self.spare_count(probe) > 0 {
                    BackwardResolution::Next(probe)
                } else {
                    BackwardResolution::Next(next)
                }
            }
        }
    }

    /// Terminates process `i` because its target vacancy was already
    /// refilled by a duplicate when its baton (re)surfaced. Only a late
    /// or lost notification lets a duplicate start, so this never
    /// happens without a link, nor under `Ideal`.
    fn terminate_superseded(&mut self, i: usize, round: u64) {
        let p = self.retire(i);
        if let Some(health) = self.health() {
            health.superseded_repairs += 1;
        }
        self.run
            .fail(p.id, round, "superseded by a duplicate repair");
    }

    /// Lands every baton due this round, in id order (the order they
    /// were sent in; see [`crate::actor`]). Returns `true` when a landing
    /// ended a process (a superseded repair).
    fn land_due(&mut self, round: u64) -> bool {
        let mut progress = false;
        for i in 0..self.active.len() {
            if !self.active[i].baton.is_due(round) {
                continue;
            }
            if self.is_occupied(self.active[i].current_vacant) {
                self.terminate_superseded(i, round);
                progress = true;
            } else {
                self.land(i);
            }
        }
        progress
    }

    /// One action for one process, gated on holding the baton. Returns
    /// `true` when the process made progress (moved or ended), `false`
    /// when it waited.
    fn step_process(&mut self, idx: usize, round: u64) -> bool {
        let p = self.active[idx];
        if p.retired {
            // A delivery this round superseded it.
            return false;
        }
        if self.link.is_some() {
            if p.baton != BatonState::Held {
                // The asked head has not received the notification yet
                // (or never will); nothing to act on.
                return false;
            }
            if self.is_occupied(p.current_vacant) {
                // A duplicate repair filled the target while the baton
                // sat here.
                self.terminate_superseded(idx, round);
                return true;
            }
        }
        // A vacant asked cell means the notification target does not
        // exist yet (paper step 3(b)); wait for that hole's own process.
        if !self.is_occupied(p.asked) {
            return false;
        }
        let run = &mut self.run;
        // Asynchronous mode: the head that should act may not be
        // scheduled this round. Deferred work is still pending progress
        // (unlike waiting, which resolves only through another process).
        if run.config.activation_probability < 1.0
            && !run.rng.bernoulli(run.config.activation_probability)
        {
            return true;
        }
        let spare = run
            .config
            .spare_selection
            .pick(run.net, p.asked, p.current_vacant);
        if let Some(spare) = spare {
            // Algorithm 1 step 2: a spare fills the vacancy; converge.
            // Head → co-located spare: ask, then order the move. One
            // radio neighborhood, so neither message can be lost.
            if let Some(link) = &mut self.link {
                link.wire.link.local(); // SpareRequest
                link.wire.link.local(); // MoveNotify
            }
            run.execute_move(p.id, spare, p.current_vacant, round);
            run.converge(p.id, round);
            self.retire(idx);
            if let Some(link) = &mut self.link {
                let (from, to) = (p.current_vacant, p.asked);
                let sys = self.run.net.system();
                let trace = &mut self.run.trace;
                link.wire.send(sys, from, to, "move_ack", round, trace);
            }
            return true;
        }
        // Algorithm 1 step 3: no spare — notify backward, relay forward.
        match self.resolve_backward(p.asked, p.hole) {
            BackwardResolution::Wait => false,
            BackwardResolution::Next(next_asked) => {
                let run = &mut self.run;
                // The sender pays for the transmission whether or not it
                // arrives …
                run.metrics.record_message();
                run.metrics.energy += run.energy.message_cost;
                run.trace
                    .record_with(round, || TraceEvent::NotificationSent {
                        process: p.id.raw(),
                        from: p.asked.into(),
                        to: next_asked.into(),
                    });
                // … then, over a link, the message takes its chances on
                // the channel.
                let baton = match &mut self.link {
                    None => BatonState::Held,
                    Some(link) => {
                        let (sys, trace) = (run.net.system(), &mut run.trace);
                        let (from, to) = (p.asked, next_asked);
                        match link.wire.send(sys, from, to, "hole_announce", round, trace) {
                            Some(at) => BatonState::InFlight { at },
                            None => {
                                link.wire.health().lost_cascades += 1;
                                BatonState::Lost
                            }
                        }
                    }
                };
                // The relaying head moves regardless: it committed the
                // moment it sent the notification (the honest failure
                // mode — a lost baton, not a clairvoyant abort).
                let head = run
                    .net
                    .head_of(p.asked)
                    .expect("asked cell is in bounds")
                    .expect("occupied cells are headed after repair");
                run.execute_move(p.id, head, p.current_vacant, round);
                self.relay(idx, (p.asked, next_asked), baton, round);
                true
            }
            BackwardResolution::Exhausted => {
                self.run
                    .fail(p.id, round, "walk exhausted without finding a spare");
                // Spares never increase, so re-detecting this hole would
                // walk the whole structure again and fail again.
                let run = &mut self.run;
                let cell = run.net.system().index_of(p.current_vacant);
                run.failed_holes.insert(cell.expect("in bounds"));
                self.retire(idx);
                true
            }
        }
    }

    /// Detection + initiation (Algorithm 1 step 1): every vacant cell not
    /// already owned by an active process is detected by its unique
    /// monitoring head. Sweeps the network's vacancy index in ascending
    /// (row-major) order, like a full scan, at O(holes) rather than
    /// O(cells).
    ///
    /// Over a link, ownership must be observable: a hole is owned only
    /// while its process holds the baton or vacated it this very round.
    /// A stale owner (baton in flight or lost) is invisible to the
    /// monitor, which probes the hole and honestly re-initiates
    /// ([`ProtocolHealth::duplicate_initiations`]).
    ///
    /// Returns whether the sweep started a process or deferred one: a
    /// dropped probe or an asynchronous-mode monitor that was not
    /// scheduled leaves its hole to a later round, and that outstanding
    /// work keeps the round live just as an initiation does.
    fn detect_and_initiate(&mut self, round: u64) -> bool {
        let buf = self.run.sweep();
        let mut active = false;
        for &idx in &buf {
            // Ownership first: it is one array read by index, and most
            // pending holes are the vacancies running cascades own.
            let owned = match &self.link {
                None => self.owners.is_owned_at(idx),
                Some(link) => link.held.is_owned_at(idx) || link.vacated_at[idx] == round + 1,
            };
            if owned {
                continue; // the cascade for this cell is already running
            }
            if self.run.failed_holes.contains(idx) {
                continue; // unfillable until the network changes
            }
            let g = self.run.net.system().coord_of(idx);
            let monitor = self.topo.monitors(g);
            if !self.is_occupied(monitor) {
                // The monitor is itself a hole; detection resumes once it
                // is repaired (sequential recovery of hole runs).
                continue;
            }
            let run = &mut self.run;
            if let Some(link) = &mut self.link {
                let sys = run.net.system();
                if !link.wire.probe(sys, monitor, g, round, &mut run.trace) {
                    // The weather ate the probe; the monitor retries next
                    // round. Still outstanding work.
                    active = true;
                    continue;
                }
            }
            if run.config.activation_probability < 1.0
                && !run.rng.bernoulli(run.config.activation_probability)
            {
                // Asynchronous mode: this monitor was not scheduled this
                // round; the vacancy is deferred, not initiated.
                active = true;
                continue;
            }
            run.trace.record(
                round,
                TraceEvent::VacancyDetected {
                    cell: g.into(),
                    detector: monitor.into(),
                },
            );
            let id = run.initiate(g, monitor, round);
            if let Some(link) = &mut self.link {
                if self.owners.is_owned_at(idx) {
                    // A stale owner exists after all: this initiation
                    // duplicates a cascade the monitor could not observe.
                    link.wire.health().duplicate_initiations += 1;
                }
            }
            self.enlist(ActiveProcess {
                id,
                hole: g,
                current_vacant: g,
                asked: monitor,
                baton: BatonState::Held,
                retired: false,
            });
            active = true;
        }
        self.run.end_sweep(buf);
        self.owners.debug_check(
            self.active
                .iter()
                .chain(&self.stranded)
                .map(|p| p.current_vacant),
        );
        if let Some(link) = &self.link {
            link.held.debug_check(
                self.active
                    .iter()
                    .filter(|p| p.baton == BatonState::Held)
                    .map(|p| p.current_vacant),
            );
        }
        active
    }
}

impl SchemeProtocol for SrProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> bool {
        // 0. The batons due this round land before anyone acts.
        let mut progress = self.link.is_some() && self.land_due(round);

        // 1. Scheduled faults fire at the start of the round.
        progress |= self.run.apply_faults(round);
        let run = &mut self.run;

        // 2. Local head repair (election within the cell; no movement),
        //    plus periodic rotation when configured (§2: "the role of
        //    each head can be rotated within the grid"). Neither counts
        //    as protocol progress: elections are free local actions, and
        //    treating rotation as progress would keep an otherwise idle
        //    network from ever reaching quiescence.
        if let Some(period) = run.config.head_rotation_period {
            if round > 0 && round.is_multiple_of(period) {
                run.net.elect_all_heads(run.config.election, &mut run.rng);
            }
        }
        run.net.repair_heads(run.config.election, &mut run.rng);

        // 3. Process steps, in id order. A step ends at most its own
        //    process, whose tombstone the one compaction drops.
        for i in 0..self.active.len() {
            progress |= self.step_process(i, round);
        }
        self.compact();

        // 4. Detection and initiation for unowned holes. A deferred
        //    (async-mode or lost-probe) initiation is still scheduled
        //    work, so it keeps the round from going quiescent too.
        progress |= self.detect_and_initiate(round);

        // 5. Surveillance duty (battery dynamics only).
        progress |= self.run.drain_idle_heads();

        // The run must not go quiescent while messages are in flight.
        progress || self.link.as_ref().is_some_and(|l| l.wire.in_flight(round))
    }

    fn network(&self) -> &GridNetwork {
        self.run.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.run.metrics,
            processes: self.run.summaries,
            health: self.link.map(|mut l| *l.wire.health()).unwrap_or_default(),
            trace: self.run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{run_to_quiescence, SchemeReport};
    use crate::ProcessStatus;
    use wsn_grid::{deploy, GridSystem, HeadElection};
    use wsn_simcore::{NodeId, SimRng};

    /// Runs SR on `net` over its grid's cycle topology, traced.
    fn run_sr(net: &mut GridNetwork, config: SrConfig, seed: u64) -> (SchemeReport, TraceLog) {
        let (cols, rows) = (net.system().cols(), net.system().rows());
        let topo = CycleTopology::build(cols, rows).unwrap();
        let protocol =
            SrProtocol::new(net, topo, config, seed, DriveMode::Classic, TraceLog::new());
        run_to_quiescence(protocol, 10_000)
    }

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

    #[test]
    fn single_hole_with_spare_in_monitor_converges_in_one_move() {
        let hole = GridCoord::new(2, 2);
        let mut net = network_with_holes(4, 4, &[hole], 2, 1);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 1);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_initiated, 1);
        assert_eq!(report.metrics.processes_converged, 1);
        assert_eq!(report.metrics.processes_failed, 0);
        // The monitor had a spare: exactly one movement (Theorem 2, i=1).
        assert_eq!(report.metrics.moves, 1);
        assert_eq!(report.processes[0].hops, 1);
        net.debug_invariants();
    }

    #[test]
    fn hole_with_no_nearby_spares_cascades() {
        // Only one cell holds a spare: every other occupied cell has
        // exactly its head. The cascade must walk until it drains that
        // single spare, making exactly `hops` moves.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let hole = GridCoord::new(2, 2);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        // Add one extra node (a spare) in cell (0, 0).
        let rect = sys.cell_rect(GridCoord::new(0, 0)).unwrap();
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
        let mut net = GridNetwork::new(sys, &pos);
        assert_eq!(net.total_spares(), 1);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 3);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_converged, 1);
        let s = &report.processes[0];
        assert_eq!(s.moves, s.hops);
        assert!(s.hops >= 1);
        // All moves belong to the single process.
        assert_eq!(report.metrics.moves, s.moves);
        net.debug_invariants();
    }

    #[test]
    fn theorem_1_multiple_holes_all_filled() {
        let holes = [
            GridCoord::new(0, 0),
            GridCoord::new(3, 1),
            GridCoord::new(1, 3),
            GridCoord::new(2, 2),
        ];
        let mut net = network_with_holes(4, 4, &holes, 2, 7);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 7);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0, "all holes filled");
        assert_eq!(report.metrics.processes_failed, 0);
        assert_eq!(report.metrics.success_rate_percent(), 100.0);
        net.debug_invariants();
    }

    #[test]
    fn consecutive_vacant_run_fills_sequentially() {
        // A run of holes along the cycle: processes wait on each other
        // and fill one at a time.
        let topo = CycleTopology::build(4, 4).unwrap();
        let CycleTopology::Single(ref cyc) = topo else {
            panic!()
        };
        // Three consecutive cells on the cycle.
        let holes = [cyc.cell_at(5), cyc.cell_at(6), cyc.cell_at(7)];
        let mut net = network_with_holes(4, 4, &holes, 2, 9);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 9);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_failed, 0);
        net.debug_invariants();
    }

    #[test]
    fn no_spares_at_all_processes_fail() {
        let mut net = network_with_holes(4, 4, &[GridCoord::new(1, 1)], 1, 11);
        assert_eq!(net.total_spares(), 0);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 11);
        assert!(report.run.is_quiescent());
        // The hole moved around the ring but could never be filled;
        // exactly one process was initiated and it failed (the relay
        // chain exhausted L hops).
        assert!(report.metrics.processes_failed >= 1);
        assert_eq!(report.metrics.processes_converged, 0);
        assert_eq!(net.vacant_count(), 1);
        net.debug_invariants();
    }

    #[test]
    fn synchronization_exactly_one_process_per_hole() {
        // The headline SR property: a single hole triggers exactly one
        // process, never the multiple processes of AR.
        let hole = GridCoord::new(3, 3);
        let mut net = network_with_holes(6, 6, &[hole], 3, 13);
        let (report, trace) = run_sr(&mut net, SrConfig::default(), 13);
        assert_eq!(report.metrics.processes_initiated, 1);
        assert_eq!(trace.count_kind("process_initiated"), 1);
    }

    #[test]
    fn dual_path_grid_recovers_all_cases() {
        // 5x5 dual-path: test holes at the special cells A, B, C, D and a
        // chain cell.
        let topo = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref d) = topo else {
            panic!()
        };
        for (i, hole) in [d.a(), d.b(), d.c(), d.d(), d.chain()[10]]
            .into_iter()
            .enumerate()
        {
            let seed = 17 + i as u64;
            let mut net = network_with_holes(5, 5, &[hole], 2, seed);
            let (report, _) = run_sr(&mut net, SrConfig::default(), seed);
            assert!(report.run.is_quiescent(), "hole {hole}");
            assert_eq!(net.vacant_count(), 0, "hole {hole} not filled");
            assert_eq!(report.metrics.processes_failed, 0, "hole {hole}");
            net.debug_invariants();
        }
    }

    #[test]
    fn dual_path_single_spare_in_a_is_found_for_hole_d() {
        // Corollary 1's hard case: hole at D, the only spare in A. The
        // case-two probe at C must find it.
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let topo = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref dd) = topo else {
            panic!()
        };
        let (a, d) = (dd.a(), dd.d());
        let mut rng = SimRng::seed_from_u64(23);
        let mut pos = deploy::with_holes(&sys, &[d], 1, &mut rng);
        let rect = sys.cell_rect(a).unwrap();
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
        let mut net = GridNetwork::new(sys, &pos);
        assert_eq!(net.total_spares(), 1);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 23);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_failed, 0);
        net.debug_invariants();
    }

    #[test]
    fn mid_run_fault_triggers_new_recovery() {
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(29);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        // Kill both nodes of cell (2, 2) at round 3.
        let victims: Vec<NodeId> = net.members(GridCoord::new(2, 2)).unwrap().to_vec();
        let cfg = SrConfig::default()
            .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims)));
        let (report, _) = run_sr(&mut net, cfg, 29);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_converged, 1);
        net.debug_invariants();
    }

    #[test]
    fn head_loss_with_spare_present_repairs_locally_without_movement() {
        // Killing a head (but not the whole cell) must not trigger any
        // replacement process — the spare is promoted in place.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(31);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let head = net.head_of(GridCoord::new(1, 1)).unwrap().unwrap();
        net.disable_node(head).unwrap();
        let (report, _) = run_sr(&mut net, SrConfig::default(), 31);
        assert!(report.run.is_quiescent());
        assert_eq!(report.metrics.processes_initiated, 0);
        assert_eq!(report.metrics.moves, 0);
        assert_eq!(net.vacant_count(), 0);
    }

    #[test]
    fn moves_match_hops_on_converged_processes() {
        // Theorem 2 accounting: a converged process with i hops makes
        // exactly i movements.
        let holes = [GridCoord::new(0, 3), GridCoord::new(5, 0)];
        let mut net = network_with_holes(6, 6, &holes, 2, 37);
        let (report, _) = run_sr(&mut net, SrConfig::default(), 37);
        for s in &report.processes {
            assert_eq!(s.status, ProcessStatus::Converged);
            assert_eq!(s.moves, s.hops);
        }
    }

    #[test]
    fn asynchronous_mode_still_recovers() {
        // The paper: "All the schemes presented in this paper can be
        // extended easily to an asynchronous system." With heads firing
        // only 40% of rounds, recovery takes longer but converges to the
        // same coverage with the same per-process move counts.
        let holes = [GridCoord::new(1, 2), GridCoord::new(3, 0)];
        let (sync, _) = run_sr(
            &mut network_with_holes(5, 4, &holes, 2, 41),
            SrConfig::default(),
            41,
        );
        let mut net = network_with_holes(5, 4, &holes, 2, 41);
        let cfg = SrConfig::default().with_activation_probability(0.4);
        let (async_run, _) = run_sr(&mut net, cfg, 41);
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(async_run.metrics.processes_failed, 0);
        assert_eq!(
            async_run.metrics.processes_converged,
            sync.metrics.processes_converged
        );
        assert!(
            async_run.metrics.rounds >= sync.metrics.rounds,
            "async {} rounds vs sync {}",
            async_run.metrics.rounds,
            sync.metrics.rounds
        );
    }

    #[test]
    fn head_rotation_spreads_duty_without_movement() {
        // MaxEnergy rotation on an intact network: heads change, nothing
        // moves, and the run still terminates.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(53);
        let pos = deploy::per_cell_exact(&sys, 3, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let cfg = SrConfig::default()
            .with_election(HeadElection::MaxEnergy)
            .with_head_rotation(2);
        let (report, _) = run_sr(&mut net, cfg, 53);
        assert!(report.run.is_quiescent());
        assert_eq!(report.metrics.moves, 0);
        assert_eq!(report.metrics.processes_initiated, 0);
        net.debug_invariants();
    }

    #[test]
    fn rotation_with_max_energy_balances_idle_drain() {
        // Two nodes per cell, battery dynamics on, long fault horizon to
        // keep the run alive: with MaxEnergy rotation the idle duty
        // alternates between the two members; without it the same node
        // burns every round.
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let run = |rotate: bool| {
            let sys = GridSystem::new(2, 2, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(61);
            let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
            let mut net = GridNetwork::new(sys, &pos);
            // An empty kill at round 200 keeps the run alive 200 rounds.
            let plan = FaultPlan::new().at(200, FaultEvent::KillNodes(vec![]));
            let mut cfg = SrConfig::default()
                .with_battery_dynamics(true)
                .with_election(HeadElection::MaxEnergy)
                .with_fault_plan(plan);
            if rotate {
                cfg = cfg.with_head_rotation(1);
            }
            run_sr(&mut net, cfg, 61);
            // Spread of battery charge within cell (0,0).
            let members = net.members(GridCoord::new(0, 0)).unwrap();
            let charges: Vec<f64> = members
                .iter()
                .map(|&id| net.node(id).unwrap().battery().charge())
                .collect();
            let max = charges.iter().cloned().fold(f64::MIN, f64::max);
            let min = charges.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let spread_rotating = run(true);
        let spread_static = run(false);
        assert!(
            spread_rotating < spread_static,
            "rotation must balance drain: {spread_rotating} vs {spread_static}"
        );
    }

    #[test]
    fn head_rotation_during_recovery_is_harmless() {
        let holes = [GridCoord::new(1, 1), GridCoord::new(2, 3)];
        let mut net = network_with_holes(4, 4, &holes, 2, 59);
        let cfg = SrConfig::default().with_head_rotation(1);
        let (report, _) = run_sr(&mut net, cfg, 59);
        assert!(report.run.is_quiescent());
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(report.metrics.processes_failed, 0);
    }

    #[test]
    fn activation_probability_is_clamped() {
        let cfg = SrConfig::default().with_activation_probability(7.0);
        assert_eq!(cfg.activation_probability, 1.0);
        let cfg = SrConfig::default().with_activation_probability(f64::NAN);
        assert_eq!(cfg.activation_probability, 1.0);
        let cfg = SrConfig::default().with_activation_probability(0.0);
        assert!(cfg.activation_probability > 0.0);
    }

    #[test]
    fn battery_dynamics_can_kill_the_mover_and_recovery_continues() {
        use wsn_simcore::Battery;
        // Hand-build a network where the monitor's spare has a battery
        // too small to survive its own move: the spare dies on arrival,
        // re-opening the hole; the next process must drain a different
        // cell.
        let hole = GridCoord::new(2, 2);
        let mut net = network_with_holes(4, 4, &[hole], 2, 43);
        // Weaken every node of the monitoring cell: any move kills them.
        let topo = CycleTopology::build(4, 4).unwrap();
        let monitor = match &topo {
            CycleTopology::Single(c) => c.predecessor(hole),
            _ => unreachable!(),
        };
        let weak: Vec<NodeId> = net.members(monitor).unwrap().to_vec();
        for id in &weak {
            // 0.01 J: far below one hop's ~4.5 J cost.
            let pos = net.node(*id).unwrap().position();
            let _ = pos;
            net.draw_battery(*id, f64::MAX).unwrap();
            let _ = Battery::new(0.01);
        }
        let cfg = SrConfig::default().with_battery_dynamics(true);
        let (report, trace) = run_sr(&mut net, cfg, 43);
        assert!(report.run.is_quiescent());
        // Every mover from the weakened cell died; recovery must have
        // routed around them (or reported failure if spares ran out) —
        // either way invariants hold and the run terminated.
        net.debug_invariants();
        let depleted_deaths = trace.count_kind("node_disabled");
        let _ = depleted_deaths;
    }

    #[test]
    fn battery_dynamics_drains_movers() {
        let holes = [GridCoord::new(2, 1)];
        let mut net = network_with_holes(4, 4, &holes, 2, 47);
        let cfg = SrConfig::default().with_battery_dynamics(true);
        run_sr(&mut net, cfg, 47);
        assert_eq!(net.vacant_count(), 0);
        // Exactly one node paid a movement's worth of energy (heads also
        // pay idle duty, but that is orders of magnitude smaller).
        let movers = net
            .nodes()
            .iter()
            .filter(|n| n.battery().capacity() - n.battery().charge() > 1.0)
            .count();
        assert_eq!(movers, 1);
        // And heads paid their (tiny) idle duty.
        let idlers = net
            .nodes()
            .iter()
            .filter(|n| n.battery().fraction() < 1.0)
            .count();
        assert!(idlers > 1);
    }

    #[test]
    fn lost_batons_stay_owned_and_fail_in_id_order_when_the_run_ends() {
        use wsn_simcore::NetModelSpec;
        let lossy = DriveMode::EventDriven {
            net: NetModelSpec::Bernoulli {
                loss_ppm: 300_000,
                latency: 1,
            },
        };
        let lost_reason = "notification lost in the network (run ended)";
        let mut parked = 0;
        for seed in 0..16 {
            // Three holes and three lone spares far from them: long
            // cascades run side by side, so batons cross many links and
            // an older process can lose its baton after a newer one.
            let sys = GridSystem::new(8, 8, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let holes = [(4, 4), (1, 6), (6, 1)].map(|(x, y)| GridCoord::new(x, y));
            let mut pos = deploy::with_holes(&sys, &holes, 1, &mut rng);
            for (x, y) in [(0, 0), (7, 7), (3, 3)] {
                pos.push(sys.cell_center(GridCoord::new(x, y)).unwrap());
            }
            let mut net = GridNetwork::new(sys, &pos);
            let topo = CycleTopology::build(8, 8).unwrap();
            let config = SrConfig::default();
            let mut sr = SrProtocol::new(&mut net, topo, config, seed, lossy, TraceLog::new());
            // The driver's rule: two idle rounds in a row end the run.
            let (mut rounds, mut idle) = (0, 0);
            while idle < 2 {
                let live = sr.execute_round(rounds);
                idle = if live { 0 } else { idle + 1 };
                rounds += 1;
                assert!(rounds < 10_000, "seed {seed} never went quiescent");
                assert!(sr.active.iter().all(|p| p.baton != BatonState::Lost));
                assert!(sr.stranded.iter().all(|p| p.baton == BatonState::Lost));
                // A stranded process still owns its vacancy.
                for p in &sr.stranded {
                    assert!(sr.owners.is_owned(p.current_vacant), "seed {seed}");
                }
            }
            let mut stranded: Vec<u64> = sr.stranded.iter().map(|p| p.id.raw()).collect();
            stranded.sort_unstable();
            parked += stranded.len();
            let outcome = sr.finish(rounds);
            // No baton is in flight at quiescence, so every stalled
            // repair is a stranded process, counted once.
            assert_eq!(outcome.health.stalled_repairs, stranded.len() as u64);
            let ended: Vec<(u64, bool)> = outcome
                .trace
                .of_kind("process_failed")
                .filter(|r| r.round == rounds)
                .map(|r| match &r.event {
                    TraceEvent::ProcessFailed { process, reason } => {
                        (*process, reason == lost_reason)
                    }
                    other => panic!("{other:?}"),
                })
                .collect();
            assert!(ended.windows(2).all(|w| w[0].0 < w[1].0), "id order");
            let lost: Vec<u64> = ended.iter().filter(|e| e.1).map(|e| e.0).collect();
            assert_eq!(lost, stranded, "seed {seed}");
            for id in stranded {
                assert_eq!(outcome.processes[id as usize].status, ProcessStatus::Failed);
            }
        }
        assert!(parked > 0, "30% loss must strand some baton");
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_topology_panics() {
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mut net = GridNetwork::new(sys, &[]);
        let topo = CycleTopology::build(6, 6).unwrap();
        let _ = SrProtocol::new(
            &mut net,
            topo,
            SrConfig::default(),
            0,
            DriveMode::Classic,
            TraceLog::disabled(),
        );
    }
}
