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
//! ([`DriveMode::EventDriven`]) adds a step 0 — envelopes due this
//! round arrive first — and a process acts only while its asked head
//! holds the notification baton ([`crate::actor`]).

use wsn_grid::{GridCoord, GridNetwork};
use wsn_hamilton::{BackwardStep, CycleTopology};
use wsn_simcore::{Metrics, ProtocolHealth, RoundOutcome, RoundProtocol, TraceEvent, TraceLog};

use crate::actor::{BatonState, Envelope, Wire};
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

/// What one detection sweep (Algorithm 1 step 1) did, split into its two
/// distinct kinds of outcome.
///
/// # The `initiated` / `pending` split
///
/// In the paper's synchronous round model every monitoring head fires
/// every round, so a known hole always yields a started process and
/// `pending` stays zero. In **asynchronous mode**
/// (`SrConfig::activation_probability < 1`) a monitoring head may not be
/// scheduled in the round that its hole is swept; the initiation is then
/// *deferred*, not performed:
///
/// * `initiated` counts processes actually started this round — each one
///   also increments [`Metrics::processes_initiated`], so the metric
///   remains an honest count of real initiations;
/// * `pending` counts holes whose initiation was pushed to a later round
///   by async scheduling. No process exists for them yet, but the work
///   is still outstanding, so the round must **not** be treated as
///   quiescent (the deferred head will fire in a later round with
///   probability 1).
///
/// Earlier revisions folded the two together, over-reporting initiations
/// in async runs. The split keeps progress accounting honest while
/// [`DetectionOutcome::any_activity`] still keeps the round alive in
/// both cases.
///
/// ```
/// use wsn_coverage::DetectionOutcome;
///
/// // A synchronous sweep that started two processes:
/// let sync = DetectionOutcome { initiated: 2, pending: 0 };
/// // An async sweep whose only known hole was deferred this round:
/// let deferred = DetectionOutcome { initiated: 0, pending: 1 };
/// // Both keep the run going; only a fully empty sweep is inactive.
/// assert!(sync.any_activity());
/// assert!(deferred.any_activity());
/// assert!(!DetectionOutcome::default().any_activity());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionOutcome {
    /// Processes started this round (matches
    /// [`Metrics::processes_initiated`] increments).
    pub initiated: usize,
    /// Holes whose initiation was deferred by asynchronous-mode
    /// scheduling (or, under the event drive, by a dropped probe); still
    /// outstanding work.
    pub pending: usize,
}

impl DetectionOutcome {
    /// `true` when the sweep either started a process or deferred one —
    /// either way the round made or scheduled progress.
    pub fn any_activity(&self) -> bool {
        self.initiated > 0 || self.pending > 0
    }
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

/// The SR protocol over a borrowed network and a cycle topology; drives
/// itself one round at a time via [`RoundProtocol`].
///
/// Under [`DriveMode::Classic`] it has no link: notifications are known
/// the round after they are sent. Under [`DriveMode::EventDriven`] the
/// same rounds route every inter-cell exchange through a network model
/// (the [`crate::actor`] envelopes), so latency and loss become
/// protocol inputs.
///
/// Most callers run SR through [`crate::Sr`], which hands this to
/// [`crate::scheme::run_to_quiescence`]; the protocol type is public for
/// custom drivers (e.g. lock-step comparisons against baselines).
#[derive(Debug)]
pub struct SrProtocol<'n> {
    run: Run<'n>,
    topo: CycleTopology,
    /// Active processes, in id order (ids are issued ascending and
    /// removals keep order), so deliveries find theirs by binary search.
    active: Vec<ActiveProcess>,
    /// Active processes per `current_vacant` cell: detection's "already
    /// owned" check without scanning `active`.
    owners: OwnerCounts,
    /// The network model under the event drive; `None` in the classic
    /// drive, which routes, queues and counts nothing.
    link: Option<SrLink>,
}

impl<'n> SrProtocol<'n> {
    /// Creates the protocol for `drive`, electing initial heads in every
    /// occupied cell with the run RNG seeded from `seed`. Events are
    /// recorded into `trace` (pass [`TraceLog::disabled`] to record
    /// nothing).
    ///
    /// Under [`DriveMode::EventDriven`] the link draws from its own
    /// stream of `seed` (tag [`crate::actor::NET_STREAM_TAG`]), so under
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
        let link = match drive {
            DriveMode::Classic => None,
            DriveMode::EventDriven { net: spec } => Some(SrLink {
                wire: Wire::new(spec, seed),
                held: owners.clone(),
                vacated_at: vec![0; net.system().cell_count()],
            }),
        };
        SrProtocol {
            run: Run::new(net, config, seed, trace),
            topo,
            active: Vec::new(),
            owners,
            link,
        }
    }

    /// Cost counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.run.metrics
    }

    /// Number of processes still active (cascading or waiting).
    pub fn active_processes(&self) -> usize {
        self.active.len()
    }

    /// The health ledger, under the event drive.
    fn health(&mut self) -> Option<&mut ProtocolHealth> {
        self.link.as_mut().map(|l| &mut l.wire.link.health)
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
    /// add, change or remove a process, so the owner tables always match
    /// `active`.
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
    /// cell.
    fn retire(&mut self, i: usize) -> ActiveProcess {
        let p = self.active.remove(i);
        self.release(p);
        p
    }

    /// Ends every active process, in id order, releasing their cells.
    fn retire_all(&mut self) -> Vec<ActiveProcess> {
        let all = std::mem::take(&mut self.active);
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

    /// Delivers every envelope due this round. Returns `true` when a
    /// delivery ended a process (a superseded repair).
    fn drain_due(&mut self, round: u64) -> bool {
        let mut progress = false;
        while let Some(envelope) = self.link.as_mut().and_then(|l| l.wire.pop_due(round)) {
            let Envelope::HoleAnnounce { process } = envelope else {
                continue;
            };
            let Ok(i) = self.active.binary_search_by_key(&process, |p| p.id.raw()) else {
                continue;
            };
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
            // radio neighborhood, so neither envelope can be lost.
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
                link.wire
                    .send(sys, from, to, Envelope::MoveAck, round, trace);
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
                run.trace.record(
                    round,
                    TraceEvent::NotificationSent {
                        process: p.id.raw(),
                        from: p.asked.into(),
                        to: next_asked.into(),
                    },
                );
                // … then, over a link, the envelope takes its chances on
                // the channel.
                let baton = match &mut self.link {
                    None => BatonState::Held,
                    Some(link) => {
                        let announce = Envelope::HoleAnnounce {
                            process: p.id.raw(),
                        };
                        let sys = run.net.system();
                        let trace = &mut run.trace;
                        if link
                            .wire
                            .send(sys, p.asked, next_asked, announce, round, trace)
                        {
                            BatonState::InFlight
                        } else {
                            link.wire.link.health.lost_cascades += 1;
                            BatonState::Lost
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
    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        let buf = self.run.sweep();
        self.run.metrics.cells_scanned += buf.len() as u64;
        let mut outcome = DetectionOutcome::default();
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
                    outcome.pending += 1;
                    continue;
                }
            }
            if run.config.activation_probability < 1.0
                && !run.rng.bernoulli(run.config.activation_probability)
            {
                // Asynchronous mode: this monitor was not scheduled this
                // round; the vacancy is deferred, not initiated.
                outcome.pending += 1;
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
                    link.wire.link.health.duplicate_initiations += 1;
                }
            }
            self.enlist(ActiveProcess {
                id,
                hole: g,
                current_vacant: g,
                asked: monitor,
                baton: BatonState::Held,
            });
            outcome.initiated += 1;
        }
        self.run.end_sweep(buf);
        self.owners
            .debug_check(self.active.iter().map(|p| p.current_vacant));
        if let Some(link) = &self.link {
            link.held.debug_check(
                self.active
                    .iter()
                    .filter(|p| p.baton == BatonState::Held)
                    .map(|p| p.current_vacant),
            );
        }
        outcome
    }
}

impl SchemeProtocol for SrProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.run.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.run.metrics,
            processes: self.run.summaries,
            health: self.link.map(|l| l.wire.link.health).unwrap_or_default(),
            trace: self.run.trace,
        }
    }
}

impl RoundProtocol for SrProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        // 0. Due envelopes arrive before anyone acts this round.
        let mut progress = self.drain_due(round);
        let run = &mut self.run;

        // 1. Scheduled faults fire at the start of the round.
        let fault_events: Vec<_> = run.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = run.net.apply_fault(&ev, &mut run.rng);
            if !killed.is_empty() {
                // The network changed; previously unfillable holes are
                // worth re-detecting (conservative but safe).
                run.failed_holes.clear();
            }
            for id in &killed {
                let cell = run
                    .net
                    .system()
                    .cell_of(run.net.node(*id).expect("deployed").position())
                    .expect("positions stay in the area");
                run.trace.record(
                    round,
                    TraceEvent::NodeDisabled {
                        node: *id,
                        cell: cell.into(),
                    },
                );
            }
            progress |= !killed.is_empty();
        }

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

        // 3. Process steps, in id order; iterate by position, careful
        //    with removals.
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            let acted = self.step_process(i, round);
            progress |= acted;
            if self.active.len() == before {
                i += 1; // process still active (moved or waiting)
            }
            // On removal the next process shifted into position i.
        }

        // 4. Detection and initiation for unowned holes. A deferred
        //    (async-mode or lost-probe) initiation is still scheduled
        //    work, so both halves of the outcome keep the round from
        //    going quiescent.
        progress |= self.detect_and_initiate(round).any_activity();

        // 5. Surveillance duty (battery dynamics only).
        progress |= self.run.drain_idle_heads();

        // The run must not go quiescent while scheduled faults are still
        // pending — an idle network can be re-holed at any planned round
        // — nor while envelopes are in flight.
        progress |= self
            .run
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        progress |= self.link.as_ref().is_some_and(|l| l.wire.in_flight());

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
    use crate::scheme::{run_to_quiescence, SchemeReport};
    use crate::ProcessStatus;
    use wsn_grid::{deploy, GridSystem, HeadElection};
    use wsn_simcore::{NodeId, RoundRunner, SimRng};

    /// Runs SR on `net` over its grid's cycle topology, traced.
    fn run_sr(net: &mut GridNetwork, config: SrConfig, seed: u64) -> (SchemeReport, TraceLog) {
        let (cols, rows) = (net.system().cols(), net.system().rows());
        let topo = CycleTopology::build(cols, rows).unwrap();
        let protocol =
            SrProtocol::new(net, topo, config, seed, DriveMode::Classic, TraceLog::new());
        run_to_quiescence(protocol, RoundRunner::new(10_000).unwrap())
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
        let holes = [cyc.order()[5], cyc.order()[6], cyc.order()[7]];
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
