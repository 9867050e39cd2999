//! The discrete-event engine: heads and spares as message-passing
//! actors over a lossy network model.
//!
//! The classic round loop ([`crate::SrProtocol`],
//! [`crate::ShortcutProtocol`]) treats message delivery as an axiom:
//! a notification sent this round is *known* next round. This module
//! re-implements SR and SR-SC as genuine distributed protocols whose
//! every inter-cell exchange is an envelope routed through a
//! [`NetLink`]:
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
//! classic one-round cadence and the engine replicates the classic
//! protocols draw-for-draw: the run RNG sees the identical call
//! sequence (link randomness lives in a separate
//! [`derive_stream_seed`]ed stream), rounds make the identical progress
//! verdicts, and the resulting [`SchemeReport`]s are byte-identical to
//! the classic drives of [`crate::Sr`] and [`crate::SrSc`].
//! The conformance battery in the bench crate pins this over a scenario
//! grid; degraded models then *measure* what the synchronous model
//! assumes away, in [`SchemeReport::health`].
//!
//! [`SchemeReport`]: crate::SchemeReport
//! [`SchemeReport::health`]: crate::SchemeReport::health
//! [`ProtocolHealth::lost_cascades`]: wsn_simcore::ProtocolHealth::lost_cascades
//! [`ProtocolHealth::duplicate_initiations`]: wsn_simcore::ProtocolHealth::duplicate_initiations

use std::collections::HashSet;

use wsn_grid::{GridCoord, GridNetwork, GridSystem, HoleSet};
use wsn_hamilton::{BackwardStep, CycleTopology};
use wsn_simcore::{
    derive_stream_seed, Endpoint, EnergyModel, EventQueue, Fate, Metrics, NetLink, NetModelSpec,
    NodeId, RoundOutcome, RoundProtocol, SimRng, TraceEvent, TraceLog,
};

use crate::movement::movement_target;
use crate::process::{ProcessId, ProcessStatus, ProcessSummary};
use crate::protocol::DetectionOutcome;
use crate::scheme::{ProtocolOutcome, SchemeProtocol};
use crate::shortcut::ScRing;
use crate::{OwnerCounts, SpareSelection, SrConfig};

/// Stream tag separating the network-model RNG from the run RNG: links
/// draw from `derive_stream_seed(config.seed, &[NET_STREAM_TAG])`, so
/// under `Ideal` (no link draws at all) the run RNG sees the
/// byte-identical sequence the classic engine does. Baseline schemes
/// that join the event engine derive their link seed the same way, so a
/// given `(seed, net model)` is the same weather for every scheme.
pub const NET_STREAM_TAG: u64 = 0x004E_4554; // "NET"

/// The link endpoint of `cell`: its dense index (the fate function's
/// stream coordinate) and its center (the jammer's geometry).
fn cell_endpoint(sys: &GridSystem, cell: GridCoord) -> Endpoint {
    let idx = sys.index_of(cell).expect("protocol cells are in bounds");
    let c = sys.cell_center(cell).expect("protocol cells are in bounds");
    Endpoint {
        cell: idx as u64,
        pos: (c.x, c.y),
    }
}

/// Where a process's notification baton currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatonState {
    /// The asked head holds the notification and can act.
    Held,
    /// The notification is in transit; delivery is scheduled.
    InFlight,
    /// The network dropped the notification; nobody holds the baton.
    Lost,
}

/// Scheduled deliveries (the event queue's payload).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Envelope {
    /// The cascade baton arriving at the asked cell of `process`.
    HoleAnnounce {
        /// Raw [`ProcessId`] of the owning process.
        process: u64,
    },
    /// Informational convergence confirmation; delivery is a no-op.
    MoveAck,
}

/// One active event-driven SR process: the classic state plus the baton.
#[derive(Debug, Clone)]
struct EventProcess {
    id: ProcessId,
    hole: GridCoord,
    current_vacant: GridCoord,
    asked: GridCoord,
    baton: BatonState,
}

/// Internal outcome of resolving the next backward hop (mirrors the
/// classic protocol's resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackwardResolution {
    Next(GridCoord),
    Wait,
    Exhausted,
}

/// Event-driven SR: the classic snake-like replacement re-expressed as
/// per-cell actors exchanging envelopes through a [`NetLink`].
///
/// [`crate::Sr`] drives it under [`crate::DriveMode::EventDriven`]; the
/// protocol type is public for custom drivers, like [`crate::SrProtocol`].
#[derive(Debug)]
pub struct EventSrProtocol<'n> {
    net: &'n mut GridNetwork,
    topo: CycleTopology,
    config: SrConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    /// Active processes, in id order (ids are issued ascending and
    /// removals keep order), so deliveries find theirs by binary search.
    active: Vec<EventProcess>,
    /// Active processes per `current_vacant` cell.
    owners: OwnerCounts,
    /// Active processes per `current_vacant` cell whose asked head holds
    /// the baton.
    held: OwnerCounts,
    /// Per cell, `round + 1` of the last relay that vacated it (0 =
    /// never): the one-round window in which its monitor may not yet
    /// have observed the vacancy, so detection does not treat it as
    /// unowned.
    vacated_at: Vec<u64>,
    summaries: Vec<ProcessSummary>,
    failed_holes: HashSet<GridCoord>,
    pending_holes: HoleSet,
    detect_buf: Vec<usize>,
    queue: EventQueue<Envelope>,
    link: NetLink,
}

impl<'n> EventSrProtocol<'n> {
    /// Creates the protocol, electing initial heads in every occupied
    /// cell (the identical initialization sequence to
    /// [`crate::SrProtocol::new`], so the run RNG streams align), with
    /// messages routed through `spec` and events recorded into `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `topo` and `net` disagree on grid dimensions.
    pub fn new(
        net: &'n mut GridNetwork,
        topo: CycleTopology,
        config: SrConfig,
        spec: NetModelSpec,
        trace: TraceLog,
    ) -> EventSrProtocol<'n> {
        assert_eq!(
            (topo.cols(), topo.rows()),
            (net.system().cols(), net.system().rows()),
            "topology and network dimensions must match"
        );
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let mut pending_holes = HoleSet::new(net.system().cell_count());
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        let link = spec.link(derive_stream_seed(config.seed, &[NET_STREAM_TAG]));
        let owners = OwnerCounts::new(net.system());
        let vacated_at = vec![0; net.system().cell_count()];
        EventSrProtocol {
            net,
            topo,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            held: owners.clone(),
            owners,
            vacated_at,
            summaries: Vec::new(),
            failed_holes: HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
            queue: EventQueue::new(),
            link,
        }
    }

    /// Marks all still-active processes failed. Processes whose baton
    /// was in flight or lost when the run ended are additionally
    /// counted as [`wsn_simcore::ProtocolHealth::stalled_repairs`].
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            let reason = if p.baton == BatonState::Held {
                "no reachable spare (run ended)"
            } else {
                self.link.health.stalled_repairs += 1;
                "notification lost in the network (run ended)"
            };
            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                process: p.id.raw(),
                reason: reason.into(),
            });
        }
    }

    /// Starts `p` as an owner. This, [`Self::update`], [`Self::retire`]
    /// and [`Self::retire_all`] are the only places that add, change or
    /// remove a process, so both owner tables always match `active`.
    fn enlist(&mut self, p: EventProcess) {
        self.claim(&p);
        self.active.push(p);
    }

    /// Applies `change` to process `i` (a relay, or its baton landing),
    /// moving its entries in the owner tables along with it.
    fn update(&mut self, i: usize, change: impl FnOnce(&mut EventProcess)) {
        let before = self.active[i].clone();
        self.release(&before);
        change(&mut self.active[i]);
        let after = self.active[i].clone();
        self.claim(&after);
    }

    /// Ends process `i` (converged, failed or superseded), releasing its
    /// cell.
    fn retire(&mut self, i: usize) -> EventProcess {
        let p = self.active.remove(i);
        self.release(&p);
        p
    }

    /// Ends every active process, in id order, releasing their cells.
    fn retire_all(&mut self) -> Vec<EventProcess> {
        let all = std::mem::take(&mut self.active);
        for p in &all {
            self.release(p);
        }
        all
    }

    fn claim(&mut self, p: &EventProcess) {
        self.owners.add(p.current_vacant);
        if p.baton == BatonState::Held {
            self.held.add(p.current_vacant);
        }
    }

    fn release(&mut self, p: &EventProcess) {
        self.owners.remove(p.current_vacant);
        if p.baton == BatonState::Held {
            self.held.remove(p.current_vacant);
        }
    }

    fn index(&self, cell: GridCoord) -> usize {
        self.net
            .system()
            .index_of(cell)
            .expect("protocol cells are in bounds")
    }

    fn endpoint(&self, cell: GridCoord) -> Endpoint {
        cell_endpoint(self.net.system(), cell)
    }

    fn spare_count(&self, cell: GridCoord) -> usize {
        self.net.spare_count(cell).unwrap_or(0)
    }

    fn is_occupied(&self, cell: GridCoord) -> bool {
        !self.net.is_vacant(cell).unwrap_or(true)
    }

    fn select_spare(&mut self, cell: GridCoord, target: GridCoord) -> Option<NodeId> {
        if self.net.spare_count(cell).ok()? == 0 {
            return None;
        }
        let spares = self.net.spare_iter(cell).ok()?;
        let target_center = self
            .net
            .system()
            .cell_center(target)
            .expect("targets are in-bounds cells");
        match self.config.spare_selection {
            SpareSelection::FirstId => spares.min(),
            SpareSelection::ClosestToTarget => spares.min_by(|&a, &b| {
                let da = self
                    .net
                    .node(a)
                    .expect("spares are deployed")
                    .position()
                    .distance_squared(target_center);
                let db = self
                    .net
                    .node(b)
                    .expect("spares are deployed")
                    .position()
                    .distance_squared(target_center);
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            }),
            SpareSelection::MaxEnergy => spares.max_by(|&a, &b| {
                let ea = self.net.node(a).expect("deployed").battery().charge();
                let eb = self.net.node(b).expect("deployed").battery().charge();
                ea.partial_cmp(&eb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            }),
        }
    }

    /// Identical movement execution to the classic protocol (same RNG
    /// draws, metrics, trace and battery bookkeeping).
    fn execute_move(
        &mut self,
        process: ProcessId,
        node: NodeId,
        target: GridCoord,
        round: u64,
    ) -> f64 {
        let dest = movement_target(self.net.system(), target, &mut self.rng);
        let out = self
            .net
            .move_node(node, dest)
            .expect("targets are in-bounds cells");
        self.net.set_head(target, node).expect("node just arrived");
        self.metrics.record_move(out.distance);
        let cost = self.energy.movement(out.distance);
        self.metrics.energy += cost;
        self.trace.record(
            round,
            TraceEvent::NodeMoved {
                process: Some(process.raw()),
                node,
                from: out.from.into(),
                to: out.to.into(),
                distance: out.distance,
            },
        );
        if self.config.battery_dynamics {
            let depleted = self
                .net
                .draw_battery(node, cost)
                .expect("movers are deployed");
            if depleted {
                self.net.disable_node(node).expect("movers are deployed");
                self.failed_holes.clear();
                self.trace.record(
                    round,
                    TraceEvent::NodeDisabled {
                        node,
                        cell: out.to.into(),
                    },
                );
            }
        }
        out.distance
    }

    fn resolve_backward(&self, asked: GridCoord, hole: GridCoord) -> BackwardResolution {
        let Some(step) = self.topo.backward_from(asked, hole) else {
            return BackwardResolution::Exhausted;
        };
        match step {
            BackwardStep::One(p) => BackwardResolution::Next(p),
            BackwardStep::ForkAB { a, b } => {
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
                if self.spare_count(probe) > 0 {
                    BackwardResolution::Next(probe)
                } else {
                    BackwardResolution::Next(next)
                }
            }
        }
    }

    /// Routes an informational `MoveAck` from the just-filled cell back
    /// to the dispatcher.
    fn send_ack(&mut self, from: GridCoord, to: GridCoord, round: u64) {
        let fate = self.link.route(self.endpoint(from), self.endpoint(to));
        let deliver_at = match fate {
            Fate::Deliver(extra) => {
                let at = round + 1 + extra;
                self.queue.schedule(at, Envelope::MoveAck);
                Some(at)
            }
            Fate::Drop => None,
        };
        self.trace.record_with(round, || TraceEvent::NetMessage {
            msg: "move_ack".into(),
            from: from.into(),
            to: to.into(),
            deliver_at,
        });
    }

    /// Terminates process `i` because its target vacancy was already
    /// refilled by a duplicate when its baton (re)surfaced.
    fn terminate_superseded(&mut self, i: usize, round: u64) {
        let p = self.retire(i);
        let s = &mut self.summaries[p.id.raw() as usize];
        s.status = ProcessStatus::Failed;
        s.ended_round = Some(round);
        self.metrics.processes_failed += 1;
        self.link.health.superseded_repairs += 1;
        self.trace.record_with(round, || TraceEvent::ProcessFailed {
            process: p.id.raw(),
            reason: "superseded by a duplicate repair".into(),
        });
    }

    /// Delivers every envelope due this round. Returns `true` when a
    /// delivery ended a process (superseded repairs — unreachable under
    /// `Ideal`, where no duplicates exist to race the baton).
    fn drain_due(&mut self, round: u64) -> bool {
        let mut progress = false;
        while let Some(sched) = self.queue.pop_due(round) {
            match sched.payload {
                Envelope::HoleAnnounce { process } => {
                    let Ok(i) = self.active.binary_search_by_key(&process, |p| p.id.raw()) else {
                        continue;
                    };
                    if self.is_occupied(self.active[i].current_vacant) {
                        self.terminate_superseded(i, round);
                        progress = true;
                    } else {
                        self.update(i, |p| p.baton = BatonState::Held);
                    }
                }
                Envelope::MoveAck => {}
            }
        }
        progress
    }

    /// One action for one process — the classic step gated on holding
    /// the baton. Returns `true` on progress.
    fn step_process(&mut self, idx: usize, round: u64) -> bool {
        let p = self.active[idx].clone();
        if p.baton != BatonState::Held {
            // The asked head has not received the notification yet (or
            // never will); nothing to act on.
            return false;
        }
        if self.is_occupied(p.current_vacant) {
            // A duplicate repair filled the target while the baton sat
            // here (unreachable under `Ideal`).
            self.terminate_superseded(idx, round);
            return true;
        }
        if !self.is_occupied(p.asked) {
            return false;
        }
        if self.config.activation_probability < 1.0
            && !self.rng.bernoulli(self.config.activation_probability)
        {
            return true;
        }
        if let Some(spare) = self.select_spare(p.asked, p.current_vacant) {
            // Head → co-located spare: ask, then order the move. One
            // radio neighborhood, so neither envelope can be lost.
            self.link.local(); // SpareRequest
            self.link.local(); // MoveNotify
            let d = self.execute_move(p.id, spare, p.current_vacant, round);
            let s = &mut self.summaries[p.id.raw() as usize];
            s.hops += 1;
            s.moves += 1;
            s.distance += d;
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
            self.retire(idx);
            self.send_ack(p.current_vacant, p.asked, round);
            return true;
        }
        match self.resolve_backward(p.asked, p.hole) {
            BackwardResolution::Wait => false,
            BackwardResolution::Next(next_asked) => {
                // Classic billing first (the sender pays for the
                // transmission whether or not it arrives) …
                self.metrics.record_message();
                self.metrics.energy += self.energy.message_cost;
                self.trace.record(
                    round,
                    TraceEvent::NotificationSent {
                        process: p.id.raw(),
                        from: p.asked.into(),
                        to: next_asked.into(),
                    },
                );
                // … then the envelope takes its chances on the channel.
                let fate = self
                    .link
                    .route(self.endpoint(p.asked), self.endpoint(next_asked));
                let deliver_at = match fate {
                    Fate::Deliver(extra) => {
                        let at = round + 1 + extra;
                        self.queue.schedule(
                            at,
                            Envelope::HoleAnnounce {
                                process: p.id.raw(),
                            },
                        );
                        Some(at)
                    }
                    Fate::Drop => None,
                };
                self.trace.record_with(round, || TraceEvent::NetMessage {
                    msg: "hole_announce".into(),
                    from: p.asked.into(),
                    to: next_asked.into(),
                    deliver_at,
                });
                // The relaying head moves regardless: it committed the
                // moment it sent the notification (the honest failure
                // mode — a lost baton, not a clairvoyant abort).
                let head = self
                    .net
                    .head_of(p.asked)
                    .expect("asked cell is in bounds")
                    .expect("occupied cells are headed after repair");
                let d = self.execute_move(p.id, head, p.current_vacant, round);
                let s = &mut self.summaries[p.id.raw() as usize];
                s.hops += 1;
                s.moves += 1;
                s.distance += d;
                let baton = match fate {
                    Fate::Deliver(_) => BatonState::InFlight,
                    Fate::Drop => {
                        self.link.health.lost_cascades += 1;
                        BatonState::Lost
                    }
                };
                self.update(idx, |ap| {
                    ap.current_vacant = p.asked;
                    ap.asked = next_asked;
                    ap.baton = baton;
                });
                let vacated = self.index(p.asked);
                self.vacated_at[vacated] = round + 1;
                true
            }
            BackwardResolution::Exhausted => {
                let s = &mut self.summaries[p.id.raw() as usize];
                s.status = ProcessStatus::Failed;
                s.ended_round = Some(round);
                self.metrics.processes_failed += 1;
                self.trace.record_with(round, || TraceEvent::ProcessFailed {
                    process: p.id.raw(),
                    reason: "walk exhausted without finding a spare".into(),
                });
                self.failed_holes.insert(p.current_vacant);
                self.retire(idx);
                true
            }
        }
    }

    /// Detection through real probes. A hole is *owned* only while its
    /// process holds the baton or vacated it this very round — a stale
    /// owner (baton in flight or lost) is invisible to the monitor,
    /// which honestly re-initiates
    /// ([`wsn_simcore::ProtocolHealth::duplicate_initiations`]).
    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        self.metrics.cells_scanned += buf.len() as u64;
        let mut outcome = DetectionOutcome::default();
        for &idx in &buf {
            let g = self.net.system().coord_of(idx);
            if self.failed_holes.contains(&g) {
                continue;
            }
            if self.held.is_owned(g) || self.vacated_at[idx] == round + 1 {
                continue; // a live cascade owns this cell, observably
            }
            let monitor = self.topo.monitors(g);
            if !self.is_occupied(monitor) {
                continue;
            }
            let probed = self.link.sense(self.endpoint(monitor), self.endpoint(g));
            self.trace.record_with(round, || TraceEvent::NetMessage {
                msg: "monitor_probe".into(),
                from: monitor.into(),
                to: g.into(),
                deliver_at: probed.then_some(round),
            });
            if !probed {
                // The weather ate the probe; the monitor retries next
                // round. Still outstanding work.
                outcome.pending += 1;
                continue;
            }
            if self.config.activation_probability < 1.0
                && !self.rng.bernoulli(self.config.activation_probability)
            {
                outcome.pending += 1;
                continue;
            }
            if self.owners.is_owned(g) {
                // A stale owner exists after all: this initiation
                // duplicates a cascade the monitor could not observe.
                self.link.health.duplicate_initiations += 1;
            }
            self.trace.record(
                round,
                TraceEvent::VacancyDetected {
                    cell: g.into(),
                    detector: monitor.into(),
                },
            );
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
            self.enlist(EventProcess {
                id,
                hole: g,
                current_vacant: g,
                asked: monitor,
                baton: BatonState::Held,
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
            outcome.initiated += 1;
        }
        self.detect_buf = buf;
        self.owners
            .debug_check(self.active.iter().map(|p| p.current_vacant));
        self.held.debug_check(
            self.active
                .iter()
                .filter(|p| p.baton == BatonState::Held)
                .map(|p| p.current_vacant),
        );
        outcome
    }
}

impl SchemeProtocol for EventSrProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.metrics,
            processes: self.summaries,
            health: self.link.health,
            trace: self.trace,
        }
    }
}

impl RoundProtocol for EventSrProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;

        // 0. Due envelopes arrive before anyone acts this round.
        progress |= self.drain_due(round);

        // 1. Scheduled faults (identical to the classic engine).
        let fault_events: Vec<_> = self.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = self.net.apply_fault(&ev, &mut self.rng);
            if !killed.is_empty() {
                self.failed_holes.clear();
            }
            for id in &killed {
                let cell = self
                    .net
                    .system()
                    .cell_of(self.net.node(*id).expect("deployed").position())
                    .expect("positions stay in the area");
                self.trace.record(
                    round,
                    TraceEvent::NodeDisabled {
                        node: *id,
                        cell: cell.into(),
                    },
                );
            }
            progress |= !killed.is_empty();
        }

        // 2. Rotation and local head repair (identical).
        if let Some(period) = self.config.head_rotation_period {
            if round > 0 && round.is_multiple_of(period) {
                self.net
                    .elect_all_heads(self.config.election, &mut self.rng);
            }
        }
        self.net.repair_heads(self.config.election, &mut self.rng);

        // 3. Process steps, in id order, gated on the baton.
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            let acted = self.step_process(i, round);
            progress |= acted;
            if self.active.len() == before {
                i += 1;
            }
        }

        // 4. Detection through probes.
        progress |= self.detect_and_initiate(round).any_activity();

        // 5. Idle surveillance drain (identical to classic).
        if self.config.battery_dynamics {
            let idle = self.energy.idle_cost_per_round;
            let heads: Vec<NodeId> = self
                .net
                .system()
                .iter_coords()
                .filter_map(|c| self.net.head_of(c).expect("in bounds"))
                .collect();
            for head in heads {
                self.metrics.energy += idle;
                if self
                    .net
                    .draw_battery(head, idle)
                    .expect("heads are deployed")
                {
                    self.net.disable_node(head).expect("heads are deployed");
                    self.failed_holes.clear();
                    progress = true;
                }
            }
        }

        progress |= self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);

        // In-flight envelopes are scheduled work: a run must not go
        // quiescent while a baton is still in the air. Under `Ideal`
        // every envelope scheduled in a progress round drains in the
        // next, so this never changes a classic quiescence verdict.
        progress |= !self.queue.is_empty();

        self.metrics.rounds = round + 1;
        if progress {
            RoundOutcome::Progress
        } else {
            RoundOutcome::Quiescent
        }
    }
}

/// One active event-driven SR-SC process: the classic courier walk plus
/// the baton.
#[derive(Debug, Clone)]
struct EventScProcess {
    id: ProcessId,
    hole: GridCoord,
    courier: GridCoord,
    forwarded: usize,
    baton: BatonState,
}

/// Event-driven SR-SC: the shortcut protocol's courier notifications
/// and gossip beacons routed through a [`NetLink`].
///
/// A dropped courier forward permanently strands the repair (the hole
/// stays owned by its process, so — unlike SR — no duplicate rescues
/// it; the failure mode is [`wsn_simcore::ProtocolHealth::stalled_repairs`]).
/// Beacons steer nothing: they load the link and, under Bernoulli loss,
/// advance the pair counters that the monitor probes on the same links
/// share.
#[derive(Debug)]
pub struct EventScProtocol<'n> {
    net: &'n mut GridNetwork,
    cycle: ScRing,
    config: SrConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    /// Active processes, in id order (see [`EventSrProtocol`]).
    active: Vec<EventScProcess>,
    /// Active processes per `hole`.
    owners: OwnerCounts,
    summaries: Vec<ProcessSummary>,
    failed_holes: HashSet<GridCoord>,
    pending_holes: HoleSet,
    detect_buf: Vec<usize>,
    queue: EventQueue<Envelope>,
    link: NetLink,
}

impl<'n> EventScProtocol<'n> {
    /// Creates the protocol over a unique-predecessor ring (identical
    /// initialization to [`crate::ShortcutProtocol`]).
    pub(crate) fn new(
        net: &'n mut GridNetwork,
        cycle: ScRing,
        config: SrConfig,
        spec: NetModelSpec,
        trace: TraceLog,
    ) -> EventScProtocol<'n> {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let cells = net.system().cell_count();
        let mut pending_holes = HoleSet::new(cells);
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        let link = spec.link(derive_stream_seed(config.seed, &[NET_STREAM_TAG]));
        let owners = OwnerCounts::new(net.system());
        EventScProtocol {
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
            failed_holes: HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
            queue: EventQueue::new(),
            link,
        }
    }

    /// Marks still-active processes failed; stranded couriers count as
    /// stalled repairs.
    fn fail_remaining(&mut self, round: u64) {
        for p in self.retire_all() {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            let reason = if p.baton == BatonState::Held {
                "no reachable spare (run ended)"
            } else {
                self.link.health.stalled_repairs += 1;
                "notification lost in the network (run ended)"
            };
            self.trace.record_with(round, || TraceEvent::ProcessFailed {
                process: p.id.raw(),
                reason: reason.into(),
            });
        }
    }

    /// Starts `p` as the owner of its hole. This, [`Self::retire`] and
    /// [`Self::retire_all`] are the only places that add or remove a
    /// process, so the owner table always matches `active`.
    fn enlist(&mut self, p: EventScProcess) {
        self.owners.add(p.hole);
        self.active.push(p);
    }

    /// Ends process `i` (converged or failed), releasing its hole.
    fn retire(&mut self, i: usize) -> EventScProcess {
        let p = self.active.remove(i);
        self.owners.remove(p.hole);
        p
    }

    /// Ends every active process, in id order, releasing their holes.
    fn retire_all(&mut self) -> Vec<EventScProcess> {
        let all = std::mem::take(&mut self.active);
        for p in &all {
            self.owners.remove(p.hole);
        }
        all
    }

    fn endpoint(&self, cell: GridCoord) -> Endpoint {
        cell_endpoint(self.net.system(), cell)
    }

    fn spare_count(&self, cell: GridCoord) -> usize {
        self.net.spare_count(cell).unwrap_or(0)
    }

    /// The round's beacons: every head with no spare of its own hears
    /// its predecessor's spare status over the link, `pred(c) → c`.
    /// Nothing reads them back; they are SR-SC's standing traffic, billed
    /// like the classic engine's exchange plus one routed sense each.
    /// Their count is the occupied cells minus the spareful ones, so a
    /// loss-free link accounts the round without visiting a cell.
    fn gossip(&mut self) {
        self.metrics.cells_scanned += self.cycle.len() as u64;
        let net = &*self.net;
        let spareful: u64 = net
            .spareful_words()
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        let count = net.occupied_cells() as u64 - spareful;
        let (sys, cycle) = (net.system(), &self.cycle);
        let beacons = sys
            .iter_coords()
            .filter(|&c| {
                net.is_cell_enabled(c).unwrap_or(false)
                    && !net.is_vacant(c).unwrap_or(true)
                    && net.spare_count(c).unwrap_or(0) == 0
            })
            .map(|c| {
                (
                    cell_endpoint(sys, cycle.predecessor(c)),
                    cell_endpoint(sys, c),
                )
            });
        self.link.sense_bulk(count, beacons);
    }

    fn send_ack(&mut self, from: GridCoord, to: GridCoord, round: u64) {
        let fate = self.link.route(self.endpoint(from), self.endpoint(to));
        let deliver_at = match fate {
            Fate::Deliver(extra) => {
                let at = round + 1 + extra;
                self.queue.schedule(at, Envelope::MoveAck);
                Some(at)
            }
            Fate::Drop => None,
        };
        self.trace.record_with(round, || TraceEvent::NetMessage {
            msg: "move_ack".into(),
            from: from.into(),
            to: to.into(),
            deliver_at,
        });
    }

    /// Delivers due envelopes; courier batons become actionable.
    fn drain_due(&mut self, round: u64) {
        while let Some(sched) = self.queue.pop_due(round) {
            match sched.payload {
                Envelope::HoleAnnounce { process } => {
                    if let Ok(i) = self.active.binary_search_by_key(&process, |p| p.id.raw()) {
                        self.active[i].baton = BatonState::Held;
                    }
                }
                Envelope::MoveAck => {}
            }
        }
    }

    fn step_process(&mut self, i: usize, round: u64) -> bool {
        let p = self.active[i].clone();
        if p.baton != BatonState::Held {
            return false;
        }
        if self.net.is_vacant(p.courier).unwrap_or(true) {
            return false;
        }
        if self.spare_count(p.courier) > 0 {
            self.link.local(); // SpareRequest to the co-located spare
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
            self.send_ack(p.hole, p.courier, round);
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
        let next = self.cycle.predecessor(p.courier);
        let target = if next == p.hole {
            self.cycle.predecessor(next)
        } else {
            next
        };
        self.active[i].courier = target;
        self.active[i].forwarded += 1;
        self.metrics.record_message();
        self.metrics.energy += self.energy.message_cost;
        self.trace.record(
            round,
            TraceEvent::NotificationSent {
                process: p.id.raw(),
                from: p.courier.into(),
                to: target.into(),
            },
        );
        let fate = self
            .link
            .route(self.endpoint(p.courier), self.endpoint(target));
        let deliver_at = match fate {
            Fate::Deliver(extra) => {
                let at = round + 1 + extra;
                self.queue.schedule(
                    at,
                    Envelope::HoleAnnounce {
                        process: p.id.raw(),
                    },
                );
                Some(at)
            }
            Fate::Drop => None,
        };
        self.trace.record_with(round, || TraceEvent::NetMessage {
            msg: "hole_announce".into(),
            from: p.courier.into(),
            to: target.into(),
            deliver_at,
        });
        self.active[i].baton = match fate {
            Fate::Deliver(_) => BatonState::InFlight,
            Fate::Drop => {
                self.link.health.lost_cascades += 1;
                BatonState::Lost
            }
        };
        true
    }

    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        let mut outcome = DetectionOutcome::default();
        for &idx in &buf {
            let g = self.net.system().coord_of(idx);
            if self.failed_holes.contains(&g) || self.owners.is_owned(g) {
                continue;
            }
            let monitor = self.cycle.predecessor(g);
            if self.net.is_vacant(monitor).unwrap_or(true) {
                continue;
            }
            let probed = self.link.sense(self.endpoint(monitor), self.endpoint(g));
            self.trace.record_with(round, || TraceEvent::NetMessage {
                msg: "monitor_probe".into(),
                from: monitor.into(),
                to: g.into(),
                deliver_at: probed.then_some(round),
            });
            if !probed {
                outcome.pending += 1;
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
            self.enlist(EventScProcess {
                id,
                hole: g,
                courier: monitor,
                forwarded: 0,
                baton: BatonState::Held,
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
            outcome.initiated += 1;
        }
        self.detect_buf = buf;
        self.owners.debug_check(self.active.iter().map(|p| p.hole));
        outcome
    }
}

impl SchemeProtocol for EventScProtocol<'_> {
    fn network(&self) -> &GridNetwork {
        self.net
    }

    fn finish(mut self, rounds: u64) -> ProtocolOutcome {
        self.fail_remaining(rounds);
        ProtocolOutcome {
            metrics: self.metrics,
            processes: self.summaries,
            health: self.link.health,
            trace: self.trace,
        }
    }
}

impl RoundProtocol for EventScProtocol<'_> {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        self.drain_due(round);
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
        progress |= self.detect_and_initiate(round).any_activity();
        progress |= self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        progress |= !self.queue.is_empty();
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
    use crate::scheme::{DriveMode, ReplacementScheme, Sr, SrSc};
    use wsn_grid::{deploy, GridSystem};

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
            let (classic, _) = Sr::new()
                .run_traced(&mut net.clone(), seed, DriveMode::Classic)
                .unwrap();
            let mut event_net = net;
            let (report, _) = Sr::new().run_traced(&mut event_net, seed, IDEAL).unwrap();
            assert_eq!(report, classic, "seed {seed}");
            assert_eq!(report.metrics, classic.metrics, "rounds included");
            assert!(report.health.is_clean());
            assert!(report.health.messages_sent > 0);
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
        let classic = SrSc::new()
            .run(&mut net.clone(), 1, DriveMode::Classic)
            .unwrap();
        let event = SrSc::new().run(&mut net.clone(), 1, IDEAL).unwrap();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
        assert!(event.health.is_clean());
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
