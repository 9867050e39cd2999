//! The run state SR and SR-SC share: the borrowed network, the run's
//! RNG, cost counters and trace, the per-process summaries, and the
//! sweep of the network's vacancy index their detection reads. Each
//! protocol adds only its structure (cycle or ring), its process type
//! and, under the event drive, its link.

use wsn_grid::{GridCoord, GridNetwork, HoleSet};
use wsn_simcore::{EnergyModel, Metrics, NodeId, SimRng, TraceEvent, TraceLog};

use crate::process::{ProcessId, ProcessStatus, ProcessSummary};
use crate::SrConfig;

#[derive(Debug)]
pub(crate) struct Run<'n> {
    pub(crate) net: &'n mut GridNetwork,
    pub(crate) config: SrConfig,
    pub(crate) rng: SimRng,
    pub(crate) trace: TraceLog,
    pub(crate) metrics: Metrics,
    pub(crate) energy: EnergyModel,
    pub(crate) summaries: Vec<ProcessSummary>,
    /// Holes whose processes exhausted the whole structure without
    /// finding a spare. Spares never increase during a run, so retrying
    /// such a hole is futile (and would livelock the protocol in the
    /// zero-spare regime); the set is cleared when faults or battery
    /// deaths change the network, the only events that can make a retry
    /// meaningful. Dense row-major cell indices.
    pub(crate) failed_holes: HoleSet,
    /// Scratch buffer reused by detection sweeps (no per-round allocs).
    detect_buf: Vec<usize>,
}

impl<'n> Run<'n> {
    /// Seeds the run RNG from `seed` and elects initial heads in every
    /// occupied cell.
    pub(crate) fn new(
        net: &'n mut GridNetwork,
        config: SrConfig,
        seed: u64,
        trace: TraceLog,
    ) -> Run<'n> {
        let mut rng = SimRng::seed_from_u64(seed);
        net.elect_all_heads(config.election, &mut rng);
        let cells = net.system().cell_count();
        Run {
            net,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            summaries: Vec::new(),
            failed_holes: HoleSet::new(cells),
            detect_buf: Vec::new(),
        }
    }

    /// The current holes, ascending, copied off the network's vacancy
    /// index into the reused scratch buffer, so detection can update the
    /// run while it walks them; hand it back with [`Run::end_sweep`].
    /// O(holes + levels), not O(cells). Detection's scan bill is the
    /// holes it visits: each one counts in `Metrics::cells_scanned`.
    pub(crate) fn sweep(&mut self) -> Vec<usize> {
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.net.vacancies().iter());
        self.metrics.cells_scanned += buf.len() as u64;
        buf
    }

    pub(crate) fn end_sweep(&mut self, buf: Vec<usize>) {
        self.detect_buf = buf;
    }

    /// Starts a process for `hole`, initiated by `initiator`'s head in
    /// `round`.
    pub(crate) fn initiate(
        &mut self,
        hole: GridCoord,
        initiator: GridCoord,
        round: u64,
    ) -> ProcessId {
        let id = ProcessId::new(self.summaries.len() as u64);
        self.summaries.push(ProcessSummary {
            id,
            hole,
            initiator,
            initiated_round: round,
            ended_round: None,
            status: ProcessStatus::Active,
            hops: 0,
            moves: 0,
            distance: 0.0,
        });
        self.metrics.processes_initiated += 1;
        self.trace.record(
            round,
            TraceEvent::ProcessInitiated {
                process: id.raw(),
                hole: hole.into(),
                initiator: initiator.into(),
            },
        );
        id
    }

    /// Ends process `id` in `round`: a spare filled its vacancy.
    pub(crate) fn converge(&mut self, id: ProcessId, round: u64) {
        let s = &mut self.summaries[id.raw() as usize];
        s.status = ProcessStatus::Converged;
        s.ended_round = Some(round);
        self.metrics.processes_converged += 1;
        let moves = s.moves;
        self.trace.record(
            round,
            TraceEvent::ProcessConverged {
                process: id.raw(),
                moves,
            },
        );
    }

    /// Ends process `id` in `round` without filling its vacancy.
    pub(crate) fn fail(&mut self, id: ProcessId, round: u64, reason: &'static str) {
        let s = &mut self.summaries[id.raw() as usize];
        s.status = ProcessStatus::Failed;
        s.ended_round = Some(round);
        self.metrics.processes_failed += 1;
        self.trace.record_with(round, || TraceEvent::ProcessFailed {
            process: id.raw(),
            reason: reason.into(),
        });
    }

    /// Fires the faults the plan schedules for `round`, tracing each node
    /// they disable. A death changes the network, so previously
    /// unfillable holes are worth re-detecting (conservative but safe):
    /// it clears `failed_holes`.
    ///
    /// Returns whether faults keep the round live: a node died, or the
    /// plan schedules more after `round` (an idle network can be
    /// re-holed at any planned round, so the run must not go quiescent
    /// before then).
    pub(crate) fn apply_faults(&mut self, round: u64) -> bool {
        let mut died = false;
        for event in self.config.fault_plan.events_at(round) {
            let killed = self.net.apply_fault(event, &mut self.rng);
            if !killed.is_empty() {
                died = true;
                self.failed_holes.clear();
            }
            for &node in &killed {
                let net = &*self.net;
                self.trace.record_with(round, || {
                    let position = net.node(node).expect("deployed").position();
                    let cell = net.system().cell_of(position);
                    TraceEvent::NodeDisabled {
                        node,
                        cell: cell.expect("positions stay in the area").into(),
                    }
                });
            }
        }
        let pending = self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        died || pending
    }

    /// Moves `node` into the central area of `target` as its head, bills
    /// and traces the move, and books it as one hop of `process`.
    ///
    /// `target` is always vacant: SR moves into the vacancy its process
    /// owns, SR-SC into the hole it serves (debug builds assert it). So
    /// [`GridNetwork::move_into_cell`]'s "head when headless" makes the
    /// mover the head, as the protocol requires. The destination draws
    /// `u` then `v` from the run's RNG ([`crate::movement`]).
    ///
    /// Under battery dynamics the mover pays the move's energy. A mover
    /// that dies on arrival leaves a fresh hole for detection to pick up;
    /// new energy can arrive nowhere, so unfillable holes are
    /// re-blacklisted through the normal failure path.
    pub(crate) fn execute_move(
        &mut self,
        process: ProcessId,
        node: NodeId,
        target: GridCoord,
        round: u64,
    ) {
        debug_assert_eq!(
            self.net.is_vacant(target),
            Ok(true),
            "SR and SR-SC move only into vacancies"
        );
        let (u, v) = (self.rng.uniform_f64(), self.rng.uniform_f64());
        let out = self
            .net
            .move_into_cell(node, target, u, v)
            .expect("targets are enabled cells");
        self.metrics.record_move(out.distance);
        let cost = self.energy.movement(out.distance);
        self.metrics.energy += cost;
        self.trace.record_with(round, || TraceEvent::NodeMoved {
            process: Some(process.raw()),
            node,
            from: out.from.into(),
            to: out.to.into(),
            distance: out.distance,
        });
        let s = &mut self.summaries[process.raw() as usize];
        s.hops += 1;
        s.moves += 1;
        s.distance += out.distance;
        if self.config.battery_dynamics
            && self
                .net
                .draw_battery(node, cost)
                .expect("movers are deployed")
        {
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

    /// Surveillance duty, only modeled under battery dynamics: every head
    /// burns idle energy each round (the GAF rationale for rotating the
    /// role). A head that dies of idle drain is replaced locally next
    /// round, or leaves a hole if it was the cell's last node. Returns
    /// whether any head died.
    pub(crate) fn drain_idle_heads(&mut self) -> bool {
        if !self.config.battery_dynamics {
            return false;
        }
        let idle = self.energy.idle_cost_per_round;
        let net = &mut *self.net;
        let heads: Vec<NodeId> = net
            .system()
            .iter_coords()
            .filter_map(|c| net.head_of(c).expect("in bounds"))
            .collect();
        let mut died = false;
        for head in heads {
            self.metrics.energy += idle;
            if net.draw_battery(head, idle).expect("heads are deployed") {
                net.disable_node(head).expect("heads are deployed");
                self.failed_holes.clear();
                died = true;
            }
        }
        died
    }
}
