//! The run state SR and SR-SC share: the borrowed network, the run's
//! RNG, cost counters and trace, the per-process summaries, and the
//! journal-fed hole index their detection sweeps. Each protocol adds
//! only its structure (cycle or ring), its process type and, under the
//! event drive, its link.

use std::collections::HashSet;

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
    /// meaningful.
    pub(crate) failed_holes: HashSet<GridCoord>,
    /// Current holes as dense row-major cell indices, maintained from the
    /// network's occupancy change journal — detection iterates this in
    /// O(holes) per round instead of scanning every cell. The word-level
    /// [`HoleSet`] iterates ascending, so sweeps visit holes exactly as
    /// a full row-major scan would.
    pending_holes: HoleSet,
    /// Scratch buffer reused by detection sweeps (no per-round allocs).
    detect_buf: Vec<usize>,
}

impl<'n> Run<'n> {
    /// Seeds the run RNG from `config.seed`, elects initial heads in
    /// every occupied cell, and seeds the hole index from the network's
    /// vacancy bitset (every later round folds in the change journal
    /// instead of rescanning).
    pub(crate) fn new(net: &'n mut GridNetwork, config: SrConfig, trace: TraceLog) -> Run<'n> {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let mut pending_holes = HoleSet::new(net.system().cell_count());
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        Run {
            net,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            summaries: Vec::new(),
            failed_holes: HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
        }
    }

    /// The current holes, ascending, in the reused scratch buffer; hand
    /// it back with [`Run::end_sweep`].
    pub(crate) fn sweep(&mut self) -> Vec<usize> {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
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

    /// Moves `node` into the central area of `target` as its head, bills
    /// and traces the move, and books it as one hop of `process`.
    ///
    /// `target` is always vacant: SR moves into the vacancy its process
    /// owns, SR-SC into the hole it serves (debug builds assert it). So
    /// [`GridNetwork::move_into_cell`]'s "head when headless" makes the
    /// mover the head, as the protocol requires. The destination draws
    /// `u` then `v` from the run's RNG, as
    /// [`movement_target`](crate::movement::movement_target) does.
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
