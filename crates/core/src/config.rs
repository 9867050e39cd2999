//! Configuration for SR recovery runs.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_grid::{GridCoord, GridNetwork, HeadElection};
use wsn_simcore::fault::FaultPlan;
use wsn_simcore::NodeId;

/// Strategy for choosing which spare of a cell moves into the hole.
///
/// The paper only says "find a spare node in the grid of u"; the choice
/// does not affect the number of movements, only (slightly) the moving
/// distance. [`SpareSelection::pick`] applies a policy: SR and AR choose
/// through it with their configured policy, SR-SC always with `FirstId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SpareSelection {
    /// The spare closest to the target cell's center: minimizes this
    /// hop's distance. The default.
    #[default]
    ClosestToTarget,
    /// The lowest node id (fully deterministic, position-independent).
    FirstId,
    /// The spare with the most battery left (spreads movement wear).
    MaxEnergy,
}

impl SpareSelection {
    /// The spare of `cell` this policy sends toward `target`'s center,
    /// or `None` when `cell` holds no spare. Ties go to the lower node
    /// id. Draws nothing from any RNG.
    ///
    /// # Panics
    ///
    /// Under `ClosestToTarget`, panics when `target` is outside the
    /// network's grid.
    pub fn pick(self, net: &GridNetwork, cell: GridCoord, target: GridCoord) -> Option<NodeId> {
        if net.spare_count(cell).ok()? == 0 {
            return None;
        }
        let spares = net.spare_iter(cell).ok()?;
        let node = |id: NodeId| net.node(id).expect("spares are deployed");
        match self {
            SpareSelection::FirstId => spares.min(),
            SpareSelection::ClosestToTarget => {
                let center = net
                    .system()
                    .cell_center(target)
                    .expect("targets are in-bounds cells");
                spares.min_by(|&a, &b| {
                    let da = node(a).position().distance_squared(center);
                    let db = node(b).position().distance_squared(center);
                    da.partial_cmp(&db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
            }
            SpareSelection::MaxEnergy => spares.max_by(|&a, &b| {
                let ea = node(a).battery().charge();
                let eb = node(b).battery().charge();
                ea.partial_cmp(&eb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            }),
        }
    }
}

impl fmt::Display for SpareSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpareSelection::ClosestToTarget => "closest-to-target",
            SpareSelection::FirstId => "first-id",
            SpareSelection::MaxEnergy => "max-energy",
        };
        f.write_str(s)
    }
}

/// Configuration for an SR recovery run (builder style).
///
/// ```
/// use wsn_coverage::{SpareSelection, SrConfig};
/// use wsn_grid::HeadElection;
///
/// let cfg = SrConfig::default()
///     .with_seed(42)
///     .with_election(HeadElection::MaxEnergy)
///     .with_spare_selection(SpareSelection::FirstId);
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SrConfig {
    /// Seed for the run's deterministic RNG.
    pub seed: u64,
    /// Head-election policy (initial election and local repairs).
    pub election: HeadElection,
    /// Spare-selection policy within a cell.
    pub spare_selection: SpareSelection,
    /// Round cap for the run (default 100 000 — far above any converging
    /// scenario in the paper's parameter ranges).
    pub max_rounds: u64,
    /// Faults injected during the run (beyond the holes present at
    /// start). Rounds index from the start of the run.
    pub fault_plan: FaultPlan,
    /// Probability that a head scheduled to act this round actually
    /// fires (1.0 = the paper's synchronous round model). Values below 1
    /// model the asynchronous system the paper says the schemes "can be
    /// extended easily to": actions interleave in random order over
    /// time, at the cost of more rounds. Clamped to `(0, 1]`.
    pub activation_probability: f64,
    /// Charge each movement and message against the acting node's
    /// battery; a node whose battery empties is disabled, which can
    /// itself open new holes mid-recovery (the battery-depletion attack
    /// surface of the paper's reference \[8\]).
    pub battery_dynamics: bool,
    /// Re-elect every occupied cell's head each time this many rounds
    /// pass (the paper's §2: "the role of each head can be rotated
    /// within the grid" — with [`HeadElection::MaxEnergy`] this spreads
    /// surveillance duty over the cell's members). `None` disables
    /// rotation.
    pub head_rotation_period: Option<u64>,
}

impl Default for SrConfig {
    fn default() -> Self {
        SrConfig {
            seed: 0,
            election: HeadElection::FirstId,
            spare_selection: SpareSelection::ClosestToTarget,
            max_rounds: 100_000,
            fault_plan: FaultPlan::new(),
            activation_probability: 1.0,
            battery_dynamics: false,
            head_rotation_period: None,
        }
    }
}

impl SrConfig {
    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the head-election policy.
    #[must_use]
    pub fn with_election(mut self, election: HeadElection) -> Self {
        self.election = election;
        self
    }

    /// Sets the spare-selection policy.
    #[must_use]
    pub fn with_spare_selection(mut self, selection: SpareSelection) -> Self {
        self.spare_selection = selection;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the in-run fault plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the per-round activation probability (asynchronous mode when
    /// below 1; values outside `(0, 1]` are clamped).
    #[must_use]
    pub fn with_activation_probability(mut self, p: f64) -> Self {
        self.activation_probability = if p.is_finite() {
            p.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            1.0
        };
        self
    }

    /// Enables battery dynamics (movement/messages drain the acting
    /// node; depleted nodes are disabled).
    #[must_use]
    pub fn with_battery_dynamics(mut self, enabled: bool) -> Self {
        self.battery_dynamics = enabled;
        self
    }

    /// Enables periodic head rotation every `period` rounds (`period` of
    /// zero disables rotation, like `None`).
    #[must_use]
    pub fn with_head_rotation(mut self, period: u64) -> Self {
        self.head_rotation_period = (period > 0).then_some(period);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_simcore::fault::FaultEvent;

    #[test]
    fn builder_chains() {
        let cfg = SrConfig::default()
            .with_seed(9)
            .with_election(HeadElection::Random)
            .with_spare_selection(SpareSelection::MaxEnergy)
            .with_max_rounds(50)
            .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillRandomEnabled { count: 2 }));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.election, HeadElection::Random);
        assert_eq!(cfg.spare_selection, SpareSelection::MaxEnergy);
        assert_eq!(cfg.max_rounds, 50);
        assert_eq!(cfg.fault_plan.events().len(), 1);
    }

    #[test]
    fn defaults_match_paper_methodology() {
        let cfg = SrConfig::default();
        assert_eq!(cfg.election, HeadElection::FirstId);
        assert_eq!(cfg.spare_selection, SpareSelection::ClosestToTarget);
        assert!(cfg.max_rounds >= 10_000);
        assert!(cfg.fault_plan.is_empty());
    }

    #[test]
    fn selection_display() {
        for s in [
            SpareSelection::ClosestToTarget,
            SpareSelection::FirstId,
            SpareSelection::MaxEnergy,
        ] {
            assert!(!s.to_string().is_empty());
        }
    }
}
