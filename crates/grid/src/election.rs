//! Head-election policies.
//!
//! The paper only requires that "one and only one enabled node will be
//! elected as the grid head" and notes "the role of each head can be
//! rotated within the grid". Which node wins is a policy choice that does
//! not affect the replacement algorithms' correctness, but it does affect
//! secondary metrics (movement distance, battery drain), so the policy is
//! explicit and benchable.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_geometry::Point2;
use wsn_simcore::{NodeId, SensorNode, SimRng};

/// Strategy for electing a cell's head among its enabled nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum HeadElection {
    /// Lowest node id wins: deterministic and cheap; the default, and the
    /// natural stand-in for the paper's unspecified election.
    #[default]
    FirstId,
    /// The node with the most remaining battery wins (GAF's motivation:
    /// rotate the awake role to balance energy).
    MaxEnergy,
    /// The node closest to the cell center wins (minimizes expected
    /// movement distance of the head's own future replacement hop).
    ClosestToCenter,
    /// Uniformly random among the cell's enabled nodes (models the
    /// randomized rotation the paper mentions).
    Random,
}

impl HeadElection {
    /// Elects a head among `candidates` (ids of enabled nodes in one
    /// cell). `nodes` is the backing node table, `center` yields the
    /// cell center, `rng` the deterministic stream for
    /// [`HeadElection::Random`].
    ///
    /// Only [`HeadElection::ClosestToCenter`] reads the center, so
    /// `center` is called for that policy alone, once, and only when
    /// there are candidates; the other policies build no geometry.
    ///
    /// Returns `None` when `candidates` is empty.
    #[inline]
    pub fn elect(
        self,
        candidates: &[NodeId],
        nodes: &[SensorNode],
        center: impl FnOnce() -> Point2,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            HeadElection::FirstId => candidates.iter().copied().min(),
            HeadElection::MaxEnergy => candidates.iter().copied().max_by(|&a, &b| {
                let ea = nodes[a.index()].battery().charge();
                let eb = nodes[b.index()].battery().charge();
                // Tie-break on id for determinism.
                ea.partial_cmp(&eb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            }),
            HeadElection::ClosestToCenter => {
                let center = center();
                candidates.iter().copied().min_by(|&a, &b| {
                    let da = nodes[a.index()].position().distance_squared(center);
                    let db = nodes[b.index()].position().distance_squared(center);
                    da.partial_cmp(&db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
            }
            HeadElection::Random => rng.pick(candidates).copied(),
        }
    }
}

impl fmt::Display for HeadElection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HeadElection::FirstId => "first-id",
            HeadElection::MaxEnergy => "max-energy",
            HeadElection::ClosestToCenter => "closest-to-center",
            HeadElection::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_simcore::Battery;

    fn make_nodes() -> Vec<SensorNode> {
        vec![
            SensorNode::with_battery(NodeId::new(0), Point2::new(0.0, 0.0), Battery::new(5.0)),
            SensorNode::with_battery(NodeId::new(1), Point2::new(1.0, 1.0), Battery::new(9.0)),
            SensorNode::with_battery(NodeId::new(2), Point2::new(0.9, 1.1), Battery::new(2.0)),
        ]
    }

    #[test]
    fn empty_candidates_elect_none() {
        let nodes = make_nodes();
        let mut rng = SimRng::seed_from_u64(0);
        for p in [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ] {
            assert_eq!(
                p.elect(&[], &nodes, || unreachable!("no candidates"), &mut rng),
                None
            );
        }
    }

    #[test]
    fn first_id_picks_minimum() {
        let nodes = make_nodes();
        let mut rng = SimRng::seed_from_u64(0);
        let c = [NodeId::new(2), NodeId::new(0), NodeId::new(1)];
        assert_eq!(
            HeadElection::FirstId.elect(&c, &nodes, || unreachable!("unread"), &mut rng),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn max_energy_picks_fullest_battery() {
        let nodes = make_nodes();
        let mut rng = SimRng::seed_from_u64(0);
        let c = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        assert_eq!(
            HeadElection::MaxEnergy.elect(&c, &nodes, || unreachable!("unread"), &mut rng),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn closest_to_center_picks_nearest() {
        let nodes = make_nodes();
        let mut rng = SimRng::seed_from_u64(0);
        let c = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let center = Point2::new(1.0, 1.0);
        assert_eq!(
            HeadElection::ClosestToCenter.elect(&c, &nodes, || center, &mut rng),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_candidates() {
        let nodes = make_nodes();
        let c = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let mut rng1 = SimRng::seed_from_u64(7);
        let mut rng2 = SimRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = HeadElection::Random.elect(&c, &nodes, || unreachable!("unread"), &mut rng1);
            let b = HeadElection::Random.elect(&c, &nodes, || unreachable!("unread"), &mut rng2);
            assert_eq!(a, b);
            assert!(c.contains(&a.unwrap()));
        }
    }

    #[test]
    fn display_nonempty() {
        for p in [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ] {
            assert!(!p.to_string().is_empty());
        }
    }
}
