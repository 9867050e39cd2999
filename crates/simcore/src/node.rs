//! Sensor nodes: identity, position, status and battery.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_geometry::Point2;

use crate::energy::Battery;

/// Stable identifier of a deployed sensor node.
///
/// Identifiers are dense indices assigned at deployment time (node `k` is
/// the `k`-th deployed sensor), which lets network state use `Vec`-backed
/// tables instead of hash maps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The dense index, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Whether a node participates in the network collaboration.
///
/// The paper's model: faulty and misbehaving sensors are *disabled* from
/// the collaboration; the remaining *enabled* nodes constitute the WSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum NodeStatus {
    /// Participating in the network (head or spare).
    #[default]
    Enabled,
    /// Excluded from the collaboration (failed, misbehaving, or jammed).
    Disabled,
}

impl NodeStatus {
    /// `true` for [`NodeStatus::Enabled`].
    #[inline]
    pub fn is_enabled(self) -> bool {
        matches!(self, NodeStatus::Enabled)
    }
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeStatus::Enabled => write!(f, "enabled"),
            NodeStatus::Disabled => write!(f, "disabled"),
        }
    }
}

/// A deployed sensor node.
///
/// ```
/// use wsn_simcore::{NodeId, SensorNode};
/// use wsn_geometry::Point2;
///
/// let n = SensorNode::new(NodeId::new(0), Point2::new(1.0, 2.0));
/// assert!(n.status().is_enabled());
/// assert_eq!(n.position(), Point2::new(1.0, 2.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorNode {
    id: NodeId,
    position: Point2,
    status: NodeStatus,
    battery: Battery,
}

impl SensorNode {
    /// Creates an enabled node at `position` with a full default battery.
    pub fn new(id: NodeId, position: Point2) -> SensorNode {
        SensorNode {
            id,
            position,
            status: NodeStatus::Enabled,
            battery: Battery::default(),
        }
    }

    /// Creates an enabled node with an explicit battery.
    pub fn with_battery(id: NodeId, position: Point2, battery: Battery) -> SensorNode {
        SensorNode {
            battery,
            ..SensorNode::new(id, position)
        }
    }

    /// Node identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current position.
    #[inline]
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// Enabled/disabled status.
    #[inline]
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// Battery state.
    #[inline]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Mutable battery state (for energy accounting by the engine).
    #[inline]
    pub fn battery_mut(&mut self) -> &mut Battery {
        &mut self.battery
    }

    /// Marks the node disabled (idempotent).
    pub fn disable(&mut self) {
        self.status = NodeStatus::Disabled;
    }

    /// Re-enables the node (used by repair/what-if scenarios).
    pub fn enable(&mut self) {
        self.status = NodeStatus::Enabled;
    }

    /// Moves the node to `target` and returns the distance covered.
    /// Movement cost is accounted per process and per run
    /// ([`crate::Metrics`]), not per node.
    pub fn move_to(&mut self, target: Point2) -> f64 {
        let d = self.position.distance(target);
        self.position = target;
        d
    }
}

impl fmt::Display for SensorNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} [{}]", self.id, self.position, self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn status_transitions() {
        let mut n = SensorNode::new(NodeId::new(0), Point2::ORIGIN);
        assert!(n.status().is_enabled());
        n.disable();
        assert!(!n.status().is_enabled());
        n.disable(); // idempotent
        assert!(!n.status().is_enabled());
        n.enable();
        assert!(n.status().is_enabled());
    }

    #[test]
    fn movement_returns_distance_and_relocates() {
        let mut n = SensorNode::new(NodeId::new(1), Point2::ORIGIN);
        let d1 = n.move_to(Point2::new(3.0, 4.0));
        assert_eq!(d1, 5.0);
        let d2 = n.move_to(Point2::new(3.0, 0.0));
        assert_eq!(d2, 4.0);
        assert_eq!(n.position(), Point2::new(3.0, 0.0));
    }

    #[test]
    fn display_nonempty() {
        let n = SensorNode::new(NodeId::new(7), Point2::new(1.0, 1.0));
        assert!(n.to_string().contains("n7"));
        assert_eq!(NodeStatus::Enabled.to_string(), "enabled");
        assert_eq!(NodeStatus::Disabled.to_string(), "disabled");
    }
}
