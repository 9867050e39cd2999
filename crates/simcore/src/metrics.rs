//! Cost counters matching the paper's evaluation metrics.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Aggregate cost counters for one protocol run.
///
/// The fields mirror Section 5 of the paper: it evaluates schemes by the
/// number of replacement processes initiated (Fig. 6a), their success rate
/// (Fig. 6b), the total number of node movements (Fig. 7) and the total
/// moving distance in meters (Fig. 8). Message and energy counters extend
/// the paper's accounting (its §1 argues communication cost matters but it
/// does not plot it).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Completed node movements (one per grid-to-grid hop).
    pub moves: u64,
    /// Total moving distance, meters.
    pub distance: f64,
    /// Replacement processes initiated.
    pub processes_initiated: u64,
    /// Replacement processes that converged (found a spare).
    pub processes_converged: u64,
    /// Replacement processes that failed.
    pub processes_failed: u64,
    /// Control messages sent between heads.
    pub messages: u64,
    /// Energy drawn across all nodes, joules.
    pub energy: f64,
    /// Rounds executed.
    pub rounds: u64,
    /// Cells (or nodes, for node-centric schemes) examined by occupancy
    /// scans: hole-detection sweeps, global balancing scans, force-field
    /// snapshots. Quantifies the paper's §1 criticism of global schemes —
    /// SR's detection, a sweep of the network's vacancy index, keeps
    /// this O(holes) per round while scan-based baselines accumulate
    /// full-grid counts.
    pub cells_scanned: u64,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Stable names of the per-trial observables, in the order
    /// [`Metrics::field_values`] reports them. Campaign aggregation keys
    /// its streaming accumulators (and the JSON/CSV schema) off this
    /// table, so adding a counter here automatically extends every
    /// downstream artifact.
    pub const FIELD_NAMES: [&'static str; 10] = [
        "moves",
        "distance",
        "processes_initiated",
        "processes_converged",
        "processes_failed",
        "success_rate_percent",
        "messages",
        "energy",
        "rounds",
        "cells_scanned",
    ];

    /// The counters as `f64` observables, parallel to
    /// [`Metrics::FIELD_NAMES`] — one Monte-Carlo observation per field,
    /// ready to fold into streaming summaries.
    pub fn field_values(&self) -> [f64; 10] {
        [
            self.moves as f64,
            self.distance,
            self.processes_initiated as f64,
            self.processes_converged as f64,
            self.processes_failed as f64,
            self.success_rate_percent(),
            self.messages as f64,
            self.energy,
            self.rounds as f64,
            self.cells_scanned as f64,
        ]
    }

    /// Per-process success rate in percent, the paper's Fig. 6b metric.
    /// Returns 100.0 when no process was initiated (an intact network
    /// counts as fully successful).
    pub fn success_rate_percent(&self) -> f64 {
        if self.processes_initiated == 0 {
            100.0
        } else {
            100.0 * self.processes_converged as f64 / self.processes_initiated as f64
        }
    }

    /// Records one movement of `distance` meters.
    #[inline]
    pub fn record_move(&mut self, distance: f64) {
        self.moves += 1;
        self.distance += distance;
    }

    /// Records one control message.
    #[inline]
    pub fn record_message(&mut self) {
        self.messages += 1;
    }
}

impl Add for Metrics {
    type Output = Metrics;
    fn add(self, rhs: Metrics) -> Metrics {
        Metrics {
            moves: self.moves + rhs.moves,
            distance: self.distance + rhs.distance,
            processes_initiated: self.processes_initiated + rhs.processes_initiated,
            processes_converged: self.processes_converged + rhs.processes_converged,
            processes_failed: self.processes_failed + rhs.processes_failed,
            messages: self.messages + rhs.messages,
            energy: self.energy + rhs.energy,
            rounds: self.rounds.max(rhs.rounds),
            cells_scanned: self.cells_scanned + rhs.cells_scanned,
        }
    }
}

impl AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Metrics) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "moves={} distance={:.1}m processes={} ({} ok, {} failed, {:.1}%) messages={} energy={:.1}J rounds={} scanned={}",
            self.moves,
            self.distance,
            self.processes_initiated,
            self.processes_converged,
            self.processes_failed,
            self.success_rate_percent(),
            self.messages,
            self.energy,
            self.rounds,
            self.cells_scanned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_conventions() {
        let mut m = Metrics::new();
        assert_eq!(m.success_rate_percent(), 100.0);
        m.processes_initiated = 4;
        m.processes_converged = 3;
        m.processes_failed = 1;
        assert_eq!(m.success_rate_percent(), 75.0);
    }

    #[test]
    fn record_helpers() {
        let mut m = Metrics::new();
        m.record_move(2.5);
        m.record_move(1.5);
        m.record_message();
        assert_eq!(m.moves, 2);
        assert_eq!(m.distance, 4.0);
        assert_eq!(m.messages, 1);
    }

    #[test]
    fn addition_merges_counters_and_takes_max_rounds() {
        let a = Metrics {
            moves: 2,
            distance: 3.0,
            processes_initiated: 1,
            processes_converged: 1,
            processes_failed: 0,
            messages: 5,
            energy: 1.0,
            rounds: 7,
            cells_scanned: 100,
        };
        let b = Metrics {
            moves: 1,
            distance: 1.0,
            processes_initiated: 2,
            processes_converged: 1,
            processes_failed: 1,
            messages: 2,
            energy: 0.5,
            rounds: 3,
            cells_scanned: 10,
        };
        let c = a + b;
        assert_eq!(c.moves, 3);
        assert_eq!(c.distance, 4.0);
        assert_eq!(c.processes_initiated, 3);
        assert_eq!(c.rounds, 7);
        assert_eq!(c.cells_scanned, 110);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn field_values_parallel_field_names() {
        let m = Metrics {
            moves: 2,
            distance: 3.5,
            processes_initiated: 4,
            processes_converged: 3,
            processes_failed: 1,
            messages: 6,
            energy: 7.25,
            rounds: 8,
            cells_scanned: 9,
        };
        let values = m.field_values();
        assert_eq!(values.len(), Metrics::FIELD_NAMES.len());
        let lookup = |name: &str| {
            let i = Metrics::FIELD_NAMES
                .iter()
                .position(|&f| f == name)
                .unwrap();
            values[i]
        };
        assert_eq!(lookup("moves"), 2.0);
        assert_eq!(lookup("distance"), 3.5);
        assert_eq!(lookup("success_rate_percent"), 75.0);
        assert_eq!(lookup("rounds"), 8.0);
        assert_eq!(lookup("cells_scanned"), 9.0);
    }

    #[test]
    fn display_mentions_all_headline_numbers() {
        let m = Metrics {
            moves: 9,
            distance: 12.5,
            ..Metrics::default()
        };
        let s = m.to_string();
        assert!(s.contains("moves=9"));
        assert!(s.contains("12.5"));
    }
}
