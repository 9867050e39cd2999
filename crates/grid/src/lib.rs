//! The virtual grid model (GAF) substrate.
//!
//! The paper builds directly on the virtual-grid model of Xu & Heidemann
//! (*Geography-informed energy conservation for ad hoc routing*,
//! MobiCom'01 — the paper's reference \[9\]): the surveillance area is
//! partitioned into an `n × m` grid of `r × r` cells; with communication
//! range `R = √5·r` every enabled node can talk to nodes in the four
//! 4-adjacent cells, so keeping one **head** awake per cell guarantees
//! both surveillance coverage and network connectivity. The other enabled
//! nodes of a cell are **spares**.
//!
//! This crate implements that substrate:
//!
//! * [`GridCoord`] / [`Direction`] — cell addressing.
//! * [`GridSystem`] — dimensions plus cell geometry (`r = R/√5`).
//! * [`GridNetwork`] — the mutable network state: deployed nodes, per-cell
//!   occupancy, heads, spares, vacancies; fault application; movements.
//! * [`deploy`] — deployment generators reproducing the paper's uniform
//!   methodology (plus clustered variants for extension experiments).
//! * [`election`] — head-election policies.
//! * [`coverage`] — coverage / connectivity verdicts (the properties
//!   Theorem 1 is about).
//!
//! # Example
//!
//! ```
//! use wsn_grid::{deploy, GridNetwork, GridSystem};
//! use wsn_simcore::SimRng;
//!
//! // The paper's setup: R = 10 m => r = 4.4721 m cells.
//! let system = GridSystem::for_comm_range(16, 16, 10.0)?;
//! let mut rng = SimRng::seed_from_u64(1);
//! let positions = deploy::uniform(&system, 600, &mut rng);
//! let mut net = GridNetwork::new(system, &positions);
//! net.elect_all_heads(wsn_grid::HeadElection::FirstId, &mut rng);
//! assert_eq!(net.occupied_cells() + net.vacant_count(), 256);
//! # Ok::<(), wsn_grid::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod coverage;
pub mod deploy;
pub mod election;
mod error;
pub mod kernel;
pub mod mask;
mod members;
mod network;
pub mod render;
mod system;

pub use coord::{Direction, GridCoord};
pub use coverage::{connectivity_verdict, coverage_verdict, k_coverage_fraction, CoverageVerdict};
pub use election::HeadElection;
pub use error::GridError;
pub use kernel::HoleSet;
pub use mask::{RegionMask, RegionShape};
pub use network::{GridNetwork, MoveOutcome, NetworkStats};
pub use system::{GridSystem, COMM_RANGE_FACTOR, DIAGONAL_RANGE_FACTOR};

/// Result alias for grid-layer errors.
pub type Result<T> = std::result::Result<T, GridError>;
