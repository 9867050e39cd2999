//! **SR**: synchronized snake-like hole recovery for wireless sensor
//! networks — the primary contribution of *Mobility Control for Complete
//! Coverage in Wireless Sensor Networks* (Jiang, Wu, Kline, Krantz;
//! ICDCS 2008 Workshops), reproduced in full.
//!
//! # What SR does
//!
//! A WSN over a virtual grid ([`wsn_grid`]) develops *holes* — cells with
//! no enabled sensor — as nodes fail or are attacked. SR threads all
//! cells on a directed Hamilton cycle ([`wsn_hamilton`]); each cell's
//! head monitors the successor cell, so a vacant cell is detected by
//! **exactly one** head, which initiates **exactly one** snake-like
//! cascading replacement (Algorithm 1):
//!
//! 1. if the initiating head's cell has a spare node, the spare moves
//!    into the hole and becomes its head — done;
//! 2. otherwise the head notifies its own predecessor and moves itself
//!    into the hole, leaving its cell vacant for the cascade to continue.
//!
//! On odd×odd grids (no Hamilton cycle exists) the dual-path structure
//! and Algorithm 2's case analysis apply. Either way, any vacant cell is
//! filled whenever at least one spare exists anywhere in the network
//! (Theorem 1 / Corollary 1), and the expected number of movements per
//! replacement is given by Theorem 2 (module [`analysis`]).
//!
//! # Quickstart
//!
//! ```
//! use wsn_coverage::{DriveMode, ReplacementScheme, Sr};
//! use wsn_grid::{deploy, GridNetwork, GridSystem};
//! use wsn_simcore::SimRng;
//!
//! // The paper's experimental setup, scaled down: R = 10 m cells.
//! let system = GridSystem::for_comm_range(8, 8, 10.0)?;
//! let mut rng = SimRng::seed_from_u64(7);
//! let positions = deploy::uniform(&system, 150, &mut rng);
//! let mut net = GridNetwork::new(system, &positions);
//!
//! // Recovery runs in place: afterwards `net` is the recovered network.
//! let report = Sr::new().run(&mut net, 7, DriveMode::Classic)?;
//! assert!(report.fully_covered || report.final_stats.spares == 0);
//! assert_eq!(net.stats(), report.final_stats);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod analysis;
mod config;
pub mod movement;
mod owners;
mod process;
mod protocol;
mod recovery;
mod run;
pub mod scheme;
pub mod shortcut;

pub use config::{SpareSelection, SrConfig};
pub use owners::OwnerCounts;
pub use process::{ProcessId, ProcessStatus, ProcessSummary};
pub use protocol::SrProtocol;
pub use scheme::{
    DriveMode, NetworkSpec, RegistryError, ReplacementScheme, SchemeId, SchemeIdError,
    SchemeRegistry, SchemeReport, Sr, SrSc, Unsupported,
};
pub use shortcut::ShortcutProtocol;
