//! # wsn — complete-coverage hole recovery for wireless sensor networks
//!
//! A full reproduction of *Mobility Control for Complete Coverage in
//! Wireless Sensor Networks* (Zhen Jiang, Jie Wu, Robert Kline, Jennifer
//! Krantz — ICDCS 2008 Workshops), as a Rust workspace. This facade crate
//! re-exports every subsystem; depend on it to get the whole stack, or on
//! the individual crates for narrower builds.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geometry`] | `wsn-geometry` | points, rectangles, disks, cell geometry |
//! | [`simcore`] | `wsn-simcore` | deterministic RNG, network models, faults, traces, metrics |
//! | [`grid`] | `wsn-grid` | the GAF virtual grid: occupancy, heads, deployment, coverage checks |
//! | [`hamilton`] | `wsn-hamilton` | directed Hamilton cycles and the odd×odd dual-path structure |
//! | [`coverage`] | `wsn-coverage` | **SR** — the paper's synchronized snake-like replacement, the round loop (`scheme::run_to_quiescence`) + Theorem 2 analysis |
//! | [`baselines`] | `wsn-baselines` | AR (the paper's comparator), virtual force, SMART-style scans |
//! | [`stats`] | `wsn-stats` | summaries, confidence intervals, ASCII plots, CSV |
//!
//! # Quickstart
//!
//! Every replacement scheme is driven through the object-safe
//! [`ReplacementScheme`](wsn_coverage::ReplacementScheme) trait; the
//! registry ([`wsn_baselines::builtins`]) maps stable string ids
//! (`"sr"`, `"ar"`, …) to the five built-ins.
//!
//! ```
//! use wsn::prelude::*;
//!
//! // The paper's setup: R = 10 m communication range => 4.4721 m cells.
//! let system = GridSystem::for_comm_range(8, 8, 10.0)?;
//! let mut rng = SimRng::seed_from_u64(42);
//!
//! // Deploy 2 nodes per cell, then lose an entire cell to a fault.
//! let positions = deploy::per_cell_exact(&system, 2, &mut rng);
//! let mut network = GridNetwork::new(system, &positions);
//! let victims: Vec<_> = network.members(GridCoord::new(3, 3))?.to_vec();
//! for id in victims {
//!     network.disable_node(id)?;
//! }
//! assert_eq!(network.vacant_count(), 1);
//!
//! // SR recovery through the scheme API: exactly one replacement
//! // process, hole filled, network recovered in place.
//! let selection = SpareSelection::ClosestToTarget;
//! let sr = Sr::from_config(SrConfig::default().with_spare_selection(selection));
//! sr.supports(&NetworkSpec::of(&network))?;
//! let report = sr.run(&mut network, 42, DriveMode::Classic)?;
//! assert!(report.fully_covered);
//! assert_eq!(report.metrics.processes_initiated, 1);
//! assert_eq!(network.stats(), report.final_stats);
//!
//! // Same two calls run any registered scheme — here AR, by id.
//! let ar_report = builtins()
//!     .get("ar")
//!     .expect("built-in")
//!     .run(&mut network.clone(), 42, DriveMode::Classic)?;
//! assert!(ar_report.fully_covered);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wsn_baselines as baselines;
pub use wsn_coverage as coverage;
pub use wsn_geometry as geometry;
pub use wsn_grid as grid;
pub use wsn_hamilton as hamilton;
pub use wsn_simcore as simcore;
pub use wsn_stats as stats;

/// The Rust blocks of `README.md`, compiled and run as doc-tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use wsn_baselines::{builtins, Ar, Smart, Vf};
    pub use wsn_coverage::{
        analysis, DriveMode, NetworkSpec, ReplacementScheme, SchemeId, SchemeRegistry,
        SchemeReport, SpareSelection, Sr, SrConfig, SrSc, Unsupported,
    };
    pub use wsn_geometry::{Disk, Point2, Rect, Vec2};
    pub use wsn_grid::{
        coverage_verdict, deploy, render, GridCoord, GridNetwork, GridSystem, HeadElection,
        RegionMask, RegionShape,
    };
    pub use wsn_hamilton::{CycleTopology, DualPathCycle, HamiltonCycle, MaskedCycle};
    pub use wsn_simcore::{
        fault::{FaultEvent, FaultPlan, Jammer},
        Battery, Metrics, NodeId, SimRng, TraceEvent,
    };
}
