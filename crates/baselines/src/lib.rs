//! Baseline hole-recovery schemes the paper compares against (or cites as
//! the alternatives SR displaces).
//!
//! * [`ar`] — **AR**, the primary comparator (Jiang et al., WSNS'07 — the
//!   paper's reference \[3\] and its §5 baseline): the same snake-like
//!   cascading replacement as SR but **without** the Hamilton-cycle
//!   synchronization. Every head adjacent to a hole initiates its own
//!   process, so a single hole spawns several concurrent cascades —
//!   redundant processes, unnecessary movements, and outright failures
//!   when cascades collide. The WSNS'07 paper is not publicly available;
//!   the model here follows this paper's characterization of AR, with the
//!   concrete choices documented in the [`ar`] module docs.
//! * [`vf`] — a virtual-force scheme (after Wang et al. \[5\] and Zou &
//!   Chakrabarty \[10\]): density gradients push nodes from crowded regions
//!   toward sparse ones. Converges slowly with many small movements —
//!   exactly the cost profile the paper's introduction criticizes.
//! * [`smart`] — a SMART-style scan balancer (after Wu & Yang \[6\]): rows
//!   then columns are balanced globally, which recovers coverage quickly
//!   but moves nodes all over the grid "just for providing the coverage
//!   for a single hole".
//!
//! All baselines report the same cost counters as SR
//! ([`wsn_simcore::Metrics`]) so the bench harness can plot them on the
//! paper's axes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ar;
pub mod schemes;
pub mod smart;
pub mod vf;

pub use ar::{ArConfig, ArProtocol};
pub use schemes::{builtins, Ar, ArBuilder, Smart, Vf, VfBuilder};
pub use smart::SmartConfig;
pub use vf::{VfConfig, VfDetails};
