//! Deterministic round-based simulation kernel for wireless-sensor-network
//! protocols.
//!
//! The paper reproduced by this workspace (*Mobility Control for Complete
//! Coverage in Wireless Sensor Networks*, Jiang et al., ICDCS 2008
//! Workshops) describes its control schemes "in a round-based system": in
//! every round each grid head observes its neighborhood, sends at most one
//! notification, and completes at most one movement before the next round
//! starts. This crate provides exactly that execution model, plus the
//! cross-cutting machinery every protocol needs:
//!
//! * [`rng::SimRng`] — a deterministic, seedable, forkable PRNG
//!   (xoshiro256++ seeded through splitmix64) written in-repo so that
//!   every experiment is byte-for-byte reproducible on every platform.
//! * [`node`] — sensor nodes with positions, enabled/disabled status and
//!   battery state.
//! * [`engine`] — the synchronous round loop with quiescence detection.
//! * [`event`] — the virtual-clock binary-heap scheduler behind the
//!   event-driven engine, with deterministic `(time, seq)` FIFO
//!   tie-breaking.
//! * [`net`] — network models (ideal, fixed-latency, Bernoulli loss,
//!   jammer disk) with coordinate-addressed RNG streams, plus the
//!   [`net::ProtocolHealth`] outcome block.
//! * [`fault`] — fault injection: random kills, targeted kills and a
//!   moving-jammer region model (after Xu et al., *Jamming sensor
//!   networks*, cited as \[8\] by the paper).
//! * [`energy`] — the movement/communication energy model used by the
//!   cost accounting.
//! * [`metrics`] — counters for movements, distance, messages and
//!   replacement processes.
//! * [`shutdown`] — the process-wide SIGINT/SIGTERM graceful-shutdown
//!   flag every long-running binary polls so checkpoints and ledgers
//!   flush instead of dying mid-write.
//! * [`trace`] — structured event log for debugging and for the
//!   examples, with lossless JSON-Lines and versioned binary codecs.
//! * [`replay`] — event-log diffing and delta-debugging fault-schedule
//!   shrinking over those logs.
//!
//! # Example
//!
//! ```
//! use wsn_simcore::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(42);
//! let a = rng.uniform_f64();
//! let mut rng2 = SimRng::seed_from_u64(42);
//! assert_eq!(a, rng2.uniform_f64()); // fully deterministic
//! ```

// `deny`, not `forbid`: the [`shutdown`] module carries the workspace's
// single unsafe block — the two-line `signal(2)` FFI binding behind the
// SIGINT/SIGTERM graceful-shutdown flag — under a scoped allow. Every
// other module (and every other crate) still rejects unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod engine;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod node;
pub mod replay;
pub mod rng;
pub mod shutdown;
pub mod trace;

pub use energy::{Battery, EnergyModel};
pub use engine::{EngineError, Quiescence, RoundOutcome, RoundProtocol, RoundRunner, RunReport};
pub use event::{EventQueue, Scheduled};
pub use fault::{FaultEvent, FaultPlan, Jammer};
pub use metrics::Metrics;
pub use net::{Fate, NetLink, NetModelSpec, PairHasher, ProtocolHealth};
pub use node::{NodeId, NodeStatus, SensorNode};
pub use replay::{diff_logs, shrink_fault_plan, Divergence, ShrinkReport, TraceDiff};
pub use rng::{derive_stream_seed, SimRng};
pub use trace::{TraceCodecError, TraceEvent, TraceLog, TraceRecord};

/// A simulation round index (the paper's synchronous time step).
pub type Round = u64;
