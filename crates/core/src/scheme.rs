//! The uniform protocol-driving API: every replacement scheme — SR,
//! SR-SC, AR, virtual force, SMART — behind one object-safe trait plus a
//! registry of stable string ids.
//!
//! Every harness that compares schemes (campaigns, sweeps, figures,
//! CLIs) drives them through [`ReplacementScheme`] instead of paying a
//! `match` arm per scheme per call site. The trait asks three questions
//! any scheme can answer:
//!
//! * **who are you** — [`ReplacementScheme::id`] (a stable, parseable
//!   token like `"sr-sc"`, used in CSV/JSON artifacts and on the CLI)
//!   and [`ReplacementScheme::label`] (the figure-legend spelling);
//! * **can you run here** — [`ReplacementScheme::supports`] checks a
//!   region ([`NetworkSpec`]) *before* any deployment happens, so
//!   experiment matrices validate up front instead of panicking on a
//!   worker thread;
//! * **run** — [`ReplacementScheme::run`] drives the scheme on a
//!   `&mut GridNetwork` to completion and returns the unified
//!   [`SchemeReport`]. Passing the network by `&mut` (not by value) is
//!   what makes paired before/after inspection possible without cloning.
//!
//! [`DriveMode`] picks the engine: the paper's classic round loop, or
//! the event engine under a network model. The round schemes (SR, SR-SC
//! and AR) build their protocol on the borrowed network and hand it to
//! one driver, [`run_to_quiescence`].
//!
//! A [`SchemeRegistry`] maps ids to boxed scheme objects. The five
//! built-ins are registered by `wsn_baselines::builtins()`; external
//! plugins register at runtime:
//!
//! ```
//! use wsn_coverage::scheme::{
//!     DriveMode, NetworkSpec, ReplacementScheme, SchemeDetails, SchemeReport,
//!     SchemeRegistry, Unsupported,
//! };
//! use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
//! use wsn_simcore::{Metrics, Quiescence, RunReport, SimRng};
//!
//! /// A third-party scheme: an omniscient dispatcher that teleports the
//! /// lowest-id spare straight into each hole (physically impossible —
//! /// but a useful lower bound to compare real schemes against).
//! #[derive(Debug, Default)]
//! struct Oracle;
//!
//! impl ReplacementScheme for Oracle {
//!     fn id(&self) -> &str {
//!         "oracle"
//!     }
//!     fn label(&self) -> &str {
//!         "Oracle"
//!     }
//!     fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
//!         Ok(()) // runs on any region
//!     }
//!     fn run(
//!         &self,
//!         net: &mut GridNetwork,
//!         _seed: u64,
//!         mode: DriveMode,
//!     ) -> Result<SchemeReport, Unsupported> {
//!         if mode != DriveMode::Classic {
//!             return Err(Unsupported::new(self.id(), "only the classic driver exists"));
//!         }
//!         let initial_stats = net.stats();
//!         let mut metrics = Metrics::new();
//!         let sys = *net.system();
//!         for hole in net.vacant_iter().collect::<Vec<_>>() {
//!             let Some(donor) = sys.iter_coords().find(|&c| {
//!                 net.spare_count(c).is_ok_and(|n| n > 0)
//!             }) else {
//!                 break;
//!             };
//!             let spare = net.spare_iter(donor).unwrap().min().unwrap();
//!             let dest = sys.cell_center(hole).unwrap();
//!             let moved = net.move_node(spare, dest).unwrap();
//!             metrics.record_move(moved.distance);
//!         }
//!         metrics.rounds = 1;
//!         let final_stats = net.stats();
//!         Ok(SchemeReport {
//!             run: RunReport { rounds: 1, termination: Quiescence::Reached },
//!             metrics,
//!             initial_stats,
//!             fully_covered: final_stats.vacant == 0,
//!             final_stats,
//!             processes: Vec::new(),
//!             health: wsn_simcore::ProtocolHealth::default(),
//!             details: SchemeDetails::none(),
//!         })
//!     }
//! }
//!
//! let mut registry = SchemeRegistry::new();
//! registry.register(Oracle)?;
//!
//! // Drive it exactly like a built-in: by id, on a &mut network.
//! let sys = GridSystem::new(4, 4, 4.4721)?;
//! let mut rng = SimRng::seed_from_u64(7);
//! let pos = deploy::with_holes(&sys, &[GridCoord::new(1, 1)], 2, &mut rng);
//! let mut net = GridNetwork::new(sys, &pos);
//!
//! let scheme = registry.get("oracle").expect("just registered");
//! scheme.supports(&NetworkSpec::of(&net))?;
//! let report = scheme.run(&mut net, 7, DriveMode::Classic)?;
//! assert!(report.fully_covered);
//! assert_eq!(net.stats(), report.final_stats); // in-place: net is the final state
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::any::Any;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wsn_grid::{GridNetwork, NetworkStats, RegionMask};
use wsn_hamilton::CycleTopology;
use wsn_simcore::{Metrics, NetModelSpec, ProtocolHealth, RunReport, TraceLog};

use crate::process::ProcessSummary;
use crate::shortcut::{ScRing, ShortcutProtocol};
use crate::{SrConfig, SrProtocol};

pub use crate::recovery::{round_runner, run_to_quiescence, ProtocolOutcome, SchemeProtocol};

/// Which engine drives a scheme's rounds.
///
/// Round-trips through its text form (`classic`, `event-<net token>`,
/// e.g. `event-lat3`) via [`fmt::Display`] and [`FromStr`]: the spelling
/// replay artifacts and CLIs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DriveMode {
    /// The paper's accounting: one synchronous round loop, where
    /// quiescence is observed by executing idle-confirmation rounds.
    #[default]
    Classic,
    /// The discrete-event engine: heads and spares are actors
    /// exchanging typed messages through the given network model
    /// ([`wsn_simcore::net`]), so latency and loss become protocol
    /// inputs instead of axioms. Under [`NetModelSpec::Ideal`] the
    /// engine reproduces the classic runner's `Metrics` exactly (the
    /// conformance contract); degraded models surface duplicate
    /// initiations, lost cascades and stalled repairs in
    /// [`SchemeReport::health`]. Only available where
    /// [`ReplacementScheme::supports_event_driven`] reports `true`.
    EventDriven {
        /// The network model messages are routed through.
        net: NetModelSpec,
    },
}

impl fmt::Display for DriveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveMode::Classic => f.write_str("classic"),
            DriveMode::EventDriven { net } => write!(f, "event-{net}"),
        }
    }
}

impl FromStr for DriveMode {
    type Err = UnknownDrive;

    fn from_str(s: &str) -> Result<DriveMode, UnknownDrive> {
        if s == "classic" {
            return Ok(DriveMode::Classic);
        }
        s.strip_prefix("event-")
            .and_then(NetModelSpec::parse_token)
            .map(|net| DriveMode::EventDriven { net })
            .ok_or_else(|| UnknownDrive {
                input: s.to_owned(),
            })
    }
}

/// A string names no [`DriveMode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDrive {
    /// The rejected string.
    pub input: String,
}

impl fmt::Display for UnknownDrive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown drive mode {:?}: expected \"classic\" or \"event-<net model token>\"",
            self.input
        )
    }
}

impl std::error::Error for UnknownDrive {}

/// A scheme cannot run on the requested region, configuration, or drive
/// mode.
///
/// Marked `#[non_exhaustive]`: future scheme capabilities may grow this
/// error's surface without breaking downstream constructors or matches.
/// Build one with [`Unsupported::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Unsupported {
    /// Id of the scheme that declined.
    pub scheme: String,
    /// Human-readable explanation.
    pub reason: String,
}

impl Unsupported {
    /// Builds the error.
    pub fn new(scheme: impl Into<String>, reason: impl Into<String>) -> Unsupported {
        Unsupported {
            scheme: scheme.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheme '{}': {}", self.scheme, self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// What a scheme is asked to run on, *before* any nodes are deployed: a
/// surveillance region (grid dimensions plus the enabled-cell mask).
///
/// [`ReplacementScheme::supports`] answers against this, so experiment
/// matrices ([`wsn_bench`-style campaigns]) can validate every
/// (scheme, region, grid) combination up front.
///
/// [`wsn_bench`-style campaigns]: ReplacementScheme::supports
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    mask: RegionMask,
}

impl NetworkSpec {
    /// A full rectangular `cols × rows` region (the paper's setting).
    pub fn full(cols: u16, rows: u16) -> NetworkSpec {
        NetworkSpec {
            mask: RegionMask::full(cols, rows),
        }
    }

    /// An irregular region described by `mask`.
    pub fn masked(mask: RegionMask) -> NetworkSpec {
        NetworkSpec { mask }
    }

    /// The region of an existing network.
    pub fn of(net: &GridNetwork) -> NetworkSpec {
        NetworkSpec {
            mask: net.mask().clone(),
        }
    }

    /// Grid columns.
    pub fn cols(&self) -> u16 {
        self.mask.cols()
    }

    /// Grid rows.
    pub fn rows(&self) -> u16 {
        self.mask.rows()
    }

    /// The enabled-cell mask (all cells for a full region).
    pub fn mask(&self) -> &RegionMask {
        &self.mask
    }
}

/// A scheme-specific value a report can carry without widening the
/// shared [`SchemeReport`] shape — the typed extension point.
///
/// Values are stored behind `Arc<dyn Any>` and recovered by type:
///
/// ```
/// use wsn_coverage::scheme::SchemeDetails;
///
/// #[derive(Debug, PartialEq)]
/// struct GossipStats {
///     beacons: u64,
/// }
///
/// let details = SchemeDetails::new(GossipStats { beacons: 12 });
/// assert_eq!(details.get::<GossipStats>().unwrap().beacons, 12);
/// assert!(details.get::<String>().is_none()); // wrong type: no value
/// assert!(SchemeDetails::none().get::<GossipStats>().is_none());
/// ```
#[derive(Clone, Default)]
pub struct SchemeDetails(Option<Arc<dyn DetailValue>>);

/// The bound a detail payload must satisfy. Blanket-implemented for
/// every eligible type; implement nothing yourself.
pub trait DetailValue: Any + fmt::Debug + Send + Sync {
    /// The payload as `Any`, for downcasting.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + fmt::Debug + Send + Sync> DetailValue for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl SchemeDetails {
    /// No extra details (the common case).
    pub fn none() -> SchemeDetails {
        SchemeDetails(None)
    }

    /// Wraps a scheme-specific payload.
    pub fn new<T: DetailValue>(value: T) -> SchemeDetails {
        SchemeDetails(Some(Arc::new(value)))
    }

    /// The payload, if one of type `T` is present.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.0.as_deref().and_then(|v| v.as_any().downcast_ref())
    }

    /// `true` when no payload is attached.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for SchemeDetails {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("SchemeDetails(none)"),
            Some(v) => write!(f, "SchemeDetails({v:?})"),
        }
    }
}

/// The unified result of driving any replacement scheme to completion —
/// one shape for SR, SR-SC, AR, VF, and SMART (and any plugin), so
/// harnesses compare schemes without per-scheme report plumbing.
///
/// Scheme-specific extras (VF's equilibrium flag, gossip statistics, …)
/// ride in [`SchemeReport::details`]; everything a faceoff or figure
/// needs is in the shared fields.
///
/// Equality ignores `details` (payloads are type-erased); all other
/// fields compare structurally. Unlike the per-scheme reports it
/// replaces, this type deliberately does **not** derive serde traits:
/// `details` is an `Any`-backed payload with no serde story, and the
/// workspace's offline serde stand-in never serialized the old reports
/// anyway.
#[derive(Debug, Clone)]
pub struct SchemeReport {
    /// How the round loop terminated.
    pub run: RunReport,
    /// Aggregate cost counters (the paper's Figures 6–8 metrics).
    pub metrics: Metrics,
    /// Occupancy before recovery.
    pub initial_stats: NetworkStats,
    /// Occupancy after recovery.
    pub final_stats: NetworkStats,
    /// `true` when every enabled cell ended with a head — the paper's
    /// complete-coverage goal (Theorem 1's postcondition when a spare
    /// existed).
    pub fully_covered: bool,
    /// Per-process details, for schemes with a replacement-process
    /// notion (SR, SR-SC); empty otherwise.
    pub processes: Vec<ProcessSummary>,
    /// Distributed-protocol health counters. All-zero for classic runs
    /// (the synchronous model has no network to lose messages in);
    /// populated by [`DriveMode::EventDriven`].
    /// Excluded from equality, like `details`: conformance compares
    /// the classic engine (no envelope accounting) against the event
    /// engine (full accounting) on everything the paper measures.
    pub health: ProtocolHealth,
    /// Scheme-specific extras (excluded from equality).
    pub details: SchemeDetails,
}

impl PartialEq for SchemeReport {
    fn eq(&self, other: &SchemeReport) -> bool {
        self.run == other.run
            && self.metrics == other.metrics
            && self.initial_stats == other.initial_stats
            && self.final_stats == other.final_stats
            && self.fully_covered == other.fully_covered
            && self.processes == other.processes
    }
}

impl fmt::Display for SchemeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery {}: {} -> {} holes, {}",
            if self.fully_covered {
                "complete"
            } else {
                "incomplete"
            },
            self.initial_stats.vacant,
            self.final_stats.vacant,
            self.metrics
        )
    }
}

/// A hole-replacement scheme drivable through the uniform API.
///
/// Implementations are cheap, immutable *descriptions* of a configured
/// scheme (typically a config struct behind a builder); all run state
/// lives inside [`ReplacementScheme::run`]. That is what makes one
/// instance safely shareable across the worker threads of an experiment
/// matrix — the trait requires `Send + Sync` for exactly that reason.
///
/// See the [module docs](self) for a complete third-party
/// implementation.
pub trait ReplacementScheme: fmt::Debug + Send + Sync {
    /// Stable machine-readable id: lowercase ASCII letters, digits and
    /// `-`, as validated by [`SchemeId`]. This is the token used in
    /// campaign JSON/CSV artifacts and on the CLI, and the key the
    /// [`SchemeRegistry`] dispatches on — never change it for a
    /// published scheme.
    fn id(&self) -> &str;

    /// Figure-legend label (e.g. `"SR-SC"`).
    fn label(&self) -> &str;

    /// Whether the scheme can run on the given region. Harnesses call
    /// this during validation, before deploying anything.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] with the reason the region is unusable (no
    /// Hamilton structure, no single cycle, …).
    fn supports(&self, spec: &NetworkSpec) -> Result<(), Unsupported>;

    /// Whether [`DriveMode::EventDriven`] is implemented.
    fn supports_event_driven(&self) -> bool {
        false
    }

    /// Drives the scheme on `net` to completion, in place: afterwards
    /// `net` is the recovered network, so callers can inspect paired
    /// before/after state without cloning.
    ///
    /// `seed` addresses the run's deterministic RNG stream (it overrides
    /// any seed carried by the scheme's own config), so one configured
    /// scheme instance can replay many trials.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the network's region fails
    /// [`ReplacementScheme::supports`], or `mode` is
    /// [`DriveMode::EventDriven`] on a scheme without that engine. A
    /// refusal leaves `net` untouched.
    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported>;

    /// Like [`ReplacementScheme::run`], but additionally captures the
    /// scheme's full event trace — the record half of the
    /// record/replay tooling ([`wsn_simcore::replay`]). A traced run
    /// must execute the *identical* round sequence and RNG draws as the
    /// untraced one (tracing is observation, never perturbation), so a
    /// trial recorded by its campaign coordinate re-executes
    /// byte-identically.
    ///
    /// The default implementation runs untraced and returns a
    /// [`TraceLog::disabled`] log; schemes with event instrumentation
    /// override it. All five built-ins do.
    ///
    /// # Errors
    ///
    /// Exactly as [`ReplacementScheme::run`].
    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        self.run(net, seed, mode).map(|r| (r, TraceLog::disabled()))
    }
}

/// A validated scheme id: non-empty lowercase ASCII letters, digits and
/// `-` (no leading/trailing dash), at most 64 bytes — safe to embed in
/// CSV columns, JSON strings and CLI flags without quoting.
///
/// Round-trips through [`FromStr`]/[`fmt::Display`]:
///
/// ```
/// use wsn_coverage::scheme::SchemeId;
///
/// let id: SchemeId = "sr-sc".parse()?;
/// assert_eq!(id.to_string(), "sr-sc");
/// assert!("SR".parse::<SchemeId>().is_err()); // ids are lowercase
/// assert!("".parse::<SchemeId>().is_err());
/// # Ok::<(), wsn_coverage::scheme::SchemeIdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SchemeId(String);

impl SchemeId {
    /// Validates and wraps an id.
    ///
    /// # Errors
    ///
    /// [`SchemeIdError`] when `id` is empty, longer than 64 bytes,
    /// contains anything but `[a-z0-9-]`, or starts/ends with `-`.
    pub fn new(id: &str) -> Result<SchemeId, SchemeIdError> {
        if id.is_empty() || id.len() > 64 {
            return Err(SchemeIdError {
                id: id.to_owned(),
                reason: "must be 1..=64 bytes",
            });
        }
        if !id
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            return Err(SchemeIdError {
                id: id.to_owned(),
                reason: "only lowercase ASCII letters, digits and '-' are allowed",
            });
        }
        if id.starts_with('-') || id.ends_with('-') {
            return Err(SchemeIdError {
                id: id.to_owned(),
                reason: "must not start or end with '-'",
            });
        }
        Ok(SchemeId(id.to_owned()))
    }

    /// Parses a slice of literals, panicking on invalid ids — for
    /// hard-coded scheme lists in configs and tests.
    ///
    /// # Panics
    ///
    /// Panics when any entry is not a valid id.
    pub fn list(ids: &[&str]) -> Vec<SchemeId> {
        ids.iter()
            .map(|id| SchemeId::new(id).expect("literal scheme id is valid"))
            .collect()
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for SchemeId {
    type Err = SchemeIdError;

    fn from_str(s: &str) -> Result<SchemeId, SchemeIdError> {
        SchemeId::new(s)
    }
}

impl AsRef<str> for SchemeId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A string is not a valid [`SchemeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeIdError {
    /// The rejected string.
    pub id: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for SchemeIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheme id {:?}: {}", self.id, self.reason)
    }
}

impl std::error::Error for SchemeIdError {}

/// Registration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// A scheme with this id is already registered.
    Duplicate {
        /// The contested id.
        id: String,
    },
    /// The scheme's self-reported id is not a valid [`SchemeId`].
    InvalidId(SchemeIdError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Duplicate { id } => {
                write!(f, "scheme id '{id}' is already registered")
            }
            RegistryError::InvalidId(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Duplicate { .. } => None,
            RegistryError::InvalidId(e) => Some(e),
        }
    }
}

/// An ordered id → scheme map: the dispatch point every harness
/// (campaigns, sweeps, figures, CLIs) routes through instead of matching
/// over a closed enum.
///
/// Iteration order is registration order — stable, so artifact layouts
/// and figure legends don't depend on hash state. Duplicate ids are
/// rejected. Cloning is cheap (schemes are shared via [`Arc`]).
#[derive(Debug, Clone, Default)]
pub struct SchemeRegistry {
    entries: Vec<Arc<dyn ReplacementScheme>>,
}

impl SchemeRegistry {
    /// An empty registry. The five built-ins live in
    /// `wsn_baselines::builtins()` (the baselines crate can see every
    /// scheme; this crate only defines SR and SR-SC).
    pub fn new() -> SchemeRegistry {
        SchemeRegistry::default()
    }

    /// Registers a scheme under its self-reported id, returning the
    /// validated id.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] when the id is taken,
    /// [`RegistryError::InvalidId`] when the scheme reports a malformed
    /// id.
    pub fn register<S: ReplacementScheme + 'static>(
        &mut self,
        scheme: S,
    ) -> Result<SchemeId, RegistryError> {
        self.register_arc(Arc::new(scheme))
    }

    /// Registers an already-boxed plugin (`Box<dyn ReplacementScheme>`).
    ///
    /// # Errors
    ///
    /// As [`SchemeRegistry::register`].
    pub fn register_boxed(
        &mut self,
        scheme: Box<dyn ReplacementScheme>,
    ) -> Result<SchemeId, RegistryError> {
        self.register_arc(Arc::from(scheme))
    }

    fn register_arc(
        &mut self,
        scheme: Arc<dyn ReplacementScheme>,
    ) -> Result<SchemeId, RegistryError> {
        let id = SchemeId::new(scheme.id()).map_err(RegistryError::InvalidId)?;
        if self.contains(id.as_str()) {
            return Err(RegistryError::Duplicate { id: id.0 });
        }
        self.entries.push(scheme);
        Ok(id)
    }

    /// Looks a scheme up by id.
    pub fn get(&self, id: &str) -> Option<&dyn ReplacementScheme> {
        self.entries.iter().find(|s| s.id() == id).map(Arc::as_ref)
    }

    /// Whether an id is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.iter().any(|s| s.id() == id)
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<SchemeId> {
        self.entries
            .iter()
            .map(|s| SchemeId::new(s.id()).expect("ids were validated at registration"))
            .collect()
    }

    /// The schemes, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn ReplacementScheme> {
        self.entries.iter().map(Arc::as_ref)
    }

    /// Number of registered schemes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// **SR** — the paper's synchronized snake-like replacement — as a
/// registrable scheme: [`SrProtocol`], with no link (classic) or over a
/// network model (event drive), run by [`run_to_quiescence`]. Configure
/// via [`Sr::builder`].
///
/// ```
/// use wsn_coverage::scheme::{DriveMode, ReplacementScheme, Sr};
/// use wsn_coverage::SpareSelection;
/// use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
/// use wsn_simcore::SimRng;
///
/// let sr = Sr::builder()
///     .spare_selection(SpareSelection::FirstId)
///     .build();
/// let sys = GridSystem::new(4, 4, 4.4721)?;
/// let mut rng = SimRng::seed_from_u64(3);
/// let pos = deploy::with_holes(&sys, &[GridCoord::new(1, 2)], 2, &mut rng);
/// let mut net = GridNetwork::new(sys, &pos);
/// let report = sr.run(&mut net, 3, DriveMode::Classic)?;
/// assert!(report.fully_covered);
/// assert_eq!(net.stats().vacant, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sr {
    config: SrConfig,
}

impl Sr {
    /// SR with the paper's default configuration.
    pub fn new() -> Sr {
        Sr::default()
    }

    /// Starts a builder over the default configuration.
    pub fn builder() -> SrBuilder {
        SrBuilder {
            config: SrConfig::default(),
        }
    }

    /// SR over an explicit config. The config's `seed` is overridden by
    /// the seed passed to [`ReplacementScheme::run`].
    pub fn from_config(config: SrConfig) -> Sr {
        Sr { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &SrConfig {
        &self.config
    }
}

/// Builder for [`Sr`] (and, via [`SrSc::builder`], for the shortcut
/// variant — the two share [`SrConfig`]).
#[derive(Debug, Clone)]
pub struct SrBuilder {
    config: SrConfig,
}

impl SrBuilder {
    /// Sets the head-election policy.
    #[must_use]
    pub fn election(mut self, election: wsn_grid::HeadElection) -> Self {
        self.config = self.config.with_election(election);
        self
    }

    /// Sets the spare-selection policy.
    #[must_use]
    pub fn spare_selection(mut self, selection: crate::SpareSelection) -> Self {
        self.config = self.config.with_spare_selection(selection);
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.config = self.config.with_max_rounds(max_rounds);
        self
    }

    /// Sets the in-run fault plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: wsn_simcore::fault::FaultPlan) -> Self {
        self.config = self.config.with_fault_plan(plan);
        self
    }

    /// Enables battery dynamics.
    #[must_use]
    pub fn battery_dynamics(mut self, enabled: bool) -> Self {
        self.config = self.config.with_battery_dynamics(enabled);
        self
    }

    /// Finishes as SR.
    pub fn build(self) -> Sr {
        Sr {
            config: self.config,
        }
    }

    /// Finishes as SR-SC (the shortcut variant over the same config).
    pub fn build_shortcut(self) -> SrSc {
        SrSc {
            config: self.config,
        }
    }
}

impl ReplacementScheme for Sr {
    fn id(&self) -> &str {
        "sr"
    }

    fn label(&self) -> &str {
        "SR"
    }

    fn supports(&self, spec: &NetworkSpec) -> Result<(), Unsupported> {
        // Config validity is part of the supports() contract, so
        // experiment matrices catch a bad round cap up front instead of
        // panicking on a worker thread.
        round_runner(self.id(), self.config.max_rounds)?;
        CycleTopology::build_masked(spec.mask())
            .map(|_| ())
            .map_err(|e| Unsupported::new(self.id(), e.to_string()))
    }

    fn supports_event_driven(&self) -> bool {
        true
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        self.drive(net, seed, mode, TraceLog::disabled())
            .map(|(report, _)| report)
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        self.drive(net, seed, mode, TraceLog::new())
    }
}

impl Sr {
    /// The shared driver behind `run` and `run_traced`: the identical
    /// round sequence either way, recorded into `trace`.
    fn drive(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
        trace: TraceLog,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        let runner = round_runner(self.id(), self.config.max_rounds)?;
        let topo = CycleTopology::build_masked(net.mask())
            .map_err(|e| Unsupported::new(self.id(), e.to_string()))?;
        let config = self.config.clone().with_seed(seed);
        Ok(match mode {
            DriveMode::Classic => {
                run_to_quiescence(SrProtocol::new(net, topo, config, trace), runner)
            }
            DriveMode::EventDriven { net: spec } => run_to_quiescence(
                SrProtocol::with_net_model(net, topo, config, spec, trace),
                runner,
            ),
        })
    }
}

/// **SR-SC** — the short-cut extension ([`crate::shortcut`]) — as a
/// registrable scheme: [`ShortcutProtocol`], with no link (classic) or
/// over a network model (event drive), run by [`run_to_quiescence`].
/// Requires a unique-predecessor ring: even-sided full grids or any
/// masked virtual ring.
///
/// SR-SC implements the synchronous round model only:
/// [`ReplacementScheme::supports`] and [`ReplacementScheme::run`]
/// refuse an [`SrConfig`] with `activation_probability < 1` or a
/// `head_rotation_period`. It always dispatches the courier cell's
/// lowest-id spare, whatever `spare_selection` says.
#[derive(Debug, Clone, Default)]
pub struct SrSc {
    config: SrConfig,
}

impl SrSc {
    /// SR-SC with the default configuration.
    pub fn new() -> SrSc {
        SrSc::default()
    }

    /// Starts a builder (shared with [`Sr`]; finish with
    /// [`SrBuilder::build_shortcut`]).
    pub fn builder() -> SrBuilder {
        Sr::builder()
    }

    /// SR-SC over an explicit config (`seed` is overridden per run).
    pub fn from_config(config: SrConfig) -> SrSc {
        SrSc { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &SrConfig {
        &self.config
    }
}

impl ReplacementScheme for SrSc {
    fn id(&self) -> &str {
        "sr-sc"
    }

    fn label(&self) -> &str {
        "SR-SC"
    }

    fn supports(&self, spec: &NetworkSpec) -> Result<(), Unsupported> {
        round_runner(self.id(), self.config.max_rounds)?;
        self.check_config()?;
        self.ring(spec.mask()).map(|_| ())
    }

    fn supports_event_driven(&self) -> bool {
        true
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        self.drive(net, seed, mode, TraceLog::disabled())
            .map(|(report, _)| report)
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        self.drive(net, seed, mode, TraceLog::new())
    }
}

impl SrSc {
    /// Refuses the [`SrConfig`] knobs SR-SC does not implement.
    fn check_config(&self) -> Result<(), Unsupported> {
        if self.config.activation_probability < 1.0 {
            return Err(Unsupported::new(
                self.id(),
                "SR-SC runs the synchronous round model only (activation_probability must be 1)",
            ));
        }
        if self.config.head_rotation_period.is_some() {
            return Err(Unsupported::new(
                self.id(),
                "SR-SC does not rotate heads (head_rotation_period must be unset)",
            ));
        }
        Ok(())
    }

    /// The backward ring of `mask`'s replacement structure.
    fn ring(&self, mask: &RegionMask) -> Result<ScRing, Unsupported> {
        let topo = CycleTopology::build_masked(mask)
            .map_err(|e| Unsupported::new(self.id(), e.to_string()))?;
        ScRing::of(topo).ok_or_else(|| {
            Unsupported::new(
                self.id(),
                "SR-SC requires a single Hamilton cycle (one even side)",
            )
        })
    }

    /// The shared driver behind `run` and `run_traced`, mirroring
    /// [`Sr::drive`].
    fn drive(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
        trace: TraceLog,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        let runner = round_runner(self.id(), self.config.max_rounds)?;
        self.check_config()?;
        let ring = self.ring(net.mask())?;
        let config = self.config.clone().with_seed(seed);
        Ok(match mode {
            DriveMode::Classic => {
                run_to_quiescence(ShortcutProtocol::new(net, ring, config, trace), runner)
            }
            DriveMode::EventDriven { net: spec } => run_to_quiescence(
                ShortcutProtocol::with_net_model(net, ring, config, spec, trace),
                runner,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_grid::{deploy, GridCoord, GridSystem};
    use wsn_simcore::SimRng;

    fn holed_network(cols: u16, rows: u16, seed: u64) -> GridNetwork {
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(1, 2)], 2, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn scheme_id_validation() {
        for ok in ["sr", "sr-sc", "a", "x2", "my-scheme-3"] {
            assert_eq!(SchemeId::new(ok).unwrap().as_str(), ok);
        }
        for bad in [
            "",
            "SR",
            "has space",
            "trailing-",
            "-leading",
            "under_score",
        ] {
            assert!(SchemeId::new(bad).is_err(), "{bad:?} must be rejected");
        }
        let long = "x".repeat(65);
        assert!(SchemeId::new(&long).is_err());
        // FromStr/Display round-trip.
        let id: SchemeId = "sr-sc".parse().unwrap();
        assert_eq!(id.to_string().parse::<SchemeId>().unwrap(), id);
        assert!(!SchemeId::new("BAD").unwrap_err().to_string().is_empty());
    }

    #[test]
    fn registry_rejects_duplicates_and_preserves_order() {
        let mut reg = SchemeRegistry::new();
        assert!(reg.is_empty());
        reg.register(SrSc::new()).unwrap();
        reg.register(Sr::new()).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.ids(),
            SchemeId::list(&["sr-sc", "sr"]),
            "iteration order is registration order"
        );
        let err = reg.register(Sr::new()).unwrap_err();
        assert_eq!(
            err,
            RegistryError::Duplicate { id: "sr".into() },
            "duplicate ids are rejected"
        );
        assert!(!err.to_string().is_empty());
        assert!(reg.get("sr").is_some());
        assert!(reg.get("ar").is_none());
        // Boxed (plugin-style) registration works too.
        let mut reg2 = SchemeRegistry::new();
        let boxed: Box<dyn ReplacementScheme> = Box::new(Sr::new());
        assert_eq!(reg2.register_boxed(boxed).unwrap().as_str(), "sr");
    }

    #[test]
    fn registry_rejects_invalid_self_reported_ids() {
        #[derive(Debug)]
        struct BadId;
        impl ReplacementScheme for BadId {
            fn id(&self) -> &str {
                "Not Valid"
            }
            fn label(&self) -> &str {
                "?"
            }
            fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
                Ok(())
            }
            fn run(
                &self,
                _net: &mut GridNetwork,
                _seed: u64,
                _mode: DriveMode,
            ) -> Result<SchemeReport, Unsupported> {
                Err(Unsupported::new("bad", "never runs"))
            }
        }
        let mut reg = SchemeRegistry::new();
        assert!(matches!(
            reg.register(BadId),
            Err(RegistryError::InvalidId(_))
        ));
    }

    #[test]
    fn sr_scheme_runs_in_place_and_matches_recovery() {
        let seed = 3;
        let sr = Sr::new();
        let mut net = holed_network(6, 6, seed);
        let before = net.stats();
        let via_trait = sr.run(&mut net, seed, DriveMode::Classic).unwrap();
        // The &mut contract: `net` now *is* the recovered network.
        assert_eq!(net.stats(), via_trait.final_stats);
        assert_eq!(before, via_trait.initial_stats);
        // Byte-identical to the protocol built and driven directly.
        let mut direct_net = holed_network(6, 6, seed);
        let topo = CycleTopology::build(6, 6).unwrap();
        let config = SrConfig::default().with_seed(seed);
        let protocol = SrProtocol::new(&mut direct_net, topo, config, TraceLog::disabled());
        let (direct, trace) = run_to_quiescence(protocol, round_runner("sr", 100_000).unwrap());
        assert_eq!(via_trait, direct);
        assert_eq!(direct_net.stats(), net.stats());
        assert!(!trace.is_enabled(), "a disabled log records nothing");
    }

    #[test]
    fn sr_sc_supports_is_honored() {
        let sc = SrSc::new();
        // Odd x odd full grids only have the dual-path structure.
        let err = sc.supports(&NetworkSpec::full(5, 5)).unwrap_err();
        assert!(err.to_string().contains("single Hamilton cycle"));
        assert!(sc.supports(&NetworkSpec::full(6, 6)).is_ok());
        // Masked regions ride the virtual ring.
        let spec = NetworkSpec::masked(RegionMask::l_shape(8, 8));
        assert!(sc.supports(&spec).is_ok());
        assert_eq!(spec.cols(), 8);
        assert_eq!(spec.rows(), 8);
        // run refuses what supports refuses.
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        assert!(sc.run(&mut net, 1, DriveMode::Classic).is_err());
        // ...and the caller's network is still usable afterwards.
        assert_eq!(net.stats().vacant, 0);
        // SR-SC refuses the asynchronous model and head rotation, up front
        // and at run time, leaving the network untouched.
        let full = NetworkSpec::full(6, 6);
        for (config, knob) in [
            (
                SrConfig::default().with_activation_probability(0.5),
                "activation_probability",
            ),
            (
                SrConfig::default().with_head_rotation(3),
                "head_rotation_period",
            ),
        ] {
            let sc = SrSc::from_config(config);
            let err = sc.supports(&full).unwrap_err();
            assert!(err.reason.contains(knob), "{err}");
            let mut net = holed_network(6, 6, 1);
            let before = net.clone();
            for mode in [
                DriveMode::Classic,
                DriveMode::EventDriven {
                    net: NetModelSpec::Ideal,
                },
            ] {
                assert_eq!(sc.run(&mut net, 1, mode).unwrap_err(), err);
            }
            assert_eq!(net.stats(), before.stats());
            assert_eq!(net.nodes(), before.nodes());
        }
    }

    #[test]
    fn details_downcast_and_report_equality_ignores_them() {
        #[derive(Debug)]
        struct Extra(u32);
        let sr = Sr::new();
        let mut a_net = holed_network(4, 4, 9);
        let mut b_net = holed_network(4, 4, 9);
        let a = sr.run(&mut a_net, 9, DriveMode::Classic).unwrap();
        let mut b = sr.run(&mut b_net, 9, DriveMode::Classic).unwrap();
        assert!(a.details.is_none());
        b.details = SchemeDetails::new(Extra(7));
        assert_eq!(b.details.get::<Extra>().unwrap().0, 7);
        assert_eq!(a, b, "details are excluded from report equality");
        assert!(format!("{:?}", b.details).contains("Extra"));
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn builders_fold_config() {
        let sr = Sr::builder()
            .election(wsn_grid::HeadElection::MaxEnergy)
            .spare_selection(crate::SpareSelection::FirstId)
            .max_rounds(500)
            .battery_dynamics(true)
            .build();
        assert_eq!(sr.config().max_rounds, 500);
        assert_eq!(sr.config().spare_selection, crate::SpareSelection::FirstId);
        assert!(sr.config().battery_dynamics);
        let sc = SrSc::builder().max_rounds(123).build_shortcut();
        assert_eq!(sc.config().max_rounds, 123);
        assert_eq!(SrSc::from_config(sc.config().clone()).id(), "sr-sc");
        assert_eq!(Sr::from_config(SrConfig::default()).label(), "SR");
    }

    #[test]
    fn drive_mode_and_unsupported_display() {
        assert_eq!(DriveMode::default(), DriveMode::Classic);
        assert_eq!(DriveMode::Classic.to_string(), "classic");
        let u = Unsupported::new("vf", "no reason");
        assert!(u.to_string().contains("vf"));
    }

    #[test]
    fn drive_modes_round_trip_through_their_text_form() {
        let drives = [
            DriveMode::Classic,
            DriveMode::EventDriven {
                net: NetModelSpec::Ideal,
            },
            DriveMode::EventDriven {
                net: NetModelSpec::FixedLatency { ticks: 3 },
            },
            DriveMode::EventDriven {
                net: NetModelSpec::Bernoulli {
                    loss_ppm: 100_000,
                    latency: 2,
                },
            },
            DriveMode::EventDriven {
                net: NetModelSpec::Jammer {
                    x_mm: 2_500,
                    y_mm: 2_500,
                    radius_mm: 1_200,
                },
            },
        ];
        for drive in drives {
            let text = drive.to_string();
            assert_eq!(text.parse::<DriveMode>(), Ok(drive), "{text}");
        }
        // The retired fast-path token is an unknown drive like any
        // other; so is an event drive without a valid network model.
        let retired = concat!("change", "-driven");
        for bad in [retired, "event-", "event-weather", "Classic", ""] {
            let err = bad.parse::<DriveMode>().unwrap_err();
            assert_eq!(
                err,
                UnknownDrive {
                    input: bad.to_owned()
                }
            );
            assert!(err.to_string().contains("unknown drive mode"), "{err}");
        }
    }
}
