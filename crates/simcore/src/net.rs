//! Network models for the event-driven engine: configurable latency,
//! loss and interference between cell-level actors.
//!
//! The classic round loop bills a message the instant a head decides to
//! send it — delivery is an axiom. The event engine routes every
//! inter-cell message through a [`NetLink`] instead, and the link's
//! [`NetModelSpec`] decides its fate: it arrives or it is dropped. Under
//! every model a message that arrives does so
//! [`NetModelSpec::latency_ticks`] rounds after it is sent, so its
//! arrival round is known the moment it is routed. These properties are
//! load-bearing:
//!
//! * **Coordinate-addressed weather.** A message's fate is a pure
//!   function of `(net_seed, from_cell, to_cell, n)` where `n` counts
//!   messages on that directed link — never of global draw order. Two
//!   schemes replaying the same trial seed therefore face the identical
//!   loss pattern on every link ("the weather is scheme-invariant"),
//!   and campaign workers can route in any order without perturbing
//!   fates. Only a lossy [`NetModelSpec::Bernoulli`] reads `n`, so only
//!   it keeps per-pair counters; every other model's fate is a function
//!   of the endpoints alone.
//! * **Cheap fates.** Endpoints are cell indices. The Bernoulli draw is
//!   the first output of the pair's stream, computed from the two
//!   generator words it reads. A pair of index-adjacent cells (`to ± 1`,
//!   `to ± stride`), which carries nearly every message, is counted in a
//!   dense slot of its own; only the rarer far pairs hash, with a
//!   seedless multiply. Cell positions are computed only for the jammer,
//!   the one model that reads geometry.
//! * **Separate streams.** Link randomness never touches the
//!   protocol's run RNG: under [`NetModelSpec::Ideal`] a run draws the
//!   byte-identical random sequence as the classic round loop, which is
//!   what makes the engine's conformance contract provable.
//! * **Integer specs.** [`NetModelSpec`] carries only integers
//!   (parts-per-million loss, tick latency, millimeter geometry) so it
//!   stays `Copy + Eq + Hash` and can ride inside
//!   `DriveMode::EventDriven` as a campaign axis.
//!
//! [`ProtocolHealth`] is the observable outcome block: the event engine
//! counts what the synchronous model defines away — duplicate
//! initiations, lost cascades, stalled repairs.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::StreamRoot;

/// Declarative network-model selection — the `net` payload of
/// `DriveMode::EventDriven` and the latency×loss axes of degraded
/// campaigns. All fields are integers so the spec is `Copy + Eq + Hash`
/// and serializes into stable artifact tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NetModelSpec {
    /// Every message delivered next tick — the conformance baseline
    /// that must reproduce the classic runner byte-for-byte.
    #[default]
    Ideal,
    /// Every message delivered after a fixed number of ticks (≥ 1; a
    /// configured 0 is read as 1, the minimum physical latency).
    FixedLatency {
        /// Delivery latency in ticks.
        ticks: u32,
    },
    /// Independent per-message loss with probability
    /// `loss_ppm / 1_000_000`, surviving messages delivered after
    /// `latency` ticks (≥ 1).
    Bernoulli {
        /// Loss probability in parts per million (clamped to 10^6).
        loss_ppm: u32,
        /// Delivery latency of surviving messages, in ticks.
        latency: u32,
    },
    /// A jamming disk: any message with an endpoint strictly inside the
    /// disk is dropped; everything else is delivered next tick.
    /// Geometry is in millimeters so the spec stays integral.
    Jammer {
        /// Disk center x in millimeters.
        x_mm: u32,
        /// Disk center y in millimeters.
        y_mm: u32,
        /// Disk radius in millimeters.
        radius_mm: u32,
    },
}

impl NetModelSpec {
    /// Effective delivery latency in ticks (always ≥ 1): every message
    /// the link does not drop arrives exactly this many rounds after it
    /// is sent.
    pub fn latency_ticks(&self) -> u32 {
        match *self {
            NetModelSpec::Ideal | NetModelSpec::Jammer { .. } => 1,
            NetModelSpec::FixedLatency { ticks } => ticks.max(1),
            NetModelSpec::Bernoulli { latency, .. } => latency.max(1),
        }
    }

    /// Loss probability in parts per million (0 for loss-free models).
    pub fn loss_ppm(&self) -> u32 {
        match *self {
            NetModelSpec::Bernoulli { loss_ppm, .. } => loss_ppm.min(1_000_000),
            _ => 0,
        }
    }

    /// Stable, filesystem-safe token for artifact names and replay
    /// metadata; [`NetModelSpec::parse_token`] inverts it.
    pub fn token(&self) -> String {
        match *self {
            NetModelSpec::Ideal => "ideal".into(),
            NetModelSpec::FixedLatency { ticks } => format!("lat{ticks}"),
            NetModelSpec::Bernoulli { loss_ppm, latency } => {
                format!("loss{loss_ppm}-lat{latency}")
            }
            NetModelSpec::Jammer {
                x_mm,
                y_mm,
                radius_mm,
            } => format!("jam{x_mm}x{y_mm}r{radius_mm}"),
        }
    }

    /// Parses a [`NetModelSpec::token`] back into the spec.
    pub fn parse_token(s: &str) -> Option<NetModelSpec> {
        if s == "ideal" {
            return Some(NetModelSpec::Ideal);
        }
        if let Some(rest) = s.strip_prefix("loss") {
            let (loss, lat) = rest.split_once("-lat")?;
            return Some(NetModelSpec::Bernoulli {
                loss_ppm: loss.parse().ok()?,
                latency: lat.parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("lat") {
            return Some(NetModelSpec::FixedLatency {
                ticks: rest.parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("jam") {
            let (x, rest) = rest.split_once('x')?;
            let (y, r) = rest.split_once('r')?;
            return Some(NetModelSpec::Jammer {
                x_mm: x.parse().ok()?,
                y_mm: y.parse().ok()?,
                radius_mm: r.parse().ok()?,
            });
        }
        None
    }

    /// Builds the stateful link for one run. `seed` addresses the
    /// link's RNG streams; derive it from the trial seed so it is
    /// independent of the protocol's run RNG.
    ///
    /// `cells` and `stride` describe the endpoint space: cells `0..cells`
    /// in rows of `stride` (a grid's cell count and column count). They
    /// size a lossy `Bernoulli` link's dense counters, four slots per
    /// cell; every other model keeps no counters and ignores them. Fates
    /// never depend on them: `cells = 0` counts every pair in the map.
    pub fn link(self, seed: u64, cells: usize, stride: usize) -> NetLink {
        let cells = if self.loss_ppm() > 0 { cells } else { 0 };
        NetLink {
            spec: self,
            root: StreamRoot::new(seed),
            cells: cells as u64,
            stride: stride as u64,
            adjacent: vec![0; 4 * cells],
            far: HashMap::default(),
            health: ProtocolHealth::default(),
        }
    }
}

impl fmt::Display for NetModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

/// A fixed, seedless multiplicative hasher for keys the simulation
/// chooses itself. Its one user is [`NetLink`]'s map of far-pair message
/// counters, keyed by `(from, to)` cell endpoints. Such keys are small
/// cell indices, never adversarial input, so SipHash's flooding
/// resistance buys nothing; this costs one multiply per word (per byte
/// for integers narrower than `u64`). The final fold mixes the
/// product's high bits into the low ones, which pick the table slot.
///
/// Use it through [`BuildHasherDefault`]. Like any hasher it gives no
/// meaningful iteration order, so keep it to maps and sets whose order
/// no output depends on.
///
/// ```
/// use std::collections::HashSet;
/// use std::hash::BuildHasherDefault;
/// use wsn_simcore::PairHasher;
///
/// let mut seen: HashSet<(u16, u16), BuildHasherDefault<PairHasher>> = HashSet::default();
/// assert!(seen.insert((3, 4)));
/// assert!(!seen.insert((3, 4)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A live network link: the model plus its per-directed-pair message
/// counters and the health ledger. One per run.
///
/// Messages are addressed by cell index alone. The one model that
/// reads geometry, [`NetModelSpec::Jammer`], asks a caller-supplied
/// `center` function for the two endpoints' positions; every other
/// model never calls it, so routing under them builds no geometry.
#[derive(Debug, Clone)]
pub struct NetLink {
    spec: NetModelSpec,
    /// The link seed with the first hashing step of its streams taken.
    root: StreamRoot,
    /// Endpoints below this have dense counters: the grid's cell count
    /// under a lossy [`NetModelSpec::Bernoulli`], the one model whose
    /// fate reads `n`, and 0 (no dense counters) otherwise.
    cells: u64,
    /// The row stride of the endpoint grid.
    stride: u64,
    /// Messages routed so far on each directed pair of index-adjacent
    /// cells — the `n` of the coordinate-addressed fate function — in
    /// four slots per receiving cell ([`NetLink::adjacent_slot`]).
    adjacent: Vec<u32>,
    /// The same counts for every other pair (masked-ring seams, courier
    /// forwards that skip a hole, acks, endpoints outside the grid), and
    /// for an adjacent pair whose slot is full.
    far: HashMap<(u64, u64), u64, BuildHasherDefault<PairHasher>>,
    /// Counters the run's `SchemeReport` surfaces as `ProtocolHealth`.
    pub health: ProtocolHealth,
}

impl NetLink {
    /// The spec this link was built from.
    pub fn spec(&self) -> NetModelSpec {
        self.spec
    }

    /// Whether the `n`-th message on the directed pair `from → to` is
    /// dropped — pure in `(seed, from, to, n)`, independent of routing
    /// order elsewhere. Only a lossy `Bernoulli` reads `n`: it drops when
    /// the first output of the pair's stream `SimRng::for_stream(seed,
    /// &[from, to, n])`, reduced mod 10^6, falls below `loss_ppm`. That
    /// output is computed from the two generator words it reads, with
    /// the seed's own hashing step taken once per link. Only `Jammer`
    /// calls `center`.
    fn drops(&self, from: u64, to: u64, n: u64, center: impl Fn(u64) -> (f64, f64)) -> bool {
        match self.spec {
            NetModelSpec::Ideal | NetModelSpec::FixedLatency { .. } => false,
            NetModelSpec::Bernoulli { loss_ppm, .. } => {
                loss_ppm > 0
                    && self.root.first_u64(&[from, to, n]) % 1_000_000
                        < u64::from(loss_ppm.min(1_000_000))
            }
            NetModelSpec::Jammer {
                x_mm,
                y_mm,
                radius_mm,
            } => {
                let c = (f64::from(x_mm) / 1000.0, f64::from(y_mm) / 1000.0);
                let r = f64::from(radius_mm) / 1000.0;
                let inside = |p: (f64, f64)| {
                    let (dx, dy) = (p.0 - c.0, p.1 - c.1);
                    dx * dx + dy * dy < r * r
                };
                inside(center(from)) || inside(center(to))
            }
        }
    }

    /// The dense counter slot of the directed pair `from → to`: slot
    /// `4·to + d`, where `d` names `from`'s offset from `to` (+1, −1,
    /// +stride, −stride; the first that matches when two coincide). Each
    /// pair has at most one slot and no two pairs share one, since `to`
    /// and `d` give back `from`. `None` for every other pair and for
    /// endpoints outside the grid, which the map counts.
    fn adjacent_slot(&self, from: u64, to: u64) -> Option<usize> {
        if from >= self.cells || to >= self.cells {
            return None;
        }
        let offset = from.wrapping_sub(to);
        let d = if offset == 1 {
            0
        } else if offset == u64::MAX {
            1
        } else if offset == self.stride {
            2
        } else if offset == self.stride.wrapping_neg() {
            3
        } else {
            return None;
        };
        Some(4 * to as usize + d)
    }

    /// Counts one more message on `from → to` and returns how many the
    /// pair carried before it. A slot that reaches `u32::MAX` stops
    /// there and the map carries the pair on from that count.
    fn next_count(&mut self, from: u64, to: u64) -> u64 {
        let start = match self.adjacent_slot(from, to) {
            Some(slot) => {
                let count = &mut self.adjacent[slot];
                if *count < u32::MAX {
                    *count += 1;
                    return u64::from(*count - 1);
                }
                u64::from(u32::MAX)
            }
            None => 0,
        };
        let count = self.far.entry((from, to)).or_insert(start);
        *count += 1;
        *count - 1
    }

    /// Routes one inter-cell message from cell `from` to cell `to`
    /// (dense row-major indices), advancing the health ledger and, under
    /// a lossy `Bernoulli`, the pair counter. Returns whether it arrives:
    /// one that does arrives [`NetModelSpec::latency_ticks`] rounds
    /// after it is sent, and a same-tick sense (a 1-hop occupancy probe)
    /// simply gets through. `center` maps a cell index to its center in
    /// meters; only the jammer calls it.
    pub fn route(&mut self, from: u64, to: u64, center: impl Fn(u64) -> (f64, f64)) -> bool {
        let n = match self.spec {
            NetModelSpec::Bernoulli { loss_ppm, .. } if loss_ppm > 0 => self.next_count(from, to),
            _ => 0,
        };
        let dropped = self.drops(from, to, n, center);
        self.health.messages_sent += 1;
        if dropped {
            self.health.messages_dropped += 1;
        }
        !dropped
    }

    /// Accounts an intra-cell message (head ↔ co-located spare). The
    /// cell is a single radio neighborhood, so these never traverse the
    /// lossy inter-cell channel: always delivered, still counted.
    pub fn local(&mut self) {
        self.health.messages_sent += 1;
    }
}

/// Observable protocol-health outcomes of one event-driven run — the
/// failure modes the synchronous round model defines away, counted
/// instead of assumed impossible. All counters are zero for classic
/// runs and for event runs under [`NetModelSpec::Ideal`] (except the
/// message tallies, which count real messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProtocolHealth {
    /// Messages handed to the network (probes and acks included — a
    /// superset of the billed `Metrics::messages`).
    pub messages_sent: u64,
    /// Messages the network dropped.
    pub messages_dropped: u64,
    /// Initiations for a hole that already had a live owner the
    /// monitor could not know about — the paper's "one and only one
    /// initiation per hole" failing observably.
    pub duplicate_initiations: u64,
    /// Cascade-carrying notifications the network lost: the backward
    /// walk's baton vanished in transit.
    pub lost_cascades: u64,
    /// Processes that ended the run still waiting on a baton that
    /// never arrived.
    pub stalled_repairs: u64,
    /// Cascades whose target vacancy had already been refilled (by a
    /// duplicate) when their baton finally arrived.
    pub superseded_repairs: u64,
}

impl ProtocolHealth {
    /// `true` when no degraded-network failure mode was observed
    /// (messages may still have been counted).
    pub fn is_clean(&self) -> bool {
        self.messages_dropped == 0
            && self.duplicate_initiations == 0
            && self.lost_cascades == 0
            && self.stalled_repairs == 0
            && self.superseded_repairs == 0
    }
}

impl fmt::Display for ProtocolHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} dropped {} duplicates {} lost {} stalled {} superseded {}",
            self.messages_sent,
            self.messages_dropped,
            self.duplicate_initiations,
            self.lost_cascades,
            self.stalled_repairs,
            self.superseded_repairs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;

    /// Cells on a line, one meter apart: cell `i` sits at `(i, 0)`.
    fn line(cell: u64) -> (f64, f64) {
        (cell as f64, 0.0)
    }

    /// The endpoint grid the tests' links count over: 16 cells in rows
    /// of 4, so the tests' pairs mix dense slots, far pairs and
    /// endpoints past the grid.
    const CELLS: usize = 16;
    const STRIDE: usize = 4;

    #[test]
    fn ideal_and_fixed_latency_never_drop() {
        let mut ideal = NetModelSpec::Ideal.link(1, CELLS, STRIDE);
        let mut fixed = NetModelSpec::FixedLatency { ticks: 4 }.link(1, CELLS, STRIDE);
        assert_eq!(ideal.spec().latency_ticks(), 1);
        assert_eq!(fixed.spec().latency_ticks(), 4);
        for i in 0..100 {
            assert!(ideal.route(i, i + 1, line));
            assert!(fixed.route(i, i + 1, line));
        }
        assert_eq!(ideal.health.messages_dropped, 0);
        assert_eq!(fixed.health.messages_sent, 100);
    }

    #[test]
    fn zero_latency_is_clamped_to_the_physical_minimum() {
        assert_eq!(NetModelSpec::FixedLatency { ticks: 0 }.latency_ticks(), 1);
        assert_eq!(
            NetModelSpec::Bernoulli {
                loss_ppm: 0,
                latency: 0
            }
            .latency_ticks(),
            1
        );
        let mut link = NetModelSpec::FixedLatency { ticks: 0 }.link(9, CELLS, STRIDE);
        assert!(link.route(0, 1, line));
        assert_eq!(link.spec().latency_ticks(), 1);
    }

    #[test]
    fn bernoulli_fate_is_coordinate_addressed() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        };
        // The nth message on a pair has the same fate regardless of
        // what other links carried first.
        let mut a = spec.link(7, CELLS, STRIDE);
        let mut b = spec.link(7, CELLS, STRIDE);
        for i in 0..50 {
            b.route(90 + i, 91 + i, line); // unrelated traffic
        }
        let fates_a: Vec<bool> = (0..64).map(|_| a.route(3, 4, line)).collect();
        let fates_b: Vec<bool> = (0..64).map(|_| b.route(3, 4, line)).collect();
        assert_eq!(fates_a, fates_b);
        // The weather itself is pinned: these are the messages a 30%
        // model drops among the first 64 on this pair.
        let drops: Vec<usize> = (0..64).filter(|&n| !fates_a[n]).collect();
        assert_eq!(
            drops,
            [
                4, 5, 10, 12, 14, 15, 17, 19, 25, 26, 31, 33, 34, 35, 37, 39, 40, 46, 48, 50, 57,
                58
            ]
        );
        // Different seeds shift the weather.
        let mut c = spec.link(8, CELLS, STRIDE);
        let fates_c: Vec<bool> = (0..64).map(|_| c.route(3, 4, line)).collect();
        assert_ne!(fates_a, fates_c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fate kernel's draw is the first output of the pair's
        /// stream generator, which stays here as the reference.
        #[test]
        fn fate_draw_is_the_pair_streams_first_output(
            seed in 0u64..u64::MAX,
            from in 0u64..u64::MAX,
            to in 0u64..u64::MAX,
            n in 0u64..u64::MAX,
        ) {
            let link = NetModelSpec::Bernoulli { loss_ppm: 1, latency: 1 }.link(seed, CELLS, STRIDE);
            prop_assert_eq!(
                link.root.first_u64(&[from, to, n]),
                SimRng::for_stream(seed, &[from, to, n]).next_u64()
            );
        }
    }

    #[test]
    fn bernoulli_extremes_behave() {
        let mut never = NetModelSpec::Bernoulli {
            loss_ppm: 0,
            latency: 2,
        }
        .link(3, CELLS, STRIDE);
        let mut always = NetModelSpec::Bernoulli {
            loss_ppm: 1_000_000,
            latency: 1,
        }
        .link(3, CELLS, STRIDE);
        // An overflowing ppm is clamped, not wrapped.
        let mut over = NetModelSpec::Bernoulli {
            loss_ppm: u32::MAX,
            latency: 1,
        }
        .link(3, CELLS, STRIDE);
        assert_eq!(never.spec().latency_ticks(), 2);
        for i in 0..32 {
            assert!(never.route(0, i, line));
            assert!(!always.route(0, i, line));
            assert!(!over.route(0, i, line));
        }
    }

    #[test]
    fn jammer_drops_inside_the_disk_only() {
        let spec = NetModelSpec::Jammer {
            x_mm: 10_000,
            y_mm: 10_000,
            radius_mm: 5_000,
        };
        let mut link = spec.link(1, CELLS, STRIDE);
        let (inside, rim, outside) = (0, 1, 2);
        let center = |cell: u64| match cell {
            0 => (10.0, 12.0),
            1 => (10.0, 15.0), // exactly on the rim: outside (strict disk)
            _ => (30.0, 30.0),
        };
        assert!(!link.route(inside, outside, center));
        assert!(!link.route(outside, inside, center));
        assert!(link.route(outside, rim, center));
        assert!(link.route(rim, outside, center));
        assert_eq!(link.spec().latency_ticks(), 1);
        assert_eq!(link.health.messages_dropped, 2);
    }

    #[test]
    fn only_the_jammer_asks_for_positions() {
        let no_geometry = |cell: u64| -> (f64, f64) { panic!("position of cell {cell} asked") };
        for spec in every_model() {
            if matches!(spec, NetModelSpec::Jammer { .. }) {
                continue;
            }
            let mut link = spec.link(4, CELLS, STRIDE);
            for i in 0..16 {
                link.route(i, i + 1, no_geometry);
                link.route(i + 1, i, no_geometry);
            }
        }
    }

    #[test]
    fn tokens_round_trip() {
        let specs = [
            NetModelSpec::Ideal,
            NetModelSpec::FixedLatency { ticks: 3 },
            NetModelSpec::Bernoulli {
                loss_ppm: 300_000,
                latency: 2,
            },
            NetModelSpec::Jammer {
                x_mm: 5,
                y_mm: 6,
                radius_mm: 7,
            },
        ];
        for spec in specs {
            let token = spec.token();
            assert_eq!(NetModelSpec::parse_token(&token), Some(spec), "{token}");
            assert!(
                token.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "token {token} must stay filesystem-safe"
            );
        }
        assert_eq!(NetModelSpec::parse_token("weather"), None);
        assert_eq!(NetModelSpec::parse_token("latx"), None);
        assert_eq!(NetModelSpec::parse_token("loss5"), None);
    }

    #[test]
    fn health_cleanliness() {
        assert!(ProtocolHealth::default().is_clean());
        let h = ProtocolHealth {
            messages_sent: 5,
            messages_dropped: 1,
            duplicate_initiations: 2,
            lost_cascades: 1,
            stalled_repairs: 1,
            superseded_repairs: 0,
        };
        assert!(!h.is_clean());
        assert!(h.to_string().contains("sent 5 dropped 1 duplicates 2"));
        let clean = ProtocolHealth {
            messages_sent: 10,
            ..ProtocolHealth::default()
        };
        assert!(clean.is_clean(), "message traffic alone is not a failure");
        assert!(clean.to_string().contains("sent 10"));
    }

    /// One spec of every [`NetModelSpec`] variant, each able to drop
    /// where it can (the jammer covers cells 0–2 of the `line`), plus
    /// the zero-loss `Bernoulli`, which cannot.
    fn every_model() -> [NetModelSpec; 5] {
        [
            NetModelSpec::Ideal,
            NetModelSpec::FixedLatency { ticks: 3 },
            NetModelSpec::Bernoulli {
                loss_ppm: 300_000,
                latency: 2,
            },
            NetModelSpec::Bernoulli {
                loss_ppm: 0,
                latency: 2,
            },
            NetModelSpec::Jammer {
                x_mm: 1_000,
                y_mm: 0,
                radius_mm: 1_500,
            },
        ]
    }

    #[test]
    fn only_bernoulli_fates_depend_on_pair_history() {
        for spec in every_model() {
            if spec.loss_ppm() > 0 {
                continue;
            }
            let mut fresh = spec.link(5, CELLS, STRIDE);
            let mut busy = spec.link(5, CELLS, STRIDE);
            for _ in 0..100 {
                busy.route(0, 1, line);
                busy.route(3, 4, line);
            }
            for (from, to) in [(0, 1), (3, 4)] {
                assert_eq!(
                    fresh.route(from, to, line),
                    busy.route(from, to, line),
                    "{spec}"
                );
            }
            assert!(
                busy.adjacent.is_empty() && busy.far.is_empty(),
                "{spec} keeps no pair counters"
            );
        }
    }

    #[test]
    fn zero_loss_bernoulli_is_loss_free() {
        let mut zero = NetModelSpec::Bernoulli {
            loss_ppm: 0,
            latency: 2,
        }
        .link(1, CELLS, STRIDE);
        // It keeps no pair counters, where the least lossy link does.
        assert!(zero.adjacent.is_empty());
        let lossy = NetModelSpec::Bernoulli {
            loss_ppm: 1,
            latency: 2,
        };
        assert_eq!(lossy.link(1, CELLS, STRIDE).adjacent.len(), 4 * CELLS);
        // It routes exactly as the fixed latency it reduces to.
        let mut fixed = NetModelSpec::FixedLatency { ticks: 2 }.link(1, CELLS, STRIDE);
        for i in 0..32 {
            assert_eq!(zero.route(0, i, line), fixed.route(0, i, line));
        }
        assert_eq!(zero.health, fixed.health);
        assert_eq!(zero.health.messages_dropped, 0);
    }

    #[test]
    fn every_pair_has_at_most_one_dense_slot_and_no_slot_two_pairs() {
        // Strides 1 and 0 make two offsets coincide; the first match
        // still names one slot per pair.
        for stride in [0, 1, 2, 3, 5] {
            let cells = 3 * stride.max(2);
            let link = NetModelSpec::Bernoulli {
                loss_ppm: 1,
                latency: 1,
            }
            .link(0, cells, stride);
            let mut owner = vec![None; 4 * cells];
            let ends = 0..cells as u64 + 2;
            for (from, to) in ends.clone().flat_map(|f| ends.clone().map(move |t| (f, t))) {
                let Some(slot) = link.adjacent_slot(from, to) else {
                    continue;
                };
                assert!(from < cells as u64 && to < cells as u64, "stride {stride}");
                assert_eq!(slot / 4, to as usize, "stride {stride}: slots by receiver");
                let first = owner[slot].replace((from, to));
                assert_eq!(first, None, "stride {stride}: slot {slot} shared");
            }
            // The four neighbours of an interior cell are all dense.
            let to = (cells / 2) as u64;
            for from in [to - 1, to + 1, to - stride as u64, to + stride as u64] {
                assert!(link.adjacent_slot(from, to).is_some(), "stride {stride}");
            }
        }
    }

    /// Routes `from → to` on both links and checks they agree.
    fn route_both(dense: &mut NetLink, map: &mut NetLink, from: u64, to: u64) -> bool {
        let fate = dense.route(from, to, line);
        fate == map.route(from, to, line) && dense.health == map.health
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dense slots are a store, not a policy: a grid-sized lossy
        /// link and a map-only one (`cells = 0`) give every message the
        /// same fate, and keep the same ledger, on any pair sequence.
        #[test]
        fn dense_counters_route_as_the_map_does(
            seed in 0u64..u64::MAX,
            stride in &[2usize, 3, 32],
            steps in proptest::collection::vec((0u8..6, 0u64..1_000, 0u64..1_000), 1..300),
        ) {
            let cells = 4 * stride;
            let spec = NetModelSpec::Bernoulli { loss_ppm: 400_000, latency: 1 };
            let mut dense = spec.link(seed, cells, stride);
            let mut map = spec.link(seed, 0, 0);
            let s = stride as u64;
            let mut pairs = Vec::new();
            for (kind, a, b) in steps {
                // Endpoints run two cells past the grid (and wrap below
                // 0); small ranges make pairs repeat, so counters climb.
                let cell = a % (cells as u64 + 2);
                let (from, to) = match kind {
                    0 => (cell.wrapping_sub(1), cell),
                    1 => (cell + 1, cell),
                    2 => (cell.wrapping_sub(s), cell),
                    3 => (cell + s, cell),
                    // A ±1 pair across a row boundary.
                    4 => {
                        let start = cell / s * s;
                        if b % 2 == 0 {
                            (start.wrapping_sub(1), start)
                        } else {
                            (start, start.wrapping_sub(1))
                        }
                    }
                    _ => (b % (cells as u64 + 2), cell),
                };
                prop_assert!(route_both(&mut dense, &mut map, from, to), "{from} -> {to}");
                pairs.push((from, to));
            }
            for &(from, to) in &pairs {
                for _ in 0..3 {
                    prop_assert!(route_both(&mut dense, &mut map, from, to), "later {from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn a_full_dense_slot_hands_its_pair_on_to_the_map() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 500_000,
            latency: 1,
        };
        let (from, to) = (5, 6);
        let mut dense = spec.link(3, CELLS, STRIDE);
        let mut map = spec.link(3, 0, 0);
        // Both stores as if the pair had carried u32::MAX − 2 messages.
        let slot = dense.adjacent_slot(from, to).expect("an adjacent pair");
        dense.adjacent[slot] = u32::MAX - 2;
        map.far.insert((from, to), u64::from(u32::MAX - 2));
        for _ in 0..6 {
            assert!(route_both(&mut dense, &mut map, from, to));
        }
        assert_eq!(dense.adjacent[slot], u32::MAX);
        assert_eq!(dense.far[&(from, to)], u64::from(u32::MAX) + 4);
        assert_eq!(map.far[&(from, to)], u64::from(u32::MAX) + 4);
    }

    #[test]
    fn pair_hasher_spreads_hole_skipping_pairs_over_table_slots() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PairHasher>::default();
        // The low bits pick a hash-table slot. Adjacent pairs never reach
        // the map; the far pairs it counts are mostly courier forwards
        // that skip a hole, `(c + 2, c)` along a row and
        // `(c + 2·stride, c)` across rows. On a 64×64 grid neither
        // family may crowd into a few slots of a 4096-slot table (a
        // uniform hash fills about 63%).
        for step in [2, 2 * 64] {
            let slots: std::collections::HashSet<u64> = (0..4096u64)
                .map(|c| build.hash_one((c + step, c)) & 4095)
                .collect();
            assert!(
                slots.len() > 2048,
                "step {step}: {} of 4096 slots",
                slots.len()
            );
        }
    }

    #[test]
    fn sense_and_local_feed_the_ledger() {
        let mut link = NetModelSpec::Ideal.link(0, CELLS, STRIDE);
        assert!(link.route(1, 2, line));
        link.local();
        assert_eq!(link.health.messages_sent, 2);
        assert_eq!(link.health.messages_dropped, 0);
    }
}
