//! Network models for the event-driven engine: configurable latency,
//! loss and interference between cell-level actors.
//!
//! The classic round loop bills a message the instant a head decides to
//! send it — delivery is an axiom. The event engine routes every
//! inter-cell envelope through a [`NetLink`] instead, and the link's
//! [`NetModelSpec`] decides its fate: delivered after some delay, or
//! dropped. Three properties are load-bearing:
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
//!   generator words it reads; the pair counters hash with a seedless
//!   multiply. Cell positions are computed only for the jammer, the one
//!   model that reads geometry.
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

/// The fate of one routed envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered after `extra` ticks beyond the engine's one-tick base
    /// latency (0 = next tick, the classic round cadence).
    Deliver(u64),
    /// Lost in transit; the receiver never learns it existed.
    Drop,
}

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
    /// Effective delivery latency in ticks (always ≥ 1).
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
    pub fn link(self, seed: u64) -> NetLink {
        NetLink {
            spec: self,
            root: StreamRoot::new(seed),
            pair_counts: HashMap::default(),
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
/// chooses itself: the link's pair counters here, and cell sets such as
/// AR's visited, initiated and failed-hole sets in `wsn-baselines`.
/// Such keys are small cell coordinates or indices, never adversarial
/// input, so SipHash's flooding resistance buys nothing; this costs one
/// multiply per word (per byte for integers narrower than `u64`). The
/// final fold mixes the product's high bits into the low ones, which
/// pick the table slot.
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
    /// Messages routed so far on each directed `(from, to)` pair — the
    /// `n` of the coordinate-addressed fate function. Kept only under a
    /// lossy [`NetModelSpec::Bernoulli`], the one model whose fate
    /// reads `n`.
    pair_counts: HashMap<(u64, u64), u64, BuildHasherDefault<PairHasher>>,
    /// Counters the run's `SchemeReport` surfaces as `ProtocolHealth`.
    pub health: ProtocolHealth,
}

impl NetLink {
    /// The spec this link was built from.
    pub fn spec(&self) -> NetModelSpec {
        self.spec
    }

    /// Whether this link is the loss-free, unit-latency baseline.
    pub fn is_ideal(&self) -> bool {
        self.spec == NetModelSpec::Ideal
    }

    /// Whether nothing routed on this link can be dropped (`Ideal`,
    /// `FixedLatency` and a zero-loss `Bernoulli`): every fate is a
    /// delivery after the spec's latency, whatever the endpoints.
    fn is_loss_free(&self) -> bool {
        match self.spec {
            NetModelSpec::Ideal | NetModelSpec::FixedLatency { .. } => true,
            NetModelSpec::Bernoulli { loss_ppm, .. } => loss_ppm == 0,
            NetModelSpec::Jammer { .. } => false,
        }
    }

    /// The fate of the `n`-th message on the directed pair `from → to`
    /// — pure in `(seed, from, to, n)`, independent of routing order
    /// elsewhere. Only a lossy `Bernoulli` reads `n`: it drops when the
    /// first output of the pair's stream `SimRng::for_stream(seed,
    /// &[from, to, n])`, reduced mod 10^6, falls below `loss_ppm`. That
    /// output is computed from the two generator words it reads, with
    /// the seed's own hashing step taken once per link. Only `Jammer`
    /// calls `center`.
    fn fate_at(&self, from: u64, to: u64, n: u64, center: impl Fn(u64) -> (f64, f64)) -> Fate {
        let dropped = match self.spec {
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
        };
        if dropped {
            Fate::Drop
        } else {
            Fate::Deliver(u64::from(self.spec.latency_ticks()) - 1)
        }
    }

    /// Routes one inter-cell envelope from cell `from` to cell `to`
    /// (dense row-major indices), advancing the health ledger and, under
    /// a lossy `Bernoulli`, the pair counter. `center` maps a cell index
    /// to its center in meters; only the jammer calls it.
    pub fn route(&mut self, from: u64, to: u64, center: impl Fn(u64) -> (f64, f64)) -> Fate {
        let n = match self.spec {
            NetModelSpec::Bernoulli { loss_ppm, .. } if loss_ppm > 0 => {
                let count = self.pair_counts.entry((from, to)).or_insert(0);
                *count += 1;
                *count - 1
            }
            _ => 0,
        };
        let fate = self.fate_at(from, to, n, center);
        self.health.messages_sent += 1;
        if fate == Fate::Drop {
            self.health.messages_dropped += 1;
        }
        fate
    }

    /// Routes a same-tick sense (a 1-hop occupancy probe): the carrier
    /// either comes back clean or is jammed/lost — there is no latency
    /// to a failed carrier sense. Returns `true` when the probe got
    /// through.
    pub fn sense(&mut self, from: u64, to: u64, center: impl Fn(u64) -> (f64, f64)) -> bool {
        self.route(from, to, center) != Fate::Drop
    }

    /// Routes `count` same-tick senses at once, one per `(from, to)` pair
    /// of `pairs`, with the same effect on the health ledger and on
    /// every later fate as one [`NetLink::sense`] per pair. A loss-free
    /// link (zero-loss `Bernoulli` included) only adds `count` to
    /// `messages_sent` and never draws from `pairs`, so callers pass it
    /// lazily. A lossy `Bernoulli` and `Jammer` route each pair: each one
    /// is still its own coordinate-addressed fate, by contract.
    ///
    /// `pairs` must yield exactly `count` pairs (checked in debug
    /// builds).
    pub fn sense_bulk(
        &mut self,
        count: u64,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        center: impl Fn(u64) -> (f64, f64),
    ) {
        if self.is_loss_free() {
            self.health.messages_sent += count;
            debug_assert_eq!(
                pairs.into_iter().count() as u64,
                count,
                "bulk sense count disagrees with its pairs"
            );
            return;
        }
        let mut routed = 0;
        for (from, to) in pairs {
            self.route(from, to, &center);
            routed += 1;
        }
        debug_assert_eq!(routed, count, "bulk sense count disagrees with its pairs");
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
/// message tallies, which count real envelopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProtocolHealth {
    /// Envelopes handed to the network (probes and acks included —
    /// a superset of the billed `Metrics::messages`).
    pub messages_sent: u64,
    /// Envelopes the network dropped.
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

    /// Folds another run's counters into this one (campaign cells).
    pub fn merge(&mut self, other: &ProtocolHealth) {
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.duplicate_initiations += other.duplicate_initiations;
        self.lost_cascades += other.lost_cascades;
        self.stalled_repairs += other.stalled_repairs;
        self.superseded_repairs += other.superseded_repairs;
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

    #[test]
    fn ideal_and_fixed_latency_never_drop() {
        let mut ideal = NetModelSpec::Ideal.link(1);
        let mut fixed = NetModelSpec::FixedLatency { ticks: 4 }.link(1);
        for i in 0..100 {
            assert_eq!(ideal.route(i, i + 1, line), Fate::Deliver(0));
            assert_eq!(fixed.route(i, i + 1, line), Fate::Deliver(3));
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
        let mut link = NetModelSpec::FixedLatency { ticks: 0 }.link(9);
        assert_eq!(link.route(0, 1, line), Fate::Deliver(0));
    }

    #[test]
    fn bernoulli_fate_is_coordinate_addressed() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        };
        // The nth message on a pair has the same fate regardless of
        // what other links carried first.
        let mut a = spec.link(7);
        let mut b = spec.link(7);
        for i in 0..50 {
            b.route(90 + i, 91 + i, line); // unrelated traffic
        }
        let fates_a: Vec<Fate> = (0..64).map(|_| a.route(3, 4, line)).collect();
        let fates_b: Vec<Fate> = (0..64).map(|_| b.route(3, 4, line)).collect();
        assert_eq!(fates_a, fates_b);
        // The weather itself is pinned: these are the messages a 30%
        // model drops among the first 64 on this pair.
        let drops: Vec<usize> = (0..64).filter(|&n| fates_a[n] == Fate::Drop).collect();
        assert_eq!(
            drops,
            [
                4, 5, 10, 12, 14, 15, 17, 19, 25, 26, 31, 33, 34, 35, 37, 39, 40, 46, 48, 50, 57,
                58
            ]
        );
        // Different seeds shift the weather.
        let mut c = spec.link(8);
        let fates_c: Vec<Fate> = (0..64).map(|_| c.route(3, 4, line)).collect();
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
            let link = NetModelSpec::Bernoulli { loss_ppm: 1, latency: 1 }.link(seed);
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
        .link(3);
        let mut always = NetModelSpec::Bernoulli {
            loss_ppm: 1_000_000,
            latency: 1,
        }
        .link(3);
        // An overflowing ppm is clamped, not wrapped.
        let mut over = NetModelSpec::Bernoulli {
            loss_ppm: u32::MAX,
            latency: 1,
        }
        .link(3);
        for i in 0..32 {
            assert_eq!(never.route(0, i, line), Fate::Deliver(1));
            assert_eq!(always.route(0, i, line), Fate::Drop);
            assert_eq!(over.route(0, i, line), Fate::Drop);
        }
    }

    #[test]
    fn jammer_drops_inside_the_disk_only() {
        let spec = NetModelSpec::Jammer {
            x_mm: 10_000,
            y_mm: 10_000,
            radius_mm: 5_000,
        };
        let mut link = spec.link(1);
        let (inside, rim, outside) = (0, 1, 2);
        let center = |cell: u64| match cell {
            0 => (10.0, 12.0),
            1 => (10.0, 15.0), // exactly on the rim: outside (strict disk)
            _ => (30.0, 30.0),
        };
        assert_eq!(link.route(inside, outside, center), Fate::Drop);
        assert_eq!(link.route(outside, inside, center), Fate::Drop);
        assert_eq!(link.route(outside, rim, center), Fate::Deliver(0));
        assert_eq!(link.route(rim, outside, center), Fate::Deliver(0));
        assert_eq!(link.health.messages_dropped, 2);
    }

    #[test]
    fn only_the_jammer_asks_for_positions() {
        let no_geometry = |cell: u64| -> (f64, f64) { panic!("position of cell {cell} asked") };
        for spec in every_model() {
            if matches!(spec, NetModelSpec::Jammer { .. }) {
                continue;
            }
            let mut link = spec.link(4);
            for i in 0..16 {
                link.route(i, i + 1, no_geometry);
                link.sense(i + 1, i, no_geometry);
            }
            link.sense_bulk(2, [(0, 1), (1, 2)], no_geometry);
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
    fn health_merge_and_cleanliness() {
        let mut h = ProtocolHealth::default();
        assert!(h.is_clean());
        h.merge(&ProtocolHealth {
            messages_sent: 5,
            messages_dropped: 1,
            duplicate_initiations: 2,
            lost_cascades: 1,
            stalled_repairs: 1,
            superseded_repairs: 0,
        });
        assert!(!h.is_clean());
        assert_eq!(h.messages_sent, 5);
        assert_eq!(h.duplicate_initiations, 2);
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
    fn bulk_sense_matches_one_sense_per_pair() {
        // A round's beacons, with a repeated pair so Bernoulli counters
        // advance twice on it within one bulk call.
        let pairs: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (5, 6), (1, 2), (9, 4)];
        for spec in every_model() {
            let mut single = spec.link(17);
            let mut bulk = spec.link(17);
            // Earlier traffic on a shared pair, as monitor probes leave.
            single.sense(1, 2, line);
            bulk.sense(1, 2, line);
            for _ in 0..3 {
                for &(from, to) in &pairs {
                    single.sense(from, to, line);
                }
                bulk.sense_bulk(pairs.len() as u64, pairs.iter().copied(), line);
                assert_eq!(single.health, bulk.health, "{spec}");
            }
            // Every later fate on every pair agrees too.
            for &(from, to) in pairs.iter().chain(&[(7, 8)]) {
                for _ in 0..8 {
                    assert_eq!(
                        single.route(from, to, line),
                        bulk.route(from, to, line),
                        "{spec}"
                    );
                }
            }
            assert_eq!(single.health, bulk.health, "{spec}");
            // Only a lossy link routes the bulk pairs one by one, and
            // only a lossy Bernoulli link counts them per pair.
            let lossy_bernoulli = spec.loss_ppm() > 0;
            assert_eq!(
                !bulk.pair_counts.is_empty(),
                lossy_bernoulli,
                "{spec} pair counters"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bulk sense count disagrees")]
    fn bulk_sense_checks_its_count() {
        NetModelSpec::Ideal
            .link(0)
            .sense_bulk(3, [(0, 1), (1, 2)], line);
    }

    #[test]
    fn only_bernoulli_fates_depend_on_pair_history() {
        for spec in every_model() {
            if spec.loss_ppm() > 0 {
                continue;
            }
            let mut fresh = spec.link(5);
            let mut busy = spec.link(5);
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
            assert!(busy.pair_counts.is_empty(), "{spec} keeps no pair counters");
        }
    }

    #[test]
    fn zero_loss_bernoulli_is_loss_free() {
        let mut zero = NetModelSpec::Bernoulli {
            loss_ppm: 0,
            latency: 2,
        }
        .link(1);
        assert!(zero.is_loss_free());
        let lossy = NetModelSpec::Bernoulli {
            loss_ppm: 1,
            latency: 2,
        };
        assert!(!lossy.link(1).is_loss_free());
        // It routes exactly as the fixed latency it reduces to.
        let mut fixed = NetModelSpec::FixedLatency { ticks: 2 }.link(1);
        for i in 0..32 {
            assert_eq!(zero.route(0, i, line), fixed.route(0, i, line));
        }
        zero.sense_bulk(2, [(0, 1), (1, 2)], line);
        fixed.sense_bulk(2, [(0, 1), (1, 2)], line);
        assert_eq!(zero.health, fixed.health);
    }

    #[test]
    fn pair_hasher_spreads_beacon_pairs_over_table_slots() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PairHasher>::default();
        // The low bits pick a hash-table slot. A round's beacon pairs
        // `(c - 1, c)` on a 64×64 grid must not crowd into a few slots
        // of a 4096-slot table (a uniform hash fills about 63%).
        let slots: std::collections::HashSet<u64> = (1..=4096u64)
            .map(|c| build.hash_one((c - 1, c)) & 4095)
            .collect();
        assert!(slots.len() > 2048, "{} of 4096 slots", slots.len());
    }

    #[test]
    fn sense_and_local_feed_the_ledger() {
        let mut link = NetModelSpec::Ideal.link(0);
        assert!(link.sense(1, 2, line));
        link.local();
        assert_eq!(link.health.messages_sent, 2);
        assert_eq!(link.health.messages_dropped, 0);
    }
}
