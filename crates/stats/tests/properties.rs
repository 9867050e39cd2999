//! Property-based tests for percentile reporting, pinned against a
//! sort-based oracle.
//!
//! The p50/p99/p999 surface of the steady-state availability reports
//! runs through [`Histogram::percentile`] (binned, mergeable) and
//! [`percentile_sorted`] (exact, in-memory). Both must stay total over
//! degenerate inputs — empty, single-sample, all-identical — and the
//! binned estimate must never drift more than one bin width from the
//! exact answer.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use wsn_stats::json::write_escaped;
use wsn_stats::{percentile_sorted, Histogram, JsonValue, StreamingStat};

/// Exact sort-based oracle: linear interpolation over the order
/// statistics, independent of the library implementation.
fn oracle(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Sort-based nearest-rank oracle — the quantile definition the binned
/// estimator rounds to: the smallest sample whose cumulative count
/// reaches `p`% of the total. The histogram's estimate must stay within
/// one bin width of this sample (interpolated definitions can differ by
/// a whole rank, and adjacent order statistics may sit bins apart).
fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let target = p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64;
    let idx = (target.ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    Some(sorted[idx])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentile_sorted_matches_oracle(
        mut samples in prop::collection::vec(-1000.0f64..1000.0, 0..200),
        p in 0.0f64..100.0,
    ) {
        let want = oracle(&samples, p);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = percentile_sorted(&samples, p);
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => prop_assert!((g - w).abs() < 1e-9, "{g} vs {w}"),
            other => prop_assert!(false, "mismatch: {other:?}"),
        }
    }

    #[test]
    fn histogram_percentile_within_one_bin_of_oracle(
        samples in prop::collection::vec(0.0f64..100.0, 1..300),
        bins in 1usize..64,
        p in 0.0f64..100.0,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins).unwrap();
        for &x in &samples {
            h.record(x);
        }
        let got = h.percentile(p).unwrap();
        let want = nearest_rank(&samples, p).unwrap();
        let bin_width = 100.0 / bins as f64;
        prop_assert!(
            (got - want).abs() <= bin_width + 1e-9,
            "binned {got} vs nearest-rank {want} with bin width {bin_width}"
        );
    }

    #[test]
    fn histogram_percentile_total_and_bounded(
        samples in prop::collection::vec(-50.0f64..150.0, 0..100),
        p in -20.0f64..120.0,
    ) {
        // Samples beyond the range exercise the edge-bin clamp; p beyond
        // [0, 100] exercises the percentile clamp.
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        for &x in &samples {
            h.record(x);
        }
        match h.percentile(p) {
            None => prop_assert!(samples.is_empty()),
            Some(v) => prop_assert!((0.0..=100.0).contains(&v), "estimate {v} left the range"),
        }
    }

    #[test]
    fn identical_samples_pin_every_percentile(
        x in -100.0f64..100.0,
        n in 1usize..500,
        p in 0.0f64..100.0,
    ) {
        let flat = vec![x; n];
        prop_assert_eq!(percentile_sorted(&flat, p), Some(x));
        let mut s = StreamingStat::with_histogram(Histogram::new(-100.0, 100.0, 40).unwrap());
        for &v in &flat {
            s.push(v);
        }
        let est = s.percentile(p).unwrap();
        prop_assert!((est - x).abs() <= 200.0 / 40.0, "estimate {est} vs {x}");
    }
}

#[test]
fn streaming_stat_without_histogram_has_no_percentile() {
    let mut s = StreamingStat::new();
    s.push(1.0);
    assert_eq!(s.percentile(50.0), None);
    let empty = StreamingStat::with_histogram(Histogram::new(0.0, 1.0, 2).unwrap());
    assert_eq!(empty.percentile(99.9), None);
}

// --- State-codec round trips (the checkpoint honesty contract) -------
//
// The campaign-as-a-service daemon persists folded accumulators and
// resumes them in another process; a resumed accumulator must be
// *bit-identical* to the original — not merely close — or resumed
// artifacts drift from uninterrupted ones. JSON text round-trips through
// the real parser, exactly as a checkpoint file does.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn summary_state_round_trips_bit_identically(
        samples in prop::collection::vec(-1e9f64..1e9, 0..200),
    ) {
        let s: wsn_stats::Summary = samples.iter().copied().collect();
        let text = s.to_state_json().to_string();
        let parsed = wsn_stats::JsonValue::parse(&text).unwrap();
        let restored = wsn_stats::Summary::from_state_json(&parsed).unwrap();
        // PartialEq on Summary is field-for-field over the raw Welford
        // registers, so equality here *is* bit-identity (mod -0.0 == 0.0,
        // which folds identically forever after).
        prop_assert_eq!(restored, s);
    }

    #[test]
    fn streaming_stat_state_round_trips_and_keeps_folding(
        samples in prop::collection::vec(0.0f64..1000.0, 1..150),
        tail in prop::collection::vec(0.0f64..1000.0, 1..50),
        bins in 1usize..32,
    ) {
        let mut orig = StreamingStat::with_histogram(
            Histogram::new(0.0, 1000.0, bins).unwrap(),
        );
        for &x in &samples {
            orig.push(x);
        }
        let text = orig.to_state_json().to_string();
        let parsed = wsn_stats::JsonValue::parse(&text).unwrap();
        let mut restored = StreamingStat::from_state_json(&parsed).unwrap();
        prop_assert_eq!(&restored, &orig);
        // The restored accumulator continues the fold identically.
        for &x in &tail {
            orig.push(x);
            restored.push(x);
        }
        prop_assert_eq!(
            restored.to_state_json().to_string(),
            orig.to_state_json().to_string()
        );
    }
}

#[test]
fn state_codecs_reject_malformed_input() {
    use wsn_stats::{JsonValue, Summary};
    for bad in [
        "{}",
        r#"{"count":-1,"mean":0,"m2":0,"min":0,"max":0}"#,
        r#"{"count":1.5,"mean":0,"m2":0,"min":0,"max":0}"#,
        r#"{"count":1,"mean":null,"m2":0,"min":0,"max":0}"#,
    ] {
        let v = JsonValue::parse(bad).unwrap();
        assert!(Summary::from_state_json(&v).is_err(), "{bad}");
    }
    // Empty summaries restore their infinite extrema from count alone.
    let empty = Summary::new();
    let v = JsonValue::parse(&empty.to_state_json().to_string()).unwrap();
    assert_eq!(Summary::from_state_json(&v).unwrap(), empty);
    // Histograms with a broken range are rejected, not mis-restored.
    let v = JsonValue::parse(r#"{"min":5,"max":5,"counts":[0]}"#).unwrap();
    assert!(Histogram::from_state_json(&v).is_err());
    // A bare stat round-trips without a histogram block.
    let mut s = StreamingStat::new();
    s.push(7.0);
    let text = s.to_state_json().to_string();
    assert!(!text.contains("histogram"));
    let v = JsonValue::parse(&text).unwrap();
    assert_eq!(StreamingStat::from_state_json(&v).unwrap(), s);
}

// --- JSON text: render/parse round trips, the escaper, linear time ---
//
// Checkpoints, artifacts and every streamed line go through
// `JsonValue`'s renderer and parser. Trees are built from a vector of
// random draws: each draw picks a node kind, a length or a character.

/// A cursor over a case's random draws (zeros once they run out).
struct Draws<'a>(std::slice::Iter<'a, u64>);

impl Draws<'_> {
    fn next(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    /// One character: a control character, printable ASCII (quote,
    /// backslash and DEL among them), a multi-byte character, or any
    /// scalar value at all.
    fn char(&mut self) -> char {
        let d = self.next();
        let pick = d >> 2;
        match d % 4 {
            0 => char::from(u8::try_from(pick % 0x20).expect("below 0x20")),
            1 => char::from(u8::try_from(0x20 + pick % 0x60).expect("below 0x80")),
            2 => ['é', '€', '😀', '\u{2028}', '\u{feff}'][(pick % 5) as usize],
            _ => char::from_u32((pick % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
        }
    }

    fn string(&mut self) -> String {
        let len = self.next() % 12;
        (0..len).map(|_| self.char()).collect()
    }

    /// A finite number: an integer, a fraction, or any finite bit
    /// pattern (subnormals and extreme exponents included).
    fn number(&mut self) -> f64 {
        let d = self.next();
        match d % 3 {
            0 => (d >> 2) as f64 - (1u64 << 61) as f64,
            1 => (d >> 11) as f64 / 1024.0,
            _ => Some(f64::from_bits(d))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        }
    }

    fn leaf(&mut self) -> JsonValue {
        match self.next() % 4 {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.next().is_multiple_of(2)),
            2 => JsonValue::Num(self.number()),
            _ => JsonValue::Str(self.string()),
        }
    }

    /// A container nesting `depth` levels along one spine child; its
    /// other children are leaves or shallow containers.
    fn tree(&mut self, depth: usize) -> JsonValue {
        if depth == 0 {
            return self.leaf();
        }
        let width = (self.next() % 4) as usize;
        let spine = (self.next() % (width as u64 + 1)) as usize;
        let mut children = Vec::new();
        for i in 0..=width {
            children.push(match (i == spine, self.next() % 3) {
                (true, _) => self.tree(depth - 1),
                (false, 0) => self.tree(1),
                _ => self.leaf(),
            });
        }
        if self.next().is_multiple_of(2) {
            JsonValue::Arr(children)
        } else {
            JsonValue::Obj(children.into_iter().map(|c| (self.string(), c)).collect())
        }
    }
}

/// The string renderer as it was written first, one `char` at a time:
/// the oracle the run-based escaper must match byte for byte.
fn escaped_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_trees_round_trip_through_text(
        draws in prop::collection::vec(0u64..u64::MAX, 64..1024),
        depth in 4usize..9,
    ) {
        let tree = Draws(draws.iter()).tree(depth);
        let text = tree.to_string();
        prop_assert_eq!(JsonValue::parse(&text).unwrap(), tree.clone());
        prop_assert_eq!(JsonValue::parse(&tree.to_file_string()).unwrap(), tree);
    }

    #[test]
    fn strings_render_as_the_per_char_escaper_did(
        draws in prop::collection::vec(0u64..u64::MAX, 0..96),
    ) {
        let mut d = Draws(draws.iter());
        let s: String = (0..draws.len()).map(|_| d.char()).collect();
        let want = escaped_per_char(&s);
        prop_assert_eq!(JsonValue::Str(s.clone()).to_string(), want.clone());
        prop_assert_eq!(
            JsonValue::obj([(s.clone(), JsonValue::Null)]).to_string(),
            format!("{{{want}:null}}")
        );
        let mut direct = String::new();
        write_escaped(&mut direct, &s).unwrap();
        prop_assert_eq!(direct, want);
    }
}

#[test]
fn parsing_takes_time_linear_in_the_text() {
    // A parser that re-reads the rest of the input per character needs
    // minutes for either document; a linear one, milliseconds.
    let bound = Duration::from_secs(1);
    let long = "é€😀ab\\n\\\"".repeat(72 * 1024);
    let one_string = format!("\"{long}\"");
    assert!(one_string.len() > 1 << 20);
    let t0 = Instant::now();
    let parsed = JsonValue::parse(&one_string).unwrap();
    let took = t0.elapsed();
    assert_eq!(
        parsed.as_str().map(|s| s.chars().count()),
        Some(7 * 72 * 1024)
    );
    assert!(took < bound, "one 1 MiB string took {took:?}");

    let many = format!("[{}]", vec!["\"cell-é\\t\""; 100_000].join(","));
    let t0 = Instant::now();
    let parsed = JsonValue::parse(&many).unwrap();
    let took = t0.elapsed();
    assert_eq!(parsed.as_arr().map(<[_]>::len), Some(100_000));
    assert!(took < bound, "100,000 short strings took {took:?}");
}
