//! Metric names, units and the result line, plus the order statistics
//! every workload reports with.

use std::collections::BTreeMap;

use wsn_stats::JsonValue;

/// End-to-end metrics: measured with tracing off, reported by every
/// workload (`--trace 0`). Each is `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("trial_success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run (`--trace 1`), named after the
/// module they come from. Every workload reports every name; a layer the
/// workload never calls reads 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("grid.repair_heads_us", "us"),
    ("sr.run_ms", "ms"),
    ("sr.rounds", "count"),
    ("sr.us_per_round", "us"),
    ("sr.moves", "count"),
    ("ar.run_ms", "ms"),
    ("ar.rounds", "count"),
    ("ar.ms_per_round", "ms"),
    ("ar.converged_ratio", "ratio"),
    ("actor.sr.slowdown", "ratio"),
    ("actor.sr-sc.slowdown", "ratio"),
    ("actor.ar.slowdown", "ratio"),
    ("event.ns_per_message", "ns"),
    ("event.drop_ratio", "ratio"),
    ("event.duplicate_initiations", "count"),
    ("sr-sc.run_ms", "ms"),
    ("sr-sc.rounds", "count"),
    ("sr-sc.us_per_round", "us"),
    ("sr-sc.cells_scanned_per_round", "count"),
    ("deploy.ms", "ms"),
    ("grid.build_ms", "ms"),
    ("topology.ms", "ms"),
    ("election.ms", "ms"),
    ("campaign.fixed_us_per_trial", "us"),
    ("campaign.parallel_efficiency", "ratio"),
    ("artifact.json_ms", "ms"),
    ("artifact.csv_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("serve.healthz_idle_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.stream_lines", "count"),
    ("serve.stream_bytes", "bytes"),
    ("serve.checkpoints", "count"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.probe_late_ms", "ms"),
    ("serve.first_delta_ms", "ms"),
    ("serve.healthz_ms_p50", "ms"),
    ("serve.healthz_ms_tail", "ms"),
    ("serve.healthz_tail_pct", "pct"),
    ("serve.healthz_samples", "count"),
    ("serve.failed_request_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.trials", "count"),
    ("process.peak_rss_mb", "MiB"),
];

/// Nearest-rank percentile of ascending `sorted` data: the smallest
/// sample with at least `p`% of the samples at or below it. `None` on
/// empty input.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile with at least ten samples beyond its
/// nearest rank, and its value: `(percentile, value)`. `None` when even
/// the median has fewer than ten samples above it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// Median (nearest rank) of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}

/// One run's outcome: the JSON result line printed last.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (trials, plus requests on `served-16`).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The single-line JSON result over the `names` table, in table
    /// order. A metric the run did not set is an error in the
    /// benchmark itself.
    pub fn to_line(&self, names: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name,
                JsonValue::obj([
                    ("value", JsonValue::from(value)),
                    ("unit", JsonValue::from(unit)),
                ]),
            ));
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !names.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the reported table"));
        }
        Ok(JsonValue::obj([
            ("correct", JsonValue::from(self.correct)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::obj(metrics)),
        ])
        .to_string())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid metric name starts with a letter or digit, then letters,
    /// digits, `_`, `.` and `-`, at most 64 bytes.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn nearest_rank_picks_real_samples() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&data, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&data, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&data, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&data, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&data, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.5], 99.0), Some(7.5));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond rank 990.
        assert_eq!(tail(&data), Some((99.0, 990.0)));
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 would leave 2, p95 leaves exactly 10.
        assert_eq!(tail(&data), Some((95.0, 190.0)));
        let data: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&data), Some((75.0, 30.0)));
        assert_eq!(tail(&(1..=19).map(f64::from).collect::<Vec<_>>()), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "invalid metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(!valid_name("-leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, expected, "{key} disagrees with report.rs");
        }
    }

    #[test]
    fn result_line_rejects_missing_and_unknown_metrics() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        let table = [("a", "ms"), ("b", "s")];
        outcome.metrics.insert("a", 1.25);
        assert!(outcome.to_line(&table).is_err());
        outcome.metrics.insert("b", 2.0);
        let line = outcome.to_line(&table).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.25,"unit":"ms"},"b":{"value":2,"unit":"s"}}}"#
        );
        outcome.metrics.insert("c", 1.0);
        assert!(outcome.to_line(&table).is_err());
    }
}
