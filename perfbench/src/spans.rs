//! In-memory spans for the traced run: each call into a layer's public
//! API gets a span with its name, start, end, parent and trial
//! coordinate; spans are written out only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsn_stats::JsonValue;

/// A finished span.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Trial coordinate: `32x32/n100/t3` on a trial span,
    /// `32x32/n100/t3/sr/event-ideal` on a run span.
    pub trial: Option<String>,
    pub counters: Vec<(&'static str, f64)>,
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    trial: Option<String>,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread. A disabled tracer times calls the
/// same way but keeps nothing: that is the untraced pass the tracing
/// overhead is measured against.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, trial: Option<&str>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            trial: if self.enabled {
                trial.map(str::to_owned)
            } else {
                None
            },
            start: Instant::now(),
        }
    }

    /// Ends `open`, attaching `counters`, and returns its duration.
    pub fn close(&self, open: Open, counters: &[(&'static str, f64)]) -> Duration {
        let end = Instant::now();
        let elapsed = end - open.start;
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                trial: open.trial,
                counters: counters.to_vec(),
            };
            self.spans.lock().expect("span lock").push(span);
        }
        elapsed
    }

    /// Runs `f` inside a child span of `parent` with no counters;
    /// returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, None);
        let out = f();
        (out, self.close(open, &[]))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span lock")
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap when they ran on other threads).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Writes one JSON line per span (with its self time) to `path`, and
/// returns per-name totals `(name, count, total_ns, self_ns)` sorted by
/// self time, largest first.
pub fn write_spans(
    spans: &[Span],
    path: &Path,
) -> std::io::Result<Vec<(&'static str, u64, u64, u64)>> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let self_ns = selfs[&s.id];
        let entry = totals.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.end_ns - s.start_ns;
        entry.2 += self_ns;
        let mut fields = vec![
            ("id", JsonValue::from(s.id)),
            ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
            ("name", JsonValue::from(s.name)),
            (
                "trial",
                s.trial.as_deref().map_or(JsonValue::Null, JsonValue::from),
            ),
            ("start_ns", JsonValue::from(s.start_ns)),
            ("end_ns", JsonValue::from(s.end_ns)),
            ("self_ns", JsonValue::from(self_ns)),
        ];
        fields.extend(s.counters.iter().map(|&(k, v)| (k, JsonValue::from(v))));
        writeln!(out, "{}", JsonValue::obj(fields))?;
    }
    out.flush()?;
    let mut totals: Vec<_> = totals
        .into_iter()
        .map(|(name, (count, total, own))| (name, count, total, own))
        .collect();
    totals.sort_by_key(|&(_, _, _, own)| std::cmp::Reverse(own));
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            trial: None,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps span 2 (another thread): only 30..50 is new.
            span(3, Some(1), 20, 50),
            span(4, Some(3), 25, 45),
            span(5, Some(1), 90, 120), // runs past its parent's end
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 20);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&5], 30);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tracer = Tracer::new(false);
        let (v, _) = tracer.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(tracer.into_spans().is_empty());
        let tracer = Tracer::new(true);
        let parent = tracer.open("p", None, Some("t"));
        let pid = parent.id();
        let _ = tracer.time("c", Some(pid), || ());
        let _ = tracer.close(parent, &[("rounds", 3.0)]);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(pid));
        assert_eq!(spans[1].counters, vec![("rounds", 3.0)]);
    }
}
