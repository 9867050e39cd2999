//! The per-job stream log: an append-only sequence of JSON lines every
//! subscriber replays from the beginning.
//!
//! This is what makes the daemon's streaming contract trivial to state
//! and test: subscribers do not tap a live firehose, they read one
//! shared, ordered, immutable-once-written log (schema `wsn-serve/1`,
//! one JSON object per line). A subscriber that connects late replays
//! the prefix it missed and then follows the tail; two subscribers —
//! whenever they connect — therefore observe the *identical* ordered
//! sequence, which is the acceptance criterion the serve e2e tests pin.
//!
//! Reads never block. A subscriber takes what is there, then sleeps in
//! [`StreamLog::wait_closed`] until its next batch is due; appends do
//! not wake it (a job appends a line per trial), the close does.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct Inner {
    lines: Vec<Arc<str>>,
    closed: bool,
}

/// An append-only, close-once log of stream lines.
#[derive(Debug, Default)]
pub struct StreamLog {
    inner: Mutex<Inner>,
    /// Signalled by [`StreamLog::close`] alone.
    closed: Condvar,
}

impl StreamLog {
    /// An empty, open log.
    pub fn new() -> StreamLog {
        StreamLog::default()
    }

    /// A closed log holding `lines`: a finished job's log read back
    /// from disk.
    pub fn closed(lines: Vec<Arc<str>>) -> StreamLog {
        StreamLog {
            inner: Mutex::new(Inner {
                lines,
                closed: true,
            }),
            closed: Condvar::new(),
        }
    }

    /// Appends one line (no trailing newline); wakes no reader.
    /// Appends to a closed log are dropped — the log's final state is
    /// immutable so late folds cannot reorder what subscribers saw.
    pub fn append(&self, line: impl Into<Arc<str>>) {
        let mut inner = self.inner.lock().expect("stream log lock");
        if !inner.closed {
            inner.lines.push(line.into());
        }
    }

    /// Closes the log: no further appends, and every reader waiting in
    /// [`StreamLog::wait_closed`] wakes at once.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("stream log lock");
        inner.closed = true;
        self.closed.notify_all();
    }

    /// Number of lines appended so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("stream log lock").lines.len()
    }

    /// Whether no line has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`StreamLog::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("stream log lock").closed
    }

    /// Up to `max` lines from index `from` on, without waiting, and
    /// whether they are the log's last: it is closed and nothing follows
    /// them, so the subscriber is done once it has sent them.
    pub fn read_from(&self, from: usize, max: usize) -> (Vec<Arc<str>>, bool) {
        let inner = self.inner.lock().expect("stream log lock");
        let rest = inner.lines.get(from..).unwrap_or_default();
        let lines = rest[..rest.len().min(max)].to_vec();
        let done = inner.closed && lines.len() == rest.len();
        (lines, done)
    }

    /// Sleeps until the log is closed or `timeout` has passed, and
    /// returns whether it is closed. Returns at once on a closed log;
    /// appends do not cut the sleep short.
    pub fn wait_closed(&self, timeout: Duration) -> bool {
        let inner = self.inner.lock().expect("stream log lock");
        let (inner, _timed_out) = self
            .closed
            .wait_timeout_while(inner, timeout, |i| !i.closed)
            .expect("stream log lock");
        inner.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn subscribers_replay_the_identical_sequence() {
        let log = Arc::new(StreamLog::new());
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..200 {
                    log.append(format!("line-{i}"));
                }
                log.close();
            })
        };
        // Two subscribers racing the writer from different start
        // times still read the same ordered sequence.
        let subscribe = |log: Arc<StreamLog>| {
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let (lines, done) = log.read_from(seen.len(), 16);
                    seen.extend(lines.iter().map(|l| l.to_string()));
                    if done {
                        return seen;
                    }
                    log.wait_closed(Duration::from_millis(1));
                }
            })
        };
        let early = subscribe(Arc::clone(&log));
        std::thread::sleep(Duration::from_millis(5));
        let late = subscribe(Arc::clone(&log));
        writer.join().unwrap();
        let a = early.join().unwrap();
        let b = late.join().unwrap();
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
        assert_eq!(a[0], "line-0");
        assert_eq!(a[199], "line-199");
    }

    #[test]
    fn closed_logs_drop_appends_and_release_readers() {
        let log = StreamLog::new();
        log.append("kept");
        assert!(!log.wait_closed(Duration::from_millis(1)));
        log.close();
        log.append("dropped");
        assert_eq!(log.len(), 1);
        let (lines, done) = log.read_from(0, usize::MAX);
        assert_eq!(lines.len(), 1);
        assert!(done);
        // Reading past the end of a closed log returns nothing, done.
        let (lines, done) = log.read_from(5, usize::MAX);
        assert!(lines.is_empty());
        assert!(done);
        // Waiting on a closed log returns at once.
        assert!(log.wait_closed(Duration::from_secs(3600)));
    }

    #[test]
    fn reads_stop_at_their_cap_and_finish_only_with_the_last_line() {
        let log = StreamLog::new();
        for i in 0..5 {
            log.append(format!("line-{i}"));
        }
        log.close();
        let (lines, done) = log.read_from(0, 2);
        assert_eq!(lines.len(), 2);
        assert!(!done, "three lines still follow");
        let (lines, done) = log.read_from(2, 3);
        assert_eq!(&*lines[2], "line-4");
        assert!(done);
        // An open log is never done, however much a read returns.
        let open = StreamLog::new();
        open.append("only");
        assert_eq!(open.read_from(0, 8), (vec![Arc::from("only")], false));
    }
}
