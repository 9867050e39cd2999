//! Structured event tracing for protocol runs.
//!
//! Traces serve three purposes in the reproduction: debugging the
//! round-based protocols, rendering the step-by-step narration in the
//! examples, and asserting fine-grained behaviour in integration tests
//! (e.g. "exactly one replacement process was initiated for this hole" —
//! the paper's headline synchronization property).
//!
//! Grid cells are identified here by plain `(x, y)` pairs to keep this
//! crate independent of the grid layer; `wsn-grid`'s `GridCoord` converts
//! to and from these pairs.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_geometry::Point2;

use crate::node::NodeId;
use crate::Round;

/// One traced protocol event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A node was disabled by fault injection.
    NodeDisabled {
        /// The disabled node.
        node: NodeId,
        /// Cell that contained the node.
        cell: (u16, u16),
    },
    /// A cell was detected vacant by the monitoring head.
    VacancyDetected {
        /// The vacant cell.
        cell: (u16, u16),
        /// Cell of the head that detected the vacancy.
        detector: (u16, u16),
    },
    /// A replacement process was initiated.
    ProcessInitiated {
        /// Process identifier (dense per run).
        process: u64,
        /// The hole the process is recovering.
        hole: (u16, u16),
        /// Cell of the initiating head.
        initiator: (u16, u16),
    },
    /// A head sent a replacement notification to its predecessor.
    NotificationSent {
        /// Process identifier.
        process: u64,
        /// Sender cell.
        from: (u16, u16),
        /// Receiver cell.
        to: (u16, u16),
    },
    /// A node moved from one cell to another.
    NodeMoved {
        /// Process that caused the movement (if any; `None` for
        /// non-protocol movements such as virtual-force steps).
        process: Option<u64>,
        /// The moving node.
        node: NodeId,
        /// Source cell.
        from: (u16, u16),
        /// Destination cell.
        to: (u16, u16),
        /// Distance covered, meters.
        distance: f64,
    },
    /// A replacement process converged (a spare reached the hole chain).
    ProcessConverged {
        /// Process identifier.
        process: u64,
        /// Number of movements the process used.
        moves: u64,
    },
    /// A replacement process failed.
    ProcessFailed {
        /// Process identifier.
        process: u64,
        /// Human-readable failure reason.
        reason: String,
    },
    /// A head was (re-)elected in a cell.
    HeadElected {
        /// The cell.
        cell: (u16, u16),
        /// The new head node.
        node: NodeId,
    },
    /// A node was repositioned without protocol involvement (deployment,
    /// balancing baselines).
    NodeRepositioned {
        /// The node.
        node: NodeId,
        /// New position.
        to: Point2,
        /// Distance covered, meters.
        distance: f64,
    },
    /// An inter-cell envelope was handed to the network model by the
    /// event-driven engine.
    NetMessage {
        /// Message kind token (e.g. `hole_announce`, `move_ack`).
        msg: String,
        /// Sender cell.
        from: (u16, u16),
        /// Receiver cell.
        to: (u16, u16),
        /// Scheduled delivery round, or `None` when the network
        /// dropped the envelope.
        deliver_at: Option<Round>,
    },
}

impl TraceEvent {
    /// Short machine-friendly tag of the event kind (used by filters).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::NodeDisabled { .. } => "node_disabled",
            TraceEvent::VacancyDetected { .. } => "vacancy_detected",
            TraceEvent::ProcessInitiated { .. } => "process_initiated",
            TraceEvent::NotificationSent { .. } => "notification_sent",
            TraceEvent::NodeMoved { .. } => "node_moved",
            TraceEvent::ProcessConverged { .. } => "process_converged",
            TraceEvent::ProcessFailed { .. } => "process_failed",
            TraceEvent::HeadElected { .. } => "head_elected",
            TraceEvent::NodeRepositioned { .. } => "node_repositioned",
            TraceEvent::NetMessage { .. } => "net_message",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::NodeDisabled { node, cell } => {
                write!(f, "{node} disabled in ({}, {})", cell.0, cell.1)
            }
            TraceEvent::VacancyDetected { cell, detector } => write!(
                f,
                "vacancy at ({}, {}) detected by head of ({}, {})",
                cell.0, cell.1, detector.0, detector.1
            ),
            TraceEvent::ProcessInitiated {
                process,
                hole,
                initiator,
            } => write!(
                f,
                "process #{process} initiated at ({}, {}) for hole ({}, {})",
                initiator.0, initiator.1, hole.0, hole.1
            ),
            TraceEvent::NotificationSent { process, from, to } => write!(
                f,
                "process #{process}: notification ({}, {}) -> ({}, {})",
                from.0, from.1, to.0, to.1
            ),
            TraceEvent::NodeMoved {
                process,
                node,
                from,
                to,
                distance,
            } => match process {
                Some(p) => write!(
                    f,
                    "process #{p}: {node} moved ({}, {}) -> ({}, {}) [{distance:.2} m]",
                    from.0, from.1, to.0, to.1
                ),
                None => write!(
                    f,
                    "{node} moved ({}, {}) -> ({}, {}) [{distance:.2} m]",
                    from.0, from.1, to.0, to.1
                ),
            },
            TraceEvent::ProcessConverged { process, moves } => {
                write!(f, "process #{process} converged after {moves} moves")
            }
            TraceEvent::ProcessFailed { process, reason } => {
                write!(f, "process #{process} failed: {reason}")
            }
            TraceEvent::HeadElected { cell, node } => {
                write!(f, "{node} elected head of ({}, {})", cell.0, cell.1)
            }
            TraceEvent::NodeRepositioned { node, to, distance } => {
                write!(f, "{node} repositioned to {to} [{distance:.2} m]")
            }
            TraceEvent::NetMessage {
                msg,
                from,
                to,
                deliver_at,
            } => match deliver_at {
                Some(t) => write!(
                    f,
                    "{msg} ({}, {}) -> ({}, {}) due round {t}",
                    from.0, from.1, to.0, to.1
                ),
                None => write!(
                    f,
                    "{msg} ({}, {}) -> ({}, {}) dropped",
                    from.0, from.1, to.0, to.1
                ),
            },
        }
    }
}

/// A time-stamped trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Round in which the event occurred.
    pub round: Round,
    /// The event.
    pub event: TraceEvent,
}

/// An append-only event log with query helpers.
///
/// Recording can be disabled ([`TraceLog::disabled`]) for large
/// Monte-Carlo sweeps; a disabled log drops events in O(1) without
/// allocating, so protocols can trace unconditionally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    enabled: bool,
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// A log that records events.
    pub fn new() -> TraceLog {
        TraceLog {
            enabled: true,
            records: Vec::new(),
        }
    }

    /// A log that silently drops events (for big sweeps).
    pub fn disabled() -> TraceLog {
        TraceLog {
            enabled: false,
            records: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends `event` at `round` (no-op when disabled).
    pub fn record(&mut self, round: Round, event: TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord { round, event });
        }
    }

    /// Appends the event `build` returns at `round`, calling `build` only
    /// when recording: hot paths whose events own heap data (a
    /// [`TraceEvent::NetMessage`] token) allocate nothing when disabled.
    #[inline]
    pub fn record_with(&mut self, round: Round, build: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord {
                round,
                event: build(),
            });
        }
    }

    /// All records in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records have been kept.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records whose event kind equals `kind`
    /// (see [`TraceEvent::kind`]).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    /// Counts records of the given kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// Renders the whole log, one event per line, for examples and debug
    /// dumps.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "[round {:>4}] {}", r.round, r.event);
        }
        out
    }

    /// Serializes the log as JSON Lines (one object per record) for
    /// external tooling: each line carries `round`, `kind` and the
    /// event's fields flattened into simple keys. Hand-rolled on purpose
    /// — the values are rounds, ids, cell pairs and distances, so a JSON
    /// dependency would buy nothing (the workspace keeps its dependency
    /// set minimal).
    ///
    /// Floats are written in Rust's shortest round-trip notation, so
    /// [`TraceLog::from_json_lines`] inverts this exactly:
    /// `from_json_lines(log.to_json_lines()) == log` for every enabled
    /// log, bit-for-bit including distances.
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let mut fields: Vec<(&str, String)> = vec![("round", r.round.to_string())];
            let kind = r.event.kind();
            match &r.event {
                TraceEvent::NodeDisabled { node, cell } => {
                    fields.push(("node", node.raw().to_string()));
                    fields.push(("cell", format!("[{},{}]", cell.0, cell.1)));
                }
                TraceEvent::VacancyDetected { cell, detector } => {
                    fields.push(("cell", format!("[{},{}]", cell.0, cell.1)));
                    fields.push(("detector", format!("[{},{}]", detector.0, detector.1)));
                }
                TraceEvent::ProcessInitiated {
                    process,
                    hole,
                    initiator,
                } => {
                    fields.push(("process", process.to_string()));
                    fields.push(("hole", format!("[{},{}]", hole.0, hole.1)));
                    fields.push(("initiator", format!("[{},{}]", initiator.0, initiator.1)));
                }
                TraceEvent::NotificationSent { process, from, to } => {
                    fields.push(("process", process.to_string()));
                    fields.push(("from", format!("[{},{}]", from.0, from.1)));
                    fields.push(("to", format!("[{},{}]", to.0, to.1)));
                }
                TraceEvent::NodeMoved {
                    process,
                    node,
                    from,
                    to,
                    distance,
                } => {
                    if let Some(p) = process {
                        fields.push(("process", p.to_string()));
                    }
                    fields.push(("node", node.raw().to_string()));
                    fields.push(("from", format!("[{},{}]", from.0, from.1)));
                    fields.push(("to", format!("[{},{}]", to.0, to.1)));
                    fields.push(("distance", json_f64(*distance)));
                }
                TraceEvent::ProcessConverged { process, moves } => {
                    fields.push(("process", process.to_string()));
                    fields.push(("moves", moves.to_string()));
                }
                TraceEvent::ProcessFailed { process, reason } => {
                    fields.push(("process", process.to_string()));
                    fields.push(("reason", format!("\"{}\"", json_escape(reason))));
                }
                TraceEvent::HeadElected { cell, node } => {
                    fields.push(("cell", format!("[{},{}]", cell.0, cell.1)));
                    fields.push(("node", node.raw().to_string()));
                }
                TraceEvent::NodeRepositioned { node, to, distance } => {
                    fields.push(("node", node.raw().to_string()));
                    fields.push(("x", json_f64(to.x)));
                    fields.push(("y", json_f64(to.y)));
                    fields.push(("distance", json_f64(*distance)));
                }
                TraceEvent::NetMessage {
                    msg,
                    from,
                    to,
                    deliver_at,
                } => {
                    fields.push(("msg", format!("\"{}\"", json_escape(msg))));
                    fields.push(("from", format!("[{},{}]", from.0, from.1)));
                    fields.push(("to", format!("[{},{}]", to.0, to.1)));
                    if let Some(t) = deliver_at {
                        fields.push(("deliver_at", t.to_string()));
                    }
                }
            }
            let _ = write!(out, "{{\"kind\":\"{kind}\"");
            for (k, v) in fields {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

impl TraceLog {
    /// Parses the JSON-Lines form produced by [`TraceLog::to_json_lines`]
    /// back into a log. Blank lines are skipped; key order inside each
    /// object does not matter. The parser accepts exactly the value
    /// shapes the writer emits (numbers, strings, two-element arrays),
    /// which keeps it dependency-free while still round-tripping every
    /// log bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`TraceCodecError::Json`] naming the 1-based line and the reason
    /// when a line is not one of the ten known record shapes.
    pub fn from_json_lines(s: &str) -> Result<TraceLog, TraceCodecError> {
        let mut log = TraceLog::new();
        for (i, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (round, event) =
                json::parse_record(line).map_err(|reason| TraceCodecError::Json {
                    line: i + 1,
                    reason,
                })?;
            log.record(round, event);
        }
        Ok(log)
    }

    /// Encodes the log in the compact versioned binary form (magic
    /// `WSNT`, format version 1, varint-packed records; see the module
    /// docs of [`binary`]). The inverse is [`TraceLog::from_binary`];
    /// the round-trip is byte-identical in both directions.
    pub fn to_binary(&self) -> Vec<u8> {
        binary::encode(&[], self)
    }

    /// Decodes a binary log produced by [`TraceLog::to_binary`] (or by
    /// [`binary::encode`]; any embedded metadata is ignored here).
    ///
    /// # Errors
    ///
    /// [`TraceCodecError`] when the magic/version is wrong or the byte
    /// stream is truncated or malformed.
    pub fn from_binary(bytes: &[u8]) -> Result<TraceLog, TraceCodecError> {
        binary::decode(bytes).map(|(_, log)| log)
    }
}

/// Errors from the trace codecs ([`TraceLog::from_json_lines`],
/// [`binary::decode`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceCodecError {
    /// The binary header does not start with the `WSNT` magic.
    BadMagic,
    /// The binary format version is newer than this reader.
    BadVersion(u8),
    /// The byte stream ended in the middle of a record.
    Truncated,
    /// An unknown event tag.
    BadTag(u8),
    /// A varint ran past 10 bytes (u64 overflow).
    BadVarint,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A JSON line failed to parse.
    Json {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCodecError::BadMagic => write!(f, "not a WSNT trace (bad magic)"),
            TraceCodecError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceCodecError::Truncated => write!(f, "trace byte stream is truncated"),
            TraceCodecError::BadTag(t) => write!(f, "unknown trace event tag {t}"),
            TraceCodecError::BadVarint => write!(f, "malformed varint in trace stream"),
            TraceCodecError::BadUtf8 => write!(f, "invalid UTF-8 in trace string field"),
            TraceCodecError::Json { line, reason } => {
                write!(f, "trace JSON line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceCodecError {}

/// Formats an `f64` losslessly for JSON: Rust's shortest round-trip
/// notation, with a `.0` suffix forced onto integral values so the token
/// is unambiguously a float.
fn json_f64(v: f64) -> String {
    let s = v.to_string();
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The compact binary trace container: `WSNT` magic, a format-version
/// byte, a string-pair metadata block, then varint-packed
/// [`TraceRecord`]s (one tag byte per event kind, varints for
/// rounds/ids/cells, raw IEEE-754 bits for distances). Replay artifacts
/// put their coordinate metadata in the meta block; bare
/// [`TraceLog::to_binary`] leaves it empty. Encoding is canonical:
/// `encode(decode(bytes)) == bytes` for every accepted input, and
/// `decode(encode(meta, log)) == (meta, log)` — the property the codec
/// proptests pin.
pub mod binary {
    use super::{TraceCodecError, TraceEvent, TraceLog};
    use crate::node::NodeId;
    use wsn_geometry::Point2;

    /// First four bytes of every binary trace.
    pub const MAGIC: [u8; 4] = *b"WSNT";
    /// Current format version.
    pub const VERSION: u8 = 1;

    const TAG_NODE_DISABLED: u8 = 0;
    const TAG_VACANCY_DETECTED: u8 = 1;
    const TAG_PROCESS_INITIATED: u8 = 2;
    const TAG_NOTIFICATION_SENT: u8 = 3;
    const TAG_NODE_MOVED: u8 = 4;
    const TAG_PROCESS_CONVERGED: u8 = 5;
    const TAG_PROCESS_FAILED: u8 = 6;
    const TAG_HEAD_ELECTED: u8 = 7;
    const TAG_NODE_REPOSITIONED: u8 = 8;
    const TAG_NET_MESSAGE: u8 = 9;

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn put_str(out: &mut Vec<u8>, s: &str) {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    fn put_cell(out: &mut Vec<u8>, cell: (u16, u16)) {
        put_varint(out, u64::from(cell.0));
        put_varint(out, u64::from(cell.1));
    }

    fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Encodes `log` with a metadata block of string pairs.
    pub fn encode(meta: &[(String, String)], log: &TraceLog) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * log.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(u8::from(log.is_enabled()));
        put_varint(&mut out, meta.len() as u64);
        for (k, v) in meta {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        put_varint(&mut out, log.len() as u64);
        for r in log.records() {
            put_varint(&mut out, r.round);
            match &r.event {
                TraceEvent::NodeDisabled { node, cell } => {
                    out.push(TAG_NODE_DISABLED);
                    put_varint(&mut out, u64::from(node.raw()));
                    put_cell(&mut out, *cell);
                }
                TraceEvent::VacancyDetected { cell, detector } => {
                    out.push(TAG_VACANCY_DETECTED);
                    put_cell(&mut out, *cell);
                    put_cell(&mut out, *detector);
                }
                TraceEvent::ProcessInitiated {
                    process,
                    hole,
                    initiator,
                } => {
                    out.push(TAG_PROCESS_INITIATED);
                    put_varint(&mut out, *process);
                    put_cell(&mut out, *hole);
                    put_cell(&mut out, *initiator);
                }
                TraceEvent::NotificationSent { process, from, to } => {
                    out.push(TAG_NOTIFICATION_SENT);
                    put_varint(&mut out, *process);
                    put_cell(&mut out, *from);
                    put_cell(&mut out, *to);
                }
                TraceEvent::NodeMoved {
                    process,
                    node,
                    from,
                    to,
                    distance,
                } => {
                    out.push(TAG_NODE_MOVED);
                    match process {
                        Some(p) => {
                            out.push(1);
                            put_varint(&mut out, *p);
                        }
                        None => out.push(0),
                    }
                    put_varint(&mut out, u64::from(node.raw()));
                    put_cell(&mut out, *from);
                    put_cell(&mut out, *to);
                    put_f64(&mut out, *distance);
                }
                TraceEvent::ProcessConverged { process, moves } => {
                    out.push(TAG_PROCESS_CONVERGED);
                    put_varint(&mut out, *process);
                    put_varint(&mut out, *moves);
                }
                TraceEvent::ProcessFailed { process, reason } => {
                    out.push(TAG_PROCESS_FAILED);
                    put_varint(&mut out, *process);
                    put_str(&mut out, reason);
                }
                TraceEvent::HeadElected { cell, node } => {
                    out.push(TAG_HEAD_ELECTED);
                    put_cell(&mut out, *cell);
                    put_varint(&mut out, u64::from(node.raw()));
                }
                TraceEvent::NodeRepositioned { node, to, distance } => {
                    out.push(TAG_NODE_REPOSITIONED);
                    put_varint(&mut out, u64::from(node.raw()));
                    put_f64(&mut out, to.x);
                    put_f64(&mut out, to.y);
                    put_f64(&mut out, *distance);
                }
                TraceEvent::NetMessage {
                    msg,
                    from,
                    to,
                    deliver_at,
                } => {
                    out.push(TAG_NET_MESSAGE);
                    put_str(&mut out, msg);
                    put_cell(&mut out, *from);
                    put_cell(&mut out, *to);
                    match deliver_at {
                        Some(t) => {
                            out.push(1);
                            put_varint(&mut out, *t);
                        }
                        None => out.push(0),
                    }
                }
            }
        }
        out
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], TraceCodecError> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&e| e <= self.bytes.len())
                .ok_or(TraceCodecError::Truncated)?;
            let slice = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        fn byte(&mut self) -> Result<u8, TraceCodecError> {
            Ok(self.take(1)?[0])
        }

        fn varint(&mut self) -> Result<u64, TraceCodecError> {
            let mut v: u64 = 0;
            for shift in (0..64).step_by(7) {
                let byte = self.byte()?;
                let part = u64::from(byte & 0x7f);
                if shift == 63 && part > 1 {
                    return Err(TraceCodecError::BadVarint);
                }
                v |= part << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
            }
            Err(TraceCodecError::BadVarint)
        }

        fn cell(&mut self) -> Result<(u16, u16), TraceCodecError> {
            let x = self.varint()?;
            let y = self.varint()?;
            let x = u16::try_from(x).map_err(|_| TraceCodecError::BadVarint)?;
            let y = u16::try_from(y).map_err(|_| TraceCodecError::BadVarint)?;
            Ok((x, y))
        }

        fn node(&mut self) -> Result<NodeId, TraceCodecError> {
            let raw = self.varint()?;
            let raw = u32::try_from(raw).map_err(|_| TraceCodecError::BadVarint)?;
            Ok(NodeId::new(raw))
        }

        fn f64(&mut self) -> Result<f64, TraceCodecError> {
            let bytes: [u8; 8] = self.take(8)?.try_into().expect("slice of 8");
            Ok(f64::from_bits(u64::from_le_bytes(bytes)))
        }

        fn string(&mut self) -> Result<String, TraceCodecError> {
            let len = self.varint()?;
            let len = usize::try_from(len).map_err(|_| TraceCodecError::BadVarint)?;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| TraceCodecError::BadUtf8)
        }
    }

    /// Decodes a binary trace into its metadata pairs and log.
    ///
    /// # Errors
    ///
    /// [`TraceCodecError`] on bad magic/version, truncation, unknown
    /// tags, malformed varints or invalid UTF-8.
    pub fn decode(bytes: &[u8]) -> Result<(Vec<(String, String)>, TraceLog), TraceCodecError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(TraceCodecError::BadMagic);
        }
        let version = r.byte()?;
        if version != VERSION {
            return Err(TraceCodecError::BadVersion(version));
        }
        let enabled = r.byte()? != 0;
        let meta_len = r.varint()?;
        let mut meta = Vec::new();
        for _ in 0..meta_len {
            let k = r.string()?;
            let v = r.string()?;
            meta.push((k, v));
        }
        let count = r.varint()?;
        let mut log = if enabled {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        for _ in 0..count {
            let round = r.varint()?;
            let tag = r.byte()?;
            let event = match tag {
                TAG_NODE_DISABLED => TraceEvent::NodeDisabled {
                    node: r.node()?,
                    cell: r.cell()?,
                },
                TAG_VACANCY_DETECTED => TraceEvent::VacancyDetected {
                    cell: r.cell()?,
                    detector: r.cell()?,
                },
                TAG_PROCESS_INITIATED => TraceEvent::ProcessInitiated {
                    process: r.varint()?,
                    hole: r.cell()?,
                    initiator: r.cell()?,
                },
                TAG_NOTIFICATION_SENT => TraceEvent::NotificationSent {
                    process: r.varint()?,
                    from: r.cell()?,
                    to: r.cell()?,
                },
                TAG_NODE_MOVED => {
                    let process = match r.byte()? {
                        0 => None,
                        _ => Some(r.varint()?),
                    };
                    TraceEvent::NodeMoved {
                        process,
                        node: r.node()?,
                        from: r.cell()?,
                        to: r.cell()?,
                        distance: r.f64()?,
                    }
                }
                TAG_PROCESS_CONVERGED => TraceEvent::ProcessConverged {
                    process: r.varint()?,
                    moves: r.varint()?,
                },
                TAG_PROCESS_FAILED => TraceEvent::ProcessFailed {
                    process: r.varint()?,
                    reason: r.string()?,
                },
                TAG_HEAD_ELECTED => TraceEvent::HeadElected {
                    cell: r.cell()?,
                    node: r.node()?,
                },
                TAG_NODE_REPOSITIONED => TraceEvent::NodeRepositioned {
                    node: r.node()?,
                    to: Point2::new(r.f64()?, r.f64()?),
                    distance: r.f64()?,
                },
                TAG_NET_MESSAGE => {
                    let msg = r.string()?;
                    let from = r.cell()?;
                    let to = r.cell()?;
                    let deliver_at = match r.byte()? {
                        0 => None,
                        _ => Some(r.varint()?),
                    };
                    TraceEvent::NetMessage {
                        msg,
                        from,
                        to,
                        deliver_at,
                    }
                }
                other => return Err(TraceCodecError::BadTag(other)),
            };
            // Push directly: a disabled log must still round-trip its
            // (empty) record set, and `record` would drop events.
            log.records.push(super::TraceRecord { round, event });
        }
        if r.pos != bytes.len() {
            return Err(TraceCodecError::Truncated);
        }
        Ok((meta, log))
    }
}

/// The minimal JSON-subset reader behind [`TraceLog::from_json_lines`]:
/// flat objects whose values are numbers, strings or two-element arrays
/// — exactly what the writer emits. Numbers are kept as source tokens so
/// `u64` fields never round-trip through `f64`.
mod json {
    use super::TraceEvent;
    use crate::node::NodeId;
    use crate::Round;
    use std::collections::BTreeMap;
    use wsn_geometry::Point2;

    enum Value {
        Num(String),
        Str(String),
        Pair(String, String),
    }

    struct Scanner<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
    }

    impl Scanner<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(' ' | '\t')) {
                self.chars.next();
            }
        }

        fn expect(&mut self, c: char) -> Result<(), String> {
            self.skip_ws();
            match self.chars.next() {
                Some(got) if got == c => Ok(()),
                Some(got) => Err(format!("expected '{c}', found '{got}'")),
                None => Err(format!("expected '{c}', found end of line")),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    Some('"') => return Ok(out),
                    Some('\\') => match self.chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = self
                                    .chars
                                    .next()
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some(c) => out.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        }

        fn number(&mut self) -> Result<String, String> {
            self.skip_ws();
            let mut out = String::new();
            while let Some(&c) = self.chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    out.push(c);
                    self.chars.next();
                } else {
                    break;
                }
            }
            if out.is_empty() {
                Err("expected a number".into())
            } else {
                Ok(out)
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.chars.peek() {
                Some('"') => Ok(Value::Str(self.string()?)),
                Some('[') => {
                    self.expect('[')?;
                    let a = self.number()?;
                    self.expect(',')?;
                    let b = self.number()?;
                    self.expect(']')?;
                    Ok(Value::Pair(a, b))
                }
                _ => Ok(Value::Num(self.number()?)),
            }
        }
    }

    fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
        let mut s = Scanner {
            chars: line.chars().peekable(),
        };
        let mut map = BTreeMap::new();
        s.expect('{')?;
        s.skip_ws();
        if s.chars.peek() == Some(&'}') {
            s.chars.next();
            return Ok(map);
        }
        loop {
            let key = s.string()?;
            s.expect(':')?;
            let value = s.value()?;
            map.insert(key, value);
            s.skip_ws();
            match s.chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
        s.skip_ws();
        if s.chars.next().is_some() {
            return Err("trailing characters after object".into());
        }
        Ok(map)
    }

    fn get<'m>(map: &'m BTreeMap<String, Value>, key: &str) -> Result<&'m Value, String> {
        map.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    fn get_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
        match get(map, key)? {
            Value::Num(s) => s.parse().map_err(|_| format!("field {key:?}: bad integer")),
            _ => Err(format!("field {key:?}: expected an integer")),
        }
    }

    fn get_f64(map: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
        match get(map, key)? {
            Value::Num(s) => s.parse().map_err(|_| format!("field {key:?}: bad float")),
            _ => Err(format!("field {key:?}: expected a float")),
        }
    }

    fn get_cell(map: &BTreeMap<String, Value>, key: &str) -> Result<(u16, u16), String> {
        match get(map, key)? {
            Value::Pair(a, b) => {
                let x = a.parse().map_err(|_| format!("field {key:?}: bad cell"))?;
                let y = b.parse().map_err(|_| format!("field {key:?}: bad cell"))?;
                Ok((x, y))
            }
            _ => Err(format!("field {key:?}: expected [x,y]")),
        }
    }

    fn get_node(map: &BTreeMap<String, Value>, key: &str) -> Result<NodeId, String> {
        let raw = get_u64(map, key)?;
        let raw = u32::try_from(raw).map_err(|_| format!("field {key:?}: id too large"))?;
        Ok(NodeId::new(raw))
    }

    fn get_str(map: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
        match get(map, key)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("field {key:?}: expected a string")),
        }
    }

    pub(super) fn parse_record(line: &str) -> Result<(Round, TraceEvent), String> {
        let map = parse_object(line)?;
        let kind = get_str(&map, "kind")?;
        let round = get_u64(&map, "round")?;
        let event = match kind.as_str() {
            "node_disabled" => TraceEvent::NodeDisabled {
                node: get_node(&map, "node")?,
                cell: get_cell(&map, "cell")?,
            },
            "vacancy_detected" => TraceEvent::VacancyDetected {
                cell: get_cell(&map, "cell")?,
                detector: get_cell(&map, "detector")?,
            },
            "process_initiated" => TraceEvent::ProcessInitiated {
                process: get_u64(&map, "process")?,
                hole: get_cell(&map, "hole")?,
                initiator: get_cell(&map, "initiator")?,
            },
            "notification_sent" => TraceEvent::NotificationSent {
                process: get_u64(&map, "process")?,
                from: get_cell(&map, "from")?,
                to: get_cell(&map, "to")?,
            },
            "node_moved" => TraceEvent::NodeMoved {
                process: match map.get("process") {
                    Some(_) => Some(get_u64(&map, "process")?),
                    None => None,
                },
                node: get_node(&map, "node")?,
                from: get_cell(&map, "from")?,
                to: get_cell(&map, "to")?,
                distance: get_f64(&map, "distance")?,
            },
            "process_converged" => TraceEvent::ProcessConverged {
                process: get_u64(&map, "process")?,
                moves: get_u64(&map, "moves")?,
            },
            "process_failed" => TraceEvent::ProcessFailed {
                process: get_u64(&map, "process")?,
                reason: get_str(&map, "reason")?,
            },
            "head_elected" => TraceEvent::HeadElected {
                cell: get_cell(&map, "cell")?,
                node: get_node(&map, "node")?,
            },
            "node_repositioned" => TraceEvent::NodeRepositioned {
                node: get_node(&map, "node")?,
                to: Point2::new(get_f64(&map, "x")?, get_f64(&map, "y")?),
                distance: get_f64(&map, "distance")?,
            },
            "net_message" => TraceEvent::NetMessage {
                msg: get_str(&map, "msg")?,
                from: get_cell(&map, "from")?,
                to: get_cell(&map, "to")?,
                deliver_at: match map.get("deliver_at") {
                    Some(_) => Some(get_u64(&map, "deliver_at")?),
                    None => None,
                },
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok((round, event))
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TraceEvent {
        TraceEvent::ProcessInitiated {
            process: 1,
            hole: (2, 3),
            initiator: (2, 2),
        }
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::new();
        log.record(0, sample_event());
        log.record(
            1,
            TraceEvent::ProcessConverged {
                process: 1,
                moves: 2,
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].round, 0);
        assert_eq!(log.records()[1].round, 1);
        assert!(!log.is_empty());
    }

    #[test]
    fn disabled_log_drops_everything() {
        let mut log = TraceLog::disabled();
        for r in 0..100 {
            log.record(r, sample_event());
        }
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn record_with_builds_only_when_enabled() {
        let mut off = TraceLog::disabled();
        off.record_with(0, || unreachable!("a disabled log builds no event"));
        assert!(off.is_empty());
        let mut on = TraceLog::new();
        on.record_with(3, sample_event);
        let mut direct = TraceLog::new();
        direct.record(3, sample_event());
        assert_eq!(on, direct);
    }

    #[test]
    fn kind_filtering() {
        let mut log = TraceLog::new();
        log.record(0, sample_event());
        log.record(
            0,
            TraceEvent::NodeMoved {
                process: Some(1),
                node: NodeId::new(5),
                from: (0, 0),
                to: (0, 1),
                distance: 4.5,
            },
        );
        log.record(
            1,
            TraceEvent::ProcessFailed {
                process: 2,
                reason: "no spare".into(),
            },
        );
        assert_eq!(log.count_kind("process_initiated"), 1);
        assert_eq!(log.count_kind("node_moved"), 1);
        assert_eq!(log.count_kind("process_failed"), 1);
        assert_eq!(log.count_kind("head_elected"), 0);
    }

    #[test]
    fn every_event_kind_has_nonempty_display() {
        let events = vec![
            TraceEvent::NodeDisabled {
                node: NodeId::new(0),
                cell: (0, 0),
            },
            TraceEvent::VacancyDetected {
                cell: (1, 1),
                detector: (1, 0),
            },
            sample_event(),
            TraceEvent::NotificationSent {
                process: 0,
                from: (0, 0),
                to: (0, 1),
            },
            TraceEvent::NodeMoved {
                process: None,
                node: NodeId::new(1),
                from: (0, 0),
                to: (1, 0),
                distance: 1.0,
            },
            TraceEvent::ProcessConverged {
                process: 0,
                moves: 1,
            },
            TraceEvent::ProcessFailed {
                process: 0,
                reason: "x".into(),
            },
            TraceEvent::HeadElected {
                cell: (0, 0),
                node: NodeId::new(2),
            },
            TraceEvent::NodeRepositioned {
                node: NodeId::new(3),
                to: Point2::new(1.0, 2.0),
                distance: 2.0,
            },
            TraceEvent::NetMessage {
                msg: "hole_announce".into(),
                from: (2, 2),
                to: (2, 1),
                deliver_at: Some(4),
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        for e in &events {
            assert!(!e.to_string().is_empty());
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 10, "kinds must be distinct");
    }

    #[test]
    fn render_contains_rounds_and_lines() {
        let mut log = TraceLog::new();
        log.record(3, sample_event());
        let s = log.render();
        assert!(s.contains("[round    3]"));
        assert!(s.lines().count() == 1);
    }

    #[test]
    fn json_lines_one_object_per_record() {
        let mut log = TraceLog::new();
        log.record(0, sample_event());
        log.record(
            1,
            TraceEvent::NodeMoved {
                process: Some(1),
                node: NodeId::new(5),
                from: (0, 0),
                to: (0, 1),
                distance: 4.5,
            },
        );
        log.record(
            2,
            TraceEvent::ProcessFailed {
                process: 2,
                reason: "said \"no\"\nnewline".into(),
            },
        );
        let jsonl = log.to_json_lines();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("{\"kind\":\""));
            assert!(line.ends_with('}'));
            // Balanced quotes (escapes handled): even count of unescaped ".
            let unescaped = line.replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
        }
        assert!(lines[0].contains("\"round\":0"));
        assert!(lines[1].contains("\"distance\":4.5"));
        assert!(lines[2].contains("\\\"no\\\""));
        assert!(lines[2].contains("\\n"));
    }

    fn one_of_each_kind() -> Vec<TraceEvent> {
        vec![
            TraceEvent::NodeDisabled {
                node: NodeId::new(0),
                cell: (0, 0),
            },
            TraceEvent::VacancyDetected {
                cell: (1, 1),
                detector: (1, 0),
            },
            sample_event(),
            TraceEvent::NotificationSent {
                process: 0,
                from: (0, 0),
                to: (0, 1),
            },
            TraceEvent::NodeMoved {
                process: None,
                node: NodeId::new(1),
                from: (0, 0),
                to: (1, 0),
                distance: 7.07,
            },
            TraceEvent::NodeMoved {
                process: Some(u64::MAX),
                node: NodeId::new(u32::MAX),
                from: (u16::MAX, 0),
                to: (0, u16::MAX),
                distance: 1.0 / 3.0,
            },
            TraceEvent::ProcessConverged {
                process: 0,
                moves: 1,
            },
            TraceEvent::ProcessFailed {
                process: 0,
                reason: "said \"no\"\nnewline\ttab \\ \u{1} π".into(),
            },
            TraceEvent::HeadElected {
                cell: (0, 0),
                node: NodeId::new(2),
            },
            TraceEvent::NodeRepositioned {
                node: NodeId::new(3),
                to: Point2::new(-1.5, 2e-300),
                distance: f64::MIN_POSITIVE,
            },
            TraceEvent::NetMessage {
                msg: "hole_announce".into(),
                from: (3, 3),
                to: (3, 2),
                deliver_at: Some(12),
            },
            TraceEvent::NetMessage {
                msg: "move_ack \"odd\"\n".into(),
                from: (u16::MAX, 1),
                to: (0, 0),
                deliver_at: None,
            },
        ]
    }

    fn log_of_each_kind() -> TraceLog {
        let mut log = TraceLog::new();
        for (i, e) in one_of_each_kind().into_iter().enumerate() {
            log.record(i as u64 * 1000, e);
        }
        log
    }

    #[test]
    fn json_lines_round_trip_every_kind() {
        let log = log_of_each_kind();
        let decoded = TraceLog::from_json_lines(&log.to_json_lines()).expect("parses");
        assert_eq!(decoded, log);
        // Second generation is textually identical (canonical form).
        assert_eq!(decoded.to_json_lines(), log.to_json_lines());
    }

    #[test]
    fn json_lines_parser_reports_line_and_reason() {
        let err = TraceLog::from_json_lines("{\"kind\":\"process_converged\",\"round\":0,\"process\":0,\"moves\":1}\n{\"kind\":\"nope\",\"round\":1}").unwrap_err();
        match err {
            TraceCodecError::Json { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("nope"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(TraceLog::from_json_lines("not json").is_err());
        assert!(TraceLog::from_json_lines("{\"kind\":\"head_elected\",\"round\":0}").is_err());
    }

    #[test]
    fn json_lines_parser_skips_blank_lines_and_ignores_key_order() {
        let parsed = TraceLog::from_json_lines(
            "\n{\"round\":3,\"moves\":2,\"process\":1,\"kind\":\"process_converged\"}\n\n",
        )
        .expect("parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed.records()[0].event,
            TraceEvent::ProcessConverged {
                process: 1,
                moves: 2
            }
        );
    }

    #[test]
    fn binary_round_trip_every_kind() {
        let log = log_of_each_kind();
        let bytes = log.to_binary();
        let decoded = TraceLog::from_binary(&bytes).expect("decodes");
        assert_eq!(decoded, log);
        // Canonical: re-encoding reproduces the exact bytes.
        assert_eq!(decoded.to_binary(), bytes);
        assert_eq!(&bytes[..4], b"WSNT");
    }

    #[test]
    fn binary_meta_block_round_trips() {
        let log = log_of_each_kind();
        let meta = vec![
            ("schema".to_string(), "wsn-replay/1".to_string()),
            ("grid".to_string(), "8x8".to_string()),
        ];
        let bytes = binary::encode(&meta, &log);
        let (meta2, log2) = binary::decode(&bytes).expect("decodes");
        assert_eq!(meta2, meta);
        assert_eq!(log2, log);
        // from_binary tolerates (and drops) the meta block.
        assert_eq!(TraceLog::from_binary(&bytes).expect("decodes"), log);
    }

    #[test]
    fn binary_preserves_the_enabled_flag() {
        let log = TraceLog::disabled();
        let decoded = TraceLog::from_binary(&log.to_binary()).expect("decodes");
        assert_eq!(decoded, log);
        assert!(!decoded.is_enabled());
    }

    #[test]
    fn binary_rejects_malformed_streams() {
        let log = log_of_each_kind();
        let bytes = log.to_binary();
        assert_eq!(
            TraceLog::from_binary(b"NOPE"),
            Err(TraceCodecError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            TraceLog::from_binary(&wrong_version),
            Err(TraceCodecError::BadVersion(99))
        );
        // Every strict prefix must be rejected, never mis-decoded.
        for cut in 0..bytes.len() {
            assert!(
                TraceLog::from_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            TraceLog::from_binary(&padded),
            Err(TraceCodecError::Truncated)
        );
        assert!(!TraceCodecError::BadVarint.to_string().is_empty());
        assert!(!TraceCodecError::BadUtf8.to_string().is_empty());
        assert!(!TraceCodecError::BadTag(42).to_string().is_empty());
    }

    #[test]
    fn json_lines_covers_every_event_kind() {
        let mut log = TraceLog::new();
        let events = vec![
            TraceEvent::NodeDisabled {
                node: NodeId::new(0),
                cell: (0, 0),
            },
            TraceEvent::VacancyDetected {
                cell: (1, 1),
                detector: (1, 0),
            },
            sample_event(),
            TraceEvent::NotificationSent {
                process: 0,
                from: (0, 0),
                to: (0, 1),
            },
            TraceEvent::NodeMoved {
                process: None,
                node: NodeId::new(1),
                from: (0, 0),
                to: (1, 0),
                distance: 1.0,
            },
            TraceEvent::ProcessConverged {
                process: 0,
                moves: 1,
            },
            TraceEvent::ProcessFailed {
                process: 0,
                reason: "x".into(),
            },
            TraceEvent::HeadElected {
                cell: (0, 0),
                node: NodeId::new(2),
            },
            TraceEvent::NodeRepositioned {
                node: NodeId::new(3),
                to: Point2::new(1.0, 2.0),
                distance: 2.0,
            },
            TraceEvent::NetMessage {
                msg: "monitor_probe".into(),
                from: (1, 0),
                to: (1, 1),
                deliver_at: None,
            },
        ];
        for (i, e) in events.into_iter().enumerate() {
            log.record(i as u64, e);
        }
        let jsonl = log.to_json_lines();
        assert_eq!(jsonl.lines().count(), 10);
        for kind in [
            "node_disabled",
            "vacancy_detected",
            "process_initiated",
            "notification_sent",
            "node_moved",
            "process_converged",
            "process_failed",
            "head_elected",
            "node_repositioned",
            "net_message",
        ] {
            assert!(jsonl.contains(&format!("\"kind\":\"{kind}\"")), "{kind}");
        }
    }
}
