//! Minimal JSON emission and parsing (hand-rolled, like [`crate::csv`]
//! — the sweep results are flat numeric records, so a serializer
//! dependency would buy nothing, and the offline `serde` stand-in has
//! no `serde_json`).
//!
//! Construction is by value tree; [`JsonValue`]'s `Display` renders
//! RFC 8259-conformant text with escaped strings and finite numbers
//! (non-finite floats render as `null`, the interoperable convention).
//! [`write_escaped`] is the string escaper on its own, for writers that
//! emit a fixed-shape line without building a tree (the `served`
//! daemon's per-trial delta lines).
//!
//! [`JsonValue::parse`] is the inverse — a recursive-descent reader for
//! the artifacts this workspace itself writes: the perf ledger compares
//! fresh `BENCH_*.json` runs against checked-in baselines, and the
//! daemon reads its checkpoints and completed artifacts back on start.
//! Both directions run in time linear in the text: a string is scanned
//! and copied, or escaped and written, one unescaped run at a time.

use std::fmt::{self, Write as _};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders with a trailing newline — the shape result files want.
    pub fn to_file_string(&self) -> String {
        format!("{self}\n")
    }

    /// Parses RFC 8259 JSON text into a value tree.
    ///
    /// Supports everything this workspace's writers emit (and standard
    /// JSON generally): the five escape shorthands plus `\u` (including
    /// surrogate pairs), scientific-notation numbers, and nested
    /// containers up to [`JsonValue::MAX_PARSE_DEPTH`] levels — the
    /// explicit cap turns a `[[[[…` stack-overflow crash on adversarial
    /// input into an ordinary parse error. Numbers follow the strict RFC
    /// grammar: leading zeros (`01`), bare fractions (`.5`, `1.`), and
    /// empty exponents are rejected rather than passed to `f64::parse`'s
    /// looser rules. Object key order is preserved as read.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first violation —
    /// including trailing non-whitespace after the top-level value.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Maximum container nesting [`JsonValue::parse`] accepts. Every
    /// artifact this workspace writes nests a handful of levels; 128
    /// leaves two orders of magnitude of headroom while keeping the
    /// recursive-descent parser's stack usage bounded.
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// Object field lookup (`None` for absent keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the first offending character.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    /// The input; string runs are copied out of it as slices.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, checked against
    /// [`JsonValue::MAX_PARSE_DEPTH`] on every `[` / `{`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", JsonValue::Null),
            Some(b't') => self.expect_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.expect_literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
        }
    }

    /// Bumps the container depth on `[` / `{`, erroring past the cap.
    /// The matching decrement happens in the container's success path,
    /// so sibling containers at the same level do not accumulate.
    fn enter(&mut self) -> Result<(), JsonParseError> {
        if self.depth >= JsonValue::MAX_PARSE_DEPTH {
            return Err(self.err("containers nested deeper than the 128-level cap"));
        }
        self.depth += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.enter()?;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                self.depth -= 1;
                return Ok(JsonValue::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.enter()?;
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                self.depth -= 1;
                return Ok(JsonValue::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            continue; // hex4 already advanced past the escape
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one slice. Both ends sit on ASCII
                    // bytes (or the end of the input), so they are char
                    // boundaries of the `&str` the parse started from.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Consumes a non-empty digit run; errors with `what` when the next
    /// byte is not a digit.
    fn digits(&mut self, what: &str) -> Result<(), JsonParseError> {
        if !matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            return Err(self.err(what));
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        // Strict RFC 8259 grammar, enforced *before* f64::parse — Rust's
        // float parser accepts "01", "1.", and ".5", all of which JSON
        // forbids, and a lenient reader here would let a corrupted
        // artifact slip through the perf-ledger gate.
        let start = self.pos;
        self.eat(b'-');
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits("expected a digit")?;
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.eat(b'.') {
            self.digits("expected a digit after the decimal point")?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("bad number {text:?}"),
            })
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> JsonValue {
        JsonValue::Num(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Num(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> JsonValue {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Writes `s` as a JSON string literal: quoted, with the quote, the
/// backslash, newline, carriage return and tab escaped as `\"`, `\\`,
/// `\n`, `\r` and `\t`, and every other character below U+0020 as
/// `\u00XX` (lowercase hex). Everything else, multi-byte characters
/// included, passes through unescaped, one run per write.
///
/// This is how [`JsonValue::Str`] and object keys render; writers that
/// assemble a line by hand call it directly.
///
/// # Errors
///
/// Propagates `out`'s errors (a `String` never fails).
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let shorthand = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // A byte below 0x80 is a whole char, so `i` is a char boundary.
        out.write_str(&s[run..i])?;
        match shorthand {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest round-trip form; integers
                    // print without a fraction part, as JSON expects.
                    write!(f, "{n}")
                } else {
                    write!(f, "null")
                }
            }
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    fmt::Display::fmt(v, f)?;
                }
                f.write_char(']')
            }
            JsonValue::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(3u64).to_string(), "3");
        assert_eq!(JsonValue::from(2.5).to_string(), "2.5");
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_control_and_quote_characters() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_compose() {
        let v = JsonValue::obj([
            ("name", JsonValue::from("sweep")),
            ("targets", JsonValue::from(vec![10u64, 55])),
            ("nested", JsonValue::obj([("ok", JsonValue::from(true))])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"sweep","targets":[10,55],"nested":{"ok":true}}"#
        );
        assert!(v.to_file_string().ends_with('\n'));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::Arr(vec![]).to_string(), "[]");
        assert_eq!(JsonValue::Obj(vec![]).to_string(), "{}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = JsonValue::obj([
            ("name", JsonValue::from("bench \"perf\"\n")),
            ("targets", JsonValue::from(vec![10u64, 55])),
            ("min_ns", JsonValue::from(1234.5)),
            ("exp", JsonValue::from(2.5e-3)),
            ("neg", JsonValue::from(-7.0)),
            ("flag", JsonValue::from(true)),
            ("gap", JsonValue::Null),
            (
                "nested",
                JsonValue::Arr(vec![JsonValue::Obj(vec![]), JsonValue::Arr(vec![])]),
            ),
        ]);
        let parsed = JsonValue::parse(&v.to_file_string()).unwrap();
        assert_eq!(parsed, v);
        // Accessors walk the tree.
        assert_eq!(
            parsed.get("min_ns").and_then(JsonValue::as_f64),
            Some(1234.5)
        );
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some("bench \"perf\"\n")
        );
        assert_eq!(
            parsed
                .get("targets")
                .and_then(JsonValue::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(parsed.get("absent"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = JsonValue::parse(r#""a\u0041\n\t\/\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(parsed, JsonValue::from("aA\n\t/é 😀"));
        // Raw multi-byte UTF-8 passes through unescaped.
        assert_eq!(
            JsonValue::parse("\"héllo\"").unwrap(),
            JsonValue::from("héllo")
        );
    }

    #[test]
    fn parse_caps_nesting_depth_instead_of_overflowing() {
        // Well within the cap: fine both ways.
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&deep_ok).is_ok());
        // One past the cap: a parse error, not a stack overflow.
        let over = JsonValue::MAX_PARSE_DEPTH + 1;
        let arrs = format!("{}0{}", "[".repeat(over), "]".repeat(over));
        let err = JsonValue::parse(&arrs).unwrap_err();
        assert!(err.to_string().contains("128-level cap"), "{err}");
        // Adversarial megabyte-scale nesting (the classic crash input)
        // fails fast with the same error for arrays and objects alike.
        let bomb = "[".repeat(1_000_000);
        assert!(JsonValue::parse(&bomb).is_err());
        let objs = "{\"k\":".repeat(1_000_000);
        assert!(JsonValue::parse(&objs).is_err());
        // Depth is nesting, not sibling count: wide documents at shallow
        // depth parse fine (the success path releases each level).
        let wide = format!("[{}]", vec!["[0]"; 500].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn parse_enforces_strict_number_grammar() {
        // Leading zeros and bare fractions are RFC violations that
        // f64::parse would happily accept.
        for bad in [
            "01",
            "-01",
            "007",
            "01.5",
            "1.",
            "-3.",
            ".5",
            "-.5",
            "1e",
            "1e+",
            "2E-",
            "-",
            "--1",
            "[01]",
            "{\"a\":01}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // The strict grammar still admits everything JSON allows.
        for (ok, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("10", 10.0),
            ("0e10", 0.0),
            ("1e3", 1000.0),
            ("2.5E-2", 0.025),
            ("1e+2", 100.0),
        ] {
            assert_eq!(
                JsonValue::parse(ok).unwrap().as_f64(),
                Some(want),
                "{ok:?} should parse"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (text, what) in [
            ("", "end of input"),
            ("{\"a\":1,}", "string key"),
            ("[1,2", "',' or ']'"),
            ("{\"a\" 1}", "':'"),
            ("truth", "'true'"),
            ("\"abc", "unterminated"),
            ("\"\\q\"", "bad escape"),
            ("\"\\ud800x\"", "surrogate"),
            ("1 2", "trailing"),
            ("@", "expected a JSON value"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(err.to_string().contains(what), "{text:?}: {err}");
        }
    }
}
