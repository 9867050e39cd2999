//! A minimal HTTP/1.1 server codec over `std::io` — just enough for
//! the daemon's five routes and the WebSocket upgrade.
//!
//! Scope is deliberate: requests are read with a bounded header block
//! and a `Content-Length` body (no chunked encoding, no pipelining —
//! each connection serves one request, or upgrades), responses always
//! carry `Content-Length` and `Connection: close`. Everything the
//! daemon speaks is JSON, so the helpers bake that in.

use std::io::{self, BufRead, Write};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body — a campaign config is kilobytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether this request asks for a WebSocket upgrade (RFC 6455
    /// §4.2.1: `Upgrade: websocket` + `Connection: … upgrade …`).
    pub fn wants_websocket(&self) -> bool {
        let upgrade = self
            .header("upgrade")
            .is_some_and(|v| v.eq_ignore_ascii_case("websocket"));
        let connection = self.header("connection").is_some_and(|v| {
            v.split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("upgrade"))
        });
        upgrade && connection
    }
}

/// Reads one request from `reader`. Returns `Ok(None)` on a cleanly
/// closed connection (EOF before any byte).
///
/// # Errors
///
/// `InvalidData` on malformed request lines/headers or oversized
/// head/body; other `io::Error`s propagate from the reader.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_owned());
    let mut line = String::new();
    if read_crlf_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_owned(), t.to_owned(), v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        line.clear();
        let n = read_crlf_line(reader, &mut line)?;
        if n == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| bad("unparsable content-length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body)?;
    let path = target
        .split_once('?')
        .map_or(target.as_str(), |(p, _)| p)
        .to_owned();
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Reads one CRLF-terminated line into `out` (terminator stripped),
/// returning raw bytes consumed (0 at EOF). Tolerates bare LF.
fn read_crlf_line(reader: &mut impl BufRead, out: &mut String) -> io::Result<usize> {
    let mut buf = Vec::new();
    let mut n = 0;
    loop {
        let mut byte = [0u8; 1];
        match io::Read::read(reader, &mut byte)? {
            0 => break,
            _ => {
                n += 1;
                if byte[0] == b'\n' {
                    break;
                }
                if n > MAX_HEAD_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "header line too long",
                    ));
                }
                buf.push(byte[0]);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    out.push_str(
        std::str::from_utf8(&buf)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 header"))?,
    );
    Ok(n)
}

/// Reason phrases for the statuses the daemon uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        101 => "Switching Protocols",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a body, head and body in one
/// write.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body);
    w.write_all(&response)?;
    w.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_json(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_response(w, status, "application/json", body.as_bytes())
}

/// Writes the 101 upgrade response of a successful WebSocket handshake.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_upgrade(w: &mut impl Write, accept: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 101 Switching Protocols\r\nupgrade: websocket\r\nconnection: Upgrade\r\nsec-websocket-accept: {accept}\r\n\r\n"
    );
    w.write_all(response.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(text: &str) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_yield_ok_or_err_never_a_panic(raw in bytes()) {
            // Either outcome is fine; a panic fails the case.
            let _ = read_request(&mut BufReader::new(raw.as_slice()));
            let mut after_line = b"POST /jobs?x=1 HTTP/1.1\r\n".to_vec();
            after_line.extend_from_slice(&raw);
            let _ = read_request(&mut BufReader::new(after_line.as_slice()));
        }

        #[test]
        fn oversized_content_length_is_refused_before_the_body_is_allocated(
            small in 1u64..4096, huge in 1u64..u64::MAX - MAX_BODY_BYTES as u64,
        ) {
            for excess in [small, huge] {
                let len = MAX_BODY_BYTES as u64 + excess;
                // No body follows the head: reading one would end in
                // `UnexpectedEof`, and allocating `len` bytes would fail,
                // so only a check made before both gives this error.
                let err = parse(&format!("PUT /x HTTP/1.1\r\ncontent-length: {len}\r\n\r\n"))
                    .unwrap_err();
                prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                prop_assert_eq!(err.to_string(), "request body too large");
            }
        }
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let req = parse("POST /jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_close() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn detects_websocket_upgrades() {
        let req = parse(
            "GET /jobs/job-1/stream HTTP/1.1\r\nUpgrade: WebSocket\r\nConnection: keep-alive, Upgrade\r\nSec-WebSocket-Key: abc\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert!(req.wants_websocket());
        let plain = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!plain.wants_websocket());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "GET\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
