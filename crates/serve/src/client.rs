//! A minimal blocking client for the daemon — just enough to submit
//! jobs, poll status, and subscribe to a stream.
//!
//! This exists so the serve benchmarks, the end-to-end tests, and the
//! CI smoke step all drive the daemon through the same front door (real
//! TCP, real HTTP, real WebSocket frames) instead of poking internals.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::base64;
use crate::ws::{accept_key, decode_frame, encode_frame, Frame, Opcode};

/// A parsed response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Reads an HTTP response head, returning `(status, headers)`.
fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("malformed status line: {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

/// Sends one request and reads the response.
///
/// # Errors
///
/// Connection or protocol failures.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    // One write: a daemon at its connection cap answers `503` and closes
    // without reading, so a request split over several writes could meet
    // a reset before its answer is read.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = String::new();
    match length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8(buf).map_err(|_| invalid("non-UTF-8 body".into()))?;
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok(Response { status, body })
}

/// An open WebSocket subscription: the upgraded connection and the
/// bytes read past the last whole frame.
pub struct Subscriber {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    inbuf: Vec<u8>,
}

impl Subscriber {
    /// Opens a WebSocket subscription to `path` and checks the server's
    /// `Sec-WebSocket-Accept`.
    ///
    /// # Errors
    ///
    /// Connection failures, a refused upgrade (its JSON body is in the
    /// message), or a wrong `Sec-WebSocket-Accept`.
    pub fn open(addr: &str, path: &str) -> io::Result<Subscriber> {
        // A fixed nonce is fine: the handshake hash is deterministic and
        // we verify the echo, which is all the key is for.
        let key = base64::encode(b"wsn-serve-client");
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let request = format!(
            "GET {path} HTTP/1.1\r\nhost: {addr}\r\nupgrade: websocket\r\nconnection: Upgrade\r\nsec-websocket-key: {key}\r\nsec-websocket-version: 13\r\n\r\n"
        );
        stream.write_all(request.as_bytes())?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let (status, headers) = read_head(&mut reader)?;
        if status != 101 {
            // The refusal body is JSON; surface it.
            let mut body = String::new();
            let _unused = reader.read_to_string(&mut body);
            return Err(invalid(format!("upgrade refused ({status}): {body}")));
        }
        let echoed = headers
            .iter()
            .find(|(k, _)| k == "sec-websocket-accept")
            .map(|(_, v)| v.as_str());
        if echoed != Some(accept_key(&key).as_str()) {
            return Err(invalid("bad sec-websocket-accept".into()));
        }
        Ok(Subscriber {
            stream,
            reader,
            inbuf: Vec::new(),
        })
    }

    /// The next frame the server sends, or `None` once it has closed
    /// the connection.
    ///
    /// # Errors
    ///
    /// Read failures and malformed server frames.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let mut chunk = [0u8; 4096];
        loop {
            match decode_frame(&self.inbuf) {
                Ok(Some((frame, used))) => {
                    self.inbuf.drain(..used);
                    return Ok(Some(frame));
                }
                Ok(None) => {}
                Err(e) => return Err(invalid(format!("bad server frame: {e}"))),
            }
            match self.reader.read(&mut chunk)? {
                0 => return Ok(None),
                n => self.inbuf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Sends one frame, masked as RFC 6455 requires of clients.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream
            .write_all(&encode_frame(frame, Some([0x13, 0x37, 0xab, 0xcd])))
    }
}

/// Opens a WebSocket subscription to `path` and collects every text
/// line until the server's close frame (or EOF). Pings are answered and
/// the close is mirrored.
///
/// # Errors
///
/// Connection failures, a refused upgrade, a wrong `Sec-WebSocket-Accept`,
/// or malformed server frames.
pub fn stream_lines(addr: &str, path: &str) -> io::Result<Vec<String>> {
    let mut subscriber = Subscriber::open(addr, path)?;
    let mut lines = Vec::new();
    while let Some(frame) = subscriber.next_frame()? {
        match frame.opcode {
            Opcode::Text => lines.push(
                String::from_utf8(frame.payload)
                    .map_err(|_| invalid("non-UTF-8 text frame".into()))?,
            ),
            Opcode::Close => {
                let _unused = subscriber.send(&frame);
                break;
            }
            Opcode::Ping => subscriber.send(&Frame {
                fin: true,
                opcode: Opcode::Pong,
                payload: frame.payload,
            })?,
            _ => {}
        }
    }
    Ok(lines)
}
