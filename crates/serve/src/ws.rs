//! RFC 6455 WebSocket server half: opening-handshake accept key and the
//! frame codec.
//!
//! The codec is deliberately split from the socket: [`encode_frame`]
//! and [`decode_frame`] work on byte buffers, so the edge cases the RFC
//! cares about — masked client payloads, 16-bit and 64-bit extended
//! lengths, fragmentation, close-code round-trips — are all testable
//! without a TCP connection (see the crate's `ws_codec` test suite).
//! The server glues the codec to sockets in [`crate::server`].

use std::fmt;

use crate::{base64, sha1};

/// The protocol GUID every accept key mixes in (RFC 6455 §1.3).
pub const WS_GUID: &str = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";

/// Computes `Sec-WebSocket-Accept` for a client's `Sec-WebSocket-Key`
/// (RFC 6455 §4.2.2 step 5.4): `base64(SHA1(key ++ GUID))`, the key
/// taken verbatim — never decoded.
pub fn accept_key(client_key: &str) -> String {
    let mut input = client_key.trim().as_bytes().to_vec();
    input.extend_from_slice(WS_GUID.as_bytes());
    base64::encode(&sha1::sha1(&input))
}

/// Frame opcodes (RFC 6455 §5.2). Reserved opcodes are decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Continuation of a fragmented message.
    Continuation,
    /// UTF-8 text message (the only data opcode the daemon sends).
    Text,
    /// Binary message.
    Binary,
    /// Connection close.
    Close,
    /// Ping (must be answered with a pong carrying the same payload).
    Ping,
    /// Pong.
    Pong,
}

impl Opcode {
    fn from_bits(bits: u8) -> Option<Opcode> {
        Some(match bits {
            0x0 => Opcode::Continuation,
            0x1 => Opcode::Text,
            0x2 => Opcode::Binary,
            0x8 => Opcode::Close,
            0x9 => Opcode::Ping,
            0xA => Opcode::Pong,
            _ => return None,
        })
    }

    fn bits(self) -> u8 {
        match self {
            Opcode::Continuation => 0x0,
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xA,
        }
    }

    /// Control frames may not fragment and cap payloads at 125 bytes.
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Close | Opcode::Ping | Opcode::Pong)
    }
}

/// One decoded frame: header flags plus the unmasked payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Final fragment of its message.
    pub fin: bool,
    /// The frame's opcode.
    pub opcode: Opcode,
    /// Unmasked payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A final text frame — the shape of every stream line the daemon
    /// sends.
    pub fn text(payload: impl Into<String>) -> Frame {
        Frame {
            fin: true,
            opcode: Opcode::Text,
            payload: payload.into().into_bytes(),
        }
    }

    /// A close frame carrying `code` and a UTF-8 `reason`
    /// (RFC 6455 §5.5.1).
    pub fn close(code: u16, reason: &str) -> Frame {
        let mut payload = code.to_be_bytes().to_vec();
        payload.extend_from_slice(reason.as_bytes());
        Frame {
            fin: true,
            opcode: Opcode::Close,
            payload,
        }
    }

    /// Parses a close frame's `(code, reason)`. An empty payload means
    /// "no code" (RFC maps it to 1005 semantics at a higher layer);
    /// here it reads back as `None`.
    pub fn close_code(&self) -> Option<(u16, String)> {
        if self.payload.len() < 2 {
            return None;
        }
        let code = u16::from_be_bytes([self.payload[0], self.payload[1]]);
        let reason = String::from_utf8_lossy(&self.payload[2..]).into_owned();
        Some((code, reason))
    }
}

/// Frame-codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsError {
    /// Reserved bits or opcodes, oversized/fragmented control frames,
    /// or non-minimal extended lengths.
    Protocol(String),
    /// A frame longer than the receiver's hard cap (a malicious length
    /// prefix must not allocate 2^63 bytes).
    TooLarge(u64),
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::Protocol(why) => write!(f, "websocket protocol error: {why}"),
            WsError::TooLarge(n) => write!(f, "websocket frame of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for WsError {}

/// Hard cap on accepted payload length. Campaign configs and stream
/// lines are kilobytes; anything beyond this is hostile or broken.
pub const MAX_FRAME_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Encodes one frame. `mask` is `Some` for client→server frames (the
/// RFC requires clients to mask and servers not to); the daemon always
/// passes `None`, the test client a key.
pub fn encode_frame(frame: &Frame, mask: Option<[u8; 4]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.payload.len() + 14);
    encode_frame_into(&mut out, frame.fin, frame.opcode, &frame.payload, mask);
    out
}

/// Appends one frame — header, then the (masked) payload — to `out`,
/// byte for byte what [`encode_frame`] returns for the same parts. The
/// daemon batches a stream's frames this way into one buffer, so a
/// batch costs one socket write and no per-line `Frame` copy.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    fin: bool,
    opcode: Opcode,
    payload: &[u8],
    mask: Option<[u8; 4]>,
) {
    let len = payload.len() as u64;
    out.push(u8::from(fin) << 7 | opcode.bits());
    let mask_bit = u8::from(mask.is_some()) << 7;
    // Minimal length encoding: 7-bit, then 16-bit, then 64-bit.
    if len < 126 {
        out.push(mask_bit | len as u8);
    } else if len <= u64::from(u16::MAX) {
        out.push(mask_bit | 126);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.push(mask_bit | 127);
        out.extend_from_slice(&len.to_be_bytes());
    }
    match mask {
        Some(key) => {
            out.extend_from_slice(&key);
            out.extend(payload.iter().enumerate().map(|(i, &b)| b ^ key[i % 4]));
        }
        None => out.extend_from_slice(payload),
    }
}

/// Decodes one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a frame prefix (read more
/// bytes and retry), `Ok(Some((frame, consumed)))` on success.
///
/// # Errors
///
/// [`WsError::Protocol`] for reserved bits/opcodes, fragmented or
/// oversized control frames, and non-minimal extended lengths;
/// [`WsError::TooLarge`] beyond [`MAX_FRAME_PAYLOAD`].
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WsError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let b0 = buf[0];
    let b1 = buf[1];
    if b0 & 0x70 != 0 {
        return Err(WsError::Protocol(
            "reserved bits set without a negotiated extension".into(),
        ));
    }
    let fin = b0 & 0x80 != 0;
    let opcode = Opcode::from_bits(b0 & 0x0f)
        .ok_or_else(|| WsError::Protocol(format!("reserved opcode 0x{:x}", b0 & 0x0f)))?;
    let masked = b1 & 0x80 != 0;
    let short_len = u64::from(b1 & 0x7f);
    let mut at = 2usize;
    let len = match short_len {
        126 => {
            if buf.len() < at + 2 {
                return Ok(None);
            }
            let n = u64::from(u16::from_be_bytes([buf[at], buf[at + 1]]));
            at += 2;
            if n < 126 {
                return Err(WsError::Protocol(format!("non-minimal 16-bit length {n}")));
            }
            n
        }
        127 => {
            if buf.len() < at + 8 {
                return Ok(None);
            }
            let mut eight = [0u8; 8];
            eight.copy_from_slice(&buf[at..at + 8]);
            at += 8;
            let n = u64::from_be_bytes(eight);
            if n <= u64::from(u16::MAX) {
                return Err(WsError::Protocol(format!("non-minimal 64-bit length {n}")));
            }
            if n & (1 << 63) != 0 {
                return Err(WsError::Protocol("64-bit length with MSB set".into()));
            }
            n
        }
        n => n,
    };
    if opcode.is_control() {
        if !fin {
            return Err(WsError::Protocol("fragmented control frame".into()));
        }
        if len > 125 {
            return Err(WsError::Protocol(format!(
                "control frame payload of {len} bytes (cap 125)"
            )));
        }
    }
    if len > MAX_FRAME_PAYLOAD {
        return Err(WsError::TooLarge(len));
    }
    let key = if masked {
        if buf.len() < at + 4 {
            return Ok(None);
        }
        let key = [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
        at += 4;
        Some(key)
    } else {
        None
    };
    let len = len as usize;
    if buf.len() < at + len {
        return Ok(None);
    }
    let mut payload = buf[at..at + len].to_vec();
    if let Some(key) = key {
        for (i, b) in payload.iter_mut().enumerate() {
            *b ^= key[i % 4];
        }
    }
    Ok(Some((
        Frame {
            fin,
            opcode,
            payload,
        },
        at + len,
    )))
}

/// A complete data message assembled from frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Text message (UTF-8 validated).
    Text(String),
    /// Binary message.
    Binary(Vec<u8>),
    /// The peer closed; payload per [`Frame::close_code`].
    Close(Option<(u16, String)>),
    /// Ping — respond with [`Frame`]`{opcode: Pong, ..}` echoing the
    /// payload.
    Ping(Vec<u8>),
    /// Pong (unsolicited pongs are legal and ignorable).
    Pong(Vec<u8>),
}

/// Incremental message assembler: feed decoded frames, get complete
/// messages. Handles fragmentation (a text/binary frame with
/// `fin=false` followed by continuations) with control frames legally
/// interleaved between fragments.
#[derive(Debug, Default)]
pub struct MessageAssembler {
    fragments: Vec<u8>,
    fragment_opcode: Option<Opcode>,
}

impl MessageAssembler {
    /// A fresh assembler with no partial message.
    pub fn new() -> MessageAssembler {
        MessageAssembler::default()
    }

    /// Feeds one frame; returns a message when one completes.
    ///
    /// # Errors
    ///
    /// [`WsError::Protocol`] on interleaved data messages, orphan
    /// continuations, invalid UTF-8 in a text message, or an assembled
    /// message over [`MAX_FRAME_PAYLOAD`].
    pub fn push(&mut self, frame: Frame) -> Result<Option<Message>, WsError> {
        match frame.opcode {
            Opcode::Close => return Ok(Some(Message::Close(frame.close_code()))),
            Opcode::Ping => return Ok(Some(Message::Ping(frame.payload))),
            Opcode::Pong => return Ok(Some(Message::Pong(frame.payload))),
            Opcode::Text | Opcode::Binary => {
                if self.fragment_opcode.is_some() {
                    return Err(WsError::Protocol(
                        "new data message before the previous one finished".into(),
                    ));
                }
                if frame.fin {
                    return Self::complete(frame.opcode, frame.payload);
                }
                self.fragment_opcode = Some(frame.opcode);
                self.fragments = frame.payload;
            }
            Opcode::Continuation => {
                let opcode = self.fragment_opcode.ok_or_else(|| {
                    WsError::Protocol("continuation frame with no message in progress".into())
                })?;
                self.fragments.extend_from_slice(&frame.payload);
                if self.fragments.len() as u64 > MAX_FRAME_PAYLOAD {
                    return Err(WsError::TooLarge(self.fragments.len() as u64));
                }
                if frame.fin {
                    self.fragment_opcode = None;
                    let payload = std::mem::take(&mut self.fragments);
                    return Self::complete(opcode, payload);
                }
            }
        }
        Ok(None)
    }

    fn complete(opcode: Opcode, payload: Vec<u8>) -> Result<Option<Message>, WsError> {
        Ok(Some(match opcode {
            Opcode::Text => Message::Text(
                String::from_utf8(payload)
                    .map_err(|_| WsError::Protocol("text message is not UTF-8".into()))?,
            ),
            Opcode::Binary => Message::Binary(payload),
            _ => unreachable!("only data opcodes reach complete()"),
        }))
    }
}
