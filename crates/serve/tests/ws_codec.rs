//! RFC 6455 frame-codec edge cases: masking, extended lengths,
//! fragmentation, close codes, and the `decode ∘ encode` identity.

use proptest::prelude::*;
use wsn_serve::ws::{
    accept_key, decode_frame, encode_frame, encode_frame_into, Frame, Message, MessageAssembler,
    Opcode, WsError,
};

#[test]
fn rfc_handshake_vector() {
    // RFC 6455 §1.3's worked example.
    assert_eq!(
        accept_key("dGhlIHNhbXBsZSBub25jZQ=="),
        "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    );
    // Keys are taken verbatim (trimmed, never base64-decoded).
    assert_eq!(
        accept_key("  dGhlIHNhbXBsZSBub25jZQ==  "),
        "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    );
}

#[test]
fn masked_client_payloads_unmask() {
    let frame = Frame::text("hello stream");
    let wire = encode_frame(&frame, Some([0xde, 0xad, 0xbe, 0xef]));
    // The masked wire bytes must not contain the plaintext.
    let windows = wire.windows(5).any(|w| w == b"hello");
    assert!(!windows, "masked payload leaked plaintext");
    let (decoded, used) = decode_frame(&wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(decoded, frame);
}

#[test]
fn rfc_masked_hello_vector() {
    // RFC 6455 §5.7: a masked "Hello" with key 0x37fa213d.
    let wire = [
        0x81, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58,
    ];
    let (frame, used) = decode_frame(&wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(frame, Frame::text("Hello"));
}

#[test]
fn a_batch_buffer_holds_each_frame_as_encode_frame_writes_it() {
    // The daemon's stream batches: frames appended to one buffer are
    // the concatenation of their single encodings, and decode in order.
    let frames = [
        Frame::text("{\"event\":\"job_started\"}"),
        Frame::text("x".repeat(300)),
        Frame::close(1000, "stream complete"),
    ];
    let mut batch = b"kept".to_vec();
    for frame in &frames {
        encode_frame_into(&mut batch, frame.fin, frame.opcode, &frame.payload, None);
    }
    let mut want = b"kept".to_vec();
    for frame in &frames {
        want.extend_from_slice(&encode_frame(frame, None));
    }
    assert_eq!(batch, want);
    let mut at = 4;
    for frame in &frames {
        let (decoded, used) = decode_frame(&batch[at..]).unwrap().unwrap();
        assert_eq!(&decoded, frame);
        at += used;
    }
    assert_eq!(at, batch.len());
}

#[test]
fn extended_lengths_use_minimal_encodings() {
    // Boundary payloads: 125 → 7-bit, 126 → 16-bit, 65535 → 16-bit,
    // 65536 → 64-bit.
    for (len, header) in [(125usize, 2usize), (126, 4), (65535, 4), (65536, 10)] {
        let frame = Frame {
            fin: true,
            opcode: Opcode::Binary,
            payload: vec![0xab; len],
        };
        let wire = encode_frame(&frame, None);
        assert_eq!(wire.len(), header + len, "payload {len}");
        let (decoded, used) = decode_frame(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(decoded.payload.len(), len);
    }
}

#[test]
fn non_minimal_lengths_are_rejected() {
    // 16-bit extended length holding 5 (fits in 7 bits).
    let wire = [0x82, 126, 0x00, 0x05, 1, 2, 3, 4, 5];
    assert!(matches!(decode_frame(&wire), Err(WsError::Protocol(_))));
    // 64-bit extended length holding 200 (fits in 16 bits).
    let mut wire = vec![0x82, 127];
    wire.extend_from_slice(&200u64.to_be_bytes());
    wire.extend_from_slice(&[0u8; 200]);
    assert!(matches!(decode_frame(&wire), Err(WsError::Protocol(_))));
    // 64-bit length with the MSB set (RFC 6455 §5.2).
    let mut wire = vec![0x82, 127];
    wire.extend_from_slice(&(1u64 << 63 | 70_000).to_be_bytes());
    assert!(matches!(decode_frame(&wire), Err(WsError::Protocol(_))));
}

#[test]
fn hostile_length_prefixes_do_not_allocate() {
    // Claims an 8 EiB payload; must fail fast, not reserve memory.
    let mut wire = vec![0x82, 127];
    wire.extend_from_slice(&(1u64 << 62).to_be_bytes());
    assert!(matches!(decode_frame(&wire), Err(WsError::TooLarge(_))));
}

#[test]
fn incomplete_prefixes_ask_for_more_bytes() {
    let frame = Frame::text("partial delivery");
    let wire = encode_frame(&frame, Some([9, 8, 7, 6]));
    // Every strict prefix decodes to "need more", never an error.
    for cut in 0..wire.len() {
        assert_eq!(decode_frame(&wire[..cut]).unwrap(), None, "cut at {cut}");
    }
    assert!(decode_frame(&wire).unwrap().is_some());
}

#[test]
fn reserved_bits_and_opcodes_are_rejected() {
    for b0 in [0xC1u8, 0xA1, 0x91] {
        // RSV1-3
        assert!(matches!(
            decode_frame(&[b0, 0x00]),
            Err(WsError::Protocol(_))
        ));
    }
    for opcode in [0x3u8, 0x7, 0xB, 0xF] {
        // reserved opcodes
        assert!(matches!(
            decode_frame(&[0x80 | opcode, 0x00]),
            Err(WsError::Protocol(_))
        ));
    }
}

#[test]
fn control_frames_may_not_fragment_or_exceed_125_bytes() {
    // Ping with fin=0.
    assert!(matches!(
        decode_frame(&[0x09, 0x00]),
        Err(WsError::Protocol(_))
    ));
    // Close with a 16-bit length (>125 is illegal even when complete).
    let mut wire = vec![0x88, 126, 0x00, 0x80];
    wire.extend_from_slice(&[0u8; 128]);
    assert!(matches!(decode_frame(&wire), Err(WsError::Protocol(_))));
}

#[test]
fn close_codes_round_trip() {
    for (code, reason) in [
        (1000u16, "stream complete"),
        (1001, "server shutting down"),
        (1002, ""),
        (4999, "app-specific"),
    ] {
        let frame = Frame::close(code, reason);
        let wire = encode_frame(&frame, None);
        let (decoded, _) = decode_frame(&wire).unwrap().unwrap();
        assert_eq!(decoded.close_code(), Some((code, reason.to_owned())));
    }
    // An empty close payload carries no code.
    let empty = Frame {
        fin: true,
        opcode: Opcode::Close,
        payload: Vec::new(),
    };
    assert_eq!(empty.close_code(), None);
}

#[test]
fn fragmented_messages_reassemble_with_interleaved_control() {
    let mut assembler = MessageAssembler::new();
    let first = Frame {
        fin: false,
        opcode: Opcode::Text,
        payload: b"wsn-".to_vec(),
    };
    assert_eq!(assembler.push(first).unwrap(), None);
    // A ping between fragments is legal and surfaces immediately.
    let ping = Frame {
        fin: true,
        opcode: Opcode::Ping,
        payload: b"hb".to_vec(),
    };
    assert_eq!(
        assembler.push(ping).unwrap(),
        Some(Message::Ping(b"hb".to_vec()))
    );
    let middle = Frame {
        fin: false,
        opcode: Opcode::Continuation,
        payload: b"serve".to_vec(),
    };
    assert_eq!(assembler.push(middle).unwrap(), None);
    let last = Frame {
        fin: true,
        opcode: Opcode::Continuation,
        payload: b"/1".to_vec(),
    };
    assert_eq!(
        assembler.push(last).unwrap(),
        Some(Message::Text("wsn-serve/1".to_owned()))
    );
}

#[test]
fn assembler_rejects_protocol_violations() {
    // A data frame while a fragmented message is open.
    let mut assembler = MessageAssembler::new();
    let open = Frame {
        fin: false,
        opcode: Opcode::Binary,
        payload: vec![1],
    };
    assembler.push(open).unwrap();
    assert!(assembler.push(Frame::text("interleaved")).is_err());
    // An orphan continuation with nothing open.
    let mut fresh = MessageAssembler::new();
    let orphan = Frame {
        fin: true,
        opcode: Opcode::Continuation,
        payload: vec![2],
    };
    assert!(fresh.push(orphan).is_err());
    // Fragments assembling to invalid UTF-8 text.
    let mut utf8 = MessageAssembler::new();
    let bad_start = Frame {
        fin: false,
        opcode: Opcode::Text,
        payload: vec![0xE2, 0x82], // truncated '€'
    };
    utf8.push(bad_start).unwrap();
    let bad_end = Frame {
        fin: true,
        opcode: Opcode::Continuation,
        payload: vec![0xFF],
    };
    assert!(utf8.push(bad_end).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `decode ∘ encode` is the identity for every frame shape the
    /// codec can produce, masked or not, at every length class.
    #[test]
    fn decode_encode_identity(
        raw_payload in proptest::collection::vec(0u16..256, 0..300),
        opcode_pick in 0usize..3,
        fin_pick in 0u8..2,
        mask_pick in 0u8..2,
        raw_key in proptest::collection::vec(0u16..256, 4..5),
        stretch in 0usize..3,
    ) {
        let opcode = [Opcode::Text, Opcode::Binary, Opcode::Continuation][opcode_pick];
        let fin = fin_pick == 1;
        // Stretch some cases into the 16-bit length class so the
        // extended encodings see random payloads too.
        let mut payload: Vec<u8> = raw_payload.iter().map(|&b| b as u8).collect();
        if stretch == 2 {
            let extra = payload.len() * 300 + 126;
            payload.resize(extra.min(70_000), 0x5a);
        }
        let frame = Frame { fin, opcode, payload };
        let mask = (mask_pick == 1)
            .then(|| [raw_key[0] as u8, raw_key[1] as u8, raw_key[2] as u8, raw_key[3] as u8]);
        let wire = encode_frame(&frame, mask);
        let (decoded, used) = decode_frame(&wire).unwrap().expect("complete frame");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(decoded, frame);
        // Trailing bytes after the frame are untouched.
        let mut padded = wire;
        padded.extend_from_slice(b"tail");
        let (_, used_padded) = decode_frame(&padded).unwrap().expect("complete frame");
        prop_assert_eq!(used_padded, used);
    }
}
