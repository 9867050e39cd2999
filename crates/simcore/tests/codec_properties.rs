//! Property tests for the binary trace codec: it must round-trip
//! arbitrary event sequences byte-identically in both directions
//! (decode∘encode is the identity on logs, encode∘decode is the identity
//! on accepted byte streams).

use proptest::prelude::*;
use wsn_simcore::trace::{binary, TraceLog};
use wsn_simcore::{NodeId, Round, TraceEvent};

/// Failure reasons with quotes, control characters and multi-byte
/// UTF-8.
const REASONS: [&str; 7] = [
    "",
    "no spare",
    "said \"no\"",
    "line\nbreak and\r return",
    "tab\there",
    "π ∈ ℝ, 🛰",
    "back\\slash \u{1} control",
];

fn event() -> impl Strategy<Value = TraceEvent> {
    (
        (0u8..10, 0u64..u64::MAX, 0u32..u32::MAX),
        (0u16..u16::MAX, 0u16..u16::MAX),
        (0u16..u16::MAX, 0u16..u16::MAX),
        (-1e9..1e9f64, -1e9..1e9f64),
        &REASONS,
    )
        .prop_map(|((tag, n, node), c1, c2, (d1, d2), reason)| match tag {
            0 => TraceEvent::NodeDisabled {
                node: NodeId::new(node),
                cell: c1,
            },
            1 => TraceEvent::VacancyDetected {
                cell: c1,
                detector: c2,
            },
            2 => TraceEvent::ProcessInitiated {
                process: n,
                hole: c1,
                initiator: c2,
            },
            3 => TraceEvent::NotificationSent {
                process: n,
                from: c1,
                to: c2,
            },
            4 => TraceEvent::NodeMoved {
                process: (n % 2 == 0).then_some(n),
                node: NodeId::new(node),
                from: c1,
                to: c2,
                distance: d1,
            },
            5 => TraceEvent::ProcessConverged {
                process: n,
                moves: n.rotate_left(13),
            },
            6 => TraceEvent::ProcessFailed {
                process: n,
                reason: reason.to_string(),
            },
            7 => TraceEvent::HeadElected {
                cell: c1,
                node: NodeId::new(node),
            },
            8 => TraceEvent::NodeRepositioned {
                node: NodeId::new(node),
                to: wsn_geometry::Point2::new(d1, d2),
                distance: d1.abs(),
            },
            _ => TraceEvent::NetMessage {
                msg: reason.to_string(),
                from: c1,
                to: c2,
                deliver_at: (n % 2 == 0).then_some(n),
            },
        })
}

fn log() -> impl Strategy<Value = TraceLog> {
    prop::collection::vec((0u64..1_000_000, event()), 0..40).prop_map(|records| {
        let mut log = TraceLog::new();
        for (round, event) in records {
            log.record(round as Round, event);
        }
        log
    })
}

fn meta() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        (
            &["schema", "scheme", "grid", "trial", "fault_plan"][..],
            &REASONS,
        ),
        0..5,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    })
}

proptest! {
    #[test]
    fn binary_decode_inverts_encode(log in log()) {
        let bytes = log.to_binary();
        let decoded = TraceLog::from_binary(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &log);
        // Byte-identical in the other direction: re-encoding the decoded
        // log reproduces the exact stream (the encoding is canonical).
        prop_assert_eq!(decoded.to_binary(), bytes);
    }

    #[test]
    fn binary_meta_round_trips(log in log(), meta in meta()) {
        let bytes = binary::encode(&meta, &log);
        let (meta2, log2) = binary::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&meta2, &meta);
        prop_assert_eq!(&log2, &log);
        prop_assert_eq!(binary::encode(&meta2, &log2), bytes);
    }

    #[test]
    fn corrupt_binary_never_panics(log in log(), cut in 0usize..64, flip in 0usize..64) {
        let mut bytes = log.to_binary();
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] ^= 0x55;
            let _ = TraceLog::from_binary(&bytes); // must not panic
            let prefix = &bytes[..cut.min(bytes.len())];
            let _ = TraceLog::from_binary(prefix); // must not panic
        }
    }
}
