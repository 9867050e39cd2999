//! The stream's read path and its batches: what a subscriber's own
//! frames get back mid-stream, a replay longer than one batch, and the
//! log wait that paces the batches.
//!
//! The shutdown flag is process-wide, so the shutdown case lives in its
//! own binary (`stream_shutdown`).

mod common;

use std::time::{Duration, Instant};

use wsn_bench::campaign::CampaignConfig;
use wsn_coverage::SchemeId;
use wsn_serve::client::{self, Subscriber};
use wsn_serve::ws::{Frame, Opcode};
use wsn_serve::StreamLog;

use common::{endless, submit, temp_state, Daemon};

/// How long a test waits for an answer while the job streams on: the
/// endless job never runs dry, so a missing answer would otherwise
/// keep a test reading forever.
const DEADLINE: Duration = Duration::from_secs(60);

fn cancel(addr: &str, id: &str) {
    let response = client::request(addr, "DELETE", &format!("/jobs/{id}"), None).expect("cancel");
    assert_eq!(response.status, 200, "{}", response.body);
}

/// Asserts two line sequences are equal, naming the first difference
/// rather than printing thousands of lines.
fn assert_same_lines(seen: &[String], replay: &[String]) {
    if let Some(i) = (0..seen.len().min(replay.len())).find(|&i| seen[i] != replay[i]) {
        panic!("line {i} differs: {:?} vs {:?}", seen[i], replay[i]);
    }
    assert_eq!(seen.len(), replay.len(), "line counts differ");
}

fn text(frame: Frame) -> String {
    String::from_utf8(frame.payload).expect("text frames are UTF-8")
}

/// Reads text frames into `lines` until the first delta: the job is
/// running and its log still open.
fn read_to_first_delta(subscriber: &mut Subscriber, lines: &mut Vec<String>) {
    while !lines
        .last()
        .is_some_and(|l| l.contains("\"event\":\"delta\""))
    {
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open before the first delta");
        assert_eq!(
            frame.opcode,
            Opcode::Text,
            "{frame:?} before the first delta"
        );
        lines.push(text(frame));
    }
}

#[test]
fn a_ping_mid_stream_gets_its_pong_and_the_stream_loses_no_line() {
    let state = temp_state("stream-ping");
    let daemon = Daemon::start(&state, 0);
    let addr = daemon.addr.as_str();
    let id = submit(addr, &endless());
    let path = format!("/jobs/{id}/stream");
    let mut subscriber = Subscriber::open(addr, &path).expect("subscribe");
    let mut lines = Vec::new();
    read_to_first_delta(&mut subscriber, &mut lines);
    let ping = Frame {
        fin: true,
        opcode: Opcode::Ping,
        payload: b"still there?".to_vec(),
    };
    subscriber.send(&ping).expect("ping sent");
    // The pong arrives among the job's lines, while the log is open.
    let t0 = Instant::now();
    loop {
        assert!(t0.elapsed() < DEADLINE, "no pong");
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open until the pong");
        match frame.opcode {
            Opcode::Text => lines.push(text(frame)),
            Opcode::Pong => {
                assert_eq!(frame.payload, ping.payload);
                break;
            }
            other => panic!("{other:?} frame before the pong"),
        }
    }
    cancel(addr, &id);
    let close = loop {
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open until its close frame");
        match frame.opcode {
            Opcode::Text => lines.push(text(frame)),
            _ => break frame,
        }
    };
    assert_eq!(
        close.close_code(),
        Some((1000, "stream complete".to_owned()))
    );
    assert!(lines.last().is_some_and(|l| l.contains("job_cancelled")));
    // Every line of the closed log, in order: what a replay reads.
    let replay = client::stream_lines(addr, &path).expect("replay the closed log");
    assert_same_lines(&lines, &replay);
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn a_close_mid_stream_is_mirrored_and_ends_the_connection() {
    let state = temp_state("stream-close");
    let daemon = Daemon::start(&state, 0);
    let addr = daemon.addr.as_str();
    let id = submit(addr, &endless());
    let mut subscriber = Subscriber::open(addr, &format!("/jobs/{id}/stream")).expect("subscribe");
    read_to_first_delta(&mut subscriber, &mut Vec::new());
    let close = Frame::close(4000, "enough");
    subscriber.send(&close).expect("close sent");
    // Batches already on their way may precede the mirrored close.
    let t0 = Instant::now();
    let reply = loop {
        assert!(t0.elapsed() < DEADLINE, "no mirrored close");
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open until the mirrored close");
        if frame.opcode != Opcode::Text {
            break frame;
        }
    };
    assert_eq!(reply, close);
    assert_eq!(
        subscriber.next_frame().expect("clean end of stream"),
        None,
        "the server kept the connection open after the close"
    );
    cancel(addr, &id);
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn a_replay_longer_than_one_batch_arrives_whole_and_in_order() {
    // More lines than one batch carries (4,096), so the replay of the
    // closed log crosses batch boundaries before its close frame.
    let cfg = CampaignConfig {
        name: "stream-replay".into(),
        schemes: SchemeId::list(&["sr"]),
        grids: vec![(8, 8)],
        targets: vec![10],
        seeds_per_cell: 5_000,
        ..CampaignConfig::paper()
    };
    let state = temp_state("stream-replay");
    let daemon = Daemon::start(&state, 0);
    let path = format!("/jobs/{}/stream", submit(&daemon.addr, &cfg));
    let live = client::stream_lines(&daemon.addr, &path).expect("live subscriber");
    assert_eq!(live.len(), 5_002, "job_started, 5,000 deltas, job_done");
    assert!(live[5_001].contains("\"event\":\"job_done\""));
    let replay = client::stream_lines(&daemon.addr, &path).expect("replay");
    assert_same_lines(&live, &replay);
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn a_log_wait_ends_at_the_close_and_sleeps_through_appends() {
    let log = StreamLog::new();
    // Appends do not cut a wait short: it lasts its whole timeout.
    let timeout = Duration::from_millis(300);
    let t0 = Instant::now();
    let closed = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| log.wait_closed(timeout));
        for i in 0..30 {
            log.append(format!("line-{i}"));
            std::thread::sleep(Duration::from_millis(2));
        }
        waiter.join().expect("waiter joins")
    });
    assert!(!closed);
    assert!(t0.elapsed() >= timeout, "woke after {:?}", t0.elapsed());
    assert_eq!(log.len(), 30);
    // The close ends a long wait at once.
    let t0 = Instant::now();
    let closed = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| log.wait_closed(Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(20));
        log.close();
        waiter.join().expect("waiter joins")
    });
    assert!(closed);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the close took {:?} to wake the waiter",
        t0.elapsed()
    );
}
