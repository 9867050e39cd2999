//! A shutdown request mid-stream ends the stream with a `1001` close.
//!
//! This file holds one test on purpose: the shutdown flag is
//! process-wide, and each integration-test file runs as its own process.

mod common;

use std::time::{Duration, Instant};

use wsn_serve::client::Subscriber;
use wsn_serve::ws::Opcode;
use wsn_serve::{ServeConfig, Server};
use wsn_simcore::shutdown;

use common::{endless, submit, temp_state};

#[test]
fn a_shutdown_mid_stream_closes_the_stream_with_1001() {
    let state = temp_state("stream-shutdown");
    shutdown::reset();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        checkpoint_every: 0,
        workers: Some(1),
    })
    .expect("daemon binds loopback");
    let addr = server.local_addr().to_string();
    let serving = std::thread::spawn(move || server.serve());
    // The endless job is mid-run when shutdown lands.
    let id = submit(&addr, &endless());
    let mut subscriber = Subscriber::open(&addr, &format!("/jobs/{id}/stream")).expect("subscribe");
    let mut deltas = 0;
    while deltas == 0 {
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open before the first delta");
        assert_eq!(
            frame.opcode,
            Opcode::Text,
            "{frame:?} before the first delta"
        );
        deltas += usize::from(String::from_utf8_lossy(&frame.payload).contains("\"delta\""));
    }
    shutdown::request();
    let t0 = Instant::now();
    let close = loop {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "no close after the shutdown request"
        );
        let frame = subscriber
            .next_frame()
            .expect("stream reads")
            .expect("stream open until its close frame");
        if frame.opcode != Opcode::Text {
            break frame;
        }
    };
    assert_eq!(close.opcode, Opcode::Close);
    assert_eq!(
        close.close_code(),
        Some((1001, "server shutting down".to_owned()))
    );
    serving
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    shutdown::reset();
    let _unused = std::fs::remove_dir_all(&state);
}
