//! `Server::serve` blocks in `accept`; a shutdown request must still end
//! it promptly when no client ever connects.
//!
//! This file holds one test on purpose: the shutdown flag is
//! process-wide, and each integration-test file runs as its own process.

use std::time::{Duration, Instant};

use wsn_serve::{ServeConfig, Server};
use wsn_simcore::shutdown;

#[test]
fn an_idle_server_returns_within_a_second_of_a_shutdown_request() {
    let state = std::env::temp_dir().join(format!("wsn-serve-shutdown-{}", std::process::id()));
    let _unused = std::fs::remove_dir_all(&state);
    shutdown::reset();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        checkpoint_every: 0,
        workers: Some(1),
    })
    .expect("daemon binds loopback");
    let serving = std::thread::spawn(move || server.serve());
    // No client traffic at all: the loop sits blocked in `accept`.
    std::thread::sleep(Duration::from_millis(100));
    shutdown::request();
    let t0 = Instant::now();
    while !serving.is_finished() {
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "serve still running {:?} after the shutdown request",
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    serving
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    shutdown::reset();
    let _unused = std::fs::remove_dir_all(&state);
}
