//! The serve throughput ledger (`BENCH_serve.json`): what does it cost
//! to talk to the daemon?
//!
//! Entries cover the CPU-bound codecs (handshake hash, frame codec,
//! request parsing) and the two loopback round trips that dominate real
//! use — a status request, and a full submit-job-and-stream-to-completion
//! cycle over the smoke matrix. `perf compare` gates the file with the
//! same >25% `min_ns` threshold as every other ledger (see
//! `wsn_bench::perf::LEDGER_FILES`).

use std::sync::atomic::{AtomicU64, Ordering};

use wsn_bench::campaign::CampaignConfig;
use wsn_bench::perf::{bench_entry, time_ns};
use wsn_simcore::shutdown;
use wsn_stats::JsonValue;

use crate::client;
use crate::http::read_request;
use crate::server::{ServeConfig, Server};
use crate::ws::{accept_key, decode_frame, encode_frame, Frame};

/// Runs the serve benchmarks, returning the `wsn-serve-bench/1`
/// document for `BENCH_serve.json`. The smoke profile shares every
/// benchmark name with the full baseline so `perf compare` always has
/// both sides.
///
/// # Panics
///
/// On loopback daemon failures — a benchmark that cannot run should
/// fail loudly, not report garbage.
pub fn bench_serve(smoke: bool) -> JsonValue {
    let mut entries = Vec::new();

    // -- CPU-bound codecs ------------------------------------------------
    let samples = if smoke { 100 } else { 400 };
    let sink = AtomicU64::new(0);
    entries.push(bench_entry(
        "ws_accept_key",
        samples,
        time_ns(samples, || {
            let key = accept_key("dGhlIHNhbXBsZSBub25jZQ==");
            sink.fetch_add(key.len() as u64, Ordering::Relaxed);
        }),
    ));

    let payload = "x".repeat(4096);
    entries.push(bench_entry(
        "ws_text_frame_codec_4k",
        samples,
        time_ns(samples, || {
            let frame = Frame::text(payload.as_str());
            let bytes = encode_frame(&frame, Some([0xde, 0xad, 0xbe, 0xef]));
            let (decoded, used) = decode_frame(&bytes)
                .expect("well-formed frame decodes")
                .expect("complete frame decodes");
            assert_eq!(used, bytes.len());
            sink.fetch_add(decoded.payload.len() as u64, Ordering::Relaxed);
        }),
    ));

    let config_body = CampaignConfig::smoke().to_json().to_string();
    let post = format!(
        "POST /jobs HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{config_body}",
        config_body.len()
    );
    entries.push(bench_entry(
        "http_parse_post_jobs",
        samples,
        time_ns(samples, || {
            let request = read_request(&mut std::io::BufReader::new(post.as_bytes()))
                .expect("well-formed request parses")
                .expect("non-empty request parses");
            sink.fetch_add(request.body.len() as u64, Ordering::Relaxed);
        }),
    ));

    // -- Loopback round trips --------------------------------------------
    // A real daemon on a real socket, state in a throwaway directory.
    let state = std::env::temp_dir().join(format!("wsn-serve-bench-{}", std::process::id()));
    let _unused = std::fs::remove_dir_all(&state);
    shutdown::reset();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        checkpoint_every: 0,
        workers: Some(2),
    })
    .expect("bench daemon binds loopback");
    let addr = server.local_addr().to_string();
    let serving = std::thread::spawn(move || server.serve());

    let http_samples = if smoke { 50 } else { 200 };
    entries.push(bench_entry(
        "serve_healthz_round_trip",
        http_samples,
        time_ns(http_samples, || {
            let response =
                client::request(&addr, "GET", "/healthz", None).expect("healthz round trip");
            assert_eq!(response.status, 200);
        }),
    ));

    let job_samples = if smoke { 2 } else { 4 };
    let expected_trials = CampaignConfig::smoke().trial_count();
    entries.push(bench_entry(
        "serve_submit_and_stream_smoke",
        job_samples,
        time_ns(job_samples, || {
            let submitted = client::request(&addr, "POST", "/jobs", Some(&config_body))
                .expect("submit round trip");
            assert_eq!(submitted.status, 201, "{}", submitted.body);
            let id = JsonValue::parse(&submitted.body)
                .ok()
                .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_owned)))
                .expect("submit response carries the job id");
            let lines = client::stream_lines(&addr, &format!("/jobs/{id}/stream"))
                .expect("stream to completion");
            // One delta per trial plus job_started/job_done bookends.
            assert!(
                lines.len() as u64 >= expected_trials + 2,
                "expected >= {} stream lines, got {}",
                expected_trials + 2,
                lines.len()
            );
        }),
    ));

    shutdown::request();
    serving
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    shutdown::reset();
    let _unused = std::fs::remove_dir_all(&state);
    assert!(sink.load(Ordering::Relaxed) > 0);

    JsonValue::obj([
        ("schema", JsonValue::from("wsn-serve-bench/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}
