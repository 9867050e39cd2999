//! End-to-end daemon tests: a real `served` process on a loopback
//! socket, driven through the crate's own client.
//!
//! The headline guarantees pinned here:
//!
//! * a submitted smoke job streams to completion and its artifact is
//!   byte-identical to a direct in-process `run_campaign`;
//! * two concurrent WebSocket subscribers observe the identical ordered
//!   delta sequence;
//! * a daemon killed with SIGKILL mid-job resumes from its checkpoint
//!   on restart and still produces the byte-identical artifact;
//! * SIGTERM is graceful: the daemon exits 0 with the running job
//!   checkpointed and re-queued;
//! * connections past the cap are answered `503` until one closes;
//! * a config too large to run, or one that repeats an axis value, is
//!   refused with `400` and the daemon keeps answering.

mod common;

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use wsn_bench::campaign::{run_campaign, CampaignConfig, CampaignMode, DegradedParams};
use wsn_coverage::SchemeId;
use wsn_serve::client;
use wsn_serve::server::MAX_CONNECTIONS;
use wsn_stats::JsonValue;

use common::{submit, temp_state, Daemon};

const DEADLINE: Duration = Duration::from_secs(120);

fn job_state(addr: &str, id: &str) -> (String, u64) {
    let response = client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
    assert_eq!(response.status, 200, "{}", response.body);
    let v = JsonValue::parse(&response.body).expect("status is JSON");
    let state = v
        .get("state")
        .and_then(JsonValue::as_str)
        .expect("state field")
        .to_owned();
    let done = v
        .get("trials_done")
        .and_then(JsonValue::as_f64)
        .expect("trials_done field") as u64;
    (state, done)
}

fn wait_for_state(addr: &str, id: &str, want: &str) {
    let t0 = Instant::now();
    loop {
        let (state, _) = job_state(addr, id);
        if state == want {
            return;
        }
        assert!(
            !matches!(state.as_str(), "failed" | "cancelled"),
            "job {id} reached terminal state {state} while waiting for {want}"
        );
        assert!(
            t0.elapsed() < DEADLINE,
            "job {id} stuck in {state}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fetch_result(addr: &str, id: &str) -> String {
    let response =
        client::request(addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(response.status, 200, "{}", response.body);
    response.body
}

/// The reference artifact bytes of a direct in-process run.
fn golden(cfg: &CampaignConfig) -> String {
    run_campaign(cfg)
        .expect("golden run succeeds")
        .to_json()
        .to_file_string()
}

#[test]
fn smoke_job_streams_to_completion_and_matches_the_direct_run() {
    let state = temp_state("smoke");
    let daemon = Daemon::start(&state, 0);
    let health = client::request(&daemon.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);

    let cfg = CampaignConfig::smoke();
    let id = submit(&daemon.addr, &cfg);
    let lines = client::stream_lines(&daemon.addr, &format!("/jobs/{id}/stream"))
        .expect("stream to completion");
    // job_started + one delta per trial + job_done.
    assert!(
        lines.len() as u64 >= cfg.trial_count() + 2,
        "only {} stream lines for {} trials",
        lines.len(),
        cfg.trial_count()
    );
    for line in &lines {
        let v = JsonValue::parse(line).expect("stream lines are JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("wsn-serve/1")
        );
    }
    assert_eq!(
        JsonValue::parse(lines.last().expect("non-empty stream"))
            .expect("last line is JSON")
            .get("event")
            .and_then(JsonValue::as_str),
        Some("job_done")
    );
    wait_for_state(&daemon.addr, &id, "done");
    assert_eq!(fetch_result(&daemon.addr, &id), golden(&cfg));

    // Unknown routes and premature result fetches answer properly.
    let missing = client::request(&daemon.addr, "GET", "/jobs/job-99", None).expect("404 route");
    assert_eq!(missing.status, 404);
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn connections_past_the_cap_get_503_until_one_closes() {
    let state = temp_state("cap");
    let daemon = Daemon::start(&state, 0);
    // Idle connections: each holds a daemon thread blocked reading a
    // request that never comes. The daemon accepts in arrival order,
    // so all of them hold a thread before the request below is read.
    let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&daemon.addr).expect("idle client connects"))
        .collect();
    let refused = client::request(&daemon.addr, "GET", "/healthz", None).expect("503 answer");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(
        JsonValue::parse(&refused.body)
            .expect("503 body is JSON")
            .get("error")
            .and_then(JsonValue::as_str),
        Some("too many connections")
    );
    // One idle client leaves; once its thread has ended, requests are
    // served again.
    drop(idle.pop());
    let t0 = Instant::now();
    loop {
        let response = client::request(&daemon.addr, "GET", "/healthz", None).expect("healthz");
        if response.status == 200 {
            break;
        }
        assert_eq!(response.status, 503, "{}", response.body);
        assert!(t0.elapsed() < DEADLINE, "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(idle);
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn concurrent_subscribers_observe_the_identical_ordered_sequence() {
    let state = temp_state("subs");
    let daemon = Daemon::start(&state, 0);
    let cfg = CampaignConfig {
        name: "subs".into(),
        ..CampaignConfig::smoke()
    };
    let id = submit(&daemon.addr, &cfg);
    let path = format!("/jobs/{id}/stream");
    let subscribe = |addr: String, path: String| {
        std::thread::spawn(move || client::stream_lines(&addr, &path).expect("subscriber"))
    };
    // One subscriber races the job from the start; the second joins
    // later and must replay the prefix it missed.
    let early = subscribe(daemon.addr.clone(), path.clone());
    std::thread::sleep(Duration::from_millis(20));
    let late = subscribe(daemon.addr.clone(), path.clone());
    let a = early.join().expect("early subscriber joins");
    let b = late.join().expect("late subscriber joins");
    assert!(!a.is_empty());
    assert_eq!(a, b, "subscribers diverged");
    // A third subscriber connecting after completion replays the full
    // closed log.
    wait_for_state(&daemon.addr, &id, "done");
    let replay = client::stream_lines(&daemon.addr, &path).expect("post-hoc subscriber");
    assert_eq!(a, replay, "post-completion replay diverged");
    let _unused = std::fs::remove_dir_all(&state);
}

/// A job big enough to survive until the test lands its signal:
/// two schemes on the 16×16 grid with the expensive n=1000 cells.
#[test]
fn oversized_and_repeated_configs_are_refused_and_the_daemon_keeps_answering() {
    let state = temp_state("bounds");
    let daemon = Daemon::start(&state, 0);
    let paper = CampaignConfig::paper();
    let refused = [
        // A first worker would ask for room for N + 256 node positions.
        CampaignConfig {
            targets: vec![4_500_000_000_000_000],
            ..paper.clone()
        },
        // 199,999 targets: 399,998 matrix cells in a 1.3 MB body.
        CampaignConfig {
            targets: (1..200_000).collect(),
            ..paper.clone()
        },
        // 2,048 cells of 2^53 trials: the trial count overflows u64.
        CampaignConfig {
            targets: (1..=1_024).collect(),
            seeds_per_cell: 1 << 53,
            ..paper.clone()
        },
        // Validation would build this grid's masks in the connection
        // thread.
        CampaignConfig {
            grids: vec![(65_535, 65_535)],
            ..paper.clone()
        },
        CampaignConfig {
            regions: vec![paper.regions[0]; 2],
            ..paper.clone()
        },
        CampaignConfig {
            grids: vec![(16, 16), (16, 16)],
            ..paper.clone()
        },
        CampaignConfig {
            targets: vec![10, 10],
            ..paper.clone()
        },
        // Latencies 0 and 1 without loss are both the ideal link.
        CampaignConfig {
            mode: CampaignMode::Degraded,
            degraded: DegradedParams {
                latencies: vec![0, 1],
                loss_ppms: vec![0],
            },
            ..CampaignConfig::degraded_smoke()
        },
    ];
    for cfg in &refused {
        let body = cfg.to_json().to_string();
        let response = client::request(&daemon.addr, "POST", "/jobs", Some(&body)).expect("post");
        assert_eq!(response.status, 400, "accepted: {}", response.body);
        let health = client::request(&daemon.addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200, "{}", response.body);
    }
    // Nothing was queued.
    let list = client::request(&daemon.addr, "GET", "/jobs", None).expect("job list");
    let jobs = JsonValue::parse(&list.body).expect("the job list is JSON");
    let queued = jobs.get("jobs").and_then(JsonValue::as_arr).map(<[_]>::len);
    assert_eq!(queued, Some(0), "{}", list.body);
    let _unused = std::fs::remove_dir_all(&state);
}

fn long_config() -> CampaignConfig {
    CampaignConfig {
        name: "e2e-long".into(),
        schemes: SchemeId::list(&["ar", "sr"]),
        grids: vec![(16, 16)],
        targets: vec![100, 1000],
        seeds_per_cell: 12,
        ..CampaignConfig::paper()
    }
}

/// Busy-waits until the job's checkpoint file exists (the signal that
/// at least one chunk committed).
fn wait_for_checkpoint(state: &Path, id: &str) {
    let path = state.join(format!("{id}.checkpoint.json"));
    let t0 = Instant::now();
    while !path.exists() {
        assert!(t0.elapsed() < DEADLINE, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sigkill_mid_job_resumes_to_the_byte_identical_artifact() {
    let state = temp_state("kill9");
    let cfg = long_config();
    let id;
    {
        // Checkpoint every trial: maximal kill surface.
        let mut daemon = Daemon::start(&state, 1);
        id = submit(&daemon.addr, &cfg);
        wait_for_checkpoint(&state, &id);
        daemon.kill9();
    }
    // The kill must have landed mid-job: checkpoint present, no result.
    assert!(
        state.join(format!("{id}.checkpoint.json")).exists(),
        "checkpoint vanished"
    );
    assert!(
        !state.join(format!("{id}.result.json")).exists(),
        "job finished before the kill — enlarge long_config"
    );

    // Restart over the same state dir: the job re-queues and resumes.
    let daemon = Daemon::start(&state, 64);
    let lines = client::stream_lines(&daemon.addr, &format!("/jobs/{id}/stream"))
        .expect("stream resumed job");
    let started = JsonValue::parse(lines.first().expect("resumed stream is non-empty"))
        .expect("job_started is JSON");
    assert_eq!(
        started.get("event").and_then(JsonValue::as_str),
        Some("job_started")
    );
    let resumed_at = started
        .get("resumed_at")
        .and_then(JsonValue::as_f64)
        .expect("resumed job reports its watermark");
    assert!(resumed_at > 0.0, "daemon restarted from scratch");
    wait_for_state(&daemon.addr, &id, "done");
    assert_eq!(
        fetch_result(&daemon.addr, &id),
        golden(&cfg),
        "resumed artifact differs from the uninterrupted run"
    );
    assert!(
        !state.join(format!("{id}.checkpoint.json")).exists(),
        "completed job left its checkpoint behind"
    );
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn sigterm_suspends_gracefully_and_the_restart_finishes_the_job() {
    let state = temp_state("term");
    let cfg = long_config();
    let id;
    {
        let mut daemon = Daemon::start(&state, 1);
        id = submit(&daemon.addr, &cfg);
        wait_for_checkpoint(&state, &id);
        assert!(daemon.terminate(), "SIGTERM exit was not clean");
    }
    assert!(
        state.join(format!("{id}.checkpoint.json")).exists(),
        "graceful shutdown did not leave a checkpoint"
    );
    let daemon = Daemon::start(&state, 0);
    wait_for_state(&daemon.addr, &id, "done");
    assert_eq!(fetch_result(&daemon.addr, &id), golden(&cfg));
    let _unused = std::fs::remove_dir_all(&state);
}

#[test]
fn submissions_are_validated_and_cancellation_is_served() {
    let state = temp_state("reject");
    let daemon = Daemon::start(&state, 0);
    // Malformed JSON, bad scheme, and a structurally broken config.
    for body in [
        "{not json",
        "{\"schema\":\"wsn-campaign/3\"}",
        &CampaignConfig {
            schemes: vec![],
            ..CampaignConfig::smoke()
        }
        .to_json()
        .to_string(),
    ] {
        let response = client::request(&daemon.addr, "POST", "/jobs", Some(body)).expect("post");
        assert_eq!(response.status, 400, "{body:?} was accepted");
    }
    // A job that cannot finish within DEADLINE at any plausible trial
    // rate: 40 million 16×16 trials on the daemon's two workers would
    // take minutes even at 100,000 trials/s. So the cancel below always
    // lands mid-run, and since cancellation stops the job at the next
    // trial boundary, the test itself stays fast.
    let big = CampaignConfig {
        name: "e2e-cancel".into(),
        seeds_per_cell: 10_000_000,
        ..long_config()
    };
    let running_id = submit(&daemon.addr, &big);
    // A second job parks behind it on the single runner, so its DELETE
    // exercises the queued-cancel path deterministically.
    let queued_id = submit(&daemon.addr, &long_config());
    let deleted = client::request(&daemon.addr, "DELETE", &format!("/jobs/{queued_id}"), None)
        .expect("delete queued");
    assert_eq!(deleted.status, 200);
    // Queued cancellation is synchronous: the next status read is
    // already terminal.
    let (queued_state, _) = job_state(&daemon.addr, &queued_id);
    assert_eq!(queued_state, "cancelled");

    // Result before completion → 409.
    let early = client::request(
        &daemon.addr,
        "GET",
        &format!("/jobs/{running_id}/result"),
        None,
    )
    .expect("early result");
    assert_eq!(early.status, 409);

    // Cancel the running job once it has demonstrably started folding.
    let t0 = Instant::now();
    loop {
        let (job, done) = job_state(&daemon.addr, &running_id);
        if job == "running" && done > 0 {
            break;
        }
        assert!(
            job == "queued" || job == "running",
            "big job reached {job} before the cancel"
        );
        assert!(t0.elapsed() < DEADLINE, "big job never started folding");
        std::thread::sleep(Duration::from_millis(5));
    }
    let deleted = client::request(&daemon.addr, "DELETE", &format!("/jobs/{running_id}"), None)
        .expect("delete running");
    assert_eq!(deleted.status, 200);
    let t0 = Instant::now();
    loop {
        let (job, done) = job_state(&daemon.addr, &running_id);
        if job == "cancelled" {
            assert!(
                done < big.trial_count(),
                "cancelled job claims all trials folded"
            );
            break;
        }
        assert!(t0.elapsed() < DEADLINE, "running cancellation never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // DELETE is idempotent; unknown jobs still 404.
    let again = client::request(&daemon.addr, "DELETE", &format!("/jobs/{running_id}"), None)
        .expect("re-delete");
    assert_eq!(again.status, 200);
    let ghost = client::request(&daemon.addr, "DELETE", "/jobs/job-999", None).expect("ghost");
    assert_eq!(ghost.status, 404);
    let _unused = std::fs::remove_dir_all(&state);
}
