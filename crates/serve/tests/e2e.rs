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
//!   checkpointed and re-queued.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wsn_bench::campaign::{run_campaign, CampaignConfig};
use wsn_coverage::SchemeId;
use wsn_serve::client;
use wsn_stats::JsonValue;

const DEADLINE: Duration = Duration::from_secs(120);

/// A `served` process bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
    /// Kept open so the daemon's own prints never hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns `served serve` on port 0 and parses the bound address
    /// from its startup line.
    fn start(state_dir: &Path, checkpoint_every: u64) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_served"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--state-dir",
                state_dir.to_str().expect("utf-8 state dir"),
                "--checkpoint-every",
                &checkpoint_every.to_string(),
                "--workers",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("served spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("served announces its address");
        // "served: listening on 127.0.0.1:PORT (state: ...)"
        let addr = line
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .unwrap_or_else(|| panic!("no address in startup line {line:?}"))
            .to_owned();
        Daemon {
            child,
            addr,
            _stdout: reader,
        }
    }

    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL delivered");
        self.child.wait().expect("killed daemon reaped");
    }

    /// SIGTERM, then wait; returns whether the exit was clean.
    fn terminate(&mut self) -> bool {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM failed");
        self.child.wait().expect("daemon reaped").success()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _unused = self.child.kill();
        let _unused = self.child.wait();
    }
}

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-serve-e2e-{tag}-{}", std::process::id()));
    let _unused = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(addr: &str, cfg: &CampaignConfig) -> String {
    let body = cfg.to_json().to_string();
    let response = client::request(addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(response.status, 201, "{}", response.body);
    JsonValue::parse(&response.body)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_owned)))
        .expect("submit response carries the id")
}

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
