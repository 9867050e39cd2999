//! Helpers shared by the daemon test binaries: a `served` process on a
//! loopback port, its state directory, and job submission.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use wsn_bench::campaign::CampaignConfig;
use wsn_coverage::SchemeId;
use wsn_serve::client;
use wsn_stats::JsonValue;

/// A `served` process bound to an ephemeral port.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Kept open so the daemon's own prints never hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns `served serve` on port 0 and parses the bound address
    /// from its startup line.
    pub fn start(state_dir: &Path, checkpoint_every: u64) -> Daemon {
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

    /// SIGKILL, then reap.
    pub fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL delivered");
        self.child.wait().expect("killed daemon reaped");
    }

    /// SIGTERM, then wait; returns whether the exit was clean.
    pub fn terminate(&mut self) -> bool {
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

/// A fresh state directory for the test tagged `tag`.
pub fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-serve-test-{tag}-{}", std::process::id()));
    let _unused = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits `cfg`; returns the new job's id.
pub fn submit(addr: &str, cfg: &CampaignConfig) -> String {
    let body = cfg.to_json().to_string();
    let response = client::request(addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(response.status, 201, "{}", response.body);
    JsonValue::parse(&response.body)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_owned)))
        .expect("submit response carries the id")
}

/// A job no test lets finish: forty million 16² trials. A test cancels
/// it, or shuts its daemon down, once its frames have crossed
/// mid-stream.
pub fn endless() -> CampaignConfig {
    CampaignConfig {
        name: "stream-endless".into(),
        schemes: SchemeId::list(&["ar", "sr"]),
        grids: vec![(16, 16)],
        targets: vec![100, 1000],
        seeds_per_cell: 10_000_000,
        ..CampaignConfig::paper()
    }
}
