//! `served-16`: the paper's 16² matrix as one job on an in-process
//! `served` daemon, streamed over WebSocket while an open-loop generator
//! probes `/healthz`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsn_bench::campaign::{run_campaign, CampaignConfig};
use wsn_serve::ws::{accept_key, decode_frame, encode_frame, Opcode};
use wsn_serve::{base64, client, ServeConfig, Server};
use wsn_simcore::{derive_stream_seed, shutdown, SimRng};
use wsn_stats::JsonValue;

use crate::report::{median, Outcome};
use crate::spans::Tracer;
use crate::workloads::{check_artifact, success_ratio, validate, workers, Failures, Workload};

/// Mean gap of the Poisson `/healthz` schedule. Probes share one
/// connection, and one can wait out the daemon's 25 ms accept-loop
/// sleep, so a shorter gap would leave the generator running ever
/// later behind its schedule.
const PROBE_MEAN_GAP: Duration = Duration::from_millis(50);

/// A daemon serving on a loopback port from its own thread.
pub struct Daemon {
    pub addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon over `state_dir` and starts its accept loop.
    pub fn start(state_dir: &Path, checkpoint_every: u64) -> Result<Daemon, String> {
        shutdown::reset();
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: state_dir.to_path_buf(),
            checkpoint_every,
            workers: Some(workers()),
        })
        .map_err(|e| format!("daemon bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, thread })
    }

    /// Waits for the first `/healthz` 200. The first probe goes out 1 ms
    /// after the accept loop starts, so it never races the loop's first
    /// poll and the time to ready does not flip between two modes.
    pub fn ready(&self) -> Result<(), String> {
        std::thread::sleep(Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::request(&self.addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => return Ok(()),
                other if Instant::now() > deadline => {
                    return Err(format!("daemon never became ready: {other:?}"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Requests shutdown and joins the daemon thread.
    pub fn stop(self) -> Result<(), String> {
        shutdown::request();
        let joined = self.thread.join();
        shutdown::reset();
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One `/healthz` probe of the open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// How late the generator sent it, past its due time.
    pub late: Duration,
    /// From its due time to its response.
    pub latency: Duration,
    pub ok: bool,
}

/// Sends `/healthz` probes on a seeded Poisson schedule until `stop`.
/// One connection at a time: a probe that is due while the previous one
/// is in flight goes out late, and its latency still counts from when it
/// was due.
fn probe_loop(
    addr: &str,
    seed: u64,
    stop: &AtomicBool,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<Probe> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut due = Instant::now();
    let mut probes = Vec::new();
    loop {
        let gap = -(1.0 - rng.uniform_f64()).ln() * PROBE_MEAN_GAP.as_secs_f64();
        due += Duration::from_secs_f64(gap);
        let sent = loop {
            if stop.load(Ordering::SeqCst) {
                return probes;
            }
            let now = Instant::now();
            if now >= due {
                break now;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        };
        let open = tracer.open("http.healthz", parent, None);
        let response = client::request(addr, "GET", "/healthz", None);
        let ok = matches!(&response, Ok(r) if r.status == 200 && r.body.contains("\"ok\":true"));
        tracer.close(open, &[("ok", f64::from(u8::from(ok)))]);
        probes.push(Probe {
            late: sent - due,
            latency: due.elapsed(),
            ok,
        });
    }
}

/// What a client saw of one job's stream.
#[derive(Debug, Default)]
pub struct StreamSeen {
    pub first_delta: Option<Instant>,
    pub lines: u64,
    pub bytes: u64,
    pub deltas: u64,
    pub checkpoints: u64,
    pub last_event: String,
}

/// Subscribes to `path` over WebSocket and reads every line until the
/// server's close frame, with a span per line received.
fn stream(
    addr: &str,
    path: &str,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<StreamSeen, String> {
    let err = |e: std::io::Error| format!("stream {path}: {e}");
    let key = base64::encode(b"perfbench-stream");
    let mut socket = TcpStream::connect(addr).map_err(err)?;
    socket
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(err)?;
    write!(
        socket,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\nupgrade: websocket\r\nconnection: Upgrade\r\nsec-websocket-key: {key}\r\nsec-websocket-version: 13\r\n\r\n"
    )
    .map_err(err)?;
    let mut reader = BufReader::new(socket.try_clone().map_err(err)?);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(err)?;
    if line.split_whitespace().nth(1) != Some("101") {
        return Err(format!("stream {path}: upgrade refused: {line:?}"));
    }
    let mut accepted = false;
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(err)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            accepted |=
                k.eq_ignore_ascii_case("sec-websocket-accept") && v.trim() == accept_key(&key);
        }
    }
    if !accepted {
        return Err(format!("stream {path}: bad sec-websocket-accept"));
    }
    let mut seen = StreamSeen::default();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut open = tracer.open("ws.line", parent, None);
    loop {
        match decode_frame(&inbuf).map_err(|e| format!("stream {path}: bad frame: {e}"))? {
            Some((frame, used)) => {
                inbuf.drain(..used);
                match frame.opcode {
                    Opcode::Text => {
                        let text = String::from_utf8(frame.payload)
                            .map_err(|_| format!("stream {path}: non-UTF-8 line"))?;
                        let event = JsonValue::parse(&text)
                            .ok()
                            .and_then(|v| {
                                v.get("event")
                                    .and_then(JsonValue::as_str)
                                    .map(str::to_owned)
                            })
                            .ok_or_else(|| {
                                format!("stream {path}: line without an event: {text}")
                            })?;
                        seen.lines += 1;
                        seen.bytes += text.len() as u64;
                        if event == "delta" {
                            seen.deltas += 1;
                            seen.first_delta.get_or_insert_with(Instant::now);
                        }
                        seen.checkpoints += u64::from(event == "checkpoint");
                        tracer.close(open, &[("bytes", text.len() as f64)]);
                        open = tracer.open("ws.line", parent, None);
                        seen.last_event = event;
                    }
                    Opcode::Close => {
                        let reply = encode_frame(&frame, Some([0x5e, 0xed, 0x0b, 0x75]));
                        let _unused = socket.write_all(&reply);
                        return Ok(seen);
                    }
                    _ => {}
                }
            }
            None => match reader.read(&mut chunk).map_err(err)? {
                0 => return Ok(seen),
                n => inbuf.extend_from_slice(&chunk[..n]),
            },
        }
    }
}

/// One job as a client sees it.
#[derive(Debug)]
pub struct JobRun {
    /// From submit to the fetched result.
    pub wall: Duration,
    pub submit: Duration,
    pub first_delta: Duration,
    pub seen: StreamSeen,
    pub probes: Vec<Probe>,
    pub artifact: String,
}

/// Submits `cfg` to `daemon`, streams it to completion while probing
/// `/healthz`, and fetches the result.
pub fn run_job(
    daemon: &Daemon,
    cfg: &CampaignConfig,
    probe_seed: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<JobRun, String> {
    let body = cfg.to_json().to_string();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let start = Instant::now();
        let open = tracer.open("http.submit", parent, None);
        let submitted = client::request(&daemon.addr, "POST", "/jobs", Some(&body))
            .map_err(|e| format!("submit: {e}"))?;
        let submit = tracer.close(open, &[]);
        if submitted.status != 201 {
            return Err(format!(
                "submit refused ({}): {}",
                submitted.status, submitted.body
            ));
        }
        let id = JsonValue::parse(&submitted.body)
            .ok()
            .and_then(|v| v.get("id").and_then(JsonValue::as_str).map(str::to_owned))
            .ok_or("submit response has no job id")?;
        let probes = scope.spawn(|| probe_loop(&daemon.addr, probe_seed, &stop, tracer, parent));
        let seen = stream(&daemon.addr, &format!("/jobs/{id}/stream"), tracer, parent);
        let open = tracer.open("http.result", parent, None);
        let result = client::request(&daemon.addr, "GET", &format!("/jobs/{id}/result"), None);
        tracer.close(open, &[]);
        let wall = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        let probes = probes
            .join()
            .map_err(|_| "probe thread panicked".to_owned())?;
        let seen = seen?;
        let result = result.map_err(|e| format!("result: {e}"))?;
        if result.status != 200 {
            return Err(format!(
                "result refused ({}): {}",
                result.status, result.body
            ));
        }
        if seen.last_event != "job_done" || seen.deltas != cfg.trial_count() {
            return Err(format!(
                "stream ended with {:?} after {} deltas, expected job_done after {}",
                seen.last_event,
                seen.deltas,
                cfg.trial_count()
            ));
        }
        let first_delta = seen.first_delta.map_or(Duration::ZERO, |t| t - start);
        Ok(JobRun {
            wall,
            submit,
            first_delta,
            seen,
            probes,
            artifact: result.body,
        })
    })
}

/// The direct `run_campaign` artifact a served job must reproduce.
pub fn direct_artifact(cfg: &CampaignConfig) -> Result<(String, Duration), String> {
    let t0 = Instant::now();
    let result = run_campaign(cfg).map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    Ok((result.to_json().to_file_string(), wall))
}

/// Fresh, empty daemon state directory `name` under `out`.
pub fn state_dir(out: &Path, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = out.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(dir)
}

/// Seed of the probe schedule of job `rep`.
pub fn probe_seed(seed: u64, rep: u64) -> u64 {
    derive_stream_seed(seed, &[0x6865_616c, rep])
}

/// The end-to-end run of `served-16`: the same job on a fresh daemon,
/// back to back until `seconds` have passed. `trials_per_s` counts from
/// submit to the fetched result; each result must be byte-identical to
/// a direct `run_campaign` of the same config.
///
/// Each request can wait out part of the daemon's 25 ms accept-loop
/// sleep. A fresh daemon starts that loop at the same point of every
/// job, which would quantize job times into 25 ms steps, so each job
/// is submitted after a seeded pause of up to 25 ms.
///
/// The daemon state directory lives inside the checkout, and the job
/// runs with `checkpoint_every = 0`: on a disk filesystem each
/// checkpoint rename over the previous one waits 50–100 ms for
/// writeback, dozens of times the job's own work per chunk, and varies
/// from run to run. The traced run counts checkpoints at the daemon
/// default and times `CheckpointStore::save_checkpoint` on its own.
pub fn run_served(seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let cfg = Workload::Served.config(seed, 0, workers());
    let (expected, _) = direct_artifact(&cfg)?;
    let failures = check_artifact(&cfg, &expected, None)?;
    let quiet = Tracer::new(false);
    let started = Instant::now();
    let (mut trials, mut timed) = (0u64, Duration::ZERO);
    let mut pauses = SimRng::seed_from_u64(derive_stream_seed(seed, &[0x7061_7573]));
    let (mut requests, mut failed_requests) = (0u64, 0u64);
    let mut setups = Vec::new();
    let mut rep = 0;
    while rep == 0 || started.elapsed().as_secs_f64() < seconds {
        let dir = state_dir(out, &format!("job-{rep}"))?;
        let t0 = Instant::now();
        validate(&cfg)?;
        let daemon = Daemon::start(&dir, 0)?;
        daemon.ready()?;
        setups.push(t0.elapsed().as_secs_f64());
        std::thread::sleep(Duration::from_secs_f64(0.025 * pauses.uniform_f64()));
        let job = run_job(&daemon, &cfg, probe_seed(seed, rep), &quiet, None);
        daemon.stop()?;
        let job = job?;
        if job.artifact != expected {
            return Err("served artifact differs from the direct run_campaign artifact".into());
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        trials += cfg.trial_count();
        timed += job.wall;
        // Submit, stream and result, plus the probes.
        requests += 3 + job.probes.len() as u64;
        failed_requests += job.probes.iter().filter(|p| !p.ok).count() as u64;
        rep += 1;
    }
    let failed_trials = failures.failed * rep;
    let mut outcome = Outcome {
        correct: true,
        attempted: trials + requests,
        failed: failed_trials + failed_requests,
        ..Outcome::default()
    };
    outcome.metrics.insert("setup_s", median(&setups));
    outcome
        .metrics
        .insert("trials_per_s", trials as f64 / timed.as_secs_f64());
    outcome.metrics.insert(
        "trial_success_ratio",
        success_ratio(Failures {
            trials: failures.trials * rep,
            failed: failed_trials,
        }),
    );
    Ok(outcome)
}

/// Latency summary of the probes: `(p50, tail, tail percentile)` in ms.
pub fn probe_summary(probes: &[Probe]) -> (f64, f64, f64) {
    let mut ms: Vec<f64> = probes
        .iter()
        .map(|p| p.latency.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    let p50 = crate::report::nearest_rank(&ms, 50.0).unwrap_or(0.0);
    let (pct, tail) = crate::report::tail(&ms).unwrap_or((0.0, 0.0));
    (p50, tail, pct)
}

/// Median generator lateness in ms.
pub fn probe_late_ms(probes: &[Probe]) -> f64 {
    median(
        &probes
            .iter()
            .map(|p| p.late.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}
