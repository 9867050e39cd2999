//! The daemon itself: a `TcpListener` accept loop, thread-per-connection
//! routing, and the WebSocket streaming path.
//!
//! Routes (all JSON unless upgraded):
//!
//! | Method   | Path                 | Effect                                   |
//! |----------|----------------------|------------------------------------------|
//! | `GET`    | `/healthz`           | liveness probe                           |
//! | `GET`    | `/jobs`              | list all jobs                            |
//! | `POST`   | `/jobs`              | submit a `wsn-campaign/3` config         |
//! | `GET`    | `/jobs/<id>`         | one job's status                         |
//! | `DELETE` | `/jobs/<id>`         | cancel                                   |
//! | `GET`    | `/jobs/<id>/result`  | final artifact (`409` until done)        |
//! | `GET`    | `/jobs/<id>/stream`  | WebSocket: `wsn-serve/1` lines, replayed |
//!
//! Each connection gets a thread, at most [`MAX_CONNECTIONS`] at once;
//! the accept loop answers one past the cap with `503` itself. A stream
//! thread sends its job's log in batches, one socket write each, and
//! sleeps on the log between them: its close wakes the thread at once,
//! so the close frame follows the job's last line without a wait.
//!
//! The accept loop blocks in `accept`, so a request is picked up the
//! moment it arrives. Shutdown stays a flag: SIGINT/SIGTERM only set the
//! process-wide [`wsn_simcore::shutdown`] flag, and a waker thread that
//! watches it connects once to the listener's own address, which
//! returns the blocked `accept`. The loop drops that connection unserved
//! and stops; runners checkpoint their jobs back to queued and streams
//! close.

use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsn_baselines::builtins;
use wsn_bench::campaign::CampaignConfig;
use wsn_simcore::shutdown;
use wsn_stats::JsonValue;

use crate::checkpoint::CheckpointStore;
use crate::http::{read_request, write_json, write_upgrade, Request};
use crate::job::{JobQueue, JobState};
use crate::ws::{accept_key, decode_frame, encode_frame_into, Frame, Opcode};

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (port 0 picks a free one).
    pub addr: String,
    /// Directory for checkpoints and artifacts.
    pub state_dir: PathBuf,
    /// Trials between mid-run checkpoints (0 = checkpoint only when
    /// suspended).
    pub checkpoint_every: u64,
    /// Worker threads per campaign (`None` = the engine's default).
    pub workers: Option<usize>,
}

impl ServeConfig {
    /// Defaults: loopback on 7077, `./served-state`, a checkpoint every
    /// 64 trials, default campaign workers.
    pub fn default_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7077".to_owned(),
            state_dir: PathBuf::from("served-state"),
            checkpoint_every: 64,
            workers: None,
        }
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    queue: Arc<JobQueue>,
}

impl Server {
    /// Binds the listener, opens the state directory, and recovers any
    /// jobs the previous daemon left behind (suspended jobs re-queue,
    /// completed ones re-list).
    ///
    /// # Errors
    ///
    /// Bind, state-directory, or recovery failures.
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let store = CheckpointStore::open(&cfg.state_dir)?;
        let queue = Arc::new(JobQueue::new(
            store,
            builtins(),
            cfg.checkpoint_every,
            cfg.workers,
        ));
        queue.recover()?;
        Ok(Server {
            listener,
            local_addr,
            queue,
        })
    }

    /// The bound address (useful when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The job queue (shared with runner and connection threads).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Serves until [`shutdown::requested`]. Spawns one runner thread
    /// and a thread per connection, at most [`MAX_CONNECTIONS`] live at
    /// once; returns once the accept loop stops and the runner has
    /// suspended its job (if any). A connection past the cap is
    /// answered `503` by the accept loop itself and closed unread.
    ///
    /// The loop blocks in `accept`, so no request waits on a poll
    /// interval. A shutdown request — a trapped signal or
    /// [`shutdown::request`] — is noticed by a waker thread, whose one
    /// connection to this listener returns the blocked `accept`; that
    /// connection is dropped, never handed to a connection thread.
    ///
    /// # Errors
    ///
    /// Listener failures; per-connection errors are contained to their
    /// threads.
    pub fn serve(self) -> io::Result<()> {
        let runner = {
            let queue = Arc::clone(&self.queue);
            std::thread::spawn(move || queue.run_until_shutdown())
        };
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        accept_until(&self.listener, &shutdown::requested, |mut stream| {
            conns.retain(|h| !h.is_finished());
            if conns.len() >= MAX_CONNECTIONS {
                let (status, body) = json_error(503, "too many connections");
                let _unused = write_json(&mut stream, status, &body);
                return;
            }
            let queue = Arc::clone(&self.queue);
            conns.push(std::thread::spawn(move || {
                let _unused = handle_connection(stream, &queue);
            }));
        })?;
        runner
            .join()
            .map_err(|_| io::Error::other("runner thread panicked"))?;
        // Streams observe the shutdown flag themselves; give in-flight
        // responses a moment rather than tearing the process down
        // mid-write.
        for handle in conns {
            let _unused = handle.join();
        }
        Ok(())
    }
}

/// Most connections served at once. Each one holds a thread, blocked
/// in `read_request` or following a stream, so the cap bounds the
/// daemon's threads against idle or hostile clients. It is far above
/// what one client uses (a stream, a status probe and a request).
pub const MAX_CONNECTIONS: usize = 64;

/// How often the waker checks the stop predicate. Signal handlers can
/// only set a flag, so some thread has to look at it; this one does so
/// off the request path, and the interval only bounds how long a
/// shutdown takes to start.
const WAKER_POLL: Duration = Duration::from_millis(10);

/// How long the waker's connection may take. On loopback it completes
/// at once; the bound only matters if the listener's backlog is full,
/// in which case the loop is busy accepting and sees the stop anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Hands every connection `listener` accepts to `serve_one` until
/// `stop` returns true, blocking in `accept` in between. A waker thread
/// polls `stop` and, once it turns true, connects to the listener's
/// own address so the blocked `accept` returns; any connection
/// accepted once `stop` holds, the waker's included, is dropped
/// unserved. Returns after the waker has exited.
fn accept_until(
    listener: &TcpListener,
    stop: &(dyn Fn() -> bool + Sync),
    mut serve_one: impl FnMut(TcpStream),
) -> io::Result<()> {
    let mut wake_addr = listener.local_addr()?;
    if wake_addr.ip().is_unspecified() {
        // A wildcard bind is reachable on loopback.
        wake_addr.set_ip(match wake_addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // Set when the loop fails, so the waker does not outlive it waiting
    // for a stop that may never come.
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop() {
                if failed.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(WAKER_POLL);
            }
            let _unused = TcpStream::connect_timeout(&wake_addr, WAKE_TIMEOUT);
        });
        let result = loop {
            match listener.accept() {
                Ok(_) if stop() => break Ok(()),
                Ok((stream, _peer)) => serve_one(stream),
                Err(e) => break Err(e),
            }
        };
        failed.store(result.is_err(), Ordering::SeqCst);
        result
    })
}

fn json_error(status: u16, message: &str) -> (u16, String) {
    (
        status,
        JsonValue::obj([("error", JsonValue::from(message))]).to_string(),
    )
}

/// Serves one connection: a single request/response, or a WebSocket
/// upgrade that streams until the job's log closes.
fn handle_connection(stream: TcpStream, queue: &JobQueue) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let (status, body) = json_error(400, &e.to_string());
            return write_json(&mut writer, status, &body);
        }
        Err(e) => return Err(e),
    };
    // The stream route upgrades and never returns an HTTP body.
    if let Some(job) = request
        .path
        .strip_prefix("/jobs/")
        .and_then(|rest| rest.strip_suffix("/stream"))
    {
        if request.method != "GET" {
            let (status, body) = json_error(405, "stream requires GET");
            return write_json(&mut writer, status, &body);
        }
        return serve_stream(&request, reader, writer, queue, job);
    }
    let (status, body) = route(&request, queue);
    write_json(&mut writer, status, &body)
}

/// Dispatches the plain-HTTP routes, returning `(status, json body)`.
fn route(request: &Request, queue: &JobQueue) -> (u16, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (
            200,
            JsonValue::obj([
                ("ok", JsonValue::from(true)),
                ("schema", JsonValue::from(crate::job::STREAM_SCHEMA)),
            ])
            .to_string(),
        ),
        ("GET", ["jobs"]) => {
            let jobs: Vec<JsonValue> = queue.list().iter().map(|j| j.to_json()).collect();
            (
                200,
                JsonValue::obj([("jobs", JsonValue::Arr(jobs))]).to_string(),
            )
        }
        ("POST", ["jobs"]) => {
            let Ok(text) = std::str::from_utf8(&request.body) else {
                return json_error(400, "body is not UTF-8");
            };
            match CampaignConfig::from_json_str(text).and_then(|cfg| queue.submit(cfg)) {
                Ok(id) => (
                    201,
                    JsonValue::obj([("id", JsonValue::from(id.as_str()))]).to_string(),
                ),
                Err(e) => json_error(400, &e),
            }
        }
        ("GET", ["jobs", id]) => match queue.get(id) {
            Some(snapshot) => (200, snapshot.to_json().to_string()),
            None => json_error(404, "no such job"),
        },
        ("DELETE", ["jobs", id]) => {
            if queue.cancel(id) {
                (
                    200,
                    JsonValue::obj([("cancelled", JsonValue::from(true))]).to_string(),
                )
            } else {
                json_error(404, "no such job")
            }
        }
        ("GET", ["jobs", id, "result"]) => match queue.get(id) {
            None => json_error(404, "no such job"),
            Some(snapshot) if snapshot.state != JobState::Done => {
                json_error(409, "job is not done")
            }
            Some(_) => match queue.store().load_result(id) {
                Ok(Some(artifact)) => (200, artifact),
                Ok(None) => json_error(500, "artifact missing"),
                Err(e) => json_error(500, &e.to_string()),
            },
        },
        _ => json_error(404, "no such route"),
    }
}

/// How long a stream sleeps between batches while its job runs. The
/// lines appended meanwhile go out together in one socket write; the
/// log's close cuts the sleep short, so the last batch and the close
/// frame follow the job's end at once.
const STREAM_BATCH_INTERVAL: Duration = Duration::from_millis(10);

/// Most lines one batch sends (about 1 MiB of `delta` lines). A
/// subscriber that joins a long job late catches up in batches of
/// bounded size, back to back, instead of one copy of the whole log.
const STREAM_BATCH_LINES: usize = 4096;

/// Completes the WebSocket handshake and streams the job's log from
/// line zero: every subscriber — however late — replays the identical
/// ordered sequence, then receives a close frame once the log closes.
///
/// Each batch answers the client frames that have arrived (ping → pong,
/// close → mirror and stop), then sends every line appended since the
/// last batch (at most [`STREAM_BATCH_LINES`]), all in one write. The
/// first batch goes out at once, as does a batch that follows a full
/// one; the others after [`STREAM_BATCH_INTERVAL`] or the log's close,
/// whichever comes first.
fn serve_stream(
    request: &Request,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    queue: &JobQueue,
    job: &str,
) -> io::Result<()> {
    let Some(log) = queue.log(job) else {
        let (status, body) = json_error(404, "no such job");
        return write_json(&mut writer, status, &body);
    };
    if !request.wants_websocket() {
        let (status, body) = json_error(400, "stream requires a WebSocket upgrade");
        return write_json(&mut writer, status, &body);
    }
    let Some(key) = request.header("sec-websocket-key") else {
        let (status, body) = json_error(400, "missing sec-websocket-key");
        return write_json(&mut writer, status, &body);
    };
    write_upgrade(&mut writer, &accept_key(key))?;
    // The daemon sends final, unmasked frames only.
    let push = |batch: &mut Vec<u8>, opcode: Opcode, payload: &[u8]| {
        encode_frame_into(batch, true, opcode, payload, None);
    };
    let mut inbuf: Vec<u8> = Vec::new();
    let mut batch: Vec<u8> = Vec::new();
    let mut cursor = 0usize;
    loop {
        batch.clear();
        if !read_arrived(&mut reader, &mut inbuf)? {
            return Ok(()); // client went away
        }
        loop {
            match decode_frame(&inbuf) {
                Ok(Some((frame, used))) => {
                    inbuf.drain(..used);
                    match frame.opcode {
                        Opcode::Ping => push(&mut batch, Opcode::Pong, &frame.payload),
                        Opcode::Close => {
                            push(&mut batch, Opcode::Close, &frame.payload);
                            return writer.write_all(&batch);
                        }
                        _ => {} // subscribers only listen
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    let close = Frame::close(1002, "protocol error");
                    push(&mut batch, Opcode::Close, &close.payload);
                    return writer.write_all(&batch);
                }
            }
        }
        if shutdown::requested() {
            let close = Frame::close(1001, "server shutting down");
            push(&mut batch, Opcode::Close, &close.payload);
            return writer.write_all(&batch);
        }
        let (lines, done) = log.read_from(cursor, STREAM_BATCH_LINES);
        cursor += lines.len();
        for line in &lines {
            push(&mut batch, Opcode::Text, line.as_bytes());
        }
        if done {
            let close = Frame::close(1000, "stream complete");
            push(&mut batch, Opcode::Close, &close.payload);
        }
        if !batch.is_empty() {
            writer.write_all(&batch)?;
        }
        if done {
            return Ok(());
        }
        if lines.len() < STREAM_BATCH_LINES {
            log.wait_closed(STREAM_BATCH_INTERVAL);
        }
    }
}

/// Appends the client bytes that have already arrived to `inbuf`,
/// without waiting for more; `false` once the client has closed its
/// end. The socket is non-blocking only for this one read: the stream's
/// writes share the socket and stay blocking.
fn read_arrived(reader: &mut BufReader<TcpStream>, inbuf: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 4096];
    reader.get_ref().set_nonblocking(true)?;
    let read = reader.read(&mut chunk);
    reader.get_ref().set_nonblocking(false)?;
    match read {
        Ok(0) => Ok(false),
        Ok(n) => {
            inbuf.extend_from_slice(&chunk[..n]);
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(true),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    // These drive `accept_until` with a local stop flag: the process-wide
    // shutdown flag would stop every other daemon test in this binary.

    #[test]
    fn an_idle_accept_loop_stops_promptly_and_serves_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let stop = AtomicBool::new(false);
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let looping = scope.spawn(|| {
                accept_until(&listener, &|| stop.load(Ordering::SeqCst), |_| {
                    served.fetch_add(1, Ordering::SeqCst);
                })
            });
            // Let the loop block in `accept` before stopping it.
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            looping
                .join()
                .expect("accept loop joins")
                .expect("accept loop ends cleanly");
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "stop took {:?}",
                t0.elapsed()
            );
        });
        assert_eq!(
            served.load(Ordering::SeqCst),
            0,
            "the waker's connection was served"
        );
    }

    #[test]
    fn the_accept_loop_serves_clients_but_never_the_wake_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let addr = listener.local_addr().expect("bound address");
        let stop = AtomicBool::new(false);
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let looping = scope.spawn(|| {
                accept_until(&listener, &|| stop.load(Ordering::SeqCst), |_| {
                    served.fetch_add(1, Ordering::SeqCst);
                })
            });
            let clients: Vec<TcpStream> = (0..3)
                .map(|_| TcpStream::connect(addr).expect("client connects"))
                .collect();
            let t0 = Instant::now();
            while served.load(Ordering::SeqCst) < clients.len() {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "clients never served"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::SeqCst);
            looping
                .join()
                .expect("accept loop joins")
                .expect("accept loop ends cleanly");
        });
        assert_eq!(served.load(Ordering::SeqCst), 3);
    }
}
