//! The job queue and runner: campaign configs in, streamed deltas and
//! durable artifacts out.
//!
//! A job's life: `POST /jobs` validates the config against the scheme
//! registry and enqueues it; a runner thread claims it and executes the
//! matrix **in chunks** of `checkpoint_every` trials through
//! [`run_campaign_resumable`](wsn_bench::campaign::run_campaign_resumable), persisting a [`CampaignCheckpoint`]
//! between chunks. Every fold appends a `wsn-serve/1` delta line to the
//! job's [`StreamLog`]; completion writes the `wsn-campaign/3` artifact
//! and removes the checkpoint. A daemon killed mid-chunk therefore
//! loses at most one chunk of work — and none of its correctness: the
//! resumed run reproduces the byte-identical artifact (the engine's
//! contract, pinned in `wsn-bench`'s resume suite and re-pinned
//! end-to-end in this crate's `e2e` suite).
//!
//! Cancellation (`DELETE /jobs/<id>`) and process shutdown both flow
//! through the same cooperative cancel poll; the difference is what
//! happens after the wind-down — a cancelled job is terminal, a
//! suspended one re-queues on restart.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wsn_bench::campaign::{
    run_campaign_resumable_with, CampaignCheckpoint, CampaignConfig, CampaignObserver, CampaignRun,
    CellStats,
};
use wsn_coverage::scheme::SchemeRegistry;
use wsn_simcore::shutdown;
use wsn_stats::JsonValue;

use crate::checkpoint::CheckpointStore;
use crate::stream::StreamLog;

/// Schema tag of every stream line the daemon emits.
pub const STREAM_SCHEMA: &str = "wsn-serve/1";

/// Where a job is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a runner (fresh, or suspended with a checkpoint).
    Queued,
    /// A runner is executing its matrix.
    Running,
    /// Completed; artifact on disk.
    Done,
    /// Rejected or crashed; `error` says why.
    Failed,
    /// Cancelled by `DELETE /jobs/<id>`.
    Cancelled,
}

impl JobState {
    /// Stable wire token.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// The job id (`job-<n>`).
    pub id: String,
    /// The campaign's artifact name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Trials folded so far (live).
    pub trials_done: u64,
    /// Trials the matrix holds in total.
    pub trials_total: u64,
    /// Failure reason, for [`JobState::Failed`].
    pub error: Option<String>,
}

impl JobSnapshot {
    /// The wire form served by `GET /jobs` and `GET /jobs/<id>`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("id", JsonValue::from(self.id.as_str())),
            ("name", JsonValue::from(self.name.as_str())),
            ("state", JsonValue::from(self.state.label())),
            ("trials_done", JsonValue::from(self.trials_done)),
            ("trials_total", JsonValue::from(self.trials_total)),
            (
                "error",
                self.error
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::from),
            ),
        ])
    }
}

/// One tracked job.
struct Job {
    config: CampaignConfig,
    state: JobState,
    error: Option<String>,
    /// Live fold counter (shared with the runner's observer).
    done: Arc<AtomicU64>,
    /// Set by `DELETE /jobs/<id>`.
    cancel: Arc<AtomicBool>,
    log: Arc<StreamLog>,
}

#[derive(Default)]
struct QueueInner {
    jobs: BTreeMap<String, Job>,
    /// Submission order (BTreeMap sorts `job-10` before `job-2`).
    order: Vec<String>,
    next_id: u64,
}

/// The daemon's job queue: submission, status, cancellation, and the
/// runner loop.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    wake: Condvar,
    store: CheckpointStore,
    registry: SchemeRegistry,
    /// Trials per chunk between checkpoints (0 = checkpoint only on
    /// suspension).
    checkpoint_every: u64,
    /// Per-job worker-thread override.
    workers: Option<usize>,
}

impl JobQueue {
    /// A queue persisting through `store`, validating against
    /// `registry`. `checkpoint_every` sets the trials-per-checkpoint
    /// chunk (0 = never mid-run); `workers` caps each campaign's
    /// thread pool.
    pub fn new(
        store: CheckpointStore,
        registry: SchemeRegistry,
        checkpoint_every: u64,
        workers: Option<usize>,
    ) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            wake: Condvar::new(),
            store,
            registry,
            checkpoint_every,
            workers,
        }
    }

    /// The store this queue persists through.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Re-queues every job the previous daemon left mid-matrix (a
    /// checkpoint on disk) and re-lists completed ones (an artifact on
    /// disk). Returns `(resumed, completed)` counts.
    ///
    /// # Errors
    ///
    /// Propagates store errors; a corrupt checkpoint fails recovery
    /// loudly rather than silently rerunning from scratch.
    pub fn recover(&self) -> std::io::Result<(usize, usize)> {
        let pending = self.store.pending_jobs()?;
        let mut resumed = 0;
        let mut completed = 0;
        let mut inner = self.inner.lock().expect("job queue lock");
        // Completed jobs first: list artifacts already on disk.
        for entry in std::fs::read_dir(self.store.dir())? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".result.json") else {
                continue;
            };
            if inner.jobs.contains_key(id) {
                continue;
            }
            let Some(artifact) = self.store.load_result(id)? else {
                continue;
            };
            // The artifact embeds its config; a parse failure marks the
            // job failed instead of erasing its history.
            let (config, state, error) = match JsonValue::parse(&artifact)
                .ok()
                .as_ref()
                .and_then(|v| v.get("config").cloned())
                .ok_or_else(|| "artifact lacks a config block".to_owned())
                .and_then(|c| CampaignConfig::from_json(&c))
            {
                Ok(config) => (config, JobState::Done, None),
                Err(e) => (
                    CampaignConfig::smoke(),
                    JobState::Failed,
                    Some(format!("unreadable artifact: {e}")),
                ),
            };
            let done = config.trial_count();
            Self::insert(&mut inner, id.to_owned(), config, state, error, done);
            let log = &inner.jobs[id].log;
            log.close();
            completed += 1;
        }
        for id in pending {
            if inner.jobs.contains_key(&id) {
                continue;
            }
            let cp = self
                .store
                .load_checkpoint(&id)?
                .expect("pending_jobs listed it");
            let done = cp.trials_done();
            Self::insert(
                &mut inner,
                id,
                cp.config.clone(),
                JobState::Queued,
                None,
                done,
            );
            resumed += 1;
        }
        drop(inner);
        self.wake.notify_all();
        Ok((resumed, completed))
    }

    fn insert(
        inner: &mut QueueInner,
        id: String,
        config: CampaignConfig,
        state: JobState,
        error: Option<String>,
        done: u64,
    ) {
        // Keep fresh ids above every recovered one.
        if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
            inner.next_id = inner.next_id.max(n + 1);
        }
        inner.order.push(id.clone());
        inner.jobs.insert(
            id,
            Job {
                config,
                state,
                error,
                done: Arc::new(AtomicU64::new(done)),
                cancel: Arc::new(AtomicBool::new(false)),
                log: Arc::new(StreamLog::new()),
            },
        );
    }

    /// Validates and enqueues a campaign, returning the new job id.
    ///
    /// # Errors
    ///
    /// The validation failure, wire-form or semantic, as text.
    pub fn submit(&self, config: CampaignConfig) -> Result<String, String> {
        config.validate(&self.registry).map_err(|e| e.to_string())?;
        let mut inner = self.inner.lock().expect("job queue lock");
        let id = format!("job-{}", inner.next_id);
        inner.next_id += 1;
        Self::insert(&mut inner, id.clone(), config, JobState::Queued, None, 0);
        drop(inner);
        self.wake.notify_all();
        Ok(id)
    }

    /// Snapshots of every job, in submission order.
    pub fn list(&self) -> Vec<JobSnapshot> {
        let inner = self.inner.lock().expect("job queue lock");
        inner
            .order
            .iter()
            .map(|id| Self::snapshot(id, &inner.jobs[id]))
            .collect()
    }

    /// One job's snapshot.
    pub fn get(&self, id: &str) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("job queue lock");
        inner.jobs.get(id).map(|j| Self::snapshot(id, j))
    }

    /// One job's stream log.
    pub fn log(&self, id: &str) -> Option<Arc<StreamLog>> {
        let inner = self.inner.lock().expect("job queue lock");
        inner.jobs.get(id).map(|j| Arc::clone(&j.log))
    }

    fn snapshot(id: &str, job: &Job) -> JobSnapshot {
        JobSnapshot {
            id: id.to_owned(),
            name: job.config.name.clone(),
            state: job.state,
            trials_done: job.done.load(Ordering::Relaxed),
            trials_total: job.config.trial_count(),
            error: job.error.clone(),
        }
    }

    /// Cancels a job. Queued jobs become terminal immediately; running
    /// ones wind down at the next trial boundary. Returns `false` for
    /// unknown ids, `true` otherwise (including already-terminal jobs —
    /// cancellation is idempotent).
    pub fn cancel(&self, id: &str) -> bool {
        let mut inner = self.inner.lock().expect("job queue lock");
        let Some(job) = inner.jobs.get_mut(id) else {
            return false;
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.log
                    .append(event_line(id, "job_cancelled", &[]).to_string());
                job.log.close();
                let _ = self.store.remove_checkpoint(id);
            }
            JobState::Running => job.cancel.store(true, Ordering::SeqCst),
            _ => {}
        }
        true
    }

    /// Runs queued jobs until process shutdown is requested. Call from
    /// one or more dedicated runner threads.
    pub fn run_until_shutdown(&self) {
        while !shutdown::requested() {
            // Waiting gives up every 100 ms to re-poll the shutdown flag.
            if let Some(id) = self.claim_or_wait(Duration::from_millis(100)) {
                self.run_job(&id);
            }
        }
    }

    /// Claims the oldest queued job, marking it running; with none
    /// queued, first waits up to `timeout` for a submit or recover to
    /// queue one. The check and the wait hold one lock acquisition, so a
    /// submit cannot land between them unseen.
    fn claim_or_wait(&self, timeout: Duration) -> Option<String> {
        let oldest_queued = |inner: &QueueInner| {
            inner
                .order
                .iter()
                .find(|id| inner.jobs[*id].state == JobState::Queued)
                .cloned()
        };
        let inner = self.inner.lock().expect("job queue lock");
        let (mut inner, _) = self
            .wake
            .wait_timeout_while(inner, timeout, |inner| oldest_queued(inner).is_none())
            .expect("job queue lock");
        let id = oldest_queued(&inner)?;
        inner.jobs.get_mut(&id).expect("queued ids exist").state = JobState::Running;
        Some(id)
    }

    /// Executes one claimed job to a terminal state (or suspension).
    fn run_job(&self, id: &str) {
        let (config, done, cancel, log) = {
            let inner = self.inner.lock().expect("job queue lock");
            let job = &inner.jobs[id];
            (
                job.config.clone(),
                Arc::clone(&job.done),
                Arc::clone(&job.cancel),
                Arc::clone(&job.log),
            )
        };
        let mut config = config;
        config.workers = config.workers.or(self.workers);
        let mut checkpoint = match self.store.load_checkpoint(id) {
            Ok(cp) => cp,
            Err(e) => {
                self.finish(id, JobState::Failed, Some(format!("checkpoint load: {e}")));
                return;
            }
        };
        let resumed_from = checkpoint.as_ref().map(CampaignCheckpoint::trials_done);
        log.append(
            event_line(
                id,
                "job_started",
                &[
                    ("name", JsonValue::from(config.name.as_str())),
                    ("trials_total", JsonValue::from(config.trial_count())),
                    (
                        "resumed_at",
                        resumed_from.map_or(JsonValue::Null, JsonValue::from),
                    ),
                ],
            )
            .to_string(),
        );
        loop {
            let budget = if self.checkpoint_every == 0 {
                u64::MAX
            } else {
                self.checkpoint_every
            };
            let observer = RunObserver {
                job: id,
                log: &log,
                done: &done,
                budget: AtomicU64::new(budget),
                cancel: &cancel,
            };
            let run =
                run_campaign_resumable_with(&config, &self.registry, checkpoint.take(), &observer);
            match run {
                Ok(CampaignRun::Complete(result)) => {
                    let artifact = result.to_json().to_file_string();
                    if let Err(e) = self.store.save_result(id, &artifact) {
                        self.finish(id, JobState::Failed, Some(format!("artifact write: {e}")));
                        return;
                    }
                    let _ = self.store.remove_checkpoint(id);
                    log.append(
                        event_line(
                            id,
                            "job_done",
                            &[("artifact_bytes", JsonValue::from(artifact.len()))],
                        )
                        .to_string(),
                    );
                    self.finish(id, JobState::Done, None);
                    return;
                }
                Ok(CampaignRun::Interrupted(cp)) => {
                    done.store(cp.trials_done(), Ordering::Relaxed);
                    if let Err(e) = self.store.save_checkpoint(id, &cp) {
                        self.finish(id, JobState::Failed, Some(format!("checkpoint write: {e}")));
                        return;
                    }
                    log.append(
                        event_line(
                            id,
                            "checkpoint",
                            &[("trials_done", JsonValue::from(cp.trials_done()))],
                        )
                        .to_string(),
                    );
                    if cancel.load(Ordering::SeqCst) {
                        let _ = self.store.remove_checkpoint(id);
                        log.append(event_line(id, "job_cancelled", &[]).to_string());
                        self.finish(id, JobState::Cancelled, None);
                        return;
                    }
                    if shutdown::requested() {
                        // Suspend: back to queued, checkpoint on disk;
                        // the restarted daemon resumes it.
                        let mut inner = self.inner.lock().expect("job queue lock");
                        if let Some(job) = inner.jobs.get_mut(id) {
                            job.state = JobState::Queued;
                        }
                        return;
                    }
                    checkpoint = Some(cp); // next chunk
                }
                Err(e) => {
                    log.append(
                        event_line(
                            id,
                            "job_failed",
                            &[("error", JsonValue::from(e.to_string().as_str()))],
                        )
                        .to_string(),
                    );
                    self.finish(id, JobState::Failed, Some(e.to_string()));
                    return;
                }
            }
        }
    }

    fn finish(&self, id: &str, state: JobState, error: Option<String>) {
        let mut inner = self.inner.lock().expect("job queue lock");
        if let Some(job) = inner.jobs.get_mut(id) {
            if state.is_terminal() {
                job.done.store(
                    if state == JobState::Done {
                        job.config.trial_count()
                    } else {
                        job.done.load(Ordering::Relaxed)
                    },
                    Ordering::Relaxed,
                );
            }
            job.state = state;
            job.error = error;
            job.log.close();
        }
    }
}

/// Builds one `wsn-serve/1` event line.
fn event_line(job: &str, event: &str, extra: &[(&str, JsonValue)]) -> JsonValue {
    let mut fields = vec![
        ("schema", JsonValue::from(STREAM_SCHEMA)),
        ("event", JsonValue::from(event)),
        ("job", JsonValue::from(job)),
    ];
    for (k, v) in extra {
        fields.push((*k, v.clone()));
    }
    JsonValue::obj(fields)
}

/// The per-chunk observer: streams a delta line per fold, counts the
/// chunk budget down, and winds the engine down on budget exhaustion,
/// job cancellation, or process shutdown.
struct RunObserver<'a> {
    job: &'a str,
    log: &'a StreamLog,
    done: &'a AtomicU64,
    budget: AtomicU64,
    cancel: &'a AtomicBool,
}

impl CampaignObserver for RunObserver<'_> {
    fn trial_folded(&self, cell: usize, done: u64, stats: &CellStats) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                Some(b.saturating_sub(1))
            })
            .expect("fetch_update closure never returns None");
        let mean = |metric: &str| {
            stats
                .metric(metric)
                .map_or(JsonValue::Null, |s| JsonValue::from(s.summary().mean()))
        };
        self.log.append(
            event_line(
                self.job,
                "delta",
                &[
                    ("cell", JsonValue::from(cell)),
                    ("done", JsonValue::from(done)),
                    ("scheme", JsonValue::from(stats.scheme.as_str())),
                    ("region", JsonValue::from(stats.region.label())),
                    ("n", JsonValue::from(stats.n_target)),
                    ("trials", JsonValue::from(stats.trials)),
                    ("covered_trials", JsonValue::from(stats.covered_trials)),
                    ("holes_mean", JsonValue::from(stats.holes.summary().mean())),
                    ("moves_mean", mean("moves")),
                    ("distance_mean", mean("distance")),
                ],
            )
            .to_string(),
        );
    }

    fn cancel_requested(&self) -> bool {
        self.budget.load(Ordering::SeqCst) == 0
            || self.cancel.load(Ordering::SeqCst)
            || shutdown::requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use wsn_coverage::SchemeId;

    fn queue(tag: &str) -> JobQueue {
        let dir = std::env::temp_dir().join(format!("wsn-serve-job-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("temp dir is writable");
        JobQueue::new(store, wsn_baselines::builtins(), 0, Some(1))
    }

    fn job() -> CampaignConfig {
        CampaignConfig {
            name: "claim".into(),
            schemes: SchemeId::list(&["sr"]),
            grids: vec![(6, 6)],
            targets: vec![5],
            seeds_per_cell: 1,
            ..CampaignConfig::paper()
        }
    }

    #[test]
    fn a_queued_job_is_claimed_at_once() {
        let q = queue("queued");
        let id = q.submit(job()).unwrap();
        let t0 = Instant::now();
        assert_eq!(q.claim_or_wait(Duration::from_secs(30)), Some(id.clone()));
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        assert_eq!(q.get(&id).unwrap().state, JobState::Running);
        // Claimed jobs are not handed out twice.
        assert_eq!(q.claim_or_wait(Duration::from_millis(1)), None);
    }

    #[test]
    fn a_waiting_runner_wakes_for_a_submit() {
        // The submit lands about 20 ms into the wait; a runner that
        // missed its notification would sleep out the whole timeout.
        let q = queue("wake");
        let timeout = Duration::from_secs(30);
        let t0 = Instant::now();
        let (claimed, id) = std::thread::scope(|scope| {
            let runner = scope.spawn(|| q.claim_or_wait(timeout));
            std::thread::sleep(Duration::from_millis(20));
            let id = q.submit(job()).unwrap();
            (runner.join().expect("runner joins"), id)
        });
        assert_eq!(claimed, Some(id));
        assert!(t0.elapsed() < timeout / 3, "{:?}", t0.elapsed());
    }
}
