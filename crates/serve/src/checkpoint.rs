//! Durable job state: checkpoints and final artifacts on disk, written
//! atomically so a killed daemon never leaves a half-written file.
//!
//! Layout under the daemon's `--state-dir`:
//!
//! ```text
//! <state>/job-7.checkpoint.json   # wsn-checkpoint/1, while running
//! <state>/job-7.result.json       # wsn-campaign/3, when complete
//! <state>/job-7.stream.jsonl      # the closed wsn-serve/1 stream log
//! ```
//!
//! Every write lands in `<name>.tmp` first and is renamed into place —
//! rename is atomic on POSIX filesystems, so readers (and the restarted
//! daemon) only ever see empty-or-complete files. When a job completes,
//! its checkpoint is removed and its artifact written; restart recovery
//! ([`CheckpointStore::pending_jobs`]) therefore resumes exactly the
//! jobs that were mid-matrix.

use std::io;
use std::path::{Path, PathBuf};

use wsn_bench::campaign::CampaignCheckpoint;

/// File-backed store of per-job checkpoints and artifacts.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: &Path) -> io::Result<CheckpointStore> {
        std::fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.checkpoint.json"))
    }

    /// Path of a job's final artifact.
    pub fn result_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.result.json"))
    }

    fn stream_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.stream.jsonl"))
    }

    /// Atomic write: `.tmp` then rename.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Persists a job's checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_checkpoint(&self, job: &str, cp: &CampaignCheckpoint) -> io::Result<()> {
        self.write_atomic(
            &self.checkpoint_path(job),
            cp.to_json().to_file_string().as_bytes(),
        )
    }

    /// Loads a job's checkpoint, `Ok(None)` when none exists.
    ///
    /// # Errors
    ///
    /// Filesystem errors propagate; a present-but-corrupt checkpoint is
    /// `InvalidData` (the daemon surfaces it instead of silently
    /// restarting the job from scratch).
    pub fn load_checkpoint(&self, job: &str) -> io::Result<Option<CampaignCheckpoint>> {
        let path = self.checkpoint_path(job);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        CampaignCheckpoint::from_json_str(&text)
            .map(Some)
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })
    }

    /// Removes a job's checkpoint (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn remove_checkpoint(&self, job: &str) -> io::Result<()> {
        match std::fs::remove_file(self.checkpoint_path(job)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Writes a job's final artifact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_result(&self, job: &str, artifact: &str) -> io::Result<()> {
        self.write_atomic(&self.result_path(job), artifact.as_bytes())
    }

    /// Reads a job's final artifact, `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load_result(&self, job: &str) -> io::Result<Option<String>> {
        match std::fs::read_to_string(self.result_path(job)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes a terminal job's closed stream log, one line per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_stream(&self, job: &str, lines: &str) -> io::Result<()> {
        self.write_atomic(&self.stream_path(job), lines.as_bytes())
    }

    /// Reads a terminal job's stream log, `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load_stream(&self, job: &str) -> io::Result<Option<String>> {
        match std::fs::read_to_string(self.stream_path(job)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Job ids with a checkpoint on disk — the jobs a restarted daemon
    /// must resume. Sorted by the numeric suffix of `job-<n>` ids (then
    /// lexically), so recovery re-queues in submission order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn pending_jobs(&self) -> io::Result<Vec<String>> {
        let mut jobs = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(job) = name.strip_suffix(".checkpoint.json") {
                jobs.push(job.to_owned());
            }
        }
        jobs.sort_by_key(|j| {
            (
                j.strip_prefix("job-")
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(u64::MAX),
                j.clone(),
            )
        });
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_bench::campaign::{run_campaign_resumable, CampaignConfig, CampaignRun, CancelAfter};
    use wsn_coverage::SchemeId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsn-serve-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn interrupted_checkpoint() -> CampaignCheckpoint {
        let cfg = CampaignConfig {
            name: "store".into(),
            schemes: SchemeId::list(&["sr"]),
            grids: vec![(6, 6)],
            targets: vec![5],
            seeds_per_cell: 3,
            // One worker: it checks the budget before each trial, so the
            // run stops after the first fold. With more, in-flight trials
            // can finish and fold the whole campaign.
            workers: Some(1),
            ..CampaignConfig::paper()
        };
        match run_campaign_resumable(&cfg, None, &CancelAfter::new(1)).unwrap() {
            CampaignRun::Interrupted(cp) => cp,
            CampaignRun::Complete(_) => panic!("budgeted run must interrupt"),
        }
    }

    #[test]
    fn checkpoints_round_trip_through_disk() {
        let dir = temp_dir("rt");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_checkpoint("job-1").unwrap().is_none());
        let cp = interrupted_checkpoint();
        store.save_checkpoint("job-1", &cp).unwrap();
        let loaded = store.load_checkpoint("job-1").unwrap().unwrap();
        assert_eq!(loaded.done, cp.done);
        assert_eq!(loaded.cells, cp.cells);
        assert_eq!(store.pending_jobs().unwrap(), vec!["job-1".to_owned()]);
        store.remove_checkpoint("job-1").unwrap();
        store.remove_checkpoint("job-1").unwrap(); // idempotent
        assert!(store.pending_jobs().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn results_persist_and_corrupt_checkpoints_are_flagged() {
        let dir = temp_dir("res");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_result("job-2").unwrap().is_none());
        store
            .save_result("job-2", "{\"schema\":\"wsn-campaign/3\"}\n")
            .unwrap();
        assert_eq!(
            store.load_result("job-2").unwrap().unwrap(),
            "{\"schema\":\"wsn-campaign/3\"}\n"
        );
        std::fs::write(dir.join("job-3.checkpoint.json"), "{not json").unwrap();
        let err = store.load_checkpoint("job-3").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pending_jobs_sort_by_submission_order() {
        let dir = temp_dir("sort");
        let store = CheckpointStore::open(&dir).unwrap();
        for job in ["job-10", "job-2", "job-1"] {
            std::fs::write(store.checkpoint_path(job), "{}").unwrap();
        }
        assert_eq!(
            store.pending_jobs().unwrap(),
            vec!["job-1".to_owned(), "job-2".to_owned(), "job-10".to_owned()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
