//! Rolling snapshot management for one run: a directory of files, or
//! one job's key inside a [`Log`].

use crate::codec::Record;
use crate::file::{read_snapshot, write_snapshot};
use crate::log::Log;
use crate::CkptError;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Manages the snapshots of one training run.
///
/// The directory store ([`SnapshotStore::new`]) keeps:
///
/// * `latest.ckpt` — rolled on every periodic checkpoint and on
///   shutdown; the file `resume` starts from;
/// * `best.ckpt` — rolled whenever the run improves its best cost, so
///   the strongest agent survives even a later divergence;
/// * `step-<n>.ckpt` — optional pinned history written by
///   [`SnapshotStore::save_step`].
///
/// Every write goes through the atomic tmp + fsync + rename path of
/// [`write_snapshot`], so a crash at any instant leaves the previous
/// snapshot intact.
///
/// The log store ([`SnapshotStore::in_log`]) keeps only the latest
/// snapshot, as one frame keyed by the job: appending it costs no
/// fsync, and the log's next commit makes it durable. Its `best` and
/// step writes do nothing and its `best` and step reads find nothing —
/// a job server resumes from `latest` and keeps the best design in the
/// job's result.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    place: Place,
    kind: String,
}

#[derive(Debug, Clone)]
enum Place {
    Dir(PathBuf),
    Log { log: Arc<Log>, key: u64 },
}

/// What the log store answers for snapshots it does not keep.
fn not_in_log(what: &str) -> CkptError {
    CkptError::Io(io::Error::new(io::ErrorKind::NotFound, format!("no {what} snapshot in the log")))
}

impl SnapshotStore {
    /// A store rooted at `dir`, tagging every snapshot with `kind`.
    /// The directory is created lazily on the first write.
    pub fn new<P: AsRef<Path>>(dir: P, kind: &str) -> Self {
        SnapshotStore { place: Place::Dir(dir.as_ref().to_path_buf()), kind: kind.to_owned() }
    }

    /// A store for the snapshots of job `key` inside `log`, as frames
    /// of record kind `kind`.
    pub fn in_log(log: Arc<Log>, key: u64, kind: &str) -> Self {
        SnapshotStore { place: Place::Log { log, key }, kind: kind.to_owned() }
    }

    /// The record kind this store reads and writes.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    fn file(&self, name: &str) -> PathBuf {
        match &self.place {
            Place::Dir(dir) => dir.join(name),
            Place::Log { log, .. } => log.path(),
        }
    }

    /// Path of the rolling latest snapshot (the log file for a log
    /// store).
    pub fn latest_path(&self) -> PathBuf {
        self.file("latest.ckpt")
    }

    /// Path of the rolling best snapshot (the log file for a log
    /// store).
    pub fn best_path(&self) -> PathBuf {
        self.file("best.ckpt")
    }

    /// Rolls the latest snapshot: atomically replaces `latest.ckpt`,
    /// or appends a frame to the log.
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] from the underlying write.
    pub fn save_latest<R: Record>(&self, record: &R) -> Result<(), CkptError> {
        match &self.place {
            Place::Dir(_) => write_snapshot(self.latest_path(), &self.kind, record),
            Place::Log { log, key } => log.append(&self.kind, *key, record).map(drop),
        }
    }

    /// Atomically rolls `best.ckpt` (nothing for a log store).
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] from the underlying write.
    pub fn save_best<R: Record>(&self, record: &R) -> Result<(), CkptError> {
        match &self.place {
            Place::Dir(_) => write_snapshot(self.best_path(), &self.kind, record),
            Place::Log { .. } => Ok(()),
        }
    }

    /// Path of the pinned snapshot for `step` (the log file for a log
    /// store).
    pub fn step_path(&self, step: usize) -> PathBuf {
        self.file(&format!("step-{step:08}.ckpt"))
    }

    /// Writes a pinned `step-<n>.ckpt` snapshot (nothing for a log
    /// store).
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] from the underlying write.
    pub fn save_step<R: Record>(&self, step: usize, record: &R) -> Result<(), CkptError> {
        match &self.place {
            Place::Dir(_) => write_snapshot(self.step_path(step), &self.kind, record),
            Place::Log { .. } => Ok(()),
        }
    }

    /// Reads the pinned `step-<n>.ckpt` snapshot.
    ///
    /// # Errors
    ///
    /// As [`SnapshotStore::load_latest`]; always [`CkptError::Io`]
    /// (not found) for a log store.
    pub fn load_step<R: Record>(&self, step: usize) -> Result<R, CkptError> {
        match &self.place {
            Place::Dir(_) => read_snapshot(self.step_path(step), &self.kind),
            Place::Log { .. } => Err(not_in_log("step")),
        }
    }

    /// Reads the latest snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] from the underlying read, including
    /// [`CkptError::Io`] (not found) when no snapshot exists yet.
    pub fn load_latest<R: Record>(&self) -> Result<R, CkptError> {
        match &self.place {
            Place::Dir(_) => read_snapshot(self.latest_path(), &self.kind),
            Place::Log { log, key } => {
                log.read(&self.kind, *key)?.ok_or_else(|| not_in_log("latest"))
            }
        }
    }

    /// Reads `best.ckpt`.
    ///
    /// # Errors
    ///
    /// As [`SnapshotStore::load_latest`]; always [`CkptError::Io`]
    /// (not found) for a log store.
    pub fn load_best<R: Record>(&self) -> Result<R, CkptError> {
        match &self.place {
            Place::Dir(_) => read_snapshot(self.best_path(), &self.kind),
            Place::Log { .. } => Err(not_in_log("best")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn store_rolls_latest_and_best_independently() {
        let dir = std::env::temp_dir().join(format!("rlmul-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, "test");
        store.save_latest(&10u64).unwrap();
        store.save_best(&10u64).unwrap();
        store.save_latest(&20u64).unwrap(); // later but worse
        assert_eq!(store.load_latest::<u64>().unwrap(), 20);
        assert_eq!(store.load_best::<u64>().unwrap(), 10);
        store.save_step(3, &30u64).unwrap();
        assert!(dir.join("step-00000003.ckpt").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_io_error() {
        let store = SnapshotStore::new("/nonexistent/run", "test");
        assert!(matches!(store.load_latest::<u64>(), Err(CkptError::Io(_))));
    }
}
