//! One append-only, group-committed log of keyed frames.
//!
//! [`write_snapshot`](crate::write_snapshot) pays a tmp file, an
//! fsync, a rename and a directory fsync for every record. A daemon
//! that persists several small records per job instead appends them
//! all to one file, and one `fdatasync` covers every frame appended
//! since the previous one (group commit).
//!
//! # Layout
//!
//! The file is a sequence of snapshot frames (the layout in
//! [`crate::file`]) whose payload starts with the frame's key:
//!
//! ```text
//! magic | version | kind | payload length | key (u64 LE) + record | CRC-32
//! ```
//!
//! For each `(kind, key)` only the newest frame is live. The log keeps
//! an in-memory index of where those frames sit — a few words per key,
//! never frame contents.
//!
//! # Durability
//!
//! [`Log::append`] writes a frame (to the page cache) and returns its
//! [`Lsn`]; [`Log::commit`] returns once every frame up to that LSN is
//! durable. Committers arriving while an fsync is in flight wait for
//! it and, if it did not cover them, one of them issues the next, so
//! any number of concurrent commits costs at most two fsyncs.
//!
//! # Recovery
//!
//! [`Log::open`] replays frames from the start up to the first one
//! that fails to verify. If no valid frame follows it, the rest is the
//! torn tail of a crash mid-append and is cut off. If a valid frame
//! does follow, the damage sits in the middle of the log — bit-rot, not
//! a crash — and opening fails with [`CkptError::DamagedLog`] rather
//! than drop the frames after it. (Damage to the very last frame cannot
//! be told apart from a torn tail.)
//!
//! # Compaction
//!
//! [`Log::compact`] streams the indexed frames, one at a time, into
//! `<name>.compact`, fsyncs it, renames it over the log and fsyncs the
//! directory; a crash at any point leaves one complete log. A commit
//! also compacts on its own once the file passes 64 MiB and is more
//! than half dead frames.

use crate::codec::{Decoder, Encoder, Record};
use crate::file::{frame, unframe, FORMAT_VERSION, FRAME_OVERHEAD, MAGIC};
use crate::CkptError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Log size past which a commit compacts, provided more than half of
/// the file is dead frames.
const COMPACT_AT: u64 = 64 << 20;

/// Longest record kind a frame may carry; a longer length field marks
/// a damaged frame instead of an allocation request.
const MAX_KIND: u64 = 255;

/// Fixed part of a frame header: magic, version, kind length.
const HEAD: u64 = 8 + 4 + 8;

/// Bytes read per step while looking for a valid frame after a damaged one.
const SCAN_CHUNK: u64 = 64 << 10;

/// The file system under a [`Log`]: one directory of named files.
/// [`DirStorage`] is the real one; tests put a fault-injecting shim
/// here.
pub trait Storage: Send + Sync {
    /// Opens `name` for reading and appending, creating it empty when
    /// absent.
    ///
    /// # Errors
    ///
    /// The file system's.
    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>>;

    /// Renames `from` over `to`.
    ///
    /// # Errors
    ///
    /// The file system's; on error `to` is unchanged.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Makes file creations and renames in the directory durable.
    ///
    /// # Errors
    ///
    /// The file system's.
    fn sync_dir(&self) -> io::Result<()>;

    /// Where `name` lives, for messages.
    fn path(&self, name: &str) -> PathBuf;
}

/// One open file of a [`Storage`].
pub trait LogFile: Send + Sync {
    /// Current size in bytes.
    ///
    /// # Errors
    ///
    /// The file system's.
    fn size(&self) -> io::Result<u64>;

    /// Fills `buf` from the bytes at `offset`.
    ///
    /// # Errors
    ///
    /// The file system's, including a read past the end.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Appends all of `bytes` at the end of the file.
    ///
    /// # Errors
    ///
    /// The file system's; a prefix of `bytes` may have been written.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;

    /// Makes every appended byte durable (`fdatasync`).
    ///
    /// # Errors
    ///
    /// The file system's; durability of unsynced bytes is then unknown.
    fn sync(&self) -> io::Result<()>;

    /// Cuts the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// The file system's.
    fn truncate(&self, len: u64) -> io::Result<()>;
}

/// [`Storage`] on a real directory.
#[derive(Debug, Clone)]
pub struct DirStorage {
    dir: PathBuf,
}

impl DirStorage {
    /// Storage for the files in `dir`, which must exist.
    pub fn new<P: AsRef<Path>>(dir: P) -> Self {
        DirStorage { dir: dir.as_ref().to_path_buf() }
    }
}

impl Storage for DirStorage {
    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new().read(true).append(true).create(true).open(self.path(name))?;
        Ok(Box::new(DiskFile(file)))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Directory fsync is a Unix notion; elsewhere the rename alone
        // is the best available.
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// A file opened for append. Reads seek the shared cursor, which is
/// safe because [`Log`] never reads one file from two threads at once
/// and appends always go to the end.
struct DiskFile(File);

impl LogFile for DiskFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut f = &self.0;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.0).write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

/// A position in the stream of appended bytes: [`Log::commit`] of an
/// LSN makes every frame appended up to it durable. LSNs grow across
/// compactions, unlike file offsets. The default LSN precedes every frame, so committing it returns at
/// once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lsn(u64);

/// Where one live frame sits in the file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: u64,
}

/// A verified frame's identity, as replay and lookups see it.
struct FrameInfo {
    kind: String,
    key: u64,
    len: u64,
}

struct State {
    file: Arc<dyn LogFile>,
    /// Bytes in the file.
    len: u64,
    /// Bytes appended since open; the LSN of the newest frame.
    appended: u64,
    /// Every byte up to this LSN is durable.
    durable: u64,
    /// An fsync is in flight (outside the lock).
    syncing: bool,
    /// The file was created empty and its directory entry is not
    /// yet known durable; the next commit syncs the directory too.
    dir_sync_due: bool,
    /// Set when a failed fsync (or an unrepairable short append) left
    /// the file in an unknown state; every later write fails.
    broken: Option<String>,
    /// Live frames: `kind → key → slot`.
    index: BTreeMap<String, BTreeMap<u64, Slot>>,
    /// Bytes of the live frames.
    live: u64,
    /// File size at which a commit next considers compacting.
    compact_at: u64,
}

impl State {
    fn index_frame(&mut self, kind: &str, key: u64, slot: Slot) {
        let old = match self.index.get_mut(kind) {
            Some(keys) => keys.insert(key, slot),
            None => {
                self.index.entry(kind.to_owned()).or_default().insert(key, slot);
                None
            }
        };
        self.live = self.live + slot.len - old.map_or(0, |s| s.len);
    }

    fn check_usable(&self) -> Result<(), CkptError> {
        match &self.broken {
            Some(why) => Err(CkptError::Io(io::Error::other(format!(
                "log unusable after an earlier failure: {why}"
            )))),
            None => Ok(()),
        }
    }
}

/// An append-only log of keyed, typed frames with group commit; see
/// the module docs.
pub struct Log {
    storage: Box<dyn Storage>,
    name: String,
    /// Leaf lock: nothing else is locked while it is held, and the
    /// only fsync under it is a compaction's.
    state: Mutex<State>,
    /// Signalled whenever an fsync finishes.
    synced: Condvar,
    torn: u64,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log").field("path", &self.path()).finish_non_exhaustive()
    }
}

impl Log {
    /// Opens (or creates) the log `name` in `storage` and replays it:
    /// indexes every valid frame and cuts off a torn tail.
    ///
    /// # Errors
    ///
    /// [`CkptError::DamagedLog`] when a damaged frame has valid frames
    /// after it; [`CkptError::Io`] for storage failures.
    pub fn open(storage: impl Storage + 'static, name: &str) -> Result<Log, CkptError> {
        let file: Arc<dyn LogFile> = Arc::from(storage.open(name)?);
        let size = file.size()?;
        let mut state = State {
            file: Arc::clone(&file),
            len: 0,
            appended: 0,
            durable: 0,
            syncing: false,
            dir_sync_due: size == 0,
            broken: None,
            index: BTreeMap::new(),
            live: 0,
            compact_at: 0,
        };
        let mut at = 0;
        while at < size {
            match read_frame(&*file, at, size) {
                Ok(frame) => {
                    state.index_frame(&frame.kind, frame.key, Slot { offset: at, len: frame.len });
                    at += frame.len;
                }
                Err(CkptError::Io(e)) => return Err(CkptError::Io(e)),
                Err(damage) => {
                    if let Some(next_valid) = next_valid_frame(&*file, at + 1, size)? {
                        return Err(CkptError::DamagedLog {
                            offset: at,
                            next_valid,
                            cause: damage.to_string(),
                        });
                    }
                    break;
                }
            }
        }
        if at < size {
            file.truncate(at)?;
            file.sync()?;
        }
        state.len = at;
        state.compact_at = COMPACT_AT.max(2 * state.live);
        Ok(Log {
            storage: Box::new(storage),
            name: name.to_owned(),
            state: Mutex::new(state),
            synced: Condvar::new(),
            torn: size - at,
        })
    }

    /// Every update of `State` runs to completion without a panic, so
    /// a guard recovered from a poisoned lock still sees valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where the log lives.
    pub fn path(&self) -> PathBuf {
        self.storage.path(&self.name)
    }

    /// Bytes of torn tail that [`Log::open`] cut off.
    pub fn torn_bytes(&self) -> u64 {
        self.torn
    }

    /// Appends `record` as the newest frame for `(kind, key)`. The
    /// frame is readable at once and durable after a [`Log::commit`]
    /// of the returned LSN (or any later one).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the write fails (the partial frame is
    /// cut off again, so later frames stay reachable) or the log is
    /// unusable after an earlier failure.
    pub fn append<R: Record>(&self, kind: &str, key: u64, record: &R) -> Result<Lsn, CkptError> {
        let mut enc = Encoder::new();
        enc.put_u64(key);
        record.encode(&mut enc);
        let bytes = frame(kind, &enc.into_bytes());
        let len = bytes.len() as u64;
        let mut st = self.lock();
        st.check_usable()?;
        if let Err(e) = st.file.append(&bytes) {
            if let Err(cut) = st.file.truncate(st.len) {
                st.broken = Some(format!("append failed ({e}); cutting it off failed ({cut})"));
            }
            return Err(e.into());
        }
        let slot = Slot { offset: st.len, len };
        st.len += len;
        st.appended += len;
        st.index_frame(kind, key, slot);
        Ok(Lsn(st.appended))
    }

    /// The LSN of the newest frame; committing it makes everything
    /// appended so far durable.
    pub fn tail(&self) -> Lsn {
        Lsn(self.lock().appended)
    }

    /// Returns once every frame up to `lsn` is durable, issuing the
    /// fsync itself unless one already in flight covers `lsn`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the fsync fails; the log is unusable from
    /// then on, since the state of the unsynced bytes is unknown.
    pub fn commit(&self, lsn: Lsn) -> Result<(), CkptError> {
        let mut st = self.lock();
        loop {
            if st.durable >= lsn.0 {
                return Ok(());
            }
            st.check_usable()?;
            if st.syncing {
                st = self.synced.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st.syncing = true;
            let target = st.appended;
            let dir_due = st.dir_sync_due;
            let file = Arc::clone(&st.file);
            drop(st);
            let synced =
                file.sync().and_then(|()| if dir_due { self.storage.sync_dir() } else { Ok(()) });
            st = self.lock();
            st.syncing = false;
            self.synced.notify_all();
            match synced {
                Ok(()) => {
                    st.durable = st.durable.max(target);
                    st.dir_sync_due &= !dir_due;
                    if st.len >= st.compact_at && st.len > 2 * st.live {
                        // A failed compaction leaves the old, complete
                        // log in place; it is retried once the file
                        // has doubled.
                        let _ = self.compact_locked(&mut st);
                        st.compact_at = COMPACT_AT.max(2 * st.len);
                    }
                }
                Err(e) => st.broken = Some(format!("fsync failed: {e}")),
            }
        }
    }

    /// The newest record for `(kind, key)`, or `None` when there is
    /// none.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for read failures, and the frame and decoding
    /// errors of [`crate::read_snapshot`] when the stored bytes no
    /// longer verify.
    pub fn read<R: Record>(&self, kind: &str, key: u64) -> Result<Option<R>, CkptError> {
        let bytes = {
            let st = self.lock();
            match st.index.get(kind).and_then(|keys| keys.get(&key)) {
                Some(slot) => read_bytes(&*st.file, slot.offset, slot.len)?,
                None => return Ok(None),
            }
        };
        let (stored_kind, payload) = unframe(&bytes)?;
        let mut dec = Decoder::new(payload);
        let stored_key = dec.get_u64()?;
        if stored_kind != kind || stored_key != key {
            return Err(CkptError::Invalid {
                what: format!(
                    "log frame `{stored_kind}`/{stored_key} where `{kind}`/{key} was indexed"
                ),
            });
        }
        let record = R::decode(&mut dec)?;
        dec.finish()?;
        Ok(Some(record))
    }

    /// Keys with a live frame of `kind`, ascending.
    pub fn keys(&self, kind: &str) -> Vec<u64> {
        self.lock().index.get(kind).map(|keys| keys.keys().copied().collect()).unwrap_or_default()
    }

    /// Drops `(kind, key)` from the live set: [`Log::read`] no longer
    /// finds it and the next compaction leaves its frames out. A
    /// replay of the file before that compaction brings it back.
    pub fn forget(&self, kind: &str, key: u64) {
        let mut st = self.lock();
        if let Some(slot) = st.index.get_mut(kind).and_then(|keys| keys.remove(&key)) {
            st.live -= slot.len;
        }
    }

    /// Rewrites the log to hold only its live frames (see the module
    /// docs); a no-op when there are no dead frames.
    ///
    /// # Errors
    ///
    /// Storage failures and frames that no longer verify; the old log
    /// then stays in place unless the rename already happened, in
    /// which case only the directory sync failed and the next commit
    /// repeats it.
    pub fn compact(&self) -> Result<(), CkptError> {
        let mut st = self.lock();
        while st.syncing {
            st = self.synced.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.check_usable()?;
        if st.len == st.live {
            return Ok(());
        }
        self.compact_locked(&mut st)
    }

    fn compact_locked(&self, st: &mut State) -> Result<(), CkptError> {
        let tmp_name = format!("{}.compact", self.name);
        let tmp: Arc<dyn LogFile> = Arc::from(self.storage.open(&tmp_name)?);
        tmp.truncate(0)?;
        let mut order: Vec<(Slot, String, u64)> = st
            .index
            .iter()
            .flat_map(|(kind, keys)| {
                keys.iter().map(move |(&key, &slot)| (slot, kind.clone(), key))
            })
            .collect();
        order.sort_by_key(|(slot, _, _)| slot.offset);
        let mut index: BTreeMap<String, BTreeMap<u64, Slot>> = BTreeMap::new();
        let mut at = 0;
        for (slot, kind, key) in order {
            let bytes = read_bytes(&*st.file, slot.offset, slot.len)?;
            // Never carry damage into the new file.
            unframe(&bytes)?;
            tmp.append(&bytes)?;
            index.entry(kind).or_default().insert(key, Slot { offset: at, len: slot.len });
            at += slot.len;
        }
        tmp.sync()?;
        self.storage.rename(&tmp_name, &self.name)?;
        st.file = tmp;
        st.len = at;
        st.live = at;
        st.index = index;
        st.durable = st.appended;
        st.dir_sync_due = true;
        self.storage.sync_dir()?;
        st.dir_sync_due = false;
        Ok(())
    }
}

fn read_bytes(file: &dyn LogFile, offset: u64, len: u64) -> Result<Vec<u8>, CkptError> {
    let len = usize::try_from(len)
        .map_err(|_| CkptError::Invalid { what: format!("frame of {len} bytes") })?;
    let mut buf = vec![0; len];
    file.read_exact_at(offset, &mut buf)?;
    Ok(buf)
}

/// Reads and verifies the frame at `at` of a file of `size` bytes.
/// Only [`CkptError::Io`] means the read itself failed; every other
/// error means the bytes there are not a valid frame.
fn read_frame(file: &dyn LogFile, at: u64, size: u64) -> Result<FrameInfo, CkptError> {
    let room = size - at;
    let truncated = |what, needed: u64| CkptError::Truncated {
        what,
        needed: usize::try_from(needed).unwrap_or(usize::MAX),
    };
    if room < HEAD {
        return Err(truncated("frame header", HEAD - room));
    }
    let head = read_bytes(file, at, HEAD)?;
    if head[..MAGIC.len()] != MAGIC[..] {
        return Err(CkptError::WrongFormat { what: "bad magic (not a log frame)".into() });
    }
    let mut dec = Decoder::new(&head[MAGIC.len()..]);
    let version = dec.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::WrongFormat { what: format!("format version {version}") });
    }
    let kind_len = dec.get_u64()?;
    if kind_len > MAX_KIND {
        return Err(CkptError::Invalid { what: format!("kind of {kind_len} bytes") });
    }
    if room < HEAD + kind_len + 8 {
        return Err(truncated("frame header", HEAD + kind_len + 8 - room));
    }
    let payload_len = Decoder::new(&read_bytes(file, at + HEAD + kind_len, 8)?).get_u64()?;
    let len = (FRAME_OVERHEAD as u64 + kind_len)
        .checked_add(payload_len)
        .ok_or_else(|| CkptError::Invalid { what: format!("payload of {payload_len} bytes") })?;
    if room < len {
        return Err(truncated("frame", len - room));
    }
    let bytes = read_bytes(file, at, len)?;
    let (kind, payload) = unframe(&bytes)?;
    let key = Decoder::new(payload).get_u64()?;
    Ok(FrameInfo { kind, key, len })
}

/// Offset of the first valid frame at or after `from`, found by
/// scanning for the magic bytes one bounded chunk at a time.
fn next_valid_frame(file: &dyn LogFile, from: u64, size: u64) -> Result<Option<u64>, CkptError> {
    let magic = MAGIC.len() as u64;
    let mut pos = from;
    while pos + magic <= size {
        let chunk = read_bytes(file, pos, SCAN_CHUNK.min(size - pos))?;
        for (i, window) in chunk.windows(MAGIC.len()).enumerate() {
            if window != &MAGIC[..] {
                continue;
            }
            match read_frame(file, pos + i as u64, size) {
                Ok(_) => return Ok(Some(pos + i as u64)),
                Err(CkptError::Io(e)) => return Err(CkptError::Io(e)),
                Err(_) => {}
            }
        }
        // Overlap chunks so a magic across the boundary is seen.
        pos += chunk.len() as u64 - (magic - 1);
    }
    Ok(None)
}

#[cfg(test)]
mod shim;
#[cfg(test)]
mod tests;
