//! An in-memory [`Storage`] that injects faults: no space left, short
//! writes, failed fsyncs and truncates, bit-rot on read, and crash
//! images that keep the synced bytes plus any prefix of the rest. It
//! does no file I/O, so the log's tests also run under Miri.

use super::{LogFile, Storage};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Faults the shim injects; all off by default.
#[derive(Debug, Default, Clone)]
pub(crate) struct Faults {
    /// Appends that would grow a file past this many bytes write what
    /// fits, then fail with "no space left on device".
    pub(crate) space: Option<u64>,
    /// The next append writes only this many bytes, then fails.
    pub(crate) short_write: Option<usize>,
    /// Every fsync (of a file or the directory) fails.
    pub(crate) fail_sync: bool,
    /// Every truncate fails.
    pub(crate) fail_truncate: bool,
    /// Reads of this byte offset, in any file, see its low bit flipped.
    pub(crate) rot_at: Option<u64>,
}

#[derive(Debug, Default, Clone)]
struct Inode {
    bytes: Vec<u8>,
    synced: usize,
}

#[derive(Debug, Default)]
struct Disk {
    names: BTreeMap<String, usize>,
    inodes: Vec<Inode>,
    faults: Faults,
    syncs: usize,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{what} (injected)"))
}

/// The shim; clones share one disk.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemStorage {
    disk: Arc<Mutex<Disk>>,
}

impl MemStorage {
    fn disk(&self) -> MutexGuard<'_, Disk> {
        self.disk.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A disk holding one file `name` with `bytes`, all synced.
    pub(crate) fn with_file(name: &str, bytes: &[u8]) -> Self {
        let storage = MemStorage::default();
        let mut disk = storage.disk();
        disk.inodes.push(Inode { bytes: bytes.to_vec(), synced: bytes.len() });
        disk.names.insert(name.to_owned(), 0);
        drop(disk);
        storage
    }

    pub(crate) fn set_faults(&self, faults: Faults) {
        self.disk().faults = faults;
    }

    /// The contents of `name` (empty when absent).
    pub(crate) fn bytes(&self, name: &str) -> Vec<u8> {
        let disk = self.disk();
        disk.names.get(name).map(|&i| disk.inodes[i].bytes.clone()).unwrap_or_default()
    }

    /// How many bytes of `name` are durable.
    pub(crate) fn synced(&self, name: &str) -> usize {
        let disk = self.disk();
        disk.names.get(name).map_or(0, |&i| disk.inodes[i].synced)
    }

    /// Successful file fsyncs so far.
    pub(crate) fn syncs(&self) -> usize {
        self.disk().syncs
    }

    /// What a crash could leave behind: a fresh disk with `name` cut
    /// to `len` bytes. The caller keeps every byte that was synced at
    /// the moment of the crash.
    pub(crate) fn crash_image(&self, name: &str, len: usize) -> Self {
        MemStorage::with_file(name, &self.bytes(name)[..len])
    }
}

impl Storage for MemStorage {
    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let mut disk = self.disk();
        let inode = match disk.names.get(name) {
            Some(&i) => i,
            None => {
                disk.inodes.push(Inode::default());
                let i = disk.inodes.len() - 1;
                disk.names.insert(name.to_owned(), i);
                i
            }
        };
        Ok(Box::new(MemFile { disk: Arc::clone(&self.disk), inode }))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut disk = self.disk();
        let inode =
            disk.names.remove(from).ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        disk.names.insert(to.to_owned(), inode);
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        if self.disk().faults.fail_sync {
            return Err(injected("directory fsync failed"));
        }
        Ok(())
    }

    fn path(&self, name: &str) -> PathBuf {
        PathBuf::from(name)
    }
}

struct MemFile {
    disk: Arc<Mutex<Disk>>,
    inode: usize,
}

impl MemFile {
    fn disk(&self) -> MutexGuard<'_, Disk> {
        self.disk.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl LogFile for MemFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.disk().inodes[self.inode].bytes.len() as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let disk = self.disk();
        let bytes = &disk.inodes[self.inode].bytes;
        let start = offset as usize;
        let Some(src) = bytes.get(start..start + buf.len()) else {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
        };
        buf.copy_from_slice(src);
        if let Some(rot) = disk.faults.rot_at {
            if (offset..offset + buf.len() as u64).contains(&rot) {
                buf[(rot - offset) as usize] ^= 1;
            }
        }
        Ok(())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut disk = self.disk();
        let len = disk.inodes[self.inode].bytes.len();
        let (fits, fault) = if let Some(n) = disk.faults.short_write.take() {
            (n.min(bytes.len()), Some("short write"))
        } else {
            match disk.faults.space {
                Some(space) if (len + bytes.len()) as u64 > space => {
                    ((space as usize).saturating_sub(len), Some("no space left on device"))
                }
                _ => (bytes.len(), None),
            }
        };
        disk.inodes[self.inode].bytes.extend_from_slice(&bytes[..fits]);
        match fault {
            Some(what) => Err(injected(what)),
            None => Ok(()),
        }
    }

    fn sync(&self) -> io::Result<()> {
        let mut disk = self.disk();
        if disk.faults.fail_sync {
            return Err(injected("fsync failed"));
        }
        let inode = &mut disk.inodes[self.inode];
        inode.synced = inode.bytes.len();
        disk.syncs += 1;
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let mut disk = self.disk();
        if disk.faults.fail_truncate {
            return Err(injected("truncate failed"));
        }
        let inode = &mut disk.inodes[self.inode];
        inode.bytes.resize(len as usize, 0);
        inode.synced = inode.synced.min(inode.bytes.len());
        Ok(())
    }
}
