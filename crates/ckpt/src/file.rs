//! Framed snapshot files with atomic replacement.
//!
//! On-disk layout, all little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RLMULCK1"
//! 8       4     format version (FORMAT_VERSION)
//! 12      8+k   record kind, length-prefixed UTF-8 (k bytes)
//! …       8     payload length n
//! …       n     payload (the Record's encoding)
//! …       4     CRC-32 over every preceding byte
//! ```
//!
//! Writes are atomic with respect to crashes: bytes go to a `.tmp`
//! sibling which is fsynced, renamed over the destination, and the
//! parent directory is fsynced so the rename itself is durable. A
//! reader therefore sees either the old snapshot or the new one,
//! never a torn mixture; torn `.tmp` files from a crash are simply
//! ignored by the next run.

use crate::codec::{Decoder, Encoder, Record};
use crate::crc::crc32;
use crate::CkptError;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Magic bytes identifying an RL-MUL snapshot file.
pub const MAGIC: &[u8; 8] = b"RLMULCK1";

/// Current snapshot format version. Bump on any incompatible layout
/// change; readers reject other versions outright.
pub const FORMAT_VERSION: u32 = 1;

/// Encodes `record` and writes it atomically to `path`.
///
/// `kind` tags the record type (for example `"dqn"` or `"a2c"`) so a
/// resume of the wrong agent fails with a clear error instead of a
/// garbled decode. The parent directory is created if missing.
///
/// # Errors
///
/// Propagates filesystem errors as [`CkptError::Io`].
pub fn write_snapshot<R: Record, P: AsRef<Path>>(
    path: P,
    kind: &str,
    record: &R,
) -> Result<(), CkptError> {
    let path = path.as_ref();
    let mut enc = Encoder::new();
    record.encode(&mut enc);
    let frame = frame(kind, &enc.into_bytes());

    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&frame)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is a Unix
    // notion; elsewhere the rename alone is the best available.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Reads, verifies and decodes the snapshot at `path`.
///
/// `expected_kind` must match the tag the snapshot was written with;
/// pass the same constant the writer used.
///
/// # Errors
///
/// * [`CkptError::Io`] for filesystem failures;
/// * [`CkptError::WrongFormat`] for bad magic, an unsupported
///   version, or a kind mismatch;
/// * [`CkptError::Corrupted`] when the CRC does not match;
/// * any decoding error from the payload.
pub fn read_snapshot<R: Record, P: AsRef<Path>>(
    path: P,
    expected_kind: &str,
) -> Result<R, CkptError> {
    let bytes = fs::read(path.as_ref())?;
    let (kind, payload) = unframe(&bytes)?;
    if kind != expected_kind {
        return Err(CkptError::WrongFormat {
            what: format!("snapshot kind `{kind}` (expected `{expected_kind}`)"),
        });
    }
    R::from_bytes(payload)
}

/// Wraps `payload` in one frame tagged `kind` (the layout in the
/// module docs). Snapshot files hold exactly one frame; the job log
/// holds a sequence of them.
pub(crate) fn frame(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + kind.len() + FRAME_OVERHEAD);
    frame.extend_from_slice(MAGIC);
    frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    frame.extend_from_slice(&(kind.len() as u64).to_le_bytes());
    frame.extend_from_slice(kind.as_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Bytes a frame adds around its kind and payload: magic, version,
/// two length prefixes and the CRC.
pub(crate) const FRAME_OVERHEAD: usize = 8 + 4 + 8 + 8 + 4;

/// Verifies one whole frame and returns its kind and payload.
///
/// # Errors
///
/// [`CkptError::WrongFormat`] for bad magic or another format version,
/// [`CkptError::Corrupted`] for a CRC mismatch, and the decoder's
/// errors for inconsistent length fields.
pub(crate) fn unframe(bytes: &[u8]) -> Result<(String, &[u8]), CkptError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(CkptError::WrongFormat { what: "file shorter than the header".into() });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::WrongFormat { what: "bad magic (not an RL-MUL snapshot)".into() });
    }
    // Verify integrity before trusting any length field.
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = crc_bytes.iter().rev().fold(0u32, |acc, &b| acc << 8 | u32::from(b));
    let computed = crc32(body);
    if stored != computed {
        return Err(CkptError::Corrupted { stored, computed });
    }

    let mut dec = Decoder::new(&body[MAGIC.len()..]);
    let version = dec.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::WrongFormat {
            what: format!("format version {version} (this build reads {FORMAT_VERSION})"),
        });
    }
    let kind = dec.get_str()?;
    let payload = dec.get_bytes()?;
    dec.finish()?;
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rlmul-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("latest.ckpt");
        let record: Vec<(u64, f64)> = vec![(3, 0.25), (4, -1.0)];
        write_snapshot(&path, "test", &record).unwrap();
        let back: Vec<(u64, f64)> = read_snapshot(&path, "test").unwrap();
        assert_eq!(back, record);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrite_replaces_previous_snapshot() {
        let dir = tmpdir("overwrite");
        let path = dir.join("latest.ckpt");
        write_snapshot(&path, "test", &1u64).unwrap();
        write_snapshot(&path, "test", &2u64).unwrap();
        assert_eq!(read_snapshot::<u64, _>(&path, "test").unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bit_is_detected_by_crc() {
        let dir = tmpdir("crc");
        let path = dir.join("latest.ckpt");
        write_snapshot(&path, "test", &vec![7u64; 16]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot::<Vec<u64>, _>(&path, "test"),
            Err(CkptError::Corrupted { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_and_version_mismatches_are_wrong_format() {
        let dir = tmpdir("kind");
        let path = dir.join("latest.ckpt");
        write_snapshot(&path, "dqn", &0u64).unwrap();
        assert!(matches!(
            read_snapshot::<u64, _>(&path, "a2c"),
            Err(CkptError::WrongFormat { .. })
        ));
        fs::write(&path, b"NOTMAGIC").unwrap();
        assert!(matches!(
            read_snapshot::<u64, _>(&path, "dqn"),
            Err(CkptError::WrongFormat { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = tmpdir("trunc");
        let path = dir.join("latest.ckpt");
        write_snapshot(&path, "test", &vec![1u64, 2, 3]).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(read_snapshot::<Vec<u64>, _>(&path, "test").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
