//! Checkpoint error type.

use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced while encoding, decoding or storing snapshots.
#[derive(Debug)]
#[non_exhaustive]
pub enum CkptError {
    /// The byte stream ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed beyond the end of the stream.
        needed: usize,
    },
    /// A decoded value is outside its legal domain (bad enum tag,
    /// boolean byte, oversized length, …).
    Invalid {
        /// Human-readable description.
        what: String,
    },
    /// The payload checksum does not match the stored CRC-32.
    Corrupted {
        /// CRC recorded in the file.
        stored: u32,
        /// CRC computed over the payload read.
        computed: u32,
    },
    /// The file is not an RL-MUL snapshot (bad magic), has an
    /// unsupported format version, or holds a different record kind.
    WrongFormat {
        /// Human-readable description.
        what: String,
    },
    /// Decoding finished with unread bytes left in the stream.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A log frame failed verification and a valid frame follows it:
    /// the damage sits mid-log rather than in a torn tail, so the log
    /// is refused instead of losing the frames after it.
    DamagedLog {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Byte offset of the next valid frame.
        next_valid: u64,
        /// Why the frame failed to verify.
        cause: String,
    },
    /// An operating-system I/O failure.
    Io(io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { what, needed } => {
                write!(f, "truncated snapshot: {needed} byte(s) missing while decoding {what}")
            }
            CkptError::Invalid { what } => write!(f, "invalid snapshot value: {what}"),
            CkptError::Corrupted { stored, computed } => write!(
                f,
                "snapshot corrupted: stored CRC {stored:#010x}, computed {computed:#010x}"
            ),
            CkptError::WrongFormat { what } => write!(f, "wrong snapshot format: {what}"),
            CkptError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing byte(s) after the last record")
            }
            CkptError::DamagedLog { offset, next_valid, cause } => write!(
                f,
                "log damaged at byte {offset} ({cause}); a valid frame follows at byte \
                 {next_valid}, so this is not a torn tail and nothing is dropped"
            ),
            CkptError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl Error for CkptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}
