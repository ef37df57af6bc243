//! Versioned binary snapshot codec and crash-safe checkpoint store.
//!
//! Long RL-MUL runs spend hours of synthesis wall-clock per
//! configuration; a crash that loses a run is the dominant cost at
//! scale. This crate is the durable-state substrate the training
//! runtime builds on:
//!
//! * [`Encoder`]/[`Decoder`] — a hand-rolled little-endian byte codec
//!   (no serde, no external dependencies) with explicit length
//!   prefixes, so every snapshot is a pure function of the values
//!   written and decoding never reads past a corrupted length;
//! * [`Record`] — the encode/decode trait snapshot types implement,
//!   with blanket implementations for primitives, tuples, `Option`
//!   and `Vec`;
//! * [`write_snapshot`]/[`read_snapshot`] — a framed container
//!   (magic, format version, record tag, payload, CRC-32) written
//!   atomically: the bytes go to a temporary file which is fsynced
//!   and then renamed over the destination, so a crash mid-write
//!   never corrupts the previous snapshot;
//! * [`SnapshotStore`] — rolling `latest`/`best` snapshots plus
//!   optional step-tagged history inside one run directory, or the
//!   latest snapshot of one job inside a [`Log`];
//! * [`Log`] — one append-only, group-committed file of keyed frames
//!   over a [`Storage`], with crash recovery and compaction; the job
//!   server keeps all of its state in one.
//!
//! # Example
//!
//! ```
//! use rlmul_ckpt::{Decoder, Encoder, Record};
//!
//! // Any record round-trips through the byte codec.
//! let mut enc = Encoder::new();
//! (7u64, vec![1.5f64, -2.5]).encode(&mut enc);
//! let bytes = enc.into_bytes();
//! let mut dec = Decoder::new(&bytes);
//! let back = <(u64, Vec<f64>)>::decode(&mut dec)?;
//! dec.finish()?; // every byte consumed
//! assert_eq!(back, (7, vec![1.5, -2.5]));
//! # Ok::<(), rlmul_ckpt::CkptError>(())
//! ```
//!
//! File-level framing adds integrity on top:
//!
//! ```no_run
//! use rlmul_ckpt::{read_snapshot, write_snapshot};
//!
//! write_snapshot("run/latest.ckpt", "demo", &42u64)?;
//! let value: u64 = read_snapshot("run/latest.ckpt", "demo")?;
//! assert_eq!(value, 42);
//! # Ok::<(), rlmul_ckpt::CkptError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod codec;
mod crc;
mod error;
mod file;
mod log;
mod store;

pub use codec::{Decoder, Encoder, Record};
pub use crc::crc32;
pub use error::CkptError;
pub use file::{read_snapshot, write_snapshot, FORMAT_VERSION, MAGIC};
pub use log::{DirStorage, Log, LogFile, Lsn, Storage};
pub use store::SnapshotStore;
