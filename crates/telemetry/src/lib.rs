//! Structured JSONL telemetry for long-running RL-MUL experiments.
//!
//! Episodic synthesis runs take hours; per-episode telemetry is the
//! only way to diagnose a reward collapse or a cache regression after
//! the fact. This crate provides:
//!
//! * [`Event`] — a flat, ordered key →
//!   [`JsonValue`](rlmul_obs::json::JsonValue) record with a
//!   kind tag and a monotonic sequence number;
//! * its JSONL form ([`Event::to_json`], [`Event::parse_json`]) — one
//!   JSON object per line, written and read through the workspace's
//!   one codec ([`rlmul_obs::json`]), lossless for the value types
//!   used;
//! * [`TelemetrySink`] — a cheaply cloneable handle the environment,
//!   agents and drivers emit into. The disabled sink
//!   ([`TelemetrySink::disabled`]) reduces every emit to a single
//!   branch, so instrumented hot paths cost nothing when telemetry is
//!   off;
//! * [`TelemetryWriter`] — the owning side of a file sink: a bounded
//!   ring buffer drained by a background thread. `emit` never blocks
//!   on I/O; when the buffer is full the oldest record is dropped and
//!   counted, trading completeness for zero back-pressure on the
//!   training loop;
//! * [`Summary`] — the aggregation behind `rlmul report`: reads a
//!   JSONL run log and renders per-kind tables (episode rewards,
//!   phase timings, cache hit rates, NN work).
//!
//! # Example
//!
//! ```
//! use rlmul_obs::json::JsonValue;
//! use rlmul_telemetry::Event;
//!
//! let e = Event::new("episode")
//!     .with("step", 3u64)
//!     .with("reward", 0.25f64)
//!     .with("kind", "and");
//! let line = e.to_json();
//! let back = Event::parse_json(&line)?;
//! assert_eq!(back.kind(), "episode");
//! assert_eq!(back.get_f64("reward"), Some(0.25));
//! assert_eq!(back.get("kind"), Some(&JsonValue::Str("and".into())));
//! # Ok::<(), rlmul_telemetry::TelemetryError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod report;
mod sink;

pub use event::{Event, TelemetryError};
pub use report::Summary;
pub use sink::{TelemetrySink, TelemetryWriter};
