//! `rlmul serve` — the multi-tenant optimization job server.
//!
//! A long-running daemon that accepts concurrent multiplier
//! optimization jobs over HTTP (the from-scratch `rlmul-obs` HTTP/1.1
//! layer), runs them on a bounded worker pool behind a FIFO+priority
//! queue, and survives `kill -9` at any instant:
//!
//! * every job lifecycle transition is persisted through the
//!   `rlmul-ckpt` atomic snapshot machinery (record kind `"job"`), so
//!   a restarted daemon re-adopts queued jobs and resumes running
//!   ones from their last driver snapshot without repeating completed
//!   synthesis work;
//! * all jobs of all tenants share one [`rlmul_core::EvalCache`], so
//!   a second tenant optimizing the same design rides on the first
//!   tenant's synthesis results;
//! * every new lock, condvar and channel is an `rlmul_check::sync`
//!   facade primitive — lockdep-tracked in production (`--lockdep
//!   on`) and model-checkable in the `loom-lite` scheduler (the
//!   queue handoff and cancellation paths are checked in
//!   `tests/model_check.rs`).
//!
//! The crate splits into:
//!
//! * [`job`] — the job model: spec, lifecycle state machine, result
//!   summary, durable record;
//! * [`queue`] — the FIFO+priority job queue (facade mutex+condvar);
//! * [`server`] — the daemon: recovery, worker pool, HTTP front end;
//! * [`api`] — the HTTP route table (documented route-by-route in
//!   DESIGN.md §16);
//! * [`json`] — re-export of [`rlmul_obs::json`], the JSON codec the
//!   API speaks;
//! * [`trace`] — durable per-job traces: the persisted record and the
//!   rendering shared by `GET /jobs/:id/trace` and the live
//!   `GET /jobs/:id/events` stream;
//! * [`client`] — the minimal HTTP/1.1 client `rlmul trace` and the
//!   integration tests drive a live daemon with.
//!
//! # Example
//!
//! ```no_run
//! use rlmul_serve::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     dir: "serve-state".into(),
//!     ..Default::default()
//! })?;
//! println!("serving jobs at http://{}/", server.local_addr());
//! // ... accept and run jobs until it is time to drain:
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod client;
pub mod job;
pub mod queue;
pub mod server;
pub mod trace;

pub use rlmul_obs::json;

pub use job::{JobRecord, JobResult, JobSpec, JobState, Method, Pref, JOB_RECORD_KIND};
pub use queue::JobQueue;
pub use server::{ServeConfig, Server};
pub use trace::{render_event, TraceRecord, TRACE_RECORD_KIND};
