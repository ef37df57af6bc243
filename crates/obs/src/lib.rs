//! Live observability for RL-MUL: a metrics registry, hierarchical
//! span tracing, Prometheus text exposition over a from-scratch
//! HTTP/1.1 endpoint, and a flamegraph-compatible self-profiler —
//! with no dependencies and `forbid(unsafe_code)`.
//!
//! PR 4's JSONL telemetry answers "what happened" after a run; this
//! crate answers "what is happening" *during* one. The pieces:
//!
//! * [`Registry`] — sharded, lock-cheap [`Counter`]s, [`Gauge`]s and
//!   log-linear [`Histo`]grams (with p50/p95/p99 estimation). The
//!   disabled path is one branch, like `TelemetrySink`, so
//!   instrumentation stays in hot paths unconditionally.
//! * [`Registry::span`] — RAII span guards nesting per thread,
//!   accumulating inclusive/exclusive wall time per root-to-leaf
//!   span path.
//! * [`serve_metrics`] — `GET /metrics` in Prometheus text
//!   exposition format (`rlmul train --metrics-addr 127.0.0.1:9090`).
//! * [`collapsed_stacks`] — span paths as collapsed-stack lines
//!   (`a;b;c 1234`) that `inferno`/`flamegraph.pl` turn into SVG
//!   flamegraphs (`rlmul profile`).
//! * [`global`] — the process-wide gated registry the instrumented
//!   crates (env, cache, synthesis, SAT, NN, agents) record into;
//!   recording is off (one branch per operation) until an entry
//!   point calls `global().enable()`.
//! * [`TraceCtx`] — a per-job trace context (job-scoped trace ID +
//!   monotonic event seq) with a bounded, subscribable event
//!   timeline; disabled by default with the same one-branch
//!   discipline as the registry. The `rlmul serve` daemon mints one
//!   per job and streams it live over `GET /jobs/<id>/events`.
//! * [`json`] — the workspace's one JSON codec: the job API's bodies,
//!   the per-job trace renderer and the JSONL telemetry log all read
//!   and write through it.
//!
//! # Example
//!
//! ```
//! use rlmul_obs::{serve_metrics, Registry};
//!
//! let registry = Registry::new();
//! let steps = registry.counter("demo_steps_total", "Steps taken.");
//! let latency = registry.histogram("demo_step_seconds", "Step latency.");
//! {
//!     let _span = registry.span("step");
//!     steps.inc();
//!     latency.observe(0.004);
//! }
//! let server = serve_metrics(&registry, "127.0.0.1:0")?;
//! println!("scrape http://{}/metrics", server.local_addr());
//! assert!(rlmul_obs::render_prometheus(&registry).contains("demo_steps_total 1"));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod flame;
mod http;
pub mod json;
mod prom;
mod registry;
mod span;
mod trace;

pub use flame::{collapsed_from, collapsed_stacks, render_span_tree};
pub use http::{
    dispatch, handle_connection, read_request, serve_http, serve_metrics, write_response, Handler,
    HttpRequest, HttpResponse, HttpServer, MetricsServer, StreamBody,
};
pub use prom::render_prometheus;
pub use registry::{global, Counter, Gauge, Histo, MetricKind, Registry, SpanStat};
pub use span::SpanGuard;
pub use trace::{TraceCtx, TraceEvent, TRACE_DEFAULT_CAPACITY};
