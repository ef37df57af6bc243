//! Concurrency & determinism analysis for the RL-MUL workspace.
//!
//! The repository's north-star items (the multi-tenant `rlmul serve`
//! daemon and PrefixRL-scale distributed training) pile heavy
//! concurrency onto the sharded coalescing eval cache, the telemetry
//! ring writer and the job server's worker threads — and they inherit the
//! bit-identical resume guarantees of the snapshot layer. This crate
//! is the tooling that *proves* those primitives and invariants
//! sound, the way the SAT-based CEC proves netlist rewrites sound.
//! Three pillars, all from scratch and dependency-free:
//!
//! * [`lint`] — a lightweight Rust source scanner enforcing project
//!   invariants as deny-by-default rules (`rlmul check-src` /
//!   `cargo run -p rlmul-check`): no wall-clock reads in
//!   determinism-critical code, no `HashMap`/`HashSet` in
//!   ordering-critical (snapshot/telemetry) files, no panicking
//!   calls in paths that read untrusted bytes, and per-crate
//!   `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]` contract
//!   checks. Findings are suppressed only by an inline
//!   `// check: allow(<rule>)` escape on (or immediately above) the
//!   offending line, so every exception is visible and justified in
//!   the source.
//! * [`sync`] — drop-in `Mutex`/`RwLock`/`Condvar`/channel/thread
//!   wrappers adopted by the concurrent subsystems. When nothing is
//!   enabled they delegate straight to [`std::sync`] behind a single
//!   relaxed atomic load (the same gating discipline as the
//!   `rlmul-obs` registry). With [`lockdep`] enabled they maintain a
//!   lock-class acquisition-order graph and report potential-deadlock
//!   cycles *before* the process can actually deadlock, through the
//!   `rlmul_lockdep_cycles_total` metric and retrievable reports.
//! * [`sched`] — a loom-lite model checker: code written against the
//!   [`sync`] facade runs on virtual threads under a deterministic
//!   scheduler that explores interleavings (exhaustively with bounded
//!   preemptions, or randomly by seed), detecting deadlocks, lost
//!   wakeups and assertion failures. A failing interleaving prints
//!   its schedule and seed and is bit-reproducible from them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod gate;
pub mod lint;
pub mod lockdep;
pub mod sched;
pub mod sync;
