//! Cross-cutting runtime hooks shared by every training entry point:
//! telemetry, periodic checkpointing and cooperative cancellation.
//!
//! The agents ([`crate::train_dqn_with`], [`crate::train_a2c_with`])
//! and the SA driver ([`crate::run_sa_with`]) all accept a
//! [`TrainHooks`]; the default is fully inert, so library callers
//! that don't care pay a branch per step and nothing else.

use crate::RlMulError;
use rlmul_ckpt::{Record, SnapshotStore};
use rlmul_obs::TraceCtx;
use rlmul_telemetry::{Event, TelemetrySink};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Runtime services threaded through a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainHooks {
    /// JSONL telemetry sink; [`TelemetrySink::disabled`] by default.
    pub telemetry: TelemetrySink,
    /// Snapshot store for periodic and final checkpoints; `None`
    /// disables checkpointing entirely.
    pub store: Option<SnapshotStore>,
    /// Roll `latest.ckpt` every this many completed steps (0 = only
    /// on shutdown). Ignored without a store.
    pub checkpoint_every: usize,
    /// Cooperative stop flag, typically set from a SIGINT handler.
    /// The run finishes its current step, writes a final snapshot
    /// (when a store is configured) and returns normally.
    pub stop: Option<Arc<AtomicBool>>,
    /// Keep a step-tagged copy (`step-NNNNNNNN.ckpt`) of every
    /// *periodic* checkpoint in addition to rolling `latest.ckpt`, so
    /// mid-run states survive later checkpoints. Off by default;
    /// shutdown snapshots only roll `latest`.
    pub keep_history: bool,
    /// Live step counter published by the drivers after every
    /// completed environment step, so a supervisor (e.g. the `rlmul
    /// serve` job server) can report progress for a run it does not
    /// own without touching the training thread. `None` disables the
    /// store entirely.
    pub progress: Option<Arc<AtomicUsize>>,
    /// Per-job trace context; [`TraceCtx::disabled`] by default. The
    /// drivers hand it to the environment (cache / surrogate /
    /// synthesis emit sites) and emit one `step` event per completed
    /// step from [`TrainHooks::report_progress`].
    pub trace: TraceCtx,
}

impl TrainHooks {
    /// Hooks carrying only a telemetry sink.
    pub fn with_telemetry(sink: TelemetrySink) -> Self {
        TrainHooks { telemetry: sink, ..Default::default() }
    }

    /// Whether the stop flag has been raised.
    pub fn stop_requested(&self) -> bool {
        self.stop.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Publishes `steps_done` to the progress counter (no-op without
    /// one) and appends one `step` trace event. Called by every driver
    /// after each completed step.
    pub fn report_progress(&self, steps_done: usize) {
        if let Some(p) = &self.progress {
            p.store(steps_done, Ordering::Relaxed);
        }
        if self.trace.is_enabled() {
            self.trace.emit("step", &format!("steps_done={steps_done}"));
        }
    }

    /// Whether a periodic checkpoint is due after `steps_done`
    /// completed steps (never fires on the final step — the shutdown
    /// snapshot covers it).
    pub(crate) fn checkpoint_due(&self, steps_done: usize, total_steps: usize) -> bool {
        self.store.is_some()
            && self.checkpoint_every > 0
            && steps_done.is_multiple_of(self.checkpoint_every)
            && steps_done < total_steps
    }

    /// Rolls a driver snapshot taken after `step` completed steps into
    /// the store (a no-op without one): `latest.ckpt` always, a
    /// step-tagged copy for a `periodic` checkpoint under
    /// `keep_history`, and `best.ckpt` when `best_cost` improves on
    /// `best_saved`. Emits one `checkpoint` telemetry event.
    pub(crate) fn roll_checkpoint<R: Record>(
        &self,
        step: usize,
        snap: &R,
        best_cost: f64,
        best_saved: &mut f64,
        periodic: bool,
    ) -> Result<(), RlMulError> {
        let Some(store) = &self.store else { return Ok(()) };
        store.save_latest(snap)?;
        if periodic && self.keep_history {
            store.save_step(step, snap)?;
        }
        if best_cost < *best_saved {
            store.save_best(snap)?;
            *best_saved = best_cost;
        }
        // check: allow(trace-ctx) run-level checkpoint record; the job trace carries the steps
        self.telemetry.emit(
            // check: allow(trace-ctx) as above
            Event::new("checkpoint")
                .with("step", step as u64)
                .with("path", store.latest_path().display().to_string()),
        );
        Ok(())
    }
}

/// Emits one `span` telemetry event per accumulated span path (a
/// [`rlmul_obs::Registry::span_stats_since`] delta), so `rlmul report
/// --phase` can rebuild the run's time breakdown offline from the
/// JSONL log alone.
pub fn emit_span_events(sink: &TelemetrySink, spans: &[rlmul_obs::SpanStat]) {
    if !sink.is_enabled() {
        return;
    }
    for s in spans {
        // check: allow(trace-ctx) process-wide span aggregates, no per-job context
        sink.emit(
            // check: allow(trace-ctx) as above
            Event::new("span")
                .with("path", s.path.clone())
                .with("calls", s.calls)
                .with("incl_secs", s.incl_ns as f64 / 1e9)
                .with("excl_secs", s.excl_ns as f64 / 1e9),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_inert() {
        let hooks = TrainHooks::default();
        assert!(!hooks.stop_requested());
        assert!(!hooks.telemetry.is_enabled());
        assert!(!hooks.trace.is_enabled());
        assert!(!hooks.checkpoint_due(5, 10));
        hooks.report_progress(3); // must not panic without a counter
    }

    #[test]
    fn progress_reports_land_in_the_trace() {
        let trace = TraceCtx::new("tr-test");
        let hooks = TrainHooks { trace: trace.clone(), ..Default::default() };
        hooks.report_progress(1);
        hooks.report_progress(2);
        let events = trace.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "step");
        assert_eq!(events[1].detail, "steps_done=2");
    }

    #[test]
    fn stop_flag_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let hooks = TrainHooks { stop: Some(flag.clone()), ..Default::default() };
        assert!(!hooks.stop_requested());
        flag.store(true, Ordering::Relaxed);
        assert!(hooks.stop_requested());
    }

    #[test]
    fn checkpoint_cadence_skips_the_final_step() {
        let store = SnapshotStore::new(std::env::temp_dir().join("rlmul-hooks-test"), "t");
        let hooks = TrainHooks { store: Some(store), checkpoint_every: 4, ..Default::default() };
        assert!(hooks.checkpoint_due(4, 10));
        assert!(!hooks.checkpoint_due(5, 10));
        assert!(!hooks.checkpoint_due(8, 8), "final step is covered by the shutdown snapshot");
    }
}
