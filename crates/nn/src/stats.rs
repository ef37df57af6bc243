//! Per-layer FLOP and wall-time counters for the dense hot path.
//!
//! Counters are thread-local (analogous to `StaStats` in the
//! synthesis pipeline): the agent networks always run their
//! forward/backward on the thread driving the training loop, so the
//! loop snapshots [`NnStats::snapshot`] before training and reads the
//! delta with [`NnStats::since`] afterwards without interference from
//! other tests or runs sharing the process. The dense kernels run on
//! the calling thread too, and each layer records its whole-call FLOP
//! count and elapsed wall time there.

use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static CONV_FWD: Cell<u64> = const { Cell::new(0) };
    static CONV_BWD: Cell<u64> = const { Cell::new(0) };
    static LIN_FWD: Cell<u64> = const { Cell::new(0) };
    static LIN_BWD: Cell<u64> = const { Cell::new(0) };
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static NANOS: Cell<u64> = const { Cell::new(0) };
    // Pre-registered per-thread mirrors into the global observability
    // registry, so the per-layer record path never touches the
    // registration mutex.
    static OBS: ObsHandles = ObsHandles::new();
}

struct ObsHandles {
    calls: [rlmul_obs::Counter; 4],
    flops: rlmul_obs::Counter,
    seconds: rlmul_obs::Histo,
}

impl ObsHandles {
    fn new() -> Self {
        let obs = rlmul_obs::global();
        let help = "Dense-kernel layer calls by op.";
        ObsHandles {
            calls: [
                obs.labeled_counter("rlmul_nn_layer_calls_total", help, &[("op", "conv_fwd")]),
                obs.labeled_counter("rlmul_nn_layer_calls_total", help, &[("op", "conv_bwd")]),
                obs.labeled_counter("rlmul_nn_layer_calls_total", help, &[("op", "linear_fwd")]),
                obs.labeled_counter("rlmul_nn_layer_calls_total", help, &[("op", "linear_bwd")]),
            ],
            flops: obs.counter("rlmul_nn_flops_total", "Multiply-add work, 2 FLOP each."),
            seconds: obs.histogram("rlmul_nn_layer_seconds", "Wall time per dense layer call."),
        }
    }
}

/// Which hot-path operation a layer is recording.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    ConvForward,
    ConvBackward,
    LinearForward,
    LinearBackward,
}

/// Adds one completed layer call to the calling thread's counters.
pub(crate) fn record(op: Op, flops: u64, elapsed: Duration) {
    let counter = match op {
        Op::ConvForward => &CONV_FWD,
        Op::ConvBackward => &CONV_BWD,
        Op::LinearForward => &LIN_FWD,
        Op::LinearBackward => &LIN_BWD,
    };
    counter.with(|c| c.set(c.get() + 1));
    FLOPS.with(|c| c.set(c.get() + flops));
    NANOS.with(|c| c.set(c.get() + elapsed.as_nanos() as u64));
    OBS.with(|h| {
        h.calls[op as usize].inc();
        h.flops.add(flops);
        h.seconds.observe_duration(elapsed);
    });
}

/// Cumulative dense-kernel work counters for the current thread.
///
/// Analogous to the pipeline's `StaStats`: optimizers snapshot at the
/// start of a run and report `NnStats::snapshot().since(start)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NnStats {
    /// `Conv2d::forward` calls.
    pub conv_forwards: u64,
    /// `Conv2d::backward` calls.
    pub conv_backwards: u64,
    /// `Linear::forward` calls.
    pub linear_forwards: u64,
    /// `Linear::backward` calls.
    pub linear_backwards: u64,
    /// Multiply–add work across all calls, counted as 2 FLOP each.
    pub flops: u64,
    /// Wall time spent inside the counted calls, nanoseconds.
    pub nanos: u64,
}

impl NnStats {
    /// Current cumulative counters of the calling thread.
    pub fn snapshot() -> NnStats {
        NnStats {
            conv_forwards: CONV_FWD.with(Cell::get),
            conv_backwards: CONV_BWD.with(Cell::get),
            linear_forwards: LIN_FWD.with(Cell::get),
            linear_backwards: LIN_BWD.with(Cell::get),
            flops: FLOPS.with(Cell::get),
            nanos: NANOS.with(Cell::get),
        }
    }

    /// Work performed between `earlier` and this snapshot.
    pub fn since(self, earlier: NnStats) -> NnStats {
        NnStats {
            conv_forwards: self.conv_forwards.saturating_sub(earlier.conv_forwards),
            conv_backwards: self.conv_backwards.saturating_sub(earlier.conv_backwards),
            linear_forwards: self.linear_forwards.saturating_sub(earlier.linear_forwards),
            linear_backwards: self.linear_backwards.saturating_sub(earlier.linear_backwards),
            flops: self.flops.saturating_sub(earlier.flops),
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: NnStats) {
        self.conv_forwards += other.conv_forwards;
        self.conv_backwards += other.conv_backwards;
        self.linear_forwards += other.linear_forwards;
        self.linear_backwards += other.linear_backwards;
        self.flops += other.flops;
        self.nanos += other.nanos;
    }

    /// Achieved throughput over the counted wall time.
    pub fn gflops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.flops as f64 / self.nanos as f64
    }

    /// One-line rendering of the *deterministic* work counters (no
    /// wall time), for outputs that must be byte-identical across
    /// reruns of a seeded search (the CLI pipeline line).
    pub fn render_work(&self) -> String {
        format!(
            "nn {:.1} MFLOP; conv {}+{} fwd+bwd, linear {}+{} fwd+bwd",
            self.flops as f64 / 1e6,
            self.conv_forwards,
            self.conv_backwards,
            self.linear_forwards,
            self.linear_backwards,
        )
    }

    /// One-line human-readable rendering including measured wall time
    /// and throughput, for bench reports.
    pub fn render(&self) -> String {
        format!(
            "nn {:.1} MFLOP in {:.1} ms ({:.2} GFLOP/s); conv {}+{} fwd+bwd, \
             linear {}+{} fwd+bwd",
            self.flops as f64 / 1e6,
            self.nanos as f64 / 1e6,
            self.gflops_per_sec(),
            self.conv_forwards,
            self.conv_backwards,
            self.linear_forwards,
            self.linear_backwards,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_since_subtracts() {
        let before = NnStats::snapshot();
        record(Op::ConvForward, 100, Duration::from_nanos(50));
        record(Op::LinearBackward, 20, Duration::from_nanos(10));
        let delta = NnStats::snapshot().since(before);
        assert_eq!(delta.conv_forwards, 1);
        assert_eq!(delta.linear_backwards, 1);
        assert_eq!(delta.flops, 120);
        assert_eq!(delta.nanos, 60);
    }

    #[test]
    fn render_reports_throughput() {
        let s = NnStats { flops: 2_000_000, nanos: 1_000_000, ..NnStats::default() };
        assert_eq!(s.gflops_per_sec(), 2.0);
        assert!(s.render().contains("GFLOP/s"));
    }
}
