//! Disabled-path overhead guard.
//!
//! Instrumentation stays in hot paths unconditionally, so the
//! disabled path must be effectively free. A custom `main` runs a
//! median-of-rounds comparison against an uninstrumented baseline and
//! asserts the disabled hot path stays within noise of no
//! instrumentation, failing the bench run (and the CI obs job) on a
//! regression.

use rlmul_obs::{Registry, TraceCtx};
use std::hint::black_box;
use std::time::Instant;

/// A few-ns xorshift workload per iteration — realistic enough that a
/// one-branch disabled check should vanish next to it.
#[inline]
fn workload(mut x: u64) -> u64 {
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Median nanoseconds per iteration of `f` over `rounds` timed
/// batches of `iters` calls each.
fn median_ns_per_iter<F: FnMut() -> u64>(mut f: F, rounds: usize, iters: u64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(f());
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The CI guard: gated-off instrumentation (counter + histogram +
/// span on every iteration) must stay within noise of none. The bound
/// is deliberately loose — a disabled op is one relaxed load and a
/// branch, so a real regression (taking a lock, reading the clock)
/// overshoots it by an order of magnitude, while scheduler noise on a
/// shared CI runner does not.
fn overhead_guard() {
    const ROUNDS: usize = 15;
    const ITERS: u64 = 400_000;
    let gated = Registry::gated();
    let counter = gated.counter("guard_total", "h");
    let histo = gated.histogram("guard_seconds", "h");

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let baseline = median_ns_per_iter(
        || {
            x = workload(black_box(x));
            x
        },
        ROUNDS,
        ITERS,
    );
    let trace = TraceCtx::disabled();
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    let instrumented = median_ns_per_iter(
        || {
            y = workload(black_box(y));
            counter.inc();
            histo.observe(y as f64);
            trace.emit("guard", "step");
            let _span = gated.span("guard");
            y
        },
        ROUNDS,
        ITERS,
    );
    let ratio = instrumented / baseline.max(0.1);
    println!(
        "guard: baseline {baseline:.2} ns/iter, disabled-instrumented {instrumented:.2} ns/iter \
         (ratio {ratio:.3})"
    );
    assert!(
        ratio < 2.0,
        "disabled observability path regressed: {instrumented:.2} ns/iter vs baseline \
         {baseline:.2} ns/iter ({ratio:.2}x, bound 2.0x)"
    );
}

fn main() {
    overhead_guard();
}
