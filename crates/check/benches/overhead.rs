//! Disabled-path overhead guard for the sync facade.
//!
//! The facade stays in the hot paths of the eval cache and telemetry
//! ring unconditionally, so with lockdep off and no model execution
//! active it must cost no more than `std::sync` plus one relaxed
//! load. Mirrors the `rlmul-obs` overhead bench: a median-of-rounds
//! guard that fails the bench run on a regression past 2x.

use rlmul_check::sync;
use std::hint::black_box;
use std::sync::Mutex as StdMutex;
use std::time::Instant;

/// A few-ns xorshift workload per iteration, so the lock cost is
/// measured against realistic surrounding work.
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

/// The CI guard: a facade lock/unlock with everything disabled must
/// stay within 2x of a bare `std::sync::Mutex` lock/unlock. A real
/// regression (recording acquisitions unconditionally, consulting the
/// scheduler TLS on the fast path) costs far more than 2x; scheduler
/// noise on a shared runner does not.
fn overhead_guard() {
    const ROUNDS: usize = 15;
    const ITERS: u64 = 400_000;
    let std_mutex = StdMutex::new(0u64);
    let facade_mutex = sync::Mutex::new("guard.mutex", 0u64);

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let baseline = median_ns_per_iter(
        || {
            x = workload(black_box(x));
            *std_mutex.lock().expect("guard mutex") += 1;
            x
        },
        ROUNDS,
        ITERS,
    );
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    let facade = median_ns_per_iter(
        || {
            y = workload(black_box(y));
            *facade_mutex.lock() += 1;
            y
        },
        ROUNDS,
        ITERS,
    );
    let ratio = facade / baseline.max(0.1);
    println!(
        "guard: std {baseline:.2} ns/iter, facade-disabled {facade:.2} ns/iter (ratio {ratio:.3})"
    );
    assert!(
        ratio < 2.0,
        "disabled sync facade regressed: {facade:.2} ns/iter vs std {baseline:.2} ns/iter \
         ({ratio:.2}x, bound 2.0x)"
    );
}

fn main() {
    overhead_guard();
}
