//! The machine's speed, for the end-to-end timings.
//!
//! A shared host's per-core speed drifts by tens of percent over
//! seconds to minutes as other tenants come and go: far more than a
//! regression the benchmark must catch. So the workloads run a fixed
//! reference loop around the work they time (around every in-process
//! job; whenever the job server idles) and report each time at the
//! loop's nominal speed, `wall × NOMINAL_SECS / loop time`. A change in
//! the program moves the figure in full; a change in the machine's speed
//! slows work and loop alike and cancels. The raw wall times go to
//! stderr.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one reference loop at the reference speed.
pub const NOMINAL_SECS: f64 = 0.010;

/// Words in the loop's table: 4 MiB, past the private caches, like the
/// synthesis working set.
const TABLE_WORDS: usize = 1 << 19;

/// Multiply-add and scattered read-modify-write rounds of one loop.
const ROUNDS: u64 = 2_000_000;

/// Runs the reference loop once; its wall time in seconds. The table
/// is written through before the clock starts, so no page faults land
/// in the timed loop.
pub fn reference_secs() -> f64 {
    let mut table = vec![1u64; TABLE_WORDS];
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..ROUNDS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let k = (x >> 45) as usize;
        table[k] = table[k].wrapping_add(x);
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// `secs` of wall time, measured between reference loops that took
/// `before` and `after` seconds, at the reference speed.
pub fn at_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs * 2.0 * NOMINAL_SECS / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_at_half_speed_reads_the_same() {
        let nominal = at_reference(0.1, NOMINAL_SECS, NOMINAL_SECS);
        assert!((nominal - 0.1).abs() < 1e-12);
        let slow = at_reference(0.2, 2.0 * NOMINAL_SECS, 2.0 * NOMINAL_SECS);
        assert!((slow - nominal).abs() < 1e-12);
    }

    #[test]
    fn the_table_index_stays_in_range() {
        assert_eq!(u64::MAX >> 45, TABLE_WORDS as u64 - 1);
    }
}
