//! Global fast-path gate shared by the [`crate::sync`] facade.
//!
//! Every facade operation starts with one relaxed load of [`FLAGS`];
//! while it reads zero (no lockdep, no model execution anywhere in
//! the process) the wrappers delegate straight to [`std::sync`] —
//! the same single-branch discipline as the `rlmul-obs` registry's
//! disabled path.

use std::sync::atomic::{AtomicU32, Ordering};

/// Bit 0: lockdep enabled. Bits 1 and up: the number of concurrently
/// active model executions (test harnesses in parallel test threads
/// may overlap), counted in units of [`MODEL`]. Keeping the count in
/// the same word as the flag makes enter/exit one atomic step each, so
/// an exit can never clear the "model active" state an overlapping
/// enter just established.
static FLAGS: AtomicU32 = AtomicU32::new(0);

pub(crate) const LOCKDEP: u32 = 1;
pub(crate) const MODEL: u32 = 2;

#[inline]
pub(crate) fn flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

pub(crate) fn set_lockdep(on: bool) {
    if on {
        FLAGS.fetch_or(LOCKDEP, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!LOCKDEP, Ordering::Relaxed);
    }
}

/// Whether at least one model execution is active anywhere in the
/// process.
#[inline]
pub(crate) fn model_active() -> bool {
    flags() & !LOCKDEP != 0
}

pub(crate) fn model_enter() {
    FLAGS.fetch_add(MODEL, Ordering::Relaxed);
}

pub(crate) fn model_exit() {
    FLAGS.fetch_sub(MODEL, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overlapping executions must each see the model active for their
    /// whole lifetime: one execution's exit must never clear the state
    /// another's enter set.
    #[test]
    fn overlapping_executions_stay_active() {
        const ROUNDS: usize = 200_000;
        let misses: usize = std::thread::scope(|s| {
            let probes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..ROUNDS)
                            .filter(|_| {
                                model_enter();
                                let active = model_active();
                                model_exit();
                                !active
                            })
                            .count()
                    })
                })
                .collect();
            probes.into_iter().map(|p| p.join().expect("probe thread")).sum()
        });
        assert_eq!(misses, 0, "an active execution saw the model gate closed");
    }
}
