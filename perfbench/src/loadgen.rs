//! Seeded input generation and open-loop schedule accounting.

/// SplitMix64: the benchmark's own seeded stream, so the inputs it
/// generates do not depend on the program's RNG implementation.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed` and a purpose tag (distinct tags give
    /// independent streams from one `--seed`).
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times (seconds from the start of the run) of `n` arrivals of a
/// Poisson process conditioned on exactly `n` arrivals in `span`
/// seconds: sorted independent uniform times. Fixing the count and the
/// span fixes the offered rate, `n / span`, of every run.
pub fn poisson_arrivals(rng: &mut SplitMix, n: usize, span: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Timing of one open-loop request, all in seconds from the run start.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopTiming {
    /// When the schedule said the request should be sent.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the client saw the job terminal (`None`: never).
    pub observed: Option<f64>,
}

impl OpenLoopTiming {
    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Job latency measured from the due time, so a generator stall
    /// is charged to every request it delays; infinite when the job
    /// never finished.
    pub fn latency(&self) -> f64 {
        self.observed.map_or(f64::INFINITY, |o| o - self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_sorted_and_exponentially_spaced() {
        let a = poisson_arrivals(&mut SplitMix::new(7, 1), 4000, 400.0);
        let b = poisson_arrivals(&mut SplitMix::new(7, 1), 4000, 400.0);
        let c = poisson_arrivals(&mut SplitMix::new(8, 1), 4000, 400.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        assert!(a[0] >= 0.0 && a[a.len() - 1] < 400.0);
        // Exponential gaps: mean 1 / rate and a coefficient of variation
        // near one.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((m - 0.1).abs() < 0.005, "mean gap {m}");
        assert!((sd / m - 1.0).abs() < 0.1, "cv {}", sd / m);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_never_negative() {
        let stalled = OpenLoopTiming { due: 1.0, sent: 1.25, observed: Some(1.5) };
        assert_eq!(stalled.lateness(), 0.25);
        assert_eq!(stalled.latency(), 0.5);
        let early = OpenLoopTiming { due: 1.0, sent: 0.999, observed: Some(1.1) };
        assert_eq!(early.lateness(), 0.0);
        let lost = OpenLoopTiming { due: 1.0, sent: 1.0, observed: None };
        assert_eq!(lost.latency(), f64::INFINITY);
    }
}
