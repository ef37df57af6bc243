//! Order statistics used by every workload.
//!
//! Latencies of failed jobs enter as `f64::INFINITY`, so a failure
//! always counts as missing any latency limit.

/// Minimum number of samples that must lie above a tail percentile for
/// it to be reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Sorted copy of `v` (NaN-free input assumed; infinities sort last).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle samples for even counts); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => {
            let (a, b) = (s[n / 2 - 1], s[n / 2]);
            if a.is_infinite() || b.is_infinite() {
                b
            } else {
                (a + b) / 2.0
            }
        }
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Ceil-rank percentile `q` in `(0, 1]`; 0 for an empty slice.
pub fn ceil_rank(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
    s.get(rank - 1).copied().unwrap_or(0.0)
}

/// [`ceil_rank`], reported only when at least [`TAIL_SAMPLES_BEYOND`]
/// samples lie strictly beyond its rank.
pub fn tail_percentile(v: &[f64], q: f64) -> Option<f64> {
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    (n >= rank + TAIL_SAMPLES_BEYOND && rank > 0).then(|| ceil_rank(v, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None, "199 samples leave only 9 beyond p95");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn failed_jobs_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        for x in v.iter_mut().skip(185) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail_percentile(&v, 0.95), Some(f64::INFINITY));
        let v = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(median(&v), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
