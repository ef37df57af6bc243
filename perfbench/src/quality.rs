//! Design-quality yardsticks fixed by the workload configuration alone.
//!
//! The hypervolume reference point and the iso-quality target come
//! from the initial Wallace design synthesized the way the environment
//! anchors its delay constraints (min-area run, then the four
//! constraint runs), never from a run's own points, so two runs, or
//! two versions of the program, are scored against the same yardstick.

use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_pareto::{hypervolume_2d, pareto_front, Point2};
use rlmul_rtl::MultiplierNetlist;
use rlmul_synth::{SynthesisOptions, Synthesizer};

/// Delay constraints as multiples of the min-area delay (the
/// environment's default four targets).
pub const TARGET_MULTIPLES: [f64; 4] = [0.7, 0.85, 1.0, 1.15];
/// Reference point as multiples of the min-area `(area, delay)`.
pub const REFERENCE_MULTIPLES: (f64, f64) = (2.0, 1.25);

/// Hypervolume yardstick of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct HvSpec {
    /// Fixed reference point.
    pub reference: Point2,
    /// The initial design's per-constraint `(area, delay)` points.
    pub initial_points: Vec<(f64, f64)>,
    /// Hypervolume of the initial design's points.
    pub initial_hv: f64,
    /// Iso-quality target as a multiple of the initial hypervolume.
    pub target_ratio: f64,
}

impl HvSpec {
    /// Derives the yardstick of a `bits`-bit `kind` Wallace design
    /// synthesized with sizing budget `max_upsizes`; the iso-quality
    /// target is `target_gain` times the initial hypervolume.
    pub fn derive(bits: usize, kind: PpgKind, max_upsizes: usize, target_gain: f64) -> Self {
        let tree = CompressorTree::wallace(bits, kind).expect("Wallace tree of a supported width");
        let netlist = MultiplierNetlist::elaborate(&tree).expect("Wallace tree elaborates");
        let synth = Synthesizer::nangate45();
        let anchor =
            synth.run(netlist.netlist(), &SynthesisOptions::default()).expect("min-area run");
        let options: Vec<SynthesisOptions> = TARGET_MULTIPLES
            .iter()
            .map(|m| SynthesisOptions { target_delay_ns: Some(m * anchor.delay_ns), max_upsizes })
            .collect();
        let reports = synth.run_many(netlist.netlist(), &options).expect("constraint runs");
        let initial_points: Vec<(f64, f64)> =
            reports.iter().map(|r| (r.area_um2, r.delay_ns)).collect();
        let reference = Point2::new(
            REFERENCE_MULTIPLES.0 * anchor.area_um2,
            REFERENCE_MULTIPLES.1 * anchor.delay_ns,
        );
        let initial_hv = front_hv(&initial_points, reference);
        HvSpec { reference, initial_points, initial_hv, target_ratio: target_gain }
    }

    /// Final-front hypervolume of `points` relative to the initial design's.
    pub fn ratio(&self, points: &[(f64, f64)]) -> f64 {
        front_hv(points, self.reference) / self.initial_hv
    }

    /// Hypervolume ratio of an ordered point stream after each
    /// synthesis call: entry `c` covers the first `c + 1` calls, each
    /// adding `per_call` points (entry 0 is the initial design, 1.0).
    pub fn curve(&self, points: &[(f64, f64)], per_call: usize) -> Vec<f64> {
        let mut front: Vec<Point2> = Vec::new();
        points
            .chunks(per_call)
            .map(|call| {
                front.extend(call.iter().map(|&(a, d)| Point2::new(a, d)));
                front = pareto_front(&front);
                hypervolume_2d(&front, self.reference) / self.initial_hv
            })
            .collect()
    }
}

/// Synthesis calls a job spends until it reaches `target`, with
/// partial credit: a job's progress after call `c` is
/// `min(1, (h(c) - 1) / (target - 1))` for its hypervolume-ratio curve
/// `h`, and the count is the sum over its calls of the progress still
/// missing, plus the call that reaches the target and the anchor run.
/// A job whose `k`-th call jumps from 1 to the target costs exactly
/// `k + 1`; a job that stalls just short of the target is charged only
/// the share it lacks, so one seed's near-miss does not dominate the
/// figure. Returns the mean over `curves`.
pub fn calls_to_target(curves: &[Vec<f64>], target: f64) -> f64 {
    let per_job = |h: &Vec<f64>| {
        2.0 + h.iter().map(|&r| 1.0 - ((r - 1.0) / (target - 1.0)).clamp(0.0, 1.0)).sum::<f64>()
    };
    curves.iter().map(per_job).sum::<f64>() / curves.len().max(1) as f64
}

/// Hypervolume of the Pareto front of `points` against `reference`.
pub fn front_hv(points: &[(f64, f64)], reference: Point2) -> f64 {
    let pts: Vec<Point2> = points.iter().map(|&(a, d)| Point2::new(a, d)).collect();
    hypervolume_2d(&pareto_front(&pts), reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_baselines::SaConfig;
    use rlmul_core::{run_sa, EnvConfig};

    #[test]
    fn reference_comes_from_the_config_not_the_run() {
        let before = HvSpec::derive(6, PpgKind::And, 800, 1.05);
        let run = run_sa(
            &EnvConfig::new(6, PpgKind::And),
            &SaConfig { steps: 30, ..Default::default() },
            5,
        )
        .expect("sa run");
        let after = HvSpec::derive(6, PpgKind::And, 800, 1.05);
        assert_eq!(before, after);
        // The run's first points are the initial design's, so its
        // ratio starts at exactly one and can only grow.
        assert_eq!(&run.pareto_points[..4], before.initial_points.as_slice());
        assert_eq!(before.ratio(&run.pareto_points[..4]), 1.0);
        assert!(before.ratio(&run.pareto_points) >= 1.0);
        let r = before.reference;
        assert!(before.initial_points.iter().all(|&(a, d)| a < r.x && d < r.y));
    }

    #[test]
    fn calls_to_target_charges_the_missing_progress() {
        let spec = HvSpec {
            reference: Point2::new(10.0, 10.0),
            initial_points: vec![(5.0, 5.0)],
            initial_hv: 25.0,
            target_ratio: 1.6,
        };
        // One point per call: hypervolumes 25, 25, 29, 35, 81.
        let pts = [(5.0, 5.0), (6.0, 6.0), (9.0, 1.0), (2.0, 8.0), (1.0, 1.0)];
        let curve = spec.curve(&pts, 1);
        assert_eq!(curve, vec![1.0, 1.0, 1.16, 1.4, 3.24]);
        // Missing progress 1, 1, 0.73, 0.33, 0, plus the reaching call
        // and the anchor run.
        let calls = calls_to_target(&[curve], spec.target_ratio);
        assert!((calls - (2.0 + 2.0 + 0.44 / 0.6 + 0.2 / 0.6)).abs() < 1e-12, "{calls}");
        // A job whose fourth call jumps to the target costs five calls;
        // one at the target from its first call costs two.
        let step = vec![1.0, 1.0, 1.0, 1.6, 1.6];
        assert_eq!(calls_to_target(std::slice::from_ref(&step), 1.6), 5.0);
        assert_eq!(calls_to_target(&[step, vec![1.6]], 1.6), 3.5);
    }
}
