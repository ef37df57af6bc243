//! The synthesis driver: map → size under constraint → report PPA.

use crate::library::Library;
use crate::map::MappedNetlist;
use crate::power::{report_sums, signal_probabilities};
use crate::size::size_to_target;
use crate::sta::{analyze, StaStats};
use crate::SynthError;
use rlmul_rtl::Netlist;

/// Options for one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Target delay in ns. `None` synthesizes for minimum area
    /// (all-X1 mapping, no sizing).
    pub target_delay_ns: Option<f64>,
    /// Upper bound on sizing moves.
    pub max_upsizes: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions { target_delay_ns: None, max_upsizes: 12000 }
    }
}

impl SynthesisOptions {
    /// Options targeting `delay_ns`.
    pub fn with_target(delay_ns: f64) -> Self {
        SynthesisOptions { target_delay_ns: Some(delay_ns), ..Default::default() }
    }
}

/// Synthesized power/performance/area numbers for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// Total cell area, µm².
    pub area_um2: f64,
    /// Achieved critical delay, ns.
    pub delay_ns: f64,
    /// Total power at the critical frequency, mW.
    pub power_mw: f64,
    /// Target delay requested, if any.
    pub target_delay_ns: Option<f64>,
    /// Whether the target was met.
    pub met_target: bool,
    /// Instance counts at X1/X2/X4.
    pub drive_histogram: [usize; 3],
    /// Sizing moves applied.
    pub sizing_moves: usize,
    /// Gate instances.
    pub num_cells: usize,
    /// Timing-engine work performed by this run.
    pub sta: StaStats,
}

impl SynthesisReport {
    /// `(area, delay)` pair, the paper's two reduced objectives
    /// (Section IV-B folds power into area).
    pub fn area_delay(&self) -> (f64, f64) {
        (self.area_um2, self.delay_ns)
    }
}

/// A reusable synthesis engine bound to one library.
///
/// ```
/// use rlmul_ct::{CompressorTree, PpgKind};
/// use rlmul_rtl::MultiplierNetlist;
/// use rlmul_synth::{SynthesisOptions, Synthesizer};
///
/// let tree = CompressorTree::dadda(8, PpgKind::And)?;
/// let m = MultiplierNetlist::elaborate(&tree)?;
/// let synth = Synthesizer::nangate45();
/// let fast = synth.run(m.netlist(), &SynthesisOptions::with_target(0.6))?;
/// let small = synth.run(m.netlist(), &SynthesisOptions::default())?;
/// assert!(fast.area_um2 >= small.area_um2);
/// assert!(fast.delay_ns <= small.delay_ns);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    library: Library,
}

impl Synthesizer {
    /// Engine with the NanGate45-flavoured default library.
    pub fn nangate45() -> Self {
        Synthesizer { library: Library::nangate45() }
    }

    /// Engine with a custom library.
    pub fn with_library(library: Library) -> Self {
        Synthesizer { library }
    }

    /// The bound library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Synthesizes `netlist` under `options`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyNetlist`] for gate-free netlists.
    pub fn run(
        &self,
        netlist: &Netlist,
        options: &SynthesisOptions,
    ) -> Result<SynthesisReport, SynthError> {
        if netlist.gates().is_empty() {
            return Err(SynthError::EmptyNetlist);
        }
        let obs = rlmul_obs::global();
        let _span = obs.span("synth.run");
        // check: allow(wall-clock) duration feeds the obs histogram only
        let started = std::time::Instant::now();
        let mut mapped = MappedNetlist::map(netlist, &self.library);
        let (timing, moves, met, sta) = match options.target_delay_ns {
            Some(target) => {
                let out = size_to_target(&mut mapped, target, options.max_upsizes);
                (out.timing, out.moves, out.met_target, out.sta)
            }
            None => (
                analyze(&mapped),
                0,
                true,
                StaStats {
                    full_passes: 1,
                    full_gate_visits: netlist.gates().len(),
                    ..StaStats::default()
                },
            ),
        };
        let delay = timing.worst_delay_ns.max(1e-6);
        let (power, area_um2, drive_histogram) =
            report_sums(&mapped, &signal_probabilities(netlist), 1.0 / delay);
        if obs.is_enabled() {
            obs.counter("rlmul_synth_runs_total", "Synthesis runs completed.").inc();
            obs.histogram("rlmul_synth_run_seconds", "Wall time per synthesis run.")
                .observe_duration(started.elapsed());
            let visits = "Gate evaluations performed by timing analysis.";
            obs.labeled_counter("rlmul_sta_gate_visits_total", visits, &[("mode", "full")])
                .add(sta.full_gate_visits as u64);
            obs.labeled_counter("rlmul_sta_gate_visits_total", visits, &[("mode", "incremental")])
                .add(sta.incremental_gate_visits as u64);
            let passes = "Timing-analysis propagation passes.";
            obs.labeled_counter("rlmul_sta_passes_total", passes, &[("mode", "full")])
                .add(sta.full_passes as u64);
            obs.labeled_counter("rlmul_sta_passes_total", passes, &[("mode", "incremental")])
                .add(sta.incremental_passes as u64);
        }
        Ok(SynthesisReport {
            area_um2,
            delay_ns: timing.worst_delay_ns,
            power_mw: power.total_mw(),
            target_delay_ns: options.target_delay_ns,
            met_target: met,
            drive_histogram,
            sizing_moves: moves,
            num_cells: netlist.gates().len(),
            sta,
        })
    }

    /// Synthesizes once per target delay — the paper's "synthesis
    /// under multiple design constraints" producing the points the
    /// Pareto-driven reward aggregates (Eq. 9).
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::run`].
    pub fn run_multi(
        &self,
        netlist: &Netlist,
        targets_ns: &[f64],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let options: Vec<SynthesisOptions> =
            targets_ns.iter().map(|&t| SynthesisOptions::with_target(t)).collect();
        self.run_many(netlist, &options)
    }

    /// Runs one synthesis per option set, fanning the independent
    /// runs out over scoped threads and collecting reports in option
    /// order.
    ///
    /// Each run maps, sizes, and times its own private
    /// [`MappedNetlist`]; `self` and `netlist` are only read. That
    /// shared-`&self` contract is what makes [`Synthesizer`] safe to
    /// call from many threads at once, and it keeps the parallel
    /// reports bit-identical to [`Synthesizer::run_many_serial`] —
    /// the same deterministic computation runs per target, only the
    /// wall-clock interleaving changes.
    ///
    /// # Errors
    ///
    /// The first error in option order, as [`Synthesizer::run`].
    pub fn run_many(
        &self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        if options.len() < 2 {
            return self.run_many_serial(netlist, options);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                options.iter().map(|o| scope.spawn(move || self.run(netlist, o))).collect();
            handles.into_iter().map(|h| h.join().expect("synthesis worker panicked")).collect()
        })
    }

    /// Serial reference path for [`Synthesizer::run_many`]: identical
    /// reports, one thread.
    pub fn run_many_serial(
        &self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        options.iter().map(|o| self.run(netlist, o)).collect()
    }

    /// Sweeps target delays uniformly over `[from_ns, to_ns]` with
    /// `points` samples (paper Section V-A sweeps 0.05–1.2 ns),
    /// returning one report per target.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidSweep`] when `points < 2` or the
    /// range is degenerate; otherwise as [`Synthesizer::run`].
    pub fn sweep(
        &self,
        netlist: &Netlist,
        from_ns: f64,
        to_ns: f64,
        points: usize,
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        if points < 2 || from_ns >= to_ns {
            return Err(SynthError::InvalidSweep { from_ns, to_ns, points });
        }
        let targets: Vec<f64> = (0..points)
            .map(|i| from_ns + (to_ns - from_ns) * i as f64 / (points - 1) as f64)
            .collect();
        self.run_multi(netlist, &targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::MultiplierNetlist;

    fn mul_netlist(bits: usize, kind: PpgKind) -> Netlist {
        let tree = CompressorTree::wallace(bits, kind).unwrap();
        MultiplierNetlist::elaborate(&tree).unwrap().into_netlist()
    }

    #[test]
    fn min_area_8bit_multiplier_is_in_paper_ballpark() {
        // Paper Table I: 8-bit AND multipliers at minimum area sit
        // near 390–430 µm². The model should land within ±40%.
        let synth = Synthesizer::nangate45();
        let r = synth.run(&mul_netlist(8, PpgKind::And), &SynthesisOptions::default()).unwrap();
        assert!((250.0..650.0).contains(&r.area_um2), "area = {}", r.area_um2);
    }

    #[test]
    fn sixteen_bit_is_about_four_times_eight_bit() {
        let synth = Synthesizer::nangate45();
        let r8 = synth.run(&mul_netlist(8, PpgKind::And), &SynthesisOptions::default()).unwrap();
        let r16 = synth.run(&mul_netlist(16, PpgKind::And), &SynthesisOptions::default()).unwrap();
        let ratio = r16.area_um2 / r8.area_um2;
        assert!((3.0..5.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn tighter_targets_grow_area_monotonically_ish() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(8, PpgKind::And);
        let reports = synth.sweep(&nl, 0.5, 1.2, 5).unwrap();
        let first = &reports[0]; // tightest
        let last = &reports[reports.len() - 1]; // loosest
        assert!(first.area_um2 >= last.area_um2);
        assert!(first.delay_ns <= last.delay_ns + 1e-9);
    }

    #[test]
    fn empty_netlist_is_an_error() {
        use rlmul_rtl::NetlistBuilder;
        let mut b = NetlistBuilder::new("empty");
        let x = b.input("x", 1);
        b.output("y", &[x[0]]);
        let n = b.finish();
        let synth = Synthesizer::nangate45();
        assert!(matches!(
            synth.run(&n, &SynthesisOptions::default()),
            Err(SynthError::EmptyNetlist)
        ));
    }

    #[test]
    fn run_multi_returns_one_report_per_target() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(4, PpgKind::And);
        let reports = synth.run_multi(&nl, &[0.8, 1.0, 1.4]).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].target_delay_ns, Some(1.0));
    }

    #[test]
    fn drive_histogram_sums_to_cell_count() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(8, PpgKind::And);
        let r = synth.run(&nl, &SynthesisOptions::with_target(0.9)).unwrap();
        assert_eq!(
            r.drive_histogram.iter().sum::<usize>(),
            r.num_cells,
            "every instance has exactly one drive strength"
        );
    }

    #[test]
    fn sequential_designs_synthesize() {
        use rlmul_rtl::{pe_array, PeArrayConfig, PeStyle};
        let tree = CompressorTree::dadda(4, PpgKind::And).unwrap();
        let nl =
            pe_array(&tree, PeArrayConfig { rows: 2, cols: 2, style: PeStyle::MultiplierAdder })
                .unwrap();
        let synth = Synthesizer::nangate45();
        let r = synth.run(&nl, &SynthesisOptions::default()).unwrap();
        assert!(r.power_mw > 0.0 && r.delay_ns > 0.0);
    }

    #[test]
    fn parallel_run_many_is_bit_identical_to_serial() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(8, PpgKind::And);
        let options: Vec<SynthesisOptions> =
            [0.7, 0.85, 1.0, 1.15].iter().map(|&t| SynthesisOptions::with_target(t)).collect();
        let parallel = synth.run_many(&nl, &options).unwrap();
        let serial = synth.run_many_serial(&nl, &options).unwrap();
        assert_eq!(parallel, serial);
        for (r, o) in parallel.iter().zip(&options) {
            assert_eq!(r.target_delay_ns, o.target_delay_ns, "reports stay in request order");
        }
    }

    #[test]
    fn invalid_sweep_is_rejected() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(4, PpgKind::And);
        assert!(synth.sweep(&nl, 1.0, 0.5, 4).is_err());
        assert!(synth.sweep(&nl, 0.5, 1.0, 1).is_err());
    }
}
