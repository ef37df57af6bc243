//! The synthesis engine: map → size under constraint → report PPA.
//!
//! [`Tables`] holds what every option set of one netlist shares. The
//! stateless [`Synthesizer`] builds them from scratch, the incremental
//! session patches the previous call's, and both report through
//! [`synthesize`]: min-area options straight off the all-X1 baseline,
//! delay targets with a common move budget along one sizing trajectory.

use crate::library::Library;
use crate::map::{net_loads, x1_cell_of, MappedNetlist};
use crate::power::{report_sums, signal_probabilities};
use crate::size::{size_to_targets, TargetStop};
use crate::sta::{extend_dffs, worst_endpoint, StaStats};
use crate::SynthError;
use rlmul_rtl::{NetConn, Netlist};

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

/// The per-netlist state every report of one call reads, next to the
/// netlist's connectivity table.
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    /// All-X1 arrival times (the sizing trajectories' starting point).
    pub(crate) baseline: Vec<f64>,
    /// Dff gate indices in ascending (= netlist) order.
    pub(crate) dffs: Vec<u32>,
    /// All-X1 cell binding — each mapping starts as a memcpy of this
    /// instead of per-gate library lookups.
    pub(crate) cell_of: Vec<usize>,
    /// Net loads under `cell_of`, copied into each mapping alongside it.
    pub(crate) loads: Vec<f64>,
    /// Signal probability of every net, for power estimates.
    pub(crate) probs: Vec<f64>,
}

impl Tables {
    /// The tables of `netlist` with connectivity `conn`, built from
    /// scratch. The baseline costs one full timing pass.
    pub(crate) fn build(netlist: &Netlist, conn: &NetConn, library: &Library) -> Self {
        let cell_of = x1_cell_of(netlist, library);
        let mut loads = Vec::new();
        net_loads(netlist, library, conn, &cell_of, &mut loads);
        let mut tables = Tables {
            baseline: Vec::new(),
            dffs: Vec::new(),
            cell_of,
            loads,
            probs: signal_probabilities(netlist),
        };
        extend_dffs(netlist, 0, &mut tables.dffs);
        tables.baseline = crate::sta::arrivals(&tables.mapping(netlist, conn, library));
        tables
    }

    /// A fresh all-X1 mapping of `netlist` over the tables.
    pub(crate) fn mapping<'a>(
        &'a self,
        netlist: &'a Netlist,
        conn: &'a NetConn,
        library: &'a Library,
    ) -> MappedNetlist<'a> {
        MappedNetlist::map_with_parts(
            netlist,
            library,
            conn,
            self.cell_of.clone(),
            self.loads.clone(),
        )
    }

    /// The report of `o` for mapping `m` stopped at `stop`.
    fn report(
        &self,
        m: &MappedNetlist<'_>,
        o: &SynthesisOptions,
        stop: &TargetStop,
    ) -> SynthesisReport {
        let delay = stop.worst_delay_ns.max(1e-6);
        let (power, area_um2, drive_histogram) = report_sums(m, &self.probs, 1.0 / delay);
        SynthesisReport {
            area_um2,
            delay_ns: stop.worst_delay_ns,
            power_mw: power.total_mw(),
            target_delay_ns: o.target_delay_ns,
            met_target: stop.met_target,
            drive_histogram,
            sizing_moves: stop.moves,
            num_cells: m.netlist().gates().len(),
            sta: stop.sta,
        }
    }
}

/// Rejects what no report can be made of: a gate-free netlist, or a
/// delay target that is not a finite number.
pub(crate) fn check(netlist: &Netlist, options: &[SynthesisOptions]) -> Result<(), SynthError> {
    if netlist.gates().is_empty() {
        return Err(SynthError::EmptyNetlist);
    }
    match options.iter().filter_map(|o| o.target_delay_ns).find(|t| !t.is_finite()) {
        Some(target_ns) => Err(SynthError::NonFiniteTarget { target_ns }),
        None => Ok(()),
    }
}

/// One report per option, in option order, off `netlist`'s `conn` and
/// `tables`. Each report's [`StaStats`] counts only the incremental
/// timing work of its own trajectory prefix.
pub(crate) fn synthesize(
    netlist: &Netlist,
    conn: &NetConn,
    tables: &Tables,
    library: &Library,
    options: &[SynthesisOptions],
) -> Vec<SynthesisReport> {
    let obs = rlmul_obs::global();
    let mut slots: Vec<Option<SynthesisReport>> = vec![None; options.len()];
    // Min-area options report straight off the shared baseline.
    for (i, o) in options.iter().enumerate() {
        if o.target_delay_ns.is_none() {
            let _r = obs.span("synth.report");
            let mapped = tables.mapping(netlist, conn, library);
            let (worst, _) = worst_endpoint(&mapped, &tables.baseline, Some(&tables.dffs));
            let stop = TargetStop {
                worst_delay_ns: worst,
                moves: 0,
                met_target: true,
                sta: StaStats::default(),
            };
            slots[i] = Some(tables.report(&mapped, o, &stop));
        }
    }

    // Delay-targeted options with a common move budget share one
    // sizing trajectory: batch selection never reads the target, so
    // each option's own run is a prefix of the tightest's, and its
    // report is emitted at its stop point. The reports (power plus
    // report fields) get their own child span, so this span's
    // exclusive time is the trajectory alone.
    let _s = obs.span("synth.sizing");
    for first in 0..options.len() {
        if options[first].target_delay_ns.is_none() || slots[first].is_some() {
            continue;
        }
        let budget = options[first].max_upsizes;
        let group: Vec<usize> = (first..options.len())
            .filter(|&i| options[i].target_delay_ns.is_some())
            .filter(|&i| options[i].max_upsizes == budget)
            .collect();
        let targets: Vec<f64> =
            group.iter().map(|&i| options[i].target_delay_ns.expect("targeted")).collect();
        let mut mapped = tables.mapping(netlist, conn, library);
        size_to_targets(
            &mut mapped,
            &targets,
            budget,
            tables.baseline.clone(),
            Some(&tables.dffs),
            |m, ti, stop| {
                let _r = obs.span("synth.report");
                slots[group[ti]] = Some(tables.report(m, &options[group[ti]], stop));
            },
        );
    }
    slots.into_iter().map(|s| s.expect("every option produced a report")).collect()
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
    /// As [`Synthesizer::run_many`].
    pub fn run(
        &self,
        netlist: &Netlist,
        options: &SynthesisOptions,
    ) -> Result<SynthesisReport, SynthError> {
        let mut reports = self.run_many(netlist, std::slice::from_ref(options))?;
        Ok(reports.pop().expect("one report per option"))
    }

    /// Synthesizes once per target delay — the paper's "synthesis
    /// under multiple design constraints" producing the points the
    /// Pareto-driven reward aggregates (Eq. 9).
    ///
    /// # Errors
    ///
    /// As [`Synthesizer::run_many`].
    pub fn run_multi(
        &self,
        netlist: &Netlist,
        targets_ns: &[f64],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let options: Vec<SynthesisOptions> =
            targets_ns.iter().map(|&t| SynthesisOptions::with_target(t)).collect();
        self.run_many(netlist, &options)
    }

    /// Runs one synthesis per option set from scratch, reports in
    /// option order.
    ///
    /// Delay targets with a common move budget share one sizing
    /// trajectory, and each stops where a run toward it alone would, so
    /// every report equals a lone [`Synthesizer::run`] of its option,
    /// field for field. Each report charges the one full timing pass
    /// that built the all-X1 baseline, plus its own trajectory
    /// prefix's incremental work.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyNetlist`] for gate-free netlists and
    /// [`SynthError::NonFiniteTarget`] for a NaN or infinite delay
    /// target.
    pub fn run_many(
        &self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        check(netlist, options)?;
        let obs = rlmul_obs::global();
        let _span = obs.span("synth.run");
        // check: allow(wall-clock) duration feeds the obs histogram only
        let started = std::time::Instant::now();
        let conn = NetConn::build(netlist);
        let tables = Tables::build(netlist, &conn, &self.library);
        let mut reports = synthesize(netlist, &conn, &tables, &self.library, options);
        for r in &mut reports {
            r.sta.merge(StaStats::full_pass(netlist));
        }
        if obs.is_enabled() {
            let mut sta = StaStats::default();
            reports.iter().for_each(|r| sta.merge(r.sta));
            obs.counter("rlmul_synth_runs_total", "Synthesis runs completed.")
                .add(reports.len() as u64);
            obs.histogram("rlmul_synth_run_seconds", "Wall time per stateless synthesis call.")
                .observe_duration(started.elapsed());
            for (mode, visits, passes) in [
                ("full", sta.full_gate_visits, sta.full_passes),
                ("incremental", sta.incremental_gate_visits, sta.incremental_passes),
            ] {
                let help = "Gate evaluations performed by timing analysis.";
                obs.labeled_counter("rlmul_sta_gate_visits_total", help, &[("mode", mode)])
                    .add(visits as u64);
                let help = "Timing-analysis propagation passes.";
                obs.labeled_counter("rlmul_sta_passes_total", help, &[("mode", mode)])
                    .add(passes as u64);
            }
        }
        Ok(reports)
    }

    /// Sweeps target delays uniformly over `[from_ns, to_ns]` with
    /// `points` samples (paper Section V-A sweeps 0.05–1.2 ns),
    /// returning one report per target.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidSweep`] when `points < 2` or the
    /// range is degenerate; otherwise as [`Synthesizer::run_many`].
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
    fn run_many_equals_per_option_runs() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(8, PpgKind::And);
        let targeted = |t: f64, budget: usize| SynthesisOptions {
            target_delay_ns: Some(t),
            max_upsizes: budget,
        };
        let options = vec![
            targeted(0.85, 40),
            SynthesisOptions::default(),
            targeted(0.7, 800),
            targeted(1.15, 40),
            targeted(1.0, 800),
            targeted(0.6, 40),
        ];
        let many = synth.run_many(&nl, &options).unwrap();
        let single: Vec<SynthesisReport> =
            options.iter().map(|o| synth.run(&nl, o).unwrap()).collect();
        assert_eq!(many, single, "every field, work counters included, in request order");
        for (r, o) in many.iter().zip(&options) {
            assert_eq!(r.target_delay_ns, o.target_delay_ns);
        }
    }

    #[test]
    fn non_finite_targets_are_errors_at_both_front_doors() {
        use crate::IncrementalSynthesis;
        let nl = mul_netlist(4, PpgKind::And);
        let synth = Synthesizer::nangate45();
        let mut session = IncrementalSynthesis::nangate45();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let options = [SynthesisOptions::with_target(1.0), SynthesisOptions::with_target(bad)];
            let is_rejected = |r: Result<Vec<SynthesisReport>, SynthError>| {
                matches!(r, Err(SynthError::NonFiniteTarget { target_ns })
                    if target_ns.to_bits() == bad.to_bits())
            };
            assert!(is_rejected(synth.run_many(&nl, &options)), "stateless, target {bad}");
            assert!(is_rejected(session.run_many(&nl, &options)), "session, target {bad}");
        }
        assert!(session.last_mode().is_none(), "a rejected call leaves no state behind");
        assert!(synth.sweep(&nl, f64::NAN, 1.0, 3).is_err());
    }

    #[test]
    fn invalid_sweep_is_rejected() {
        let synth = Synthesizer::nangate45();
        let nl = mul_netlist(4, PpgKind::And);
        assert!(synth.sweep(&nl, 1.0, 0.5, 4).is_err());
        assert!(synth.sweep(&nl, 0.5, 1.0, 1).is_err());
    }
}
