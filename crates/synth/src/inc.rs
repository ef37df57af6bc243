//! Incremental synthesis session: re-synthesize an edited netlist in
//! time proportional to the edit, with results bit-identical to a
//! from-scratch [`Synthesizer`] run.
//!
//! The session caches, between calls, everything a full run would
//! rebuild from zero even though most of it did not change:
//!
//! * the previous netlist and the allocations of its [`NetConn`]
//!   connectivity tables, which every call rebuilds in place;
//! * the all-X1 cell binding every mapping starts from — rebound only
//!   over the suffix gates — and the net loads under it;
//! * the all-X1 baseline arrival times — rebased through the edit's
//!   fanout cone by [`IncrementalSta::patch_baseline`] instead of a
//!   whole-netlist propagation pass;
//! * the signal probabilities behind every power estimate — they
//!   depend on the netlist alone, so only the suffix gates are
//!   re-propagated, and all delay targets share them;
//! * the (ascending) flip-flop gate list for endpoint scans.
//!
//! Delay targets with a common move budget then share one sizing
//! trajectory ([`size_to_targets_seeded`]), which mirrors
//! [`size_to_target`](crate::size_to_target) decision for decision.
//! Because every floating-point operation that feeds a decision is
//! evaluated on identical operands in identical order, the reported
//! PPA numbers equal the full run's bit for bit — only the
//! [`StaStats`] work counters differ (that equality is asserted as a
//! debug-build oracle against a real full run).

use crate::library::{Drive, Library};
use crate::map::{net_loads, x1_cell_of, MappedNetlist, NetConn};
use crate::power::{propagate_probabilities, report_sums, signal_probabilities};
use crate::size::{size_to_targets_seeded, TargetStop};
use crate::sta::{worst_endpoint, IncrementalSta, StaStats};
use crate::synth::{SynthesisOptions, SynthesisReport, Synthesizer};
use crate::SynthError;
use rlmul_rtl::{shared_gate_prefix, GateKind, NetId, Netlist};

/// The shared per-step state of one netlist, carried to the next call.
#[derive(Debug, Clone)]
struct PrevState {
    netlist: Netlist,
    conn: NetConn,
    /// All-X1 arrival times (the sizing loops' shared starting point).
    baseline: Vec<f64>,
    /// Dff gate indices in ascending (= netlist) order.
    dffs: Vec<u32>,
    /// All-X1 cell binding — each target's mapping starts as a memcpy
    /// of this instead of per-gate library lookups.
    cell_of: Vec<usize>,
    /// Net loads under `cell_of`, copied into each mapping alongside it.
    loads: Vec<f64>,
    /// Signal probability of every net, for power estimates.
    probs: Vec<f64>,
}

impl PrevState {
    /// A fresh all-X1 mapping of the state's netlist over the shared
    /// tables.
    fn mapping<'a>(&'a self, library: &'a Library) -> MappedNetlist<'a> {
        MappedNetlist::map_with_parts(
            &self.netlist,
            library,
            &self.conn,
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

/// How the shared per-step state was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthMode {
    /// No usable previous state: everything was built from scratch.
    Full,
    /// Previous state was patched over the edit suffix.
    Patched,
}

/// A stateful synthesis engine for sequences of closely related
/// netlists — the RL loop's one-action-per-step edits.
///
/// [`IncrementalSynthesis::run_many`] accepts the same inputs as
/// [`Synthesizer::run_many`] and returns bit-identical reports
/// (modulo [`StaStats`]); it is simply faster when the netlist shares
/// a long gate prefix with the previous call's.
#[derive(Debug, Clone)]
pub struct IncrementalSynthesis {
    synthesizer: Synthesizer,
    prev: Option<PrevState>,
    last_mode: Option<SynthMode>,
}

impl IncrementalSynthesis {
    /// A session around `synthesizer`.
    pub fn new(synthesizer: Synthesizer) -> Self {
        IncrementalSynthesis { synthesizer, prev: None, last_mode: None }
    }

    /// Session with the NanGate45-flavoured default library.
    pub fn nangate45() -> Self {
        Self::new(Synthesizer::nangate45())
    }

    /// The bound library.
    pub fn library(&self) -> &Library {
        self.synthesizer.library()
    }

    /// The underlying stateless engine.
    pub fn synthesizer(&self) -> &Synthesizer {
        &self.synthesizer
    }

    /// Drops cached state; the next call rebuilds from scratch.
    pub fn reset(&mut self) {
        self.prev = None;
        self.last_mode = None;
    }

    /// Whether the previous [`IncrementalSynthesis::run_many`] patched
    /// cached state or built it from scratch.
    pub fn last_mode(&self) -> Option<SynthMode> {
        self.last_mode
    }

    /// Synthesizes once per target delay, like
    /// [`Synthesizer::run_multi`].
    ///
    /// # Errors
    ///
    /// As [`IncrementalSynthesis::run_many`].
    pub fn run_multi(
        &mut self,
        netlist: &Netlist,
        targets_ns: &[f64],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let options: Vec<SynthesisOptions> =
            targets_ns.iter().map(|&t| SynthesisOptions::with_target(t)).collect();
        self.run_many(netlist, &options)
    }

    /// Runs one synthesis per option set against `netlist`, reusing as
    /// much of the previous call's work as the gate-prefix overlap
    /// allows. Reports are in option order and bit-identical (modulo
    /// [`StaStats`]) to [`Synthesizer::run_many`].
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyNetlist`] for gate-free netlists.
    pub fn run_many(
        &mut self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        if netlist.gates().is_empty() {
            return Err(SynthError::EmptyNetlist);
        }
        let obs = rlmul_obs::global();
        let _span = obs.span("synth.inc_run");
        // check: allow(wall-clock) duration feeds the obs histogram only
        let started = std::time::Instant::now();

        let (state, mode) = self.prepare_state(netlist);
        let library = self.synthesizer.library();

        let mut slots: Vec<Option<SynthesisReport>> = vec![None; options.len()];
        // Min-area options report straight off the shared baseline.
        for (i, o) in options.iter().enumerate() {
            if o.target_delay_ns.is_none() {
                let _r = obs.span("synth.inc_report");
                let mapped = state.mapping(library);
                let (worst, _) = worst_endpoint(&mapped, &state.baseline, Some(&state.dffs));
                let stop = TargetStop {
                    worst_delay_ns: worst,
                    moves: 0,
                    met_target: true,
                    sta: StaStats::default(),
                };
                slots[i] = Some(state.report(&mapped, o, &stop));
            }
        }

        // Delay-targeted options with a common move budget share one
        // sizing trajectory: batch selection never reads the target,
        // so each option's independent run is a prefix of the
        // tightest's, and its report is emitted at its stop point. The
        // reports (power plus report fields) get their own child span,
        // so this span's exclusive time is the trajectory alone.
        let _s = obs.span("synth.inc_sizing");
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
            let mut mapped = state.mapping(library);
            size_to_targets_seeded(
                &mut mapped,
                &targets,
                budget,
                state.baseline.clone(),
                &state.dffs,
                |m, ti, stop| {
                    let _r = obs.span("synth.inc_report");
                    slots[group[ti]] = Some(state.report(m, &options[group[ti]], stop));
                },
            );
        }
        let reports: Vec<SynthesisReport> =
            slots.into_iter().map(|s| s.expect("every option produced a report")).collect();

        // Debug oracle: the incremental session must report the same
        // PPA as a from-scratch run, bit for bit (work counters aside).
        #[cfg(debug_assertions)]
        for (r, o) in reports.iter().zip(options) {
            let full = self.synthesizer.run(netlist, o).expect("full-run oracle failed");
            debug_assert!(
                r.area_um2 == full.area_um2
                    && r.delay_ns == full.delay_ns
                    && r.power_mw == full.power_mw
                    && r.met_target == full.met_target
                    && r.drive_histogram == full.drive_histogram
                    && r.sizing_moves == full.sizing_moves
                    && r.num_cells == full.num_cells,
                "incremental synthesis diverged from full run at target {:?}: \
                 {:?} vs {:?}",
                o.target_delay_ns,
                (r.area_um2, r.delay_ns, r.power_mw),
                (full.area_um2, full.delay_ns, full.power_mw),
            );
        }

        if obs.is_enabled() {
            obs.counter("rlmul_synth_inc_sessions_total", "Incremental synthesis session runs.")
                .inc();
            let label = match mode {
                SynthMode::Full => "full",
                SynthMode::Patched => "patched",
            };
            obs.labeled_counter(
                "rlmul_synth_inc_mode_total",
                "Incremental synthesis state preparation mode.",
                &[("mode", label)],
            )
            .inc();
            obs.histogram(
                "rlmul_synth_inc_run_seconds",
                "Wall time per incremental synthesis session run.",
            )
            .observe_duration(started.elapsed());
        }

        self.prev = Some(state);
        self.last_mode = Some(mode);
        Ok(reports)
    }

    /// Produces the shared per-step state for `netlist` — patched from
    /// the previous call when the netlists overlap, rebuilt otherwise.
    fn prepare_state(&mut self, netlist: &Netlist) -> (PrevState, SynthMode) {
        let _s = rlmul_obs::global().span("synth.inc_prepare");
        let taken = self.prev.take();
        let library = self.synthesizer.library();
        let prev = match taken {
            // Patching splices suffixes over a shared gate prefix and
            // identical input ports; anything else falls back to a
            // from-scratch build.
            Some(p) if p.netlist.inputs() == netlist.inputs() => p,
            _ => {
                let conn = NetConn::build(netlist);
                let cell_of = x1_cell_of(netlist, library);
                let mut loads = Vec::new();
                net_loads(netlist, library, &conn, &cell_of, &mut loads);
                let mut state = PrevState {
                    netlist: netlist.clone(),
                    conn,
                    baseline: Vec::new(),
                    dffs: Vec::new(),
                    cell_of,
                    loads,
                    probs: signal_probabilities(netlist),
                };
                extend_dffs(netlist, 0, &mut state.dffs);
                state.baseline = crate::sta::analyze(&state.mapping(library)).arrivals;
                return (state, SynthMode::Full);
            }
        };

        let k = shared_gate_prefix(prev.netlist.gates(), netlist.gates());
        let PrevState {
            netlist: mut prev_netlist,
            mut conn,
            baseline,
            mut dffs,
            mut cell_of,
            mut loads,
            mut probs,
        } = prev;

        conn.rebuild(netlist);
        // Prefix bindings are all-X1 already; only the new tail needs
        // lookups.
        cell_of.truncate(k);
        cell_of.extend(netlist.gates()[k..].iter().map(|g| library.cell_index(g.kind, Drive::X1)));
        // Every load is re-summed. A prefix gate whose output load moved
        // seeds the baseline rebase; one whose loads all kept their bits
        // keeps its arrival, since its cell did not change and its fanin
        // is rebased before it is read.
        let old_loads = std::mem::take(&mut loads);
        net_loads(netlist, library, &conn, &cell_of, &mut loads);
        let seeds: Vec<usize> = (0..loads.len().min(old_loads.len()))
            .filter(|&net| loads[net] != old_loads[net])
            .filter_map(|net| conn.driver_index(NetId(net as u32)))
            .map(|d| d as usize)
            .filter(|&d| d < k)
            .collect();
        let nets = netlist.num_nets() as usize;
        probs.resize(nets, 0.5);
        propagate_probabilities(netlist, &mut probs, k);

        dffs.retain(|&gi| (gi as usize) < k);
        extend_dffs(netlist, k, &mut dffs);

        // The rebase reads the templates through a mapping that takes
        // them over and hands them back uncopied.
        let mapped = MappedNetlist::map_with_parts(netlist, library, &conn, cell_of, loads);
        let mut sta = IncrementalSta::from_baseline(baseline);
        sta.patch_baseline(&mapped, &seeds, k);
        let (cell_of, loads) = mapped.into_parts();
        prev_netlist.clone_from(netlist);
        let state = PrevState {
            netlist: prev_netlist,
            conn,
            baseline: sta.into_arrivals(),
            dffs,
            cell_of,
            loads,
            probs,
        };
        (state, SynthMode::Patched)
    }
}

/// Appends the Dff gates of `netlist.gates()[from..]` to `dffs`, in
/// ascending order.
fn extend_dffs(netlist: &Netlist, from: usize, dffs: &mut Vec<u32>) {
    for (gi, g) in netlist.gates().iter().enumerate().skip(from) {
        if g.kind == GateKind::Dff {
            dffs.push(gi as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::{
        elaborate_pipelined, AdderKind, IncrementalMultiplier, MultiplierNetlist, PipelineCuts,
    };

    const TARGETS: [f64; 4] = [0.7, 0.85, 1.0, 1.15];

    fn strip_sta(mut r: SynthesisReport) -> SynthesisReport {
        r.sta = StaStats::default();
        r
    }

    #[test]
    fn session_matches_full_runs_across_an_action_walk() {
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let mut inc = IncrementalMultiplier::new(&tree).unwrap();
        let mut session = IncrementalSynthesis::nangate45();
        let full = Synthesizer::nangate45();

        // Deterministic action walk, as in the rtl incremental tests.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut tree = tree;
        for step in 0..4 {
            let reports = session.run_multi(inc.netlist(), &TARGETS).unwrap();
            let oracle = full.run_multi(inc.netlist(), &TARGETS).unwrap();
            for (r, o) in reports.into_iter().zip(oracle) {
                assert_eq!(strip_sta(r), strip_sta(o), "step {step}");
            }
            let actions = tree.valid_actions();
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = actions[(seed >> 33) as usize % actions.len()];
            tree = tree.apply_action(a).unwrap();
            inc.retarget(&tree).unwrap();
        }
        assert_eq!(session.last_mode(), Some(SynthMode::Patched));
    }

    #[test]
    fn first_run_is_full_then_patched() {
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mut session = IncrementalSynthesis::nangate45();
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Full));
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Patched));
        session.reset();
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Full));
    }

    #[test]
    fn min_area_run_matches_full_path() {
        let tree = CompressorTree::dadda(4, PpgKind::Mbe).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mut session = IncrementalSynthesis::nangate45();
        let r = session.run_many(&nl, &[SynthesisOptions::default()]).unwrap();
        let o = Synthesizer::nangate45().run(&nl, &SynthesisOptions::default()).unwrap();
        assert_eq!(strip_sta(r.into_iter().next().unwrap()), strip_sta(o));
    }

    /// Checks the session's rebuilt connectivity table and cached load
    /// template against a naive scan of `netlist`'s gates: every net's
    /// `(gate, pin)` sinks in ascending order, its driver, its
    /// primary-output fanout, and its load summed over those sinks.
    fn tables_match_naive_scan(
        session: &IncrementalSynthesis,
        netlist: &Netlist,
    ) -> Result<(), TestCaseError> {
        let state = session.prev.as_ref().expect("a call left its state");
        let nets = netlist.num_nets() as usize;
        let mut sinks = vec![Vec::new(); nets];
        let mut driver = vec![None; nets];
        let mut po_fanout = vec![0u16; nets];
        for (gi, g) in netlist.gates().iter().enumerate() {
            for (pin, &net) in g.ins.iter().enumerate().take(g.kind.num_inputs()) {
                if !net.is_const() {
                    sinks[net.0 as usize].push((gi as u32, pin as u8));
                }
            }
            for &net in &g.outs[..g.kind.num_outputs()] {
                driver[net.0 as usize] = Some(gi as u32);
            }
        }
        for &bit in netlist.outputs().iter().flat_map(|p| &p.bits) {
            if !bit.is_const() {
                po_fanout[bit.0 as usize] += 1;
            }
        }
        let library = session.library();
        let conn = &state.conn;
        prop_assert_eq!(conn.num_nets(), nets);
        for n in 0..nets {
            let net = NetId(n as u32);
            prop_assert_eq!(conn.sinks(net), &sinks[n][..], "sinks of net {}", n);
            prop_assert_eq!(conn.driver_index(net), driver[n].filter(|_| !net.is_const()));
            prop_assert_eq!(conn.po_fanout(net), po_fanout[n], "po fanout of net {}", n);
            let pin_caps: f64 = sinks[n]
                .iter()
                .map(|&(gi, _)| {
                    let kind = netlist.gates()[gi as usize].kind;
                    library.cell(library.cell_index(kind, Drive::X1)).input_cap_ff
                })
                .sum();
            let po = f64::from(po_fanout[n]);
            let fanout = sinks[n].len() as f64 + po;
            let load =
                pin_caps + fanout * library.wire_cap_per_fanout_ff + po * library.output_load_ff;
            prop_assert_eq!(state.loads[n].to_bits(), load.to_bits(), "load of net {}", n);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// After every call of a seeded accept/reject walk — forward
        /// edits and reverts alike — the connectivity table and the
        /// load template equal a naive scan of the netlist. The walks
        /// cover 8-bit AND, 6-bit MBE, and 6-bit AND with both pipeline
        /// cuts registered, whose netlists carry Dff gates.
        #[test]
        fn tables_match_a_naive_scan_along_walks(seed in any::<u64>()) {
            let registered = PipelineCuts { after_ppg: true, before_cpa: true };
            for (bits, kind, cuts) in [
                (8, PpgKind::And, PipelineCuts::default()),
                (6, PpgKind::Mbe, PipelineCuts::default()),
                (6, PpgKind::And, registered),
            ] {
                let elaborate = |t: &CompressorTree| {
                    elaborate_pipelined(t, AdderKind::default(), cuts).unwrap()
                };
                let mut tree = CompressorTree::wallace(bits, kind).unwrap();
                let mut session = IncrementalSynthesis::nangate45();
                let start = elaborate(&tree);
                let has_dffs = start.gates().iter().any(|g| g.kind == GateKind::Dff);
                prop_assert_eq!(has_dffs, cuts == registered);
                session.run_multi(&start, &TARGETS).unwrap();
                tables_match_naive_scan(&session, &start)?;
                let mut rng = seed;
                let mut next = || {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (rng >> 33) as usize
                };
                for _ in 0..8 {
                    // Synthesize a proposal, then keep about half of
                    // them, so the next call edits either the proposal
                    // or the netlist before it.
                    let actions = tree.valid_actions();
                    let proposal = tree.apply_action(actions[next() % actions.len()]).unwrap();
                    let netlist = elaborate(&proposal);
                    session.run_multi(&netlist, &TARGETS).unwrap();
                    prop_assert_eq!(session.last_mode(), Some(SynthMode::Patched));
                    tables_match_naive_scan(&session, &netlist)?;
                    if next() % 2 == 0 {
                        tree = proposal;
                    }
                }
            }
        }
    }

    #[test]
    fn empty_netlist_is_an_error() {
        let mut b = rlmul_rtl::NetlistBuilder::new("empty");
        let x = b.input("x", 1);
        b.output("y", &[x[0]]);
        let n = b.finish();
        let mut session = IncrementalSynthesis::nangate45();
        assert!(matches!(session.run_many(&n, &[]), Err(SynthError::EmptyNetlist)));
    }
}
