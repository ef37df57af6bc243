//! Incremental synthesis session: re-synthesize an edited netlist in
//! time proportional to the edit, with results bit-identical to a
//! from-scratch [`Synthesizer`] run.
//!
//! The session reads the netlist's [`NetConn`] connectivity table —
//! the one the incremental elaborator keeps up to date — and keeps,
//! between calls, the per-netlist tables a from-scratch run would
//! rebuild from zero even though most of them did not change, patching
//! them over the edit's gate suffix:
//!
//! * the all-X1 cell binding every mapping starts from — rebound only
//!   over the suffix gates — and the net loads under it, re-summed
//!   only for the nets the table's last update touched (every net when
//!   the session did not read the state that update started from);
//! * the all-X1 baseline arrival times — rebased through the edit's
//!   fanout cone by [`IncrementalSta::patch_baseline`] instead of a
//!   whole-netlist propagation pass;
//! * the signal probabilities behind every power estimate — they
//!   depend on the netlist alone, so only the suffix gates are
//!   re-propagated, and all delay targets share them;
//! * the (ascending) flip-flop gate list for endpoint scans.
//!
//! The reports then come from the same code as a stateless run: one
//! shared sizing trajectory per move budget. So the PPA numbers equal
//! a from-scratch run's bit for bit — only the
//! [`StaStats`](crate::StaStats) work counters differ, since no full
//! timing pass is charged (debug builds assert the equality against a
//! stateless run of every call).

use crate::library::{Drive, Library};
use crate::map::{net_load, MappedNetlist};
use crate::power::propagate_probabilities;
use crate::sta::{extend_dffs, IncrementalSta};
use crate::synth::{check, synthesize, SynthesisOptions, SynthesisReport, Synthesizer, Tables};
use crate::SynthError;
use rlmul_rtl::{shared_gate_prefix, Connected, NetConn, NetId, Netlist};

/// The previous call's netlist, the stamp of the connectivity table it
/// came with, and the tables built for it, carried to the next call.
#[derive(Debug, Clone)]
struct PrevState {
    netlist: Netlist,
    stamp: u64,
    tables: Tables,
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
/// [`Synthesizer::run_many`] and returns bit-identical reports (modulo
/// [`StaStats`](crate::StaStats)); it is simply faster when the
/// netlist shares a long gate prefix with the previous call's.
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
    /// [`StaStats`](crate::StaStats)) to [`Synthesizer::run_many`].
    /// Builds the netlist's connectivity table and runs
    /// [`IncrementalSynthesis::run_connected`].
    ///
    /// # Errors
    ///
    /// As [`Synthesizer::run_many`]; a rejected call leaves the cached
    /// state as it was.
    pub fn run_many(
        &mut self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let conn = NetConn::build(netlist);
        self.run_connected(Connected::new(netlist, &conn), options)
    }

    /// [`IncrementalSynthesis::run_many`] over a netlist whose
    /// connectivity table is already built, such as the one
    /// [`IncrementalMultiplier`](rlmul_rtl::IncrementalMultiplier)
    /// keeps. When the table's last update started from the table
    /// state the previous call read, only the nets it touched have
    /// their loads re-summed.
    ///
    /// # Errors
    ///
    /// As [`IncrementalSynthesis::run_many`].
    pub fn run_connected(
        &mut self,
        connected: Connected<'_>,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let (netlist, conn) = (connected.netlist(), connected.conn());
        check(netlist, options)?;
        let obs = rlmul_obs::global();
        let _span = obs.span("synth.inc_run");
        // check: allow(wall-clock) duration feeds the obs histogram only
        let started = std::time::Instant::now();

        let (state, mode) = self.prepare_state(netlist, conn);
        let reports = synthesize(netlist, conn, &state.tables, self.library(), options);

        // Debug oracle: the patched tables must give the same PPA as a
        // from-scratch run, bit for bit (work counters aside).
        #[cfg(debug_assertions)]
        {
            let full = self.synthesizer.run_many(netlist, options).expect("from-scratch oracle");
            for (r, f) in reports.iter().zip(&full) {
                debug_assert!(
                    SynthesisReport { sta: f.sta, ..r.clone() } == *f,
                    "incremental synthesis diverged from a from-scratch run: {r:?} vs {f:?}"
                );
            }
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

    /// Produces the tables for `netlist` — patched from the previous
    /// call's when the netlists overlap, built from scratch otherwise.
    fn prepare_state(&mut self, netlist: &Netlist, conn: &NetConn) -> (PrevState, SynthMode) {
        let _s = rlmul_obs::global().span("synth.inc_prepare");
        let taken = self.prev.take();
        let library = self.synthesizer.library();
        let prev = match taken {
            // Patching splices suffixes over a shared gate prefix and
            // identical input ports; anything else falls back to a
            // from-scratch build.
            Some(p) if p.netlist.inputs() == netlist.inputs() => p,
            _ => {
                let tables = Tables::build(netlist, conn, library);
                let state = PrevState { netlist: netlist.clone(), stamp: conn.stamp(), tables };
                return (state, SynthMode::Full);
            }
        };

        // The table's last edit applies when it started from the state
        // the previous call read; then its prefix is the shared one.
        let edit = conn.edit_since(prev.stamp);
        let k =
            edit.map_or_else(|| shared_gate_prefix(prev.netlist.gates(), netlist.gates()), |e| e.0);
        let PrevState {
            netlist: mut prev_netlist,
            stamp: _,
            tables: Tables { baseline, mut dffs, mut cell_of, mut loads, mut probs },
        } = prev;

        // Prefix bindings are all-X1 already; only the new tail needs
        // lookups.
        cell_of.truncate(k);
        cell_of.extend(netlist.gates()[k..].iter().map(|g| library.cell_index(g.kind, Drive::X1)));
        let seeds = rebase_loads(library, conn, &cell_of, &mut loads, edit.map(|e| e.1), k);
        let nets = netlist.num_nets() as usize;
        probs.resize(nets, 0.5);
        propagate_probabilities(netlist, &mut probs, k);

        dffs.retain(|&gi| (gi as usize) < k);
        extend_dffs(netlist, k, &mut dffs);

        // The rebase reads the templates through a mapping that takes
        // them over and hands them back uncopied.
        let mapped = MappedNetlist::map_with_parts(netlist, library, conn, cell_of, loads);
        let mut sta = IncrementalSta::from_baseline(baseline);
        sta.patch_baseline(&mapped, &seeds, k);
        let (cell_of, loads) = mapped.into_parts();
        prev_netlist.clone_from(netlist);
        let tables = Tables { baseline: sta.into_arrivals(), dffs, cell_of, loads, probs };
        (PrevState { netlist: prev_netlist, stamp: conn.stamp(), tables }, SynthMode::Patched)
    }
}

/// Brings `loads` from an earlier netlist that shares the table's
/// first `k` gates up to date under the binding `cell_of`, and returns
/// the baseline rebase seeds: every gate before `k` driving a net whose
/// load moved. A gate whose loads all kept their bits keeps its
/// arrival, since its cell did not change and its fanin is rebased
/// before it is read.
///
/// Only the nets in `touched` are re-summed, every net without it: a
/// net outside it keeps its sinks, its primary-output fanout and, its
/// sinks being prefix gates, their cells. Each load is summed in sink
/// order, so its bits equal a full [`net_loads`] pass's.
///
/// [`net_loads`]: crate::map::net_loads
fn rebase_loads(
    library: &Library,
    conn: &NetConn,
    cell_of: &[usize],
    loads: &mut Vec<f64>,
    touched: Option<&[NetId]>,
    k: usize,
) -> Vec<usize> {
    let old_len = loads.len();
    loads.resize(conn.num_nets(), 0.0);
    let mut seeds = Vec::new();
    let mut resum = |net: usize| {
        let load = net_load(library, conn, cell_of, net);
        let old = std::mem::replace(&mut loads[net], load);
        if net < old_len && old != load {
            let driver = conn.driver_of(NetId(net as u32)).map(|d| d as usize);
            seeds.extend(driver.filter(|&d| d < k));
        }
    };
    match touched {
        Some(touched) => touched.iter().for_each(|net| resum(net.0 as usize)),
        None => (0..conn.num_nets()).for_each(resum),
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::net_loads;
    use crate::StaStats;
    use proptest::prelude::*;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::{
        elaborate_pipelined, AdderKind, GateKind, IncrementalMultiplier, MultiplierNetlist,
        PipelineCuts,
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

    /// Checks a connectivity table and the session's cached load
    /// template against a naive scan of `netlist`'s gates: every net's
    /// `(gate, pin)` sinks in ascending order, its driver, its
    /// primary-output fanout, and its load summed over those sinks.
    fn tables_match_naive_scan(
        session: &IncrementalSynthesis,
        netlist: &Netlist,
        conn: &NetConn,
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
        prop_assert_eq!(conn.num_nets(), nets);
        for n in 0..nets {
            let net = NetId(n as u32);
            prop_assert_eq!(conn.sinks(net), &sinks[n][..], "sinks of net {}", n);
            prop_assert_eq!(conn.driver_of(net), driver[n].filter(|_| !net.is_const()));
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
            prop_assert_eq!(state.tables.loads[n].to_bits(), load.to_bits(), "load of net {}", n);
        }
        Ok(())
    }

    /// Re-sums the session's cached loads onto `netlist` over the
    /// table's touched nets only, and checks the load bits and the
    /// rebase seeds against a full gate-order re-sum: every net whose
    /// load moved seeds its driver when that lies in the shared prefix.
    fn touched_resum_matches_full(
        session: &IncrementalSynthesis,
        connected: Connected<'_>,
    ) -> Result<(), TestCaseError> {
        let (netlist, conn) = (connected.netlist(), connected.conn());
        let state = session.prev.as_ref().expect("a call left its state");
        let (shared, touched) = conn.edit_since(state.stamp).expect("the table moved on from it");
        prop_assert_eq!(shared, shared_gate_prefix(state.netlist.gates(), netlist.gates()));
        let library = session.library();
        let mut cell_of = state.tables.cell_of.clone();
        cell_of.truncate(shared);
        cell_of.extend(
            netlist.gates()[shared..].iter().map(|g| library.cell_index(g.kind, Drive::X1)),
        );
        let (old, mut part, mut full) = (&state.tables.loads, state.tables.loads.clone(), vec![]);
        let part_seeds = rebase_loads(library, conn, &cell_of, &mut part, Some(touched), shared);
        net_loads(netlist, library, conn, &cell_of, &mut full);
        let full_seeds: Vec<usize> = (0..full.len().min(old.len()))
            .filter(|&net| full[net] != old[net])
            .filter_map(|net| conn.driver_of(NetId(net as u32)).map(|d| d as usize))
            .filter(|&d| d < shared)
            .collect();
        let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&part), bits(&full));
        prop_assert_eq!(part_seeds, full_seeds);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// After every call of a seeded accept/reject walk — forward
        /// edits and reverts alike — the connectivity table and the
        /// load template equal a naive scan of the netlist. The walks
        /// cover 8-bit AND, 6-bit MBE, and 6-bit AND with both pipeline
        /// cuts registered, whose netlists carry Dff gates, each
        /// synthesized through [`IncrementalSynthesis::run_many`]; and
        /// 8-bit AND and MBE through the table an
        /// [`IncrementalMultiplier`] keeps, where only the touched nets
        /// are re-summed, to the same load bits and rebase seeds as a
        /// full re-sum.
        #[test]
        fn tables_match_a_naive_scan_along_walks(seed in any::<u64>()) {
            let registered = PipelineCuts { after_ppg: true, before_cpa: true };
            let options: Vec<SynthesisOptions> =
                TARGETS.iter().map(|&t| SynthesisOptions::with_target(t)).collect();
            // An edit whose only hold on a prefix net is the output
            // port: `m` stops being an output bit, which moves its load
            // and makes its driver a rebase seed.
            let edit = |last: GateKind, read_m: bool| {
                let mut b = rlmul_rtl::NetlistBuilder::new("edit");
                let x = b.input("x", 2);
                let n = b.and2(x[0], x[1]);
                let m = b.xor2(x[0], x[1]);
                let z = if last == GateKind::Or2 { b.or2(n, x[0]) } else { b.nand2(n, x[0]) };
                b.output("o", &if read_m { vec![z, m] } else { vec![z] });
                b.finish()
            };
            let (before, after) = (edit(GateKind::Or2, true), edit(GateKind::Nand2, false));
            let mut conn = NetConn::build(&before);
            let mut session = IncrementalSynthesis::nangate45();
            session.run_connected(Connected::new(&before, &conn), &options).unwrap();
            conn.update(&after, 2, &before.gates()[2..], before.outputs());
            touched_resum_matches_full(&session, Connected::new(&after, &conn))?;
            session.run_connected(Connected::new(&after, &conn), &options).unwrap();
            tables_match_naive_scan(&session, &after, &conn)?;

            for (bits, kind, cuts, handed_over) in [
                (8, PpgKind::And, PipelineCuts::default(), false),
                (6, PpgKind::Mbe, PipelineCuts::default(), false),
                (6, PpgKind::And, registered, false),
                (8, PpgKind::And, PipelineCuts::default(), true),
                (8, PpgKind::Mbe, PipelineCuts::default(), true),
            ] {
                let elaborate = |t: &CompressorTree| {
                    elaborate_pipelined(t, AdderKind::default(), cuts).unwrap()
                };
                let mut tree = CompressorTree::wallace(bits, kind).unwrap();
                let mut session = IncrementalSynthesis::nangate45();
                let mut mul = IncrementalMultiplier::new(&tree).unwrap();
                let start = elaborate(&tree);
                let has_dffs = start.gates().iter().any(|g| g.kind == GateKind::Dff);
                prop_assert_eq!(has_dffs, cuts == registered);
                if handed_over {
                    session.run_connected(mul.connected(), &options).unwrap();
                    tables_match_naive_scan(&session, mul.netlist(), mul.conn())?;
                } else {
                    session.run_multi(&start, &TARGETS).unwrap();
                    tables_match_naive_scan(&session, &start, &NetConn::build(&start))?;
                }
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
                    if handed_over {
                        mul.retarget(&proposal).unwrap();
                        touched_resum_matches_full(&session, mul.connected())?;
                        session.run_connected(mul.connected(), &options).unwrap();
                        prop_assert_eq!(session.last_mode(), Some(SynthMode::Patched));
                        tables_match_naive_scan(&session, mul.netlist(), mul.conn())?;
                    } else {
                        let netlist = elaborate(&proposal);
                        session.run_multi(&netlist, &TARGETS).unwrap();
                        prop_assert_eq!(session.last_mode(), Some(SynthMode::Patched));
                        tables_match_naive_scan(&session, &netlist, &NetConn::build(&netlist))?;
                    }
                    if next() % 2 == 0 {
                        tree = proposal;
                    } else if handed_over {
                        // A rejection's follow-up: back to the kept tree.
                        mul.retarget(&tree).unwrap();
                        touched_resum_matches_full(&session, mul.connected())?;
                        session.run_connected(mul.connected(), &options).unwrap();
                        tables_match_naive_scan(&session, mul.netlist(), mul.conn())?;
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
