//! TILOS-style greedy gate sizing under a delay target.
//!
//! Starting from an all-X1 mapping (minimum area), the sizer
//! repeatedly upsizes the critical-path cell with the best estimated
//! delay-gain per added area until the target is met, no move helps,
//! or the move budget is exhausted. This reproduces the mechanism by
//! which synthesizing the same RTL under different delay constraints
//! yields different area/power points (paper Section V-A).

use crate::library::Drive;
use crate::map::MappedNetlist;
use crate::sta::{critical_path_from, worst_endpoint, IncrementalSta, StaStats, TimingReport};

/// Result of a sizing run.
#[derive(Debug, Clone)]
pub struct SizingOutcome {
    /// Final timing report.
    pub timing: TimingReport,
    /// Upsizing moves applied.
    pub moves: usize,
    /// Whether the delay target was met.
    pub met_target: bool,
    /// Timing-engine work counters for this run.
    pub sta: StaStats,
}

/// Upsizing moves applied per timing-analysis pass. Classic TILOS
/// re-times after every move; batching positive-gain moves along the
/// critical path converges to near-identical results in far fewer
/// STA passes, which matters for 10⁵-gate PE arrays.
const MOVES_PER_PASS: usize = 8;

/// Upstream resistance assumed when the critical input is a primary
/// input (no driver cell to read): a typical X1 drive resistance.
const PRIMARY_INPUT_DRIVE_RES_KOHM: f64 = 5.5;

/// Sizes `m` toward `target_ns`; `max_moves` bounds the loop.
///
/// One full timing pass of `m` as it stands seeds the shared sizing
/// trajectory with a single stop, which re-times every batch
/// incrementally through the fanout cone of the resized gates only
/// (bit-identical to a full pass; see [`IncrementalSta`]).
/// A NaN target stops at once, unmet.
pub fn size_to_target(
    m: &mut MappedNetlist<'_>,
    target_ns: f64,
    max_moves: usize,
) -> SizingOutcome {
    let mut sta = StaStats::full_pass(m.netlist());
    let baseline = crate::sta::arrivals(m);
    let mut stop = None;
    let arrivals = size_to_targets(m, &[target_ns], max_moves, baseline, None, |_, _, s| {
        stop = Some(s.clone());
    });
    let stop = stop.expect("the one target is emitted");
    sta.merge(stop.sta);
    let timing = TimingReport::from_arrivals(m, arrivals);
    SizingOutcome { timing, moves: stop.moves, met_target: stop.met_target, sta }
}

/// Stop-state handed to the emission callback of [`size_to_targets`].
#[derive(Debug, Clone)]
pub struct TargetStop {
    /// Worst endpoint arrival at the stop point.
    pub worst_delay_ns: f64,
    /// Upsizing moves applied up to the stop point.
    pub moves: usize,
    /// Whether the target was met there.
    pub met_target: bool,
    /// Incremental timing work done up to the stop point.
    pub sta: StaStats,
}

/// Sizes `m` along the single TILOS trajectory shared by several
/// delay targets, reporting each entry of `targets_ns` at its stop
/// point via `emit(m, target_index, stop)`, and returns the final
/// arrivals. This is the only sizing loop: every synthesis report
/// comes from it.
///
/// The loop starts from the supplied `baseline` arrivals of `m` and
/// skips the per-batch arrival clone of a full report; `dffs`, when
/// given, lists the Dff gate indices in ascending order so endpoint
/// scans skip the whole-netlist walk. Each batch upsizes the best-scoring critical-path cells and
/// is re-timed incrementally; debug builds check the arrivals and the
/// worst delay against a full [`analyze`](crate::analyze) after every
/// batch.
///
/// Batch selection depends only on the current mapping and arrival
/// state — the delay target merely decides when the loop *stops*. A
/// looser target's trajectory is therefore a prefix of a tighter
/// one's, and one trajectory serves all targets bit-identically:
/// `emit` observes `m` exactly as a run toward that target alone
/// would leave it. A NaN target stops at once, unmet.
pub(crate) fn size_to_targets(
    m: &mut MappedNetlist<'_>,
    targets_ns: &[f64],
    max_moves: usize,
    baseline: Vec<f64>,
    dffs: Option<&[u32]>,
    mut emit: impl FnMut(&MappedNetlist<'_>, usize, &TargetStop),
) -> Vec<f64> {
    let mut sta = IncrementalSta::new();
    sta.seed(m, baseline);
    let (mut worst, mut worst_net) = worst_endpoint(m, sta.arrivals(), dffs);
    // Ascending by target: the loosest pending target sits last and
    // satisfied targets pop off the back.
    let mut pending: Vec<(usize, f64)> = targets_ns.iter().copied().enumerate().collect();
    pending.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut moves = 0;
    let mut path = Vec::new();
    let mut batch = Batch::default();
    loop {
        while let Some(&(idx, target)) = pending.last() {
            if worst > target {
                break;
            }
            // Met, unless the target is NaN: that one stops here unmet.
            let met_target = worst <= target;
            let stop = TargetStop { worst_delay_ns: worst, moves, met_target, sta: sta.stats() };
            emit(m, idx, &stop);
            pending.pop();
        }
        if pending.is_empty() || moves >= max_moves {
            break;
        }
        critical_path_from(m, sta.arrivals(), worst_net, &mut path);
        let limit = MOVES_PER_PASS.min(max_moves - moves);
        if !batch.apply(m, &path, sta.arrivals(), limit) {
            break;
        }
        moves += batch.resized.len();
        sta.propagate(m, &batch.resized);
        (worst, worst_net) = worst_endpoint(m, sta.arrivals(), dffs);

        #[cfg(debug_assertions)]
        {
            let full = crate::sta::arrivals(m);
            let (full_worst, _) = worst_endpoint(m, &full, None);
            debug_assert!(
                full == sta.arrivals() && full_worst == worst,
                "incremental STA diverged from full analyze after {moves} moves \
                 (worst {worst} vs {full_worst})",
            );
        }
    }
    // Targets the trajectory never reached (move cap or no helpful
    // move left) all end in the same final state, exactly where their
    // own runs would have given up.
    for &(idx, target) in pending.iter().rev() {
        let stop = TargetStop {
            worst_delay_ns: worst,
            moves,
            met_target: worst <= target,
            sta: sta.stats(),
        };
        emit(m, idx, &stop);
    }
    sta.into_arrivals()
}

/// One sizing batch's buffers, reused from batch to batch so the loop
/// allocates nothing once they have grown.
#[derive(Debug, Default)]
struct Batch {
    /// Candidate upsizes with their gain-per-area scores.
    scored: Vec<(usize, Drive, f64)>,
    /// Gates resized by the last [`Batch::apply`].
    resized: Vec<usize>,
}

impl Batch {
    /// Applies up to `limit` distinct critical-path upsizes with the
    /// best estimated gain-per-area among moves with positive estimated
    /// gain, recording them in `resized`. Returns whether any applied.
    fn apply(
        &mut self,
        m: &mut MappedNetlist<'_>,
        critical_path: &[usize],
        arrivals: &[f64],
        limit: usize,
    ) -> bool {
        self.score(m, critical_path, arrivals);
        // Stable: equal scores keep critical-path order.
        self.scored.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite scores"));
        self.scored.truncate(limit);
        self.resized.clear();
        for &(gi, drive, _) in &self.scored {
            m.set_drive(gi, drive);
            self.resized.push(gi);
        }
        !self.resized.is_empty()
    }

    /// Fills `scored` with every positive-gain critical-path upsize, in
    /// path order.
    fn score(&mut self, m: &MappedNetlist<'_>, critical_path: &[usize], arrivals: &[f64]) {
        let n = m.netlist();
        self.scored.clear();
        for &gi in critical_path {
            let cell = m.cell_of(gi);
            let Some(up) = cell.drive.upsize() else { continue };
            let upcell = m.library().cell(m.library().cell_index(n.gates()[gi].kind, up));
            // Gain: lower drive resistance on our load …
            let load: f64 =
                n.gates()[gi].outputs().iter().map(|&o| m.load_ff(o)).fold(0.0, f64::max);
            let gain_out = (cell.drive_res_kohm - upcell.drive_res_kohm) * load / 1000.0;
            // … minus extra input capacitance slowing the upstream
            // driver. The path enters this gate through its
            // latest-arriving input, so charge that pin's actual driver
            // cell; primary inputs fall back to a typical X1 resistance.
            let upstream_r = n.gates()[gi]
                .inputs()
                .iter()
                .filter(|i| !i.is_const())
                .max_by(|a, b| {
                    arrivals[a.0 as usize]
                        .partial_cmp(&arrivals[b.0 as usize])
                        .expect("arrivals are finite")
                })
                .and_then(|&i| m.driver_of(i))
                .map(|d| m.cell_of(d).drive_res_kohm)
                .unwrap_or(PRIMARY_INPUT_DRIVE_RES_KOHM);
            let penalty = (upcell.input_cap_ff - cell.input_cap_ff) * upstream_r / 1000.0;
            let gain = gain_out - penalty;
            if gain <= 0.0 {
                continue;
            }
            let darea = upcell.area_um2 - cell.area_um2;
            self.scored.push((gi, up, gain / darea.max(1e-9)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::sta::analyze;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::MultiplierNetlist;

    #[test]
    fn sizing_trades_area_for_delay() {
        let lib = Library::nangate45();
        let tree = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();

        let mut loose = MappedNetlist::map(&nl, &lib);
        let t_loose = analyze(&loose).worst_delay_ns;
        let area_loose = loose.area_um2();
        let out_loose = size_to_target(&mut loose, t_loose + 1.0, 500);
        assert_eq!(out_loose.moves, 0, "already meets a loose target");

        let mut tight = MappedNetlist::map(&nl, &lib);
        let out_tight = size_to_target(&mut tight, t_loose * 0.8, 2000);
        assert!(out_tight.moves > 0);
        assert!(tight.area_um2() > area_loose);
        assert!(out_tight.timing.worst_delay_ns < t_loose);
    }

    /// The one-target trajectory from `m`'s own arrivals: moves, worst delay,
    /// met flag and the final binding of every gate.
    fn seeded(
        m: &mut MappedNetlist<'_>,
        target: f64,
        max_moves: usize,
        dffs: &[u32],
    ) -> (usize, f64, bool, Vec<String>) {
        let baseline = analyze(m).arrivals;
        let mut out = None;
        size_to_targets(m, &[target], max_moves, baseline, Some(dffs), |m, ti, stop| {
            assert_eq!(ti, 0);
            out = Some((stop.moves, stop.worst_delay_ns, stop.met_target, cell_names(m)));
        });
        out.expect("the one target is emitted")
    }

    fn cell_names(m: &MappedNetlist<'_>) -> Vec<String> {
        (0..m.netlist().gates().len()).map(|gi| m.cell_of(gi).name.clone()).collect()
    }

    #[test]
    fn seeded_sizing_is_bit_identical_to_from_scratch() {
        let lib = Library::nangate45();
        let tree = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();

        let mut a = MappedNetlist::map(&nl, &lib);
        let target = analyze(&a).worst_delay_ns * 0.8;
        let out_a = size_to_target(&mut a, target, 800);

        let mut b = MappedNetlist::map(&nl, &lib);
        let (moves, worst, met, cells) = seeded(&mut b, target, 800, &[]);

        assert_eq!(out_a.moves, moves);
        assert_eq!(out_a.met_target, met);
        assert_eq!(out_a.timing.worst_delay_ns.to_bits(), worst.to_bits());
        assert_eq!(cell_names(&a), cells);
        assert_eq!(out_a.timing.arrivals, analyze(&b).arrivals);
        assert_eq!(a.area_um2(), b.area_um2());
    }

    #[test]
    fn seeded_sizing_handles_sequential_endpoints() {
        let lib = Library::nangate45();
        let mut b = rlmul_rtl::NetlistBuilder::new("seq");
        let x = b.input("x", 4);
        let mut regs = Vec::new();
        for &xi in x.iter().take(4) {
            let q = b.dff(xi);
            regs.push(q);
        }
        let s0 = b.xor2(regs[0], regs[1]);
        let s1 = b.xor2(regs[2], regs[3]);
        let s = b.xor2(s0, s1);
        let q = b.dff(s);
        b.output("y", &[q]);
        let nl = b.finish();

        let dffs: Vec<u32> = nl
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == rlmul_rtl::GateKind::Dff)
            .map(|(gi, _)| gi as u32)
            .collect();
        assert_eq!(dffs.len(), 5);

        let mut full = MappedNetlist::map(&nl, &lib);
        let target = analyze(&full).worst_delay_ns * 0.9;
        let out_full = size_to_target(&mut full, target, 100);

        let mut m = MappedNetlist::map(&nl, &lib);
        let (moves, worst, _, cells) = seeded(&mut m, target, 100, &dffs);

        assert_eq!(out_full.moves, moves);
        assert_eq!(out_full.timing.worst_delay_ns.to_bits(), worst.to_bits());
        assert_eq!(cell_names(&full), cells);
    }

    #[test]
    fn unreachable_target_stops_gracefully() {
        let lib = Library::nangate45();
        let tree = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mut m = MappedNetlist::map(&nl, &lib);
        let out = size_to_target(&mut m, 0.01, 3000);
        assert!(!out.met_target);
        // But sizing still made things faster than all-X1.
        let fresh = MappedNetlist::map(&nl, &lib);
        assert!(out.timing.worst_delay_ns <= analyze(&fresh).worst_delay_ns);
    }
}
