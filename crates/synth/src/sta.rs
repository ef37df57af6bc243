//! Static timing analysis — the reproduction's OpenSTA stand-in.
//!
//! Arrival times propagate in topological order with the library's
//! load-dependent linear delay model. Endpoints are primary outputs
//! and flip-flop D pins (plus setup); startpoints are primary inputs
//! and flip-flop Q pins (plus clk→Q). The worst endpoint and its
//! critical path are reported for the sizing pass.
//!
//! Two engines share the delay model: [`analyze`] propagates over the
//! whole netlist, and [`IncrementalSta`] re-propagates only through
//! the fanout cone of gates touched by a sizing batch. Because both
//! evaluate the identical arc expression on identical operands, the
//! incremental arrivals are bit-identical to a full pass (asserted
//! after every sizing batch in debug builds).

use crate::map::MappedNetlist;
use rlmul_rtl::{Gate, GateKind, NetId, Netlist};

/// The inputs that output slot `k` of `g` actually depends on.
fn arc_inputs(g: &Gate, k: usize) -> &[NetId] {
    match (g.kind, k) {
        (GateKind::Compressor42, 2) => &g.ins[..3], // cout = maj(x1, x2, x3)
        _ => &g.ins[..g.kind.num_inputs()],
    }
}

/// Result of one timing analysis.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Worst path delay (combinational delay, or minimum clock period
    /// for sequential netlists), in ns.
    pub worst_delay_ns: f64,
    /// Arrival time of every net, ns.
    pub arrivals: Vec<f64>,
    /// Gates along the worst path, startpoint first.
    pub critical_path: Vec<usize>,
}

/// Work counters for the timing engines, kept per synthesis run so
/// the evaluation pipeline can report how much of the STA work the
/// incremental engine avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaStats {
    /// Whole-netlist propagation passes.
    pub full_passes: usize,
    /// Incremental (fanout-cone) update passes.
    pub incremental_passes: usize,
    /// Gate evaluations performed by full passes.
    pub full_gate_visits: usize,
    /// Gate evaluations performed by incremental passes.
    pub incremental_gate_visits: usize,
}

impl StaStats {
    /// The one whole-netlist pass that seeds a from-scratch run.
    pub(crate) fn full_pass(netlist: &Netlist) -> Self {
        StaStats { full_passes: 1, full_gate_visits: netlist.gates().len(), ..Self::default() }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: StaStats) {
        self.full_passes += other.full_passes;
        self.incremental_passes += other.incremental_passes;
        self.full_gate_visits += other.full_gate_visits;
        self.incremental_gate_visits += other.incremental_gate_visits;
    }
}

/// Arrival time of output slot `k` of gate `gi`, read off the current
/// fanin `arrivals`. The one arc expression both engines evaluate, so
/// their results are bit-identical.
#[inline]
fn arc_arrival(m: &MappedNetlist<'_>, gi: usize, g: &Gate, k: usize, arrivals: &[f64]) -> f64 {
    let cell = m.cell_of(gi);
    if g.kind == GateKind::Dff {
        // Q is a startpoint: clk→Q only.
        return cell.intrinsic_ns[0];
    }
    // Per-arc timing: the 4:2 compressor's cout depends only on its
    // first three inputs (never on cin), so same-stage cout chains do
    // not ripple.
    let at_in = arc_inputs(g, k).iter().map(|&i| arrivals[i.0 as usize]).fold(0.0f64, f64::max);
    at_in + cell.intrinsic_ns[k] + cell.drive_res_kohm * m.load_ff(g.outs[k]) / 1000.0
}

/// Endpoint scan: worst arrival over primary outputs, then flip-flop
/// D pins (plus setup). `dffs` optionally supplies the flip-flop gate
/// indices in ascending order so the scan skips the O(gates) walk; it
/// must list exactly the Dff gates in netlist order for the
/// tie-breaking (`>`, first maximum wins) to match a full scan.
pub(crate) fn worst_endpoint(
    m: &MappedNetlist<'_>,
    arrivals: &[f64],
    dffs: Option<&[u32]>,
) -> (f64, Option<NetId>) {
    let n = m.netlist();
    let mut worst = 0.0f64;
    let mut worst_net: Option<NetId> = None;
    for p in n.outputs() {
        for &b in &p.bits {
            if !b.is_const() && arrivals[b.0 as usize] > worst {
                worst = arrivals[b.0 as usize];
                worst_net = Some(b);
            }
        }
    }
    let setup = m.library().setup_ns;
    let mut check_dff = |g: &Gate| {
        if g.kind == GateKind::Dff {
            let d = g.ins[0];
            let t = arrivals[d.0 as usize] + setup;
            if t > worst {
                worst = t;
                worst_net = Some(d);
            }
        }
    };
    match dffs {
        Some(list) => list.iter().for_each(|&gi| check_dff(&n.gates()[gi as usize])),
        None => n.gates().iter().for_each(check_dff),
    }
    (worst, worst_net)
}

/// Critical-path extraction: walk max-arrival predecessors from the
/// worst endpoint back to a startpoint. Overwrites `critical_path` with
/// the path's gates, startpoint first.
pub(crate) fn critical_path_from(
    m: &MappedNetlist<'_>,
    arrivals: &[f64],
    worst_net: Option<NetId>,
    critical_path: &mut Vec<usize>,
) {
    let n = m.netlist();
    critical_path.clear();
    let mut cur = worst_net;
    while let Some(net) = cur {
        let Some(gi) = m.driver_of(net) else { break };
        critical_path.push(gi);
        let g = &n.gates()[gi];
        if g.kind == GateKind::Dff {
            break; // startpoint reached
        }
        let slot =
            g.outputs().iter().position(|&o| o == net).expect("driver gate must own the net");
        cur = arc_inputs(g, slot)
            .iter()
            .filter(|i| !i.is_const())
            .max_by(|a, b| {
                arrivals[a.0 as usize]
                    .partial_cmp(&arrivals[b.0 as usize])
                    .expect("arrivals are finite")
            })
            .copied();
        if let Some(net) = cur {
            if m.driver_of(net).is_none() {
                break; // primary input
            }
        }
    }
    critical_path.reverse();
}

/// Appends the Dff gates of `netlist.gates()[from..]` to `dffs`, in
/// ascending order: the list [`worst_endpoint`] takes.
pub(crate) fn extend_dffs(netlist: &Netlist, from: usize, dffs: &mut Vec<u32>) {
    for (gi, g) in netlist.gates().iter().enumerate().skip(from) {
        if g.kind == GateKind::Dff {
            dffs.push(gi as u32);
        }
    }
}

impl TimingReport {
    /// The report over finished `arrivals` of `m`: endpoint scan and
    /// critical-path walk.
    pub fn from_arrivals(m: &MappedNetlist<'_>, arrivals: Vec<f64>) -> Self {
        let (worst, worst_net) = worst_endpoint(m, &arrivals, None);
        let mut critical_path = Vec::new();
        critical_path_from(m, &arrivals, worst_net, &mut critical_path);
        TimingReport { worst_delay_ns: worst, arrivals, critical_path }
    }
}

/// Arrival time of every net of `m`, from one whole-netlist pass.
pub(crate) fn arrivals(m: &MappedNetlist<'_>) -> Vec<f64> {
    let n = m.netlist();
    let mut arrivals = vec![0.0f64; n.num_nets() as usize];
    for (gi, g) in n.gates().iter().enumerate() {
        for (k, &o) in g.outputs().iter().enumerate() {
            arrivals[o.0 as usize] = arc_arrival(m, gi, g, k, &arrivals);
        }
    }
    arrivals
}

/// Runs STA over the mapped netlist.
pub fn analyze(m: &MappedNetlist<'_>) -> TimingReport {
    TimingReport::from_arrivals(m, arrivals(m))
}

/// The incremental engine's worklist: one bit per gate, popped lowest
/// index first. Pushing an already-queued gate is a no-op, and a push
/// below the last pop is still popped next, so the pop order is the
/// one a deduplicated min-heap would give.
#[derive(Debug, Clone, Default)]
struct Worklist {
    words: Vec<u64>,
    /// Words below `lo` or above `hi` are all zero; `lo > hi` when
    /// the list is empty.
    lo: usize,
    hi: usize,
}

impl Worklist {
    /// An empty list over `gates` gates.
    fn reset(&mut self, gates: usize) {
        self.words.clear();
        self.words.resize(gates.div_ceil(64), 0);
        (self.lo, self.hi) = (usize::MAX, 0);
    }

    #[inline]
    fn push(&mut self, gi: usize) {
        let w = gi / 64;
        self.words[w] |= 1 << (gi % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    #[inline]
    fn pop(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                self.words[self.lo] = word & (word - 1);
                return Some(self.lo * 64 + word.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }
}

/// Incremental timing engine for the sizing loop.
///
/// After a batch of drive-strength changes, only the gates whose
/// timing can have moved are re-evaluated: the resized gates
/// themselves, the drivers of their input nets (whose load changed
/// with the input capacitance), and — transitively — every reader of
/// a net whose arrival actually changed. Gates are processed in
/// ascending index order (the netlist's gate order is topological),
/// so each gate sees final fanin arrivals exactly as a full pass
/// would, and the arithmetic is bit-identical.
#[derive(Debug, Clone, Default)]
pub struct IncrementalSta {
    arrivals: Vec<f64>,
    work: Worklist,
    stats: StaStats,
}

impl IncrementalSta {
    /// A fresh engine; call [`IncrementalSta::seed`] before the first
    /// [`IncrementalSta::propagate`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine pre-loaded with the arrivals of a *previous* netlist,
    /// ready to be rebased onto an edited one via
    /// [`IncrementalSta::patch_baseline`].
    pub fn from_baseline(arrivals: Vec<f64>) -> Self {
        IncrementalSta { arrivals, work: Worklist::default(), stats: StaStats::default() }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> StaStats {
        self.stats
    }

    /// The cached per-net arrival times.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Consumes the engine, yielding the cached arrivals without a
    /// copy.
    pub fn into_arrivals(self) -> Vec<f64> {
        self.arrivals
    }

    /// Installs externally computed arrivals (e.g. a clone of a shared
    /// all-X1 baseline) without any propagation pass.
    pub fn seed(&mut self, m: &MappedNetlist<'_>, arrivals: Vec<f64>) {
        debug_assert_eq!(arrivals.len(), m.netlist().num_nets() as usize);
        self.work.reset(m.netlist().gates().len());
        self.arrivals = arrivals;
    }

    /// Re-propagates arrivals through the fanout cone of `resized`
    /// gates without producing a report. The caller must seed the
    /// engine first.
    pub fn propagate(&mut self, m: &MappedNetlist<'_>, resized: &[usize]) {
        assert!(!self.arrivals.is_empty(), "IncrementalSta::propagate before arrivals seeded");
        let gates = m.netlist().gates();

        // Seeds: the resized gates (their drive resistance changed)
        // and the drivers of their input nets (their load changed via
        // the resized cell's input capacitance).
        for &gi in resized {
            self.work.push(gi);
            for &i in gates[gi].inputs() {
                if let Some(d) = m.driver_of(i) {
                    self.work.push(d);
                }
            }
        }
        self.drain(m);
        self.stats.incremental_passes += 1;
    }

    /// Rebases cached arrivals from an old netlist onto `m_new`, where
    /// the two netlists share a gate prefix of `first_suffix_gate`
    /// gates. Every suffix gate is re-evaluated, plus the caller's
    /// `seeds` — prefix gates whose output load changed because the
    /// edit rewired their readers or primary-output fanout — plus,
    /// transitively, any reader of a net whose arrival moved. The
    /// result is bit-identical to a full [`analyze`] of `m_new`
    /// (asserted in debug builds).
    pub fn patch_baseline(
        &mut self,
        m_new: &MappedNetlist<'_>,
        seeds: &[usize],
        first_suffix_gate: usize,
    ) {
        assert!(!self.arrivals.is_empty(), "IncrementalSta::patch_baseline before arrivals seeded");
        let n = m_new.netlist();
        self.arrivals.resize(n.num_nets() as usize, 0.0);
        // Undriven ids (sweep holes, primary inputs) are never written
        // by a full pass and must read 0.0, not a stale old arrival.
        for net in 0..n.num_nets() {
            if m_new.driver_of(NetId(net)).is_none() {
                self.arrivals[net as usize] = 0.0;
            }
        }
        self.work.reset(n.gates().len());
        for &gi in seeds {
            self.work.push(gi);
        }
        // Suffix-gate sinks are themselves suffix gates (gate order is
        // topological, so drivers precede readers), hence queueing the
        // whole suffix makes stale change-detection on reused net ids
        // harmless.
        for gi in first_suffix_gate..n.gates().len() {
            self.work.push(gi);
        }
        self.drain(m_new);
        self.stats.incremental_passes += 1;

        #[cfg(debug_assertions)]
        {
            let full = arrivals(m_new);
            if full != self.arrivals {
                let diffs: Vec<(usize, f64, f64)> = full
                    .iter()
                    .zip(&self.arrivals)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, (&a, &b))| (i, a, b))
                    .take(8)
                    .collect();
                panic!(
                    "patched STA baseline diverged from full analyze: \
                     first diffs (net, full, patched) = {diffs:?}, \
                     first_suffix_gate = {first_suffix_gate}",
                );
            }
        }
    }

    /// Topological worklist: ascending gate index equals topological
    /// order, and a changed net only ever wakes readers with larger
    /// indices, so every popped gate sees final fanin arrivals.
    ///
    /// One fused visit per popped gate: each output's arrival is
    /// evaluated, stored, and — only if it moved — its sink slice of
    /// the connectivity table is queued.
    fn drain(&mut self, m: &MappedNetlist<'_>) {
        let gates = m.netlist().gates();
        let conn = m.conn();
        let mut visits = 0;
        while let Some(gi) = self.work.pop() {
            visits += 1;
            let g = &gates[gi];
            for (k, &o) in g.outputs().iter().enumerate() {
                let at = arc_arrival(m, gi, g, k, &self.arrivals);
                if std::mem::replace(&mut self.arrivals[o.0 as usize], at) != at {
                    for &(sink, _) in conn.sinks(o) {
                        self.work.push(sink as usize);
                    }
                }
            }
        }
        self.stats.incremental_gate_visits += visits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::{MultiplierNetlist, NetlistBuilder};

    #[test]
    fn chain_delay_accumulates() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("chain");
        let x = b.input("x", 1);
        let mut v = x[0];
        for _ in 0..10 {
            v = b.inv(v);
        }
        b.output("y", &[v]);
        let n = b.finish();
        let m = MappedNetlist::map(&n, &lib);
        let t = analyze(&m);
        // 10 inverters, each ≥ intrinsic 8 ps.
        assert!(t.worst_delay_ns > 0.08, "delay = {}", t.worst_delay_ns);
        assert_eq!(t.critical_path.len(), 10);
    }

    #[test]
    fn deeper_trees_are_slower() {
        let lib = Library::nangate45();
        let shallow = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let fast = MultiplierNetlist::elaborate(&shallow).unwrap();
        let nl_fast = fast.into_netlist();
        let m_fast = MappedNetlist::map(&nl_fast, &lib);
        let d_fast = analyze(&m_fast).worst_delay_ns;

        let big = CompressorTree::dadda(16, PpgKind::And).unwrap();
        let slow = MultiplierNetlist::elaborate(&big).unwrap();
        let nl_slow = slow.into_netlist();
        let m_slow = MappedNetlist::map(&nl_slow, &lib);
        let d_slow = analyze(&m_slow).worst_delay_ns;
        assert!(d_slow > d_fast, "{d_slow} vs {d_fast}");
    }

    #[test]
    fn sequential_endpoint_includes_setup() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("seq");
        let x = b.input("x", 1);
        let q = b.dff(x[0]);
        let y = b.inv(q);
        let q2 = b.dff(y);
        b.output("y", &[q2]);
        let n = b.finish();
        let m = MappedNetlist::map(&n, &lib);
        let t = analyze(&m);
        // clk→Q + inverter + setup.
        assert!(t.worst_delay_ns > lib.setup_ns + 0.08);
    }

    #[test]
    fn comp42_cout_chain_does_not_ripple() {
        // A long same-stage cout chain must cost one cout arc, not N:
        // cout depends only on x1..x3, never on the chained cin.
        let lib = Library::nangate45();
        let build = |len: usize| {
            let mut b = NetlistBuilder::new("chain42");
            let x = b.input("x", 4 * len);
            let mut cin = rlmul_rtl::CONST0;
            let mut sums = Vec::new();
            for k in 0..len {
                let xs = [x[4 * k], x[4 * k + 1], x[4 * k + 2], x[4 * k + 3]];
                let (s, c, cout) = b.compressor42(xs, cin);
                sums.push(s);
                sums.push(c);
                cin = cout;
            }
            b.output("y", &sums);
            b.finish()
        };
        let short = build(2);
        let long = build(16);
        let d_short = analyze(&MappedNetlist::map(&short, &lib)).worst_delay_ns;
        let d_long = analyze(&MappedNetlist::map(&long, &lib)).worst_delay_ns;
        // One extra cin→sum arc at most — far below 14 extra couts.
        assert!(d_long < d_short + 0.05, "cout chain ripples: {d_short} → {d_long}");
    }

    #[test]
    fn multiplier_delay_is_in_paper_regime() {
        // The paper's 8-bit AND multipliers land between 0.7 and
        // 0.9 ns at minimum-area sizing; the model should be within a
        // loose factor of that window.
        let lib = Library::nangate45();
        let tree = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let m = MappedNetlist::map(&nl, &lib);
        let d = analyze(&m).worst_delay_ns;
        assert!((0.4..2.0).contains(&d), "delay = {d} ns");
    }
}
