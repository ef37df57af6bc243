//! Switching-activity-based power estimation.
//!
//! Signal probabilities propagate from primary inputs (p = 0.5)
//! through the gate network under an independence assumption; toggle
//! rates follow `t = 2·p·(1 − p)`. Dynamic power combines net
//! switching energy (`½·C·V²` per toggle) with per-cell internal
//! energy, evaluated at the design's critical frequency; leakage sums
//! the cell table.

use crate::map::MappedNetlist;
use rlmul_rtl::{GateKind, Netlist};

/// Power breakdown in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Net + internal switching power, mW.
    pub dynamic_mw: f64,
    /// Leakage power, mW.
    pub leakage_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.leakage_mw
    }
}

/// Estimates power at operating frequency `freq_ghz`.
pub fn estimate(m: &MappedNetlist<'_>, freq_ghz: f64) -> PowerReport {
    report_sums(m, &signal_probabilities(m.netlist()), freq_ghz).0
}

/// Signal probability of every net of `n`.
pub(crate) fn signal_probabilities(n: &Netlist) -> Vec<f64> {
    let mut p = vec![0.5f64; n.num_nets() as usize];
    p[0] = 0.0;
    p[1] = 1.0;
    propagate_probabilities(n, &mut p, 0);
    p
}

/// Propagates signal probabilities through `n.gates()[from..]`,
/// writing each gate's output nets in `p`. Every other entry is read
/// as is: constants must hold 0 and 1, primary inputs 0.5, and the
/// outputs of gates before `from` their own probabilities. A gate's
/// probability depends only on its fanin cone, so a netlist that
/// keeps a gate prefix keeps the prefix's entries.
pub(crate) fn propagate_probabilities(n: &Netlist, p: &mut [f64], from: usize) {
    for g in &n.gates()[from..] {
        let a = p[g.ins[0].0 as usize];
        let b = p[g.ins[1].0 as usize];
        let c = p[g.ins[2].0 as usize];
        let xor2 = |x: f64, y: f64| x + y - 2.0 * x * y;
        match g.kind {
            GateKind::Inv => p[g.outs[0].0 as usize] = 1.0 - a,
            GateKind::Buf | GateKind::Dff => p[g.outs[0].0 as usize] = a,
            GateKind::And2 => p[g.outs[0].0 as usize] = a * b,
            GateKind::Or2 => p[g.outs[0].0 as usize] = a + b - a * b,
            GateKind::Nand2 => p[g.outs[0].0 as usize] = 1.0 - a * b,
            GateKind::Nor2 => p[g.outs[0].0 as usize] = 1.0 - (a + b - a * b),
            GateKind::Xor2 => p[g.outs[0].0 as usize] = xor2(a, b),
            GateKind::Xnor2 => p[g.outs[0].0 as usize] = 1.0 - xor2(a, b),
            GateKind::Mux2 => p[g.outs[0].0 as usize] = c * b + (1.0 - c) * a,
            GateKind::HalfAdder => {
                p[g.outs[0].0 as usize] = xor2(a, b);
                p[g.outs[1].0 as usize] = a * b;
            }
            GateKind::FullAdder => {
                p[g.outs[0].0 as usize] = xor2(xor2(a, b), c);
                // Majority of independent a, b, c.
                p[g.outs[1].0 as usize] = a * b + a * c + b * c - 2.0 * a * b * c;
            }
            GateKind::Compressor42 => {
                let maj = |x: f64, y: f64, z: f64| x * y + x * z + y * z - 2.0 * x * y * z;
                let d = p[g.ins[3].0 as usize];
                let e = p[g.ins[4].0 as usize];
                let s1 = xor2(xor2(a, b), c);
                p[g.outs[0].0 as usize] = xor2(xor2(s1, d), e); // sum
                p[g.outs[1].0 as usize] = maj(s1, d, e); // carry
                p[g.outs[2].0 as usize] = maj(a, b, c); // cout
            }
        }
    }
}

/// [`estimate`] over signal probabilities `p` already propagated for
/// `m`'s netlist (see [`signal_probabilities`]; they depend on the
/// netlist alone, so every mapping of it can share one vector),
/// together with [`MappedNetlist::area_um2`] and
/// [`MappedNetlist::drive_histogram`]. One pass over the gates feeds
/// all the sums, each in gate order, so every one matches its
/// stand-alone counterpart bit for bit.
pub(crate) fn report_sums(
    m: &MappedNetlist<'_>,
    p: &[f64],
    freq_ghz: f64,
) -> (PowerReport, f64, [usize; 3]) {
    let n = m.netlist();
    let vdd = m.library().vdd;
    let mut energy_fj_per_cycle = 0.0f64;
    let mut leakage_nw = 0.0f64;
    let mut area_um2 = 0.0f64;
    let mut histogram = [0usize; 3];
    for (gi, g) in n.gates().iter().enumerate() {
        let cell = m.cell_of(gi);
        leakage_nw += cell.leakage_nw;
        area_um2 += cell.area_um2;
        histogram[cell.drive as usize] += 1;
        for &o in g.outputs() {
            let prob = p[o.0 as usize];
            let toggle = 2.0 * prob * (1.0 - prob);
            let cap = m.load_ff(o);
            energy_fj_per_cycle += toggle * (0.5 * cap * vdd * vdd + cell.internal_energy_fj);
        }
    }
    // fJ per cycle × GHz = µW.
    let dynamic_mw = energy_fj_per_cycle * freq_ghz / 1000.0;
    let leakage_mw = leakage_nw / 1.0e6;
    (PowerReport { dynamic_mw, leakage_mw }, area_um2, histogram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::map::MappedNetlist;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::MultiplierNetlist;

    #[test]
    fn power_scales_with_frequency() {
        let lib = Library::nangate45();
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let m = MappedNetlist::map(&nl, &lib);
        let p1 = estimate(&m, 1.0);
        let p2 = estimate(&m, 2.0);
        assert!(p2.dynamic_mw > 1.9 * p1.dynamic_mw);
        assert!((p2.leakage_mw - p1.leakage_mw).abs() < 1e-12);
        assert!(p1.total_mw() > 0.0);
    }

    #[test]
    fn bigger_designs_burn_more_power() {
        let lib = Library::nangate45();
        let t8 = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let t16 = CompressorTree::dadda(16, PpgKind::And).unwrap();
        let n8 = MultiplierNetlist::elaborate(&t8).unwrap().into_netlist();
        let n16 = MultiplierNetlist::elaborate(&t16).unwrap().into_netlist();
        let p8 = estimate(&MappedNetlist::map(&n8, &lib), 1.0);
        let p16 = estimate(&MappedNetlist::map(&n16, &lib), 1.0);
        assert!(p16.total_mw() > 2.0 * p8.total_mw());
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let lib = Library::nangate45();
        let tree = CompressorTree::wallace(8, PpgKind::Mbe).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let m = MappedNetlist::map(&nl, &lib);
        // estimate() would produce NaN/negative energies otherwise.
        let p = estimate(&m, 1.0);
        assert!(p.dynamic_mw.is_finite() && p.dynamic_mw >= 0.0);
    }
}
