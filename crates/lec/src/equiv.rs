//! Combinational equivalence checking against golden arithmetic
//! models — the reproduction's substitute for ABC's `cec` flow.
//!
//! For operand widths up to [`EXHAUSTIVE_BITS`] the check enumerates
//! the complete input space (a *stronger* guarantee than random
//! `cec`); wider designs are checked with dense randomized stimulus
//! plus structured corner vectors.

use crate::sim::{PortValues, Simulator};
use crate::LecError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_ct::PpgKind;
use rlmul_rtl::Netlist;

/// Widths at or below which `a × b` spaces are enumerated exhaustively.
pub const EXHAUSTIVE_BITS: usize = 10;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Whether every checked vector matched the golden model.
    pub equivalent: bool,
    /// Whether the full input space was enumerated.
    pub exhaustive: bool,
    /// Number of stimulus vectors evaluated.
    pub vectors: u64,
    /// First mismatching input `(a, b, c)` with `(expected, got)`.
    pub counterexample: Option<Counterexample>,
}

/// A concrete mismatch found during checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counterexample {
    /// Multiplicand.
    pub a: u64,
    /// Multiplier.
    pub b: u64,
    /// MAC addend (0 for plain multipliers).
    pub c: u128,
    /// Golden result.
    pub expected: u128,
    /// Netlist result.
    pub got: u128,
}

/// Golden model: `(a·b + c) mod 2^{2N}` (plain multiplication is the
/// `c = 0` case and is exact, since `a·b < 2^{2N}`).
pub fn golden(a: u64, b: u64, c: u128, bits: usize) -> u128 {
    let mask: u128 = if 2 * bits >= 128 { u128::MAX } else { (1u128 << (2 * bits)) - 1 };
    ((a as u128) * (b as u128) + c) & mask
}

/// Checks a multiplier or merged-MAC netlist produced by
/// [`rlmul_rtl::MultiplierNetlist`] against the golden model.
///
/// # Errors
///
/// Propagates simulator construction/stimulus errors; a functional
/// mismatch is *not* an error — it is reported in the returned
/// [`EquivReport`].
pub fn check_datapath(
    netlist: &Netlist,
    bits: usize,
    kind: PpgKind,
) -> Result<EquivReport, LecError> {
    let sim = Simulator::new(netlist)?;
    let is_mac = kind.is_mac();
    let mut vectors = 0u64;
    let mut rng = StdRng::seed_from_u64(0x524c_4d55_4c21);

    let exhaustive = bits <= EXHAUSTIVE_BITS;
    let mut pending: Vec<(u64, u64, u128)> = Vec::with_capacity(64);
    let check_batch = |pending: &mut Vec<(u64, u64, u128)>,
                       vectors: &mut u64|
     -> Result<Option<Counterexample>, LecError> {
        if pending.is_empty() {
            return Ok(None);
        }
        let a_vals: Vec<u64> = pending.iter().map(|t| t.0).collect();
        let b_vals: Vec<u64> = pending.iter().map(|t| t.1).collect();
        let mut stim = vec![PortValues::pack(&a_vals, bits), PortValues::pack(&b_vals, bits)];
        if is_mac {
            let c_vals: Vec<u64> = pending.iter().map(|t| t.2 as u64).collect();
            stim.push(PortValues::pack(&c_vals, 2 * bits));
        }
        let out = sim.run(&stim)?;
        for (l, &(a, b, c)) in pending.iter().enumerate() {
            *vectors += 1;
            let got = lane128(&out[0], l);
            let expected = golden(a, b, c, bits);
            if got != expected {
                return Ok(Some(Counterexample { a, b, c, expected, got }));
            }
        }
        pending.clear();
        Ok(None)
    };

    let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let cmask: u128 = if 2 * bits >= 128 { u128::MAX } else { (1u128 << (2 * bits)) - 1 };

    let mut cex = None;
    if exhaustive {
        'outer: for a in 0..=mask {
            for b in 0..=mask {
                let c = if is_mac { rng.gen::<u64>() as u128 & cmask } else { 0 };
                pending.push((a, b, c));
                if pending.len() == 64 {
                    if let Some(x) = check_batch(&mut pending, &mut vectors)? {
                        cex = Some(x);
                        break 'outer;
                    }
                }
            }
        }
    } else {
        // Corner vectors: walking ones, extremes, and dense randoms.
        let mut corners: Vec<u64> = vec![0, 1, mask, mask - 1, mask >> 1, (mask >> 1) + 1];
        for k in 0..bits {
            corners.push(1u64 << k);
            corners.push(mask ^ (1u64 << k));
        }
        'outer2: for &a in &corners {
            for &b in &corners {
                let c = if is_mac { rng.gen::<u64>() as u128 & cmask } else { 0 };
                pending.push((a & mask, b & mask, c));
                if pending.len() == 64 {
                    if let Some(x) = check_batch(&mut pending, &mut vectors)? {
                        cex = Some(x);
                        break 'outer2;
                    }
                }
            }
        }
        if cex.is_none() {
            // The corner sweep may leave a partial batch pending, so
            // flush on the lane count rather than per 64 randoms: a
            // batch never exceeds the simulator's 64 lanes.
            const RANDOM_VECTORS: usize = 4096 * 64; // ≈ 2^18 vectors
            for _ in 0..RANDOM_VECTORS {
                let a = rng.gen::<u64>() & mask;
                let b = rng.gen::<u64>() & mask;
                let c = if is_mac { rng.gen::<u128>() & cmask } else { 0 };
                pending.push((a, b, c));
                if pending.len() == 64 {
                    if let Some(x) = check_batch(&mut pending, &mut vectors)? {
                        cex = Some(x);
                        break;
                    }
                }
            }
        }
    }
    if cex.is_none() {
        if let Some(x) = check_batch(&mut pending, &mut vectors)? {
            cex = Some(x);
        }
    }
    Ok(EquivReport { equivalent: cex.is_none(), exhaustive, vectors, counterexample: cex })
}

fn lane128(pv: &PortValues, lane: usize) -> u128 {
    pv.bits.iter().enumerate().fold(0u128, |acc, (k, &w)| acc | ((((w >> lane) & 1) as u128) << k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::CompressorTree;
    use rlmul_rtl::MultiplierNetlist;

    fn check(bits: usize, kind: PpgKind, dadda: bool) {
        let tree = if dadda {
            CompressorTree::dadda(bits, kind).unwrap()
        } else {
            CompressorTree::wallace(bits, kind).unwrap()
        };
        let m = MultiplierNetlist::elaborate(&tree).unwrap();
        let report = check_datapath(m.netlist(), bits, kind).unwrap();
        assert!(report.equivalent, "{bits}-bit {kind}: {:?}", report.counterexample);
    }

    #[test]
    fn and_multipliers_are_exhaustively_correct() {
        for bits in [2, 3, 4, 6, 8] {
            check(bits, PpgKind::And, false);
            check(bits, PpgKind::And, true);
        }
    }

    #[test]
    fn mbe_multipliers_are_exhaustively_correct() {
        for bits in [4, 6, 8] {
            check(bits, PpgKind::Mbe, false);
            check(bits, PpgKind::Mbe, true);
        }
    }

    #[test]
    fn mac_designs_are_correct() {
        check(4, PpgKind::MacAnd, true);
        check(8, PpgKind::MacAnd, false);
        check(4, PpgKind::MacMbe, true);
        check(8, PpgKind::MacMbe, false);
    }

    #[test]
    fn quad_compressor_multipliers_are_exhaustively_correct() {
        use rlmul_rtl::{quad_multiplier, AdderKind};
        for bits in [4usize, 6, 8] {
            for kind in [PpgKind::And, PpgKind::Mbe, PpgKind::MacAnd] {
                if kind.base() == PpgKind::Mbe && bits % 2 != 0 {
                    continue;
                }
                let n = quad_multiplier(bits, kind, AdderKind::default()).unwrap();
                let r = check_datapath(&n, bits, kind).unwrap();
                assert!(r.equivalent, "{bits}-bit {kind} 4:2: {:?}", r.counterexample);
            }
        }
    }

    /// Emit → re-parse → exhaustively check: the Verilog writer and
    /// reader are functional inverses over real designs.
    #[test]
    fn verilog_round_trip_preserves_function() {
        use rlmul_rtl::{from_verilog, quad_multiplier, to_verilog, AdderKind};
        for (bits, kind) in [(6usize, PpgKind::And), (6, PpgKind::Mbe), (4, PpgKind::MacAnd)] {
            let tree = CompressorTree::dadda(bits, kind).unwrap();
            let original = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
            let source = to_verilog(&original);
            let reimported =
                from_verilog(&source).unwrap_or_else(|e| panic!("{bits}-bit {kind}: {e}"));
            let r = check_datapath(&reimported, bits, kind).unwrap();
            assert!(r.equivalent, "{bits}-bit {kind}: {:?}", r.counterexample);
        }
        // Including 4:2 compressor emission (compound carry forms).
        let quad = quad_multiplier(6, PpgKind::And, AdderKind::default()).unwrap();
        let reimported = from_verilog(&to_verilog(&quad)).unwrap();
        let r = check_datapath(&reimported, 6, PpgKind::And).unwrap();
        assert!(r.equivalent, "{:?}", r.counterexample);
    }

    /// Above [`EXHAUSTIVE_BITS`] the randomized path must keep every
    /// batch within the simulator's 64 lanes: correct wide designs are
    /// equivalent, not spurious mismatches.
    #[test]
    fn wide_wallace_multipliers_are_equivalent() {
        for bits in [12, 16] {
            check(bits, PpgKind::And, false);
            check(bits, PpgKind::Mbe, false);
        }
    }

    #[test]
    fn wide_seeded_defects_are_caught() {
        use rlmul_rtl::{mutate, GateKind};
        for (bits, kind) in [(12, PpgKind::And), (16, PpgKind::Mbe)] {
            let tree = CompressorTree::wallace(bits, kind).unwrap();
            let good = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
            let fa = mutate::find_gate(&good, GateKind::FullAdder).expect("fa present");
            let crossed = mutate::replace_gate_input(&good, fa, 0, good.inputs()[0].bits[0]);
            let dropped = mutate::drop_carry_wire(&good).expect("multiplier has carries");
            for bad in [crossed, dropped] {
                let r = check_datapath(&bad, bits, kind).unwrap();
                assert!(!r.exhaustive);
                assert!(!r.equivalent, "{bits}-bit {kind}: seeded defect escaped");
                let cex = r.counterexample.expect("mismatch carries a counterexample");
                assert_eq!(cex.expected, golden(cex.a, cex.b, cex.c, bits));
                assert_ne!(cex.got, cex.expected);
            }
        }
    }

    #[test]
    fn golden_model_wraps() {
        assert_eq!(golden(3, 5, 0, 4), 15);
        assert_eq!(golden(15, 15, 100, 4), (225 + 100) % 256);
    }

    #[test]
    fn broken_netlist_is_caught() {
        use rlmul_rtl::NetlistBuilder;
        // "Multiplier" that just ANDs bits — clearly wrong.
        let mut b = NetlistBuilder::new("bogus");
        let a = b.input("a", 2);
        let m = b.input("b", 2);
        let y0 = b.and2(a[0], m[0]);
        let y1 = b.and2(a[1], m[1]);
        b.output("p", &[y0, y1, rlmul_rtl::CONST0, rlmul_rtl::CONST0]);
        let n = b.finish();
        let r = check_datapath(&n, 2, PpgKind::And).unwrap();
        assert!(!r.equivalent);
        assert!(r.counterexample.is_some());
    }
}
