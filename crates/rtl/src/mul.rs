//! Top-level multiplier and merged-MAC netlist generation.

use crate::adder::{add, AdderKind};
use crate::ct_elab::elaborate_ct;
use crate::netlist::{Netlist, NetlistBuilder};
use crate::ppg::{and_ppg, mbe_ppg, merge_mac_addend, PpColumns};
use crate::RtlError;
use rlmul_ct::{CompressorTree, PpgKind};

/// A fully elaborated multiplier (or merged MAC) netlist together
/// with its source tree metadata.
///
/// The design follows the paper's three-part decomposition: partial
/// product generator → compressor tree → carry-propagate adder
/// (Fig. 2). For MAC kinds the `2N`-bit addend is merged into the
/// partial products, so accumulation happens inside the tree
/// (Fig. 5, merged MAC).
///
/// Arithmetic is modulo `2^{2N}`: exact for plain multiplication
/// (`a·b < 2^{2N}`), wrap-around accumulate semantics for MACs.
///
/// ```
/// use rlmul_ct::{CompressorTree, PpgKind};
/// use rlmul_rtl::MultiplierNetlist;
///
/// let tree = CompressorTree::dadda(8, PpgKind::And)?;
/// let m = MultiplierNetlist::elaborate(&tree)?;
/// assert_eq!(m.netlist().outputs()[0].bits.len(), 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiplierNetlist {
    netlist: Netlist,
    bits: usize,
    kind: PpgKind,
}

impl MultiplierNetlist {
    /// Elaborates `tree` into gates with the default Brent–Kung
    /// final adder.
    ///
    /// # Errors
    ///
    /// Propagates compressor-tree errors and internal elaboration
    /// invariant violations as [`RtlError`].
    pub fn elaborate(tree: &CompressorTree) -> Result<Self, RtlError> {
        Self::elaborate_with_adder(tree, AdderKind::default())
    }

    /// Elaborates `tree` with an explicit final-adder architecture.
    ///
    /// # Errors
    ///
    /// Same as [`MultiplierNetlist::elaborate`].
    pub fn elaborate_with_adder(tree: &CompressorTree, cpa: AdderKind) -> Result<Self, RtlError> {
        let (mut b, cols) = partial_products(tree);
        let rows = elaborate_ct(&mut b, tree, cols)?;
        let p = add(&mut b, &rows.row0, &rows.row1, cpa);
        b.output("p", &p);
        let netlist = b.finish().sweep();
        Ok(MultiplierNetlist { netlist, bits: tree.bits(), kind: tree.profile().kind() })
    }

    /// The flattened gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the wrapper, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Operand bit-width `N`.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Partial-product scheme of the source tree.
    pub fn kind(&self) -> PpgKind {
        self.kind
    }
}

/// The part of `tree`'s multiplier that does not depend on the tree:
/// a builder named after the design with its input ports declared,
/// and the partial-product columns (the MAC addend merged in). Both
/// [`MultiplierNetlist::elaborate_with_adder`] and the incremental
/// elaborator start from here.
pub(crate) fn partial_products(tree: &CompressorTree) -> (NetlistBuilder, PpColumns) {
    let bits = tree.bits();
    let kind = tree.profile().kind();
    let name = format!("{}{}x{}", if kind.is_mac() { "mac" } else { "mul" }, bits, bits);
    let mut b = NetlistBuilder::new(name);
    let a = b.input("a", bits);
    let m = b.input("b", bits);
    let mut cols = match kind.base() {
        PpgKind::Mbe => mbe_ppg(&mut b, &a, &m),
        _ => and_ppg(&mut b, &a, &m),
    };
    if kind.is_mac() {
        let c = b.input("c", 2 * bits);
        merge_mac_addend(&mut cols, &c);
    }
    (b, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_elaborates_for_every_kind() {
        for kind in [PpgKind::And, PpgKind::Mbe, PpgKind::MacAnd, PpgKind::MacMbe] {
            let tree = CompressorTree::wallace(8, kind).unwrap();
            let m = MultiplierNetlist::elaborate(&tree).unwrap();
            m.netlist().validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            let n_inputs = m.netlist().inputs().len();
            assert_eq!(n_inputs, if kind.is_mac() { 3 } else { 2 }, "{kind}");
        }
    }

    #[test]
    fn mbe_uses_fewer_compressors_than_and_at_16_bits() {
        let and = CompressorTree::dadda(16, PpgKind::And).unwrap();
        let mbe = CompressorTree::dadda(16, PpgKind::Mbe).unwrap();
        let na = MultiplierNetlist::elaborate(&and).unwrap();
        let nm = MultiplierNetlist::elaborate(&mbe).unwrap();
        let fa = |n: &Netlist| n.stats().count("FA") + n.stats().count("HA");
        assert!(fa(nm.netlist()) < fa(na.netlist()));
    }

    #[test]
    fn ripple_variant_builds() {
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let m = MultiplierNetlist::elaborate_with_adder(&tree, AdderKind::RippleCarry).unwrap();
        m.netlist().validate().unwrap();
    }
}
