//! Technology mapping: binding netlist gates to library cells.
//!
//! Mapping is structural (the netlist IR's gate kinds correspond 1:1
//! to cell families); the interesting synthesis work — drive-strength
//! selection under a delay target — happens in the sizing pass.

use crate::library::{Drive, Library};
use rlmul_rtl::{GateKind, Netlist};

pub(crate) fn kind_cell_stem(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Inv => "INV",
        GateKind::Buf => "BUF",
        GateKind::And2 => "AND2",
        GateKind::Or2 => "OR2",
        GateKind::Nand2 => "NAND2",
        GateKind::Nor2 => "NOR2",
        GateKind::Xor2 => "XOR2",
        GateKind::Xnor2 => "XNOR2",
        GateKind::Mux2 => "MUX2",
        GateKind::HalfAdder => "HA",
        GateKind::FullAdder => "FA",
        GateKind::Compressor42 => "COMP42",
        GateKind::Dff => "DFF",
    }
}

/// Per-net connectivity tables (sinks, drivers, primary-output
/// fanout), factored out of [`MappedNetlist`] so one instance can be
/// built once — or patched incrementally after a netlist splice — and
/// then *shared* by several mappings (one per delay target in the
/// evaluation pipeline).
///
/// Sink lists are kept in ascending `(gate, pin)` order, exactly the
/// order a from-scratch [`NetConn::build`] produces. That invariant
/// matters: capacitive loads are floating-point sums over sink lists,
/// and bit-identical synthesis numbers require summing in the same
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetConn {
    /// For every net: `(gate index, input pin)` sinks.
    sinks: Vec<Vec<(u32, u8)>>,
    /// For every net: the gate driving it (`None` for primary inputs
    /// and constants).
    driver: Vec<Option<u32>>,
    /// For every net: number of primary-output bits it drives.
    po_fanout: Vec<u16>,
}

impl NetConn {
    /// Builds the tables from scratch in one O(gates + nets) pass.
    pub fn build(netlist: &Netlist) -> Self {
        let mut sinks = vec![Vec::new(); netlist.num_nets() as usize];
        for (gi, g) in netlist.gates().iter().enumerate() {
            for (pin, &inp) in g.inputs().iter().enumerate() {
                if !inp.is_const() {
                    sinks[inp.0 as usize].push((gi as u32, pin as u8));
                }
            }
        }
        let mut driver = vec![None; netlist.num_nets() as usize];
        for (gi, g) in netlist.gates().iter().enumerate() {
            for &o in g.outputs() {
                driver[o.0 as usize] = Some(gi as u32);
            }
        }
        let mut po_fanout = vec![0u16; netlist.num_nets() as usize];
        for p in netlist.outputs() {
            for &b in &p.bits {
                if !b.is_const() {
                    po_fanout[b.0 as usize] += 1;
                }
            }
        }
        NetConn { sinks, driver, po_fanout }
    }

    /// Updates tables built for `old` to describe `new`, where the two
    /// netlists share their first `shared_prefix` gates (and their
    /// input ports). Cost is proportional to the differing suffixes,
    /// not the circuit.
    ///
    /// The result is exactly `NetConn::build(new)` — order-preserving
    /// removals plus ascending-index appends keep every sink list in
    /// build order (debug builds assert the equality).
    pub fn patch(&mut self, old: &Netlist, new: &Netlist, shared_prefix: usize) {
        debug_assert!(old.gates()[..shared_prefix] == new.gates()[..shared_prefix]);
        // Retract the old suffix while its net ids are still in range.
        for (gi, g) in old.gates().iter().enumerate().skip(shared_prefix) {
            for (pin, &inp) in g.inputs().iter().enumerate() {
                if !inp.is_const() {
                    let v = &mut self.sinks[inp.0 as usize];
                    if let Some(pos) = v.iter().position(|&(s, p)| s == gi as u32 && p == pin as u8)
                    {
                        v.remove(pos); // order-preserving
                    }
                }
            }
            for &o in g.outputs() {
                self.driver[o.0 as usize] = None;
            }
        }
        // Grow to the new net count if needed. Tables never shrink:
        // when the net space contracts, the retraction above already
        // emptied the tail entries (the shared prefix cannot reference
        // suffix-created nets), and keeping them preserves each sink
        // list's capacity for the next patch.
        let nets = new.num_nets() as usize;
        if self.sinks.len() < nets {
            self.sinks.resize(nets, Vec::new());
            self.driver.resize(nets, None);
            self.po_fanout.resize(nets, 0);
        }
        // Register the new suffix; its gate indices all exceed every
        // surviving prefix entry, so appends keep sink lists sorted.
        for (gi, g) in new.gates().iter().enumerate().skip(shared_prefix) {
            for (pin, &inp) in g.inputs().iter().enumerate() {
                if !inp.is_const() {
                    self.sinks[inp.0 as usize].push((gi as u32, pin as u8));
                }
            }
            for &o in g.outputs() {
                self.driver[o.0 as usize] = Some(gi as u32);
            }
        }
        // Primary-output reads: O(output bits).
        self.po_fanout.iter_mut().for_each(|c| *c = 0);
        for p in new.outputs() {
            for &b in &p.bits {
                if !b.is_const() {
                    self.po_fanout[b.0 as usize] += 1;
                }
            }
        }
        debug_assert!(
            self.agrees_with(&NetConn::build(new)),
            "patched NetConn diverged from rebuild"
        );
    }

    /// Whether this table describes the same connectivity as `fresh`
    /// (a from-scratch build), ignoring cleaned-out tail entries left
    /// behind by a shrinking patch. Debug-validation helper.
    fn agrees_with(&self, fresh: &NetConn) -> bool {
        let n = fresh.sinks.len();
        self.sinks.len() >= n
            && self.sinks[..n] == fresh.sinks[..]
            && self.driver[..n] == fresh.driver[..]
            && self.po_fanout[..n] == fresh.po_fanout[..]
            && self.sinks[n..].iter().all(Vec::is_empty)
            && self.driver[n..].iter().all(Option::is_none)
            && self.po_fanout[n..].iter().all(|&c| c == 0)
    }

    /// Driving gate of `net`, `None` for primary inputs, constants,
    /// and out-of-range ids (stale nets from a pre-patch netlist).
    pub(crate) fn driver_index(&self, net: rlmul_rtl::NetId) -> Option<u32> {
        if net.is_const() {
            return None;
        }
        self.driver.get(net.0 as usize).copied().flatten()
    }
}

/// The all-X1 cell binding of `netlist` — the template
/// [`MappedNetlist::map_with_parts`] expects.
pub fn x1_cell_of(netlist: &Netlist, library: &Library) -> Vec<usize> {
    netlist.gates().iter().map(|g| library.cell_index(g.kind, Drive::X1)).collect()
}

/// Capacitive load on `net` in fF under the binding `cell_of`: sink
/// pin caps summed in sink order, wire estimate, and primary-output
/// loads.
pub(crate) fn net_load(library: &Library, conn: &NetConn, cell_of: &[usize], net: usize) -> f64 {
    let s = &conn.sinks[net];
    let pin_caps: f64 =
        s.iter().map(|&(gi, _)| library.cell(cell_of[gi as usize]).input_cap_ff).sum();
    let po = conn.po_fanout[net] as f64;
    let fanout = s.len() as f64 + po;
    pin_caps + fanout * library.wire_cap_per_fanout_ff + po * library.output_load_ff
}

/// [`net_load`] of every net of `netlist` — the load template
/// [`MappedNetlist::map_with_parts`] expects alongside `cell_of`.
pub(crate) fn net_loads(
    netlist: &Netlist,
    library: &Library,
    conn: &NetConn,
    cell_of: &[usize],
) -> Vec<f64> {
    (0..netlist.num_nets() as usize).map(|net| net_load(library, conn, cell_of, net)).collect()
}

/// Either owns its connectivity tables or borrows shared ones.
#[derive(Debug, Clone)]
enum ConnStore<'a> {
    Owned(NetConn),
    Borrowed(&'a NetConn),
}

impl ConnStore<'_> {
    fn get(&self) -> &NetConn {
        match self {
            ConnStore::Owned(c) => c,
            ConnStore::Borrowed(c) => c,
        }
    }
}

/// A netlist bound to library cells, with per-instance drive
/// strengths and cached per-net loads for timing and power.
#[derive(Debug, Clone)]
pub struct MappedNetlist<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    /// Cell index (into the library) of each gate instance.
    cell_of: Vec<usize>,
    /// Capacitive load of each net in fF, equal bit for bit to
    /// [`net_load`] under the current `cell_of`: a resize re-sums only
    /// the nets its gate reads.
    loads: Vec<f64>,
    conn: ConnStore<'a>,
}

impl<'a> MappedNetlist<'a> {
    /// Maps every gate to its X1 library cell.
    pub fn map(netlist: &'a Netlist, library: &'a Library) -> Self {
        let cell_of = x1_cell_of(netlist, library);
        let conn = NetConn::build(netlist);
        let loads = net_loads(netlist, library, &conn, &cell_of);
        MappedNetlist { netlist, library, cell_of, loads, conn: ConnStore::Owned(conn) }
    }

    /// Maps with a precomputed all-X1 cell binding and its net loads,
    /// borrowing pre-built connectivity tables. The incremental
    /// pipeline keeps all three as templates patched per step, shares
    /// the tables across delay targets, and hands each mapping a
    /// memcpy of the binding and loads instead of per-gate lookups.
    pub fn map_with_parts(
        netlist: &'a Netlist,
        library: &'a Library,
        conn: &'a NetConn,
        cell_of: Vec<usize>,
        loads: Vec<f64>,
    ) -> Self {
        debug_assert!(conn.sinks.len() >= netlist.num_nets() as usize);
        debug_assert_eq!(cell_of, x1_cell_of(netlist, library), "stale cell template");
        debug_assert!(
            loads
                .iter()
                .map(|l| l.to_bits())
                .eq(net_loads(netlist, library, conn, &cell_of).iter().map(|l| l.to_bits())),
            "stale load template"
        );
        MappedNetlist { netlist, library, cell_of, loads, conn: ConnStore::Borrowed(conn) }
    }

    /// The source netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The bound library.
    pub fn library(&self) -> &Library {
        self.library
    }

    /// Cell currently bound to gate `gi`.
    pub fn cell_of(&self, gi: usize) -> &crate::library::Cell {
        self.library.cell(self.cell_of[gi])
    }

    /// Rebinds gate `gi` to `drive`, re-summing the loads of the nets
    /// it reads (their sink caps changed).
    pub fn set_drive(&mut self, gi: usize, drive: Drive) {
        let g = &self.netlist.gates()[gi];
        self.cell_of[gi] = self.library.cell_index(g.kind, drive);
        let conn = self.conn.get();
        for &i in g.inputs() {
            if !i.is_const() {
                self.loads[i.0 as usize] =
                    net_load(self.library, conn, &self.cell_of, i.0 as usize);
            }
        }
    }

    /// `(gate, pin)` sinks of `net`.
    pub fn sinks(&self, net: rlmul_rtl::NetId) -> &[(u32, u8)] {
        &self.conn.get().sinks[net.0 as usize]
    }

    /// Gate driving `net`, or `None` for primary inputs and constants.
    pub fn driver_of(&self, net: rlmul_rtl::NetId) -> Option<usize> {
        if net.is_const() {
            return None;
        }
        self.conn.get().driver[net.0 as usize].map(|gi| gi as usize)
    }

    /// Capacitive load on `net` in fF: sink pin caps, wire estimate,
    /// and primary-output loads.
    pub fn load_ff(&self, net: rlmul_rtl::NetId) -> f64 {
        self.loads[net.0 as usize]
    }

    /// Total cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.cell_of.iter().map(|&ci| self.library.cell(ci).area_um2).sum()
    }

    /// Instance count per drive strength (X1, X2, X4).
    pub fn drive_histogram(&self) -> [usize; 3] {
        let mut h = [0usize; 3];
        for &ci in &self.cell_of {
            match self.library.cell(ci).drive {
                Drive::X1 => h[0] += 1,
                Drive::X2 => h[1] += 1,
                Drive::X4 => h[2] += 1,
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_rtl::NetlistBuilder;

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        let x = b.input("x", 2);
        let y = b.and2(x[0], x[1]);
        let z = b.xor2(y, x[0]);
        b.output("z", &[z]);
        b.finish()
    }

    #[test]
    fn initial_mapping_is_all_x1() {
        let lib = Library::nangate45();
        let n = toy();
        let m = MappedNetlist::map(&n, &lib);
        assert_eq!(m.drive_histogram(), [2, 0, 0]);
    }

    #[test]
    fn load_accounts_for_sinks_and_pos() {
        let lib = Library::nangate45();
        let n = toy();
        let m = MappedNetlist::map(&n, &lib);
        // x[0] feeds the AND and the XOR.
        let x0 = n.inputs()[0].bits[0];
        assert_eq!(m.sinks(x0).len(), 2);
        let load = m.load_ff(x0);
        assert!(load > 2.0 * 1.5, "load = {load}");
        // The PO net gets the output load added.
        let z = n.outputs()[0].bits[0];
        assert!(m.load_ff(z) >= lib.output_load_ff);
    }

    #[test]
    fn upsizing_raises_area() {
        let lib = Library::nangate45();
        let n = toy();
        let mut m = MappedNetlist::map(&n, &lib);
        let a0 = m.area_um2();
        m.set_drive(0, Drive::X4);
        assert!(m.area_um2() > a0);
        assert_eq!(m.drive_histogram(), [1, 0, 1]);
    }
}
