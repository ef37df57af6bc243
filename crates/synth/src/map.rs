//! Technology mapping: binding netlist gates to library cells.
//!
//! Mapping is structural (the netlist IR's gate kinds correspond 1:1
//! to cell families); the interesting synthesis work — drive-strength
//! selection under a delay target — happens in the sizing pass.

use crate::library::{Drive, Library};
use rlmul_rtl::{GateKind, NetConn, NetId, Netlist};
use std::borrow::Cow;

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

/// The all-X1 cell binding of `netlist` — the template
/// [`MappedNetlist::map_with_parts`] expects.
pub fn x1_cell_of(netlist: &Netlist, library: &Library) -> Vec<usize> {
    netlist.gates().iter().map(|g| library.cell_index(g.kind, Drive::X1)).collect()
}

/// Capacitive load on `net` in fF under the binding `cell_of`: sink
/// pin caps summed in sink order, wire estimate, and primary-output
/// loads.
pub(crate) fn net_load(library: &Library, conn: &NetConn, cell_of: &[usize], net: usize) -> f64 {
    let s = conn.sinks(NetId(net as u32));
    let pin_caps: f64 =
        s.iter().map(|&(gi, _)| library.cell(cell_of[gi as usize]).input_cap_ff).sum();
    let po = conn.po_fanout(NetId(net as u32)) as f64;
    let fanout = s.len() as f64 + po;
    pin_caps + fanout * library.wire_cap_per_fanout_ff + po * library.output_load_ff
}

/// Overwrites `loads` with the [`net_load`] of every net of `netlist` —
/// the load template [`MappedNetlist::map_with_parts`] expects
/// alongside `cell_of`. The pin caps accumulate gate by gate, so each
/// net's are summed in ascending `(gate, pin)` order — its sink order —
/// without a pass over the sink table.
pub(crate) fn net_loads(
    netlist: &Netlist,
    library: &Library,
    conn: &NetConn,
    cell_of: &[usize],
    loads: &mut Vec<f64>,
) {
    loads.clear();
    loads.resize(netlist.num_nets() as usize, 0.0);
    for (g, &ci) in netlist.gates().iter().zip(cell_of) {
        let cap = library.cell(ci).input_cap_ff;
        for net in g.inputs().iter().filter(|i| !i.is_const()) {
            loads[net.0 as usize] += cap;
        }
    }
    for (net, load) in loads.iter_mut().enumerate() {
        let net = NetId(net as u32);
        let po = conn.po_fanout(net) as f64;
        let fanout = conn.sinks(net).len() as f64 + po;
        *load = *load + fanout * library.wire_cap_per_fanout_ff + po * library.output_load_ff;
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
    /// Owned by a standalone mapping, borrowed when shared.
    conn: Cow<'a, NetConn>,
}

impl<'a> MappedNetlist<'a> {
    /// Maps every gate to its X1 library cell.
    pub fn map(netlist: &'a Netlist, library: &'a Library) -> Self {
        let cell_of = x1_cell_of(netlist, library);
        let conn = NetConn::build(netlist);
        let mut loads = Vec::new();
        net_loads(netlist, library, &conn, &cell_of, &mut loads);
        MappedNetlist { netlist, library, cell_of, loads, conn: Cow::Owned(conn) }
    }

    /// Maps with a precomputed all-X1 cell binding and its net loads,
    /// borrowing pre-built connectivity tables. The incremental
    /// pipeline keeps the binding and loads as templates patched per
    /// step, shares the tables across delay targets, and hands each
    /// mapping a memcpy of the binding and loads instead of per-gate
    /// lookups.
    pub fn map_with_parts(
        netlist: &'a Netlist,
        library: &'a Library,
        conn: &'a NetConn,
        cell_of: Vec<usize>,
        loads: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(conn.num_nets(), netlist.num_nets() as usize, "stale connectivity");
        debug_assert_eq!(cell_of, x1_cell_of(netlist, library), "stale cell template");
        debug_assert!(
            loads.len() == netlist.num_nets() as usize
                && loads.iter().enumerate().all(|(net, l)| {
                    l.to_bits() == net_load(library, conn, &cell_of, net).to_bits()
                }),
            "stale load template"
        );
        MappedNetlist { netlist, library, cell_of, loads, conn: Cow::Borrowed(conn) }
    }

    /// Gives back the cell binding and net loads, e.g. templates lent
    /// to [`MappedNetlist::map_with_parts`].
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<f64>) {
        (self.cell_of, self.loads)
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
        let conn = &*self.conn;
        for &i in g.inputs() {
            if !i.is_const() {
                self.loads[i.0 as usize] =
                    net_load(self.library, conn, &self.cell_of, i.0 as usize);
            }
        }
    }

    /// The connectivity tables.
    pub(crate) fn conn(&self) -> &NetConn {
        &self.conn
    }

    /// `(gate, pin)` sinks of `net`.
    pub fn sinks(&self, net: NetId) -> &[(u32, u8)] {
        self.conn.sinks(net)
    }

    /// Gate driving `net`, or `None` for primary inputs and constants.
    pub fn driver_of(&self, net: NetId) -> Option<usize> {
        self.conn.driver_of(net).map(|gi| gi as usize)
    }

    /// Capacitive load on `net` in fF: sink pin caps, wire estimate,
    /// and primary-output loads.
    #[inline]
    pub fn load_ff(&self, net: NetId) -> f64 {
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
