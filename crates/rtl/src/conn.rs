//! Per-net connectivity of a netlist in one flat table.
//!
//! [`NetConn`] is built once per netlist and read by both the delta
//! lint ([`crate::lint_delta`] over [`Connected`]) and synthesis
//! (loads, timing graph). [`crate::IncrementalMultiplier`] keeps one
//! up to date across retargets, together with the [`NetlistDelta`] of
//! each update, so a synthesis miss builds connectivity once.

use crate::arena::NetlistDelta;
use crate::netlist::{Gate, NetId, Netlist, Port};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`NetConn`] driver entry of a net no gate drives.
const NO_DRIVER: u32 = u32::MAX;

/// Source of [`NetConn`] stamps: every build or update takes the next
/// one, so a stamp names one table state within the process.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Per-net connectivity of one netlist: every net's `(gate, pin)`
/// sinks are one slice of a single entry table, next to the driver
/// table, per-net driver counts and primary-output fanout.
///
/// Each sink slice is in ascending `(gate, pin)` order. That invariant
/// matters: capacitive loads are floating-point sums over sink lists,
/// and bit-identical synthesis numbers require summing in the same
/// order.
///
/// A build lays the slices out back to back. An update that replaces
/// the gates from some index on ([`IncrementalMultiplier::retarget`])
/// truncates the slices those gates read and appends the new gates'
/// sinks in gate order, so every slice stays ascending; a slice that
/// outgrows its room moves to the end of the table, and the table is
/// laid out afresh once moved-from room outweighs the live entries.
///
/// A table also records its last update: the [`NetlistDelta`] from
/// the netlist it described before, and the stamp of that earlier
/// state, so a reader that kept the earlier state can patch only what
/// the update touched ([`NetConn::edit_since`]).
///
/// [`IncrementalMultiplier::retarget`]: crate::IncrementalMultiplier::retarget
#[derive(Debug, Clone, Default)]
pub struct NetConn {
    /// Net `n`'s sinks are `sinks[span[n].0..span[n].0 + span[n].1]`.
    span: Vec<(u32, u32)>,
    /// Entries of `sinks` reserved for each net's slice.
    room: Vec<u32>,
    /// `(gate index, input pin)` sink entries, net by net, with room.
    sinks: Vec<(u32, u8)>,
    /// Entries in use: the sum of the slice lengths.
    live: usize,
    /// For every net: the last gate driving it, [`NO_DRIVER`] for
    /// primary inputs, constants and unused ids.
    driver: Vec<u32>,
    /// For every net: gate output pins plus input-port bits driving it.
    drivers: Vec<u32>,
    /// For every net: number of primary-output bits it drives.
    po_fanout: Vec<u16>,
    /// Number of gates described.
    gates: usize,
    /// Index of the first combinational gate reading a net at or above
    /// its lowest output, `gates` if there is none.
    first_unordered: usize,
    /// This state's stamp (0 for an empty table).
    stamp: u64,
    /// Stamp of the state the last update started from, 0 if the
    /// table was built from scratch.
    base: u64,
    /// Gates the last update kept (its shared gate prefix).
    shared: usize,
    /// What the last update changed.
    delta: NetlistDelta,
    /// Nets touched by the update in progress, as a bitmap; all zero
    /// between updates.
    marks: Vec<u64>,
}

/// `(net, pin)` of every non-constant input of `g` below `nets`.
fn sinks_of(g: &Gate, nets: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
    g.inputs()
        .iter()
        .enumerate()
        .filter(move |(_, i)| !i.is_const() && (i.0 as usize) < nets)
        .map(|(pin, &i)| (i.0 as usize, pin as u8))
}

/// Non-constant output nets of `g` below `nets`.
fn drives_of(g: &Gate, nets: usize) -> impl Iterator<Item = usize> + '_ {
    g.outputs().iter().filter(move |o| !o.is_const() && (o.0 as usize) < nets).map(|o| o.0 as usize)
}

/// Non-constant bit nets of `ports` below `nets`.
fn port_nets(ports: &[Port], nets: usize) -> impl Iterator<Item = usize> + '_ {
    let bits = ports.iter().flat_map(|p| &p.bits);
    bits.filter(move |b| !b.is_const() && (b.0 as usize) < nets).map(|b| b.0 as usize)
}

/// Offset into `gates` of the first combinational gate that reads a
/// net at or above its lowest output, `gates.len()` if none does.
fn first_unordered(gates: &[Gate]) -> usize {
    gates
        .iter()
        .position(|g| {
            let low = g.outputs().iter().min().copied().unwrap_or(NetId(u32::MAX));
            !g.kind.is_sequential() && g.inputs().iter().any(|&i| i >= low)
        })
        .unwrap_or(gates.len())
}

impl NetConn {
    /// Builds the table of `netlist` in O(gates + nets). The result
    /// records no update. Pins and port bits naming nets beyond the
    /// net count (possible only in deliberately corrupted test
    /// netlists) are left out.
    pub fn build(netlist: &Netlist) -> Self {
        let nets = netlist.num_nets() as usize;
        let mut conn = NetConn {
            driver: vec![NO_DRIVER; nets],
            drivers: vec![0; nets],
            po_fanout: vec![0; nets],
            gates: netlist.gates().len(),
            first_unordered: first_unordered(netlist.gates()),
            stamp: fresh_stamp(),
            ..NetConn::default()
        };
        conn.lay_out_sinks(netlist);
        for (gi, g) in netlist.gates().iter().enumerate() {
            for net in drives_of(g, nets) {
                conn.driver[net] = gi as u32;
                conn.drivers[net] += 1;
            }
        }
        for &b in netlist.inputs().iter().flat_map(|p| &p.bits) {
            if let Some(d) = conn.drivers.get_mut(b.0 as usize) {
                *d += 1;
            }
        }
        for net in port_nets(netlist.outputs(), nets) {
            conn.po_fanout[net] += 1;
        }
        conn
    }

    /// Brings the table from the netlist it describes to `netlist`,
    /// which keeps the old one's first `shared` gates and its input
    /// ports; `old_suffix` and `old_outputs` are the old netlist's
    /// gates from `shared` on and its output ports. Work is
    /// proportional to the two suffixes and the ports.
    ///
    /// The update's delta ([`NetConn::delta`]) lists the old and the
    /// new suffix gates and touches every net they connect, plus, when
    /// the output ports changed, every old and new output bit.
    ///
    /// Every net the new suffix creates must be driven by it alone, as
    /// in any builder-made netlist (debug builds check the result
    /// against a fresh build).
    pub fn update(
        &mut self,
        netlist: &Netlist,
        shared: usize,
        old_suffix: &[Gate],
        old_outputs: &[Port],
    ) {
        let (old_nets, nets) = (self.num_nets(), netlist.num_nets() as usize);
        let suffix = &netlist.gates()[shared..];
        if self.marks.len() < nets.div_ceil(64) {
            self.marks.resize(nets.div_ceil(64), 0);
        }
        let mut marks = std::mem::take(&mut self.marks);
        let mut touch = |n: usize| {
            if n < nets {
                marks[n / 64] |= 1 << (n % 64);
            }
        };

        // Disconnect the old suffix: its sinks sit at the tails of the
        // slices it reads.
        for g in old_suffix {
            for (net, _) in sinks_of(g, old_nets) {
                let (start, len) = &mut self.span[net];
                while *len > 0 && self.sinks[(*start + *len - 1) as usize].0 >= shared as u32 {
                    *len -= 1;
                    self.live -= 1;
                }
                touch(net);
            }
            for net in drives_of(g, old_nets) {
                self.drivers[net] -= 1;
                if self.driver[net] as usize >= shared {
                    self.driver[net] = NO_DRIVER;
                }
                touch(net);
            }
        }
        let ports_changed = old_outputs != netlist.outputs();
        if ports_changed {
            for net in port_nets(old_outputs, old_nets) {
                self.po_fanout[net] -= 1;
                touch(net);
            }
        }

        // The net space follows the new netlist; nets beyond it were
        // the old suffix's alone.
        self.span.resize(nets, (0, 0));
        self.room.resize(nets, 0);
        self.driver.resize(nets, NO_DRIVER);
        self.drivers.resize(nets, 0);
        self.po_fanout.resize(nets, 0);

        // Connect the new suffix in gate order.
        for (gi, g) in (shared..).zip(suffix) {
            for (net, pin) in sinks_of(g, nets) {
                self.push_sink(net, (gi as u32, pin));
                touch(net);
            }
            for net in drives_of(g, nets) {
                self.driver[net] = gi as u32;
                self.drivers[net] += 1;
                touch(net);
            }
        }
        if ports_changed {
            for net in port_nets(netlist.outputs(), nets) {
                self.po_fanout[net] += 1;
                touch(net);
            }
        }
        self.gates = netlist.gates().len();
        // Gates before `shared` are unchanged, and so is their order.
        if self.first_unordered >= shared {
            self.first_unordered = shared + first_unordered(suffix);
        }
        if self.sinks.len() > 2 * self.live + 64 {
            self.lay_out_sinks(netlist);
        }

        self.delta.clear();
        self.delta.removed.extend(shared as u32..(shared + old_suffix.len()) as u32);
        self.delta.added.extend(shared as u32..self.gates as u32);
        self.delta.ports_changed = ports_changed;
        for (w, word) in marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.delta.touched_nets.push(NetId((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        self.marks = marks;
        self.base = self.stamp;
        self.shared = shared;
        self.stamp = fresh_stamp();
        debug_assert!(self.describes(netlist), "updated table diverged from a fresh build");
    }

    /// Appends `sink` to `net`'s slice, moving the slice to the end of
    /// the entry table (with twice its room) when it is full.
    fn push_sink(&mut self, net: usize, sink: (u32, u8)) {
        let (start, len) = self.span[net];
        if len == self.room[net] {
            let moved = self.sinks.len() as u32;
            self.sinks.extend_from_within(start as usize..(start + len) as usize);
            self.room[net] = (2 * len).max(4);
            self.sinks.resize((moved + self.room[net]) as usize, (0, 0));
            self.span[net].0 = moved;
        }
        let (start, len) = &mut self.span[net];
        self.sinks[(*start + *len) as usize] = sink;
        *len += 1;
        self.live += 1;
    }

    /// Lays the sink slices of `netlist` out back to back, each with
    /// room for exactly its entries. A counting pass sizes every slice;
    /// a second pass over the gates in ascending order then fills each
    /// slice in `(gate, pin)` order.
    fn lay_out_sinks(&mut self, netlist: &Netlist) {
        let nets = netlist.num_nets() as usize;
        self.room.clear();
        self.room.resize(nets, 0);
        for g in netlist.gates() {
            for (net, _) in sinks_of(g, nets) {
                self.room[net] += 1;
            }
        }
        self.span.clear();
        let mut end = 0;
        self.span.extend(self.room.iter().map(|&r| {
            end += r;
            (end - r, 0)
        }));
        self.sinks.clear();
        self.sinks.resize(end as usize, (0, 0));
        self.live = end as usize;
        for (gi, g) in netlist.gates().iter().enumerate() {
            for (net, pin) in sinks_of(g, nets) {
                let (start, len) = &mut self.span[net];
                self.sinks[(*start + *len) as usize] = (gi as u32, pin);
                *len += 1;
            }
        }
    }

    /// Whether the table holds what a fresh build of `netlist` holds.
    fn describes(&self, netlist: &Netlist) -> bool {
        let fresh = NetConn::build(netlist);
        self.num_nets() == fresh.num_nets()
            && self.gates == fresh.gates
            && (0..self.num_nets())
                .all(|n| self.sinks(NetId(n as u32)) == fresh.sinks(NetId(n as u32)))
            && (&self.driver, &self.drivers, &self.po_fanout)
                == (&fresh.driver, &fresh.drivers, &fresh.po_fanout)
            && self.is_ordered() == fresh.is_ordered()
    }

    /// Number of nets described.
    pub fn num_nets(&self) -> usize {
        self.driver.len()
    }

    /// `(gate, pin)` sinks of `net`, in ascending order.
    #[inline]
    pub fn sinks(&self, net: NetId) -> &[(u32, u8)] {
        let (start, len) = self.span[net.0 as usize];
        &self.sinks[start as usize..(start + len) as usize]
    }

    /// Number of primary-output bits `net` drives.
    #[inline]
    pub fn po_fanout(&self, net: NetId) -> u16 {
        self.po_fanout[net.0 as usize]
    }

    /// Driving gate of `net` (the last one, if several drive it);
    /// `None` for primary inputs, constants, and out-of-range ids.
    #[inline]
    pub fn driver_of(&self, net: NetId) -> Option<u32> {
        if net.is_const() {
            return None;
        }
        self.driver.get(net.0 as usize).copied().filter(|&d| d != NO_DRIVER)
    }

    /// Gate output pins and input-port bits driving `net`.
    pub fn drivers(&self, net: NetId) -> usize {
        self.drivers.get(net.0 as usize).map_or(0, |&d| d as usize)
    }

    /// Whether every combinational gate reads only nets below its
    /// lowest output. Net ids then rise along every combinational
    /// path, so the combinational graph is acyclic. Builder-made
    /// netlists always qualify.
    pub fn is_ordered(&self) -> bool {
        self.first_unordered >= self.gates
    }

    /// The delta of the last update (empty after a build).
    pub fn delta(&self) -> &NetlistDelta {
        &self.delta
    }

    /// The shared gate prefix and the touched nets of the last update,
    /// if it started from the table state stamped `stamp`. A reader
    /// that kept what it derived from that state needs to revisit only
    /// the touched nets and the gates from the prefix on.
    pub fn edit_since(&self, stamp: u64) -> Option<(usize, &[NetId])> {
        (stamp != 0 && self.base == stamp).then_some((self.shared, &self.delta.touched_nets))
    }

    /// This table state's stamp, unique within the process.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

/// A netlist together with its [`NetConn`] — what [`crate::lint_delta`]
/// and incremental synthesis read.
#[derive(Debug, Clone, Copy)]
pub struct Connected<'a> {
    netlist: &'a Netlist,
    conn: &'a NetConn,
}

impl<'a> Connected<'a> {
    /// Pairs `netlist` with its table.
    ///
    /// # Panics
    ///
    /// Panics if `conn` describes a netlist of another net or gate
    /// count (debug builds check it describes `netlist` exactly).
    pub fn new(netlist: &'a Netlist, conn: &'a NetConn) -> Self {
        assert!(
            conn.num_nets() == netlist.num_nets() as usize && conn.gates == netlist.gates().len(),
            "connectivity table of another netlist"
        );
        debug_assert!(conn.describes(netlist), "stale connectivity table");
        Connected { netlist, conn }
    }

    /// The netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Its connectivity table.
    pub fn conn(&self) -> &'a NetConn {
        self.conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    /// `o = (a0 & b0) | (a1 ^ b1)`.
    fn small() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 2);
        let c = b.input("b", 2);
        let x = b.and2(a[0], c[0]);
        let y = b.xor2(a[1], c[1]);
        let z = b.or2(x, y);
        b.output("o", &[z]);
        b.finish()
    }

    /// [`small`] with a different suffix after the two-gate prefix:
    /// one more gate, more nets and a wider output port.
    fn variant() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let ai = b.input("a", 2);
        let ci = b.input("b", 2);
        let x = b.and2(ai[0], ci[0]);
        let y = b.xor2(ai[1], ci[1]);
        let z = b.nand2(x, y);
        let w = b.xor2(z, ai[0]);
        b.output("o", &[w, z]);
        b.finish()
    }

    #[test]
    fn update_tracks_netlist_and_records_its_delta() {
        let (n, n2) = (small(), variant());
        let mut conn = NetConn::build(&n);
        let first = conn.stamp();
        assert_eq!(conn.edit_since(first), None, "a build records no update");
        conn.update(&n2, 2, &n.gates()[2..], n.outputs());
        assert!(conn.describes(&n2) && conn.is_ordered());
        let d = conn.delta();
        assert_eq!((&d.removed[..], &d.added[..], d.ports_changed), (&[2][..], &[2, 3][..], true));
        let (x, y) = (n.gates()[0].outs[0], n.gates()[1].outs[0]);
        assert!(d.touched_nets.contains(&x) && d.touched_nets.contains(&y));
        assert!(!d.touched_nets.contains(&n.inputs()[1].bits[0]), "b0 feeds the prefix only");
        assert_eq!(conn.edit_since(first), Some((2, &d.touched_nets[..])));
        // And back: the slices shrink again, and a build's bits return.
        let second = conn.stamp();
        conn.update(&n, 2, &n2.gates()[2..], n2.outputs());
        assert!(conn.describes(&n));
        assert!(conn.edit_since(first).is_none() && conn.edit_since(second).is_some());
    }

    #[test]
    fn order_certificate_follows_the_gates() {
        let n = small();
        assert!(NetConn::build(&n).is_ordered());
        let looped = crate::mutate::introduce_loop(&n, 2);
        assert!(!NetConn::build(&looped).is_ordered());
    }
}
