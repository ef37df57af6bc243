//! Arena-backed mutable netlist graph.
//!
//! [`ArenaNetlist`] keeps gates in u32-indexed slots with persistent
//! side-structures — per-net fanout tables, per-net driver counts and
//! a free-list for deleted slots — so a local edit (one injected
//! defect) is O(cone) graph surgery instead of an O(circuit) rebuild. Every edit returns a
//! [`NetlistDelta`] describing exactly which slots and nets changed;
//! the delta lint ([`crate::lint_delta`]) re-examines only that set.
//!
//! [`ArenaNetlist::replace_gates`] is the general surgery entry (used
//! by the defect factory in [`crate::mutate`] and lint tests). Freed
//! slots go on the free-list and are reused LIFO by later additions.
//! The incremental elaborator keeps a flat [`crate::NetConn`] instead
//! and builds an arena mirror only on request.

use crate::netlist::{Gate, NetId, Netlist, Port};

/// Sentinel for "no driving gate recorded" in the driver table.
const NO_DRIVER: u32 = u32::MAX;

/// Description of one netlist edit: which gate slots were removed and
/// added, and which nets had their connectivity (driver or fanout)
/// touched.
///
/// This is the contract between the netlist core and the incremental
/// downstream passes: lint re-checks `touched_nets`, synthesis
/// re-sums the loads of `touched_nets` and re-times the cones rooted
/// at `added` slots and at the drivers of `touched_nets`.
#[derive(Debug, Clone, Default)]
pub struct NetlistDelta {
    /// Slots freed by the edit (their former gates are gone).
    pub removed: Vec<u32>,
    /// Slots holding gates added by the edit.
    pub added: Vec<u32>,
    /// Nets whose driver set or fanout set changed, sorted and
    /// deduplicated. Constants are excluded.
    pub touched_nets: Vec<NetId>,
    /// Whether output ports changed (input ports never change).
    pub ports_changed: bool,
}

impl NetlistDelta {
    /// Empties the delta, keeping its buffers for the next edit.
    pub fn clear(&mut self) {
        self.removed.clear();
        self.added.clear();
        self.touched_nets.clear();
        self.ports_changed = false;
    }

    /// Total number of gate slots involved in the edit.
    pub fn size(&self) -> usize {
        self.removed.len() + self.added.len()
    }
}

/// A mutable gate graph with arena slots and persistent connectivity
/// side-structures. See the module docs for the design rationale.
#[derive(Debug, Clone)]
pub struct ArenaNetlist {
    name: String,
    num_nets: u32,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    /// Gate storage; `alive[i]` says whether slot `i` is occupied.
    slots: Vec<Gate>,
    alive: Vec<bool>,
    /// Freed slots available for reuse, popped LIFO.
    free: Vec<u32>,
    /// Per-net count of driving gate output pins (saturating at 255).
    drivers: Vec<u8>,
    /// Per-net slot of the most recent driver, [`NO_DRIVER`] if none
    /// is recorded. Exact whenever the net has at most one driver.
    driver: Vec<u32>,
    /// Per-net gate sinks as `(slot, input pin)` pairs.
    fanout: Vec<Vec<(u32, u8)>>,
    /// Per-net number of output-port reads.
    po_reads: Vec<u16>,
    /// Per-net flag: driven by a primary input port.
    pi: Vec<bool>,
    live: usize,
}

impl ArenaNetlist {
    /// Builds the arena mirror of `n`, computing all side-structures.
    pub fn from_netlist(n: &Netlist) -> Self {
        let nets = n.num_nets() as usize;
        let mut a = ArenaNetlist {
            name: n.name().to_string(),
            num_nets: n.num_nets(),
            inputs: n.inputs().to_vec(),
            outputs: n.outputs().to_vec(),
            slots: Vec::with_capacity(n.gates().len()),
            alive: Vec::with_capacity(n.gates().len()),
            free: Vec::new(),
            drivers: vec![0; nets],
            driver: vec![NO_DRIVER; nets],
            fanout: vec![Vec::new(); nets],
            po_reads: vec![0; nets],
            pi: vec![false; nets],
            live: 0,
        };
        for p in n.inputs() {
            for &b in &p.bits {
                a.pi[b.0 as usize] = true;
            }
        }
        for p in n.outputs() {
            for &b in &p.bits {
                if !b.is_const() {
                    a.po_reads[b.0 as usize] = a.po_reads[b.0 as usize].saturating_add(1);
                }
            }
        }
        for g in n.gates() {
            a.slots.push(*g);
            a.alive.push(true);
            a.live += 1;
            a.connect((a.slots.len() - 1) as u32);
        }
        a
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nets including the two constants.
    pub fn num_nets(&self) -> u32 {
        self.num_nets
    }

    /// Primary input ports.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Primary output ports.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Number of live gates.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Number of slots currently on the free-list.
    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    /// Total slot capacity (live + free + never-freed dead).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The gate in `slot`, if the slot is live.
    pub fn gate(&self, slot: u32) -> Option<&Gate> {
        if self.alive.get(slot as usize).copied().unwrap_or(false) {
            Some(&self.slots[slot as usize])
        } else {
            None
        }
    }

    /// Live `(slot, gate)` pairs in ascending slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &Gate)> + '_ {
        self.slots.iter().enumerate().filter(|&(i, _)| self.alive[i]).map(|(i, g)| (i as u32, g))
    }

    /// Slot of the gate driving `net`, if one is recorded. Exact
    /// whenever the net has at most one driver (the well-formed case).
    pub fn driver_of(&self, net: NetId) -> Option<u32> {
        let d = *self.driver.get(net.0 as usize)?;
        (d != NO_DRIVER).then_some(d)
    }

    /// Number of gate output pins driving `net`.
    pub fn driver_count(&self, net: NetId) -> usize {
        self.drivers.get(net.0 as usize).copied().unwrap_or(0) as usize
    }

    /// Gate sinks of `net` as `(slot, input pin)` pairs.
    pub fn fanout_of(&self, net: NetId) -> &[(u32, u8)] {
        self.fanout.get(net.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of output-port bits reading `net`.
    pub fn po_reads(&self, net: NetId) -> usize {
        self.po_reads.get(net.0 as usize).copied().unwrap_or(0) as usize
    }

    /// Whether `net` is a primary-input bit.
    pub fn is_primary_input(&self, net: NetId) -> bool {
        self.pi.get(net.0 as usize).copied().unwrap_or(false)
    }

    /// Whether every recorded combinational driver→sink edge goes from
    /// a lower slot to a strictly higher one, checked in O(pins).
    ///
    /// A mirror of a topologically ordered netlist starts out this
    /// way; it certifies the combinational graph acyclic and lets
    /// [`crate::lint_delta`] skip cycle search. General surgery with
    /// slot reuse may break the ordering, in which case lint falls
    /// back to the seeded SCC search.
    pub fn is_topo_ordered(&self) -> bool {
        let comb = |slot: u32| !self.slots[slot as usize].kind.is_sequential();
        self.iter_live().filter(|&(slot, _)| comb(slot)).all(|(slot, g)| {
            g.inputs().iter().filter_map(|&i| self.driver_of(i)).all(|d| d < slot || !comb(d))
        })
    }

    /// Allocates a fresh net id (for edits that introduce new wires).
    pub fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.num_nets);
        self.num_nets += 1;
        self.grow_net_tables();
        id
    }

    /// General graph surgery: atomically deletes the live slots in
    /// `remove` and inserts `add`, reusing freed slots LIFO. Returns
    /// the delta. Gate inputs/outputs may reference any existing net
    /// or one obtained from [`ArenaNetlist::fresh_net`].
    ///
    /// Slot order is *not* kept topological across this call (reused
    /// slots land wherever the free-list points).
    ///
    /// # Panics
    ///
    /// Panics if a slot in `remove` is not live.
    pub fn replace_gates(&mut self, remove: &[u32], add: &[Gate]) -> NetlistDelta {
        let mut delta = NetlistDelta::default();
        for &slot in remove {
            assert!(self.gate(slot).is_some(), "replace_gates: slot {slot} is not live");
            self.disconnect(slot, &mut |n| delta.touched_nets.push(n));
            self.alive[slot as usize] = false;
            self.free.push(slot);
            self.live -= 1;
            delta.removed.push(slot);
        }
        for g in add {
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s as usize] = *g;
                    self.alive[s as usize] = true;
                    s
                }
                None => {
                    self.slots.push(*g);
                    self.alive.push(true);
                    (self.slots.len() - 1) as u32
                }
            };
            self.live += 1;
            self.connect(slot);
            touch_gate_nets(g, &mut delta.touched_nets);
            delta.added.push(slot);
        }
        delta.touched_nets.sort_unstable_by_key(|n| n.0);
        delta.touched_nets.dedup();
        delta
    }

    /// Rewires one input pin of a live gate to `net` (defect-factory
    /// helper: keeps the edit inside the delta API without a
    /// remove/add pair changing slot numbering).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live or `pin` is out of range.
    pub fn rewire_input(&mut self, slot: u32, pin: u8, net: NetId) -> NetlistDelta {
        let g = *self.gate(slot).expect("rewire_input: slot is not live");
        assert!((pin as usize) < g.inputs().len(), "rewire_input: pin out of range");
        let mut ng = g;
        ng.ins[pin as usize] = net;
        let mut delta = NetlistDelta::default();
        self.disconnect(slot, &mut |n| delta.touched_nets.push(n));
        self.slots[slot as usize] = ng;
        self.connect(slot);
        touch_gate_nets(&ng, &mut delta.touched_nets);
        delta.removed.push(slot);
        delta.added.push(slot);
        delta.touched_nets.sort_unstable_by_key(|n| n.0);
        delta.touched_nets.dedup();
        delta
    }

    /// Replaces the output ports (defect-factory helper). Returns a
    /// delta with `ports_changed` set and the affected nets touched.
    pub fn set_outputs(&mut self, outputs: Vec<Port>) -> NetlistDelta {
        let mut delta = NetlistDelta { ports_changed: true, ..Default::default() };
        for p in &self.outputs {
            for &b in &p.bits {
                if !b.is_const() {
                    delta.touched_nets.push(b);
                }
            }
        }
        self.outputs = outputs;
        for p in &self.outputs {
            for &b in &p.bits {
                if !b.is_const() {
                    delta.touched_nets.push(b);
                }
            }
        }
        self.recount_po_reads();
        delta.touched_nets.sort_unstable_by_key(|n| n.0);
        delta.touched_nets.dedup();
        delta
    }

    /// Compacts the arena into an immutable [`Netlist`]: live slots in
    /// ascending slot order. For an unedited mirror this is
    /// gate-for-gate identical to the source netlist; after general
    /// surgery the order may not be topological (fine for lint, not
    /// for simulation).
    pub fn to_netlist(&self) -> Netlist {
        let gates: Vec<Gate> = self.iter_live().map(|(_, g)| *g).collect();
        Netlist::from_parts(
            self.name.clone(),
            self.num_nets,
            self.inputs.clone(),
            self.outputs.clone(),
            gates,
        )
    }

    /// Whether the arena's compaction equals `n` exactly (same name,
    /// ports, net count, and gate sequence). This is the isomorphism
    /// check the mirror tests pin against: net ids are allocated by
    /// the same deterministic elaboration, so "isomorphic" collapses
    /// to "equal".
    pub fn matches_netlist(&self, n: &Netlist) -> bool {
        self.name == n.name()
            && self.num_nets == n.num_nets()
            && self.inputs == n.inputs()
            && self.outputs == n.outputs()
            && self.live == n.gates().len()
            && self.iter_live().map(|(_, g)| g).eq(n.gates().iter())
    }

    fn grow_net_tables(&mut self) {
        let nets = self.num_nets as usize;
        if self.fanout.len() < nets {
            self.drivers.resize(nets, 0);
            self.driver.resize(nets, NO_DRIVER);
            self.fanout.resize(nets, Vec::new());
            self.po_reads.resize(nets, 0);
            self.pi.resize(nets, false);
        }
    }

    fn recount_po_reads(&mut self) {
        self.po_reads.iter_mut().for_each(|c| *c = 0);
        for p in &self.outputs {
            for &b in &p.bits {
                if !b.is_const() && (b.0 as usize) < self.num_nets as usize {
                    self.po_reads[b.0 as usize] = self.po_reads[b.0 as usize].saturating_add(1);
                }
            }
        }
    }

    /// Registers a live slot's pins in the net tables. Out-of-range
    /// nets (possible in deliberately corrupted test netlists) are
    /// skipped — lint flags them from the gate itself.
    fn connect(&mut self, slot: u32) {
        let g = self.slots[slot as usize];
        for (pin, &i) in g.inputs().iter().enumerate() {
            if !i.is_const() && (i.0 as usize) < self.num_nets as usize {
                self.fanout[i.0 as usize].push((slot, pin as u8));
            }
        }
        for &o in g.outputs() {
            if !o.is_const() && (o.0 as usize) < self.num_nets as usize {
                self.drivers[o.0 as usize] = self.drivers[o.0 as usize].saturating_add(1);
                self.driver[o.0 as usize] = slot;
            }
        }
    }

    /// Removes a live slot's pins from the net tables, recording the
    /// affected nets.
    fn disconnect(&mut self, slot: u32, touch: &mut impl FnMut(NetId)) {
        let g = self.slots[slot as usize];
        for &i in g.inputs() {
            if !i.is_const() && (i.0 as usize) < self.num_nets as usize {
                self.fanout[i.0 as usize].retain(|&(s, _)| s != slot);
                touch(i);
            }
        }
        for &o in g.outputs() {
            if !o.is_const() && (o.0 as usize) < self.num_nets as usize {
                self.drivers[o.0 as usize] = self.drivers[o.0 as usize].saturating_sub(1);
                if self.driver[o.0 as usize] == slot {
                    // Another driver may remain (multi-driven defect);
                    // the table then records none.
                    self.driver[o.0 as usize] = NO_DRIVER;
                }
                touch(o);
            }
        }
    }
}

fn touch_gate_nets(g: &Gate, touched: &mut Vec<NetId>) {
    for &i in g.inputs() {
        if !i.is_const() {
            touched.push(i);
        }
    }
    for &o in g.outputs() {
        if !o.is_const() {
            touched.push(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{GateKind, NetlistBuilder};

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

    #[test]
    fn mirror_matches_source() {
        let n = small();
        let a = ArenaNetlist::from_netlist(&n);
        assert!(a.matches_netlist(&n));
        assert_eq!(a.to_netlist(), n);
        assert_eq!(a.num_live(), n.gates().len());
        // Fanout/driver tables agree with a direct scan.
        for (slot, g) in a.iter_live() {
            for &o in g.outputs() {
                assert_eq!(a.driver_of(o), Some(slot));
                assert_eq!(a.driver_count(o), 1);
            }
            for (pin, &i) in g.inputs().iter().enumerate() {
                if !i.is_const() {
                    assert!(a.fanout_of(i).contains(&(slot, pin as u8)));
                }
            }
        }
        assert!(a.is_topo_ordered());
    }

    #[test]
    fn replace_reuses_free_slots() {
        let n = small();
        let mut a = ArenaNetlist::from_netlist(&n);
        let (slot, g) = a.iter_live().next().map(|(s, g)| (s, *g)).unwrap();
        let d = a.replace_gates(&[slot], &[]);
        assert_eq!(d.removed, vec![slot]);
        assert_eq!(a.num_free(), 1);
        assert_eq!(a.num_live(), n.gates().len() - 1);
        let d2 = a.replace_gates(&[], &[g]);
        assert_eq!(d2.added, vec![slot], "LIFO slot reuse");
        assert_eq!(a.num_free(), 0);
        assert!(a.matches_netlist(&n));
    }

    #[test]
    fn rewire_updates_fanout() {
        let n = small();
        let mut a = ArenaNetlist::from_netlist(&n);
        // Find the OR gate and rewire its second input to net of pin 0.
        let (slot, g) =
            a.iter_live().find(|(_, g)| g.kind == GateKind::Or2).map(|(s, g)| (s, *g)).unwrap();
        let from = g.ins[1];
        let to = g.ins[0];
        let d = a.rewire_input(slot, 1, to);
        assert!(d.touched_nets.contains(&from));
        assert!(d.touched_nets.contains(&to));
        assert!(a.fanout_of(from).iter().all(|&(s, _)| s != slot));
        assert_eq!(a.fanout_of(to).iter().filter(|&&(s, _)| s == slot).count(), 2);
    }
}
