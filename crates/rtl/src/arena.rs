//! Arena-backed mutable netlist graph.
//!
//! [`ArenaNetlist`] keeps gates in u32-indexed slots with persistent
//! side-structures — per-net fanout tables, per-net driver counts, a
//! free-list for deleted slots, and incrementally maintained logic
//! levels — so a local edit (one compressor-tree action, one injected
//! defect) is O(cone) graph surgery instead of an O(circuit) rebuild.
//! Every edit returns a [`NetlistDelta`] describing exactly which
//! slots and nets changed; downstream consumers (incremental lint,
//! technology mapping, STA) re-examine only that set.
//!
//! Two edit entry points cover the two workloads:
//!
//! * [`ArenaNetlist::splice_suffix`] — the incremental-elaboration
//!   fast path. Compressor-tree legalization only ever changes a
//!   contiguous column range starting at the action column, and
//!   elaboration emits gates column-major, so a re-elaborated netlist
//!   shares a gate *prefix* with its predecessor. The splice truncates
//!   the disagreeing suffix and appends the new one, preserving the
//!   invariant that live slots in slot order are exactly the compacted
//!   netlist in topological order.
//! * [`ArenaNetlist::replace_gates`] — general surgery (used by the
//!   defect factory in [`crate::mutate`] and lint tests). Freed slots
//!   go on the free-list and are reused LIFO by later additions.

use crate::netlist::{clone_ports_from, Gate, NetId, Netlist, Port, CONST1};

/// Sentinel for "no driving gate recorded" in the driver table.
const NO_DRIVER: u32 = u32::MAX;

/// Description of one arena edit: which slots were removed and added,
/// and which nets had their connectivity (driver or fanout) touched.
///
/// This is the contract between the netlist core and the incremental
/// downstream passes: lint re-checks `touched_nets`, mapping and STA
/// re-visit the cones rooted at `added` slots and at the drivers of
/// `touched_nets`.
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
    /// Whether nets follow slot order: every live gate reads only nets
    /// below its outputs, and its outputs lie above those of every
    /// earlier slot (as a builder emits them). Then the nets from the
    /// first output of any slot on are connected to that slot and later
    /// ones only, every fanout list ascends by slot, and no edge runs
    /// backward. Cleared for good by general surgery
    /// (`replace_gates`, `rewire_input`) or a gate that breaks it.
    nets_ordered: bool,
    /// Highest output net of the last slot, while `nets_ordered`.
    top_net: u32,
    /// Per-net number of output-port reads.
    po_reads: Vec<u16>,
    /// Per-net flag: driven by a primary input port.
    pi: Vec<bool>,
    /// Per-slot logic level (0 for slots whose inputs are all
    /// constants/PIs; sequential gates restart at 0). Exact for
    /// acyclic graphs; best-effort after an edit introduces a cycle.
    level: Vec<u32>,
    live: usize,
    /// Number of recorded combinational driver→sink edges that go
    /// *backward* in slot order (driver slot ≥ sink slot). Zero is a
    /// topological-order certificate: the combinational graph (as seen
    /// through the driver table) is acyclic, and incremental lint can
    /// skip cycle search. Maintained exactly by every connect,
    /// disconnect, and driver retarget.
    order_violations: usize,
    /// Nets touched by the `splice_suffix` in progress; empty between
    /// edits, and kept so the hot path never re-allocates it.
    touched: NetSet,
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
            nets_ordered: true,
            top_net: 0,
            po_reads: vec![0; nets],
            pi: vec![false; nets],
            level: Vec::with_capacity(n.gates().len()),
            live: 0,
            order_violations: 0,
            touched: NetSet::default(),
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
            a.append(*g, &mut |_| {});
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

    /// Logic level of a live slot (see the `level` field docs).
    pub fn level_of(&self, slot: u32) -> u32 {
        self.level[slot as usize]
    }

    /// Whether every recorded combinational driver→sink edge goes from
    /// a lower slot to a strictly higher one.
    ///
    /// [`ArenaNetlist::splice_suffix`] keeps live slots in elaboration
    /// (topological) order, so this holds along the entire retarget
    /// fast path; it certifies the combinational graph acyclic and
    /// lets [`crate::lint_delta`] skip cycle search outright. General
    /// surgery with slot reuse may break the ordering, in which case
    /// lint falls back to the seeded SCC search.
    pub fn is_topo_ordered(&self) -> bool {
        self.order_violations == 0
    }

    /// Maximum logic level over live slots (0 for an empty arena).
    pub fn max_level(&self) -> u32 {
        self.iter_live().map(|(s, _)| self.level[s as usize]).max().unwrap_or(0)
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
    /// slots land wherever the free-list points); use
    /// [`ArenaNetlist::splice_suffix`] when the downstream consumers
    /// need compaction to stay in topological order.
    ///
    /// # Panics
    ///
    /// Panics if a slot in `remove` is not live.
    pub fn replace_gates(&mut self, remove: &[u32], add: &[Gate]) -> NetlistDelta {
        self.nets_ordered = false;
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
                    self.level.push(0);
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
        self.relevel(&delta);
        debug_assert_eq!(self.order_violations, self.recount_order_violations());
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
        self.nets_ordered = false;
        self.disconnect(slot, &mut |n| delta.touched_nets.push(n));
        self.slots[slot as usize] = ng;
        self.connect(slot);
        touch_gate_nets(&ng, &mut delta.touched_nets);
        delta.removed.push(slot);
        delta.added.push(slot);
        delta.touched_nets.sort_unstable_by_key(|n| n.0);
        delta.touched_nets.dedup();
        self.relevel(&delta);
        debug_assert_eq!(self.order_violations, self.recount_order_violations());
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

    /// The incremental-elaboration fast path: replaces everything from
    /// gate index `shared_prefix` onward (and the output ports and net
    /// count) with the corresponding suffix of `n`, which must agree
    /// with the arena's compaction on the first `shared_prefix` gates
    /// and on the input ports. The edit is written into `delta`
    /// (cleared first), whose buffers are reused.
    ///
    /// Preserves the invariant that live slots in ascending order are
    /// exactly `n.gates()` (callers that only ever splice keep the
    /// arena compaction-identical to the netlist). Freed suffix slots
    /// beyond the new length are dropped, not free-listed, to keep
    /// that ordering. The work is proportional to the two suffixes
    /// and the output ports, not to the netlist.
    pub fn splice_suffix(&mut self, n: &Netlist, shared_prefix: usize, delta: &mut NetlistDelta) {
        debug_assert!(self.free.is_empty(), "splice_suffix requires a compact arena");
        debug_assert_eq!(self.inputs, n.inputs(), "input ports must not change");
        delta.clear();

        let old_nets = self.num_nets as usize;
        let nets = n.num_nets() as usize;
        // Only nets of the new net space are reported.
        let mut touched = std::mem::take(&mut self.touched);
        touched.reserve(nets);
        let mut touch = |n: NetId| {
            if (n.0 as usize) < nets {
                touched.insert(n);
            }
        };

        // Disconnect and drop the old suffix.
        if self.nets_ordered {
            self.drop_ordered_suffix(shared_prefix, &mut touch, &mut delta.removed);
        } else {
            for slot in (shared_prefix..self.slots.len()).rev() {
                if self.alive[slot] {
                    self.disconnect(slot as u32, &mut touch);
                    self.live -= 1;
                    delta.removed.push(slot as u32);
                }
            }
            delta.removed.reverse();
        }
        self.slots.truncate(shared_prefix);
        self.alive.truncate(shared_prefix);
        self.level.truncate(shared_prefix);

        // Net tables only ever grow. When the net space shrinks, the
        // suffix disconnect above already reset the tail entries (the
        // prefix cannot reference suffix-created nets), so leaving
        // them in place is safe and lets every fanout buffer keep its
        // capacity for the next splice instead of churning the
        // allocator twice per step.
        self.num_nets = n.num_nets();
        if self.drivers.len() < nets {
            self.drivers.resize(nets, 0);
            self.driver.resize(nets, NO_DRIVER);
            self.fanout.resize(nets, Vec::new());
            self.po_reads.resize(nets, 0);
            self.pi.resize(nets, false);
        }

        // Output ports: touched, and their reads recounted, only if a
        // bit net changed.
        if self.outputs != n.outputs() {
            delta.ports_changed = true;
            for &b in self.outputs.iter().flat_map(|p| &p.bits).filter(|b| !b.is_const()) {
                touch(b);
                if (b.0 as usize) < old_nets {
                    self.po_reads[b.0 as usize] = self.po_reads[b.0 as usize].saturating_sub(1);
                }
            }
            for &b in n.outputs().iter().flat_map(|p| &p.bits).filter(|b| !b.is_const()) {
                touch(b);
                if (b.0 as usize) < nets {
                    self.po_reads[b.0 as usize] = self.po_reads[b.0 as usize].saturating_add(1);
                }
            }
            clone_ports_from(&mut self.outputs, n.outputs());
        }

        // Append and connect the new suffix (already in topological
        // order, so levels compute exactly in one forward pass).
        for g in &n.gates()[shared_prefix..] {
            delta.added.push(self.append(*g, &mut touch));
        }
        touched.drain_into(&mut delta.touched_nets);
        self.touched = touched;
        debug_assert_eq!(self.order_violations, self.recount_order_violations());
    }

    /// Compacts the arena into an immutable [`Netlist`]: live slots in
    /// ascending slot order. For arenas maintained exclusively through
    /// [`ArenaNetlist::splice_suffix`] this is gate-for-gate identical
    /// to the source netlist; after general surgery the order may not
    /// be topological (fine for lint, not for simulation).
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
    /// check the property tests pin the incremental pipeline against:
    /// net ids are allocated by replaying the same deterministic
    /// elaboration, so "isomorphic" collapses to "equal".
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

    /// One if the recorded edge `d → s` runs backward in slot order
    /// between two combinational gates, zero otherwise. The driver
    /// table only ever points at live slots, so both kinds are stable
    /// between the matching `+=` and `-=` of an edge.
    fn edge_violation(&self, d: u32, s: u32) -> usize {
        usize::from(
            d >= s
                && !self.slots[d as usize].kind.is_sequential()
                && !self.slots[s as usize].kind.is_sequential(),
        )
    }

    /// Points the recorded driver of `o` at `to` ([`NO_DRIVER`] to
    /// clear), re-classifying the slot order of every existing fanout
    /// edge of `o` against the new driver.
    fn retarget_driver(&mut self, o: NetId, to: u32) {
        let from = std::mem::replace(&mut self.driver[o.0 as usize], to);
        if from == to {
            return;
        }
        let slots = &self.slots;
        let comb = |s: u32| !slots[s as usize].kind.is_sequential();
        let mut delta = 0isize;
        for &(s, _) in &self.fanout[o.0 as usize] {
            if from != NO_DRIVER && from >= s && comb(from) && comb(s) {
                delta -= 1;
            }
            if to != NO_DRIVER && to >= s && comb(to) && comb(s) {
                delta += 1;
            }
        }
        self.order_violations =
            self.order_violations.checked_add_signed(delta).expect("edge accounting imbalance");
    }

    /// Connects `g` in a new last slot and computes its level (exact
    /// when every driver of `g` sits in an earlier slot), passing each
    /// non-constant net of `g` to `touch`. One pass over the pins does
    /// what `connect` followed by `compute_level` does.
    fn append(&mut self, g: Gate, touch: &mut impl FnMut(NetId)) -> u32 {
        let slot = self.slots.len() as u32;
        let outs = g.outputs();
        // The gate keeps nets ordered if its outputs ascend above every
        // earlier slot's and it reads only nets below them.
        self.nets_ordered = self.nets_ordered
            && outs[0].0 > self.top_net.max(CONST1.0)
            && outs.windows(2).all(|w| w[0] < w[1])
            && g.inputs().iter().all(|i| *i < outs[0]);
        self.top_net = outs[outs.len() - 1].0;
        self.slots.push(g);
        self.alive.push(true);
        self.live += 1;
        let nets = self.num_nets as usize;
        let mut level = 0;
        for (pin, &i) in g.inputs().iter().enumerate() {
            if i.is_const() {
                continue;
            }
            touch(i);
            if (i.0 as usize) >= nets {
                continue;
            }
            let d = self.driver[i.0 as usize];
            if d != NO_DRIVER {
                self.order_violations += self.edge_violation(d, slot);
                // A net this gate also drives counts at level 0, as it
                // does once the gate is its recorded driver.
                if !outs.contains(&i) {
                    level = level.max(self.level[d as usize]);
                }
            }
            self.fanout[i.0 as usize].push((slot, pin as u8));
        }
        self.level.push(if g.kind.is_sequential() { 0 } else { level + 1 });
        for &o in outs {
            if o.is_const() {
                continue;
            }
            touch(o);
            if (o.0 as usize) < nets {
                self.drivers[o.0 as usize] = self.drivers[o.0 as usize].saturating_add(1);
                self.retarget_driver(o, slot);
            }
        }
        slot
    }

    /// Registers a live slot's pins in the net tables. Out-of-range
    /// nets (possible in deliberately corrupted test netlists) are
    /// skipped — lint flags them from the gate itself.
    fn connect(&mut self, slot: u32) {
        let g = self.slots[slot as usize];
        for (pin, &i) in g.inputs().iter().enumerate() {
            if !i.is_const() && (i.0 as usize) < self.num_nets as usize {
                let d = self.driver[i.0 as usize];
                if d != NO_DRIVER {
                    self.order_violations += self.edge_violation(d, slot);
                }
                self.fanout[i.0 as usize].push((slot, pin as u8));
            }
        }
        for &o in g.outputs() {
            if !o.is_const() && (o.0 as usize) < self.num_nets as usize {
                self.drivers[o.0 as usize] = self.drivers[o.0 as usize].saturating_add(1);
                self.retarget_driver(o, slot);
            }
        }
    }

    /// Removes a live slot's pins from the net tables, recording the
    /// affected nets.
    fn disconnect(&mut self, slot: u32, touch: &mut impl FnMut(NetId)) {
        let g = self.slots[slot as usize];
        for &i in g.inputs() {
            if !i.is_const() && (i.0 as usize) < self.num_nets as usize {
                let d = self.driver[i.0 as usize];
                if d != NO_DRIVER {
                    // The slot may read the same net on several pins.
                    let removed =
                        self.fanout[i.0 as usize].iter().filter(|&&(s, _)| s == slot).count();
                    self.order_violations -= removed * self.edge_violation(d, slot);
                }
                self.fanout[i.0 as usize].retain(|&(s, _)| s != slot);
                touch(i);
            }
        }
        for &o in g.outputs() {
            if !o.is_const() && (o.0 as usize) < self.num_nets as usize {
                self.drivers[o.0 as usize] = self.drivers[o.0 as usize].saturating_sub(1);
                if self.driver[o.0 as usize] == slot {
                    // Another driver may remain (multi-driven defect);
                    // its slot is rediscovered from any live writer.
                    self.retarget_driver(o, NO_DRIVER);
                }
                touch(o);
            }
        }
    }

    /// Disconnects every slot from `cut` on in a `nets_ordered` arena,
    /// recording the touched nets and the removed slots. The nets from
    /// the first output of slot `cut` on belong to the suffix alone, so
    /// their entries are reset in one sweep; an earlier net read by the
    /// suffix loses the tail of its (ascending) fanout list. No removed
    /// edge runs backward, so the order-violation count stays zero.
    fn drop_ordered_suffix(
        &mut self,
        cut: usize,
        touch: &mut impl FnMut(NetId),
        removed: &mut Vec<u32>,
    ) {
        let Some(first) = self.slots.get(cut) else { return };
        let owned = first.outputs()[0].0 as usize;
        let nets = self.num_nets as usize;
        for slot in cut..self.slots.len() {
            let g = self.slots[slot];
            for &i in g.inputs().iter().filter(|i| !i.is_const() && (i.0 as usize) < nets) {
                touch(i);
                if (i.0 as usize) < owned {
                    let list = &mut self.fanout[i.0 as usize];
                    list.truncate(list.partition_point(|&(s, _)| (s as usize) < cut));
                }
            }
            for &o in g.outputs().iter().filter(|o| (o.0 as usize) < nets) {
                touch(o);
            }
            removed.push(slot as u32);
        }
        self.live -= self.slots.len() - cut;
        for net in owned.min(nets)..nets {
            self.drivers[net] = 0;
            self.driver[net] = NO_DRIVER;
            self.fanout[net].clear();
        }
        self.top_net = cut
            .checked_sub(1)
            .map_or(0, |s| self.slots[s].outputs().iter().max().expect("a gate drives a net").0);
    }

    /// O(edges) recount of `order_violations`, for debug validation
    /// after each edit entry point (compiled out of release builds
    /// with the `debug_assert_eq!` that calls it).
    fn recount_order_violations(&self) -> usize {
        let mut n = 0;
        for (slot, g) in self.iter_live() {
            for &i in g.inputs() {
                if !i.is_const() && (i.0 as usize) < self.num_nets as usize {
                    let d = self.driver[i.0 as usize];
                    if d != NO_DRIVER {
                        n += self.edge_violation(d, slot);
                    }
                }
            }
        }
        n
    }

    fn net_level(&self, net: NetId) -> u32 {
        if net.is_const() || (net.0 as usize) >= self.num_nets as usize {
            return 0;
        }
        match self.driver[net.0 as usize] {
            NO_DRIVER => 0,
            d => self.level[d as usize],
        }
    }

    fn compute_level(&self, slot: u32) -> u32 {
        let g = &self.slots[slot as usize];
        if g.kind.is_sequential() {
            return 0;
        }
        1 + g
            .inputs()
            .iter()
            .filter(|i| !i.is_const())
            .map(|&i| self.net_level(i))
            .max()
            .unwrap_or(0)
    }

    /// Re-levels the cone downstream of an edit. Exact on acyclic
    /// graphs; bounded (and therefore approximate) if the edit created
    /// a combinational cycle — lint, not levels, is the cycle oracle.
    fn relevel(&mut self, delta: &NetlistDelta) {
        let mut work: Vec<u32> = delta.added.clone();
        for &t in &delta.touched_nets {
            for &(s, _) in self.fanout_of(t) {
                work.push(s);
            }
        }
        let mut budget = (self.live + 1) * 8;
        while let Some(slot) = work.pop() {
            if budget == 0 {
                return;
            }
            budget -= 1;
            if !self.alive[slot as usize] {
                continue;
            }
            let l = self.compute_level(slot);
            if l != self.level[slot as usize] {
                self.level[slot as usize] = l;
                let g = self.slots[slot as usize];
                for &o in g.outputs() {
                    if o.is_const() || (o.0 as usize) >= self.num_nets as usize {
                        continue;
                    }
                    // Only propagate through nets this slot actually
                    // drives per the driver table (multi-driven nets
                    // keep the recorded driver's level).
                    if self.driver[o.0 as usize] != slot {
                        continue;
                    }
                    for &(s, _) in &self.fanout[o.0 as usize] {
                        work.push(s);
                    }
                }
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

/// A set of nets below a bound as a bitmap, drained in ascending
/// order; empty between edits.
#[derive(Debug, Clone, Default)]
struct NetSet {
    words: Vec<u64>,
}

impl NetSet {
    /// Makes room for nets below `bound`.
    fn reserve(&mut self, bound: usize) {
        let words = bound.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn insert(&mut self, n: NetId) {
        self.words[n.0 as usize / 64] |= 1 << (n.0 % 64);
    }

    /// Appends the members to `out` in ascending order and empties
    /// the set.
    fn drain_into(&mut self, out: &mut Vec<NetId>) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(NetId((w * 64 + bits.trailing_zeros() as usize) as u32));
                bits &= bits - 1;
            }
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
        assert_eq!(a.max_level(), 2);
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
    fn splice_suffix_tracks_netlist() {
        let n = small();
        let mut a = ArenaNetlist::from_netlist(&n);
        let n2 = variant();
        let mut d = NetlistDelta::default();
        a.splice_suffix(&n2, 2, &mut d);
        assert!(a.matches_netlist(&n2));
        assert_eq!(d.removed, vec![2]);
        assert_eq!(d.added, vec![2, 3]);
        assert!(d.ports_changed);
        let (x, y) = (n.gates()[0].outs[0], n.gates()[1].outs[0]);
        assert!(d.touched_nets.contains(&x) && d.touched_nets.contains(&y));
    }

    #[test]
    fn ordered_and_general_splices_agree() {
        let (n, n2) = (small(), variant());
        let mut ordered = ArenaNetlist::from_netlist(&n);
        // A rewire and its undo restore the gates, but the arena no
        // longer vouches for its net order.
        let mut general = ArenaNetlist::from_netlist(&n);
        let g = *general.gate(0).unwrap();
        general.rewire_input(0, 0, g.ins[1]);
        general.rewire_input(0, 0, g.ins[0]);
        assert!(general.matches_netlist(&n) && !general.nets_ordered);
        let (mut d1, mut d2) = (NetlistDelta::default(), NetlistDelta::default());
        ordered.splice_suffix(&n2, 2, &mut d1);
        general.splice_suffix(&n2, 2, &mut d2);
        assert_eq!((&d1.removed, &d1.added, d1.ports_changed), (&d2.removed, &d2.added, true));
        assert_eq!(d1.touched_nets, d2.touched_nets);
        let fresh = ArenaNetlist::from_netlist(&n2);
        for a in [&ordered, &general] {
            assert!(a.matches_netlist(&n2) && a.is_topo_ordered());
            for net in (0..n2.num_nets()).map(NetId) {
                let mut sinks = a.fanout_of(net).to_vec();
                sinks.sort_unstable();
                assert_eq!(sinks, fresh.fanout_of(net), "sinks of {net:?}");
                assert_eq!(a.driver_of(net), fresh.driver_of(net));
                assert_eq!(a.driver_count(net), fresh.driver_count(net));
                assert_eq!(a.po_reads(net), fresh.po_reads(net));
            }
            let levels = |a: &ArenaNetlist| -> Vec<u32> {
                a.iter_live().map(|(s, _)| a.level_of(s)).collect()
            };
            assert_eq!(levels(a), levels(&fresh));
        }
    }
}
