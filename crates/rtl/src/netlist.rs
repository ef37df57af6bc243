//! Gate-level netlist intermediate representation.
//!
//! Netlists are built through [`NetlistBuilder`], which performs
//! constant folding and trivial strength reduction on the fly (so
//! `x & 0` never materializes a gate). Gates are stored in
//! construction order, which is a valid topological order: every gate
//! input is a primary input, a constant, a flip-flop output, or the
//! output of an earlier gate.

use std::collections::BTreeMap;

/// Identifier of a single-bit net. Nets `0` and `1` are the constant
/// `0` and `1` nets of every netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// The constant-zero net.
pub const CONST0: NetId = NetId(0);
/// The constant-one net.
pub const CONST1: NetId = NetId(1);

impl NetId {
    /// Whether this net is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self == CONST0 || self == CONST1
    }
}

/// Primitive gate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter: `y = ¬a`.
    Inv,
    /// Buffer: `y = a`.
    Buf,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer: `y = s ? b : a` with inputs `[a, b, s]`.
    Mux2,
    /// Half adder (2:2 compressor): `[a, b] → [sum, carry]`.
    HalfAdder,
    /// Full adder (3:2 compressor): `[a, b, cin] → [sum, carry]`.
    FullAdder,
    /// 4:2 compressor: `[x1, x2, x3, x4, cin] → [sum, carry, cout]`,
    /// logically two chained full adders; `cout = maj(x1, x2, x3)` is
    /// independent of `cin`, which is what makes same-stage carry
    /// chains ripple-free.
    Compressor42,
    /// D flip-flop: `[d] → [q]`, rising-edge, implicit global clock.
    Dff,
}

impl GateKind {
    /// Number of input pins.
    #[inline]
    pub fn num_inputs(self) -> usize {
        match self {
            GateKind::Inv | GateKind::Buf | GateKind::Dff => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2
            | GateKind::HalfAdder => 2,
            GateKind::Mux2 | GateKind::FullAdder => 3,
            GateKind::Compressor42 => 5,
        }
    }

    /// Number of output pins.
    #[inline]
    pub fn num_outputs(self) -> usize {
        match self {
            GateKind::HalfAdder | GateKind::FullAdder => 2,
            GateKind::Compressor42 => 3,
            _ => 1,
        }
    }

    /// Whether this is a sequential element.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }
}

/// A gate instance. Unused pin slots hold [`CONST0`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Input nets; only the first `kind.num_inputs()` are meaningful.
    pub ins: [NetId; 5],
    /// Output nets; only the first `kind.num_outputs()` are meaningful.
    pub outs: [NetId; 3],
}

impl Gate {
    /// The meaningful input nets.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.ins[..self.kind.num_inputs()]
    }

    /// The meaningful output nets.
    #[inline]
    pub fn outputs(&self) -> &[NetId] {
        &self.outs[..self.kind.num_outputs()]
    }
}

/// A named multi-bit port (LSB first).
#[derive(Debug, PartialEq, Eq)]
pub struct Port {
    /// Port name (a valid Verilog identifier).
    pub name: String,
    /// Net of each bit, least-significant first.
    pub bits: Vec<NetId>,
}

impl Clone for Port {
    fn clone(&self) -> Self {
        Port { name: self.name.clone(), bits: self.bits.clone() }
    }

    /// Reuses `self`'s buffers.
    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.bits.clone_from(&source.bits);
    }
}

/// Aggregate gate-count statistics of a netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateStats {
    counts: BTreeMap<&'static str, usize>,
    total: usize,
}

impl GateStats {
    /// Total gate count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count of a specific gate kind by display name (e.g. `"FA"`).
    pub fn count(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All `(name, count)` pairs in alphabetical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }
}

pub(crate) fn kind_name(kind: GateKind) -> &'static str {
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

/// A flattened gate-level netlist.
#[derive(Debug, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    num_nets: u32,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    gates: Vec<Gate>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            name: self.name.clone(),
            num_nets: self.num_nets,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            gates: self.gates.clone(),
        }
    }

    /// Reuses `self`'s buffers: copying a netlist over a same-shaped
    /// one allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.num_nets = source.num_nets;
        self.inputs.clone_from(&source.inputs);
        self.outputs.clone_from(&source.outputs);
        self.gates.clone_from(&source.gates);
    }
}

/// Copies `src` over `dst`, reusing `dst`'s port buffers.
pub(crate) fn clone_ports_from(dst: &mut Vec<Port>, src: &[Port]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
    dst.extend(src[dst.len()..].iter().cloned());
}

/// Length of the longest common prefix of two gate sequences — the
/// part of a re-elaborated netlist that incremental consumers keep.
pub fn shared_gate_prefix(a: &[Gate], b: &[Gate]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Netlist {
    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nets, including the two constants.
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

    /// Gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Whether the netlist contains sequential elements.
    pub fn is_sequential(&self) -> bool {
        self.gates.iter().any(|g| g.kind.is_sequential())
    }

    /// Gate-count statistics.
    pub fn stats(&self) -> GateStats {
        let mut stats = GateStats::default();
        for g in &self.gates {
            *stats.counts.entry(kind_name(g.kind)).or_insert(0) += 1;
            stats.total += 1;
        }
        stats
    }

    /// Removes gates whose outputs reach no primary output and no
    /// flip-flop, returning the swept netlist. Net ids are preserved.
    ///
    /// Dead logic arises naturally from constant folding (e.g. the
    /// group-propagate chain of a prefix adder whose top carry is
    /// discarded) and would otherwise inflate area reports.
    pub fn sweep(mut self) -> Netlist {
        let n = self.num_nets as usize;
        let mut live = vec![false; n];
        for p in &self.outputs {
            for &b in &p.bits {
                live[b.0 as usize] = true;
            }
        }
        // Sequential elements are always kept; their D cones are live.
        for g in &self.gates {
            if g.kind.is_sequential() {
                for &i in g.inputs() {
                    live[i.0 as usize] = true;
                }
            }
        }
        // One reverse sweep suffices: gates are topologically ordered,
        // so a gate's outputs are only read by later gates.
        for idx in (0..self.gates.len()).rev() {
            let g = self.gates[idx];
            if g.kind.is_sequential() || g.outputs().iter().any(|o| live[o.0 as usize]) {
                for &i in g.inputs() {
                    live[i.0 as usize] = true;
                }
            }
        }
        self.gates
            .retain(|g| g.kind.is_sequential() || g.outputs().iter().any(|o| live[o.0 as usize]));
        self
    }

    /// Mutable gate access for the defect constructors in
    /// [`crate::mutate`]; intentionally crate-private so the public IR
    /// stays append-only through [`NetlistBuilder`].
    pub(crate) fn gates_mut(&mut self) -> &mut Vec<Gate> {
        &mut self.gates
    }

    pub(crate) fn outputs_mut(&mut self) -> &mut Vec<Port> {
        &mut self.outputs
    }

    pub(crate) fn bump_num_nets(&mut self) {
        self.num_nets += 1;
    }

    /// Assembles a netlist from raw parts without validation — used
    /// by the arena compactor, whose inputs may deliberately hold
    /// lint defects that `validate` would reject.
    pub(crate) fn from_parts(
        name: String,
        num_nets: u32,
        inputs: Vec<Port>,
        outputs: Vec<Port>,
        gates: Vec<Gate>,
    ) -> Netlist {
        Netlist { name, num_nets, inputs, outputs, gates }
    }

    /// Checks structural sanity: single driver per net, inputs defined
    /// before use, ports reference existing nets. Returns the first
    /// problem found as a human-readable message.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nets as usize;
        // 0 = undefined, 1 = defined (combinationally available).
        let mut defined = vec![false; n];
        defined[0] = true;
        defined[1] = true;
        for p in &self.inputs {
            for &b in &p.bits {
                if b.0 as usize >= n {
                    return Err(format!("input {} references net {} ≥ {}", p.name, b.0, n));
                }
                if defined[b.0 as usize] {
                    return Err(format!("net {} multiply driven (input {})", b.0, p.name));
                }
                defined[b.0 as usize] = true;
            }
        }
        // Flip-flop outputs are timing startpoints: pre-define them.
        for g in &self.gates {
            if g.kind.is_sequential() {
                for &o in g.outputs() {
                    if defined[o.0 as usize] {
                        return Err(format!("net {} multiply driven (dff q)", o.0));
                    }
                    defined[o.0 as usize] = true;
                }
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if !g.kind.is_sequential() {
                for &inp in g.inputs() {
                    if !defined[inp.0 as usize] {
                        return Err(format!(
                            "gate {i} ({:?}) reads undefined net {}",
                            g.kind, inp.0
                        ));
                    }
                }
                for &o in g.outputs() {
                    if defined[o.0 as usize] {
                        return Err(format!("net {} multiply driven (gate {i})", o.0));
                    }
                    defined[o.0 as usize] = true;
                }
            }
        }
        // Sequential D pins may read anything defined by the end.
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                for &inp in g.inputs() {
                    if !defined[inp.0 as usize] {
                        return Err(format!("dff {i} reads undefined net {}", inp.0));
                    }
                }
            }
        }
        for p in &self.outputs {
            for &b in &p.bits {
                if !defined[b.0 as usize] {
                    return Err(format!("output {} reads undefined net {}", p.name, b.0));
                }
            }
        }
        Ok(())
    }
}

/// Opaque reference to a placeholder flip-flop created by
/// [`NetlistBuilder::dff_uninit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DffHandle(usize);

/// Incremental netlist constructor with on-the-fly constant folding.
///
/// ```
/// use rlmul_rtl::{NetlistBuilder, CONST0};
///
/// let mut b = NetlistBuilder::new("toy");
/// let a = b.input("a", 1)[0];
/// let zero_and = b.and2(a, CONST0); // folded, no gate emitted
/// assert_eq!(zero_and, CONST0);
/// let y = b.xor2(a, a); // x ^ x = 0
/// b.output("y", &[y]);
/// let n = b.finish();
/// assert_eq!(n.gates().len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    num_nets: u32,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    gates: Vec<Gate>,
}

impl NetlistBuilder {
    /// Starts a new module called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            num_nets: 2, // constants
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
        }
    }

    fn fresh(&mut self) -> NetId {
        let id = NetId(self.num_nets);
        self.num_nets += 1;
        id
    }

    /// Declares a `width`-bit primary input, returning its nets
    /// (LSB first).
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let bits: Vec<NetId> = (0..width).map(|_| self.fresh()).collect();
        self.inputs.push(Port { name: name.into(), bits: bits.clone() });
        bits
    }

    /// Declares a primary output driven by `bits` (LSB first).
    pub fn output(&mut self, name: impl Into<String>, bits: &[NetId]) {
        self.outputs.push(Port { name: name.into(), bits: bits.to_vec() });
    }

    fn emit1(&mut self, kind: GateKind, ins: [NetId; 3]) -> NetId {
        let y = self.fresh();
        self.gates.push(Gate {
            kind,
            ins: [ins[0], ins[1], ins[2], CONST0, CONST0],
            outs: [y, CONST0, CONST0],
        });
        y
    }

    fn emit2(&mut self, kind: GateKind, ins: [NetId; 3]) -> (NetId, NetId) {
        let s = self.fresh();
        let c = self.fresh();
        self.gates.push(Gate {
            kind,
            ins: [ins[0], ins[1], ins[2], CONST0, CONST0],
            outs: [s, c, CONST0],
        });
        (s, c)
    }

    /// `y = ¬a`, folding constants.
    pub fn inv(&mut self, a: NetId) -> NetId {
        match a {
            CONST0 => CONST1,
            CONST1 => CONST0,
            _ => self.emit1(GateKind::Inv, [a, CONST0, CONST0]),
        }
    }

    /// `y = a` through an explicit buffer (no folding: buffers are
    /// sometimes wanted for fanout isolation).
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.emit1(GateKind::Buf, [a, CONST0, CONST0])
    }

    /// `y = a & b`, folding constants and `a & a`.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, _) | (_, CONST0) => CONST0,
            (CONST1, x) | (x, CONST1) => x,
            (x, y) if x == y => x,
            _ => self.emit1(GateKind::And2, [a, b, CONST0]),
        }
    }

    /// `y = a | b`, folding constants and `a | a`.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST1, _) | (_, CONST1) => CONST1,
            (CONST0, x) | (x, CONST0) => x,
            (x, y) if x == y => x,
            _ => self.emit1(GateKind::Or2, [a, b, CONST0]),
        }
    }

    /// `y = ¬(a & b)`, folding constants.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, _) | (_, CONST0) => CONST1,
            (CONST1, x) | (x, CONST1) => self.inv(x),
            (x, y) if x == y => self.inv(x),
            _ => self.emit1(GateKind::Nand2, [a, b, CONST0]),
        }
    }

    /// `y = ¬(a | b)`, folding constants.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST1, _) | (_, CONST1) => CONST0,
            (CONST0, x) | (x, CONST0) => self.inv(x),
            (x, y) if x == y => self.inv(x),
            _ => self.emit1(GateKind::Nor2, [a, b, CONST0]),
        }
    }

    /// `y = a ⊕ b`, folding constants, `a ⊕ a` and `a ⊕ ¬a` patterns
    /// involving constants.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, x) | (x, CONST0) => x,
            (CONST1, x) | (x, CONST1) => self.inv(x),
            (x, y) if x == y => CONST0,
            _ => self.emit1(GateKind::Xor2, [a, b, CONST0]),
        }
    }

    /// `y = ¬(a ⊕ b)`, folding constants.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, x) | (x, CONST0) => self.inv(x),
            (CONST1, x) | (x, CONST1) => x,
            (x, y) if x == y => CONST1,
            _ => self.emit1(GateKind::Xnor2, [a, b, CONST0]),
        }
    }

    /// `y = s ? b : a`, folding constant selects and equal branches.
    pub fn mux2(&mut self, a: NetId, b: NetId, s: NetId) -> NetId {
        match (a, b, s) {
            (x, _, CONST0) => x,
            (_, x, CONST1) => x,
            (x, y, _) if x == y => x,
            (CONST0, CONST1, s) => s,
            (CONST1, CONST0, s) => self.inv(s),
            _ => self.emit1(GateKind::Mux2, [a, b, s]),
        }
    }

    /// Half adder `(sum, carry) = (a ⊕ b, a & b)`, folding constants.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        match (a, b) {
            (CONST0, x) | (x, CONST0) => (x, CONST0),
            (CONST1, x) | (x, CONST1) => (self.inv(x), x),
            (x, y) if x == y => (CONST0, x),
            _ => self.emit2(GateKind::HalfAdder, [a, b, CONST0]),
        }
    }

    /// Full adder `(sum, carry)`, folding any constant or duplicate
    /// input down to a half adder or simpler logic.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        // Normalize constants to the cin slot where possible.
        let (a, b, cin) = if a.is_const() {
            (cin, b, a)
        } else if b.is_const() {
            (a, cin, b)
        } else {
            (a, b, cin)
        };
        match cin {
            CONST0 => self.half_adder(a, b),
            CONST1 => {
                // sum = ¬(a ⊕ b), carry = a | b
                let s = self.xnor2(a, b);
                let c = self.or2(a, b);
                (s, c)
            }
            _ => {
                if a == b {
                    // a + a + cin = 2a + cin → sum = cin, carry = a.
                    return (cin, a);
                }
                if a == cin || b == cin {
                    let other = if a == cin { b } else { a };
                    return (other, cin);
                }
                self.emit2(GateKind::FullAdder, [a, b, cin])
            }
        }
    }

    /// 4:2 compressor `(sum, carry, cout)` over `[x1, x2, x3, x4]`
    /// plus a same-stage `cin`. Logically equivalent to two chained
    /// full adders; when any `x` input is constant the gate folds
    /// into that decomposition (which folds further).
    pub fn compressor42(&mut self, x: [NetId; 4], cin: NetId) -> (NetId, NetId, NetId) {
        if x.iter().any(|n| n.is_const()) {
            let (s1, cout) = self.full_adder(x[0], x[1], x[2]);
            let (sum, carry) = self.full_adder(s1, x[3], cin);
            return (sum, carry, cout);
        }
        let sum = self.fresh();
        let carry = self.fresh();
        let cout = self.fresh();
        self.gates.push(Gate {
            kind: GateKind::Compressor42,
            ins: [x[0], x[1], x[2], x[3], cin],
            outs: [sum, carry, cout],
        });
        (sum, carry, cout)
    }

    /// D flip-flop returning the registered value `q`.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.emit1(GateKind::Dff, [d, CONST0, CONST0])
    }

    /// Creates a flip-flop whose D pin is connected later with
    /// [`NetlistBuilder::drive_dff`] — needed when importing netlists
    /// whose register fan-in is defined after its consumers (e.g.
    /// Verilog `always` blocks at the end of a module). Until driven,
    /// D reads constant 0.
    pub fn dff_uninit(&mut self) -> (NetId, DffHandle) {
        let q = self.dff(CONST0);
        (q, DffHandle(self.gates.len() - 1))
    }

    /// Connects the D pin of a placeholder flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a flip-flop (handles
    /// only come from [`NetlistBuilder::dff_uninit`]).
    pub fn drive_dff(&mut self, handle: DffHandle, d: NetId) {
        let gate = &mut self.gates[handle.0];
        assert_eq!(gate.kind, GateKind::Dff, "handle must point at a flip-flop");
        gate.ins[0] = d;
    }

    /// Registers each bit of a bus.
    pub fn dff_bus(&mut self, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&b| self.dff(b)).collect()
    }

    /// Finalizes the netlist.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the constructed netlist fails
    /// [`Netlist::validate`] (a builder bug, not a user error).
    pub fn finish(self) -> Netlist {
        let n = Netlist {
            name: self.name,
            num_nets: self.num_nets,
            inputs: self.inputs,
            outputs: self.outputs,
            gates: self.gates,
        };
        debug_assert_eq!(n.validate(), Ok(()));
        n
    }

    /// Captures the builder's position so a later
    /// [`NetlistBuilder::rewind`] can discard everything emitted after
    /// this point. Net-id allocation replays identically from a
    /// rewound checkpoint, which is what lets incremental
    /// re-elaboration produce netlists *equal* (not merely
    /// isomorphic) to a from-scratch build.
    pub fn checkpoint(&self) -> BuilderCheckpoint {
        BuilderCheckpoint {
            num_nets: self.num_nets,
            num_gates: self.gates.len(),
            num_outputs: self.outputs.len(),
        }
    }

    /// Rewinds the builder to `ck`: gates and output ports emitted
    /// after the checkpoint are discarded and the net-id allocator is
    /// reset, so re-emitting the same construction sequence yields
    /// the same net ids. Input ports are never rewound (checkpoints
    /// are taken after input declaration).
    ///
    /// # Panics
    ///
    /// Panics if `ck` was taken from a builder state this builder has
    /// not reached (a stale or foreign checkpoint).
    pub fn rewind(&mut self, ck: &BuilderCheckpoint) {
        assert!(
            ck.num_gates <= self.gates.len()
                && ck.num_nets <= self.num_nets
                && ck.num_outputs <= self.outputs.len(),
            "rewind target is ahead of the builder"
        );
        self.gates.truncate(ck.num_gates);
        self.outputs.truncate(ck.num_outputs);
        self.num_nets = ck.num_nets;
    }

    /// The swept image of the current builder state (as
    /// `finish().sweep()` would give, without consuming the builder),
    /// ready for later [`NetlistBuilder::sweep_suffix_into`] calls.
    pub(crate) fn swept(&self, scratch: &mut SuffixSweep) -> Netlist {
        let mut out = Netlist {
            name: self.name.clone(),
            num_nets: 2,
            inputs: self.inputs.clone(),
            outputs: Vec::new(),
            gates: Vec::new(),
        };
        self.sweep_suffix_into(None, 0, &mut out, scratch)
            .expect("a sweep from the first gate always succeeds");
        out
    }

    /// Brings `out` — the swept image of this builder before it was
    /// rewound to `from` and replayed — up to date, in time
    /// proportional to the replayed gates. `swept` is the number of
    /// gates of `out` that come from builder gates before `from`;
    /// `None` sweeps from the first gate.
    ///
    /// Whether a gate before `from` is live depends on the later gates
    /// only through the set of earlier nets that live later gates and
    /// the output ports read. When the replay leaves that set as it
    /// was, the first `swept` gates of `out` stay and only the swept
    /// suffix is replaced; the result is the length of the gate prefix
    /// shared by the old and the new `out`. Otherwise `out` is left
    /// untouched and the result is `None`: the caller sweeps from the
    /// first gate instead, which always succeeds.
    ///
    /// Gates only read earlier nets (`drive_dff` aside, which the
    /// multiplier elaborators never use), so no gate before `from`
    /// reads a replayed net.
    pub(crate) fn sweep_suffix_into(
        &self,
        from: Option<&BuilderCheckpoint>,
        swept: usize,
        out: &mut Netlist,
        scratch: &mut SuffixSweep,
    ) -> Option<usize> {
        let (first, prefix_nets) = from.map_or((0, 0), |ck| (ck.num_gates, ck.num_nets));
        let suffix = &self.gates[first..];
        let nets = self.num_nets as usize;
        if scratch.marks.len() < nets {
            scratch.marks.resize(nets, 0);
        }
        scratch.first = first;
        scratch.swept = swept;
        // Liveness of the replayed gates, seeded by the output ports;
        // one reverse pass suffices since gates only read earlier nets.
        for p in &self.outputs {
            p.bits.iter().for_each(|&b| scratch.mark(b, prefix_nets, READ_NEW));
        }
        for g in suffix.iter().rev() {
            if scratch.is_live(g) {
                g.inputs().iter().for_each(|&i| scratch.mark(i, prefix_nets, READ_NEW));
            }
        }
        // What the old swept suffix and ports read before `from`.
        for g in &out.gates[swept..] {
            for &i in g.inputs().iter().filter(|i| i.0 < prefix_nets) {
                scratch.mark(i, prefix_nets, READ_OLD);
            }
        }
        for p in &out.outputs {
            for &b in p.bits.iter().filter(|b| b.0 < prefix_nets) {
                scratch.mark(b, prefix_nets, READ_OLD);
            }
        }
        let resumable =
            scratch.prefix_reads.iter().all(|n| scratch.marks[n.0 as usize] == READ_NEW | READ_OLD);

        // Write the swept suffix over the old one, noting where the two
        // first differ.
        let mut len = swept;
        let mut shared = None;
        scratch.kept.clear();
        scratch.kept.push(0);
        if resumable {
            for g in suffix {
                if scratch.is_live(g) {
                    if shared.is_none() && out.gates.get(len) != Some(g) {
                        shared = Some(len);
                    }
                    if len < out.gates.len() {
                        out.gates[len] = *g;
                    } else {
                        out.gates.push(*g);
                    }
                    len += 1;
                }
                scratch.kept.push((len - swept) as u32);
            }
        }
        for n in scratch.prefix_reads.drain(..) {
            scratch.marks[n.0 as usize] = 0;
        }
        scratch.marks[prefix_nets as usize..nets].fill(0);
        if !resumable {
            return None;
        }

        let shared = shared.unwrap_or(len);
        out.gates.truncate(len);
        clone_ports_from(&mut out.outputs, &self.outputs);
        out.num_nets = self.num_nets;
        Some(shared)
    }
}

/// Per-net read marks of [`NetlistBuilder::sweep_suffix_into`]: read by
/// a live replayed gate or a current output port, and read by the old
/// swept suffix or an old output port.
const READ_NEW: u8 = 1;
const READ_OLD: u8 = 2;

/// Buffers of [`NetlistBuilder::sweep_suffix_into`], kept across calls
/// so a sweep allocates nothing in the steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct SuffixSweep {
    /// Per-net read marks; all zero between calls.
    marks: Vec<u8>,
    /// Marked nets from before the resume point, each listed once.
    prefix_reads: Vec<NetId>,
    /// `kept[k]`: live gates among builder gates `first..first + k`.
    kept: Vec<u32>,
    first: usize,
    swept: usize,
}

impl SuffixSweep {
    fn mark(&mut self, net: NetId, prefix_nets: u32, bit: u8) {
        if net.is_const() {
            return;
        }
        let m = &mut self.marks[net.0 as usize];
        if *m == 0 && net.0 < prefix_nets {
            self.prefix_reads.push(net);
        }
        *m |= bit;
    }

    fn is_live(&self, g: &Gate) -> bool {
        g.kind.is_sequential()
            || g.outputs().iter().any(|o| self.marks[o.0 as usize] & READ_NEW != 0)
    }

    /// Position in the swept image of the builder gate at `ck`, for a
    /// checkpoint at or after the last successful sweep's resume point.
    pub(crate) fn swept_before(&self, ck: &BuilderCheckpoint) -> usize {
        self.swept + self.kept[ck.num_gates - self.first] as usize
    }
}

/// Opaque resume point inside a [`NetlistBuilder`]; see
/// [`NetlistBuilder::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuilderCheckpoint {
    num_nets: u32,
    num_gates: usize,
    num_outputs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_elides_gates() {
        let mut b = NetlistBuilder::new("fold");
        let x = b.input("x", 1)[0];
        assert_eq!(b.and2(x, CONST1), x);
        assert_eq!(b.or2(x, CONST1), CONST1);
        assert_eq!(b.xor2(x, x), CONST0);
        assert_eq!(b.mux2(x, x, CONST0), x);
        let (s, c) = b.half_adder(x, CONST0);
        assert_eq!((s, c), (x, CONST0));
        let n = b.finish();
        assert_eq!(n.gates().len(), 0);
    }

    #[test]
    fn full_adder_with_constant_carry_reduces() {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input("x", 1)[0];
        let y = b.input("y", 1)[0];
        let (_, _) = b.full_adder(x, y, CONST0);
        let n = b.finish();
        assert_eq!(n.stats().count("HA"), 1);
        assert_eq!(n.stats().count("FA"), 0);
    }

    #[test]
    fn full_adder_constant_in_any_slot() {
        let mut b = NetlistBuilder::new("fa2");
        let x = b.input("x", 1)[0];
        let y = b.input("y", 1)[0];
        let (s, c) = b.full_adder(CONST1, x, y);
        // 1 + x + y: sum = ¬(x⊕y), carry = x|y
        let n_gates = b.gates.len();
        assert!(n_gates == 2);
        assert!(!s.is_const() && !c.is_const());
    }

    #[test]
    fn validate_catches_multiple_drivers() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.input("x", 1)[0];
        let y = b.inv(x);
        b.output("y", &[y]);
        let mut n = b.finish();
        // Corrupt: second gate driving the same net.
        let g = n.gates[0];
        n.gates.push(g);
        assert!(n.validate().is_err());
    }

    #[test]
    fn dff_breaks_combinational_order() {
        let mut b = NetlistBuilder::new("seq");
        let x = b.input("x", 1)[0];
        let q = b.dff(x);
        let y = b.xor2(q, x);
        b.output("y", &[y]);
        let n = b.finish();
        assert!(n.is_sequential());
        n.validate().unwrap();
    }

    #[test]
    fn compressor42_folds_on_constant_inputs() {
        let mut b = NetlistBuilder::new("c42");
        let x = b.input("x", 4);
        // One constant x input downgrades to the two-FA decomposition.
        let (s, c, co) = b.compressor42([x[0], x[1], CONST0, x[2]], x[3]);
        assert!(!s.is_const() && !c.is_const());
        let n = b.finish();
        assert_eq!(n.stats().count("COMP42"), 0);
        assert!(n.stats().count("FA") + n.stats().count("HA") >= 1);
        let _ = co;
    }

    #[test]
    fn drive_dff_connects_late_fanin() {
        let mut b = NetlistBuilder::new("late");
        let x = b.input("x", 1);
        let (q, handle) = b.dff_uninit();
        let y = b.xor2(q, x[0]);
        b.drive_dff(handle, y);
        b.output("y", &[y]);
        let n = b.finish();
        n.validate().unwrap();
        // The DFF's D pin is the XOR output, creating the feedback loop
        // y = q ^ x, q' = y — legal sequentially.
        let dff = n.gates().iter().find(|g| g.kind == GateKind::Dff).unwrap();
        assert_eq!(dff.ins[0], y);
    }

    #[test]
    fn stats_count_by_kind() {
        let mut b = NetlistBuilder::new("stats");
        let x = b.input("x", 2);
        let a = b.and2(x[0], x[1]);
        let o = b.or2(x[0], x[1]);
        let (s, c) = b.full_adder(x[0], x[1], a);
        b.output("y", &[o, s, c]);
        let n = b.finish();
        assert_eq!(n.stats().count("AND2"), 1);
        assert_eq!(n.stats().count("OR2"), 1);
        assert_eq!(n.stats().count("FA"), 1);
        assert_eq!(n.stats().total(), 3);
    }

    /// Prefix `x = a0 & a1`, then a suffix whose output reads `x` or
    /// not — so a replay can revive or kill a prefix gate.
    fn emit_suffix(b: &mut NetlistBuilder, x: NetId, a: &[NetId], reads_x: bool) {
        let y = if reads_x { b.xor2(x, a[2]) } else { b.xor2(a[1], a[2]) };
        let z = b.or2(y, a[0]);
        b.output("y", &[y, z]);
    }

    fn reference(reads_x: bool) -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 3);
        let x = b.and2(a[0], a[1]);
        emit_suffix(&mut b, x, &a, reads_x);
        b.finish().sweep()
    }

    #[test]
    fn suffix_sweep_matches_full_sweep_and_falls_back_on_liveness_changes() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 3);
        let x = b.and2(a[0], a[1]);
        let ck = b.checkpoint();
        emit_suffix(&mut b, x, &a, true);
        let mut scratch = SuffixSweep::default();
        let mut out = b.swept(&mut scratch);
        assert_eq!(out, reference(true));

        // (reads x before, reads x after, prefix liveness unchanged)
        for (before, after, resumes) in
            [(true, true, true), (true, false, false), (false, false, true), (false, true, false)]
        {
            let swept = scratch.swept_before(&ck);
            assert_eq!(swept, usize::from(before));
            b.rewind(&ck);
            emit_suffix(&mut b, x, &a, after);
            let old = out.clone();
            let shared = match b.sweep_suffix_into(Some(&ck), swept, &mut out, &mut scratch) {
                Some(shared) => {
                    assert!(resumes, "{before} -> {after}: prefix liveness changed");
                    shared
                }
                None => {
                    assert!(!resumes, "{before} -> {after}: prefix liveness kept");
                    assert_eq!(out, old, "a refused sweep leaves the netlist alone");
                    b.sweep_suffix_into(None, 0, &mut out, &mut scratch).unwrap()
                }
            };
            assert_eq!(out, reference(after), "{before} -> {after}");
            assert_eq!(shared, shared_gate_prefix(old.gates(), out.gates()));
        }
    }
}
