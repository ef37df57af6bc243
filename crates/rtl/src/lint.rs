//! Structural netlist linting.
//!
//! [`lint`] runs a rule catalogue over the gate-level IR and returns a
//! [`LintReport`] with per-rule counters — the static-analysis gate
//! that every RL-generated design passes before it is allowed to
//! reach synthesis (and that imported Verilog passes after parsing).
//! Unlike [`Netlist::validate`], which stops at the first violation
//! and assumes construction order, the linter inspects the whole
//! netlist, classifies every finding and distinguishes true
//! combinational cycles (Tarjan SCC over the gate graph) from mere
//! ordering violations.
//!
//! Severities split in two: **errors** are designs that must not be
//! simulated or synthesized (multiple drivers, floating nets,
//! combinational loops, malformed ports); **warnings** are legal but
//! suspicious structure (dangling gate outputs, which arise naturally
//! from discarded top-column carries in modular arithmetic).

use crate::arena::{ArenaNetlist, NetlistDelta};
use crate::conn::Connected;
use crate::netlist::{Gate, NetId, Netlist, Port, CONST0, CONST1};
use std::collections::BTreeMap;
use std::fmt;

/// One rule of the lint catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// A net with more than one driver (gate outputs, input-port bits
    /// and the two constant nets all count as drivers).
    MultiDriven,
    /// A net that is read (by a gate or an output port) but driven by
    /// nothing.
    UndrivenNet,
    /// A gate output pin whose net is read by nothing — dead logic or
    /// a discarded carry.
    DanglingOutput,
    /// A cycle through combinational gates (flip-flops break cycles).
    CombinationalLoop,
    /// A malformed port: zero width or a bit referencing a
    /// non-existent net.
    PortWidth,
    /// Two ports sharing one name, or a user port colliding with the
    /// implicit `clk` of a sequential design.
    DuplicateName,
}

impl LintRule {
    /// Every rule, in reporting order.
    pub const ALL: [LintRule; 6] = [
        LintRule::MultiDriven,
        LintRule::UndrivenNet,
        LintRule::DanglingOutput,
        LintRule::CombinationalLoop,
        LintRule::PortWidth,
        LintRule::DuplicateName,
    ];

    /// Number of rules in the catalogue.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable short name used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::MultiDriven => "multi-driven",
            LintRule::UndrivenNet => "undriven-net",
            LintRule::DanglingOutput => "dangling-output",
            LintRule::CombinationalLoop => "combinational-loop",
            LintRule::PortWidth => "port-width",
            LintRule::DuplicateName => "duplicate-name",
        }
    }

    /// Whether a finding under this rule makes the netlist unusable.
    pub fn severity(self) -> Severity {
        match self {
            LintRule::DanglingOutput => Severity::Warning,
            _ => Severity::Error,
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&r| r == self).expect("rule is in ALL")
    }
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Legal but suspicious; synthesis may proceed.
    Warning,
    /// The netlist must not be simulated or synthesized.
    Error,
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintIssue {
    /// The violated rule.
    pub rule: LintRule,
    /// Human-readable description with net/gate/port specifics.
    pub message: String,
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}",
            match self.rule.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
            },
            self.rule,
            self.message
        )
    }
}

/// Outcome of linting one netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    issues: Vec<LintIssue>,
    counts: [usize; LintRule::COUNT],
}

impl LintReport {
    fn push(&mut self, rule: LintRule, message: String) {
        self.counts[rule.index()] += 1;
        self.issues.push(LintIssue { rule, message });
    }

    /// All findings, grouped by rule in catalogue order.
    pub fn issues(&self) -> &[LintIssue] {
        &self.issues
    }

    /// Findings under one rule.
    pub fn count(&self, rule: LintRule) -> usize {
        self.counts[rule.index()]
    }

    /// Total error-severity findings.
    pub fn errors(&self) -> usize {
        LintRule::ALL
            .iter()
            .filter(|r| r.severity() == Severity::Error)
            .map(|&r| self.count(r))
            .sum()
    }

    /// Total warning-severity findings.
    pub fn warnings(&self) -> usize {
        LintRule::ALL
            .iter()
            .filter(|r| r.severity() == Severity::Warning)
            .map(|&r| self.count(r))
            .sum()
    }

    /// Whether the netlist may proceed to simulation and synthesis
    /// (no error-severity findings; warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// One-line summary, e.g. `clean (2 warnings)` or
    /// `3 errors: 2 multi-driven, 1 undriven-net`.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            match self.warnings() {
                0 => "clean".to_owned(),
                w => format!("clean ({w} warning{})", if w == 1 { "" } else { "s" }),
            }
        } else {
            let detail: Vec<String> = LintRule::ALL
                .iter()
                .filter(|&&r| self.count(r) > 0)
                .map(|&r| format!("{} {}", self.count(r), r))
                .collect();
            format!("{} errors: {}", self.errors(), detail.join(", "))
        }
    }

    /// Full multi-line rendering of every finding.
    pub fn render(&self) -> String {
        let mut s = self.summary();
        for issue in &self.issues {
            s.push('\n');
            s.push_str(&issue.to_string());
        }
        s
    }
}

/// Aggregated lint counters for the evaluation pipeline's stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Netlists linted.
    pub checks: usize,
    /// Total error-severity findings over all checks.
    pub errors: usize,
    /// Total warning-severity findings over all checks.
    pub warnings: usize,
    /// Findings per rule, indexed in [`LintRule::ALL`] order.
    pub by_rule: [usize; LintRule::COUNT],
}

impl LintStats {
    /// Folds one report into the counters.
    pub fn record(&mut self, report: &LintReport) {
        self.checks += 1;
        self.errors += report.errors();
        self.warnings += report.warnings();
        for (acc, &n) in self.by_rule.iter_mut().zip(&report.counts) {
            *acc += n;
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: LintStats) {
        self.checks += other.checks;
        self.errors += other.errors;
        self.warnings += other.warnings;
        for (acc, n) in self.by_rule.iter_mut().zip(other.by_rule) {
            *acc += n;
        }
    }

    /// Deterministic one-line rendering for pipeline stats, with
    /// per-rule counters when anything fired.
    pub fn render(&self) -> String {
        if self.errors == 0 && self.warnings == 0 {
            return format!("lint {} checks clean", self.checks);
        }
        let detail: Vec<String> = LintRule::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.by_rule[i] > 0)
            .map(|(i, r)| format!("{} {}", self.by_rule[i], r))
            .collect();
        format!("lint {} checks: {}", self.checks, detail.join(", "))
    }
}

/// Runs the full rule catalogue over `netlist`.
///
/// The pass is linear in gates + nets except for cycle detection,
/// which is a single iterative Tarjan SCC traversal of the
/// combinational gate graph.
pub fn lint(netlist: &Netlist) -> LintReport {
    let mut report = LintReport::default();
    let n = netlist.num_nets() as usize;
    let in_range = |net: NetId| (net.0 as usize) < n;

    port_rules(netlist.inputs(), netlist.outputs(), n, || netlist.is_sequential(), &mut report);
    // Out-of-range gate pins are counted under PortWidth's malformed-
    // reference umbrella and excluded from the driver analysis below.
    for (i, g) in netlist.gates().iter().enumerate() {
        pin_rule(i, g, n, &mut report);
    }

    // --- Driver / reader analysis ----------------------------------------
    let mut drivers = vec![0usize; n];
    let mut readers = vec![0usize; n];
    // The two constants are implicitly driven.
    drivers[CONST0.0 as usize] = 1;
    drivers[CONST1.0 as usize] = 1;
    // Driving gate index per net (for the cycle graph).
    let mut driver_gate = vec![usize::MAX; n];
    for p in netlist.inputs() {
        for &b in &p.bits {
            if in_range(b) {
                drivers[b.0 as usize] += 1;
            }
        }
    }
    for (i, g) in netlist.gates().iter().enumerate() {
        for &o in g.outputs() {
            if in_range(o) {
                drivers[o.0 as usize] += 1;
                driver_gate[o.0 as usize] = i;
            }
        }
        for &inp in g.inputs() {
            if in_range(inp) {
                readers[inp.0 as usize] += 1;
            }
        }
    }
    for p in netlist.outputs() {
        for &b in &p.bits {
            if in_range(b) {
                readers[b.0 as usize] += 1;
            }
        }
    }
    for net in 0..n {
        if drivers[net] > 1 {
            report.push(LintRule::MultiDriven, format!("net {net} has {} drivers", drivers[net]));
        }
        if drivers[net] == 0 && readers[net] > 0 {
            report.push(
                LintRule::UndrivenNet,
                format!("net {net} is read {} times but never driven", readers[net]),
            );
        }
    }
    for (i, g) in netlist.gates().iter().enumerate() {
        for (pin, &o) in g.outputs().iter().enumerate() {
            if in_range(o) && !o.is_const() && readers[o.0 as usize] == 0 {
                report.push(
                    LintRule::DanglingOutput,
                    format!("gate {i} ({:?}) output pin {pin} (net {}) is never read", g.kind, o.0),
                );
            }
        }
    }

    // --- Combinational cycles (iterative Tarjan SCC) ----------------------
    for scc in combinational_sccs(netlist, &driver_gate) {
        loop_rule(&scc, &mut report);
    }

    // Deterministic ordering: catalogue order, then discovery order.
    report.issues.sort_by_key(|i| i.rule.index());
    let obs = rlmul_obs::global();
    if obs.is_enabled() {
        obs.counter("rlmul_lint_runs_total", "Structural lint passes over a netlist.").inc();
        let help = "Lint findings by severity.";
        obs.labeled_counter("rlmul_lint_findings_total", help, &[("severity", "error")])
            .add(report.errors() as u64);
        obs.labeled_counter("rlmul_lint_findings_total", help, &[("severity", "warning")])
            .add(report.warnings() as u64);
    }
    report
}

/// Port-shape rules over the two port lists of a design with `n` nets.
/// `is_sequential` is asked only when a port is named `clk`, so
/// combinational designs never pay its gate scan.
fn port_rules(
    inputs: &[Port],
    outputs: &[Port],
    n: usize,
    is_sequential: impl FnOnce() -> bool,
    report: &mut LintReport,
) {
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for (dir, ports) in [("input", inputs), ("output", outputs)] {
        for p in ports {
            *names.entry(p.name.as_str()).or_insert(0) += 1;
            if p.bits.is_empty() {
                report.push(LintRule::PortWidth, format!("{dir} port {} has width 0", p.name));
            }
            for (k, &b) in p.bits.iter().enumerate() {
                if b.0 as usize >= n {
                    report.push(
                        LintRule::PortWidth,
                        format!("{dir} port {}[{k}] references net {} ≥ {n}", p.name, b.0),
                    );
                }
            }
        }
    }
    for (name, count) in &names {
        if *count > 1 {
            report.push(
                LintRule::DuplicateName,
                format!("port name `{name}` declared {count} times"),
            );
        }
    }
    if names.contains_key("clk") && is_sequential() {
        report.push(
            LintRule::DuplicateName,
            "port `clk` collides with the implicit clock of a sequential design".to_owned(),
        );
    }
}

/// Flags every pin of gate `slot` naming a net at or above `n`.
fn pin_rule(slot: usize, g: &Gate, n: usize, report: &mut LintReport) {
    // Every pin slot in range, unused ones included, rules out a
    // finding without looking up the kind's pin counts.
    if g.ins.iter().chain(&g.outs).all(|pin| (pin.0 as usize) < n) {
        return;
    }
    for &pin in g.inputs().iter().chain(g.outputs()) {
        if pin.0 as usize >= n {
            report.push(
                LintRule::PortWidth,
                format!("gate {slot} ({:?}) references net {} ≥ {n}", g.kind, pin.0),
            );
        }
    }
}

/// Reports one combinational loop through the gates of `scc`.
fn loop_rule(scc: &[usize], report: &mut LintReport) {
    let preview: Vec<String> = scc.iter().take(8).map(|g| g.to_string()).collect();
    report.push(
        LintRule::CombinationalLoop,
        format!(
            "combinational loop through {} gate{}: {}{}",
            scc.len(),
            if scc.len() == 1 { "" } else { "s" },
            preview.join(" → "),
            if scc.len() > 8 { " → …" } else { "" }
        ),
    );
}

/// What [`lint_delta`] reads of an edited netlist: its ports, its
/// gates by slot, and per-net connectivity. [`ArenaNetlist`] provides
/// it for general graph surgery, [`Connected`] (a netlist with its
/// [`NetConn`](crate::NetConn)) for the incremental elaborator.
pub trait NetGraph {
    /// Total number of nets including the two constants.
    fn num_nets(&self) -> u32;
    /// Primary input ports.
    fn inputs(&self) -> &[Port];
    /// Primary output ports.
    fn outputs(&self) -> &[Port];
    /// Upper bound of the gate slots.
    fn num_slots(&self) -> usize;
    /// The gate in `slot`, if the slot holds one.
    fn gate(&self, slot: u32) -> Option<&Gate>;
    /// Whether any gate is sequential.
    fn is_sequential(&self) -> bool {
        (0..self.num_slots() as u32).filter_map(|s| self.gate(s)).any(|g| g.kind.is_sequential())
    }
    /// Gate output pins and input-port bits driving `net`.
    fn drivers(&self, net: NetId) -> usize;
    /// Slot of a gate driving `net`; exact when one gate drives it.
    fn driver_of(&self, net: NetId) -> Option<u32>;
    /// Gate sinks of `net` as `(slot, input pin)` pairs.
    fn sinks(&self, net: NetId) -> &[(u32, u8)];
    /// Number of output-port bits reading `net`.
    fn po_reads(&self, net: NetId) -> usize;
    /// Whether the structure alone proves the combinational graph
    /// acyclic, so that cycle search can be skipped.
    fn certifies_acyclic(&self) -> bool;
}

impl NetGraph for ArenaNetlist {
    fn num_nets(&self) -> u32 {
        self.num_nets()
    }
    fn inputs(&self) -> &[Port] {
        self.inputs()
    }
    fn outputs(&self) -> &[Port] {
        self.outputs()
    }
    fn num_slots(&self) -> usize {
        self.num_slots()
    }
    fn gate(&self, slot: u32) -> Option<&Gate> {
        self.gate(slot)
    }
    fn drivers(&self, net: NetId) -> usize {
        self.driver_count(net) + usize::from(self.is_primary_input(net))
    }
    fn driver_of(&self, net: NetId) -> Option<u32> {
        self.driver_of(net)
    }
    fn sinks(&self, net: NetId) -> &[(u32, u8)] {
        self.fanout_of(net)
    }
    fn po_reads(&self, net: NetId) -> usize {
        self.po_reads(net)
    }
    /// Every recorded combinational edge runs forward in slot order.
    fn certifies_acyclic(&self) -> bool {
        self.is_topo_ordered()
    }
}

impl NetGraph for Connected<'_> {
    fn num_nets(&self) -> u32 {
        self.netlist().num_nets()
    }
    fn inputs(&self) -> &[Port] {
        self.netlist().inputs()
    }
    fn outputs(&self) -> &[Port] {
        self.netlist().outputs()
    }
    fn num_slots(&self) -> usize {
        self.netlist().gates().len()
    }
    fn gate(&self, slot: u32) -> Option<&Gate> {
        self.netlist().gates().get(slot as usize)
    }
    fn drivers(&self, net: NetId) -> usize {
        self.conn().drivers(net)
    }
    fn driver_of(&self, net: NetId) -> Option<u32> {
        self.conn().driver_of(net)
    }
    fn sinks(&self, net: NetId) -> &[(u32, u8)] {
        self.conn().sinks(net)
    }
    fn po_reads(&self, net: NetId) -> usize {
        usize::from(self.conn().po_fanout(net))
    }
    /// Net ids rise along every combinational path.
    fn certifies_acyclic(&self) -> bool {
        self.conn().is_ordered()
    }
}

/// Incremental lint: re-checks only the region an edit touched.
///
/// Port-shape rules are always re-run (they are O(ports), trivially
/// cheap); everything else — driver multiplicity, undriven reads,
/// dangling outputs, pin ranges, combinational loops — is evaluated
/// only for `delta.touched_nets` and `delta.added` gates, using the
/// graph's per-net driver and sink tables instead of the O(circuit)
/// scan of [`lint`].
///
/// **Contract.** Starting from a netlist whose full lint is clean of
/// findings *outside* the delta region, `lint_delta` reports exactly
/// the findings a full pass over the edited netlist would attribute
/// to the touched nets and gates (messages use slot indices, which
/// coincide with netlist gate indices for a [`Connected`] netlist and
/// for an arena without free slots). Pre-existing findings in
/// untouched regions are *not* re-reported — that is the point. The
/// defect-factory tests in [`crate::mutate`] pin this equivalence for
/// the whole catalogue.
pub fn lint_delta(graph: &impl NetGraph, delta: &NetlistDelta) -> LintReport {
    let mut report = LintReport::default();
    let n = graph.num_nets() as usize;
    let in_range = |net: NetId| (net.0 as usize) < n;

    // --- Port shape rules (always re-run; O(ports)) -----------------------
    port_rules(graph.inputs(), graph.outputs(), n, || graph.is_sequential(), &mut report);

    // --- Pin ranges for the added gates only ------------------------------
    for &slot in &delta.added {
        if let Some(g) = graph.gate(slot) {
            pin_rule(slot as usize, g, n, &mut report);
        }
    }

    // --- Driver / reader analysis on the touched nets ---------------------
    for &net in &delta.touched_nets {
        if !in_range(net) || net.is_const() {
            continue;
        }
        let drivers = graph.drivers(net);
        let readers = graph.sinks(net).len() + graph.po_reads(net);
        if drivers > 1 {
            report.push(LintRule::MultiDriven, format!("net {} has {drivers} drivers", net.0));
        }
        if drivers == 0 && readers > 0 {
            report.push(
                LintRule::UndrivenNet,
                format!("net {} is read {readers} times but never driven", net.0),
            );
        }
        if readers == 0 && drivers == 1 {
            if let Some(slot) = graph.driver_of(net) {
                let g = graph.gate(slot).expect("driver table points at a live slot");
                let pin = g.outputs().iter().position(|&o| o == net).unwrap_or(0);
                report.push(
                    LintRule::DanglingOutput,
                    format!(
                        "gate {slot} ({:?}) output pin {pin} (net {}) is never read",
                        g.kind, net.0
                    ),
                );
            }
        }
    }

    // --- Cycles through the edited cone -----------------------------------
    // The graph certifies acyclicity in O(1) for the common edits —
    // suffix replays, whose every gate reads only nets below its
    // outputs — so the SCC search is skipped. Only an edit that breaks
    // the certificate pays for Tarjan: a cycle it created necessarily
    // passes through an edited gate or a sink of a touched net, so the
    // search seeded there finds it without walking the whole graph.
    if !graph.certifies_acyclic() {
        let mut seeds: Vec<usize> = delta.added.iter().map(|&s| s as usize).collect();
        for &net in delta.touched_nets.iter().filter(|&&net| in_range(net)) {
            seeds.extend(graph.sinks(net).iter().map(|&(s, _)| s as usize));
        }
        seeds.sort_unstable();
        seeds.dedup();
        let succ_of = |g: usize| -> Vec<usize> {
            let mut out = Vec::new();
            let Some(gate) = graph.gate(g as u32) else { return out };
            if gate.kind.is_sequential() {
                return out;
            }
            for &inp in gate.inputs() {
                if inp.is_const() || !in_range(inp) {
                    continue;
                }
                if let Some(d) = graph.driver_of(inp) {
                    let dg = graph.gate(d).expect("driver table points at a live slot");
                    if !dg.kind.is_sequential() {
                        out.push(d as usize);
                    }
                }
            }
            out
        };
        for scc in sccs_from(graph.num_slots(), seeds, succ_of) {
            loop_rule(&scc, &mut report);
        }
    }

    report.issues.sort_by_key(|i| i.rule.index());
    let obs = rlmul_obs::global();
    if obs.is_enabled() {
        obs.counter("rlmul_lint_delta_runs_total", "Incremental (delta) lint passes.").inc();
        let help = "Lint findings by severity.";
        obs.labeled_counter("rlmul_lint_findings_total", help, &[("severity", "error")])
            .add(report.errors() as u64);
        obs.labeled_counter("rlmul_lint_findings_total", help, &[("severity", "warning")])
            .add(report.warnings() as u64);
    }
    report
}

/// Strongly connected components of the combinational gate graph that
/// form true cycles (size ≥ 2, or a gate feeding itself). Flip-flops
/// are sequential boundaries and excluded. Iterative Tarjan, so deep
/// carry chains cannot overflow the stack.
fn combinational_sccs(netlist: &Netlist, driver_gate: &[usize]) -> Vec<Vec<usize>> {
    let gates = netlist.gates();
    let num = gates.len();
    let succ_of = |g: usize| -> Vec<usize> {
        // Edges run driver → reader; we traverse reader → driver
        // (direction is irrelevant for SCCs).
        let mut out = Vec::new();
        if gates[g].kind.is_sequential() {
            return out;
        }
        for &inp in gates[g].inputs() {
            if let Some(&d) = driver_gate.get(inp.0 as usize) {
                if d != usize::MAX && !gates[d].kind.is_sequential() {
                    out.push(d);
                }
            }
        }
        out
    };
    sccs_from(num, 0..num, succ_of)
}

/// Iterative Tarjan over an arbitrary gate graph, exploring only from
/// `starts`. With `starts = 0..num` this finds every cyclic SCC; with
/// a restricted seed set it finds every cyclic SCC reachable from a
/// seed — which is exactly the delta-lint contract (a cycle created
/// by an edit always passes through an edited gate).
fn sccs_from(
    num: usize,
    starts: impl IntoIterator<Item = usize>,
    succ_of: impl Fn(usize) -> Vec<usize>,
) -> Vec<Vec<usize>> {
    let mut index = vec![u32::MAX; num];
    let mut lowlink = vec![0u32; num];
    let mut on_stack = vec![false; num];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (gate, successor list, next successor).
    let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    for start in starts {
        if index[start] != u32::MAX {
            continue;
        }
        frames.push((start, succ_of(start), 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while !frames.is_empty() {
            let (v, next_succ) = {
                let frame = frames.last_mut().expect("non-empty");
                let v = frame.0;
                if frame.2 < frame.1.len() {
                    let w = frame.1[frame.2];
                    frame.2 += 1;
                    (v, Some(w))
                } else {
                    (v, None)
                }
            };
            match next_succ {
                Some(w) if index[w] == u32::MAX => {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, succ_of(w), 0));
                }
                Some(w) => {
                    if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                None => {
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop = scc.len() == 1 && succ_of(scc[0]).contains(&scc[0]);
                        if scc.len() > 1 || self_loop {
                            scc.sort_unstable();
                            sccs.push(scc);
                        }
                    }
                    frames.pop();
                    if let Some(parent) = frames.last() {
                        let p = parent.0;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }
    }
    sccs.sort_unstable();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn clean_netlist_passes() {
        let mut b = NetlistBuilder::new("clean");
        let x = b.input("x", 2);
        let y = b.xor2(x[0], x[1]);
        b.output("y", &[y]);
        let r = lint(&b.finish());
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.warnings(), 0);
    }

    #[test]
    fn dangling_output_is_a_warning_not_an_error() {
        let mut b = NetlistBuilder::new("dangle");
        let x = b.input("x", 2);
        let (s, _carry) = b.half_adder(x[0], x[1]); // carry never read
        b.output("s", &[s]);
        let r = lint(&b.finish());
        assert!(r.is_clean());
        assert_eq!(r.count(LintRule::DanglingOutput), 1);
        assert_eq!(r.warnings(), 1);
        assert!(r.summary().contains("1 warning"));
    }

    #[test]
    fn duplicate_port_names_are_flagged() {
        let mut b = NetlistBuilder::new("dup");
        let x = b.input("x", 1);
        b.output("x", &[x[0]]);
        let r = lint(&b.finish());
        assert_eq!(r.count(LintRule::DuplicateName), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn clk_collision_on_sequential_designs() {
        let mut b = NetlistBuilder::new("clkclash");
        let x = b.input("clk", 1);
        let q = b.dff(x[0]);
        b.output("q", &[q]);
        let r = lint(&b.finish());
        assert_eq!(r.count(LintRule::DuplicateName), 1);
    }

    #[test]
    fn stats_accumulate_per_rule() {
        let mut stats = LintStats::default();
        let mut b = NetlistBuilder::new("one");
        let x = b.input("x", 2);
        let (s, _c) = b.half_adder(x[0], x[1]);
        b.output("s", &[s]);
        let r = lint(&b.finish());
        stats.record(&r);
        stats.record(&r);
        assert_eq!(stats.checks, 2);
        assert_eq!(stats.warnings, 2);
        assert_eq!(stats.by_rule[2], 2); // dangling-output slot
        assert!(stats.render().contains("dangling-output"));
        let mut total = LintStats::default();
        total.merge(stats);
        assert_eq!(total.checks, 2);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let mut b = NetlistBuilder::new("r");
        let x = b.input("x", 1);
        b.output("x", &[x[0]]);
        let r = lint(&b.finish());
        assert_eq!(r.render(), r.render());
    }

    /// Every rule fires on its seeded defect through the table entry
    /// (a netlist with its [`crate::NetConn`]) with exactly the
    /// findings of the arena entry for the same edit.
    #[test]
    fn every_rule_fires_through_the_table_entry() {
        use crate::mutate::*;
        use crate::{ArenaNetlist, NetConn};
        let mut b = NetlistBuilder::new("adder3");
        let x = b.input("x", 3);
        let y = b.input("y", 3);
        let mut carry = CONST0;
        let mut sum = Vec::new();
        for k in 0..3 {
            let (s, c) = b.full_adder(x[k], y[k], carry);
            sum.push(s);
            carry = c;
        }
        sum.push(carry);
        b.output("s", &sum);
        let base = b.finish();
        type Injector = fn(&mut ArenaNetlist) -> NetlistDelta;
        let catalogue: &[Injector] = &[
            |a| inject_duplicate_gate(a, 1),
            |a| inject_float_input(a, 2, 0),
            |a| inject_loop(a, 1),
            |a| inject_cross_wire(a, 0, 1),
            |a| inject_clear_port(a, 0),
            |a| inject_corrupt_port_net(a, 0, 2),
            |a| inject_rename_port_to_clash(a, 0),
            |a| inject_drop_carry_wire(a).expect("ripple chain has carries"),
        ];
        let mut fired = [0; LintRule::COUNT];
        for inject in catalogue {
            let mut arena = ArenaNetlist::from_netlist(&base);
            let delta = inject(&mut arena);
            let netlist = arena.to_netlist();
            let conn = NetConn::build(&netlist);
            let table = lint_delta(&Connected::new(&netlist, &conn), &delta);
            assert_eq!(table, lint_delta(&arena, &delta), "{}", table.render());
            for rule in LintRule::ALL {
                fired[rule.index()] += table.count(rule);
            }
        }
        for rule in LintRule::ALL {
            assert!(fired[rule.index()] > 0, "{rule} never fired through the table entry");
        }
    }
}
