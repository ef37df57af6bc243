//! Pins the exact bits of every [`SynthesisReport`] field over seeded
//! design walks, through both the incremental session
//! ([`IncrementalSynthesis::run_many`]) and the stateless engine
//! ([`Synthesizer::run_many`]).
//!
//! The sizing, timing and power kernels promise bit-identical results
//! across optimizations: same arc arithmetic, same load sums in the
//! same sink order, same visit order. Release builds compile out the
//! debug oracles that compare the incremental and full paths, so this
//! hash is what guards the fast path there. A change in the hash means
//! some output bit or work counter moved — a behaviour change, not
//! noise.

use proptest::prelude::*;
use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_rtl::{IncrementalMultiplier, NetId, Netlist};
use rlmul_synth::{
    Drive, IncrementalSynthesis, Library, MappedNetlist, StaStats, SynthesisOptions,
    SynthesisReport, Synthesizer,
};

/// FNV-1a (64-bit) over little-endian words.
fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hash_sta(h: u64, s: &StaStats) -> u64 {
    fnv(
        h,
        &[
            s.full_passes as u64,
            s.incremental_passes as u64,
            s.full_gate_visits as u64,
            s.incremental_gate_visits as u64,
        ],
    )
}

/// Every field of `r`, floats by their IEEE bit patterns.
fn hash_report(h: u64, r: &SynthesisReport) -> u64 {
    let h = fnv(
        h,
        &[
            r.area_um2.to_bits(),
            r.delay_ns.to_bits(),
            r.power_mw.to_bits(),
            r.target_delay_ns.map_or(u64::MAX, f64::to_bits),
            u64::from(r.met_target),
            r.drive_histogram[0] as u64,
            r.drive_histogram[1] as u64,
            r.drive_histogram[2] as u64,
            r.sizing_moves as u64,
            r.num_cells as u64,
        ],
    );
    hash_sta(h, &r.sta)
}

/// Option sets for one step: the environment's shape (min-area plus
/// four targets with one move budget, sharing a sizing trajectory)
/// on even steps, and targets with mixed move budgets on odd ones.
fn options_for(step: usize, anchor_ns: f64) -> Vec<SynthesisOptions> {
    let targeted = |m: f64, budget: usize| SynthesisOptions {
        target_delay_ns: Some(m * anchor_ns),
        max_upsizes: budget,
    };
    if step.is_multiple_of(2) {
        let mut o = vec![SynthesisOptions::default()];
        o.extend([0.7, 0.85, 1.0, 1.15].map(|m| targeted(m, 800)));
        o
    } else {
        vec![targeted(0.8, 40), targeted(0.9, 800), targeted(1.0, 40), targeted(0.75, 800)]
    }
}

/// Hash of both engines' reports over a seeded accept/reject walk of
/// `steps` proposals from the Wallace tree of `bits`/`kind`.
fn walk_hash(bits: usize, kind: PpgKind, steps: usize, seed: u64) -> u64 {
    let mut tree = CompressorTree::wallace(bits, kind).expect("legal width");
    let mut mul = IncrementalMultiplier::new(&tree).expect("elaborates");
    let full = Synthesizer::nangate45();
    let mut session = IncrementalSynthesis::nangate45();
    let anchor = full.run(mul.netlist(), &SynthesisOptions::default()).expect("anchor").delay_ns;
    let mut rng = seed;
    let mut next = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..steps {
        let options = options_for(step, anchor);
        for r in session.run_many(mul.netlist(), &options).expect("incremental") {
            h = hash_report(h, &r);
        }
        for r in full.run_many(mul.netlist(), &options).expect("full") {
            h = hash_report(h, &r);
        }
        // Propose a move; keep about half, like an annealer, so the
        // session sees both forward edits and reverts.
        let actions = tree.valid_actions();
        let proposal = tree.apply_action(actions[next() % actions.len()]).expect("legal");
        if next().is_multiple_of(2) {
            tree = proposal;
        }
        mul.retarget(&tree).expect("retargets");
    }
    h
}

#[test]
fn synthesis_reports_are_bit_pinned() {
    let h = fnv(walk_hash(16, PpgKind::Mbe, 12, 11), &[walk_hash(8, PpgKind::And, 20, 7)]);
    assert_eq!(h, 0x55cf_61c9_9525_6557, "synthesis report bits moved: hash is {h:#018x}");
}

/// `load_ff` recomputed from scratch: sink pin caps summed in sink
/// order, then wire and primary-output loads.
fn fresh_load(m: &MappedNetlist<'_>, netlist: &Netlist, net: NetId) -> f64 {
    let lib = m.library();
    let pos = netlist.outputs().iter().flat_map(|p| &p.bits).filter(|&&b| b == net).count();
    let sinks = m.sinks(net);
    let pin_caps: f64 = sinks.iter().map(|&(gi, _)| m.cell_of(gi as usize).input_cap_ff).sum();
    let fanout = sinks.len() as f64 + pos as f64;
    pin_caps + fanout * lib.wire_cap_per_fanout_ff + pos as f64 * lib.output_load_ff
}

proptest! {
    /// Cached net loads stay equal, bit for bit, to a fresh sum after
    /// any sequence of drive changes.
    #[test]
    fn cached_loads_match_fresh_sums(
        moves in prop::collection::vec((0usize..10_000, 0usize..3), 1..60),
    ) {
        let tree = CompressorTree::wallace(6, PpgKind::Mbe).expect("legal width");
        let mul = IncrementalMultiplier::new(&tree).expect("elaborates");
        let netlist = mul.netlist();
        let library = Library::nangate45();
        let mut m = MappedNetlist::map(netlist, &library);
        let gates = netlist.gates().len();
        for (pick, drive) in moves {
            m.set_drive(pick % gates, Drive::ALL[drive]);
        }
        for net in 2..netlist.num_nets() {
            let net = NetId(net);
            prop_assert_eq!(m.load_ff(net).to_bits(), fresh_load(&m, netlist, net).to_bits());
        }
    }
}
