//! Formal-verification acceptance tests: SAT-based CEC against the
//! golden Dadda reference, seeded refutations confirmed by the
//! 64-lane simulator, and the structural lint gate.
//!
//! The 16×16 proofs are release-only (`cargo test --release --test
//! formal -- --include-ignored`, which is what the CI
//! formal-verification job runs); everything else also runs in the
//! tier-1 debug suite.

use rlmul::ct::{CompressorTree, PpgKind};
use rlmul::lec::{check_formal, FormalReport, LecError};
use rlmul::rtl::{lint, mutate, GateKind, MultiplierNetlist, Netlist};

fn elaborate(tree: &CompressorTree) -> Netlist {
    MultiplierNetlist::elaborate(tree).unwrap().into_netlist()
}

fn assert_proved(r: &FormalReport, what: &str) {
    assert!(r.equivalent, "{what} must prove equivalent: {:?}", r.counterexample);
    assert!(r.counterexample.is_none());
}

/// Applies `n` legal actions to a tree, returning the legalized
/// post-action structure the RL environment would synthesize.
fn post_action(tree: &CompressorTree, n: usize) -> CompressorTree {
    let mut t = tree.clone();
    for i in 0..n {
        let actions = t.valid_actions();
        let Some(&a) = actions.get(i % actions.len().max(1)) else { break };
        t = t.apply_action(a).unwrap();
    }
    assert!(t.is_legal());
    t
}

#[test]
fn formal_8x8_and_ppg_proves_dadda_wallace_and_post_action() {
    let kind = PpgKind::And;
    let dadda = CompressorTree::dadda(8, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&dadda), 8, kind).unwrap(), "8x8 AND dadda");
    let wallace = CompressorTree::wallace(8, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&wallace), 8, kind).unwrap(), "8x8 AND wallace");
    let acted = post_action(&dadda, 3);
    assert_proved(&check_formal(&elaborate(&acted), 8, kind).unwrap(), "8x8 AND post-action");
}

#[test]
fn formal_8x8_booth_ppg_proves_dadda_wallace_and_post_action() {
    let kind = PpgKind::Mbe;
    let dadda = CompressorTree::dadda(8, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&dadda), 8, kind).unwrap(), "8x8 MBE dadda");
    let wallace = CompressorTree::wallace(8, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&wallace), 8, kind).unwrap(), "8x8 MBE wallace");
    let acted = post_action(&wallace, 3);
    assert_proved(&check_formal(&elaborate(&acted), 8, kind).unwrap(), "8x8 MBE post-action");
}

#[test]
fn formal_mac_designs_prove() {
    for kind in [PpgKind::MacAnd, PpgKind::MacMbe] {
        let wallace = CompressorTree::wallace(8, kind).unwrap();
        let r = check_formal(&elaborate(&wallace), 8, kind).unwrap();
        assert_proved(&r, "8x8 MAC wallace");
    }
}

/// 16×16, AND PPG: Dadda init plus a legalized post-action tree —
/// release-only (CDCL on the 16-bit miter is too slow unoptimized).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 16x16 CDCL proof")]
fn formal_16x16_and_ppg_proves() {
    let kind = PpgKind::And;
    let dadda = CompressorTree::dadda(16, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&dadda), 16, kind).unwrap(), "16x16 AND dadda");
    let acted = post_action(&dadda, 4);
    assert_proved(&check_formal(&elaborate(&acted), 16, kind).unwrap(), "16x16 AND post-action");
    let wallace = CompressorTree::wallace(16, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&wallace), 16, kind).unwrap(), "16x16 AND wallace");
}

/// 16×16, Booth PPG: Dadda init plus a legalized post-action tree.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 16x16 CDCL proof")]
fn formal_16x16_booth_ppg_proves() {
    let kind = PpgKind::Mbe;
    let dadda = CompressorTree::dadda(16, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&dadda), 16, kind).unwrap(), "16x16 MBE dadda");
    let acted = post_action(&dadda, 4);
    assert_proved(&check_formal(&elaborate(&acted), 16, kind).unwrap(), "16x16 MBE post-action");
    let wallace = CompressorTree::wallace(16, kind).unwrap();
    assert_proved(&check_formal(&elaborate(&wallace), 16, kind).unwrap(), "16x16 MBE wallace");
}

/// Every seeded functional mutation must be refuted with a
/// counterexample the 64-lane simulator confirms.
#[test]
fn seeded_mutations_are_refuted_with_confirmed_counterexamples() {
    let kind = PpgKind::And;
    let good = elaborate(&CompressorTree::dadda(8, kind).unwrap());

    let xor = mutate::find_gate(&good, GateKind::Xor2)
        .or_else(|| mutate::find_gate(&good, GateKind::FullAdder))
        .expect("multiplier has xor/fa gates");
    let flipped = mutate::flip_gate_kind(&good, xor)
        .unwrap_or_else(|| mutate::swap_gate_inputs(&good, xor, 0, 1));

    // Cross a compressor input with a primary-input net: a PI has no
    // driving gate, so the mutation can never form a loop — it always
    // reaches the SAT checker rather than the lint gate.
    let crossed = {
        let target = mutate::find_gate(&good, GateKind::FullAdder).expect("fa present");
        let pi = good.inputs()[0].bits[0];
        assert_ne!(good.gates()[target].inputs()[0], pi);
        mutate::replace_gate_input(&good, target, 0, pi)
    };

    let dropped = mutate::drop_carry_wire(&good).expect("multiplier has carries");

    for (label, bad) in [
        ("flipped gate", &flipped),
        ("crossed compressor input", &crossed),
        ("dropped carry", &dropped),
    ] {
        let r = check_formal(bad, 8, kind).unwrap();
        if r.equivalent {
            // A mutation can coincidentally preserve the function
            // (e.g. crossing a wire with an equal net); that is a
            // test-harness artifact, not a checker failure — but the
            // canonical three mutations below must never hit it.
            panic!("{label}: mutation unexpectedly preserved function");
        }
        let cex = r.counterexample.expect("refutation carries a counterexample");
        assert!(cex.confirmed, "{label}: simulator must confirm the SAT model: {cex:?}");
        assert!(!cex.outputs.is_empty(), "{label}: {cex:?}");
    }
}

/// Booth-encoded refutation: mutate the Booth selector logic.
#[test]
fn booth_mutation_is_refuted() {
    let kind = PpgKind::Mbe;
    let good = elaborate(&CompressorTree::dadda(8, kind).unwrap());
    // The MBE selector logic is And/Xor gates; XOR → XNOR inverts a
    // partial-product bit, which must surface at the outputs.
    let xor = mutate::find_gate(&good, GateKind::Xor2).expect("booth ppg has xor selector logic");
    let bad = mutate::flip_gate_kind(&good, xor).unwrap();
    let r = check_formal(&bad, 8, kind).unwrap();
    assert!(!r.equivalent, "selector swap must change the function");
    assert!(r.counterexample.unwrap().confirmed);
}

/// The lint gate inside the CEC rejects structurally broken inputs
/// instead of encoding garbage.
#[test]
fn structurally_broken_netlists_are_rejected_before_encoding() {
    let good = elaborate(&CompressorTree::dadda(8, PpgKind::And).unwrap());
    let bad = mutate::introduce_loop(&good, 5);
    match check_formal(&bad, 8, PpgKind::And) {
        Err(LecError::LintFailed { side: "left", summary }) => {
            assert!(summary.contains("combinational-loop"), "{summary}");
        }
        other => panic!("expected LintFailed, got {other:?}"),
    }
}

/// The lint catalogue flags each of the five seeded structural
/// defects (multi-driver, floating net, dangling output,
/// combinational loop, width mismatch) under the expected rule, each
/// with strictly more findings than the clean baseline.
#[test]
fn lint_flags_all_five_seeded_structural_defects() {
    use rlmul::rtl::LintRule;
    let good = elaborate(&CompressorTree::dadda(8, PpgKind::And).unwrap());
    let fa = mutate::find_gate(&good, GateKind::FullAdder).expect("fa present");
    let cases: [(LintRule, Netlist); 5] = [
        (LintRule::MultiDriven, mutate::duplicate_gate(&good, fa)),
        (LintRule::UndrivenNet, mutate::float_gate_input(&good, fa, 1)),
        // Grounding a consumer pin leaves the carry net driving
        // nothing: one more dangling output than the baseline's
        // discarded top-column carries.
        (LintRule::DanglingOutput, mutate::drop_carry_wire(&good).expect("has carries")),
        (LintRule::CombinationalLoop, mutate::introduce_loop(&good, fa)),
        (LintRule::PortWidth, mutate::corrupt_port_net(&good, 0, 0)),
    ];
    let baseline = lint(&good);
    for (rule, bad) in &cases {
        let report = lint(bad);
        assert!(
            report.count(*rule) > baseline.count(*rule),
            "seeded {rule} defect not flagged:\n{}",
            report.render()
        );
    }
}

/// Every netlist the RL environment can elaborate lints clean (the
/// debug-build gate in `MulEnv` asserts this on every synthesis).
#[test]
fn all_elaborated_structures_lint_clean() {
    for bits in [4usize, 8] {
        for kind in [PpgKind::And, PpgKind::Mbe, PpgKind::MacAnd, PpgKind::MacMbe] {
            for dadda in [false, true] {
                let tree = if dadda {
                    CompressorTree::dadda(bits, kind).unwrap()
                } else {
                    CompressorTree::wallace(bits, kind).unwrap()
                };
                let report = lint(&elaborate(&tree));
                assert_eq!(report.errors(), 0, "{bits}b {kind} dadda={dadda}: {}", report.render());
            }
        }
    }
}

/// Release-only spot-check of the incremental pipeline's arena view:
/// walk a few random actions through `IncrementalMultiplier` and
/// SAT-prove the arena mirror it builds of the replayed netlist
/// equivalent to a from-scratch golden Dadda elaboration, straight
/// from the slot representation.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: CDCL proof over arena walks")]
fn incremental_arena_walks_prove_equivalent() {
    use rlmul::lec::prove_arena_equiv;
    use rlmul::rtl::IncrementalMultiplier;

    let mut seed = 0x9e3779b97f4a7c15u64;
    for kind in [PpgKind::And, PpgKind::Mbe] {
        let golden = elaborate(&CompressorTree::dadda(8, kind).unwrap());
        let mut cur = CompressorTree::wallace(8, kind).unwrap();
        let mut inc = IncrementalMultiplier::new(&cur).unwrap();
        for step in 0..3 {
            let actions = cur.valid_actions();
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cur = cur.apply_action(actions[(seed >> 33) as usize % actions.len()]).unwrap();
            inc.retarget(&cur).unwrap();
            assert!(
                prove_arena_equiv(inc.arena(), &golden).unwrap(),
                "{kind} walk step {step}: arena mirror must stay equivalent to golden Dadda"
            );
        }
    }
}
