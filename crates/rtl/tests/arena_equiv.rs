//! Property tests for the incremental elaboration pipeline: random
//! action sequences applied through [`IncrementalMultiplier`] must
//! leave the elaboration *equal* (not just isomorphic) to a
//! from-scratch [`MultiplierNetlist`] build, with its connectivity
//! table and delta in sync, the on-request arena mirror equal, and the
//! delta lint clean.
//!
//! These run in release CI too (the incremental-equivalence job),
//! where the debug oracles inside `retarget` are compiled out — so the
//! assertions here are the ones actually guarding the fast path.

use proptest::prelude::*;
use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_rtl::{
    lint, lint_delta, ArenaNetlist, IncrementalMultiplier, MultiplierNetlist, NetId, Netlist,
};
use std::collections::BTreeMap;

/// Per-kind gate census — the coarse structural fingerprint compared
/// alongside full equality (its failure output is far more readable).
fn gate_stats(n: &Netlist) -> BTreeMap<String, usize> {
    let mut stats = BTreeMap::new();
    for g in n.gates() {
        *stats.entry(format!("{:?}", g.kind)).or_insert(0) += 1;
    }
    stats
}

fn kind_of(pick: usize) -> PpgKind {
    [PpgKind::And, PpgKind::Mbe, PpgKind::MacAnd][pick % 3]
}

/// Drives `inc` through `picks.len()` random legal actions, checking
/// the incremental result against a fresh elaboration at every step.
fn walk_and_check(tree: &CompressorTree, picks: &[usize]) -> Result<(), TestCaseError> {
    let mut inc =
        IncrementalMultiplier::new(tree).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let mut cur = tree.clone();
    for &pick in picks {
        let actions = cur.valid_actions();
        if actions.is_empty() {
            break;
        }
        let action = actions[pick % actions.len()];
        cur = cur.apply_action(action).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let delta = inc.retarget(&cur).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(delta.size() > 0, "a tree change must touch gates");

        let fresh = MultiplierNetlist::elaborate(&cur)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .into_netlist();
        prop_assert_eq!(gate_stats(inc.netlist()), gate_stats(&fresh));
        prop_assert!(
            *inc.netlist() == fresh,
            "incremental netlist diverged from scratch build after {:?}",
            action
        );
        prop_assert!(
            inc.arena().matches_netlist(&fresh),
            "arena mirror fell out of sync after {:?}",
            action
        );
        prop_assert_eq!(
            inc.arena().iter_live().count(),
            fresh.gates().len(),
            "arena live-slot count != netlist gate count"
        );

        let inc_lint = lint_delta(&inc.connected(), inc.last_delta());
        prop_assert_eq!(inc_lint.errors(), 0, "delta lint: {}", inc_lint.render());
        let full_lint = lint(&fresh);
        prop_assert_eq!(full_lint.errors(), 0, "full lint: {}", full_lint.render());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_walks_match_scratch_rebuilds(
        bits in 4usize..=8,
        kind_pick in 0usize..3,
        picks in prop::collection::vec(0usize..64, 1..=5),
    ) {
        let kind = kind_of(kind_pick);
        // Booth PPG supports even operand widths only.
        let bits = if matches!(kind, PpgKind::Mbe) { bits & !1 } else { bits };
        let tree = CompressorTree::wallace(bits, kind)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        walk_and_check(&tree, &picks)?;
    }

    #[test]
    fn dadda_walks_match_scratch_rebuilds(
        bits in 4usize..=8,
        picks in prop::collection::vec(0usize..64, 1..=5),
    ) {
        let tree = CompressorTree::dadda(bits, PpgKind::And)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        walk_and_check(&tree, &picks)?;
    }

    #[test]
    fn retargeting_back_and_forth_converges(
        bits in 4usize..=8,
        pick in 0usize..64,
    ) {
        // Forward to a neighbor and back: the incremental state must
        // land exactly on the original elaboration again.
        let tree = CompressorTree::wallace(bits, PpgKind::And)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let original = MultiplierNetlist::elaborate(&tree)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .into_netlist();
        let mut inc = IncrementalMultiplier::new(&tree)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let actions = tree.valid_actions();
        let next = tree
            .apply_action(actions[pick % actions.len()])
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        inc.retarget(&next).map_err(|e| TestCaseError::fail(e.to_string()))?;
        inc.retarget(&tree).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(*inc.netlist() == original, "round trip must restore the original netlist");
        prop_assert!(inc.arena().matches_netlist(&original));
    }
}

/// Larger widths are release-only: each step cross-checks against a
/// from-scratch elaboration, which is the very cost the incremental
/// path avoids in production.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 16-bit equivalence sweep")]
fn wide_walks_match_scratch_rebuilds() {
    let mut seed = 0x9e3779b97f4a7c15u64;
    for kind in [PpgKind::And, PpgKind::Mbe] {
        let tree = CompressorTree::wallace(16, kind).unwrap();
        let mut picks = Vec::new();
        for _ in 0..8 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            picks.push((seed >> 33) as usize);
        }
        walk_and_check(&tree, &picks).unwrap();
    }
}

/// One net as a naive scan sees it: driving output pins,
/// `(gate index, pin)` sinks and output-port reads (constants have
/// none, as in the arena).
#[derive(Debug, Clone, Default, PartialEq)]
struct NetScan {
    drivers: usize,
    sinks: Vec<(usize, usize)>,
    po_reads: usize,
}

fn connectivity(n: &Netlist) -> Vec<NetScan> {
    let mut nets = vec![NetScan::default(); n.num_nets() as usize];
    for (gi, g) in n.gates().iter().enumerate() {
        for &o in g.outputs() {
            nets[o.0 as usize].drivers += 1;
        }
        for (pin, &i) in g.inputs().iter().enumerate() {
            if !i.is_const() {
                nets[i.0 as usize].sinks.push((gi, pin));
            }
        }
    }
    for b in n.outputs().iter().flat_map(|p| &p.bits).filter(|b| !b.is_const()) {
        nets[b.0 as usize].po_reads += 1;
    }
    nets
}

/// Simulated-annealing traffic: every proposal comes from the last
/// accepted tree and about half are kept, so the elaborator keeps
/// retargeting between siblings and back to trees several calls old.
/// After every call the netlist must equal a fresh build, its
/// connectivity table must equal a naive scan (drivers, driver counts,
/// sinks, output-port reads), the delta's `touched_nets` — what
/// `lint_delta` re-checks and synthesis re-sums — must cover every net
/// whose drivers, sinks or output-port reads changed, and the lint
/// over the table must report what the lint over a fresh arena mirror
/// reports for the same delta, message for message.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 16-bit accept/reject walk")]
fn accept_reject_walks_match_scratch_rebuilds() {
    for (kind, mut seed) in [(PpgKind::And, 0x5eed_0001u64), (PpgKind::Mbe, 0x5eed_0002)] {
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut accepted = CompressorTree::wallace(16, kind).unwrap();
        let mut inc = IncrementalMultiplier::new(&accepted).unwrap();
        for step in 0..60 {
            let target = if step % 7 == 6 {
                // A rejection's usual follow-up: back to the last
                // accepted tree.
                accepted.clone()
            } else {
                let actions = accepted.valid_actions();
                accepted.apply_action(actions[rand() % actions.len()]).unwrap()
            };
            let before = inc.netlist().clone();
            inc.retarget(&target).unwrap();
            let fresh = MultiplierNetlist::elaborate(&target).unwrap().into_netlist();
            assert!(*inc.netlist() == fresh, "{kind} step {step}: diverged from a scratch build");
            assert!(inc.arena().matches_netlist(&fresh), "{kind} step {step}: arena out of sync");

            // The table against the scan.
            let (old, new) = (connectivity(&before), connectivity(&fresh));
            let pis: Vec<NetId> = fresh.inputs().iter().flat_map(|p| p.bits.clone()).collect();
            let conn = inc.conn();
            for (net, scan) in new.iter().enumerate() {
                let id = NetId(net as u32);
                let sinks: Vec<(usize, usize)> =
                    conn.sinks(id).iter().map(|&(s, p)| (s as usize, p as usize)).collect();
                let pi = pis.iter().filter(|&&b| b == id).count();
                assert_eq!(conn.drivers(id), scan.drivers + pi, "{kind} step {step}: net {net}");
                if scan.drivers == 1 {
                    let driver = conn.driver_of(id).expect("a driven net has a driver");
                    assert!(fresh.gates()[driver as usize].outputs().contains(&id));
                }
                assert_eq!(sinks, scan.sinks, "{kind} step {step}: sinks of net {net}");
                assert_eq!(
                    usize::from(conn.po_fanout(id)),
                    scan.po_reads,
                    "{kind} step {step}: net {net}"
                );
            }
            assert!(conn.is_ordered(), "{kind} step {step}: builder netlists read lower nets");

            let delta = inc.last_delta();
            let shared = delta.added.first().or(delta.removed.first());
            let shared = shared.map_or(before.gates().len(), |&s| s as usize);
            let gate_range = |from: usize, to: usize| (from as u32..to as u32).collect::<Vec<_>>();
            assert_eq!(delta.removed, gate_range(shared, before.gates().len()), "{kind} {step}");
            assert_eq!(delta.added, gate_range(shared, fresh.gates().len()), "{kind} {step}");
            assert_eq!(delta.ports_changed, before.outputs() != fresh.outputs(), "{kind} {step}");
            assert!(before.gates()[..shared] == fresh.gates()[..shared], "{kind} {step}: prefix");

            let touched = &delta.touched_nets;
            assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched nets sorted and unique");
            assert!(touched.iter().all(|n| !n.is_const()), "constants are never touched");
            for (net, now) in new.iter().enumerate() {
                let was = old.get(net).cloned().unwrap_or_default();
                if *now != was {
                    assert!(
                        touched.binary_search(&NetId(net as u32)).is_ok(),
                        "{kind} step {step}: net {net} changed ({was:?} -> {now:?}) untouched"
                    );
                }
            }
            let lint = lint_delta(&inc.connected(), delta);
            assert_eq!(lint.errors(), 0, "{kind} step {step}: {}", lint.render());
            let oracle = lint_delta(&ArenaNetlist::from_netlist(&fresh), delta);
            assert_eq!(lint, oracle, "{kind} step {step}: table and arena lints differ");
            if rand() % 2 == 0 {
                accepted = target;
            }
        }
    }
}
