//! Incremental multiplier elaboration.
//!
//! [`IncrementalMultiplier`] keeps a live [`NetlistBuilder`] plus
//! per-column resume checkpoints so that re-targeting to a new
//! compressor tree replays only the columns at and above the first
//! changed one. Legalization propagates strictly toward the MSB
//! (`rlmul_ct::legalize` sweeps from `column + 1` upward), and
//! elaboration emits gates column-major with deterministic net-id
//! allocation, so the replayed netlist is *equal* — not merely
//! isomorphic — to what a from-scratch [`MultiplierNetlist`] build
//! would produce. Bit-identical downstream synthesis numbers follow
//! for free from that equality.
//!
//! Each retarget also maintains an [`ArenaNetlist`] mirror via
//! [`ArenaNetlist::splice_suffix`] and exposes the resulting
//! [`NetlistDelta`], which incremental lint/map/size/STA consume.

use crate::adder::{add, AdderKind};
use crate::arena::{ArenaNetlist, NetlistDelta};
use crate::ct_elab::{elaborate_ct_span, CtState};
use crate::netlist::{BuilderCheckpoint, NetId, Netlist, NetlistBuilder};
use crate::ppg::{and_ppg, mbe_ppg, merge_mac_addend};
use crate::RtlError;
use rlmul_ct::{CompressorTree, PpgKind};

/// Resume point at the top of one compressor-tree column.
#[derive(Debug, Clone)]
struct ColumnCheckpoint {
    builder: BuilderCheckpoint,
    /// Carries pending into this column, indexed by stage.
    carry: Vec<Vec<NetId>>,
}

/// A multiplier netlist that re-elaborates in time proportional to
/// the edit when its compressor tree changes.
///
/// ```
/// use rlmul_ct::{CompressorTree, PpgKind};
/// use rlmul_rtl::{IncrementalMultiplier, MultiplierNetlist};
///
/// let tree = CompressorTree::wallace(8, PpgKind::And)?;
/// let mut inc = IncrementalMultiplier::new(&tree)?;
/// let next = tree.apply_action(tree.valid_actions()[0])?;
/// let delta = inc.retarget(&next)?;
/// assert!(!delta.added.is_empty());
/// // The incremental netlist equals a from-scratch elaboration.
/// let fresh = MultiplierNetlist::elaborate(&next)?.into_netlist();
/// assert_eq!(*inc.netlist(), fresh);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMultiplier {
    tree: CompressorTree,
    cpa: AdderKind,
    builder: NetlistBuilder,
    /// Partial-product columns (fixed across retargets: the PPG
    /// depends only on the operands, never on the tree).
    cols: Vec<Vec<NetId>>,
    checkpoints: Vec<ColumnCheckpoint>,
    row0: Vec<NetId>,
    row1: Vec<NetId>,
    netlist: Netlist,
    arena: ArenaNetlist,
    last_delta: NetlistDelta,
}

impl IncrementalMultiplier {
    /// Elaborates `tree` from scratch with the default final adder,
    /// recording per-column resume checkpoints.
    ///
    /// # Errors
    ///
    /// Same as [`MultiplierNetlist::elaborate`].
    ///
    /// [`MultiplierNetlist::elaborate`]: crate::MultiplierNetlist::elaborate
    pub fn new(tree: &CompressorTree) -> Result<Self, RtlError> {
        Self::with_adder(tree, AdderKind::default())
    }

    /// Elaborates `tree` from scratch with an explicit final adder.
    ///
    /// # Errors
    ///
    /// Same as [`IncrementalMultiplier::new`].
    pub fn with_adder(tree: &CompressorTree, cpa: AdderKind) -> Result<Self, RtlError> {
        let bits = tree.bits();
        let kind = tree.profile().kind();
        let name = format!("{}{}x{}", if kind.is_mac() { "mac" } else { "mul" }, bits, bits);
        let mut builder = NetlistBuilder::new(name);
        let a = builder.input("a", bits);
        let m = builder.input("b", bits);
        let mut cols = match kind.base() {
            PpgKind::Mbe => mbe_ppg(&mut builder, &a, &m),
            _ => and_ppg(&mut builder, &a, &m),
        };
        if kind.is_mac() {
            let c = builder.input("c", 2 * bits);
            merge_mac_addend(&mut cols, &c);
        }
        let mut checkpoints = Vec::with_capacity(cols.len());
        let mut state = CtState::default();
        elaborate_ct_span(&mut builder, tree, &cols, &mut state, 0, |j, b, carry| {
            debug_assert_eq!(j, checkpoints.len());
            checkpoints.push(ColumnCheckpoint { builder: b.checkpoint(), carry: carry.clone() });
        })?;
        let p = add(&mut builder, &state.row0, &state.row1, cpa);
        builder.output("p", &p);
        let netlist = builder.snapshot().sweep();
        let arena = ArenaNetlist::from_netlist(&netlist);
        Ok(IncrementalMultiplier {
            tree: tree.clone(),
            cpa,
            builder,
            cols,
            checkpoints,
            row0: state.row0,
            row1: state.row1,
            netlist,
            arena,
            last_delta: NetlistDelta::default(),
        })
    }

    /// Re-elaborates toward `tree`, replaying only the columns from
    /// the first changed one upward, and splices the arena mirror.
    /// Returns the delta of the *swept* netlist (shared gate prefix
    /// detected by direct comparison, so no liveness reasoning is
    /// baked in).
    ///
    /// The result is guaranteed equal to
    /// `MultiplierNetlist::elaborate_with_adder(tree, cpa)` — debug
    /// builds assert exactly that against a from-scratch rebuild.
    ///
    /// # Errors
    ///
    /// [`RtlError::InvalidParameter`] if `tree` has a different
    /// profile (width or PPG kind) than the one this elaborator was
    /// built for; otherwise the same errors as elaboration.
    pub fn retarget(&mut self, tree: &CompressorTree) -> Result<&NetlistDelta, RtlError> {
        if tree.profile() != self.tree.profile() {
            return Err(RtlError::InvalidParameter {
                what: "retarget requires the same width and PPG kind",
            });
        }
        let old = self.tree.matrix().counts();
        let new = tree.matrix().counts();
        debug_assert_eq!(old.len(), new.len());
        let Some(j_min) = old.iter().zip(new).position(|(a, b)| a != b) else {
            // Same per-column counts ⇒ identical deterministic
            // elaboration; nothing to do.
            self.tree = tree.clone();
            self.last_delta = NetlistDelta::default();
            return Ok(&self.last_delta);
        };

        let obs = rlmul_obs::global();
        // Rewind to the top of column j_min and replay the rest.
        let ck = self.checkpoints[j_min].clone();
        self.builder.rewind(&ck.builder);
        self.row0.truncate(j_min);
        self.row1.truncate(j_min);
        let mut state = CtState {
            carry_arrivals: ck.carry,
            row0: std::mem::take(&mut self.row0),
            row1: std::mem::take(&mut self.row1),
        };
        {
            let _s = obs.span("rtl.retarget_replay");
            let checkpoints = &mut self.checkpoints;
            elaborate_ct_span(
                &mut self.builder,
                tree,
                &self.cols,
                &mut state,
                j_min,
                |j, b, carry| {
                    // Every column keeps its checkpoint slot; refilling
                    // it in place reuses the carry lists' allocations.
                    let ck = &mut checkpoints[j];
                    ck.builder = b.checkpoint();
                    ck.carry.clone_from(carry);
                },
            )?;
            let p = add(&mut self.builder, &state.row0, &state.row1, self.cpa);
            self.builder.output("p", &p);
        }
        self.row0 = state.row0;
        self.row1 = state.row1;

        let next = {
            let _s = obs.span("rtl.retarget_sweep");
            self.builder.snapshot().sweep()
        };
        {
            let _s = obs.span("rtl.retarget_splice");
            let shared = shared_gate_prefix(&self.netlist, &next);
            self.last_delta = self.arena.splice_suffix(&next, shared);
        }
        self.netlist = next;
        self.tree = tree.clone();

        #[cfg(debug_assertions)]
        {
            let fresh =
                crate::mul::MultiplierNetlist::elaborate_with_adder(tree, self.cpa)?.into_netlist();
            debug_assert_eq!(self.netlist, fresh, "incremental replay diverged from scratch build");
            debug_assert!(self.arena.matches_netlist(&self.netlist));
        }
        Ok(&self.last_delta)
    }

    /// The current swept netlist (equal to a from-scratch build).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The arena mirror with fanout/driver/level side-structures.
    pub fn arena(&self) -> &ArenaNetlist {
        &self.arena
    }

    /// The compressor tree the netlist currently realizes.
    pub fn tree(&self) -> &CompressorTree {
        &self.tree
    }

    /// Delta produced by the most recent [`IncrementalMultiplier::retarget`]
    /// (empty before the first retarget or when the tree was unchanged).
    pub fn last_delta(&self) -> &NetlistDelta {
        &self.last_delta
    }
}

/// Length of the longest common gate prefix of two netlists.
fn shared_gate_prefix(a: &Netlist, b: &Netlist) -> usize {
    a.gates().iter().zip(b.gates()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::MultiplierNetlist;

    fn walk(tree: &CompressorTree, steps: usize, seed: &mut u64) -> Vec<CompressorTree> {
        let mut out = Vec::new();
        let mut cur = tree.clone();
        for _ in 0..steps {
            let actions = cur.valid_actions();
            if actions.is_empty() {
                break;
            }
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = actions[(*seed >> 33) as usize % actions.len()];
            cur = cur.apply_action(a).unwrap();
            out.push(cur.clone());
        }
        out
    }

    #[test]
    fn retarget_equals_fresh_elaboration_across_walks() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        for kind in [PpgKind::And, PpgKind::Mbe, PpgKind::MacAnd] {
            let base = CompressorTree::wallace(8, kind).unwrap();
            let mut inc = IncrementalMultiplier::new(&base).unwrap();
            assert_eq!(*inc.netlist(), MultiplierNetlist::elaborate(&base).unwrap().into_netlist());
            for next in walk(&base, 6, &mut seed) {
                let delta = inc.retarget(&next).unwrap();
                assert!(delta.size() > 0, "a tree change must touch gates");
                let fresh = MultiplierNetlist::elaborate(&next).unwrap().into_netlist();
                assert_eq!(*inc.netlist(), fresh, "{kind}");
                assert!(inc.arena().matches_netlist(&fresh));
            }
        }
    }

    #[test]
    fn retarget_to_same_tree_is_empty_delta() {
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let mut inc = IncrementalMultiplier::new(&tree).unwrap();
        let d = inc.retarget(&tree.clone()).unwrap();
        assert_eq!(d.size(), 0);
    }

    #[test]
    fn retarget_rejects_profile_mismatch() {
        let t8 = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let t16 = CompressorTree::wallace(16, PpgKind::And).unwrap();
        let mut inc = IncrementalMultiplier::new(&t8).unwrap();
        assert!(inc.retarget(&t16).is_err());
    }

    #[test]
    fn deltas_are_local_for_msb_actions() {
        // An action near the MSB should leave most of the netlist
        // untouched: the whole point of the splice.
        let tree = CompressorTree::wallace(16, PpgKind::And).unwrap();
        let mut inc = IncrementalMultiplier::new(&tree).unwrap();
        let total = inc.netlist().gates().len();
        let cutoff = tree.matrix().num_columns() - 6;
        let a = tree
            .valid_actions()
            .into_iter()
            .rfind(|a| a.column() >= cutoff)
            .expect("a high-column action exists on a 16-bit Wallace tree");
        let next = tree.apply_action(a).unwrap();
        let d = inc.retarget(&next).unwrap();
        assert!(
            d.removed.len() < total / 4,
            "MSB edit should be local: {} of {total}",
            d.removed.len()
        );
    }
}
