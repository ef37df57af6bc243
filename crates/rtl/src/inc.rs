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
//! The swept netlist is updated in place: only the replayed gates are
//! swept, and their live ones overwrite the old suffix from the swept
//! position each checkpoint records. Each retarget also refills the
//! netlist's [`NetConn`] connectivity table in place and records the
//! [`NetlistDelta`] from the old to the new swept suffix, which the
//! delta lint and incremental synthesis consume. Apart from the table
//! refill, work and allocations per retarget are proportional to the
//! replayed suffix. An [`ArenaNetlist`] mirror is built only on
//! request ([`IncrementalMultiplier::arena`]).

use crate::adder::{add, AdderKind};
use crate::arena::{ArenaNetlist, NetlistDelta};
use crate::conn::{Connected, NetConn};
use crate::ct_elab::{elaborate_ct_span, CtState};
use crate::mul::partial_products;
use crate::netlist::{
    clone_ports_from, BuilderCheckpoint, Gate, NetId, Netlist, NetlistBuilder, Port, SuffixSweep,
};
use crate::RtlError;
use rlmul_ct::CompressorTree;
use std::sync::OnceLock;

/// Resume point at the top of one compressor-tree column.
#[derive(Debug, Clone)]
struct ColumnCheckpoint {
    builder: BuilderCheckpoint,
    /// Number of swept-netlist gates emitted before this column.
    swept: usize,
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
    /// Elaborator state after the last column (residual rows, work
    /// lists reused by every replay).
    state: CtState,
    netlist: Netlist,
    sweep: SuffixSweep,
    /// Connectivity of `netlist`, with the delta of the last retarget.
    conn: NetConn,
    /// The old swept gates and output ports a retarget overwrites,
    /// kept for the delta (buffers reused across retargets).
    old_gates: Vec<Gate>,
    old_outputs: Vec<Port>,
    /// Arena mirror of `netlist`, built on the first request after a
    /// retarget.
    arena: OnceLock<ArenaNetlist>,
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
        let (mut builder, cols) = partial_products(tree);
        let mut checkpoints = Vec::with_capacity(cols.len());
        let mut state = CtState::default();
        elaborate_ct_span(&mut builder, tree, &cols, &mut state, 0, |j, b, carry| {
            debug_assert_eq!(j, checkpoints.len());
            checkpoints.push(ColumnCheckpoint {
                builder: b.checkpoint(),
                swept: 0,
                carry: carry.clone(),
            });
        })?;
        let p = add(&mut builder, &state.row0, &state.row1, cpa);
        builder.output("p", &p);
        let mut sweep = SuffixSweep::default();
        let netlist = builder.swept(&mut sweep);
        for ck in &mut checkpoints {
            ck.swept = sweep.swept_before(&ck.builder);
        }
        let conn = NetConn::build(&netlist);
        Ok(IncrementalMultiplier {
            tree: tree.clone(),
            cpa,
            builder,
            cols,
            checkpoints,
            state,
            netlist,
            sweep,
            conn,
            old_gates: Vec::new(),
            old_outputs: Vec::new(),
            arena: OnceLock::new(),
        })
    }

    /// Re-elaborates toward `tree`, replaying only the columns from
    /// the first changed one upward, and updates the connectivity
    /// table. Returns the delta of the *swept* netlist; its shared gate
    /// prefix is the longest one the old and new netlists have in
    /// common, found by direct comparison of the swept suffixes.
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
            self.tree.clone_from(tree);
            let gates = self.netlist.gates().len();
            self.conn.update(&self.netlist, gates, &[], self.netlist.outputs());
            return Ok(self.conn.delta());
        };

        let obs = rlmul_obs::global();
        // Rewind to the top of column j_min and replay the rest.
        {
            let _s = obs.span("rtl.retarget_replay");
            let ck = &self.checkpoints[j_min];
            self.builder.rewind(&ck.builder);
            self.state.resume(j_min, &ck.carry);
            let checkpoints = &mut self.checkpoints;
            elaborate_ct_span(
                &mut self.builder,
                tree,
                &self.cols,
                &mut self.state,
                j_min,
                |j, b, carry| {
                    // Every column keeps its checkpoint slot; refilling
                    // it in place reuses the carry lists' allocations.
                    let ck = &mut checkpoints[j];
                    ck.builder = b.checkpoint();
                    ck.carry.clone_from(carry);
                },
            )?;
            let p = add(&mut self.builder, &self.state.row0, &self.state.row1, self.cpa);
            self.builder.output("p", &p);
        }
        // Sweep only the replayed gates into the kept netlist; when the
        // replay changes which earlier nets stay read, sweep it all.
        // The gates and ports a sweep overwrites are kept for the delta.
        let (shared, first_old) = {
            let _s = obs.span("rtl.retarget_sweep");
            let ck = &self.checkpoints[j_min];
            self.old_gates.clear();
            self.old_gates.extend_from_slice(&self.netlist.gates()[ck.swept..]);
            clone_ports_from(&mut self.old_outputs, self.netlist.outputs());
            let resumed = self.builder.sweep_suffix_into(
                Some(&ck.builder),
                ck.swept,
                &mut self.netlist,
                &mut self.sweep,
            );
            let (first, first_old, shared) = match resumed {
                Some(shared) => (j_min, ck.swept, shared),
                None => {
                    // A failed resume leaves the netlist untouched.
                    self.old_gates.splice(0..0, self.netlist.gates()[..ck.swept].iter().copied());
                    let shared = self
                        .builder
                        .sweep_suffix_into(None, 0, &mut self.netlist, &mut self.sweep)
                        .expect("a sweep from the first gate always succeeds");
                    (0, 0, shared)
                }
            };
            for ck in &mut self.checkpoints[first..] {
                ck.swept = self.sweep.swept_before(&ck.builder);
            }
            (shared, first_old)
        };
        {
            let _s = obs.span("rtl.retarget_conn");
            let old_suffix = &self.old_gates[shared - first_old..];
            self.conn.update(&self.netlist, shared, old_suffix, &self.old_outputs);
        }
        self.arena = OnceLock::new();
        self.tree.clone_from(tree);

        #[cfg(debug_assertions)]
        {
            let fresh =
                crate::mul::MultiplierNetlist::elaborate_with_adder(tree, self.cpa)?.into_netlist();
            debug_assert_eq!(self.netlist, fresh, "incremental replay diverged from scratch build");
        }
        Ok(self.conn.delta())
    }

    /// The current swept netlist (equal to a from-scratch build).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The connectivity table of [`IncrementalMultiplier::netlist`].
    pub fn conn(&self) -> &NetConn {
        &self.conn
    }

    /// The netlist with its connectivity table, as the delta lint and
    /// incremental synthesis read it.
    pub fn connected(&self) -> Connected<'_> {
        Connected::new(&self.netlist, &self.conn)
    }

    /// An arena mirror of the netlist with fanout/driver/level
    /// side-structures, built on the first call after a retarget.
    pub fn arena(&self) -> &ArenaNetlist {
        self.arena.get_or_init(|| ArenaNetlist::from_netlist(&self.netlist))
    }

    /// The compressor tree the netlist currently realizes.
    pub fn tree(&self) -> &CompressorTree {
        &self.tree
    }

    /// Delta produced by the most recent [`IncrementalMultiplier::retarget`]
    /// (empty before the first retarget or when the tree was unchanged).
    pub fn last_delta(&self) -> &NetlistDelta {
        self.conn.delta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::MultiplierNetlist;
    use rlmul_ct::PpgKind;

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
                let lint = crate::lint_delta(&inc.connected(), inc.last_delta());
                assert_eq!(lint.errors(), 0, "{kind}: {}", lint.render());
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
        // untouched: the whole point of the suffix replay.
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
