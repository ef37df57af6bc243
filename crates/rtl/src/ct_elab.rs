//! Elaboration of a compressor tree into gates.
//!
//! The elaborator replays the deterministic stage assignment
//! (`rlmul_ct::StageTensor`, paper Algorithm 1) with actual nets:
//! each scheduled 3:2 / 2:2 compressor consumes rows from its
//! column's arrival queue in FIFO order, pushes its sum one stage
//! later in the same column and its carry one stage later in the next
//! column. What remains after all compressors fire are the one or two
//! residual rows per column that the final carry-propagate adder
//! resolves.

use crate::netlist::{NetId, NetlistBuilder, CONST0};
use crate::ppg::PpColumns;
use crate::RtlError;
use rlmul_ct::{assign_column, CompressorTree};
use std::collections::VecDeque;

/// The two rows a compressor tree hands to the final adder.
#[derive(Debug, Clone)]
pub struct CtRows {
    /// First addend row, one net per column.
    pub row0: Vec<NetId>,
    /// Second addend row; [`CONST0`] where a column compressed to a
    /// single row.
    pub row1: Vec<NetId>,
}

/// Elaborator state carried from column to column.
///
/// A snapshot of the carries (plus a [`crate::BuilderCheckpoint`])
/// taken at the top of column `j` is everything needed to re-run
/// elaboration from column `j` onward — the basis of the suffix
/// replay in [`crate::IncrementalMultiplier`], which keeps one state
/// across calls so the work lists below keep their allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct CtState {
    /// Carries arriving at the next column, indexed by stage.
    pub carry_arrivals: Vec<Vec<NetId>>,
    /// Residual row 0, one entry per completed column.
    pub row0: Vec<NetId>,
    /// Residual row 1 ([`CONST0`] where a column left a single row).
    pub row1: Vec<NetId>,
    scratch: CtScratch,
}

/// Per-column work lists of [`elaborate_ct_span`].
#[derive(Debug, Clone, Default)]
struct CtScratch {
    /// The carries arriving at the column being elaborated.
    arrivals: Vec<Vec<NetId>>,
    /// Emptied carry lists, reused before new ones are allocated.
    spare: Vec<Vec<NetId>>,
    avail: VecDeque<NetId>,
    sums_next: Vec<NetId>,
    /// Carry count per stage of the column being elaborated.
    arrival_counts: Vec<u32>,
    /// `(3:2, 2:2)` compressors fired per stage of that column.
    schedule: Vec<(u32, u32)>,
}

impl CtState {
    /// Rewinds the state to the top of column `start`, whose pending
    /// carries are `carry`.
    pub fn resume(&mut self, start: usize, carry: &[Vec<NetId>]) {
        let spare = &mut self.scratch.spare;
        spare.extend(self.carry_arrivals.drain(..).map(|mut v| {
            v.clear();
            v
        }));
        self.carry_arrivals.extend(carry.iter().map(|c| {
            let mut v = spare.pop().unwrap_or_default();
            v.extend_from_slice(c);
            v
        }));
        self.row0.truncate(start);
        self.row1.truncate(start);
    }
}

/// Elaborates `tree` over the partial-product columns `cols`,
/// emitting full/half adders into `b`.
///
/// # Errors
///
/// Returns [`RtlError::ResidualMismatch`] if the nets left in a
/// column disagree with the matrix residual — an internal invariant
/// that holds for every legal tree.
pub fn elaborate_ct(
    b: &mut NetlistBuilder,
    tree: &CompressorTree,
    cols: PpColumns,
) -> Result<CtRows, RtlError> {
    let mut state = CtState::default();
    elaborate_ct_span(b, tree, &cols, &mut state, 0, |_, _, _| {})?;
    Ok(CtRows { row0: state.row0, row1: state.row1 })
}

/// Core column loop, resumable at `start`.
///
/// `state` must hold exactly the elaborator state that a from-scratch
/// run would have at the top of column `start` (empty/default for
/// `start == 0`). `checkpoint(j, builder, carry_arrivals)` fires at
/// the top of every column *before* any gate of that column is
/// emitted, letting the caller snapshot resume points (the residual
/// rows for columns `< j` never change afterwards, so a caller can
/// recover them by truncating the final rows). Gate and net-id
/// emission is identical to a monolithic run, so rewinding a builder
/// to a checkpoint and replaying a suffix reproduces a from-scratch
/// netlist exactly.
pub(crate) fn elaborate_ct_span(
    b: &mut NetlistBuilder,
    tree: &CompressorTree,
    cols: &[Vec<NetId>],
    state: &mut CtState,
    start: usize,
    mut checkpoint: impl FnMut(usize, &NetlistBuilder, &Vec<Vec<NetId>>),
) -> Result<(), RtlError> {
    let ncols = tree.matrix().num_columns();
    debug_assert_eq!(cols.len(), ncols);
    let profile = tree.profile();

    let CtState { carry_arrivals, row0, row1, scratch } = state;
    let CtScratch { arrivals, spare, avail, sums_next, arrival_counts, schedule } = scratch;
    debug_assert_eq!(row0.len(), start);
    debug_assert_eq!(row1.len(), start);

    for (j, initial) in cols.iter().enumerate().skip(start) {
        checkpoint(j, b, carry_arrivals);
        // This column consumes the pending carries; the emptied lists
        // of the previous column collect the carries into the next.
        spare.extend(arrivals.drain(..).map(|mut v| {
            v.clear();
            v
        }));
        std::mem::swap(arrivals, carry_arrivals);
        // Stage assignment (paper Algorithm 1) of this column alone:
        // it reads only the carry counts from the column below.
        arrival_counts.clear();
        arrival_counts.extend(arrivals.iter().map(|c| c.len() as u32));
        assign_column(
            j,
            profile.columns()[j],
            tree.matrix().counts()[j],
            arrival_counts,
            schedule,
        )?;
        let depth = schedule.len().max(arrivals.len());
        avail.clear();
        avail.extend(initial.iter().copied());
        sums_next.clear();
        for stage in 0..depth {
            if stage > 0 {
                avail.extend(sums_next.drain(..));
            }
            if let Some(batch) = arrivals.get(stage) {
                avail.extend(batch.iter().copied());
            }
            let (n32, n22) = schedule.get(stage).copied().unwrap_or((0, 0));
            for _ in 0..n32 {
                let (x, y, z) = (
                    avail.pop_front().expect("assignment guarantees 3 rows"),
                    avail.pop_front().expect("assignment guarantees 3 rows"),
                    avail.pop_front().expect("assignment guarantees 3 rows"),
                );
                let (sum, carry) = b.full_adder(x, y, z);
                sums_next.push(sum);
                push_carry(carry_arrivals, spare, stage + 1, carry, j + 1 < ncols);
            }
            for _ in 0..n22 {
                let (x, y) = (
                    avail.pop_front().expect("assignment guarantees 2 rows"),
                    avail.pop_front().expect("assignment guarantees 2 rows"),
                );
                let (sum, carry) = b.half_adder(x, y);
                sums_next.push(sum);
                push_carry(carry_arrivals, spare, stage + 1, carry, j + 1 < ncols);
            }
        }
        // Residual rows: whatever is still queued plus the last sums.
        let got = avail.len() + sums_next.len();
        let expected = tree.matrix().residual(profile, j);
        if got != expected.max(0) as usize {
            return Err(RtlError::ResidualMismatch { column: j, expected, got });
        }
        let mut residual = avail.iter().chain(sums_next.iter()).copied();
        row0.push(residual.next().unwrap_or(CONST0));
        row1.push(residual.next().unwrap_or(CONST0));
    }
    Ok(())
}

fn push_carry(
    carry_arrivals: &mut Vec<Vec<NetId>>,
    spare: &mut Vec<Vec<NetId>>,
    stage: usize,
    carry: NetId,
    in_range: bool,
) {
    if !in_range {
        return; // carry past the MSB: discarded (mod 2^{2N})
    }
    while carry_arrivals.len() <= stage {
        carry_arrivals.push(spare.pop().unwrap_or_default());
    }
    carry_arrivals[stage].push(carry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppg::and_ppg;
    use rlmul_ct::PpgKind;

    #[test]
    fn elaboration_residuals_match_matrix() {
        for bits in [4, 8, 16] {
            let tree = CompressorTree::wallace(bits, PpgKind::And).unwrap();
            let mut b = NetlistBuilder::new("ct");
            let a = b.input("a", bits);
            let m = b.input("b", bits);
            let cols = and_ppg(&mut b, &a, &m);
            let rows = elaborate_ct(&mut b, &tree, cols).unwrap();
            assert_eq!(rows.row0.len(), 2 * bits);
            assert_eq!(rows.row1.len(), 2 * bits);
            for (j, &res) in tree.matrix().residuals(tree.profile()).iter().enumerate() {
                if res <= 1 {
                    assert_eq!(rows.row1[j], CONST0, "bits={bits} col={j}");
                }
            }
        }
    }

    #[test]
    fn dadda_elaborates_too() {
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let mut b = NetlistBuilder::new("ct");
        let a = b.input("a", 8);
        let m = b.input("b", 8);
        let cols = and_ppg(&mut b, &a, &m);
        elaborate_ct(&mut b, &tree, cols).unwrap();
        let n = b.finish();
        n.validate().unwrap();
        // A Dadda tree keeps compressor count near the theoretical
        // minimum: N² − ... just sanity-check something fired.
        assert!(n.stats().count("FA") > 10);
    }
}
