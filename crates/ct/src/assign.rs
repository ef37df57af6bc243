use crate::{CompressorMatrix, CtError, PpProfile};

/// The paper's tensor representation `T ∈ N^{K×2N×ST}` (`K = 2`
/// compressor kinds): a stage-resolved placement of every compressor,
/// derived deterministically from a [`CompressorMatrix`] by paper
/// Algorithm 1.
///
/// Columns are processed from the least to the most significant bit;
/// within a column the assignment greedily fires as many 3:2
/// compressors as the stage's available rows allow, then 2:2
/// compressors, and advances to the next stage. Sums stay in the
/// column (arriving one stage later), carries move to the next column
/// (also one stage later). The procedure is total on legal matrices,
/// so each matrix maps to exactly one tensor — the property the paper
/// needs for an unambiguous state encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTensor {
    /// `columns[j][i] = (n32, n22)` fired at stage `i` of column `j`.
    columns: Vec<Vec<(u32, u32)>>,
    stage_count: usize,
}

/// Hard bound on reduction depth; legal trees are far shallower.
const MAX_STAGES: usize = 256;

impl StageTensor {
    /// Runs paper Algorithm 1 on `matrix` over `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`CtError::AssignmentStuck`] if the matrix requests
    /// compressors that can never receive enough input rows (only
    /// possible for illegal matrices).
    pub fn assign(profile: &PpProfile, matrix: &CompressorMatrix) -> Result<Self, CtError> {
        let ncols = profile.num_columns();
        debug_assert_eq!(matrix.num_columns(), ncols);
        let mut columns: Vec<Vec<(u32, u32)>> = Vec::with_capacity(ncols);
        // Carries arriving at the *next* column, indexed by stage.
        let mut carry_arrivals: Vec<u32> = Vec::new();
        let mut stage_count = 0usize;

        for j in 0..ncols {
            let mut per_stage = Vec::new();
            assign_column(
                j,
                profile.columns()[j],
                (matrix.count32(j), matrix.count22(j)),
                &carry_arrivals,
                &mut per_stage,
            )?;
            carry_arrivals.clear();
            for (stage, &(f, h)) in per_stage.iter().enumerate() {
                if f + h > 0 {
                    carry_arrivals.resize(stage + 2, 0);
                    carry_arrivals[stage + 1] += f + h;
                }
            }
            stage_count = stage_count.max(per_stage.len());
            columns.push(per_stage);
            // Arrivals not consumed here still travel to no one: they are
            // the residual rows of this column, which the final adder eats.
        }
        Ok(StageTensor { columns, stage_count })
    }

    /// Reduction depth `ST`: the number of compression stages used by
    /// the deepest column. The paper identifies this as a primary
    /// delay/area driver (Fig. 8) and prunes actions that inflate it.
    pub fn stage_count(&self) -> usize {
        self.stage_count
    }

    /// Number of columns (`2N`).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Stage-wise `(3:2, 2:2)` counts of `column`.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of bounds.
    pub fn column_stages(&self, column: usize) -> &[(u32, u32)] {
        &self.columns[column]
    }

    /// `(3:2, 2:2)` compressors fired at `(column, stage)`; `(0, 0)`
    /// beyond the column's depth.
    pub fn counts_at(&self, column: usize, stage: usize) -> (u32, u32) {
        self.columns.get(column).and_then(|c| c.get(stage)).copied().unwrap_or((0, 0))
    }

    /// Dense `K × 2N × ST_pad` encoding (row-major `[kind][column][stage]`)
    /// for the agent network, zero-padded or truncated to `stages`.
    pub fn to_dense(&self, stages: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.to_dense_into(stages, &mut out);
        out
    }

    /// [`StageTensor::to_dense`] writing into a caller-owned buffer,
    /// so per-step encodings (one per candidate action in surrogate
    /// screening) reuse one allocation.
    pub fn to_dense_into(&self, stages: usize, out: &mut Vec<f32>) {
        let ncols = self.columns.len();
        out.clear();
        out.resize(2 * ncols * stages, 0.0);
        for (j, col) in self.columns.iter().enumerate() {
            for (i, &(f, h)) in col.iter().enumerate().take(stages) {
                out[j * stages + i] = f as f32;
                out[ncols * stages + j * stages + i] = h as f32;
            }
        }
    }

    /// Sums the tensor back into per-column `(3:2, 2:2)` totals —
    /// by construction equal to the source matrix.
    pub fn to_matrix(&self) -> CompressorMatrix {
        CompressorMatrix::from_counts(
            self.columns
                .iter()
                .map(|col| col.iter().fold((0, 0), |(a, b), &(f, h)| (a + f, b + h))),
        )
    }
}

/// Paper Algorithm 1 on one column: places `counts` = `(3:2, 2:2)`
/// compressors over the stages of column `column`, which starts with
/// `rows` partial products and receives `arrivals[s]` carries at stage
/// `s`. Writes the `(3:2, 2:2)` count fired at each stage into
/// `stages` (cleared first; trailing idle stages trimmed).
///
/// A column's schedule depends only on its own counts and on the
/// carries from the column below, so a caller that keeps the carries
/// can resume the assignment at any column — the incremental
/// elaborator schedules only the columns it replays.
///
/// # Errors
///
/// Returns [`CtError::AssignmentStuck`] if the compressors can never
/// receive enough input rows (only possible for illegal matrices).
pub fn assign_column(
    column: usize,
    rows: u32,
    counts: (u32, u32),
    arrivals: &[u32],
    stages: &mut Vec<(u32, u32)>,
) -> Result<(), CtError> {
    stages.clear();
    let (mut rem32, mut rem22) = counts;
    let mut avail = rows;
    let mut sums_next: u32 = 0;
    let mut stage = 0usize;
    while rem32 > 0 || rem22 > 0 {
        if stage > 0 {
            avail += sums_next + arrivals.get(stage).copied().unwrap_or(0);
        } else {
            avail += arrivals.first().copied().unwrap_or(0);
        }
        let f = rem32.min(avail / 3);
        avail -= 3 * f;
        rem32 -= f;
        let h = rem22.min(avail / 2);
        avail -= 2 * h;
        rem22 -= h;
        stages.push((f, h));
        sums_next = f + h;
        let future_inputs = arrivals.iter().skip(stage + 1).sum::<u32>() + sums_next;
        if f == 0 && h == 0 && future_inputs == 0 {
            return Err(CtError::AssignmentStuck { column });
        }
        stage += 1;
        if stage > MAX_STAGES {
            return Err(CtError::AssignmentStuck { column });
        }
    }
    // Trim trailing idle stages.
    while matches!(stages.last(), Some(&(0, 0))) {
        stages.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressorTree, PpgKind};

    #[test]
    fn assignment_reproduces_matrix_totals() {
        let tree = CompressorTree::wallace(8, PpgKind::And).unwrap();
        let tensor = tree.assign_stages().unwrap();
        assert_eq!(&tensor.to_matrix(), tree.matrix());
    }

    #[test]
    fn assignment_of_empty_matrix_is_empty() {
        let p = PpProfile::new(4, PpgKind::And).unwrap();
        // Width-2 columns need nothing; an all-zero matrix on a width-2
        // profile would be illegal, but assignment itself still works.
        let m = CompressorMatrix::zeros(p.num_columns());
        let t = StageTensor::assign(&p, &m).unwrap();
        assert_eq!(t.stage_count(), 0);
    }

    #[test]
    fn wallace_4bit_depth_is_shallow() {
        // A 4-bit Wallace-style reduction needs 2–3 stages depending on
        // how carries are scheduled; the greedy LSB-first assignment
        // must stay within that envelope.
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let t = tree.assign_stages().unwrap();
        assert!((2..=3).contains(&t.stage_count()), "got {}", t.stage_count());
    }

    #[test]
    fn dense_encoding_shape_and_content() {
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let t = tree.assign_stages().unwrap();
        let st = 4;
        let dense = t.to_dense(st);
        assert_eq!(dense.len(), 2 * 8 * st);
        let total32: f32 = dense[..8 * st].iter().sum();
        let total22: f32 = dense[8 * st..].iter().sum();
        assert_eq!(total32 as u32, tree.matrix().total32());
        assert_eq!(total22 as u32, tree.matrix().total22());
    }

    #[test]
    fn infeasible_matrix_is_rejected() {
        let p = PpProfile::new(4, PpgKind::And).unwrap();
        // Column 0 has a single PP: a 3:2 compressor can never fire.
        let mut counts = vec![(0u32, 0u32); 8];
        counts[0] = (1, 0);
        let m = CompressorMatrix::from_counts(counts);
        assert!(matches!(StageTensor::assign(&p, &m), Err(CtError::AssignmentStuck { column: 0 })));
    }

    #[test]
    fn counts_at_out_of_range_is_zero() {
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let t = tree.assign_stages().unwrap();
        assert_eq!(t.counts_at(0, 99), (0, 0));
        assert_eq!(t.counts_at(99, 0), (0, 0));
    }
}
