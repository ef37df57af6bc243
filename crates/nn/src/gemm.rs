//! Shared dense matrix kernels for every layer in this crate.
//!
//! Three f32 GEMM variants cover the `Linear` layer:
//!
//! * [`gemm_nn`] — `C += A·B` (input gradient),
//! * [`gemm_nt`] — `C += A·Bᵀ` (forward),
//! * [`gemm_tn`] — `C += Aᵀ·B` (weight gradient).
//!
//! `Conv2d` runs the same inner kernels, in the same orders, on
//! operands it never materializes as a matrix: `tile_k` reads each
//! `B` row as a slice of the lowered input, and `nt_packed` reads
//! patch rows as equal-length segments of it (see
//! `im2col::Lowering`).
//!
//! All matrices are dense row-major slices. The kernels accumulate
//! into `C` (callers initialize it with zeros or the layer bias).
//!
//! # Order contract
//!
//! Each kernel fixes the exact sequence of f32 operations behind every
//! output element, so results are bit-identical across blockings and
//! across builds (separate multiply and add, never fused):
//!
//! * `gemm_nn` / `gemm_tn`: `c[i][j]` receives its `k` products one at
//!   a time in ascending `k`, `c = c + a·b` — the naive triple loop.
//!   They run as `MR × NR` register tiles: a `C` tile is loaded once,
//!   the whole `k` loop accumulates into it, and it is stored once.
//! * `gemm_nt`: the dot product of row `i` of `A` and row `j` of `B`
//!   runs in eight lanes (lane `l` sums the products at `l, l+8, …` of
//!   the `k/8·8` prefix in ascending order), the lanes reduce as
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the remainder products
//!   add to that sequentially, and the total is added to `c[i][j]`.
//!   The operand with fewer rows is packed transposed, `NT_J` rows per
//!   block, so one vector holds the same lane of `NT_J` outputs.
//!
//! The tests check each kernel against a naive loop written in this
//! order with `to_bits` equality. Everything runs on the calling
//! thread: at the agent networks' shapes (8–32 output rows, well under
//! 1 MFLOP per call) a scoped-thread fan-out cost more to spawn and
//! join than it saved.

/// Register-tile shape: `MR` rows of `C` by `NR` columns (four 4-lane
/// vectors per row). The fastest of 14 shapes from 1×16 to 8×8 at SSE2
/// width on the trunk's conv GEMMs; larger tiles spill accumulators.
const MR: usize = 2;
const NR: usize = 16;

/// Panics unless the three slices match the given dimensions.
#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], am: usize, bm: usize, cm: usize) {
    assert_eq!(a.len(), am, "GEMM: A length mismatch");
    assert_eq!(b.len(), bm, "GEMM: B length mismatch");
    assert_eq!(c.len(), cm, "GEMM: C length mismatch");
}

/// `A` as an `m × k` matrix in a row-major buffer: element `(i, kk)`
/// sits at `i·row + kk·col` (`gemm_nn` reads `A`, `gemm_tn` reads `Aᵀ`).
#[derive(Clone, Copy)]
struct Strided<'a> {
    a: &'a [f32],
    row: usize,
    col: usize,
}

/// The ascending-`k` register-tile loop: for each step `(a, at)` in
/// order, `acc[r][c] = acc[r][c] + a[r] · b[at + c]`. The caller loads
/// `acc` (from `C` or a bias), supplies per step `kk` the `R` values of
/// column `kk` of `A` and where the `C` values of row `kk` of `B`
/// start, and stores `acc`.
#[inline(always)]
pub(crate) fn tile_k<const R: usize, const C: usize>(
    steps: impl Iterator<Item = ([f32; R], usize)>,
    b: &[f32],
    acc: &mut [[f32; C]; R],
) {
    for (av, at) in steps {
        let bv = chunk::<C>(b, at);
        for (row, a) in acc.iter_mut().zip(av) {
            for (cv, &b) in row.iter_mut().zip(bv) {
                *cv += a * b;
            }
        }
    }
}

/// `C` consecutive values of `v` from `at` (panics past the end).
#[inline(always)]
pub(crate) fn chunk<const C: usize>(v: &[f32], at: usize) -> &[f32; C] {
    v[at..].first_chunk().expect("GEMM: operand too short")
}

/// Covers the `m × n` output with column panels `NR` wide, then one
/// `NR / 2` panel and single columns for the ragged right edge. Panels
/// are outermost so one `k × C` slab of `B` stays in L1 across the
/// panel's row tiles.
fn tiled(a: Strided, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut j = 0;
    while j + NR <= n {
        panel::<NR>(a, b, c, m, k, n, j);
        j += NR;
    }
    if j + NR / 2 <= n {
        panel::<{ NR / 2 }>(a, b, c, m, k, n, j);
        j += NR / 2;
    }
    for j in j..n {
        panel::<1>(a, b, c, m, k, n, j);
    }
}

/// One `C`-wide column panel: `MR`-row tiles, then single rows.
fn panel<const C: usize>(
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
) {
    let m_main = m - m % MR;
    for i in (0..m_main).step_by(MR) {
        tile::<MR, C>(a, b, c, k, n, i, j);
    }
    for i in m_main..m {
        tile::<1, C>(a, b, c, k, n, i, j);
    }
}

/// The `R × C` block of `C` whose top-left element is `(i, j)`: loaded
/// once, accumulated over the full `k` loop, stored once.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let mut acc: [[f32; C]; R] = std::array::from_fn(|r| *chunk(c, (i + r) * n + j));
    let a_col = |kk| std::array::from_fn(|r| a.a[(i + r) * a.row + kk * a.col]);
    tile_k((0..k).map(|kk| (a_col(kk), kk * n + j)), b, &mut acc);
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..C].copy_from_slice(row);
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`, row-major.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, k * n, m * n);
    tiled(Strided { a, row: k, col: 1 }, b, c, m, k, n);
}

/// `C[m×n] += A[k×m]ᵀ · B[k×n]`, row-major.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, k * m, k * n, m * n);
    tiled(Strided { a, row: 1, col: m }, b, c, m, k, n);
}

/// `C[m×n] += A[m×k] · B[n×k]ᵀ`, row-major: one eight-lane dot
/// product per output element (see the order contract above).
///
/// From `NT_J` rows of both operands up, the operand with fewer rows
/// is packed (see `nt_packed`); below that the dot products run on
/// the operands as they are, one output per block.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, n * k, m * n);
    let mut scratch = NtScratch::default();
    if m.min(n) < NT_J {
        let rows = NtRows::dense(a, k);
        return nt_blocks(rows, m, k, b.as_chunks::<1>().0, n, &mut scratch.row, c, |i, j| {
            i * n + j
        });
    }
    let (a, b) = (NtRows::dense(a, k), NtRows::dense(b, k));
    if n <= m {
        nt_packed(a, m, k, b, n, &mut scratch, c, |i, j| i * n + j);
    } else {
        // Products commute bit for bit, so `A` can be the packed side.
        nt_packed(b, n, k, a, m, &mut scratch, c, |i, j| j * n + i);
    }
}

/// Columns of `C` per packed `gemm_nt` block: one 4-lane vector.
const NT_J: usize = 4;

/// Reusable buffers of the `gemm_nt` lane kernel.
#[derive(Debug, Default)]
pub(crate) struct NtScratch {
    /// The packed operand.
    packed: Vec<[f32; NT_J]>,
    /// One row of a segmented row operand, gathered.
    row: Vec<f32>,
}

/// The row operand of the `gemm_nt` lane kernel: row `i` is the `k`
/// values at `v[base(i) + s·stride + q]` for segment `s` and `q < seg`,
/// in ascending `(s, q)` order. A dense row-major matrix is one
/// segment of `k` per row; a lowered convolution input is one `ow`
/// segment per output row.
pub(crate) struct NtRows<'a, F: Fn(usize) -> usize> {
    pub(crate) v: &'a [f32],
    pub(crate) base: F,
    pub(crate) seg: usize,
    pub(crate) stride: usize,
}

impl<'a> NtRows<'a, fn(usize) -> usize> {
    /// The rows of a dense `? × k` matrix.
    fn dense(v: &'a [f32], k: usize) -> NtRows<'a, impl Fn(usize) -> usize> {
        NtRows { v, base: move |i| i * k, seg: k, stride: k }
    }
}

impl<F: Fn(usize) -> usize> NtRows<'_, F> {
    /// Row `i` as one slice: in place for a single segment, else
    /// gathered into `buf`.
    fn row<'s>(&'s self, i: usize, k: usize, buf: &'s mut Vec<f32>) -> &'s [f32] {
        let base = (self.base)(i);
        if self.seg == k {
            return &self.v[base..][..k];
        }
        buf.resize(k, 0.0);
        for (s, dst) in buf.chunks_exact_mut(self.seg).enumerate() {
            dst.copy_from_slice(&self.v[base + s * self.stride..][..self.seg]);
        }
        buf
    }
}

/// `C += A · Bᵀ` in the `gemm_nt` lane order for the `m` rows of `a`
/// and the `n` rows of `b`; output `(i, j)` is added to
/// `c[out(i, j)]`. `b` is packed transposed in blocks of `NT_J` rows
/// (zero rows pad the last block; their results are discarded), so
/// each lane accumulator holds one lane of `NT_J` neighbouring outputs
/// and the inner loop is a broadcast of `a(i)[kk]` times one
/// contiguous load.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_packed<F: Fn(usize) -> usize, G: Fn(usize) -> usize>(
    a: NtRows<F>,
    m: usize,
    k: usize,
    b: NtRows<G>,
    n: usize,
    scratch: &mut NtScratch,
    c: &mut [f32],
    out: impl Fn(usize, usize) -> usize,
) {
    let packed = &mut scratch.packed;
    packed.clear();
    packed.resize(n.div_ceil(NT_J) * k, [0.0; NT_J]);
    for j in 0..n {
        let brow = b.row(j, k, &mut scratch.row);
        for (t, &v) in packed[j / NT_J * k..][..k].iter_mut().zip(brow) {
            t[j % NT_J] = v;
        }
    }
    nt_blocks(a, m, k, packed, n, &mut scratch.row, c, out);
}

/// The lane kernel on `B` packed in blocks of `J` rows: `bt[jb·k + kk][jj]`
/// holds `b[jb·J + jj][kk]`.
///
/// # Panics
///
/// Panics unless `rows` is one segment of `k` or a whole number of
/// segments.
#[allow(clippy::too_many_arguments)]
fn nt_blocks<const J: usize, F: Fn(usize) -> usize>(
    rows: NtRows<F>,
    m: usize,
    k: usize,
    bt: &[[f32; J]],
    n: usize,
    buf: &mut Vec<f32>,
    c: &mut [f32],
    out: impl Fn(usize, usize) -> usize,
) {
    assert!(rows.seg == k || k.is_multiple_of(rows.seg), "gemm_nt: bad segments");
    let main = k / 8 * 8;
    for i in 0..m {
        let (ach, arem) = rows.row(i, k, buf).as_chunks::<8>();
        for jb in 0..n.div_ceil(J) {
            let (bmain, brem) = bt[jb * k..][..k].split_at(main);
            let mut lanes = [[0.0f32; J]; 8];
            for (av, bv) in ach.iter().zip(bmain.as_chunks::<8>().0) {
                for l in 0..8 {
                    for jj in 0..J {
                        lanes[l][jj] += av[l] * bv[l][jj];
                    }
                }
            }
            let mut acc: [f32; J] = std::array::from_fn(|jj| {
                let ln: [f32; 8] = std::array::from_fn(|l| lanes[l][jj]);
                ((ln[0] + ln[4]) + (ln[2] + ln[6])) + ((ln[1] + ln[5]) + (ln[3] + ln[7]))
            });
            for (&av, bv) in arem.iter().zip(brem) {
                for jj in 0..J {
                    acc[jj] += av * bv[jj];
                }
            }
            for (jj, v) in acc.into_iter().enumerate().take(n - jb * J) {
                c[out(i, jb * J + jj)] += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::kaiming(&[rows, cols], cols.max(1), &mut rng).data().to_vec()
    }

    /// The naive triple loop in the documented `nn`/`tn` order:
    /// `c[i][j] = c[i][j] + a(i, kk)·b(kk, j)` for ascending `kk`.
    fn naive_ascending_k(
        a: impl Fn(usize, usize) -> f32,
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for kk in 0..k {
                    acc += a(i, kk) * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// The naive `nt` loop in the documented lane order.
    fn naive_lanes(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let main = k / 8 * 8;
        for i in 0..m {
            for j in 0..n {
                let mut lanes = [0.0f32; 8];
                for kk in 0..main {
                    lanes[kk % 8] += a[i * k + kk] * b[j * k + kk];
                }
                let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
                    + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
                for kk in main..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                c[i * n + j] += acc;
            }
        }
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}: {g} vs {w}");
        }
    }

    /// Tile edges (`m % MR`, `n % NR` non-zero), short and ragged `k`
    /// (`k < 8`, `k % 8 ≠ 0`, `k = 0`), single rows, and the conv
    /// shapes of the default DQN trunk.
    const SHAPES: [(usize, usize, usize); 14] = [
        (1, 1, 1),
        (1, 37, 19),
        (3, 5, 7),
        (5, 0, 9),
        (4, 8, 8),
        (6, 13, 11),
        (7, 3, 17),
        (9, 29, 15),
        (13, 64, 33),
        (8, 18, 256),
        (8, 72, 256),
        (16, 144, 64),
        (32, 288, 16),
        (72, 16, 9),
    ];

    #[test]
    fn nn_is_the_ascending_k_loop_bit_for_bit() {
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = rand_mat(m, k, 3 * s as u64);
            let b = rand_mat(k, n, 3 * s as u64 + 1);
            let mut got = rand_mat(m, n, 3 * s as u64 + 2);
            let mut want = got.clone();
            gemm_nn(&a, &b, &mut got, m, k, n);
            naive_ascending_k(|i, kk| a[i * k + kk], &b, &mut want, m, k, n);
            assert_bits(&format!("nn {m}x{k}x{n}"), &got, &want);
        }
    }

    #[test]
    fn tn_is_the_ascending_k_loop_bit_for_bit() {
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = rand_mat(k, m, 3 * s as u64 + 5);
            let b = rand_mat(k, n, 3 * s as u64 + 6);
            let mut got = rand_mat(m, n, 3 * s as u64 + 7);
            let mut want = got.clone();
            gemm_tn(&a, &b, &mut got, m, k, n);
            naive_ascending_k(|i, kk| a[kk * m + i], &b, &mut want, m, k, n);
            assert_bits(&format!("tn {m}x{k}x{n}"), &got, &want);
        }
    }

    #[test]
    fn nt_is_the_eight_lane_dot_bit_for_bit() {
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = rand_mat(m, k, 3 * s as u64 + 9);
            let b = rand_mat(n, k, 3 * s as u64 + 10);
            let mut got = rand_mat(m, n, 3 * s as u64 + 11);
            let mut want = got.clone();
            gemm_nt(&a, &b, &mut got, m, k, n);
            naive_lanes(&a, &b, &mut want, m, k, n);
            assert_bits(&format!("nt {m}x{k}x{n}"), &got, &want);
        }
    }

    /// Both `nt_packed` orientations (either operand packed, output
    /// stored transposed for the swapped one) and row operands given as
    /// strided segments, gathered per row, against the documented lane
    /// order on every shape.
    #[test]
    fn nt_orientations_and_segmented_rows_are_the_eight_lane_dot_bit_for_bit() {
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = rand_mat(m, k, 3 * s as u64 + 13);
            let b = rand_mat(n, k, 3 * s as u64 + 14);
            let c0 = rand_mat(m, n, 3 * s as u64 + 15);
            let mut want = c0.clone();
            naive_lanes(&a, &b, &mut want, m, k, n);
            let mut scratch = NtScratch::default();

            let (ra, rb) = (|| NtRows::dense(&a, k), || NtRows::dense(&b, k));
            let mut got = c0.clone();
            nt_packed(ra(), m, k, rb(), n, &mut scratch, &mut got, |i, j| i * n + j);
            assert_bits(&format!("nt packed B {m}x{k}x{n}"), &got, &want);

            let mut got = c0.clone();
            nt_packed(rb(), n, k, ra(), m, &mut scratch, &mut got, |j, i| i * n + j);
            assert_bits(&format!("nt packed A {m}x{k}x{n}"), &got, &want);

            // Rows of `A` in segments of every divisor of k, each
            // segment followed by a gap of three values.
            for seg in (1..k).filter(|seg| k % seg == 0) {
                let stride = seg + 3;
                let per_row = k / seg * stride;
                let mut v = vec![f32::NAN; m * per_row];
                for i in 0..m {
                    for (q, chunk) in a[i * k..][..k].chunks_exact(seg).enumerate() {
                        v[i * per_row + q * stride..][..seg].copy_from_slice(chunk);
                    }
                }
                let rows = NtRows { v: &v, base: |i| i * per_row, seg, stride };
                let mut got = c0.clone();
                nt_packed(rows, m, k, rb(), n, &mut scratch, &mut got, |i, j| i * n + j);
                assert_bits(&format!("nt segments of {seg} {m}x{k}x{n}"), &got, &want);
            }
        }
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-4 * 1.0f32.max(w.abs()), "mismatch at {i}: {g} vs {w}");
        }
    }

    #[test]
    fn nn_matches_reference_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (17, 33, 9), (8, 72, 256)] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let mut c = vec![0.1; m * n];
            let mut r = c.clone();
            gemm_nn(&a, &b, &mut c, m, k, n);
            reference::matmul_nn(&a, &b, &mut r, m, k, n);
            assert_close(&c, &r);
        }
    }

    #[test]
    fn nt_matches_reference_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (4, 9, 3), (5, 70, 11), (16, 256, 72)] {
            let a = rand_mat(m, k, 3);
            let b = rand_mat(n, k, 4);
            let mut c = vec![-0.2; m * n];
            let mut r = c.clone();
            gemm_nt(&a, &b, &mut c, m, k, n);
            reference::matmul_nt(&a, &b, &mut r, m, k, n);
            assert_close(&c, &r);
        }
    }

    #[test]
    fn tn_matches_reference_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (6, 5, 4), (72, 16, 256), (13, 29, 7)] {
            let a = rand_mat(k, m, 5);
            let b = rand_mat(k, n, 6);
            let mut c = vec![0.0; m * n];
            let mut r = c.clone();
            gemm_tn(&a, &b, &mut c, m, k, n);
            reference::matmul_tn(&a, &b, &mut r, m, k, n);
            assert_close(&c, &r);
        }
    }

    #[test]
    fn kernels_accumulate_instead_of_overwrite() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![10.0];
        gemm_nn(&a, &b, &mut c, 1, 2, 1);
        assert_eq!(c, vec![10.0 + 3.0 + 8.0]);
    }
}
