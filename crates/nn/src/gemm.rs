//! Shared dense matrix kernels for every layer in this crate.
//!
//! Three f32 GEMM variants cover the whole forward and backward hot
//! path once convolutions are lowered through im2col:
//!
//! * [`gemm_nn`] — `C += A·B` (convolution forward, `Linear`
//!   input-gradient),
//! * [`gemm_nt`] — `C += A·Bᵀ` (`Linear` forward, convolution
//!   weight-gradient),
//! * [`gemm_tn`] — `C += Aᵀ·B` (`Linear` weight-gradient, convolution
//!   input-gradient into column space).
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
//!   It runs on a transposed copy of `B`, `NT_J` outputs per vector.
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

/// Covers the `m × n` output with column panels `NR` wide, then one
/// `NR / 2` panel and single columns for the ragged right edge. Panels
/// are outermost so one `k × C` slab of `B` stays in L1 across the
/// panel's row tiles.
fn tiled(a: Strided, b: &[f32], c: &mut [f32], m: usize, n: usize) {
    let mut j = 0;
    while j + NR <= n {
        panel::<NR>(a, b, c, m, n, j);
        j += NR;
    }
    if j + NR / 2 <= n {
        panel::<{ NR / 2 }>(a, b, c, m, n, j);
        j += NR / 2;
    }
    for j in j..n {
        panel::<1>(a, b, c, m, n, j);
    }
}

/// One `C`-wide column panel: `MR`-row tiles, then single rows.
fn panel<const C: usize>(a: Strided, b: &[f32], c: &mut [f32], m: usize, n: usize, j: usize) {
    let m_main = m - m % MR;
    for i in (0..m_main).step_by(MR) {
        tile::<MR, C>(a, b, c, n, i, j);
    }
    for i in m_main..m {
        tile::<1, C>(a, b, c, n, i, j);
    }
}

/// Accumulates the full `k` loop into the `R × C` block of `C` whose
/// top-left element is `(i, j)`: loaded once, stored once.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Strided,
    b: &[f32],
    c: &mut [f32],
    n: usize,
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i + r) * n + j..][..C]);
    }
    for (kk, brow) in b.chunks_exact(n).enumerate() {
        let brow = &brow[j..j + C];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a.a[(i + r) * a.row + kk * a.col];
            for (cv, &bv) in row.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..C].copy_from_slice(row);
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`, row-major.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, k * n, m * n);
    tiled(Strided { a, row: k, col: 1 }, b, c, m, n);
}

/// `C[m×n] += A[k×m]ᵀ · B[k×n]`, row-major.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, k * m, k * n, m * n);
    tiled(Strided { a, row: 1, col: m }, b, c, m, n);
}

/// Columns of `C` per packed `gemm_nt` block: one 4-lane vector.
const NT_J: usize = 4;

/// `C[m×n] += A[m×k] · B[n×k]ᵀ`, row-major: one eight-lane dot
/// product per output element (see the order contract above).
///
/// From `NT_J` rows of `A` up, `B` is first packed transposed in
/// blocks of `NT_J` rows (zero rows pad the last block; their results
/// are discarded), so each lane accumulator holds one lane of `NT_J`
/// neighbouring outputs and the inner loop is a broadcast of
/// `a[i][kk]` times one contiguous load. Fewer rows do not repay the
/// packing and run on `B` as it is, in blocks of one row.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, n * k, m * n);
    if m < NT_J {
        return nt_blocks(a, b.as_chunks::<1>().0, c, m, k, n);
    }
    let mut bt = vec![[0.0f32; NT_J]; n.div_ceil(NT_J) * k];
    for j in 0..n {
        for (t, &v) in bt[j / NT_J * k..][..k].iter_mut().zip(&b[j * k..][..k]) {
            t[j % NT_J] = v;
        }
    }
    nt_blocks(a, &bt, c, m, k, n);
}

/// `gemm_nt` on `B` packed in blocks of `J` rows: `bt[jb·k + kk][jj]`
/// holds `b[jb·J + jj][kk]`.
fn nt_blocks<const J: usize>(
    a: &[f32],
    bt: &[[f32; J]],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let main = k / 8 * 8;
    for i in 0..m {
        let (ach, arem) = a[i * k..(i + 1) * k].as_chunks::<8>();
        for (jb, cblk) in c[i * n..(i + 1) * n].chunks_mut(J).enumerate() {
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
            for (cv, v) in cblk.iter_mut().zip(acc) {
                *cv += v;
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
