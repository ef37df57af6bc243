//! Patch-matrix lowering for convolutions (im2col / col2im).
//!
//! One NCHW sample `c×h×w` expands into a `[c·k·k, oh·ow]` column
//! matrix whose rows follow the weight layout `(ic, ky, kx)`; the
//! convolution then becomes a single [`crate::gemm::gemm_nn`] call
//! `W[oc, c·k·k] · cols`, and both gradients become one GEMM each
//! (`gemm_nt` for the weight gradient, `gemm_tn` + [`col2im`] for the
//! input gradient). Because the column rows keep the `(ic, ky, kx)`
//! order of the naive kernel loops, the GEMM accumulates every output
//! element in the same order as the reference implementation.
//!
//! Out-of-bounds taps (zero padding) are written as explicit zeros —
//! the buffer is fully overwritten on every call, so layers can reuse
//! one scratch allocation across steps without clearing it.

/// Expands one sample `x` (`c·h·w` values) into `cols`
/// (`c·k·k × oh·ow`, fully overwritten).
///
/// # Panics
///
/// Panics when the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(x.len(), c * h * w, "im2col: input length mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "im2col: column buffer length mismatch");
    let ohow = oh * ow;
    for ic in 0..c {
        let xc = &x[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic * k + ky) * k + kx;
                let out = &mut cols[row * ohow..(row + 1) * ohow];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let orow = &mut out[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy as usize >= h {
                        orow.fill(0.0);
                        continue;
                    }
                    let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                    if stride == 1 {
                        // Contiguous tap row: zero edges, one copy.
                        let ix0 = kx as isize - pad as isize;
                        let lo = (-ix0).clamp(0, ow as isize) as usize;
                        let hi = (w as isize - ix0).clamp(0, ow as isize) as usize;
                        orow[..lo].fill(0.0);
                        orow[hi..].fill(0.0);
                        if lo < hi {
                            let src0 = (lo as isize + ix0) as usize;
                            orow[lo..hi].copy_from_slice(&xrow[src0..src0 + (hi - lo)]);
                        }
                    } else {
                        for (ox, o) in orow.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            *o = if ix >= 0 && (ix as usize) < w { xrow[ix as usize] } else { 0.0 };
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a column-space gradient back onto one sample: for every
/// tap inside the image, `dx[ic, iy, ix] += cols[(ic,ky,kx), (oy,ox)]`
/// (padding taps are dropped). Inverse of [`im2col`] in the adjoint
/// sense; `dx` is accumulated into, not overwritten. Every `dx`
/// element receives its taps in ascending `(ic, ky, kx, oy, ox)` order
/// on both the strided and the contiguous stride-1 path.
///
/// # Panics
///
/// Panics when the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    dx: &mut [f32],
) {
    assert_eq!(dx.len(), c * h * w, "col2im: output length mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "col2im: column buffer length mismatch");
    let ohow = oh * ow;
    for ic in 0..c {
        let dxc = &mut dx[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic * k + ky) * k + kx;
                let src = &cols[row * ohow..(row + 1) * ohow];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let drow = &mut dxc[iy as usize * w..(iy as usize + 1) * w];
                    let srow = &src[oy * ow..(oy + 1) * ow];
                    if stride == 1 {
                        // Contiguous tap row: one slice add over the
                        // in-image span, as im2col copies it.
                        let ix0 = kx as isize - pad as isize;
                        let lo = (-ix0).clamp(0, ow as isize) as usize;
                        let hi = (w as isize - ix0).clamp(0, ow as isize) as usize;
                        if lo < hi {
                            let dst0 = (lo as isize + ix0) as usize;
                            let dst = &mut drow[dst0..dst0 + (hi - lo)];
                            for (d, &v) in dst.iter_mut().zip(&srow[lo..hi]) {
                                *d += v;
                            }
                        }
                    } else {
                        for (ox, &v) in srow.iter().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                drow[ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_geometry_copies_each_pixel_once() {
        // 1×1 kernel, stride 1, no padding: cols == x.
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut cols = vec![f32::NAN; 12];
        im2col(&x, 3, 2, 2, 1, 1, 0, 2, 2, &mut cols);
        assert_eq!(cols, x);
    }

    #[test]
    fn padding_taps_are_zero() {
        let x = vec![1.0, 2.0, 3.0, 4.0]; // 1×2×2
        let mut cols = vec![f32::NAN; 9 * 4];
        im2col(&x, 1, 2, 2, 3, 1, 1, 2, 2, &mut cols);
        // Center tap (ky=1, kx=1) reproduces the image.
        assert_eq!(&cols[4 * 4..5 * 4], &x[..]);
        // Top-left tap (ky=0, kx=0) sees padding except at (1,1).
        assert_eq!(&cols[..4], &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn strided_rows_match_scalar_path() {
        // stride 2 exercises the scalar branch; compare against a
        // hand-walked gather.
        let h = 5;
        let w = 5;
        let x: Vec<f32> = (0..(h * w)).map(|i| i as f32).collect();
        let (k, stride, pad) = (3, 2, 1);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut cols = vec![f32::NAN; k * k * oh * ow];
        im2col(&x, 1, h, w, k, stride, pad, oh, ow, &mut cols);
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let want = if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            x[iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        assert_eq!(cols[((ky * k + kx) * oh + oy) * ow + ox], want);
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), g> == <x, col2im(g)> for random-ish data — the
        // defining property of the adjoint scatter.
        let (c, h, w, k, stride, pad) = (2, 4, 4, 3, 1, 1);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let x: Vec<f32> = (0..(c * h * w)).map(|i| (i as f32 * 0.37).sin()).collect();
        let g: Vec<f32> = (0..(c * k * k * oh * ow)).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut cols = vec![0.0; g.len()];
        im2col(&x, c, h, w, k, stride, pad, oh, ow, &mut cols);
        let lhs: f32 = cols.iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut dx = vec![0.0; x.len()];
        col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut dx);
        let rhs: f32 = x.iter().zip(&dx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_matches_the_naive_scatter_bit_for_bit() {
        // The naive scatter in (ic, ky, kx, oy, ox) order, accumulating
        // into a non-zero dx; stride 1 takes the row path, stride 2
        // the per-element path. The last geometry has taps that start
        // past the right edge (k - 1 - pad > w).
        for &(c, h, w, k, stride, pad) in
            &[(2, 5, 6, 3, 1, 1), (3, 4, 4, 1, 1, 0), (2, 7, 5, 3, 2, 1), (1, 1, 1, 5, 1, 2)]
        {
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            let g: Vec<f32> = (0..(c * k * k * oh * ow)).map(|i| (i as f32 * 0.71).sin()).collect();
            let dx0: Vec<f32> = (0..(c * h * w)).map(|i| (i as f32 * 0.29).cos()).collect();
            let mut want = dx0.clone();
            for ic in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    want[(ic * h + iy as usize) * w + ix as usize] +=
                                        g[(((ic * k + ky) * k + kx) * oh + oy) * ow + ox];
                                }
                            }
                        }
                    }
                }
            }
            let mut got = dx0;
            col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "k{k} s{stride} p{pad}: dx[{i}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn taps_past_the_right_edge_are_padding() {
        // k = 5, pad = 2 on a 1×1 image: taps kx = 3, 4 start past the
        // image and must read as zeros.
        let mut cols = vec![f32::NAN; 25];
        im2col(&[7.0], 1, 1, 1, 5, 1, 2, 1, 1, &mut cols);
        let mut want = vec![0.0; 25];
        want[12] = 7.0;
        assert_eq!(cols, want);
    }

    #[test]
    fn kernel_larger_than_image_is_all_padding_but_center() {
        // k > h: legal when padding makes h + 2p ≥ k; output is 1×1.
        let x = vec![5.0]; // 1×1×1
        let mut cols = vec![f32::NAN; 9];
        im2col(&x, 1, 1, 1, 3, 1, 1, 1, 1, &mut cols);
        assert_eq!(cols, vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
