//! Patch lowering for convolutions.
//!
//! `Lowering` is what `Conv2d` runs on: one sample's input,
//! zero-padded and split into `stride × stride` phase planes, so that
//! every tap `(ic, ky, kx)` of every output row is one contiguous
//! slice. The forward, the weight gradient and the input-gradient
//! scatter read and write those slices in place of a `[c·k·k, oh·ow]`
//! patch matrix.
//!
//! [`im2col`] / [`col2im`] are that patch matrix and its adjoint
//! scatter, rows ordered `(ic, ky, kx)` like the weights: the
//! definition the lowered paths reproduce bit for bit, which the tests
//! check. Out-of-bounds taps (zero padding) are written as explicit
//! zeros — the buffer is fully overwritten on every call.

/// The phase-plane layout of one convolution's input.
///
/// Padded coordinate `(y, x)` lives in plane `(y mod s, x mod s)` of
/// its channel at `(y div s, x div s)`, so the tap `(ky, kx)` of
/// output `(oy, ox)`, padded coordinate `(oy·s + ky, ox·s + kx)`, sits
/// at row `oy + ky div s`, column `ox + kx div s` of one plane: for a
/// fixed tap and output row the `ow` values are contiguous. Only the
/// `min(s, k)` phases a tap can hit are stored, and only the
/// `oh + (k−1) div s` rows and `ow + (k−1) div s` columns a tap can
/// reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Output rows and columns.
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    /// Stored phases per axis.
    phases: usize,
    /// Rows and columns of one phase plane.
    ph: usize,
    pub(crate) pw: usize,
}

impl Lowering {
    /// The layout for a `c × h × w` input and a `k × k` kernel at the
    /// given stride and padding (`h + 2·pad ≥ k`, `w + 2·pad ≥ k`).
    pub(crate) fn new(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let reach = (k - 1) / stride;
        Lowering {
            c,
            h,
            w,
            k,
            stride,
            pad,
            oh,
            ow,
            phases: stride.min(k),
            ph: oh + reach,
            pw: ow + reach,
        }
    }

    /// Length of the lowered buffer.
    pub(crate) fn len(&self) -> usize {
        self.c * self.phases * self.phases * self.ph * self.pw
    }

    /// Offset of the first output row of tap `(ic, ky, kx)`; output row
    /// `oy` of that tap starts `oy·pw` further on.
    pub(crate) fn tap(&self, ic: usize, ky: usize, kx: usize) -> usize {
        let (s, p) = (self.stride, self.phases);
        ((ic * p + ky % s) * p + kx % s) * self.ph * self.pw + (ky / s) * self.pw + kx / s
    }

    /// [`Lowering::tap`] for every `(ic, ky, kx)` in weight order.
    pub(crate) fn taps(&self, out: &mut Vec<usize>) {
        out.clear();
        for ic in 0..self.c {
            for ky in 0..self.k {
                for kx in 0..self.k {
                    out.push(self.tap(ic, ky, kx));
                }
            }
        }
    }

    /// The plane positions `lo..hi` of phase `phase`, along an axis
    /// of `len` input values and `plane` positions, that are not
    /// padding; position `b` in it reads input `b·s + phase − pad`.
    fn span(&self, phase: usize, len: usize, plane: usize) -> (usize, usize) {
        let s = self.stride;
        let lo = self.pad.saturating_sub(phase).div_ceil(s);
        let hi = (len + self.pad).saturating_sub(phase).div_ceil(s).min(plane);
        (lo.min(hi), hi)
    }

    /// Writes the lowered form of one sample `x` (`c·h·w` values) into
    /// `out` (`len()` values). Only the positions an input value lands
    /// on are written: the padding positions must already hold zeros,
    /// which every `lower` of the same layout leaves in place.
    pub(crate) fn lower(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.c * self.h * self.w, "lower: input length mismatch");
        assert_eq!(out.len(), self.len(), "lower: buffer length mismatch");
        let (s, pad) = (self.stride, self.pad);
        let mut planes = out.chunks_exact_mut(self.ph * self.pw);
        for xc in x.chunks_exact(self.h * self.w) {
            for py in 0..self.phases {
                let (a_lo, a_hi) = self.span(py, self.h, self.ph);
                for px in 0..self.phases {
                    let (b_lo, b_hi) = self.span(px, self.w, self.pw);
                    let plane = planes.next().expect("one plane per channel and phase");
                    if b_lo == b_hi {
                        continue;
                    }
                    for a in a_lo..a_hi {
                        let xrow = &xc[(a * s + py - pad) * self.w..][..self.w];
                        let prow = &mut plane[a * self.pw..][b_lo..b_hi];
                        let x0 = b_lo * s + px - pad;
                        if s == 1 {
                            prow.copy_from_slice(&xrow[x0..][..prow.len()]);
                        } else {
                            for (v, &x) in prow.iter_mut().zip(xrow[x0..].iter().step_by(s)) {
                                *v = x;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The inverse of [`Lowering::lower`] for a gradient: overwrites
    /// each element of `dx` (`c·h·w`) with its plane position in
    /// `lowered`, or `+0.0` where no tap reaches it.
    pub(crate) fn raise(&self, lowered: &[f32], dx: &mut [f32]) {
        assert_eq!(dx.len(), self.c * self.h * self.w, "raise: output length mismatch");
        assert_eq!(lowered.len(), self.len(), "raise: buffer length mismatch");
        let (s, pad) = (self.stride, self.pad);
        if s > 1 {
            // Positions of a phase no tap hits stay zero.
            dx.fill(0.0);
        }
        let mut planes = lowered.chunks_exact(self.ph * self.pw);
        for dxc in dx.chunks_exact_mut(self.h * self.w) {
            for py in 0..self.phases {
                let (a_lo, a_hi) = self.span(py, self.h, self.ph);
                for px in 0..self.phases {
                    let (b_lo, b_hi) = self.span(px, self.w, self.pw);
                    let plane = planes.next().expect("one plane per channel and phase");
                    if b_lo == b_hi {
                        continue;
                    }
                    for a in a_lo..a_hi {
                        let drow = &mut dxc[(a * s + py - pad) * self.w..][..self.w];
                        let prow = &plane[a * self.pw..][b_lo..b_hi];
                        let x0 = b_lo * s + px - pad;
                        if s == 1 {
                            drow[x0..][..prow.len()].copy_from_slice(prow);
                        } else {
                            for (d, &v) in drow[x0..].iter_mut().step_by(s).zip(prow) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

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

    /// `(c, h, w, k, stride, pad)` covering output widths 16, 8, 4,
    /// 2 and ragged ones, strides 1 to 3, kernels of 1, 3 and 5 (one
    /// larger than the unpadded input) and padding wider than the
    /// kernel's reach.
    const GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 10] = [
        (2, 16, 16, 3, 1, 1),
        (8, 16, 16, 3, 2, 1),
        (8, 16, 16, 1, 2, 0),
        (16, 8, 8, 3, 1, 1),
        (16, 8, 4, 3, 2, 1),
        (3, 4, 2, 3, 1, 1),
        (2, 7, 13, 3, 2, 1),
        (1, 9, 11, 5, 3, 2),
        (2, 3, 2, 5, 1, 2),
        (1, 4, 5, 1, 1, 1),
    ];

    fn values(len: usize, salt: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * salt).sin()).collect()
    }

    /// Every tap's lowered row segments are the patch matrix row, bit
    /// for bit, including after a previous sample filled the buffer.
    #[test]
    fn lowered_taps_are_the_patch_matrix_rows() {
        for &(c, h, w, k, stride, pad) in &GEOMETRIES {
            let low = Lowering::new(c, h, w, k, stride, pad);
            let (oh, ow) = (low.oh, low.ow);
            let mut taps = Vec::new();
            low.taps(&mut taps);
            let mut lowered = vec![0.0; low.len()];
            for salt in [0.37, 0.91] {
                let x = values(c * h * w, salt);
                low.lower(&x, &mut lowered);
                let mut cols = vec![f32::NAN; c * k * k * oh * ow];
                im2col(&x, c, h, w, k, stride, pad, oh, ow, &mut cols);
                for (r, &tap) in taps.iter().enumerate() {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let got = lowered[tap + oy * low.pw + ox];
                            let want = cols[(r * oh + oy) * ow + ox];
                            assert_eq!(got.to_bits(), want.to_bits(), "{c}x{h}x{w} k{k} s{stride}");
                        }
                    }
                }
            }
        }
    }

    /// Adding column-space rows onto their lowered positions in
    /// ascending row order and raising the result is `col2im`, bit for
    /// bit.
    #[test]
    fn raised_scatter_is_col2im() {
        for &(c, h, w, k, stride, pad) in &GEOMETRIES {
            let low = Lowering::new(c, h, w, k, stride, pad);
            let (oh, ow) = (low.oh, low.ow);
            let mut taps = Vec::new();
            low.taps(&mut taps);
            let g = values(c * k * k * oh * ow, 0.71);
            let mut lowered = vec![0.0; low.len()];
            for (grow, &tap) in g.chunks_exact(oh * ow).zip(&taps) {
                for (oy, seg) in grow.chunks_exact(ow).enumerate() {
                    for (d, &v) in lowered[tap + oy * low.pw..][..ow].iter_mut().zip(seg) {
                        *d += v;
                    }
                }
            }
            let mut got = vec![f32::NAN; c * h * w];
            low.raise(&lowered, &mut got);
            let mut want = vec![0.0; c * h * w];
            col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut want);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{c}x{h}x{w} k{k} s{stride}: dx[{i}]");
            }
        }
    }

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
