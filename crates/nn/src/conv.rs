//! 2-D convolution with stride and zero padding (NCHW), run as GEMM
//! register tiles over the lowered input.

use crate::gemm::{self, NtRows, NtScratch};
use crate::im2col::Lowering;
use crate::layer::{Layer, Param};
use crate::stats::{self, Op};
use crate::tensor::Tensor;
use rand::Rng;
use std::time::Instant;

/// Output maps from this many positions up pack the output gradient
/// for the weight-gradient lane kernel and stream the patches; smaller
/// ones pack the patches.
const PACK_G: usize = 64;

/// A 2-D convolution layer on the shared dense kernels.
///
/// Each sample is lowered (`im2col::Lowering`: zero-padded, split into
/// stride phases) so that every weight tap of every output row is one
/// contiguous slice; no patch matrix is built. The forward runs
/// register tiles in the `gemm_nn` order that read those slices as
/// their `B` rows; the weight gradient is the `gemm_nt` lane kernel
/// with the patch rows read from the lowered input; the input gradient
/// runs tiles in the `gemm_tn` order whose column-space values go
/// straight onto a lowered gradient, raised back at the end. All
/// scratch is owned by the layer and reused, and everything runs on
/// the calling thread. Debug builds replay every call through the
/// retained naive kernels in [`crate::reference`] and assert
/// near-equality.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
    /// `Wᵀ`, `[in_c·k²][out_c]`, rebuilt by every forward.
    wt_t: Vec<f32>,
    /// `W` reordered to `[ky·k+kx][out_c][in_c]`, rebuilt by every
    /// backward.
    wt_k: Vec<f32>,
    /// Lowered input of one sample, laid out for `lowered_for`.
    lowered: Vec<f32>,
    lowered_for: Option<Lowering>,
    /// Lowered input gradient of one sample.
    lowered_dx: Vec<f32>,
    /// [`Lowering::tap`] offsets in weight order.
    taps: Vec<usize>,
    /// Lane-kernel buffers for the weight gradient.
    nt: NtScratch,
}

impl Conv2d {
    /// A `k × k` convolution from `in_c` to `out_c` channels with the
    /// given stride and padding, Kaiming-initialized.
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_c * k * k;
        Conv2d {
            weight: Param::new(Tensor::kaiming(&[out_c, in_c, k, k], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            in_c,
            out_c,
            k,
            stride,
            pad,
            cached_input: None,
            wt_t: Vec::new(),
            wt_k: Vec::new(),
            lowered: Vec::new(),
            lowered_for: None,
            lowered_dx: Vec::new(),
            taps: Vec::new(),
            nt: NtScratch::default(),
        }
    }

    /// The lowering of an `h × w` input, with `taps` and the lowered
    /// input buffer sized for it.
    fn lowering(&mut self, h: usize, w: usize) -> Lowering {
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "Conv2d: kernel {k} exceeds padded input {h}x{w} (pad {p})",
            k = self.k,
            h = h,
            w = w,
            p = self.pad
        );
        let low = Lowering::new(self.in_c, h, w, self.k, self.stride, self.pad);
        if self.lowered_for != Some(low) {
            // A new layout: zero its padding, which `lower` never writes.
            low.taps(&mut self.taps);
            self.lowered.clear();
            self.lowered.resize(low.len(), 0.0);
            self.lowered_for = Some(low);
        }
        low
    }

    /// The convolution itself, without input caching. Shared by the
    /// borrowing and owning forward paths.
    fn forward_impl(&mut self, x: &Tensor) -> Tensor {
        let t0 = Instant::now();
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        let low = self.lowering(h, w);
        let (ickk, ohow) = (self.in_c * self.k * self.k, low.oh * low.ow);
        let mut y = Tensor::zeros(&[n, self.out_c, low.oh, low.ow]);
        let wt = self.weight.value.data();
        transpose(wt, self.out_c, ickk, &mut self.wt_t);
        let bs = self.bias.value.data();
        for (xs, ys) in
            x.data().chunks_exact(c * h * w).zip(y.data_mut().chunks_exact_mut(self.out_c * ohow))
        {
            low.lower(xs, &mut self.lowered);
            forward_sample(&self.wt_t, bs, &self.lowered, &self.taps, &low, ys);
        }

        #[cfg(debug_assertions)]
        {
            let naive = crate::reference::conv2d_forward(
                x.data(),
                wt,
                bs,
                n,
                self.in_c,
                h,
                w,
                self.out_c,
                self.k,
                self.stride,
                self.pad,
            );
            crate::reference::assert_close("Conv2d::forward", y.data(), &naive);
        }
        let flops = 2 * n as u64 * (self.out_c * ohow * ickk) as u64;
        stats::record(Op::ConvForward, flops, t0.elapsed());
        y
    }
}

/// The segments `(ox, width)` that tile one output row: 16 wide, then
/// one each of 8, 4, 2 and 1 for the rest. A segment is one contiguous
/// run of each tap's lowered row.
fn segments(ow: usize) -> Vec<(usize, usize)> {
    let mut segs: Vec<_> = (0..ow / 16).map(|q| (16 * q, 16)).collect();
    let mut ox = ow / 16 * 16;
    for width in [8, 4, 2, 1] {
        if ox + width <= ow {
            segs.push((ox, width));
            ox += width;
        }
    }
    segs
}

/// Runs `$tiles::<R, C>($args…)` for a segment `$width` wide, with `R`
/// sized so that the `R·C` accumulators stay at most 8 vectors.
macro_rules! for_segment {
    ($width:expr, $tiles:ident($($arg:expr),*)) => {
        match $width {
            16 => $tiles::<2, 16>($($arg),*),
            8 => $tiles::<4, 8>($($arg),*),
            4 => $tiles::<8, 4>($($arg),*),
            2 => $tiles::<8, 2>($($arg),*),
            _ => $tiles::<8, 1>($($arg),*),
        }
    };
}

/// One output-row segment: where it starts in a lowered tap
/// (`oy·pw + ox`) and in an `ohow`-long output map (`oy·ow + ox`).
#[derive(Clone, Copy)]
struct Segment {
    row: usize,
    col: usize,
    ohow: usize,
}

impl Segment {
    fn new(low: &Lowering, oy: usize, ox: usize) -> Self {
        Segment { row: oy * low.pw + ox, col: oy * low.ow + ox, ohow: low.oh * low.ow }
    }
}

/// One sample's forward: `y[oc][oy][ox] = bias[oc]` plus the products
/// `W[oc][ic,ky,kx] · x[…]` in ascending `(ic, ky, kx)` — the
/// `gemm_nn` order — in tiles of `R` channels by one segment, each
/// tap's inputs one slice of `lowered`. `wt_t` is `Wᵀ`,
/// `[ic·k·k][out_c]`, so a tile's weights for one tap are `R`
/// neighbours.
fn forward_sample(
    wt_t: &[f32],
    bias: &[f32],
    lowered: &[f32],
    taps: &[usize],
    low: &Lowering,
    y: &mut [f32],
) {
    let segs = segments(low.ow);
    for oy in 0..low.oh {
        for &(ox, width) in &segs {
            let seg = Segment::new(low, oy, ox);
            for_segment!(width, forward_tiles(wt_t, bias, lowered, taps, seg, y));
        }
    }
}

/// All output channels of one segment: tiles of `R`, then single
/// channels.
fn forward_tiles<const R: usize, const C: usize>(
    wt_t: &[f32],
    bias: &[f32],
    lowered: &[f32],
    taps: &[usize],
    seg: Segment,
    y: &mut [f32],
) {
    let main = bias.len() - bias.len() % R;
    for i in (0..main).step_by(R) {
        forward_tile::<R, C>(wt_t, bias, lowered, taps, seg, y, i);
    }
    for i in main..bias.len() {
        forward_tile::<1, C>(wt_t, bias, lowered, taps, seg, y, i);
    }
}

#[inline(always)]
fn forward_tile<const R: usize, const C: usize>(
    wt_t: &[f32],
    bias: &[f32],
    lowered: &[f32],
    taps: &[usize],
    seg: Segment,
    y: &mut [f32],
    i: usize,
) {
    let mut acc: [[f32; C]; R] = std::array::from_fn(|r| [bias[i + r]; C]);
    let weights = wt_t.chunks_exact(bias.len()).map(|w| *gemm::chunk::<R>(w, i));
    gemm::tile_k(weights.zip(taps.iter().map(|&t| t + seg.row)), lowered, &mut acc);
    for (r, out) in acc.iter().enumerate() {
        y[(i + r) * seg.ohow + seg.col..][..C].copy_from_slice(out);
    }
}

/// One sample's input gradient, added onto `lowered_dx`. Each
/// column-space value `Σ W[oc][ic,ky,kx] · g[oc][p]` sums ascending
/// `oc` from `+0.0` (the `gemm_tn` order) in tiles of `R` input
/// channels by one segment, and goes straight onto its lowered
/// position. Taps `(ky, kx)` run outermost and ascending, so every
/// element receives its taps in the order `col2im` adds them; one
/// tap's channels and positions all reach distinct elements. `wt_k` is
/// `W` reordered to `[ky·k+kx][oc][ic]`, so a tile's weights for one
/// `oc` are `R` neighbours.
fn dx_sample(
    wt_k: &[f32],
    in_c: usize,
    gs: &[f32],
    taps: &[usize],
    low: &Lowering,
    lowered_dx: &mut [f32],
) {
    let kk = taps.len() / in_c;
    let segs = segments(low.ow);
    for (t, wt) in wt_k.chunks_exact(wt_k.len() / kk).enumerate() {
        // Tap t of input channel ic.
        let tap = |ic: usize| taps[ic * kk + t];
        for oy in 0..low.oh {
            for &(ox, width) in &segs {
                let seg = Segment::new(low, oy, ox);
                for_segment!(width, dx_tiles(wt, in_c, gs, &tap, seg, lowered_dx));
            }
        }
    }
}

/// All input channels of one tap and segment: tiles of `R`, then
/// single channels.
fn dx_tiles<const R: usize, const C: usize>(
    wt: &[f32],
    in_c: usize,
    gs: &[f32],
    tap: &impl Fn(usize) -> usize,
    seg: Segment,
    lowered_dx: &mut [f32],
) {
    let main = in_c - in_c % R;
    for ic in (0..main).step_by(R) {
        dx_tile::<R, C>(wt, in_c, gs, tap, seg, lowered_dx, ic);
    }
    for ic in main..in_c {
        dx_tile::<1, C>(wt, in_c, gs, tap, seg, lowered_dx, ic);
    }
}

#[inline(always)]
fn dx_tile<const R: usize, const C: usize>(
    wt: &[f32],
    in_c: usize,
    gs: &[f32],
    tap: &impl Fn(usize) -> usize,
    seg: Segment,
    lowered_dx: &mut [f32],
    ic: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    let weights = wt.chunks_exact(in_c).map(|w| *gemm::chunk::<R>(w, ic));
    gemm::tile_k(weights.zip((0..).map(|oc| oc * seg.ohow + seg.col)), gs, &mut acc);
    for (r, out) in acc.iter().enumerate() {
        for (d, &v) in lowered_dx[tap(ic + r) + seg.row..][..C].iter_mut().zip(out) {
            *d += v;
        }
    }
}

/// Writes the transpose of the `rows × cols` matrix `m` into `out`.
fn transpose(m: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    out.resize(rows * cols, 0.0);
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

/// Writes `W` (`[out_c][in_c][kk]`) reordered to `[kk][out_c][in_c]`
/// into `out`.
fn by_tap(m: &[f32], out_c: usize, in_c: usize, kk: usize, out: &mut Vec<f32>) {
    out.resize(m.len(), 0.0);
    for (oc, row) in m.chunks_exact(in_c * kk).enumerate() {
        for (ic, taps) in row.chunks_exact(kk).enumerate() {
            for (t, &v) in taps.iter().enumerate() {
                out[(t * out_c + oc) * in_c + ic] = v;
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.forward_impl(x);
        if train {
            self.cached_input = Some(x.clone());
        }
        y
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = self.forward_impl(&x);
        if train {
            self.cached_input = Some(x);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let t0 = Instant::now();
        let x = self.cached_input.take().expect("forward(train) before backward");
        let (n, _, h, w) = x.dims4();
        let low = self.lowering(h, w);
        let (oh, ow, pw) = (low.oh, low.ow, low.pw);
        let (ickk, ohow) = (self.in_c * self.k * self.k, oh * ow);
        let sample_in = self.in_c * h * w;
        let sample_out = self.out_c * ohow;
        let mut dx = Tensor::zeros(x.shape());
        let xd = x.data();
        let gd = grad_out.data();

        #[cfg(debug_assertions)]
        let (dw_before, db_before) =
            (self.weight.grad.data().to_vec(), self.bias.grad.data().to_vec());

        // db: per-channel sums of the output gradient.
        {
            let db = self.bias.grad.data_mut();
            for gs in gd.chunks_exact(sample_out) {
                for (oc, grow) in gs.chunks_exact(ohow).enumerate() {
                    db[oc] += grow.iter().sum::<f32>();
                }
            }
        }

        let wt = self.weight.value.data();
        by_tap(wt, self.out_c, self.in_c, self.k * self.k, &mut self.wt_k);
        let dw = self.weight.grad.data_mut();
        self.lowered_dx.resize(low.len(), 0.0);
        let taps = &self.taps;
        for ((xs, gs), dxs) in xd
            .chunks_exact(sample_in)
            .zip(gd.chunks_exact(sample_out))
            .zip(dx.data_mut().chunks_exact_mut(sample_in))
        {
            // dW += g·colsᵀ in the gemm_nt lane order, one operand
            // packed: the patch rows read from the lowered input.
            low.lower(xs, &mut self.lowered);
            let patches = NtRows { v: &self.lowered, base: |r| taps[r], seg: ow, stride: pw };
            let g = NtRows { v: gs, base: |oc| oc * ohow, seg: ohow, stride: ohow };
            let nt = &mut self.nt;
            if ohow >= PACK_G {
                gemm::nt_packed(patches, ickk, ohow, g, self.out_c, nt, dw, |r, oc| oc * ickk + r);
            } else {
                gemm::nt_packed(g, self.out_c, ohow, patches, ickk, nt, dw, |oc, r| oc * ickk + r);
            }
            self.lowered_dx.fill(0.0);
            dx_sample(&self.wt_k, self.in_c, gs, taps, &low, &mut self.lowered_dx);
            low.raise(&self.lowered_dx, dxs);
        }

        #[cfg(debug_assertions)]
        {
            let mut dw_ref = dw_before;
            let mut db_ref = db_before;
            let dx_ref = crate::reference::conv2d_backward(
                xd,
                gd,
                self.weight.value.data(),
                &mut dw_ref,
                &mut db_ref,
                n,
                self.in_c,
                h,
                w,
                self.out_c,
                self.k,
                self.stride,
                self.pad,
            );
            crate::reference::assert_close("Conv2d::backward dx", dx.data(), &dx_ref);
            crate::reference::assert_close("Conv2d::backward dW", self.weight.grad.data(), &dw_ref);
            crate::reference::assert_close("Conv2d::backward db", self.bias.grad.data(), &db_ref);
        }
        let flops = 4 * n as u64 * (self.out_c * ohow * ickk) as u64;
        stats::record(Op::ConvBackward, flops, t0.elapsed());
        self.cached_input = Some(x);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The input value under tap `(ky, kx)` of output `(oy, ox)` of
    /// channel `ic`, or `0.0` on padding.
    fn tap_input(
        x: &[f32],
        (h, w, stride, pad): (usize, usize, usize, usize),
        (ic, ky, kx): (usize, usize, usize),
        (oy, ox): (usize, usize),
    ) -> f32 {
        let iy = (oy * stride + ky).checked_sub(pad).filter(|&i| i < h);
        let ix = (ox * stride + kx).checked_sub(pad).filter(|&i| i < w);
        iy.zip(ix).map_or(0.0, |(iy, ix)| x[(ic * h + iy) * w + ix])
    }

    /// `Conv2d` written as naive loops in the documented order: the
    /// forward adds `bias` then every tap product (padding as explicit
    /// zero products) in ascending `(ic, ky, kx)`; the weight gradient
    /// is the `gemm_nt` eight-lane dot over output positions per
    /// sample; the input gradient sums each column-space value over
    /// ascending `oc` from zero and adds those to each input element in
    /// ascending `(ky, kx)`, as `col2im` does.
    #[allow(clippy::type_complexity)]
    fn naive(
        x: &[f32],
        g: &[f32],
        wt: &[f32],
        bias: &[f32],
        (n, in_c, out_c): (usize, usize, usize),
        geom: (usize, usize, usize, usize, usize),
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (h, w, k, stride, pad) = geom;
        let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
        let (ohow, ickk) = (oh * ow, in_c * k * k);
        let mut y = vec![0.0f32; n * out_c * ohow];
        let mut dw = vec![0.0f32; out_c * ickk];
        let mut db = vec![0.0f32; out_c];
        let mut dx = vec![0.0f32; n * in_c * h * w];
        for ni in 0..n {
            let xs = &x[ni * in_c * h * w..][..in_c * h * w];
            let gs = &g[ni * out_c * ohow..][..out_c * ohow];
            let patch = |r: usize, p: usize| {
                tap_input(
                    xs,
                    (h, w, stride, pad),
                    (r / (k * k), r / k % k, r % k),
                    (p / ow, p % ow),
                )
            };
            for oc in 0..out_c {
                for p in 0..ohow {
                    let mut acc = bias[oc];
                    for r in 0..ickk {
                        acc += wt[oc * ickk + r] * patch(r, p);
                    }
                    y[(ni * out_c + oc) * ohow + p] = acc;
                }
                db[oc] += gs[oc * ohow..][..ohow].iter().sum::<f32>();
                let main = ohow / 8 * 8;
                for r in 0..ickk {
                    let mut lanes = [0.0f32; 8];
                    for p in 0..main {
                        lanes[p % 8] += gs[oc * ohow + p] * patch(r, p);
                    }
                    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
                        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
                    for p in main..ohow {
                        acc += gs[oc * ohow + p] * patch(r, p);
                    }
                    dw[oc * ickk + r] += acc;
                }
            }
            for ic in 0..in_c {
                for iy in 0..h {
                    for ix in 0..w {
                        let mut acc = 0.0f32;
                        for ky in 0..k {
                            for kx in 0..k {
                                // The output whose tap (ky, kx) lands here.
                                let (Some(ty), Some(tx)) =
                                    ((iy + pad).checked_sub(ky), (ix + pad).checked_sub(kx))
                                else {
                                    continue;
                                };
                                if ty % stride != 0 || tx % stride != 0 {
                                    continue;
                                }
                                let (oy, ox) = (ty / stride, tx / stride);
                                if oy >= oh || ox >= ow {
                                    continue;
                                }
                                let r = (ic * k + ky) * k + kx;
                                let mut col = 0.0f32;
                                for oc in 0..out_c {
                                    col += wt[oc * ickk + r] * gs[oc * ohow + oy * ow + ox];
                                }
                                acc += col;
                            }
                        }
                        dx[((ni * in_c + ic) * h + iy) * w + ix] = acc;
                    }
                }
            }
        }
        (y, dw, db, dx)
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    /// Every lowered path — the forward segment tiles at each width,
    /// both weight-gradient orientations (`PACK_G`), the input-gradient
    /// tiles, lowering and raising — against the naive loops, bit for
    /// bit: output widths 16, 8, 4, 2 and ragged ones, strides 1 and 2,
    /// channel counts off the tile sizes, the 1×1 projection, a kernel
    /// larger than the unpadded input.
    #[test]
    fn lowered_paths_match_the_naive_loops_bit_for_bit() {
        // (n, in_c, out_c, k, stride, pad, h, w)
        let shapes = [
            (2, 2, 8, 3, 1, 1, 16, 16),
            (3, 8, 8, 3, 1, 1, 16, 16),
            (2, 8, 16, 3, 2, 1, 16, 16),
            (2, 16, 16, 3, 1, 1, 8, 8),
            (2, 8, 16, 1, 2, 0, 16, 16),
            (2, 16, 32, 3, 2, 1, 8, 8),
            (2, 32, 32, 3, 1, 1, 4, 4),
            (1, 8, 16, 3, 1, 1, 16, 8),
            (2, 16, 32, 3, 2, 1, 8, 4),
            (1, 32, 32, 3, 1, 1, 4, 2),
            (2, 3, 5, 3, 1, 1, 7, 13),
            (2, 5, 3, 3, 2, 1, 9, 23),
            (1, 3, 7, 1, 2, 0, 5, 5),
            (2, 2, 3, 5, 1, 2, 3, 2),
        ];
        let mut rng = StdRng::seed_from_u64(41);
        for &(n, in_c, out_c, k, stride, pad, h, w) in &shapes {
            let what = format!("{in_c}->{out_c} k{k} s{stride} p{pad} {h}x{w}");
            let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
            conv.bias.value = Tensor::kaiming(&[out_c], 2, &mut rng);
            let x = Tensor::kaiming(&[n, in_c, h, w], 4, &mut rng);
            let y = conv.forward(&x, true);
            let g = Tensor::kaiming(y.shape(), 4, &mut rng);
            let dx = conv.backward(&g);
            let (wt, bias) = (conv.weight.value.data(), conv.bias.value.data());
            let (y_want, dw_want, db_want, dx_want) =
                naive(x.data(), g.data(), wt, bias, (n, in_c, out_c), (h, w, k, stride, pad));
            assert_bits(&format!("{what} y"), y.data(), &y_want);
            assert_bits(&format!("{what} dW"), conv.weight.grad.data(), &dw_want);
            assert_bits(&format!("{what} db"), conv.bias.grad.data(), &db_want);
            assert_bits(&format!("{what} dx"), dx.data(), &dx_want);
        }
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.weight.value.data_mut().fill(0.0);
        conv.weight.value.data_mut()[4] = 1.0; // center tap
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn stride_two_halves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn one_by_one_kernel_is_a_channel_mix() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, &mut rng);
        conv.weight.value.data_mut().copy_from_slice(&[2.0, -1.0]);
        conv.bias.value.data_mut()[0] = 0.5;
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::kaiming(&[2, 2, 4, 4], 4, &mut rng);
        crate::testutil::grad_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn strided_gradient_check() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::kaiming(&[1, 1, 5, 5], 4, &mut rng);
        crate::testutil::grad_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn repeated_forwards_reuse_scratch_and_stay_stable() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::kaiming(&[2, 2, 5, 5], 4, &mut rng);
        let first = conv.forward(&x, false);
        for _ in 0..3 {
            // The scratch buffer is dirty after the first call; a
            // stale-data bug would show up as drift here.
            assert_eq!(conv.forward(&x, false).data(), first.data());
        }
        assert_eq!(conv.lowered.len(), 2 * 7 * 7);
    }

    #[test]
    fn eval_forward_does_not_clobber_training_cache() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x_train = Tensor::kaiming(&[2, 1, 4, 4], 4, &mut rng);
        let y = conv.forward(&x_train, true);
        conv.forward(&Tensor::kaiming(&[5, 1, 4, 4], 4, &mut rng), false);
        let dx = conv.backward(&y);
        assert_eq!(dx.shape(), x_train.shape());
    }

    #[test]
    fn kernel_exceeding_padded_input_panics_with_geometry() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut conv = Conv2d::new(1, 1, 5, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| conv.forward(&x, false)))
                .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("exceeds padded input"), "{msg}");
    }
}
