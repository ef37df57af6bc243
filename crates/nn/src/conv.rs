//! 2-D convolution with stride and zero padding (NCHW), lowered to
//! GEMM through im2col.

use crate::gemm;
use crate::im2col::{col2im, im2col};
use crate::layer::{Layer, Param};
use crate::stats::{self, Op};
use crate::tensor::Tensor;
use rand::Rng;
use std::time::Instant;

/// A 2-D convolution layer on the shared dense kernels.
///
/// Forward expands each sample into a `[in_c·k², oh·ow]` patch matrix
/// (scratch buffer reused across steps) and runs one
/// [`gemm::gemm_nn`] per sample; backward likewise reduces to one
/// [`gemm::gemm_nt`] (weight gradient) and one [`gemm::gemm_tn`] +
/// [`col2im`] (input gradient) per sample, all on the calling thread.
/// Debug builds replay every call through the retained naive kernels
/// in [`crate::reference`] and assert near-equality.
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
    /// im2col scratch, `[in_c·k², oh·ow]`, reused across calls.
    cols: Vec<f32>,
    /// Column-space gradient scratch of the same size.
    dcols: Vec<f32>,
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
            cols: Vec::new(),
            dcols: Vec::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "Conv2d: kernel {k} exceeds padded input {h}x{w} (pad {p})",
            k = self.k,
            h = h,
            w = w,
            p = self.pad
        );
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// The convolution itself, without input caching. Shared by the
    /// borrowing and owning forward paths.
    fn forward_impl(&mut self, x: &Tensor) -> Tensor {
        let t0 = Instant::now();
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let (ickk, ohow) = (self.in_c * self.k * self.k, oh * ow);
        let sample_in = c * h * w;
        let sample_out = self.out_c * ohow;
        let mut y = Tensor::zeros(&[n, self.out_c, oh, ow]);
        let wt = self.weight.value.data();
        let bs = self.bias.value.data();
        let xd = x.data();

        let mut cols = std::mem::take(&mut self.cols);
        cols.resize(ickk * ohow, 0.0);
        for ni in 0..n {
            let xs = &xd[ni * sample_in..(ni + 1) * sample_in];
            let ys = &mut y.data_mut()[ni * sample_out..(ni + 1) * sample_out];
            im2col(xs, c, h, w, self.k, self.stride, self.pad, oh, ow, &mut cols);
            for (oc, row) in ys.chunks_exact_mut(ohow).enumerate() {
                row.fill(bs[oc]);
            }
            gemm::gemm_nn(wt, &cols, ys, self.out_c, ickk, ohow);
        }
        self.cols = cols;

        #[cfg(debug_assertions)]
        {
            let naive = crate::reference::conv2d_forward(
                xd,
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
        let (_, _, oh, ow) = grad_out.dims4();
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
        let dw = self.weight.grad.data_mut();
        let mut cols = std::mem::take(&mut self.cols);
        let mut dcols = std::mem::take(&mut self.dcols);
        cols.resize(ickk * ohow, 0.0);
        dcols.resize(ickk * ohow, 0.0);
        for ni in 0..n {
            let xs = &xd[ni * sample_in..(ni + 1) * sample_in];
            let gs = &gd[ni * sample_out..(ni + 1) * sample_out];
            im2col(xs, self.in_c, h, w, self.k, self.stride, self.pad, oh, ow, &mut cols);
            // dW += g·colsᵀ.
            gemm::gemm_nt(gs, &cols, dw, self.out_c, ohow, ickk);
            // dx (column space) = Wᵀ·g, scattered back by col2im.
            dcols.fill(0.0);
            gemm::gemm_tn(wt, gs, &mut dcols, ickk, self.out_c, ohow);
            col2im(
                &dcols,
                self.in_c,
                h,
                w,
                self.k,
                self.stride,
                self.pad,
                oh,
                ow,
                &mut dx.data_mut()[ni * sample_in..(ni + 1) * sample_in],
            );
        }
        self.cols = cols;
        self.dcols = dcols;

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
        assert_eq!(conv.cols.len(), 2 * 9 * 25);
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
