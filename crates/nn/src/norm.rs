//! Batch normalization over NCHW feature maps.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// Per-channel batch normalization with learned scale/shift and
/// running statistics for evaluation mode.
///
/// The owning paths normalize in place; the training forward keeps
/// `x̂` in a buffer reused across steps.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Cached from forward (training mode).
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
    count: usize,
}

impl BatchNorm2d {
    /// Normalization over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::from_vec(&[channels], vec![1.0; channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

/// Channels whose reduction chains [`channel_sums`] runs side by side.
const GROUP: usize = 8;

/// Index range of the contiguous `h·w` plane of sample `ni`, channel
/// `ch` in an NCHW buffer. Walking a channel's planes in ascending
/// sample order visits its elements in `(n, h, w)` order — the order
/// every per-channel sum below accumulates in.
fn plane(c: usize, hw: usize, ni: usize, ch: usize) -> std::ops::Range<usize> {
    let start = (ni * c + ch) * hw;
    start..start + hw
}

/// Per-channel sums `Σ term(ch, v)` over the elements of every
/// channel, where `v` holds the element's value in each of the `S`
/// buffers: each sum is one sequential chain from `+0.0` in `(n, h, w)`
/// order. `GROUP` channels advance together, one element each in turn,
/// so their chains overlap instead of waiting on each other; the order
/// within each chain is unchanged.
fn channel_sums<const S: usize>(
    bufs: [&[f32]; S],
    (n, c, hw): (usize, usize, usize),
    term: impl Fn(usize, [f32; S]) -> [f32; S],
) -> Vec<[f32; S]> {
    // `e` indexes Q·S planes at once.
    #[allow(clippy::needless_range_loop)]
    fn group<const Q: usize, const S: usize>(
        bufs: [&[f32]; S],
        (n, c, hw): (usize, usize, usize),
        ch0: usize,
        term: &impl Fn(usize, [f32; S]) -> [f32; S],
        out: &mut Vec<[f32; S]>,
    ) {
        let mut acc = [[0.0f32; S]; Q];
        for ni in 0..n {
            // Plane q of sample ni in buffer s, exactly hw long.
            let start = plane(c, hw, ni, ch0).start;
            let planes: [[&[f32]; S]; Q] =
                std::array::from_fn(|q| std::array::from_fn(|s| &bufs[s][start + q * hw..][..hw]));
            for e in 0..hw {
                for q in 0..Q {
                    let t = term(ch0 + q, std::array::from_fn(|s| planes[q][s][e]));
                    for s in 0..S {
                        acc[q][s] += t[s];
                    }
                }
            }
        }
        out.extend(acc);
    }
    let mut out = Vec::with_capacity(c);
    let main = c - c % GROUP;
    for ch0 in (0..main).step_by(GROUP) {
        group::<GROUP, S>(bufs, (n, c, hw), ch0, &term, &mut out);
    }
    for ch in main..c {
        group::<1, S>(bufs, (n, c, hw), ch, &term, &mut out);
    }
    out
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let (n, c, h, w) = x.dims4();
        let (count, hw) = (n * h * w, h * w);
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        if train {
            let xd = x.data();
            let dims = (n, c, hw);
            let mut mean: Vec<f32> =
                channel_sums([xd], dims, |_, v| v).into_iter().map(|[s]| s).collect();
            for m in &mut mean {
                *m /= count as f32;
            }
            let var: Vec<f32> = channel_sums([xd], dims, |ch, [v]| {
                let d = v - mean[ch];
                [d * d]
            })
            .into_iter()
            .map(|[s]| s / count as f32)
            .collect();
            let mut cache = self.cache.take().unwrap_or(BnCache {
                x_hat: Vec::new(),
                inv_std: Vec::new(),
                count,
            });
            cache.count = count;
            cache.x_hat.resize(x.len(), 0.0);
            cache.inv_std.clear();
            for ch in 0..c {
                let istd = 1.0 / (var[ch] + self.eps).sqrt();
                cache.inv_std.push(istd);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
            let xd = x.data_mut();
            for ni in 0..n {
                for ch in 0..c {
                    let (mean, istd) = (mean[ch], cache.inv_std[ch]);
                    let p = plane(c, hw, ni, ch);
                    for (v, xh) in xd[p.clone()].iter_mut().zip(&mut cache.x_hat[p]) {
                        *xh = (*v - mean) * istd;
                        *v = gamma[ch] * *xh + beta[ch];
                    }
                }
            }
            self.cache = Some(cache);
        } else {
            let xd = x.data_mut();
            for ch in 0..c {
                let istd = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                let mean = self.running_mean[ch];
                for ni in 0..n {
                    for v in &mut xd[plane(c, hw, ni, ch)] {
                        *v = gamma[ch] * ((*v - mean) * istd) + beta[ch];
                    }
                }
            }
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, mut g: Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("forward(train) before backward");
        let (n, c, h, w) = g.dims4();
        let hw = h * w;
        let m = cache.count as f32;
        let gamma = self.gamma.value.data();
        let dgamma = self.gamma.grad.data_mut();
        let dbeta = self.beta.grad.data_mut();
        let xhd = &cache.x_hat;
        let gd = g.data();
        let sums = channel_sums([gd, xhd], (n, c, hw), |_, [dy, xh]| [dy, dy * xh]);
        for (ch, &[sum_dy, sum_dy_xhat]) in sums.iter().enumerate() {
            dgamma[ch] += sum_dy_xhat;
            dbeta[ch] += sum_dy;
        }
        let gd = g.data_mut();
        for ni in 0..n {
            for (ch, &[sum_dy, sum_dy_xhat]) in sums.iter().enumerate() {
                let k = gamma[ch] * cache.inv_std[ch];
                let p = plane(c, hw, ni, ch);
                for (d, &xh) in gd[p.clone()].iter_mut().zip(&xhd[p]) {
                    *d = k * (*d - sum_dy / m - xh * sum_dy_xhat / m);
                }
            }
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::kaiming(&[4, 2, 3, 3], 4, &mut rng);
        let y = bn.forward(&x, true);
        // Per channel: mean ≈ 0, var ≈ 1.
        let (n, _, h, w) = y.dims4();
        for ch in 0..2 {
            let vals: Vec<f32> = (0..n)
                .flat_map(|ni| (0..h).flat_map(move |hy| (0..w).map(move |wx| (ni, hy, wx))))
                .map(|(ni, hy, wx)| y.at4(ni, ch, hy, wx))
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let x = Tensor::kaiming(&[8, 1, 2, 2], 4, &mut rng);
            bn.forward(&x, true);
        }
        let x = Tensor::from_vec(&[1, 1, 1, 1], vec![0.0]);
        let y = bn.forward(&x, false);
        // With zero-centred training data, eval(0) ≈ beta = 0.
        assert!(y.data()[0].abs() < 0.5);
    }

    /// Oracle outputs of one train forward, backward and eval forward.
    struct Naive {
        y: Vec<f32>,
        running: Vec<f32>,
        dx: Vec<f32>,
        dparams: Vec<f32>,
        y_eval: Vec<f32>,
    }

    /// BatchNorm written as per-element `at4` loops over `(n, h, w)`
    /// for each channel, the order the plane walks must reproduce.
    fn naive(x: &Tensor, g: &Tensor, gamma: &[f32], beta: &[f32], probe: &Tensor) -> Naive {
        let (n, c, h, w) = x.dims4();
        let (eps, mom, count) = (1e-5f32, 0.1f32, (n * h * w) as f32);
        let idx = |ni: usize| (0..h).flat_map(move |hy| (0..w).map(move |wx| (ni, hy, wx)));
        let all = || (0..n).flat_map(idx);
        let (mut y, mut x_hat, mut dx) =
            (Tensor::zeros(x.shape()), Tensor::zeros(x.shape()), Tensor::zeros(x.shape()));
        let mut y_eval = Tensor::zeros(probe.shape());
        let (mut running, mut dparams) = (Vec::new(), Vec::new());
        for ch in 0..c {
            let mut mean = 0.0f32;
            for (ni, hy, wx) in all() {
                mean += x.at4(ni, ch, hy, wx);
            }
            mean /= count;
            let mut var = 0.0f32;
            for (ni, hy, wx) in all() {
                let d = x.at4(ni, ch, hy, wx) - mean;
                var += d * d;
            }
            var /= count;
            let istd = 1.0 / (var + eps).sqrt();
            for (ni, hy, wx) in all() {
                let xh = (x.at4(ni, ch, hy, wx) - mean) * istd;
                *x_hat.at4_mut(ni, ch, hy, wx) = xh;
                *y.at4_mut(ni, ch, hy, wx) = gamma[ch] * xh + beta[ch];
            }
            let (rm, rv) = ((1.0 - mom) * 0.0 + mom * mean, (1.0 - mom) * 1.0 + mom * var);
            running.extend([rm, rv]);
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for (ni, hy, wx) in all() {
                sum_dy += g.at4(ni, ch, hy, wx);
                sum_dy_xhat += g.at4(ni, ch, hy, wx) * x_hat.at4(ni, ch, hy, wx);
            }
            dparams.extend([sum_dy_xhat, sum_dy]);
            let k = gamma[ch] * istd;
            for (ni, hy, wx) in all() {
                let (dy, xh) = (g.at4(ni, ch, hy, wx), x_hat.at4(ni, ch, hy, wx));
                *dx.at4_mut(ni, ch, hy, wx) = k * (dy - sum_dy / count - xh * sum_dy_xhat / count);
            }
            let eval_istd = 1.0 / (rv + eps).sqrt();
            let (pn, _, ph, pw) = probe.dims4();
            for ni in 0..pn {
                for (hy, wx) in (0..ph).flat_map(|hy| (0..pw).map(move |wx| (hy, wx))) {
                    let xh = (probe.at4(ni, ch, hy, wx) - rm) * eval_istd;
                    *y_eval.at4_mut(ni, ch, hy, wx) = gamma[ch] * xh + beta[ch];
                }
            }
        }
        Naive {
            y: y.data().to_vec(),
            running,
            dx: dx.data().to_vec(),
            dparams,
            y_eval: y_eval.data().to_vec(),
        }
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn plane_walks_match_the_at4_loops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        // Channel counts below, at and off the interleaved group size.
        for &(n, c, h, w) in
            &[(1, 1, 1, 1), (3, 2, 5, 3), (8, 16, 8, 8), (2, 5, 1, 7), (3, 12, 3, 5), (2, 8, 1, 1)]
        {
            let mut bn = BatchNorm2d::new(c);
            let (gamma, beta) =
                (Tensor::kaiming(&[c], 2, &mut rng), Tensor::kaiming(&[c], 2, &mut rng));
            bn.gamma.value = gamma.clone();
            bn.beta.value = beta.clone();
            let x = Tensor::kaiming(&[n, c, h, w], 4, &mut rng);
            let g = Tensor::kaiming(&[n, c, h, w], 4, &mut rng);
            let probe = Tensor::kaiming(&[2, c, h, w], 4, &mut rng);
            let want = naive(&x, &g, gamma.data(), beta.data(), &probe);

            assert_bits("train y", bn.forward(&x, true).data(), &want.y);
            let running: Vec<f32> =
                (0..c).flat_map(|ch| [bn.running_mean[ch], bn.running_var[ch]]).collect();
            assert_bits("running stats", &running, &want.running);
            assert_bits("dx", bn.backward(&g).data(), &want.dx);
            let dparams: Vec<f32> =
                (0..c).flat_map(|ch| [bn.gamma.grad.data()[ch], bn.beta.grad.data()[ch]]).collect();
            assert_bits("dgamma/dbeta", &dparams, &want.dparams);
            assert_bits("eval y", bn.forward(&probe, false).data(), &want.y_eval);
        }
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::kaiming(&[4, 3, 2, 2], 4, &mut rng);
        crate::testutil::grad_check(&mut bn, &x, 1e-2, 3e-2);
    }
}
