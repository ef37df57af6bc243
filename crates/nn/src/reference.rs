//! Naive loop kernels retained as the correctness oracle.
//!
//! These are the seed implementations of `Conv2d` and `Linear` (and a
//! triple-loop matmul), kept verbatim after the layers moved to the
//! GEMM/im2col path. They pin the optimized kernels two ways:
//!
//! * debug builds re-run every layer call through the oracle and
//!   assert near-equality (see `assert_close` — a tight
//!   relative-plus-absolute tolerance that only absorbs summation-
//!   order differences),
//! * the property tests in `tests/properties.rs` compare random
//!   shapes/strides/paddings against them.
//!
//! They are compiled unconditionally (the code is small) but only
//! the debug-assertion oracle calls them on the hot path.

/// `C[m×n] += A[m×k]·B[k×n]`, triple loop.
pub fn matmul_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C[m×n] += A[m×k]·B[n×k]ᵀ`, triple loop.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C[m×n] += A[k×m]ᵀ·B[k×n]`, triple loop.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[kk * m + i] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Direct 6-deep-loop NCHW convolution forward (the seed kernel).
/// Returns `y[n, oc, oh, ow]` as a flat vector.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut y = vec![0.0f32; n * out_c * oh * ow];
    for ni in 0..n {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let wv = weight[((oc * in_c + ic) * k + ky) * k + kx];
                                let xv = x[((ni * in_c + ic) * h + iy as usize) * w + ix as usize];
                                acc += wv * xv;
                            }
                        }
                    }
                    y[((ni * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    y
}

/// Direct-loop convolution backward (the seed kernel). Accumulates
/// the weight/bias gradients into `dw`/`db` and returns `dx`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    x: &[f32],
    grad_out: &[f32],
    weight: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut dx = vec![0.0f32; n * in_c * h * w];
    for ni in 0..n {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out[((ni * out_c + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    db[oc] += g;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let widx = ((oc * in_c + ic) * k + ky) * k + kx;
                                let xidx = ((ni * in_c + ic) * h + iy as usize) * w + ix as usize;
                                dw[widx] += g * x[xidx];
                                dx[xidx] += g * weight[widx];
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Row-loop dense forward (the seed `Linear` kernel):
/// `y = x·Wᵀ + b`.
pub fn linear_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<f32> {
    let mut y = vec![0.0f32; n * out_f];
    for ni in 0..n {
        for o in 0..out_f {
            let mut acc = bias[o];
            let wrow = &weight[o * in_f..(o + 1) * in_f];
            let xrow = &x[ni * in_f..(ni + 1) * in_f];
            for (wv, xv) in wrow.iter().zip(xrow) {
                acc += wv * xv;
            }
            y[ni * out_f + o] = acc;
        }
    }
    y
}

/// Row-loop dense backward (the seed `Linear` kernel). Accumulates
/// into `dw`/`db` and returns `dx`.
#[allow(clippy::too_many_arguments)]
pub fn linear_backward(
    x: &[f32],
    grad_out: &[f32],
    weight: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    n: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<f32> {
    let mut dx = vec![0.0f32; n * in_f];
    for ni in 0..n {
        for o in 0..out_f {
            let g = grad_out[ni * out_f + o];
            if g == 0.0 {
                continue;
            }
            db[o] += g;
            for i in 0..in_f {
                dw[o * in_f + i] += g * x[ni * in_f + i];
                dx[ni * in_f + i] += g * weight[o * in_f + i];
            }
        }
    }
    dx
}

/// Oracle comparison: every element of `got` must match `want` to a
/// tight relative tolerance (absorbing only summation-order drift).
///
/// # Panics
///
/// Panics with the offending index and values on mismatch.
pub fn assert_close(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, v)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4 * 1.0f32.max(v.abs()) + 1e-6;
        assert!((g - v).abs() <= tol, "{what}: oracle mismatch at {i}: optimized {g} vs naive {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_variants_agree_on_a_transposable_case() {
        // A 2×2·2×2 product small enough to check by hand.
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        matmul_nn(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);

        // A·Bᵀ with B stored transposed equals the same product.
        let bt = vec![5.0, 7.0, 6.0, 8.0];
        let mut c2 = vec![0.0; 4];
        matmul_nt(&a, &bt, &mut c2, 2, 2, 2);
        assert_eq!(c2, c);

        // Aᵀ·B with A stored transposed likewise.
        let at = vec![1.0, 3.0, 2.0, 4.0];
        let mut c3 = vec![0.0; 4];
        matmul_tn(&at, &b, &mut c3, 2, 2, 2);
        assert_eq!(c3, c);
    }

    #[test]
    #[should_panic(expected = "oracle mismatch")]
    fn assert_close_rejects_real_differences() {
        assert_close("unit", &[1.0], &[1.01]);
    }
}
