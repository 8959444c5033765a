//! Normalization operators: BatchNorm (inference form) and LayerNorm.
//!
//! Both are *memory-bound* operators the paper adds in its extended
//! quantization scheme; LayerNorm in particular is the op whose outlier
//! amplification makes INT8 fail on language models (§1).

use crate::tensor::Tensor;

/// Inference BatchNorm over NCHW input into `out`, reusing its
/// allocation: `y = γ (x − mean) / sqrt(var + ε) + β` per channel, with
/// γ, β and the running mean and variance as `[C]` tensors.
///
/// # Panics
///
/// Panics if the input is not 4-D or the channel counts disagree.
pub fn batchnorm2d_parts_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
    out: &mut Tensor,
) {
    assert_eq!(x.ndim(), 4, "batchnorm2d expects NCHW");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(c, gamma.len(), "batchnorm channels mismatch");
    out.copy_from(x);
    let g = gamma.data();
    let b = beta.data();
    let m = mean.data();
    let v = var.data();
    let data = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let scale = g[ci] / (v[ci] + eps).sqrt();
            let shift = b[ci] - m[ci] * scale;
            let base = (ni * c + ci) * h * w;
            for x in &mut data[base..base + h * w] {
                *x = *x * scale + shift;
            }
        }
    }
}

/// LayerNorm over the last dimension into `out`, reusing its allocation:
/// `y = γ (x − μ) / sqrt(σ² + ε) + β`, with μ/σ² computed per row.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from the last dimension.
pub fn layernorm_into(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32, out: &mut Tensor) {
    // 0-d input degenerates to a single one-element row.
    let d = x.shape().last().copied().unwrap_or(1).max(1);
    assert_eq!(gamma.len(), d, "layernorm gamma length");
    assert_eq!(beta.len(), d, "layernorm beta length");
    let rows = x.len() / d;
    out.copy_from(x);
    let g = gamma.data();
    let b = beta.data();
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (i, x) in row.iter_mut().enumerate() {
            *x = (*x - mean) * inv * g[i] + b[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    /// Inference-time BatchNorm parameters: the learned affine (gamma,
    /// beta) and the running statistics (mean, var).
    struct BatchNormParams {
        gamma: Tensor,
        beta: Tensor,
        mean: Tensor,
        var: Tensor,
        eps: f32,
    }

    /// Inference BatchNorm of `x` under `p`, into a fresh tensor.
    fn batchnorm2d(x: &Tensor, p: &BatchNormParams) -> Tensor {
        let mut out = Tensor::default();
        batchnorm2d_parts_into(x, &p.gamma, &p.beta, &p.mean, &p.var, p.eps, &mut out);
        out
    }

    fn layernorm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let mut out = Tensor::default();
        layernorm_into(x, gamma, beta, eps, &mut out);
        out
    }

    /// Per-channel mean and variance of NCHW activations, as `[C]` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D.
    fn channel_moments(x: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(x.ndim(), 4, "channel_moments expects NCHW");
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let count = (n * h * w) as f64;
        let mut mean = vec![0.0f64; c];
        let mut sq = vec![0.0f64; c];
        let data = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for &v in &data[base..base + h * w] {
                    mean[ci] += v as f64;
                    sq[ci] += (v as f64) * (v as f64);
                }
            }
        }
        let mean_t: Vec<f32> = mean.iter().map(|&s| (s / count) as f32).collect();
        let var_t: Vec<f32> = mean_t
            .iter()
            .zip(&sq)
            .map(|(&m, &s)| ((s / count) - (m as f64) * (m as f64)).max(0.0) as f32)
            .collect();
        (Tensor::from_slice(&mean_t), Tensor::from_slice(&var_t))
    }

    impl BatchNormParams {
        /// Identity BatchNorm over `c` channels (γ=1, β=0, mean=0, var=1).
        fn identity(c: usize) -> Self {
            BatchNormParams {
                gamma: Tensor::ones(&[c]),
                beta: Tensor::zeros(&[c]),
                mean: Tensor::zeros(&[c]),
                var: Tensor::ones(&[c]),
                eps: 1e-5,
            }
        }
    }

    #[test]
    fn batchnorm_identity_params_passthrough() {
        let x = TensorRng::seed(1).normal(&[2, 3, 4, 4], 0.0, 1.0);
        let y = batchnorm2d(&x, &BatchNormParams::identity(3));
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batchnorm_normalizes_to_unit_stats() {
        // With params set to the data's own moments, output is ~N(0,1).
        let x = TensorRng::seed(2).normal(&[4, 2, 8, 8], 3.0, 2.0);
        let (m, v) = channel_moments(&x);
        let p = BatchNormParams {
            gamma: Tensor::ones(&[2]),
            beta: Tensor::zeros(&[2]),
            mean: m,
            var: v,
            eps: 1e-5,
        };
        let y = batchnorm2d(&x, &p);
        let (m2, v2) = channel_moments(&y);
        for c in 0..2 {
            assert!(m2.data()[c].abs() < 1e-3);
            assert!((v2.data()[c] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_row_stats() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 10., 20., 30., 40.], &[2, 4]);
        let y = layernorm(&x, &Tensor::ones(&[4]), &Tensor::zeros(&[4]), 1e-5);
        for r in 0..2 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn layernorm_gain_amplifies_channels() {
        // The outlier mechanism: a large LayerNorm gamma on one feature
        // produces a per-channel outlier in the output.
        let x = TensorRng::seed(3).normal(&[16, 8], 0.0, 1.0);
        let mut gamma = Tensor::ones(&[8]);
        gamma.data_mut()[5] = 40.0;
        let y = layernorm(&x, &gamma, &Tensor::zeros(&[8]), 1e-5);
        let mut col_absmax = [0.0f32; 8];
        for r in 0..16 {
            for c in 0..8 {
                col_absmax[c] = col_absmax[c].max(y.at(&[r, c]).abs());
            }
        }
        let others: f32 = col_absmax
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, &v)| v)
            .fold(0.0, f32::max);
        assert!(col_absmax[5] > 5.0 * others);
    }

    #[test]
    fn channel_moments_hand_case() {
        let x = Tensor::from_vec(vec![1., 1., 1., 1., 2., 4., 2., 4.], &[1, 2, 2, 2]);
        let (m, v) = channel_moments(&x);
        assert_eq!(m.data(), &[1.0, 3.0]);
        assert_eq!(v.data(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "channels mismatch")]
    fn batchnorm_channel_mismatch() {
        batchnorm2d(&Tensor::zeros(&[1, 3, 2, 2]), &BatchNormParams::identity(4));
    }
}
