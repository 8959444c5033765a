//! Spatial pooling operators (NCHW).

use crate::tensor::Tensor;

/// Max pooling with square window `k` and stride `k` (non-overlapping)
/// into `out`, reusing its allocation.
///
/// # Panics
///
/// Panics if the input is not 4-D or smaller than the window.
pub fn max_pool2d_into(x: &Tensor, k: usize, out: &mut Tensor) {
    pool2d_into(
        x,
        k,
        |acc, v| acc.max(v),
        f32::NEG_INFINITY,
        |acc, _| acc,
        out,
    )
}

/// Average pooling with square window `k` and stride `k` into `out`,
/// reusing its allocation.
///
/// # Panics
///
/// Panics if the input is not 4-D or smaller than the window.
pub fn avg_pool2d_into(x: &Tensor, k: usize, out: &mut Tensor) {
    pool2d_into(x, k, |acc, v| acc + v, 0.0, |acc, n| acc / n as f32, out)
}

/// Global average pooling, `[N, C, H, W]` → `[N, C]`, into `out`, reusing
/// its allocation.
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn global_avg_pool2d_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.ndim(), 4, "global_avg_pool2d expects NCHW");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    out.reuse_as(&[n, c]);
    let data = x.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = data[base..base + h * w].iter().sum();
            *out.at_mut(&[ni, ci]) = s / (h * w) as f32;
        }
    }
}

fn pool2d_into(
    x: &Tensor,
    k: usize,
    fold: impl Fn(f32, f32) -> f32,
    init: f32,
    finish: impl Fn(f32, usize) -> f32,
    out: &mut Tensor,
) {
    assert_eq!(x.ndim(), 4, "pool2d expects NCHW");
    assert!(k > 0, "window must be positive");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert!(h >= k && w >= k, "input smaller than pooling window");
    let (oh, ow) = (h / k, w / k);
    out.reuse_as(&[n, c, oh, ow]);
    let data = x.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = init;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc = fold(acc, data[base + (oy * k + ky) * w + ox * k + kx]);
                        }
                    }
                    *out.at_mut(&[ni, ci, oy, ox]) = finish(acc, k * k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_pool2d(x: &Tensor, k: usize) -> Tensor {
        let mut out = Tensor::default();
        max_pool2d_into(x, k, &mut out);
        out
    }

    fn avg_pool2d(x: &Tensor, k: usize) -> Tensor {
        let mut out = Tensor::default();
        avg_pool2d_into(x, k, &mut out);
        out
    }

    fn global_avg_pool2d(x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        global_avg_pool2d_into(x, &mut out);
        out
    }

    #[test]
    fn max_pool_picks_max() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let y = max_pool2d(&x, 2);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        assert_eq!(avg_pool2d(&x, 2).data(), &[2.5]);
    }

    #[test]
    fn pool_shape_truncates_remainder() {
        let x = Tensor::ones(&[1, 1, 5, 5]);
        assert_eq!(max_pool2d(&x, 2).shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let x = Tensor::from_vec(vec![1., 1., 1., 1., 2., 4., 6., 8.], &[1, 2, 2, 2]);
        let y = global_avg_pool2d(&x);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.0, 5.0]);
    }

    #[test]
    fn max_pool_handles_negatives() {
        let x = Tensor::from_vec(vec![-5., -2., -9., -4.], &[1, 1, 2, 2]);
        assert_eq!(max_pool2d(&x, 2).data(), &[-2.0]);
    }
}
