//! 2-D convolution kernels (NCHW layout).

use super::operand::{with_rows, Rows};
use super::{blocked, checked, for_each_chunk, ActOperand, KernelPath, WeightOperand};
use crate::act::QActTensor;
use crate::qtensor::QTensor;
use crate::shape::conv2d_dims;
use crate::tensor::Tensor;

/// Stride/padding configuration for [`conv2d`] and [`depthwise_conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along H and W.
    pub stride: usize,
    /// Zero padding along H and W.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// "Same" padding for odd kernel sizes at stride 1.
    pub fn same(kernel: usize) -> Self {
        Conv2dParams {
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial size for an input of size `n` and kernel `k`.
    pub fn out_size(&self, n: usize, k: usize) -> usize {
        (n + 2 * self.padding).saturating_sub(k) / self.stride + 1
    }
}

/// Geometry of one convolution call.
pub(super) struct ConvDims {
    pub n: usize,
    pub cout: usize,
    /// Input channels each output plane reduces over (1 for depthwise).
    pub cin: usize,
    /// A depthwise plane reads its own input channel, not the whole image.
    pub depthwise: bool,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub oh: usize,
    pub ow: usize,
    pub stride: usize,
    pub pad: isize,
}

/// The one precondition block of both convolutions.
fn conv_dims(
    x: &[usize],
    weight: &[usize],
    bias: Option<&Tensor>,
    p: Conv2dParams,
    depthwise: bool,
) -> ConvDims {
    let bias = bias.map(Tensor::shape);
    let [n, cout, oh, ow] = checked(conv2d_dims(x, weight, bias, p, depthwise));
    ConvDims {
        n,
        cout,
        cin: weight[1],
        depthwise,
        h: x[2],
        w: x[3],
        kh: weight[2],
        kw: weight[3],
        oh,
        ow,
        stride: p.stride,
        pad: p.padding as isize,
    }
}

/// Taps `lo..hi` of a `k`-tap window whose first tap reads input
/// coordinate `i0` that land inside `0..extent`; the rest fall in the
/// zero padding and contribute no term.
pub(super) fn taps(i0: isize, extent: usize, k: usize) -> std::ops::Range<usize> {
    let lo = (-i0).max(0) as usize;
    let hi = ((extent as isize - i0).max(0) as usize).min(k);
    lo..hi.max(lo)
}

/// One output element: the window sum whose top-left input coordinate is
/// `(iy0, ix0)`, in-bounds terms added onto the bias in ascending
/// `(ci, ky, kx)` order. `xs` is the plane's input sample and `wco` its
/// `cin·kh·kw` weight values.
#[inline]
pub(super) fn window_sum(
    xs: &[f32],
    wco: &[f32],
    b0: f32,
    d: &ConvDims,
    iy0: isize,
    ix0: isize,
) -> f32 {
    let (kys, kxs) = (taps(iy0, d.h, d.kh), taps(ix0, d.w, d.kw));
    if kxs.is_empty() {
        return b0;
    }
    let x0 = (ix0 + kxs.start as isize) as usize;
    let mut acc = b0;
    for ci in 0..d.cin {
        for ky in kys.clone() {
            let xrow = (ci * d.h + (iy0 + ky as isize) as usize) * d.w + x0;
            let wrow = (ci * d.kh + ky) * d.kw;
            let wr = &wco[wrow + kxs.start..wrow + kxs.end];
            for (xv, &wv) in xs[xrow..xrow + wr.len()].iter().zip(wr) {
                acc += xv * wv;
            }
        }
    }
    acc
}

/// The `ScalarReference` loop nest of both convolutions: one
/// [`window_sum`] per output element, one image per chunk (its input
/// borrowed or decoded once). `wf` is the dense `[cout, cin·kh·kw]`
/// weight; a depthwise plane reads its own input channel.
fn conv_ref<X: Rows + ?Sized>(
    x: &X,
    wf: &[f32],
    bias: Option<&Tensor>,
    d: &ConvDims,
    out: &mut Tensor,
) {
    let per_co = d.cin * d.kh * d.kw;
    let sample = d.cin * d.h * d.w;
    // Input elements from one output plane's sample to the next one's.
    let step = if d.depthwise { sample } else { 0 };
    let image = sample + d.cout.saturating_sub(1) * step;
    let macs = out.len() * per_co;
    for_each_chunk(out.data_mut(), d.cout * d.oh * d.ow, macs, |img, oimg| {
        x.with(img * image, image, |xi| {
            for (co, oplane) in oimg.chunks_exact_mut(d.oh * d.ow).enumerate() {
                let xs = &xi[co * step..][..sample];
                let b0 = bias.map_or(0.0, |b| b.data()[co]);
                let wco = &wf[co * per_co..(co + 1) * per_co];
                for oy in 0..d.oh {
                    let iy0 = (oy * d.stride) as isize - d.pad;
                    for ox in 0..d.ow {
                        let ix0 = (ox * d.stride) as isize - d.pad;
                        oplane[oy * d.ow + ox] = window_sum(xs, wco, b0, d, iy0, ix0);
                    }
                }
            }
        });
    });
}

/// Standard convolution: input `[N, Cin, H, W]`, weight
/// `[Cout, Cin, Kh, Kw]`, optional bias `[Cout]` → `[N, Cout, H', W']`.
///
/// Either operand may be FP8-stored ([`ActOperand`], [`WeightOperand`];
/// per-channel weight scales group over `Cout`); the result is
/// bit-identical to the reference on the dequantized operands.
///
/// # Panics
///
/// Panics on rank or channel mismatches, a zero stride, or a kernel that
/// does not fit the padded input.
pub fn conv2d<'a>(
    x: impl Into<ActOperand<'a>>,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    let mut out = Tensor::default();
    conv2d_into(x, weight, bias, p, &mut out, KernelPath::default());
    out
}

/// Out-param variant of [`conv2d`]: writes into `out`, reusing its
/// allocation, through an explicit [`KernelPath`]. `Blocked` is a direct
/// convolution on Linear's weight panels (f32 or FP8-stored), 4 output
/// pixels × 8 or 16 channels per register tile. Both paths are
/// bit-identical. Panics as [`conv2d`].
pub fn conv2d_into<'a>(
    x: impl Into<ActOperand<'a>>,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    out: &mut Tensor,
    path: KernelPath,
) {
    let (x, weight) = (x.into(), weight.into());
    let d = conv_dims(x.shape(), weight.shape(), bias, p, false);
    out.reuse_as(&[d.n, d.cout, d.oh, d.ow]);
    if out.data().is_empty() {
        return;
    }
    if path == KernelPath::Blocked {
        return with_rows!(x, |xs| blocked::conv2d(xs, weight, bias, &d, out));
    }
    weight.with_dense(|wf| with_rows!(x, |xs| conv_ref(xs, wf, bias, &d, out)))
}

/// [`conv2d_into`] on a coded input and an FP8-stored weight through the
/// default kernel path. Kept under this name only for
/// `benchmark/src/probes.rs`, which is frozen; call [`conv2d_into`].
pub fn conv2d_qq_into(
    x: &QActTensor,
    weight: &QTensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    out: &mut Tensor,
) {
    conv2d_into(x, weight, bias, p, out, KernelPath::default());
}

/// Depthwise convolution: input `[N, C, H, W]`, weight `[C, 1, Kh, Kw]`
/// (each channel convolved with its own filter; per-channel weight scales
/// group over `C`) — the MobileNet/EfficientNet building block.
/// Bit-identical to the f32 kernel on the dequantized weight.
///
/// # Panics
///
/// Panics on rank/channel mismatches, a zero stride, or a kernel that
/// does not fit the padded input.
pub fn depthwise_conv2d<'a>(
    x: &Tensor,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    let mut out = Tensor::default();
    depthwise_conv2d_into(x, weight, bias, p, &mut out, KernelPath::default());
    out
}

/// Out-param variant of [`depthwise_conv2d`]: writes into `out`, reusing
/// its allocation, through an explicit [`KernelPath`]. `Blocked` runs 8
/// interior pixels of a row at a time (at stride 1). Both paths are
/// bit-identical. Panics as [`depthwise_conv2d`].
pub fn depthwise_conv2d_into<'a>(
    x: &Tensor,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    out: &mut Tensor,
    path: KernelPath,
) {
    let weight = weight.into();
    let d = conv_dims(x.shape(), weight.shape(), bias, p, true);
    out.reuse_as(&[d.n, d.cout, d.oh, d.ow]);
    if path == KernelPath::Blocked {
        return blocked::depthwise(x.data(), weight, bias, &d, out);
    }
    weight.with_dense(|wf| conv_ref(x.data(), wf, bias, &d, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel of value 1 copies the input.
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, Conv2dParams::default());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_hand_computed_3x3() {
        // All-ones 3x3 kernel on a 3x3 input of ones: valid conv -> 9.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dParams::default());
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[9.0]);
    }

    #[test]
    fn conv_same_padding_shape() {
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dParams::same(3));
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        // Center pixels see all 27 inputs; corners see 12.
        assert_eq!(y.at(&[0, 0, 4, 4]), 27.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn conv_stride2_downsamples() {
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d(
            &x,
            &w,
            None,
            Conv2dParams {
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert!(y.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_slice(&[5.0, -1.0]);
        let y = conv2d(&x, &w, Some(&b), Conv2dParams::default());
        assert_eq!(y.at(&[0, 0, 1, 1]), 5.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), -1.0);
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let mut x = Tensor::zeros(&[1, 2, 2, 2]);
        for i in 0..4 {
            x.data_mut()[i] = 1.0; // channel 0 = ones, channel 1 = zeros
        }
        let w = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]);
        let y = depthwise_conv2d(&x, &w, None, Conv2dParams::default());
        assert_eq!(y.at(&[0, 0, 0, 0]), 2.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), 0.0);
    }

    #[test]
    fn depthwise_matches_grouped_full_conv() {
        // Depthwise == full conv with block-diagonal weights.
        let mut rng = crate::rng::TensorRng::seed(3);
        let x = rng.normal(&[1, 2, 5, 5], 0.0, 1.0);
        let wd = rng.normal(&[2, 1, 3, 3], 0.0, 1.0);
        let y1 = depthwise_conv2d(&x, &wd, None, Conv2dParams::same(3));
        // Build equivalent full conv weight [2, 2, 3, 3].
        let mut wf = Tensor::zeros(&[2, 2, 3, 3]);
        for c in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    *wf.at_mut(&[c, c, ky, kx]) = wd.at(&[c, 0, ky, kx]);
                }
            }
        }
        let y2 = conv2d(&x, &wf, None, Conv2dParams::same(3));
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// The definition `window_sum`'s clamped tap ranges must reproduce:
    /// every tap bounds-checked on its own, padding taps skipped.
    fn conv2d_per_tap_checked(x: &Tensor, w: &Tensor, p: Conv2dParams) -> Tensor {
        let (n, cin, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (cout, kh, kw) = (w.dim(0), w.dim(2), w.dim(3));
        let (oh, ow) = (p.out_size(h, kh), p.out_size(wd, kw));
        let mut out = Tensor::zeros(&[n, cout, oh, ow]);
        for (ni, co, oy, ox) in index4(n, cout, oh, ow) {
            let mut acc = 0.0f32;
            for (ci, ky, kx) in index3(cin, kh, kw) {
                let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                if iy < 0 || iy >= h as isize || ix < 0 || ix >= wd as isize {
                    continue;
                }
                acc += x.at(&[ni, ci, iy as usize, ix as usize]) * w.at(&[co, ci, ky, kx]);
            }
            *out.at_mut(&[ni, co, oy, ox]) = acc;
        }
        out
    }

    fn index3(a: usize, b: usize, c: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..a).flat_map(move |i| (0..b).flat_map(move |j| (0..c).map(move |k| (i, j, k))))
    }

    fn index4(
        a: usize,
        b: usize,
        c: usize,
        d: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        index3(a, b, c).flat_map(move |(i, j, k)| (0..d).map(move |l| (i, j, k, l)))
    }

    #[test]
    fn window_sum_matches_per_tap_bounds_check() {
        // Includes padding >= kernel (windows wholly inside the padding)
        // and strides that leave a ragged right/bottom edge.
        let mut rng = crate::rng::TensorRng::seed(41);
        for (h, w) in [(1, 1), (2, 5), (5, 4), (7, 7)] {
            for (kh, kw) in [(1, 1), (1, 3), (3, 2), (3, 3)] {
                for stride in 1..=3 {
                    for padding in 0..=3 {
                        if h + 2 * padding < kh || w + 2 * padding < kw {
                            continue;
                        }
                        let x = rng.normal(&[2, 3, h, w], 0.0, 1.0);
                        let wt = rng.normal(&[2, 3, kh, kw], 0.0, 1.0);
                        let p = Conv2dParams { stride, padding };
                        let got = conv2d(&x, &wt, None, p);
                        let want = conv2d_per_tap_checked(&x, &wt, p);
                        assert_eq!(got, want, "{h}x{w} k{kh}x{kw} s{stride} p{padding}");
                    }
                }
            }
        }
    }

    // `out_size` saturates to 1, so without the fit precondition these
    // returned a `[1,1,1,1]` partial sum.
    #[test]
    #[should_panic(expected = "does not fit")]
    fn conv_kernel_larger_than_padded_input() {
        conv2d(
            &Tensor::ones(&[1, 1, 2, 2]),
            &Tensor::ones(&[1, 1, 5, 5]),
            None,
            Conv2dParams::default(),
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn depthwise_kernel_larger_than_padded_input() {
        depthwise_conv2d(
            &Tensor::ones(&[1, 2, 2, 4]),
            &Tensor::ones(&[2, 1, 3, 3]),
            None,
            Conv2dParams::default(),
        );
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_channel_mismatch() {
        conv2d(
            &Tensor::zeros(&[1, 3, 4, 4]),
            &Tensor::zeros(&[1, 2, 3, 3]),
            None,
            Conv2dParams::default(),
        );
    }
}
