//! Tensor-level fake quantization with the paper's scaling rule.
//!
//! §3.1 of the paper: the scale factor is `s = float_max / max_T`, where
//! `float_max` is the largest representable value of the chosen FP8 format
//! and `max_T` is the calibrated absolute-maximum of the tensor. Values are
//! scaled *into* the format's range before encoding and scaled back after
//! decoding, so the full encoding space is used:
//!
//! ```text
//! q(x) = decode(encode(x * s)) / s
//! ```
//!
//! Per-channel variants apply an independent scale per output channel, the
//! recommendation the paper makes for weights across all networks.

use crate::codec::Fp8Codec;
use crate::format::Fp8Format;
use crate::int8::{Int8Codec, Int8Mode};
use crate::lut::Fp8Lut;
use crate::storage::absmax_nan_aware;
use serde::{Deserialize, Serialize};

/// Compute the paper's scale `s = float_max / max_T` for a tensor whose
/// calibrated absmax is `max_t`.
///
/// A degenerate `max_t` yields a scale of 1.0 so that all-zero tensors
/// pass through unchanged: zero, non-finite, or so small (a subnormal) that
/// the quotient overflows f32.
pub fn fp8_scale(format: Fp8Format, max_t: f32) -> f32 {
    max_scale(format.max_value(), max_t)
}

/// [`fp8_scale`] for a format whose largest value is `max_v` (any
/// [`crate::FpSpec`], not only the three named formats), with the same
/// fallback to 1.0.
fn max_scale(max_v: f32, max_t: f32) -> f32 {
    let scale = max_v / max_t;
    if max_t > 0.0 && max_t.is_finite() && scale.is_finite() {
        scale
    } else {
        1.0
    }
}

/// Summary statistics of one fake-quantization pass; used by the MSE plots
/// (Figure 1, Figure 8) and by the MSE-sweep observer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FakeQuantStats {
    /// Mean squared error between input and quantized output.
    pub mse: f64,
    /// Maximum absolute error.
    pub max_abs_err: f32,
    /// Number of elements that saturated at the format's max value.
    pub saturated: usize,
    /// Number of elements that flushed to zero.
    pub underflowed: usize,
}

/// Fake-quantize `data` in place with a single (per-tensor) scale, returning
/// error statistics.
///
/// `scale` should come from [`fp8_scale`]; pass `1.0` for *direct*
/// quantization (the paper's E5M2 recipe, which needs no range calibration).
/// Each element is quantized by the codec's cached [`Fp8Lut`] (a breakpoint
/// search plus a table load) when the codec has one, and by the scalar
/// `codec.quantize` when it does not (non-default overflow or rounding
/// policies); the two are bit-identical.
pub fn fake_quant_fp8(data: &mut [f32], codec: &Fp8Codec, scale: f32) -> FakeQuantStats {
    match Fp8Lut::for_codec(codec) {
        Some(lut) => fake_quant_by(data, codec, scale, |x| lut.quantize(x)),
        None => fake_quant_by(data, codec, scale, |x| codec.quantize(x)),
    }
}

/// [`fake_quant_fp8`] through `quantize`, one of the codec's quantizers.
fn fake_quant_by(
    data: &mut [f32],
    codec: &Fp8Codec,
    scale: f32,
    quantize: impl Fn(f32) -> f32,
) -> FakeQuantStats {
    let max_v = codec.spec().max_value();
    // A value only loses information to saturation once it lies beyond the
    // half-ulp rounding window around the max code; `x * (max / absmax)` can
    // land epsilon above max_v from f32 rounding without being a real clip.
    let sat_threshold = max_v + 0.5 * codec.spec().ulp_at(max_v);
    let mut mse = 0.0f64;
    let mut max_err = 0.0f32;
    let mut saturated = 0usize;
    let mut underflowed = 0usize;
    for x in data.iter_mut() {
        let orig = *x;
        let scaled = orig * scale;
        let q = quantize(scaled);
        if scaled.abs() > sat_threshold {
            saturated += 1;
        }
        if q == 0.0 && orig != 0.0 {
            underflowed += 1;
        }
        let deq = q / scale;
        let e = orig - deq;
        mse += (e as f64) * (e as f64);
        max_err = max_err.max(e.abs());
        *x = deq;
    }
    if !data.is_empty() {
        mse /= data.len() as f64;
    }
    FakeQuantStats {
        mse,
        max_abs_err: max_err,
        saturated,
        underflowed,
    }
}

/// Fake-quantize a 2-D-viewed tensor `[channels, inner]` with one scale per
/// channel (paper §3.1: per-channel scaling for weights). `data.len()` must
/// equal `channels * inner`.
///
/// Scales are derived from each channel's absmax via [`fp8_scale`]; the
/// per-channel scales used are returned alongside the stats.
///
/// # Panics
///
/// Panics if `data.len() != channels * inner`.
pub fn fake_quant_fp8_per_channel(
    data: &mut [f32],
    codec: &Fp8Codec,
    channels: usize,
    inner: usize,
) -> (Vec<f32>, FakeQuantStats) {
    assert_eq!(data.len(), channels * inner, "shape mismatch");
    let max_v = codec.spec().max_value();
    let mut scales = Vec::with_capacity(channels);
    let mut total = FakeQuantStats::default();
    let mut sq = 0.0f64;
    for c in 0..channels {
        let chunk = &mut data[c * inner..(c + 1) * inner];
        let scale = max_scale(max_v, absmax_nan_aware(chunk));
        scales.push(scale);
        let st = fake_quant_fp8(chunk, codec, scale);
        sq += st.mse * inner as f64;
        total.max_abs_err = total.max_abs_err.max(st.max_abs_err);
        total.saturated += st.saturated;
        total.underflowed += st.underflowed;
    }
    if !data.is_empty() {
        total.mse = sq / data.len() as f64;
    }
    (scales, total)
}

/// Fake-quantize with a per-tensor INT8 codec, returning error statistics.
pub fn fake_quant_int8(data: &mut [f32], codec: &Int8Codec) -> FakeQuantStats {
    let mut mse = 0.0f64;
    let mut max_err = 0.0f32;
    let mut saturated = 0usize;
    for x in data.iter_mut() {
        let orig = *x;
        let q = codec.encode(orig);
        if q == 127 || q == -127 || (codec.mode() == Int8Mode::Asymmetric && (q == 0 || q == 255)) {
            // Conservative saturation count: boundary codes.
            if (orig - codec.decode(q)).abs() > codec.scale() * 0.5 {
                saturated += 1;
            }
        }
        let deq = codec.decode(q);
        let e = orig - deq;
        mse += (e as f64) * (e as f64);
        max_err = max_err.max(e.abs());
        *x = deq;
    }
    if !data.is_empty() {
        mse /= data.len() as f64;
    }
    FakeQuantStats {
        mse,
        max_abs_err: max_err,
        saturated,
        underflowed: 0,
    }
}

/// Per-channel symmetric INT8 fake quantization of `[channels, inner]`.
///
/// # Panics
///
/// Panics if `data.len() != channels * inner`.
pub fn fake_quant_int8_per_channel(
    data: &mut [f32],
    channels: usize,
    inner: usize,
) -> (Vec<Int8Codec>, FakeQuantStats) {
    assert_eq!(data.len(), channels * inner, "shape mismatch");
    let mut codecs = Vec::with_capacity(channels);
    let mut total = FakeQuantStats::default();
    let mut sq = 0.0f64;
    for c in 0..channels {
        let chunk = &mut data[c * inner..(c + 1) * inner];
        let codec = Int8Codec::calibrate(chunk, Int8Mode::Symmetric);
        let st = fake_quant_int8(chunk, &codec);
        sq += st.mse * inner as f64;
        total.max_abs_err = total.max_abs_err.max(st.max_abs_err);
        total.saturated += st.saturated;
        codecs.push(codec);
    }
    if !data.is_empty() {
        total.mse = sq / data.len() as f64;
    }
    (codecs, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Fp8Format;

    #[test]
    fn subnormal_absmax_gets_unit_scale() {
        for f in Fp8Format::ALL {
            for max_t in [f32::from_bits(1), f32::MIN_POSITIVE / 4.0] {
                assert_eq!(fp8_scale(f, max_t), 1.0, "{f:?} at {max_t:e}");
            }
            // The smallest absmax whose quotient still fits keeps its scale.
            let max_t = f.max_value() / f32::MAX;
            assert!(fp8_scale(f, max_t).is_finite() && fp8_scale(f, max_t) > 1.0);
        }
    }

    fn normal_with_outliers(n: usize, seed: u64) -> Vec<f32> {
        // Small deterministic LCG sampler; avoids pulling rand into unit
        // tests. Box-Muller on uniform pairs.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (u1, u2) = (next().max(1e-7), next());
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            let v = z * 0.5f32.sqrt(); // sigma^2 = 0.5 like Figure 1
            if i % 100 == 0 {
                out.push(-6.0 + 12.0 * next()); // 1% outliers in [-6, 6]
            } else {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn scale_rule_matches_paper() {
        // s = float_max / max_T
        assert_eq!(fp8_scale(Fp8Format::E4M3, 4.0), 112.0);
        assert_eq!(fp8_scale(Fp8Format::E3M4, 30.0), 1.0);
        assert_eq!(fp8_scale(Fp8Format::E5M2, 0.0), 1.0);
        assert_eq!(fp8_scale(Fp8Format::E4M3, f32::NAN), 1.0);
    }

    #[test]
    fn scaled_quantization_never_saturates_at_absmax() {
        let codec = Fp8Codec::new(Fp8Format::E4M3);
        let mut data = vec![-4.0, -1.0, 0.0, 0.5, 4.0];
        let s = fp8_scale(Fp8Format::E4M3, 4.0);
        let st = fake_quant_fp8(&mut data, &codec, s);
        assert_eq!(st.saturated, 0);
        // absmax maps exactly to float_max and back.
        assert_eq!(data[4], 4.0);
        assert_eq!(data[0], -4.0);
    }

    fn mse_for(data: &[f32], absmax: f32) -> std::collections::HashMap<String, f64> {
        let mut mses = std::collections::HashMap::new();
        for f in Fp8Format::ALL {
            let mut d = data.to_vec();
            let codec = Fp8Codec::new(f);
            let s = fp8_scale(f, absmax);
            let st = fake_quant_fp8(&mut d, &codec, s);
            mses.insert(format!("{f}"), st.mse);
        }
        let mut d = data.to_vec();
        let int8 = Int8Codec::from_range(-absmax, absmax, Int8Mode::Symmetric);
        let st = fake_quant_int8(&mut d, &int8);
        mses.insert("INT8".into(), st.mse);
        mses
    }

    #[test]
    fn figure1_mse_ordering() {
        // Figure-1 micro-result: on N(0, 0.5) with 1% outliers in [-6,6],
        // the high-mantissa formats dominate: E3M4 beats INT8, and E5M2
        // (2 mantissa bits) is the worst FP8 format.
        let data = normal_with_outliers(20_000, 42);
        let absmax = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let mses = mse_for(&data, absmax);
        assert!(mses["E3M4"] < mses["INT8"], "{mses:?}");
        assert!(mses["E5M2"] > mses["E4M3"], "{mses:?}");
        assert!(mses["E4M3"] > mses["E3M4"], "{mses:?}");
    }

    #[test]
    fn fp8_mse_scale_invariant_int8_degrades_with_outliers() {
        // The paper's core mechanic: INT8 MSE grows quadratically with the
        // outlier magnitude (the uniform grid stretches), while max-scaled
        // FP8 error is relative and nearly unchanged. LLM-style outliers
        // (>> 8 sigma) therefore flip the comparison decisively.
        let base = normal_with_outliers(20_000, 7);
        // Amplify the outliers 4x (to ~±24, ~34 sigma), leaving the bulk alone.
        let extreme: Vec<f32> = base
            .iter()
            .map(|&x| if x.abs() > 3.0 { x * 4.0 } else { x })
            .collect();

        let absmax_b = base.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let absmax_e = extreme.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let m_base = mse_for(&base, absmax_b);
        let m_ext = mse_for(&extreme, absmax_e);

        // INT8 degrades far faster than E4M3 (quadratic grid stretch vs
        // relative error on a 0.43%-mass tail).
        let int8_growth = m_ext["INT8"] / m_base["INT8"];
        let e4m3_growth = m_ext["E4M3"] / m_base["E4M3"];
        assert!(int8_growth > 4.0, "{m_base:?} {m_ext:?}");
        assert!(int8_growth > 3.0 * e4m3_growth, "{m_base:?} {m_ext:?}");
        // And with extreme outliers every scaled FP8 format beats INT8.
        assert!(m_ext["E4M3"] < m_ext["INT8"], "{m_ext:?}");
        assert!(m_ext["E3M4"] < m_ext["INT8"], "{m_ext:?}");
    }

    #[test]
    fn per_channel_beats_per_tensor_on_mixed_scale_weights() {
        // Two channels with very different magnitudes: per-channel scaling
        // restores precision to the small channel (paper §3.1).
        let mut w: Vec<f32> = Vec::new();
        for i in 0..64 {
            w.push(0.01 * ((i % 7) as f32 - 3.0)); // small channel
        }
        for i in 0..64 {
            w.push(10.0 * ((i % 5) as f32 - 2.0)); // large channel
        }
        let codec = Fp8Codec::new(Fp8Format::E3M4);

        let mut per_tensor = w.clone();
        let absmax = w.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let st_t = fake_quant_fp8(&mut per_tensor, &codec, fp8_scale(Fp8Format::E3M4, absmax));

        let mut per_chan = w.clone();
        let (_, st_c) = fake_quant_fp8_per_channel(&mut per_chan, &codec, 2, 64);
        assert!(
            st_c.mse <= st_t.mse,
            "per-channel {} vs per-tensor {}",
            st_c.mse,
            st_t.mse
        );
    }

    #[test]
    fn per_channel_zero_channel_passthrough() {
        let mut w = vec![0.0f32; 8];
        w.extend_from_slice(&[1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.125, 2.0]);
        let codec = Fp8Codec::new(Fp8Format::E4M3);
        let (scales, st) = fake_quant_fp8_per_channel(&mut w, &codec, 2, 8);
        assert_eq!(scales[0], 1.0);
        assert_eq!(&w[..8], &[0.0; 8]);
        assert!(st.mse < 1e-4);
    }

    #[test]
    fn per_channel_tiny_absmax_gets_the_guarded_scale() {
        // max / 1e-37 overflows f32 under E5M2 and E4M3: the channel must
        // keep unit scale (as `fp8_scale` gives it), not an infinite one
        // that turns its zeros into 0 · inf = NaN.
        let w = [1e-37f32, 0.0, -1e-37, 0.0, 1.0, -0.5, 0.25, 0.0];
        for f in Fp8Format::ALL {
            let mut q = w;
            let (scales, _) = fake_quant_fp8_per_channel(&mut q, &Fp8Codec::new(f), 2, 4);
            assert_eq!(scales[0], fp8_scale(f, 1e-37), "{f}");
            assert!(q.iter().all(|v| !v.is_nan()), "{f}: {q:?}");
            assert_eq!(q[1].to_bits(), 0, "{f}");
        }
    }

    #[test]
    fn int8_per_channel_matches_manual() {
        let mut w = vec![1.0f32, -2.0, 0.5, 0.25, 100.0, -50.0, 25.0, 10.0];
        let (codecs, _) = fake_quant_int8_per_channel(&mut w, 2, 4);
        assert!((codecs[0].scale() - 2.0 / 127.0).abs() < 1e-7);
        assert!((codecs[1].scale() - 100.0 / 127.0).abs() < 1e-5);
    }

    #[test]
    fn empty_slice_ok() {
        let codec = Fp8Codec::new(Fp8Format::E4M3);
        let mut data: Vec<f32> = vec![];
        let st = fake_quant_fp8(&mut data, &codec, 1.0);
        assert_eq!(st.mse, 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn per_channel_shape_mismatch_panics() {
        let codec = Fp8Codec::new(Fp8Format::E4M3);
        let mut data = vec![0.0f32; 10];
        fake_quant_fp8_per_channel(&mut data, &codec, 3, 4);
    }
}
