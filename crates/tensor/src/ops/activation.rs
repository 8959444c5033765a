//! Pointwise activations and softmax.
//!
//! These remain FP32 in the paper's schemes (they are neither compute-bound
//! nor memory-dominant after fusion), but they shape the activation
//! distributions the quantized operators see.
//!
//! GELU and tanh run on one in-repo `tanh`: `tanh_scalar` is fdlibm's
//! `s_tanhf.c`/`s_expm1f.c` ported line for line -- the code glibc runs
//! for `f32::tanh` -- and with AVX2 eight lanes evaluate every branch of
//! the same op sequence (`vmulps`/`vaddps`/`vdivps`, never FMA) and blend
//! in each lane's own branch, so both are bit-identical to `f32::tanh`
//! (DESIGN.md §13, "Elementwise ops").

use crate::tensor::Tensor;

/// Rectified linear unit into `out`, reusing its allocation.
pub fn relu_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(|v| v.max(0.0), out)
}

/// Gaussian error linear unit (tanh approximation, as used by BERT/GPT)
/// into `out`, reusing its allocation: eight lanes at a time on the
/// in-repo `tanh`.
pub fn gelu_into(x: &Tensor, out: &mut Tensor) {
    out.reuse_as(x.shape());
    map_tanh::<true>(x.data(), out.data_mut());
}

/// `sqrt(2 / pi)`, GELU's tanh-argument scale.
#[inline(always)]
fn gelu_c() -> f32 {
    (2.0 / std::f32::consts::PI).sqrt()
}

#[inline]
fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + tanh_scalar(gelu_c() * (v + 0.044715 * v * v * v)))
}

/// `out[i] = gelu(xs[i])` under `GELU`, else `tanh(xs[i])`: eight lanes
/// at a time with AVX2, the scalar port for the tail and without it.
fn map_tanh<const GELU: bool>(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if super::blocked::avx2_available() {
        // SAFETY: AVX2 was detected on this CPU just above, and the
        // lengths are equal.
        done = unsafe { simd::map_tanh::<GELU>(xs, out) };
    }
    for (o, &v) in out[done..].iter_mut().zip(&xs[done..]) {
        *o = if GELU { gelu_scalar(v) } else { tanh_scalar(v) };
    }
}

// fdlibm `s_expm1f.c`'s constants, bit patterns as in the C source.
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `y` with `k` added to its exponent field (`SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_exp(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// fdlibm `s_expm1f.c`, line for line.
fn expm1f(mut x: f32) -> f32 {
    let mut hx = x.to_bits();
    let xsb = hx & 0x8000_0000;
    hx &= 0x7fff_ffff;
    // Filter out huge and non-finite arguments: |x| >= 27 ln2.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if xsb != 0 {
            return TINY - 1.0;
        }
    }
    // Argument reduction.
    let (k, c);
    if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        let (hi, lo);
        if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if xsb == 0 {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            } else {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t * LN2_HI is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: return x (with inexact if x != 0)
        let t = HUGE + x;
        return x - (t - HUGE);
    } else {
        (k, c) = (0, 0.0);
    }
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // suffice to return exp(x) - 1
        let y = 1.0 - (e - x);
        let y = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000) // 0x1p127
        } else {
            add_exp(y, k)
        };
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        add_exp(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        add_exp(x - (e + t) + 1.0, k)
    }
}

/// fdlibm `s_tanhf.c`, line for line: the scalar `tanh` every caller in
/// the workspace runs, and the oracle the AVX2 lanes are tested against.
fn tanh_scalar(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±Inf) = ±1, tanh(NaN) = NaN
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2^-55: tanh(small) = small
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| >= 22: ±1
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Eight [`super::tanh_scalar`]s per ymm register. Every lane computes
    //! every branch of the port's op sequence, restricted to the arguments
    //! tanh passes `expm1f` (`2|x|` from `|x| >= 1`, else `-2|x|`), and a
    //! blend keeps the branch the scalar code takes for that lane. Helpers
    //! are macros: a closure in a `#[target_feature]` fn is compiled
    //! without AVX2.

    use std::arch::x86_64::*;

    use super::{gelu_c, INVLN2, LN2_HI, LN2_LO, Q};

    macro_rules! f {
        ($v:expr) => {
            _mm256_set1_ps($v)
        };
    }
    macro_rules! i {
        ($v:expr) => {
            _mm256_set1_epi32($v)
        };
    }
    macro_rules! ps {
        ($v:expr) => {
            _mm256_castsi256_ps($v)
        };
    }

    /// `tanh` of eight lanes, each bit-identical to [`super::tanh_scalar`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 (it is inlined into a
    /// `#[target_feature(enable = "avx2")]` fn).
    #[inline(always)]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let (one, two) = (f!(1.0), f!(2.0));
        let sign = _mm256_and_ps(x, f!(-0.0));
        let ax = _mm256_andnot_ps(f!(-0.0), x);
        let ix = _mm256_castps_si256(ax);
        macro_rules! ix_ge {
            ($b:expr) => {
                ps!(_mm256_cmpgt_epi32(ix, i!($b - 1)))
            };
        }
        // expm1f's argument u and its magnitude bits hu.
        let big = ix_ge!(0x3f80_0000);
        let two_ax = _mm256_mul_ps(two, ax);
        let u = _mm256_blendv_ps(_mm256_mul_ps(f!(-2.0), ax), two_ax, big);
        let hu = _mm256_castps_si256(two_ax);
        // Reduction: none up to 0.5 ln2 (k = 0), then k = -1 up to 1.5 ln2
        // (u < 0 there), then k from the rounded quotient.
        let reduce = ps!(_mm256_cmpgt_epi32(hu, i!(0x3eb1_7218)));
        let general = ps!(_mm256_cmpgt_epi32(hu, i!(0x3f85_1591)));
        let half = _mm256_or_ps(f!(0.5), _mm256_and_ps(u, f!(-0.0)));
        let kg = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(f!(INVLN2), u), half));
        let tg = _mm256_cvtepi32_ps(kg);
        let hi = _mm256_blendv_ps(
            _mm256_add_ps(u, f!(LN2_HI)),
            _mm256_sub_ps(u, _mm256_mul_ps(tg, f!(LN2_HI))),
            general,
        );
        let lo = _mm256_blendv_ps(f!(-LN2_LO), _mm256_mul_ps(tg, f!(LN2_LO)), general);
        let xr = _mm256_sub_ps(hi, lo);
        let xv = _mm256_blendv_ps(u, xr, reduce);
        let c = _mm256_and_ps(_mm256_sub_ps(_mm256_sub_ps(hi, xr), lo), reduce);
        let k = _mm256_castps_si256(_mm256_blendv_ps(reduce, ps!(kg), general));
        // Primary range (`reduce` is all ones, i.e. -1, where k = -1).
        let hfx = _mm256_mul_ps(f!(0.5), xv);
        let hxs = _mm256_mul_ps(xv, hfx);
        let mut r1 = _mm256_mul_ps(hxs, f!(Q[4]));
        for q in [Q[3], Q[2], Q[1], Q[0]] {
            r1 = _mm256_mul_ps(hxs, _mm256_add_ps(f!(q), r1));
        }
        let r1 = _mm256_add_ps(one, r1);
        let t = _mm256_sub_ps(f!(3.0), _mm256_mul_ps(r1, hfx));
        let den = _mm256_sub_ps(f!(6.0), _mm256_mul_ps(xv, t));
        let e = _mm256_mul_ps(hxs, _mm256_div_ps(_mm256_sub_ps(r1, t), den));
        let r_k0 = _mm256_sub_ps(xv, _mm256_sub_ps(_mm256_mul_ps(xv, e), hxs));
        let e = _mm256_mul_ps(xv, _mm256_sub_ps(e, c));
        let e = _mm256_sub_ps(_mm256_sub_ps(e, c), hxs);
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(f!(0.5), _mm256_sub_ps(xv, e)), f!(0.5));
        let k23 = _mm256_slli_epi32::<23>(k);
        macro_rules! add_exp {
            ($y:expr) => {
                ps!(_mm256_add_epi32(_mm256_castps_si256($y), k23))
            };
        }
        let e_x = _mm256_sub_ps(e, xv);
        let r_far = _mm256_sub_ps(add_exp!(_mm256_sub_ps(one, e_x)), one);
        let t_lt23 = _mm256_sub_epi32(i!(0x3f80_0000), _mm256_srlv_epi32(i!(0x0100_0000), k));
        let r_lt23 = add_exp!(_mm256_sub_ps(ps!(t_lt23), e_x));
        let t_ge23 = ps!(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i!(0x7f), k)));
        let r_ge23 = add_exp!(_mm256_add_ps(
            _mm256_sub_ps(xv, _mm256_add_ps(e, t_ge23)),
            one
        ));
        let far = _mm256_or_si256(_mm256_cmpgt_epi32(i!(-1), k), _mm256_cmpgt_epi32(k, i!(56)));
        let mut em1 = _mm256_blendv_ps(r_ge23, r_lt23, ps!(_mm256_cmpgt_epi32(i!(23), k)));
        em1 = _mm256_blendv_ps(em1, r_far, ps!(far));
        em1 = _mm256_blendv_ps(em1, r_km1, ps!(_mm256_cmpeq_epi32(k, i!(-1))));
        em1 = _mm256_blendv_ps(em1, r_k0, ps!(_mm256_cmpeq_epi32(k, i!(0))));
        em1 = _mm256_blendv_ps(em1, u, ps!(_mm256_cmpgt_epi32(i!(0x3300_0000), hu)));
        // tanh from expm1, then the port's early returns.
        let t2 = _mm256_add_ps(em1, two);
        let z_big = _mm256_sub_ps(one, _mm256_div_ps(two, t2));
        let z_small = _mm256_div_ps(_mm256_xor_ps(em1, f!(-0.0)), t2);
        let z = _mm256_blendv_ps(z_small, z_big, big);
        let z = _mm256_xor_ps(_mm256_blendv_ps(z, one, ix_ge!(0x41b0_0000)), sign);
        let tiny = _mm256_mul_ps(x, _mm256_add_ps(one, x));
        let z = _mm256_blendv_ps(tiny, z, ix_ge!(0x2400_0000));
        let special = _mm256_add_ps(_mm256_div_ps(one, x), _mm256_or_ps(one, sign));
        _mm256_blendv_ps(z, special, ix_ge!(0x7f80_0000))
    }

    /// [`super::map_tanh`] over the whole 8-lane blocks of `xs`; returns
    /// how many elements it wrote.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and guarantee `out.len() == xs.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map_tanh<const GELU: bool>(xs: &[f32], out: &mut [f32]) -> usize {
        let n = xs.len() / 8 * 8;
        let c = f!(gelu_c());
        for j in (0..n).step_by(8) {
            let v = _mm256_loadu_ps(xs.as_ptr().add(j));
            let y = if GELU {
                let v3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(f!(0.044715), v), v), v);
                let t = tanh8(_mm256_mul_ps(c, _mm256_add_ps(v, v3)));
                _mm256_mul_ps(_mm256_mul_ps(f!(0.5), v), _mm256_add_ps(f!(1.0), t))
            } else {
                tanh8(v)
            };
            _mm256_storeu_ps(out.as_mut_ptr().add(j), y);
        }
        n
    }
}

/// Logistic sigmoid into `out`, reusing its allocation.
pub fn sigmoid_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(|v| 1.0 / (1.0 + (-v).exp()), out)
}

/// SiLU / swish (`x * sigmoid(x)`), the EfficientNet activation, into
/// `out`, reusing its allocation.
pub fn silu_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(|v| v / (1.0 + (-v).exp()), out)
}

/// Hyperbolic tangent into `out`, reusing its allocation: the in-repo
/// port of fdlibm's `tanhf`, eight lanes at a time (bit-identical to
/// `f32::tanh` under glibc).
pub fn tanh_into(x: &Tensor, out: &mut Tensor) {
    out.reuse_as(x.shape());
    map_tanh::<false>(x.data(), out.data_mut());
}

/// Numerically-stable softmax over the last dimension into `out`, reusing
/// its allocation.
///
/// Rows with no finite maximum — e.g. fully masked attention rows where
/// every score is `-inf` — produce all-zero probabilities rather than NaN
/// (`exp(-inf - -inf)` is undefined), so a causal mask can use a true
/// `-inf` without poisoning downstream ops.
pub fn softmax_lastdim_into(x: &Tensor, out: &mut Tensor) {
    // 0-d input degenerates to a softmax over one element (all ones).
    let d = x.shape().last().copied().unwrap_or(1).max(1);
    let rows = x.len() / d;
    out.copy_from(x);
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * d..(r + 1) * d];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if !max.is_finite() {
            row.fill(0.0);
            continue;
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `op` into a fresh tensor.
    fn alloc(op: fn(&Tensor, &mut Tensor), x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        op(x, &mut out);
        out
    }

    fn relu(x: &Tensor) -> Tensor {
        alloc(relu_into, x)
    }

    fn gelu(x: &Tensor) -> Tensor {
        alloc(gelu_into, x)
    }

    fn sigmoid(x: &Tensor) -> Tensor {
        alloc(sigmoid_into, x)
    }

    fn silu(x: &Tensor) -> Tensor {
        alloc(silu_into, x)
    }

    fn softmax_lastdim(x: &Tensor) -> Tensor {
        alloc(softmax_lastdim_into, x)
    }

    #[test]
    fn relu_clips_negatives() {
        let y = relu(&Tensor::from_slice(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_reference_points() {
        let y = gelu(&Tensor::from_slice(&[0.0, 1.0, -1.0, 3.0]));
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
        assert!((y.data()[3] - 2.9964).abs() < 1e-3);
    }

    fn tanh_lanes(xs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; xs.len()];
        map_tanh::<false>(xs, &mut out);
        out
    }

    /// Lanes (AVX2 when the CPU has it) against the scalar port, in blocks
    /// of 8 so every element runs through a full-width lane.
    fn assert_lanes_match_port(xs: &[f32]) {
        for (&x, y) in xs.iter().zip(tanh_lanes(xs)) {
            let r = tanh_scalar(x);
            assert_eq!(
                y.to_bits(),
                r.to_bits(),
                "tanh({x:e} = {:#010x})",
                x.to_bits()
            );
        }
    }

    /// Every `stride`-th bit pattern of the 2^32, both signs included.
    fn strided_bits(stride: u64) -> Vec<f32> {
        (0..=u32::MAX as u64)
            .step_by(stride as usize)
            .map(|b| f32::from_bits(b as u32))
            .collect()
    }

    #[test]
    fn tanh_lanes_match_the_port_on_a_strided_sweep() {
        assert_lanes_match_port(&strided_bits(4099));
    }

    #[test]
    fn tanh_lanes_match_the_port_on_special_inputs() {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling payload
            f32::from_bits(0xffc0_1234), // negative, payloaded
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(1), // smallest subnormal
            f32::MAX,
        ];
        // ±2 ulps around every range edge of tanhf and of the expm1f
        // arguments it makes (u = ±2|x|, so edge / 2 in x).
        let ln2 = std::f32::consts::LN_2;
        let edges = [
            2f32.powi(-55),
            2f32.powi(-25),
            0.5 * ln2,
            1.5 * ln2,
            1.0,
            22.0,
        ];
        for e in edges.into_iter().flat_map(|e| [e, 0.5 * e]) {
            for d in -2i32..=2 {
                let x = f32::from_bits((e.to_bits() as i32 + d) as u32);
                xs.extend([x, -x]);
            }
        }
        assert_lanes_match_port(&xs);
    }

    /// Pins the libm the committed goldens came from: the port is
    /// bit-identical to `f32::tanh` (glibc's fdlibm-derived `tanhf`).
    #[test]
    fn tanh_port_matches_f32_tanh_on_a_strided_sweep() {
        for x in strided_bits(4099) {
            let (a, b) = (tanh_scalar(x), x.tanh());
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tanh({x:e} = {:#010x})",
                x.to_bits()
            );
        }
    }

    /// Pre-merge, `cargo test --release -p ptq-tensor -- --ignored exhaustive`
    /// (DESIGN.md §13): the lanes against the port on all 2^32 inputs.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: ~1.5 min release"]
    fn exhaustive_tanh_lanes_match_the_port() {
        let mut xs = Vec::with_capacity(1 << 20);
        for hi in 0..1u64 << 12 {
            xs.clear();
            xs.extend((0..1u32 << 20).map(|lo| f32::from_bits((hi << 20) as u32 | lo)));
            assert_lanes_match_port(&xs);
        }
    }

    #[test]
    fn gelu_and_tanh_into_cover_the_scalar_tail() {
        let mut out = Tensor::default();
        for n in 0..=17 {
            let x = Tensor::from_vec((0..n).map(|i| (i as f32 - 8.5) * 0.7).collect(), &[n]);
            gelu_into(&x, &mut out);
            assert_eq!(out.shape(), &[n]);
            for (&v, y) in x.data().iter().zip(out.data()) {
                assert_eq!(y.to_bits(), gelu_scalar(v).to_bits(), "gelu({v}), len {n}");
            }
            tanh_into(&x, &mut out);
            for (&v, y) in x.data().iter().zip(out.data()) {
                assert_eq!(y.to_bits(), v.tanh().to_bits(), "tanh({v}), len {n}");
            }
        }
    }

    #[test]
    fn sigmoid_and_silu() {
        let y = sigmoid(&Tensor::from_slice(&[0.0]));
        assert_eq!(y.data(), &[0.5]);
        let s = silu(&Tensor::from_slice(&[0.0, 10.0]));
        assert_eq!(s.data()[0], 0.0);
        assert!((s.data()[1] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1., 2., 3., 1000., 1000., 1000.], &[2, 3]);
        let y = softmax_lastdim(&x);
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Large equal logits stay stable (no NaN) and uniform.
        assert!((y.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_fully_masked_row_is_zero_not_nan() {
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![ninf, ninf, ninf, 0.0, ninf, ninf], &[2, 3]);
        let y = softmax_lastdim(&x);
        assert_eq!(&y.data()[..3], &[0.0, 0.0, 0.0]);
        // The partially masked row still normalizes over its finite entry.
        assert_eq!(&y.data()[3..], &[1.0, 0.0, 0.0]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_monotone_in_logits() {
        let y = softmax_lastdim(&Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]));
        assert!(y.data()[0] < y.data()[1] && y.data()[1] < y.data()[2]);
    }
}
