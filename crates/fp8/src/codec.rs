//! Scalar encode/decode between `f32` and FP8 bit patterns.
//!
//! The encoder implements round-to-nearest-even (the rounding mode the FP8
//! Emulation Toolkit uses for inference), full subnormal support and the
//! Table-1 special-value rules. All arithmetic on the hot path uses exact
//! power-of-two scaling, so results are bit-exact regardless of the host's
//! FMA/rounding configuration.

use crate::format::{Fp8Format, FpSpec, NanEncoding};
use serde::{Deserialize, Serialize};

/// What to do when a finite input exceeds the format's largest finite value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Clamp to the largest finite value (sign-preserving). This is the
    /// behaviour used throughout the paper: scales are chosen as
    /// `float_max / max_T`, so residual overflow is saturated.
    #[default]
    Saturate,
    /// IEEE-style: overflow produces ±Inf on E5M2; on the extended formats
    /// (which have no Inf) it produces NaN.
    NonSaturating,
}

/// Rounding mode used when a value falls between two grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to nearest, ties to even mantissa (IEEE default).
    #[default]
    NearestEven,
    /// Truncate toward zero.
    TowardZero,
}

/// A configured FP8 scalar codec.
///
/// ```
/// use ptq_fp8::{Fp8Codec, Fp8Format};
/// let c = Fp8Codec::new(Fp8Format::E3M4);
/// assert_eq!(c.decode(c.encode(0.5)), 0.5);
/// assert_eq!(c.decode(c.encode(1e9)), 30.0); // saturates at Table-1 max
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fp8Codec {
    spec: FpSpec,
    overflow: OverflowPolicy,
    rounding: Rounding,
}

impl Fp8Codec {
    /// Codec for one of the paper's three formats with default policies
    /// (saturating overflow, round-to-nearest-even).
    pub fn new(format: Fp8Format) -> Self {
        Self::from_spec(format.spec())
    }

    /// Codec for an arbitrary [`FpSpec`] with default policies.
    pub fn from_spec(spec: FpSpec) -> Self {
        Fp8Codec {
            spec,
            overflow: OverflowPolicy::Saturate,
            rounding: Rounding::NearestEven,
        }
    }

    /// Replace the overflow policy.
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }

    /// Replace the rounding mode.
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// The underlying format spec.
    pub fn spec(&self) -> &FpSpec {
        &self.spec
    }

    /// The configured overflow policy.
    pub fn overflow(&self) -> OverflowPolicy {
        self.overflow
    }

    /// The configured rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Bit position of the sign bit (= `exp_bits + man_bits`).
    #[inline]
    fn sign_shift(&self) -> u32 {
        self.spec.exp_bits + self.spec.man_bits
    }

    /// The bit pattern of the canonical NaN (positive sign).
    pub fn nan_code(&self) -> u8 {
        let m = self.spec.man_bits;
        match self.spec.nan_encoding {
            // Quiet-NaN style: top exponent, MSB of mantissa set.
            NanEncoding::Ieee => {
                let man = if m > 0 { 1u32 << (m - 1) } else { 0 };
                ((self.spec.exp_all_ones() << m) | man) as u8
            }
            // Extended: the single all-ones sequence.
            NanEncoding::Extended => ((self.spec.exp_all_ones() << m) | self.spec.man_mask()) as u8,
        }
    }

    /// The bit pattern of +Inf, if the format has one.
    pub fn inf_code(&self) -> Option<u8> {
        match self.spec.nan_encoding {
            NanEncoding::Ieee => Some((self.spec.exp_all_ones() << self.spec.man_bits) as u8),
            NanEncoding::Extended => None,
        }
    }

    /// The bit pattern of the largest finite positive value. An extended
    /// spec without mantissa bits (E7M0) has no finite value in its top
    /// binade (its one code there is NaN): the top code of the binade
    /// below.
    pub fn max_code(&self) -> u8 {
        let (m, top) = (self.spec.man_bits, self.spec.exp_all_ones());
        match self.spec.nan_encoding {
            NanEncoding::Extended if m > 0 => ((top << m) | (self.spec.man_mask() - 1)) as u8,
            _ => (((top - 1) << m) | self.spec.man_mask()) as u8,
        }
    }

    /// True if `code` decodes to NaN.
    pub fn is_nan(&self, code: u8) -> bool {
        let m = self.spec.man_bits;
        let mag = (code as u32) & ((1 << self.sign_shift()) - 1);
        let efield = mag >> m;
        let mfield = mag & self.spec.man_mask();
        match self.spec.nan_encoding {
            NanEncoding::Ieee => efield == self.spec.exp_all_ones() && mfield != 0,
            NanEncoding::Extended => {
                efield == self.spec.exp_all_ones() && mfield == self.spec.man_mask()
            }
        }
    }

    /// True if `code` decodes to ±Inf.
    pub fn is_inf(&self, code: u8) -> bool {
        match self.spec.nan_encoding {
            NanEncoding::Ieee => {
                let m = self.spec.man_bits;
                let mag = (code as u32) & ((1 << self.sign_shift()) - 1);
                mag >> m == self.spec.exp_all_ones() && mag & self.spec.man_mask() == 0
            }
            NanEncoding::Extended => false,
        }
    }

    /// Encode a single `f32` into the format's bit pattern.
    ///
    /// NaN inputs map to the canonical NaN code; ±Inf follows the overflow
    /// policy (saturating codecs clamp infinities to ±max). Signed zero is
    /// preserved.
    pub fn encode(&self, x: f32) -> u8 {
        let spec = &self.spec;
        let m = spec.man_bits;
        if x.is_nan() {
            return self.nan_code();
        }
        let sign_bit = ((x.to_bits() >> 31) as u8) << self.sign_shift();
        let a = x.abs();
        if a == 0.0 {
            return sign_bit;
        }
        if x.is_infinite() {
            return sign_bit | self.overflow_code();
        }

        // Exact floor(log2(a)), handling f32 subnormal inputs by first
        // scaling them into the normal range (multiplication by a power of
        // two is exact); `pre` is that scaling's exponent, undone below.
        let bits = a.to_bits();
        let (a, e32, pre) = if bits >> 23 == 0 {
            let scaled = a * 2f32.powi(64);
            (
                scaled,
                ((scaled.to_bits() >> 23) & 0xff) as i32 - 127 - 64,
                64,
            )
        } else {
            (a, ((bits >> 23) & 0xff) as i32 - 127, 0)
        };
        let min_e = spec.min_normal_exp();

        if e32 < min_e {
            // Subnormal region (or rounds down to zero): quantize to the
            // uniform grid of step 2^(min_e - m). Power-of-two division is
            // exact, and for e32 >= min_e - 64 the scaled value never
            // underflows f32 precision.
            let q = self.round_unit(scale_by_pow2(a, -(min_e - m as i32) - pre));
            if q == 0 {
                return sign_bit; // underflow to signed zero
            }
            if q == 1u32 << m {
                // Rounded up into the smallest normal: exponent field 1.
                return sign_bit | (1u32 << m) as u8;
            }
            return sign_bit | q as u8;
        }

        // Normal region: frac = a / 2^e32 in [1, 2); scale mantissa to
        // [2^m, 2^(m+1)) and round. Both scalings are exact powers of two.
        let frac = scale_by_pow2(a, -e32 - pre);
        let mant = self.round_unit(frac * (1u32 << m) as f32);
        let (mut e, mut mant) = (e32, mant);
        if mant == 1u32 << (m + 1) {
            e += 1;
            mant = 1u32 << m;
        }

        let overflowed = match spec.nan_encoding {
            NanEncoding::Ieee => e > spec.max_exp(),
            NanEncoding::Extended => {
                e > spec.max_exp() || (e == spec.max_exp() && mant - (1u32 << m) == spec.man_mask())
            }
        };
        if overflowed {
            return sign_bit | self.overflow_code();
        }
        let efield = (e + spec.bias) as u32;
        sign_bit | ((efield << m) | (mant - (1u32 << m))) as u8
    }

    /// Decode a bit pattern into `f32`. Codes above the format's width have
    /// their unused high bits ignored (except the sign position).
    pub fn decode(&self, code: u8) -> f32 {
        let spec = &self.spec;
        let m = spec.man_bits;
        let sign = (code >> self.sign_shift()) & 1;
        let mag = (code as u32) & ((1u32 << self.sign_shift()) - 1);
        let efield = mag >> m;
        let mfield = mag & spec.man_mask();
        let v = if efield == spec.exp_all_ones() {
            match spec.nan_encoding {
                NanEncoding::Ieee => {
                    if mfield == 0 {
                        f32::INFINITY
                    } else {
                        f32::NAN
                    }
                }
                NanEncoding::Extended => {
                    if mfield == spec.man_mask() {
                        f32::NAN
                    } else {
                        let frac = 1.0 + mfield as f32 / (1u32 << m) as f32;
                        frac * ((efield as i32 - spec.bias) as f32).exp2()
                    }
                }
            }
        } else if efield == 0 {
            mfield as f32 * ((spec.min_normal_exp() - m as i32) as f32).exp2()
        } else {
            let frac = 1.0 + mfield as f32 / (1u32 << m) as f32;
            frac * ((efield as i32 - spec.bias) as f32).exp2()
        };
        if sign == 1 {
            -v
        } else {
            v
        }
    }

    /// Fake-quantize one value: `decode(encode(x))`. This is the fundamental
    /// operation of software-emulated FP8 inference.
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        self.decode(self.encode(x))
    }

    /// Enumerate every finite value the format can represent, as
    /// `(code, value)` pairs in code order (positive codes only).
    pub fn enumerate_finite_positive(&self) -> Vec<(u8, f32)> {
        let mut out = Vec::new();
        for mag in 0..(1u32 << self.sign_shift()) {
            let code = mag as u8;
            let v = self.decode(code);
            if v.is_finite() {
                out.push((code, v));
            }
        }
        out
    }

    /// The magnitude bit pattern produced on overflow under the configured
    /// policy (caller adds the sign bit).
    fn overflow_code(&self) -> u8 {
        match self.overflow {
            OverflowPolicy::Saturate => self.max_code(),
            OverflowPolicy::NonSaturating => match self.spec.nan_encoding {
                // IEEE formats always have an Inf code; extended formats
                // reclaim it, so overflow lands on the NaN pattern either
                // way if the lookup ever came back empty.
                NanEncoding::Ieee => self.inf_code().unwrap_or_else(|| self.nan_code()),
                NanEncoding::Extended => self.nan_code(),
            },
        }
    }

    /// Round a non-negative f32 to an integer according to the configured
    /// rounding mode. The input is always exactly representable (it is a
    /// power-of-two rescaling of the source value), so `round_ties_even`
    /// gives the correct RNE result.
    #[inline]
    fn round_unit(&self, q: f32) -> u32 {
        debug_assert!(q >= 0.0);
        match self.rounding {
            Rounding::NearestEven => q.round_ties_even() as u32,
            Rounding::TowardZero => q.trunc() as u32,
        }
    }
}

/// Exact `a * 2^d`. Multiplication by a power of two is exact in binary
/// floating point (only the exponent changes) as long as the intermediate
/// factor is itself representable; for extreme `d` the scaling is split in
/// two steps to keep each factor within f32 range.
#[inline]
fn scale_by_pow2(a: f32, d: i32) -> f32 {
    if (-126..=126).contains(&d) {
        a * (d as f32).exp2()
    } else {
        let h = d / 2;
        a * (h as f32).exp2() * ((d - h) as f32).exp2()
    }
}

#[cfg(test)]
#[allow(clippy::unusual_byte_groupings)] // literals grouped sign_exponent_mantissa
mod tests {
    use super::*;

    fn codec(f: Fp8Format) -> Fp8Codec {
        Fp8Codec::new(f)
    }

    /// An `f32` subnormal input is pre-scaled into the normal range to
    /// read its exponent; both rounding branches must undo that scaling.
    /// E3M4 with bias 140 puts its whole grid among `f32` subnormals.
    #[test]
    fn f32_subnormal_inputs_round_onto_the_grid() {
        let c = Fp8Codec::from_spec(FpSpec::new(3, 4, 140, NanEncoding::Extended));
        let step = f32::from_bits(1 << 6); // 2^-143, the smallest subnormal
        for k in 0..64u8 {
            // Subnormal (k < 16) and normal grid values, each a fixed point;
            // a quarter of the way to the next one rounds back down.
            let (v, next) = (c.decode(k), c.decode(k + 1));
            assert_eq!(c.quantize(v), v, "code {k}");
            assert_eq!(c.quantize(v + 0.25 * (next - v)), v, "code {k}");
        }
        assert_eq!(c.decode(1), step);
    }

    #[test]
    fn exhaustive_roundtrip_all_formats() {
        // Every finite value must encode back to a code that decodes to the
        // same value (codec is idempotent on its own grid).
        for f in Fp8Format::ALL {
            let c = codec(f);
            for byte in 0u16..=255 {
                let code = byte as u8;
                let v = c.decode(code);
                if v.is_nan() {
                    assert!(c.is_nan(c.encode(v)), "{f} NaN roundtrip");
                    continue;
                }
                if v.is_infinite() {
                    continue; // saturating codec clamps Inf; covered below
                }
                let back = c.decode(c.encode(v));
                assert_eq!(back.to_bits(), v.to_bits(), "{f} code {code:#04x} v={v}");
            }
        }
    }

    #[test]
    fn encode_is_monotone_on_grid_midpoints() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            let mut vals: Vec<f32> = c
                .enumerate_finite_positive()
                .into_iter()
                .map(|(_, v)| v)
                .filter(|v| *v >= 0.0)
                .collect();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            let mut prev = f32::NEG_INFINITY;
            for w in vals.windows(2) {
                let mid = 0.5 * (w[0] + w[1]);
                let q = c.quantize(mid);
                assert!(q >= prev, "{f} quantize not monotone at {mid}");
                assert!(q == w[0] || q == w[1], "{f} midpoint {mid} -> {q}");
                prev = q;
            }
        }
    }

    #[test]
    fn rne_ties_go_to_even() {
        // E4M3 around 1.0: grid step 1/8. 1.0625 is exactly halfway between
        // 1.0 (mantissa 000, even) and 1.125 (mantissa 001, odd) -> 1.0.
        let c = codec(Fp8Format::E4M3);
        assert_eq!(c.quantize(1.0625), 1.0);
        // 1.1875 halfway between 1.125 (odd) and 1.25 (even mantissa 010) -> 1.25.
        assert_eq!(c.quantize(1.1875), 1.25);
    }

    #[test]
    fn toward_zero_truncates() {
        let c = codec(Fp8Format::E4M3).with_rounding(Rounding::TowardZero);
        assert_eq!(c.quantize(1.24), 1.125);
        assert_eq!(c.quantize(-1.24), -1.125);
    }

    #[test]
    fn saturation_at_table1_max() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            assert_eq!(c.quantize(1e30), f.max_value(), "{f}");
            assert_eq!(c.quantize(-1e30), -f.max_value(), "{f}");
            assert_eq!(c.quantize(f32::INFINITY), f.max_value(), "{f}");
        }
    }

    #[test]
    fn nonsaturating_overflow_e5m2_gives_inf() {
        let c = codec(Fp8Format::E5M2).with_overflow(OverflowPolicy::NonSaturating);
        let code = c.encode(1e30);
        assert!(c.is_inf(code));
        assert_eq!(c.decode(code), f32::INFINITY);
        let code = c.encode(-1e30);
        assert_eq!(c.decode(code), f32::NEG_INFINITY);
    }

    #[test]
    fn nonsaturating_overflow_extended_gives_nan() {
        for f in [Fp8Format::E4M3, Fp8Format::E3M4] {
            let c = codec(f).with_overflow(OverflowPolicy::NonSaturating);
            assert!(c.is_nan(c.encode(1e30)), "{f}");
        }
    }

    #[test]
    fn subnormals_and_underflow() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            let sub = f.min_subnormal();
            assert_eq!(c.quantize(sub), sub, "{f} min subnormal exact");
            // Half the min subnormal is a tie between 0 and min_sub; RNE
            // picks the even mantissa (zero).
            assert_eq!(c.quantize(sub * 0.5), 0.0, "{f} tie to zero");
            // Slightly above half rounds up.
            assert_eq!(c.quantize(sub * 0.50001), sub, "{f}");
            // Deep underflow flushes to (signed) zero.
            assert_eq!(c.quantize(1e-30), 0.0);
            assert_eq!(c.quantize(-1e-30).to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn subnormal_rounds_up_to_min_normal() {
        let c = codec(Fp8Format::E3M4);
        let s = c.spec().min_normal(); // 0.25
                                       // Just below min normal, inside the subnormal grid's last step.
        let just_below = s - c.spec().min_subnormal() * 0.4;
        assert_eq!(c.quantize(just_below), s);
    }

    #[test]
    fn signed_zero_preserved() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            assert_eq!(c.encode(0.0), 0);
            assert_eq!(c.decode(c.encode(-0.0)).to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn nan_codes_match_table1() {
        // E5M2 has a whole NaN family (IEEE); E4M3/E3M4 have the single
        // all-ones pattern.
        let c5 = codec(Fp8Format::E5M2);
        assert!(c5.is_nan(c5.nan_code()));
        assert!(c5.decode(c5.nan_code()).is_nan());
        assert_eq!(c5.inf_code(), Some(0b0_11111_00));

        let c4 = codec(Fp8Format::E4M3);
        assert_eq!(c4.nan_code(), 0b0_1111_111);
        assert_eq!(c4.inf_code(), None);
        assert!(c4.decode(0b0_1111_111).is_nan());
        assert!(c4.decode(0b1_1111_111u8).is_nan());
        // 0b0_1111_110 is the max value 448, not NaN.
        assert_eq!(c4.decode(0b0_1111_110), 448.0);

        let c3 = codec(Fp8Format::E3M4);
        assert_eq!(c3.nan_code(), 0b0_111_1111);
        assert_eq!(c3.decode(0b0_111_1110), 30.0);
    }

    #[test]
    fn e4m3_values_beyond_ieee_range() {
        // The extended encoding reclaims the top exponent: 256..448 exist.
        let c = codec(Fp8Format::E4M3);
        assert_eq!(c.quantize(256.0), 256.0);
        assert_eq!(c.quantize(416.0), 416.0);
        assert_eq!(c.quantize(448.0), 448.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_ulp() {
        // For in-range values, |x - q(x)| <= ulp(x)/2 under RNE.
        for f in Fp8Format::ALL {
            let c = codec(f);
            let spec = *c.spec();
            let mut x = spec.min_subnormal() * 0.7;
            while x < f.max_value() {
                let q = c.quantize(x);
                let err = (x - q).abs();
                assert!(
                    err <= spec.ulp_at(x) * 0.5 + f32::EPSILON,
                    "{f}: x={x} q={q} err={err} ulp={}",
                    spec.ulp_at(x)
                );
                x *= 1.37;
            }
        }
    }

    #[test]
    fn max_code_decodes_to_max_value() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            assert_eq!(c.decode(c.max_code()), f.max_value(), "{f}");
        }
        // Extended E7M0: the top binade's one code is NaN, so the largest
        // finite value is the top of the binade below.
        let spec = FpSpec::new(7, 0, 63, NanEncoding::Extended);
        let c = Fp8Codec::from_spec(spec);
        assert_eq!(c.max_code(), 0x7e);
        assert_eq!(c.decode(c.max_code()), spec.max_value());
        assert_eq!(spec.max_value(), 2f32.powi(126 - 63));
        assert!(c.decode(0x7f).is_nan());
        assert_eq!(
            c.encode(f32::MAX),
            0x7e,
            "saturates to the largest finite code"
        );
    }

    #[test]
    fn finite_count_matches_enumeration() {
        for f in Fp8Format::ALL {
            let c = codec(f);
            let n = c.enumerate_finite_positive().len() as u32;
            // enumerate covers positive magnitudes including zero.
            assert_eq!(n, f.spec().finite_magnitude_count(), "{f}");
        }
    }

    #[test]
    fn generic_spec_e2m5() {
        // The related work mentions E2M5; exercise the generic path.
        let spec = FpSpec::new(2, 5, 1, NanEncoding::Extended);
        let c = Fp8Codec::from_spec(spec);
        let max = spec.max_value();
        assert_eq!(c.quantize(max), max);
        assert_eq!(c.quantize(max * 10.0), max);
        assert_eq!(c.quantize(1.0), 1.0);
    }
}
