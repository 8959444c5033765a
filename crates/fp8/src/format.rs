//! FP8 binary format descriptions (Table 1 of the paper).
//!
//! A format is described by a [`FpSpec`]: exponent width, mantissa width,
//! exponent bias and the special-value encoding style. The three formats the
//! paper studies are exposed as the [`Fp8Format`] enum, but [`FpSpec`] is
//! fully generic so other `EeMm` splits (e.g. E2M5 from the related-work
//! discussion) can be instantiated for ablations.

use crate::WireEnum;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a format encodes NaN (and whether it has ±Infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NanEncoding {
    /// IEEE-754-style: exponent field all ones means Inf (mantissa = 0) or
    /// NaN (mantissa ≠ 0). Used by E5M2.
    Ieee,
    /// Extended encoding: no infinities; only the all-ones bit sequence
    /// (per sign) is NaN, every other exponent-all-ones code is a normal
    /// value. Used by E4M3 and E3M4.
    Extended,
}

/// The three FP8 formats evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fp8Format {
    /// 5 exponent bits, 2 mantissa bits, bias 15. Widest dynamic range,
    /// lowest precision. IEEE-like encoding with ±Inf.
    E5M2,
    /// 4 exponent bits, 3 mantissa bits, bias 7. The paper's recommended
    /// default for NLP models.
    E4M3,
    /// 3 exponent bits, 4 mantissa bits, bias 3. The paper's recommended
    /// default for computer-vision models.
    E3M4,
}

impl Fp8Format {
    /// All three formats, in the order the paper lists them.
    pub const ALL: [Fp8Format; 3] = [Fp8Format::E5M2, Fp8Format::E4M3, Fp8Format::E3M4];

    /// The format's binary layout and special-value rules.
    pub fn spec(self) -> FpSpec {
        match self {
            Fp8Format::E5M2 => FpSpec::new(5, 2, 15, NanEncoding::Ieee),
            Fp8Format::E4M3 => FpSpec::new(4, 3, 7, NanEncoding::Extended),
            Fp8Format::E3M4 => FpSpec::new(3, 4, 3, NanEncoding::Extended),
        }
    }

    /// Largest finite representable magnitude (Table 1 "Max value").
    pub fn max_value(self) -> f32 {
        self.spec().max_value()
    }

    /// Number of mantissa bits.
    pub fn mantissa_bits(self) -> u32 {
        self.spec().man_bits
    }

    /// Whether the paper applies *direct* quantization (no range
    /// calibration / scaling) for this format. True only for E5M2, whose
    /// dynamic range is wide enough to absorb activation outliers (§3).
    pub fn direct_quantization(self) -> bool {
        matches!(self, Fp8Format::E5M2)
    }
}

crate::wire_enum!(Fp8Format { E5M2 => "E5M2", E4M3 => "E4M3", E3M4 => "E3M4" });

impl fmt::Display for Fp8Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Generic binary floating-point format description: `1 + exp_bits +
/// man_bits` must equal 8 for the FP8 formats, but the math is generic so
/// narrower/wider splits can be instantiated in tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FpSpec {
    /// Exponent field width in bits (`e` in the paper's `EeMm` notation).
    pub exp_bits: u32,
    /// Mantissa field width in bits (`m` in the paper's `EeMm` notation).
    pub man_bits: u32,
    /// Exponent bias `b`; stored exponent `E` encodes scale `2^(E-b)`.
    pub bias: i32,
    /// Special-value encoding style.
    pub nan_encoding: NanEncoding,
}

impl FpSpec {
    /// Build a spec. The total width (sign + exponent + mantissa) must fit
    /// in 8 bits for the `u8` codecs in this crate.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits == 0`, `1 + exp_bits + man_bits > 8`, or the
    /// format cannot represent any finite value.
    pub fn new(exp_bits: u32, man_bits: u32, bias: i32, nan_encoding: NanEncoding) -> Self {
        assert!(exp_bits >= 1, "need at least one exponent bit");
        assert!(
            1 + exp_bits + man_bits <= 8,
            "sign + exponent + mantissa must fit in 8 bits"
        );
        if nan_encoding == NanEncoding::Ieee {
            // IEEE encoding reserves the top exponent entirely; with a single
            // exponent value there would be no finite normals.
            assert!(exp_bits >= 2, "IEEE encoding needs >= 2 exponent bits");
        }
        FpSpec {
            exp_bits,
            man_bits,
            bias,
            nan_encoding,
        }
    }

    /// Exponent field value that is all ones (`2^exp_bits - 1`).
    #[inline]
    pub fn exp_all_ones(&self) -> u32 {
        (1u32 << self.exp_bits) - 1
    }

    /// Mantissa field mask (`2^man_bits - 1`).
    #[inline]
    pub fn man_mask(&self) -> u32 {
        (1u32 << self.man_bits) - 1
    }

    /// Unbiased exponent of the smallest normal number (`1 - bias`).
    #[inline]
    pub fn min_normal_exp(&self) -> i32 {
        1 - self.bias
    }

    /// Unbiased exponent of the largest finite number.
    #[inline]
    pub fn max_exp(&self) -> i32 {
        match self.nan_encoding {
            // IEEE: top exponent is reserved for Inf/NaN.
            NanEncoding::Ieee => self.exp_all_ones() as i32 - 1 - self.bias,
            // Extended: top exponent carries normal values (except all-ones
            // mantissa, which is NaN).
            NanEncoding::Extended => self.exp_all_ones() as i32 - self.bias,
        }
    }

    /// Largest finite representable magnitude.
    pub fn max_value(&self) -> f32 {
        let m = self.man_bits;
        let (top_mantissa, exp) = match self.nan_encoding {
            // IEEE: full mantissa available below the reserved exponent.
            NanEncoding::Ieee => (self.man_mask(), self.max_exp()),
            // Extended without mantissa bits: the top exponent's one code
            // is NaN, so the binade below holds the largest value.
            NanEncoding::Extended if m == 0 => (0, self.max_exp() - 1),
            // Extended: all-ones mantissa at the top exponent is NaN, so the
            // largest usable mantissa is all-ones minus one.
            NanEncoding::Extended => (self.man_mask() - 1, self.max_exp()),
        };
        let frac = 1.0 + top_mantissa as f32 / (1u32 << m) as f32;
        frac * (exp as f32).exp2()
    }

    /// Smallest positive subnormal magnitude: `2^(1 - bias - man_bits)`.
    pub fn min_subnormal(&self) -> f32 {
        ((self.min_normal_exp() - self.man_bits as i32) as f32).exp2()
    }

    /// Smallest positive *normal* magnitude: `2^(1 - bias)`.
    pub fn min_normal(&self) -> f32 {
        (self.min_normal_exp() as f32).exp2()
    }

    /// Unit in the last place at magnitude `v` (spacing of the format's grid
    /// around `v`), assuming `v` is finite and inside the normal range.
    pub fn ulp_at(&self, v: f32) -> f32 {
        let a = v.abs();
        if a < self.min_normal() {
            return self.min_subnormal();
        }
        let e = a.log2().floor() as i32;
        let e = e.clamp(self.min_normal_exp(), self.max_exp());
        ((e - self.man_bits as i32) as f32).exp2()
    }

    /// Total number of distinct finite non-negative magnitudes (including
    /// zero). Useful for exhaustive enumeration in tests.
    pub fn finite_magnitude_count(&self) -> u32 {
        let per_exp = 1u32 << self.man_bits;
        let normal_exps = (self.max_exp() - self.min_normal_exp() + 1) as u32;
        let reserved_top = match self.nan_encoding {
            NanEncoding::Ieee => 0, // the whole top exponent is excluded from max_exp already
            NanEncoding::Extended => 1, // all-ones mantissa at top exponent is NaN
        };
        // subnormals (incl. zero) + normals - reserved NaN slot
        per_exp + normal_exps * per_exp - reserved_top
    }
}

impl fmt::Display for FpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E{}M{}(bias={})",
            self.exp_bits, self.man_bits, self.bias
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_max_values() {
        assert_eq!(Fp8Format::E5M2.max_value(), 57344.0);
        assert_eq!(Fp8Format::E4M3.max_value(), 448.0);
        assert_eq!(Fp8Format::E3M4.max_value(), 30.0);
    }

    #[test]
    fn table1_min_subnormals() {
        assert_eq!(Fp8Format::E5M2.spec().min_subnormal(), 2.0f32.powi(-16));
        assert_eq!(Fp8Format::E4M3.spec().min_subnormal(), 2.0f32.powi(-9));
        assert_eq!(Fp8Format::E3M4.spec().min_subnormal(), 2.0f32.powi(-6));
    }

    #[test]
    fn table1_biases() {
        assert_eq!(Fp8Format::E5M2.spec().bias, 15);
        assert_eq!(Fp8Format::E4M3.spec().bias, 7);
        assert_eq!(Fp8Format::E3M4.spec().bias, 3);
    }

    #[test]
    fn e5m2_is_ieee_others_extended() {
        assert_eq!(Fp8Format::E5M2.spec().nan_encoding, NanEncoding::Ieee);
        assert_eq!(Fp8Format::E4M3.spec().nan_encoding, NanEncoding::Extended);
        assert_eq!(Fp8Format::E3M4.spec().nan_encoding, NanEncoding::Extended);
    }

    #[test]
    fn min_normals() {
        assert_eq!(Fp8Format::E5M2.spec().min_normal(), 2.0f32.powi(-14));
        assert_eq!(Fp8Format::E4M3.spec().min_normal(), 2.0f32.powi(-6));
        assert_eq!(Fp8Format::E3M4.spec().min_normal(), 2.0f32.powi(-2));
    }

    #[test]
    fn ulp_examples() {
        let s = Fp8Format::E4M3.spec();
        // Around 1.0 (exponent 0), the grid spacing is 2^-3.
        assert_eq!(s.ulp_at(1.0), 0.125);
        // Around 448 (exponent 8), spacing is 2^5 = 32.
        assert_eq!(s.ulp_at(448.0), 32.0);
        // In the subnormal range the spacing equals the min subnormal.
        assert_eq!(s.ulp_at(0.001), s.min_subnormal());
    }

    #[test]
    fn magnitude_counts() {
        // E5M2: subnormal block 4 (incl zero) + 30 normal exponents * 4 = 124.
        assert_eq!(Fp8Format::E5M2.spec().finite_magnitude_count(), 124);
        // E4M3: 8 + 15*8 - 1(NaN slot) = 127.
        assert_eq!(Fp8Format::E4M3.spec().finite_magnitude_count(), 127);
        // E3M4: 16 + 7*16 - 1 = 127.
        assert_eq!(Fp8Format::E3M4.spec().finite_magnitude_count(), 127);
    }

    #[test]
    fn direct_quantization_only_for_e5m2() {
        assert!(Fp8Format::E5M2.direct_quantization());
        assert!(!Fp8Format::E4M3.direct_quantization());
        assert!(!Fp8Format::E3M4.direct_quantization());
    }

    #[test]
    fn display_names() {
        assert_eq!(Fp8Format::E5M2.to_string(), "E5M2");
        assert_eq!(Fp8Format::E4M3.spec().to_string(), "E4M3(bias=7)");
    }

    #[test]
    #[should_panic(expected = "fit in 8 bits")]
    fn spec_rejects_too_wide() {
        FpSpec::new(5, 4, 15, NanEncoding::Ieee);
    }
}
