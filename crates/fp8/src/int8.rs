//! INT8 affine quantization codecs — the baseline the paper compares
//! FP8 formats against.
//!
//! Two modes are provided, matching the configurations used in the paper's
//! INT8 baseline (Neural Compressor defaults):
//!
//! * **Symmetric** — `q = clamp(round(x / s), -127, 127)`, `s = absmax / 127`.
//!   Used for weights (and for activations in the "Static CV" recipe).
//! * **Asymmetric** — `q = clamp(round(x / s) + z, 0, 255)` with a zero
//!   point, used for activations with skewed ranges.
//!
//! The defining property the paper leans on (Figure 1): INT8's step size is
//! *uniform* and set by the largest observed value, so outliers stretch the
//! grid and starve the bulk of the distribution of resolution. The FP8 codecs
//! in [`crate::codec`] have logarithmic spacing instead.

use crate::error::Fp8Error;
use serde::{Deserialize, Serialize};

/// Symmetric (weight-style) vs asymmetric (activation-style) affine mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Int8Mode {
    /// Zero point fixed at 0; range ±absmax mapped to ±127.
    #[default]
    Symmetric,
    /// Affine with zero point; range [min, max] mapped to [0, 255].
    Asymmetric,
}

/// A calibrated INT8 codec: scale (+ zero point for asymmetric mode).
///
/// ```
/// use ptq_fp8::{Int8Codec, Int8Mode};
/// let c = Int8Codec::calibrate(&[-1.0, 0.5, 2.0], Int8Mode::Symmetric);
/// let q = c.quantize(0.5);
/// assert!((q - 0.5).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Int8Codec {
    mode: Int8Mode,
    scale: f32,
    zero_point: i32,
}

impl Int8Codec {
    /// Build a codec from explicit range bounds `[lo, hi]`.
    ///
    /// For symmetric mode the range used is `±max(|lo|, |hi|)`. Degenerate
    /// all-zero ranges produce a unit-scale codec (quantizing zeros to zero).
    pub fn from_range(lo: f32, hi: f32, mode: Int8Mode) -> Self {
        match mode {
            Int8Mode::Symmetric => {
                let absmax = lo.abs().max(hi.abs());
                let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
                Int8Codec {
                    mode,
                    scale,
                    zero_point: 0,
                }
            }
            Int8Mode::Asymmetric => {
                // Ensure the representable range includes zero so that
                // padding/ReLU zeros are exact (standard practice).
                let lo = lo.min(0.0);
                let hi = hi.max(0.0);
                let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
                let zero_point = (-lo / scale).round() as i32;
                Int8Codec {
                    mode,
                    scale,
                    zero_point: zero_point.clamp(0, 255),
                }
            }
        }
    }

    /// Calibrate directly from data (min/max observation).
    pub fn calibrate(data: &[f32], mode: Int8Mode) -> Self {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in data {
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Self::from_range(0.0, 0.0, mode);
        }
        Self::from_range(lo, hi, mode)
    }

    /// Reassemble a codec from previously extracted parts (the artifact
    /// deserialization path).
    ///
    /// # Errors
    ///
    /// Returns [`Fp8Error::InvalidCodec`] when `scale` is non-finite or
    /// non-positive, or when `zero_point` is outside the mode's legal
    /// range (`0` exactly for symmetric, `0..=255` for asymmetric) — the
    /// invariants [`Int8Codec::from_range`] always establishes.
    pub fn from_raw_parts(mode: Int8Mode, scale: f32, zero_point: i32) -> Result<Self, Fp8Error> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(Fp8Error::InvalidCodec {
                detail: format!("scale {scale} must be finite and positive"),
            });
        }
        let zp_ok = match mode {
            Int8Mode::Symmetric => zero_point == 0,
            Int8Mode::Asymmetric => (0..=255).contains(&zero_point),
        };
        if !zp_ok {
            return Err(Fp8Error::InvalidCodec {
                detail: format!("zero point {zero_point} out of range for {mode:?} mode"),
            });
        }
        Ok(Int8Codec {
            mode,
            scale,
            zero_point,
        })
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero point (0 in symmetric mode).
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// The codec's mode.
    pub fn mode(&self) -> Int8Mode {
        self.mode
    }

    /// Encode a value to its integer code.
    #[inline]
    pub fn encode(&self, x: f32) -> i32 {
        match self.mode {
            Int8Mode::Symmetric => ((x / self.scale).round() as i32).clamp(-127, 127),
            // Saturating: `as i32` maps a huge or infinite `x` to i32::MAX,
            // which a plain add would wrap to a negative code.
            Int8Mode::Asymmetric => ((x / self.scale).round() as i32)
                .saturating_add(self.zero_point)
                .clamp(0, 255),
        }
    }

    /// Decode an integer code back to f32.
    #[inline]
    pub fn decode(&self, q: i32) -> f32 {
        match self.mode {
            Int8Mode::Symmetric => q as f32 * self.scale,
            Int8Mode::Asymmetric => (q - self.zero_point) as f32 * self.scale,
        }
    }

    /// Fake-quantize one value (`decode(encode(x))`).
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        self.decode(self.encode(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_roundtrip_grid() {
        let c = Int8Codec::from_range(-2.0, 2.0, Int8Mode::Symmetric);
        for q in -127..=127 {
            let v = c.decode(q);
            assert_eq!(c.encode(v), q);
        }
    }

    #[test]
    fn symmetric_step_uniform() {
        let c = Int8Codec::from_range(-1.0, 1.0, Int8Mode::Symmetric);
        let step = c.scale();
        assert!((step - 1.0 / 127.0).abs() < 1e-9);
        // Uniform spacing: decode(q+1) - decode(q) constant.
        for q in -127..127 {
            assert!((c.decode(q + 1) - c.decode(q) - step).abs() < 1e-6);
        }
    }

    #[test]
    fn outlier_stretches_grid() {
        // Figure-1 mechanic: one outlier at 6.0 makes the step ~47x coarser
        // than a clean ±0.127... range would be.
        let clean = Int8Codec::from_range(-1.0, 1.0, Int8Mode::Symmetric);
        let stretched = Int8Codec::from_range(-1.0, 6.0, Int8Mode::Symmetric);
        assert!(stretched.scale() > 5.0 * clean.scale());
        // Small values now quantize much more coarsely.
        let x = 0.01;
        let e_clean = (clean.quantize(x) - x).abs();
        let e_str = (stretched.quantize(x) - x).abs();
        assert!(e_str >= e_clean);
    }

    #[test]
    fn asymmetric_zero_is_exact() {
        let c = Int8Codec::from_range(-0.3, 5.7, Int8Mode::Asymmetric);
        assert_eq!(c.quantize(0.0), 0.0);
    }

    #[test]
    fn asymmetric_covers_skewed_range() {
        let c = Int8Codec::from_range(0.0, 10.0, Int8Mode::Asymmetric);
        assert!((c.quantize(10.0) - 10.0).abs() < c.scale());
        assert!((c.quantize(5.0) - 5.0).abs() <= 0.5 * c.scale() + 1e-6);
        // Symmetric would waste half its codes on the never-seen negatives.
        let s = Int8Codec::from_range(0.0, 10.0, Int8Mode::Symmetric);
        assert!(c.scale() < s.scale());
    }

    #[test]
    fn saturation_clamps() {
        let c = Int8Codec::from_range(-1.0, 1.0, Int8Mode::Symmetric);
        assert_eq!(c.quantize(100.0), c.decode(127));
        assert_eq!(c.quantize(-100.0), c.decode(-127));
    }

    #[test]
    fn degenerate_range() {
        let c = Int8Codec::from_range(0.0, 0.0, Int8Mode::Symmetric);
        assert_eq!(c.quantize(0.0), 0.0);
        let c = Int8Codec::calibrate(&[], Int8Mode::Asymmetric);
        assert_eq!(c.quantize(0.0), 0.0);
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let c = Int8Codec::from_range(-0.3, 5.7, Int8Mode::Asymmetric);
        let rebuilt = Int8Codec::from_raw_parts(c.mode(), c.scale(), c.zero_point()).unwrap();
        assert_eq!(c, rebuilt);
        let c = Int8Codec::from_range(-2.0, 2.0, Int8Mode::Symmetric);
        assert_eq!(
            Int8Codec::from_raw_parts(c.mode(), c.scale(), c.zero_point()).unwrap(),
            c
        );
        for bad_scale in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            assert!(Int8Codec::from_raw_parts(Int8Mode::Symmetric, bad_scale, 0).is_err());
        }
        assert!(Int8Codec::from_raw_parts(Int8Mode::Symmetric, 1.0, 3).is_err());
        assert!(Int8Codec::from_raw_parts(Int8Mode::Asymmetric, 1.0, 256).is_err());
        assert!(Int8Codec::from_raw_parts(Int8Mode::Asymmetric, 1.0, -1).is_err());
        assert!(Int8Codec::from_raw_parts(Int8Mode::Asymmetric, 1.0, 255).is_ok());
    }

    #[test]
    fn asymmetric_encode_saturates_huge_values() {
        let c = Int8Codec::from_range(-3.0, 5.0, Int8Mode::Asymmetric);
        for (x, code) in [
            (f32::INFINITY, 255),
            (1e30, 255),
            (f32::NEG_INFINITY, 0),
            (-1e30, 0),
        ] {
            assert_eq!(c.encode(x), code, "{x}");
        }
    }

    #[test]
    fn calibrate_ignores_nonfinite() {
        let c = Int8Codec::calibrate(&[1.0, f32::NAN, -2.0, f32::INFINITY], Int8Mode::Symmetric);
        assert!((c.scale() - 2.0 / 127.0).abs() < 1e-9);
    }
}
