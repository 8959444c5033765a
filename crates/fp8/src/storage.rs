//! The parts of real FP8 storage every coded tensor shares.
//!
//! A deployment keeps one byte per element plus per-tensor or per-channel
//! scales — the 4× memory reduction that motivates 8-bit inference. The
//! tensors that hold such codes live in `ptq-tensor` (`QTensor` for
//! weights, `QActTensor` for activations), beside the lane encoder that
//! writes them; this module holds what they share with the fake-quant
//! loops: the scale layout, the NaN-aware absmax and the shape check.

use crate::error::Fp8Error;

/// Scale layout of a stored tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredScales {
    /// One scale for the whole tensor.
    PerTensor(f32),
    /// One scale per leading-axis channel (`shape[0]` entries).
    PerChannel(Vec<f32>),
}

impl StoredScales {
    /// Number of stored scale values.
    pub fn len(&self) -> usize {
        match self {
            StoredScales::PerTensor(_) => 1,
            StoredScales::PerChannel(v) => v.len(),
        }
    }

    /// Always false: even per-tensor storage carries one scale.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The scale applied to leading-axis channel `c`.
    ///
    /// Per-tensor storage returns the single scale for every channel;
    /// out-of-range per-channel lookups fall back to unit scale.
    #[inline]
    pub fn scale_for_channel(&self, c: usize) -> f32 {
        match self {
            StoredScales::PerTensor(s) => *s,
            StoredScales::PerChannel(v) => v.get(c).copied().unwrap_or(1.0),
        }
    }
}

/// Absmax that propagates NaN/Inf: any non-finite magnitude wins the fold
/// so that [`crate::fp8_scale`] sees it and falls back to unit scale — the
/// same convention as the dynamic-activation path in `ptq-core`.
#[inline]
pub fn absmax_nan_aware(data: &[f32]) -> f32 {
    data.iter().fold(0.0f32, |m, &v| {
        let a = v.abs();
        if a > m || !a.is_finite() {
            a
        } else {
            m
        }
    })
}

/// The element count of `shape`, or `None` when the product overflows
/// `usize` (a hostile artifact can write any dims).
pub(crate) fn shape_product(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Error unless `data_len` equals the product of `shape`; a product that
/// overflows `usize` matches no length.
pub fn check_shape(data_len: usize, shape: &[usize]) -> Result<(), Fp8Error> {
    if shape_product(shape) != Some(data_len) {
        return Err(Fp8Error::ShapeMismatch {
            data_len,
            shape: shape.to_vec(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Fp8Format;
    use crate::quantize::fp8_scale;

    #[test]
    fn shape_checked() {
        let err = check_shape(8, &[3, 3]).unwrap_err();
        assert!(matches!(err, Fp8Error::ShapeMismatch { data_len: 8, .. }));
        assert!(err.to_string().contains("shape/product mismatch"));
    }

    #[test]
    fn a_wrapping_shape_product_is_a_mismatch() {
        // 6 × (2^63 + 5) wraps to exactly 30 in 64-bit arithmetic (and
        // 6 × (2^31 + 5) in 32-bit).
        let err = check_shape(30, &[6, usize::MAX / 2 + 6]).unwrap_err();
        assert!(matches!(err, Fp8Error::ShapeMismatch { data_len: 30, .. }));
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn non_finite_absmax_falls_back_to_unit_scale() {
        // Same convention as dynamic activation quantization: a NaN/Inf absmax
        // must not poison the scale, for the whole tensor or one channel.
        let data = [1.0f32, f32::NAN, -2.0, f32::INFINITY];
        let scale = |xs: &[f32]| fp8_scale(Fp8Format::E4M3, absmax_nan_aware(xs));
        assert_eq!(scale(&data), 1.0);
        assert_eq!(scale(&data[..2]), 1.0, "NaN channel");
        assert_eq!(scale(&data[2..]), 1.0, "Inf channel");
    }
}
