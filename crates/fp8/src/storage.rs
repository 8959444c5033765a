//! Real quantized storage: FP8 tensors held as `u8` codes.
//!
//! The rest of the workspace uses *fake quantization* (quantize →
//! dequantize in f32), which is how the paper's emulation measures
//! accuracy. This module provides the storage format a deployment would
//! actually keep in memory: one byte per element plus per-tensor or
//! per-channel scales — the 4× memory reduction that motivates 8-bit
//! inference in the first place.

use crate::bytes::CodeBytes;
use crate::error::Fp8Error;
use crate::format::Fp8Format;
use crate::lut::Fp8Lut;
use crate::quantize::fp8_scale;
use serde::{Deserialize, Serialize};

/// Scale layout of a stored tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
/// so that [`fp8_scale`] sees it and falls back to unit scale — the same
/// convention as the dynamic-activation path in `ptq-core` (PR 2).
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

/// An FP8 tensor stored as raw byte codes plus scales.
///
/// ```
/// # fn main() -> Result<(), ptq_fp8::Fp8Error> {
/// use ptq_fp8::{Fp8Format, StoredTensor};
/// let data = vec![0.5_f32, -1.25, 3.0, 0.0];
/// let st = StoredTensor::quantize(&data, &[4], Fp8Format::E4M3)?;
/// assert_eq!(st.bytes().len(), 4);                 // 1 byte/element
/// let back = st.dequantize();
/// assert!((back[1] + 1.25).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTensor {
    format: Fp8Format,
    shape: Vec<usize>,
    codes: CodeBytes,
    scales: StoredScales,
}

impl StoredTensor {
    /// Quantize `data` (row-major, any shape) with a per-tensor max scale.
    ///
    /// A NaN/Inf absmax falls back to unit scale (non-finite values then
    /// round-trip through the codec's own NaN/saturation rules), matching
    /// the dynamic-quantization convention in `ptq-core`.
    ///
    /// # Errors
    ///
    /// Returns [`Fp8Error::ShapeMismatch`] if `data.len()` does not match
    /// the product of `shape`.
    pub fn quantize(data: &[f32], shape: &[usize], format: Fp8Format) -> Result<Self, Fp8Error> {
        check_shape(data.len(), shape)?;
        let lut = Fp8Lut::for_format(format);
        let scale = fp8_scale(format, absmax_nan_aware(data));
        let codes: Vec<u8> = data.iter().map(|&x| lut.encode(x * scale)).collect();
        Ok(StoredTensor {
            format,
            shape: shape.to_vec(),
            codes: codes.into(),
            scales: StoredScales::PerTensor(scale),
        })
    }

    /// Quantize with one scale per leading-axis channel (the paper's
    /// weight layout). Channels with NaN/Inf absmax fall back to unit
    /// scale, like [`StoredTensor::quantize`].
    ///
    /// # Errors
    ///
    /// Returns [`Fp8Error::ShapeMismatch`] on a shape/length mismatch,
    /// [`Fp8Error::ScalarShape`] for an empty shape, and
    /// [`Fp8Error::EmptyLeadingAxis`] when `shape[0] == 0`.
    pub fn quantize_per_channel(
        data: &[f32],
        shape: &[usize],
        format: Fp8Format,
    ) -> Result<Self, Fp8Error> {
        check_shape(data.len(), shape)?;
        let channels = *shape.first().ok_or(Fp8Error::ScalarShape)?;
        if channels == 0 {
            return Err(Fp8Error::EmptyLeadingAxis);
        }
        let inner = data.len() / channels;
        let lut = Fp8Lut::for_format(format);
        let mut codes = Vec::with_capacity(data.len());
        let mut scales = Vec::with_capacity(channels);
        for c in 0..channels {
            let chunk = &data[c * inner..(c + 1) * inner];
            let scale = fp8_scale(format, absmax_nan_aware(chunk));
            scales.push(scale);
            codes.extend(chunk.iter().map(|&x| lut.encode(x * scale)));
        }
        Ok(StoredTensor {
            format,
            shape: shape.to_vec(),
            codes: codes.into(),
            scales: StoredScales::PerChannel(scales),
        })
    }

    /// Reassemble a tensor from previously extracted parts (the
    /// deserialization path: artifact loaders hand in a zero-copy
    /// [`CodeBytes`] window plus the stored scales).
    ///
    /// Validates every invariant [`StoredTensor::quantize`] /
    /// [`StoredTensor::quantize_per_channel`] would have established:
    ///
    /// # Errors
    ///
    /// * [`Fp8Error::ShapeMismatch`] — `codes.len()` ≠ product of `shape`.
    /// * [`Fp8Error::ScalarShape`] / [`Fp8Error::EmptyLeadingAxis`] —
    ///   per-channel scales over a scalar or empty-leading-axis shape.
    /// * [`Fp8Error::ScaleCountMismatch`] — per-channel scale count ≠
    ///   `shape[0]`.
    pub fn from_raw_parts(
        format: Fp8Format,
        shape: Vec<usize>,
        codes: CodeBytes,
        scales: StoredScales,
    ) -> Result<Self, Fp8Error> {
        check_shape(codes.len(), &shape)?;
        if let StoredScales::PerChannel(s) = &scales {
            let channels = *shape.first().ok_or(Fp8Error::ScalarShape)?;
            if channels == 0 {
                return Err(Fp8Error::EmptyLeadingAxis);
            }
            if s.len() != channels {
                return Err(Fp8Error::ScaleCountMismatch {
                    expected: channels,
                    got: s.len(),
                });
            }
        }
        Ok(StoredTensor {
            format,
            shape,
            codes,
            scales,
        })
    }

    /// The storage format.
    pub fn format(&self) -> Fp8Format {
        self.format
    }

    /// The logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Raw byte codes (row-major).
    pub fn bytes(&self) -> &[u8] {
        &self.codes
    }

    /// The code buffer itself (owned or zero-copy shared).
    pub fn codes(&self) -> &CodeBytes {
        &self.codes
    }

    /// The stored scales.
    pub fn scales(&self) -> &StoredScales {
        &self.scales
    }

    /// Bytes of payload storage (codes + scales), for memory accounting.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + 4 * self.scales.len()
    }

    /// Decode back to f32 via the shared cached [`Fp8Lut`] (bit-identical
    /// to the scalar codec; see `lut_equivalence` tests).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.codes.len()];
        self.decode_into(&mut out);
        out
    }

    /// [`StoredTensor::dequantize`] into a caller-owned buffer: element `i`
    /// of leading-axis channel `c` becomes `lut.decode(code) / scale(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the element count.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.codes.len(), "decode_into output length");
        if self.codes.is_empty() {
            return;
        }
        let lut = Fp8Lut::for_format(self.format);
        // One scale group per channel; per-tensor storage is one group.
        let inner = self.codes.len() / self.scales.len();
        let groups = out.chunks_mut(inner).zip(self.codes.chunks(inner));
        for (c, (o, b)) in groups.enumerate() {
            // Divide by the scale (rather than multiplying by a precomputed
            // reciprocal) so results are bit-identical to fake quantization.
            let s = self.scales.scale_for_channel(c);
            for (o, &b) in o.iter_mut().zip(b) {
                *o = lut.decode(b) / s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Fp8Codec;
    use crate::quantize::fake_quant_fp8;

    #[test]
    fn roundtrip_matches_fake_quant() {
        // Real storage must reproduce exactly what fake quantization
        // computes: decode(encode(x*s))/s.
        let data: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.13).collect();
        for f in Fp8Format::ALL {
            let st = StoredTensor::quantize(&data, &[64], f).unwrap();
            let real = st.dequantize();
            let mut fake = data.clone();
            let codec = Fp8Codec::new(f);
            let absmax = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            fake_quant_fp8(&mut fake, &codec, fp8_scale(f, absmax));
            for (a, b) in real.iter().zip(&fake) {
                assert_eq!(a.to_bits(), b.to_bits(), "{f}");
            }
        }
    }

    #[test]
    fn per_channel_roundtrip() {
        let mut data = vec![0.0f32; 32];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 16 { 0.01 } else { 10.0 } * ((i % 7) as f32 - 3.0);
        }
        let st = StoredTensor::quantize_per_channel(&data, &[2, 16], Fp8Format::E3M4).unwrap();
        let back = st.dequantize();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 0.05 + 1e-6, "{a} vs {b}");
        }
        match st.scales() {
            StoredScales::PerChannel(s) => assert_eq!(s.len(), 2),
            _ => panic!("expected per-channel scales"),
        }
    }

    #[test]
    fn storage_is_4x_smaller_than_f32() {
        let data = vec![1.0f32; 1024];
        let st = StoredTensor::quantize(&data, &[1024], Fp8Format::E4M3).unwrap();
        assert_eq!(st.storage_bytes(), 1024 + 4);
        assert!(st.storage_bytes() * 3 < data.len() * 4);
    }

    #[test]
    fn zero_tensor() {
        let st = StoredTensor::quantize(&[0.0; 8], &[8], Fp8Format::E5M2).unwrap();
        assert!(st.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_checked() {
        let err = StoredTensor::quantize(&[0.0; 8], &[3, 3], Fp8Format::E4M3).unwrap_err();
        assert!(matches!(err, Fp8Error::ShapeMismatch { data_len: 8, .. }));
        assert!(err.to_string().contains("shape/product mismatch"));
    }

    #[test]
    fn a_wrapping_shape_product_is_a_mismatch() {
        // 6 × (2^63 + 5) wraps to exactly 30 in 64-bit arithmetic (and
        // 6 × (2^31 + 5) in 32-bit).
        let shape = vec![6, usize::MAX / 2 + 6];
        let err = StoredTensor::from_raw_parts(
            Fp8Format::E4M3,
            shape,
            CodeBytes::from(vec![0u8; 30]),
            StoredScales::PerTensor(1.0),
        )
        .unwrap_err();
        assert!(matches!(err, Fp8Error::ShapeMismatch { data_len: 30, .. }));
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn per_channel_rejects_degenerate_shapes() {
        assert_eq!(
            StoredTensor::quantize_per_channel(&[0.0], &[], Fp8Format::E4M3).unwrap_err(),
            Fp8Error::ScalarShape
        );
        assert_eq!(
            StoredTensor::quantize_per_channel(&[], &[0, 4], Fp8Format::E4M3).unwrap_err(),
            Fp8Error::EmptyLeadingAxis
        );
    }

    #[test]
    fn raw_parts_roundtrip_is_identity() {
        let data: Vec<f32> = (0..24).map(|i| (i as f32) * 0.37 - 4.0).collect();
        let st = StoredTensor::quantize_per_channel(&data, &[4, 6], Fp8Format::E4M3).unwrap();
        let rebuilt = StoredTensor::from_raw_parts(
            st.format(),
            st.shape().to_vec(),
            st.codes().clone(),
            st.scales().clone(),
        )
        .unwrap();
        assert_eq!(st, rebuilt);
    }

    #[test]
    fn raw_parts_validates_invariants() {
        let codes = CodeBytes::from(vec![0u8; 6]);
        let pt = StoredScales::PerTensor(1.0);
        assert!(matches!(
            StoredTensor::from_raw_parts(Fp8Format::E4M3, vec![7], codes.clone(), pt.clone())
                .unwrap_err(),
            Fp8Error::ShapeMismatch { data_len: 6, .. }
        ));
        let pc = StoredScales::PerChannel(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            StoredTensor::from_raw_parts(Fp8Format::E4M3, vec![2, 3], codes.clone(), pc.clone())
                .unwrap_err(),
            Fp8Error::ScaleCountMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            StoredTensor::from_raw_parts(
                Fp8Format::E4M3,
                vec![],
                CodeBytes::from(vec![0u8]),
                pc.clone()
            )
            .unwrap_err(),
            Fp8Error::ScalarShape
        );
        assert_eq!(
            StoredTensor::from_raw_parts(Fp8Format::E4M3, vec![0, 3], CodeBytes::from(vec![]), pc)
                .unwrap_err(),
            Fp8Error::EmptyLeadingAxis
        );
        // Per-tensor scales over a valid shape are fine.
        assert!(StoredTensor::from_raw_parts(Fp8Format::E4M3, vec![2, 3], codes, pt).is_ok());
    }

    #[test]
    fn non_finite_absmax_falls_back_to_unit_scale() {
        // Same convention as the PR 2 dynamic-quant fix: a NaN/Inf absmax
        // must not poison the scale.
        let data = [1.0f32, f32::NAN, -2.0, f32::INFINITY];
        let st = StoredTensor::quantize(&data, &[4], Fp8Format::E4M3).unwrap();
        assert_eq!(*st.scales(), StoredScales::PerTensor(1.0));
        let st = StoredTensor::quantize_per_channel(&data, &[2, 2], Fp8Format::E4M3).unwrap();
        match st.scales() {
            StoredScales::PerChannel(s) => {
                assert_eq!(s[0], 1.0, "NaN channel");
                assert_eq!(s[1], 1.0, "Inf channel");
            }
            _ => panic!("expected per-channel scales"),
        }
    }
}
