//! Quantized weight tensor: FP8 byte codes executable by the fused kernels.
//!
//! [`QTensor`] is the real 1 byte/element deployment layout of a weight:
//! u8 codes (owned, or a zero-copy window into a loaded artifact) plus
//! per-tensor or per-channel scales. The matmul/conv kernels in
//! [`crate::ops`] stream the codes through the format's cached decode table
//! at the start of each call: the codes are all that is resident, and the
//! f32 form never outlives the kernel call.
//!
//! ## One encoder
//!
//! A scale group (the whole tensor, or one leading-axis channel) gets the
//! paper's scale `s = float_max / max_T` from [`tile_scale`] — the rule
//! [`crate::QActTensor`] applies to activation tiles — and its codes are
//! `encode(x · s)` through the crate's one lane encoder, the one that also
//! codes activations and KV rows. Its codes equal `Fp8Lut::encode(x · s)`
//! for every f32 input.
//!
//! ## Bit-identity contract
//!
//! Every fused kernel must produce *bit-identical* results to running the
//! corresponding f32 kernel on `dequantize()`d weights. The mechanism is
//! one expression, evaluated once per element per call:
//! `lut.decode(code) / scale(channel)` — exactly what
//! [`QTensor::dequantize`] computes (same decode table, same division;
//! never a multiply by a reciprocal, which rounds differently).
//! [`QTensor::decode_into`] (the loop `dequantize` itself is built on)
//! writes those values in storage order and the blocked kernels write the
//! same values in their panel order — or, under fewer than 4 rows with
//! AVX2, compute each one in a register from its code where the chain
//! reads it; the MAC loops then consume them in the same order as the f32
//! kernels, so accumulation is identical. The scale is *never* hoisted out of the accumulation
//! (float non-associativity would break the identity).

use ptq_fp8::{check_shape, CodeBytes, Fp8Error, Fp8Format, Fp8Lut, StoredScales};

use crate::act::tile_scale;
use crate::tensor::Tensor;

/// An FP8-quantized tensor ready for fused execution.
///
/// ```
/// # fn main() -> Result<(), ptq_fp8::Fp8Error> {
/// use ptq_tensor::{Fp8Format, QTensor, Tensor};
/// let t = Tensor::from_vec(vec![0.5, -1.25, 3.0, 0.0], &[4]);
/// let q = QTensor::quantize(&t, Fp8Format::E4M3)?;
/// assert_eq!(q.codes().len(), 4); // 1 byte/element
/// let back = q.dequantize();
/// assert!((back.data()[1] + 1.25).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    format: Fp8Format,
    shape: Vec<usize>,
    codes: CodeBytes,
    scales: StoredScales,
}

impl QTensor {
    /// Quantize a tensor with a per-tensor max scale.
    ///
    /// A NaN/Inf absmax falls back to unit scale (non-finite values then
    /// round-trip through the codec's own NaN/saturation rules), matching
    /// the dynamic-activation convention.
    ///
    /// # Errors
    ///
    /// [`Fp8Error::ShapeMismatch`] when the shape's product overflows
    /// (cannot happen for a well-formed [`Tensor`], whose length always
    /// matches its shape).
    pub fn quantize(t: &Tensor, format: Fp8Format) -> Result<Self, Fp8Error> {
        check_shape(t.len(), t.shape())?;
        let (codes, s) = encode_groups(t.data(), 1, format);
        Ok(Self::new(format, t, codes, StoredScales::PerTensor(s[0])))
    }

    /// Quantize with one scale per leading-axis channel (the paper's
    /// weight layout: output channels for Conv2d/Linear). Channels with
    /// NaN/Inf absmax fall back to unit scale, like [`QTensor::quantize`].
    ///
    /// # Errors
    ///
    /// [`Fp8Error::ShapeMismatch`] as [`QTensor::quantize`],
    /// [`Fp8Error::ScalarShape`] for an empty shape and
    /// [`Fp8Error::EmptyLeadingAxis`] when `shape[0] == 0`.
    pub fn quantize_per_channel(t: &Tensor, format: Fp8Format) -> Result<Self, Fp8Error> {
        check_shape(t.len(), t.shape())?;
        let channels = *t.shape().first().ok_or(Fp8Error::ScalarShape)?;
        if channels == 0 {
            return Err(Fp8Error::EmptyLeadingAxis);
        }
        let (codes, s) = encode_groups(t.data(), channels, format);
        Ok(Self::new(format, t, codes, StoredScales::PerChannel(s)))
    }

    fn new(format: Fp8Format, t: &Tensor, codes: Vec<u8>, scales: StoredScales) -> Self {
        let (shape, codes) = (t.shape().to_vec(), codes.into());
        QTensor {
            format,
            shape,
            codes,
            scales,
        }
    }

    /// Reassemble a tensor from previously extracted parts — the artifact
    /// deserialization path, where `codes` is typically a zero-copy
    /// [`CodeBytes`] window into the artifact's backing buffer.
    ///
    /// # Errors
    ///
    /// Every invariant the `quantize*` constructors establish is checked:
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
        Ok(QTensor {
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

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Raw FP8 byte codes (row-major), owned or a zero-copy window.
    pub fn codes(&self) -> &CodeBytes {
        &self.codes
    }

    /// The stored scales.
    pub fn scales(&self) -> &StoredScales {
        &self.scales
    }

    /// Bytes of payload storage (codes + scales) — the number a deployment
    /// would keep resident, vs `4 * len()` for f32.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + 4 * self.scales.len()
    }

    /// Decode back to a dense f32 [`Tensor`] (the slow path the fused
    /// kernels exist to avoid; used by hooks that need an owned tensor).
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0; self.len()];
        self.decode_into(&mut out);
        Tensor::from_vec(out, &self.shape)
    }

    /// The decode table of the storage format.
    pub(crate) fn lut(&self) -> &'static Fp8Lut {
        Fp8Lut::for_format(self.format)
    }

    /// Decode every element into `out` in storage order — element `i` of
    /// leading-axis channel `c` is `lut.decode(code) / scale(c)`, bit for
    /// bit what [`QTensor::dequantize`] holds at `i` — without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decode_into output length");
        if self.is_empty() {
            return;
        }
        let lut = self.lut();
        // One scale group per channel; per-tensor storage is one group.
        let inner = self.len() / self.scales.len();
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

/// `xs` coded as `groups` equal scale groups, each by its [`tile_scale`]
/// through the lane encoder ([`crate::ops::encode`]), and those scales.
fn encode_groups(xs: &[f32], groups: usize, format: Fp8Format) -> (Vec<u8>, Vec<f32>) {
    let (lut, inner) = (Fp8Lut::for_format(format), xs.len() / groups);
    let mut codes = vec![0; xs.len()];
    let scales = (0..groups)
        .map(|g| {
            let (xs, codes) = (&xs[g * inner..][..inner], &mut codes[g * inner..][..inner]);
            let s = tile_scale(format, xs);
            crate::ops::encode(lut, xs, s, codes);
            s
        })
        .collect();
    (codes, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;
    use ptq_fp8::{fake_quant_fp8, fp8_scale, Fp8Codec};

    fn quantize(data: &[f32], shape: &[usize], f: Fp8Format) -> QTensor {
        QTensor::quantize(&Tensor::from_vec(data.to_vec(), shape), f).unwrap()
    }

    fn quantize_per_channel(data: &[f32], shape: &[usize], f: Fp8Format) -> QTensor {
        QTensor::quantize_per_channel(&Tensor::from_vec(data.to_vec(), shape), f).unwrap()
    }

    #[test]
    fn dequantize_matches_stored() {
        let mut rng = TensorRng::seed(5);
        let t = rng.normal(&[4, 9], 0.0, 1.0);
        for f in Fp8Format::ALL {
            let q = QTensor::quantize(&t, f).unwrap();
            assert_eq!(q.shape(), t.shape());
            assert_eq!(q.storage_bytes(), 36 + 4);
            let d = q.dequantize();
            let s = q.scales().scale_for_channel(0);
            let lut = Fp8Lut::for_format(f);
            let stored: Vec<f32> = q.codes().iter().map(|&b| lut.decode(b) / s).collect();
            assert_eq!(d.data(), stored.as_slice());
        }
    }

    #[test]
    fn roundtrip_matches_fake_quant() {
        // Real storage must reproduce exactly what fake quantization
        // computes: decode(encode(x*s))/s.
        let data: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.13).collect();
        for f in Fp8Format::ALL {
            let real = quantize(&data, &[64], f).dequantize();
            let mut fake = data.clone();
            let codec = Fp8Codec::new(f);
            let absmax = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            fake_quant_fp8(&mut fake, &codec, fp8_scale(f, absmax));
            for (a, b) in real.data().iter().zip(&fake) {
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
        let q = quantize_per_channel(&data, &[2, 16], Fp8Format::E3M4);
        let back = q.dequantize();
        for (a, b) in data.iter().zip(back.data()) {
            assert!((a - b).abs() <= a.abs() * 0.05 + 1e-6, "{a} vs {b}");
        }
        match q.scales() {
            StoredScales::PerChannel(s) => assert_eq!(s.len(), 2),
            _ => panic!("expected per-channel scales"),
        }
    }

    #[test]
    fn storage_is_4x_smaller_than_f32() {
        let data = vec![1.0f32; 1024];
        let q = quantize(&data, &[1024], Fp8Format::E4M3);
        assert_eq!(q.storage_bytes(), 1024 + 4);
        assert!(q.storage_bytes() * 3 < data.len() * 4);
    }

    #[test]
    fn zero_tensor() {
        let q = quantize(&[0.0; 8], &[8], Fp8Format::E5M2);
        assert!(q.dequantize().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn per_channel_rejects_degenerate_shapes() {
        let scalar = Tensor::from_vec(vec![0.0], &[]);
        assert_eq!(
            QTensor::quantize_per_channel(&scalar, Fp8Format::E4M3).unwrap_err(),
            Fp8Error::ScalarShape
        );
        let empty = Tensor::from_vec(vec![], &[0, 4]);
        assert_eq!(
            QTensor::quantize_per_channel(&empty, Fp8Format::E4M3).unwrap_err(),
            Fp8Error::EmptyLeadingAxis
        );
    }

    #[test]
    fn raw_parts_roundtrip_is_identity() {
        let data: Vec<f32> = (0..24).map(|i| (i as f32) * 0.37 - 4.0).collect();
        let q = quantize_per_channel(&data, &[4, 6], Fp8Format::E4M3);
        let rebuilt = QTensor::from_raw_parts(
            q.format(),
            q.shape().to_vec(),
            q.codes().clone(),
            q.scales().clone(),
        )
        .unwrap();
        assert_eq!(q, rebuilt);
    }

    #[test]
    fn raw_parts_validates_invariants() {
        let codes = CodeBytes::from(vec![0u8; 6]);
        let pt = StoredScales::PerTensor(1.0);
        assert!(matches!(
            QTensor::from_raw_parts(Fp8Format::E4M3, vec![7], codes.clone(), pt.clone())
                .unwrap_err(),
            Fp8Error::ShapeMismatch { data_len: 6, .. }
        ));
        let pc = StoredScales::PerChannel(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            QTensor::from_raw_parts(Fp8Format::E4M3, vec![2, 3], codes.clone(), pc.clone())
                .unwrap_err(),
            Fp8Error::ScaleCountMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            QTensor::from_raw_parts(
                Fp8Format::E4M3,
                vec![],
                CodeBytes::from(vec![0u8]),
                pc.clone()
            )
            .unwrap_err(),
            Fp8Error::ScalarShape
        );
        assert_eq!(
            QTensor::from_raw_parts(Fp8Format::E4M3, vec![0, 3], CodeBytes::from(vec![]), pc)
                .unwrap_err(),
            Fp8Error::EmptyLeadingAxis
        );
        // A product that wraps `usize` matches no code count.
        let wrapping = vec![6, usize::MAX / 2 + 6];
        let err = QTensor::from_raw_parts(
            Fp8Format::E4M3,
            wrapping,
            CodeBytes::from(vec![0u8; 30]),
            pt.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, Fp8Error::ShapeMismatch { data_len: 30, .. }));
        // Per-tensor scales over a valid shape are fine.
        assert!(QTensor::from_raw_parts(Fp8Format::E4M3, vec![2, 3], codes, pt).is_ok());
    }

    #[test]
    fn raw_parts_reconstruction_is_bit_identical() {
        let mut rng = TensorRng::seed(8);
        let t = rng.normal(&[4, 6], 0.0, 1.0);
        for q in [
            QTensor::quantize(&t, Fp8Format::E5M2).unwrap(),
            QTensor::quantize_per_channel(&t, Fp8Format::E4M3).unwrap(),
        ] {
            let rebuilt = QTensor::from_raw_parts(
                q.format(),
                q.shape().to_vec(),
                q.codes().clone(),
                q.scales().clone(),
            )
            .unwrap();
            assert_eq!(q, rebuilt);
            let (a, b) = (q.dequantize(), rebuilt.dequantize());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Invalid parts are rejected, not panicked on.
        assert!(QTensor::from_raw_parts(
            Fp8Format::E4M3,
            vec![5],
            vec![0u8; 4].into(),
            StoredScales::PerTensor(1.0),
        )
        .is_err());
    }

    #[test]
    fn decode_into_matches_dequantize_per_tensor() {
        let mut rng = TensorRng::seed(6);
        let t = rng.normal(&[3, 7], 0.0, 2.0);
        let q = QTensor::quantize(&t, Fp8Format::E4M3).unwrap();
        let mut out = vec![f32::NAN; q.len()];
        q.decode_into(&mut out);
        for (i, (a, b)) in out.iter().zip(q.dequantize().data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}");
        }
    }

    #[test]
    fn decode_into_matches_dequantize_per_channel() {
        let mut rng = TensorRng::seed(7);
        let t = rng.normal(&[5, 6], 0.0, 1.0);
        let q = QTensor::quantize_per_channel(&t, Fp8Format::E3M4).unwrap();
        let mut out = vec![f32::NAN; q.len()];
        q.decode_into(&mut out);
        for (i, (a, b)) in out.iter().zip(q.dequantize().data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}");
        }
    }
}
