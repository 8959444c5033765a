//! Quantized tensor view: FP8 byte codes executable by the fused kernels.
//!
//! [`QTensor`] wraps a [`StoredTensor`] (u8 codes + scales, the real 1
//! byte/element deployment layout from `ptq-fp8`) together with the cached
//! decode LUT for its format, so the matmul/conv kernels in
//! [`crate::ops`] can stream the codes into pooled scratch at the start of
//! each call: the codes are all that is resident, and the f32 form never
//! outlives the kernel call.
//!
//! ## Bit-identity contract
//!
//! Every fused kernel must produce *bit-identical* results to running the
//! corresponding f32 kernel on `dequantize()`d weights. The mechanism is
//! one expression, evaluated once per element per call:
//! `lut.decode(code) / scale(channel)` — exactly what
//! `StoredTensor::dequantize` computes (same decode table, same division;
//! never a multiply by a reciprocal, which rounds differently).
//! [`QTensor::decode_into`] (the loop `dequantize` itself is built on)
//! writes those values in storage order and the blocked kernels write the
//! same values in their panel order — or, under fewer than 4 rows with
//! AVX2, compute each one in a register from its code where the chain
//! reads it; the MAC loops then consume them in the same order as the f32
//! kernels, so accumulation is identical. The scale is *never* hoisted out of the accumulation
//! (float non-associativity would break the identity).

use ptq_fp8::{CodeBytes, Fp8Error, Fp8Format, Fp8Lut, StoredScales, StoredTensor};

use crate::tensor::Tensor;

/// An FP8-quantized tensor ready for fused execution.
#[derive(Debug, Clone)]
pub struct QTensor {
    stored: StoredTensor,
    lut: &'static Fp8Lut,
}

impl PartialEq for QTensor {
    fn eq(&self, other: &Self) -> bool {
        self.stored == other.stored
    }
}

impl QTensor {
    /// Wrap an existing [`StoredTensor`].
    pub fn from_stored(stored: StoredTensor) -> Self {
        let lut = Fp8Lut::for_format(stored.format());
        QTensor { stored, lut }
    }

    /// Quantize a tensor with a per-tensor max scale.
    ///
    /// # Errors
    ///
    /// Propagates [`Fp8Error`] from [`StoredTensor::quantize`] (cannot
    /// happen for a well-formed [`Tensor`], whose length always matches
    /// its shape).
    pub fn quantize(t: &Tensor, format: Fp8Format) -> Result<Self, Fp8Error> {
        Ok(Self::from_stored(StoredTensor::quantize(
            t.data(),
            t.shape(),
            format,
        )?))
    }

    /// Quantize with one scale per leading-axis channel (the paper's
    /// weight layout: output channels for Conv2d/Linear).
    ///
    /// # Errors
    ///
    /// Propagates [`Fp8Error`] for scalar shapes or an empty leading axis.
    pub fn quantize_per_channel(t: &Tensor, format: Fp8Format) -> Result<Self, Fp8Error> {
        Ok(Self::from_stored(StoredTensor::quantize_per_channel(
            t.data(),
            t.shape(),
            format,
        )?))
    }

    /// Reassemble a tensor from previously extracted parts — the artifact
    /// deserialization path, where `codes` is typically a zero-copy
    /// [`CodeBytes`] window into the artifact's backing buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`Fp8Error`] from [`StoredTensor::from_raw_parts`]:
    /// code count vs shape product, and per-channel scale count vs
    /// `shape[0]`.
    pub fn from_raw_parts(
        format: Fp8Format,
        shape: Vec<usize>,
        codes: CodeBytes,
        scales: StoredScales,
    ) -> Result<Self, Fp8Error> {
        Ok(Self::from_stored(StoredTensor::from_raw_parts(
            format, shape, codes, scales,
        )?))
    }

    /// The storage format.
    pub fn format(&self) -> Fp8Format {
        self.stored.format()
    }

    /// The logical shape.
    pub fn shape(&self) -> &[usize] {
        self.stored.shape()
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.stored.shape()[i]
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.stored.shape().len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.stored.bytes().len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.stored.bytes().is_empty()
    }

    /// Raw FP8 byte codes (row-major).
    pub fn codes(&self) -> &[u8] {
        self.stored.bytes()
    }

    /// The stored scales.
    pub fn scales(&self) -> &StoredScales {
        self.stored.scales()
    }

    /// The underlying stored tensor.
    pub fn stored(&self) -> &StoredTensor {
        &self.stored
    }

    /// Bytes of payload storage (codes + scales) — the number a deployment
    /// would keep resident, vs `4 * len()` for f32.
    pub fn storage_bytes(&self) -> usize {
        self.stored.storage_bytes()
    }

    /// Decode back to a dense f32 [`Tensor`] (the slow path the fused
    /// kernels exist to avoid; used by hooks that need an owned tensor).
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(self.stored.dequantize(), self.shape())
    }

    /// The decode table of the storage format.
    pub(crate) fn lut(&self) -> &'static Fp8Lut {
        self.lut
    }

    /// Decode every element into `out` in storage order — element `i` of
    /// leading-axis channel `c` is `lut.decode(code) / scale(c)`, bit for
    /// bit what [`QTensor::dequantize`] holds at `i` — without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        self.stored.decode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn dequantize_matches_stored() {
        let mut rng = TensorRng::seed(5);
        let t = rng.normal(&[4, 9], 0.0, 1.0);
        for f in Fp8Format::ALL {
            let q = QTensor::quantize(&t, f).unwrap();
            assert_eq!(q.shape(), t.shape());
            assert_eq!(q.storage_bytes(), 36 + 4);
            let d = q.dequantize();
            assert_eq!(d.data(), q.stored().dequantize().as_slice());
        }
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
                q.stored().codes().clone(),
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
