//! Activation-side FP8 code tensors: quantize-at-boundary storage.
//!
//! [`QActTensor`] is the activation counterpart of [`crate::QTensor`]: u8
//! FP8 codes plus scales, produced *at op boundaries* from a dense f32
//! tensor so the MAC kernels ([`crate::ops::matmul()`],
//! [`crate::ops::linear`], [`crate::ops::conv2d`], which take it as
//! [`crate::ops::ActOperand::Coded`]) never stream a dense f32
//! activation on the hot path. Unlike weights (quantized once at
//! prepare time), activations are re-quantized every batch, so the buffers
//! here are reusable: every `quantize_*` method takes `&mut self` and
//! recycles the code/scale allocations (the planned executor keeps
//! `QActTensor` slots in its arena).
//!
//! ## Scale layouts
//!
//! * **Per-tensor** (`tile == 0`, one scale): a static scale from
//!   calibration thresholds, or a dynamic per-batch absmax scale.
//! * **Per-tile** (`tile > 0`): the tensor is viewed as `[rows, inner]`
//!   with `inner` = the last dimension; each row is split into
//!   `ceil(inner / tile)` tiles (the last one ragged) and every tile gets
//!   its own dynamic absmax scale. This is the tile-based FP8-Linear
//!   scheme: per-tile scales bound the blast radius of an outlier to one
//!   tile and map directly onto a blocked kernel.
//!
//! ## Bit-identity contract
//!
//! `decoder().at(i)` returns `lut.decode(code) / scale` — bit-identical to
//! what fake quantization produces for the same element and scale. Every
//! `quantize_*` codes through the 8-lane encoder (`ops::encode`): on AVX2
//! lanes the round-to-nearest-even saturating code is computed from the
//! bits of `v * scale`, on array lanes it is `lut.encode(v * scale)` per
//! lane, and the two are pinned equal to `Fp8Lut::encode` on every f32
//! class (exhaustively over 2^32 inputs before merge). `lut.encode` (the
//! byte `Fp8Codec::encode` returns, found by the bucket lookup
//! `lut.quantize` runs) followed by `lut.decode` is exactly
//! `lut.quantize`, and the division by the scale
//! is performed per element, never folded into the accumulation. The
//! fake-quant reference for the per-tile layout is
//! [`fake_quant_per_tile`], which computes its scales with the *same*
//! helper ([`tile_scale`]) so the two paths cannot drift. NaN/Inf
//! magnitudes propagate into the absmax fold and force a unit scale (the
//! PR 2 dynamic-activation convention), leaving non-finite values to the
//! codec's own NaN/saturation rules.

use ptq_fp8::{absmax_nan_aware, check_shape, fp8_scale, Fp8Error, Fp8Format, Fp8Lut};

use crate::tensor::Tensor;

/// The per-tile scale for one chunk of activation values: NaN-aware
/// absmax through [`fp8_scale`] (non-finite or zero absmax → unit scale).
/// Shared by [`QActTensor::quantize_per_tile`] and
/// [`fake_quant_per_tile`] so the code path and the fake-quant reference
/// compute bit-identical scales.
#[inline]
pub fn tile_scale(format: Fp8Format, chunk: &[f32]) -> f32 {
    fp8_scale(format, absmax_nan_aware(chunk))
}

/// Where the scale(s) of a boundary-coded activation come from: the three
/// layouts [`QActTensor::quantize`] can produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActScale {
    /// A fixed per-tensor scale (calibrated, or the direct formats' unit
    /// scale).
    Static(f32),
    /// One per-tensor absmax scale computed from the batch at hand.
    Dynamic,
    /// One absmax scale per chunk of this many last-dimension elements.
    PerTile(usize),
}

impl ActScale {
    /// [`QActTensor::storage_bytes`] of a tensor of `shape` coded with this
    /// scale layout, without coding it.
    pub fn coded_bytes(self, shape: &[usize]) -> usize {
        let len: usize = shape.iter().product();
        let tile = match self {
            ActScale::Static(_) | ActScale::Dynamic => 0,
            ActScale::PerTile(tile) => tile.max(1),
        };
        len + 4 * scale_count(len, shape, tile)
    }
}

/// Scales a `len`-element tensor of `shape` carries at tile width `tile`:
/// one for the per-tensor layout (`tile == 0`), else one per `tile`-wide
/// chunk (ragged tail included) of each last-dimension row.
fn scale_count(len: usize, shape: &[usize], tile: usize) -> usize {
    if tile == 0 {
        return 1;
    }
    let inner = shape.last().copied().unwrap_or(1).max(1);
    len.div_ceil(inner) * inner.div_ceil(tile)
}

/// Elements per chunk of a per-tensor encode's fan-out.
const ENCODE_CHUNK: usize = 4096;
/// An encode's weight in the kernels' MAC units: it fans out from 32 768
/// elements, where two threads first tie with one. The lane encode costs
/// ≈ 0.6 ns per element (≈ 12 MACs at ≈ 0.05 ns), so below that the
/// fan-out's hand-off costs more than the second thread saves, by a
/// replay of serial against pooled encodes (DESIGN.md §13).
const ENCODE_MACS: usize = 32;

/// An FP8-coded activation tensor with reusable buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct QActTensor {
    format: Fp8Format,
    shape: Vec<usize>,
    codes: Vec<u8>,
    scales: Vec<f32>,
    /// Elements per scale within a row; `0` means a single per-tensor
    /// scale (`scales.len() == 1`).
    tile: usize,
}

impl Default for QActTensor {
    fn default() -> Self {
        QActTensor {
            format: Fp8Format::E4M3,
            shape: Vec::new(),
            codes: Vec::new(),
            scales: Vec::new(),
            tile: 0,
        }
    }
}

impl QActTensor {
    /// An empty buffer ready for `quantize_*` (arena slot initializer).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, x: &Tensor, format: Fp8Format, tile: usize) {
        self.format = format;
        self.shape.clear();
        self.shape.extend_from_slice(x.shape());
        self.codes.clear();
        self.codes.resize(x.len(), 0);
        self.scales.clear();
        self.tile = tile;
    }

    /// Quantize `x` under the given scale layout.
    pub fn quantize(&mut self, x: &Tensor, format: Fp8Format, scale: ActScale) {
        match scale {
            ActScale::Static(s) => self.quantize_static(x, format, s),
            ActScale::Dynamic => self.quantize_dynamic(x, format),
            ActScale::PerTile(t) => self.quantize_per_tile(x, format, t),
        }
    }

    /// Quantize with a fixed per-tensor scale (static calibration scales,
    /// or a dynamic scale the caller computed). Codes are
    /// `encode(x * scale)`, exactly as [`ptq_fp8::StoredTensor::quantize`]
    /// produces them, encoded in chunks fanned out like a kernel's.
    ///
    /// A zero or non-finite scale would poison every code (`x * 0` or
    /// `x * inf/NaN` before encode, and the decoder divides by the same
    /// scale), so it falls back to the unit scale — the same guard
    /// [`Self::quantize_dynamic`] gets from [`ptq_fp8::fp8_scale`].
    pub fn quantize_static(&mut self, x: &Tensor, format: Fp8Format, scale: f32) {
        let scale = if scale.is_finite() && scale != 0.0 {
            scale
        } else {
            1.0
        };
        self.reset(x, format, 0);
        let (lut, xs) = (Fp8Lut::for_format(format), x.data());
        let cost = x.len() * ENCODE_MACS;
        crate::ops::for_each_chunk(&mut self.codes, ENCODE_CHUNK, cost, |i, codes| {
            crate::ops::encode(lut, &xs[i * ENCODE_CHUNK..][..codes.len()], scale, codes)
        });
        self.scales.push(scale);
    }

    /// Quantize with a dynamic per-tensor absmax scale (the fallback when
    /// no calibration threshold exists). A NaN/Inf absmax falls back to
    /// unit scale.
    pub fn quantize_dynamic(&mut self, x: &Tensor, format: Fp8Format) {
        let scale = tile_scale(format, x.data());
        self.quantize_static(x, format, scale);
    }

    /// Quantize with one dynamic absmax scale per `tile`-wide chunk of
    /// each last-dimension row (ragged tails get their own scale). A
    /// `tile` of `0` is clamped to `1`. Tiles whose absmax is NaN/Inf
    /// fall back to unit scale.
    pub fn quantize_per_tile(&mut self, x: &Tensor, format: Fp8Format, tile: usize) {
        let tile = tile.max(1);
        self.reset(x, format, tile);
        let inner = x.shape().last().copied().unwrap_or(1).max(1);
        let lut = Fp8Lut::for_format(format);
        for (row, codes) in x.data().chunks(inner).zip(self.codes.chunks_mut(inner)) {
            for (chunk, codes) in row.chunks(tile).zip(codes.chunks_mut(tile)) {
                let s = tile_scale(format, chunk);
                crate::ops::encode(lut, chunk, s, codes);
                self.scales.push(s);
            }
        }
    }

    /// Reassemble an activation tensor from previously extracted parts.
    ///
    /// Validates the invariants the `quantize_*` methods establish:
    /// `codes.len()` must equal the product of `shape`, and the scale
    /// count must match the layout — exactly one scale for `tile == 0`
    /// (per-tensor), or `rows * ceil(inner / tile)` scales for `tile > 0`
    /// where `inner` is the last dimension (the layout
    /// [`Self::quantize_per_tile`] produces).
    ///
    /// # Errors
    ///
    /// [`Fp8Error::ShapeMismatch`] on a code/shape disagreement,
    /// [`Fp8Error::ScaleCountMismatch`] on a scale-count disagreement.
    pub fn from_raw_parts(
        format: Fp8Format,
        shape: Vec<usize>,
        codes: Vec<u8>,
        scales: Vec<f32>,
        tile: usize,
    ) -> Result<Self, Fp8Error> {
        check_shape(codes.len(), &shape)?;
        let expected = scale_count(codes.len(), &shape, tile);
        if scales.len() != expected {
            return Err(Fp8Error::ScaleCountMismatch {
                expected,
                got: scales.len(),
            });
        }
        Ok(QActTensor {
            format,
            shape,
            codes,
            scales,
            tile,
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

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Raw FP8 byte codes (row-major).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The scales (one for per-tensor, one per tile otherwise).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The tile width (`0` = per-tensor).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Bytes of payload storage (codes + scales) — what a deployment
    /// keeps resident on the wire between ops, vs `4 * len()` for f32.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + 4 * self.scales.len()
    }

    /// The element decoder the code×code kernels read through.
    pub fn decoder(&self) -> ActDecode<'_> {
        let inner = self.shape.last().copied().unwrap_or(1).max(1);
        let tiles_per_row = if self.tile == 0 {
            1
        } else {
            inner.div_ceil(self.tile)
        };
        ActDecode {
            codes: &self.codes,
            scales: &self.scales,
            lut: Fp8Lut::for_format(self.format),
            inner,
            tile: self.tile,
            tiles_per_row,
        }
    }

    /// Decode back to a dense f32 [`Tensor`] — the materialization the
    /// fused kernels avoid; used by tests and fallback hooks.
    pub fn dequantize(&self) -> Tensor {
        let dec = self.decoder();
        let mut data = vec![0.0f32; self.codes.len()];
        dec.decode_range(0, &mut data);
        Tensor::from_vec(data, &self.shape)
    }
}

/// Element decoder over a [`QActTensor`]'s codes: `at(i)` is
/// `lut.decode(codes[i]) / scale(i)`, bit-identical to the fake-quant
/// value of element `i`.
pub struct ActDecode<'a> {
    codes: &'a [u8],
    scales: &'a [f32],
    lut: &'static Fp8Lut,
    inner: usize,
    tile: usize,
    tiles_per_row: usize,
}

impl ActDecode<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    // `tile == 0` is the per-tensor layout marker, not a degenerate
    // divisor; the division only runs in the tiled arm.
    #[allow(clippy::manual_checked_ops)]
    #[inline]
    fn scale_at(&self, idx: usize) -> f32 {
        if self.tile == 0 {
            self.scales[0]
        } else {
            let r = idx / self.inner;
            let c = idx % self.inner;
            self.scales[r * self.tiles_per_row + c / self.tile]
        }
    }

    /// Decode element `idx`.
    #[inline]
    pub fn at(&self, idx: usize) -> f32 {
        self.lut.decode(self.codes[idx]) / self.scale_at(idx)
    }

    /// Decode `out.len()` consecutive elements starting at `start` into
    /// `out` — the per-row/per-plane scratch fill the blocked kernels use
    /// to amortize decoding over the MAC loop.
    // See `scale_at`: `tile == 0` selects the per-tensor layout.
    #[allow(clippy::manual_checked_ops)]
    pub fn decode_range(&self, start: usize, out: &mut [f32]) {
        if self.tile == 0 {
            let s = self.scales[0];
            let codes = &self.codes[start..start + out.len()];
            for (o, &b) in out.iter_mut().zip(codes) {
                *o = self.lut.decode(b) / s;
            }
        } else {
            // Walk whole tile runs so the scale lookup (and its div/mod
            // index math) happens once per tile, not once per element.
            let mut idx = start;
            let mut done = 0;
            let end = start + out.len();
            while idx < end {
                let (r, c) = (idx / self.inner, idx % self.inner);
                let t = c / self.tile;
                let s = self.scales[r * self.tiles_per_row + t];
                let run = (((t + 1) * self.tile).min(self.inner) - c).min(end - idx);
                for (o, &b) in out[done..done + run]
                    .iter_mut()
                    .zip(&self.codes[idx..idx + run])
                {
                    *o = self.lut.decode(b) / s;
                }
                idx += run;
                done += run;
            }
        }
    }
}

/// Fake-quantize `data` in place with the per-tile scale layout of
/// [`QActTensor::quantize_per_tile`]: the tensor is viewed as rows of
/// `inner` elements, each split into `tile`-wide chunks with their own
/// NaN-aware absmax scale. Bit-identical to quantizing per tile and
/// decoding: both paths compute scales with [`tile_scale`] and round-trip
/// values through the same format tables.
pub fn fake_quant_per_tile(data: &mut [f32], inner: usize, format: Fp8Format, tile: usize) {
    let tile = tile.max(1);
    let inner = inner.max(1);
    let lut = Fp8Lut::for_format(format);
    for row in data.chunks_mut(inner) {
        for chunk in row.chunks_mut(tile) {
            let s = tile_scale(format, chunk);
            for v in chunk.iter_mut() {
                *v = lut.quantize(*v * s) / s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;
    use ptq_fp8::{fake_quant_fp8, Fp8Codec};

    #[test]
    fn static_roundtrip_matches_fake_quant() {
        let mut rng = TensorRng::seed(41);
        let t = rng.normal(&[6, 17], 0.0, 1.5);
        for f in Fp8Format::ALL {
            let scale = tile_scale(f, t.data());
            let mut q = QActTensor::new();
            q.quantize_static(&t, f, scale);
            assert_eq!(q.storage_bytes(), 6 * 17 + 4);
            let mut reference = t.data().to_vec();
            let codec = Fp8Codec::new(f);
            fake_quant_fp8(&mut reference, &codec, scale);
            let d = q.dequantize();
            for (i, (a, b)) in d.data().iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{f} elem {i}");
            }
        }
    }

    #[test]
    fn a_fanned_out_encode_is_the_element_wise_encode() {
        // Lengths on both sides of the fan-out cutoff (32 768 elements)
        // and of a chunk boundary, a ragged last chunk included.
        let mut rng = TensorRng::seed(43);
        for len in [
            0,
            1,
            8191,
            8192,
            8193,
            3 * ENCODE_CHUNK + 17,
            32_767,
            32_768,
            32_769,
            110_592,
        ] {
            let t = rng.normal(&[len], 0.0, 3.0);
            for f in Fp8Format::ALL {
                let mut q = QActTensor::new();
                q.quantize_static(&t, f, 0.75);
                let lut = Fp8Lut::for_format(f);
                let want: Vec<u8> = t.data().iter().map(|&v| lut.encode(v * 0.75)).collect();
                assert_eq!(q.codes(), &want[..], "{f} len {len}");
            }
        }
    }

    #[test]
    fn static_degenerate_scale_falls_back_to_unit() {
        // A zero or non-finite caller scale must not poison the codes:
        // it gets the same unit-scale fallback the dynamic path has.
        let t = Tensor::from_vec(vec![0.5, -1.25, 2.0], &[3]);
        for bad in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut q = QActTensor::new();
            q.quantize_static(&t, Fp8Format::E4M3, bad);
            assert_eq!(q.scales(), &[1.0], "scale {bad}");
            let mut unit = QActTensor::new();
            unit.quantize_static(&t, Fp8Format::E4M3, 1.0);
            assert_eq!(q.codes(), unit.codes(), "scale {bad}");
        }
        // A legitimate scale is still trusted verbatim.
        let mut q = QActTensor::new();
        q.quantize_static(&t, Fp8Format::E4M3, 2.5);
        assert_eq!(q.scales(), &[2.5]);
    }

    #[test]
    fn subnormal_tiles_get_unit_scales_and_no_nan() {
        // An all-subnormal tile's absmax overflows max/absmax: unit scale,
        // so zeros stay zeros and the rest round to ±0, none to NaN.
        let tiny = f32::MIN_POSITIVE / 8.0;
        let t = Tensor::from_vec(vec![0.0, tiny, -tiny, 0.0, 1.5, -tiny], &[2, 3]);
        for f in Fp8Format::ALL {
            let mut q = QActTensor::new();
            q.quantize_per_tile(&t, f, 3);
            assert_eq!(q.scales()[0], 1.0, "{f:?}");
            assert!(q.scales().iter().all(|s| s.is_finite()), "{f:?}");
            assert!(q.dequantize().data().iter().all(|v| !v.is_nan()), "{f:?}");
            let mut fake = t.data().to_vec();
            fake_quant_per_tile(&mut fake, 3, f, 3);
            assert!(fake.iter().all(|v| !v.is_nan()), "{f:?}");
            let sub = Tensor::from_vec(vec![0.0, tiny, -tiny], &[3]);
            q.quantize(&sub, f, ActScale::Dynamic);
            assert_eq!(q.scales(), &[1.0], "{f:?}");
            assert!(q.dequantize().data().iter().all(|v| !v.is_nan()), "{f:?}");
        }
    }

    #[test]
    fn dynamic_nonfinite_absmax_uses_unit_scale() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN, -2.0, f32::INFINITY], &[4]);
        let mut q = QActTensor::new();
        q.quantize_dynamic(&t, Fp8Format::E4M3);
        assert_eq!(q.scales(), &[1.0]);
        let d = q.dequantize();
        assert!(d.data()[1].is_nan());
    }

    #[test]
    fn per_tile_matches_fake_quant_reference_with_ragged_tail() {
        let mut rng = TensorRng::seed(42);
        // inner = 13 with tile 4 -> tiles of 4,4,4,1 per row.
        let t = rng.normal(&[5, 13], 0.0, 2.0);
        for f in Fp8Format::ALL {
            for tile in [1usize, 3, 4, 13, 64] {
                let mut q = QActTensor::new();
                q.quantize_per_tile(&t, f, tile);
                assert_eq!(q.scales().len(), 5 * 13usize.div_ceil(tile));
                let mut reference = t.data().to_vec();
                fake_quant_per_tile(&mut reference, 13, f, tile);
                let d = q.dequantize();
                for (i, (a, b)) in d.data().iter().zip(&reference).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{f} tile {tile} elem {i}");
                }
            }
        }
    }

    /// Per-tile codes on both lane types: rows of 37 (a ragged last tile
    /// at every width but 1) with a NaN, an Inf and an f32 subnormal in
    /// them, each tile's codes `lut.encode(v · s)` by its own scale.
    #[test]
    fn per_tile_codes_are_the_table_encode_on_both_lane_types() {
        let mut t = TensorRng::seed(47).normal(&[3, 37], 0.0, 3.0);
        t.data_mut()[5] = f32::NAN;
        t.data_mut()[40] = f32::INFINITY;
        t.data_mut()[90] = f32::from_bits(3);
        crate::ops::on_both_lanes(|lanes| {
            for f in Fp8Format::ALL {
                let lut = Fp8Lut::for_format(f);
                for tile in [1, 7, 8, 9, 32] {
                    let mut q = QActTensor::new();
                    q.quantize_per_tile(&t, f, tile);
                    let tiles = t.data().chunks(37).flat_map(|row| row.chunks(tile));
                    let want: Vec<u8> = tiles
                        .zip(q.scales())
                        .flat_map(|(chunk, &s)| chunk.iter().map(move |&v| lut.encode(v * s)))
                        .collect();
                    assert_eq!(q.codes(), &want[..], "{lanes}, {f} tile {tile}");
                }
            }
        });
    }

    #[test]
    fn per_tile_nan_poisons_only_its_tile() {
        let mut data = vec![0.5f32; 8];
        data[1] = f32::NAN;
        let t = Tensor::from_vec(data, &[2, 4]);
        let mut q = QActTensor::new();
        q.quantize_per_tile(&t, Fp8Format::E4M3, 2);
        // Tile holding the NaN gets unit scale; others get absmax scales.
        assert_eq!(q.scales()[0], 1.0);
        assert!(q.scales()[1] != 1.0);
        let d = q.dequantize();
        assert!(d.data()[1].is_nan());
        assert!(d.data()[0].is_finite());
    }

    #[test]
    fn coded_bytes_predicts_storage_bytes() {
        let mut rng = TensorRng::seed(46);
        let mut q = QActTensor::new();
        for shape in [&[5usize, 13][..], &[2, 3, 4, 7], &[9]] {
            let t = rng.normal(shape, 0.0, 1.0);
            for scale in [
                ActScale::Static(2.0),
                ActScale::Dynamic,
                ActScale::PerTile(4),
                ActScale::PerTile(0),
                ActScale::PerTile(64),
            ] {
                q.quantize(&t, Fp8Format::E4M3, scale);
                assert_eq!(
                    scale.coded_bytes(shape),
                    q.storage_bytes(),
                    "{shape:?} {scale:?}"
                );
            }
        }
    }

    #[test]
    fn buffers_are_reused_across_quantize_calls() {
        let mut rng = TensorRng::seed(43);
        let big = rng.normal(&[8, 32], 0.0, 1.0);
        let small = rng.normal(&[2, 8], 0.0, 1.0);
        let mut q = QActTensor::new();
        q.quantize_dynamic(&big, Fp8Format::E5M2);
        let cap = q.codes.capacity();
        q.quantize_per_tile(&small, Fp8Format::E3M4, 4);
        assert_eq!(q.len(), 16);
        assert_eq!(q.tile(), 4);
        assert!(q.codes.capacity() >= cap, "allocation was not recycled");
    }

    #[test]
    fn raw_parts_reconstruction_is_bit_identical() {
        let mut rng = TensorRng::seed(45);
        let t = rng.normal(&[3, 13], 0.0, 1.0);
        let mut per_tensor = QActTensor::new();
        per_tensor.quantize_dynamic(&t, Fp8Format::E4M3);
        let mut per_tile = QActTensor::new();
        per_tile.quantize_per_tile(&t, Fp8Format::E5M2, 4);
        for q in [per_tensor, per_tile] {
            let rebuilt = QActTensor::from_raw_parts(
                q.format(),
                q.shape().to_vec(),
                q.codes().to_vec(),
                q.scales().to_vec(),
                q.tile(),
            )
            .unwrap();
            assert_eq!(q, rebuilt);
            let (a, b) = (q.dequantize(), rebuilt.dequantize());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn raw_parts_validates_shape_and_scale_counts() {
        // Codes disagree with the shape.
        assert!(matches!(
            QActTensor::from_raw_parts(Fp8Format::E4M3, vec![5], vec![0u8; 4], vec![1.0], 0),
            Err(Fp8Error::ShapeMismatch { data_len: 4, .. })
        ));
        // Per-tensor layout needs exactly one scale.
        assert!(matches!(
            QActTensor::from_raw_parts(Fp8Format::E4M3, vec![4], vec![0u8; 4], vec![1.0, 2.0], 0),
            Err(Fp8Error::ScaleCountMismatch {
                expected: 1,
                got: 2
            })
        ));
        // Tiled layout: [2, 13] rows with tile 4 -> 2 * ceil(13/4) = 8.
        assert!(matches!(
            QActTensor::from_raw_parts(
                Fp8Format::E4M3,
                vec![2, 13],
                vec![0u8; 26],
                vec![1.0; 7],
                4
            ),
            Err(Fp8Error::ScaleCountMismatch {
                expected: 8,
                got: 7
            })
        ));
        assert!(QActTensor::from_raw_parts(
            Fp8Format::E4M3,
            vec![2, 13],
            vec![0u8; 26],
            vec![1.0; 8],
            4
        )
        .is_ok());
    }

    #[test]
    fn decoder_range_matches_elementwise() {
        let mut rng = TensorRng::seed(44);
        let t = rng.normal(&[3, 10], 0.0, 1.0);
        let mut q = QActTensor::new();
        q.quantize_per_tile(&t, Fp8Format::E4M3, 3);
        let dec = q.decoder();
        let mut out = vec![0.0f32; 12];
        dec.decode_range(7, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), dec.at(7 + i).to_bits());
        }
    }
}
