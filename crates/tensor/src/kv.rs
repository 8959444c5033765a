//! Incremental-decoding KV cache: per-layer append buffers holding
//! attention keys/values as f32 rows or u8 FP8 codes + scales.
//!
//! Autoregressive decoding re-reads every past position's K/V at every
//! step; the cache is the growing state that makes a step O(current
//! length) instead of O(window²). Rows are stored *position-major* in the
//! pre-head layout (`d = heads · head_dim` values per position — exactly
//! the rows the K/V projection Linears emit), so appending a step is one
//! contiguous row write and the per-head slice `[h·dh, (h+1)·dh)` of any
//! row is contiguous for the step kernels in [`crate::ops::attn`].
//!
//! ## Storage policies
//!
//! * [`KvCachePolicy::F32`]: rows kept verbatim. This is the bit-identity
//!   reference — decoding through an F32 cache reproduces the full-window
//!   forward exactly (see `ops::attn` for the accumulation-order
//!   argument).
//! * [`KvCachePolicy::Fp8`]: rows encoded to u8 codes. With a **static
//!   per-tensor scale** (calibrated from prefill activations) every row
//!   shares one scale. With no static scale the buffer falls back to
//!   **per-block dynamic scales** — one NaN-aware absmax scale per
//!   appended row, the same convention as
//!   [`crate::QActTensor::quantize_per_tile`] with the row as the tile.
//!
//! Codes follow the crate-wide convention: `lut.encode(v * scale)` on the
//! way in (a row through the 8-lane encoder, `ops::encode`, bit-identical
//! to the table), `lut.decode(code) / scale` on the way out, scale applied
//! per element and never folded into an accumulation. Nothing decodes a
//! whole window: the step kernels read either storage where it lies (the
//! reference loop through [`KvBuf::value_at`], the blocked bodies in lanes).
//!
//! Buffers pre-allocate their full capacity up front, so appends on the
//! decode hot path never touch the allocator and a capacity overflow is a
//! typed [`KvError`], not a reallocation.

use ptq_fp8::{absmax_nan_aware, fp8_scale, Fp8Format, Fp8Lut};
use std::fmt;

/// Why a cache operation was rejected. All cache misuse — ragged rows,
/// overflowing the planned window, indexing a missing layer — surfaces as
/// a typed error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The buffer already holds `capacity` positions; the decode session
    /// has outgrown its planned window.
    CapacityOverflow {
        /// Planned position capacity.
        capacity: usize,
    },
    /// An appended row's width disagrees with the buffer's `d`.
    RowShape {
        /// Expected row width (`heads · head_dim`).
        expected: usize,
        /// Width of the offered row.
        got: usize,
    },
    /// A layer index is out of range.
    LayerOutOfRange {
        /// The offending index.
        layer: usize,
        /// Number of layers the cache holds.
        layers: usize,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::CapacityOverflow { capacity } => {
                write!(
                    f,
                    "kv cache capacity overflow (capacity {capacity} positions)"
                )
            }
            KvError::RowShape { expected, got } => {
                write!(
                    f,
                    "kv cache row width mismatch: expected {expected}, got {got}"
                )
            }
            KvError::LayerOutOfRange { layer, layers } => {
                write!(f, "kv cache layer {layer} out of range ({layers} layers)")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// Which side of an attention layer a cache buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvSide {
    /// Key rows (read by the q·Kᵀ score kernel).
    K,
    /// Value rows (read by the probs·V context kernel).
    V,
}

impl fmt::Display for KvSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvSide::K => write!(f, "k"),
            KvSide::V => write!(f, "v"),
        }
    }
}

/// How a cache buffer stores its rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KvCachePolicy {
    /// Dense f32 rows — the bit-identity reference.
    #[default]
    F32,
    /// u8 FP8 codes. `scale: Some(s)` is the calibrated static per-tensor
    /// scale; `None` selects the per-row dynamic-absmax fallback.
    Fp8 {
        /// Code format (E5M2 / E4M3 / E3M4).
        format: Fp8Format,
        /// Static per-tensor scale; `None` → per-row dynamic scales.
        scale: Option<f32>,
    },
}

impl KvCachePolicy {
    /// Resolve a calibration-pending policy against observed prefill
    /// activations: `Fp8 { scale: None }` gains a static per-tensor scale
    /// from the rows' NaN-aware absmax. A degenerate absmax (zero or
    /// non-finite — e.g. a zero-length prefill window or poisoned
    /// activations) keeps `scale: None`, which [`KvBuf`] serves with the
    /// per-row dynamic fallback. `F32` and already-calibrated policies
    /// pass through unchanged.
    #[must_use]
    pub fn calibrated(self, rows: &[f32]) -> KvCachePolicy {
        match self {
            KvCachePolicy::Fp8 {
                format,
                scale: None,
            } => {
                let a = absmax_nan_aware(rows);
                let scale = (a.is_finite() && a > 0.0).then(|| fp8_scale(format, a));
                KvCachePolicy::Fp8 { format, scale }
            }
            other => other,
        }
    }
}

/// Backing storage of one [`KvBuf`].
#[derive(Debug, Clone)]
enum KvStore {
    F32(Vec<f32>),
    Fp8 {
        format: Fp8Format,
        /// `format`'s tables, resolved once at construction.
        lut: &'static Fp8Lut,
        codes: Vec<u8>,
        /// `Some` = static per-tensor scale (shared by every row);
        /// `None` = one dynamic scale per appended row in `row_scales`.
        static_scale: Option<f32>,
        row_scales: Vec<f32>,
    },
}

/// One append buffer: K or V rows of one attention layer.
#[derive(Debug, Clone)]
pub struct KvBuf {
    d: usize,
    capacity: usize,
    len: usize,
    store: KvStore,
}

/// A [`KvBuf`]'s storage where it lies, position-major, `d` values a
/// position: f32 rows, or FP8 codes with their format's table and the
/// static scale or one a row. Position `j`'s value at column `c` is
/// `rows[j·d + c]`, or `lut.decode(codes[j·d + c]) / scale(j)` —
/// [`KvBuf::value_at`], and the AVX2 step kernels' lanes.
pub(crate) enum KvView<'a> {
    F32(&'a [f32]),
    Fp8(&'a [u8], &'static Fp8Lut, (Option<f32>, &'a [f32])),
}

impl KvBuf {
    /// An empty buffer for `capacity` positions of `d`-wide rows, fully
    /// pre-allocated so appends never allocate. A static FP8 scale that
    /// is zero or non-finite would poison every code (the same hazard
    /// [`crate::QActTensor::quantize_static`] guards), so it demotes to
    /// the per-row dynamic fallback.
    pub fn new(d: usize, capacity: usize, policy: KvCachePolicy) -> Self {
        let store = match policy {
            KvCachePolicy::F32 => KvStore::F32(Vec::with_capacity(d * capacity)),
            KvCachePolicy::Fp8 { format, scale } => KvStore::Fp8 {
                format,
                lut: Fp8Lut::for_format(format),
                codes: Vec::with_capacity(d * capacity),
                static_scale: scale.filter(|s| s.is_finite() && *s != 0.0),
                row_scales: Vec::with_capacity(capacity),
            },
        };
        KvBuf {
            d,
            capacity,
            len: 0,
            store,
        }
    }

    /// Row width (`heads · head_dim`).
    pub fn d(&self) -> usize {
        self.d
    }

    /// Positions currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The storage policy the buffer runs (static scale resolved).
    pub fn policy(&self) -> KvCachePolicy {
        match &self.store {
            KvStore::F32(_) => KvCachePolicy::F32,
            KvStore::Fp8 {
                format,
                static_scale,
                ..
            } => KvCachePolicy::Fp8 {
                format: *format,
                scale: *static_scale,
            },
        }
    }

    /// Payload bytes currently resident (codes/values + scales) — the
    /// number to compare against `4 · len · d` for f32.
    pub fn storage_bytes(&self) -> usize {
        match &self.store {
            KvStore::F32(data) => 4 * data.len(),
            KvStore::Fp8 {
                codes,
                static_scale,
                row_scales,
                ..
            } => codes.len() + 4 * (row_scales.len() + usize::from(static_scale.is_some())),
        }
    }

    /// Append one position's row. Errors on a ragged row or a full
    /// buffer; on error the buffer is unchanged.
    pub fn append_row(&mut self, row: &[f32]) -> Result<(), KvError> {
        if row.len() != self.d {
            return Err(KvError::RowShape {
                expected: self.d,
                got: row.len(),
            });
        }
        if self.len == self.capacity {
            return Err(KvError::CapacityOverflow {
                capacity: self.capacity,
            });
        }
        match &mut self.store {
            KvStore::F32(data) => data.extend_from_slice(row),
            KvStore::Fp8 {
                format,
                lut,
                codes,
                static_scale,
                row_scales,
            } => {
                let s = match static_scale {
                    Some(s) => *s,
                    None => {
                        // Per-row dynamic fallback: NaN-aware absmax scale,
                        // unit on a non-finite/empty row (fp8_scale's guard).
                        let s = fp8_scale(*format, absmax_nan_aware(row));
                        row_scales.push(s);
                        s
                    }
                };
                let at = codes.len();
                codes.resize(at + row.len(), 0);
                crate::ops::encode(lut, row, s, &mut codes[at..]);
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Decode element `(position j, column c)`: the f32 value the step
    /// kernels accumulate. The reference loop reads every value through
    /// it; the AVX2 bodies compute the same `decode(code) / scale` in
    /// lanes, or load the f32 in place.
    #[inline]
    pub fn value_at(&self, j: usize, c: usize) -> f32 {
        match self.view() {
            KvView::F32(rows) => rows[j * self.d + c],
            KvView::Fp8(codes, lut, (s, rs)) => {
                lut.decode(codes[j * self.d + c]) / s.unwrap_or_else(|| rs[j])
            }
        }
    }

    /// The storage in place ([`KvView`]).
    #[inline]
    pub(crate) fn view(&self) -> KvView<'_> {
        match &self.store {
            KvStore::F32(rows) => KvView::F32(rows),
            KvStore::Fp8 {
                lut,
                codes,
                static_scale,
                row_scales,
                ..
            } => KvView::Fp8(codes, lut, (*static_scale, row_scales)),
        }
    }

    /// Forget every cached position, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        match &mut self.store {
            KvStore::F32(data) => data.clear(),
            KvStore::Fp8 {
                codes, row_scales, ..
            } => {
                codes.clear();
                row_scales.clear();
            }
        }
    }
}

/// One attention layer's pair of cache buffers.
#[derive(Debug, Clone)]
pub struct KvLayer {
    /// Key rows.
    pub k: KvBuf,
    /// Value rows.
    pub v: KvBuf,
}

/// The per-layer KV cache of one decode session.
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<KvLayer>,
}

impl KvCache {
    /// A cache with one `(K policy, V policy)` pair per attention layer,
    /// all rows `d` wide, `capacity` positions per buffer.
    pub fn new(policies: &[(KvCachePolicy, KvCachePolicy)], d: usize, capacity: usize) -> Self {
        let layers = policies
            .iter()
            .map(|&(pk, pv)| KvLayer {
                k: KvBuf::new(d, capacity, pk),
                v: KvBuf::new(d, capacity, pv),
            })
            .collect();
        KvCache { layers }
    }

    /// A cache with the same policy on every layer and side.
    pub fn uniform(layers: usize, d: usize, capacity: usize, policy: KvCachePolicy) -> Self {
        KvCache::new(&vec![(policy, policy); layers], d, capacity)
    }

    /// Positions cached so far (buffers grow in lockstep; this reads
    /// layer 0's K buffer, or 0 for a layer-less cache).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, |l| l.k.len())
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow one layer's buffer.
    pub fn buf(&self, layer: usize, side: KvSide) -> Result<&KvBuf, KvError> {
        let layers = self.layers.len();
        let l = self
            .layers
            .get(layer)
            .ok_or(KvError::LayerOutOfRange { layer, layers })?;
        Ok(match side {
            KvSide::K => &l.k,
            KvSide::V => &l.v,
        })
    }

    fn buf_mut(&mut self, layer: usize, side: KvSide) -> Result<&mut KvBuf, KvError> {
        let layers = self.layers.len();
        let l = self
            .layers
            .get_mut(layer)
            .ok_or(KvError::LayerOutOfRange { layer, layers })?;
        Ok(match side {
            KvSide::K => &mut l.k,
            KvSide::V => &mut l.v,
        })
    }

    /// Append one position's row to one layer/side.
    pub fn append(&mut self, layer: usize, side: KvSide, row: &[f32]) -> Result<(), KvError> {
        self.buf_mut(layer, side)?.append_row(row)
    }

    /// Seal one buffer that staged its rows in f32: re-store them under
    /// `policy`, a calibration-pending static scale resolved from those
    /// very rows ([`KvCachePolicy::calibrated`]) — how a decode session
    /// turns the exact rows its prompt attended into the cache generated
    /// tokens read. Under an `F32` policy the staged buffer *is* the
    /// sealed one; a buffer not stored as f32 is sealed already.
    pub fn seal(
        &mut self,
        layer: usize,
        side: KvSide,
        policy: KvCachePolicy,
    ) -> Result<(), KvError> {
        let buf = self.buf_mut(layer, side)?;
        let KvStore::F32(rows) = &mut buf.store else {
            return Ok(());
        };
        if policy == KvCachePolicy::F32 {
            return Ok(());
        }
        let rows = std::mem::take(rows);
        let mut sealed = KvBuf::new(buf.d, buf.capacity, policy.calibrated(&rows));
        for j in 0..buf.len {
            sealed.append_row(&rows[j * buf.d..(j + 1) * buf.d])?;
        }
        *buf = sealed;
        Ok(())
    }

    /// Total payload bytes across all buffers.
    pub fn cache_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.k.storage_bytes() + l.v.storage_bytes())
            .sum()
    }

    /// What the same cached positions would occupy as dense f32 — the
    /// denominator of the cache-bytes ratio.
    pub fn f32_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| 4 * (l.k.len() * l.k.d() + l.v.len() * l.v.d()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;
    use ptq_fp8::{fake_quant_fp8, Fp8Codec};

    impl KvCache {
        /// Forget every cached position in every layer, keeping allocations.
        fn clear(&mut self) {
            for l in &mut self.layers {
                l.k.clear();
                l.v.clear();
            }
        }
    }

    impl KvBuf {
        /// Planned position capacity.
        fn capacity(&self) -> usize {
            self.capacity
        }
    }

    #[test]
    fn f32_roundtrip_is_exact() {
        let mut buf = KvBuf::new(4, 3, KvCachePolicy::F32);
        let rows = [[1.0f32, -2.5, 0.0, 3.25], [0.5, 0.5, -0.5, -0.5]];
        for r in &rows {
            buf.append_row(r).unwrap();
        }
        assert_eq!(buf.len(), 2);
        for (j, r) in rows.iter().enumerate() {
            for (c, &v) in r.iter().enumerate() {
                assert_eq!(buf.value_at(j, c).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn typed_errors_on_ragged_and_full() {
        let mut buf = KvBuf::new(3, 1, KvCachePolicy::F32);
        assert_eq!(
            buf.append_row(&[1.0, 2.0]),
            Err(KvError::RowShape {
                expected: 3,
                got: 2
            })
        );
        buf.append_row(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            buf.append_row(&[4.0, 5.0, 6.0]),
            Err(KvError::CapacityOverflow { capacity: 1 })
        );
        // The failed append left the buffer unchanged.
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.value_at(0, 2), 3.0);
    }

    #[test]
    fn fp8_static_scale_matches_fake_quant() {
        let mut rng = TensorRng::seed(7);
        let row = rng.normal(&[16], 0.0, 1.0);
        for format in Fp8Format::ALL {
            let scale = fp8_scale(format, absmax_nan_aware(row.data()));
            let mut buf = KvBuf::new(
                16,
                4,
                KvCachePolicy::Fp8 {
                    format,
                    scale: Some(scale),
                },
            );
            buf.append_row(row.data()).unwrap();
            let mut reference = row.data().to_vec();
            fake_quant_fp8(&mut reference, &Fp8Codec::new(format), scale);
            for (c, &want) in reference.iter().enumerate() {
                assert_eq!(
                    buf.value_at(0, c).to_bits(),
                    want.to_bits(),
                    "{format} col {c}"
                );
            }
        }
    }

    /// Appended FP8 rows of every width 1–33 (whole and ragged 8-lane
    /// blocks) on both lane types, under a static scale and the per-row
    /// dynamic one: the stored codes are `lut.encode(v · s)` by the row's
    /// scale.
    #[test]
    fn fp8_row_codes_are_the_table_encode_on_both_lane_types() {
        let mut rng = TensorRng::seed(11);
        crate::ops::on_both_lanes(|lanes| {
            for (format, scale) in Fp8Format::ALL
                .into_iter()
                .flat_map(|f| [(f, Some(0.37)), (f, None)])
            {
                for d in 1..=33 {
                    let mut buf = KvBuf::new(d, 2, KvCachePolicy::Fp8 { format, scale });
                    let mut rows = rng.normal(&[2, d], 0.0, 4.0);
                    rows.data_mut()[d] = f32::NEG_INFINITY;
                    (0..2).for_each(|j| buf.append_row(rows.row(j)).unwrap());
                    let KvView::Fp8(codes, lut, (s, row_scales)) = buf.view() else {
                        unreachable!("an FP8 policy stores codes")
                    };
                    for (j, row) in rows.data().chunks(d).enumerate() {
                        let s = s.unwrap_or_else(|| row_scales[j]);
                        let want: Vec<u8> = row.iter().map(|&v| lut.encode(v * s)).collect();
                        assert_eq!(
                            &codes[j * d..][..d],
                            &want[..],
                            "{lanes}, {format} {scale:?} d {d}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn fp8_per_row_fallback_scales_each_row() {
        let mut buf = KvBuf::new(
            2,
            3,
            KvCachePolicy::Fp8 {
                format: Fp8Format::E4M3,
                scale: None,
            },
        );
        buf.append_row(&[1.0, -1.0]).unwrap();
        buf.append_row(&[100.0, -100.0]).unwrap();
        // Both rows round-trip near-exactly despite the 100x magnitude
        // difference: each got its own absmax scale.
        for (j, mag) in [(0usize, 1.0f32), (1, 100.0)] {
            let err = (buf.value_at(j, 0) - mag).abs() / mag;
            assert!(err < 0.1, "row {j} rel err {err}");
        }
    }

    #[test]
    fn degenerate_static_scale_demotes_to_dynamic() {
        for bad in [0.0f32, f32::NAN, f32::INFINITY] {
            let buf = KvBuf::new(
                2,
                1,
                KvCachePolicy::Fp8 {
                    format: Fp8Format::E4M3,
                    scale: Some(bad),
                },
            );
            assert_eq!(
                buf.policy(),
                KvCachePolicy::Fp8 {
                    format: Fp8Format::E4M3,
                    scale: None
                },
                "scale {bad}"
            );
        }
    }

    #[test]
    fn storage_bytes_under_a_third_of_f32() {
        let mut rng = TensorRng::seed(9);
        let d = 32;
        for scale in [Some(1.0f32), None] {
            let mut cache = KvCache::uniform(
                2,
                d,
                64,
                KvCachePolicy::Fp8 {
                    format: Fp8Format::E4M3,
                    scale,
                },
            );
            for _ in 0..64 {
                let row = rng.normal(&[d], 0.0, 1.0);
                for layer in 0..2 {
                    cache.append(layer, KvSide::K, row.data()).unwrap();
                    cache.append(layer, KvSide::V, row.data()).unwrap();
                }
            }
            let (fp8, f32b) = (cache.cache_bytes(), cache.f32_bytes());
            assert!(3 * fp8 < f32b, "scale {scale:?}: {fp8} bytes vs f32 {f32b}");
        }
    }

    #[test]
    fn cache_layer_indexing_and_clear() {
        let mut cache = KvCache::uniform(2, 4, 8, KvCachePolicy::F32);
        assert_eq!(
            cache.append(5, KvSide::K, &[0.0; 4]),
            Err(KvError::LayerOutOfRange {
                layer: 5,
                layers: 2
            })
        );
        cache.append(0, KvSide::K, &[1.0; 4]).unwrap();
        cache.append(0, KvSide::V, &[2.0; 4]).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.buf(0, KvSide::V).unwrap().value_at(0, 0), 2.0);
        assert!(cache.buf(9, KvSide::K).is_err());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.cache_bytes(), 0);
    }

    #[test]
    fn seal_recodes_a_staged_buffer_under_the_policy_its_rows_calibrate() {
        let rows = TensorRng::seed(3).normal(&[3, 8], 0.0, 1.0);
        let mut cache = KvCache::uniform(1, 8, 4, KvCachePolicy::F32);
        for j in 0..3 {
            cache.append(0, KvSide::K, rows.row(j)).unwrap();
            cache.append(0, KvSide::V, &[0.0; 8]).unwrap();
        }
        // An f32 policy keeps the staged buffer as it is.
        cache.seal(0, KvSide::K, KvCachePolicy::F32).unwrap();
        assert_eq!(
            cache.buf(0, KvSide::K).unwrap().policy(),
            KvCachePolicy::F32
        );
        let pending = KvCachePolicy::Fp8 {
            format: Fp8Format::E4M3,
            scale: None,
        };
        cache.seal(0, KvSide::K, pending).unwrap();
        // Exactly a direct store under the calibrated policy.
        let policy = pending.calibrated(rows.data());
        assert!(matches!(policy, KvCachePolicy::Fp8 { scale: Some(_), .. }));
        let mut direct = KvBuf::new(8, 4, policy);
        (0..3).for_each(|j| direct.append_row(rows.row(j)).unwrap());
        let k = cache.buf(0, KvSide::K).unwrap();
        assert_eq!((k.policy(), k.len(), k.capacity()), (policy, 3, 4));
        for (j, c) in (0..3).flat_map(|j| (0..8).map(move |c| (j, c))) {
            assert_eq!(k.value_at(j, c).to_bits(), direct.value_at(j, c).to_bits());
        }
        // All-zero rows calibrate nothing: the per-row dynamic fallback.
        cache.seal(0, KvSide::V, pending).unwrap();
        let v = cache.buf(0, KvSide::V).unwrap();
        assert_eq!((v.policy(), v.len()), (pending, 3));
        assert_eq!(v.value_at(2, 7), 0.0);
        // A sealed buffer stays as sealed, whatever the policy offered.
        cache.seal(0, KvSide::K, KvCachePolicy::F32).unwrap();
        assert_eq!(cache.buf(0, KvSide::K).unwrap().policy(), policy);
        assert_eq!(
            cache.seal(1, KvSide::K, KvCachePolicy::F32),
            Err(KvError::LayerOutOfRange {
                layer: 1,
                layers: 1
            })
        );
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = KvError::CapacityOverflow { capacity: 64 };
        assert!(e.to_string().contains("64"));
        let e = KvError::RowShape {
            expected: 8,
            got: 7,
        };
        assert!(e.to_string().contains("8") && e.to_string().contains("7"));
    }
}
