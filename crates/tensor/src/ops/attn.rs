//! Incremental-attention step kernels over [`KvBuf`] caches: per attention
//! layer, a decode pass's `m` query rows (a generated token, a block of
//! prompt tokens, or one token from each of several streams) against the
//! cached positions.
//!
//! * [`attention_step_q`]: `scores[h, i, j] = Σ_kk q[h, i, kk] · K[j][h·dh + kk]`
//!   — the step slice of the full path's `bmm(qh, khᵀ)`.
//! * [`attention_step_v`]: `ctx[h, i, c] = Σ_j probs[h, i, j] · V[j][h·dh + c]`
//!   — the step slice of `bmm(probs, vh)`.
//!
//! The rows come in [`KvSegments`]: a segment is the rows one stream
//! contributes, and they attend that stream's cache only. Scores are laid
//! out `[heads, m, l]` with `l` the longest cache; a row's entries past its
//! own cache are zero, and the caller's per-row mask turns them (and the
//! keys after the row's position) into `-inf` before the softmax, so the
//! context kernel reads each row's first `len` probabilities only.
//!
//! ## Bit-identity contract
//!
//! Both reproduce [`super::batch_matmul_into`]'s chains for their rows: one
//! ascending chain per output over the contraction index, with the same
//! `av == 0.0` skip on the lhs. With an F32 cache a decode step is then
//! bit-identical to the same rows of the full-window forward (DESIGN.md
//! §16); with an FP8 cache the values are `decode(code)/scale`, so the only
//! deviation is the storage rounding. A row's chains do not depend on the
//! segments beside it. Both [`KernelPath`]s agree bit for bit and read the
//! cache where it lies: the reference loop through [`KvBuf::value_at`];
//! with AVX2 the blocked path's one lane body per step, for either storage
//! (without AVX2 it runs the reference loop; no such host is measured).

use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use super::blocked::{avx2_available, short_rows, MR};
use super::KernelPath;
use crate::kv::KvBuf;
use crate::tensor::Tensor;

/// The cache operand of a step kernel: its query rows in segments, each
/// `(rows, cache)` — the rows one stream contributes, in row order, and the
/// cache they attend. A lone `&KvBuf` is one segment holding every row.
#[derive(Debug, Clone, Copy)]
pub enum KvSegments<'a> {
    /// Every row attends this cache.
    One(&'a KvBuf),
    /// `(rows, cache)` per segment.
    Many(&'a [(usize, &'a KvBuf)]),
}

impl<'a> From<&'a KvBuf> for KvSegments<'a> {
    fn from(cache: &'a KvBuf) -> Self {
        KvSegments::One(cache)
    }
}

impl KvSegments<'_> {
    /// Run `f` over the `(rows, cache)` list of `m` rows; returns the
    /// longest cache too.
    fn with<R>(self, m: usize, f: impl FnOnce(&[(usize, &KvBuf)], usize) -> R) -> R {
        let one;
        let segs = match self {
            KvSegments::One(cache) => {
                one = [(m, cache)];
                &one[..]
            }
            KvSegments::Many(segs) => segs,
        };
        let rows: usize = segs.iter().map(|s| s.0).sum();
        assert_eq!(rows, m, "segments hold {rows} rows, the operand {m}");
        f(segs, segs.iter().map(|s| s.1.len()).max().unwrap_or(0))
    }
}

/// The segment holding rows `rs` in groups of at most `n` rows, head by
/// head: `[h, i, g]` is head `h`, the flat `[heads, m]` index `i` of the
/// group's first row, and its `g` rows.
fn groups(heads: usize, m: usize, rs: Range<usize>, n: usize) -> impl Iterator<Item = [usize; 3]> {
    let e = rs.end;
    (0..heads).flat_map(move |h| {
        rs.clone()
            .step_by(n)
            .map(move |r| [h, h * m + r, n.min(e - r)])
    })
}

/// Step score kernel: `q [heads, m, dh]` against each segment's `K` cache
/// (`d = heads · dh` wide rows) → `out [heads, m, l]`, `l` the longest
/// cache; entries past a row's own cache are `0.0`.
///
/// # Panics
///
/// Panics if `q` is not `[heads, m, dh]` with `heads · dh` matching every
/// cache row width, or the segments do not hold `m` rows (the decode
/// planner validates shapes before any step runs, so this is an
/// internal-contract assert like the other kernels').
pub fn attention_step_q<'a>(
    q: &Tensor,
    kv: impl Into<KvSegments<'a>>,
    out: &mut Tensor,
    path: KernelPath,
) {
    assert_eq!(q.ndim(), 3, "step q must be [heads, m, dh]");
    let (heads, m, dh) = (q.dim(0), q.dim(1), q.dim(2));
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    kv.into().with(m, |segs, l| {
        out.reuse_as(&[heads, m, l]);
        out.zero_fill();
        let (qd, od) = (q.data(), out.data_mut());
        let mut r0 = 0;
        for &(rows, cache) in segs {
            let (len, first) = (cache.len(), r0);
            assert_eq!(heads * dh, cache.d(), "q heads*dh vs cache row width");
            r0 += rows;
            if len == 0 {
                continue;
            }
            #[cfg(target_arch = "x86_64")]
            if path == KernelPath::Blocked && avx2_available() {
                simd::lanes!(cache, |kv| {
                    for [h, i, g] in groups(heads, m, first..r0, MR - 1) {
                        let (x, y) = (&qd[i * dh..][..g * dh], &mut od[i * l..][..g * l]);
                        // SAFETY: AVX2 was detected; `len` rows of `heads · dh`.
                        unsafe { short_rows!(g, simd::scores(&kv, (h * dh, len), (x, dh), (y, l))) }
                    }
                });
                continue;
            }
            for [h, i, _] in groups(heads, m, first..r0, 1) {
                let orow = &mut od[i * l..][..len];
                for kk in 0..dh {
                    let av = qd[i * dh + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += av * cache.value_at(j, h * dh + kk);
                    }
                }
            }
        }
    });
}

/// Step context kernel: `probs [heads, m, l]`, `l` the longest cache,
/// against each segment's `V` cache → `out [heads, m, dh]`. A row reads
/// the first `len` probabilities, its own cache's length.
///
/// The `av == 0.0` skip doubles as the masked-tail guard: softmax rows
/// whose −inf-masked entries became exact zeros contribute no additions,
/// exactly as in the full-window `batch_matmul`.
///
/// # Panics
///
/// Panics if `probs` is not `[heads, m, l]` with `l` the longest cache, the
/// segments do not hold `m` rows, or the caches disagree on a row width
/// `heads` divides (internal contract; the decode planner validates first).
pub fn attention_step_v<'a>(
    probs: &Tensor,
    kv: impl Into<KvSegments<'a>>,
    out: &mut Tensor,
    path: KernelPath,
) {
    assert_eq!(probs.ndim(), 3, "step probs must be [heads, m, len]");
    let (heads, m, l) = (probs.dim(0), probs.dim(1), probs.dim(2));
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
    kv.into().with(m, |segs, longest| {
        assert_eq!(l, longest, "probs len {l} vs longest cache {longest}");
        let d = segs.first().map_or(0, |s| s.1.d());
        assert_eq!(d % heads, 0, "heads {heads} must divide row width {d}");
        let dh = d / heads;
        out.reuse_as(&[heads, m, dh]);
        out.zero_fill();
        let (pd, od) = (probs.data(), out.data_mut());
        let mut r0 = 0;
        for &(rows, cache) in segs {
            let (len, first) = (cache.len(), r0);
            assert_eq!(cache.d(), d, "segment caches of different row widths");
            r0 += rows;
            if len == 0 || dh == 0 {
                continue;
            }
            #[cfg(target_arch = "x86_64")]
            if path == KernelPath::Blocked && avx2_available() {
                simd::lanes!(cache, |kv| {
                    for [h, i, g] in groups(heads, m, first..r0, MR - 1) {
                        let (x, y) = (&pd[i * l..][..g * l], &mut od[i * dh..][..g * dh]);
                        // SAFETY: AVX2 was detected; `len` rows of `heads · dh`.
                        unsafe {
                            short_rows!(g, simd::context(&kv, (h * dh, len), (x, l), (y, dh)))
                        }
                    }
                });
                continue;
            }
            for [h, i, _] in groups(heads, m, first..r0, 1) {
                let orow = &mut od[i * dh..][..dh];
                for (j, &av) in pd[i * l..][..len].iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (c, o) in orow.iter_mut().enumerate() {
                        *o += av * cache.value_at(j, h * dh + c);
                    }
                }
            }
        }
    });
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! The `Blocked` step kernels on AVX2, one lane body per step for up to
    //! 3 rows: a lane is one reference chain (`vmulps`, `vaddps`, zero-skip).

    use std::arch::x86_64::*;

    use super::super::blocked::simd::{decode8, load8, store8, walk8, LaneDecode};
    use super::super::blocked::NRM;

    /// A cache's storage as the lane bodies read it, in place, nothing
    /// staged: the values of [`crate::KvBuf::value_at`], bit for bit. One
    /// implementor per storage, `#[inline(always)]` into the bodies.
    ///
    /// # Safety
    ///
    /// Both methods: AVX2 was detected; the positions and columns are cached.
    pub(super) trait Lanes {
        /// The score chains' steps, `kk` ascending in `0..k`: column `c +
        /// kk` of positions `j0 .. j0 + live`, one per lane (the last
        /// repeated), times each query row's `q[i·dh + kk]`, into `acc`.
        unsafe fn walk<const R: usize>(&self, j: (usize, usize), c: (usize, usize), rows: Rows<R>);
        /// Columns `c .. c + w` (`w ≤ 16`) of position `j`, 8 a vector:
        /// the context chains' operand (lanes from `w` on are not read).
        unsafe fn row(&self, j: usize, c: (usize, usize)) -> [__m256; 2];
    }

    /// `(acc, q, dh)`: `R` score rows' chains over 8 positions, and their
    /// query rows, `dh` apart.
    pub(super) type Rows<'a, const R: usize> = (&'a mut [[__m256; 1]; R], &'a [f32], usize);

    /// `$body` with `$kv` bound to `$cache`'s storage as its [`Lanes`].
    macro_rules! lanes {
        ($cache:expr, |$kv:ident| $body:expr) => {{
            use $crate::ops::blocked::simd::LaneDecode;
            match ($cache.view(), $cache.d()) {
                ($crate::kv::KvView::F32(rows), d) => {
                    let $kv = (rows, d);
                    $body
                }
                ($crate::kv::KvView::Fp8(codes, lut, scales), d) => {
                    let $kv = (LaneDecode::new(lut), codes, d, scales);
                    $body
                }
            }
        }};
    }
    pub(super) use lanes;

    /// An F32 cache: its rows and `d`.
    impl Lanes for (&[f32], usize) {
        /// Per column, the 8 positions' values loaded one by one.
        #[inline(always)]
        unsafe fn walk<const R: usize>(&self, j: (usize, usize), c: (usize, usize), r: Rows<R>) {
            let ((j0, live), (c, k), (data, d), (acc, q, dh)) = (j, c, *self, r);
            let p: [*const f32; NRM] =
                std::array::from_fn(|i| data.as_ptr().add((j0 + i.min(live - 1)) * d + c));
            for kk in 0..k {
                let [a, b, c, d, e, f, g, h] = p.map(|p| *p.add(kk));
                mac_rows(acc, 0, (q, dh, kk), _mm256_setr_ps(a, b, c, d, e, f, g, h));
            }
        }

        /// Masked loads: nothing past column `c + w` is read.
        #[inline(always)]
        unsafe fn row(&self, j: usize, (c, w): (usize, usize)) -> [__m256; 2] {
            let at = self.0.as_ptr().add(j * self.1 + c);
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), lane);
            let hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32 - 8), lane);
            let hi = _mm256_maskload_ps(at.wrapping_add(NRM), hi);
            [_mm256_maskload_ps(at, lo), hi]
        }
    }

    /// An FP8 cache: its decoder, its codes, `d`, and the static scale or
    /// one a row.
    impl Lanes for (LaneDecode, &[u8], usize, (Option<f32>, &[f32])) {
        /// [`walk8`] over the 8 positions' code rows by their scales.
        #[inline(always)]
        unsafe fn walk<const R: usize>(&self, j: (usize, usize), c: (usize, usize), r: Rows<R>) {
            let ((j0, live), (c, k), (dec, codes, d, (s, rs)), (acc, q, dh)) = (j, c, self, r);
            let s: [f32; NRM] =
                std::array::from_fn(|i| s.unwrap_or_else(|| rs[j0 + i.min(live - 1)]));
            let at = (codes.as_ptr().add(j0 * d + c), *d, live);
            let s = _mm256_loadu_ps(s.as_ptr());
            walk8!(dec, at, s, k, |kk, v| mac_rows(acc, 0, (q, dh, kk), v));
        }

        /// The codes decoded by the position's scale; one flag test over
        /// them picks [`decode8`]'s arm.
        #[inline(always)]
        unsafe fn row(&self, j: usize, (c, w): (usize, usize)) -> [__m256; 2] {
            let (dec, codes, d, (s, rs)) = self;
            let at = codes.as_ptr().add(j * d + c);
            let s = _mm256_set1_ps(s.unwrap_or_else(|| rs[j]));
            let (lo, hi) = (w.min(NRM), w.saturating_sub(NRM));
            let x = match w {
                16 => _mm_loadu_si128(at.cast()),
                _ => _mm_unpacklo_epi64(load8(at, lo), load8(at.wrapping_add(NRM), hi)),
            };
            let y = _mm_unpackhi_epi64(x, x);
            if _mm_movemask_epi8(dec.uncommon16(x)) & ((1 << w) - 1) == 0 {
                [decode8::<false>(dec, x, s), decode8::<false>(dec, y, s)]
            } else {
                [decode8::<true>(dec, x, s), decode8::<true>(dec, y, s)]
            }
        }
    }

    /// `acc[i][b] += x[i·stride + at] · v`, skipping rows whose value is 0.
    ///
    /// # Safety
    ///
    /// AVX2 was detected.
    #[inline(always)]
    unsafe fn mac_rows<const R: usize, const P: usize>(
        acc: &mut [[__m256; P]; R],
        b: usize,
        (x, stride, at): (&[f32], usize, usize),
        v: __m256,
    ) {
        for (i, a) in acc.iter_mut().enumerate() {
            let x = x[i * stride + at];
            if x != 0.0 {
                a[b] = _mm256_add_ps(a[b], _mm256_mul_ps(_mm256_set1_ps(x), v));
            }
        }
    }

    /// Scores of `R` query rows (`q`, `dh` apart) against the head whose
    /// `dh` columns start at `col`: per block of 8 positions, one
    /// [`Lanes::walk`]; a lane is one `(row, position)` chain, `kk`
    /// ascending. A ragged last block's dead lanes are not stored; rows go
    /// to `out`, `l` apart.
    ///
    /// # Safety
    ///
    /// AVX2 was detected; `kv` caches `len` positions and `col + dh` fits
    /// its rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scores<const R: usize>(
        kv: &impl Lanes,
        (col, len): (usize, usize),
        (q, dh): (&[f32], usize),
        (out, l): (&mut [f32], usize),
    ) {
        for j0 in (0..len).step_by(NRM) {
            let (wp, mut acc) = (NRM.min(len - j0), [[_mm256_setzero_ps(); 1]; R]);
            kv.walk((j0, wp), (col, dh), (&mut acc, q, dh));
            for (i, a) in acc.iter().enumerate() {
                store8(a[0], &mut out[i * l + j0..][..wp]);
            }
        }
    }

    /// Context of `R` probability rows (`p`, `l` apart) against the head
    /// whose `dh` columns start at `col`: per block of 16 columns,
    /// [`Lanes::row`] per position; a lane is one `(row, column)` chain,
    /// positions ascending, and a block's two vectors share each
    /// position's zero-skip test. Rows go to `out`, `dh` apart.
    ///
    /// # Safety
    ///
    /// As [`scores`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn context<const R: usize>(
        kv: &impl Lanes,
        (col, len): (usize, usize),
        (p, l): (&[f32], usize),
        (out, dh): (&mut [f32], usize),
    ) {
        for c0 in (0..dh).step_by(2 * NRM) {
            let (wc, mut acc) = ((dh - c0).min(2 * NRM), [[_mm256_setzero_ps(); 2]; R]);
            let blocks = wc.div_ceil(NRM);
            for j in 0..len {
                if (0..R).all(|i| p[i * l + j] == 0.0) {
                    continue;
                }
                for (b, &v) in kv.row(j, (col + c0, wc)).iter().enumerate().take(blocks) {
                    mac_rows(&mut acc, b, (p, l, j), v);
                }
            }
            for (i, a) in acc.iter().enumerate() {
                for (b, v) in a.iter().enumerate().take(blocks) {
                    let w = (wc - b * NRM).min(NRM);
                    store8(*v, &mut out[i * dh + c0 + b * NRM..][..w]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCachePolicy, KvSide};
    use crate::ops::batch_matmul;
    use crate::rng::TensorRng;
    use crate::KvCache;
    use ptq_fp8::Fp8Format;

    const HEADS: usize = 3;
    const DH: usize = 5;
    const D: usize = HEADS * DH;

    /// Build an F32 cache from `len` random rows plus the matching
    /// `[heads, dh, len]` (K, transposed) / `[heads, len, dh]` (V)
    /// dense tensors the full-path bmm reads.
    fn cache_and_dense(len: usize, seed: u64, policy: KvCachePolicy) -> (KvCache, Tensor, Tensor) {
        let mut rng = TensorRng::seed(seed);
        let mut cache = KvCache::uniform(1, D, len + 2, policy);
        let mut rows = Vec::with_capacity(len);
        for _ in 0..len {
            let row = rng.normal(&[D], 0.0, 1.0);
            cache.append(0, KvSide::K, row.data()).unwrap();
            cache.append(0, KvSide::V, row.data()).unwrap();
            rows.push(row);
        }
        // Dense forms decoded *from the cache* so FP8 rounding matches.
        let kbuf = cache.buf(0, KvSide::K).unwrap();
        let mut kt = vec![0.0f32; HEADS * DH * len];
        let mut v = vec![0.0f32; HEADS * len * DH];
        for h in 0..HEADS {
            for j in 0..len {
                for c in 0..DH {
                    let val = kbuf.value_at(j, h * DH + c);
                    kt[h * DH * len + c * len + j] = val;
                    v[h * len * DH + j * DH + c] = val;
                }
            }
        }
        (
            cache,
            Tensor::from_vec(kt, &[HEADS, DH, len]),
            Tensor::from_vec(v, &[HEADS, len, DH]),
        )
    }

    #[test]
    fn step_q_matches_batch_matmul_bitwise() {
        for policy in [
            KvCachePolicy::F32,
            KvCachePolicy::Fp8 {
                format: Fp8Format::E4M3,
                scale: None,
            },
        ] {
            let (cache, kt, _) = cache_and_dense(9, 11, policy);
            // One query row (a generated token) and blocks of them (a
            // prompt): 16 rows end in a one-row group of 3, 17 in two.
            for m in [1, 4, 16, 17] {
                let mut q = TensorRng::seed(12).normal(&[HEADS, m, DH], 0.0, 1.0);
                q.data_mut()[DH - 1] = 0.0; // the lhs zero-skip
                let reference = batch_matmul(&q, &kt);
                for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
                    let mut out = Tensor::default();
                    attention_step_q(&q, cache.buf(0, KvSide::K).unwrap(), &mut out, path);
                    assert_eq!(out.shape(), &[HEADS, m, 9]);
                    for (i, (a, b)) in out.data().iter().zip(reference.data()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{policy:?} {path} m {m} elem {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn step_v_matches_batch_matmul_bitwise() {
        for policy in [
            KvCachePolicy::F32,
            KvCachePolicy::Fp8 {
                format: Fp8Format::E5M2,
                scale: Some(0.5),
            },
        ] {
            let (cache, _, v) = cache_and_dense(7, 21, policy);
            for m in [1, 3, 16, 17] {
                let mut probs = TensorRng::seed(22).normal(&[HEADS, m, 7], 0.0, 1.0);
                // Exact zeros exercise the masked-tail skip.
                probs.data_mut()[3] = 0.0;
                probs.data_mut()[HEADS * m * 7 - 1] = 0.0;
                let reference = batch_matmul(&probs, &v);
                for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
                    let mut out = Tensor::default();
                    attention_step_v(&probs, cache.buf(0, KvSide::V).unwrap(), &mut out, path);
                    assert_eq!(out.shape(), &[HEADS, m, DH]);
                    for (i, (a, b)) in out.data().iter().zip(reference.data()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{policy:?} {path} m {m} elem {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn paths_agree_on_fp8_static_scale_cache() {
        let (cache, _, _) = cache_and_dense(
            13,
            31,
            KvCachePolicy::Fp8 {
                format: Fp8Format::E3M4,
                scale: Some(2.0),
            },
        );
        let q = TensorRng::seed(32).normal(&[HEADS, 1, DH], 0.0, 1.0);
        let (mut a, mut b) = (Tensor::default(), Tensor::default());
        let kbuf = cache.buf(0, KvSide::K).unwrap();
        attention_step_q(&q, kbuf, &mut a, KernelPath::Blocked);
        attention_step_q(&q, kbuf, &mut b, KernelPath::ScalarReference);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_cache_yields_empty_scores() {
        let cache = KvCache::uniform(1, D, 4, KvCachePolicy::F32);
        let q = TensorRng::seed(1).normal(&[HEADS, 1, DH], 0.0, 1.0);
        let mut out = Tensor::default();
        attention_step_q(
            &q,
            cache.buf(0, KvSide::K).unwrap(),
            &mut out,
            KernelPath::Blocked,
        );
        assert_eq!(out.shape(), &[HEADS, 1, 0]);
    }

    #[test]
    fn segments_attend_their_own_caches_bitwise() {
        // Three streams of different lengths under three storage policies,
        // one or two rows each: a segment's rows are a solo call's against
        // its own cache, and its scores past that cache are +0.0.
        let policies = [
            KvCachePolicy::F32,
            KvCachePolicy::Fp8 {
                format: Fp8Format::E4M3,
                scale: None,
            },
            KvCachePolicy::Fp8 {
                format: Fp8Format::E3M4,
                scale: Some(2.0),
            },
        ];
        // The two-row segment is shorter than the longest cache.
        let (lens, rows) = ([9, 4, 6], [1, 2, 1]);
        let caches: Vec<KvCache> = (0..3)
            .map(|s| cache_and_dense(lens[s], 40 + s as u64, policies[s]).0)
            .collect();
        let (m, l) = (4, 9);
        let mut rng = TensorRng::seed(44);
        let mut q = rng.normal(&[HEADS, m, DH], 0.0, 1.0);
        q.data_mut()[1] = 0.0;
        let mut probs = rng.normal(&[HEADS, m, l], 0.0, 1.0);
        let row_len = [9, 4, 4, 6];
        for (i, p) in probs.data_mut().chunks_mut(l).enumerate() {
            p[row_len[i % m]..].fill(0.0); // what the mask and softmax leave
        }
        probs.data_mut()[2 * l] = 0.0; // and an exact zero inside a row
        let side = |s: KvSide| -> Vec<(usize, &KvBuf)> {
            (0..3)
                .map(|i| (rows[i], caches[i].buf(0, s).unwrap()))
                .collect()
        };
        let (ks, vs) = (side(KvSide::K), side(KvSide::V));
        for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
            let (mut scores, mut ctx) = (Tensor::default(), Tensor::default());
            attention_step_q(&q, KvSegments::Many(&ks), &mut scores, path);
            attention_step_v(&probs, KvSegments::Many(&vs), &mut ctx, path);
            assert_eq!(
                (scores.shape(), ctx.shape()),
                (&[HEADS, m, l][..], &[HEADS, m, DH][..])
            );
            let mut r0 = 0;
            for s in 0..3 {
                let (n, len) = (rows[s], lens[s]);
                let pick = |t: &Tensor, w: usize, keep: usize| -> Tensor {
                    let mut v = Vec::new();
                    for [_, i, _] in groups(HEADS, m, r0..r0 + n, 1) {
                        v.extend_from_slice(&t.data()[i * w..][..keep]);
                    }
                    Tensor::from_vec(v, &[HEADS, n, keep])
                };
                let (mut solo_s, mut solo_c) = (Tensor::default(), Tensor::default());
                attention_step_q(&pick(&q, DH, DH), ks[s].1, &mut solo_s, path);
                attention_step_v(&pick(&probs, l, len), vs[s].1, &mut solo_c, path);
                let (got_s, got_c) = (pick(&scores, l, l), pick(&ctx, DH, DH));
                for (g, w) in got_s.data().chunks(l).zip(solo_s.data().chunks(len)) {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&g[..len]), bits(w), "{path} segment {s} scores");
                    assert!(g[len..].iter().all(|x| x.to_bits() == 0), "{path} tail");
                }
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got_c), bits(&solo_c), "{path} segment {s} context");
                r0 += n;
            }
        }
    }
}
