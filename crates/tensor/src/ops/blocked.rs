//! Register-blocked micro-kernels: every MAC op under
//! [`crate::ops::KernelPath::Blocked`], whatever its operands, and the FP8
//! encode of activations and KV rows.
//!
//! ## Bit-identity argument
//!
//! Each output element keeps **exactly the floating-point chain** of its
//! scalar reference: one accumulator, terms in ascending reduction order
//! (`kk`; `(ci, ky, kx)` from the bias for conv), every staged value the
//! one the reference reads (an f32 operand copied, a coded one
//! `decode(code) / scale`, one division per element), and the matmul
//! family's `av == 0.0` zero-skip intact (semantics under NaN/Inf and
//! signed zeros). Blocking changes only *which independent outputs advance
//! together*, over one layout: column panels of `NRM` outputs, the last
//! padded with dead chains that are never stored.
//!
//! ## One lane type, two implementations
//!
//! Every body is written once over [`Chains`], `NRM` chains advancing as
//! one value, and [`run_lanes`] picks the type per chunk: one AVX2
//! register (`__m256`, `vmulps` then `vaddps`, never `vfmadd`, whose single
//! rounding would break bit-identity) where the CPU has AVX2, else
//! `[f32; NRM]`, the scalar expression per lane. The FP8 decode is the same
//! split: [`Chains::decode8`] is bit arithmetic on 8 lanes with AVX2 and
//! `lut.decode(code) / scale` per lane otherwise. So is the encode of
//! activations and KV rows ([`encode`]): [`Chains::encode8`] computes the
//! round-to-nearest-even saturating code from the bits of `v · s` with
//! AVX2 and is `lut.encode(v * s)` per lane otherwise.
//!
//! * **matmul / batch_matmul**: `B` is packed once (per batch) into the
//!   panels and a register tile of 1–4 rows × 1 or 2 panels carries up to
//!   64 chains ([`tile`]).
//! * **linear**: the `[n, k]` weight is packed once per call into the same
//!   panels (or arrives packed: [`super::PackedWeight`]) and the rows run
//!   the tile compiled with `SKIP = false` (Linear multiplies every term:
//!   `0 · NaN` stays NaN); the bias lands on the finished chain. An FP8 weight packs through one block walk
//!   ([`walk8`], also the score step's): 8×8 byte blocks of 8 channels'
//!   rows transpose and [`Chains::decode8`] turns each column into a panel
//!   row of `decode(code) / scale`. Row blocks shorter than 4 against an
//!   FP8 weight run a row tile on the walk's columns in place: no panel.
//! * **conv**: a weight `[cout, cin·kh·kw]` is Linear's `[n, k]`; a tile
//!   carries 4 pixels of a row × 8 or 16 channels, chains **seeded with the
//!   bias**, taps read from the sample in place. Only in-bounds taps are
//!   walked — border pixels run a 1-pixel tile with clamped tap ranges — so
//!   a padding tap is never a staged zero (`0 · Inf = NaN`, `-0.0 + 0.0 =
//!   +0.0`). Depthwise runs 8 interior pixels of a plane's row as 8 chains.
//!
//! Equivalence is enforced by `tests/kernel_path_equivalence.rs`, the
//! zoo-wide suites, and this module's tests, which run every body at both
//! lane types (the decoder and the pack on every code of every format).
//! Staging comes from the per-thread pool in [`super::scratch`]:
//! steady-state calls do not allocate, and no staged value outlives its
//! call.

use std::ops::Range;

use ptq_fp8::{Fp8Lut, NanEncoding};

use crate::qtensor::QTensor;
use crate::tensor::Tensor;

use super::conv::{taps, window_sum, ConvDims};
use super::operand::Rows;
use super::{for_each_chunk, scratch, WeightOperand};

/// Rows (conv: output pixels) per register tile.
pub(super) const MR: usize = 4;
/// Columns (conv: output channels) per packed panel; a tile spans one or
/// two panels.
pub(super) const NRM: usize = 8;

/// The one 8-lane type: `NRM` independent f32 chains advancing as one
/// value, and the FP8 codes they decode. Implemented by `__m256` (AVX2,
/// every method `#[inline(always)]`) and by `[f32; NRM]` (any host, the
/// scalar expression per lane); [`run_lanes`] instantiates the bodies.
///
/// # Safety
///
/// Every method: the CPU feature the implementor needs was detected, and
/// each pointer is readable for the lanes or codes it names.
pub(super) trait Chains: Copy {
    /// Up to 16 FP8 codes, code `i` in byte `i`.
    type Codes: Copy;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(w: *const f32) -> Self;
    /// Lanes `i < n` from `w` (none for `n ≤ 0`, all from `n = NRM`), the
    /// rest zero; nothing past them is read.
    unsafe fn load_part(w: *const f32, n: i32) -> Self;
    unsafe fn set(v: [f32; NRM]) -> Self;
    /// `self + x·w` per lane: a rounded multiply, then a rounded add.
    unsafe fn mac(self, x: f32, w: Self) -> Self;
    /// The first `out.len() ≤ NRM` lanes into `out`.
    unsafe fn store(self, out: &mut [f32]);
    /// Whether one of the 8 values at `a` is `== 0.0` (±0.0 is, NaN not):
    /// the tile's zero test over two `kk` steps of 4 rows.
    unsafe fn any_zero(a: *const f32) -> bool;
    /// Codes `0..w` (`w ≤ 16`) from `p`, the rest zero.
    unsafe fn load_codes(p: *const u8, w: usize) -> Self::Codes;
    /// Codes `8..16` of `c` as codes `0..8`.
    unsafe fn high_codes(c: Self::Codes) -> Self::Codes;
    /// The 8×8 transpose of `rows`' codes `0..8`: code `t` of every row,
    /// in row order, as codes `0..8` of result `t`.
    unsafe fn transpose8x8(rows: &[Self::Codes; NRM]) -> [Self::Codes; NRM];
    /// Whether `decode8::<false>` decodes codes `0..w` of `c` exactly.
    unsafe fn common(d: &LaneDecode, c: Self::Codes, w: usize) -> bool;
    /// [`Chains::common`] over codes `0..8` of a transposed block.
    unsafe fn all_common(d: &LaneDecode, cols: &[Self::Codes; NRM]) -> bool;
    /// `lut.decode(code) / scale` of codes `0..8` by the lanes of `scales`,
    /// bit for bit per lane. Without `FULL` the codes must be
    /// [`Chains::common`].
    unsafe fn decode8<const FULL: bool>(d: &LaneDecode, codes: Self::Codes, scales: Self) -> Self;
    /// `lut.encode(v · s)` per lane, bit for bit.
    unsafe fn encode8(e: &LaneEncode, v: Self, s: Self) -> [u8; NRM];
}

impl Chains for [f32; NRM] {
    type Codes = [u8; 16];
    unsafe fn splat(x: f32) -> Self {
        [x; NRM]
    }
    unsafe fn load(w: *const f32) -> Self {
        *w.cast()
    }
    unsafe fn load_part(w: *const f32, n: i32) -> Self {
        let mut v = [0.0; NRM];
        std::ptr::copy_nonoverlapping(w, v.as_mut_ptr(), n.clamp(0, NRM as i32) as usize);
        v
    }
    unsafe fn set(v: [f32; NRM]) -> Self {
        v
    }
    unsafe fn mac(mut self, x: f32, w: Self) -> Self {
        for (a, wv) in self.iter_mut().zip(w) {
            *a += x * wv;
        }
        self
    }
    unsafe fn store(self, out: &mut [f32]) {
        out.copy_from_slice(&self[..out.len()]);
    }
    unsafe fn any_zero(a: *const f32) -> bool {
        (0..NRM).any(|i| *a.add(i) == 0.0)
    }
    unsafe fn load_codes(p: *const u8, w: usize) -> [u8; 16] {
        let mut c = [0; 16];
        std::ptr::copy_nonoverlapping(p, c.as_mut_ptr(), w);
        c
    }
    unsafe fn high_codes(c: [u8; 16]) -> [u8; 16] {
        std::array::from_fn(|i| if i < NRM { c[NRM + i] } else { 0 })
    }
    unsafe fn transpose8x8(rows: &[[u8; 16]; NRM]) -> [[u8; 16]; NRM] {
        std::array::from_fn(|t| std::array::from_fn(|r| if r < NRM { rows[r][t] } else { 0 }))
    }
    /// The table decode has one arm.
    unsafe fn common(_: &LaneDecode, _: [u8; 16], _: usize) -> bool {
        true
    }
    unsafe fn all_common(_: &LaneDecode, _: &[[u8; 16]; NRM]) -> bool {
        true
    }
    unsafe fn decode8<const FULL: bool>(d: &LaneDecode, codes: [u8; 16], scales: Self) -> Self {
        std::array::from_fn(|i| {
            let (b, s, lut) = (codes[i], scales[i], d.lut);
            lut.decode(b) / s
        })
    }
    unsafe fn encode8(e: &LaneEncode, v: Self, s: Self) -> [u8; NRM] {
        std::array::from_fn(|i| {
            let (x, s, lut) = (v[i], s[i], e.lut);
            lut.encode(x * s)
        })
    }
}

/// A `Blocked` kernel body written once over the lane type.
pub(super) trait LaneKernel {
    /// # Safety
    ///
    /// The CPU feature `V` needs was detected.
    unsafe fn run<V: Chains>(self);
}

/// Run `k` on the widest lanes this CPU has — the one place a lane type is
/// picked: AVX2 registers where detected, arrays otherwise. Called per
/// chunk (a tile chunk, a conv image, a weight pack, an attention
/// segment), inside any fan-out: a closure in the `#[target_feature]`
/// entry would be compiled without AVX2.
pub(super) fn run_lanes(k: impl LaneKernel) {
    #[cfg(test)]
    if tests::PORTABLE.with(std::cell::Cell::get) {
        // SAFETY: array lanes need no CPU feature.
        return unsafe { k.run::<[f32; NRM]>() };
    }
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        // SAFETY: AVX2 was detected just above.
        return unsafe { simd::run(k) };
    }
    // SAFETY: array lanes need no CPU feature.
    unsafe { k.run::<[f32; NRM]>() }
}

/// One format's decode, from its `FpSpec` (`m` mantissa bits, sign at bit
/// 7) and its table. A magnitude `mag = e·2^m + f` with `e > 0` is the f32
/// whose bits are `mag << (23 − m)` plus `127 − bias` in the exponent
/// field; with `e = 0` it is the integer `f` times `2^(1 − bias − m)`, one
/// exact multiply of normal operands (a denormal f32 operand would cost a
/// microcode assist). Magnitudes from `special` up (E5M2's Inf/NaN
/// exponent, the extended formats' all-ones NaN; all within the top 8)
/// take the table's own values, held in one register: `top[i]` is
/// `lut.decode(0x78 + i)`. The array lanes read the table itself.
pub(super) struct LaneDecode {
    m: i32,
    exp_bias: i32,
    sub_unit: f32,
    special: i32,
    top: [f32; 8],
    lut: &'static Fp8Lut,
}

impl LaneDecode {
    pub(super) fn new(lut: &'static Fp8Lut) -> Self {
        let spec = lut.spec();
        debug_assert_eq!(spec.exp_bits + spec.man_bits, 7, "sign is bit 7");
        let (m, top) = (spec.man_bits as i32, spec.exp_all_ones() << spec.man_bits);
        let special = match spec.nan_encoding {
            NanEncoding::Ieee => top,
            NanEncoding::Extended => top | spec.man_mask(),
        };
        debug_assert!(special >= 0x78, "specials beyond the top 8 magnitudes");
        LaneDecode {
            m,
            exp_bias: (127 - spec.bias) << 23,
            sub_unit: f32::from_bits(((128 - spec.bias - m) as u32) << 23),
            special: special as i32,
            top: std::array::from_fn(|i| lut.decode(0x78 + i as u8)),
            lut,
        }
    }
}

/// One format's encode, from its `FpSpec` (`m` mantissa bits, sign at bit
/// 7): the round-to-nearest-even saturating code of `x`, `mag` its
/// magnitude bits. From the min normal `2^(1 − bias)` up, `mag` rounded to
/// `m` mantissa bits (ties to even), less `(127 − bias) << m`; below it,
/// `bits(|x| + 2^k) − bits(2^k)` with `2^k` the f32 whose ulp is the
/// format's subnormal step, so the f32 add rounds to that step. Then `min`
/// with the largest finite code (saturation, ±Inf included), the sign ORed
/// in, and a NaN takes the codec's NaN code. The array lanes read the
/// table itself.
pub(super) struct LaneEncode {
    shift: i32,
    min_normal: i32,
    rebias: i32,
    magic: f32,
    max_code: i32,
    nan_code: i32,
    lut: &'static Fp8Lut,
}

impl LaneEncode {
    fn new(lut: &'static Fp8Lut) -> Self {
        let spec = *lut.spec();
        let (m, bias) = (spec.man_bits as i32, spec.bias);
        debug_assert_eq!(spec.exp_bits + spec.man_bits, 7, "sign is bit 7");
        debug_assert!(
            (-103 - m..=126 - m).contains(&bias),
            "f32-normal boundaries"
        );
        LaneEncode {
            shift: 23 - m,
            min_normal: (128 - bias) << 23,
            rebias: (127 - bias) << m,
            magic: f32::from_bits(((151 - bias - m) as u32) << 23),
            max_code: spec.finite_magnitude_count() as i32 - 1,
            nan_code: i32::from(ptq_fp8::Fp8Codec::from_spec(spec).nan_code()),
            lut,
        }
    }
}

/// `(lut, xs, scale, codes)`: `codes[i] = lut.encode(xs[i] · scale)`, 8
/// lanes at a time through [`Chains::encode8`], a ragged tail through
/// [`Chains::load_part`].
struct Encode<'a>(&'static Fp8Lut, &'a [f32], f32, &'a mut [u8]);

impl LaneKernel for Encode<'_> {
    #[inline(always)]
    unsafe fn run<V: Chains>(self) {
        let Encode(lut, xs, scale, codes) = self;
        assert_eq!(xs.len(), codes.len());
        let (e, s) = (LaneEncode::new(lut), V::splat(scale));
        let mut blocks = codes.chunks_exact_mut(NRM);
        for (i, c) in blocks.by_ref().enumerate() {
            c.copy_from_slice(&V::encode8(&e, V::load(xs.as_ptr().add(i * NRM)), s));
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let v = V::load_part(xs.as_ptr().add(xs.len() - tail.len()), tail.len() as i32);
            tail.copy_from_slice(&V::encode8(&e, v, s)[..tail.len()]);
        }
    }
}

/// The boundary encode of activations and KV rows: `codes[i] =
/// lut.encode(xs[i] · scale)`, bit for bit, on the lanes [`run_lanes`]
/// picks.
pub(crate) fn encode(lut: &'static Fp8Lut, xs: &[f32], scale: f32, codes: &mut [u8]) {
    run_lanes(Encode(lut, xs, scale, codes))
}

/// The one block walk of the FP8 kernels at lane type `$V`: 8 code rows,
/// `$rows = (codes, stride, live)` (rows from `live` on repeat row `live −
/// 1`: a ragged block's dead lanes), by their 8 `$scales`, `kk` in
/// `0..$k`. Per 8×8 byte block: the rows' codes, their transpose,
/// [`Chains::all_common`] picks the arm, then per column `$body` with `$wv`
/// its [`Chains::decode8`]. A macro: a closure is compiled without AVX2.
///
/// Safety: as [`Chains`]; `live ≥ 1` rows of `$k` readable codes.
macro_rules! walk8 {
    ($V:ty, $d:expr, $rows:expr, $scales:expr, $k:expr, |$kk:ident, $wv:ident| $body:expr) => {{
        use $crate::ops::blocked::NRM;
        let (d, (codes, stride, live), scales, k) = ($d, $rows, $scales, $k);
        for kk0 in (0..k).step_by(NRM) {
            let w = NRM.min(k - kk0);
            let mut rows = [<$V>::load_codes(codes.add(kk0), w); NRM];
            for (r, row) in rows.iter_mut().enumerate().skip(1) {
                *row = <$V>::load_codes(codes.add(r.min(live - 1) * stride + kk0), w);
            }
            let cols = <$V>::transpose8x8(&rows);
            macro_rules! steps {
                ($full:literal) => {
                    for (t, &col) in cols.iter().enumerate().take(w) {
                        let ($kk, $wv) = (kk0 + t, <$V>::decode8::<$full>(d, col, scales));
                        $body;
                    }
                };
            }
            if <$V>::all_common(d, &cols) {
                steps!(false);
            } else {
                steps!(true);
            }
        }
    }};
}
pub(super) use walk8;

/// `f::<G.., R>(args)` for `R = $rows`, one of the `1..MR` row counts the
/// short-row kernels are compiled for.
macro_rules! short_rows {
    ($rows:expr, $f:ident::<$($g:tt),*>($($a:expr),*)) => {
        match $rows {
            1 => $f::<$($g,)* 1>($($a),*),
            2 => $f::<$($g,)* 2>($($a),*),
            _ => $f::<$($g,)* 3>($($a),*),
        }
    };
}
pub(super) use short_rows;

#[cfg(target_arch = "x86_64")]
pub(super) use simd::avx2_available;

#[cfg(target_arch = "x86_64")]
mod simd {
    //! The AVX2 lanes: one ymm register per [`Chains`] value.
    //!
    //! Bit-identity: `vmulps`/`vaddps`/`vdivps` are the single-rounded
    //! IEEE-754 operations of Rust's scalar `f32` operators (rustc keeps
    //! fp-contract off: no FMA); each lane carries one output's chain.

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::{Chains, LaneDecode, LaneEncode, LaneKernel, NRM};

    pub(in crate::ops) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// `k` on ymm lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run(k: impl LaneKernel) {
        k.run::<__m256>()
    }

    /// Byte flags of 16 codes: the top bit set where a magnitude is
    /// outside `2^m .. special` (zero, subnormal, Inf or NaN), a code only
    /// `decode8`'s `FULL` arm decodes. `(x − 2^m) & 0x7f` maps the normal
    /// non-special magnitudes, of either sign, onto `0 .. special − 2^m`
    /// and every other onto the values above.
    ///
    /// # Safety
    ///
    /// As [`Chains`].
    #[inline(always)]
    unsafe fn uncommon16(d: &LaneDecode, x: __m128i) -> __m128i {
        let y = _mm_sub_epi8(x, _mm_set1_epi8((1 << d.m) as i8));
        let y = _mm_and_si128(y, _mm_set1_epi8(0x7f));
        _mm_cmpgt_epi8(y, _mm_set1_epi8((d.special - (1 << d.m) - 1) as i8))
    }

    impl Chains for __m256 {
        type Codes = __m128i;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(w: *const f32) -> Self {
            _mm256_loadu_ps(w)
        }
        /// `vmaskmovps`: nothing past lane `n` is read.
        #[inline(always)]
        unsafe fn load_part(w: *const f32, n: i32) -> Self {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_maskload_ps(w, _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane))
        }
        #[inline(always)]
        unsafe fn set([a, b, c, d, e, f, g, h]: [f32; NRM]) -> Self {
            _mm256_setr_ps(a, b, c, d, e, f, g, h)
        }
        #[inline(always)]
        unsafe fn mac(self, x: f32, w: Self) -> Self {
            _mm256_add_ps(self, _mm256_mul_ps(_mm256_set1_ps(x), w))
        }
        #[inline(always)]
        unsafe fn store(self, out: &mut [f32]) {
            if out.len() == NRM {
                return _mm256_storeu_ps(out.as_mut_ptr(), self);
            }
            let lanes: [f32; NRM] = std::mem::transmute(self);
            out.copy_from_slice(&lanes[..out.len()]);
        }
        /// `vcmpeqps` + `vmovmskps`, the ordered `== 0.0`. `black_box`: the
        /// tile must broadcast its row values from memory, not shuffle them
        /// out of this vector (the one shuffle port is its bottleneck then).
        #[inline(always)]
        unsafe fn any_zero(a: *const f32) -> bool {
            let avs = _mm256_loadu_ps(std::hint::black_box(a));
            _mm256_movemask_ps(_mm256_cmp_ps(avs, _mm256_setzero_ps(), _CMP_EQ_OQ)) != 0
        }
        /// A short run is copied, never over-read.
        #[inline(always)]
        unsafe fn load_codes(p: *const u8, w: usize) -> __m128i {
            match w {
                16 => _mm_loadu_si128(p.cast()),
                8 => _mm_loadl_epi64(p.cast()),
                _ => {
                    let mut b = [0u8; 16];
                    std::ptr::copy_nonoverlapping(p, b.as_mut_ptr(), w.min(16));
                    _mm_loadu_si128(b.as_ptr().cast())
                }
            }
        }
        #[inline(always)]
        unsafe fn high_codes(c: __m128i) -> __m128i {
            _mm_unpackhi_epi64(c, c)
        }
        /// The even results also hold result `t + 1` in their codes
        /// `8..16`, so results 0, 2, 4, 6 carry all 64 codes.
        #[inline(always)]
        unsafe fn transpose8x8(r: &[__m128i; NRM]) -> [__m128i; NRM] {
            let a = [
                _mm_unpacklo_epi8(r[0], r[1]),
                _mm_unpacklo_epi8(r[2], r[3]),
                _mm_unpacklo_epi8(r[4], r[5]),
                _mm_unpacklo_epi8(r[6], r[7]),
            ];
            // Columns 0–3 and 4–7 of rows 0–3, then of rows 4–7.
            let (b0, b1) = (
                _mm_unpacklo_epi16(a[0], a[1]),
                _mm_unpackhi_epi16(a[0], a[1]),
            );
            let (b2, b3) = (
                _mm_unpacklo_epi16(a[2], a[3]),
                _mm_unpackhi_epi16(a[2], a[3]),
            );
            // Two whole columns each, low and high 8 bytes.
            let c = [
                _mm_unpacklo_epi32(b0, b2),
                _mm_unpackhi_epi32(b0, b2),
                _mm_unpacklo_epi32(b1, b3),
                _mm_unpackhi_epi32(b1, b3),
            ];
            let hi = |x: __m128i| _mm_unpackhi_epi64(x, x);
            [
                c[0],
                hi(c[0]),
                c[1],
                hi(c[1]),
                c[2],
                hi(c[2]),
                c[3],
                hi(c[3]),
            ]
        }
        #[inline(always)]
        unsafe fn common(d: &LaneDecode, c: __m128i, w: usize) -> bool {
            _mm_movemask_epi8(uncommon16(d, c)) & ((1 << w) - 1) == 0
        }
        /// A short block's fill is code 0, so it takes the full arm.
        #[inline(always)]
        unsafe fn all_common(d: &LaneDecode, cols: &[__m128i; NRM]) -> bool {
            let mut flags = _mm_setzero_si128();
            for x in cols.iter().step_by(2) {
                flags = _mm_or_si128(flags, uncommon16(d, *x));
            }
            _mm_movemask_epi8(flags) == 0
        }
        /// No per-element table load, no gather (the 8 special values sit
        /// in one register, picked by `vpermps`); `vdivps` is the scalar
        /// `/`. Without `FULL` the subnormal and special blends are
        /// skipped. The sign is ORed in after the special blend (E4M3's
        /// `0xFF` is the negative-NaN pattern).
        #[inline(always)]
        unsafe fn decode8<const FULL: bool>(d: &LaneDecode, codes: __m128i, scales: Self) -> Self {
            // Macros, not closures: a closure is compiled without AVX2.
            macro_rules! i {
                ($v:expr) => {
                    _mm256_set1_epi32($v)
                };
            }
            macro_rules! ps {
                ($v:expr) => {
                    _mm256_castsi256_ps($v)
                };
            }
            let c = _mm256_cvtepu8_epi32(codes);
            let mag = _mm256_and_si256(c, i!(0x7f));
            let normal = _mm256_add_epi32(_mm256_sllv_epi32(mag, i!(23 - d.m)), i!(d.exp_bias));
            let mut v = ps!(normal);
            if FULL {
                let sub = _mm256_mul_ps(_mm256_cvtepi32_ps(mag), _mm256_set1_ps(d.sub_unit));
                v = _mm256_blendv_ps(sub, v, ps!(_mm256_cmpgt_epi32(mag, i!((1 << d.m) - 1))));
                let top = _mm256_permutevar8x32_ps(_mm256_loadu_ps(d.top.as_ptr()), mag);
                v = _mm256_blendv_ps(v, top, ps!(_mm256_cmpgt_epi32(mag, i!(d.special - 1))));
            }
            let sign = _mm256_slli_epi32::<24>(_mm256_xor_si256(c, mag));
            _mm256_div_ps(_mm256_or_ps(v, ps!(sign)), scales)
        }
        /// `vmulps` is the scalar `v * s`; the rest is integer lanes and
        /// one `vaddps` whose rounding is the subnormal RNE. No table.
        #[inline(always)]
        unsafe fn encode8(e: &LaneEncode, v: Self, s: Self) -> [u8; NRM] {
            macro_rules! i {
                ($v:expr) => {
                    _mm256_set1_epi32($v)
                };
            }
            let bits = _mm256_castps_si256(_mm256_mul_ps(v, s));
            let mag = _mm256_and_si256(bits, i!(0x7fff_ffff));
            let odd = _mm256_and_si256(_mm256_srlv_epi32(mag, i!(e.shift)), i!(1));
            let half = _mm256_add_epi32(odd, i!((1 << (e.shift - 1)) - 1));
            let rounded = _mm256_srlv_epi32(_mm256_add_epi32(mag, half), i!(e.shift));
            let normal = _mm256_sub_epi32(rounded, i!(e.rebias));
            let sum = _mm256_add_ps(_mm256_castsi256_ps(mag), _mm256_set1_ps(e.magic));
            let sub = _mm256_sub_epi32(_mm256_castps_si256(sum), i!(e.magic.to_bits() as i32));
            let code = _mm256_blendv_epi8(normal, sub, _mm256_cmpgt_epi32(i!(e.min_normal), mag));
            let code = _mm256_min_epi32(code, i!(e.max_code));
            let code = _mm256_or_si256(
                code,
                _mm256_and_si256(_mm256_srli_epi32::<24>(bits), i!(0x80)),
            );
            let nan = _mm256_cmpgt_epi32(mag, i!(0x7f80_0000));
            let code = _mm256_blendv_epi8(code, i!(e.nan_code), nan);
            let (lo, hi) = (
                _mm256_castsi256_si128(code),
                _mm256_extracti128_si256::<1>(code),
            );
            let bytes = _mm_packus_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
            (_mm_cvtsi128_si64(bytes) as u64).to_le_bytes()
        }
    }
}

/// Pack a `[k, n]` matmul `B` into column panels (panel `p` holds columns
/// `p*NRM ..` per `kk` from offset `p*NRM*k`; a ragged last panel's spare
/// lanes are zeros), a row of the row source at a time: a coded `B` is
/// decoded one L1-resident row at a time, never staged whole.
fn pack_panels<B: Rows + ?Sized>(b: &B, k: usize, n: usize, bp: &mut [f32]) {
    let full = n / NRM;
    bp[full * NRM * k..].fill(0.0);
    for kk in 0..k {
        b.with(kk * n, n, |row| {
            let mut lanes = row.chunks_exact(NRM);
            for (p, l) in lanes.by_ref().enumerate() {
                bp[(p * k + kk) * NRM..][..NRM].copy_from_slice(l);
            }
            let tail = lanes.remainder();
            if !tail.is_empty() {
                bp[(full * k + kk) * NRM..][..tail.len()].copy_from_slice(tail);
            }
        });
    }
}

/// `R ≤ MR` rows × `P` adjacent panels from `b`: `R·P` vectors of chains,
/// every row adding its `kk` term to each panel's lanes, `kk` ascending —
/// the 4×16 tile (`P = 2`) amortizes the per-`kk` zero test and loop
/// overhead over twice the arithmetic. `a` is the `R`×`k` A block: k-major
/// (`a[kk*MR + r]`) under the zero test (`SKIP` and `R = MR`), so one load
/// fetches two `kk` steps' row values; row-major (`a[r*k + kk]`)
/// otherwise. With `SKIP` a row's zero term is skipped per `(row, kk)`;
/// when no value of two steps is zero the skip cannot fire and both run
/// unguarded (still `kk`-ordered per chain).
///
/// # Safety
///
/// As [`Chains`]; `a` holds `R·k` values and `b` `P` panels of `k` rows.
#[inline(always)]
unsafe fn tile<V: Chains, const SKIP: bool, const R: usize, const P: usize>(
    a: &[f32],
    k: usize,
    b: *const f32,
) -> [[V; P]; R] {
    let a = a.as_ptr();
    let (rs, ks) = if SKIP && R == MR { (1, MR) } else { (k, 1) };
    let mut acc = [[V::splat(0.0); P]; R];
    // Row `$kk` of the `P` panels.
    macro_rules! row {
        ($kk:expr) => {{
            let mut bk = [V::splat(0.0); P];
            for (p, v) in bk.iter_mut().enumerate() {
                *v = V::load(b.add((p * k + $kk) * NRM));
            }
            bk
        }};
    }
    // Step `$kk` of the rows; `$guard` keeps the per-row zero-skip.
    macro_rules! step {
        ($kk:expr, $bk:expr, $guard:expr) => {
            for (r, row) in acc.iter_mut().enumerate() {
                let av = *a.add(r * rs + $kk * ks);
                if $guard && av == 0.0 {
                    continue;
                }
                for (c, &bv) in row.iter_mut().zip(&$bk) {
                    *c = c.mac(av, bv);
                }
            }
        };
    }
    let mut kk = 0;
    while kk + 2 <= k {
        let (bk0, bk1) = (row!(kk), row!(kk + 1));
        if SKIP && (R < MR || V::any_zero(a.add(kk * MR))) {
            step!(kk, bk0, true);
            step!(kk + 1, bk1, true);
        } else {
            step!(kk, bk0, false);
            step!(kk + 1, bk1, false);
        }
        kk += 2;
    }
    if kk < k {
        step!(kk, row!(kk), SKIP);
    }
    acc
}

/// One chunk of [`tile_rows`], `(a, [mr, k, n], bp, out)`: `out[mr, n] =
/// A[mr, k] · B` with `B` in packed column panels (`bp`), `a` as [`tile`]
/// reads it. Every element of `out` is stored with its finished chain
/// (which starts at `0.0`).
struct Tile<'a, const SKIP: bool>(&'a [f32], [usize; 3], &'a [f32], &'a mut [f32]);

impl<const SKIP: bool> LaneKernel for Tile<'_, SKIP> {
    #[inline(always)]
    unsafe fn run<V: Chains>(self) {
        match self.1[0] {
            MR => tile_panels::<V, SKIP, MR>(self),
            mr => short_rows!(mr, tile_panels::<V, SKIP>(self)),
        }
    }
}

/// [`Tile`] at `R` rows: pairs of full panels, then single ones; a ragged
/// last panel stores its first chains only.
///
/// # Safety
///
/// As [`Chains`].
#[inline(always)]
unsafe fn tile_panels<V: Chains, const SKIP: bool, const R: usize>(t: Tile<SKIP>) {
    let Tile(a, [_, k, n], bp, out) = t;
    assert!(a.len() >= R * k && bp.len() >= n.next_multiple_of(NRM) * k && out.len() >= R * n);
    let mut j0 = 0;
    while j0 + 2 * NRM <= n {
        let acc = tile::<V, SKIP, R, 2>(a, k, bp.as_ptr().add(j0 * k));
        for (r, row) in acc.iter().enumerate() {
            for (p, v) in row.iter().enumerate() {
                v.store(&mut out[r * n + j0 + p * NRM..][..NRM]);
            }
        }
        j0 += 2 * NRM;
    }
    while j0 < n {
        let acc = tile::<V, SKIP, R, 1>(a, k, bp.as_ptr().add(j0 * k));
        let wp = NRM.min(n - j0);
        for (r, [v]) in acc.iter().enumerate() {
            v.store(&mut out[r * n + j0..][..wp]);
        }
        j0 += NRM;
    }
}

/// `out = x · B (+ bias)`: `MR` rows of the row source per chunk through
/// the tile against the packed `B`, the zero-skip per `SKIP`, fanned out
/// as [`for_each_chunk`] decides for `macs`.
fn tile_rows<const SKIP: bool, X: Rows + ?Sized>(
    x: &X,
    (k, n): (usize, usize),
    bp: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    macs: usize,
) {
    for_each_chunk(out, MR * n, macs, |blk, rows| {
        let mr = rows.len() / n;
        x.with(blk * MR * k, mr * k, |xs| {
            if SKIP && mr == MR {
                // Stage the A block k-major for the zero test (pure data
                // movement: same values, same order).
                return scratch::with_rows2(k * MR, |at| {
                    for r in 0..MR {
                        for (kk, col) in at.chunks_exact_mut(MR).enumerate() {
                            col[r] = xs[r * k + kk];
                        }
                    }
                    run_lanes(Tile::<SKIP>(at, [mr, k, n], bp, &mut *rows))
                });
            }
            run_lanes(Tile::<SKIP>(xs, [mr, k, n], bp, &mut *rows))
        });
        add_bias(rows, n, bias);
    });
}

/// The bias on finished chains: `y += b[j]` per `n`-wide row.
fn add_bias(rows: &mut [f32], n: usize, bias: Option<&[f32]>) {
    if let Some(b) = bias {
        for row in rows.chunks_exact_mut(n) {
            for (y, bv) in row.iter_mut().zip(b) {
                *y += bv;
            }
        }
    }
}

/// Matmul over any operand mix.
pub(super) fn matmul<A, B>(a: &A, b: &B, k: usize, n: usize, out: &mut Tensor)
where
    A: Rows + ?Sized,
    B: Rows + ?Sized,
{
    let macs = out.len() * k;
    scratch::with_panel(k * n.next_multiple_of(NRM), |bp| {
        pack_panels(b, k, n, bp);
        tile_rows::<true, _>(a, (k, n), bp, None, out.data_mut(), macs);
    });
}

/// `C[b] = A[b] · B[b]`: one batch per chunk, its `B` packed by the thread
/// that runs it, its rows through the tile serially (`macs` 0).
pub(super) fn batch_matmul(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize, out: &mut Tensor) {
    let macs = out.len() * k;
    for_each_chunk(out.data_mut(), m * n, macs, |bi, obatch| {
        scratch::with_panel(k * n.next_multiple_of(NRM), |bp| {
            pack_panels(&bd[bi * k * n..][..k * n], k, n, bp);
            tile_rows::<true, _>(&ad[bi * m * k..][..m * k], (k, n), bp, None, obatch, 0);
        });
    });
}

/// The 8 scales of channels `j0 ..`, the last of `n` repeated.
///
/// # Safety
///
/// As [`Chains`].
#[inline(always)]
unsafe fn channel_scales<V: Chains>(q: &QTensor, j0: usize, n: usize) -> V {
    let s: [f32; NRM] =
        std::array::from_fn(|c| q.scales().scale_for_channel(j0 + c.min(n - j0 - 1)));
    V::load(s.as_ptr())
}

/// `(q, (k, n), bp)`: an FP8 weight `q` (`[n, k]`) into the column panels
/// `bp`, per panel of 8 channels [`walk8`] over their weight rows, column
/// `kk` stored as the panel's row `kk`, dead lanes repeating channel `n − 1`.
struct PackQ<'a>(&'a QTensor, (usize, usize), &'a mut [f32]);

impl LaneKernel for PackQ<'_> {
    #[inline(always)]
    unsafe fn run<V: Chains>(self) {
        let PackQ(q, (k, n), bp) = self;
        assert!(q.len() >= n * k && bp.len() >= n.next_multiple_of(NRM) * k);
        let (dec, codes) = (LaneDecode::new(q.lut()), q.codes().as_ptr());
        for j0 in (0..n).step_by(NRM) {
            let panel = &mut bp[j0 * k..][..NRM * k];
            let rows = (codes.add(j0 * k), k, NRM.min(n - j0));
            walk8!(V, &dec, rows, channel_scales::<V>(q, j0, n), k, |kk, wv| {
                wv.store(&mut panel[kk * NRM..][..NRM])
            });
        }
    }
}

/// `(xs, q, [m, k, n], out)`: the `m < MR` rows of [`linear`] (`xs`, `m`
/// rows of `k`) against an FP8 weight `q` read in place, per panel of 8
/// channels [`walk8`] over their weight rows into the row tile's
/// `kk`-ascending chains, no panel staged. A ragged last panel's dead lanes
/// are not stored.
struct ShortRowsQ<'a>(&'a [f32], &'a QTensor, [usize; 3], &'a mut [f32]);

impl LaneKernel for ShortRowsQ<'_> {
    #[inline(always)]
    unsafe fn run<V: Chains>(self) {
        short_rows!(self.2[0], linear_rows_q::<V>(self))
    }
}

/// [`ShortRowsQ`] at `R` rows.
///
/// # Safety
///
/// As [`Chains`].
#[inline(always)]
unsafe fn linear_rows_q<V: Chains, const R: usize>(s: ShortRowsQ) {
    let ShortRowsQ(xs, q, [_, k, n], out) = s;
    assert!(xs.len() >= R * k && out.len() >= R * n && q.len() >= n * k);
    let (dec, codes) = (LaneDecode::new(q.lut()), q.codes().as_ptr());
    for j0 in (0..n).step_by(NRM) {
        let (wp, mut acc) = (NRM.min(n - j0), [V::splat(0.0); R]);
        let rows = (codes.add(j0 * k), k, wp);
        walk8!(V, &dec, rows, channel_scales::<V>(q, j0, n), k, |kk, wv| {
            for (r, a) in acc.iter_mut().enumerate() {
                *a = a.mac(xs[r * k + kk], wv);
            }
        });
        for (r, a) in acc.iter().enumerate() {
            a.store(&mut out[r * n + j0..][..wp]);
        }
    }
}

/// Stream an `[n, k]` weight into column panels (`bp[j0*k + kk*NRM + c]`
/// is `Wᵀ[kk, j0+c]`): an f32 weight as a plain transposing copy, an
/// FP8-stored one as `lut.decode(code) / scale(channel)` — the expression
/// of `QTensor::dequantize` — through [`PackQ`], a packed one copied.
pub(super) fn decode_pack_weights(weight: WeightOperand, k: usize, n: usize, bp: &mut [f32]) {
    match weight {
        WeightOperand::F32(t) => pack_transposed(t.data(), k, n, bp),
        WeightOperand::Q(q) => run_lanes(PackQ(q, (k, n), bp)),
        WeightOperand::Packed(p) => bp.copy_from_slice(&p.panels),
    }
}

/// Run `f` on the column panels of `weight` as an `[n, k]` weight, beside
/// `extra` elements of call-wide scratch: a packed weight's own panels, any
/// other weight packed into the call-wide panel buffer for this call.
fn with_panels<R>(
    weight: WeightOperand,
    (k, n): (usize, usize),
    extra: usize,
    f: impl FnOnce(&[f32], &mut [f32]) -> R,
) -> R {
    if let WeightOperand::Packed(p) = weight {
        return scratch::with_panel(extra, |e| f(&p.panels, e));
    }
    let len = n.next_multiple_of(NRM) * k;
    scratch::with_panel(len + extra, |buf| {
        let (wp, e) = buf.split_at_mut(len);
        decode_pack_weights(weight, k, n, wp);
        f(wp, e)
    })
}

/// The f32 arm of [`decode_pack_weights`], from the `n` rows of `k` in
/// `src`. A ragged last panel's dead lanes repeat its last row.
fn pack_transposed(src: &[f32], k: usize, n: usize, bp: &mut [f32]) {
    for j0 in (0..n).step_by(NRM) {
        let rows: [&[f32]; NRM] =
            std::array::from_fn(|c| &src[(j0 + c.min(n - j0 - 1)) * k..][..k]);
        for (kk, dst) in bp[j0 * k..(j0 + NRM) * k].chunks_exact_mut(NRM).enumerate() {
            for c in 0..NRM {
                dst[c] = rows[c][kk];
            }
        }
    }
}

/// Linear over any weight, no zero-skip: packed once per call unless it
/// comes packed — except an FP8 weight under fewer than `MR` rows, whose
/// codes the row tile reads in place ([`ShortRowsQ`]; a packed weight runs
/// [`Tile`]'s short rows, the same chains).
pub(super) fn linear<X: Rows + ?Sized>(
    x: &X,
    weight: WeightOperand,
    bias: Option<&Tensor>,
    k: usize,
    n: usize,
    out: &mut Tensor,
) {
    let (bias, macs) = (bias.map(Tensor::data), out.len() * k);
    if let (WeightOperand::Q(q), m @ 1..MR) = (weight, out.len() / n) {
        let out = out.data_mut();
        x.with(0, m * k, |xs| {
            run_lanes(ShortRowsQ(xs, q, [m, k, n], &mut *out))
        });
        return add_bias(out, n, bias);
    }
    with_panels(weight, (k, n), 0, |wp, _| {
        tile_rows::<false, _>(x, (k, n), wp, bias, out.data_mut(), macs);
    });
}

/// One conv call as its tiles see it: the weight in panels, the bias
/// padded with zeros to whole panels (all zeros without one), the geometry.
struct ConvCall<'a> {
    wp: &'a [f32],
    bias: &'a [f32],
    d: &'a ConvDims,
}

/// One `R`-pixel × `P`-panel direct-conv tile from output channel `j0`:
/// `R·P` vectors of `NRM` chains, each seeded with its channel's bias and
/// advanced over the in-bounds taps `(ci, ky ∈ kys, kx ∈ kxs)` in the
/// reference order — a padding tap is in neither range and contributes
/// no term. `x0` indexes pixel 0's first tap in the sample `xs`, read in
/// place; pixel `r` reads `rs` elements further on. Tap `(ci, ky, kx)` is
/// panel row `(ci·kh + ky)·kw + kx`. Channel `j0 + j` of pixel `r` is
/// stored to `out[j·oh·ow + r]`; the chains past `cout` are dead.
///
/// # Safety
///
/// The CPU feature `V` needs was detected.
#[inline(always)]
unsafe fn conv_tile<V: Chains, const R: usize, const P: usize>(
    c: &ConvCall,
    xs: &[f32],
    j0: usize,
    (x0, rs): (usize, usize),
    (kys, kxs): (&Range<usize>, &Range<usize>),
    out: &mut [f32],
) {
    let (d, len, k) = (c.d, kxs.len(), c.d.cin * c.d.kh * c.d.kw);
    let panels = &c.wp[j0 * k..(j0 + P * NRM) * k];
    let mut w: [V; P] = std::array::from_fn(|p| V::load(c.bias[j0 + p * NRM..][..NRM].as_ptr()));
    let mut acc = [w; R];
    if len > 0 && !kys.is_empty() {
        // One bounds check per tile: the last tap of the last pixel, and
        // tap ranges inside the panels.
        let last = x0 + ((d.cin - 1) * d.h + kys.len() - 1) * d.w + (R - 1) * rs + len;
        assert!(last <= xs.len() && kys.end <= d.kh && kxs.end <= d.kw);
        for ci in 0..d.cin {
            for ky in kys.clone() {
                let xrow = x0 + (ci * d.h + ky - kys.start) * d.w;
                let prow = (ci * d.kh + ky) * d.kw + kxs.start;
                for t in 0..len {
                    for (p, wv) in w.iter_mut().enumerate() {
                        // In bounds: row `prow + t < k` of panel `p < P`.
                        *wv = V::load(panels.as_ptr().add((p * k + prow + t) * NRM));
                    }
                    for (r, row) in acc.iter_mut().enumerate() {
                        // In bounds: at most `last - 1`.
                        let xv = *xs.get_unchecked(xrow + r * rs + t);
                        for (a, wv) in row.iter_mut().zip(w) {
                            *a = a.mac(xv, wv);
                        }
                    }
                }
            }
        }
    }
    // Stores, not `map`: LLVM need not inline `map`, and a call costs the
    // tile its registers.
    let mut vals = [[[0.0; NRM]; P]; R];
    for (vr, ar) in vals.iter_mut().zip(&acc) {
        for (v, a) in vr.iter_mut().zip(ar) {
            a.store(v);
        }
    }
    let planes = out.chunks_mut(d.oh * d.ow).take((d.cout - j0).min(P * NRM));
    for (j, plane) in planes.enumerate() {
        for r in 0..R {
            plane[r] = vals[r][j / NRM][j % NRM];
        }
    }
}

/// The interior output columns `lo..hi` (every `kx` tap in bounds), or
/// `0..0` when they hold less than one `block` of pixels.
fn interior(d: &ConvDims, block: usize) -> (usize, usize) {
    let pad = d.pad as usize;
    let lo = pad.div_ceil(d.stride);
    let hi = ((d.w + pad).saturating_sub(d.kw) / d.stride + 1).min(d.ow);
    if d.w + pad < d.kw || lo + block > hi {
        return (0, 0);
    }
    (lo, hi)
}

/// `P` panels of output channels from `j0`, over one image. A row's
/// interior columns — every `kx` tap in bounds — run `MR`-pixel blocks, a
/// ragged tail re-running the last full block overlapped (it stores the
/// same values twice); the border columns run the one-pixel tile with
/// `kxs` clamped.
///
/// # Safety
///
/// As [`conv_tile`].
#[inline(always)]
unsafe fn conv_panels<V: Chains, const P: usize>(
    c: &ConvCall,
    xs: &[f32],
    j0: usize,
    oimg: &mut [f32],
) {
    let (d, pad) = (c.d, c.d.pad as usize);
    let (lo, hi) = interior(d, MR);
    for oy in 0..d.oh {
        let iy0 = (oy * d.stride) as isize - d.pad;
        let kys = taps(iy0, d.h, d.kh);
        let xrow = (iy0 + kys.start as isize) as usize * d.w;
        let orow = &mut oimg[j0 * d.oh * d.ow + oy * d.ow..];
        for ox in (0..lo).chain(hi..d.ow) {
            let ix0 = (ox * d.stride) as isize - d.pad;
            let kxs = taps(ix0, d.w, d.kw);
            let at = (xrow + (ix0 + kxs.start as isize) as usize, 0);
            conv_tile::<V, 1, P>(c, xs, j0, at, (&kys, &kxs), &mut orow[ox..]);
        }
        for ox in (lo..hi).step_by(MR) {
            let ox = ox.min(hi - MR);
            let at = (xrow + ox * d.stride - pad, d.stride);
            conv_tile::<V, MR, P>(c, xs, j0, at, (&kys, &(0..d.kw)), &mut orow[ox..]);
        }
    }
}

/// `(call, xs, oimg)`: one image of [`conv2d`], `xs` its sample, its output
/// channels in pairs of panels (a 4×16 tile, 8 vectors of chains), a last
/// odd panel alone.
struct ConvImage<'a>(&'a ConvCall<'a>, &'a [f32], &'a mut [f32]);

impl LaneKernel for ConvImage<'_> {
    #[inline(always)]
    unsafe fn run<V: Chains>(self) {
        conv_image::<V>(self.0, self.1, self.2)
    }
}

/// [`ConvImage`].
///
/// # Safety
///
/// As [`conv_tile`].
#[inline(always)]
unsafe fn conv_image<V: Chains>(c: &ConvCall, xs: &[f32], oimg: &mut [f32]) {
    for j0 in (0..c.d.cout).step_by(2 * NRM) {
        if j0 + NRM < c.d.cout {
            conv_panels::<V, 2>(c, xs, j0, oimg);
        } else {
            conv_panels::<V, 1>(c, xs, j0, oimg);
        }
    }
}

/// Conv over any weight, directly on Linear's panels. An image is one
/// chunk, its sample borrowed or decoded once, read in place.
pub(super) fn conv2d<X: Rows + ?Sized>(
    x: &X,
    weight: WeightOperand,
    bias: Option<&Tensor>,
    d: &ConvDims,
    out: &mut Tensor,
) {
    let (k, sample, image) = (d.cin * d.kh * d.kw, d.cin * d.h * d.w, d.cout * d.oh * d.ow);
    let (padded, macs) = (d.cout.next_multiple_of(NRM), out.len() * k);
    with_panels(weight, (k, d.cout), padded, |wp, bp| {
        bp.fill(0.0);
        if let Some(b) = bias {
            bp[..d.cout].copy_from_slice(b.data());
        }
        let c = &ConvCall { wp, bias: bp, d };
        for_each_chunk(out.data_mut(), image, macs, |img, oimg| {
            x.with(img * sample, sample, |xs| run_lanes(ConvImage(c, xs, oimg)));
        });
    });
}

/// Depthwise conv, its `[c, kh·kw]` weight packed like any conv weight:
/// one plane per chunk, read in place. At stride 1 interior columns run
/// `NRM` pixels (bias-seeded chains, a ragged tail overlapped); every other
/// pixel is the reference's own `window_sum`.
pub(super) fn depthwise(
    xs: &[f32],
    weight: WeightOperand,
    bias: Option<&Tensor>,
    d: &ConvDims,
    out: &mut Tensor,
) {
    let (k, plane, pad) = (d.kh * d.kw, d.h * d.w, d.pad as usize);
    // A block's lanes read adjacent taps: stride 1 only (wider never fits).
    let block = if d.stride == 1 { NRM } else { d.ow + 1 };
    let ((lo, hi), macs) = (interior(d, block), out.len() * k);
    with_panels(weight, (k, d.cout), 0, |wp, _| {
        for_each_chunk(out.data_mut(), d.oh * d.ow, macs, |i, oplane| {
            let (c, x) = (i % d.cout, &xs[i * plane..][..plane]);
            let b0 = bias.map_or(0.0, |b| b.data()[c]);
            // This plane's channel `[kh·kw]`, out of its panel lane.
            scratch::with_rows(k, |w| {
                for (t, v) in w.iter_mut().enumerate() {
                    *v = wp[(c / NRM * k + t) * NRM + c % NRM];
                }
                for (oy, orow) in oplane.chunks_exact_mut(d.ow).enumerate() {
                    let iy0 = (oy * d.stride) as isize - d.pad;
                    for ox in (0..lo).chain(hi..d.ow) {
                        orow[ox] = window_sum(x, w, b0, d, iy0, (ox * d.stride) as isize - d.pad);
                    }
                    for ox in (lo..hi).step_by(NRM) {
                        let ox = ox.min(hi - NRM);
                        let mut acc = [b0; NRM];
                        for ky in taps(iy0, d.h, d.kh) {
                            let xrow = &x[(iy0 + ky as isize) as usize * d.w + ox - pad..];
                            for (kx, &wv) in w[ky * d.kw..][..d.kw].iter().enumerate() {
                                for (a, &xv) in acc.iter_mut().zip(&xrow[kx..kx + NRM]) {
                                    *a += xv * wv;
                                }
                            }
                        }
                        orow[ox..ox + NRM].copy_from_slice(&acc);
                    }
                }
            });
        });
    });
}

#[cfg(test)]
pub(super) mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;
    use ptq_fp8::{Fp8Format, StoredScales};

    use super::*;
    use crate::kv::{KvBuf, KvCachePolicy};
    use crate::ops::{
        attention_step_q, attention_step_v, conv2d_into, depthwise_conv2d_into, linear_into,
        matmul_into, Conv2dParams, KernelPath, KvSegments, PackedWeight,
    };
    use crate::rng::TensorRng;

    thread_local! {
        /// [`run_lanes`] runs the array lanes on this thread, whatever the
        /// CPU has.
        pub(super) static PORTABLE: Cell<bool> = const { Cell::new(false) };
    }

    /// `f(lanes)` on the array lanes, then on the lanes this CPU runs (AVX2
    /// where detected). The switch is per thread: a kernel above the
    /// fan-out cutoff would run its chunks on the pool's lanes, so the
    /// shapes here stay far below it.
    pub(crate) fn on_both_lanes(mut f: impl FnMut(&str)) {
        for (portable, lanes) in [(true, "array lanes"), (false, "host lanes")] {
            PORTABLE.with(|p| p.set(portable));
            f(lanes);
        }
        PORTABLE.with(|p| p.set(false));
    }

    /// The lane pack on every code, on both lane types: a `[11, 29]`
    /// weight whose codes cycle through all 256 bytes (a ragged panel of 3
    /// channels, a 5-code tail block), every panel element — dead lanes
    /// included — bit for bit `lut.decode(code) / scale(channel)`,
    /// per-tensor and per-channel scales of 1, 3.7, 2^-20 and 2^120
    /// (subnormal and zero results).
    #[test]
    fn lane_pack_matches_the_scalar_pack_on_every_code() {
        let (n, k) = (11, 29);
        let codes: Vec<u8> = (0..n * k).map(|i| i as u8).collect();
        let values = [1.0f32, 3.7, 2f32.powi(-20), 2f32.powi(120)];
        let per_channel = StoredScales::PerChannel((0..n).map(|j| values[j % 4]).collect());
        let scales: Vec<_> = values
            .map(StoredScales::PerTensor)
            .into_iter()
            .chain([per_channel])
            .collect();
        on_both_lanes(|lanes| {
            for f in Fp8Format::ALL {
                for sc in &scales {
                    let q =
                        QTensor::from_raw_parts(f, vec![n, k], codes.clone().into(), sc.clone())
                            .unwrap();
                    let mut bp = vec![f32::NAN; n.next_multiple_of(NRM) * k];
                    decode_pack_weights(WeightOperand::Q(&q), k, n, &mut bp);
                    for (i, got) in bp.iter().enumerate() {
                        // `bp[j0·k + kk·NRM + c]`; a dead lane repeats channel n − 1.
                        let (kk, c) = (i / NRM % k, i % NRM);
                        let ch = (i / (NRM * k) * NRM + c).min(n - 1);
                        let scale = q.scales().scale_for_channel(ch);
                        let want = (q.lut().decode(codes[ch * k + kk]) / scale).to_bits();
                        let at = format!("{lanes}, {f} {sc:?} channel {ch} kk {kk} lane {c}");
                        assert_eq!(got.to_bits(), want, "{at}");
                    }
                }
            }
        });
    }

    /// The decoder of one lane type against the table on every code.
    struct DecoderCheck<'a>(&'a str);

    impl LaneKernel for DecoderCheck<'_> {
        unsafe fn run<V: Chains>(self) {
            // The last scale sends every E4M3/E3M4 and most E5M2 results
            // below f32::MIN_POSITIVE.
            let scales = [1.0f32, 2f32.powi(20), 2f32.powi(-20), 3.7, 2f32.powi(120)];
            for f in Fp8Format::ALL {
                let lut = Fp8Lut::for_format(f);
                let (dec, spec) = (LaneDecode::new(lut), lut.spec());
                let special = match spec.nan_encoding {
                    NanEncoding::Ieee => spec.exp_all_ones() << spec.man_bits,
                    NanEncoding::Extended => 0x7f,
                };
                let normal = |c: u8| (1 << spec.man_bits..special).contains(&u32::from(c & 0x7f));
                let all: Vec<u8> = (0..=255).collect();
                for block in all.chunks(16) {
                    let codes = V::load_codes(block.as_ptr(), 16);
                    let common = V::common(&dec, codes, 16);
                    assert!(
                        common || !block.iter().all(|&c| normal(c)),
                        "{f}: fast arm unused"
                    );
                    for (half, codes) in [codes, V::high_codes(codes)].into_iter().enumerate() {
                        for &s in &scales {
                            let sv = V::splat(s);
                            let (mut full, mut fast) = ([0.0; NRM], [0.0; NRM]);
                            V::decode8::<true>(&dec, codes, sv).store(&mut full);
                            V::decode8::<false>(&dec, codes, sv).store(&mut fast);
                            for (i, &code) in block[half * NRM..][..NRM].iter().enumerate() {
                                let want = (lut.decode(code) / s).to_bits();
                                let at = format!("{}, {f} code {code:#04x} / {s:e}", self.0);
                                assert_eq!(full[i].to_bits(), want, "{at}");
                                let one = V::load_codes(&code, 1);
                                assert!(V::common(&dec, one, 1) || !normal(code), "{at} flag");
                                if common || V::common(&dec, one, 1) {
                                    assert_eq!(fast[i].to_bits(), want, "{at} fast arm");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The 8-lane decoder against the table, exhaustively, on both lane
    /// types: every code of every paper format through both arms it may
    /// take, each lane bit-identical to `lut.decode(code) / scale` — NaN
    /// payload and sign included — for unit, power-of-two,
    /// non-power-of-two and subnormal-result scales; the fast arm taken
    /// wherever every code is a normal one.
    #[test]
    fn lane_decoder_matches_the_table_on_every_code() {
        on_both_lanes(|lanes| run_lanes(DecoderCheck(lanes)));
    }

    /// The encoder of one lane type against the table: every format, `xs`
    /// by `s`, 8 lanes a load (a short last block through `load_part`).
    struct EncoderCheck<'a>(&'a str, &'a [f32], f32);

    impl LaneKernel for EncoderCheck<'_> {
        unsafe fn run<V: Chains>(self) {
            let EncoderCheck(lanes, xs, s) = self;
            for f in Fp8Format::ALL {
                let (lut, sv) = (Fp8Lut::for_format(f), V::splat(s));
                let e = LaneEncode::new(lut);
                for block in xs.chunks(NRM) {
                    let v = V::load_part(block.as_ptr(), block.len() as i32);
                    for (&x, got) in block.iter().zip(V::encode8(&e, v, sv)) {
                        let bits = x.to_bits();
                        assert_eq!(got, lut.encode(x * s), "{lanes}, {f} {bits:#010x} · {s:e}");
                    }
                }
            }
        }
    }

    /// Inputs where an arithmetic encode can slip, both signs: ±0, ±Inf,
    /// NaN payloads, f32 subnormals and extremes, and ±2 ulps around every
    /// format's min normal, every RNE tie between neighbouring codes and
    /// the saturation edge (half a step past the largest finite value).
    fn encode_edges() -> Vec<f32> {
        let mut edges = vec![0.0, f32::INFINITY, f32::NAN, f32::MAX, f32::MIN_POSITIVE];
        edges.extend([1, 2, 3, 0x0040_0000, 0x007f_ffff].map(f32::from_bits));
        edges.extend([0x7f80_0001, 0x7fc0_1234, 0x7fff_ffff].map(f32::from_bits));
        for f in Fp8Format::ALL {
            let (lut, spec) = (Fp8Lut::for_format(f), f.spec());
            let max = spec.finite_magnitude_count() as u8 - 1;
            let value = |c: u8| lut.decode(c);
            let mut at = vec![
                spec.min_normal(),
                value(max),
                1.5 * value(max) - 0.5 * value(max - 1),
            ];
            at.extend((1..=max).map(|c| 0.5 * (value(c - 1) + value(c))));
            for x in at {
                edges.extend((-2i32..=2).map(|d| f32::from_bits((x.to_bits() as i32 + d) as u32)));
            }
        }
        let negated: Vec<f32> = edges.iter().map(|x| -x).collect();
        edges.extend(negated);
        edges
    }

    /// The 8-lane encoder against `Fp8Lut::encode`, on both lane types,
    /// for every paper format: every 4 099th f32 bit pattern at unit
    /// scale, and [`encode_edges`] at unit, non-power-of-two and tiny
    /// scales — codes bit for bit, NaN and saturation included.
    #[test]
    fn lane_encoder_matches_the_table() {
        let strided: Vec<f32> = (0..=u32::MAX as u64)
            .step_by(4099)
            .map(|b| f32::from_bits(b as u32))
            .collect();
        let edges = encode_edges();
        on_both_lanes(|lanes| {
            run_lanes(EncoderCheck(lanes, &strided, 1.0));
            for s in [1.0, 3.7, 2f32.powi(-20)] {
                run_lanes(EncoderCheck(lanes, &edges, s));
            }
        });
    }

    /// Pre-merge, `cargo test --release -p ptq-tensor --lib --
    /// --ignored exhaustive_lane_encoder`: the encoder against the table
    /// on all 2^32 inputs, every paper format, both lane types.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs × 3 formats × 2 lane types: ~10 min release"]
    fn exhaustive_lane_encoder_matches_the_table() {
        let mut xs = Vec::with_capacity(1 << 20);
        for hi in 0..1u32 << 12 {
            xs.clear();
            xs.extend((0..1u32 << 20).map(|lo| f32::from_bits(hi << 20 | lo)));
            on_both_lanes(|lanes| run_lanes(EncoderCheck(lanes, &xs, 1.0)));
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `run` under `Blocked` on both lane types, bit for bit its
    /// `ScalarReference` result.
    fn check(what: &str, run: impl Fn(&mut Tensor, KernelPath)) {
        let mut want = Tensor::default();
        run(&mut want, KernelPath::ScalarReference);
        on_both_lanes(|lanes| {
            let mut got = Tensor::default();
            run(&mut got, KernelPath::Blocked);
            assert_eq!(got.shape(), want.shape(), "{what}, {lanes}");
            assert_eq!(bits(&got), bits(&want), "{what}, {lanes}");
        });
    }

    /// Element `at` of `t` set to `0 / -0 / NaN / Inf` (`kind` 4: clean)
    /// and its neighbour to an exact zero: skip and poison interact.
    fn poison(t: &mut Tensor, at: usize, kind: u8) {
        let len = t.len();
        t.data_mut()[(at + 1) % len] = 0.0;
        if let Some(v) = [0.0, -0.0, f32::NAN, f32::INFINITY].get(usize::from(kind)) {
            t.data_mut()[at % len] = *v;
        }
    }

    /// `run` with `w` and with its [`PackedWeight`], on both paths and both
    /// lane types, bit for bit the per-call `ScalarReference` result.
    fn check_packed(
        what: &str,
        w: WeightOperand,
        run: impl Fn(WeightOperand, &mut Tensor, KernelPath),
    ) {
        let packed = PackedWeight::pack(w);
        let mut want = Tensor::default();
        run(w, &mut want, KernelPath::ScalarReference);
        on_both_lanes(|lanes| {
            for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
                for (form, w) in [("per call", w), ("packed", WeightOperand::Packed(&packed))] {
                    let mut got = Tensor::default();
                    run(w, &mut got, path);
                    assert_eq!(bits(&got), bits(&want), "{what}, {form}, {path}, {lanes}");
                }
            }
        });
    }

    /// A packed weight gives the bits of the weight it was packed from:
    /// Linear at m = 1..=9 (short rows, one tile, a tile plus short rows)
    /// over ragged and whole panels, conv and depthwise, for f32 weights
    /// and FP8 ones under per-tensor and per-channel scales (a zero code:
    /// the decoder's full arm), on both kernel paths and lane types.
    #[test]
    fn packed_weights_match_the_per_call_pack() {
        let mut rng = TensorRng::seed(47);
        let f = Fp8Format::E4M3;
        let forms = |w: &Tensor| {
            let mut w = w.clone();
            w.data_mut()[3] = 0.0;
            let (pt, pc) = (
                QTensor::quantize(&w, f),
                QTensor::quantize_per_channel(&w, f),
            );
            (w, pt.unwrap(), pc.unwrap())
        };
        let k = 11;
        for n in [5, 8, 13, 21] {
            let (w, pt, pc) = forms(&rng.normal(&[n, k], 0.0, 1.0));
            let bias = rng.normal(&[n], 0.0, 1.0);
            for m in 1..=9 {
                let x = rng.normal(&[m, k], 0.0, 1.0);
                let run =
                    |w: WeightOperand, o: &mut Tensor, p| linear_into(&x, w, Some(&bias), o, p);
                for (kind, w) in [
                    ("f32", (&w).into()),
                    ("per-tensor", (&pt).into()),
                    ("per-channel", (&pc).into()),
                ] {
                    check_packed(&format!("{kind} linear m {m} n {n}"), w, run);
                }
            }
        }
        let x = rng.normal(&[2, 13, 7, 9], 0.0, 1.0);
        let p = Conv2dParams::same(3);
        let (w, pt, pc) = forms(&rng.normal(&[13, 13, 3, 3], 0.0, 1.0));
        let (dw, dpt, dpc) = forms(&rng.normal(&[13, 1, 3, 3], 0.0, 1.0));
        let conv = |w: WeightOperand, o: &mut Tensor, path| conv2d_into(&x, w, None, p, o, path);
        let depthwise =
            |w: WeightOperand, o: &mut Tensor, path| depthwise_conv2d_into(&x, w, None, p, o, path);
        for (kind, w, d) in [
            ("f32", (&w).into(), (&dw).into()),
            ("per-tensor", (&pt).into(), (&dpt).into()),
            ("per-channel", (&pc).into(), (&dpc).into()),
        ] {
            check_packed(&format!("{kind} conv"), w, conv);
            check_packed(&format!("{kind} depthwise"), d, depthwise);
        }
    }

    /// A cache of `len` random rows of `d` under `policy`.
    fn cache(rng: &mut TensorRng, d: usize, len: usize, policy: KvCachePolicy) -> KvBuf {
        let mut c = KvBuf::new(d, len, policy);
        for _ in 0..len {
            c.append_row(rng.normal(&[d], 0.0, 1.0).data()).unwrap();
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tile at 1–5 rows (1–3-row matmul, 4 rows at n < 8, a 4 + 1
        /// split) × every panel layout n = 1..33 spans, f32 and FP8-weight
        /// Linear at every row count (m < 4: the f32 weight on the tile, the
        /// FP8 one in place), and a conv image, on both lane types.
        #[test]
        fn every_tile_body_matches_the_reference_on_both_lane_types(
            k in 1usize..20,
            fmt in 0usize..3,
            kind in 0u8..5,
            seed in 0u64..1 << 20,
        ) {
            let f = Fp8Format::ALL[fmt];
            let mut rng = TensorRng::seed(seed);
            for m in 1..=5 {
                for n in [1, 5, 8, 13, 16, 21, 33] {
                    let mut a = rng.normal(&[m, k], 0.0, 1.0);
                    let mut b = rng.normal(&[k, n], 0.0, 1.0);
                    let mut w = rng.normal(&[n, k], 0.0, 1.0);
                    let bias = rng.normal(&[n], 0.0, 1.0);
                    poison(&mut a, seed as usize, kind);
                    // The zero's `B` row holds an Inf: a skip that fails to
                    // fire leaves `0 · Inf = NaN`.
                    b.data_mut()[(seed as usize + 1) % (m * k) % k * n] = f32::INFINITY;
                    // A zero code: the decoder's full arm.
                    w.data_mut()[seed as usize % (n * k)] = 0.0;
                    let q = QTensor::quantize_per_channel(&w, f).unwrap();
                    let at = format!("m {m} k {k} n {n} {f}");
                    check(&format!("matmul, {at}"), |o, p| matmul_into(&a, &b, o, p));
                    check(&format!("f32 linear, {at}"), |o, p| {
                        linear_into(&a, &w, Some(&bias), o, p)
                    });
                    check(&format!("FP8 linear, {at}"), |o, p| linear_into(&a, &q, None, o, p));
                }
            }
            let (cin, cout) = (1 + k % 3, 1 + k);
            let x = rng.normal(&[1, cin, 6, 9], 0.0, 1.0);
            let w = rng.normal(&[cout, cin, 3, 3], 0.0, 1.0);
            let q = QTensor::quantize_per_channel(&w, f).unwrap();
            let p = Conv2dParams { stride: 1 + k % 2, padding: 1 };
            check("f32 conv", |o, path| conv2d_into(&x, &w, None, p, o, path));
            check("FP8 conv", |o, path| conv2d_into(&x, &q, None, p, o, path));
        }

        /// Both attention steps over two segments of 1–17 rows each, every
        /// cache F32 or FP8 (dynamic or static scale), heads of 1–20
        /// columns (ragged context blocks), on both lane types.
        #[test]
        fn every_attention_body_matches_the_reference_on_both_lane_types(
            r0 in 1usize..18,
            r1 in 1usize..18,
            len0 in 1usize..21,
            len1 in 1usize..21,
            pol0 in 0usize..5,
            pol1 in 0usize..5,
            heads in 1usize..3,
            dh in 1usize..21,
            seed in 0u64..1 << 20,
        ) {
            let policy = |i: usize| match i {
                0 => KvCachePolicy::F32,
                i => KvCachePolicy::Fp8 {
                    format: Fp8Format::ALL[i % 3],
                    scale: (i > 2).then_some(2.0),
                },
            };
            let (rows, lens, pols) = ((r0, r1), (len0, len1), (pol0, pol1));
            let (d, m, l) = (heads * dh, r0 + r1, len0.max(len1));
            let mut rng = TensorRng::seed(seed);
            let k = [cache(&mut rng, d, lens.0, policy(pols.0)), cache(&mut rng, d, lens.1, policy(pols.1))];
            let v = [cache(&mut rng, d, lens.0, policy(pols.1)), cache(&mut rng, d, lens.1, policy(pols.0))];
            let mut q = rng.normal(&[heads, m, dh], 0.0, 1.0);
            let mut probs = rng.normal(&[heads, m, l], 0.0, 1.0);
            poison(&mut q, seed as usize, 0);
            poison(&mut probs, seed as usize / 7, 0);
            let ks = [(rows.0, &k[0]), (rows.1, &k[1])];
            let vs = [(rows.0, &v[0]), (rows.1, &v[1])];
            let at = format!("rows {rows:?} lens {lens:?} policies {pols:?} heads {heads} dh {dh}");
            check(&format!("scores, {at}"), |o, p| {
                attention_step_q(&q, KvSegments::Many(&ks), o, p)
            });
            check(&format!("context, {at}"), |o, p| {
                attention_step_v(&probs, KvSegments::Many(&vs), o, p)
            });
        }
    }
}
