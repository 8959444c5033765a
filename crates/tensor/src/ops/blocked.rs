//! Register-blocked micro-kernels: every MAC op under
//! [`crate::ops::KernelPath::Blocked`], whatever its operands.
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
//! * **matmul / batch_matmul**: `B` is packed once (per batch) into the
//!   panels and a 4×8 or 4×16 register tile carries 32 or 64 chains; with
//!   AVX2 it runs 8 lanes wide through explicit `vmulps`/`vaddps` (never
//!   `vfmadd`, whose single rounding would break bit-identity).
//! * **linear**: the `[n, k]` weight is packed once per call into the same
//!   panels and the rows run the tile compiled with `SKIP = false` (Linear
//!   multiplies every term: `0 · NaN` stays NaN); the bias lands on the
//!   finished chain. With AVX2 an FP8 weight packs through one block walk
//!   (`simd::walk8`, also the score step's): 8×8 byte blocks of 8
//!   channels' rows transpose in registers and the 8-lane decoder
//!   [`simd::decode8`] turns each column into a panel row of `decode(code)
//!   / scale`. Row blocks shorter than 4 run a 1×8 row tile — against an
//!   FP8 weight with AVX2, on the walk's columns in place: no panel.
//! * **conv**: a weight `[cout, cin·kh·kw]` is Linear's `[n, k]`; a tile
//!   carries 4 pixels of a row × 8 or 16 channels, chains **seeded with the
//!   bias**, taps read from the sample in place. Only in-bounds taps are
//!   walked — border pixels run a 1-pixel tile with clamped tap ranges — so
//!   a padding tap is never a staged zero (`0 · Inf = NaN`, `-0.0 + 0.0 =
//!   +0.0`). Depthwise runs 8 interior pixels of a plane's row as 8 chains.
//!
//! Equivalence is enforced by `tests/kernel_path_equivalence.rs` and the
//! zoo-wide suites; the lane decoder and the lane pack against the table
//! on every code of every format by this module's tests. Staging comes
//! from the per-thread pool in [`super::scratch`]: steady-state calls do
//! not allocate, and no staged value outlives its call.

use std::ops::Range;

use crate::tensor::Tensor;

use super::conv::{taps, window_sum, ConvDims};
use super::operand::Rows;
use super::{for_each_chunk, scratch, WeightOperand};

/// Rows (conv: output pixels) per register tile.
pub(super) const MR: usize = 4;
/// Columns (conv: output channels) per packed panel; a tile spans one or
/// two panels.
pub(super) const NRM: usize = 8;

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

/// One full `MR`×`NRM` register tile: 32 kk-ascending chains, the
/// `av == 0.0` skip compiled in by `SKIP` (matmul) or out (linear). Runs
/// the AVX2 lane when the CPU has it (rustc targets baseline SSE2); the
/// scalar loop below is the same chains.
fn tile_full<const SKIP: bool>(
    arows: &[f32],
    simd_a: Option<&[f32]>,
    k: usize,
    panel: &[f32],
    acc: &mut [[f32; NRM]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(a) = simd_a {
        // SAFETY: `simd_a` is only `Some` after an `avx2_available` check
        // in `matmul_packed`, which sized it to k*MR and `panel` to k*NRM.
        unsafe { simd::tile::<SKIP, 1>(a, k, panel, std::array::from_mut(acc)) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd_a;
    for kk in 0..k {
        let bk = &panel[kk * NRM..kk * NRM + NRM];
        for (r, a) in acc.iter_mut().enumerate() {
            let av = arows[r * k + kk];
            if SKIP && av == 0.0 {
                continue;
            }
            for (c, &bv) in bk.iter().enumerate() {
                a[c] += av * bv;
            }
        }
    }
}

/// One row against one full panel: `NRM` kk-ascending chains advancing as
/// one vector, for row blocks shorter than `MR` (a decode step is a
/// single row).
fn tile_row<const SKIP: bool>(arow: &[f32], panel: &[f32]) -> [f32; NRM] {
    let mut acc = [0.0f32; NRM];
    for (&av, bk) in arow.iter().zip(panel.chunks_exact(NRM)) {
        if SKIP && av == 0.0 {
            continue;
        }
        for (a, &bv) in acc.iter_mut().zip(bk) {
            *a += av * bv;
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
pub(super) use simd::avx2_available;

/// `f::<R>(args)` for `R = $rows`, one of the `1..MR` row counts the
/// short-row kernels are compiled for.
#[cfg(target_arch = "x86_64")]
macro_rules! short_rows {
    ($rows:expr, $($f:ident)::+ ($($a:expr),*)) => {
        match $rows {
            1 => $($f)::+::<1>($($a),*),
            2 => $($f)::+::<2>($($a),*),
            _ => $($f)::+::<3>($($a),*),
        }
    };
}
#[cfg(target_arch = "x86_64")]
pub(super) use short_rows;

#[cfg(target_arch = "x86_64")]
pub(super) mod simd {
    //! Runtime-detected AVX2 lane for the register tiles, and the 8-lane
    //! FP8 decoder of the short-row kernels that read codes in place.
    //!
    //! Bit-identity: `vmulps`/`vaddps` are the single-rounded IEEE-754
    //! multiply and add of Rust's scalar `f32` operators (rustc keeps
    //! fp-contract off: no FMA); each lane carries one output's chain in
    //! `kk` order; with `SKIP` the zero-skip happens per `(row, kk)` as in
    //! the scalar tile. The per-`kk` fast path only asserts that *no* row
    //! value is zero (`vcmpeqps`+`vmovmskps`: the ordered `== 0.0`, so ±0.0
    //! matches and NaN does not) — then the skip cannot fire and the chains
    //! run unguarded; otherwise the guarded per-row loop runs.

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::{MR, NRM};

    // The 4-lane zero test reads one full kk column as a single xmm load.
    const _: () = assert!(MR == 4);

    pub(in crate::ops) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// `P` adjacent full panels against one `MR`-row A block, each output
    /// row one 8-wide register per panel: the 4×8 tile, or with `P = 2`
    /// the 4×16 one (8 ymm accumulators), which amortizes the per-`kk`
    /// zero test and loop overhead over twice the arithmetic — per `kk`,
    /// every row adds its term to each panel's lanes, in `kk` order.
    /// `a` is the `MR`×`k` A block: k-major (`a[kk*MR + r]`) under `SKIP`,
    /// so one 4-lane load fetches the row values of a `kk` for the zero
    /// test; row-major (`a[r*k + kk]`) otherwise.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`] and guarantee
    /// `a.len() >= k * MR` and `panels.len() >= P * k * NRM`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile<const SKIP: bool, const P: usize>(
        a: &[f32],
        k: usize,
        panels: &[f32],
        acc_out: &mut [[[f32; NRM]; MR]; P],
    ) {
        debug_assert!(a.len() >= k * MR && panels.len() >= P * k * NRM);
        let (a, b) = (a.as_ptr(), panels.as_ptr());
        // Strides of `A[r, kk]` in the layout `SKIP` implies.
        let (rs, ks) = if SKIP { (1, MR) } else { (k, 1) };
        let zero8 = _mm256_setzero_ps();
        let mut acc = [[zero8; P]; MR];
        // Row `$kk` of the `P` panels.
        macro_rules! row {
            ($kk:expr) => {{
                let mut bk = [zero8; P];
                for (p, v) in bk.iter_mut().enumerate() {
                    *v = _mm256_loadu_ps(b.add((p * k + $kk) * NRM));
                }
                bk
            }};
        }
        // Step `$kk` of the four rows; `$guard` keeps the per-row
        // zero-skip — the semantics path.
        macro_rules! step {
            ($kk:expr, $bk:expr, $guard:expr) => {
                for r in 0..MR {
                    let av = *a.add(r * rs + $kk * ks);
                    if $guard && av == 0.0 {
                        continue;
                    }
                    let avv = _mm256_set1_ps(av);
                    for p in 0..P {
                        acc[r][p] = _mm256_add_ps(acc[r][p], _mm256_mul_ps(avv, $bk[p]));
                    }
                }
            };
        }
        // Two kk steps per iteration share one 8-lane zero test; when no
        // row value of either step is zero the skip cannot fire and both
        // steps run unguarded (still kk-ordered per chain: all rows take
        // their kk term, then their kk+1 term).
        let mut kk = 0;
        while kk + 2 <= k {
            let (bk0, bk1) = (row!(kk), row!(kk + 1));
            if SKIP && {
                // `black_box`: the steps must broadcast their row values
                // from memory, not shuffle them out of this vector (the one
                // shuffle port is the tile's bottleneck then).
                let avs = _mm256_loadu_ps(std::hint::black_box(a.add(kk * MR)));
                _mm256_movemask_ps(_mm256_cmp_ps(avs, zero8, _CMP_EQ_OQ)) != 0
            } {
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
        for (p, out) in acc_out.iter_mut().enumerate() {
            for (r, o) in out.iter_mut().enumerate() {
                _mm256_storeu_ps(o.as_mut_ptr(), acc[r][p]);
            }
        }
    }

    /// One format's 8-lane decode, from its `FpSpec` (`m` mantissa bits,
    /// sign at bit 7). A magnitude `mag = e·2^m + f` with `e > 0` is the
    /// f32 whose bits are `mag << (23 − m)` plus `127 − bias` in the
    /// exponent field; with `e = 0` it is the integer `f` times `2^(1 −
    /// bias − m)`, one exact multiply of normal operands (a denormal f32
    /// operand would cost a microcode assist). Magnitudes from `special`
    /// up (E5M2's Inf/NaN exponent, the extended formats' all-ones NaN;
    /// all within the top 8) take the table's own values, held in one
    /// register: `top[i]` is `lut.decode(0x78 + i)`.
    pub(in crate::ops) struct LaneDecode {
        m: i32,
        exp_bias: i32,
        sub_unit: f32,
        special: i32,
        top: [f32; 8],
    }

    impl LaneDecode {
        pub(in crate::ops) fn new(lut: &ptq_fp8::Fp8Lut) -> Self {
            let spec = lut.spec();
            debug_assert_eq!(spec.exp_bits + spec.man_bits, 7, "sign is bit 7");
            let (m, top) = (spec.man_bits as i32, spec.exp_all_ones() << spec.man_bits);
            let special = match spec.nan_encoding {
                ptq_fp8::NanEncoding::Ieee => top,
                ptq_fp8::NanEncoding::Extended => top | spec.man_mask(),
            };
            debug_assert!(special >= 0x78, "specials beyond the top 8 magnitudes");
            LaneDecode {
                m,
                exp_bias: (127 - spec.bias) << 23,
                sub_unit: f32::from_bits(((128 - spec.bias - m) as u32) << 23),
                special: special as i32,
                top: std::array::from_fn(|i| lut.decode(0x78 + i as u8)),
            }
        }

        /// Byte flags of 16 codes: the top bit set where a magnitude is
        /// outside `2^m .. special` (zero, subnormal, Inf or NaN), a code
        /// only [`decode8`]'s `FULL` arm decodes. `(x − 2^m) & 0x7f` maps
        /// the normal non-special magnitudes, of either sign, onto `0 ..
        /// special − 2^m` and every other onto the values above.
        ///
        /// # Safety
        ///
        /// As [`decode8`].
        #[inline(always)]
        pub(in crate::ops) unsafe fn uncommon16(&self, x: __m128i) -> __m128i {
            let y = _mm_sub_epi8(x, _mm_set1_epi8((1 << self.m) as i8));
            let y = _mm_and_si128(y, _mm_set1_epi8(0x7f));
            _mm_cmpgt_epi8(y, _mm_set1_epi8((self.special - (1 << self.m) - 1) as i8))
        }
    }

    /// `lut.decode(code) / scale` of the 8 codes in the low bytes of
    /// `codes` by the 8 lanes of `scales`, bit for bit per lane (`vdivps`
    /// is the scalar `/`): the one definition of the decode arithmetic.
    /// No per-element table load, no gather (the 8 special values sit in
    /// one register, picked by `vpermps`). Without `FULL` every code must
    /// be a normal non-special one ([`LaneDecode::uncommon16`] clear) and
    /// the subnormal and special blends are skipped. The sign is ORed in
    /// after the special blend (E4M3's `0xFF` is the negative-NaN
    /// pattern).
    ///
    /// # Safety
    ///
    /// AVX2 was detected (this is inlined into a `#[target_feature]` fn).
    #[inline(always)]
    pub(in crate::ops) unsafe fn decode8<const FULL: bool>(
        d: &LaneDecode,
        codes: __m128i,
        scales: __m256,
    ) -> __m256 {
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

    /// The `w ≤ 8` bytes at `p` in the low bytes of a register (the rest
    /// zero); a short block is copied, never over-read.
    ///
    /// # Safety
    ///
    /// `p` is readable for `w` bytes.
    #[inline(always)]
    pub(in crate::ops) unsafe fn load8(p: *const u8, w: usize) -> __m128i {
        if w == 8 {
            return _mm_loadl_epi64(p.cast());
        }
        let mut b = [0u8; 8];
        std::ptr::copy_nonoverlapping(p, b.as_mut_ptr(), w.min(8));
        _mm_loadl_epi64(b.as_ptr().cast())
    }

    /// Whether every code of a transposed 8×8 block is a normal
    /// non-special one: [`decode8`] may skip its `FULL` arm for them. A
    /// short block's [`load8`] fill is code 0, so it takes the full arm.
    ///
    /// # Safety
    ///
    /// As [`decode8`].
    #[inline(always)]
    pub(in crate::ops) unsafe fn all_common(d: &LaneDecode, cols: &[__m128i; NRM]) -> bool {
        let mut flags = _mm_setzero_si128();
        for x in cols.iter().step_by(2) {
            flags = _mm_or_si128(flags, d.uncommon16(*x));
        }
        _mm_movemask_epi8(flags) == 0
    }

    /// The first `out.len() ≤ 8` lanes of `v` into `out`.
    ///
    /// # Safety
    ///
    /// As [`decode8`].
    #[inline(always)]
    pub(in crate::ops) unsafe fn store8(v: __m256, out: &mut [f32]) {
        if out.len() == NRM {
            return _mm256_storeu_ps(out.as_mut_ptr(), v);
        }
        let lanes: [f32; NRM] = std::mem::transmute(v);
        out.copy_from_slice(&lanes[..out.len()]);
    }

    /// The 8×8 byte transpose of `rows[r]`'s low 8 bytes: byte `t` of
    /// every row, in row order, in the low 8 bytes of result `t` — and
    /// the even results hold result `t + 1` in their high 8 bytes, so
    /// results 0, 2, 4, 6 carry all 64 codes.
    ///
    /// # Safety
    ///
    /// As [`decode8`].
    #[inline(always)]
    pub(in crate::ops) unsafe fn transpose8x8(r: &[__m128i; 8]) -> [__m128i; 8] {
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

    /// The one block walk of the FP8 kernels: 8 code rows, `$rows =
    /// (codes, stride, live)` (rows from `live` on repeat row `live − 1`: a
    /// ragged block's dead lanes), by their 8 `$scales`, `kk` in `0..$k`.
    /// Per 8×8 byte block: [`load8`] per row, [`transpose8x8`],
    /// [`all_common`] picks the arm, then per column `$body` with `$wv` its
    /// [`decode8`]. A macro: a closure is compiled without AVX2.
    ///
    /// Safety: as [`decode8`]; `live ≥ 1` rows of `$k` readable codes.
    macro_rules! walk8 {
        ($d:expr, $rows:expr, $scales:expr, $k:expr, |$kk:ident, $wv:ident| $body:expr) => {{
            use $crate::ops::blocked::simd::{all_common, decode8, load8, transpose8x8};
            let (d, (codes, stride, live), scales, k) = ($d, $rows, $scales, $k);
            for kk0 in (0..k).step_by(NRM) {
                let w = NRM.min(k - kk0);
                let mut rows = [_mm_setzero_si128(); NRM];
                for (r, row) in rows.iter_mut().enumerate() {
                    *row = load8(codes.add(r.min(live - 1) * stride + kk0), w);
                }
                let cols = transpose8x8(&rows);
                macro_rules! steps {
                    ($full:literal) => {
                        for (t, &col) in cols.iter().enumerate().take(w) {
                            let ($kk, $wv) = (kk0 + t, decode8::<$full>(d, col, scales));
                            $body;
                        }
                    };
                }
                if all_common(d, &cols) {
                    steps!(false);
                } else {
                    steps!(true);
                }
            }
        }};
    }
    pub(in crate::ops) use walk8;

    /// The 8 scales of channels `j0 ..`, the last of `n` repeated (AVX2).
    #[inline(always)]
    unsafe fn channel_scales(q: &crate::QTensor, j0: usize, n: usize) -> __m256 {
        let s: [f32; NRM] =
            std::array::from_fn(|c| q.scales().scale_for_channel(j0 + c.min(n - j0 - 1)));
        _mm256_loadu_ps(s.as_ptr())
    }

    /// The `R < MR` rows of [`super::linear`] against an FP8 weight read in
    /// place: per panel of 8 channels, [`walk8`] over their weight rows
    /// into the row tile's `kk`-ascending chains, no panel staged. A ragged
    /// last panel's dead lanes are not stored.
    ///
    /// # Safety
    ///
    /// AVX2 was detected; `xs` holds `R` rows of `k`, `out` `R` rows of `n`,
    /// `q` is `[n, k]`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn linear_rows_q<const R: usize>(
        xs: &[f32],
        (k, n): (usize, usize),
        q: &crate::QTensor,
        out: &mut [f32],
    ) {
        debug_assert!(xs.len() >= R * k && out.len() >= R * n && q.len() >= n * k);
        let (dec, codes) = (LaneDecode::new(q.lut()), q.codes().as_ptr());
        for j0 in (0..n).step_by(NRM) {
            let (wp, mut acc) = (NRM.min(n - j0), [_mm256_setzero_ps(); R]);
            let rows = (codes.add(j0 * k), k, wp);
            walk8!(&dec, rows, channel_scales(q, j0, n), k, |kk, wv| {
                for (r, a) in acc.iter_mut().enumerate() {
                    let xv = _mm256_set1_ps(xs[r * k + kk]);
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, wv));
                }
            });
            for (r, a) in acc.iter().enumerate() {
                store8(*a, &mut out[r * n + j0..][..wp]);
            }
        }
    }

    /// [`super::decode_pack_weights`] of an FP8 weight: per panel of 8
    /// channels, [`walk8`] over their weight rows, column `kk` stored as
    /// the panel's row `kk` — the scalar pack's panel bit for bit, dead
    /// lanes included.
    ///
    /// # Safety
    ///
    /// AVX2 was detected.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_q(q: &crate::QTensor, (k, n): (usize, usize), bp: &mut [f32]) {
        assert!(q.len() >= n * k && bp.len() >= n.next_multiple_of(NRM) * k);
        let (dec, codes) = (LaneDecode::new(q.lut()), q.codes().as_ptr());
        for j0 in (0..n).step_by(NRM) {
            let (s, p) = (channel_scales(q, j0, n), bp.as_mut_ptr().add(j0 * k));
            let rows = (codes.add(j0 * k), k, NRM.min(n - j0));
            walk8!(&dec, rows, s, k, |kk, wv| {
                _mm256_storeu_ps(p.add(kk * NRM), wv)
            });
        }
    }

    impl super::Chains for std::arch::x86_64::__m256 {
        #[inline(always)]
        unsafe fn load(w: *const f32) -> Self {
            std::arch::x86_64::_mm256_loadu_ps(w)
        }
        #[inline(always)]
        unsafe fn mac(self, x: f32, w: Self) -> Self {
            use std::arch::x86_64::*;
            _mm256_add_ps(self, _mm256_mul_ps(_mm256_set1_ps(x), w))
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f32; NRM] {
            std::mem::transmute(self)
        }
    }

    /// [`super::conv_image`] on one ymm register per `NRM` chains.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_image(c: &super::ConvCall, xs: &[f32], oimg: &mut [f32]) {
        super::conv_image::<std::arch::x86_64::__m256>(c, xs, oimg)
    }
}

/// `out[mr, n] = arows[mr, k] · B` with `B` in packed column panels and
/// the zero-skip per `SKIP`. Every element of `out` is stored with its
/// finished accumulator chain (which starts at `0.0`); nothing is read.
fn matmul_packed<const SKIP: bool>(
    arows: &[f32],
    mr: usize,
    k: usize,
    n: usize,
    bp: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if mr == MR && n >= NRM && simd::avx2_available() {
        if !SKIP {
            // No zero test: the tile broadcasts from the rows in place.
            return matmul_panels::<SKIP>(arows, Some(arows), mr, k, n, bp, out);
        }
        // Stage the A block once per chunk in k-major order for the zero
        // test (pure data movement: same values, same order), reused
        // across every column panel of this chunk.
        scratch::with_rows2(k * MR, |at| {
            for r in 0..MR {
                for (kk, col) in at.chunks_exact_mut(MR).enumerate() {
                    col[r] = arows[r * k + kk];
                }
            }
            matmul_panels::<SKIP>(arows, Some(at), mr, k, n, bp, out);
        });
        return;
    }
    matmul_panels::<SKIP>(arows, None, mr, k, n, bp, out);
}

/// Panel loop of [`matmul_packed`]; `simd_a` is the A block as the AVX2
/// tile reads it (staged k-major under `SKIP`, `arows` itself otherwise),
/// `None` without AVX2 or a full-height chunk.
fn matmul_panels<const SKIP: bool>(
    arows: &[f32],
    simd_a: Option<&[f32]>,
    mr: usize,
    k: usize,
    n: usize,
    bp: &[f32],
    out: &mut [f32],
) {
    let mut j0 = 0;
    #[cfg(target_arch = "x86_64")]
    if let Some(a) = simd_a {
        // Consume pairs of full panels with the wide 4×16 tile (`simd_a`
        // is only `Some` for full-height chunks after the AVX2 check).
        debug_assert_eq!(mr, MR);
        while j0 + 2 * NRM <= n {
            let mut acc = [[[0.0f32; NRM]; MR]; 2];
            // SAFETY: AVX2 checked before `simd_a` became `Some`, of an
            // `MR`×`k` block; the slice is two whole panels.
            unsafe { simd::tile::<SKIP, 2>(a, k, &bp[j0 * k..(j0 + 2 * NRM) * k], &mut acc) };
            for (p, rows) in acc.iter().enumerate() {
                for (r, row) in rows.iter().enumerate() {
                    out[r * n + j0 + p * NRM..][..NRM].copy_from_slice(row);
                }
            }
            j0 += 2 * NRM;
        }
    }
    while j0 < n {
        // A ragged last panel stores its first `wp` chains only.
        let wp = NRM.min(n - j0);
        let panel = &bp[j0 * k..(j0 + NRM) * k];
        if mr == MR {
            // 4x8 register tile: 32 independent kk-ascending chains.
            let mut acc = [[0.0f32; NRM]; MR];
            tile_full::<SKIP>(arows, simd_a, k, panel, &mut acc);
            for (r, a) in acc.iter().enumerate() {
                out[r * n + j0..r * n + j0 + wp].copy_from_slice(&a[..wp]);
            }
        } else {
            // Short row block: 8 chains per row, one row at a time.
            for r in 0..mr {
                let acc = tile_row::<SKIP>(&arows[r * k..(r + 1) * k], panel);
                if wp == NRM {
                    // The decode step's path: a fixed-size copy, no call.
                    out[r * n + j0..r * n + j0 + NRM].copy_from_slice(&acc);
                } else {
                    out[r * n + j0..r * n + j0 + wp].copy_from_slice(&acc[..wp]);
                }
            }
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
            matmul_packed::<SKIP>(xs, mr, k, n, bp, rows)
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

/// Stream an `[n, k]` weight into column panels (`bp[j0*k + kk*NRM + c]`
/// is `Wᵀ[kk, j0+c]`): an f32 weight as a plain transposing copy, an
/// FP8-stored one as `lut.decode(code) / scale(channel)` — the expression
/// of `StoredTensor::dequantize` — in lanes with AVX2 ([`simd::pack_q`]).
fn decode_pack_weights(weight: WeightOperand, k: usize, n: usize, bp: &mut [f32]) {
    match weight {
        WeightOperand::F32(t) => pack_transposed(t.data(), k, n, bp, |_| 1.0, |v, _| v),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was detected; `q` is `[n, k]`, `bp` its padded panels.
        WeightOperand::Q(q) if simd::avx2_available() => unsafe { simd::pack_q(q, (k, n), bp) },
        WeightOperand::Q(q) => {
            let (lut, scales) = (q.lut(), q.scales());
            let scale = |j| scales.scale_for_channel(j);
            pack_transposed(q.codes(), k, n, bp, scale, |b, s| lut.decode(b) / s);
        }
    }
}

/// [`decode_pack_weights`] over either element type, from the `n` rows of
/// `k` elements in `src`. A ragged last panel's dead lanes repeat its last
/// row.
fn pack_transposed<T: Copy>(
    src: &[T],
    k: usize,
    n: usize,
    bp: &mut [f32],
    scale: impl Fn(usize) -> f32,
    val: impl Fn(T, f32) -> f32,
) {
    for j0 in (0..n).step_by(NRM) {
        let row = |c: usize| j0 + c.min(n - j0 - 1);
        let s: [f32; NRM] = std::array::from_fn(|c| scale(row(c)));
        let rows: [&[T]; NRM] = std::array::from_fn(|c| &src[row(c) * k..][..k]);
        for (kk, dst) in bp[j0 * k..(j0 + NRM) * k].chunks_exact_mut(NRM).enumerate() {
            for c in 0..NRM {
                dst[c] = val(rows[c][kk], s[c]);
            }
        }
    }
}

/// Linear over any weight, no zero-skip: packed once per call — except an
/// FP8 weight under fewer than `MR` rows with AVX2, whose codes the row
/// tile reads in place.
pub(super) fn linear<X: Rows + ?Sized>(
    x: &X,
    weight: WeightOperand,
    bias: Option<&Tensor>,
    k: usize,
    n: usize,
    out: &mut Tensor,
) {
    let (bias, macs) = (bias.map(Tensor::data), out.len() * k);
    #[cfg(target_arch = "x86_64")]
    if let (WeightOperand::Q(q), m @ 1..MR) = (weight, out.len() / n) {
        if simd::avx2_available() {
            let out = out.data_mut();
            // SAFETY: AVX2 was detected just above; `x` holds `m` rows of
            // `k`, `out` `m` rows of `n`, `q` is `[n, k]` (linear_dims).
            x.with(0, m * k, |xs| unsafe {
                short_rows!(m, simd::linear_rows_q(xs, (k, n), q, out))
            });
            return add_bias(out, n, bias);
        }
    }
    scratch::with_panel(k * n.next_multiple_of(NRM), |wp| {
        decode_pack_weights(weight, k, n, wp);
        tile_rows::<false, _>(x, (k, n), wp, bias, out.data_mut(), macs);
    });
}

/// The `NRM` chains of one conv output pixel × weight panel: an array on
/// any target, one AVX2 register where the CPU has them (the generic conv
/// code is `#[inline(always)]` under a `#[target_feature]` entry point).
trait Chains: Copy {
    /// # Safety
    ///
    /// `w` is readable for `NRM` floats — and, for all three methods, the
    /// CPU feature the implementor needs was detected.
    unsafe fn load(w: *const f32) -> Self;
    /// `self + x·w` per lane: a rounded multiply, then a rounded add.
    unsafe fn mac(self, x: f32, w: Self) -> Self;
    unsafe fn lanes(self) -> [f32; NRM];
}

impl Chains for [f32; NRM] {
    unsafe fn load(w: *const f32) -> Self {
        *w.cast()
    }
    unsafe fn mac(mut self, x: f32, w: Self) -> Self {
        for (a, wv) in self.iter_mut().zip(w) {
            *a += x * wv;
        }
        self
    }
    unsafe fn lanes(self) -> [f32; NRM] {
        self
    }
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
    let vals = acc.map(|row| row.map(|a| a.lanes()));
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

/// One image: its output channels in pairs of panels (a 4×16 tile, 8
/// vectors of chains), a last odd panel alone.
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
    scratch::with_panel(padded * (k + 1), |buf| {
        let (wp, bp) = buf.split_at_mut(padded * k);
        decode_pack_weights(weight, k, d.cout, wp);
        bp.fill(0.0);
        if let Some(b) = bias {
            bp[..d.cout].copy_from_slice(b.data());
        }
        let c = &ConvCall { wp, bias: bp, d };
        for_each_chunk(out.data_mut(), image, macs, |img, oimg| {
            x.with(img * sample, sample, |xs| {
                #[cfg(target_arch = "x86_64")]
                if simd::avx2_available() {
                    // SAFETY: AVX2 was detected on this CPU just above.
                    return unsafe { simd::conv_image(c, xs, oimg) };
                }
                // SAFETY: array chains need no CPU feature.
                unsafe { conv_image::<[f32; NRM]>(c, xs, oimg) }
            });
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
    scratch::with_panel(d.cout.next_multiple_of(NRM) * k, |wp| {
        decode_pack_weights(weight, k, d.cout, wp);
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
mod tests {
    /// The lane pack against the scalar pack on every code: a `[11, 29]`
    /// weight whose codes cycle through all 256 bytes (a ragged panel of 3
    /// channels, a 5-code tail block), every panel element of both packs —
    /// dead lanes included — bit for bit `lut.decode(code) /
    /// scale(channel)`, per-tensor and per-channel scales of 1, 3.7, 2^-20
    /// and 2^120 (subnormal and zero results).
    #[test]
    fn lane_pack_matches_the_scalar_pack_on_every_code() {
        use super::{decode_pack_weights, pack_transposed, NRM};
        use crate::{ops::WeightOperand, QTensor};
        use ptq_fp8::{Fp8Format, StoredScales};

        let (n, k) = (11, 29);
        let codes: Vec<u8> = (0..n * k).map(|i| i as u8).collect();
        let values = [1.0f32, 3.7, 2f32.powi(-20), 2f32.powi(120)];
        let per_channel = StoredScales::PerChannel((0..n).map(|j| values[j % 4]).collect());
        let scales: Vec<_> = values
            .map(StoredScales::PerTensor)
            .into_iter()
            .chain([per_channel])
            .collect();
        for f in Fp8Format::ALL {
            for sc in &scales {
                let q = QTensor::from_raw_parts(f, vec![n, k], codes.clone().into(), sc.clone())
                    .unwrap();
                let (lut, s) = (q.lut(), q.scales());
                let len = n.next_multiple_of(NRM) * k;
                let (mut lanes, mut scalar) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                decode_pack_weights(WeightOperand::Q(&q), k, n, &mut lanes);
                let scale = |j| s.scale_for_channel(j);
                pack_transposed(q.codes(), k, n, &mut scalar, scale, |b, s| {
                    lut.decode(b) / s
                });
                for (i, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
                    // `bp[j0·k + kk·NRM + c]`; a dead lane repeats channel n − 1.
                    let (kk, c) = (i / NRM % k, i % NRM);
                    let ch = (i / (NRM * k) * NRM + c).min(n - 1);
                    let want = (lut.decode(codes[ch * k + kk]) / scale(ch)).to_bits();
                    let at = format!("{f} {sc:?} channel {ch} kk {kk} lane {c}");
                    assert_eq!(a.to_bits(), want, "lane pack, {at}");
                    assert_eq!(b.to_bits(), want, "scalar pack, {at}");
                }
            }
        }
    }

    /// The 8-lane decoder against the table, exhaustively: every code of
    /// every paper format through both arms it may take, each lane
    /// bit-identical to `lut.decode(code) / scale` — NaN payload and sign
    /// included — for unit, power-of-two, non-power-of-two and
    /// subnormal-result scales.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_decoder_matches_the_table_on_every_code() {
        use super::simd::{avx2_available, decode8, LaneDecode};
        use ptq_fp8::{Fp8Format, Fp8Lut};
        use std::arch::x86_64::*;

        if !avx2_available() {
            eprintln!("no AVX2 on this CPU: the lane decoder never runs");
            return;
        }
        // The last scale sends every E4M3/E3M4 and most E5M2 results below
        // f32::MIN_POSITIVE.
        let scales = [1.0f32, 2f32.powi(20), 2f32.powi(-20), 3.7, 2f32.powi(120)];
        for f in Fp8Format::ALL {
            let lut = Fp8Lut::for_format(f);
            let dec = LaneDecode::new(lut);
            let spec = lut.spec();
            let special = match spec.nan_encoding {
                ptq_fp8::NanEncoding::Ieee => spec.exp_all_ones() << spec.man_bits,
                ptq_fp8::NanEncoding::Extended => 0x7f,
            };
            for block in (0..=255u8).collect::<Vec<_>>().chunks(8) {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(block);
                // SAFETY: AVX2 was detected above; 16 readable bytes.
                let (codes, flags) = unsafe {
                    let x = _mm_loadu_si128(bytes.as_ptr().cast());
                    (x, _mm_movemask_epi8(dec.uncommon16(x)))
                };
                for &s in &scales {
                    // SAFETY: AVX2 was detected above.
                    let (mut full, mut fast) = ([0f32; 8], [0f32; 8]);
                    unsafe {
                        let sv = _mm256_set1_ps(s);
                        _mm256_storeu_ps(full.as_mut_ptr(), decode8::<true>(&dec, codes, sv));
                        _mm256_storeu_ps(fast.as_mut_ptr(), decode8::<false>(&dec, codes, sv));
                    }
                    for (i, &code) in block.iter().enumerate() {
                        let want = (lut.decode(code) / s).to_bits();
                        assert_eq!(full[i].to_bits(), want, "{f} code {code:#04x} / {s:e}");
                        let mag = u32::from(code & 0x7f);
                        let common = (1 << spec.man_bits..special).contains(&mag);
                        assert_eq!(flags >> i & 1 == 0, common, "{f} code {code:#04x} flag");
                        if common {
                            assert_eq!(fast[i].to_bits(), want, "{f} code {code:#04x} fast arm");
                        }
                    }
                }
            }
        }
    }
}
