//! Register-blocked, cache-tiled micro-kernels for the fused quantized
//! MAC operators ([`crate::ops::KernelPath::Blocked`]).
//!
//! ## Bit-identity argument
//!
//! Every kernel here computes each output element through **exactly the
//! same floating-point chain** as its scalar reference: one accumulator
//! per output, terms added in ascending reduction order (`kk`, or
//! `(ci, ky, kx)` for conv), scales applied per element *before* the MAC
//! (every staged value is `decode(code) / scale`, one division per
//! element), and the matmul family's `av == 0.0` zero-skip intact (it
//! changes results under NaN/Inf and signed zeros, so it is semantics, not
//! an optimization). What blocking changes is only *which independent
//! outputs advance together*:
//!
//! * **matmul**: `B` is decoded once into a packed column-panel layout
//!   (pure data movement — same values, read in the same `kk` order) and
//!   a 4×8 register tile carries 32 independent accumulator chains, so
//!   the inner loop is a branch-light FMA block instead of a
//!   load/update/store sweep over the output row. On x86-64 with AVX2
//!   the full tile runs 8 lanes wide through explicit `vmulps`/`vaddps`
//!   (never `vfmadd`, whose single rounding would break bit-identity).
//! * **linear**: the `[n, k]` weight codes stream once per call through
//!   `decode(code) / scale(channel)` straight into the same column-panel
//!   layout (8 output features per panel, so the 8 divisions of a `kk`
//!   step are one vector of lanes with their 8 channel scales), and the
//!   rows run the matmul register tile compiled with `SKIP = false`:
//!   Linear has no zero-skip (`0 · NaN` must stay NaN), and the bias is
//!   added after the finished chain, as the reference does. Short row
//!   blocks (`m` = 1..3, the decode step) run a 1×8 row tile over the
//!   same panels.
//! * **conv**: the weight tensor is decoded once per call, each input
//!   sample is decoded once per image (not once per output plane), and
//!   interior outputs (no padding clipping) run a check-free 4-wide
//!   column block; borders keep the reference loop.
//!
//! Reassociation — multi-accumulator splits of a *single* dot product,
//! hoisting scales, dropping the zero-skip where the reference has it —
//! is exactly what these kernels never do. Equivalence is enforced by
//! proptests (`tests/kernel_path_equivalence.rs`) and zoo-wide suites.
//!
//! All staging buffers come from the per-thread pool in
//! [`super::scratch`]; steady-state calls do not allocate, and no decoded
//! value outlives the call that staged it.

use crate::act::ActDecode;
use crate::qtensor::QTensor;
use crate::tensor::Tensor;

use super::conv::{for_each_plane, taps, window_sum, ConvDims};
use super::operand::Rows;
use super::{for_each_chunk, scratch, WeightOperand};

/// Rows per register tile (matmul and linear).
const MR: usize = 4;
/// Columns per register tile and per packed panel (one or two SIMD
/// vectors wide).
const NRM: usize = 8;
/// Output columns advanced together on a conv interior row.
const OXB: usize = 4;

// ---------------------------------------------------------------------
// matmul family
// ---------------------------------------------------------------------

/// Decode a `[k, n]` coded activation straight into column panels of
/// width `NRM` (`panel[p]` holds columns `p*NRM ..` contiguously per
/// `kk`; panel `p` starts at offset `j0 * k`). Fused decode+pack: each
/// row decodes into an L1-resident `row` scratch and scatters to its
/// panels, so the dense `[k, n]` panel is never staged. The values are
/// exactly what [`crate::act::ActDecode::decode_range`] produces — the
/// micro-kernel reads them in the same `kk` order as the scalar kernel.
fn decode_pack_panels(bdec: &ActDecode, k: usize, n: usize, bp: &mut [f32]) {
    scratch::with_panel2(n, |row| {
        for kk in 0..k {
            bdec.decode_range(kk * n, row);
            let mut j0 = 0;
            while j0 < n {
                let wp = NRM.min(n - j0);
                bp[j0 * k + kk * wp..j0 * k + (kk + 1) * wp].copy_from_slice(&row[j0..j0 + wp]);
                j0 += NRM;
            }
        }
    });
}

/// One full `MR`×`NRM` register tile: 32 independent kk-ascending
/// accumulator chains. `SKIP` compiles the matmul `av == 0.0` zero-skip in
/// (matmul) or out (linear, whose reference multiplies every term).
/// Dispatches to the AVX2 lane when the CPU has it (rustc targets
/// baseline SSE2, so autovectorization alone leaves half the vector
/// width unused); the scalar loop below is the same chains and the
/// fallback everywhere else.
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
        unsafe { simd::tile_4x8::<SKIP>(a, k, panel, acc) };
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
mod simd {
    //! Runtime-detected AVX2 lane for the register tile.
    //!
    //! Bit-identity: `vmulps`/`vaddps` are the identical single-rounded
    //! IEEE-754 multiply and add as Rust's scalar `f32` operators (rustc
    //! keeps fp-contract off, so nothing fuses into an FMA, which *would*
    //! change rounding); each lane carries exactly one output element's
    //! accumulator chain in the same `kk` order; and with `SKIP` the
    //! `av == 0.0` zero-skip happens per `(row, kk)` exactly as in the
    //! scalar tile. The per-`kk` fast path only asserts that *no* row
    //! value is zero (`vcmpeqps`+`vmovmskps`, the same ordered `== 0.0`
    //! the scalar compare performs, so ±0.0 matches and NaN does not) —
    //! when it holds, the skip provably cannot fire and the four chains
    //! run unguarded; otherwise the guarded per-row loop is taken. Without
    //! `SKIP` (linear) there is no test and every step runs unguarded.
    //!
    //! The zero test is also the only reader of a whole `kk` column, so
    //! only `SKIP` tiles need the A block staged k-major; without it the
    //! tile broadcasts each value from the row-major block in place.

    use std::sync::OnceLock;

    use super::{MR, NRM};

    // The 4-lane zero test reads one full kk column as a single xmm load.
    const _: () = assert!(MR == 4);

    pub(super) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// One full `MR`×`NRM` tile, each output row one 8-wide register.
    /// `a` is the `MR`×`k` A block: k-major (`a[kk*MR + r]`) under `SKIP`,
    /// so one 4-lane load fetches the row values of a `kk` for the zero
    /// test; row-major (`a[r*k + kk]`) otherwise.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`] and guarantee
    /// `a.len() >= k * MR` and `panel.len() >= k * NRM`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_4x8<const SKIP: bool>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        acc_out: &mut [[f32; NRM]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(a.len() >= k * MR && panel.len() >= k * NRM);
        let a = a.as_ptr();
        // Strides of `A[r, kk]` in the layout `SKIP` implies.
        let (rs, ks) = if SKIP { (1, MR) } else { (k, 1) };
        let mut acc = [_mm256_setzero_ps(); MR];
        let zero8 = _mm256_setzero_ps();
        // Step `$kk` of the four rows; `$guard` keeps the per-row
        // zero-skip — the semantics path.
        macro_rules! step {
            ($kk:expr, $bk:expr, $guard:expr) => {
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *a.add(r * rs + $kk * ks);
                    if $guard && av == 0.0 {
                        continue;
                    }
                    *row = _mm256_add_ps(*row, _mm256_mul_ps(_mm256_set1_ps(av), $bk));
                }
            };
        }
        // Two kk steps per iteration share one 8-lane zero test; when no
        // row value of either step is zero the skip cannot fire and both
        // steps run unguarded (still kk-ordered per chain: all rows take
        // their kk term, then their kk+1 term).
        let mut kk = 0;
        while kk + 2 <= k {
            let bk0 = _mm256_loadu_ps(panel.as_ptr().add(kk * NRM));
            let bk1 = _mm256_loadu_ps(panel.as_ptr().add((kk + 1) * NRM));
            if SKIP && {
                let avs = _mm256_loadu_ps(a.add(kk * MR));
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
            let bk = _mm256_loadu_ps(panel.as_ptr().add(kk * NRM));
            step!(kk, bk, SKIP);
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(acc_out[r].as_mut_ptr(), *a);
        }
    }

    /// Two adjacent full panels in one pass — a 4×16 register tile (8
    /// ymm accumulators), amortizing the per-`kk` zero test and loop
    /// overhead over twice the arithmetic. The chains are the same as
    /// running [`tile_4x8`] on each panel: per `kk`, every row adds its
    /// term to both panels' lanes, in `kk` order.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`] and guarantee
    /// `a.len() >= k * MR` (laid out as for [`tile_4x8`]),
    /// `p0.len() >= k * NRM`, `p1.len() >= k * NRM`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile_4x8x2<const SKIP: bool>(
        a: &[f32],
        k: usize,
        p0: &[f32],
        p1: &[f32],
        acc_out0: &mut [[f32; NRM]; MR],
        acc_out1: &mut [[f32; NRM]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(a.len() >= k * MR && p0.len() >= k * NRM && p1.len() >= k * NRM);
        let a = a.as_ptr();
        // Strides of `A[r, kk]` in the layout `SKIP` implies.
        let (rs, ks) = if SKIP { (1, MR) } else { (k, 1) };
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        let zero8 = _mm256_setzero_ps();
        macro_rules! step {
            ($kk:expr, $b0:expr, $b1:expr, $guard:expr) => {
                for r in 0..MR {
                    let av = *a.add(r * rs + $kk * ks);
                    if $guard && av == 0.0 {
                        continue;
                    }
                    let avv = _mm256_set1_ps(av);
                    acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(avv, $b0));
                    acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(avv, $b1));
                }
            };
        }
        let mut kk = 0;
        while kk + 2 <= k {
            let b00 = _mm256_loadu_ps(p0.as_ptr().add(kk * NRM));
            let b01 = _mm256_loadu_ps(p1.as_ptr().add(kk * NRM));
            let b10 = _mm256_loadu_ps(p0.as_ptr().add((kk + 1) * NRM));
            let b11 = _mm256_loadu_ps(p1.as_ptr().add((kk + 1) * NRM));
            if SKIP && {
                let avs = _mm256_loadu_ps(a.add(kk * MR));
                _mm256_movemask_ps(_mm256_cmp_ps(avs, zero8, _CMP_EQ_OQ)) != 0
            } {
                step!(kk, b00, b01, true);
                step!(kk + 1, b10, b11, true);
            } else {
                step!(kk, b00, b01, false);
                step!(kk + 1, b10, b11, false);
            }
            kk += 2;
        }
        if kk < k {
            let b0 = _mm256_loadu_ps(p0.as_ptr().add(kk * NRM));
            let b1 = _mm256_loadu_ps(p1.as_ptr().add(kk * NRM));
            step!(kk, b0, b1, SKIP);
        }
        for (r, a) in acc0.iter().enumerate() {
            _mm256_storeu_ps(acc_out0[r].as_mut_ptr(), *a);
        }
        for (r, a) in acc1.iter().enumerate() {
            _mm256_storeu_ps(acc_out1[r].as_mut_ptr(), *a);
        }
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
        // test (pure data movement — the tile reads the same values in
        // the same order); it is reused across every column panel of this
        // chunk.
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
    let mut off = 0;
    let mut j0 = 0;
    #[cfg(target_arch = "x86_64")]
    if let Some(a) = simd_a {
        // Consume pairs of full panels with the wide 4×16 tile (`simd_a`
        // is only `Some` for full-height chunks after the AVX2 check).
        debug_assert_eq!(mr, MR);
        while j0 + 2 * NRM <= n {
            let p0 = &bp[off..off + k * NRM];
            let p1 = &bp[off + k * NRM..off + 2 * k * NRM];
            let mut acc0 = [[0.0f32; NRM]; MR];
            let mut acc1 = [[0.0f32; NRM]; MR];
            // SAFETY: AVX2 checked before `simd_a` became `Some`, of an
            // `MR`×`k` block; panel sizes by construction above.
            unsafe { simd::tile_4x8x2::<SKIP>(a, k, p0, p1, &mut acc0, &mut acc1) };
            for r in 0..MR {
                out[r * n + j0..r * n + j0 + NRM].copy_from_slice(&acc0[r]);
                out[r * n + j0 + NRM..r * n + j0 + 2 * NRM].copy_from_slice(&acc1[r]);
            }
            off += 2 * k * NRM;
            j0 += 2 * NRM;
        }
    }
    while j0 < n {
        let wp = NRM.min(n - j0);
        let panel = &bp[off..off + k * wp];
        if mr == MR && wp == NRM {
            // 4x8 register tile: 32 independent kk-ascending chains.
            let mut acc = [[0.0f32; NRM]; MR];
            tile_full::<SKIP>(arows, simd_a, k, panel, &mut acc);
            for (r, a) in acc.iter().enumerate() {
                out[r * n + j0..r * n + j0 + NRM].copy_from_slice(a);
            }
        } else if wp == NRM {
            // Short row block: 8 chains per row, one row at a time.
            for r in 0..mr {
                let acc = tile_row::<SKIP>(&arows[r * k..(r + 1) * k], panel);
                out[r * n + j0..r * n + j0 + NRM].copy_from_slice(&acc);
            }
        } else {
            // Ragged last panel: per-element chains in the same order.
            for r in 0..mr {
                let arow = &arows[r * k..(r + 1) * k];
                for c in 0..wp {
                    let mut acc = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        if SKIP && av == 0.0 {
                            continue;
                        }
                        acc += av * panel[kk * wp + c];
                    }
                    out[r * n + j0 + c] = acc;
                }
            }
        }
        off += k * wp;
        j0 += NRM;
    }
}

/// Code×code matmul: `B` decoded once into packed panels, `A` decoded
/// `MR` rows at a time.
pub(super) fn matmul(a: &ActDecode, b: &ActDecode, m: usize, k: usize, n: usize, out: &mut Tensor) {
    scratch::with_panel(k * n, |bp| {
        decode_pack_panels(b, k, n, bp);
        for_each_chunk(out.data_mut(), MR * n, m * k * n, |blk, rows| {
            let mr = rows.len() / n;
            a.with(blk * MR * k, mr * k, |ar| {
                matmul_packed::<true>(ar, mr, k, n, bp, rows)
            });
        });
    });
}

// ---------------------------------------------------------------------
// linear family
// ---------------------------------------------------------------------

/// Stream the `[n, k]` weight codes of a Linear into the column-panel
/// layout [`matmul_packed`] reads (`bp[j0*k + kk*wp + c]` is `Wᵀ[kk, j0+c]`,
/// panels `NRM` output features wide): a fused decode + transpose, each
/// element exactly `lut.decode(code) / scale(channel)` — the expression
/// `StoredTensor::dequantize` defines. A full panel's `kk` step divides 8
/// decoded lanes by the panel's 8 channel scales, which vectorizes.
fn decode_pack_weights(weight: &QTensor, k: usize, n: usize, bp: &mut [f32]) {
    let (codes, lut, scales) = (weight.codes(), weight.lut(), weight.scales());
    let mut j0 = 0;
    while j0 < n {
        let wp = NRM.min(n - j0);
        let panel = &mut bp[j0 * k..(j0 + wp) * k];
        if wp == NRM {
            let s: [f32; NRM] = std::array::from_fn(|c| scales.scale_for_channel(j0 + c));
            let rows: [&[u8]; NRM] =
                std::array::from_fn(|c| &codes[(j0 + c) * k..(j0 + c) * k + k]);
            for (kk, dst) in panel.chunks_exact_mut(NRM).enumerate() {
                for c in 0..NRM {
                    dst[c] = lut.decode(rows[c][kk]) / s[c];
                }
            }
        } else {
            for c in 0..wp {
                let s = scales.scale_for_channel(j0 + c);
                let row = &codes[(j0 + c) * k..(j0 + c + 1) * k];
                for (kk, &b) in row.iter().enumerate() {
                    panel[kk * wp + c] = lut.decode(b) / s;
                }
            }
        }
        j0 += NRM;
    }
}

/// Linear over an FP8-stored weight: the weight streamed once per call
/// into packed panels, then `MR` activation rows per chunk (borrowed or
/// decoded by the row source) through the register tile with no
/// zero-skip; the bias lands on each finished dot product, as in the
/// reference.
pub(super) fn linear<X: Rows + ?Sized>(
    x: &X,
    weight: &QTensor,
    bias: Option<&Tensor>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut Tensor,
) {
    let bd = bias.map(|b| b.data());
    scratch::with_panel(k * n, |wp| {
        decode_pack_weights(weight, k, n, wp);
        for_each_chunk(out.data_mut(), MR * n, m * k * n, |blk, rows| {
            let mr = rows.len() / n;
            x.with(blk * MR * k, mr * k, |xs| {
                matmul_packed::<false>(xs, mr, k, n, wp, rows)
            });
            if let Some(b) = bd {
                for row in rows.chunks_exact_mut(n) {
                    for (y, bv) in row.iter_mut().zip(b) {
                        *y += bv;
                    }
                }
            }
        });
    });
}

// ---------------------------------------------------------------------
// conv family
// ---------------------------------------------------------------------

/// One output plane: interior columns (no padding clipping) run a
/// check-free 4-wide block where each weight value feeds 4 outputs;
/// borders run the reference [`window_sum`]. Both restrict `ky` to the
/// same in-bounds [`taps`].
fn conv_plane(xs: &[f32], wplane: &[f32], b0: f32, d: &ConvDims, oplane: &mut [f32]) {
    // Interior ox range: ox*stride - pad >= 0 and ox*stride - pad + kw <= w.
    let (ox_lo, ox_hi) = if d.w as isize + d.pad >= d.kw as isize {
        let lo = (d.pad as usize).div_ceil(d.stride).min(d.ow);
        let hi = (((d.w as isize - d.kw as isize + d.pad) as usize) / d.stride + 1).min(d.ow);
        (lo, hi.max(lo))
    } else {
        (0, 0)
    };
    for oy in 0..d.oh {
        let iy0 = (oy * d.stride) as isize - d.pad;
        let kys = taps(iy0, d.h, d.kh);
        let orow = &mut oplane[oy * d.ow..(oy + 1) * d.ow];
        let mut ox = 0;
        while ox < ox_lo {
            let ix0 = (ox * d.stride) as isize - d.pad;
            orow[ox] = window_sum(xs, wplane, b0, d, iy0, ix0);
            ox += 1;
        }
        while ox + OXB <= ox_hi {
            let mut acc = [b0; OXB];
            let ix0 = ox * d.stride - d.pad as usize;
            for ci in 0..d.cin {
                let xc = ci * d.h * d.w;
                let wcb = ci * d.kh * d.kw;
                for ky in kys.clone() {
                    let xrow = xc + (iy0 + ky as isize) as usize * d.w;
                    let wrow = wcb + ky * d.kw;
                    for kx in 0..d.kw {
                        let wv = wplane[wrow + kx];
                        let xb = xrow + ix0 + kx;
                        acc[0] += xs[xb] * wv;
                        acc[1] += xs[xb + d.stride] * wv;
                        acc[2] += xs[xb + 2 * d.stride] * wv;
                        acc[3] += xs[xb + 3 * d.stride] * wv;
                    }
                }
            }
            orow[ox..ox + OXB].copy_from_slice(&acc);
            ox += OXB;
        }
        while ox < d.ow {
            let ix0 = (ox * d.stride) as isize - d.pad;
            orow[ox] = window_sum(xs, wplane, b0, d, iy0, ix0);
            ox += 1;
        }
    }
}

/// Conv over an FP8-stored weight: the weight decoded once per call into
/// the pooled panel, each input sample borrowed or decoded once per image
/// per worker by the row source.
pub(super) fn conv2d<X: Rows + ?Sized>(
    x: &X,
    weight: &QTensor,
    bias: Option<&Tensor>,
    d: &ConvDims,
    out: &mut Tensor,
) {
    WeightOperand::Q(weight).with_dense(|wf| {
        for_each_plane(x, wf, bias, d, out, |xs, wplane, b0, oplane| {
            conv_plane(xs, wplane, b0, d, oplane)
        });
    });
}
