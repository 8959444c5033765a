//! Register-blocked, cache-tiled micro-kernels for the fused quantized
//! MAC operators ([`crate::ops::KernelPath::Blocked`]).
//!
//! ## Bit-identity argument
//!
//! Every kernel here computes each output element through **exactly the
//! same floating-point chain** as its scalar reference: one accumulator
//! per output, terms added in ascending reduction order (`kk`, or
//! `(ci, ky, kx)` for conv), scales applied per element *inside* the MAC
//! (decode tables hold `decode(code) / scale`), and the matmul family's
//! `av == 0.0` zero-skip intact (it changes results under NaN/Inf and
//! signed zeros, so it is semantics, not an optimization). What blocking
//! changes is only *which independent outputs advance together*:
//!
//! * **matmul**: `B` is decoded once into a packed column-panel layout
//!   (pure data movement — same values, read in the same `kk` order) and
//!   a 4×8 register tile carries 32 independent accumulator chains, so
//!   the inner loop is a branch-light FMA block instead of a
//!   load/update/store sweep over the output row. On x86-64 with AVX2
//!   the full tile runs 8 lanes wide through explicit `vmulps`/`vaddps`
//!   (never `vfmadd`, whose single rounding would break bit-identity).
//! * **linear**: 4 output features share one pass over `k` with their 4
//!   decode tables L1-resident, and 4 input rows reuse each gathered
//!   weight value — 16 chains, 4 MACs per table gather.
//! * **conv**: the weight tensor is packed through its per-channel
//!   tables once per call, each input sample is decoded once per image
//!   (not once per output plane), and interior outputs (no padding
//!   clipping) run a check-free 4-wide column block; borders keep the
//!   reference loop.
//!
//! Reassociation — multi-accumulator splits of a *single* dot product,
//! hoisting scales, dropping the zero-skip — is exactly what these
//! kernels never do. Equivalence is enforced by proptests
//! (`tests/kernel_path_equivalence.rs`) and zoo-wide suites.
//!
//! All staging buffers come from the per-thread pool in
//! [`super::scratch`]; steady-state calls do not allocate.

use crate::act::ActDecode;
use crate::qtensor::{QTensor, ScaledDecode};
use crate::tensor::Tensor;

use super::conv::{for_each_plane, taps, window_sum, ConvDims};
use super::operand::{DenseW, Rows};
use super::{for_each_chunk, scratch};

/// Rows per register tile (matmul and linear).
const MR: usize = 4;
/// Columns per matmul register tile (one or two SIMD vectors wide).
const NRM: usize = 8;
/// Output features per linear register tile (decode tables L1-resident).
const NRL: usize = 4;
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
/// accumulator chains with the matmul `av == 0.0` zero-skip intact.
/// Dispatches to the AVX2 lane when the CPU has it (rustc targets
/// baseline SSE2, so autovectorization alone leaves half the vector
/// width unused); the scalar loop below is the same chains and the
/// fallback everywhere else.
fn tile_full(
    arows: &[f32],
    at: Option<&[f32]>,
    k: usize,
    panel: &[f32],
    acc: &mut [[f32; NRM]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(at) = at {
        // SAFETY: `at` is only staged after an `avx2_available` check in
        // `matmul_packed`, which sized it to k*MR and `panel` to k*NRM.
        unsafe { simd::tile_4x8(at, k, panel, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
    for kk in 0..k {
        let bk = &panel[kk * NRM..kk * NRM + NRM];
        for (r, a) in acc.iter_mut().enumerate() {
            let av = arows[r * k + kk];
            if av == 0.0 {
                continue;
            }
            for (c, &bv) in bk.iter().enumerate() {
                a[c] += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Runtime-detected AVX2 lane for the matmul register tile.
    //!
    //! Bit-identity: `vmulps`/`vaddps` are the identical single-rounded
    //! IEEE-754 multiply and add as Rust's scalar `f32` operators (rustc
    //! keeps fp-contract off, so nothing fuses into an FMA, which *would*
    //! change rounding); each lane carries exactly one output element's
    //! accumulator chain in the same `kk` order; and the `av == 0.0`
    //! zero-skip happens per `(row, kk)` exactly as in the scalar tile.
    //! The per-`kk` fast path only asserts that *no* row value is zero
    //! (`vcmpeqps`+`vmovmskps`, the same ordered `== 0.0` the scalar
    //! compare performs, so ±0.0 matches and NaN does not) — when it
    //! holds, the skip provably cannot fire and the four chains run
    //! unguarded; otherwise the guarded per-row loop is taken.

    use std::sync::OnceLock;

    use super::{MR, NRM};

    // The 4-lane zero test reads one full kk column as a single xmm load.
    const _: () = assert!(MR == 4);

    pub(super) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// One full `MR`×`NRM` tile, each output row one 8-wide register.
    /// `at` is the A block in k-major order (`at[kk*MR + r]`), so one
    /// 4-lane load fetches the row values of a `kk` for the zero test.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`avx2_available`] and guarantee
    /// `at.len() >= k * MR` and `panel.len() >= k * NRM`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_4x8(
        at: &[f32],
        k: usize,
        panel: &[f32],
        acc_out: &mut [[f32; NRM]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(at.len() >= k * MR && panel.len() >= k * NRM);
        let mut acc = [_mm256_setzero_ps(); MR];
        let zero8 = _mm256_setzero_ps();
        // Per-row guarded update for one kk — the semantics path.
        macro_rules! guarded {
            ($ap:expr, $bk:expr) => {
                for (r, a) in acc.iter_mut().enumerate() {
                    let av = *$ap.add(r);
                    if av == 0.0 {
                        continue;
                    }
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_set1_ps(av), $bk));
                }
            };
        }
        // Two kk steps per iteration share one 8-lane zero test; when no
        // row value of either step is zero the skip cannot fire and both
        // steps run unguarded (still kk-ordered per chain: all rows take
        // their kk term, then their kk+1 term).
        let mut kk = 0;
        while kk + 2 <= k {
            let ap = at.as_ptr().add(kk * MR);
            let avs = _mm256_loadu_ps(ap);
            let bk0 = _mm256_loadu_ps(panel.as_ptr().add(kk * NRM));
            let bk1 = _mm256_loadu_ps(panel.as_ptr().add((kk + 1) * NRM));
            if _mm256_movemask_ps(_mm256_cmp_ps(avs, zero8, _CMP_EQ_OQ)) == 0 {
                for (r, a) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(r));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(av, bk0));
                }
                for (r, a) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(MR + r));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(av, bk1));
                }
            } else {
                guarded!(ap, bk0);
                let ap1 = ap.add(MR);
                guarded!(ap1, bk1);
            }
            kk += 2;
        }
        if kk < k {
            let ap = at.as_ptr().add(kk * MR);
            let bk = _mm256_loadu_ps(panel.as_ptr().add(kk * NRM));
            guarded!(ap, bk);
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
    /// `at.len() >= k * MR`, `p0.len() >= k * NRM`, `p1.len() >= k * NRM`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile_4x8x2(
        at: &[f32],
        k: usize,
        p0: &[f32],
        p1: &[f32],
        acc_out0: &mut [[f32; NRM]; MR],
        acc_out1: &mut [[f32; NRM]; MR],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(at.len() >= k * MR && p0.len() >= k * NRM && p1.len() >= k * NRM);
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        let zero8 = _mm256_setzero_ps();
        macro_rules! step {
            ($ap:expr, $b0:expr, $b1:expr, $guard:expr) => {
                for r in 0..MR {
                    let av = *$ap.add(r);
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
            let ap = at.as_ptr().add(kk * MR);
            let avs = _mm256_loadu_ps(ap);
            let b00 = _mm256_loadu_ps(p0.as_ptr().add(kk * NRM));
            let b01 = _mm256_loadu_ps(p1.as_ptr().add(kk * NRM));
            let b10 = _mm256_loadu_ps(p0.as_ptr().add((kk + 1) * NRM));
            let b11 = _mm256_loadu_ps(p1.as_ptr().add((kk + 1) * NRM));
            if _mm256_movemask_ps(_mm256_cmp_ps(avs, zero8, _CMP_EQ_OQ)) == 0 {
                step!(ap, b00, b01, false);
                let ap1 = ap.add(MR);
                step!(ap1, b10, b11, false);
            } else {
                step!(ap, b00, b01, true);
                let ap1 = ap.add(MR);
                step!(ap1, b10, b11, true);
            }
            kk += 2;
        }
        if kk < k {
            let ap = at.as_ptr().add(kk * MR);
            let b0 = _mm256_loadu_ps(p0.as_ptr().add(kk * NRM));
            let b1 = _mm256_loadu_ps(p1.as_ptr().add(kk * NRM));
            step!(ap, b0, b1, true);
        }
        for (r, a) in acc0.iter().enumerate() {
            _mm256_storeu_ps(acc_out0[r].as_mut_ptr(), *a);
        }
        for (r, a) in acc1.iter().enumerate() {
            _mm256_storeu_ps(acc_out1[r].as_mut_ptr(), *a);
        }
    }
}

/// `out[mr, n] = arows[mr, k] · B` with `B` in packed column panels.
/// `out` rows are stored (the caller zero-filled them; every element is
/// overwritten with its accumulator, which starts at the same `0.0`).
fn matmul_packed(arows: &[f32], mr: usize, k: usize, n: usize, bp: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if mr == MR && n >= NRM && simd::avx2_available() {
        // Stage the A block once per chunk in k-major order (pure data
        // movement — the tile reads the same values in the same order);
        // it is reused across every column panel of this chunk.
        scratch::with_rows2(k * MR, |at| {
            for r in 0..MR {
                for (kk, col) in at.chunks_exact_mut(MR).enumerate() {
                    col[r] = arows[r * k + kk];
                }
            }
            matmul_panels(arows, Some(at), mr, k, n, bp, out);
        });
        return;
    }
    matmul_panels(arows, None, mr, k, n, bp, out);
}

/// Panel loop of [`matmul_packed`]; `at` is the optional k-major staged A
/// block for the AVX2 tile.
fn matmul_panels(
    arows: &[f32],
    at: Option<&[f32]>,
    mr: usize,
    k: usize,
    n: usize,
    bp: &[f32],
    out: &mut [f32],
) {
    let mut off = 0;
    let mut j0 = 0;
    #[cfg(target_arch = "x86_64")]
    if let Some(at) = at {
        // Consume pairs of full panels with the wide 4×16 tile (`at` is
        // only staged for full-height chunks after the AVX2 check).
        debug_assert_eq!(mr, MR);
        while j0 + 2 * NRM <= n {
            let p0 = &bp[off..off + k * NRM];
            let p1 = &bp[off + k * NRM..off + 2 * k * NRM];
            let mut acc0 = [[0.0f32; NRM]; MR];
            let mut acc1 = [[0.0f32; NRM]; MR];
            // SAFETY: AVX2 checked before staging `at`; slice sizes
            // asserted by construction above.
            unsafe { simd::tile_4x8x2(at, k, p0, p1, &mut acc0, &mut acc1) };
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
            tile_full(arows, at, k, panel, &mut acc);
            for (r, a) in acc.iter().enumerate() {
                out[r * n + j0..r * n + j0 + NRM].copy_from_slice(a);
            }
        } else {
            // Ragged edge tiles: per-element chains in the same order.
            for r in 0..mr {
                let arow = &arows[r * k..(r + 1) * k];
                for c in 0..wp {
                    let mut acc = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        if av == 0.0 {
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
                matmul_packed(ar, mr, k, n, bp, rows)
            });
        });
    });
}

// ---------------------------------------------------------------------
// linear family
// ---------------------------------------------------------------------

/// `out[mr, n] = xs[mr, k] · Wᵀ (+ bias)` with `W` as `[n, k]` codes
/// decoded through per-output-feature tables. 4 features share one pass
/// over `k` (their tables stay L1-resident), 4 rows reuse each gathered
/// weight value.
#[allow(clippy::too_many_arguments)]
fn linear_block(
    xs: &[f32],
    mr: usize,
    k: usize,
    n: usize,
    wc: &[u8],
    dec: &ScaledDecode,
    bd: Option<&[f32]>,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + NRL <= n {
        let t0 = dec.channel(j);
        let t1 = dec.channel(j + 1);
        let t2 = dec.channel(j + 2);
        let t3 = dec.channel(j + 3);
        let w0 = &wc[j * k..(j + 1) * k];
        let w1 = &wc[(j + 1) * k..(j + 2) * k];
        let w2 = &wc[(j + 2) * k..(j + 3) * k];
        let w3 = &wc[(j + 3) * k..(j + 4) * k];
        if mr == MR {
            let mut acc = [[0.0f32; NRL]; MR];
            for kk in 0..k {
                let v = [
                    t0[w0[kk] as usize],
                    t1[w1[kk] as usize],
                    t2[w2[kk] as usize],
                    t3[w3[kk] as usize],
                ];
                for (r, a) in acc.iter_mut().enumerate() {
                    let xv = xs[r * k + kk];
                    for (c, &vc) in v.iter().enumerate() {
                        a[c] += xv * vc;
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                for (c, &y0) in a.iter().enumerate() {
                    let mut y = y0;
                    if let Some(b) = bd {
                        y += b[j + c];
                    }
                    out[r * n + j + c] = y;
                }
            }
        } else {
            for r in 0..mr {
                let xrow = &xs[r * k..(r + 1) * k];
                let mut a = [0.0f32; NRL];
                for (kk, &xv) in xrow.iter().enumerate() {
                    a[0] += xv * t0[w0[kk] as usize];
                    a[1] += xv * t1[w1[kk] as usize];
                    a[2] += xv * t2[w2[kk] as usize];
                    a[3] += xv * t3[w3[kk] as usize];
                }
                for (c, &y0) in a.iter().enumerate() {
                    let mut y = y0;
                    if let Some(b) = bd {
                        y += b[j + c];
                    }
                    out[r * n + j + c] = y;
                }
            }
        }
        j += NRL;
    }
    while j < n {
        let t = dec.channel(j);
        let wrow = &wc[j * k..(j + 1) * k];
        for r in 0..mr {
            let xrow = &xs[r * k..(r + 1) * k];
            let mut acc = 0.0f32;
            for (xv, &wb) in xrow.iter().zip(wrow) {
                acc += xv * t[wb as usize];
            }
            if let Some(b) = bd {
                acc += b[j];
            }
            out[r * n + j] = acc;
        }
        j += 1;
    }
}

/// Linear over an FP8-stored weight: `MR` activation rows per chunk,
/// borrowed or decoded by the row source.
pub(super) fn linear<X: Rows + ?Sized>(
    x: &X,
    weight: &QTensor,
    bias: Option<&Tensor>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut Tensor,
) {
    let wc = weight.codes();
    let dec = weight.scaled_decode();
    let bd = bias.map(|b| b.data());
    for_each_chunk(out.data_mut(), MR * n, m * k * n, |blk, rows| {
        let mr = rows.len() / n;
        x.with(blk * MR * k, mr * k, |xs| {
            linear_block(xs, mr, k, n, wc, &dec, bd, rows)
        });
    });
}

// ---------------------------------------------------------------------
// conv family
// ---------------------------------------------------------------------

/// Pack a `[cout, per_co]` weight-code tensor through its per-`cout`
/// tables into dense f32 (same values the scalar kernel gathers).
fn pack_weights(wc: &[u8], dec: &ScaledDecode, cout: usize, per_co: usize, wf: &mut [f32]) {
    for co in 0..cout {
        let t = dec.channel(co);
        let src = &wc[co * per_co..(co + 1) * per_co];
        for (d, &c) in wf[co * per_co..(co + 1) * per_co].iter_mut().zip(src) {
            *d = t[c as usize];
        }
    }
}

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
            orow[ox] = window_sum::<DenseW>(xs, wplane, &[], b0, d, iy0, ix0);
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
            orow[ox] = window_sum::<DenseW>(xs, wplane, &[], b0, d, iy0, ix0);
            ox += 1;
        }
    }
}

/// Conv over an FP8-stored weight: the weight packed through its tables
/// once per call, each input sample borrowed or decoded once per image
/// per worker by the row source.
pub(super) fn conv2d<X: Rows + ?Sized>(
    x: &X,
    weight: &QTensor,
    bias: Option<&Tensor>,
    d: &ConvDims,
    out: &mut Tensor,
) {
    let per_co = d.cin * d.kh * d.kw;
    let dec = weight.scaled_decode();
    scratch::with_panel(d.cout * per_co, |wf| {
        pack_weights(weight.codes(), &dec, d.cout, per_co, wf);
        for_each_plane(x, &DenseW(wf), bias, d, out, |xs, wplane, _, b0, oplane| {
            conv_plane(xs, wplane, b0, d, oplane)
        });
    });
}
