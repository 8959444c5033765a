//! Incremental-attention step kernels over a [`KvBuf`] cache: per
//! attention layer, a decode step's `m` newest query rows (a generated
//! token, or a block of prompt tokens) against every cached position.
//!
//! * [`attention_step_q`]: `scores[h, i, j] = Σ_kk q[h, i, kk] · K[j][h·dh + kk]`
//!   — the step slice of the full path's `bmm(qh, khᵀ)`.
//! * [`attention_step_v`]: `ctx[h, i, c] = Σ_j probs[h, i, j] · V[j][h·dh + c]`
//!   — the step slice of `bmm(probs, vh)`.
//!
//! The kernels are rectangular: the graph's bottom-aligned `CausalMask`
//! hides from query row `i` the keys appended after its position.
//!
//! ## Bit-identity contract
//!
//! Both reproduce [`super::batch_matmul_into`]'s chains for their rows: one
//! ascending chain per output over the contraction index, with the same
//! `av == 0.0` skip on the lhs. With an F32 cache a decode step is then
//! bit-identical to the same rows of the full-window forward (DESIGN.md
//! §16); with an FP8 cache the values are `decode(code)/scale`, so the only
//! deviation is the storage rounding. Both [`KernelPath`]s agree bit for
//! bit: the blocked path decodes the cache once into pooled panels (scores
//! then pack each head's keys as the matmul tile's `B`), the reference
//! decodes inline per element.

use super::blocked::{pack_transposed, tile_rows, NRM};
use super::{scratch, KernelPath};
use crate::kv::KvBuf;
use crate::tensor::Tensor;

/// Step score kernel: `q [heads, m, dh]` against a `K` cache of
/// `len` positions with `d = heads · dh` wide rows → `out [heads, m, len]`.
///
/// # Panics
///
/// Panics if `q` is not `[heads, m, dh]` with `heads · dh` matching the
/// cache row width (the decode planner validates shapes before any step
/// runs, so this is an internal-contract assert like the other kernels').
pub fn attention_step_q(q: &Tensor, cache: &KvBuf, out: &mut Tensor, path: KernelPath) {
    assert_eq!(q.ndim(), 3, "step q must be [heads, m, dh]");
    let (heads, m, dh) = (q.dim(0), q.dim(1), q.dim(2));
    let d = cache.d();
    assert_eq!(
        heads * dh,
        d,
        "q heads*dh {} vs cache row width {d}",
        heads * dh
    );
    let len = cache.len();
    out.reuse_as(&[heads, m, len]);
    out.zero_fill();
    if out.is_empty() {
        return;
    }
    let qd = q.data();
    let od = out.data_mut();
    match path {
        KernelPath::ScalarReference => {
            for (r, orow) in od.chunks_mut(len).enumerate() {
                let h = r / m;
                for kk in 0..dh {
                    let av = qd[r * dh + kk];
                    if av == 0.0 {
                        continue;
                    }
                    let col = h * dh + kk;
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += av * cache.value_at(j, col);
                    }
                }
            }
        }
        KernelPath::Blocked => {
            // Decode every cached row once; per head, pack `B = K_hᵀ` (the
            // head's slice of each cached row) and run its query rows
            // through the matmul tile.
            scratch::with_panel(len * d, |panel| {
                cache.decode_into(panel);
                scratch::with_panel2(dh * len.next_multiple_of(NRM), |kp| {
                    for (h, ohead) in od.chunks_mut(m * len).enumerate() {
                        pack_transposed((&panel[h * dh..], d), dh, len, kp, |_| 1.0, |v, _| v);
                        let qh = &qd[h * m * dh..][..m * dh];
                        tile_rows::<true, _>(qh, (dh, len), kp, None, ohead, 0);
                    }
                });
            });
        }
    }
}

/// Step context kernel: `probs [heads, m, len]` against a `V` cache of
/// the same `len` → `out [heads, m, dh]`.
///
/// The `av == 0.0` skip doubles as the masked-tail guard: softmax rows
/// whose −inf-masked entries became exact zeros contribute no additions,
/// exactly as in the full-window `batch_matmul`.
///
/// # Panics
///
/// Panics if `probs` is not `[heads, m, len]` matching the cache length
/// (internal contract; the decode planner validates first).
pub fn attention_step_v(probs: &Tensor, cache: &KvBuf, out: &mut Tensor, path: KernelPath) {
    assert_eq!(probs.ndim(), 3, "step probs must be [heads, m, len]");
    let (heads, m, len) = (probs.dim(0), probs.dim(1), probs.dim(2));
    assert_eq!(
        len,
        cache.len(),
        "probs len {len} vs cache len {}",
        cache.len()
    );
    let d = cache.d();
    assert_eq!(
        d % heads,
        0,
        "heads {heads} must divide cache row width {d}"
    );
    let dh = d / heads;
    out.reuse_as(&[heads, m, dh]);
    out.zero_fill();
    if out.is_empty() || len == 0 {
        return;
    }
    let pd = probs.data();
    let od = out.data_mut();
    match path {
        KernelPath::ScalarReference => {
            for (r, orow) in od.chunks_mut(dh).enumerate() {
                let h = r / m;
                for (j, &av) in pd[r * len..(r + 1) * len].iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (c, o) in orow.iter_mut().enumerate() {
                        *o += av * cache.value_at(j, h * dh + c);
                    }
                }
            }
        }
        KernelPath::Blocked => {
            // Decode once; each (position, head) value slice is already
            // contiguous in the position-major panel.
            scratch::with_panel(len * d, |panel| {
                cache.decode_into(panel);
                for (r, orow) in od.chunks_mut(dh).enumerate() {
                    let h = r / m;
                    for (j, &av) in pd[r * len..(r + 1) * len].iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let vrow = &panel[j * d + h * dh..j * d + (h + 1) * dh];
                        for (c, o) in orow.iter_mut().enumerate() {
                            *o += av * vrow[c];
                        }
                    }
                }
            });
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
            // One query row (a generated token) and a block of them (a prompt).
            for m in [1, 4] {
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
            for m in [1, 3] {
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
}
