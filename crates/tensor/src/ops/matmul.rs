//! Matrix-multiply family: `Linear`, `MatMul`, `BatchMatMul`, the
//! compute-bound operators of the paper's standard scheme. Either operand
//! may be FP8-stored ([`ActOperand`], [`WeightOperand`]); every result is
//! bit-identical to the reference on the dequantized operands: codes
//! decode per element as `lut.decode(code) / scale` (never hoisted out of
//! the accumulation) and each output keeps the reference's chain.

use crate::act::QActTensor;
use crate::qtensor::QTensor;
use crate::shape::{batch_matmul_dims, linear_dims, matmul_dims};
use crate::tensor::Tensor;

use super::operand::{with_rows, Rows};
use super::{blocked, checked, for_each_chunk, scratch, ActOperand, KernelPath, WeightOperand};

/// One output row of the matmul reference: `orow += arow · B` over dense
/// `B[k,n]`, `kk` ascending. The zero-skip is semantics (it changes
/// results under NaN/Inf), not an optimization.
pub(super) fn matmul_row(arow: &[f32], bd: &[f32], n: usize, orow: &mut [f32]) {
    for (kk, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &bd[kk * n..(kk + 1) * n];
        for (j, r) in orow.iter_mut().enumerate() {
            *r += av * brow[j];
        }
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`, either operand f32 or coded.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions disagree.
pub fn matmul<'a>(a: impl Into<ActOperand<'a>>, b: impl Into<ActOperand<'a>>) -> Tensor {
    let mut out = Tensor::default();
    matmul_into(a, b, &mut out, KernelPath::default());
    out
}

/// Out-param variant of [`matmul`]: writes into `out`, reusing its
/// allocation, through an explicit [`KernelPath`]. `Blocked` packs `B` once
/// into panels and runs the register tile, for every operand mix. Both
/// paths are bit-identical. Panics as [`matmul`].
pub fn matmul_into<'a>(
    a: impl Into<ActOperand<'a>>,
    b: impl Into<ActOperand<'a>>,
    out: &mut Tensor,
    path: KernelPath,
) {
    let (a, b) = (a.into(), b.into());
    let [m, n] = checked(matmul_dims(a.shape(), b.shape()));
    let k = a.shape()[1];
    out.reuse_as(&[m, n]);
    if out.data().is_empty() {
        return;
    }
    if path == KernelPath::Blocked {
        // Stores every element; only the reference accumulates into `out`.
        return with_rows!(a, |ar| with_rows!(b, |br| blocked::matmul(
            ar, br, k, n, out
        )));
    }
    out.zero_fill();
    with_dense(b, |bd| {
        with_rows!(a, |ar| for_each_chunk(
            out.data_mut(),
            n,
            m * k * n,
            |i, row| ar.with(i * k, k, |arow| matmul_row(arow, bd, n, row))
        ))
    })
}

/// Run `f` on all of `b` as dense f32, as the reference reads it: borrowed,
/// or decoded once into the call-wide panel.
fn with_dense<R>(b: ActOperand<'_>, f: impl FnOnce(&[f32]) -> R) -> R {
    match b {
        ActOperand::F32(t) => f(t.data()),
        ActOperand::Coded(q) => scratch::with_panel(q.len(), |bf| {
            q.decoder().decode_range(0, bf);
            f(bf)
        }),
    }
}

/// [`matmul_into`] on two coded operands through the default kernel path.
/// Kept under this name only for `benchmark/src/probes.rs`, which is
/// frozen; call [`matmul_into`].
pub fn matmul_qq_into(a: &QActTensor, b: &QActTensor, out: &mut Tensor) {
    matmul_into(a, b, out, KernelPath::default());
}

/// Fully-connected layer: `y[m,n] = x[m,k] · Wᵀ + b`, with weight stored as
/// `[out_features, in_features]` (PyTorch convention, which is what
/// per-output-channel weight scaling is defined over). The bias is added
/// to the stored dot product, exactly as a broadcast `add` would.
///
/// # Panics
///
/// Panics on rank or dimension mismatches (including a bias whose length
/// differs from `out_features`).
pub fn linear<'a>(
    x: impl Into<ActOperand<'a>>,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
) -> Tensor {
    let mut out = Tensor::default();
    linear_into(x, weight, bias, &mut out, KernelPath::default());
    out
}

/// Out-param variant of [`linear`]: writes into `out`, reusing its
/// allocation, through an explicit [`KernelPath`]. `Blocked` packs the
/// weight, f32 or FP8-stored, into the register tile's panels. Both paths
/// are bit-identical. Panics as [`linear`].
pub fn linear_into<'a>(
    x: impl Into<ActOperand<'a>>,
    weight: impl Into<WeightOperand<'a>>,
    bias: Option<&Tensor>,
    out: &mut Tensor,
    path: KernelPath,
) {
    let (x, weight) = (x.into(), weight.into());
    let bshape = bias.map(Tensor::shape);
    let [m, n] = checked(linear_dims(x.shape(), weight.shape(), bshape));
    let k = x.shape()[1];
    out.reuse_as(&[m, n]);
    if out.data().is_empty() {
        return;
    }
    if path == KernelPath::Blocked {
        return with_rows!(x, |xs| blocked::linear(xs, weight, bias, k, n, out));
    }
    weight.with_dense(|wf| with_rows!(x, |xs| linear_ref(xs, wf, bias, k, out)))
}

/// The `ScalarReference` loop nest of [`linear_into`]: one `kk`-ascending
/// dot product per output element, one output row per chunk.
fn linear_ref<X: Rows + ?Sized>(
    x: &X,
    wf: &[f32],
    bias: Option<&Tensor>,
    k: usize,
    out: &mut Tensor,
) {
    let n = out.dim(1);
    let bd = bias.map(|b| b.data());
    let macs = out.len() * k;
    for_each_chunk(out.data_mut(), n, macs, |i, row| {
        x.with(i * k, k, |xrow| {
            for (j, r) in row.iter_mut().enumerate() {
                let wrow = &wf[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (xv, &wv) in xrow.iter().zip(wrow) {
                    acc += xv * wv;
                }
                *r = acc;
                if let Some(b) = bd {
                    *r += b[j];
                }
            }
        });
    });
}

/// [`linear_into`] on a coded input and an FP8-stored weight through the
/// default kernel path. Kept under this name only for
/// `benchmark/src/probes.rs`, which is frozen; call [`linear_into`].
pub fn linear_qq_into(x: &QActTensor, weight: &QTensor, bias: Option<&Tensor>, out: &mut Tensor) {
    linear_into(x, weight, bias, out, KernelPath::default());
}

/// Batched matrix multiply: `C[b,m,n] = A[b,m,k] · B[b,k,n]` — the
/// attention-score and attention-context operator (`BatchMatMul` in the
/// paper's extended op list).
///
/// # Panics
///
/// Panics if operands are not 3-D or batch/inner dims disagree.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    batch_matmul_into(a, b, &mut out, KernelPath::default());
    out
}

/// Out-param variant of [`batch_matmul`]: writes into `out`, reusing its
/// allocation, through an explicit [`KernelPath`]. `Blocked` runs each
/// batch on [`matmul_into`]'s register tile, zero-skip included: its `B`
/// packed into panels, its rows 4 at a time, one batch per chunk. Both
/// paths are bit-identical. Panics as [`batch_matmul`].
pub fn batch_matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor, path: KernelPath) {
    let [ba, m, n] = checked(batch_matmul_dims(a.shape(), b.shape()));
    let (k, ad, bd) = (a.dim(2), a.data(), b.data());
    out.reuse_as(&[ba, m, n]);
    if out.data().is_empty() {
        return;
    }
    if path == KernelPath::Blocked {
        return blocked::batch_matmul(ad, bd, m, k, n, out);
    }
    out.zero_fill();
    for_each_chunk(out.data_mut(), m * n, ba * m * k * n, |bi, obatch| {
        let bbatch = &bd[bi * k * n..][..k * n];
        for (i, orow) in obatch.chunks_exact_mut(n).enumerate() {
            matmul_row(&ad[(bi * m + i) * k..][..k], bbatch, n, orow);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let i = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn linear_matches_matmul_transpose() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let y = linear(&x, &w, None);
        let y2 = matmul(&x, &w.transpose2());
        assert_eq!(y, y2);
    }

    #[test]
    fn linear_bias() {
        let x = Tensor::from_vec(vec![1., 0.], &[1, 2]);
        let w = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]);
        let b = Tensor::from_slice(&[10., 20.]);
        let y = linear(&x, &w, Some(&b));
        assert_eq!(y.data(), &[11., 20.]);
    }

    #[test]
    fn batch_matmul_per_batch() {
        let a = Tensor::from_vec(vec![1., 0., 0., 1., 2., 0., 0., 2.], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1., 2., 3., 4., 1., 2., 3., 4.], &[2, 2, 2]);
        let c = batch_matmul(&a, &b);
        assert_eq!(c.index_axis0(0).data(), &[1., 2., 3., 4.]);
        assert_eq!(c.index_axis0(1).data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn matmul_large_consistency() {
        // Parallel path agrees with a serial reference.
        let mut rng = crate::rng::TensorRng::seed(11);
        let a = rng.normal(&[33, 17], 0.0, 1.0);
        let b = rng.normal(&[17, 29], 0.0, 1.0);
        let c = matmul(&a, &b);
        for i in [0usize, 16, 32] {
            for j in [0usize, 14, 28] {
                let mut acc = 0.0f32;
                for k in 0..17 {
                    acc += a.at(&[i, k]) * b.at(&[k, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-4);
            }
        }
    }
}
