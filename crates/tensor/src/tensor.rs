//! The dense row-major `f32` tensor type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A contiguous, row-major, `f32` n-dimensional array.
///
/// This is the only tensor type in the workspace: quantization research
/// needs exact, inspectable numerics more than it needs layout tricks, so
/// everything is kept contiguous and `f32`.
///
/// ```
/// use ptq_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Build from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: vec![data.len()],
        }
    }

    /// Resize in place to `shape`, reusing the existing heap allocation
    /// whenever its capacity suffices. Element values are unspecified
    /// afterwards (callers must overwrite or [`Tensor::zero_fill`]).
    ///
    /// This is the arena primitive behind the `*_into` kernels: in steady
    /// state (same shapes pass after pass) it never allocates.
    pub fn reuse_as(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Set every element to `0.0` without changing shape or capacity.
    #[inline]
    pub fn zero_fill(&mut self) {
        self.data.fill(0.0);
    }

    /// Overwrite `self` with a copy of `src` (shape and data), reusing the
    /// existing allocation when possible.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.reuse_as(&src.shape);
        self.data.copy_from_slice(&src.data);
    }

    /// Heap capacity of the underlying buffer, in bytes. Used by the
    /// execution-arena instrumentation to report buffer reuse.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= ndim()`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flat offset of a multi-index.
    #[inline]
    fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of bounds for dim {i} ({dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index rank or bounds are wrong.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.offset(idx);
        &mut self.data[off]
    }

    /// Reinterpret with a new shape of the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} ({} elems) to {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Transposed copy of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose2 requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Permuted copy (generalized transpose). `perm` must be a permutation
    /// of `0..ndim()`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation.
    pub fn permute(&self, perm: &[usize]) -> Self {
        let mut out = Tensor::default();
        self.permute_into(perm, &mut out);
        out
    }

    /// Out-param variant of [`Tensor::permute`]: writes the permuted copy
    /// into `out`, reusing its allocation. A strided row copy: rows run
    /// along the last output axis (`copy_from_slice` when the last axis
    /// stays last) and an odometer over stack arrays walks the outer axes
    /// -- no per-element index arithmetic, no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation, or has more than
    /// [`MAX_PERMUTE_RANK`](crate::shape::MAX_PERMUTE_RANK) axes (graph
    /// validation rejects those).
    pub fn permute_into(&self, perm: &[usize], out: &mut Tensor) {
        const R: usize = crate::shape::MAX_PERMUTE_RANK;
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permutation rank mismatch");
        assert!(nd <= R, "permute supports up to {R} axes, got {nd}");
        let mut seen = 0u32;
        for &p in perm {
            assert!(p < nd && seen >> p & 1 == 0, "invalid permutation {perm:?}");
            seen |= 1 << p;
        }
        // Per output axis: its extent and the input stride it walks.
        let (mut stride, mut in_strides) = (1, [0; R]);
        for (s, &dim) in in_strides[..nd].iter_mut().zip(&self.shape).rev() {
            (*s, stride) = (stride, stride * dim);
        }
        let (mut dims, mut src) = ([0; R], [0; R]);
        for (d, &p) in perm.iter().enumerate() {
            (dims[d], src[d]) = (self.shape[p], in_strides[p]);
        }
        out.reuse_as(&dims[..nd]);
        let Some(last) = nd.checked_sub(1) else {
            out.data.copy_from_slice(&self.data); // 0-d: one element
            return;
        };
        if out.data.is_empty() {
            return;
        }
        let (row, step) = (dims[last], src[last]);
        let (mut idx, mut base) = ([0; R], 0);
        for orow in out.data.chunks_exact_mut(row) {
            if step == 1 {
                orow.copy_from_slice(&self.data[base..base + row]);
            } else {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = self.data[base + j * step];
                }
            }
            // Advance the odometer over the outer axes, last fastest.
            for d in (0..last).rev() {
                idx[d] += 1;
                base += src[d];
                if idx[d] < dims[d] {
                    break;
                }
                base -= idx[d] * src[d];
                idx[d] = 0;
            }
        }
    }

    /// Map every element through `f`, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Map every element through `f` into `out`, reusing its allocation.
    /// Produces bit-identical results to [`Tensor::map`].
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Tensor) {
        out.reuse_as(&self.shape);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary op with full-shape or trailing-broadcast `other`.
    ///
    /// Broadcasting rule (subset of numpy, sufficient for NN bias/scale
    /// patterns): `other` may have the same shape, or its shape must match a
    /// *suffix* of `self`'s shape (e.g. bias `[C]` onto `[N, C]`), or match
    /// with trailing ones (e.g. scale `[C, 1, 1]` onto `[N, C, H, W]`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = Tensor::default();
        self.zip_broadcast_into(other, f, &mut out);
        out
    }

    /// Out-param variant of [`Tensor::zip_broadcast`]: writes the result
    /// into `out`, reusing its allocation. Every output element is written.
    pub fn zip_broadcast_into(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        out: &mut Tensor,
    ) {
        out.reuse_as(&self.shape);
        if self.shape == other.shape {
            for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
                *o = f(a, b);
            }
            return;
        }
        // Strip trailing 1s from other's shape, then require a suffix match
        // possibly followed by ones (channel-broadcast pattern).
        let (repeat, period, inner) = broadcast_layout(&self.shape, &other.shape);
        for r in 0..repeat {
            for p in 0..period {
                let b = other.data[p];
                let base = (r * period + p) * inner;
                for i in 0..inner {
                    out.data[base + i] = f(self.data[base + i], b);
                }
            }
        }
    }

    /// Elementwise add with broadcasting (see [`Tensor::zip_broadcast`]).
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Scale all elements by a constant.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Select a batch-dim slice `[i]` of an n-D tensor (first axis), as a
    /// copy with that axis removed.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 0-D or `i` is out of bounds.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(!self.shape.is_empty(), "cannot index a 0-D tensor");
        assert!(i < self.shape[0], "index {i} out of bounds");
        let inner: usize = self.shape[1..].iter().product();
        Tensor::from_vec(
            self.data[i * inner..(i + 1) * inner].to_vec(),
            &self.shape[1..],
        )
    }

    /// Concatenate tensors along axis 0. All shapes must agree on the other
    /// axes.
    ///
    /// # Panics
    ///
    /// Panics on empty input or mismatched trailing shapes.
    pub fn concat0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let tail = &parts[0].shape[1..];
        let mut n0 = 0;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "concat shape mismatch");
            n0 += p.shape[0];
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![n0];
        shape.extend_from_slice(tail);
        Tensor::from_vec(data, &shape)
    }

    /// Index of the maximum element of a 1-D view (first max wins).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Per-row argmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a 2-D tensor");
        (0..self.shape[0])
            .map(|i| {
                let r = self.row(i);
                let mut best = 0;
                for (j, &v) in r.iter().enumerate() {
                    if v > r[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

/// Decompose a channel-style broadcast: returns `(repeat, period, inner)`
/// such that `self` is viewed as `[repeat, period, inner]` and `other` (of
/// `period` elements) broadcasts along `repeat` and `inner`.
fn broadcast_layout(big: &[usize], small: &[usize]) -> (usize, usize, usize) {
    // Strip trailing 1s from the small shape.
    let mut eff: &[usize] = small;
    let mut trailing: usize = 1;
    while let Some((&last, rest)) = eff.split_last() {
        if last == 1 {
            eff = rest;
        } else {
            break;
        }
    }
    // Count how many trailing dims of `big` are covered by the stripped 1s.
    let stripped = small.len() - eff.len();
    assert!(
        small.len() <= big.len(),
        "broadcast shape {small:?} has higher rank than {big:?}"
    );
    // `eff` must match a contiguous window of big ending `stripped` dims
    // before the end when small had trailing ones, else a suffix of big.
    let end = big.len() - stripped;
    assert!(
        eff.len() <= end,
        "broadcast shape {small:?} incompatible with {big:?}"
    );
    let start = end - eff.len();
    assert_eq!(
        &big[start..end],
        eff,
        "broadcast shape {small:?} incompatible with {big:?}"
    );
    for d in &big[end..] {
        trailing *= d;
    }
    let period: usize = eff.iter().product::<usize>().max(1);
    let repeat: usize = big[..start].iter().product::<usize>().max(1);
    (repeat, period, trailing)
}

impl Default for Tensor {
    /// An empty tensor (shape `[0]`). Useful as an arena placeholder that
    /// the `*_into` kernels resize on first use.
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}] (n={})",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tensor {
        /// Elementwise multiply with broadcasting.
        fn mul(&self, other: &Tensor) -> Self {
            self.zip_broadcast(other, |a, b| a * b)
        }
    }

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.dim(1), 3);
        assert_eq!(t.ndim(), 2);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let r = t.clone().reshape(&[4, 6]);
        assert_eq!(r.at(&[0, 5]), 5.0);
        assert_eq!(r.reshape(&[2, 3, 4]), t);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_count() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn permute_matches_transpose() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
        // 2-D permute equals transpose2.
        let m = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        assert_eq!(m.permute(&[1, 0]), m.transpose2());
    }

    /// The per-element index decomposition `permute_into` replaced: the
    /// output's flat index split by its strides, mapped to the input's.
    fn permute_oracle(t: &Tensor, perm: &[usize]) -> Tensor {
        let strides = |shape: &[usize]| {
            let mut s = vec![1; shape.len()];
            for i in (0..shape.len().saturating_sub(1)).rev() {
                s[i] = s[i + 1] * shape[i + 1];
            }
            s
        };
        let new_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
        let (old, new) = (strides(t.shape()), strides(&new_shape));
        let data = (0..t.len())
            .map(|flat| {
                let (mut rem, mut off) = (flat, 0);
                for (d, &ns) in new.iter().enumerate() {
                    off += rem / ns * old[perm[d]];
                    rem %= ns;
                }
                t.data()[off]
            })
            .collect();
        Tensor::from_vec(data, &new_shape)
    }

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut all = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, n - 1);
                all.push(q);
            }
        }
        all
    }

    #[test]
    fn permute_matches_the_index_decomposition() {
        let mut out = Tensor::from_slice(&[9.0; 7]); // stale shape and data
        for rank in 0..=4 {
            for dims in [[3, 5, 2, 7], [1, 3, 1, 4], [2, 0, 3, 5], [4, 3, 0, 1]] {
                let shape = &dims[..rank];
                let n = shape.iter().product::<usize>();
                let t = Tensor::from_vec((0..n).map(|i| i as f32).collect(), shape);
                for perm in permutations(rank) {
                    t.permute_into(&perm, &mut out);
                    assert_eq!(out, permute_oracle(&t, &perm), "{shape:?} {perm:?}");
                }
            }
        }
        let deep = Tensor::zeros(&[1; crate::shape::MAX_PERMUTE_RANK]);
        let rev: Vec<usize> = (0..crate::shape::MAX_PERMUTE_RANK).rev().collect();
        assert_eq!(deep.permute(&rev), deep);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn permute_rejects_a_repeated_axis() {
        Tensor::zeros(&[2, 3]).permute(&[1, 1]);
    }

    #[test]
    fn broadcast_bias_over_rows() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_slice(&[10., 20., 30.]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_channel_scale_nchw() {
        // [N=1, C=2, H=2, W=2] * scale [C,1,1]
        let x = Tensor::from_vec((1..=8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let s = Tensor::from_vec(vec![2.0, 10.0], &[2, 1, 1]);
        let y = x.mul(&s);
        assert_eq!(y.data(), &[2., 4., 6., 8., 50., 60., 70., 80.]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn broadcast_rejects_mismatch() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2]);
        x.add(&b);
    }

    #[test]
    fn concat_and_index_axis0() {
        let a = Tensor::from_vec(vec![1., 2.], &[1, 2]);
        let b = Tensor::from_vec(vec![3., 4., 5., 6.], &[2, 2]);
        let c = Tensor::concat0(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.index_axis0(2).data(), &[5., 6.]);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 1.0, 0.2, 0.3], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn map_and_stats() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.map(f32::abs).sum(), 6.0);
        assert_eq!(t.mean(), 2.0 / 3.0);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn debug_not_empty() {
        assert!(!format!("{:?}", Tensor::zeros(&[4, 4])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[1])).is_empty());
    }
}
