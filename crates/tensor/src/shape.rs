//! Operator shape preconditions, surfaced as errors.
//!
//! Every kernel in [`crate::ops`] documents panicking preconditions; this
//! module states the same rules as pure functions over *shapes* that return
//! `Result`, so a graph executor can check an entire network once up front
//! and never hit a kernel assert mid-inference. Each function mirrors one
//! kernel: it validates the operand shapes and returns the output shape the
//! kernel would produce. The MAC kernels (conv, linear, matmul) run the
//! same rule as their one precondition block, through the allocation-free
//! `*_dims` forms, so graph validation and a direct kernel call cannot
//! disagree.

use crate::ops::Conv2dParams;
use std::fmt;

/// A tensor shape (dimension sizes, row-major).
pub type Shape = Vec<usize>;

/// A violated operator precondition, described for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError(pub String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ShapeError {}

fn err<T>(msg: String) -> Result<T, ShapeError> {
    Err(ShapeError(msg))
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// [`crate::ops::matmul`]: `[m,k] · [k,n] → [m,n]`.
pub fn matmul_shape(a: &[usize], b: &[usize]) -> Result<Shape, ShapeError> {
    matmul_dims(a, b).map(Shape::from)
}

pub(crate) fn matmul_dims(a: &[usize], b: &[usize]) -> Result<[usize; 2], ShapeError> {
    if a.len() != 2 {
        return err(format!("matmul lhs must be 2-D, got {a:?}"));
    }
    if b.len() != 2 {
        return err(format!("matmul rhs must be 2-D, got {b:?}"));
    }
    if a[1] != b[0] {
        return err(format!("matmul inner dims {} vs {}", a[1], b[0]));
    }
    Ok([a[0], b[1]])
}

/// [`crate::ops::batch_matmul`]: `[b,m,k] · [b,k,n] → [b,m,n]`.
pub fn batch_matmul_shape(a: &[usize], b: &[usize]) -> Result<Shape, ShapeError> {
    batch_matmul_dims(a, b).map(Shape::from)
}

pub(crate) fn batch_matmul_dims(a: &[usize], b: &[usize]) -> Result<[usize; 3], ShapeError> {
    if a.len() != 3 {
        return err(format!("batch_matmul lhs must be 3-D, got {a:?}"));
    }
    if b.len() != 3 {
        return err(format!("batch_matmul rhs must be 3-D, got {b:?}"));
    }
    if a[0] != b[0] {
        return err(format!("batch_matmul batch dims {} vs {}", a[0], b[0]));
    }
    if a[2] != b[1] {
        return err(format!("batch_matmul inner dims {} vs {}", a[2], b[1]));
    }
    Ok([a[0], a[1], b[2]])
}

/// [`crate::ops::linear`]: `[m,k] · [n,k]ᵀ (+ bias [n]) → [m,n]`.
pub fn linear_shape(
    x: &[usize],
    weight: &[usize],
    bias: Option<&[usize]>,
) -> Result<Shape, ShapeError> {
    linear_dims(x, weight, bias).map(Shape::from)
}

pub(crate) fn linear_dims(
    x: &[usize],
    weight: &[usize],
    bias: Option<&[usize]>,
) -> Result<[usize; 2], ShapeError> {
    if x.len() != 2 {
        return err(format!("linear input must be 2-D, got {x:?}"));
    }
    if weight.len() != 2 {
        return err(format!("linear weight must be 2-D, got {weight:?}"));
    }
    if x[1] != weight[1] {
        return err(format!(
            "linear in_features {} vs weight {}",
            x[1], weight[1]
        ));
    }
    if let Some(b) = bias {
        if numel(b) != weight[0] {
            return err(format!(
                "linear bias length {} vs out_features {}",
                numel(b),
                weight[0]
            ));
        }
    }
    Ok([x[0], weight[0]])
}

/// [`crate::ops::conv2d`] / [`crate::ops::depthwise_conv2d`]:
/// `[N,Cin,H,W] * [Cout,Cin,Kh,Kw] → [N,Cout,H',W']` (depthwise:
/// weight `[C,1,Kh,Kw]`, Cout = C).
pub fn conv2d_shape(
    x: &[usize],
    weight: &[usize],
    bias: Option<&[usize]>,
    p: Conv2dParams,
    depthwise: bool,
) -> Result<Shape, ShapeError> {
    conv2d_dims(x, weight, bias, p, depthwise).map(Shape::from)
}

pub(crate) fn conv2d_dims(
    x: &[usize],
    weight: &[usize],
    bias: Option<&[usize]>,
    p: Conv2dParams,
    depthwise: bool,
) -> Result<[usize; 4], ShapeError> {
    if x.len() != 4 {
        return err(format!("conv2d input must be NCHW, got {x:?}"));
    }
    if weight.len() != 4 {
        return err(format!("conv2d weight must be 4-D, got {weight:?}"));
    }
    let (n, cin, h, w) = (x[0], x[1], x[2], x[3]);
    let (cout, wcin, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
    if depthwise {
        if wcin != 1 {
            return err(format!("depthwise weight dim 1 must be 1, got {wcin}"));
        }
        if cout != cin {
            return err(format!("depthwise channels mismatch {cout} vs {cin}"));
        }
    } else if cin != wcin {
        return err(format!("conv2d channel mismatch {cin} vs {wcin}"));
    }
    if let Some(b) = bias {
        if numel(b) != cout {
            return err(format!(
                "conv2d bias length {} vs out channels {cout}",
                numel(b)
            ));
        }
    }
    if p.stride == 0 {
        return err("conv2d stride must be positive".into());
    }
    let oh = p.out_size(h, kh);
    let ow = p.out_size(w, kw);
    if h + 2 * p.padding < kh || w + 2 * p.padding < kw {
        return err(format!(
            "kernel {kh}x{kw} does not fit padded input {h}x{w} (pad {})",
            p.padding
        ));
    }
    Ok([n, cout, oh, ow])
}

/// [`crate::ops::embedding`]: table `[vocab, dim]`, `n_ids` lookups →
/// `[n_ids, dim]`. Id *values* are data-dependent and checked at run time.
pub fn embedding_shape(table: &[usize], n_ids: usize) -> Result<Shape, ShapeError> {
    if table.len() != 2 {
        return err(format!("embedding table must be 2-D, got {table:?}"));
    }
    Ok(vec![n_ids, table[1]])
}

/// [`crate::ops::batchnorm2d`]: NCHW input, per-channel parameter vectors
/// of length C.
pub fn batchnorm2d_shape(
    x: &[usize],
    gamma: &[usize],
    beta: &[usize],
    mean: &[usize],
    var: &[usize],
) -> Result<Shape, ShapeError> {
    if x.len() != 4 {
        return err(format!("batchnorm2d expects NCHW, got {x:?}"));
    }
    let c = x[1];
    for (name, s) in [
        ("gamma", gamma),
        ("beta", beta),
        ("mean", mean),
        ("var", var),
    ] {
        if numel(s) != c {
            return err(format!(
                "batchnorm {name} length {} vs {c} channels",
                numel(s)
            ));
        }
    }
    Ok(x.to_vec())
}

/// [`crate::ops::layernorm`]: affine vectors must match the last dimension.
pub fn layernorm_shape(x: &[usize], gamma: &[usize], beta: &[usize]) -> Result<Shape, ShapeError> {
    let Some(&d) = x.last() else {
        return err("layernorm needs >=1-D input".into());
    };
    if numel(gamma) != d {
        return err(format!(
            "layernorm gamma length {} vs dim {d}",
            numel(gamma)
        ));
    }
    if numel(beta) != d {
        return err(format!("layernorm beta length {} vs dim {d}", numel(beta)));
    }
    Ok(x.to_vec())
}

/// [`crate::Tensor::zip_broadcast`] compatibility: `small` must equal
/// `big`, or (after stripping trailing 1s) match a window of `big`'s
/// trailing dims. Output shape is `big`.
pub fn broadcast_shape(big: &[usize], small: &[usize]) -> Result<Shape, ShapeError> {
    if big == small {
        return Ok(big.to_vec());
    }
    if small.len() > big.len() {
        return err(format!(
            "broadcast shape {small:?} has higher rank than {big:?}"
        ));
    }
    // Strip trailing 1s from the small shape (channel-broadcast pattern).
    let mut eff = small;
    while let Some((&1, rest)) = eff.split_last() {
        eff = rest;
    }
    let stripped = small.len() - eff.len();
    let end = big.len() - stripped;
    if eff.len() > end || &big[end - eff.len()..end] != eff {
        return err(format!(
            "broadcast shape {small:?} incompatible with {big:?}"
        ));
    }
    Ok(big.to_vec())
}

/// [`crate::ops::softmax_lastdim`] (shape-preserving; needs >= 1-D).
pub fn softmax_shape(x: &[usize]) -> Result<Shape, ShapeError> {
    if x.is_empty() {
        return err("softmax needs >=1-D input".into());
    }
    Ok(x.to_vec())
}

/// [`crate::ops::max_pool2d`] / [`crate::ops::avg_pool2d`]: NCHW input at
/// least as large as the (positive) window.
pub fn pool2d_shape(x: &[usize], k: usize) -> Result<Shape, ShapeError> {
    if x.len() != 4 {
        return err(format!("pool2d expects NCHW, got {x:?}"));
    }
    if k == 0 {
        return err("pooling window must be positive".into());
    }
    let (n, c, h, w) = (x[0], x[1], x[2], x[3]);
    if h < k || w < k {
        return err(format!("input {h}x{w} smaller than pooling window {k}"));
    }
    Ok(vec![n, c, h / k, w / k])
}

/// [`crate::ops::global_avg_pool2d`]: `[N,C,H,W] → [N,C]` with a non-empty
/// spatial extent (the mean of zero pixels is undefined).
pub fn global_avg_pool2d_shape(x: &[usize]) -> Result<Shape, ShapeError> {
    if x.len() != 4 {
        return err(format!("global_avg_pool2d expects NCHW, got {x:?}"));
    }
    if x[2] == 0 || x[3] == 0 {
        return err(format!("global_avg_pool2d over empty spatial dims {x:?}"));
    }
    Ok(vec![x[0], x[1]])
}

/// MeanRows: `[R,D] → [1,D]`.
pub fn mean_rows_shape(x: &[usize]) -> Result<Shape, ShapeError> {
    if x.len() != 2 {
        return err(format!("MeanRows expects a 2-D tensor, got {x:?}"));
    }
    Ok(vec![1, x[1]])
}

/// [`crate::Tensor::reshape`]: element counts must agree.
pub fn reshape_shape(x: &[usize], target: &[usize]) -> Result<Shape, ShapeError> {
    if numel(x) != numel(target) {
        return err(format!(
            "cannot reshape {x:?} ({} elems) to {target:?} ({} elems)",
            numel(x),
            numel(target)
        ));
    }
    Ok(target.to_vec())
}

/// [`crate::Tensor::permute`]: `perm` must be a permutation of `0..ndim`.
pub fn permute_shape(x: &[usize], perm: &[usize]) -> Result<Shape, ShapeError> {
    if perm.len() != x.len() {
        return err(format!(
            "permutation {perm:?} rank mismatch with shape {x:?}"
        ));
    }
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return err(format!("invalid permutation {perm:?}"));
        }
        seen[p] = true;
    }
    Ok(perm.iter().map(|&p| x[p]).collect())
}

/// Nearest-neighbor 2x upsampling: NCHW, spatial dims doubled.
pub fn upsample2x_shape(x: &[usize]) -> Result<Shape, ShapeError> {
    if x.len() != 4 {
        return err(format!("Upsample2x expects NCHW, got {x:?}"));
    }
    Ok(vec![x[0], x[1], 2 * x[2], 2 * x[3]])
}

/// Causal mask: `[batch, s1, s2]` score matrices with `s1 <= s2`.
///
/// The square case (`s1 == s2`) is the classic full-window decoder mask.
/// The rectangular case is *bottom-aligned*: the `s1` query rows are the
/// **last** `s1` positions of an `s2`-long key sequence, so row `i` may
/// attend keys `j <= i + (s2 - s1)`. The incremental decode step is the
/// `s1 == 1` corner, where the single (latest) query row re-masks nothing:
/// every already-emitted position stays visible.
pub fn causal_mask_shape(x: &[usize]) -> Result<Shape, ShapeError> {
    if x.len() != 3 {
        return err(format!("CausalMask expects [batch, s1, s2], got {x:?}"));
    }
    if x[1] > x[2] {
        return err(format!(
            "CausalMask expects s1 <= s2 (bottom-aligned rows), got {x:?}"
        ));
    }
    Ok(x.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_rules() {
        assert_eq!(matmul_shape(&[2, 3], &[3, 4]).unwrap(), vec![2, 4]);
        assert!(matmul_shape(&[2, 3], &[4, 2]).is_err());
        assert!(matmul_shape(&[2, 3, 1], &[3, 4]).is_err());
    }

    #[test]
    fn batch_matmul_rules() {
        assert_eq!(
            batch_matmul_shape(&[2, 4, 3], &[2, 3, 5]).unwrap(),
            vec![2, 4, 5]
        );
        assert!(batch_matmul_shape(&[2, 4, 3], &[3, 3, 5]).is_err());
        assert!(batch_matmul_shape(&[2, 4, 3], &[2, 4, 5]).is_err());
    }

    #[test]
    fn linear_rules() {
        assert_eq!(linear_shape(&[8, 4], &[10, 4], None).unwrap(), vec![8, 10]);
        assert_eq!(
            linear_shape(&[8, 4], &[10, 4], Some(&[10])).unwrap(),
            vec![8, 10]
        );
        assert!(linear_shape(&[8, 5], &[10, 4], None).is_err());
        assert!(linear_shape(&[8, 4], &[10, 4], Some(&[9])).is_err());
    }

    #[test]
    fn conv_rules() {
        let p = Conv2dParams::same(3);
        assert_eq!(
            conv2d_shape(&[1, 3, 8, 8], &[4, 3, 3, 3], None, p, false).unwrap(),
            vec![1, 4, 8, 8]
        );
        assert!(conv2d_shape(&[1, 2, 8, 8], &[4, 3, 3, 3], None, p, false).is_err());
        // Depthwise wants [C,1,Kh,Kw] with C matching the input.
        assert_eq!(
            conv2d_shape(&[1, 4, 8, 8], &[4, 1, 3, 3], None, p, true).unwrap(),
            vec![1, 4, 8, 8]
        );
        assert!(conv2d_shape(&[1, 4, 8, 8], &[3, 1, 3, 3], None, p, true).is_err());
        // Kernel larger than padded input.
        assert!(conv2d_shape(
            &[1, 1, 2, 2],
            &[1, 1, 5, 5],
            None,
            Conv2dParams::default(),
            false
        )
        .is_err());
    }

    #[test]
    fn norm_rules() {
        assert!(batchnorm2d_shape(&[1, 4, 2, 2], &[4], &[4], &[4], &[4]).is_ok());
        assert!(batchnorm2d_shape(&[1, 4, 2, 2], &[3], &[4], &[4], &[4]).is_err());
        assert!(batchnorm2d_shape(&[4, 4], &[4], &[4], &[4], &[4]).is_err());
        assert!(layernorm_shape(&[2, 6], &[6], &[6]).is_ok());
        assert!(layernorm_shape(&[2, 6], &[5], &[6]).is_err());
    }

    #[test]
    fn broadcast_rules() {
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shape(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(
            broadcast_shape(&[1, 2, 4, 4], &[2, 1, 1]).unwrap(),
            vec![1, 2, 4, 4]
        );
        assert!(broadcast_shape(&[2, 3], &[2]).is_err());
        assert!(broadcast_shape(&[3], &[2, 3]).is_err());
    }

    #[test]
    fn pool_and_shape_ops() {
        assert_eq!(pool2d_shape(&[1, 1, 5, 5], 2).unwrap(), vec![1, 1, 2, 2]);
        assert!(pool2d_shape(&[1, 1, 1, 5], 2).is_err());
        assert!(pool2d_shape(&[1, 5, 5], 2).is_err());
        assert_eq!(global_avg_pool2d_shape(&[2, 3, 4, 4]).unwrap(), vec![2, 3]);
        assert!(global_avg_pool2d_shape(&[2, 3, 0, 4]).is_err());
        assert_eq!(reshape_shape(&[2, 6], &[3, 4]).unwrap(), vec![3, 4]);
        assert!(reshape_shape(&[2, 6], &[5]).is_err());
        assert_eq!(
            permute_shape(&[2, 3, 4], &[2, 0, 1]).unwrap(),
            vec![4, 2, 3]
        );
        assert!(permute_shape(&[2, 3, 4], &[0, 0, 1]).is_err());
        assert!(permute_shape(&[2, 3, 4], &[0, 1]).is_err());
        assert_eq!(causal_mask_shape(&[2, 4, 4]).unwrap(), vec![2, 4, 4]);
        // Bottom-aligned rectangular rows (incremental decode steps) are
        // legal; more query rows than keys is not.
        assert_eq!(causal_mask_shape(&[2, 4, 5]).unwrap(), vec![2, 4, 5]);
        assert_eq!(causal_mask_shape(&[2, 1, 7]).unwrap(), vec![2, 1, 7]);
        assert!(causal_mask_shape(&[2, 5, 4]).is_err());
        assert!(causal_mask_shape(&[4, 4]).is_err());
        assert_eq!(upsample2x_shape(&[1, 2, 3, 3]).unwrap(), vec![1, 2, 6, 6]);
        assert!(upsample2x_shape(&[2, 3, 3]).is_err());
        assert_eq!(mean_rows_shape(&[5, 7]).unwrap(), vec![1, 7]);
        assert!(mean_rows_shape(&[5, 7, 2]).is_err());
        assert_eq!(embedding_shape(&[10, 4], 3).unwrap(), vec![3, 4]);
        assert!(embedding_shape(&[10], 3).is_err());
        assert!(softmax_shape(&[]).is_err());
    }
}
