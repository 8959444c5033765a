//! Neural-network operator kernels.
//!
//! Each kernel is a pure function over [`crate::Tensor`]s. The set covers
//! the paper's quantized operators (Conv2d, Linear, MatMul, BatchMatMul,
//! Embedding, BatchNorm, LayerNorm, Add, Mul) and the FP32 glue ops that
//! surround them in real networks.

pub mod activation;
pub mod attn;
mod blocked;
pub mod conv;
pub mod embedding;
pub mod matmul;
pub mod norm;
mod operand;
pub mod pool;
pub(crate) mod scratch;

pub use activation::{
    gelu, gelu_into, relu, relu_into, sigmoid, sigmoid_into, silu, silu_into, softmax_lastdim,
    softmax_lastdim_into, tanh, tanh_into,
};
pub use attn::{attention_step_q, attention_step_v, KvSegments};
pub(crate) use blocked::encode;
pub use conv::{
    conv2d, conv2d_into, conv2d_qq_into, depthwise_conv2d, depthwise_conv2d_into, Conv2dParams,
};
pub use embedding::{embedding, embedding_into};
pub use matmul::{
    batch_matmul, batch_matmul_into, linear, linear_into, linear_qq_into, matmul, matmul_into,
    matmul_qq_into,
};
pub use norm::{
    batchnorm2d, batchnorm2d_into, batchnorm2d_parts_into, layernorm, layernorm_into,
    BatchNormParams,
};
pub use operand::{ActOperand, PackedWeight, WeightOperand};
pub use pool::{
    avg_pool2d, avg_pool2d_into, global_avg_pool2d, global_avg_pool2d_into, max_pool2d,
    max_pool2d_into,
};

use rayon::prelude::*;
use std::fmt;

/// Which implementation every MAC kernel runs — conv2d, depthwise,
/// linear, matmul, batch_matmul and the attention steps — whatever its
/// operands: the path alone chooses, f32 and FP8 operands alike.
///
/// Both paths are bit-identical by construction: the blocked kernels keep
/// the reference's accumulation chain per output element and differ only
/// in which independent outputs advance together and in data staging (the
/// `blocked` module's header). Enforced zoo-wide (`plan_equivalence.rs`)
/// and per operand mix (`kernel_path_equivalence.rs`). It is an oracle
/// switch, not part of any recipe: the graph executors read it from the
/// node's binding, and `ptq-nn`'s `OnPath` hook sets it for a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPath {
    /// Register-blocked micro-kernels (the default): operands packed once
    /// per call (f32 copied, codes through `decode(code) / scale`, 8 lanes
    /// at a time) into per-thread panels of 8 outputs, run by 4-row (conv:
    /// 4-pixel) × 8- or 16-output register tiles; fewer than 4 rows against
    /// an FP8 weight, and both attention steps against any K/V cache, read
    /// it in place. Each body is written once over 8 lanes: one AVX2
    /// register where the CPU has AVX2, an `[f32; 8]` elsewhere.
    #[default]
    Blocked,
    /// The straightforward loop nests the blocked kernels are verified
    /// against, kept as the semantics oracle only.
    ScalarReference,
}

/// The variant name, for the equivalence suites' failure messages.
impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The precondition block of a MAC kernel: the shape rule graph validation
/// enforces ([`crate::shape`]), re-raised as the kernel's documented panic.
/// Returns the output dims.
fn checked<const N: usize>(dims: Result<[usize; N], crate::shape::ShapeError>) -> [usize; N] {
    dims.unwrap_or_else(|e| panic!("{e}"))
}

/// Multiply-accumulate count below which a chunked kernel loop runs on
/// the calling thread. A fan-out on the persistent pool costs < 1 µs; two
/// threads beat one from ≈ 0.5 M MACs on conv, ≈ 2 M on a Linear (DESIGN.md
/// §13). Serial and parallel run the same closure over the same disjoint
/// chunks, so the choice is bit-invisible.
const PAR_MACS_MIN: usize = 1 << 20;

/// True when a kernel of `macs` multiply-accumulates fans its chunks out
/// on the pool ([`for_each_chunk`]'s rule, and the one reader of the
/// cutoff): an execution plan whose nodes all stay below it leaves the
/// pool to its callers.
pub fn fans_out(macs: usize) -> bool {
    macs >= PAR_MACS_MIN
}

/// Run `f(chunk_index, chunk)` over `data` split into `chunk`-sized
/// pieces — in parallel when `macs` (the kernel's total
/// multiply-accumulate count, or its cost in MACs) is large enough to
/// amortize the fan-out, serially otherwise. Bit-identical either way.
pub(crate) fn for_each_chunk<T: Send>(
    data: &mut [T],
    chunk: usize,
    macs: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    // Degenerate outputs (any dim 0): `chunks_mut(0)` would panic.
    if data.is_empty() || chunk == 0 {
        return;
    }
    if !fans_out(macs) {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
    } else {
        data.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    }
}

#[cfg(test)]
pub(crate) use blocked::tests::on_both_lanes;
