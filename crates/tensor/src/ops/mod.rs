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
pub use operand::{ActOperand, WeightOperand};
pub use pool::{
    avg_pool2d, avg_pool2d_into, global_avg_pool2d, global_avg_pool2d_into, max_pool2d,
    max_pool2d_into,
};

use ptq_fp8::WireEnum;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which implementation every MAC kernel runs — conv2d, depthwise,
/// linear, matmul, batch_matmul and the attention steps — whatever its
/// operands: the path alone chooses, f32 and FP8 operands alike.
///
/// Both paths are bit-identical by construction: the blocked kernels keep
/// the reference's accumulation chain per output element and differ only
/// in which independent outputs advance together and in data staging (the
/// `blocked` module's header). Enforced zoo-wide (`plan_equivalence.rs`)
/// and per operand mix (`kernel_path_equivalence.rs`), so a divergence is
/// one flag away from bisectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPath {
    /// Register-blocked micro-kernels (the default): operands packed once
    /// per call (f32 copied, codes through `decode(code) / scale`, 8 lanes
    /// at a time with AVX2) into per-thread panels of 8 outputs, run by
    /// 4-row (conv: 4-pixel) × 8- or 16-output register tiles. With AVX2,
    /// fewer than 4 rows against an FP8 weight, and both attention steps
    /// against any K/V cache, read it in place, nothing staged; without
    /// AVX2 the attention steps run the reference loop (no host measured).
    #[default]
    Blocked,
    /// The straightforward loop nests the blocked kernels are verified
    /// against, kept as the semantics oracle only.
    ScalarReference,
}

ptq_fp8::wire_enum!(KernelPath { Blocked => "blocked", ScalarReference => "scalar-reference" });

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
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
    if macs < PAR_MACS_MIN {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
    } else {
        data.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    }
}
