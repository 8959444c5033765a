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
pub use attn::{attention_step_q, attention_step_v};
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

/// Which implementation [`conv2d_into`] and [`linear_into`] run through
/// when the weight is FP8-stored, and [`matmul_into`] when both operands
/// are coded (every other operand mix has only the reference loop).
///
/// Both paths are bit-identical by construction — the blocked kernels keep
/// the scalar reference's accumulation chain per output element and differ
/// only in which independent outputs advance together and in data staging
/// (the argument is the `blocked` module's header). The equivalence is
/// enforced zoo-wide (`plan_equivalence.rs`) and property-tested across
/// formats/granularities/ragged shapes (`kernel_path_equivalence.rs`), so
/// any future divergence is one flag away from bisectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPath {
    /// Register-blocked, cache-tiled micro-kernels (the default): coded
    /// operands streamed once per call through `decode(code) / scale`
    /// into reusable per-thread panels of 8 outputs; matmul, linear and
    /// conv run 4-row (conv: 4-pixel) × 8- or 16-output register tiles.
    #[default]
    Blocked,
    /// The straightforward triple-loop reference the blocked kernels are
    /// verified against. Kept permanently as the semantics oracle.
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
    match dims {
        Ok(d) => d,
        Err(e) => panic!("{e}"),
    }
}

/// Multiply-accumulate count below which a chunked kernel loop runs on
/// the calling thread instead of fanning out. The workspace's `rayon` is
/// a scoped-thread stand-in that spawns OS threads per call, so a small
/// operator (a narrow Linear, an attention head) pays far more in
/// spawn/join than the split recovers; above the cutoff the split cost is
/// noise. Serial and parallel execute the same per-chunk closure over the
/// same disjoint chunks, so the choice is bit-invisible.
const PAR_MACS_MIN: usize = 1 << 20;

/// Run `f(chunk_index, chunk)` over `data` split into `chunk`-sized
/// pieces — in parallel when `macs` (the kernel's total
/// multiply-accumulate count) is large enough to amortize the fan-out,
/// serially otherwise. Bit-identical either way.
pub(crate) fn for_each_chunk(
    data: &mut [f32],
    chunk: usize,
    macs: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    // Degenerate outputs (any dim 0) have nothing to compute; without
    // this guard `chunks_mut(0)` would panic when the chunk extent is a
    // product involving a zero dim.
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
