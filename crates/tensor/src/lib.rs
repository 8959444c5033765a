//! # ptq-tensor — compute substrate for the FP8 PTQ study
//!
//! A deliberately small dense-tensor library providing exactly what
//! post-training quantization needs:
//!
//! * a contiguous row-major `f32` [`Tensor`] with shape/reshape/permute and
//!   broadcasting elementwise arithmetic,
//! * reference (and rayon-parallel) kernels for the operator set the paper
//!   quantizes — `Conv2d`, `Linear`/`MatMul`/`BatchMatMul`, `Embedding`,
//!   `BatchNorm`, `LayerNorm`, `Add`, `Mul` — plus the non-quantized glue
//!   (activations, softmax, pooling),
//! * the observer statistics PTQ calibration is built from (absmax, min/max,
//!   percentiles, histograms, MSE/SQNR),
//! * seeded random initializers used by the synthetic model zoo.
//!
//! The paper's experiments ran FP8 *emulation* on FP32 hardware; this crate
//! is the FP32 side of that emulation.

pub mod act;
pub mod kv;
pub mod ops;
pub mod qtensor;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use act::{fake_quant_per_tile, tile_scale, ActDecode, ActScale, QActTensor};
pub use kv::{KvBuf, KvCache, KvCachePolicy, KvError, KvLayer, KvSide};
pub use qtensor::QTensor;
pub use rng::TensorRng;
pub use shape::{Shape, ShapeError};
pub use stats::{Histogram, TensorStats};
pub use tensor::Tensor;

// The storage format every coded type here is parameterized by, the
// fake-quant loops an f32 activation binding runs and the overflow-checked
// shape/length test, so dependents that only name them need no direct
// `ptq-fp8` edge.
pub use ptq_fp8::{
    check_shape, fake_quant_fp8, fake_quant_int8, Fp8Codec, Fp8Format, Int8Codec, Int8Mode,
};
