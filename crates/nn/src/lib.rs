//! # ptq-nn — graph IR and interpreter for PTQ
//!
//! Post-training quantization operates on a *model graph*: it observes the
//! tensors flowing between operators during calibration, replaces weights
//! with their quantized forms, and wraps selected operators' inputs with
//! quantize/dequantize steps. This crate provides the minimal substrate for
//! that, mirroring the role Neural Compressor's framework adaptors play in
//! the paper's stack:
//!
//! * [`Graph`] / [`Node`] / [`Op`] — a flat, topologically-ordered IR whose
//!   op set matches the paper's quantized-operator list (Conv2d, Linear,
//!   MatMul, BatchMatMul, Embedding, BatchNorm, LayerNorm, Add, Mul) plus
//!   FP32 glue (activations, softmax, pooling, reshapes). Each bound
//!   [`Param`] is f32 or, for a Conv2d/Linear weight only, FP8 codes the
//!   fused kernels read as they are.
//! * [`GraphBuilder`] — ergonomic construction.
//! * [`Graph::run`] with an [`ExecHook`] — execution with interception
//!   points *before* each node (observe/fake-quant inputs) and *after* it
//!   (observe outputs), plus one pure [`ExecHook::bind`] per node that
//!   returns its [`Binding`]: how its inputs are divided, fake-quantized or
//!   coded as FP8 at the boundary, the kernel path and the KV-cache
//!   format. Calibration and quantized inference are hooks, and BatchNorm
//!   re-estimation runs under one; a node always runs the weights its graph
//!   binds. `Graph::run` is the allocation-per-node reference loop the
//!   planned and incremental executors are verified against.
//! * [`Graph::validate`] + [`Graph::run`] / [`Graph::infer`] — the
//!   panic-free execution surface: arity, parameter binding, def-before-use
//!   and per-operator shape rules are proven up front and violations are
//!   reported as typed [`PtqError`]s, so one malformed model cannot take
//!   down a whole sweep. Use [`UnwrapOk::unwrap_ok`] where abort-on-error
//!   semantics are genuinely wanted.
//! * [`Graph::plan`] → [`ExecPlan`] — ahead-of-time planned execution:
//!   validation, scheduling and buffer-lifetime analysis happen once per
//!   (graph, input shape), then [`ExecPlan::run`] executes with
//!   arena-reused intermediates (zero intermediate-*tensor* allocations
//!   once warm — not zero heap allocations: the repo benchmark counts
//!   90–205 small ones per forward).
//!   Planned execution is bit-identical to [`Graph::run`] — all executors
//!   run each node through one shared path. [`PlanSet`] caches plans per
//!   input shape.
//! * [`Graph::plan_decode`] → [`DecodePlan`] + [`DecodeState`] —
//!   incremental autoregressive decoding: every token, prompt or
//!   generated, runs one step schedule against a per-layer
//!   [`ptq_tensor::KvCache`] (a generated token as one row, a prompt in
//!   blocks of rows, several sessions' tokens as one row each, all in the
//!   runner's [`StepBuffers`]), bit-identical (under an F32 cache) to
//!   re-running the full window.

pub mod builder;
pub mod decode;
pub mod error;
mod exec;
pub mod graph;
pub mod interp;
pub mod plan;
pub mod serialize;
pub mod validate;

pub use builder::GraphBuilder;
pub use decode::{DecodePlan, DecodeState, StepBuffers, PREFILL_ROWS};
pub use error::{PtqError, Shape, UnwrapOk};
pub use exec::{ActBinding, Binding, MAX_ACT_INPUTS};
pub use graph::{Graph, Node, NodeId, Op, OpClass, Param, ValueId};
pub use interp::{ExecHook, NoopHook, OnPath};
pub use plan::{reestimate_batchnorm, ExecPlan, PlanSet, TensorArena};
pub use serialize::{decode_graph, encode_graph};
