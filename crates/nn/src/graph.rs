//! The model graph: nodes, operators and parameter storage.

use crate::error::PtqError;
use ptq_tensor::ops::{Conv2dParams, WeightOperand};
use ptq_tensor::{QTensor, Tensor};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a value (an edge) in the graph. Values are produced either
/// by graph inputs, bound parameters, or node outputs.
pub type ValueId = usize;

/// Identifier of a node, equal to its index in [`Graph::nodes`] order.
pub type NodeId = usize;

/// Upper bound on parameters any single operator references (BatchNorm's
/// gamma/beta/mean/var is the maximum).
pub(crate) const MAX_OP_PARAMS: usize = 4;

/// An operator. Parameter tensors (weights, scales, tables) are referenced
/// by [`ValueId`] into the graph's parameter store so that quantization
/// hooks can intercept them uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// 2-D convolution (optionally depthwise) over NCHW input.
    Conv2d {
        /// Weight `[Cout, Cin, Kh, Kw]` (or `[C, 1, Kh, Kw]` when depthwise).
        weight: ValueId,
        /// Optional bias `[Cout]`.
        bias: Option<ValueId>,
        /// Stride/padding.
        params: Conv2dParams,
        /// True for channel-wise (depthwise) convolution.
        depthwise: bool,
    },
    /// Fully-connected layer, weight stored `[out_features, in_features]`.
    Linear {
        /// Weight value.
        weight: ValueId,
        /// Optional bias `[out_features]`.
        bias: Option<ValueId>,
    },
    /// 2-D matrix multiply of two activations.
    MatMul,
    /// Batched (3-D) matrix multiply of two activations.
    BatchMatMul,
    /// Embedding lookup; the single runtime input carries token ids as f32.
    Embedding {
        /// Table `[vocab, dim]`.
        table: ValueId,
    },
    /// Inference BatchNorm with learned affine + running stats.
    BatchNorm {
        /// γ `[C]`.
        gamma: ValueId,
        /// β `[C]`.
        beta: ValueId,
        /// Running mean `[C]` — re-estimated by BatchNorm calibration.
        mean: ValueId,
        /// Running variance `[C]`.
        var: ValueId,
        /// Stability epsilon.
        eps: f32,
    },
    /// LayerNorm over the last dimension.
    LayerNorm {
        /// γ `[D]`.
        gamma: ValueId,
        /// β `[D]`.
        beta: ValueId,
        /// Stability epsilon.
        eps: f32,
    },
    /// Broadcasting elementwise add of two activations.
    Add,
    /// Broadcasting elementwise multiply of two activations.
    Mul,
    /// Add a bound constant tensor (e.g. positional embeddings).
    AddParam {
        /// The constant to add (broadcast like [`Op::Add`]).
        param: ValueId,
    },
    /// ReLU activation.
    Relu,
    /// GELU activation (tanh approximation).
    Gelu,
    /// SiLU / swish activation.
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the last dimension.
    Softmax,
    /// Non-overlapping max pooling with square window.
    MaxPool {
        /// Window size (= stride).
        k: usize,
    },
    /// Non-overlapping average pooling with square window.
    AvgPool {
        /// Window size (= stride).
        k: usize,
    },
    /// Global average pooling `[N,C,H,W]` → `[N,C]`.
    GlobalAvgPool,
    /// Mean over rows of a 2-D tensor → `[1, D]` (sequence pooling head).
    MeanRows,
    /// Reshape to a fixed shape.
    Reshape(Vec<usize>),
    /// Generalized transpose.
    Permute(Vec<usize>),
    /// Multiply by a compile-time constant (e.g. attention 1/sqrt(d)).
    Scale(f32),
    /// Nearest-neighbor 2× spatial upsampling of NCHW input (U-Net
    /// decoder path).
    Upsample2x,
    /// Causal attention mask: sets entry `[.., i, j]` with `j > i` of a
    /// `[batch, seq, seq]` score tensor to a large negative value before
    /// softmax (decoder-only models).
    CausalMask,
}

/// Coarse operator classification used by quantization recipes: the
/// paper's standard scheme quantizes `{Conv2d, Linear, Embedding}`, the
/// extended scheme adds `{MatMul, BatchMatMul, BatchNorm, LayerNorm, Add,
/// Mul}`, and `Other` is never quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Standard-scheme compute op.
    Conv2d,
    /// Standard-scheme compute op.
    Linear,
    /// Extended-scheme compute op.
    MatMul,
    /// Extended-scheme compute op.
    BatchMatMul,
    /// Standard-scheme memory op.
    Embedding,
    /// Extended-scheme memory op.
    BatchNorm,
    /// Extended-scheme memory op.
    LayerNorm,
    /// Extended-scheme elementwise op.
    Add,
    /// Extended-scheme elementwise op.
    Mul,
    /// Never quantized (activations, softmax, pooling, shapes).
    Other,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Conv2d => "Conv2d",
            OpClass::Linear => "Linear",
            OpClass::MatMul => "MatMul",
            OpClass::BatchMatMul => "BatchMatMul",
            OpClass::Embedding => "Embedding",
            OpClass::BatchNorm => "BatchNorm",
            OpClass::LayerNorm => "LayerNorm",
            OpClass::Add => "Add",
            OpClass::Mul => "Mul",
            OpClass::Other => "Other",
        };
        f.write_str(s)
    }
}

impl Op {
    /// The op's quantization class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Conv2d { .. } => OpClass::Conv2d,
            Op::Linear { .. } => OpClass::Linear,
            Op::MatMul => OpClass::MatMul,
            Op::BatchMatMul => OpClass::BatchMatMul,
            Op::Embedding { .. } => OpClass::Embedding,
            Op::BatchNorm { .. } => OpClass::BatchNorm,
            Op::LayerNorm { .. } => OpClass::LayerNorm,
            Op::Add | Op::AddParam { .. } => OpClass::Add,
            Op::Mul => OpClass::Mul,
            _ => OpClass::Other,
        }
    }

    /// The parameter value id holding this op's *quantizable weight*
    /// (convolution/linear weight or embedding table), if any. Biases and
    /// norm affine parameters are not quantized, matching the paper's
    /// schemes.
    pub fn weight_value(&self) -> Option<ValueId> {
        match self {
            Op::Conv2d { weight, .. } | Op::Linear { weight, .. } => Some(*weight),
            Op::Embedding { table } => Some(*table),
            _ => None,
        }
    }

    /// All parameter value ids this op reads.
    pub fn param_values(&self) -> Vec<ValueId> {
        let (ids, n) = self.param_ids();
        ids[..n].to_vec()
    }

    /// [`Op::param_values`] without the allocation: the ids in a fixed
    /// array plus how many are in use. The quantizable weight
    /// ([`Op::weight_value`]), when the op has one, is slot 0.
    pub(crate) fn param_ids(&self) -> ([ValueId; MAX_OP_PARAMS], usize) {
        match *self {
            Op::Conv2d { weight, bias, .. } | Op::Linear { weight, bias } => match bias {
                Some(b) => ([weight, b, 0, 0], 2),
                None => ([weight, 0, 0, 0], 1),
            },
            Op::Embedding { table } => ([table, 0, 0, 0], 1),
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                ..
            } => ([gamma, beta, mean, var], 4),
            Op::LayerNorm { gamma, beta, .. } => ([gamma, beta, 0, 0], 2),
            Op::AddParam { param } => ([param, 0, 0, 0], 1),
            _ => ([0; MAX_OP_PARAMS], 0),
        }
    }
}

/// A bound parameter: dense f32, or FP8 codes with their scales. A
/// quantized model's Conv2d/Linear weights are stored FP8 in place of their
/// f32 tensors ([`Graph::validate_structure`] admits FP8 nowhere else);
/// every other parameter, fake-quantized or not, is f32.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// A dense f32 tensor.
    F32(Tensor),
    /// FP8 codes with per-tensor or per-channel scales, run by the fused
    /// dequant kernels.
    Fp8(QTensor),
}

impl Param {
    /// Shape of the parameter.
    pub fn shape(&self) -> &[usize] {
        match self {
            Param::F32(t) => t.shape(),
            Param::Fp8(q) => q.shape(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// Whether the parameter has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `i`. Panics if `i` is out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.shape()[i]
    }

    /// The dense tensor, unless the parameter is FP8-stored.
    pub fn as_f32(&self) -> Option<&Tensor> {
        match self {
            Param::F32(t) => Some(t),
            Param::Fp8(_) => None,
        }
    }

    /// The parameter as the kernels take it.
    pub(crate) fn operand(&self) -> WeightOperand<'_> {
        match self {
            Param::F32(t) => WeightOperand::F32(t),
            Param::Fp8(q) => WeightOperand::Q(q),
        }
    }

    /// Resident bytes: 4 per element as f32, codes plus scales as FP8.
    pub fn stored_bytes(&self) -> usize {
        match self {
            Param::F32(t) => t.len() * std::mem::size_of::<f32>(),
            Param::Fp8(q) => q.storage_bytes(),
        }
    }
}

impl From<Tensor> for Param {
    fn from(t: Tensor) -> Self {
        Param::F32(t)
    }
}

impl From<QTensor> for Param {
    fn from(q: QTensor) -> Self {
        Param::Fp8(q)
    }
}

/// A node: one operator application, reading activation `inputs` and
/// writing a single `output` value.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Index of this node in execution order.
    pub id: NodeId,
    /// The operator.
    pub op: Op,
    /// Activation inputs (parameters are referenced inside `op`).
    pub inputs: Vec<ValueId>,
    /// Output value id.
    pub output: ValueId,
    /// Human-readable unique name, e.g. `conv2d_3`.
    pub name: String,
}

/// A topologically-ordered model graph with bound parameters.
///
/// Build with [`crate::GraphBuilder`]; execute with [`Graph::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) params: HashMap<ValueId, Param>,
    pub(crate) inputs: Vec<ValueId>,
    pub(crate) outputs: Vec<ValueId>,
    pub(crate) n_values: usize,
}

impl Graph {
    /// Assemble a graph directly from raw parts, with **no validity
    /// checks**. [`crate::GraphBuilder`] is the checked construction path;
    /// this escape hatch exists so tests and loaders can materialize
    /// deliberately malformed graphs and exercise [`Graph::validate`].
    pub fn from_parts<P: Into<Param>>(
        nodes: Vec<Node>,
        params: impl IntoIterator<Item = (ValueId, P)>,
        inputs: Vec<ValueId>,
        outputs: Vec<ValueId>,
        n_values: usize,
    ) -> Self {
        Graph {
            nodes,
            params: params.into_iter().map(|(id, p)| (id, p.into())).collect(),
            inputs,
            outputs,
            n_values,
        }
    }

    /// Nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Graph input value ids, in declaration order.
    pub fn input_ids(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Graph output value ids.
    pub fn output_ids(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Total number of value slots (inputs + params + node outputs).
    pub fn n_values(&self) -> usize {
        self.n_values
    }

    /// A bound parameter.
    pub fn param(&self, id: ValueId) -> Option<&Param> {
        self.params.get(&id)
    }

    /// Replace a bound parameter: BatchNorm calibration rewrites running
    /// statistics, and quantization writes each quantized weight here in
    /// place of its f32 tensor (FP8-stored or fake-quantized f32), so a
    /// quantized model holds one copy of each weight. Errors if `id` is
    /// not a bound parameter.
    pub fn set_param(&mut self, id: ValueId, p: impl Into<Param>) -> Result<(), PtqError> {
        let old = self.params.get_mut(&id).ok_or(PtqError::InvalidTarget {
            detail: format!("value {id} is not a bound parameter"),
        })?;
        *old = p.into();
        Ok(())
    }

    /// Iterate over `(ValueId, &Param)` parameter bindings.
    pub fn params(&self) -> impl Iterator<Item = (ValueId, &Param)> {
        self.params.iter().map(|(&k, v)| (k, v))
    }

    /// Total number of parameter scalars (for the Figure-5 size classes).
    pub fn param_count(&self) -> usize {
        self.params.values().map(Param::len).sum()
    }

    /// Model size in MB assuming FP32 storage (4 bytes/param), the unit
    /// Figure 5 buckets by.
    pub fn size_mb(&self) -> f64 {
        self.param_count() as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// Ids of nodes of a given class, in execution order.
    pub fn nodes_of_class(&self, class: OpClass) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.op.class() == class)
            .map(|n| n.id)
            .collect()
    }

    /// The first and last *compute* (Conv2d/Linear) nodes — the operators
    /// the paper keeps in high precision for convolutional networks (§3.1).
    pub fn first_last_compute(&self) -> (Option<NodeId>, Option<NodeId>) {
        let mut first = None;
        let mut last = None;
        for n in &self.nodes {
            if matches!(n.op.class(), OpClass::Conv2d | OpClass::Linear) {
                if first.is_none() {
                    first = Some(n.id);
                }
                last = Some(n.id);
            }
        }
        (first, last)
    }

    /// Parameter `value` of `node` as an f32 tensor: an unbound or
    /// FP8-stored one is a typed error.
    pub fn f32_param(&self, node: &Node, value: ValueId) -> Result<&Tensor, PtqError> {
        let node = || node.name.clone();
        match self.params.get(&value) {
            Some(Param::F32(t)) => Ok(t),
            Some(Param::Fp8(_)) => Err(PtqError::Fp8Param {
                value,
                node: node(),
            }),
            None => Err(PtqError::UnboundParam {
                value,
                node: node(),
            }),
        }
    }
}
