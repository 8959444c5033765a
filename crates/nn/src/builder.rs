//! Ergonomic construction of [`Graph`]s.

use crate::graph::{Graph, Node, Op, ValueId};
use ptq_tensor::ops::Conv2dParams;
use ptq_tensor::Tensor;
use std::collections::HashMap;

/// Incremental graph builder. Values are created by [`GraphBuilder::input`],
/// [`GraphBuilder::param`] and op methods; every op method appends a node in
/// execution order, so the resulting graph is topologically sorted by
/// construction.
///
/// ```
/// use ptq_nn::GraphBuilder;
/// use ptq_tensor::Tensor;
///
/// let mut b = GraphBuilder::new();
/// let x = b.input();
/// let w = b.param(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
/// let y = b.linear(x, w, None);
/// let y = b.relu(y);
/// let g = b.finish(vec![y]);
/// assert_eq!(g.nodes().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    params: HashMap<ValueId, Tensor>,
    inputs: Vec<ValueId>,
    next_value: ValueId,
    produced: Vec<bool>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh(&mut self, produced: bool) -> ValueId {
        let id = self.next_value;
        self.next_value += 1;
        self.produced.push(produced);
        id
    }

    /// Declare a graph input (an activation provided at run time).
    pub fn input(&mut self) -> ValueId {
        let id = self.fresh(true);
        self.inputs.push(id);
        id
    }

    /// Bind a parameter tensor, returning its value id.
    pub fn param(&mut self, t: Tensor) -> ValueId {
        let id = self.fresh(true);
        self.params.insert(id, t);
        id
    }

    fn push(&mut self, op: Op, inputs: Vec<ValueId>) -> ValueId {
        for &i in &inputs {
            assert!(
                i < self.next_value && self.produced[i],
                "input value {i} is not produced before this node"
            );
        }
        let output = self.fresh(true);
        let id = self.nodes.len();
        let name = format!("{}_{id}", op_slug(&op));
        self.nodes.push(Node {
            id,
            op,
            inputs,
            output,
            name,
        });
        output
    }

    /// Standard convolution node.
    pub fn conv2d(
        &mut self,
        x: ValueId,
        weight: ValueId,
        bias: Option<ValueId>,
        params: Conv2dParams,
    ) -> ValueId {
        self.push(
            Op::Conv2d {
                weight,
                bias,
                params,
                depthwise: false,
            },
            vec![x],
        )
    }

    /// Depthwise convolution node.
    pub fn depthwise_conv2d(
        &mut self,
        x: ValueId,
        weight: ValueId,
        bias: Option<ValueId>,
        params: Conv2dParams,
    ) -> ValueId {
        self.push(
            Op::Conv2d {
                weight,
                bias,
                params,
                depthwise: true,
            },
            vec![x],
        )
    }

    /// Fully-connected node.
    pub fn linear(&mut self, x: ValueId, weight: ValueId, bias: Option<ValueId>) -> ValueId {
        self.push(Op::Linear { weight, bias }, vec![x])
    }

    /// 2-D matmul of two activations.
    pub fn matmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::MatMul, vec![a, b])
    }

    /// Batched matmul of two activations.
    pub fn batch_matmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::BatchMatMul, vec![a, b])
    }

    /// Embedding lookup (ids arrive as the runtime input, cast from f32).
    pub fn embedding(&mut self, ids: ValueId, table: ValueId) -> ValueId {
        self.push(Op::Embedding { table }, vec![ids])
    }

    /// Inference BatchNorm; parameters are bound from `BatchNormParams`-like
    /// tensors.
    pub fn batchnorm(
        &mut self,
        x: ValueId,
        gamma: ValueId,
        beta: ValueId,
        mean: ValueId,
        var: ValueId,
        eps: f32,
    ) -> ValueId {
        self.push(
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            },
            vec![x],
        )
    }

    /// LayerNorm over the last dimension.
    pub fn layernorm(&mut self, x: ValueId, gamma: ValueId, beta: ValueId, eps: f32) -> ValueId {
        self.push(Op::LayerNorm { gamma, beta, eps }, vec![x])
    }

    /// Elementwise add.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::Add, vec![a, b])
    }

    /// Elementwise multiply.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(Op::Mul, vec![a, b])
    }

    /// Add a bound constant (e.g. positional embedding).
    pub fn add_param(&mut self, x: ValueId, param: ValueId) -> ValueId {
        self.push(Op::AddParam { param }, vec![x])
    }

    /// ReLU.
    pub fn relu(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Relu, vec![x])
    }

    /// GELU.
    pub fn gelu(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Gelu, vec![x])
    }

    /// SiLU.
    pub fn silu(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Silu, vec![x])
    }

    /// Sigmoid.
    pub fn sigmoid(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Sigmoid, vec![x])
    }

    /// Tanh.
    pub fn tanh(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Tanh, vec![x])
    }

    /// Softmax over the last dimension.
    pub fn softmax(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Softmax, vec![x])
    }

    /// Non-overlapping max pooling.
    pub fn max_pool(&mut self, x: ValueId, k: usize) -> ValueId {
        self.push(Op::MaxPool { k }, vec![x])
    }

    /// Non-overlapping average pooling.
    pub fn avg_pool(&mut self, x: ValueId, k: usize) -> ValueId {
        self.push(Op::AvgPool { k }, vec![x])
    }

    /// Global average pooling.
    pub fn global_avg_pool(&mut self, x: ValueId) -> ValueId {
        self.push(Op::GlobalAvgPool, vec![x])
    }

    /// Mean over rows of a 2-D tensor.
    pub fn mean_rows(&mut self, x: ValueId) -> ValueId {
        self.push(Op::MeanRows, vec![x])
    }

    /// Reshape to a fixed shape.
    pub fn reshape(&mut self, x: ValueId, shape: &[usize]) -> ValueId {
        self.push(Op::Reshape(shape.to_vec()), vec![x])
    }

    /// Permute axes.
    pub fn permute(&mut self, x: ValueId, perm: &[usize]) -> ValueId {
        self.push(Op::Permute(perm.to_vec()), vec![x])
    }

    /// Multiply by a constant.
    pub fn scale(&mut self, x: ValueId, s: f32) -> ValueId {
        self.push(Op::Scale(s), vec![x])
    }

    /// Nearest-neighbor 2× upsampling.
    pub fn upsample2x(&mut self, x: ValueId) -> ValueId {
        self.push(Op::Upsample2x, vec![x])
    }

    /// Causal mask over `[batch, seq, seq]` attention scores.
    pub fn causal_mask(&mut self, x: ValueId) -> ValueId {
        self.push(Op::CausalMask, vec![x])
    }

    /// Finish, declaring the graph outputs. Errors (via
    /// [`Graph::validate_structure`]) if the graph has no nodes, an output
    /// id was never produced, or an operator references an unbound
    /// parameter.
    pub fn build(self, outputs: Vec<ValueId>) -> Result<Graph, crate::error::PtqError> {
        let g = Graph::from_parts(
            self.nodes,
            self.params,
            self.inputs,
            outputs,
            self.next_value,
        );
        g.validate_structure()?;
        Ok(g)
    }

    /// Finish, declaring the graph outputs.
    ///
    /// # Panics
    ///
    /// Panics if an output id was never produced or the graph has no nodes.
    pub fn finish(self, outputs: Vec<ValueId>) -> Graph {
        assert!(!self.nodes.is_empty(), "graph has no nodes");
        for &o in &outputs {
            assert!(
                o < self.next_value && self.produced[o],
                "output value {o} is never produced"
            );
        }
        Graph::from_parts(
            self.nodes,
            self.params,
            self.inputs,
            outputs,
            self.next_value,
        )
    }
}

fn op_slug(op: &Op) -> &'static str {
    match op {
        Op::Conv2d {
            depthwise: false, ..
        } => "conv2d",
        Op::Conv2d {
            depthwise: true, ..
        } => "dwconv2d",
        Op::Linear { .. } => "linear",
        Op::MatMul => "matmul",
        Op::BatchMatMul => "batch_matmul",
        Op::Embedding { .. } => "embedding",
        Op::BatchNorm { .. } => "batchnorm",
        Op::LayerNorm { .. } => "layernorm",
        Op::Add => "add",
        Op::AddParam { .. } => "add_param",
        Op::Mul => "mul",
        Op::Relu => "relu",
        Op::Gelu => "gelu",
        Op::Silu => "silu",
        Op::Sigmoid => "sigmoid",
        Op::Tanh => "tanh",
        Op::Softmax => "softmax",
        Op::MaxPool { .. } => "max_pool",
        Op::AvgPool { .. } => "avg_pool",
        Op::GlobalAvgPool => "global_avg_pool",
        Op::MeanRows => "mean_rows",
        Op::Reshape(_) => "reshape",
        Op::Permute(_) => "permute",
        Op::Scale(_) => "scale",
        Op::Upsample2x => "upsample2x",
        Op::CausalMask => "causal_mask",
    }
}
