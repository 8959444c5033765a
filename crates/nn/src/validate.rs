//! Graph validation and shape inference: the checks that make
//! [`Graph::run`](crate::Graph::run) panic-free.
//!
//! The contract is *validate-then-run*: [`Graph::validate`] walks the node
//! list once, proving input arity, parameter binding and storage,
//! def-before-use, and
//! every operator's shape preconditions (via [`ptq_tensor::shape`]) before
//! a single kernel executes. Execution after a successful validation can
//! only fail on *data-dependent* contracts (embedding id values), which the
//! interpreter checks itself.

use crate::error::{PtqError, Shape};
use crate::graph::{Graph, Node, Op, ValueId};
use ptq_tensor::shape;

impl Graph {
    /// Structural validation that needs no input shapes: the graph is
    /// non-empty, every parameter an operator references is bound, only a
    /// Conv2d or Linear weight is FP8-stored (the fused kernels read no
    /// other parameter as codes), every
    /// activation input of every node is defined (by a graph input, a
    /// parameter, or an earlier node) before use, and every declared
    /// output is produced.
    pub fn validate_structure(&self) -> Result<(), PtqError> {
        if self.nodes.is_empty() {
            return Err(PtqError::EmptyGraph);
        }
        let mut produced = vec![false; self.n_values];
        for &i in &self.inputs {
            *produced
                .get_mut(i)
                .ok_or(PtqError::UnproducedOutput { value: i })? = true;
        }
        for &i in self.params.keys() {
            if let Some(p) = produced.get_mut(i) {
                *p = true;
            }
        }
        for node in &self.nodes {
            for &i in &node.inputs {
                if !produced.get(i).copied().unwrap_or(false) {
                    return Err(PtqError::UseBeforeDef {
                        value: i,
                        node: node.name.clone(),
                    });
                }
            }
            // Only a Conv2d/Linear weight (`param_ids` slot 0) may be FP8.
            let fused = matches!(node.op, Op::Conv2d { .. } | Op::Linear { .. });
            let (ids, n) = node.op.param_ids();
            for (slot, &value) in ids[..n].iter().enumerate() {
                if !(fused && slot == 0 && self.params.contains_key(&value)) {
                    self.f32_param(node, value)?;
                }
            }
            if let Some(slot) = produced.get_mut(node.output) {
                *slot = true;
            } else {
                return Err(PtqError::UnproducedOutput { value: node.output });
            }
        }
        for &o in &self.outputs {
            if !produced.get(o).copied().unwrap_or(false) {
                return Err(PtqError::UnproducedOutput { value: o });
            }
        }
        Ok(())
    }

    /// Full validation pass: [`Graph::validate_structure`] plus shape
    /// inference of every node over the given runtime input shapes.
    /// Returns the inferred output shapes on success; the first violated
    /// arity/binding/shape rule otherwise.
    pub fn validate(&self, inputs: &[Shape]) -> Result<Vec<Shape>, PtqError> {
        let shapes = self.value_shapes(inputs)?;
        Ok(self
            .outputs
            .iter()
            .map(|&o| shapes[o].clone().unwrap_or_default())
            .collect())
    }

    /// The full per-value shape table behind [`Graph::validate`]: runs the
    /// same structural + shape checks and returns the inferred shape of
    /// *every* value (indexed by `ValueId`). The planner uses this to size
    /// arena slots ahead of time; evaluation, to count the activation bytes
    /// a batch carries across quantized op boundaries.
    pub fn value_shapes(&self, inputs: &[Shape]) -> Result<Vec<Option<Shape>>, PtqError> {
        if inputs.len() != self.inputs.len() {
            return Err(PtqError::InputArity {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        self.validate_structure()?;
        let mut shapes: Vec<Option<Shape>> = vec![None; self.n_values];
        for (&id, s) in self.inputs.iter().zip(inputs) {
            shapes[id] = Some(s.clone());
        }
        for (&id, p) in &self.params {
            shapes[id] = Some(p.shape().to_vec());
        }
        for node in &self.nodes {
            let out = self.infer_node_shape(node, &shapes)?;
            shapes[node.output] = Some(out);
        }
        Ok(shapes)
    }

    /// Shape-infer one node. `shapes` must already hold the shapes of the
    /// node's inputs and of all bound parameters (guaranteed after
    /// [`Graph::validate_structure`]).
    pub(crate) fn infer_node_shape(
        &self,
        node: &Node,
        shapes: &[Option<Shape>],
    ) -> Result<Shape, PtqError> {
        let shape_err = |e: shape::ShapeError| PtqError::ShapeMismatch {
            node: node.name.clone(),
            detail: e.0,
        };
        let arity = |n: usize| -> Result<(), PtqError> {
            if node.inputs.len() != n {
                return Err(PtqError::ShapeMismatch {
                    node: node.name.clone(),
                    detail: format!(
                        "operator takes {n} activation inputs, node lists {}",
                        node.inputs.len()
                    ),
                });
            }
            Ok(())
        };
        let ins: Vec<&[usize]> = node
            .inputs
            .iter()
            .map(|&i| shapes[i].as_deref().unwrap_or(&[]))
            .collect();
        let pshape =
            |id: ValueId| -> &[usize] { shapes.get(id).and_then(|s| s.as_deref()).unwrap_or(&[]) };

        let out = match &node.op {
            Op::Conv2d {
                weight,
                bias,
                params,
                depthwise,
            } => {
                arity(1)?;
                shape::conv2d_shape(
                    ins[0],
                    pshape(*weight),
                    bias.map(pshape),
                    *params,
                    *depthwise,
                )
                .map_err(shape_err)?
            }
            Op::Linear { weight, bias } => {
                arity(1)?;
                shape::linear_shape(ins[0], pshape(*weight), bias.map(pshape)).map_err(shape_err)?
            }
            Op::MatMul => {
                arity(2)?;
                shape::matmul_shape(ins[0], ins[1]).map_err(shape_err)?
            }
            Op::BatchMatMul => {
                arity(2)?;
                shape::batch_matmul_shape(ins[0], ins[1]).map_err(shape_err)?
            }
            Op::Embedding { table } => {
                arity(1)?;
                let n_ids = ins[0].iter().product();
                shape::embedding_shape(pshape(*table), n_ids).map_err(shape_err)?
            }
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                ..
            } => {
                arity(1)?;
                shape::batchnorm2d_shape(
                    ins[0],
                    pshape(*gamma),
                    pshape(*beta),
                    pshape(*mean),
                    pshape(*var),
                )
                .map_err(shape_err)?
            }
            Op::LayerNorm { gamma, beta, .. } => {
                arity(1)?;
                shape::layernorm_shape(ins[0], pshape(*gamma), pshape(*beta)).map_err(shape_err)?
            }
            Op::Add | Op::Mul => {
                arity(2)?;
                shape::broadcast_shape(ins[0], ins[1]).map_err(shape_err)?
            }
            Op::AddParam { param } => {
                arity(1)?;
                shape::broadcast_shape(ins[0], pshape(*param)).map_err(shape_err)?
            }
            Op::Relu | Op::Gelu | Op::Silu | Op::Sigmoid | Op::Tanh | Op::Scale(_) => {
                arity(1)?;
                ins[0].to_vec()
            }
            Op::Softmax => {
                arity(1)?;
                shape::softmax_shape(ins[0]).map_err(shape_err)?
            }
            Op::MaxPool { k } | Op::AvgPool { k } => {
                arity(1)?;
                shape::pool2d_shape(ins[0], *k).map_err(shape_err)?
            }
            Op::GlobalAvgPool => {
                arity(1)?;
                shape::global_avg_pool2d_shape(ins[0]).map_err(shape_err)?
            }
            Op::MeanRows => {
                arity(1)?;
                shape::mean_rows_shape(ins[0]).map_err(shape_err)?
            }
            Op::Reshape(target) => {
                arity(1)?;
                shape::reshape_shape(ins[0], target).map_err(shape_err)?
            }
            Op::Permute(perm) => {
                arity(1)?;
                shape::permute_shape(ins[0], perm).map_err(shape_err)?
            }
            Op::Upsample2x => {
                arity(1)?;
                shape::upsample2x_shape(ins[0]).map_err(shape_err)?
            }
            Op::CausalMask => {
                arity(1)?;
                shape::causal_mask_shape(ins[0]).map_err(shape_err)?
            }
        };
        Ok(out)
    }
}
