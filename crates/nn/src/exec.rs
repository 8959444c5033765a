//! The single shared per-node execution path.
//!
//! Every executor — the reference loop ([`Graph::run`](crate::Graph::run)),
//! the ahead-of-time planner ([`crate::ExecPlan`]) and the decode step
//! ([`crate::DecodeState`]) — runs a node through [`run_node`] on inputs
//! borrowed where they live: the [`ExecHook::bind`] lookup, the operands it
//! asks for (divided, fake-quantized or coded into pooled scratch; in place
//! otherwise), the operator's `*_into` kernel, then the read-only
//! `before_node` (the operands) and `after_node` (the output). Planned and incremental execution are therefore
//! bit-identical to the reference loop by construction: there is exactly
//! one implementation of the hook protocol and of every operator's
//! evaluation.

use crate::error::PtqError;
use crate::graph::{Graph, Node, Op, ValueId, MAX_OP_PARAMS};
use crate::interp::ExecHook;
use ptq_tensor::ops::{self, ActOperand, KernelPath, WeightOperand};
use ptq_tensor::{
    fake_quant_fp8, fake_quant_int8, fake_quant_per_tile, tile_scale, ActScale, Fp8Codec,
    Fp8Format, Int8Codec, Int8Mode, KvCachePolicy, QActTensor, QTensor, Tensor,
};

/// Upper bound on activation inputs a node can bind as FP8 codes
/// (MatMul's two operands is the maximum), and on any operator's
/// activation inputs.
pub const MAX_ACT_INPUTS: usize = 2;

/// What a node's quantizable weight ([`Op::weight_value`]: the Conv2d/
/// Linear weight or the Embedding table) executes as. Every other parameter
/// (biases, norm statistics, `AddParam` constants) always runs as bound in
/// the graph.
#[derive(Debug, Clone, Copy, Default)]
pub enum WeightBinding<'a> {
    /// The tensor bound in the graph.
    #[default]
    Graph,
    /// A borrowed f32 substitute (e.g. a fake-quantized weight).
    F32(&'a Tensor),
    /// An FP8-stored weight run by the fused dequant kernels; no f32 weight
    /// is materialized. Only Conv2d and Linear can execute one.
    Q(&'a QTensor),
}

/// How one activation input crosses the op boundary, after the binding's
/// divisors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ActBinding {
    /// As the dense f32 value.
    #[default]
    F32,
    /// As f32 rounded through `format` under `scale` and back
    /// (fake-quant): the values [`ActBinding::Coded`] carries, computed by
    /// the fp8 crate's fake-quant loops rather than the codes.
    FakeFp8 {
        /// Rounding format.
        format: Fp8Format,
        /// Scale layout.
        scale: ActScale,
    },
    /// As f32 rounded through INT8 under this codec, or under one
    /// calibrated asymmetrically from the value at hand when `None`.
    FakeInt8(Option<Int8Codec>),
    /// As FP8 codes: the executor quantizes the operand and runs the node
    /// through a code×code kernel, so the MAC loop never reads the dense
    /// input. Executable on input 0 of a non-depthwise Conv2d or a Linear
    /// whose weight is [`WeightBinding::Q`], and on both MatMul operands
    /// together.
    Coded {
        /// Code format.
        format: Fp8Format,
        /// Scale layout.
        scale: ActScale,
    },
}

/// Everything that changes how one node executes, decided by the hook in
/// a pure [`ExecHook::bind`] lookup. The default runs the graph as bound:
/// graph weights, f32 activations read in place, the default kernel path,
/// an f32 KV cache.
///
/// A binding the node cannot execute (a substitute on a node without a
/// weight slot, `Q` on an Embedding, a form on an input the node lacks,
/// codes without a code×code kernel, one-sided MatMul coding) fails the run
/// with [`PtqError::Internal`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Binding<'a> {
    /// What the node's quantizable weight executes as.
    pub weight: WeightBinding<'a>,
    /// Per-channel divisors of input 0 (SmoothQuant), applied before its
    /// [`ActBinding`]: element `j` of every last-axis row is divided by
    /// `divisors[j]` where that is positive. Ignored when the input's last
    /// dim is not their length.
    pub divisors: Option<&'a [f32]>,
    /// How each of the first [`MAX_ACT_INPUTS`] activation inputs crosses
    /// the boundary.
    pub acts: [ActBinding; MAX_ACT_INPUTS],
    /// Which implementation every MAC kernel (and the decode step's
    /// attention kernels) runs through; both are bit-identical.
    pub kernel_path: KernelPath,
    /// How incremental decode stores this node's output rows when they
    /// feed a KV cache (read once per K/V projection at prefill). An
    /// `Fp8 { scale: None }` policy is calibrated from the prefill rows.
    pub kv: KvCachePolicy,
}

/// Resolved parameters of one node, in [`Op::param_ids`] order, as the
/// weight views the kernels take.
struct ParamsRef<'a>([Option<WeightOperand<'a>>; MAX_OP_PARAMS]);

impl<'a> ParamsRef<'a> {
    fn get(&self, node: &Node, i: usize) -> Result<WeightOperand<'a>, PtqError> {
        self.0.get(i).copied().flatten().ok_or_else(|| {
            PtqError::Internal(format!("missing parameter {i} for node {}", node.name))
        })
    }

    /// Parameter `i` as a dense f32 tensor; a `Q` binding on an operator
    /// without a fused kernel is a hook protocol violation.
    fn get_f32(&self, node: &Node, i: usize) -> Result<&'a Tensor, PtqError> {
        match self.get(node, i)? {
            WeightOperand::F32(t) => Ok(t),
            WeightOperand::Q(_) => Err(PtqError::Internal(format!(
                "parameter {i} for node {} is FP8-stored but the operator needs f32",
                node.name
            ))),
        }
    }

    /// The optional bias in slot 1 of a Conv2d/Linear.
    fn bias(&self, node: &Node, bias: Option<ValueId>) -> Result<Option<&'a Tensor>, PtqError> {
        bias.map(|_| self.get_f32(node, 1)).transpose()
    }
}

/// Coded activation inputs of one node, by input index.
type ActsRef<'a> = [Option<&'a QActTensor>; MAX_ACT_INPUTS];

/// Reusable per-executor scratch for [`run_node`]; capacity is kept across
/// nodes and runs.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    /// f32 operands the binding divides or fake-quantizes.
    pub(crate) operands: [Tensor; MAX_ACT_INPUTS],
    /// FP8 activation-code buffers for [`ActBinding::Coded`] inputs.
    acts: [QActTensor; MAX_ACT_INPUTS],
    /// Decoded embedding ids.
    ids: Vec<usize>,
}

/// The f32 operand input `i` (the value `x`) reads under `binding`: `x`
/// itself when the binding leaves it alone; otherwise a copy in `buf`,
/// divided by the divisors (input 0) and fake-quantized. A coded input is
/// coded from this operand.
pub(crate) fn operand<'t>(
    binding: &Binding<'_>,
    i: usize,
    x: &'t Tensor,
    buf: &'t mut Tensor,
) -> &'t Tensor {
    let last = x.shape().last().copied();
    let divisors = binding
        .divisors
        .filter(|s| i == 0 && !s.is_empty() && last == Some(s.len()));
    let act = binding.acts.get(i).copied().unwrap_or_default();
    if divisors.is_none() && matches!(act, ActBinding::F32 | ActBinding::Coded { .. }) {
        return x;
    }
    buf.copy_from(x);
    let data = buf.data_mut();
    let divisors = divisors.unwrap_or_default().iter().cycle();
    for (v, &sj) in data.iter_mut().zip(divisors).filter(|(_, &sj)| sj > 0.0) {
        *v /= sj;
    }
    match act {
        ActBinding::FakeFp8 {
            format,
            scale: ActScale::PerTile(t),
        } => fake_quant_per_tile(data, last.unwrap_or(1), format, t),
        ActBinding::FakeFp8 { format, scale } => {
            // NaN-aware absmax: a non-finite value forces unit scale.
            let s = match scale {
                ActScale::Static(s) => s,
                _ => tile_scale(format, data),
            };
            fake_quant_fp8(data, &Fp8Codec::new(format), s);
        }
        ActBinding::FakeInt8(codec) => {
            let codec = codec.unwrap_or_else(|| Int8Codec::calibrate(data, Int8Mode::Asymmetric));
            fake_quant_int8(data, &codec);
        }
        ActBinding::F32 | ActBinding::Coded { .. } => {}
    }
    buf
}

/// `xs[out]` to write, beside a lookup of every other element to read: a
/// node's output never aliases one of its inputs (graph values are defined
/// once, and the planner never hands a live input's slot to an output).
pub(crate) fn split_out<'a>(
    xs: &'a mut [Tensor],
    out: usize,
) -> (&'a mut Tensor, impl Fn(usize) -> &'a Tensor + 'a) {
    let (lo, rest) = xs.split_at_mut(out);
    let (o, hi) = rest.split_at_mut(1);
    let (lo, hi): (&[Tensor], &[Tensor]) = (lo, hi);
    let at = move |j| if j < out { &lo[j] } else { &hi[j - out - 1] };
    (&mut o[0], at)
}

/// Run one node on its activation inputs `ins` (one or two, borrowed where
/// they live): bind, build the operands the binding asks for, resolve
/// parameters and activation codes, evaluate into `out` (reusing its
/// allocation), then `before_node` on the operands and `after_node` on
/// `out`. Arity and shapes must already be validated.
pub(crate) fn run_node(
    graph: &Graph,
    node: &Node,
    ins: &[&Tensor],
    hook: &mut dyn ExecHook,
    scratch: &mut NodeScratch,
    out: &mut Tensor,
) -> Result<(), PtqError> {
    let mut sp = ptq_trace::span(ptq_trace::Level::Debug, "op");
    let n = ins.len();
    let NodeScratch {
        operands: [b0, b1],
        acts: codes,
        ids,
    } = scratch;
    let binding = hook.bind(node);
    check_binding(node, &binding, n)?;
    let xs = [
        operand(&binding, 0, ins[0], b0),
        operand(&binding, 1, ins[n - 1], b1),
    ];
    let xs = &xs[..n];

    let (param_ids, n_params) = node.op.param_ids();
    let mut params = ParamsRef([None; MAX_OP_PARAMS]);
    for (slot, id) in params.0.iter_mut().zip(&param_ids[..n_params]) {
        let w = graph.params.get(id).ok_or_else(|| PtqError::UnboundParam {
            value: *id,
            node: node.name.clone(),
        })?;
        *slot = Some(WeightOperand::F32(w));
    }
    // `param_ids` puts the quantizable weight in slot 0.
    match binding.weight {
        WeightBinding::Graph => {}
        WeightBinding::F32(t) => params.0[0] = Some(WeightOperand::F32(t)),
        WeightBinding::Q(q) => params.0[0] = Some(WeightOperand::Q(q)),
    }

    let mut acts: ActsRef<'_> = [None; MAX_ACT_INPUTS];
    let coded = binding.acts.iter().zip(codes.iter_mut());
    for (i, (act, buf)) in coded.enumerate() {
        let ActBinding::Coded { format, scale } = *act else {
            continue;
        };
        let x = xs[i];
        let mut qs = ptq_trace::span(ptq_trace::Level::Debug, "act.quantize");
        buf.quantize(x, format, scale);
        if qs.active() {
            qs.record_str("layer", &node.name);
            qs.record_int("input", i as i64);
            qs.record_int("elems", x.len() as i64);
            qs.record_int("bytes", buf.storage_bytes() as i64);
        }
        acts[i] = Some(buf);
    }

    eval_node_into(node, xs, &params, &acts, ids, out, binding.kernel_path)?;
    // The binding borrows the hook: the observers run once it is done.
    hook.before_node(node, xs);
    hook.after_node(node, out);
    if sp.active() {
        sp.record_str("node", &node.name);
        sp.record_str("kind", &node.op.class().to_string());
        sp.record_str("out_shape", &format!("{:?}", out.shape()));
        sp.record_int("elems", out.len() as i64);
    }
    Ok(())
}

/// Reject a binding `node` cannot execute, as a hook protocol violation
/// (not a user error): a weight substitute without a weight slot, codes on
/// an input the node does not have, and codes anywhere but a code×code
/// kernel — input 0 of a non-depthwise Conv2d or a Linear whose weight is
/// FP8-stored, or both MatMul operands together. The kernels themselves
/// take any operand mix; what executes is decided here.
fn check_binding(node: &Node, binding: &Binding<'_>, n_inputs: usize) -> Result<(), PtqError> {
    let coded = |i: usize| matches!(binding.acts[i], ActBinding::Coded { .. });
    let q_weight = matches!(binding.weight, WeightBinding::Q(_));
    let name = &node.name;
    let class = node.op.class();
    let why = if !matches!(binding.weight, WeightBinding::Graph) && node.op.weight_value().is_none()
    {
        format!(
            "weight substitute bound for node {name} ({class}), which has no quantizable weight"
        )
    } else if let Some(i) = (n_inputs..MAX_ACT_INPUTS).find(|&i| binding.acts[i] != ActBinding::F32)
    {
        format!("activation form bound for input {i} of node {name}, which has {n_inputs} inputs")
    } else {
        match &node.op {
            _ if !coded(0) && !coded(1) => return Ok(()),
            Op::Conv2d { depthwise, .. } if q_weight && !depthwise => return Ok(()),
            Op::Conv2d { .. } => format!(
                "activation codes for node {name} need a non-depthwise FP8-stored weight"
            ),
            Op::Linear { .. } if q_weight => return Ok(()),
            Op::Linear { .. } => {
                format!("activation codes for node {name} need an FP8-stored weight")
            }
            Op::MatMul if coded(0) && coded(1) => return Ok(()),
            Op::MatMul => format!("matmul node {name} needs both operands coded or neither"),
            _ => format!(
                "activation codes bound for node {name} ({class}), which has no code\u{d7}code kernel"
            ),
        }
    };
    Err(PtqError::Internal(why))
}

/// Evaluate one node into `out`. `ins` are the f32 operands and `params`
/// the resolved parameters; the only runtime failures left are
/// data-dependent contracts (embedding id values) and a `Q` weight on an
/// operator that reads f32 parameters ([`ParamsRef::get_f32`]);
/// [`check_binding`] has rejected every other binding the operator cannot
/// execute.
fn eval_node_into(
    node: &Node,
    ins: &[&Tensor],
    params: &ParamsRef<'_>,
    acts: &ActsRef<'_>,
    ids: &mut Vec<usize>,
    out: &mut Tensor,
    path: KernelPath,
) -> Result<(), PtqError> {
    let act = |i: usize| acts[i].map_or(ActOperand::F32(ins[i]), ActOperand::Coded);
    match &node.op {
        Op::Conv2d {
            bias,
            params: cp,
            depthwise,
            ..
        } => {
            let (w, b) = (params.get(node, 0)?, params.bias(node, *bias)?);
            if *depthwise {
                ops::depthwise_conv2d_into(ins[0], w, b, *cp, out, path);
            } else {
                ops::conv2d_into(act(0), w, b, *cp, out, path);
            }
        }
        Op::Linear { bias, .. } => {
            let (w, b) = (params.get(node, 0)?, params.bias(node, *bias)?);
            ops::linear_into(act(0), w, b, out, path);
        }
        Op::MatMul => ops::matmul_into(act(0), act(1), out, path),
        Op::BatchMatMul => ops::batch_matmul_into(ins[0], ins[1], out, path),
        Op::Embedding { .. } => {
            let t = params.get_f32(node, 0)?;
            let vocab = t.dim(0);
            ids.clear();
            for &x in ins[0].data() {
                // Ids arrive as f32; only finite non-negative integers
                // inside the table are valid. `as usize` would silently
                // saturate negatives/NaN to 0 and out-of-range ids
                // would blow up inside the kernel.
                if !x.is_finite() || x < 0.0 || x.fract() != 0.0 {
                    return Err(PtqError::InvalidInput {
                        node: node.name.clone(),
                        detail: format!("embedding id {x} is not a non-negative integer"),
                    });
                }
                let id = x as usize;
                if id >= vocab {
                    return Err(PtqError::InvalidInput {
                        node: node.name.clone(),
                        detail: format!("embedding id {id} out of range (vocab {vocab})"),
                    });
                }
                ids.push(id);
            }
            ops::embedding_into(t, ids, out);
        }
        Op::BatchNorm { eps, .. } => {
            let gamma = params.get_f32(node, 0)?;
            let beta = params.get_f32(node, 1)?;
            let mean = params.get_f32(node, 2)?;
            let var = params.get_f32(node, 3)?;
            ops::batchnorm2d_parts_into(ins[0], gamma, beta, mean, var, *eps, out);
        }
        Op::LayerNorm { eps, .. } => {
            let g = params.get_f32(node, 0)?;
            let b = params.get_f32(node, 1)?;
            ops::layernorm_into(ins[0], g, b, *eps, out);
        }
        Op::Add => ins[0].zip_broadcast_into(ins[1], |a, b| a + b, out),
        Op::Mul => ins[0].zip_broadcast_into(ins[1], |a, b| a * b, out),
        Op::AddParam { .. } => {
            let p = params.get_f32(node, 0)?;
            ins[0].zip_broadcast_into(p, |a, b| a + b, out);
        }
        Op::Relu => ops::relu_into(ins[0], out),
        Op::Gelu => ops::gelu_into(ins[0], out),
        Op::Silu => ops::silu_into(ins[0], out),
        Op::Sigmoid => ops::sigmoid_into(ins[0], out),
        Op::Tanh => ops::tanh_into(ins[0], out),
        Op::Softmax => ops::softmax_lastdim_into(ins[0], out),
        Op::MaxPool { k } => ops::max_pool2d_into(ins[0], *k, out),
        Op::AvgPool { k } => ops::avg_pool2d_into(ins[0], *k, out),
        Op::GlobalAvgPool => ops::global_avg_pool2d_into(ins[0], out),
        Op::MeanRows => {
            // Rows added in ascending order into each column's sum.
            let x = ins[0];
            let (r, d) = (x.dim(0), x.dim(1));
            out.reuse_as(&[1, d]);
            out.zero_fill();
            for row in x.data().chunks_exact(d.max(1)) {
                out.data_mut()
                    .iter_mut()
                    .zip(row)
                    .for_each(|(o, &v)| *o += v);
            }
            let inv = 1.0 / r.max(1) as f32;
            out.map_inplace(|v| v * inv);
        }
        Op::Reshape(shape) => {
            // Element counts were proven equal by shape validation, so this
            // is a straight copy under the target shape.
            out.copy_from(ins[0]);
            out.reuse_as(shape);
        }
        Op::Permute(perm) => ins[0].permute_into(perm, out),
        Op::Scale(s) => {
            let s = *s;
            ins[0].map_into(|x| x * s, out);
        }
        Op::Upsample2x => {
            // Each input row becomes two identical output rows of pairs.
            let x = ins[0];
            let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
            out.reuse_as(&[n, c, 2 * h, 2 * w]);
            let rows = x.data().chunks_exact(w.max(1));
            for (pair, row) in out.data_mut().chunks_exact_mut(4 * w.max(1)).zip(rows) {
                let (top, bottom) = pair.split_at_mut(2 * w);
                top.chunks_exact_mut(2)
                    .zip(row)
                    .for_each(|(o, &v)| o.fill(v));
                bottom.copy_from_slice(top);
            }
        }
        Op::CausalMask => {
            // A true -inf (not the old -1e9 magic constant) so that no
            // attention mass can leak through the mask however large
            // the score scale is; softmax_lastdim turns fully masked
            // rows into zeros rather than NaN.
            //
            // Rectangular `[b, s1, s2]` scores (s1 < s2) are
            // *bottom-aligned*: the s1 query rows are the last s1 of an
            // s2-long key sequence, so row i sees keys `j <= i + (s2 -
            // s1)`. The square case reduces to the classic mask, and the
            // incremental-decode step (s1 == 1) masks nothing — the
            // single newest query row must not re-mask already-emitted
            // positions.
            let x = ins[0];
            let (s1, s2) = (x.dim(1), x.dim(2));
            out.copy_from(x);
            for (r, row) in out.data_mut().chunks_exact_mut(s2.max(1)).enumerate() {
                row[r % s1 + 1 + (s2 - s1)..].fill(f32::NEG_INFINITY);
            }
        }
    }
    Ok(())
}
