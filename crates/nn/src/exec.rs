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

use std::collections::HashMap;

use crate::error::PtqError;
use crate::graph::{Graph, Node, Op, ValueId, MAX_OP_PARAMS};
use crate::interp::ExecHook;
use ptq_tensor::ops::{self, ActOperand, KernelPath, PackedWeight, WeightOperand};
use ptq_tensor::{ActScale, Fp8Format, Int8Codec, Int8Mode, KvCachePolicy, QActTensor, Tensor};

/// Upper bound on activation inputs a node can bind as FP8 codes
/// (MatMul's two operands is the maximum), and on any operator's
/// activation inputs.
pub const MAX_ACT_INPUTS: usize = 2;

/// How one activation input crosses the op boundary, after the binding's
/// divisors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ActBinding {
    /// As the dense f32 value.
    #[default]
    F32,
    /// As f32 rounded through `format` under `scale` and back
    /// (fake-quant): the values [`ActBinding::Coded`] carries, coded into
    /// the node's code scratch and decoded back.
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
    /// whose weight is an FP8 [`Param`](crate::Param), and on both MatMul
    /// operands together.
    Coded {
        /// Code format.
        format: Fp8Format,
        /// Scale layout.
        scale: ActScale,
    },
}

/// Everything that changes how one node executes beside its parameters,
/// decided by the hook in a pure [`ExecHook::bind`] lookup. A node runs
/// the weights its graph binds (a quantized model stores each quantized
/// weight there as a [`Param`](crate::Param)); the binding says how its
/// activations reach the kernel. The default reads f32 activations in
/// place on the default kernel path, with an f32 KV cache.
///
/// A binding the node cannot execute (a form on an input the node lacks,
/// codes without a code×code kernel, one-sided MatMul coding) fails the run
/// with [`PtqError::Internal`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Binding<'a> {
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

    /// Parameter `i` as a dense f32 tensor. An FP8 parameter here fails
    /// [`Graph::validate_structure`] before any kernel runs.
    fn get_f32(&self, node: &Node, i: usize) -> Result<&'a Tensor, PtqError> {
        match self.get(node, i)? {
            WeightOperand::F32(t) => Ok(t),
            _ => Err(PtqError::Fp8Param {
                value: node.op.param_ids().0[i],
                node: node.name.clone(),
            }),
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
    /// FP8 activation-code buffers for [`ActBinding::Coded`] inputs, and
    /// the round trip of [`ActBinding::FakeFp8`] ones.
    pub(crate) acts: [QActTensor; MAX_ACT_INPUTS],
    /// Decoded embedding ids.
    ids: Vec<usize>,
}

/// A graph's Conv2d/Linear weights packed once for a sweep of runs, on its
/// caller before any fan-out, by parameter id (sound: the sweep borrows
/// the graph immutably); dropped when the sweep returns.
#[derive(Debug)]
pub(crate) struct Packs(HashMap<ValueId, PackedWeight>);

impl Packs {
    /// Every Conv2d/Linear weight `graph` binds, packed.
    pub(crate) fn of(graph: &Graph) -> Self {
        let weights = graph.nodes.iter().filter_map(|n| match n.op {
            Op::Conv2d { weight, .. } | Op::Linear { weight, .. } => Some(weight),
            _ => None,
        });
        let packed = |w| Some((w, PackedWeight::pack(graph.params.get(&w)?.operand())));
        Packs(weights.filter_map(packed).collect())
    }
}

/// The f32 operand input `i` (the value `x`) reads under `binding`: `x`
/// itself when the binding leaves it alone; otherwise a copy in `buf`,
/// divided by the divisors (input 0) and fake-quantized — an FP8 one coded
/// into `codes` and decoded back, as [`ActBinding::Coded`] would code it.
/// A coded input is coded from this operand.
pub(crate) fn operand<'t>(
    binding: &Binding<'_>,
    i: usize,
    x: &'t Tensor,
    buf: &'t mut Tensor,
    codes: &mut QActTensor,
) -> &'t Tensor {
    let last = x.shape().last().copied();
    let divisors = binding
        .divisors
        .filter(|s| i == 0 && !s.is_empty() && last == Some(s.len()));
    let act = binding.acts.get(i).copied().unwrap_or_default();
    if divisors.is_none() && matches!(act, ActBinding::F32 | ActBinding::Coded { .. }) {
        return x;
    }
    match divisors {
        // `x / s[j]` where `s[j] > 0` (not zero, negative or NaN), else `x`.
        Some(s) => {
            buf.reuse_as(x.shape());
            let rows = buf.data_mut().chunks_exact_mut(s.len());
            for (o, row) in rows.zip(x.data().chunks_exact(s.len())) {
                for ((o, &v), &sj) in o.iter_mut().zip(row).zip(s) {
                    *o = if sj > 0.0 { v / sj } else { v };
                }
            }
        }
        None if matches!(act, ActBinding::FakeInt8(_)) => buf.copy_from(x),
        None => {}
    }
    match act {
        ActBinding::FakeFp8 { format, scale } => {
            codes.quantize(if divisors.is_some() { &*buf } else { x }, format, scale);
            buf.reuse_as(x.shape());
            codes.decoder().decode_range(0, buf.data_mut());
        }
        ActBinding::FakeInt8(codec) => {
            let data = buf.data_mut();
            let codec = codec.unwrap_or_else(|| Int8Codec::calibrate(data, Int8Mode::Asymmetric));
            data.iter_mut()
                .for_each(|v| *v = codec.decode(codec.encode(*v)));
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
/// they live): resolve its parameters as the graph binds them (a weight
/// from `packs` when the sweep packed it), bind, build
/// the operands the binding asks for and the activation codes, evaluate
/// into `out` (reusing its allocation), then `before_node` on the operands
/// and `after_node` on `out`. Arity and shapes must already be validated.
pub(crate) fn run_node(
    graph: &Graph,
    node: &Node,
    ins: &[&Tensor],
    hook: &mut dyn ExecHook,
    scratch: &mut NodeScratch,
    packs: Option<&Packs>,
    out: &mut Tensor,
) -> Result<(), PtqError> {
    let mut sp = ptq_trace::span(ptq_trace::Level::Debug, "op");
    let n = ins.len();
    let NodeScratch {
        operands: [b0, b1],
        acts: [c0, c1],
        ids,
    } = scratch;
    let (param_ids, n_params) = node.op.param_ids();
    let mut params = ParamsRef([None; MAX_OP_PARAMS]);
    for (slot, id) in params.0.iter_mut().zip(&param_ids[..n_params]) {
        let p = graph.params.get(id).ok_or_else(|| PtqError::UnboundParam {
            value: *id,
            node: node.name.clone(),
        })?;
        *slot = Some(p.operand());
    }
    let q_weight = matches!(params.0[0], Some(WeightOperand::Q(_)));
    if let (Op::Conv2d { weight, .. } | Op::Linear { weight, .. }, Some(p)) = (&node.op, packs) {
        params.0[0] = p.0.get(weight).map(WeightOperand::Packed).or(params.0[0]);
    }
    let binding = hook.bind(node);
    check_binding(node, &binding, n, q_weight)?;
    let xs = [
        operand(&binding, 0, ins[0], b0, c0),
        operand(&binding, 1, ins[n - 1], b1, c1),
    ];
    let xs = &xs[..n];

    let mut acts: ActsRef<'_> = [None; MAX_ACT_INPUTS];
    let coded = binding.acts.iter().zip([c0, c1]);
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
/// (not a user error): codes on an input the node does not have, and codes
/// anywhere but a code×code kernel — input 0 of a non-depthwise Conv2d or a
/// Linear whose weight is FP8-stored (`q_weight`), or both MatMul operands
/// together. The kernels themselves take any operand mix; what executes is
/// decided here.
fn check_binding(
    node: &Node,
    b: &Binding<'_>,
    n_inputs: usize,
    q_weight: bool,
) -> Result<(), PtqError> {
    let coded = |i: usize| matches!(b.acts[i], ActBinding::Coded { .. });
    let name = &node.name;
    let class = node.op.class();
    let why = if let Some(i) = (n_inputs..MAX_ACT_INPUTS).find(|&i| b.acts[i] != ActBinding::F32) {
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
/// the resolved parameters; the only runtime failure left is a
/// data-dependent contract (embedding id values): validation has rejected
/// an FP8 parameter the operator cannot read ([`ParamsRef::get_f32`]), and
/// [`check_binding`] every binding it cannot execute.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_tensor::{fake_quant_fp8, fake_quant_int8, fake_quant_per_tile, tile_scale, Fp8Codec};

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// Input `i`'s operand under `act` (no divisors), as a vector.
    fn fake(act: ActBinding, x: &Tensor) -> Vec<f32> {
        let b = Binding {
            acts: [act; MAX_ACT_INPUTS],
            ..Binding::default()
        };
        let (mut buf, mut codes) = (Tensor::default(), QActTensor::new());
        operand(&b, 0, x, &mut buf, &mut codes).data().to_vec()
    }

    /// `fake_quant_fp8`/`_per_tile`/`_int8` against the operand forms on
    /// `xs`, every format: static scales of 1, 37, 2^-20 and 2^100, the
    /// dynamic scale, 7- and 64-wide tiles, and INT8 under a given and a
    /// calibrated codec.
    fn check_fake_quant(xs: &[f32]) {
        let x = Tensor::from_slice(xs);
        for format in Fp8Format::ALL {
            let codec = Fp8Codec::new(format);
            let fp8 = |scale| ActBinding::FakeFp8 { format, scale };
            for s in [1.0, 37.0, 2f32.powi(-20), 2f32.powi(100)] {
                let mut want = xs.to_vec();
                fake_quant_fp8(&mut want, &codec, s);
                let got = fake(fp8(ActScale::Static(s)), &x);
                assert_eq!(bits(&got), bits(&want), "{format} static {s:e}");
            }
            // A dynamic scale that overflows to +Inf (a nonzero absmax below
            // `max_value / f32::MAX`) is unit, as for coded operands; the
            // old loop kept it and turned zeros into NaN.
            let s = Some(tile_scale(format, xs)).filter(|s| s.is_finite());
            let mut want = xs.to_vec();
            fake_quant_fp8(&mut want, &codec, s.unwrap_or(1.0));
            assert_eq!(
                bits(&fake(fp8(ActScale::Dynamic), &x)),
                bits(&want),
                "{format} dynamic"
            );
            for t in [7, 64] {
                let mut want = xs.to_vec();
                fake_quant_per_tile(&mut want, xs.len(), format, t);
                let got = fake(fp8(ActScale::PerTile(t)), &x);
                assert_eq!(bits(&got), bits(&want), "{format} tile {t}");
            }
        }
        let given = Int8Codec::from_range(-3.0, 5.0, Int8Mode::Asymmetric);
        let calibrated = Int8Codec::calibrate(xs, Int8Mode::Asymmetric);
        for (codec, bound) in [(given, Some(given)), (calibrated, None)] {
            let mut want = xs.to_vec();
            fake_quant_int8(&mut want, &codec);
            let got = fake(ActBinding::FakeInt8(bound), &x);
            assert_eq!(bits(&got), bits(&want), "int8 {bound:?}");
        }
    }

    /// NaN (both signs, a payload), ±Inf, ±0 and the subnormal edges.
    const EDGES: [u32; 10] = [
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0x7f80_0000,
        0xff80_0000,
        0,
        0x8000_0000,
        1,
        0x8000_0001,
        0x007f_ffff,
    ];

    /// The lane fake-quant — codes through the node's `QActTensor` and
    /// back, or INT8 `decode(encode(x))` — against the stats-returning
    /// loops, bit for bit: every 65 537th f32 pattern plus [`EDGES`]; then
    /// the finite patterns alone, whose dynamic scale is not the unit one.
    #[test]
    fn lane_fake_quant_matches_the_fake_quant_loops() {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        xs.extend(EDGES.map(f32::from_bits));
        check_fake_quant(&xs);
        xs.retain(|x| x.is_finite());
        check_fake_quant(&xs);
    }

    /// Pre-merge, `cargo test --release -p ptq-nn --lib -- --ignored
    /// exhaustive_lane_fake_quant`: [`check_fake_quant`] on all 2^32 f32
    /// patterns, 2^20 at a time.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs × 3 formats: ~35 min release"]
    fn exhaustive_lane_fake_quant_matches_the_fake_quant_loops() {
        for hi in 0..1u32 << 12 {
            let xs: Vec<f32> = (0..1u32 << 20)
                .map(|lo| f32::from_bits(hi << 20 | lo))
                .collect();
            check_fake_quant(&xs);
        }
    }

    /// The row-wise divisors against the old element loop (copy, then
    /// `/=` wherever the cycled divisor is positive): zero, negative and
    /// NaN divisors leave their column alone; a last dim other than the
    /// divisors' length leaves the input alone.
    #[test]
    fn row_wise_divisors_match_the_element_loop() {
        let s = [2.0, 0.0, -1.5, f32::NAN, 0.3, 7.0];
        let data: Vec<f32> = (0..42).map(|i| i as f32 * 0.37 - 5.0).collect();
        let b = Binding {
            divisors: Some(&s),
            ..Binding::default()
        };
        let (mut buf, mut codes) = (Tensor::default(), QActTensor::new());
        let x = Tensor::from_vec(data.clone(), &[7, 6]);
        let mut want = data.clone();
        for (v, &sj) in want
            .iter_mut()
            .zip(s.iter().cycle())
            .filter(|(_, &sj)| sj > 0.0)
        {
            *v /= sj;
        }
        let got = operand(&b, 0, &x, &mut buf, &mut codes);
        assert_eq!((got.shape(), bits(got.data())), (x.shape(), bits(&want)));
        let ragged = Tensor::from_vec(data, &[6, 7]);
        let got = operand(&b, 0, &ragged, &mut buf, &mut codes);
        assert!(
            std::ptr::eq(got, &ragged),
            "a mismatched last dim is read in place"
        );
        let int8 = Binding {
            acts: [ActBinding::FakeInt8(None); MAX_ACT_INPUTS],
            ..b
        };
        let got = operand(&int8, 0, &ragged, &mut buf, &mut codes)
            .data()
            .to_vec();
        assert_eq!(
            bits(&got),
            bits(&fake(int8.acts[0], &ragged)),
            "not divided"
        );
    }
}
