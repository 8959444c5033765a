//! Incremental autoregressive decoding with a KV cache.
//!
//! [`crate::Graph::run`] and [`ExecPlan::run`] evaluate a decoder over a
//! full `[seq]` window every call — O(seq²) attention work per generated
//! token. This module splits that into the classic prefill/step form:
//!
//! * [`ExecPlan::plan_decode`] pattern-matches every causal attention
//!   group in the graph (the `q/k/v → reshape → permute → scores →
//!   scale → mask → softmax → context` motif the model-zoo builder
//!   emits), keeps the existing full-window plan for the **prefill**
//!   pass, and compiles a **step** schedule that runs the whole network
//!   on a single `[1, d]` token row, serving attention from a
//!   [`KvCache`] instead of recomputing K/V for the whole window.
//! * [`DecodeState`] owns the cache plus the step-persistent value slots
//!   (every step writes into the same pre-sized tensors — the step arena
//!   pins all values for the step, the decode-time analogue of the
//!   prefill plan's linear-scan arena) and drives `prefill` / `step`.
//!
//! ## The step schedule
//!
//! Per node, the planner picks one of five step ops:
//!
//! * **Eval** — run the node unchanged through the shared
//!   `exec::run_node` (the same `before_node` → `bind` → kernel →
//!   `after_node` path as the reference loop and the planned executor), so
//!   quantization hooks observe the step exactly as they would a full
//!   pass. `Reshape` targets whose leading dim is the full window are
//!   rewritten to a single row.
//! * **AddPosRow** — an `AddParam` whose parameter spans the full window
//!   (positional embeddings `[seq, d]`) adds only row `t` of the
//!   graph-bound table; broadcasting the full table would silently widen
//!   the step to `[seq, d]`.
//! * **Scores / Context** — the two attention `BatchMatMul`s, served by
//!   [`attention_step_q`] / [`attention_step_v`] against the cache.
//!   These cache-backed ops are hook-invisible: the full-window operands
//!   they would need do not exist step-wise.
//! * **Skip** — the K/V `reshape`/`permute` glue whose outputs only feed
//!   a cache-backed op.
//!
//! K and V source rows are appended to the cache immediately after their
//! producing node evaluates (topologically before the attention that
//! reads them, so position `t` attends to itself like the full window's
//! causal row `t`).
//!
//! ## Bit-identity (the equivalence oracle)
//!
//! With [`KvCachePolicy::F32`] a step is bit-identical to row `t` of a
//! full-window forward over the same prefix (zero-padded to `seq`):
//! every decoder op is row-independent, the bottom-aligned causal mask
//! makes row `t` blind to the padding, the softmax −inf tail contributes
//! exact `+0.0`s, and the step kernels replicate `batch_matmul`'s
//! accumulation chains (see `ptq_tensor::ops::attn` and DESIGN.md §16).
//! This holds for hooks whose per-op behaviour is shape-independent:
//! `NoopHook`, weight-only and *static*-scale activation quantization
//! over the standard `{Conv2d, Linear, Embedding}` coverage. Dynamic
//! activation scales are recomputed per tensor and therefore differ
//! between a `[seq, d]` prefill tensor and a `[1, d]` step row — that
//! configuration decodes fine but is not bit-exact, by construction.
//!
//! With an FP8 cache the only deviation is the cache's own storage
//! rounding; scale calibration follows the session's static-vs-dynamic
//! convention (static per-tensor scale from prefill activations via
//! [`KvCachePolicy::calibrated`], per-row dynamic fallback otherwise).

use crate::error::{PtqError, Shape};
use crate::exec::{run_node, Binding, NodeScratch};
use crate::graph::{Graph, Node, NodeId, Op, ValueId};
use crate::interp::ExecHook;
use crate::plan::ExecPlan;
use ptq_tensor::ops::{attention_step_q, attention_step_v};
use ptq_tensor::{KvCache, KvCachePolicy, KvError, KvSide, Tensor};
use std::collections::HashMap;

/// One matched causal-attention group.
#[derive(Debug, Clone)]
struct AttnGroup {
    /// Node computing `scores = bmm(qh, khᵀ)` — served from the K cache.
    scores: NodeId,
    /// Node computing `ctx = bmm(probs, vh)` — served from the V cache.
    context: NodeId,
    /// Producer of the `[seq, d]` K rows that are cached.
    k_src: NodeId,
    /// Producer of the `[seq, d]` V rows that are cached.
    v_src: NodeId,
    /// Attention heads.
    heads: usize,
    /// Per-head width (`d = heads * dh`).
    dh: usize,
}

/// How one node executes inside a decode step.
#[derive(Debug, Clone)]
enum StepOp {
    /// Evaluate through the shared kernel dispatch with the full hook
    /// protocol; append the output row to the listed cache buffers.
    Eval {
        /// `(layer, side)` buffers fed by this node's `[1, d]` output.
        appends: Vec<(usize, KvSide)>,
    },
    /// `AddParam` over a full-window table: add row `t` only.
    AddPosRow {
        /// The table's parameter value.
        param: ValueId,
    },
    /// Attention scores against the K cache of `group`.
    Scores {
        /// Index into the plan's attention groups.
        group: usize,
    },
    /// Attention context against the V cache of `group`.
    Context {
        /// Index into the plan's attention groups.
        group: usize,
    },
    /// K/V-side shape glue with no step-time output.
    Skip,
}

/// Where a step node's activation input comes from.
#[derive(Debug, Clone, Copy)]
enum StepSrc {
    /// The single runtime token id.
    Input,
    /// A step-persistent value slot.
    Value(ValueId),
}

/// A prefill + per-step decode schedule for one decoder graph at one
/// window size. Build with [`ExecPlan::plan_decode`] (or the
/// [`Graph::plan_decode`] convenience), execute with [`DecodeState`].
#[derive(Debug)]
pub struct DecodePlan {
    /// Full-window plan used for the prefill pass.
    prefill: ExecPlan,
    /// Window size = cache capacity = absolute position count.
    seq: usize,
    /// Cached row width (`heads * dh`, uniform across layers).
    d_model: usize,
    /// Per-node step schedule, in node order.
    steps: Vec<StepOp>,
    /// Per-node activation sources (parallel to `steps`).
    srcs: Vec<Vec<StepSrc>>,
    /// Step-time node descriptors: graph nodes with full-window `Reshape`
    /// targets rewritten to single-row form. Ids and names are preserved,
    /// so hooks keyed on either see the original identity.
    step_nodes: Vec<Node>,
    /// Matched attention groups, in layer order.
    groups: Vec<AttnGroup>,
    /// Structural fingerprint (must match the executed graph).
    n_nodes: usize,
    /// Structural fingerprint (must match the executed graph).
    n_values: usize,
    /// The logits value (single graph output).
    output: ValueId,
    /// Widest step-node arity (sizes the staging buffers).
    max_arity: usize,
}

impl Graph {
    /// Convenience for [`ExecPlan::plan_decode`].
    pub fn plan_decode(&self, seq: usize) -> Result<DecodePlan, PtqError> {
        ExecPlan::plan_decode(self, seq)
    }
}

/// Shorthand for the planner's rejection error.
fn unsupported(node: &Node, detail: impl Into<String>) -> PtqError {
    PtqError::DecodeUnsupported {
        node: node.name.clone(),
        detail: detail.into(),
    }
}

impl ExecPlan {
    /// Split `graph` into a prefill plan and a per-step schedule for a
    /// `seq`-position window.
    ///
    /// Rejects with [`PtqError::DecodeUnsupported`] any graph that is not
    /// a single-input/single-output causal decoder over the row-independent
    /// op set (attention via the builder motif, `Linear`/`LayerNorm`/
    /// elementwise/`Embedding` everywhere else). Pooling heads
    /// (`MeanRows`, `GlobalAvgPool`), convolutions and free-standing
    /// `MatMul`/`BatchMatMul` mix rows and cannot decode incrementally.
    pub fn plan_decode(graph: &Graph, seq: usize) -> Result<DecodePlan, PtqError> {
        if seq == 0 {
            return Err(PtqError::InvalidTarget {
                detail: "decode window must hold at least one position".into(),
            });
        }
        if graph.inputs.len() != 1 || graph.outputs.len() != 1 {
            return Err(PtqError::DecodeUnsupported {
                node: "<graph>".into(),
                detail: format!(
                    "decoder must have 1 input / 1 output, has {} / {}",
                    graph.inputs.len(),
                    graph.outputs.len()
                ),
            });
        }
        let prefill = graph.plan(&[vec![seq]])?;

        // Value -> producing node / consuming nodes.
        let mut producer: Vec<Option<NodeId>> = vec![None; graph.n_values];
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); graph.n_values];
        for (i, node) in graph.nodes.iter().enumerate() {
            producer[node.output] = Some(i);
            for &v in &node.inputs {
                consumers[v].push(i);
            }
        }

        let groups = match_attention_groups(graph, seq, &producer, &consumers)?;
        let d_model = match groups.first() {
            Some(g) => g.heads * g.dh,
            None => 0,
        };
        for g in &groups {
            if g.heads * g.dh != d_model {
                return Err(unsupported(
                    &graph.nodes[g.scores],
                    format!(
                        "mixed cache row widths {} vs {d_model} — one KvCache spans all layers",
                        g.heads * g.dh
                    ),
                ));
            }
        }

        // Node -> role lookup tables.
        let mut scores_of: HashMap<NodeId, usize> = HashMap::new();
        let mut context_of: HashMap<NodeId, usize> = HashMap::new();
        let mut appends_at: HashMap<NodeId, Vec<(usize, KvSide)>> = HashMap::new();
        let mut skip: Vec<bool> = vec![false; graph.nodes.len()];
        for (gi, g) in groups.iter().enumerate() {
            scores_of.insert(g.scores, gi);
            context_of.insert(g.context, gi);
            appends_at.entry(g.k_src).or_default().push((gi, KvSide::K));
            appends_at.entry(g.v_src).or_default().push((gi, KvSide::V));
            for side_val in [
                graph.nodes[g.scores].inputs[1],
                graph.nodes[g.context].inputs[1],
            ] {
                let mut n = producer[side_val].ok_or(PtqError::UseBeforeDef {
                    value: side_val,
                    node: graph.nodes[g.scores].name.clone(),
                })?;
                // Permute then Reshape, matched in match_attention_groups.
                skip[n] = true;
                n = producer[graph.nodes[n].inputs[0]].unwrap_or(n);
                skip[n] = true;
            }
        }

        // Compile the per-node step schedule and node descriptors.
        let mut steps = Vec::with_capacity(graph.nodes.len());
        let mut step_nodes = Vec::with_capacity(graph.nodes.len());
        let mut srcs: Vec<Vec<StepSrc>> = Vec::with_capacity(graph.nodes.len());
        let mut max_arity = 0usize;
        for (i, node) in graph.nodes.iter().enumerate() {
            let mut step_node = node.clone();
            let op = if skip[i] {
                StepOp::Skip
            } else if let Some(&g) = scores_of.get(&i) {
                StepOp::Scores { group: g }
            } else if let Some(&g) = context_of.get(&i) {
                StepOp::Context { group: g }
            } else {
                match &node.op {
                    Op::Linear { .. }
                    | Op::Embedding { .. }
                    | Op::LayerNorm { .. }
                    | Op::Add
                    | Op::Mul
                    | Op::Relu
                    | Op::Gelu
                    | Op::Silu
                    | Op::Sigmoid
                    | Op::Tanh
                    | Op::Softmax
                    | Op::Scale(_)
                    | Op::CausalMask
                    | Op::Permute(_) => StepOp::Eval {
                        appends: appends_at.remove(&i).unwrap_or_default(),
                    },
                    Op::Reshape(target) => {
                        let mut t = target.clone();
                        if t.first() == Some(&seq) {
                            t[0] = 1;
                            step_node.op = Op::Reshape(t);
                        }
                        StepOp::Eval {
                            appends: appends_at.remove(&i).unwrap_or_default(),
                        }
                    }
                    Op::AddParam { param } => {
                        let table = graph.params.get(param).ok_or(PtqError::UnboundParam {
                            value: *param,
                            node: node.name.clone(),
                        })?;
                        if table.ndim() >= 2 && table.dim(0) == seq {
                            StepOp::AddPosRow { param: *param }
                        } else {
                            StepOp::Eval {
                                appends: appends_at.remove(&i).unwrap_or_default(),
                            }
                        }
                    }
                    Op::MatMul | Op::BatchMatMul => {
                        return Err(unsupported(
                            node,
                            "activation matmul outside a causal attention group",
                        ))
                    }
                    other => {
                        return Err(unsupported(
                            node,
                            format!("op {:?} is not row-independent", other.class()),
                        ))
                    }
                }
            };
            let node_srcs: Vec<StepSrc> = node
                .inputs
                .iter()
                .map(|&v| {
                    if v == graph.inputs[0] {
                        StepSrc::Input
                    } else {
                        StepSrc::Value(v)
                    }
                })
                .collect();
            max_arity = max_arity.max(node_srcs.len());
            steps.push(op);
            step_nodes.push(step_node);
            srcs.push(node_srcs);
        }

        let plan = DecodePlan {
            prefill,
            seq,
            d_model,
            steps,
            srcs,
            step_nodes,
            groups,
            n_nodes: graph.nodes.len(),
            n_values: graph.n_values,
            output: graph.outputs[0],
            max_arity,
        };
        plan.check_step_shapes(graph)?;
        Ok(plan)
    }
}

/// Match every `scores → (Scale)* → CausalMask → (Scale)* → Softmax →
/// context` attention motif, anchored on the `CausalMask` nodes.
fn match_attention_groups(
    graph: &Graph,
    seq: usize,
    producer: &[Option<NodeId>],
    consumers: &[Vec<NodeId>],
) -> Result<Vec<AttnGroup>, PtqError> {
    // Walk a value upward through Scale nodes to its non-Scale producer.
    let up_through_scale = |mut v: ValueId| -> Option<NodeId> {
        loop {
            let n = producer[v]?;
            match graph.nodes[n].op {
                Op::Scale(_) => v = graph.nodes[n].inputs[0],
                _ => return Some(n),
            }
        }
    };
    // Walk a value downward through Scale nodes to its sole non-Scale
    // consumer (None when fan-out or a dead end breaks the motif).
    let down_through_scale = |mut v: ValueId| -> Option<NodeId> {
        loop {
            let cs = consumers[v].as_slice();
            if cs.len() != 1 {
                return None;
            }
            match graph.nodes[cs[0]].op {
                Op::Scale(_) => v = graph.nodes[cs[0]].output,
                _ => return Some(cs[0]),
            }
        }
    };
    // Match `src → Reshape([seq, heads, dh]) → Permute(perm)` feeding a
    // cache-backed bmm, returning (src, heads, dh).
    let match_side = |val: ValueId,
                      perm_want: &[usize],
                      reader: NodeId,
                      side: &str|
     -> Result<(NodeId, usize, usize), PtqError> {
        let anchor = &graph.nodes[reader];
        let pn = producer[val]
            .filter(|&n| matches!(&graph.nodes[n].op, Op::Permute(p) if p[..] == *perm_want))
            .ok_or_else(|| {
                unsupported(
                    anchor,
                    format!("{side} operand is not Permute({perm_want:?})"),
                )
            })?;
        if consumers[graph.nodes[pn].output].len() != 1 {
            return Err(unsupported(
                anchor,
                format!("{side} permute output fans out beyond the attention bmm"),
            ));
        }
        let rv = graph.nodes[pn].inputs[0];
        let rn = producer[rv]
            .filter(
                |&n| matches!(&graph.nodes[n].op, Op::Reshape(t) if t.len() == 3 && t[0] == seq),
            )
            .ok_or_else(|| {
                unsupported(
                    anchor,
                    format!("{side} chain is not Reshape([{seq}, heads, dh]) → Permute"),
                )
            })?;
        if consumers[rv].len() != 1 {
            return Err(unsupported(
                anchor,
                format!("{side} reshape output fans out beyond the permute"),
            ));
        }
        let Op::Reshape(t) = &graph.nodes[rn].op else {
            return Err(PtqError::Internal(format!(
                "{side} reshape match on node {} did not hold",
                graph.nodes[rn].name
            )));
        };
        let (heads, dh) = (t[1], t[2]);
        let src = producer[graph.nodes[rn].inputs[0]].ok_or_else(|| {
            unsupported(
                anchor,
                format!("{side} rows come from a graph input, not a node"),
            )
        })?;
        Ok((src, heads, dh))
    };

    let mut groups = Vec::new();
    for (mi, mask) in graph.nodes.iter().enumerate() {
        if !matches!(mask.op, Op::CausalMask) {
            continue;
        }
        let sn = up_through_scale(mask.inputs[0])
            .filter(|&n| matches!(graph.nodes[n].op, Op::BatchMatMul))
            .ok_or_else(|| unsupported(mask, "mask input is not (scaled) bmm scores"))?;
        let softmax = down_through_scale(mask.output)
            .filter(|&n| matches!(graph.nodes[n].op, Op::Softmax))
            .ok_or_else(|| unsupported(mask, "mask output does not feed a softmax"))?;
        let cn = down_through_scale(graph.nodes[softmax].output)
            .filter(|&n| {
                matches!(graph.nodes[n].op, Op::BatchMatMul)
                    && producer[graph.nodes[n].inputs[0]].is_some()
            })
            .ok_or_else(|| unsupported(mask, "softmax output does not feed the context bmm"))?;
        let (k_src, kh, kdh) = match_side(graph.nodes[sn].inputs[1], &[1, 2, 0], sn, "key")?;
        let (v_src, vh, vdh) = match_side(graph.nodes[cn].inputs[1], &[1, 0, 2], cn, "value")?;
        if (kh, kdh) != (vh, vdh) {
            return Err(unsupported(
                &graph.nodes[mi],
                format!("key heads/dh ({kh}, {kdh}) disagree with value ({vh}, {vdh})"),
            ));
        }
        groups.push(AttnGroup {
            scores: sn,
            context: cn,
            k_src,
            v_src,
            heads: kh,
            dh: kdh,
        });
    }
    Ok(groups)
}

impl DecodePlan {
    /// The full-window prefill plan.
    pub fn prefill_plan(&self) -> &ExecPlan {
        &self.prefill
    }

    /// Window size (= cache position capacity).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Cached row width (`heads * dh`).
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Number of matched attention layers.
    pub fn n_layers(&self) -> usize {
        self.groups.len()
    }

    /// Statically validate the step schedule by propagating single-row
    /// shapes through it (with the cache at its `seq` high-water length),
    /// reusing the full validator's per-op shape rules for `Eval` nodes.
    fn check_step_shapes(&self, graph: &Graph) -> Result<(), PtqError> {
        let mut shapes: Vec<Option<Shape>> = vec![None; graph.n_values];
        shapes[graph.inputs[0]] = Some(vec![1]);
        for (&id, t) in &graph.params {
            shapes[id] = Some(t.shape().to_vec());
        }
        for (i, node) in self.step_nodes.iter().enumerate() {
            let out = match &self.steps[i] {
                StepOp::Skip => continue,
                StepOp::Eval { .. } => graph.infer_node_shape(node, &shapes)?,
                StepOp::AddPosRow { param } => {
                    let table = graph.params.get(param).ok_or(PtqError::UnboundParam {
                        value: *param,
                        node: node.name.clone(),
                    })?;
                    let x = shapes[node.inputs[0]]
                        .clone()
                        .ok_or(PtqError::UseBeforeDef {
                            value: node.inputs[0],
                            node: node.name.clone(),
                        })?;
                    if x.len() != table.ndim() || x[0] != 1 || x[1..] != table.shape()[1..] {
                        return Err(PtqError::ShapeMismatch {
                            node: node.name.clone(),
                            detail: format!(
                                "step row {x:?} cannot take a row of the positional table {:?}",
                                table.shape()
                            ),
                        });
                    }
                    x
                }
                StepOp::Scores { group } => {
                    let g = &self.groups[*group];
                    let want = vec![g.heads, 1, g.dh];
                    let got = shapes[node.inputs[0]].clone();
                    if got.as_deref() != Some(&want[..]) {
                        return Err(PtqError::ShapeMismatch {
                            node: node.name.clone(),
                            detail: format!("step query is {got:?}, cache wants {want:?}"),
                        });
                    }
                    vec![g.heads, 1, self.seq]
                }
                StepOp::Context { group } => {
                    let g = &self.groups[*group];
                    let want = vec![g.heads, 1, self.seq];
                    let got = shapes[node.inputs[0]].clone();
                    if got.as_deref() != Some(&want[..]) {
                        return Err(PtqError::ShapeMismatch {
                            node: node.name.clone(),
                            detail: format!("step probs are {got:?}, cache wants {want:?}"),
                        });
                    }
                    vec![g.heads, 1, g.dh]
                }
            };
            shapes[node.output] = Some(out);
        }
        match shapes[self.output].as_deref() {
            Some([1, _]) => Ok(()),
            other => Err(PtqError::DecodeUnsupported {
                node: "<output>".into(),
                detail: format!("step output must be one [1, vocab] row, got {other:?}"),
            }),
        }
    }

    /// Cheap structural compatibility check before touching the graph.
    fn check_compat(&self, graph: &Graph) -> Result<(), PtqError> {
        if graph.nodes.len() != self.n_nodes || graph.n_values != self.n_values {
            return Err(PtqError::InvalidTarget {
                detail: format!(
                    "decode plan was built for a graph with {} nodes / {} values, got {} / {}",
                    self.n_nodes,
                    self.n_values,
                    graph.nodes.len(),
                    graph.n_values
                ),
            });
        }
        Ok(())
    }
}

/// Captures the K/V source activations of a prefill pass while
/// delegating every hook decision to the wrapped session hook.
struct PrefillCapture<'a> {
    inner: &'a mut dyn ExecHook,
    wanted: HashMap<NodeId, Vec<(usize, KvSide)>>,
    captured: HashMap<(usize, KvSide), Tensor>,
}

impl ExecHook for PrefillCapture<'_> {
    fn before_node(&mut self, node: &Node, inputs: &mut [Tensor]) {
        self.inner.before_node(node, inputs);
    }

    fn after_node(&mut self, node: &Node, output: &mut Tensor) {
        self.inner.after_node(node, output);
        // Capture after the inner hook so the cache holds exactly the
        // rows the full-window attention consumed.
        if let Some(targets) = self.wanted.get(&node.id) {
            for t in targets {
                self.captured.insert(*t, output.clone());
            }
        }
    }

    fn bind(&self, node: &Node) -> Binding<'_> {
        self.inner.bind(node)
    }
}

/// Mutable decode session state: the KV cache plus step-persistent value
/// slots. One `DecodeState` serves one generation session; `reset` (or a
/// fresh `prefill`) starts another without dropping warmed buffers.
#[derive(Debug, Default)]
pub struct DecodeState {
    /// Per-layer K/V cache; built by `prefill` (policies need prefill
    /// activations to calibrate static scales).
    cache: Option<KvCache>,
    /// One step-persistent tensor per graph value. Sized on first use,
    /// reused (via `reuse_as`) every step after — steady-state steps
    /// perform no intermediate-tensor allocation.
    values: Vec<Tensor>,
    /// Hook-visible input staging, as in the planned executor.
    staging: Vec<Tensor>,
    /// Activation-code buffers and id scratch for the executing node.
    node: NodeScratch,
    /// Staging for the single token id.
    input: Tensor,
    /// Next absolute position (= tokens consumed so far).
    pos: usize,
}

impl DecodeState {
    /// Fresh state sized for `plan`.
    pub fn new(plan: &DecodePlan) -> Self {
        let mut s = DecodeState::default();
        s.values.resize_with(plan.n_values, Tensor::default);
        s.staging.resize_with(plan.max_arity, Tensor::default);
        s
    }

    /// Next absolute position (tokens consumed so far).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The cache, once `prefill` has built it.
    pub fn cache(&self) -> Option<&KvCache> {
        self.cache.as_ref()
    }

    /// Current cache storage bytes (0 before prefill).
    pub fn cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, KvCache::cache_bytes)
    }

    /// Forget the session (cache and position); keeps warmed buffers.
    pub fn reset(&mut self) {
        self.cache = None;
        self.pos = 0;
    }

    /// Run the full-window prefill over `prompt` (a rank-1 tensor of
    /// token ids), populate the cache with positions `0..prompt.len()`,
    /// and return the logits row for the last prompt token.
    ///
    /// The prompt is left-aligned and zero-padded to the window; the
    /// causal mask keeps every real row blind to the padding. FP8 cache
    /// policies with `scale: None` are calibrated here from the captured
    /// prefill activations.
    pub fn prefill(
        &mut self,
        plan: &DecodePlan,
        graph: &Graph,
        prompt: &Tensor,
        hook: &mut dyn ExecHook,
    ) -> Result<Tensor, PtqError> {
        plan.check_compat(graph)?;
        if prompt.ndim() != 1 {
            return Err(PtqError::InvalidInput {
                node: "decode.prefill".into(),
                detail: format!(
                    "prompt must be a rank-1 id tensor, got {:?}",
                    prompt.shape()
                ),
            });
        }
        let p = prompt.len();
        if p == 0 {
            return Err(PtqError::InvalidInput {
                node: "decode.prefill".into(),
                detail: "zero-length prefill: a session needs at least one prompt token".into(),
            });
        }
        if p > plan.seq {
            return Err(PtqError::KvCache(KvError::CapacityOverflow {
                capacity: plan.seq,
            }));
        }
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "decode.prefill");

        let mut padded = vec![0.0f32; plan.seq];
        padded[..p].copy_from_slice(prompt.data());
        let padded = Tensor::from_vec(padded, &[plan.seq]);

        let mut wanted: HashMap<NodeId, Vec<(usize, KvSide)>> = HashMap::new();
        for (gi, g) in plan.groups.iter().enumerate() {
            wanted.entry(g.k_src).or_default().push((gi, KvSide::K));
            wanted.entry(g.v_src).or_default().push((gi, KvSide::V));
        }
        let mut capture = PrefillCapture {
            inner: hook,
            wanted,
            captured: HashMap::new(),
        };
        let outs = plan.prefill.run(graph, &[padded], &mut capture)?;
        let captured = capture.captured;

        // Build the cache: probe the session policy per buffer, calibrate
        // pending static scales from the captured prefill rows.
        let d = plan.d_model;
        let mut policies = Vec::with_capacity(plan.groups.len());
        for (gi, g) in plan.groups.iter().enumerate() {
            let policy_for = |src: NodeId, side: KvSide| -> Result<KvCachePolicy, PtqError> {
                let rows = captured.get(&(gi, side)).ok_or_else(|| {
                    PtqError::Internal(format!("prefill did not capture layer {gi} {side} rows"))
                })?;
                Ok(hook
                    .bind(&graph.nodes[src])
                    .kv
                    .calibrated(&rows.data()[..p * d]))
            };
            let kp = policy_for(g.k_src, KvSide::K)?;
            let vp = policy_for(g.v_src, KvSide::V)?;
            policies.push((kp, vp));
        }
        let mut cache = KvCache::new(&policies, d, plan.seq);
        for (gi, _) in plan.groups.iter().enumerate() {
            for side in [KvSide::K, KvSide::V] {
                let rows = &captured[&(gi, side)];
                for j in 0..p {
                    cache.append(gi, side, &rows.data()[j * d..(j + 1) * d])?;
                }
            }
        }
        ptq_trace::counter(
            ptq_trace::Level::Info,
            "kv.appended",
            (2 * plan.groups.len() * p) as u64,
            &[],
        );
        self.cache = Some(cache);
        self.pos = p;

        if sp.active() {
            sp.record_int("prompt_len", p as i64);
            sp.record_int("layers", plan.groups.len() as i64);
            sp.record_int("cache_bytes", self.cache_bytes() as i64);
        }
        drop(sp);
        Ok(Tensor::from_slice(outs[0].row(p - 1)))
    }

    /// Decode one token at the next position: append its K/V rows to the
    /// cache and return its logits row. `token` is the id chosen from the
    /// previous logits (greedy or sampled — the caller decides).
    pub fn step(
        &mut self,
        plan: &DecodePlan,
        graph: &Graph,
        token: f32,
        hook: &mut dyn ExecHook,
    ) -> Result<Tensor, PtqError> {
        plan.check_compat(graph)?;
        let DecodeState {
            cache,
            values,
            staging,
            node: scratch,
            input,
            pos,
        } = self;
        let Some(cache) = cache.as_mut() else {
            return Err(PtqError::InvalidInput {
                node: "decode.step".into(),
                detail: "step before prefill: run prefill to seed the cache".into(),
            });
        };
        if *pos >= plan.seq {
            return Err(PtqError::KvCache(KvError::CapacityOverflow {
                capacity: plan.seq,
            }));
        }
        let t = *pos;
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "decode.step");
        let mut appended = 0u64;

        input.reuse_as(&[1]);
        input.data_mut()[0] = token;

        for (i, op) in plan.steps.iter().enumerate() {
            let node = &plan.step_nodes[i];
            let srcs = &plan.srcs[i];
            match op {
                StepOp::Skip => continue,
                // The cache-backed ops read only their query/probs operand;
                // the K/V operand is the cache.
                StepOp::Scores { group } => {
                    stage(staging, &srcs[..1], input, values);
                    let k = cache.buf(*group, KvSide::K)?;
                    let out = &mut values[node.output];
                    attention_step_q(&staging[0], k, out, hook.bind(node).kernel_path);
                    debug_assert_eq!(out.dim(0), plan.groups[*group].heads);
                }
                StepOp::Context { group } => {
                    stage(staging, &srcs[..1], input, values);
                    let v = cache.buf(*group, KvSide::V)?;
                    let out = &mut values[node.output];
                    attention_step_v(&staging[0], v, out, hook.bind(node).kernel_path);
                }
                StepOp::AddPosRow { param } => {
                    stage(staging, &srcs[..1], input, values);
                    hook.before_node(node, &mut staging[..1]);
                    let table = graph
                        .params
                        .get(param)
                        .ok_or_else(|| PtqError::UnboundParam {
                            value: *param,
                            node: node.name.clone(),
                        })?;
                    let cols = staging[0].len();
                    let out = &mut values[node.output];
                    out.reuse_as(staging[0].shape());
                    let row = &table.data()[t * cols..(t + 1) * cols];
                    for ((o, &x), &r) in out.data_mut().iter_mut().zip(staging[0].data()).zip(row) {
                        *o = x + r;
                    }
                    hook.after_node(node, out);
                }
                StepOp::Eval { appends } => {
                    stage(staging, srcs, input, values);
                    let out = &mut values[node.output];
                    run_node(graph, node, &mut staging[..srcs.len()], hook, scratch, out)?;
                    for &(layer, side) in appends {
                        cache.append(layer, side, out.row(0))?;
                        appended += 1;
                    }
                }
            }
        }

        *pos = t + 1;
        if appended > 0 {
            ptq_trace::counter(ptq_trace::Level::Info, "kv.appended", appended, &[]);
        }
        if sp.active() {
            sp.record_int("pos", t as i64);
            sp.record_int("kv_len", *pos as i64);
            sp.record_int("cache_bytes", cache.cache_bytes() as i64);
        }
        drop(sp);
        Ok(Tensor::from_slice(values[plan.output].row(0)))
    }
}

/// Copy each step input into its hook-visible staging buffer.
fn stage(staging: &mut [Tensor], srcs: &[StepSrc], input: &Tensor, values: &[Tensor]) {
    for (slot, src) in staging.iter_mut().zip(srcs) {
        match src {
            StepSrc::Input => slot.copy_from(input),
            StepSrc::Value(v) => slot.copy_from(&values[*v]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::UnwrapOk;
    use crate::exec::{ActBinding, WeightBinding};
    use crate::interp::NoopHook;
    use ptq_fp8::Fp8Format;
    use ptq_tensor::{ActScale, QTensor, TensorRng};

    const SEQ: usize = 8;
    const D: usize = 12;
    const HEADS: usize = 3;
    const DH: usize = D / HEADS;
    const VOCAB: usize = 17;

    /// A 1-layer causal decoder built with the same node motif as the
    /// model-zoo builder: embed → +pos → attention(+residual) → head.
    fn tiny_decoder(seed: u64) -> Graph {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(rng.normal(&[VOCAB, D], 0.0, 0.4));
        let pos = b.param(rng.normal(&[SEQ, D], 0.0, 0.1));
        let e = b.embedding(ids, table);
        let x = b.add_param(e, pos);

        let wq = b.param(rng.kaiming(&[D, D]));
        let wk = b.param(rng.kaiming(&[D, D]));
        let wv = b.param(rng.kaiming(&[D, D]));
        let wo = b.param(rng.kaiming(&[D, D]));
        let q = b.linear(x, wq, None);
        let k = b.linear(x, wk, None);
        let v = b.linear(x, wv, None);
        let qh = b.reshape(q, &[SEQ, HEADS, DH]);
        let qh = b.permute(qh, &[1, 0, 2]);
        let kh = b.reshape(k, &[SEQ, HEADS, DH]);
        let kh = b.permute(kh, &[1, 2, 0]);
        let vh = b.reshape(v, &[SEQ, HEADS, DH]);
        let vh = b.permute(vh, &[1, 0, 2]);
        let scores = b.batch_matmul(qh, kh);
        let scores = b.scale(scores, 1.0 / (DH as f32).sqrt());
        let masked = b.causal_mask(scores);
        let probs = b.softmax(masked);
        let ctx = b.batch_matmul(probs, vh);
        let ctx = b.permute(ctx, &[1, 0, 2]);
        let ctx = b.reshape(ctx, &[SEQ, D]);
        let attn = b.linear(ctx, wo, None);
        let x = b.add(x, attn);

        let wh = b.param(rng.kaiming(&[VOCAB, D]));
        let logits = b.linear(x, wh, None);
        b.finish(vec![logits])
    }

    /// Full-window oracle: forward `[tokens..., 0-pad]` and read row `t`.
    fn full_window_row(graph: &Graph, tokens: &[f32], t: usize) -> Tensor {
        let mut padded = vec![0.0f32; SEQ];
        padded[..tokens.len()].copy_from_slice(tokens);
        let out = graph
            .infer(&[Tensor::from_vec(padded, &[SEQ])])
            .unwrap_ok()
            .remove(0);
        Tensor::from_slice(out.row(t))
    }

    /// Hook selecting an FP8 cache with calibration-pending static scale.
    struct Fp8CacheHook(Fp8Format);
    impl ExecHook for Fp8CacheHook {
        fn bind(&self, _node: &Node) -> Binding<'_> {
            Binding {
                kv: KvCachePolicy::Fp8 {
                    format: self.0,
                    scale: None,
                },
                ..Binding::default()
            }
        }
    }

    /// Binds every Linear's weight FP8-stored and codes its input at the
    /// boundary with a row-independent scale layout (static or per-tile),
    /// so a `[1, d]` step row quantizes exactly like row `t` of the window.
    struct CodedLinears {
        q: HashMap<ValueId, QTensor>,
        scale: ActScale,
    }
    impl CodedLinears {
        fn new(g: &Graph, scale: ActScale) -> Self {
            let linears = g.nodes().iter().filter_map(|n| match n.op {
                Op::Linear { weight, .. } => Some(weight),
                _ => None,
            });
            let q = linears
                .map(|v| {
                    let q = QTensor::quantize_per_channel(&g.params[&v], Fp8Format::E4M3);
                    (v, q.unwrap())
                })
                .collect();
            CodedLinears { q, scale }
        }
    }
    impl ExecHook for CodedLinears {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let Some(q) = node.op.weight_value().and_then(|v| self.q.get(&v)) else {
                return Binding::default();
            };
            let coded = ActBinding::Coded {
                format: Fp8Format::E4M3,
                scale: self.scale,
            };
            Binding {
                weight: WeightBinding::Q(q),
                acts: [coded, ActBinding::F32],
                ..Binding::default()
            }
        }
    }

    #[test]
    fn decode_under_q_and_coded_bindings_matches_reference_loop() {
        let g = tiny_decoder(11);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        for scale in [ActScale::Static(4.0), ActScale::PerTile(5)] {
            let mut hook = CodedLinears::new(&g, scale);
            let oracle = |tokens: &[f32], hook: &mut CodedLinears| {
                let mut padded = vec![0.0f32; SEQ];
                padded[..tokens.len()].copy_from_slice(tokens);
                let out = g.run(&[Tensor::from_vec(padded, &[SEQ])], hook).unwrap_ok();
                Tensor::from_slice(out[0].row(tokens.len() - 1))
            };

            // Prefill runs behind `PrefillCapture`: bit-identity with the
            // unwrapped reference loop proves it forwards `bind` verbatim.
            let mut st = DecodeState::new(&plan);
            let mut tokens = vec![5.0f32, 2.0, 9.0];
            let logits = st
                .prefill(&plan, &g, &Tensor::from_slice(&tokens), &mut hook)
                .unwrap_ok();
            assert_eq!(logits, oracle(&tokens, &mut hook), "prefill {scale:?}");
            assert_ne!(
                logits,
                full_window_row(&g, &tokens, 2),
                "bindings had no effect"
            );

            let mut next = logits.argmax() as f32;
            while tokens.len() < SEQ {
                tokens.push(next);
                let logits = st.step(&plan, &g, next, &mut hook).unwrap_ok();
                assert_eq!(
                    logits,
                    oracle(&tokens, &mut hook),
                    "step at pos {} {scale:?}",
                    tokens.len() - 1
                );
                next = logits.argmax() as f32;
            }
        }
    }

    #[test]
    fn incremental_f32_cache_is_bit_identical_to_full_window() {
        let g = tiny_decoder(3);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        assert_eq!(plan.n_layers(), 1);
        assert_eq!(plan.d_model(), D);

        let mut st = DecodeState::new(&plan);
        let prompt = [3.0f32, 7.0, 1.0];
        let mut tokens: Vec<f32> = prompt.to_vec();
        let logits = st
            .prefill(&plan, &g, &Tensor::from_slice(&prompt), &mut NoopHook)
            .unwrap_ok();
        let oracle = full_window_row(&g, &tokens, tokens.len() - 1);
        assert_eq!(logits, oracle, "prefill logits row");

        let mut next = logits.argmax() as f32;
        while tokens.len() < SEQ {
            tokens.push(next);
            let logits = st.step(&plan, &g, next, &mut NoopHook).unwrap_ok();
            let oracle = full_window_row(&g, &tokens, tokens.len() - 1);
            for (i, (a, b)) in logits.data().iter().zip(oracle.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step at pos {} logit {i}",
                    tokens.len() - 1
                );
            }
            next = logits.argmax() as f32;
        }
        // The window is full: one more step must fail typed, not panic.
        assert!(matches!(
            st.step(&plan, &g, next, &mut NoopHook),
            Err(PtqError::KvCache(KvError::CapacityOverflow {
                capacity: SEQ
            }))
        ));
    }

    #[test]
    fn fp8_cache_drift_is_bounded() {
        let g = tiny_decoder(5);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0]);

        let mut f32_state = DecodeState::new(&plan);
        let mut fp8_state = DecodeState::new(&plan);
        let mut hook = Fp8CacheHook(Fp8Format::E4M3);
        f32_state
            .prefill(&plan, &g, &prompt, &mut NoopHook)
            .unwrap_ok();
        fp8_state.prefill(&plan, &g, &prompt, &mut hook).unwrap_ok();

        let a = f32_state.step(&plan, &g, 6.0, &mut NoopHook).unwrap_ok();
        let b = fp8_state.step(&plan, &g, 6.0, &mut hook).unwrap_ok();
        let denom: f32 = a.data().iter().map(|v| v * v).sum::<f32>().max(1e-12);
        let err: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        assert!(
            err / denom < 1e-3,
            "relative FP8 cache drift {}",
            err / denom
        );

        // And the storage win: strictly under a third of the f32 bytes.
        let cache = fp8_state.cache().expect("prefilled");
        assert!(cache.cache_bytes() * 3 < cache.f32_bytes());
        // Static scales calibrated from the prefill activations.
        for side in [KvSide::K, KvSide::V] {
            match cache.buf(0, side).unwrap().policy() {
                KvCachePolicy::Fp8 { scale: Some(s), .. } => assert!(s.is_finite() && s > 0.0),
                p => panic!("expected calibrated static scale, got {p:?}"),
            }
        }
    }

    #[test]
    fn step_shapes_keep_masked_softmax_nan_free() {
        // Satellite regression: a step-shaped `[b, 1, s]` mask row plus
        // softmax must never re-mask emitted positions or produce NaN,
        // even when every score is -inf (the all-masked guard).
        let mut b = GraphBuilder::new();
        let x = b.input();
        let m = b.causal_mask(x);
        let s = b.softmax(m);
        let g = b.finish(vec![s]);
        // validate() accepts the bottom-aligned step shape.
        g.validate(&[vec![2, 1, 5]]).unwrap_ok();
        let step_row = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 1, 3]);
        let out = g
            .infer(std::slice::from_ref(&step_row))
            .unwrap_ok()
            .remove(0);
        // s1 == 1 bottom-aligned: nothing masked, plain softmax rows.
        assert!(out.data().iter().all(|p| p.is_finite() && *p > 0.0));
        let all_neg_inf = Tensor::from_vec(vec![f32::NEG_INFINITY; 4], &[1, 1, 4]);
        let out = g.infer(&[all_neg_inf]).unwrap_ok().remove(0);
        assert!(out.data().iter().all(|p| *p == 0.0), "guard row: {out:?}");
    }

    #[test]
    fn planner_rejects_non_decoders() {
        // Pooling head: MeanRows mixes rows across the window.
        let mut rng = TensorRng::seed(13);
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(rng.normal(&[VOCAB, D], 0.0, 0.4));
        let e = b.embedding(ids, table);
        let m = b.mean_rows(e);
        let wh = b.param(rng.kaiming(&[VOCAB, D]));
        let logits = b.linear(m, wh, None);
        let g = b.finish(vec![logits]);
        assert!(matches!(
            g.plan_decode(SEQ),
            Err(PtqError::DecodeUnsupported { .. })
        ));

        // Free-standing bmm without a causal mask (non-causal attention).
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(rng.normal(&[VOCAB, SEQ], 0.0, 0.4));
        let e = b.embedding(ids, table);
        let r = b.reshape(e, &[1, SEQ, SEQ]);
        let y = b.batch_matmul(r, r);
        let g = b.finish(vec![y]);
        assert!(matches!(
            g.plan_decode(SEQ),
            Err(PtqError::DecodeUnsupported { .. })
        ));
    }

    #[test]
    fn prefill_input_contracts_are_typed() {
        let g = tiny_decoder(7);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut st = DecodeState::new(&plan);
        assert!(matches!(
            st.prefill(&plan, &g, &Tensor::zeros(&[0]), &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
        assert!(matches!(
            st.prefill(&plan, &g, &Tensor::zeros(&[2, 2]), &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
        assert!(matches!(
            st.prefill(&plan, &g, &Tensor::zeros(&[SEQ + 1]), &mut NoopHook),
            Err(PtqError::KvCache(KvError::CapacityOverflow { .. }))
        ));
        // Step before prefill is a typed contract violation, not a panic.
        assert!(matches!(
            st.step(&plan, &g, 1.0, &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
    }
}
