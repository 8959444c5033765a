//! Incremental autoregressive decoding with a KV cache.
//!
//! [`crate::Graph::run`] and [`crate::ExecPlan::run`] evaluate a decoder
//! over a full `[seq]` window every call — O(seq²) attention work per
//! generated token. This module runs it incrementally instead:
//!
//! * [`Graph::plan_decode`] pattern-matches every causal attention
//!   group in the graph (the `q/k/v → reshape → permute → scores →
//!   scale → mask → softmax → context` motif the model-zoo builder
//!   emits) and compiles **one step schedule** that runs the whole
//!   network on `m` new token rows `[m, d]`, serving attention from a
//!   [`KvCache`] instead of recomputing K/V for the whole window.
//! * [`DecodeState`] owns the cache plus the step-persistent value slots
//!   (every step writes into the same tensors — the step arena pins all
//!   values for the step) and drives `prefill` / `step`. Both run the
//!   same loop body and differ only in the row count: `step` is one row,
//!   `prefill` is the prompt in blocks of `PREFILL_ROWS` rows (every
//!   weight decoded once per block, not once per token), then a seal of
//!   the cache (below). There is no full-window production path.
//!
//! ## The step schedule
//!
//! Per node, the planner picks one of six step ops:
//!
//! * **Eval** — run the node unchanged through the shared
//!   `exec::run_node` (the same `before_node` → `bind` → kernel →
//!   `after_node` path as the reference loop and the planned executor), so
//!   quantization hooks observe the step exactly as they would a full
//!   pass.
//! * **AddPosRows / ReshapeRows** — the two ops whose own parameters name
//!   the window, cut to the rows at hand: an `AddParam` over a
//!   full-window table (positional embeddings `[seq, d]`) adds only the
//!   table rows of the step's positions, and a `Reshape` whose target
//!   leads with `seq` leads with `m` instead. Broadcasting the full
//!   table or target would silently widen the step to `[seq, d]`.
//! * **Scores / Context** — the two attention `BatchMatMul`s, served by
//!   [`attention_step_q`] / [`attention_step_v`] against the cache.
//!   These cache-backed ops are hook-invisible: the full-window operands
//!   they would need do not exist step-wise.
//! * **Skip** — the K/V `reshape`/`permute` glue whose outputs only feed
//!   a cache-backed op.
//!
//! K and V source rows are appended to the cache immediately after their
//! producing node evaluates — topologically before the attention that
//! reads them, so position `t` attends to itself like the full window's
//! causal row `t`; within a block of `m` rows the graph's own
//! bottom-aligned `CausalMask` hides row `i`'s successors from it.
//!
//! ## Prefill: stage, then seal
//!
//! A cache policy with a static scale needs the prompt's K/V rows before
//! it can store any of them, so `prefill` stages the prompt in an f32
//! cache — every prompt position attends the exact rows, as row `t` of a
//! full-window forward does — and then **seals** it: each buffer is
//! re-stored under `hook.bind(k_src | v_src).kv`, a pending static scale
//! calibrated from the staged rows ([`KvCache::seal`]). Buffers whose
//! policy is f32 are left as staged; generated tokens read the sealed
//! cache.
//!
//! ## Bit-identity (the equivalence oracle)
//!
//! With [`KvCachePolicy::F32`] the token at position `t` — prompt or
//! generated — is bit-identical to row `t` of a full-window forward over
//! the same prefix (zero-padded to `seq`): every decoder op is
//! row-independent, the bottom-aligned causal mask makes row `t` blind to
//! later rows and to the padding, the softmax −inf tail contributes exact
//! `+0.0`s, and the step kernels replicate `batch_matmul`'s accumulation
//! chains (see `ptq_tensor::ops::attn` and DESIGN.md §16). The
//! full-window forward is the oracle the tests compare against, not a
//! path this module runs. This holds for hooks whose per-op behaviour is
//! shape-independent: `NoopHook`, weight-only and *static*-scale or
//! per-tile activation quantization over the standard `{Conv2d, Linear,
//! Embedding}` coverage. Dynamic per-tensor activation scales are
//! recomputed per tensor at hand — a block of prompt rows at prefill
//! (real rows only, never window padding), one `[1, d]` row per step —
//! so decode is then deterministic but not bit-equal to the window
//! forward.
//!
//! With an FP8 cache the only deviation is the cache's own storage
//! rounding; scale calibration follows the session's static-vs-dynamic
//! convention (static per-tensor scale from the prompt's rows via
//! [`KvCachePolicy::calibrated`], per-row dynamic fallback otherwise).

use crate::error::{PtqError, Shape};
use crate::exec::{run_node, NodeScratch};
use crate::graph::{Graph, Node, NodeId, Op, ValueId};
use crate::interp::ExecHook;
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

/// How one node executes inside a decode step of `m` rows.
#[derive(Debug, Clone)]
enum StepOp {
    /// Evaluate through the shared kernel dispatch with the full hook
    /// protocol.
    Eval,
    /// `AddParam` over a full-window table: add the step's rows only.
    AddPosRows {
        /// The table's parameter value.
        param: ValueId,
    },
    /// `Reshape` whose target leads with the window: lead with `m`.
    ReshapeRows,
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

/// The decode step schedule for one decoder graph at one window
/// size. Build with [`Graph::plan_decode`], execute with [`DecodeState`].
#[derive(Debug)]
pub struct DecodePlan {
    /// Window size = cache capacity = absolute position count.
    seq: usize,
    /// Cached row width (`heads * dh`, uniform across layers).
    d_model: usize,
    /// Per-node step schedule, in node order.
    steps: Vec<StepOp>,
    /// Per-node `(layer, side)` cache buffers fed by the node's `[m, d]`
    /// output rows (parallel to `steps`).
    appends: Vec<Vec<(usize, KvSide)>>,
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

/// Shorthand for the planner's rejection error.
fn unsupported(node: &Node, detail: impl Into<String>) -> PtqError {
    PtqError::DecodeUnsupported {
        node: node.name.clone(),
        detail: detail.into(),
    }
}

impl Graph {
    /// Compile this graph into the decode step schedule for a
    /// `seq`-position window.
    ///
    /// Rejects with [`PtqError::DecodeUnsupported`] any graph that is not
    /// a single-input/single-output causal decoder over the row-independent
    /// op set (attention via the builder motif, `Linear`/`LayerNorm`/
    /// elementwise/`Embedding` everywhere else). Pooling heads
    /// (`MeanRows`, `GlobalAvgPool`), convolutions and free-standing
    /// `MatMul`/`BatchMatMul` mix rows and cannot decode incrementally.
    pub fn plan_decode(&self, seq: usize) -> Result<DecodePlan, PtqError> {
        let graph = self;
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
        // The step schedule is derived from the full-window graph: reject
        // one that does not validate at `[seq]` with the validator's errors.
        graph.validate(&[vec![seq]])?;

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
        let mut appends: Vec<Vec<(usize, KvSide)>> = vec![Vec::new(); graph.nodes.len()];
        let mut skip: Vec<bool> = vec![false; graph.nodes.len()];
        for (gi, g) in groups.iter().enumerate() {
            scores_of.insert(g.scores, gi);
            context_of.insert(g.context, gi);
            appends[g.k_src].push((gi, KvSide::K));
            appends[g.v_src].push((gi, KvSide::V));
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

        // Compile the per-node step schedule.
        let mut steps = Vec::with_capacity(graph.nodes.len());
        for (i, node) in graph.nodes.iter().enumerate() {
            let op = if skip[i] {
                StepOp::Skip
            } else if let Some(&g) = scores_of.get(&i) {
                StepOp::Scores { group: g }
            } else if let Some(&g) = context_of.get(&i) {
                StepOp::Context { group: g }
            } else {
                match &node.op {
                    Op::Reshape(t) if t.first() == Some(&seq) => StepOp::ReshapeRows,
                    Op::AddParam { param } => {
                        let table = graph.params.get(param).ok_or(PtqError::UnboundParam {
                            value: *param,
                            node: node.name.clone(),
                        })?;
                        if table.ndim() >= 2 && table.dim(0) == seq {
                            StepOp::AddPosRows { param: *param }
                        } else {
                            StepOp::Eval
                        }
                    }
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
                    | Op::Permute(_)
                    | Op::Reshape(_) => StepOp::Eval,
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
            steps.push(op);
        }

        let plan = DecodePlan {
            seq,
            d_model,
            steps,
            appends,
            groups,
            n_nodes: graph.nodes.len(),
            n_values: graph.n_values,
            output: graph.outputs[0],
            max_arity: graph
                .nodes
                .iter()
                .map(|n| n.inputs.len())
                .max()
                .unwrap_or(0),
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
    /// A block only scales the row dim; at the far end, `seq` rows, the
    /// shapes are the full window's, which `Graph::validate` has checked.
    fn check_step_shapes(&self, graph: &Graph) -> Result<(), PtqError> {
        let mut shapes: Vec<Option<Shape>> = vec![None; graph.n_values];
        shapes[graph.inputs[0]] = Some(vec![1]);
        for (&id, t) in &graph.params {
            shapes[id] = Some(t.shape().to_vec());
        }
        for (i, node) in graph.nodes.iter().enumerate() {
            let out = match &self.steps[i] {
                StepOp::Skip => continue,
                StepOp::Eval => graph.infer_node_shape(node, &shapes)?,
                StepOp::ReshapeRows => {
                    let mut row = node.clone();
                    if let Op::Reshape(t) = &mut row.op {
                        t[0] = 1;
                    }
                    graph.infer_node_shape(&row, &shapes)?
                }
                StepOp::AddPosRows { param } => {
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
                // Query rows in, score rows out — or the reverse.
                StepOp::Scores { group } | StepOp::Context { group } => {
                    let g = &self.groups[*group];
                    let (q, s) = (vec![g.heads, 1, g.dh], vec![g.heads, 1, self.seq]);
                    let scores = matches!(self.steps[i], StepOp::Scores { .. });
                    let (want, out) = if scores { (q, s) } else { (s, q) };
                    let got = shapes[node.inputs[0]].clone();
                    if got.as_deref() != Some(&want[..]) {
                        return Err(PtqError::ShapeMismatch {
                            node: node.name.clone(),
                            detail: format!("step operand is {got:?}, cache wants {want:?}"),
                        });
                    }
                    out
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

/// Prompt rows `prefill` runs through the step schedule at a time: enough
/// that a block's MACs dwarf the per-call weight decode every step pays,
/// few enough that the step buffers stay small whatever the prompt length
/// and each block attends only the positions up to its own end. Measured
/// flat from 8 to 64 at d 64; at d 128 blocks past 16 push the linears
/// over the thread fan-out cutoff, which costs more than it returns there.
const PREFILL_ROWS: usize = 16;

/// Mutable decode session state: the KV cache plus step-persistent value
/// slots. One `DecodeState` serves one generation session; `reset` (or a
/// fresh `prefill`) starts another without dropping warmed buffers.
#[derive(Debug, Default)]
pub struct DecodeState {
    /// Per-layer K/V cache; built by `prefill` (policies need the prompt's
    /// activations to calibrate static scales).
    cache: Option<KvCache>,
    /// The buffers a step runs in.
    bufs: StepBuffers,
    /// Next absolute position (= tokens consumed so far).
    pos: usize,
}

/// Step-persistent buffers, reused by every step of every session.
#[derive(Debug, Default)]
struct StepBuffers {
    /// One step-persistent tensor per graph value. Sized on first use,
    /// reused (via `reuse_as`) every step after — steady-state steps
    /// perform no intermediate-tensor allocation.
    values: Vec<Tensor>,
    /// Hook-visible input staging, as in the planned executor.
    staging: Vec<Tensor>,
    /// Activation-code buffers and id scratch for the executing node.
    node: NodeScratch,
    /// Staging for a `ReshapeRows` target.
    shape: Shape,
}

impl DecodeState {
    /// Fresh state sized for `plan`.
    pub fn new(plan: &DecodePlan) -> Self {
        DecodeState {
            bufs: StepBuffers::new(plan),
            ..DecodeState::default()
        }
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

    /// Run `prompt` (a rank-1 tensor of token ids) through the step
    /// schedule in blocks of rows, populate the cache with positions
    /// `0..prompt.len()`, and return the logits row for the last prompt
    /// token.
    ///
    /// The prompt is staged in an f32 cache, then each buffer is sealed
    /// under the session's policy for its K/V source node: FP8 policies
    /// with `scale: None` are calibrated here from the staged prompt
    /// rows, f32 buffers stay as staged. A prompt rejected on its shape
    /// leaves the state untouched; one the model fails on (e.g. an
    /// out-of-vocabulary id) leaves it as [`DecodeState::reset`] does.
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

        self.reset();
        let layers = plan.groups.len();
        let mut cache = KvCache::uniform(layers, plan.d_model, plan.seq, KvCachePolicy::F32);
        // Blocks run in buffers of their own, dropped with this call: what
        // a session holds between dispatches stays one row per value.
        let mut bufs = StepBuffers::new(plan);
        let mut appended = 0u64;
        for (c, rows) in prompt.data().chunks(PREFILL_ROWS).enumerate() {
            let t0 = c * PREFILL_ROWS;
            appended += bufs.run_rows(plan, graph, &mut cache, t0, rows, hook)?;
        }
        for (layer, g) in plan.groups.iter().enumerate() {
            for (src, side) in [(g.k_src, KvSide::K), (g.v_src, KvSide::V)] {
                cache.seal(layer, side, hook.bind(&graph.nodes[src]).kv)?;
            }
        }
        ptq_trace::counter(ptq_trace::Level::Info, "kv.appended", appended, &[]);
        self.cache = Some(cache);
        self.pos = p;

        if sp.active() {
            sp.record_int("prompt_len", p as i64);
            sp.record_int("layers", layers as i64);
            sp.record_int("cache_bytes", self.cache_bytes() as i64);
        }
        drop(sp);
        let last = (p - 1) % PREFILL_ROWS;
        Ok(Tensor::from_slice(bufs.values[plan.output].row(last)))
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
        let DecodeState { cache, bufs, pos } = self;
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
        let appended = bufs.run_rows(plan, graph, cache, t, &[token], hook)?;
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
        Ok(Tensor::from_slice(bufs.values[plan.output].row(0)))
    }
}

impl StepBuffers {
    /// Empty buffers for `plan`'s values; each is sized on first use.
    fn new(plan: &DecodePlan) -> Self {
        let mut b = StepBuffers::default();
        b.values.resize_with(plan.n_values, Tensor::default);
        b.staging.resize_with(plan.max_arity, Tensor::default);
        b.shape.reserve(4); // room for `[m, heads, dh]`: steps allocate none
        b
    }

    /// The one loop body of decoding, shared by `prefill` (the prompt's
    /// rows) and `step` (one row): run `tokens` through the step schedule
    /// at positions `t0..t0 + tokens.len()` against `cache`, leaving their
    /// logits rows in the output value slot. Returns the number of K/V
    /// rows appended.
    fn run_rows(
        &mut self,
        plan: &DecodePlan,
        graph: &Graph,
        cache: &mut KvCache,
        t0: usize,
        tokens: &[f32],
        hook: &mut dyn ExecHook,
    ) -> Result<u64, PtqError> {
        let StepBuffers {
            values,
            staging,
            node: scratch,
            shape,
        } = self;
        let m = tokens.len();
        let mut appended = 0u64;

        // The token ids are the graph input's value.
        let ids = &mut values[graph.inputs[0]];
        ids.reuse_as(&[m]);
        ids.data_mut().copy_from_slice(tokens);

        for (i, op) in plan.steps.iter().enumerate() {
            let node = &graph.nodes[i];
            let srcs = &node.inputs;
            match op {
                StepOp::Skip => continue,
                // The cache-backed ops read only their query/probs operand;
                // the K/V operand is the cache.
                StepOp::Scores { group } => {
                    stage(staging, &srcs[..1], values);
                    let k = cache.buf(*group, KvSide::K)?;
                    let out = &mut values[node.output];
                    attention_step_q(&staging[0], k, out, hook.bind(node).kernel_path);
                    debug_assert_eq!(out.dim(0), plan.groups[*group].heads);
                }
                StepOp::Context { group } => {
                    stage(staging, &srcs[..1], values);
                    let v = cache.buf(*group, KvSide::V)?;
                    let out = &mut values[node.output];
                    attention_step_v(&staging[0], v, out, hook.bind(node).kernel_path);
                }
                StepOp::AddPosRows { param } => {
                    stage(staging, &srcs[..1], values);
                    hook.before_node(node, &mut staging[..1]);
                    let table = graph
                        .params
                        .get(param)
                        .ok_or_else(|| PtqError::UnboundParam {
                            value: *param,
                            node: node.name.clone(),
                        })?;
                    let x = &staging[0];
                    let out = &mut values[node.output];
                    out.reuse_as(x.shape());
                    let rows = &table.data()[t0 * (x.len() / m)..][..x.len()];
                    for ((o, &x), &r) in out.data_mut().iter_mut().zip(x.data()).zip(rows) {
                        *o = x + r;
                    }
                    hook.after_node(node, out);
                }
                StepOp::ReshapeRows => {
                    stage(staging, &srcs[..1], values);
                    hook.before_node(node, &mut staging[..1]);
                    let out = &mut values[node.output];
                    out.copy_from(&staging[0]);
                    if let Op::Reshape(target) = &node.op {
                        shape.clear();
                        shape.push(m);
                        shape.extend_from_slice(&target[1..]);
                        out.reuse_as(shape);
                    }
                    hook.after_node(node, out);
                }
                StepOp::Eval => {
                    stage(staging, srcs, values);
                    let out = &mut values[node.output];
                    run_node(graph, node, &mut staging[..srcs.len()], hook, scratch, out)?;
                }
            }
            for &(layer, side) in &plan.appends[i] {
                for r in 0..m {
                    cache.append(layer, side, values[node.output].row(r))?;
                }
                appended += m as u64;
            }
        }
        Ok(appended)
    }
}

/// Copy each step input into its hook-visible staging buffer.
fn stage(staging: &mut [Tensor], srcs: &[ValueId], values: &[Tensor]) {
    for (slot, &v) in staging.iter_mut().zip(srcs) {
        slot.copy_from(&values[v]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::UnwrapOk;
    use crate::exec::{ActBinding, Binding, WeightBinding};
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

            // Prefill is the prompt through the step schedule: its last
            // logits row must equal the reference loop's window row.
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

    #[test]
    fn failed_prompt_token_leaves_the_state_reset() {
        let g = tiny_decoder(7);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let good = Tensor::from_slice(&[3.0, 7.0, 1.0]);
        // Out-of-vocab id at position 2: two prompt tokens run first.
        let bad = Tensor::from_slice(&[3.0, 7.0, VOCAB as f32, 1.0]);

        let mut fresh = DecodeState::new(&plan);
        let want = fresh.prefill(&plan, &g, &good, &mut NoopHook).unwrap_ok();
        let want_next = fresh.step(&plan, &g, 4.0, &mut NoopHook).unwrap_ok();

        // Both from a never-used state and over a live session.
        let mut st = DecodeState::new(&plan);
        for _ in 0..2 {
            assert!(matches!(
                st.prefill(&plan, &g, &bad, &mut NoopHook),
                Err(PtqError::InvalidInput { .. })
            ));
            assert!(st.cache().is_none());
            assert_eq!((st.pos(), st.cache_bytes()), (0, 0));
            assert!(matches!(
                st.step(&plan, &g, 1.0, &mut NoopHook),
                Err(PtqError::InvalidInput { node, .. }) if node == "decode.step"
            ));
            let got = st.prefill(&plan, &g, &good, &mut NoopHook).unwrap_ok();
            assert_eq!(got, want, "prefill after a failed prompt");
            let got = st.step(&plan, &g, 4.0, &mut NoopHook).unwrap_ok();
            assert_eq!(got, want_next, "step after a failed prompt");
        }
        // A prompt rejected on its shape alone leaves the live session be.
        let empty = Tensor::zeros(&[0]);
        assert!(st.prefill(&plan, &g, &empty, &mut NoopHook).is_err());
        assert_eq!(st.pos(), good.len() + 1);
        let again = st.step(&plan, &g, 2.0, &mut NoopHook).unwrap_ok();
        assert_eq!(again, fresh.step(&plan, &g, 2.0, &mut NoopHook).unwrap_ok());
    }

    #[test]
    fn fp8_prefill_seals_the_staged_prompt_rows() {
        let g = tiny_decoder(5);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0]);
        let mut f32_state = DecodeState::new(&plan);
        let f32_logits = f32_state
            .prefill(&plan, &g, &prompt, &mut NoopHook)
            .unwrap_ok();
        let staged = f32_state.cache().expect("prefilled");

        for format in Fp8Format::ALL {
            let mut fp8_state = DecodeState::new(&plan);
            let logits = fp8_state
                .prefill(&plan, &g, &prompt, &mut Fp8CacheHook(format))
                .unwrap_ok();
            // Prompt positions attend the exact staged rows, not the codes.
            assert_eq!(logits, f32_logits, "{format}: prefill logits");
            let sealed = fp8_state.cache().expect("prefilled");
            for side in [KvSide::K, KvSide::V] {
                let buf = staged.buf(0, side).unwrap();
                let mut rows = vec![0.0f32; buf.len() * D];
                buf.decode_into(&mut rows);
                let scale = ptq_fp8::fp8_scale(format, ptq_fp8::absmax_nan_aware(&rows));
                let policy = KvCachePolicy::Fp8 {
                    format,
                    scale: Some(scale),
                };
                let got = sealed.buf(0, side).unwrap();
                assert_eq!(got.policy(), policy, "{format} {side}");
                // ...and holds the codes a direct store of those rows holds.
                let mut direct = ptq_tensor::KvBuf::new(D, SEQ, policy);
                rows.chunks(D).for_each(|r| direct.append_row(r).unwrap());
                assert_eq!(got.len(), direct.len());
                for (j, c) in (0..got.len()).flat_map(|j| (0..D).map(move |c| (j, c))) {
                    assert_eq!(
                        got.value_at(j, c).to_bits(),
                        direct.value_at(j, c).to_bits(),
                        "{format} {side} ({j}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_prefill_is_one_span_and_no_step_spans() {
        use ptq_trace::{EventKind, FieldValue, Level, MemorySink};
        let g = tiny_decoder(9);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut st = DecodeState::new(&plan);
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0, 6.0]);
        let p = prompt.len() as u64;

        let sink = std::sync::Arc::new(MemorySink::new());
        ptq_trace::install(vec![sink.clone()], Level::Info);
        ptq_trace::counter(Level::Info, "test.this_thread", 1, &[]);
        st.prefill(&plan, &g, &prompt, &mut Fp8CacheHook(Fp8Format::E4M3))
            .unwrap_ok();
        let cache_bytes = st.cache_bytes() as i64;
        ptq_trace::uninstall();

        // The recorder is process-global: keep this thread's events only.
        let evs = sink.events();
        let me = evs.iter().find(|e| e.name == "test.this_thread");
        let me = me.expect("marker recorded").thread;
        let evs: Vec<_> = evs.iter().filter(|e| e.thread == me).collect();
        let exits = |name: &str| -> Vec<&ptq_trace::TraceEvent> {
            let all = evs.iter().copied();
            all.filter(|e| e.name == name && matches!(e.kind, EventKind::SpanExit { .. }))
                .collect()
        };
        assert!(
            exits("decode.step").is_empty(),
            "prompt tokens emit no step span"
        );
        let prefill = exits("decode.prefill");
        assert_eq!(prefill.len(), 1);
        for (key, want) in [
            ("prompt_len", p as i64),
            ("layers", 1),
            ("cache_bytes", cache_bytes),
        ] {
            assert_eq!(prefill[0].field(key), Some(&FieldValue::Int(want)), "{key}");
        }
        let appended: u64 = evs
            .iter()
            .filter(|e| e.name == "kv.appended")
            .map(|e| match e.kind {
                EventKind::Counter { delta } => delta,
                _ => 0,
            })
            .sum();
        assert_eq!(appended, 2 * plan.n_layers() as u64 * p);
    }
}
