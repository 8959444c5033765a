//! Incremental autoregressive decoding with a KV cache.
//!
//! [`crate::Graph::run`] and [`crate::ExecPlan::run`] evaluate a decoder
//! over a full `[seq]` window every call — O(seq²) attention work per
//! generated token. This module runs it incrementally instead:
//!
//! * [`Graph::plan_decode`] pattern-matches every causal attention group
//!   (the `q/k/v → reshape → permute → scores → scale → mask → softmax →
//!   context` motif the model-zoo builder emits) and compiles **one step
//!   schedule** that runs the network on `m` new token rows `[m, d]`,
//!   serving attention from a [`KvCache`] instead of recomputing K/V.
//! * [`DecodeState`] is one session: its cache and next position. Passes
//!   run in [`StepBuffers`] owned by the runner (a session object, a
//!   serving worker), over rows in **segments**, one per session: tokens
//!   at consecutive positions from the session's position, appended to and
//!   attending its cache alone. `step` is one segment of one row;
//!   `prefill` the prompt in blocks of [`PREFILL_ROWS`] rows, then a seal
//!   of the cache (below); [`DecodeState::step_many`] one single-row
//!   segment per session — every weight decoded once per pass, not per row.
//!
//! ## The step schedule
//!
//! Per node, the planner picks one of six step ops:
//!
//! * **Eval** — the node unchanged through the shared `exec::run_node`
//!   (the hook protocol of the reference loop and the planned executor).
//! * **AddPosRows / ReshapeRows** — the two ops whose parameters name the
//!   window, cut to the rows at hand: each row adds its position's row of
//!   a `[seq, ·]` positional table, and a `Reshape` target that leads with
//!   `seq` leads with `m`.
//! * **MaskRows** — the `CausalMask` per row: row `r` at position `p`
//!   keeps keys `0..=p` (for one segment, the graph's bottom-aligned mask).
//!   Like AddPosRows it keeps `before_node`/`after_node`.
//! * **Attn** — the attention `BatchMatMul`s, scores against the K cache
//!   and context against V: [`attention_step_q`] / [`attention_step_v`]
//!   over each segment's cache (scores `[heads, m, l]`, `l` the longest).
//!   Hook-invisible: their full-window operands do not exist.
//! * **Skip** — the K/V `reshape`/`permute` glue that only feeds those.
//!
//! K and V rows are appended to their segment's cache right after their
//! producing node evaluates, before the attention that reads them.
//!
//! ## Prefill: stage, then seal
//!
//! A static cache scale needs the prompt's K/V rows before it can store
//! any, so `prefill` stages the prompt in an f32 cache (prompt positions
//! attend exact rows, as in a window forward) and then **seals** it: each
//! buffer is re-stored under `hook.bind(k_src | v_src).kv`, a pending
//! static scale calibrated from the staged rows ([`KvCache::seal`]).
//!
//! ## Bit-identity (the equivalence oracle)
//!
//! With [`KvCachePolicy::F32`] the token at position `t` — prompt or
//! generated — is bit-identical to row `t` of a full-window forward over
//! the same prefix (zero-padded to `seq`): every decoder op is
//! row-independent, the causal mask hides later rows and the padding,
//! whose softmax entries are exact `+0.0`s the context kernel skips, and
//! the step kernels keep `batch_matmul`'s chains (DESIGN.md §16). A
//! gathered row is its session's own step plus a −inf mask tail past its
//! cache, so it is bit-identical to that step. Both hold for hooks whose
//! per-row behaviour is shape-independent (static or per-tile scales);
//! dynamic per-tensor scales are taken over the tensor at hand, so decode
//! is then deterministic but depends on where blocks end. An FP8 cache
//! adds only its own storage rounding.

use crate::error::{PtqError, Shape};
use crate::exec::{operand, run_node, split_out, NodeScratch};
use crate::graph::{Graph, Node, NodeId, Op, ValueId};
use crate::interp::ExecHook;
use ptq_tensor::ops::{attention_step_q, attention_step_v, KvSegments};
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
    /// `AddParam` over a full-window table (this parameter): add each
    /// row's own table row.
    AddPosRows(ValueId),
    /// `Reshape` whose target leads with the window: lead with `m`.
    ReshapeRows,
    /// `CausalMask` over `[heads, m, l]` scores: each row by its position.
    MaskRows,
    /// The attention bmm of `groups[group]` served by its `side` cache:
    /// scores against K, context against V.
    Attn { group: usize, side: KvSide },
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
        let mut attn_of: HashMap<NodeId, StepOp> = HashMap::new();
        let mut appends: Vec<Vec<(usize, KvSide)>> = vec![Vec::new(); graph.nodes.len()];
        let mut skip: Vec<bool> = vec![false; graph.nodes.len()];
        for (gi, g) in groups.iter().enumerate() {
            for (n, side) in [(g.scores, KvSide::K), (g.context, KvSide::V)] {
                attn_of.insert(n, StepOp::Attn { group: gi, side });
            }
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
            } else if let Some(op) = attn_of.remove(&i) {
                op
            } else {
                match &node.op {
                    Op::Reshape(t) if t.first() == Some(&seq) => StepOp::ReshapeRows,
                    // Every mask anchors a matched group (or planning failed).
                    Op::CausalMask => StepOp::MaskRows,
                    Op::AddParam { param: p } => {
                        let table = graph.f32_param(node, *p)?;
                        if table.ndim() >= 2 && table.dim(0) == seq {
                            StepOp::AddPosRows(*p)
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

    /// Statically validate the step schedule by propagating single-row
    /// shapes through it (with the cache at its `seq` high-water length),
    /// reusing the full validator's per-op shape rules for `Eval` nodes.
    /// A block only scales the row dim; at the far end, `seq` rows, the
    /// shapes are the full window's, which `Graph::validate` has checked.
    fn check_step_shapes(&self, graph: &Graph) -> Result<(), PtqError> {
        let mut shapes: Vec<Option<Shape>> = vec![None; graph.n_values];
        shapes[graph.inputs[0]] = Some(vec![1]);
        for (&id, p) in &graph.params {
            shapes[id] = Some(p.shape().to_vec());
        }
        for (i, node) in graph.nodes.iter().enumerate() {
            let out = match &self.steps[i] {
                StepOp::Skip => continue,
                StepOp::Eval | StepOp::MaskRows => graph.infer_node_shape(node, &shapes)?,
                StepOp::ReshapeRows => {
                    let mut row = node.clone();
                    if let Op::Reshape(t) = &mut row.op {
                        t[0] = 1;
                    }
                    graph.infer_node_shape(&row, &shapes)?
                }
                StepOp::AddPosRows(p) => {
                    let table = graph.f32_param(node, *p)?;
                    let x = shapes[node.inputs[0]].clone().unwrap_or_default();
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
                StepOp::Attn { group, side } => {
                    let g = &self.groups[*group];
                    let (q, s) = (vec![g.heads, 1, g.dh], vec![g.heads, 1, self.seq]);
                    let scores = *side == KvSide::K;
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
        let (built, got) = (
            (self.n_nodes, self.n_values),
            (graph.nodes.len(), graph.n_values),
        );
        if built != got {
            let detail = format!("decode plan built for (nodes, values) {built:?}, got {got:?}");
            return Err(PtqError::InvalidTarget { detail });
        }
        Ok(())
    }
}

/// Rows of a prompt block, and the most a serving worker gathers into one
/// step: enough that a pass's MACs dwarf its per-call weight decode, few
/// enough that the buffers stay small. Flat from 8 to 64 at d 64; at d 128
/// passes past 16 rows push the linears over the thread fan-out cutoff,
/// which costs more than it returns there.
pub const PREFILL_ROWS: usize = 16;

/// One decode session: its KV cache and next position — all it holds
/// between passes (the buffers a pass runs in are its runner's
/// [`StepBuffers`]). `reset` (or a fresh `prefill`) starts another.
#[derive(Debug, Default)]
pub struct DecodeState {
    /// Per-layer K/V cache, built by `prefill`.
    cache: Option<KvCache>,
    /// Next absolute position (= tokens consumed so far).
    pos: usize,
}

/// The buffers a decode pass runs in, owned by whoever runs passes (a
/// `DecodeSession`, each serving worker) and reused by every pass of every
/// session after: steady-state passes allocate no intermediate tensor.
#[derive(Debug, Default)]
pub struct StepBuffers {
    /// One tensor per graph value, reused (via `reuse_as`) by every pass.
    values: Vec<Tensor>,
    /// Transformed operands, activation-code buffers and id scratch for the
    /// executing node.
    node: NodeScratch,
    /// Staging for a `ReshapeRows` target.
    shape: Shape,
    /// Absolute position of each row of the pass.
    pos: Vec<usize>,
}

/// One session's rows in a pass: `tokens` at consecutive positions from
/// `pos`, appended to and attending `cache` only.
struct Segment<'a> {
    cache: &'a mut KvCache,
    pos: usize,
    tokens: &'a [f32],
}

impl DecodeState {
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

    /// Forget the session (cache and position).
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
        bufs: &mut StepBuffers,
        prompt: &Tensor,
        hook: &mut dyn ExecHook,
    ) -> Result<Tensor, PtqError> {
        plan.check_compat(graph)?;
        let p = prompt.len();
        if prompt.ndim() != 1 || p == 0 {
            let shape = prompt.shape();
            return Err(PtqError::InvalidInput {
                node: "decode.prefill".into(),
                detail: format!("prompt must be a non-empty rank-1 id tensor, got {shape:?}"),
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
        let mut appended = 0u64;
        for (c, tokens) in prompt.data().chunks(PREFILL_ROWS).enumerate() {
            let block = Segment {
                cache: &mut cache,
                pos: c * PREFILL_ROWS,
                tokens,
            };
            appended += bufs.run_rows(plan, graph, &mut [block], hook)?;
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
        Ok(bufs.logits(plan, (p - 1) % PREFILL_ROWS))
    }

    /// Decode one token at the next position: append its K/V rows to the
    /// cache and return its logits row. `token` is the id chosen from the
    /// previous logits (greedy or sampled — the caller decides).
    pub fn step(
        &mut self,
        plan: &DecodePlan,
        graph: &Graph,
        bufs: &mut StepBuffers,
        token: f32,
        hook: &mut dyn ExecHook,
    ) -> Result<Tensor, PtqError> {
        DecodeState::step_many(plan, graph, bufs, &mut [(self, token)], hook)?;
        Ok(bufs.logits(plan, 0))
    }

    /// [`DecodeState::step`] for several sessions in one pass of
    /// `streams.len()` rows, every weight decoded once for all of them:
    /// row `i` is `streams[i]`'s token at its state's next position,
    /// against that state's cache alone; its logits are
    /// [`StepBuffers::logits`]`(plan, i)` afterwards. A row is bit-identical
    /// to its session's own `step` when the hook's activation scales do
    /// not depend on the other rows of a tensor (static or per-tile, not
    /// dynamic per-tensor). Nothing runs if any state is unprefilled or
    /// full.
    pub fn step_many(
        plan: &DecodePlan,
        graph: &Graph,
        bufs: &mut StepBuffers,
        streams: &mut [(&mut DecodeState, f32)],
        hook: &mut dyn ExecHook,
    ) -> Result<(), PtqError> {
        plan.check_compat(graph)?;
        let mut segs = Vec::with_capacity(streams.len());
        for (state, token) in streams.iter_mut() {
            let Some(cache) = state.cache.as_mut() else {
                return Err(PtqError::InvalidInput {
                    node: "decode.step".into(),
                    detail: "step before prefill: run prefill to seed the cache".into(),
                });
            };
            if state.pos >= plan.seq {
                return Err(PtqError::KvCache(KvError::CapacityOverflow {
                    capacity: plan.seq,
                }));
            }
            let (pos, tokens) = (state.pos, std::slice::from_ref(token));
            segs.push(Segment { cache, pos, tokens });
        }
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "decode.step");
        let appended = bufs.run_rows(plan, graph, &mut segs, hook)?;
        if appended > 0 {
            ptq_trace::counter(ptq_trace::Level::Info, "kv.appended", appended, &[]);
        }
        if sp.active() {
            let longest = segs.iter().map(|s| s.cache.len()).max().unwrap_or(0);
            sp.record_int("rows", segs.len() as i64);
            sp.record_int("kv_len", longest as i64);
        }
        drop((sp, segs));
        for (state, _) in streams {
            state.pos += 1;
        }
        Ok(())
    }
}

impl StepBuffers {
    /// The logits of row `r` of the last pass (which must have had it).
    pub fn logits(&self, plan: &DecodePlan, r: usize) -> Tensor {
        Tensor::from_slice(self.values[plan.output].row(r))
    }

    /// The one loop body of decoding: run the segments' tokens through the
    /// step schedule as one `[m, ·]` pass, each row at its own position
    /// against its own segment's cache, leaving their logits rows in the
    /// output value slot. Returns the number of K/V rows appended.
    fn run_rows(
        &mut self,
        plan: &DecodePlan,
        graph: &Graph,
        segs: &mut [Segment<'_>],
        hook: &mut dyn ExecHook,
    ) -> Result<u64, PtqError> {
        let StepBuffers {
            values,
            node: scratch,
            shape,
            pos,
        } = self;
        values.resize_with(plan.n_values, Tensor::default);
        pos.clear();
        pos.extend(segs.iter().flat_map(|s| s.pos..s.pos + s.tokens.len()));
        let m = pos.len();
        if m == 0 {
            return Ok(0);
        }
        let mut appended = 0u64;

        // The token ids are the graph input's value.
        let ids = &mut values[graph.inputs[0]];
        ids.reuse_as(&[m]);
        for (id, &t) in ids
            .data_mut()
            .iter_mut()
            .zip(segs.iter().flat_map(|s| s.tokens))
        {
            *id = t;
        }

        for (i, op) in plan.steps.iter().enumerate() {
            let node = &graph.nodes[i];
            let srcs = &node.inputs;
            let (out, value) = split_out(values, node.output);
            match op {
                StepOp::Skip => continue,
                // The cache-backed ops read only their query/probs operand,
                // as it stands; the K/V operand is each segment's cache.
                StepOp::Attn { group, side } => {
                    let path = hook.bind(node).kernel_path;
                    let many;
                    let kv = match segs {
                        [s] => KvSegments::One(s.cache.buf(*group, *side)?),
                        _ => {
                            let bufs = segs
                                .iter()
                                .map(|s| Ok((s.tokens.len(), s.cache.buf(*group, *side)?)));
                            many = bufs.collect::<Result<Vec<_>, KvError>>()?;
                            KvSegments::Many(&many)
                        }
                    };
                    let x = value(srcs[0]);
                    match side {
                        KvSide::K => attention_step_q(x, kv, out, path),
                        KvSide::V => attention_step_v(x, kv, out, path),
                    }
                }
                // The row-addressed ops: the first input's operand under the
                // hook's before/after calls, transformed by row position.
                StepOp::AddPosRows(_) | StepOp::MaskRows | StepOp::ReshapeRows => {
                    let x = value(srcs[0]);
                    let (b, codes) = (&mut scratch.operands[0], &mut scratch.acts[0]);
                    let x = operand(&hook.bind(node), 0, x, b, codes);
                    out.copy_from(x);
                    match (op, &node.op) {
                        (StepOp::AddPosRows(p), _) => {
                            let (table, w) = (graph.f32_param(node, *p)?, out.len() / m);
                            for (row, &p) in out.data_mut().chunks_mut(w.max(1)).zip(pos.iter()) {
                                let t = &table.data()[p * w..][..w];
                                row.iter_mut().zip(t).for_each(|(o, &t)| *o += t);
                            }
                        }
                        // `[heads, m, l]`: row `r` of every head keeps keys
                        // `0..=pos[r]`.
                        (StepOp::MaskRows, _) => {
                            let l = out.shape().last().map_or(1, |&l| l.max(1));
                            for (row, &p) in out.data_mut().chunks_mut(l).zip(pos.iter().cycle()) {
                                row[p + 1..].fill(f32::NEG_INFINITY);
                            }
                        }
                        (_, Op::Reshape(target)) => {
                            shape.clear();
                            shape.push(m);
                            shape.extend_from_slice(&target[1..]);
                            out.reuse_as(shape);
                        }
                        _ => {}
                    }
                    hook.before_node(node, &[x]);
                    hook.after_node(node, out);
                }
                StepOp::Eval => {
                    // Every operator reads one or two inputs (validated).
                    let n = srcs.len();
                    let ins = [value(srcs[0]), value(srcs[n - 1])];
                    run_node(graph, node, &ins[..n], hook, scratch, None, out)?;
                }
            }
            // The split borrow ends here: the appends read the output.
            drop(value);
            for &(layer, side) in &plan.appends[i] {
                let mut rows = (0..m).map(|r| values[node.output].row(r));
                for s in segs.iter_mut() {
                    for row in rows.by_ref().take(s.tokens.len()) {
                        s.cache.append(layer, side, row)?;
                    }
                }
                appended += m as u64;
            }
        }
        Ok(appended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::UnwrapOk;
    use crate::exec::{ActBinding, Binding};
    use crate::graph::Param;
    use crate::interp::NoopHook;
    use ptq_fp8::Fp8Format;
    use ptq_tensor::ops::KernelPath;
    use ptq_tensor::{ActScale, Int8Codec, Int8Mode, QTensor, TensorRng};

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

    /// `g` with every Linear's weight FP8-stored in place of its f32
    /// tensor, the form a quantized model's graph takes.
    fn fp8_linears(g: &Graph) -> Graph {
        let mut out = g.clone();
        for n in g.nodes() {
            if let Op::Linear { weight, .. } = n.op {
                let w = g.param(weight).and_then(Param::as_f32).unwrap();
                let q = QTensor::quantize_per_channel(w, Fp8Format::E4M3).unwrap();
                out.set_param(weight, q).unwrap_ok();
            }
        }
        out
    }

    /// Codes every Linear's input at the boundary with a row-independent
    /// scale layout (static or per-tile), so a `[1, d]` step row quantizes
    /// exactly like row `t` of the window. Runs on [`fp8_linears`] graphs:
    /// codes pair with FP8-stored weights.
    struct CodedLinears {
        scale: ActScale,
    }
    impl ExecHook for CodedLinears {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let mut b = Binding::default();
            if let Op::Linear { .. } = node.op {
                b.acts[0] = ActBinding::Coded {
                    format: Fp8Format::E4M3,
                    scale: self.scale,
                };
            }
            b
        }
    }

    #[test]
    fn decode_under_q_and_coded_bindings_matches_reference_loop() {
        let f32_graph = tiny_decoder(11);
        let g = fp8_linears(&f32_graph);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        for scale in [ActScale::Static(4.0), ActScale::PerTile(5)] {
            let mut hook = CodedLinears { scale };
            let oracle = |tokens: &[f32], hook: &mut CodedLinears| {
                let mut padded = vec![0.0f32; SEQ];
                padded[..tokens.len()].copy_from_slice(tokens);
                let out = g.run(&[Tensor::from_vec(padded, &[SEQ])], hook).unwrap_ok();
                Tensor::from_slice(out[0].row(tokens.len() - 1))
            };

            // Prefill is the prompt through the step schedule: its last
            // logits row must equal the reference loop's window row.
            let mut st = DecodeState::default();
            let mut tokens = vec![5.0f32, 2.0, 9.0];
            let logits = st
                .prefill(
                    &plan,
                    &g,
                    &mut bufs,
                    &Tensor::from_slice(&tokens),
                    &mut hook,
                )
                .unwrap_ok();
            assert_eq!(logits, oracle(&tokens, &mut hook), "prefill {scale:?}");
            assert_ne!(
                logits,
                full_window_row(&f32_graph, &tokens, 2),
                "FP8 weights and codes had no effect"
            );

            let mut next = logits.argmax() as f32;
            while tokens.len() < SEQ {
                tokens.push(next);
                let logits = st.step(&plan, &g, &mut bufs, next, &mut hook).unwrap_ok();
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
        let mut bufs = StepBuffers::default();
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.d_model(), D);

        let mut st = DecodeState::default();
        let prompt = [3.0f32, 7.0, 1.0];
        let mut tokens: Vec<f32> = prompt.to_vec();
        let logits = st
            .prefill(
                &plan,
                &g,
                &mut bufs,
                &Tensor::from_slice(&prompt),
                &mut NoopHook,
            )
            .unwrap_ok();
        let oracle = full_window_row(&g, &tokens, tokens.len() - 1);
        assert_eq!(logits, oracle, "prefill logits row");

        let mut next = logits.argmax() as f32;
        while tokens.len() < SEQ {
            tokens.push(next);
            let logits = st
                .step(&plan, &g, &mut bufs, next, &mut NoopHook)
                .unwrap_ok();
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
            st.step(&plan, &g, &mut bufs, next, &mut NoopHook),
            Err(PtqError::KvCache(KvError::CapacityOverflow {
                capacity: SEQ
            }))
        ));
    }

    #[test]
    fn fp8_cache_drift_is_bounded() {
        let g = tiny_decoder(5);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0]);

        let mut f32_state = DecodeState::default();
        let mut fp8_state = DecodeState::default();
        let mut hook = Fp8CacheHook(Fp8Format::E4M3);
        f32_state
            .prefill(&plan, &g, &mut bufs, &prompt, &mut NoopHook)
            .unwrap_ok();
        fp8_state
            .prefill(&plan, &g, &mut bufs, &prompt, &mut hook)
            .unwrap_ok();

        let a = f32_state
            .step(&plan, &g, &mut bufs, 6.0, &mut NoopHook)
            .unwrap_ok();
        let b = fp8_state
            .step(&plan, &g, &mut bufs, 6.0, &mut hook)
            .unwrap_ok();
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
        let mut bufs = StepBuffers::default();
        let mut st = DecodeState::default();
        assert!(matches!(
            st.prefill(&plan, &g, &mut bufs, &Tensor::zeros(&[0]), &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
        assert!(matches!(
            st.prefill(&plan, &g, &mut bufs, &Tensor::zeros(&[2, 2]), &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
        assert!(matches!(
            st.prefill(
                &plan,
                &g,
                &mut bufs,
                &Tensor::zeros(&[SEQ + 1]),
                &mut NoopHook
            ),
            Err(PtqError::KvCache(KvError::CapacityOverflow { .. }))
        ));
        // Step before prefill is a typed contract violation, not a panic.
        assert!(matches!(
            st.step(&plan, &g, &mut bufs, 1.0, &mut NoopHook),
            Err(PtqError::InvalidInput { .. })
        ));
    }

    #[test]
    fn failed_prompt_token_leaves_the_state_reset() {
        let g = tiny_decoder(7);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        let good = Tensor::from_slice(&[3.0, 7.0, 1.0]);
        // Out-of-vocab id at position 2: two prompt tokens run first.
        let bad = Tensor::from_slice(&[3.0, 7.0, VOCAB as f32, 1.0]);

        let mut fresh = DecodeState::default();
        let want = fresh
            .prefill(&plan, &g, &mut bufs, &good, &mut NoopHook)
            .unwrap_ok();
        let want_next = fresh
            .step(&plan, &g, &mut bufs, 4.0, &mut NoopHook)
            .unwrap_ok();

        // Both from a never-used state and over a live session.
        let mut st = DecodeState::default();
        for _ in 0..2 {
            assert!(matches!(
                st.prefill(&plan, &g, &mut bufs, &bad, &mut NoopHook),
                Err(PtqError::InvalidInput { .. })
            ));
            assert!(st.cache().is_none());
            assert_eq!((st.pos(), st.cache_bytes()), (0, 0));
            assert!(matches!(
                st.step(&plan, &g, &mut bufs, 1.0, &mut NoopHook),
                Err(PtqError::InvalidInput { node, .. }) if node == "decode.step"
            ));
            let got = st
                .prefill(&plan, &g, &mut bufs, &good, &mut NoopHook)
                .unwrap_ok();
            assert_eq!(got, want, "prefill after a failed prompt");
            let got = st
                .step(&plan, &g, &mut bufs, 4.0, &mut NoopHook)
                .unwrap_ok();
            assert_eq!(got, want_next, "step after a failed prompt");
        }
        // A prompt rejected on its shape alone leaves the live session be.
        let empty = Tensor::zeros(&[0]);
        assert!(st
            .prefill(&plan, &g, &mut bufs, &empty, &mut NoopHook)
            .is_err());
        assert_eq!(st.pos(), good.len() + 1);
        let again = st
            .step(&plan, &g, &mut bufs, 2.0, &mut NoopHook)
            .unwrap_ok();
        assert_eq!(
            again,
            fresh
                .step(&plan, &g, &mut bufs, 2.0, &mut NoopHook)
                .unwrap_ok()
        );
    }

    #[test]
    fn fp8_prefill_seals_the_staged_prompt_rows() {
        let g = tiny_decoder(5);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0]);
        let mut f32_state = DecodeState::default();
        let f32_logits = f32_state
            .prefill(&plan, &g, &mut bufs, &prompt, &mut NoopHook)
            .unwrap_ok();
        let staged = f32_state.cache().expect("prefilled");

        for format in Fp8Format::ALL {
            let mut fp8_state = DecodeState::default();
            let logits = fp8_state
                .prefill(&plan, &g, &mut bufs, &prompt, &mut Fp8CacheHook(format))
                .unwrap_ok();
            // Prompt positions attend the exact staged rows, not the codes.
            assert_eq!(logits, f32_logits, "{format}: prefill logits");
            let sealed = fp8_state.cache().expect("prefilled");
            for side in [KvSide::K, KvSide::V] {
                let buf = staged.buf(0, side).unwrap();
                let rows: Vec<f32> = (0..buf.len() * D)
                    .map(|i| buf.value_at(i / D, i % D))
                    .collect();
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
        let mut bufs = StepBuffers::default();
        let mut st = DecodeState::default();
        let prompt = Tensor::from_slice(&[2.0, 9.0, 4.0, 1.0, 6.0]);
        let p = prompt.len() as u64;

        let sink = std::sync::Arc::new(MemorySink::new());
        ptq_trace::install(vec![sink.clone()], Level::Info);
        ptq_trace::counter(Level::Info, "test.this_thread", 1, &[]);
        st.prefill(
            &plan,
            &g,
            &mut bufs,
            &prompt,
            &mut Fp8CacheHook(Fp8Format::E4M3),
        )
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
        assert_eq!(appended, 2 * plan.groups.len() as u64 * p);
    }

    /// `CodedLinears` (or no coding) under a cache policy and a kernel
    /// path.
    struct Runner {
        coded: Option<CodedLinears>,
        kv: KvCachePolicy,
        path: KernelPath,
    }
    impl ExecHook for Runner {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let b = self
                .coded
                .as_ref()
                .map_or_else(Binding::default, |c| c.bind(node));
            Binding {
                kv: self.kv,
                kernel_path: self.path,
                ..b
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_gathered_step_is_each_states_own_step() {
        let f32_graph = tiny_decoder(21);
        let plan = f32_graph.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        // Ragged positions, the last session one step short of the window.
        let prompts: [&[f32]; 4] = [
            &[3.0],
            &[5.0, 2.0, 9.0],
            &[1.0, 4.0, 7.0, 0.0],
            &[6.0; SEQ - 1],
        ];
        let kvs = Fp8Format::ALL.map(|format| KvCachePolicy::Fp8 {
            format,
            scale: None,
        });
        for kv in [KvCachePolicy::F32].into_iter().chain(kvs) {
            for scale in [
                None,
                Some(ActScale::Static(4.0)),
                Some(ActScale::PerTile(5)),
            ] {
                // Coded inputs run on FP8-stored Linear weights.
                let g = match scale {
                    Some(_) => fp8_linears(&f32_graph),
                    None => f32_graph.clone(),
                };
                for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
                    let coded = scale.map(|scale| CodedLinears { scale });
                    let mut hook = Runner { coded, kv, path };
                    // A gather of one, all four, and a pair out of order.
                    for pick in [&[1][..], &[0, 1, 2, 3], &[3, 0]] {
                        let what = format!("{kv:?} {scale:?} {path} {pick:?}");
                        let (mut solo, mut gathered) = (Vec::new(), Vec::new());
                        for &i in pick {
                            for states in [&mut solo, &mut gathered] {
                                let mut st = DecodeState::default();
                                let prompt = Tensor::from_slice(prompts[i]);
                                st.prefill(&plan, &g, &mut bufs, &prompt, &mut hook)
                                    .unwrap_ok();
                                states.push(st);
                            }
                        }
                        // Two gathered steps while every session has room.
                        for round in 0..2 {
                            let live = gathered.iter().filter(|s| s.pos() < SEQ).count();
                            let tokens = (0..live).map(|r| ((5 * r + round) % VOCAB) as f32);
                            let tokens: Vec<f32> = tokens.collect();
                            let want: Vec<Tensor> = solo
                                .iter_mut()
                                .filter(|s| s.pos() < SEQ)
                                .zip(&tokens)
                                .map(|(st, &t)| st.step(&plan, &g, &mut bufs, t, &mut hook))
                                .map(UnwrapOk::unwrap_ok)
                                .collect();
                            let mut streams: Vec<(&mut DecodeState, f32)> = gathered
                                .iter_mut()
                                .filter(|s| s.pos() < SEQ)
                                .zip(tokens.iter().copied())
                                .collect();
                            DecodeState::step_many(&plan, &g, &mut bufs, &mut streams, &mut hook)
                                .unwrap_ok();
                            for (r, w) in want.iter().enumerate() {
                                let got = bufs.logits(&plan, r);
                                assert_eq!(bits(&got), bits(w), "{what} round {round} row {r}");
                            }
                        }
                        let pos = |v: &[DecodeState]| v.iter().map(|s| s.pos()).collect::<Vec<_>>();
                        assert_eq!(pos(&gathered), pos(&solo), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_gathered_step_is_one_step_span_of_its_rows() {
        use ptq_trace::{EventKind, FieldValue, Level, MemorySink};
        let g = tiny_decoder(23);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let mut bufs = StepBuffers::default();
        let mut states: Vec<DecodeState> = (0..3).map(|_| DecodeState::default()).collect();
        for (i, st) in states.iter_mut().enumerate() {
            let prompt = Tensor::from_slice(&[2.0; 4][..=i]);
            st.prefill(&plan, &g, &mut bufs, &prompt, &mut NoopHook)
                .unwrap_ok();
        }
        let sink = std::sync::Arc::new(MemorySink::new());
        ptq_trace::install(vec![sink.clone()], Level::Info);
        ptq_trace::counter(Level::Info, "test.this_thread", 1, &[]);
        let mut streams: Vec<_> = states.iter_mut().map(|s| (s, 1.0)).collect();
        DecodeState::step_many(&plan, &g, &mut bufs, &mut streams, &mut NoopHook).unwrap_ok();
        ptq_trace::uninstall();

        // The recorder is process-global: keep this thread's events only.
        let evs = sink.events();
        let me = evs.iter().find(|e| e.name == "test.this_thread");
        let me = me.expect("marker recorded").thread;
        let mine = || evs.iter().filter(move |e| e.thread == me);
        let steps: Vec<_> = mine()
            .filter(|e| e.name == "decode.step" && matches!(e.kind, EventKind::SpanExit { .. }))
            .collect();
        assert_eq!(steps.len(), 1, "one span for the gathered step");
        assert_eq!(steps[0].field("rows"), Some(&FieldValue::Int(3)));
        assert_eq!(steps[0].field("kv_len"), Some(&FieldValue::Int(4)));
        let appended: u64 = mine()
            .filter(|e| e.name == "kv.appended")
            .map(|e| match e.kind {
                EventKind::Counter { delta } => delta,
                _ => 0,
            })
            .sum();
        assert_eq!(appended, 2 * plan.groups.len() as u64 * 3);
        assert_eq!(
            states.iter().map(DecodeState::pos).collect::<Vec<_>>(),
            [2, 3, 4]
        );
    }

    /// Binds one activation form on input 0 of every Linear and AddParam
    /// and on input 1 of every Add, and per-channel divisors (the first
    /// zero, so skipped) on input 0 of every Linear.
    struct Forms {
        act: ActBinding,
        divisors: Vec<f32>,
    }
    impl ExecHook for Forms {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let mut b = Binding::default();
            match node.op {
                Op::Linear { .. } => {
                    b.divisors = Some(&self.divisors);
                    b.acts[0] = self.act;
                }
                Op::AddParam { .. } => b.acts[0] = self.act,
                Op::Add => b.acts[1] = self.act,
                _ => {}
            }
            b
        }
    }

    #[test]
    fn every_operand_form_is_bit_identical_on_every_executor() {
        let g = tiny_decoder(31);
        let plan = g.plan_decode(SEQ).unwrap_ok();
        let exec = g.plan(&[vec![SEQ]]).unwrap_ok();
        let window: Vec<f32> = (0..SEQ).map(|t| (t * 5 % VOCAB) as f32).collect();
        let x = [Tensor::from_slice(&window)];
        let fp8 = |scale| ActBinding::FakeFp8 {
            format: Fp8Format::E4M3,
            scale,
        };
        let int8 = Int8Codec::from_range(-2.0, 3.0, Int8Mode::Asymmetric);
        // Each form, and whether it rounds a row independently of the
        // others (a step's one row then matches the window's).
        let forms = [
            (ActBinding::F32, true),
            (fp8(ActScale::Static(5.0)), true),
            (fp8(ActScale::PerTile(5)), true),
            (fp8(ActScale::Dynamic), false),
            (ActBinding::FakeInt8(Some(int8)), true),
            (ActBinding::FakeInt8(None), false),
        ];
        let plain = g.infer(&x).unwrap_ok();
        let mut bufs = StepBuffers::default();
        for (act, row_wise) in forms {
            let hook = || Forms {
                act,
                divisors: (0..D).map(|j| j as f32 / 8.0).collect(),
            };
            let reference = g.run(&x, &mut hook()).unwrap_ok();
            assert_ne!(reference, plain, "{act:?} changed nothing");
            for pass in ["cold", "warm"] {
                let y = exec.run(&g, &x, &mut hook()).unwrap_ok();
                assert_eq!(bits(&y[0]), bits(&reference[0]), "{act:?} plan ({pass})");
            }
            // The whole window as one prefill block reads the window's
            // tensors; a step reads one row.
            let want = Tensor::from_slice(reference[0].row(SEQ - 1));
            let mut st = DecodeState::default();
            let got = st.prefill(&plan, &g, &mut bufs, &x[0], &mut hook());
            assert_eq!(bits(&got.unwrap_ok()), bits(&want), "{act:?} prefill");
            if row_wise {
                let head = Tensor::from_slice(&window[..SEQ - 1]);
                st.prefill(&plan, &g, &mut bufs, &head, &mut hook())
                    .unwrap_ok();
                let got = st.step(&plan, &g, &mut bufs, window[SEQ - 1], &mut hook());
                assert_eq!(bits(&got.unwrap_ok()), bits(&want), "{act:?} step");
            }
        }
    }
}
