//! Ahead-of-time execution plans with arena-allocated intermediates.
//!
//! [`Graph::run`] re-does a lot of shape-independent work every call:
//! full validation and a fresh allocation for every intermediate tensor.
//! PTQ hammers the same graph with the same input shape hundreds of times
//! (calibration passes, sensitivity sweeps, BatchNorm re-estimation, suite
//! evaluation), so this module moves all of that work to a *plan-once,
//! run-many* split:
//!
//! * [`Graph::plan`] validates the graph against one set of input shapes,
//!   resolves every value's static shape, topologically schedules the
//!   nodes, and runs a buffer-lifetime analysis that maps intermediate
//!   values onto a small set of reusable arena slots.
//! * [`ExecPlan::run`] executes the schedule against a [`TensorArena`]
//!   drawn from an internal pool: after the first pass warms the arena,
//!   steady-state execution performs **zero intermediate-tensor
//!   allocations** — every node writes into a pre-sized slot through the
//!   `*_into` kernels.
//!   Concurrent callers (the `serve` workers, the batches
//!   [`PlanSet::run_each`] fans out) each draw their own arena.
//!
//! Planned execution is *bit-identical* to [`Graph::run`]: both run every
//! node through the one shared `exec::run_node` (hook protocol and kernel
//! dispatch alike); see `tests/proptests.rs` for the equivalence property.
//!
//! A plan deliberately holds **no reference to the graph**. PTQ rewrites
//! parameters between passes (BatchNorm calibration, weight
//! pre-quantization) without changing graph structure, so the plan stays
//! valid; each [`ExecPlan::run`] call takes the graph explicitly and
//! cheaply re-checks the structural fingerprint and parameter shapes it
//! was built against.

use crate::error::{PtqError, Shape};
use crate::exec::{run_node, split_out, NodeScratch};
use crate::graph::{Graph, Node, Op, ValueId};
use crate::interp::ExecHook;
use ptq_tensor::Tensor;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Where a value's bytes live at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// The `k`-th runtime input tensor.
    Input(usize),
    /// An arena slot written by an earlier step.
    Slot(usize),
}

/// One scheduled node execution.
#[derive(Debug, Clone)]
struct Step {
    /// Index into [`Graph::nodes`].
    node: usize,
    /// Source of each activation input, in node-input order.
    srcs: Vec<Src>,
    /// Arena slot receiving the output.
    out_slot: usize,
}

/// Reusable per-worker tensor storage for planned execution.
///
/// Holds one tensor per plan slot (intermediates) and the per-node scratch
/// (transformed operands, activation-code buffers). Nodes read their inputs
/// in place. All buffers keep their capacity across runs, so a warmed arena
/// executes passes without allocating an intermediate tensor.
#[derive(Debug, Default)]
pub struct TensorArena {
    /// One tensor per plan slot; capacity grows to the slot's peak size.
    slots: Vec<Tensor>,
    /// Transformed operands, activation-code buffers and id scratch for
    /// the node currently executing, recycled across nodes and runs.
    node: NodeScratch,
}

impl TensorArena {
    /// Total bytes of tensor storage currently held (slot and f32 operand
    /// capacities). Stable across steady-state runs; reported through the
    /// `arena.bytes_reused` gauge.
    pub fn capacity_bytes(&self) -> usize {
        let tensors = self.slots.iter().chain(&self.node.operands);
        tensors.map(Tensor::capacity_bytes).sum()
    }

    /// Size the arena for `plan`: materialize every slot at its peak
    /// element count so the first pass allocates each buffer exactly once.
    fn prepare(&mut self, plan: &ExecPlan) {
        if self.slots.len() < plan.slot_elems.len() {
            self.slots
                .resize_with(plan.slot_elems.len(), Tensor::default);
        }
        for (slot, &elems) in plan.slot_elems.iter().enumerate() {
            if self.slots[slot].len() < elems {
                self.slots[slot].reuse_as(&[elems]);
            }
        }
    }
}

/// An ahead-of-time execution plan: validated schedule + arena layout for
/// one graph structure at one set of input shapes.
///
/// Build with [`Graph::plan`]; execute with [`ExecPlan::run`]. Cache per
/// input shape with [`PlanSet`].
#[derive(Debug)]
pub struct ExecPlan {
    /// Input shapes the plan was built for (run-time inputs must match).
    in_shapes: Vec<Shape>,
    /// Structural fingerprint: node count of the planned graph.
    n_nodes: usize,
    /// Structural fingerprint: value count of the planned graph.
    n_values: usize,
    /// Parameter shapes at build time, sorted by value id. Re-checked per
    /// run so a plan cannot be run against an incompatibly re-bound graph.
    param_shapes: Vec<(ValueId, Shape)>,
    /// The schedule, in execution order.
    steps: Vec<Step>,
    /// Source of each graph output.
    outputs: Vec<Src>,
    /// Peak element count per arena slot.
    slot_elems: Vec<usize>,
    /// Whether some node's kernel fans out on the pool by itself.
    fans_out: bool,
    /// Warm arenas, a free list reused across runs (and by concurrent
    /// callers of one plan) instead of re-allocating.
    pool: Mutex<Vec<TensorArena>>,
}

impl Graph {
    /// Build an [`ExecPlan`] for this graph at the given input shapes.
    ///
    /// Runs full validation ([`Graph::validate`] semantics), resolves
    /// every intermediate shape, and assigns node outputs to arena slots
    /// by a linear-scan lifetime analysis: a slot is recycled once the
    /// last reader of its value has executed (graph outputs are pinned for
    /// the whole run). Peak arena footprint is therefore bounded by the
    /// graph's maximum live set, not its total intermediate count.
    pub fn plan(&self, inputs: &[Shape]) -> Result<ExecPlan, PtqError> {
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "plan.build");
        let shapes = self.value_shapes(inputs)?;

        // Last node index reading each value; outputs stay live forever.
        let mut last_use: Vec<usize> = vec![0; self.n_values];
        for (i, node) in self.nodes.iter().enumerate() {
            for &v in &node.inputs {
                last_use[v] = last_use[v].max(i);
            }
            last_use[node.output] = last_use[node.output].max(i);
        }
        for &o in &self.outputs {
            last_use[o] = usize::MAX;
        }

        let mut src: Vec<Option<Src>> = vec![None; self.n_values];
        for (k, &id) in self.inputs.iter().enumerate() {
            src[id] = Some(Src::Input(k));
        }

        let mut steps = Vec::with_capacity(self.nodes.len());
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut active: Vec<(usize, usize)> = Vec::new(); // (last_use, slot)
        let mut fans_out = false;
        for (i, node) in self.nodes.iter().enumerate() {
            // Expire slots whose value has no reader at or after this
            // node. `< i` (not `<= i`) keeps every input of the current
            // node out of the free list, so an output slot can never
            // alias a live input.
            active.retain(|&(lu, slot)| {
                if lu < i {
                    free.push(slot);
                    false
                } else {
                    true
                }
            });

            let mut srcs = Vec::with_capacity(node.inputs.len());
            for &v in &node.inputs {
                // Values that are neither runtime inputs nor node outputs
                // (i.e. parameters used as activations) fail here with
                // the same error the interpreter reports at run time.
                srcs.push(src[v].ok_or_else(|| PtqError::UseBeforeDef {
                    value: v,
                    node: node.name.clone(),
                })?);
            }

            let elems: usize = shapes[node.output]
                .as_ref()
                .map(|s| s.iter().product())
                .unwrap_or(0);
            let slot = free.pop().unwrap_or_else(|| {
                slot_elems.push(0);
                slot_elems.len() - 1
            });
            slot_elems[slot] = slot_elems[slot].max(elems);
            fans_out |= ptq_tensor::ops::fans_out(elems * self.contraction(node, &shapes));
            active.push((last_use[node.output], slot));
            src[node.output] = Some(Src::Slot(slot));
            steps.push(Step {
                node: i,
                srcs,
                out_slot: slot,
            });
        }

        let outputs = self
            .outputs
            .iter()
            .map(|&o| src[o].ok_or(PtqError::UnproducedOutput { value: o }))
            .collect::<Result<Vec<_>, _>>()?;

        let mut param_shapes: Vec<(ValueId, Shape)> = self
            .params
            .iter()
            .map(|(&id, t)| (id, t.shape().to_vec()))
            .collect();
        param_shapes.sort();

        if sp.active() {
            sp.record_int("nodes", self.nodes.len() as i64);
            sp.record_int("slots", slot_elems.len() as i64);
            sp.record_int("peak_elems", slot_elems.iter().sum::<usize>() as i64);
            sp.record_str("in_shapes", &format!("{inputs:?}"));
        }
        drop(sp);

        Ok(ExecPlan {
            in_shapes: inputs.to_vec(),
            n_nodes: self.nodes.len(),
            n_values: self.n_values,
            param_shapes,
            steps,
            outputs,
            slot_elems,
            fans_out,
            pool: Mutex::default(),
        })
    }

    /// MACs per output element of `node`'s kernel: the weight's
    /// `len / dim(0)` for Conv2d and Linear, input 0's last dim for MatMul
    /// and BatchMatMul, 0 for every other op.
    fn contraction(&self, node: &Node, shapes: &[Option<Shape>]) -> usize {
        let last_dim = |v: &ValueId| shapes[*v].as_ref()?.last().copied();
        match &node.op {
            Op::Conv2d { weight, .. } | Op::Linear { weight, .. } => self
                .params
                .get(weight)
                .map_or(0, |w| w.len() / w.dim(0).max(1)),
            Op::MatMul | Op::BatchMatMul => node.inputs.first().and_then(last_dim).unwrap_or(0),
            _ => 0,
        }
    }
}

impl ExecPlan {
    /// Number of arena slots the plan's intermediates share.
    pub fn n_slots(&self) -> usize {
        self.slot_elems.len()
    }

    /// Peak arena footprint in f32 elements (sum of slot peaks) — by
    /// construction no larger, and for any graph with dead-after-use
    /// intermediates strictly smaller, than one allocation per node.
    pub fn peak_elems(&self) -> usize {
        self.slot_elems.iter().sum()
    }

    /// True when some node's kernel fans out on the pool by itself
    /// ([`ptq_tensor::ops::fans_out`] of its output elements × contraction).
    pub fn fans_out(&self) -> bool {
        self.fans_out
    }

    /// Execute the plan against `graph` (which must match the structure
    /// and parameter shapes the plan was built from) with an interception
    /// hook, reusing a pooled arena. Bit-identical to
    /// [`Graph::run`] on the same graph and inputs.
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        hook: &mut dyn ExecHook,
    ) -> Result<Vec<Tensor>, PtqError> {
        let pool = || self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        let mut arena = pool().pop().unwrap_or_default();
        let cap_before = arena.capacity_bytes();
        let result = self.run_with_arena(graph, inputs, hook, &mut arena);
        if ptq_trace::enabled(ptq_trace::Level::Debug) {
            let cap_after = arena.capacity_bytes();
            ptq_trace::gauge(
                ptq_trace::Level::Debug,
                "arena.bytes_reused",
                cap_before as f64,
                &[],
            );
            if cap_after > cap_before {
                ptq_trace::counter(
                    ptq_trace::Level::Debug,
                    "arena.bytes_alloc",
                    (cap_after - cap_before) as u64,
                    &[],
                );
            }
        }
        pool().push(arena);
        result
    }

    /// Cheap per-run compatibility checks: input shapes, structural
    /// fingerprint, and parameter shapes must match what the plan was
    /// built against.
    fn check_compat(&self, graph: &Graph, inputs: &[Tensor]) -> Result<(), PtqError> {
        let (expected, got) = (self.in_shapes.len(), inputs.len());
        if expected != got {
            return Err(PtqError::InputArity { expected, got });
        }
        let mismatch = |detail| Err(PtqError::InvalidTarget { detail });
        if inputs
            .iter()
            .zip(&self.in_shapes)
            .any(|(t, s)| t.shape() != &s[..])
        {
            let got: Vec<_> = inputs.iter().map(|t| t.shape().to_vec()).collect();
            let built = &self.in_shapes;
            return mismatch(format!(
                "plan was built for input shapes {built:?}, got {got:?}"
            ));
        }
        let (built, got) = (
            (self.n_nodes, self.n_values),
            (graph.nodes.len(), graph.n_values),
        );
        if built != got {
            return mismatch(format!(
                "plan was built for a graph with {} nodes / {} values, got {} / {}",
                built.0, built.1, got.0, got.1
            ));
        }
        for (id, shape) in &self.param_shapes {
            match graph.params.get(id).map(Tensor::shape) {
                None => return mismatch(format!("parameter {id} was unbound after planning")),
                Some(s) if s != &shape[..] => {
                    return mismatch(format!(
                        "parameter {id} changed shape after planning: {shape:?} -> {s:?}"
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn run_with_arena(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        hook: &mut dyn ExecHook,
        arena: &mut TensorArena,
    ) -> Result<Vec<Tensor>, PtqError> {
        self.check_compat(graph, inputs)?;
        arena.prepare(self);
        let TensorArena {
            slots,
            node: scratch,
        } = arena;

        for step in &self.steps {
            let node = &graph.nodes[step.node];
            let (out, slot) = split_out(slots, step.out_slot);
            let src = |j: usize| match step.srcs[j] {
                Src::Input(k) => &inputs[k],
                Src::Slot(s) => slot(s),
            };
            // Every operator reads one or two inputs (validated).
            let n = step.srcs.len();
            run_node(graph, node, &[src(0), src(n - 1)][..n], hook, scratch, out)?;
        }

        Ok(self
            .outputs
            .iter()
            .map(|s| match s {
                Src::Input(k) => inputs[*k].clone(),
                Src::Slot(s) => slots[*s].clone(),
            })
            .collect())
    }
}

/// A lazily-built, shape-keyed cache of [`ExecPlan`]s for one graph
/// structure.
///
/// Workloads see a handful of distinct input shapes (calibration batch,
/// evaluation batch, single-sample probes); `PlanSet` builds one plan per
/// shape on first use and reuses it afterwards. Thread-safe; `Clone`
/// yields a fresh empty set (plans are cheap to rebuild and must not leak
/// across structurally different graph copies).
#[derive(Default)]
pub struct PlanSet {
    plans: Mutex<HashMap<Vec<Shape>, Arc<ExecPlan>>>,
}

impl PlanSet {
    /// An empty plan cache.
    pub fn new() -> Self {
        PlanSet::default()
    }

    /// The plan for `inputs`' shapes, building (and caching) it on first
    /// use.
    pub fn plan_for(&self, graph: &Graph, inputs: &[Tensor]) -> Result<Arc<ExecPlan>, PtqError> {
        let key: Vec<Shape> = inputs.iter().map(|t| t.shape().to_vec()).collect();
        if let Some(p) = self
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(Arc::clone(p));
        }
        // Build outside the lock; on a race the first insert wins so all
        // callers share one plan (and its arena pool).
        let built = Arc::new(graph.plan(&key)?);
        let mut m = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(m.entry(key).or_insert(built)))
    }

    /// Planned equivalent of [`Graph::run`]: fetch-or-build the plan for
    /// these input shapes and execute it.
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        hook: &mut dyn ExecHook,
    ) -> Result<Vec<Tensor>, PtqError> {
        self.plan_for(graph, inputs)?.run(graph, inputs, hook)
    }

    /// [`PlanSet::run`] over every batch, each under its own clone of
    /// `hook`; outputs come back in batch order, and so does the first
    /// error. The plans are fetched on the caller. When none fans a kernel
    /// out itself ([`ExecPlan::fans_out`]), the pool claims one batch at a
    /// time, each drawing its own arena; otherwise (or when a plan fails
    /// to build) the batches run in order on the caller, where the kernels
    /// use the pool. Outputs are the same bits either way.
    pub fn run_each<H>(
        &self,
        graph: &Graph,
        batches: &[Vec<Tensor>],
        hook: &H,
    ) -> Result<Vec<Vec<Tensor>>, PtqError>
    where
        H: ExecHook + Clone + Send + Sync,
    {
        let plans: Vec<_> = batches.iter().map(|b| self.plan_for(graph, b)).collect();
        let run = |i: usize| {
            let plan = plans[i].as_ref().map_err(PtqError::clone)?;
            plan.run(graph, &batches[i], &mut hook.clone())
        };
        if plans
            .iter()
            .any(|p| p.as_ref().map_or(true, |p| p.fans_out))
        {
            return (0..batches.len()).map(run).collect();
        }
        let mut outs = vec![None; batches.len()];
        outs.par_chunks_mut(1)
            .enumerate()
            .for_each(|(i, out)| out[0] = Some(run(i)));
        outs.into_iter().flatten().collect()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True if no plan has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached plans (e.g. after a structural graph rewrite).
    pub fn clear(&self) {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Clone for PlanSet {
    fn clone(&self) -> Self {
        PlanSet::new()
    }
}

impl std::fmt::Debug for PlanSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanSet")
            .field("plans", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::UnwrapOk;
    use crate::interp::NoopHook;
    use ptq_tensor::ops::Conv2dParams;
    use ptq_tensor::TensorRng;

    fn tiny_cnn() -> Graph {
        let mut rng = TensorRng::seed(42);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w1 = b.param(rng.kaiming(&[4, 3, 3, 3]));
        let c1 = b.conv2d(x, w1, None, Conv2dParams::same(3));
        let r = b.relu(c1);
        let g = b.global_avg_pool(r);
        let w2 = b.param(rng.kaiming(&[10, 4]));
        let out = b.linear(g, w2, None);
        b.finish(vec![out])
    }

    #[test]
    fn plan_matches_interpreter_bitwise() {
        let g = tiny_cnn();
        let x = TensorRng::seed(7).normal(&[2, 3, 8, 8], 0.0, 1.0);
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        let interp = g.infer(std::slice::from_ref(&x)).unwrap_ok();
        let planned = plan.run(&g, &[x], &mut NoopHook).unwrap_ok();
        assert_eq!(interp, planned);
    }

    #[test]
    fn slots_are_fewer_than_nodes_on_chains() {
        // A pure chain needs at most 2 slots however deep it is.
        let mut b = GraphBuilder::new();
        let x = b.input();
        let mut v = x;
        for _ in 0..10 {
            v = b.relu(v);
        }
        let g = b.finish(vec![v]);
        let plan = g.plan(&[vec![4, 4]]).unwrap_ok();
        assert!(plan.n_slots() <= 2, "chain used {} slots", plan.n_slots());
    }

    #[test]
    fn peak_elems_not_above_naive_sum() {
        let g = tiny_cnn();
        let shapes = vec![vec![2usize, 3, 8, 8]];
        let plan = g.plan(&shapes).unwrap_ok();
        let naive: usize = {
            let per_value = g.value_shapes(&shapes).unwrap_ok();
            g.nodes()
                .iter()
                .map(|n| {
                    per_value[n.output]
                        .as_ref()
                        .map(|s| s.iter().product::<usize>())
                        .unwrap_or(0)
                })
                .sum()
        };
        assert!(plan.peak_elems() <= naive);
        assert!(plan.n_slots() < g.nodes().len());
    }

    #[test]
    fn arena_capacity_stable_after_warmup() {
        let g = tiny_cnn();
        let x = TensorRng::seed(8).normal(&[2, 3, 8, 8], 0.0, 1.0);
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        let mut arena = TensorArena::default();
        plan.run_with_arena(&g, std::slice::from_ref(&x), &mut NoopHook, &mut arena)
            .unwrap_ok();
        let warmed = arena.capacity_bytes();
        assert!(warmed > 0);
        for _ in 0..3 {
            plan.run_with_arena(&g, std::slice::from_ref(&x), &mut NoopHook, &mut arena)
                .unwrap_ok();
            assert_eq!(arena.capacity_bytes(), warmed);
        }
    }

    #[test]
    fn plan_rejects_wrong_input_shape() {
        let g = tiny_cnn();
        let plan = g.plan(&[vec![2, 3, 8, 8]]).unwrap_ok();
        let bad = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(matches!(
            plan.run(&g, &[bad], &mut NoopHook),
            Err(PtqError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn plan_survives_param_rewrite_same_shape() {
        let mut g = tiny_cnn();
        let x = TensorRng::seed(9).normal(&[1, 3, 8, 8], 0.0, 1.0);
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        let before = plan
            .run(&g, std::slice::from_ref(&x), &mut NoopHook)
            .unwrap_ok();
        // Rewrite the conv weight in place (BatchNorm-calibration style).
        let wid = g.nodes()[0].op.weight_value().expect("conv weight");
        let zeros = Tensor::zeros(g.param(wid).expect("bound").shape());
        g.set_param(wid, zeros).unwrap_ok();
        let after = plan.run(&g, &[x], &mut NoopHook).unwrap_ok();
        assert_ne!(before, after);
        assert!(after[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_plan_fans_out_exactly_when_a_kernel_reaches_the_cutoff() {
        // A 1x1 conv over 4 channels: 4 MACs per output element, so 16
        // output channels of 128x128 are 1 << 20 MACs, one column fewer
        // is below the cutoff.
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(Tensor::zeros(&[16, 4, 1, 1]));
        let c = b.conv2d(x, w, None, Conv2dParams::same(1));
        let conv = b.finish(vec![c]);
        assert!(conv.plan(&[vec![1, 4, 128, 128]]).unwrap_ok().fans_out());
        assert!(!conv.plan(&[vec![1, 4, 128, 127]]).unwrap_ok().fans_out());
        // A Linear contracts over the weight's in-features, a MatMul over
        // input 0's last dim: 1024 rows x 32 x 32 is the cutoff.
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(Tensor::zeros(&[32, 32]));
        let l = b.linear(x, w, None);
        let linear = b.finish(vec![l]);
        assert!(linear.plan(&[vec![1024, 32]]).unwrap_ok().fans_out());
        assert!(!linear.plan(&[vec![1023, 32]]).unwrap_ok().fans_out());
        let mut b = GraphBuilder::new();
        let (x, y) = (b.input(), b.input());
        let m = b.matmul(x, y);
        let matmul = b.finish(vec![m]);
        assert!(matmul
            .plan(&[vec![32, 1024], vec![1024, 32]])
            .unwrap_ok()
            .fans_out());
        assert!(!matmul
            .plan(&[vec![32, 1023], vec![1023, 32]])
            .unwrap_ok()
            .fans_out());
        // Elementwise work never counts: the plans of `tiny_cnn` stay serial.
        assert!(!tiny_cnn().plan(&[vec![2, 3, 8, 8]]).unwrap_ok().fans_out());
    }

    /// The in-order loop `run_each` must agree with.
    fn in_order(
        set: &PlanSet,
        g: &Graph,
        batches: &[Vec<Tensor>],
    ) -> Result<Vec<Vec<Tensor>>, PtqError> {
        batches
            .iter()
            .map(|b| set.run(g, b, &mut NoopHook))
            .collect()
    }

    #[test]
    fn run_each_returns_outputs_in_batch_order() {
        let g = tiny_cnn();
        let batches: Vec<Vec<Tensor>> = (0..9)
            .map(|i| {
                vec![TensorRng::seed(100 + i).normal(&[1 + i as usize % 3, 3, 8, 8], 0.0, 1.0)]
            })
            .collect();
        let set = PlanSet::new();
        let outs = set.run_each(&g, &batches, &NoopHook).unwrap_ok();
        assert_eq!(outs, in_order(&set, &g, &batches).unwrap_ok());
        assert!(outs.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn run_each_returns_the_in_order_loops_first_error() {
        // A plan that fails to build (wrong channel count) takes the
        // in-order path; the batches before it still run.
        let g = tiny_cnn();
        let good = |s| vec![TensorRng::seed(s).normal(&[1, 3, 8, 8], 0.0, 1.0)];
        let batches = vec![good(1), vec![Tensor::zeros(&[1, 5, 8, 8])], good(2)];
        let set = PlanSet::new();
        let err = set.run_each(&g, &batches, &NoopHook).unwrap_err();
        assert_eq!(err, in_order(&set, &g, &batches).unwrap_err());
        // Runs that fail on their data (out-of-vocabulary ids) under
        // plans that all build and stay serial go to the pool; the first
        // error in batch order still wins.
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(TensorRng::seed(3).normal(&[10, 4], 0.0, 1.0));
        let e = b.embedding(ids, table);
        let g = b.finish(vec![e]);
        let batch = |id: f32| vec![Tensor::from_vec(vec![1.0, id, 2.0], &[3])];
        let batches = vec![batch(0.0), batch(11.0), batch(3.0), batch(12.0), batch(4.0)];
        let set = PlanSet::new();
        let err = set.run_each(&g, &batches, &NoopHook).unwrap_err();
        assert!(!set.plan_for(&g, &batches[0]).unwrap_ok().fans_out());
        assert!(err.to_string().contains("id 11"), "{err}");
        assert_eq!(err, in_order(&set, &g, &batches).unwrap_err());
    }

    #[test]
    fn planset_caches_per_shape() {
        let g = tiny_cnn();
        let set = PlanSet::new();
        let a = Tensor::zeros(&[1, 3, 8, 8]);
        let b = Tensor::zeros(&[2, 3, 8, 8]);
        set.run(&g, std::slice::from_ref(&a), &mut NoopHook)
            .unwrap_ok();
        set.run(&g, &[a], &mut NoopHook).unwrap_ok();
        assert_eq!(set.len(), 1);
        set.run(&g, &[b], &mut NoopHook).unwrap_ok();
        assert_eq!(set.len(), 2);
        set.clear();
        assert!(set.is_empty());
    }
}
