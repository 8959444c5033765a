//! The execution hook trait and the reference executor.

use crate::error::{PtqError, Shape};
use crate::exec::{run_node, Binding, NodeScratch};
use crate::graph::{Graph, Node};
use ptq_tensor::ops::KernelPath;
use ptq_tensor::Tensor;

/// Interception points during graph execution.
///
/// All PTQ machinery is implemented as hooks over an unchanged FP32 graph,
/// mirroring how software-emulation toolkits wrap framework modules:
///
/// * **calibration** observes tensors in [`ExecHook::before_node`] /
///   [`ExecHook::after_node`],
/// * **quantized inference** binds pre-quantized weights, SmoothQuant
///   divisors, fake-quantized or boundary-coded activations and the kernel
///   path in [`ExecHook::bind`]; the executor builds those operands,
/// * **BatchNorm calibration** measures pre-BN activations and rewrites the
///   running statistics between runs.
///
/// The observers are read-only: what a node computes is decided by `bind`
/// alone.
pub trait ExecHook {
    /// Called with the f32 operands a node's kernel read — its inputs after
    /// the binding's divisors and fake-quant, before any coding — once per
    /// node execution, right before `after_node`.
    fn before_node(&mut self, _node: &Node, _inputs: &[&Tensor]) {}

    /// Called after a node executes, with its output.
    fn after_node(&mut self, _node: &Node, _output: &Tensor) {}

    /// How `node` executes: what its weight runs as, how each activation
    /// input is divided, fake-quantized or coded, the kernel path, the KV
    /// cache format of its output rows. Called once per node execution,
    /// before the observers; a pure lookup over state the hook already
    /// holds. The default runs the graph as bound (see [`Binding`]).
    fn bind(&self, _node: &Node) -> Binding<'_> {
        Binding::default()
    }
}

/// A hook that does nothing: plain FP32 inference.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

/// Runs hook `H` with every MAC kernel on the given [`KernelPath`]: how the
/// equivalence suites reach the scalar oracle. The observers and `bind`
/// are `H`'s own; only the binding's `kernel_path` is overridden. No recipe
/// names a path, so a model's own hook always runs the default.
#[derive(Debug, Clone, Copy)]
pub struct OnPath<H>(pub H, pub KernelPath);

impl<H: ExecHook> ExecHook for OnPath<H> {
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        self.0.before_node(node, inputs);
    }

    fn after_node(&mut self, node: &Node, output: &Tensor) {
        self.0.after_node(node, output);
    }

    fn bind(&self, node: &Node) -> Binding<'_> {
        Binding {
            kernel_path: self.1,
            ..self.0.bind(node)
        }
    }
}

impl Graph {
    /// Execute the graph on `inputs` (bound to [`Graph::input_ids`] in
    /// order), returning the output tensors.
    ///
    /// This is the allocation-per-node *reference loop*: the oracle the
    /// equivalence suites compare [`crate::ExecPlan`] and
    /// [`crate::DecodeState`] against, and the convenient form for one-off
    /// passes. Repeated execution belongs on a [`crate::PlanSet`].
    ///
    /// Validates the whole graph against the input shapes first (see
    /// [`Graph::validate`]), so a malformed graph or incompatible shape is
    /// reported as a typed [`PtqError`] *before* any kernel runs rather
    /// than panicking mid-execution. After validation, the only runtime
    /// failures are data-dependent contracts (embedding id values).
    pub fn run(&self, inputs: &[Tensor], hook: &mut dyn ExecHook) -> Result<Vec<Tensor>, PtqError> {
        let in_shapes: Vec<Shape> = inputs.iter().map(|t| t.shape().to_vec()).collect();
        self.validate(&in_shapes)?;
        let mut values: Vec<Option<Tensor>> = vec![None; self.n_values];
        for (&id, t) in self.inputs.iter().zip(inputs) {
            values[id] = Some(t.clone());
        }
        let mut scratch = NodeScratch::default();
        for node in &self.nodes {
            let value = |j: usize| {
                let v = node.inputs[j];
                values[v].as_ref().ok_or_else(|| PtqError::UseBeforeDef {
                    value: v,
                    node: node.name.clone(),
                })
            };
            // Every operator reads one or two inputs (validated).
            let n = node.inputs.len();
            let ins = [value(0)?, value(n - 1)?];
            let mut out = Tensor::default();
            run_node(self, node, &ins[..n], hook, &mut scratch, &mut out)?;
            values[node.output] = Some(out);
        }
        self.outputs
            .iter()
            .map(|&o| {
                values[o]
                    .clone()
                    .ok_or(PtqError::UnproducedOutput { value: o })
            })
            .collect()
    }

    /// Convenience: [`Graph::run`] with no hook (pure FP32 inference).
    pub fn infer(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, PtqError> {
        self.run(inputs, &mut NoopHook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::UnwrapOk;
    use crate::exec::{ActBinding, WeightBinding};
    use crate::graph::{OpClass, ValueId};
    use ptq_fp8::Fp8Format;
    use ptq_tensor::ops::Conv2dParams;
    use ptq_tensor::{ActScale, QTensor, TensorRng};
    use std::collections::HashMap;

    /// A tiny conv -> bn -> relu -> gap -> linear CNN for tests.
    fn tiny_cnn() -> Graph {
        let mut rng = TensorRng::seed(42);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w1 = b.param(rng.kaiming(&[4, 3, 3, 3]));
        let c1 = b.conv2d(x, w1, None, Conv2dParams::same(3));
        let gamma = b.param(ptq_tensor::Tensor::ones(&[4]));
        let beta = b.param(ptq_tensor::Tensor::zeros(&[4]));
        let mean = b.param(ptq_tensor::Tensor::zeros(&[4]));
        let var = b.param(ptq_tensor::Tensor::ones(&[4]));
        let bn = b.batchnorm(c1, gamma, beta, mean, var, 1e-5);
        let r = b.relu(bn);
        let g = b.global_avg_pool(r);
        let w2 = b.param(rng.kaiming(&[10, 4]));
        let out = b.linear(g, w2, None);
        b.finish(vec![out])
    }

    #[test]
    fn run_tiny_cnn_shapes() {
        let g = tiny_cnn();
        let x = TensorRng::seed(1).normal(&[2, 3, 8, 8], 0.0, 1.0);
        let y = g.infer(&[x]).unwrap_ok();
        assert_eq!(y.len(), 1);
        assert_eq!(y[0].shape(), &[2, 10]);
    }

    #[test]
    fn deterministic_inference() {
        let g = tiny_cnn();
        let x = TensorRng::seed(1).normal(&[1, 3, 8, 8], 0.0, 1.0);
        assert_eq!(
            g.infer(std::slice::from_ref(&x)).unwrap_ok(),
            g.infer(&[x]).unwrap_ok()
        );
    }

    #[test]
    fn node_classes_and_first_last() {
        let g = tiny_cnn();
        assert_eq!(g.nodes_of_class(OpClass::Conv2d).len(), 1);
        assert_eq!(g.nodes_of_class(OpClass::Linear).len(), 1);
        assert_eq!(g.nodes_of_class(OpClass::BatchNorm).len(), 1);
        let (first, last) = g.first_last_compute();
        assert_eq!(first, Some(0));
        assert_eq!(g.nodes()[last.unwrap()].op.class(), OpClass::Linear);
    }

    #[test]
    fn hook_observes_every_node() {
        struct Counter {
            before: usize,
            after: usize,
        }
        impl ExecHook for Counter {
            fn before_node(&mut self, _n: &Node, _i: &[&Tensor]) {
                self.before += 1;
            }
            fn after_node(&mut self, _n: &Node, _o: &Tensor) {
                self.after += 1;
            }
        }
        let g = tiny_cnn();
        let mut h = Counter {
            before: 0,
            after: 0,
        };
        let x = TensorRng::seed(1).normal(&[1, 3, 8, 8], 0.0, 1.0);
        g.run(&[x], &mut h).unwrap_ok();
        assert_eq!(h.before, g.nodes().len());
        assert_eq!(h.after, g.nodes().len());
    }

    /// Binds a borrowed f32 substitute for every quantizable weight.
    struct F32Weights(HashMap<ValueId, Tensor>);
    impl ExecHook for F32Weights {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let sub = node.op.weight_value().and_then(|v| self.0.get(&v));
            Binding {
                weight: sub.map_or(WeightBinding::Graph, WeightBinding::F32),
                ..Binding::default()
            }
        }
    }

    /// Every quantizable weight of `g`, transformed by `f`.
    fn map_weights<T>(g: &Graph, f: impl Fn(&Tensor) -> T) -> HashMap<ValueId, T> {
        let ids = g.nodes().iter().filter_map(|n| n.op.weight_value());
        ids.map(|v| (v, f(&g.params[&v]))).collect()
    }

    const EXECUTORS: [&str; 3] = ["reference", "plan (cold)", "plan (warm)"];

    /// One output set per [`EXECUTORS`] entry, under hooks from `hook`.
    fn all_executors<H: ExecHook>(g: &Graph, x: &Tensor, hook: impl Fn() -> H) -> [Vec<Tensor>; 3] {
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        let x = std::slice::from_ref(x);
        [
            g.run(x, &mut hook()).unwrap_ok(),
            plan.run(g, x, &mut hook()).unwrap_ok(),
            plan.run(g, x, &mut hook()).unwrap_ok(),
        ]
    }

    #[test]
    fn weight_substitution_changes_output() {
        // Zero only the quantizable weights, not norm params.
        let g = tiny_cnn();
        let zeros = map_weights(&g, |w| Tensor::zeros(w.shape()));
        let x = TensorRng::seed(1).normal(&[1, 3, 8, 8], 0.0, 1.0);
        for y in all_executors(&g, &x, || F32Weights(zeros.clone())) {
            assert!(y[0].data().iter().all(|&v| v == 0.0));
        }
    }

    /// Binds FP8-stored Conv2d/Linear weights and, when `scale` is set,
    /// codes input 0 of those nodes at the boundary.
    struct QHook {
        q: HashMap<ValueId, QTensor>,
        format: Fp8Format,
        scale: Option<ActScale>,
    }
    impl ExecHook for QHook {
        fn bind(&self, node: &Node) -> Binding<'_> {
            let Some(q) = node.op.weight_value().and_then(|v| self.q.get(&v)) else {
                return Binding::default();
            };
            let mut b = Binding {
                weight: WeightBinding::Q(q),
                ..Binding::default()
            };
            if let Some(scale) = self.scale {
                b.acts[0] = ActBinding::Coded {
                    format: self.format,
                    scale,
                };
            }
            b
        }
    }

    #[test]
    fn q_binding_matches_dequantized_weights_on_all_executors() {
        let g = tiny_cnn();
        let f = Fp8Format::E4M3;
        let q = map_weights(&g, |w| QTensor::quantize_per_channel(w, f).unwrap());
        let deq: HashMap<ValueId, Tensor> = q.iter().map(|(&v, q)| (v, q.dequantize())).collect();
        let x = TensorRng::seed(17).normal(&[2, 3, 8, 8], 0.0, 1.0);

        let [baseline, ..] = all_executors(&g, &x, || F32Weights(deq.clone()));
        let fused = all_executors(&g, &x, || QHook {
            q: q.clone(),
            format: f,
            scale: None,
        });
        for (y, exec) in fused.iter().zip(EXECUTORS) {
            assert_eq!(&baseline, y, "{exec}: fused kernels must be bit-identical");
        }
    }

    #[test]
    fn coded_binding_matches_fake_quant_on_all_executors() {
        const F: Fp8Format = Fp8Format::E3M4;

        /// Fake-quant reference: the same scale layout bound as an f32
        /// fake-quant form, weights dequantized from the same storage.
        struct FqHook {
            deq: F32Weights,
            scale: ActScale,
        }
        impl ExecHook for FqHook {
            fn bind(&self, node: &Node) -> Binding<'_> {
                let mut b = self.deq.bind(node);
                if let WeightBinding::F32(_) = b.weight {
                    b.acts[0] = ActBinding::FakeFp8 {
                        format: F,
                        scale: self.scale,
                    };
                }
                b
            }
        }

        let g = tiny_cnn();
        let q = map_weights(&g, |w| QTensor::quantize_per_channel(w, F).unwrap());
        let deq: HashMap<ValueId, Tensor> = q.iter().map(|(&v, q)| (v, q.dequantize())).collect();
        let x = TensorRng::seed(19).normal(&[2, 3, 8, 8], 0.0, 1.0);

        for scale in [
            ActScale::Static(3.5),
            ActScale::Dynamic,
            ActScale::PerTile(5),
        ] {
            let [reference, ..] = all_executors(&g, &x, || FqHook {
                deq: F32Weights(deq.clone()),
                scale,
            });
            let coded = all_executors(&g, &x, || QHook {
                q: q.clone(),
                format: F,
                scale: Some(scale),
            });
            for (y, exec) in coded.iter().zip(EXECUTORS) {
                assert_eq!(
                    &reference, y,
                    "{exec} {scale:?}: code\u{d7}code kernels drifted"
                );
            }
        }
    }

    /// A hook returning one fixed binding for every node.
    struct Fixed<'a>(Binding<'a>);
    impl ExecHook for Fixed<'_> {
        fn bind(&self, _node: &Node) -> Binding<'_> {
            self.0
        }
    }

    /// Single-node graph run under a fixed binding on both executors; the
    /// binding is one the node cannot execute.
    fn assert_rejected(g: &Graph, inputs: &[Tensor], binding: Binding<'_>, what: &str) {
        let shapes: Vec<_> = inputs.iter().map(|t| t.shape().to_vec()).collect();
        let plan = g.plan(&shapes).unwrap_ok();
        for (exec, r) in [
            ("reference", g.run(inputs, &mut Fixed(binding))),
            ("plan", plan.run(g, inputs, &mut Fixed(binding))),
        ] {
            assert!(
                matches!(r, Err(PtqError::Internal(_))),
                "{what} on {exec}: expected an internal error, got {r:?}"
            );
        }
    }

    #[test]
    fn protocol_violating_bindings_are_typed_internal_errors() {
        let mut rng = TensorRng::seed(23);
        let q4 = QTensor::quantize_per_channel(&rng.kaiming(&[4, 4]), Fp8Format::E4M3).unwrap();
        let f32_sub = rng.kaiming(&[4, 4]);
        let with_weight = |weight| Binding {
            weight,
            ..Binding::default()
        };
        let coded = ActBinding::Coded {
            format: Fp8Format::E4M3,
            scale: ActScale::Dynamic,
        };
        let with_acts = |weight, acts| Binding {
            weight,
            acts,
            ..Binding::default()
        };

        // `Q` on an Embedding table: no fused kernel reads one.
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(rng.kaiming(&[4, 4]));
        let e = b.embedding(ids, table);
        let g = b.finish(vec![e]);
        let x = [Tensor::from_slice(&[1.0, 3.0])];
        assert_rejected(&g, &x, with_weight(WeightBinding::Q(&q4)), "Q on Embedding");

        // Any substitute on a BatchNorm: it has no quantizable weight.
        let mut b = GraphBuilder::new();
        let x_id = b.input();
        let [gamma, beta, mean, var] = [1.0, 0.0, 0.0, 1.0].map(|v| b.param(Tensor::full(&[4], v)));
        let bn = b.batchnorm(x_id, gamma, beta, mean, var, 1e-5);
        let g = b.finish(vec![bn]);
        let x = [rng.normal(&[1, 4, 2, 2], 0.0, 1.0)];
        assert_rejected(&g, &x, with_weight(WeightBinding::Q(&q4)), "Q on BatchNorm");
        assert_rejected(
            &g,
            &x,
            with_weight(WeightBinding::F32(&f32_sub)),
            "F32 on BatchNorm",
        );
        // ... and no code\u{d7}code kernel either.
        let acts = [coded, ActBinding::F32];
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Graph, acts),
            "Coded on BatchNorm",
        );

        // Codes on a depthwise conv, even with an FP8-stored weight.
        let mut b = GraphBuilder::new();
        let x_id = b.input();
        let w = b.param(rng.kaiming(&[4, 1, 3, 3]));
        let c = b.depthwise_conv2d(x_id, w, None, Conv2dParams::same(3));
        let g = b.finish(vec![c]);
        let qdw = QTensor::quantize_per_channel(&g.params[&w], Fp8Format::E4M3).unwrap();
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Q(&qdw), acts),
            "Coded on depthwise",
        );

        // Codes paired with an f32 weight (graph-bound or substituted).
        let mut b = GraphBuilder::new();
        let x_id = b.input();
        let w = b.param(rng.kaiming(&[4, 4]));
        let y = b.linear(x_id, w, None);
        let g = b.finish(vec![y]);
        let x = [rng.normal(&[2, 4], 0.0, 1.0)];
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Graph, acts),
            "Coded with graph weight",
        );
        let sub = WeightBinding::F32(&f32_sub);
        assert_rejected(&g, &x, with_acts(sub, acts), "Coded with f32 weight");
        // Codes on an input the node does not have.
        let second = [ActBinding::F32, coded];
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Q(&q4), second),
            "Coded on missing input",
        );

        // One-sided MatMul coding.
        let mut b = GraphBuilder::new();
        let (l, r) = (b.input(), b.input());
        let y = b.matmul(l, r);
        let g = b.finish(vec![y]);
        let x = [rng.normal(&[2, 4], 0.0, 1.0), rng.normal(&[4, 3], 0.0, 1.0)];
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Graph, acts),
            "one-sided MatMul (lhs)",
        );
        assert_rejected(
            &g,
            &x,
            with_acts(WeightBinding::Graph, second),
            "one-sided MatMul (rhs)",
        );
    }

    #[test]
    fn embedding_graph_roundtrip() {
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(Tensor::from_vec(vec![0., 0., 1., 1., 2., 2.], &[3, 2]));
        let e = b.embedding(ids, table);
        let g = b.finish(vec![e]);
        let out = g.infer(&[Tensor::from_slice(&[2.0, 0.0])]).unwrap_ok();
        assert_eq!(out[0].data(), &[2., 2., 0., 0.]);
    }

    #[test]
    fn attention_shaped_subgraph() {
        // q,k,v [seq=4, d=6] with 2 heads of dim 3: full BatchMatMul path.
        let mut rng = TensorRng::seed(9);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let wq = b.param(rng.kaiming(&[6, 6]));
        let wk = b.param(rng.kaiming(&[6, 6]));
        let wv = b.param(rng.kaiming(&[6, 6]));
        let q = b.linear(x, wq, None);
        let k = b.linear(x, wk, None);
        let v = b.linear(x, wv, None);
        // [4,6] -> [4,2,3] -> [2,4,3]
        let qh = b.reshape(q, &[4, 2, 3]);
        let qh = b.permute(qh, &[1, 0, 2]);
        let kh = b.reshape(k, &[4, 2, 3]);
        let kh = b.permute(kh, &[1, 2, 0]); // [2,3,4]
        let vh = b.reshape(v, &[4, 2, 3]);
        let vh = b.permute(vh, &[1, 0, 2]);
        let scores = b.batch_matmul(qh, kh); // [2,4,4]
        let scores = b.scale(scores, 1.0 / 3f32.sqrt());
        let probs = b.softmax(scores);
        let ctx = b.batch_matmul(probs, vh); // [2,4,3]
        let ctx = b.permute(ctx, &[1, 0, 2]); // [4,2,3]
        let ctx = b.reshape(ctx, &[4, 6]);
        let g = b.finish(vec![ctx]);
        let x = TensorRng::seed(3).normal(&[4, 6], 0.0, 1.0);
        let y = g.infer(&[x]).unwrap_ok();
        assert_eq!(y[0].shape(), &[4, 6]);
        assert!(y[0].data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "graph expects 1 inputs")]
    fn wrong_input_count_panics() {
        tiny_cnn().infer(&[]).unwrap_ok();
    }

    #[test]
    #[should_panic(expected = "is not produced")]
    fn builder_rejects_future_value() {
        let mut b = GraphBuilder::new();
        let x = b.input();
        // Using a made-up id should panic.
        b.add(x, 999);
    }

    #[test]
    fn param_count_and_size() {
        let g = tiny_cnn();
        // conv 4*3*3*3 + bn 4*4 + linear 10*4 = 108 + 16 + 40 = 164.
        assert_eq!(g.param_count(), 164);
        assert!(g.size_mb() > 0.0);
    }
}
