//! Property-based tests for the graph IR and interpreter.

use proptest::prelude::*;
use ptq_nn::{Binding, ExecHook, Graph, GraphBuilder, Node, NoopHook, Op, Param, UnwrapOk};
use ptq_tensor::{Tensor, TensorRng};
use std::collections::HashMap;

/// `g` with every quantizable weight replaced by `f(weight)`, the way
/// quantization rewrites a model's graph.
fn substituted(g: &Graph, f: impl Fn(&Tensor) -> Tensor) -> Graph {
    let mut out = g.clone();
    for v in g.nodes().iter().filter_map(|n| n.op.weight_value()) {
        let w = g
            .param(v)
            .and_then(Param::as_f32)
            .expect("bound f32 weight");
        out.set_param(v, f(w)).unwrap_ok();
    }
    out
}

/// Binds, for a nonzero `shift`, divisors `1 + shift·(j + 1)` over every
/// Linear's input channels `j`, and logs every `before_node` call.
struct Subst {
    divisors: HashMap<usize, Vec<f32>>,
    log: Vec<(usize, usize)>,
}

impl Subst {
    fn new(g: &Graph, shift: f32) -> Self {
        let linears = g.nodes().iter().filter_map(|n| match n.op {
            Op::Linear { weight, .. } if shift != 0.0 => Some((n.id, weight)),
            _ => None,
        });
        let divisors = linears
            .map(|(id, w)| {
                let d = g.param(w).expect("bound weight").dim(1);
                (id, (0..d).map(|j| 1.0 + shift * (j + 1) as f32).collect())
            })
            .collect();
        Subst {
            divisors,
            log: Vec::new(),
        }
    }
}

impl ExecHook for Subst {
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        self.log.push((node.id, inputs.len()));
    }
    fn bind(&self, node: &Node) -> Binding<'_> {
        Binding {
            divisors: self.divisors.get(&node.id).map(Vec::as_slice),
            ..Binding::default()
        }
    }
}

/// Build a random MLP graph from a shape spec: layer widths + activation
/// choices.
fn mlp(widths: &[usize], acts: &[u8], seed: u64) -> ptq_nn::Graph {
    let mut rng = TensorRng::seed(seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let mut cur = x;
    for i in 1..widths.len() {
        let w = b.param(rng.kaiming(&[widths[i], widths[i - 1]]));
        cur = b.linear(cur, w, None);
        match acts[(i - 1) % acts.len()] % 4 {
            0 => cur = b.relu(cur),
            1 => cur = b.gelu(cur),
            2 => cur = b.tanh(cur),
            _ => {}
        }
    }
    b.finish(vec![cur])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter is deterministic and shape-correct for arbitrary
    /// MLPs.
    #[test]
    fn mlp_inference_deterministic(
        widths in proptest::collection::vec(1usize..12, 2..5),
        acts in proptest::collection::vec(0u8..4, 1..4),
        seed in 0u64..1000,
        rows in 1usize..4,
    ) {
        let g = mlp(&widths, &acts, seed);
        let x = TensorRng::seed(seed ^ 1).normal(&[rows, widths[0]], 0.0, 1.0);
        let y1 = g.infer(std::slice::from_ref(&x)).unwrap_ok();
        let y2 = g.infer(&[x]).unwrap_ok();
        prop_assert_eq!(&y1, &y2);
        prop_assert_eq!(y1[0].shape(), &[rows, *widths.last().expect("nonempty")]);
        prop_assert!(y1[0].data().iter().all(|v| v.is_finite()));
    }

    /// Hooks observe every node exactly once per run, in topological order.
    #[test]
    fn hooks_fire_once_per_node_in_order(
        widths in proptest::collection::vec(1usize..10, 2..6),
        seed in 0u64..1000,
    ) {
        struct Order(Vec<usize>);
        impl ExecHook for Order {
            fn before_node(&mut self, node: &Node, _i: &[&Tensor]) {
                self.0.push(node.id);
            }
        }
        let g = mlp(&widths, &[0], seed);
        let mut h = Order(Vec::new());
        let x = TensorRng::seed(seed).normal(&[1, widths[0]], 0.0, 1.0);
        g.run(&[x], &mut h).unwrap_ok();
        prop_assert_eq!(h.0.len(), g.nodes().len());
        for (i, &id) in h.0.iter().enumerate() {
            prop_assert_eq!(id, i);
        }
    }

    /// Weight substitution with the identity transformation leaves the
    /// output bit-identical.
    #[test]
    fn identity_weight_hook_is_noop(
        widths in proptest::collection::vec(1usize..10, 2..5),
        seed in 0u64..1000,
    ) {
        let g = mlp(&widths, &[3], seed);
        let x = TensorRng::seed(seed ^ 2).normal(&[2, widths[0]], 0.0, 1.0);
        let base = g.run(std::slice::from_ref(&x), &mut NoopHook).unwrap_ok();
        let subst = substituted(&g, Tensor::clone).run(&[x], &mut Subst::new(&g, 0.0)).unwrap_ok();
        prop_assert_eq!(base, subst);
    }

    /// Scaling the single linear layer's weight scales the output linearly.
    #[test]
    fn linear_graph_is_homogeneous(
        w_in in 1usize..8,
        w_out in 1usize..8,
        seed in 0u64..1000,
        k in 0.25f32..4.0,
    ) {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[w_out, w_in]));
        let y = b.linear(x, w, None);
        let g = b.finish(vec![y]);
        let input = TensorRng::seed(seed ^ 3).normal(&[1, w_in], 0.0, 1.0);
        let base = g.run(std::slice::from_ref(&input), &mut NoopHook).unwrap_ok();
        let scaled = substituted(&g, |w| w.scale(k)).run(&[input], &mut Subst::new(&g, 0.0)).unwrap_ok();
        for (a, b) in base[0].data().iter().zip(scaled[0].data()) {
            prop_assert!((a * k - b).abs() <= 1e-4 * (a.abs() * k + 1.0));
        }
    }

    /// Param counts are consistent with the builder's inputs.
    #[test]
    fn param_count_matches(
        widths in proptest::collection::vec(1usize..10, 2..6),
        seed in 0u64..1000,
    ) {
        let g = mlp(&widths, &[3], seed);
        let expected: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
        prop_assert_eq!(g.param_count(), expected);
    }

    /// Planned execution is bit-identical to the interpreter for
    /// arbitrary MLPs under a no-op hook.
    #[test]
    fn plan_matches_interpreter(
        widths in proptest::collection::vec(1usize..12, 2..6),
        acts in proptest::collection::vec(0u8..4, 1..4),
        seed in 0u64..1000,
        rows in 1usize..4,
    ) {
        let g = mlp(&widths, &acts, seed);
        let x = TensorRng::seed(seed ^ 5).normal(&[rows, widths[0]], 0.0, 1.0);
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        let interp = g.infer(std::slice::from_ref(&x)).unwrap_ok();
        // Run the plan twice so the second pass exercises warmed (reused)
        // arena buffers, not just fresh ones.
        let p1 = plan.run(&g, std::slice::from_ref(&x), &mut NoopHook).unwrap_ok();
        let p2 = plan.run(&g, &[x], &mut NoopHook).unwrap_ok();
        prop_assert_eq!(&interp, &p1);
        prop_assert_eq!(&interp, &p2);
    }

    /// Planned execution drives hooks identically to the interpreter:
    /// same node order, same input views, same divisor bindings, on a graph
    /// whose weights were replaced.
    #[test]
    fn plan_drives_hooks_identically(
        widths in proptest::collection::vec(1usize..10, 2..5),
        seed in 0u64..1000,
        k in 0.25f32..4.0,
    ) {
        let g = substituted(&mlp(&widths, &[0, 1], seed), |w| w.scale(k));
        let x = TensorRng::seed(seed ^ 7).normal(&[2, widths[0]], 0.0, 1.0);
        let mangler = || Subst::new(&g, 0.125);
        let mut hi = mangler();
        let yi = g.run(std::slice::from_ref(&x), &mut hi).unwrap_ok();
        let plan = g.plan(&[x.shape().to_vec()]).unwrap_ok();
        // Cold, then warmed arena.
        for _ in 0..2 {
            let mut hp = mangler();
            let yp = plan.run(&g, std::slice::from_ref(&x), &mut hp).unwrap_ok();
            prop_assert_eq!(&yi, &yp);
            prop_assert_eq!(&hi.log, &hp.log);
        }
    }
}
