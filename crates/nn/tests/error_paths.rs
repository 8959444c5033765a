//! Exhaustive error-path suite for the validation pass: every class of
//! malformed graph must surface as a typed `PtqError` from `run`,
//! never as a panic.

use ptq_nn::{Graph, GraphBuilder, Node, Op, PtqError};
use ptq_tensor::ops::Conv2dParams;
use ptq_tensor::Tensor;
use std::collections::HashMap;

/// A minimal single-linear graph: input [m,4] -> Linear(10x4).
fn linear_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[10, 4]));
    let y = b.linear(x, w, None);
    b.finish(vec![y])
}

/// Assert `run` (not just `validate`) fails — and, being a `Result`,
/// by construction does not panic.
fn expect_err(g: &Graph, inputs: &[Tensor]) -> PtqError {
    g.infer(inputs).expect_err("malformed case must fail")
}

#[test]
fn wrong_input_arity() {
    let g = linear_graph();
    let e = expect_err(&g, &[]);
    assert_eq!(
        e,
        PtqError::InputArity {
            expected: 1,
            got: 0
        }
    );
    assert_eq!(e.to_string(), "graph expects 1 inputs, got 0");
    let too_many = [Tensor::ones(&[1, 4]), Tensor::ones(&[1, 4])];
    assert!(matches!(
        expect_err(&g, &too_many),
        PtqError::InputArity {
            expected: 1,
            got: 2
        }
    ));
}

#[test]
fn unbound_parameter() {
    // Hand-build a Linear node whose weight id has no bound tensor.
    let nodes = vec![Node {
        id: 0,
        op: Op::Linear {
            weight: 1,
            bias: None,
        },
        inputs: vec![0],
        output: 2,
        name: "linear_0".into(),
    }];
    let g = Graph::from_parts(nodes, HashMap::<_, Tensor>::new(), vec![0], vec![2], 3);
    let e = expect_err(&g, &[Tensor::ones(&[1, 4])]);
    assert!(matches!(e, PtqError::UnboundParam { value: 1, .. }), "{e}");
}

#[test]
fn use_before_def() {
    // Node 0 reads value 5, which nothing produces.
    let mut params = HashMap::new();
    params.insert(1usize, Tensor::ones(&[10, 4]));
    let nodes = vec![Node {
        id: 0,
        op: Op::Linear {
            weight: 1,
            bias: None,
        },
        inputs: vec![5],
        output: 2,
        name: "linear_0".into(),
    }];
    let g = Graph::from_parts(nodes, params, vec![0], vec![2], 6);
    let e = expect_err(&g, &[Tensor::ones(&[1, 4])]);
    assert!(matches!(e, PtqError::UseBeforeDef { value: 5, .. }), "{e}");
}

#[test]
fn unproduced_output() {
    let mut params = HashMap::new();
    params.insert(1usize, Tensor::ones(&[10, 4]));
    let nodes = vec![Node {
        id: 0,
        op: Op::Linear {
            weight: 1,
            bias: None,
        },
        inputs: vec![0],
        output: 2,
        name: "linear_0".into(),
    }];
    // Output 3 is never produced by any node.
    let g = Graph::from_parts(nodes, params, vec![0], vec![3], 4);
    let e = expect_err(&g, &[Tensor::ones(&[1, 4])]);
    assert!(matches!(e, PtqError::UnproducedOutput { value: 3 }), "{e}");
}

#[test]
fn empty_graph() {
    let g = Graph::from_parts(vec![], HashMap::<_, Tensor>::new(), vec![], vec![], 0);
    assert_eq!(expect_err(&g, &[]), PtqError::EmptyGraph);
}

#[test]
fn builder_build_catches_unbound_param() {
    let mut b = GraphBuilder::new();
    let x = b.input();
    // `999` is a dangling weight id the builder cannot know about.
    let y = b.linear(x, 999, None);
    // (builder only checks *activation* inputs, so construction succeeds)
    let r = b.build(vec![y]);
    assert!(
        matches!(r, Err(PtqError::UnboundParam { value: 999, .. })),
        "{r:?}"
    );
}

#[test]
fn builder_build_ok_on_healthy_graph() {
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[2, 2]));
    let y = b.linear(x, w, None);
    let g = b.build(vec![y]).unwrap();
    assert_eq!(
        g.infer(&[Tensor::ones(&[1, 2])]).unwrap()[0].shape(),
        &[1, 2]
    );
}

// ---- shape/rank mismatch per operator class ----

fn shape_err(g: &Graph, inputs: &[Tensor]) {
    let e = expect_err(g, inputs);
    assert!(matches!(e, PtqError::ShapeMismatch { .. }), "{e}");
}

#[test]
fn linear_shape_mismatches() {
    let g = linear_graph();
    // in_features 5 vs weight's 4.
    shape_err(&g, &[Tensor::ones(&[2, 5])]);
    // 3-D input to a 2-D op.
    shape_err(&g, &[Tensor::ones(&[2, 4, 1])]);
    // Bias length disagrees with out_features.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[10, 4]));
    let bias = b.param(Tensor::ones(&[9]));
    let y = b.linear(x, w, Some(bias));
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 4])]);
}

#[test]
fn conv_shape_mismatches() {
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[4, 3, 3, 3]));
    let y = b.conv2d(x, w, None, Conv2dParams::same(3));
    let g = b.finish(vec![y]);
    // Channel mismatch (2 vs weight's 3) and non-NCHW rank.
    shape_err(&g, &[Tensor::ones(&[1, 2, 8, 8])]);
    shape_err(&g, &[Tensor::ones(&[3, 8, 8])]);
    // Kernel larger than the (unpadded) input.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[1, 1, 5, 5]));
    let y = b.conv2d(x, w, None, Conv2dParams::default());
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[1, 1, 2, 2])]);
    // Depthwise weight must be [C,1,Kh,Kw] with C == input channels.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[3, 1, 3, 3]));
    let y = b.depthwise_conv2d(x, w, None, Conv2dParams::same(3));
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[1, 4, 8, 8])]);
}

#[test]
fn matmul_shape_mismatches() {
    let mut b = GraphBuilder::new();
    let p = b.input();
    let q = b.input();
    let y = b.matmul(p, q);
    let g = b.finish(vec![y]);
    // Inner-dimension disagreement and wrong rank.
    shape_err(&g, &[Tensor::ones(&[2, 3]), Tensor::ones(&[4, 2])]);
    shape_err(&g, &[Tensor::ones(&[2, 3, 1]), Tensor::ones(&[3, 4])]);

    let mut b = GraphBuilder::new();
    let p = b.input();
    let q = b.input();
    let y = b.batch_matmul(p, q);
    let g = b.finish(vec![y]);
    // Batch-dim disagreement.
    shape_err(&g, &[Tensor::ones(&[2, 4, 3]), Tensor::ones(&[3, 3, 5])]);
    // Inner-dim disagreement.
    shape_err(&g, &[Tensor::ones(&[2, 4, 3]), Tensor::ones(&[2, 4, 5])]);
}

#[test]
fn norm_shape_mismatches() {
    // BatchNorm: channel-count disagreement, then non-NCHW input.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let gamma = b.param(Tensor::ones(&[3]));
    let beta = b.param(Tensor::zeros(&[3]));
    let mean = b.param(Tensor::zeros(&[3]));
    let var = b.param(Tensor::ones(&[3]));
    let y = b.batchnorm(x, gamma, beta, mean, var, 1e-5);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[1, 4, 2, 2])]);
    shape_err(&g, &[Tensor::ones(&[3, 2, 2])]);

    // LayerNorm: affine length vs last dim.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let gamma = b.param(Tensor::ones(&[6]));
    let beta = b.param(Tensor::zeros(&[6]));
    let y = b.layernorm(x, gamma, beta, 1e-5);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 5])]);
}

#[test]
fn elementwise_broadcast_mismatches() {
    let mut b = GraphBuilder::new();
    let p = b.input();
    let q = b.input();
    let y = b.add(p, q);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3]), Tensor::ones(&[2])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = b.param(Tensor::ones(&[7]));
    let y = b.add_param(x, c);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3])]);
}

#[test]
fn pool_and_shape_op_mismatches() {
    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.max_pool(x, 4);
    let g = b.finish(vec![y]);
    // Window larger than the spatial extent; wrong rank.
    shape_err(&g, &[Tensor::ones(&[1, 1, 2, 2])]);
    shape_err(&g, &[Tensor::ones(&[1, 2, 2])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.reshape(x, &[5, 5]);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.permute(x, &[0, 0, 1]);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3, 4])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.causal_mask(x);
    let g = b.finish(vec![y]);
    // More query rows than key positions cannot be bottom-aligned.
    shape_err(&g, &[Tensor::ones(&[2, 5, 4])]);
    shape_err(&g, &[Tensor::ones(&[4, 4])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.mean_rows(x);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3, 4])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.global_avg_pool(x);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3])]);

    let mut b = GraphBuilder::new();
    let x = b.input();
    let y = b.upsample2x(x);
    let g = b.finish(vec![y]);
    shape_err(&g, &[Tensor::ones(&[2, 3, 4])]);
}

// ---- data-dependent contracts: embedding ids ----

fn embedding_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let ids = b.input();
    let table = b.param(Tensor::from_vec(vec![0., 0., 1., 1., 2., 2.], &[3, 2]));
    let e = b.embedding(ids, table);
    b.finish(vec![e])
}

#[test]
fn embedding_rejects_bad_ids() {
    let g = embedding_graph();
    for bad in [-1.0f32, 0.5, 3.0, f32::NAN, f32::INFINITY] {
        let e = g
            .infer(&[Tensor::from_slice(&[bad])])
            .expect_err("bad id must fail");
        assert!(matches!(e, PtqError::InvalidInput { .. }), "id {bad}: {e}");
    }
    // Valid boundary id still works.
    let ok = g.infer(&[Tensor::from_slice(&[2.0])]).unwrap();
    assert_eq!(ok[0].data(), &[2.0, 2.0]);
}

// ---- validate() reports output shapes ----

#[test]
fn validate_infers_output_shapes() {
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w = b.param(Tensor::ones(&[4, 3, 3, 3]));
    let c = b.conv2d(x, w, None, Conv2dParams::same(3));
    let r = b.relu(c);
    let p = b.max_pool(r, 2);
    let g = b.finish(vec![p]);
    let shapes = g.validate(&[vec![2, 3, 8, 8]]).unwrap();
    assert_eq!(shapes, vec![vec![2, 4, 4, 4]]);
}

// ---- causal mask semantics ----

#[test]
fn causal_mask_blocks_all_mass_even_at_huge_scale() {
    // With the old -1e9 sentinel, scores of magnitude ~1e9 leak mass
    // through the mask after softmax; a true -inf cannot.
    let mut b = GraphBuilder::new();
    let x = b.input();
    let m = b.causal_mask(x);
    let y = b.softmax(m);
    let g = b.finish(vec![y]);
    let scores = Tensor::from_vec(
        vec![1e9, 2e9, 3e9, 4e9, 5e9, 6e9, 7e9, 8e9, 9e9],
        &[1, 3, 3],
    );
    let p = &g.infer(&[scores]).unwrap()[0];
    // Strictly-upper-triangular entries carry exactly zero probability.
    assert_eq!(p.at(&[0, 0, 1]), 0.0);
    assert_eq!(p.at(&[0, 0, 2]), 0.0);
    assert_eq!(p.at(&[0, 1, 2]), 0.0);
    // Every row still sums to 1 and stays finite.
    for i in 0..3 {
        let s: f32 = (0..3).map(|j| p.at(&[0, i, j])).sum();
        assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
    }
    assert!(p.data().iter().all(|v| v.is_finite()));
}
