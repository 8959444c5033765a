//! Anchor heads: make synthetic tasks genuinely input-dependent.
//!
//! A randomly-initialized backbone followed by global pooling produces
//! features whose *constant* component (the dataset-mean feature) dwarfs
//! the input-dependent part, so a random linear head predicts almost the
//! same class for every input — a degenerate task where quantization
//! either changes nothing or flips everything.
//!
//! The fix: after building the backbone, re-wire the head as a
//! **nearest-anchor classifier in the model's own feature space**. Class
//! `c`'s logit becomes `(f − μ)·â_c`, where `μ` is the mean feature over a
//! probe set and `â_c` is the unit-normalized centered feature of a probe
//! sample chosen as class `c`'s anchor. Logits are then driven entirely by
//! the input-dependent feature component, margins are smooth, and small
//! numeric perturbations (eval noise, quantization error) flip exactly the
//! near-margin samples — the mechanism behind realistic accuracy
//! degradation.
//!
//! Beside the heads, [`coadapt_convs`] rescales conv weights as training
//! would; the CV families run it between two FP32 BatchNorm
//! re-estimations ([`ptq_nn::reestimate_batchnorm`], the sweep the PTQ
//! pass calibrates BatchNorm with).

use ptq_nn::{ExecHook, Graph, Node, NodeId, Op, Param, UnwrapOk};
use ptq_tensor::{Tensor, TensorRng};

/// Capture the activation input of one node across runs.
#[derive(Debug)]
pub struct CaptureInput {
    /// Node whose input is captured.
    pub node: NodeId,
    /// Captured input tensors, one per run (2-D, rows accumulated).
    pub rows: Vec<Tensor>,
}

impl CaptureInput {
    /// Capture the input of `node`.
    pub fn new(node: NodeId) -> Self {
        CaptureInput {
            node,
            rows: Vec::new(),
        }
    }

    /// All captured rows stacked into `[n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if nothing was captured.
    pub fn stacked(&self) -> Tensor {
        assert!(!self.rows.is_empty(), "no features captured");
        Tensor::concat0(&self.rows.iter().collect::<Vec<_>>())
    }
}

impl ExecHook for CaptureInput {
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        if node.id == self.node {
            let x = inputs[0];
            assert_eq!(x.ndim(), 2, "captured feature must be 2-D");
            self.rows.push(x.clone());
        }
    }
}

/// Run `batches` through the graph, returning the stacked `[n, d]` inputs
/// of `head_node`.
pub fn capture_features(graph: &Graph, batches: &[Vec<Tensor>], head_node: NodeId) -> Tensor {
    let mut cap = CaptureInput::new(head_node);
    for inputs in batches {
        graph.run(inputs, &mut cap).unwrap_ok();
    }
    cap.stacked()
}

/// The id of the last Linear node (the conventional task head).
///
/// # Panics
///
/// Panics if the graph has no Linear node.
pub fn head_node(graph: &Graph) -> NodeId {
    *graph
        .nodes_of_class(ptq_nn::OpClass::Linear)
        .last()
        .expect("graph has a Linear head")
}

/// Per-dimension mean and standard deviation of a `[n, d]` feature set.
/// σ is floored to a small fraction of the feature scale so dead
/// dimensions do not explode the whitened space.
fn feature_moments_1d(features: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (n, d) = (features.dim(0), features.dim(1));
    let mut mu = vec![0.0f32; d];
    let mut sq = vec![0.0f32; d];
    for i in 0..n {
        for j in 0..d {
            let v = features.at(&[i, j]);
            mu[j] += v;
            sq[j] += v * v;
        }
    }
    let mut sigma = vec![0.0f32; d];
    let mut max_sigma = 0.0f32;
    for j in 0..d {
        mu[j] /= n as f32;
        sigma[j] = (sq[j] / n as f32 - mu[j] * mu[j]).max(0.0).sqrt();
        max_sigma = max_sigma.max(sigma[j]);
    }
    let floor = (max_sigma * 1e-3).max(1e-6);
    for s in &mut sigma {
        *s = s.max(floor);
    }
    (mu, sigma)
}

/// Mean vector and regularized covariance inverse of a `[n, d]` feature
/// set: `(μ, Σ_reg⁻¹, Σ_reg)` with `Σ_reg = Σ + λI`, `λ = 0.05·mean(diag Σ)`.
///
/// The inverse is what a *trained* linear head effectively encodes: it
/// decorrelates the feature space, so a single dominant (outlier-
/// amplified) direction cannot drown the discriminative components.
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
fn covariance_inverse(features: &Tensor) -> (Vec<f32>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (n, d) = (features.dim(0), features.dim(1));
    let mut mu = vec![0.0f32; d];
    for i in 0..n {
        for j in 0..d {
            mu[j] += features.at(&[i, j]);
        }
    }
    for m in &mut mu {
        *m /= n as f32;
    }
    let mut cov = vec![vec![0.0f64; d]; d];
    for i in 0..n {
        let row: Vec<f64> = (0..d)
            .map(|j| (features.at(&[i, j]) - mu[j]) as f64)
            .collect();
        for a in 0..d {
            for b in a..d {
                cov[a][b] += row[a] * row[b];
            }
        }
    }
    let mut trace = 0.0f64;
    for a in 0..d {
        for b in a..d {
            cov[a][b] /= n as f64;
            cov[b][a] = cov[a][b];
        }
        trace += cov[a][a];
    }
    let lambda = (trace / d as f64) * 0.05 + 1e-9;
    for a in 0..d {
        cov[a][a] += lambda;
    }
    let inv = invert_spd(&cov);
    (mu, inv, cov)
}

/// Gauss-Jordan inverse of a (regularized, symmetric positive-definite)
/// matrix. Panics if the matrix is singular despite regularization.
fn invert_spd(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = m.len();
    let mut a: Vec<Vec<f64>> = m.to_vec();
    let mut inv: Vec<Vec<f64>> = (0..d)
        .map(|i| (0..d).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect();
    for col in 0..d {
        // Partial pivot.
        let mut piv = col;
        for r in col + 1..d {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        a.swap(col, piv);
        inv.swap(col, piv);
        let p = a[col][col];
        assert!(
            p.abs() > 1e-12,
            "singular covariance despite regularization"
        );
        for j in 0..d {
            a[col][j] /= p;
            inv[col][j] /= p;
        }
        for r in 0..d {
            if r == col {
                continue;
            }
            let f = a[r][col];
            if f == 0.0 {
                continue;
            }
            for j in 0..d {
                a[r][j] -= f * a[col][j];
                inv[r][j] -= f * inv[col][j];
            }
        }
    }
    inv
}

/// Build one Mahalanobis anchor row: `w = Σ⁻¹(a − μ)`, normalized so the
/// logit has unit variance under the feature distribution
/// (`wᵀΣw = 1`); bias places the origin at `μ`.
fn mahalanobis_anchor_row(
    anchor: &[f32],
    mu: &[f32],
    inv: &[Vec<f64>],
    cov: &[Vec<f64>],
) -> (Vec<f32>, f32) {
    let d = anchor.len();
    let diff: Vec<f64> = (0..d).map(|j| (anchor[j] - mu[j]) as f64).collect();
    let mut u = vec![0.0f64; d];
    for a in 0..d {
        for b in 0..d {
            u[a] += inv[a][b] * diff[b];
        }
    }
    // Normalize to unit logit variance: wᵀ Σ w = 1.
    let mut var = 0.0f64;
    for a in 0..d {
        for b in 0..d {
            var += u[a] * cov[a][b] * u[b];
        }
    }
    let s = 1.0 / var.sqrt().max(1e-9);
    let w: Vec<f32> = u.iter().map(|&x| (x * s) as f32).collect();
    let bias = -w.iter().zip(mu).map(|(wi, mi)| wi * mi).sum::<f32>();
    (w, bias)
}

/// Replace a `[1, d] → [1, 1]` regression head with a centered random
/// unit direction so the scalar output tracks the input-dependent feature
/// component.
///
/// # Panics
///
/// Panics if the head is not a 1-wide `Linear` with a bias.
pub fn install_regression_head(graph: &mut Graph, head: NodeId, features: &Tensor, seed: u64) {
    let (n, d) = (features.dim(0), features.dim(1));
    let (wid, bid) = head_params(graph, head);
    assert_eq!(
        graph.param(wid).expect("head weight").shape(),
        &[1, d],
        "regression head must be [1, {d}]"
    );
    let (mu, sigma) = feature_moments_1d(features);
    // Random whitened direction, scaled so outputs have roughly unit
    // variance over the probe features.
    let mut rng = TensorRng::seed(seed);
    let dir = rng.normal(&[d], 0.0, 1.0);
    let mut v: Vec<f32> = (0..d).map(|j| dir.data()[j] / sigma[j]).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for x in &mut v {
        *x /= norm;
    }
    // Project probe features to estimate the spread; rescale to ~unit std.
    let mut proj: Vec<f32> = Vec::with_capacity(n);
    for i in 0..n {
        let p: f32 = (0..d).map(|j| (features.at(&[i, j]) - mu[j]) * v[j]).sum();
        proj.push(p);
    }
    let pm = proj.iter().sum::<f32>() / n as f32;
    let pv = proj.iter().map(|p| (p - pm).powi(2)).sum::<f32>() / n as f32;
    let scale = 1.0 / pv.sqrt().max(1e-6);
    for x in &mut v {
        *x *= scale;
    }
    let bias = -v.iter().zip(&mu).map(|(vi, mi)| vi * mi).sum::<f32>();
    graph
        .set_param(wid, Tensor::from_vec(v, &[1, d]))
        .unwrap_ok();
    graph
        .set_param(bid, Tensor::from_slice(&[bias]))
        .unwrap_ok();
}

/// Replace `head`'s weight/bias so its `rows.len()` output logits are
/// nearest-anchor scores over the captured `features` (`[n, d]`): class
/// `c`'s anchor is feature row `rows[c]` (e.g. the features of class
/// *prototype* inputs), and the centering mean `μ` and covariance are
/// estimated from the full feature set. The dot product is Mahalanobis
/// (whitened by the regularized covariance) — the discriminative
/// reweighting a trained head provides, which lets a model with amplified
/// outlier channels keep a healthy FP32 baseline while those channels
/// still stretch per-tensor INT8 activation grids (the paper's core
/// mechanism).
///
/// # Panics
///
/// Panics if the head is not a `Linear` with a bias, if its width is not
/// `rows.len()`, or if any row index is out of bounds.
pub fn install_anchor_head_rows(
    graph: &mut Graph,
    head: NodeId,
    features: &Tensor,
    rows: &[usize],
) {
    let (n, d) = (features.dim(0), features.dim(1));
    let k = rows.len();
    let (wid, bid) = head_params(graph, head);
    let w_shape = graph.param(wid).expect("head weight").shape().to_vec();
    assert_eq!(w_shape, vec![k, d], "head weight must be [{k}, {d}]");
    let (mu, inv, cov) = covariance_inverse(features);
    let mut w = Tensor::zeros(&[k, d]);
    let mut b = Tensor::zeros(&[k]);
    for (c, &row) in rows.iter().enumerate() {
        assert!(row < n, "anchor row {row} out of bounds ({n})");
        let anchor: Vec<f32> = (0..d).map(|j| features.at(&[row, j])).collect();
        let (wr, bias) = mahalanobis_anchor_row(&anchor, &mu, &inv, &cov);
        w.data_mut()[c * d..(c + 1) * d].copy_from_slice(&wr);
        b.data_mut()[c] = bias;
    }
    graph.set_param(wid, w).unwrap_ok();
    graph.set_param(bid, b).unwrap_ok();
}

/// Co-adapt convolution weights to their inputs' per-channel magnitudes,
/// as training would: measure each Conv2d's input-channel absmax over
/// `batches`, then rescale the weight's input-channel slices by
/// `median/|mag|` (clamped). Outlier channels keep their large
/// *activations* (what stretches per-tensor INT8 grids) but no longer
/// dominate every output (which would turn activation outliers into a
/// pure weight-precision contest no small model can win).
///
/// Call between two BatchNorm re-estimations
/// ([`ptq_nn::reestimate_batchnorm`]) so downstream statistics follow the
/// rescaled weights.
pub fn coadapt_convs(graph: &mut Graph, batches: &[Vec<Tensor>]) {
    use crate::families::common::coadapt_scales;
    use ptq_nn::OpClass;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Cap {
        mags: HashMap<NodeId, Vec<f32>>,
    }
    impl ExecHook for Cap {
        #[allow(clippy::needless_range_loop)]
        fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
            if node.op.class() != OpClass::Conv2d {
                return;
            }
            let x = inputs[0];
            let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
            let e = self.mags.entry(node.id).or_insert_with(|| vec![0.0; c]);
            let data = x.data();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for &v in &data[base..base + h * w] {
                        e[ci] = e[ci].max(v.abs());
                    }
                }
            }
        }
    }

    let mut cap = Cap::default();
    for inputs in batches {
        graph.run(inputs, &mut cap).unwrap_ok();
    }
    let updates: Vec<(NodeId, Vec<f32>)> = cap.mags.into_iter().collect();
    for (id, mags) in updates {
        let (wid, depthwise) = match &graph.nodes()[id].op {
            Op::Conv2d {
                weight, depthwise, ..
            } => (*weight, *depthwise),
            _ => continue,
        };
        let scales = coadapt_scales(&mags);
        let w = graph.param(wid).and_then(Param::as_f32);
        let mut w = w.expect("f32 conv weight").clone();
        if depthwise {
            // [C, 1, kh, kw]: channel j's filter scales by s_j.
            let inner = w.len() / w.dim(0);
            for (j, &s) in scales.iter().enumerate() {
                for v in &mut w.data_mut()[j * inner..(j + 1) * inner] {
                    *v *= s;
                }
            }
        } else {
            // [Cout, Cin, kh, kw]: input-channel slice j scales by s_j.
            let (cout, cin) = (w.dim(0), w.dim(1));
            let k = w.len() / (cout * cin);
            for o in 0..cout {
                for (j, &s) in scales.iter().enumerate() {
                    let base = (o * cin + j) * k;
                    for v in &mut w.data_mut()[base..base + k] {
                        *v *= s;
                    }
                }
            }
        }
        graph.set_param(wid, w).unwrap_ok();
    }
}

fn head_params(graph: &Graph, head: NodeId) -> (ptq_nn::ValueId, ptq_nn::ValueId) {
    match &graph.nodes()[head].op {
        Op::Linear { weight, bias } => (
            *weight,
            bias.expect("anchor heads require a Linear head with bias"),
        ),
        other => panic!("head node {head} is {other:?}, not Linear"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_nn::GraphBuilder;

    /// Backbone with a strong constant feature component, mimicking the
    /// GAP pathology.
    fn constant_heavy_graph(classes: usize) -> (Graph, Vec<Vec<Tensor>>) {
        let mut rng = TensorRng::seed(1);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[6, 4]));
        let h = b.linear(x, w, None);
        let h = b.relu(h); // ReLU gives features a large positive mean
        let wh = b.param(rng.kaiming(&[classes, 6]));
        let bh = b.param(Tensor::zeros(&[classes]));
        let out = b.linear(h, wh, Some(bh));
        let g = b.finish(vec![out]);
        let batches: Vec<Vec<Tensor>> = (0..4)
            .map(|i| vec![TensorRng::seed(10 + i).normal(&[16, 4], 0.0, 1.0)])
            .collect();
        (g, batches)
    }

    /// `k` distinct rows of `n`, drawn from `seed`.
    fn random_rows(n: usize, k: usize, seed: u64) -> Vec<usize> {
        let mut rng = TensorRng::seed(seed);
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let c = rng.below(n);
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        picked
    }

    #[test]
    fn anchor_head_diversifies_predictions() {
        let (mut g, batches) = constant_heavy_graph(4);
        let head = head_node(&g);
        // Before: predictions concentrate on very few classes.
        let feats = capture_features(&g, &batches, head);
        install_anchor_head_rows(&mut g, head, &feats, &random_rows(feats.dim(0), 4, 7));
        let mut preds = Vec::new();
        for inp in &batches {
            preds.extend(g.infer(inp).unwrap_ok()[0].argmax_rows());
        }
        let mut counts = vec![0usize; 4];
        for &p in &preds {
            counts[p] += 1;
        }
        // Every class is used, and no class swallows almost everything.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(
            *counts.iter().max().unwrap() < preds.len() * 3 / 4,
            "{counts:?}"
        );
    }

    #[test]
    fn anchor_sample_predicts_its_own_class_modulo_ties() {
        let (mut g, batches) = constant_heavy_graph(3);
        let head = head_node(&g);
        let feats = capture_features(&g, &batches, head);
        install_anchor_head_rows(&mut g, head, &feats, &random_rows(feats.dim(0), 3, 3));
        // Predictions on the probe set are spread and deterministic.
        let p1: Vec<usize> = batches
            .iter()
            .flat_map(|inp| g.infer(inp).unwrap_ok()[0].argmax_rows())
            .collect();
        let p2: Vec<usize> = batches
            .iter()
            .flat_map(|inp| g.infer(inp).unwrap_ok()[0].argmax_rows())
            .collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn regression_head_unit_spread() {
        let (mut g, batches) = constant_heavy_graph(1);
        let head = head_node(&g);
        let feats = capture_features(&g, &batches, head);
        install_regression_head(&mut g, head, &feats, 5);
        let mut outs = Vec::new();
        for inp in &batches {
            outs.extend(g.infer(inp).unwrap_ok()[0].data().to_vec());
        }
        let m = outs.iter().sum::<f32>() / outs.len() as f32;
        let v = outs.iter().map(|x| (x - m).powi(2)).sum::<f32>() / outs.len() as f32;
        assert!((v - 1.0).abs() < 0.35, "variance {v}");
        assert!(m.abs() < 0.5, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "require a Linear head with bias")]
    fn head_without_bias_rejected() {
        let mut rng = TensorRng::seed(2);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[3, 4]));
        let y = b.linear(x, w, None);
        let mut g = b.finish(vec![y]);
        let f = Tensor::zeros(&[8, 4]);
        install_anchor_head_rows(&mut g, 0, &f, &[0, 1, 2]);
    }
}
