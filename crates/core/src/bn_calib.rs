//! BatchNorm calibration (§3, Figure 7): re-estimate BN running
//! statistics under the *quantized* network to compensate for the variance
//! shift quantization introduces (Sun et al. 2019).

use crate::quantizer::QuantizedModel;
use ptq_nn::{Binding, ExecHook, Graph, Node, NodeId, Op, OpClass, PlanSet, PtqError};
use ptq_tensor::Tensor;
use std::collections::HashMap;

/// Accumulates per-channel moments of BatchNorm inputs under the quantized
/// model: of every BN from the first one `acc` holds an entry for on (all
/// of them when `acc` starts empty; [`recalibrate_batchnorm`] seeds one).
struct BnMomentHook<'a> {
    quant: crate::quantizer::QuantHook<'a>,
    // node id -> (sum, sum_sq, count) per channel
    acc: HashMap<usize, (Vec<f64>, Vec<f64>, f64)>,
}

impl ExecHook for BnMomentHook<'_> {
    // The operands are the quantized model's (fake-quant included, by
    // the forwarded binding): what BN actually reads.
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        let before_first = self.acc.keys().min().is_some_and(|&k| node.id < k);
        if node.op.class() != OpClass::BatchNorm || before_first {
            return;
        }
        let x = inputs[0];
        assert_eq!(x.ndim(), 4, "BatchNorm input must be NCHW");
        let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
        let entry = self.acc.entry(node.id).or_default();
        entry.0.resize(c, 0.0);
        entry.1.resize(c, 0.0);
        // Plane `i` (in memory order) is channel `i % c` of image `i / c`.
        for (i, plane) in x.data().chunks(hw.max(1)).enumerate() {
            for &v in plane {
                entry.0[i % c] += v as f64;
                entry.1[i % c] += (v as f64) * (v as f64);
            }
        }
        entry.2 += (n * hw) as f64;
    }

    // Measure under exactly the inference the eval pass runs: same
    // weights, same boundary-coded activations, same kernel path.
    fn bind(&self, node: &Node) -> Binding<'_> {
        self.quant.bind(node)
    }
}

/// The graph's prefix that ends at node `last`: its nodes up to and
/// including `last`, the parameters they read, and `last`'s output as the
/// one graph output. Node and value ids are the full graph's, so the
/// quantized model's tables (keyed by them) apply unchanged.
fn prefix(graph: &Graph, last: NodeId) -> Graph {
    let nodes = &graph.nodes()[..=last];
    let param = |id| Some((id, graph.param(id)?.clone()));
    let params = nodes.iter().flat_map(|n| n.op.param_values());
    let (inputs, outputs) = (graph.input_ids().to_vec(), vec![nodes[last].output]);
    let params = params.filter_map(param).collect();
    Graph::from_parts(nodes.to_vec(), params, inputs, outputs, graph.n_values())
}

/// Run `calib` batches through the quantized model, measure each
/// BatchNorm's input moments, and overwrite the graph's running mean/var
/// parameters. Returns the number of BatchNorm nodes recalibrated.
///
/// BatchNorms are fixed **sequentially in execution order**: a BN's
/// correct statistics depend on every earlier BN already carrying its
/// recalibrated statistics (train-mode BN gets that from batch statistics;
/// an inference-mode emulation has to schedule it). BN k is measured by
/// one in-order pass of the batches (the f64 sums depend on the order)
/// over the [`prefix`] that ends at it, accumulating its moments alone;
/// the prefix's plans are dropped after it, so the model's [`PlanSet`]
/// keeps no calibration-shape plan.
pub fn recalibrate_batchnorm(
    model: &mut QuantizedModel,
    calib: &[Vec<Tensor>],
) -> Result<usize, PtqError> {
    let mut updated = 0;
    for target in model.graph.nodes_of_class(OpClass::BatchNorm) {
        let graph = prefix(&model.graph, target);
        let plans = PlanSet::new();
        let mut hook = BnMomentHook {
            quant: model.hook(),
            acc: HashMap::from([(target, Default::default())]),
        };
        for inputs in calib {
            plans.run(&graph, inputs, &mut hook)?;
        }
        let Some((sum, sq, count)) = hook.acc.remove(&target).filter(|a| a.2 > 0.0) else {
            continue;
        };
        let Op::BatchNorm { mean, var, .. } = model.graph.nodes()[target].op else {
            continue;
        };
        let m: Vec<f32> = sum.iter().map(|&s| (s / count) as f32).collect();
        let v: Vec<f32> = m
            .iter()
            .zip(&sq)
            .map(|(&mi, &s)| ((s / count) - (mi as f64) * (mi as f64)).max(1e-8) as f32)
            .collect();
        model.graph.set_param(mean, Tensor::from_slice(&m))?;
        model.graph.set_param(var, Tensor::from_slice(&v))?;
        updated += 1;
    }
    Ok(updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationHook;
    use crate::config::QuantConfig;
    use crate::quantizer::QuantizedModel;
    use ptq_fp8::Fp8Format;
    use ptq_nn::{GraphBuilder, UnwrapOk};
    use ptq_tensor::ops::Conv2dParams;
    use ptq_tensor::TensorRng;

    fn bn_cnn(seed: u64) -> ptq_nn::Graph {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w0 = b.param(rng.kaiming(&[4, 3, 3, 3]));
        let c0 = b.conv2d(x, w0, None, Conv2dParams::same(3));
        let r0 = b.relu(c0);
        // A middle conv so something is actually quantized despite the
        // first/last exception.
        let w1 = b.param(rng.kaiming(&[4, 4, 3, 3]));
        let c1 = b.conv2d(r0, w1, None, Conv2dParams::same(3));
        let gamma = b.param(TensorRng::seed(seed ^ 1).uniform(&[4], 0.8, 1.2));
        let beta = b.param(ptq_tensor::Tensor::zeros(&[4]));
        // Deliberately stale running stats.
        let mean = b.param(ptq_tensor::Tensor::full(&[4], 0.7));
        let var = b.param(ptq_tensor::Tensor::full(&[4], 3.0));
        let bn = b.batchnorm(c1, gamma, beta, mean, var, 1e-5);
        let r = b.relu(bn);
        let g = b.global_avg_pool(r);
        let wl = b.param(rng.kaiming(&[5, 4]));
        let out = b.linear(g, wl, None);
        b.finish(vec![out])
    }

    /// Four BNs, two of them on a residual branch that the skip path
    /// crosses: `r0` stays live past `bn1` and `bn2` until the `Add`.
    fn residual_bn_cnn(seed: u64) -> ptq_nn::Graph {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let bn = |b: &mut GraphBuilder, x, c: usize, k: u64| {
            let gamma = b.param(TensorRng::seed(seed ^ k).uniform(&[c], 0.8, 1.2));
            let beta = b.param(TensorRng::seed(seed ^ (k + 8)).uniform(&[c], -0.1, 0.1));
            // Deliberately stale running stats.
            let mean = b.param(Tensor::full(&[c], 0.5));
            let var = b.param(Tensor::full(&[c], 2.5));
            b.batchnorm(x, gamma, beta, mean, var, 1e-5)
        };
        let x = b.input();
        let w0 = b.param(rng.kaiming(&[6, 3, 3, 3]));
        let c0 = b.conv2d(x, w0, None, Conv2dParams::same(3));
        let bn0 = bn(&mut b, c0, 6, 1);
        let r0 = b.relu(bn0);
        let w1 = b.param(rng.kaiming(&[6, 6, 3, 3]));
        let c1 = b.conv2d(r0, w1, None, Conv2dParams::same(3));
        let bn1 = bn(&mut b, c1, 6, 2);
        let r1 = b.relu(bn1);
        let w2 = b.param(rng.kaiming(&[6, 6, 3, 3]));
        let c2 = b.conv2d(r1, w2, None, Conv2dParams::same(3));
        let bn2 = bn(&mut b, c2, 6, 3);
        let sum = b.add(r0, bn2);
        let r2 = b.relu(sum);
        let w3 = b.param(rng.kaiming(&[5, 6, 3, 3]));
        let c3 = b.conv2d(r2, w3, None, Conv2dParams::same(3));
        let bn3 = bn(&mut b, c3, 5, 4);
        let r3 = b.relu(bn3);
        let g = b.global_avg_pool(r3);
        let wl = b.param(rng.kaiming(&[4, 5]));
        let out = b.linear(g, wl, None);
        b.finish(vec![out])
    }

    /// The algorithm before prefixes, as the oracle: per BN, the full
    /// graph over every batch, every BN's moments accumulated, the
    /// target's kept.
    fn recalibrate_on_the_full_graph(model: &mut QuantizedModel, calib: &[Vec<Tensor>]) {
        struct EveryBn<'a> {
            quant: crate::quantizer::QuantHook<'a>,
            acc: HashMap<usize, (Vec<f64>, Vec<f64>, f64)>,
        }
        impl ExecHook for EveryBn<'_> {
            fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
                if node.op.class() != OpClass::BatchNorm {
                    return;
                }
                let x = inputs[0];
                let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
                let e = self
                    .acc
                    .entry(node.id)
                    .or_insert_with(|| (vec![0.0; c], vec![0.0; c], 0.0));
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * hw;
                        for &v in &x.data()[base..base + hw] {
                            e.0[ci] += v as f64;
                            e.1[ci] += (v as f64) * (v as f64);
                        }
                    }
                }
                e.2 += (n * hw) as f64;
            }
            fn bind(&self, node: &Node) -> Binding<'_> {
                self.quant.bind(node)
            }
        }
        let plans = PlanSet::new();
        for target in model.graph.nodes_of_class(OpClass::BatchNorm) {
            let mut hook = EveryBn {
                quant: model.hook(),
                acc: HashMap::new(),
            };
            for inputs in calib {
                plans.run(&model.graph, inputs, &mut hook).unwrap_ok();
            }
            let (sum, sq, count) = &hook.acc[&target];
            let m: Vec<f32> = sum.iter().map(|&s| (s / count) as f32).collect();
            let v: Vec<f32> = m
                .iter()
                .zip(sq)
                .map(|(&mi, &s)| ((s / count) - (mi as f64) * (mi as f64)).max(1e-8) as f32)
                .collect();
            let Op::BatchNorm { mean, var, .. } = model.graph.nodes()[target].op else {
                unreachable!("nodes_of_class returned a non-BatchNorm node");
            };
            model
                .graph
                .set_param(mean, Tensor::from_slice(&m))
                .unwrap_ok();
            model
                .graph
                .set_param(var, Tensor::from_slice(&v))
                .unwrap_ok();
        }
    }

    #[test]
    fn prefix_recalibration_is_bit_identical_to_the_full_graph_oracle() {
        use crate::config::{ActivationStorage, Coverage};
        let calib_x: Vec<Vec<Tensor>> = (0..3)
            .map(|i| vec![TensorRng::seed(40 + i).normal(&[4, 3, 8, 8], 0.0, 1.0)])
            .collect();
        let g = residual_bn_cnn(5);
        let mut hook = CalibrationHook::new();
        for c in &calib_x {
            g.run(c, &mut hook).unwrap_ok();
        }
        let calib = hook.into_data();
        for coverage in [Coverage::Standard, Coverage::Extended] {
            for storage in [ActivationStorage::Fp8, ActivationStorage::FakeQuantF32] {
                let cfg = QuantConfig::fp8(Fp8Format::E4M3)
                    .with_coverage(coverage)
                    .with_activation_storage(storage);
                let mut model = QuantizedModel::build(g.clone(), &calib, cfg).unwrap_ok();
                let mut oracle = model.clone();
                assert_eq!(recalibrate_batchnorm(&mut model, &calib_x).unwrap_ok(), 4);
                recalibrate_on_the_full_graph(&mut oracle, &calib_x);
                assert!(model.plans.is_empty(), "no calibration-shape plan is kept");
                for id in model.graph.nodes_of_class(OpClass::BatchNorm) {
                    let (a, b) = (
                        model.graph.batchnorm_params(id).unwrap_ok(),
                        oracle.graph.batchnorm_params(id).unwrap_ok(),
                    );
                    assert_ne!(a.mean.data()[0], 0.5, "BN {id} was not recalibrated");
                    for (x, y) in [(&a.mean, &b.mean), (&a.var, &b.var)] {
                        let bits =
                            |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(x), bits(y), "{coverage:?}/{storage:?}: BN {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn recalibration_matches_observed_moments() {
        let g = bn_cnn(1);
        let calib_x: Vec<Vec<Tensor>> = (0..4)
            .map(|i| vec![TensorRng::seed(10 + i).normal(&[8, 3, 8, 8], 0.0, 1.0)])
            .collect();
        let mut hook = CalibrationHook::new();
        for c in &calib_x {
            g.run(c, &mut hook).unwrap_ok();
        }
        let calib = hook.into_data();
        let mut model =
            QuantizedModel::build(g, &calib, QuantConfig::fp8(Fp8Format::E4M3)).unwrap_ok();
        let n = recalibrate_batchnorm(&mut model, &calib_x).unwrap_ok();
        assert_eq!(n, 1);

        // After recalibration the BN node's input moments under the
        // quantized model must match the stored running stats.
        let bn_id = model.graph.nodes_of_class(OpClass::BatchNorm)[0];
        let params = model.graph.batchnorm_params(bn_id).unwrap_ok();
        // Re-measure.
        let mut hook2 = BnMomentHook {
            quant: model.hook(),
            acc: HashMap::new(),
        };
        for c in &calib_x {
            model.graph.run(c, &mut hook2).unwrap_ok();
        }
        let (sum, sq, count) = &hook2.acc[&bn_id];
        for ci in 0..4 {
            let m = (sum[ci] / count) as f32;
            let v = ((sq[ci] / count) - (m as f64) * (m as f64)) as f32;
            assert!((params.mean.data()[ci] - m).abs() < 1e-4);
            assert!((params.var.data()[ci] - v).abs() < 1e-3);
        }
    }

    #[test]
    fn recalibration_is_identical_under_coded_and_fakequant_activations() {
        // The measurement hook forwards `bind` to the inner quant hook,
        // so the moments are gathered under exactly the inference the
        // eval pass runs. Regression guard: with the forward missing,
        // `ActivationStorage::Fp8` left coded inputs un-quantized during
        // measurement and the recalibrated statistics drifted.
        let calib_x: Vec<Vec<Tensor>> = (0..4)
            .map(|i| vec![TensorRng::seed(30 + i).normal(&[8, 3, 8, 8], 0.0, 1.0)])
            .collect();
        let mut recalibrated = Vec::new();
        for storage in [
            crate::config::ActivationStorage::Fp8,
            crate::config::ActivationStorage::FakeQuantF32,
        ] {
            let g = bn_cnn(3);
            let mut hook = CalibrationHook::new();
            for c in &calib_x {
                g.run(c, &mut hook).unwrap_ok();
            }
            let calib = hook.into_data();
            let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_activation_storage(storage);
            let mut model = QuantizedModel::build(g, &calib, cfg).unwrap_ok();
            assert_eq!(recalibrate_batchnorm(&mut model, &calib_x).unwrap_ok(), 1);
            let bn_id = model.graph.nodes_of_class(OpClass::BatchNorm)[0];
            let params = model.graph.batchnorm_params(bn_id).unwrap_ok();
            recalibrated.push((params.mean.clone(), params.var.clone()));
        }
        let (coded, legacy) = (&recalibrated[0], &recalibrated[1]);
        for (a, b) in coded.0.data().iter().zip(legacy.0.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "recalibrated mean drifted");
        }
        for (a, b) in coded.1.data().iter().zip(legacy.1.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "recalibrated var drifted");
        }
    }

    #[test]
    fn recalibration_improves_agreement_with_true_stats() {
        // The graph ships with stale running stats; recalibration brings
        // the BN output distribution back toward unit scale.
        let g = bn_cnn(2);
        let calib_x: Vec<Vec<Tensor>> = (0..4)
            .map(|i| vec![TensorRng::seed(20 + i).normal(&[8, 3, 8, 8], 0.0, 1.0)])
            .collect();
        let mut hook = CalibrationHook::new();
        for c in &calib_x {
            g.run(c, &mut hook).unwrap_ok();
        }
        let calib = hook.into_data();
        let mut model =
            QuantizedModel::build(g.clone(), &calib, QuantConfig::fp8(Fp8Format::E4M3)).unwrap_ok();

        let probe = TensorRng::seed(99).normal(&[8, 3, 8, 8], 0.0, 1.0);
        let bn_id = model.graph.nodes_of_class(OpClass::BatchNorm)[0];

        // Variance of the BN output before and after recalibration.
        struct BnOutVar {
            id: usize,
            var: f32,
        }
        impl ExecHook for BnOutVar {
            fn after_node(&mut self, node: &Node, out: &Tensor) {
                if node.id == self.id {
                    let mean = out.mean();
                    self.var = out.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>()
                        / out.len() as f32;
                }
            }
        }
        let mut before = BnOutVar {
            id: bn_id,
            var: 0.0,
        };
        model
            .graph
            .run(std::slice::from_ref(&probe), &mut before)
            .unwrap_ok();
        recalibrate_batchnorm(&mut model, &calib_x).unwrap_ok();
        let mut after = BnOutVar {
            id: bn_id,
            var: 0.0,
        };
        model.graph.run(&[probe], &mut after).unwrap_ok();
        // Stale var=3.0 understates the scale; recalibrated output variance
        // should be closer to gamma^2 ~ 1.
        assert!(
            (after.var - 1.0).abs() < (before.var - 1.0).abs(),
            "before {} after {}",
            before.var,
            after.var
        );
    }
}
