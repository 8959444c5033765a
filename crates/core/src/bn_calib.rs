//! BatchNorm calibration (§3, Figure 7): re-estimate BN running
//! statistics under the *quantized* network to compensate for the variance
//! shift quantization introduces (Sun et al. 2019).

use crate::quantizer::QuantizedModel;
use ptq_nn::{reestimate_batchnorm, PtqError};
use ptq_tensor::Tensor;

/// Run `calib` batches through the quantized model, measure each
/// BatchNorm's input moments under exactly the inference the eval pass
/// runs, and overwrite its running mean/var: [`reestimate_batchnorm`]
/// under the model's hook, variance floor 1e-8. `model.plans` is left as
/// it was. Returns the number of BatchNorm nodes recalibrated.
pub fn recalibrate_batchnorm(
    model: &mut QuantizedModel,
    calib: &[Vec<Tensor>],
) -> Result<usize, PtqError> {
    let stats = reestimate_batchnorm(&model.graph, calib, &mut model.hook(), 1e-8)?;
    let updated = stats.len() / 2;
    for (id, t) in stats {
        model.graph.set_param(id, t)?;
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
    use ptq_nn::{
        Binding, ExecHook, Graph, GraphBuilder, Node, NodeId, NoopHook, Op, OpClass, PlanSet,
        UnwrapOk, ValueId,
    };
    use ptq_tensor::ops::{BatchNormParams, Conv2dParams};
    use ptq_tensor::TensorRng;

    /// The BatchNorm parameters node `id` of `g` binds.
    fn bn_params(g: &Graph, id: NodeId) -> BatchNormParams {
        let node = &g.nodes()[id];
        let Op::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } = node.op
        else {
            panic!("node {id} is not BatchNorm");
        };
        let get = |v| g.f32_param(node, v).unwrap_ok().clone();
        BatchNormParams {
            gamma: get(gamma),
            beta: get(beta),
            mean: get(mean),
            var: get(var),
            eps,
        }
    }

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

    /// The original algorithm, as the oracle of both callers: per BN in
    /// execution order, the full graph over every batch under `hook`, the
    /// BN's input moments taken from `before_node`, its new statistics
    /// bound before the next BN is measured. Returns them as
    /// [`reestimate_batchnorm`] does.
    fn full_graph_oracle(
        graph: &Graph,
        batches: &[Vec<Tensor>],
        hook: &mut dyn ExecHook,
        var_floor: f64,
    ) -> Vec<(ValueId, Tensor)> {
        struct Target<'h> {
            inner: &'h mut dyn ExecHook,
            id: NodeId,
            acc: (Vec<f64>, Vec<f64>, f64),
        }
        impl ExecHook for Target<'_> {
            fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
                self.inner.before_node(node, inputs);
                if node.id != self.id {
                    return;
                }
                let x = inputs[0];
                let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
                let (sum, sq, count) = &mut self.acc;
                sum.resize(c, 0.0);
                sq.resize(c, 0.0);
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * hw;
                        for &v in &x.data()[base..base + hw] {
                            sum[ci] += v as f64;
                            sq[ci] += (v as f64) * (v as f64);
                        }
                    }
                }
                *count += (n * hw) as f64;
            }
            fn after_node(&mut self, node: &Node, output: &Tensor) {
                self.inner.after_node(node, output);
            }
            fn bind(&self, node: &Node) -> Binding<'_> {
                self.inner.bind(node)
            }
        }
        let mut graph = graph.clone();
        let (plans, mut stats) = (PlanSet::new(), Vec::new());
        for target in graph.nodes_of_class(OpClass::BatchNorm) {
            let mut hook = Target {
                inner: &mut *hook,
                id: target,
                acc: Default::default(),
            };
            for inputs in batches {
                plans.run(&graph, inputs, &mut hook).unwrap_ok();
            }
            let (sum, sq, count) = hook.acc;
            let m: Vec<f32> = sum.iter().map(|&s| (s / count) as f32).collect();
            let v: Vec<f32> = m
                .iter()
                .zip(sq)
                .map(|(&mi, s)| ((s / count) - (mi as f64) * (mi as f64)).max(var_floor) as f32)
                .collect();
            let Op::BatchNorm { mean, var, .. } = graph.nodes()[target].op else {
                unreachable!("nodes_of_class returned a non-BatchNorm node");
            };
            for (id, t) in [(mean, m), (var, v)] {
                graph.set_param(id, Tensor::from_slice(&t)).unwrap_ok();
                stats.push((id, Tensor::from_slice(&t)));
            }
        }
        stats
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `stats` and the oracle's agree bit for bit, every BN's included.
    fn assert_bit_equal(stats: &[(ValueId, Tensor)], oracle: &[(ValueId, Tensor)], what: &str) {
        assert_eq!(stats.len(), oracle.len(), "{what}: BN count");
        for ((a, x), (b, y)) in stats.iter().zip(oracle) {
            assert_eq!((a, bits(x)), (b, bits(y)), "{what}: parameter {a}");
        }
    }

    /// A stale-statistics BatchNorm over `c` channels.
    fn stale_bn(b: &mut GraphBuilder, x: ptq_nn::ValueId, c: usize, seed: u64) -> ptq_nn::ValueId {
        let gamma = b.param(TensorRng::seed(seed).uniform(&[c], 0.8, 1.2));
        let beta = b.param(TensorRng::seed(seed + 8).uniform(&[c], -0.1, 0.1));
        let mean = b.param(Tensor::full(&[c], 0.5));
        let var = b.param(Tensor::full(&[c], 2.5));
        b.batchnorm(x, gamma, beta, mean, var, 1e-5)
    }

    /// BN is node 0, on the graph input, and the input is read again by
    /// an `Add` after BN 1: the sweep carries a graph input past BN 0.
    fn bn_first_cnn(seed: u64) -> ptq_nn::Graph {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let bn0 = stale_bn(&mut b, x, 3, seed ^ 1);
        let w0 = b.param(rng.kaiming(&[3, 3, 3, 3]));
        let c0 = b.conv2d(bn0, w0, None, Conv2dParams::same(3));
        let w1 = b.param(rng.kaiming(&[3, 3, 3, 3]));
        let c1 = b.conv2d(c0, w1, None, Conv2dParams::same(3));
        let bn1 = stale_bn(&mut b, c1, 3, seed ^ 2);
        let sum = b.add(x, bn1);
        let r = b.relu(sum);
        let g = b.global_avg_pool(r);
        let wl = b.param(rng.kaiming(&[4, 3]));
        let out = b.linear(g, wl, None);
        b.finish(vec![out])
    }

    /// Two BNs back to back (one segment is the pair alone), the second
    /// pair's input also read by the residual `Add` after them.
    fn bn_pair_cnn(seed: u64) -> ptq_nn::Graph {
        let mut rng = TensorRng::seed(seed);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w0 = b.param(rng.kaiming(&[5, 3, 3, 3]));
        let c0 = b.conv2d(x, w0, None, Conv2dParams::same(3));
        let bn0 = stale_bn(&mut b, c0, 5, seed ^ 1);
        let bn1 = stale_bn(&mut b, bn0, 5, seed ^ 2);
        let r0 = b.relu(bn1);
        let w1 = b.param(rng.kaiming(&[5, 5, 3, 3]));
        let c1 = b.conv2d(r0, w1, None, Conv2dParams::same(3));
        let bn2 = stale_bn(&mut b, c1, 5, seed ^ 3);
        let bn3 = stale_bn(&mut b, bn2, 5, seed ^ 4);
        let sum = b.add(c1, bn3);
        let r1 = b.relu(sum);
        let g = b.global_avg_pool(r1);
        let wl = b.param(rng.kaiming(&[4, 5]));
        let out = b.linear(g, wl, None);
        b.finish(vec![out])
    }

    /// Recalibrate `model` and assert every BatchNorm's statistics equal
    /// the oracle's under the model's hook bit for bit (and moved).
    fn assert_sweep_matches_oracle(mut model: QuantizedModel, calib: &[Vec<Tensor>], what: &str) {
        let stale = model.graph.clone();
        let oracle = full_graph_oracle(&model.graph, calib, &mut model.hook(), 1e-8);
        let bns = model.graph.nodes_of_class(OpClass::BatchNorm);
        assert_eq!(
            recalibrate_batchnorm(&mut model, calib).unwrap_ok(),
            bns.len()
        );
        assert!(model.plans.is_empty(), "no calibration-shape plan is kept");
        let bound = |g: &Graph, id| g.param(id).and_then(|p| p.as_f32()).unwrap().clone();
        let stats: Vec<_> = oracle
            .iter()
            .map(|&(id, _)| (id, bound(&model.graph, id)))
            .collect();
        assert_bit_equal(&stats, &oracle, what);
        for (id, t) in &stats {
            assert_ne!(
                bits(t),
                bits(&bound(&stale, *id)),
                "{what}: {id} not recalibrated"
            );
        }
    }

    #[test]
    fn sweep_recalibration_is_bit_identical_to_the_full_graph_oracle() {
        use crate::config::{ActivationStorage, Coverage};
        let calib_x: Vec<Vec<Tensor>> = (0..3)
            .map(|i| vec![TensorRng::seed(40 + i).normal(&[4, 3, 8, 8], 0.0, 1.0)])
            .collect();
        for (name, g) in [
            ("residual", residual_bn_cnn(5)),
            ("bn_first", bn_first_cnn(6)),
            ("bn_pair", bn_pair_cnn(7)),
        ] {
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
                    let model = QuantizedModel::build(g.clone(), &calib, cfg).unwrap_ok();
                    let what = format!("{name} {coverage:?}/{storage:?}");
                    assert_sweep_matches_oracle(model, &calib_x, &what);
                }
            }
        }
    }

    #[test]
    fn sweep_recalibration_matches_the_oracle_on_the_quick_zoo_cnns() {
        use crate::config::{Approach, DataFormat};
        use crate::workflow::{calibrate_workload, paper_recipe};
        use ptq_models::{build_zoo_limited, ZooFilter};
        let zoo = build_zoo_limited(ZooFilter::Quick, 3);
        let families = ["resnet_like", "mobilenet_like"];
        let cnns: Vec<_> = zoo
            .iter()
            .filter(|w| families.contains(&&*w.spec.family))
            .collect();
        assert_eq!(cnns.len(), 2, "resnet_like and mobilenet_like (depthwise)");
        for w in cnns {
            let format = DataFormat::Fp8(Fp8Format::E4M3);
            let cfg = paper_recipe(format, Approach::Static, w.spec.domain);
            let calib = calibrate_workload(w, &cfg).unwrap_ok();
            let model = QuantizedModel::build(w.graph.clone(), &calib, cfg).unwrap_ok();
            assert_sweep_matches_oracle(model, &w.calib, &w.spec.name);
        }
    }

    #[test]
    fn fp32_reestimation_matches_the_oracle_on_the_quick_zoo_cnns() {
        use ptq_models::{build_zoo_limited, ZooFilter};
        let zoo = build_zoo_limited(ZooFilter::Quick, 3);
        let cnns: Vec<_> = zoo.iter().filter(|w| w.has_batchnorm()).collect();
        assert_eq!(cnns.len(), 2, "resnet_like and mobilenet_like (depthwise)");
        for w in cnns {
            // The zoo's FP32 initialization, from stale statistics.
            let mut g = w.graph.clone();
            for id in g.nodes_of_class(OpClass::BatchNorm) {
                let Op::BatchNorm { mean, var, .. } = g.nodes()[id].op else {
                    unreachable!("nodes_of_class returned a non-BatchNorm node");
                };
                let c = g.param(mean).unwrap().shape()[0];
                g.set_param(mean, Tensor::full(&[c], 0.5)).unwrap_ok();
                g.set_param(var, Tensor::full(&[c], 2.5)).unwrap_ok();
            }
            let stats = reestimate_batchnorm(&g, &w.calib, &mut NoopHook, 1e-6).unwrap_ok();
            let oracle = full_graph_oracle(&g, &w.calib, &mut NoopHook, 1e-6);
            assert_bit_equal(&stats, &oracle, &w.spec.name);
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
        let params = bn_params(&model.graph, bn_id);
        // Re-measure.
        let remeasured = full_graph_oracle(&model.graph, &calib_x, &mut model.hook(), 0.0);
        let (m, v) = (remeasured[0].1.data(), remeasured[1].1.data());
        for ci in 0..4 {
            assert!((params.mean.data()[ci] - m[ci]).abs() < 1e-4);
            assert!((params.var.data()[ci] - v[ci]).abs() < 1e-3);
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
            let params = bn_params(&model.graph, bn_id);
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
