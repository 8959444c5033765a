//! SmoothQuant (Xiao et al. 2022): migrate activation-outlier magnitude
//! into weights via a per-channel rescaling that leaves the FP32 product
//! unchanged.
//!
//! For a Linear layer `y = x Wᵀ`, pick per-input-channel scales
//! `s_j = max|x_j|^α / max|W_{·j}|^{1−α}` and rewrite
//! `y = (x / s)(W ⊙ s)ᵀ`. With α = 0.5 (the paper's default) the outlier
//! magnitude is split evenly between the two tensors, flattening the
//! activation distribution that per-tensor INT8 struggles with (§4.2.1).

use crate::calibrate::CalibData;
use ptq_nn::{Graph, NodeId, OpClass, Param};
use std::collections::{BTreeSet, HashMap};

/// Compute SmoothQuant scales for every quantized Linear node with
/// calibrated channel statistics. Returns per-node per-input-channel
/// scale vectors `s` (activations are divided by `s`, weight columns
/// multiplied).
///
/// Channels where either statistic is ~0 get scale 1 (no migration).
pub fn smooth_scales(
    graph: &Graph,
    calib: &CalibData,
    quantized: &BTreeSet<NodeId>,
    alpha: f32,
) -> HashMap<NodeId, Vec<f32>> {
    let mut out = HashMap::new();
    for &id in quantized {
        let node = &graph.nodes()[id];
        if node.op.class() != OpClass::Linear {
            continue;
        }
        let Some(act_absmax) = calib.channel_absmax.get(&id) else {
            continue;
        };
        let Some(wid) = node.op.weight_value() else {
            continue;
        };
        let Some(w) = graph.param(wid).and_then(Param::as_f32) else {
            continue;
        };
        let (rows, cols) = (w.dim(0), w.dim(1));
        if cols != act_absmax.len() {
            continue;
        }
        // Per-input-channel weight absmax (column-wise).
        let mut w_absmax = vec![0.0f32; cols];
        let data = w.data();
        for r in 0..rows {
            for (j, wm) in w_absmax.iter_mut().enumerate() {
                *wm = wm.max(data[r * cols + j].abs());
            }
        }
        let s: Vec<f32> = act_absmax
            .iter()
            .zip(&w_absmax)
            .map(|(&a, &wm)| {
                if a > 1e-12 && wm > 1e-12 {
                    (a.powf(alpha) / wm.powf(1.0 - alpha)).max(1e-6)
                } else {
                    1.0
                }
            })
            .collect();
        out.insert(id, s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationHook;
    use crate::config::QuantConfig;
    use crate::quantizer::{select_nodes, QuantizedModel};
    use ptq_fp8::Fp8Format;
    use ptq_nn::{GraphBuilder, UnwrapOk};
    use ptq_tensor::{Tensor, TensorRng};

    /// A Linear layer fed activations with one huge channel.
    fn outlier_linear() -> (Graph, Tensor) {
        let mut rng = TensorRng::seed(1);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.normal(&[6, 8], 0.0, 0.5));
        let y = b.linear(x, w, None);
        let g = b.finish(vec![y]);
        let mut x = TensorRng::seed(2).normal(&[32, 8], 0.0, 1.0);
        // Channel 3 carries 100x outliers.
        for r in 0..32 {
            *x.at_mut(&[r, 3]) *= 100.0;
        }
        (g, x)
    }

    fn calib_for(g: &Graph, x: &Tensor) -> CalibData {
        let mut hook = CalibrationHook::new();
        g.run(std::slice::from_ref(x), &mut hook).unwrap_ok();
        hook.into_data()
    }

    #[test]
    fn scales_target_outlier_channels() {
        let (g, x) = outlier_linear();
        let calib = calib_for(&g, &x);
        let nodes = select_nodes(&g, &QuantConfig::fp8(Fp8Format::E4M3));
        let s = smooth_scales(&g, &calib, &nodes, 0.5);
        let sv = &s[&0];
        let mean_other: f32 = sv
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != 3)
            .map(|(_, &v)| v)
            .sum::<f32>()
            / 7.0;
        assert!(
            sv[3] > 5.0 * mean_other,
            "outlier channel scale {} vs mean {}",
            sv[3],
            mean_other
        );
    }

    #[test]
    fn transform_preserves_fp32_product() {
        // With scales folded into weights and divided out of activations,
        // the (unquantized) product is unchanged. We verify by building a
        // "quantized" model whose formats are effectively transparent for
        // the tiny values involved... instead, verify algebraically.
        let (g, x) = outlier_linear();
        let calib = calib_for(&g, &x);
        let nodes = select_nodes(&g, &QuantConfig::fp8(Fp8Format::E4M3));
        let s = smooth_scales(&g, &calib, &nodes, 0.5);
        let sv = &s[&0];
        let w = g.param(g.nodes()[0].op.weight_value().unwrap());
        let w = w.and_then(ptq_nn::Param::as_f32).unwrap();
        // x' = x / s, W' = W * s  =>  x' W'^T == x W^T.
        let mut xs = x.clone();
        #[allow(clippy::needless_range_loop)]
        for r in 0..xs.dim(0) {
            for j in 0..xs.dim(1) {
                *xs.at_mut(&[r, j]) /= sv[j];
            }
        }
        let mut ws = w.clone();
        #[allow(clippy::needless_range_loop)]
        for r in 0..ws.dim(0) {
            for j in 0..ws.dim(1) {
                *ws.at_mut(&[r, j]) *= sv[j];
            }
        }
        let y1 = ptq_tensor::ops::linear(&x, w, None);
        let y2 = ptq_tensor::ops::linear(&xs, &ws, None);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() <= 1e-3 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn smoothquant_rescues_int8_on_outlier_activations() {
        // The §4.2.1 effect in miniature: per-tensor INT8 on an activation
        // with a 100x channel is catastrophic; α=0.5 smoothing recovers
        // most of the accuracy.
        let (g, x) = outlier_linear();
        let calib = calib_for(&g, &x);
        let fp32 = g.infer(std::slice::from_ref(&x)).unwrap_ok();

        let plain = QuantizedModel::build(g.clone(), &calib, QuantConfig::int8()).unwrap_ok();
        let yq = plain
            .graph
            .run(std::slice::from_ref(&x), &mut plain.hook())
            .unwrap_ok();
        let mse_plain = ptq_tensor::stats::mse(fp32[0].data(), yq[0].data());

        let smoothed =
            QuantizedModel::build(g.clone(), &calib, QuantConfig::int8().with_smoothquant(0.5))
                .unwrap_ok();
        let ys = smoothed
            .graph
            .run(std::slice::from_ref(&x), &mut smoothed.hook())
            .unwrap_ok();
        let mse_smooth = ptq_tensor::stats::mse(fp32[0].data(), ys[0].data());

        assert!(
            mse_smooth < mse_plain * 0.5,
            "smooth {mse_smooth} vs plain {mse_plain}"
        );
    }

    #[test]
    fn alpha_zero_and_one_are_extremes() {
        let (g, x) = outlier_linear();
        let calib = calib_for(&g, &x);
        let nodes = select_nodes(&g, &QuantConfig::fp8(Fp8Format::E4M3));
        // α=1: scales equal the activation absmax (full migration).
        let s1 = smooth_scales(&g, &calib, &nodes, 1.0);
        let ch = &calib.channel_absmax[&0];
        for (a, b) in s1[&0].iter().zip(ch) {
            assert!((a - b).abs() < 1e-4 * b.max(1.0));
        }
        // α=0: scales equal 1/weight-absmax (no activation migration).
        let s0 = smooth_scales(&g, &calib, &nodes, 0.0);
        for &v in &s0[&0] {
            assert!(v > 0.0);
        }
    }
}
