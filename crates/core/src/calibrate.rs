//! Calibration: observing activation statistics through the graph hook.
//!
//! Calibration runs the FP32 model over the calibration set with a
//! [`CalibrationHook`] installed, which records per-(node, input) running
//! statistics. A second pass (only for histogram-based calibrators)
//! collects |x| histograms and value samples bounded by the first pass's
//! absmax. The result, [`CalibData`], is everything the quantizer needs to
//! freeze static scales.

use crate::config::{CalibMethod, QuantConfig};
use crate::observer::{kl_divergence_threshold, mse_sweep_threshold, percentile_threshold};
use ptq_nn::{ExecHook, Node, NodeId, OpClass};
use ptq_tensor::{Histogram, Tensor, TensorStats};
use std::collections::HashMap;

/// Identifies one activation input of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorKey {
    /// The consuming node.
    pub node: NodeId,
    /// Which of the node's activation inputs.
    pub input: usize,
}

/// Calibration results: per-key statistics, optional histograms/samples,
/// and per-input-channel absmax for the SmoothQuant transform.
#[derive(Debug, Clone, Default)]
pub struct CalibData {
    /// Running min/max/absmax per activation input.
    pub stats: HashMap<TensorKey, TensorStats>,
    /// |x| histograms (second pass; histogram calibrators only).
    pub hists: HashMap<TensorKey, Histogram>,
    /// Reservoir value samples (second pass; MSE sweep only).
    pub samples: HashMap<TensorKey, Vec<f32>>,
    /// Per-input-channel (last-dim) absmax of Linear inputs, for
    /// SmoothQuant.
    pub channel_absmax: HashMap<NodeId, Vec<f32>>,
}

impl CalibData {
    /// The calibrated clip threshold (`max_T` in the paper's scale rule)
    /// for one activation input under the configured method.
    ///
    /// Returns `None` if the key was never observed.
    pub fn threshold(&self, key: TensorKey, cfg: &QuantConfig) -> Option<f32> {
        let stats = self.stats.get(&key)?;
        if !stats.is_calibrated() {
            return None;
        }
        let absmax = stats.absmax;
        let t = match cfg.calibration {
            CalibMethod::AbsMax => absmax,
            CalibMethod::Percentile(q) => self
                .hists
                .get(&key)
                .map(|h| percentile_threshold(h, q))
                .unwrap_or(absmax),
            CalibMethod::Kl => self
                .hists
                .get(&key)
                .map(|h| kl_divergence_threshold(h, 128))
                .unwrap_or(absmax),
            CalibMethod::MseSweep => self
                .samples
                .get(&key)
                .map(|s| mse_sweep_threshold(s, absmax, cfg.act_format))
                .unwrap_or(absmax),
        };
        let chosen = if t > 0.0 { t } else { absmax.max(1e-12) };
        if ptq_trace::enabled(ptq_trace::Level::Debug) {
            ptq_trace::gauge(
                ptq_trace::Level::Debug,
                "calib.threshold",
                f64::from(chosen),
                &[
                    ("node", (key.node as i64).into()),
                    ("input", (key.input as i64).into()),
                    ("method", format!("{:?}", cfg.calibration).into()),
                    ("absmax", f64::from(absmax).into()),
                ],
            );
        }
        Some(chosen)
    }

    /// True if a second (histogram) calibration pass is required.
    pub fn needs_histograms(cfg: &QuantConfig) -> bool {
        !matches!(cfg.calibration, CalibMethod::AbsMax)
    }
}

/// Which activation inputs of a node are quantized (and therefore need
/// calibration). Embedding consumes token *ids*, which are never
/// quantized; Conv/Linear quantize their single data input; the
/// extended-scheme ops quantize all activation inputs.
pub fn quantized_inputs(node: &Node) -> &'static [usize] {
    match node.op.class() {
        OpClass::Conv2d | OpClass::Linear | OpClass::BatchNorm | OpClass::LayerNorm => &[0],
        OpClass::Embedding => &[],
        OpClass::MatMul | OpClass::BatchMatMul | OpClass::Mul => &[0, 1],
        // Add may be unary (AddParam) or binary.
        OpClass::Add => &[0, 1],
        OpClass::Other => &[],
    }
}

/// The key and operand of each quantized input `node` has.
fn observed<'a, 't>(
    node: &'a Node,
    inputs: &'a [&'t Tensor],
) -> impl Iterator<Item = (TensorKey, &'t Tensor)> + 'a {
    let present = quantized_inputs(node).iter().filter(|&&i| i < inputs.len());
    present.map(move |&input| {
        (
            TensorKey {
                node: node.id,
                input,
            },
            inputs[input],
        )
    })
}

/// Pass-1 calibration hook: running stats + SmoothQuant channel absmax.
#[derive(Debug, Default)]
pub struct CalibrationHook {
    /// Accumulated data (take with [`CalibrationHook::into_data`]).
    pub data: CalibData,
}

impl CalibrationHook {
    /// Fresh hook.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extract the accumulated calibration data.
    pub fn into_data(self) -> CalibData {
        self.data
    }
}

impl ExecHook for CalibrationHook {
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        for (key, x) in observed(node, inputs) {
            self.data.stats.entry(key).or_default().update(x.data());
        }
        // SmoothQuant needs per-input-channel absmax for Linear nodes.
        if node.op.class() == OpClass::Linear {
            let x = inputs[0];
            if let Some(&d) = x.shape().last() {
                let absmax = &mut self.data.channel_absmax;
                let entry = absmax.entry(node.id).or_insert_with(|| vec![0.0; d]);
                if entry.len() == d {
                    for row in x.data().chunks_exact(d.max(1)) {
                        for (e, v) in entry.iter_mut().zip(row) {
                            *e = e.max(v.abs());
                        }
                    }
                }
            }
        }
    }
}

/// Pass-2 hook: histograms bounded by pass-1 absmax, plus value samples
/// for the MSE sweep.
#[derive(Debug)]
pub struct HistogramHook<'a> {
    base: &'a mut CalibData,
    bins: usize,
    sample_cap: usize,
}

impl<'a> HistogramHook<'a> {
    /// Attach a histogram pass to pass-1 data.
    pub fn new(base: &'a mut CalibData) -> Self {
        HistogramHook {
            base,
            bins: 2048,
            sample_cap: 4096,
        }
    }
}

impl ExecHook for HistogramHook<'_> {
    fn before_node(&mut self, node: &Node, inputs: &[&Tensor]) {
        for (key, x) in observed(node, inputs) {
            let Some(stats) = self.base.stats.get(&key) else {
                continue;
            };
            if !stats.is_calibrated() || stats.absmax <= 0.0 {
                continue;
            }
            let (bins, bound) = (self.bins, stats.absmax);
            let h = self.base.hists.entry(key);
            h.or_insert_with(|| Histogram::new(bins, bound))
                .update_abs(x.data());
            let sample = self.base.samples.entry(key).or_default();
            if sample.len() < self.sample_cap {
                let room = self.sample_cap - sample.len();
                let stride = (x.len() / room.max(1)).max(1);
                sample.extend(x.data().iter().step_by(stride).take(room).copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantConfig;
    use ptq_fp8::Fp8Format;
    use ptq_nn::{GraphBuilder, UnwrapOk};
    use ptq_tensor::TensorRng;

    fn linear_graph() -> ptq_nn::Graph {
        let mut rng = TensorRng::seed(1);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[4, 8]));
        let y = b.linear(x, w, None);
        let w2 = b.param(rng.kaiming(&[2, 4]));
        let z = b.linear(y, w2, None);
        b.finish(vec![z])
    }

    #[test]
    fn calibration_observes_linear_inputs() {
        let g = linear_graph();
        let mut hook = CalibrationHook::new();
        let x = TensorRng::seed(2).normal(&[16, 8], 0.0, 1.0);
        g.run(&[x], &mut hook).unwrap_ok();
        let data = hook.into_data();
        let k0 = TensorKey { node: 0, input: 0 };
        let k1 = TensorKey { node: 1, input: 0 };
        assert!(data.stats[&k0].is_calibrated());
        assert!(data.stats[&k1].is_calibrated());
        assert_eq!(data.channel_absmax[&0].len(), 8);
        assert_eq!(data.channel_absmax[&1].len(), 4);
    }

    #[test]
    fn absmax_threshold_matches_stats() {
        let g = linear_graph();
        let mut hook = CalibrationHook::new();
        let x = TensorRng::seed(3).normal(&[16, 8], 0.0, 1.0);
        g.run(std::slice::from_ref(&x), &mut hook).unwrap_ok();
        let data = hook.into_data();
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let k0 = TensorKey { node: 0, input: 0 };
        let absmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert_eq!(data.threshold(k0, &cfg), Some(absmax));
        // Unobserved key -> None.
        assert_eq!(data.threshold(TensorKey { node: 99, input: 0 }, &cfg), None);
    }

    #[test]
    fn histogram_pass_fills_hists_and_samples() {
        let g = linear_graph();
        let mut hook = CalibrationHook::new();
        let x = TensorRng::seed(4).normal(&[32, 8], 0.0, 1.0);
        g.run(std::slice::from_ref(&x), &mut hook).unwrap_ok();
        let mut data = hook.into_data();
        {
            let mut h2 = HistogramHook::new(&mut data);
            g.run(&[x], &mut h2).unwrap_ok();
        }
        let k0 = TensorKey { node: 0, input: 0 };
        assert!(data.hists[&k0].total() > 0);
        assert!(!data.samples[&k0].is_empty());
        // Percentile threshold is at most absmax.
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(0.99));
        let t = data.threshold(k0, &cfg).unwrap();
        assert!(t <= data.stats[&k0].absmax);
    }

    #[test]
    fn quantized_inputs_per_class() {
        // Embedding ids are never calibrated/quantized.
        let mut b = GraphBuilder::new();
        let ids = b.input();
        let table = b.param(Tensor::from_vec(vec![0.0; 8], &[4, 2]));
        let e = b.embedding(ids, table);
        let g = b.finish(vec![e]);
        assert_eq!(quantized_inputs(&g.nodes()[0]), &[] as &[usize]);
    }
}
