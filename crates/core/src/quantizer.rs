//! The quantizer: weight quantization in place, static/dynamic activation
//! fake-quantization and the execution hook implementing the paper's
//! quantization schemes over the quantized graph.

use crate::calibrate::{quantized_inputs, CalibData, TensorKey};
use crate::config::{ActGranularity, Approach, DataFormat, Granularity, QuantConfig};
use crate::smoothquant::smooth_scales;
use ptq_fp8::{
    absmax_nan_aware, fake_quant_fp8, fake_quant_fp8_per_channel, fake_quant_int8,
    fake_quant_int8_per_channel, fp8_scale, Fp8Codec, Int8Codec, Int8Mode,
};
use ptq_nn::{
    ActBinding, Binding, ExecHook, Graph, Node, NodeId, Op, OpClass, Param, PlanSet, PtqError,
    Shape, ValueId,
};
use ptq_tensor::{ActScale, KvCachePolicy, QTensor, Tensor};
use std::collections::{BTreeSet, HashMap};

/// A quantized model: the quantized (and possibly BN-recalibrated) graph
/// plus everything needed to execute it under fake quantization.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    /// The graph (owned clone). Each quantized node's weight is stored here
    /// in its quantized form, in place of the f32 tensor: FP8 codes for
    /// Conv2d/Linear weights under [`QuantConfig::stores_fp8_weights`],
    /// fake-quantized f32 otherwise (INT8 recipes, embedding tables,
    /// [`crate::WeightStorage::FakeQuantF32`]). BatchNorm calibration may
    /// rewrite its running-stat parameters.
    pub graph: Graph,
    /// The recipe this model was quantized with.
    pub config: QuantConfig,
    /// Nodes executing in low precision.
    pub quantized_nodes: BTreeSet<NodeId>,
    /// Static FP8 activation scales per (node, input).
    pub act_scales: HashMap<TensorKey, f32>,
    /// Static INT8 activation codecs per (node, input).
    pub act_int8: HashMap<TensorKey, Int8Codec>,
    /// SmoothQuant per-input-channel *divisors* for Linear activations.
    pub smooth: HashMap<NodeId, Vec<f32>>,
    /// Execution plans for [`Self::graph`], keyed by input shape (serving
    /// and direct forwards; BatchNorm recalibration plans its own graph
    /// segments). `Clone` yields a fresh empty set.
    pub plans: PlanSet,
}

impl QuantizedModel {
    /// Build a quantized model from a graph, its calibration data and a
    /// recipe, reporting malformed graphs (unbound weights, structural
    /// defects, a quantized weight another node also reads) as typed
    /// errors. (Use [`crate::PtqSession`] for the full
    /// calibrate-quantize-evaluate pipeline.)
    pub fn build(
        mut graph: Graph,
        calib: &CalibData,
        config: QuantConfig,
    ) -> Result<Self, PtqError> {
        graph.validate_structure()?;
        let quantized_nodes = select_nodes(&graph, &config);
        let smooth = if let Some(alpha) = config.smoothquant_alpha {
            smooth_scales(&graph, calib, &quantized_nodes, alpha)
        } else {
            HashMap::new()
        };
        quantize_weights(&mut graph, &config, &quantized_nodes, &smooth)?;
        let (act_scales, act_int8) =
            prepare_act_scales(&graph, calib, &config, &quantized_nodes, &smooth);
        Ok(QuantizedModel {
            graph,
            config,
            quantized_nodes,
            act_scales,
            act_int8,
            smooth,
            plans: PlanSet::new(),
        })
    }

    /// An execution hook for quantized inference over [`Self::graph`].
    pub fn hook(&self) -> QuantHook<'_> {
        QuantHook { model: self }
    }

    /// The quantized weights: each quantized node's weight parameter.
    fn quantized_weights(&self) -> impl Iterator<Item = &Param> + '_ {
        let nodes = self.graph.nodes();
        let weights = self.quantized_nodes.iter();
        weights.filter_map(move |&id| self.graph.param(nodes.get(id)?.op.weight_value()?))
    }

    /// Resident bytes of all quantized weights as actually stored: 1
    /// byte/element plus scale storage for FP8-stored tensors, 4
    /// bytes/element for fake-quantized f32 tensors.
    pub fn weight_bytes(&self) -> usize {
        self.quantized_weights().map(Param::stored_bytes).sum()
    }

    /// Bytes the same quantized weights would occupy as dense f32 — the
    /// baseline for the weight-memory-reduction ratio.
    pub fn weight_bytes_f32(&self) -> usize {
        let elems: usize = self.quantized_weights().map(Param::len).sum();
        elems * std::mem::size_of::<f32>()
    }

    /// Activation bytes that running `batches` carries across the quantized
    /// op boundaries, and what the same inputs would occupy as dense f32:
    /// codes + scales for inputs coded at the boundary, 4 bytes/element
    /// for fake-quantized f32. Computed once per distinct list of input
    /// shapes, from the value shapes it implies, so no forward runs; the
    /// first batch [`Graph::value_shapes`] rejects gives the error.
    pub fn act_bytes(&self, batches: &[Vec<Tensor>]) -> Result<(usize, usize), PtqError> {
        let mut distinct: Vec<(Vec<Shape>, usize)> = Vec::new();
        for batch in batches {
            let inputs: Vec<Shape> = batch.iter().map(|t| t.shape().to_vec()).collect();
            match distinct.iter_mut().find(|(s, _)| *s == inputs) {
                Some((_, n)) => *n += 1,
                None => distinct.push((inputs, 1)),
            }
        }
        let (mut bytes, mut bytes_f32) = (0, 0);
        for (inputs, n) in distinct {
            let shapes = self.graph.value_shapes(&inputs)?;
            let nodes = self
                .quantized_nodes
                .iter()
                .filter_map(|&id| self.graph.nodes().get(id));
            for node in nodes {
                for (idx, &v) in node.inputs.iter().enumerate() {
                    let shape = shapes[v].as_deref().unwrap_or_default();
                    let f32_bytes = shape.iter().product::<usize>() * std::mem::size_of::<f32>();
                    bytes += n * match self.act_binding(node, idx) {
                        ActBinding::F32 => continue,
                        ActBinding::Coded { scale, .. } => scale.coded_bytes(shape),
                        _ => f32_bytes,
                    };
                    bytes_f32 += n * f32_bytes;
                }
            }
        }
        Ok((bytes, bytes_f32))
    }

    /// How activation input `idx` of `node` crosses the op boundary, one
    /// decision for both storage modes. Untouched unless the node runs
    /// quantized and the input is one it quantizes, with a scale (INT8: a
    /// codec) to quantize it by. Coded when the config stores FP8
    /// activations and the op has a code×code kernel for that input —
    /// input 0 of a non-depthwise Conv2d or Linear whose weight is
    /// FP8-stored, or both MatMul operands together; otherwise
    /// fake-quantized under the same layout.
    fn act_binding(&self, node: &Node, idx: usize) -> ActBinding {
        if !self.quantized_nodes.contains(&node.id)
            || idx >= node.inputs.len()
            || !quantized_inputs(node).contains(&idx)
        {
            return ActBinding::F32;
        }
        let cfg = &self.config;
        let DataFormat::Fp8(format) = cfg.act_format else {
            let key = TensorKey {
                node: node.id,
                input: idx,
            };
            return match cfg.approach {
                Approach::Static => self.act_int8.get(&key).copied().map(Some),
                Approach::Dynamic => Some(None),
            }
            .map_or(ActBinding::F32, ActBinding::FakeInt8);
        };
        let Some(scale) = self.act_scale(node, idx) else {
            return ActBinding::F32;
        };
        let coded = cfg.stores_fp8_acts()
            && match &node.op {
                Op::Conv2d { depthwise, .. } => idx == 0 && !depthwise && self.stored_weight(node),
                Op::Linear { .. } => idx == 0 && self.stored_weight(node),
                // The kernel takes codes on both sides or neither.
                Op::MatMul => self.act_scale(node, 1 - idx).is_some(),
                _ => false,
            };
        if coded {
            ActBinding::Coded { format, scale }
        } else {
            ActBinding::FakeFp8 { format, scale }
        }
    }

    /// The code×code kernels pair activation codes with `QTensor` weights,
    /// so coding requires the node's weight to be FP8-stored.
    fn stored_weight(&self, node: &Node) -> bool {
        let weight = node.op.weight_value().and_then(|v| self.graph.param(v));
        matches!(weight, Some(Param::Fp8(_)))
    }

    /// The scale layout `(node, idx)` is coded with, if one can be produced
    /// at the boundary: always under dynamic and per-tile schemes (scales
    /// are per-batch), only with a calibrated threshold for static
    /// per-tensor scales — a missing key means the fake-quant reference
    /// skips this input, so coding it would break bit-identity.
    fn act_scale(&self, node: &Node, idx: usize) -> Option<ActScale> {
        let cfg = &self.config;
        match (cfg.act_granularity, cfg.approach) {
            (ActGranularity::PerTile(t), _) if !cfg.direct_activation_quant() => {
                Some(ActScale::PerTile(t))
            }
            (_, Approach::Static) => self
                .act_scales
                .get(&TensorKey {
                    node: node.id,
                    input: idx,
                })
                .map(|&s| ActScale::Static(s)),
            (_, Approach::Dynamic) if cfg.direct_activation_quant() => Some(ActScale::Static(1.0)),
            (_, Approach::Dynamic) => Some(ActScale::Dynamic),
        }
    }
}

/// Decide which nodes run quantized under a config: coverage class,
/// fallback list, and the §3.1 first/last exception for convolutional
/// networks.
pub fn select_nodes(graph: &Graph, config: &QuantConfig) -> BTreeSet<NodeId> {
    let is_cnn = !graph.nodes_of_class(OpClass::Conv2d).is_empty();
    let (first, last) = graph.first_last_compute();
    let edge = |id| is_cnn && !config.quantize_first_last && [first, last].contains(&Some(id));
    let ids = graph
        .nodes()
        .iter()
        .filter(|n| config.coverage.includes(n.op.class()));
    let ids = ids.map(|n| n.id).filter(|id| !config.fallback.contains(id));
    ids.filter(|&id| !edge(id)).collect()
}

/// Quantize the weight of every quantized node in place, folding
/// SmoothQuant scales into Linear weights first.
///
/// A weight is FP8-stored when the config stores FP8 weights and the node
/// is a Conv2d/Linear (the ops whose kernels take a `WeightOperand::Q`);
/// everything else — INT8 recipes, embedding tables, the explicit
/// [`crate::WeightStorage::FakeQuantF32`] mode — is fake-quantized in f32.
/// Either form replaces the f32 tensor, so a weight another node also
/// reads (tied weights) is refused: that node would stop reading the f32
/// weight it was built with.
fn quantize_weights(
    graph: &mut Graph,
    config: &QuantConfig,
    nodes: &BTreeSet<NodeId>,
    smooth: &HashMap<NodeId, Vec<f32>>,
) -> Result<(), PtqError> {
    let mut readers: HashMap<ValueId, usize> = HashMap::new();
    for v in graph.nodes().iter().flat_map(|n| n.op.param_values()) {
        *readers.entry(v).or_default() += 1;
    }
    for &id in nodes {
        let node = &graph.nodes()[id];
        let Some(wid) = node.op.weight_value() else {
            continue;
        };
        if readers[&wid] > 1 {
            let detail = format!("weight {wid} of node {} has other readers", node.name);
            return Err(PtqError::InvalidTarget { detail });
        }
        let mut w = graph.f32_param(node, wid)?.clone();
        // SmoothQuant: multiply column j by s_j (activations are divided
        // by s_j at run time; the FP32 product is unchanged).
        // smooth_scales only emits scales matching the weight's column
        // count; anything else would silently corrupt the weight.
        if let Some(s) = smooth.get(&id).filter(|s| s.len() == w.dim(1)) {
            for (v, &sj) in w.data_mut().iter_mut().zip(s.iter().cycle()) {
                *v *= sj;
            }
        }
        let trace = ptq_trace::enabled(ptq_trace::Level::Info);
        if config.stores_fp8_weights() && matches!(node.op, Op::Conv2d { .. } | Op::Linear { .. }) {
            if let Some(q) = quantize_weight_stored(&w, config) {
                if trace {
                    trace_weight_mse(node, &w, q.dequantize().data());
                }
                graph.set_param(wid, q)?;
                continue;
            }
        }
        // Keep the pre-quantization copy only when tracing wants the
        // per-layer error; the clone is off the disabled hot path.
        let fp32 = trace.then(|| w.clone());
        quantize_weight_tensor(&mut w, config);
        if let Some(fp32) = fp32 {
            trace_weight_mse(node, &fp32, w.data());
        }
        graph.set_param(wid, w)?;
    }
    Ok(())
}

/// Per-layer weight quantization error, reported by both storage modes.
fn trace_weight_mse(node: &Node, fp32: &Tensor, quantized: &[f32]) {
    ptq_trace::gauge(
        ptq_trace::Level::Info,
        "quant.weight_mse",
        ptq_tensor::stats::mse(fp32.data(), quantized),
        &[
            ("layer", node.name.as_str().into()),
            ("elems", fp32.len().into()),
        ],
    );
}

/// FP8-store one weight tensor under the config's format and granularity.
///
/// The scale computation inside [`QTensor::quantize`] /
/// [`QTensor::quantize_per_channel`] is the same NaN-propagating absmax
/// fold + `fp8_scale` used by the fake-quant path, so decoding the stored
/// bytes reproduces the fake-quantized f32 weight bit-for-bit (proven in
/// `crates/tensor/tests/storage_equivalence.rs`). Returns `None` for
/// degenerate shapes the per-channel layout cannot represent (scalars,
/// empty leading axis); the caller then falls back to fake-quant f32.
fn quantize_weight_stored(w: &Tensor, config: &QuantConfig) -> Option<QTensor> {
    let DataFormat::Fp8(f) = config.weight_format else {
        return None;
    };
    match config.weight_granularity {
        Granularity::PerChannel => QTensor::quantize_per_channel(w, f).ok(),
        Granularity::PerTensor => QTensor::quantize(w, f).ok(),
    }
}

/// In-place fake quantization of a weight tensor under the config's weight
/// format and granularity.
pub fn quantize_weight_tensor(w: &mut Tensor, config: &QuantConfig) {
    let channels = w.dim(0);
    let inner: usize = w.len() / channels.max(1);
    match (config.weight_format, config.weight_granularity) {
        (DataFormat::Fp8(f), Granularity::PerChannel) => {
            let codec = Fp8Codec::new(f);
            fake_quant_fp8_per_channel(w.data_mut(), &codec, channels, inner);
        }
        (DataFormat::Fp8(f), Granularity::PerTensor) => {
            let codec = Fp8Codec::new(f);
            // NaN-propagating absmax (`f32::max` drops NaN): a non-finite
            // weight forces scale 1.0, matching both the dynamic-activation
            // fold and `QTensor::quantize` — the two storage modes
            // must compute identical scales to stay bit-identical.
            let s = fp8_scale(f, absmax_nan_aware(w.data()));
            fake_quant_fp8(w.data_mut(), &codec, s);
        }
        (DataFormat::Int8, Granularity::PerChannel) => {
            fake_quant_int8_per_channel(w.data_mut(), channels, inner);
        }
        (DataFormat::Int8, Granularity::PerTensor) => {
            let codec = Int8Codec::calibrate(w.data(), Int8Mode::Symmetric);
            fake_quant_int8(w.data_mut(), &codec);
        }
    }
}

/// Freeze static activation scales from calibration thresholds.
fn prepare_act_scales(
    graph: &Graph,
    calib: &CalibData,
    config: &QuantConfig,
    nodes: &BTreeSet<NodeId>,
    smooth: &HashMap<NodeId, Vec<f32>>,
) -> (HashMap<TensorKey, f32>, HashMap<TensorKey, Int8Codec>) {
    let mut scales = HashMap::new();
    let mut int8 = HashMap::new();
    if config.approach == Approach::Dynamic {
        return (scales, int8); // dynamic scales are computed at run time
    }
    for &id in nodes {
        let node = &graph.nodes()[id];
        for &idx in quantized_inputs(node) {
            let key = TensorKey {
                node: id,
                input: idx,
            };
            let Some(mut threshold) = calib.threshold(key, config) else {
                continue;
            };
            // SmoothQuant shrinks the activation: the static threshold is
            // the max over channels of absmax_j / s_j.
            let smoothed = smooth.get(&id).zip(calib.channel_absmax.get(&id));
            if let Some((s, ch)) = smoothed.filter(|_| idx == 0) {
                let shrunk = ch.iter().zip(s).filter(|(_, &sj)| sj > 0.0);
                let t = shrunk.fold(0.0f32, |t, (a, sj)| t.max(a / sj));
                if t > 0.0 {
                    threshold = t;
                }
            }
            match config.act_format {
                DataFormat::Fp8(f) => {
                    let s = if config.direct_activation_quant() {
                        1.0
                    } else {
                        fp8_scale(f, threshold)
                    };
                    if ptq_trace::enabled(ptq_trace::Level::Info) {
                        ptq_trace::gauge(
                            ptq_trace::Level::Info,
                            "quant.act_scale",
                            f64::from(s),
                            &[
                                ("layer", node.name.as_str().into()),
                                ("input", (idx as i64).into()),
                                ("threshold", f64::from(threshold).into()),
                            ],
                        );
                    }
                    scales.insert(key, s);
                }
                DataFormat::Int8 => {
                    // Asymmetric activation codec from calibrated min/max
                    // (clipped to the threshold). A threshold implies stats
                    // were collected for this key; if not, leave the input
                    // unquantized rather than abort.
                    let Some(st) = calib.stats.get(&key) else {
                        continue;
                    };
                    let lo = st.min.max(-threshold);
                    let hi = st.max.min(threshold);
                    int8.insert(key, Int8Codec::from_range(lo, hi, Int8Mode::Asymmetric));
                }
            }
        }
    }
    (scales, int8)
}

/// The quantized-inference hook: binds the SmoothQuant divisors and the
/// activation forms of the quantized nodes. Their weights are the graph's
/// own, quantized in place by [`QuantizedModel::build`].
#[derive(Debug, Clone, Copy)]
pub struct QuantHook<'a> {
    model: &'a QuantizedModel,
}

impl ExecHook for QuantHook<'_> {
    fn bind(&self, node: &Node) -> Binding<'_> {
        let model = self.model;
        // SmoothQuant: the Linear input's channels are divided by s.
        let divisors = model.smooth.get(&node.id).map(Vec::as_slice);
        let divisors = divisors.filter(|_| model.quantized_nodes.contains(&node.id));
        let acts = std::array::from_fn(|idx| model.act_binding(node, idx));
        // The cache format is a whole-model knob; the scale is left `None`
        // so the decode engine calibrates a static per-tensor scale from
        // this model's own prefill activations.
        let kv = match model.config.kv_storage {
            crate::config::KvStorage::F32 => KvCachePolicy::F32,
            crate::config::KvStorage::Fp8 { format } => KvCachePolicy::Fp8 {
                format,
                scale: None,
            },
        };
        Binding {
            divisors,
            acts,
            kv,
            ..Binding::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationHook;
    use crate::config::WeightStorage;
    use ptq_fp8::Fp8Format;
    use ptq_nn::{GraphBuilder, UnwrapOk};
    use ptq_tensor::ops::Conv2dParams;
    use ptq_tensor::TensorRng;

    fn cnn() -> Graph {
        let mut rng = TensorRng::seed(1);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w1 = b.param(rng.kaiming(&[4, 3, 3, 3]));
        let c1 = b.conv2d(x, w1, None, Conv2dParams::same(3));
        let r = b.relu(c1);
        let w2 = b.param(rng.kaiming(&[4, 4, 3, 3]));
        let c2 = b.conv2d(r, w2, None, Conv2dParams::same(3));
        let r = b.relu(c2);
        let g = b.global_avg_pool(r);
        let w3 = b.param(rng.kaiming(&[5, 4]));
        let out = b.linear(g, w3, None);
        b.finish(vec![out])
    }

    fn calibrated(g: &Graph) -> CalibData {
        let mut hook = CalibrationHook::new();
        let x = TensorRng::seed(2).normal(&[4, 3, 8, 8], 0.0, 1.0);
        g.run(&[x], &mut hook).unwrap_ok();
        hook.into_data()
    }

    #[test]
    fn first_last_excluded_for_cnn_by_default() {
        let g = cnn();
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let set = select_nodes(&g, &cfg);
        // conv1 (node 0) and linear (last compute) excluded; conv2 included.
        assert!(!set.contains(&0));
        let (_, last) = g.first_last_compute();
        assert!(!set.contains(&last.unwrap()));
        assert_eq!(set.len(), 1);

        let set_all = select_nodes(&g, &cfg.clone().with_first_last());
        assert_eq!(set_all.len(), 3);
    }

    #[test]
    fn fallback_removes_node() {
        let g = cnn();
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_first_last();
        let (first, _) = g.first_last_compute();
        let cfg2 = cfg.clone().with_fallback(first.unwrap());
        assert_eq!(
            select_nodes(&g, &cfg).len() - 1,
            select_nodes(&g, &cfg2).len()
        );
    }

    #[test]
    fn transformers_have_no_first_last_exception() {
        // A Linear-only (non-CNN) graph quantizes everything.
        let mut rng = TensorRng::seed(3);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[4, 8]));
        let y = b.linear(x, w, None);
        let w2 = b.param(rng.kaiming(&[2, 4]));
        let z = b.linear(y, w2, None);
        let g = b.finish(vec![z]);
        let set = select_nodes(&g, &QuantConfig::fp8(Fp8Format::E4M3));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn quantized_model_output_close_to_fp32() {
        let g = cnn();
        let calib = calibrated(&g);
        let x = TensorRng::seed(4).normal(&[2, 3, 8, 8], 0.0, 1.0);
        let fp32 = g.infer(std::slice::from_ref(&x)).unwrap_ok();
        for f in Fp8Format::ALL {
            let model = QuantizedModel::build(g.clone(), &calib, QuantConfig::fp8(f)).unwrap_ok();
            let q = model
                .graph
                .run(std::slice::from_ref(&x), &mut model.hook())
                .unwrap_ok();
            let mse = ptq_tensor::stats::mse(fp32[0].data(), q[0].data());
            let power: f64 = fp32[0]
                .data()
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                / fp32[0].len() as f64;
            assert!(
                mse < power * 0.1,
                "{f}: relative error too large (mse {mse}, power {power})"
            );
            // And it is not bit-identical (quantization happened).
            assert_ne!(fp32[0], q[0], "{f}");
        }
    }

    /// Each quantized node's weight parameter in `model.graph`, by value id.
    fn weights(model: &QuantizedModel) -> HashMap<ValueId, &Param> {
        let ids = model.quantized_nodes.iter();
        let ids = ids.filter_map(|&id| model.graph.nodes()[id].op.weight_value());
        ids.map(|v| (v, model.graph.param(v).unwrap())).collect()
    }

    #[test]
    fn weights_are_prequantized_once() {
        let g = cnn();
        let calib = calibrated(&g);
        // Default policy: FP8 weights are stored as bytes, not f32, in
        // place of the graph's f32 weights.
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_first_last();
        let model = QuantizedModel::build(g.clone(), &calib, cfg.clone()).unwrap_ok();
        let stored = weights(&model);
        assert_eq!(stored.len(), 3);
        // Stored weights decode to values that differ from the originals
        // but are close.
        for (vid, p) in stored {
            let Param::Fp8(qw) = p else {
                panic!("weight {vid} is not FP8-stored: {p:?}");
            };
            let orig = g.param(vid).and_then(Param::as_f32).unwrap();
            let deq = qw.dequantize();
            assert_ne!(orig, &deq);
            let mse = ptq_tensor::stats::mse(orig.data(), deq.data());
            assert!(mse < 1e-3);
        }
        // Opting out keeps fake-quant f32 tensors.
        let cfg_f32 = cfg.with_weight_storage(WeightStorage::FakeQuantF32);
        let legacy = QuantizedModel::build(g.clone(), &calib, cfg_f32).unwrap_ok();
        let fake = weights(&legacy);
        assert_eq!(fake.len(), 3);
        for (vid, p) in fake {
            assert_ne!(p.as_f32(), g.param(vid).and_then(Param::as_f32), "{vid}");
        }
    }

    #[test]
    fn a_quantized_weight_another_node_reads_is_refused() {
        let mut rng = TensorRng::seed(3);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(rng.kaiming(&[4, 4]));
        let y = b.linear(x, w, None);
        let z = b.linear(y, w, None);
        let g = b.finish(vec![z]);
        let calib = {
            let mut hook = CalibrationHook::new();
            g.run(&[rng.normal(&[2, 4], 0.0, 1.0)], &mut hook)
                .unwrap_ok();
            hook.into_data()
        };
        let err = QuantizedModel::build(g, &calib, QuantConfig::fp8(Fp8Format::E4M3)).unwrap_err();
        assert!(matches!(err, PtqError::InvalidTarget { .. }), "{err}");
    }

    #[test]
    fn fp8_storage_is_bit_identical_to_fake_quant() {
        // The tentpole contract: decoding the stored bytes reproduces the
        // fake-quantized f32 weights exactly, so both storage modes run
        // the same arithmetic.
        let g = cnn();
        let calib = calibrated(&g);
        for granularity in [Granularity::PerTensor, Granularity::PerChannel] {
            for f in Fp8Format::ALL {
                let mut cfg = QuantConfig::fp8(f).with_first_last();
                cfg.weight_granularity = granularity;
                let stored = QuantizedModel::build(g.clone(), &calib, cfg.clone()).unwrap_ok();
                let legacy = QuantizedModel::build(
                    g.clone(),
                    &calib,
                    cfg.with_weight_storage(WeightStorage::FakeQuantF32),
                )
                .unwrap_ok();
                let (stored, legacy) = (weights(&stored), weights(&legacy));
                assert_eq!(stored.len(), legacy.len(), "{f}");
                for (vid, p) in &stored {
                    let Param::Fp8(qw) = p else {
                        panic!("{f}: weight {vid} is not FP8-stored");
                    };
                    let fake = legacy[vid].as_f32();
                    assert_eq!(
                        Some(&qw.dequantize()),
                        fake,
                        "{f} {granularity:?} weight {vid:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn act_bytes_of_interleaved_batch_shapes_is_the_per_batch_sum() {
        let g = cnn();
        let calib = calibrated(&g);
        let model = QuantizedModel::build(g, &calib, QuantConfig::fp8(Fp8Format::E4M3)).unwrap_ok();
        let (a, b) = (
            vec![TensorRng::seed(1).normal(&[2, 3, 8, 8], 0.0, 1.0)],
            vec![TensorRng::seed(2).normal(&[3, 3, 6, 6], 0.0, 1.0)],
        );
        let batches = [a.clone(), b.clone(), a.clone(), a, b.clone(), b];
        let one = |batch: &Vec<Tensor>| model.act_bytes(std::slice::from_ref(batch)).unwrap_ok();
        assert_ne!(
            one(&batches[0]),
            one(&batches[1]),
            "the shapes differ in bytes"
        );
        let sum = batches
            .iter()
            .map(one)
            .fold((0, 0), |s, c| (s.0 + c.0, s.1 + c.1));
        assert_eq!(model.act_bytes(&batches).unwrap_ok(), sum);
    }

    #[test]
    fn fp8_activation_storage_is_bit_identical_to_fake_quant() {
        // The PR's tentpole contract: routing activations through the
        // code×code kernels (codes at the boundary, fused
        // decode-accumulate in the MAC loop) reproduces the fake-quant f32
        // execution bit for bit, across formats, approaches and scale
        // granularities.
        use crate::config::{ActGranularity, ActivationStorage};
        let g = cnn();
        let calib = calibrated(&g);
        let x = TensorRng::seed(11).normal(&[2, 3, 8, 8], 0.0, 1.0);
        for f in Fp8Format::ALL {
            for approach in [Approach::Static, Approach::Dynamic] {
                for gran in [ActGranularity::PerTensor, ActGranularity::PerTile(5)] {
                    let cfg = QuantConfig::fp8(f)
                        .with_first_last()
                        .with_approach(approach)
                        .with_act_granularity(gran);
                    let coded = QuantizedModel::build(g.clone(), &calib, cfg.clone()).unwrap_ok();
                    let fake = QuantizedModel::build(
                        g.clone(),
                        &calib,
                        cfg.with_activation_storage(ActivationStorage::FakeQuantF32),
                    )
                    .unwrap_ok();
                    let yc = coded
                        .graph
                        .run(std::slice::from_ref(&x), &mut coded.hook())
                        .unwrap_ok();
                    let yf = fake
                        .graph
                        .run(std::slice::from_ref(&x), &mut fake.hook())
                        .unwrap_ok();
                    let tag = format!("{f} {approach:?} {gran:?}");
                    for (a, b) in yc[0].data().iter().zip(yf[0].data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                    }
                    // The coded run carries codes, not dense f32.
                    let batch = [vec![x.clone()]];
                    let (bytes, bytes_f32) = coded.act_bytes(&batch).unwrap_ok();
                    assert!(bytes > 0, "{tag}");
                    // Per-tensor scales shrink activations well past 3×;
                    // per-tile pays 4 bytes/tile of scale overhead, which
                    // dominates on this toy CNN's inner dims of 8 — only
                    // assert a reduction there.
                    let bound = match gran {
                        ActGranularity::PerTensor => bytes * 3,
                        ActGranularity::PerTile(_) => bytes,
                    };
                    assert!(
                        bound < bytes_f32,
                        "{tag}: act_bytes {bytes} vs f32 {bytes_f32}"
                    );
                    let (fake_bytes, fake_f32) = fake.act_bytes(&batch).unwrap_ok();
                    assert_eq!(fake_bytes, fake_f32, "{tag}");
                    assert_eq!(fake_f32, bytes_f32, "{tag}");
                }
            }
        }
    }

    #[test]
    fn act_code_policy_requires_stored_weight_and_scales() {
        use crate::config::ActivationStorage;
        let g = cnn();
        let calib = calibrated(&g);
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_first_last();
        let model = QuantizedModel::build(g.clone(), &calib, cfg.clone()).unwrap_ok();
        let conv = &model.graph.nodes()[0];
        // Conv2d/Linear input 0 codes, carrying the calibrated static
        // scale; other inputs never do.
        let key = TensorKey {
            node: conv.id,
            input: 0,
        };
        let coded = ActBinding::Coded {
            format: Fp8Format::E4M3,
            scale: ActScale::Static(model.act_scales[&key]),
        };
        assert_eq!(act_coding(&model, conv, 0), coded);
        assert_eq!(act_coding(&model, conv, 1), ActBinding::F32);
        // The knob turns the datapath off wholesale.
        let off = QuantizedModel::build(
            g.clone(),
            &calib,
            cfg.clone()
                .with_activation_storage(ActivationStorage::FakeQuantF32),
        )
        .unwrap_ok();
        assert_eq!(act_coding(&off, conv, 0), ActBinding::F32);
        // Fake-quant f32 weights have no code×code kernel to pair with.
        let legacy = QuantizedModel::build(
            g,
            &calib,
            cfg.with_weight_storage(WeightStorage::FakeQuantF32),
        )
        .unwrap_ok();
        assert_eq!(act_coding(&legacy, conv, 0), ActBinding::F32);
    }

    #[test]
    fn weight_bytes_report_the_fp8_reduction() {
        let g = cnn();
        let calib = calibrated(&g);
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_first_last();
        let model = QuantizedModel::build(g.clone(), &calib, cfg.clone()).unwrap_ok();
        let stored = weights(&model);
        let elems: usize = stored.values().map(|p| p.len()).sum();
        assert_eq!(model.weight_bytes_f32(), elems * 4);
        let bytes: usize = stored.values().map(|p| p.stored_bytes()).sum();
        assert_eq!(model.weight_bytes(), bytes);
        // 1 byte/element + per-channel scales: strictly between 1/4 and
        // 1/3 of the f32 footprint for these shapes.
        assert!(model.weight_bytes() >= elems);
        assert!(model.weight_bytes() * 3 < model.weight_bytes_f32());
        // Fake-quant f32 mode reports no reduction.
        let legacy = QuantizedModel::build(
            g,
            &calib,
            cfg.with_weight_storage(WeightStorage::FakeQuantF32),
        )
        .unwrap_ok();
        assert_eq!(legacy.weight_bytes(), legacy.weight_bytes_f32());
    }

    #[test]
    fn dynamic_has_no_static_scales() {
        let g = cnn();
        let calib = calibrated(&g);
        let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_approach(Approach::Dynamic);
        let model = QuantizedModel::build(g, &calib, cfg).unwrap_ok();
        assert!(model.act_scales.is_empty());
        // Still runs.
        let x = TensorRng::seed(5).normal(&[1, 3, 8, 8], 0.0, 1.0);
        let y = model.graph.run(&[x], &mut model.hook()).unwrap_ok();
        assert!(y[0].data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn int8_static_uses_asymmetric_codecs() {
        let g = cnn();
        let calib = calibrated(&g);
        let model =
            QuantizedModel::build(g, &calib, QuantConfig::int8().with_first_last()).unwrap_ok();
        assert!(!model.act_int8.is_empty());
        for codec in model.act_int8.values() {
            assert_eq!(codec.mode(), Int8Mode::Asymmetric);
        }
        let x = TensorRng::seed(6).normal(&[1, 3, 8, 8], 0.0, 1.0);
        let y = model.graph.run(&[x], &mut model.hook()).unwrap_ok();
        assert!(y[0].data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn e5m2_direct_scale_is_unity() {
        let g = cnn();
        let calib = calibrated(&g);
        let model = QuantizedModel::build(g, &calib, QuantConfig::fp8(Fp8Format::E5M2)).unwrap_ok();
        for &s in model.act_scales.values() {
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn dynamic_nonfinite_activation_falls_back_to_unit_scale() {
        // Regression: the dynamic absmax fold used `f32::max`, which drops
        // NaN — a NaN-bearing activation got a scale computed from the
        // remaining values. With the fix, any non-finite input forces
        // scale 1.0; NaN then passes through as the format's NaN encoding
        // and the finite values quantize on the unscaled grid.
        // One quantized conv, its input operand seen through the hook.
        struct Seen<'a>(QuantHook<'a>, Vec<Tensor>);
        impl ExecHook for Seen<'_> {
            fn bind(&self, node: &Node) -> Binding<'_> {
                self.0.bind(node)
            }
            fn before_node(&mut self, _node: &Node, inputs: &[&Tensor]) {
                self.1.push(inputs[0].clone());
            }
        }
        let mut b = GraphBuilder::new();
        let x = b.input();
        let w = b.param(TensorRng::seed(1).kaiming(&[4, 3, 3, 3]));
        let c = b.conv2d(x, w, None, Conv2dParams::same(3));
        let g = b.finish(vec![c]);
        let calib = calibrated(&g);
        // Opt out of the coded activation datapath: this regression is
        // about the fake-quant fold (the coded path's fold is covered by
        // `act::tests::dynamic_nonfinite_absmax_uses_unit_scale` in
        // ptq-tensor).
        let cfg = QuantConfig::fp8(Fp8Format::E4M3)
            .with_approach(Approach::Dynamic)
            .with_first_last()
            .with_activation_storage(crate::config::ActivationStorage::FakeQuantF32);
        let model = QuantizedModel::build(g, &calib, cfg).unwrap_ok();
        assert!(model.quantized_nodes.contains(&0));

        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = TensorRng::seed(7).normal(&[1, 3, 8, 8], 0.0, 300.0);
            x.data_mut()[5] = poison;
            let clean: Vec<f32> = x.data().to_vec();
            let mut seen = Seen(model.hook(), Vec::new());
            model.graph.run(&[x], &mut seen).unwrap_ok();
            let out = seen.1[0].data();
            // Finite values were quantized with scale exactly 1.0.
            let codec = Fp8Codec::new(Fp8Format::E4M3);
            let mut expected = clean.clone();
            fake_quant_fp8(&mut expected, &codec, 1.0);
            for (i, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                if i == 5 {
                    continue;
                }
                assert_eq!(got.to_bits(), want.to_bits(), "index {i} ({poison})");
            }
            // NaN maps to NaN (E4M3's all-ones Table-1 encoding decodes to
            // NaN); ±Inf saturates to the format maximum.
            if poison.is_nan() {
                assert!(out[5].is_nan());
            } else {
                assert_eq!(out[5].abs(), Fp8Format::E4M3.max_value());
                assert_eq!(out[5].is_sign_negative(), poison.is_sign_negative());
            }
        }
    }

    /// How input `idx` of `node` crosses the boundary, codes or f32.
    fn act_coding(m: &QuantizedModel, node: &Node, idx: usize) -> ActBinding {
        match m.act_binding(node, idx) {
            coded @ ActBinding::Coded { .. } => coded,
            _ => ActBinding::F32,
        }
    }

    /// Fraction of quantizable (coverage-class) nodes running in low
    /// precision.
    fn quantized_fraction(m: &QuantizedModel) -> f64 {
        let covered = |n: &&Node| m.config.coverage.includes(n.op.class());
        m.quantized_nodes.len() as f64 / m.graph.nodes().iter().filter(covered).count() as f64
    }

    #[test]
    fn quantized_fraction_reflects_fallback() {
        let g = cnn();
        let calib = calibrated(&g);
        let full = QuantizedModel::build(
            g.clone(),
            &calib,
            QuantConfig::fp8(Fp8Format::E4M3).with_first_last(),
        )
        .unwrap_ok();
        assert_eq!(quantized_fraction(&full), 1.0);
        let partial =
            QuantizedModel::build(g, &calib, QuantConfig::fp8(Fp8Format::E4M3)).unwrap_ok();
        assert!(quantized_fraction(&partial) < 1.0);
    }
}
