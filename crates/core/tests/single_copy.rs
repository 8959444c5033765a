//! One copy of each weight: a quantized model's graph holds each quantized
//! weight in its quantized form, in place of the f32 tensor it was built
//! from, and nothing else holds one.
//!
//! For the quick zoo under the paper's E4M3 recipe, static INT8 and E4M3
//! with fake-quant f32 weight storage:
//!
//! * every quantized node's weight parameter in `model.graph` is exactly
//!   the quantization of the workload's f32 weight (SmoothQuant folded in):
//!   FP8 codes where the recipe stores FP8 weights, fake-quantized f32
//!   otherwise;
//! * `weight_bytes()` is those parameters' stored bytes;
//! * an NLP model's artifact holds every parameter once: what it carries
//!   beyond the graph's stored parameter bytes (names, shapes, scales) is
//!   less than one f32 copy of the quantized weights, and with FP8-stored
//!   weights the whole artifact is smaller than the weights as f32. (The
//!   quick zoo's CV models are too small for the first bound: their
//!   weights as f32 weigh less than the graph's metadata.)

use ptq_core::config::{Approach, DataFormat, Granularity, QuantConfig, WeightStorage};
use ptq_core::quantizer::quantize_weight_tensor;
use ptq_core::{paper_recipe, PtqSession, QuantizedModel, UnwrapOk};
use ptq_fp8::Fp8Format;
use ptq_metrics::Domain;
use ptq_models::{build_zoo, Workload, ZooFilter};
use ptq_nn::{Op, Param};
use ptq_tensor::QTensor;

/// The quantized form of node `id`'s weight under `model`'s recipe,
/// recomputed from the workload's f32 graph.
fn expected_weight(w: &Workload, model: &QuantizedModel, id: usize) -> Param {
    let node = &w.graph.nodes()[id];
    let v = node.op.weight_value().expect("a quantized weight");
    let mut t = w.graph.param(v).and_then(Param::as_f32).unwrap().clone();
    if let Some(s) = model.smooth.get(&id).filter(|s| s.len() == t.dim(1)) {
        for (x, &sj) in t.data_mut().iter_mut().zip(s.iter().cycle()) {
            *x *= sj;
        }
    }
    let cfg = &model.config;
    let fused = matches!(node.op, Op::Conv2d { .. } | Op::Linear { .. });
    if let (true, true, DataFormat::Fp8(f)) = (cfg.stores_fp8_weights(), fused, cfg.weight_format) {
        let q = match cfg.weight_granularity {
            Granularity::PerChannel => QTensor::quantize_per_channel(&t, f),
            Granularity::PerTensor => QTensor::quantize(&t, f),
        };
        return Param::Fp8(q.unwrap());
    }
    quantize_weight_tensor(&mut t, cfg);
    Param::F32(t)
}

fn bits(p: &Param) -> Vec<u32> {
    p.as_f32()
        .map_or_else(Vec::new, |t| t.data().iter().map(|x| x.to_bits()).collect())
}

/// A recipe for a workload's domain.
type Recipe = fn(Domain) -> QuantConfig;

#[test]
fn each_quantized_weight_is_stored_once_in_its_quantized_form() {
    let recipes: [(&str, Recipe); 3] = [
        ("e4m3", |d| {
            paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Static, d)
        }),
        ("int8", |d| {
            paper_recipe(DataFormat::Int8, Approach::Static, d)
        }),
        ("e4m3 fake-quant f32", |d| {
            paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Static, d)
                .with_weight_storage(WeightStorage::FakeQuantF32)
        }),
    ];
    let mut fp8_nlp = 0;
    for w in &build_zoo(ZooFilter::Quick) {
        for (recipe, cfg) in &recipes {
            let what = format!("{} {recipe}", w.spec.name);
            let model = PtqSession::new(cfg(w.spec.domain))
                .quantize(w)
                .unwrap_ok()
                .model;
            let graph = &model.graph;
            let mut stored = 0;
            for &id in &model.quantized_nodes {
                let Some(v) = graph.nodes()[id].op.weight_value() else {
                    continue;
                };
                let (got, want) = (graph.param(v).unwrap(), expected_weight(w, &model, id));
                match (got, &want) {
                    (Param::Fp8(a), Param::Fp8(b)) => assert_eq!(a, b, "{what}: weight {v}"),
                    (Param::F32(_), Param::F32(_)) => {
                        assert_eq!(bits(got), bits(&want), "{what}: weight {v}")
                    }
                    _ => panic!("{what}: weight {v} is stored as {got:?}, not {want:?}"),
                }
                stored += got.stored_bytes();
            }
            assert!(stored > 0, "{what}: no weight was quantized");
            assert_eq!(model.weight_bytes(), stored, "{what}: weight_bytes");

            if w.spec.domain != Domain::Nlp {
                continue;
            }
            let artifact = model.artifact_bytes().unwrap_ok().len();
            let params: usize = graph.params().map(|(_, p)| p.stored_bytes()).sum();
            let weights_f32 = model.weight_bytes_f32();
            assert!(
                artifact < params + weights_f32,
                "{what}: a {artifact}-byte artifact for {params} bytes of parameters \
                 holds a second copy of the weights ({weights_f32} bytes as f32)"
            );
            if model.config.stores_fp8_weights() {
                assert!(
                    artifact < weights_f32,
                    "{what}: artifact {artifact} bytes, weights {weights_f32} bytes as f32"
                );
                fp8_nlp += 1;
            }
        }
    }
    assert!(fp8_nlp > 0, "the quick zoo has NLP models");
}
