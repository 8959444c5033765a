//! Tier-1 guard for the execution spine. The zoo-wide equivalence suites
//! live in the member crates and only run under `--workspace`; this is the
//! thin slice of them that plain `cargo test` exercises, so the root gate
//! cannot pass with the executors out of agreement.

use fp8_ptq::core::config::{ActivationStorage, Approach, DataFormat, WeightStorage};
use fp8_ptq::core::workflow::calibrate_workload;
use fp8_ptq::core::{paper_recipe, PtqSession};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::metrics::Domain;
use fp8_ptq::models::families::nlp::decoder_graph;
use fp8_ptq::models::families::NlpConfig;
use fp8_ptq::models::{build_zoo_limited, ZooFilter};
use fp8_ptq::nn::{DecodeState, NoopHook, UnwrapOk};
use fp8_ptq::tensor::ops::KernelPath;
use fp8_ptq::tensor::Tensor;

/// On one CV and one NLP quick-zoo workload under the E4M3 paper recipe:
/// the reference loop and the planned executor agree bit for bit under
/// `model.hook()`, for FP8-stored and fake-quant weights/activations alike
/// — and the storage settings, and the blocked kernels and their scalar
/// reference, agree with each other.
#[test]
fn reference_loop_matches_plan_under_the_quantized_hook() {
    let zoo = build_zoo_limited(ZooFilter::Quick, 5);
    for (w, domain) in [(&zoo[1], Domain::Cv), (&zoo[4], Domain::Nlp)] {
        assert_eq!(w.spec.domain, domain, "{}", w.spec.name);
        let recipe = paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Static, domain);
        let calib = calibrate_workload(w, &recipe).unwrap_ok();
        let inputs = &w.eval[0];
        let mut outputs = Vec::new();
        let (blocked, scalar) = (KernelPath::Blocked, KernelPath::ScalarReference);
        for (weights, acts, path) in [
            (WeightStorage::Fp8, ActivationStorage::Fp8, blocked),
            (WeightStorage::Fp8, ActivationStorage::Fp8, scalar),
            (WeightStorage::Fp8, ActivationStorage::FakeQuantF32, blocked),
            (
                WeightStorage::FakeQuantF32,
                ActivationStorage::FakeQuantF32,
                blocked,
            ),
        ] {
            let what = format!("{} {weights}/{acts}/{path}", w.spec.name);
            let cfg = recipe
                .clone()
                .with_weight_storage(weights)
                .with_activation_storage(acts)
                .with_kernel_path(path);
            let model = PtqSession::new(cfg)
                .quantize_calibrated(w, &calib)
                .unwrap_ok()
                .model;
            let reference = model.graph.run(inputs, &mut model.hook()).unwrap_ok();
            // Cold, then warmed arena.
            for pass in ["cold", "warm"] {
                let planned = model
                    .plans
                    .run(&model.graph, inputs, &mut model.hook())
                    .unwrap_ok();
                assert_eq!(reference, planned, "{what}: plan ({pass}) drifted");
            }
            assert!(
                reference[0].data().iter().all(|v| v.is_finite()),
                "{what}: non-finite output"
            );
            outputs.push((what, reference));
        }
        for (what, out) in &outputs[1..] {
            assert_eq!(&outputs[0].1, out, "{what} drifted from {}", outputs[0].0);
        }
    }
}

/// On a tiny decoder with an f32 KV cache, every incrementally decoded
/// logits row is bit-identical to recomputing the full window.
#[test]
fn incremental_decode_matches_full_window_recompute() {
    let seq = 8;
    let graph = decoder_graph(&NlpConfig {
        vocab: 20,
        seq,
        d: 16,
        heads: 4,
        layers: 2,
        ffn_mult: 2,
        seed: 11,
        outlier_gain: 8.0,
        outlier_channels: 1,
        gamma_sigma: 0.3,
    });
    let full_window_row = |tokens: &[f32]| {
        let mut window = vec![0.0f32; seq];
        window[..tokens.len()].copy_from_slice(tokens);
        let out = graph.infer(&[Tensor::from_slice(&window)]).unwrap_ok();
        Tensor::from_slice(out[0].row(tokens.len() - 1))
    };

    let plan = graph.plan_decode(seq).unwrap_ok();
    let mut state = DecodeState::new(&plan);
    let mut tokens = vec![1.0f32, 3.0, 0.0];
    let mut logits = state
        .prefill(&plan, &graph, &Tensor::from_slice(&tokens), &mut NoopHook)
        .unwrap_ok();
    assert_eq!(logits, full_window_row(&tokens), "prefill");
    while state.pos() < seq {
        let next = logits.argmax() as f32;
        tokens.push(next);
        logits = state.step(&plan, &graph, next, &mut NoopHook).unwrap_ok();
        assert_eq!(logits, full_window_row(&tokens), "step to {}", tokens.len());
    }
}
