//! Save→load round-trip battery for the versioned PTQ artifact format.
//!
//! The contract under test (ISSUE 8 acceptance): a loaded model is
//! *bit-identical* to the freshly quantized one — same artifact bytes when
//! re-saved, same inference bits through both executors and both kernel
//! paths — across the quick zoo, all three FP8 formats, both weight
//! granularities and both activation granularities.

use fp8_ptq::core::config::{ActGranularity, Granularity, QuantConfig};
use fp8_ptq::core::{CalibrationHook, PtqArtifact, PtqSession, QuantizedModel};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::models::{build_zoo, Workload, ZooFilter};
use fp8_ptq::nn::{GraphBuilder, OnPath, UnwrapOk};
use fp8_ptq::tensor::ops::KernelPath;
use fp8_ptq::tensor::{Tensor, TensorRng};
use proptest::prelude::*;
use rayon::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ptq-roundtrip-{}-{name}.ptq", std::process::id()));
    p
}

/// Quantize `w` under `cfg`, round-trip through a file, and assert the
/// three bit-identity properties: byte-identical re-save, bit-identical
/// planned-executor score, bit-identical interpreter outputs.
fn assert_roundtrip(w: &Workload, cfg: QuantConfig, name: &str) {
    let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
    let path = scratch(name);
    out.model.save(&path).unwrap_ok();
    let loaded = QuantizedModel::load(&path).unwrap_ok();
    std::fs::remove_file(&path).ok();

    // save → load → save is byte-identical.
    assert_eq!(
        loaded.artifact_bytes(),
        out.model.artifact_bytes(),
        "{name}: re-saved artifact bytes differ"
    );
    // Planned executor: same score, bit for bit.
    let score = w.evaluate_graph(&loaded.graph, &loaded.hook()).unwrap_ok();
    assert_eq!(
        score.to_bits(),
        out.score.to_bits(),
        "{name}: loaded-model score diverged"
    );
    // Interpreter: same output tensors, bit for bit, loaded vs in-memory.
    let batch = &w.eval[0];
    let y_mem = w.graph.run(batch, &mut out.model.hook()).unwrap_ok();
    let y_load = loaded.graph.run(batch, &mut loaded.hook()).unwrap_ok();
    assert_eq!(y_mem.len(), y_load.len(), "{name}: output arity diverged");
    for (a, b) in y_mem.iter().zip(&y_load) {
        assert_eq!(a.shape(), b.shape(), "{name}: output shape diverged");
        let same = a
            .data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{name}: interpreter outputs diverged bitwise");
    }
}

#[test]
fn zoo_save_load_is_bit_identical_for_every_fp8_format() {
    let zoo = build_zoo(ZooFilter::Quick);
    let cells: Vec<(usize, Fp8Format)> = (0..zoo.len())
        .flat_map(|i| Fp8Format::ALL.iter().map(move |&f| (i, f)))
        .collect();
    cells.par_iter().for_each(|&(i, format)| {
        let w = &zoo[i];
        let name = format!("zoo{i}-{format}");
        assert_roundtrip(w, QuantConfig::fp8(format), &name);
    });
}

#[test]
fn granularity_matrix_roundtrips() {
    let zoo = build_zoo(ZooFilter::Quick);
    let weight_gs = [Granularity::PerChannel, Granularity::PerTensor];
    let act_gs = [ActGranularity::PerTensor, ActGranularity::PerTile(8)];
    let mut cells = Vec::new();
    for (wi, &wg) in weight_gs.iter().enumerate() {
        for &ag in &act_gs {
            // Alternate the workload so both fixtures get coverage
            // without doubling the run time.
            cells.push((wi % zoo.len(), wg, ag));
        }
    }
    cells.par_iter().for_each(|&(i, wg, ag)| {
        let mut cfg = QuantConfig::fp8(Fp8Format::E4M3).with_act_granularity(ag);
        cfg.weight_granularity = wg;
        let name = format!("matrix{i}-{wg:?}-{ag:?}");
        assert_roundtrip(&zoo[i], cfg, &name);
    });
}

#[test]
fn mixed_format_and_int8_recipes_roundtrip() {
    let zoo = build_zoo(ZooFilter::Quick);
    let recipes = vec![
        (0usize, QuantConfig::mixed_fp8()),
        (1, QuantConfig::int8()),
        (2, QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(0.5)),
    ];
    recipes.par_iter().for_each(|(i, cfg)| {
        let name = format!("recipe{i}");
        assert_roundtrip(&zoo[*i], cfg.clone(), &name);
    });
}

/// A small random MLP plus its calibration data, for the property tests.
fn random_model(
    widths: &[usize],
    seed: u64,
    rows: usize,
) -> (fp8_ptq::nn::Graph, fp8_ptq::core::CalibData, Tensor) {
    let mut rng = TensorRng::seed(seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let mut cur = x;
    for i in 1..widths.len() {
        let w = b.param(rng.kaiming(&[widths[i], widths[i - 1]]));
        cur = b.linear(cur, w, None);
        if i + 1 < widths.len() {
            cur = b.relu(cur);
        }
    }
    let g = b.finish(vec![cur]);
    let calib_x = TensorRng::seed(seed ^ 0xC0FFEE).normal(&[rows, widths[0]], 0.0, 1.0);
    let mut hook = CalibrationHook::new();
    g.run(std::slice::from_ref(&calib_x), &mut hook).unwrap_ok();
    (g, hook.into_data(), calib_x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary shapes × formats × granularities survive
    /// save→load→save with byte-identical bytes and bit-identical
    /// inference (interpreter; the loaded model on either kernel path).
    #[test]
    fn arbitrary_models_roundtrip_bit_exactly(
        widths in proptest::collection::vec(1usize..14, 2..5),
        seed in 0u64..10_000,
        rows in 1usize..5,
        format_pick in 0u8..3,
        per_tensor_weights in 0u8..2,
        tile in 0usize..12,
        scalar_path in 0u8..2,
    ) {
        let format = Fp8Format::ALL[format_pick as usize % 3];
        let mut cfg = QuantConfig::fp8(format);
        if per_tensor_weights == 1 {
            cfg.weight_granularity = Granularity::PerTensor;
        }
        if tile > 0 {
            cfg = cfg.with_act_granularity(ActGranularity::PerTile(tile));
        }
        let (g, calib, x) = random_model(&widths, seed, rows);
        let model = QuantizedModel::build(g, &calib, cfg).unwrap_ok();

        let bytes = model.artifact_bytes();
        let art = PtqArtifact::from_bytes(bytes.clone()).unwrap_ok();
        prop_assert_eq!(art.to_bytes(), bytes, "second save not byte-identical");

        let y_mem = model.graph.run(std::slice::from_ref(&x), &mut model.hook()).unwrap_ok();
        let path = [KernelPath::Blocked, KernelPath::ScalarReference][scalar_path as usize];
        let y_load = art.model.graph.run(&[x], &mut OnPath(art.model.hook(), path)).unwrap_ok();
        for (a, b) in y_mem.iter().zip(&y_load) {
            prop_assert_eq!(a.shape(), b.shape());
            for (p, q) in a.data().iter().zip(b.data()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "inference diverged bitwise");
            }
        }
    }
}
