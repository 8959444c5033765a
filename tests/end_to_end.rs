//! Cross-crate integration tests: full PTQ workflows over the quick zoo.
//!
//! These exercise the complete pipeline (zoo construction → calibration →
//! quantization → evaluation) and assert the *structural* properties every
//! run must satisfy. Paper-shape assertions over the full 75-workload zoo
//! live in the bench binaries (EXPERIMENTS.md); these tests use the quick
//! zoo to stay fast.

use fp8_ptq::core::config::{Approach, Coverage, DataFormat, QuantConfig};
use fp8_ptq::core::workflow::calibrate_workload;
use fp8_ptq::core::{paper_recipe, AutoTuner, PtqSession, QuantizedModel};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::metrics::{Domain, PassRateSummary};
use fp8_ptq::models::{build_zoo, ZooFilter};
use fp8_ptq::nn::{Param, UnwrapOk};
use rayon::prelude::*;

#[test]
fn quick_zoo_has_sane_baselines() {
    let zoo = build_zoo(ZooFilter::Quick);
    assert_eq!(zoo.len(), 8);
    for w in &zoo {
        assert!(
            w.fp32_score > 0.5 && w.fp32_score <= 1.0 + 1e-9,
            "{}: fp32 {}",
            w.spec.name,
            w.fp32_score
        );
        // Re-evaluation is deterministic.
        let again = w.evaluate(&fp8_ptq::nn::NoopHook).unwrap_ok();
        assert_eq!(again, w.fp32_score, "{}", w.spec.name);
    }
}

#[test]
fn every_format_quantizes_every_quick_workload() {
    let zoo = build_zoo(ZooFilter::Quick);
    let formats = [
        DataFormat::Fp8(Fp8Format::E5M2),
        DataFormat::Fp8(Fp8Format::E4M3),
        DataFormat::Fp8(Fp8Format::E3M4),
        DataFormat::Int8,
    ];
    // One (workload, format) cell per parallel job: this is the biggest
    // test in the suite, and the 60s-per-test CI guard times it serially.
    let cells: Vec<(usize, DataFormat)> = (0..zoo.len())
        .flat_map(|i| formats.iter().map(move |&f| (i, f)))
        .collect();
    let results: Vec<_> = cells
        .par_iter()
        .map(|&(i, fmt)| {
            let w = &zoo[i];
            let cfg = paper_recipe(fmt, Approach::Static, w.spec.domain);
            let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
            assert!(
                out.score.is_finite() && out.score >= -1.0 && out.score <= 1.0 + 1e-9,
                "{} {fmt}: score {}",
                w.spec.name,
                out.score
            );
            // Quantization must not be a silent no-op: some nodes run
            // quantized and some weights were quantized in place — either
            // as fake-quant f32 tensors or as FP8-stored codes.
            assert!(!out.model.quantized_nodes.is_empty(), "{}", w.spec.name);
            assert!(out.weight_bytes_f32 > 0, "{}", w.spec.name);
            // FP8 formats store Conv2d/Linear weights as codes by default.
            if matches!(fmt, DataFormat::Fp8(_)) {
                let mut params = out.model.graph.params();
                let fp8 = params.any(|(_, p)| matches!(p, Param::Fp8(_)));
                assert!(fp8, "{} {fmt}", w.spec.name);
            }
            out.result
        })
        .collect();
    let summary = PassRateSummary::of(&results);
    assert!(summary.n == zoo.len() * formats.len());
    // Quantization is lossy but not catastrophic in aggregate.
    assert!(summary.all > 0.2, "aggregate pass rate {}", summary.all);
}

#[test]
fn e4m3_beats_e5m2_in_aggregate() {
    // The headline precision ordering, over the quick zoo.
    let zoo = build_zoo(ZooFilter::Quick);
    // Parallel over workloads; collect preserves input order, so the
    // accumulation below sums in the same order as a serial loop.
    let losses: Vec<(f64, f64)> = zoo
        .par_iter()
        .map(|w| {
            let e5 = PtqSession::new(paper_recipe(
                DataFormat::Fp8(Fp8Format::E5M2),
                Approach::Static,
                w.spec.domain,
            ))
            .quantize(w)
            .unwrap_ok();
            let e4 = PtqSession::new(paper_recipe(
                DataFormat::Fp8(Fp8Format::E4M3),
                Approach::Static,
                w.spec.domain,
            ))
            .quantize(w)
            .unwrap_ok();
            (e5.result.loss(), e4.result.loss())
        })
        .collect();
    let mut loss_e5 = 0.0;
    let mut loss_e4 = 0.0;
    for (l5, l4) in &losses {
        loss_e5 += l5;
        loss_e4 += l4;
    }
    assert!(
        loss_e4 < loss_e5,
        "mean loss: E4M3 {} vs E5M2 {}",
        loss_e4 / zoo.len() as f64,
        loss_e5 / zoo.len() as f64
    );
}

#[test]
fn bn_calibration_applies_only_to_bn_models() {
    let zoo = build_zoo(ZooFilter::Quick);
    let cfg = paper_recipe(
        DataFormat::Fp8(Fp8Format::E3M4),
        Approach::Static,
        Domain::Cv,
    );
    assert!(cfg.bn_calibration);
    for w in zoo.iter().filter(|w| w.spec.domain == Domain::Cv) {
        // Must run without panicking whether or not the model has BN.
        let out = PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();
        assert!(out.score.is_finite());
    }
}

#[test]
fn extended_coverage_quantizes_more_nodes() {
    let zoo = build_zoo(ZooFilter::Quick);
    let w = zoo
        .iter()
        .find(|w| w.spec.name.contains("bert"))
        .expect("quick zoo has a bert-like member");
    let std_cfg = QuantConfig::fp8(Fp8Format::E4M3);
    let ext_cfg = std_cfg.clone().with_coverage(Coverage::Extended);
    let calib = calibrate_workload(w, &std_cfg).unwrap_ok();
    let m_std = QuantizedModel::build(w.graph.clone(), &calib, std_cfg).unwrap_ok();
    let m_ext = QuantizedModel::build(w.graph.clone(), &calib, ext_cfg).unwrap_ok();
    assert!(
        m_ext.quantized_nodes.len() > m_std.quantized_nodes.len(),
        "extended {} vs standard {}",
        m_ext.quantized_nodes.len(),
        m_std.quantized_nodes.len()
    );
    // Extended still evaluates to a finite score.
    let s = w.evaluate_graph(&m_ext.graph, &m_ext.hook()).unwrap_ok();
    assert!(s.is_finite());
}

#[test]
fn dynamic_and_static_agree_when_calibration_matches_eval() {
    // For a workload whose calibration data equals its eval data
    // distribution, static absmax scales are near the dynamic ones, so
    // scores should be close (not necessarily equal).
    let zoo = build_zoo(ZooFilter::Quick);
    let w = &zoo[0];
    let s = PtqSession::new(paper_recipe(
        DataFormat::Fp8(Fp8Format::E3M4),
        Approach::Static,
        w.spec.domain,
    ))
    .quantize(w)
    .unwrap_ok()
    .score;
    let d = PtqSession::new(paper_recipe(
        DataFormat::Fp8(Fp8Format::E3M4),
        Approach::Dynamic,
        w.spec.domain,
    ))
    .quantize(w)
    .unwrap_ok()
    .score;
    assert!((s - d).abs() < 0.15, "static {s} vs dynamic {d}");
}

#[test]
fn tuner_finds_recipes_for_most_quick_workloads() {
    let zoo = build_zoo(ZooFilter::Quick);
    let tuner = AutoTuner {
        criterion: 0.05, // relaxed: quick models are small and noisy
    };
    let mut accepted = 0;
    for w in &zoo {
        let out = tuner.tune(w);
        assert!(!out.trace.is_empty());
        if out.accepted.is_some() {
            accepted += 1;
        }
    }
    assert!(
        accepted >= zoo.len() / 2,
        "only {accepted}/{} tuned",
        zoo.len()
    );
}

#[test]
fn fallback_nodes_are_respected() {
    let zoo = build_zoo(ZooFilter::Quick);
    let w = &zoo[1];
    let base = paper_recipe(
        DataFormat::Fp8(Fp8Format::E4M3),
        Approach::Static,
        w.spec.domain,
    );
    let calib = calibrate_workload(w, &base).unwrap_ok();
    let m_full = QuantizedModel::build(w.graph.clone(), &calib, base.clone()).unwrap_ok();
    let some_node = *m_full
        .quantized_nodes
        .iter()
        .next()
        .expect("at least one quantized node");
    let m_fb = QuantizedModel::build(
        w.graph.clone(),
        &calib,
        base.clone().with_fallback(some_node),
    )
    .unwrap_ok();
    assert!(!m_fb.quantized_nodes.contains(&some_node));
    assert_eq!(m_fb.quantized_nodes.len() + 1, m_full.quantized_nodes.len());
}
