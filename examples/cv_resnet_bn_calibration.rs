//! CV walkthrough: a ResNet-style classifier with BatchNorm calibration
//! and the first/last-operator exception (paper §3.1, Figure 7).
//!
//! Run with: `cargo run --release --example cv_resnet_bn_calibration`

use fp8_ptq::core::config::{Approach, DataFormat};
use fp8_ptq::core::workflow::calibrate_workload;
use fp8_ptq::core::{paper_recipe, recalibrate_batchnorm, PtqSession, QuantizedModel};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::models::families::common::CvConfig;
use fp8_ptq::models::families::cv::resnet_like;
use fp8_ptq::models::Transform;
use fp8_ptq::nn::UnwrapOk;

fn main() {
    let w = resnet_like(&CvConfig {
        img: 10,
        in_ch: 3,
        width: 12,
        depth: 3,
        classes: 8,
        seed: 7,
        hostility: 0.0,
    });
    println!(
        "workload: {} ({} params, fp32 top-1 {:.4})\n",
        w.spec.name,
        w.graph.param_count(),
        w.fp32_score
    );

    // The paper's CV recipe: E3M4, static, BN calibration, first/last
    // compute ops kept in FP32.
    let cfg = paper_recipe(
        DataFormat::Fp8(Fp8Format::E3M4),
        Approach::Static,
        w.spec.domain,
    );
    let full = PtqSession::new(cfg.clone()).quantize(&w).unwrap_ok();
    println!("E3M4 + BN calibration (paper CV recipe): {:.4}", full.score);

    // Ablation 1: skip BatchNorm calibration.
    let mut no_bn = cfg.clone();
    no_bn.bn_calibration = false;
    println!(
        "E3M4 without BN calibration:             {:.4}",
        PtqSession::new(no_bn).quantize(&w).unwrap_ok().score
    );

    // Ablation 2: quantize the first and last operators too (§4.3.1).
    let all_in = cfg.clone().with_first_last();
    println!(
        "E3M4 with first/last quantized:          {:.4}",
        PtqSession::new(all_in).quantize(&w).unwrap_ok().score
    );

    // Figure-7 style: BN calibration sample size and transform matter.
    println!("\nBN calibration sweep (E3M4):");
    println!(
        "{:>8} {:>16} {:>20}",
        "samples", "train transform", "inference transform"
    );
    let source = w
        .calib_source
        .as_ref()
        .expect("CV workload has a calibration source");
    for n in [16usize, 128, 1024] {
        let mut scores = Vec::new();
        for transform in [Transform::Train, Transform::Inference] {
            let mut plain = cfg.clone();
            plain.bn_calibration = false;
            let calib = calibrate_workload(&w, &plain).unwrap_ok();
            let mut model = QuantizedModel::build(w.graph.clone(), &calib, plain).unwrap_ok();
            let batches = source.sample(n, transform, 99);
            recalibrate_batchnorm(&mut model, &batches).unwrap_ok();
            scores.push(w.evaluate_graph(&model.graph, &model.hook()).unwrap_ok());
        }
        println!("{:>8} {:>16.4} {:>20.4}", n, scores[0], scores[1]);
    }
    println!("\n(The paper recommends ~3K samples with the training transform.)");
}
