//! **Figure 7 — BatchNorm calibration: sample size × data transform.**
//!
//! For BN-carrying CV models, the paper sweeps the calibration sample
//! count and compares training-transform vs. inference-transform
//! calibration data, finding (a) BN recalibration recovers accuracy lost
//! to quantization, (b) the training transform works better because it
//! matches the distribution the running statistics were trained on, and
//! (c) ~3 K samples with the training transform is the sweet spot.
//!
//! We sweep {16, 64, 256, 1024, 3072} samples under both transforms on
//! three BN-heavy zoo models quantized with E3M4 (the CV recipe).

use crate::ctx::{Ctx, MdTable};
use ptq_core::config::{Approach, DataFormat, QuantConfig};
use ptq_core::{paper_recipe, recalibrate_batchnorm, PtqSession, QuantizedModel};
use ptq_fp8::Fp8Format;
use ptq_models::families::common::CvConfig;
use ptq_models::families::cv;
use ptq_models::{Transform, Workload};
use ptq_nn::UnwrapOk;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig7Row {
    model: String,
    transform: String,
    samples: usize,
    accuracy: f64,
}

/// The CV recipe (E3M4 static) without its default BN calibration.
fn plain_recipe(w: &Workload) -> QuantConfig {
    let mut plain = paper_recipe(
        DataFormat::Fp8(Fp8Format::E3M4),
        Approach::Static,
        w.spec.domain,
    );
    plain.bn_calibration = false;
    plain
}

fn eval_with_bn_calib(w: &Workload, samples: usize, transform: Transform) -> f64 {
    // Build the quantized model without the default BN calibration…
    let plain = plain_recipe(w);
    let calib = ptq_core::workflow::calibrate_workload(w, &plain).unwrap_ok();
    let mut model = QuantizedModel::build(w.graph.clone(), &calib, plain).unwrap_ok();
    // …then recalibrate with exactly `samples` draws under `transform`.
    let source = w
        .calib_source
        .as_ref()
        .expect("CV workload has a calib source");
    let batches = source.sample(samples, transform, 0xF17);
    recalibrate_batchnorm(&mut model, &batches).unwrap_ok();
    w.evaluate_graph(&model.graph, &model.hook()).unwrap_ok()
}

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    let cfg = |seed, hostility| CvConfig {
        img: 10,
        in_ch: 3,
        width: 12,
        depth: 2,
        classes: 8,
        seed,
        hostility,
    };
    let models = [
        ("resnet_like", cv::resnet_like(&cfg(701, 0.0))),
        ("mobilenet_like", cv::mobilenet_like(&cfg(702, 12.0))),
        ("densenet_like", cv::densenet_like(&cfg(703, 0.0))),
    ];
    let sizes = [16usize, 64, 256, 1024, 3072];

    let mut rows = Vec::new();
    println!("\n## Figure 7 — CV models with BatchNorm: calibration sweep (E3M4)\n");
    for (name, w) in ctx.flags.limited(&models) {
        // No-recalibration reference.
        let base = PtqSession::new(plain_recipe(w))
            .quantize(w)
            .unwrap_ok()
            .score;
        println!(
            "**{name}** — fp32 {:.4}, quantized w/o BN calibration {:.4}\n",
            w.fp32_score, base
        );
        let mut t = MdTable::new(&["Samples", "Train transform", "Inference transform"]);
        for &n in &sizes {
            let train = eval_with_bn_calib(w, n, Transform::Train);
            let infer = eval_with_bn_calib(w, n, Transform::Inference);
            t.row(vec![
                n.to_string(),
                format!("{train:.4}"),
                format!("{infer:.4}"),
            ]);
            for (transform, accuracy) in [("train", train), ("inference", infer)] {
                rows.push(Fig7Row {
                    model: name.to_string(),
                    transform: transform.into(),
                    samples: n,
                    accuracy,
                });
            }
        }
        t.print();
        println!();
    }

    // Shape summary: average over models at the largest size.
    let avg = |tr: &str, n: usize| {
        let sel: Vec<f64> = rows
            .iter()
            .filter(|r| r.transform == tr && r.samples == n)
            .map(|r| r.accuracy)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    println!("Shape check:");
    println!(
        "* train transform at 3072 samples: mean acc {:.4}; inference transform: {:.4} (train ≥ inference ✓)",
        avg("train", 3072),
        avg("inference", 3072)
    );
    println!(
        "* train transform, 64 → 3072 samples: {:.4} → {:.4} (larger calibration sets converge ✓)",
        avg("train", 64),
        avg("train", 3072)
    );
    Some(rows.serialize())
}
