//! **Table 3 — per-model accuracy for representative workloads.**
//!
//! The paper samples representative networks (ResNet-50, DenseNet-121,
//! Wav2Vec2, DLRM, Bert variants, Bloom, LLaMA) and reports accuracy per
//! format. We print the analogous zoo members. The shape to reproduce:
//! most entries within 1 % of FP32 for E4M3/E3M4, occasional INT8
//! failures (e.g. DenseNet, LLaMA), and E5M2 consistently the weakest.

use crate::ctx::{Ctx, MdTable};
use ptq_core::config::{Approach, DataFormat};
use ptq_core::{paper_recipe, PtqSession};
use ptq_fp8::Fp8Format;
use ptq_models::ZooFilter;
use ptq_nn::UnwrapOk;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Table3Row {
    model: String,
    task: String,
    fp32: f64,
    e5m2: f64,
    e4m3: f64,
    e3m4: f64,
    int8: f64,
}

/// The representative sample (paper Table 3 analogues).
const PICKS: &[(&str, &str)] = &[
    ("resnet_like_12x2", "imagenet_syn"),
    ("densenet_like_12x3", "imagenet_syn"),
    ("wav2vec_like_32d1l/librispeech_syn", "librispeech_syn"),
    ("dlrm_like_f6d16/criteo_syn", "criteo_syn"),
    ("bert_like_48d1l/stsb_syn", "stsb_syn"),
    ("bert_like_48d2l/cola_syn", "cola_syn"),
    ("distilbert_like_64d1l/mrpc_syn", "mrpc_syn"),
    ("bloom_like_64d2l/lambada_syn", "lambada_syn"),
    ("bloom_like_96d2l/lambada_syn", "lambada_syn"),
    ("llama_like_96d2l/lambada_syn", "lambada_syn"),
];

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    let sweep = ctx.sweep(ZooFilter::All);
    let mut rows = Vec::new();
    for (pick, task) in PICKS {
        let Some(w) = sweep.zoo.iter().find(|w| w.spec.name.starts_with(pick)) else {
            eprintln!("warning: no workload named {pick}");
            continue;
        };
        eprintln!("{}…", w.spec.name);
        let score = |fmt| {
            PtqSession::new(paper_recipe(fmt, Approach::Static, w.spec.domain))
                .cache(sweep.cache)
                .quantize(w)
                .unwrap_ok()
                .score
        };
        rows.push(Table3Row {
            model: w.spec.name.clone(),
            task: task.to_string(),
            fp32: w.fp32_score,
            e5m2: score(DataFormat::Fp8(Fp8Format::E5M2)),
            e4m3: score(DataFormat::Fp8(Fp8Format::E4M3)),
            e3m4: score(DataFormat::Fp8(Fp8Format::E3M4)),
            int8: score(DataFormat::Int8),
        });
    }

    println!("\n## Table 3 — model accuracy (representative sample)\n");
    let mut t = MdTable::new(&["Model", "Task", "FP32", "E5M2", "E4M3", "E3M4", "INT8"]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            r.task.clone(),
            format!("{:.4}", r.fp32),
            format!("{:.4}", r.e5m2),
            format!("{:.4}", r.e4m3),
            format!("{:.4}", r.e3m4),
            format!("{:.4}", r.int8),
        ]);
    }
    t.print();
    let within = |q: f64, f: f64| q >= f * 0.99;
    let n_e4 = rows.iter().filter(|r| within(r.e4m3, r.fp32)).count();
    let n_i8 = rows.iter().filter(|r| within(r.int8, r.fp32)).count();
    let n_e5 = rows.iter().filter(|r| within(r.e5m2, r.fp32)).count();
    println!(
        "\nShape check: within-1% counts — E4M3 {n_e4}/{}, INT8 {n_i8}/{}, E5M2 {n_e5}/{}",
        rows.len(),
        rows.len(),
        rows.len()
    );
    Some(rows.serialize())
}
