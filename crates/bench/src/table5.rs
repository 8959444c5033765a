//! **Table 5 — model accuracy, single vs. mixed FP8 formats.**
//!
//! The paper evaluates Bert-Base/MRPC, Bert-Large/RTE, Funnel/MRPC and
//! Longformer/MRPC under each single format and under the mixed scheme
//! (E4M3 activations + E3M4 weights), finding mixed best on all four —
//! including Funnel, where single E3M4 collapses (0.3704).
//!
//! We run the analogous four encoder workloads from the zoo; the
//! heavy-tail Funnel member is the E3M4-collapse case.

use crate::ctx::{Ctx, MdTable};
use ptq_core::config::QuantConfig;
use ptq_core::PtqSession;
use ptq_fp8::Fp8Format;
use ptq_models::families::common::{Head, NlpConfig};
use ptq_models::families::nlp;
use ptq_nn::UnwrapOk;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Table5Row {
    model: String,
    task: String,
    fp32: f64,
    e5m2: f64,
    e4m3: f64,
    e3m4: f64,
    mixed: f64,
}

/// The encoder shape Tables 5 and 6 vary: width, depth, sequence length,
/// seed, outlier gain and heavy-tail sigma.
pub fn nlpc(d: usize, layers: usize, seq: usize, seed: u64, gain: f32, sigma: f32) -> NlpConfig {
    NlpConfig {
        vocab: 48,
        seq,
        d,
        heads: 4,
        layers,
        ffn_mult: 2,
        seed,
        outlier_gain: gain,
        outlier_channels: 1,
        gamma_sigma: sigma,
    }
}

pub fn run(_ctx: &mut Ctx) -> Option<serde::Value> {
    let enc = |family, task, cfg| nlp::encoder_workload(family, task, &cfg, Head::Binary);
    let workloads = [
        (
            "Bert-Base-like",
            "MRPC-syn",
            enc("bert_like", "mrpc_syn", nlpc(48, 1, 12, 501, 12.0, 0.3)),
        ),
        (
            "Bert-Large-like",
            "RTE-syn",
            enc("bert_like", "rte_syn", nlpc(64, 2, 16, 502, 100.0, 0.5)),
        ),
        (
            "Funnel-like",
            "MRPC-syn",
            enc("funnel_like", "mrpc_syn", nlpc(64, 2, 16, 503, 300.0, 1.6)),
        ),
        (
            "Longformer-like",
            "MRPC-syn",
            enc(
                "longformer_like",
                "mrpc_syn",
                nlpc(48, 1, 32, 504, 30.0, 0.5),
            ),
        ),
    ];

    let mut rows = Vec::new();
    for (model, task, w) in &workloads {
        // This study isolates the *format* trade-off (§3.2): plain static
        // recipes, no SmoothQuant, so each format faces the raw Figure-3
        // distributions. (The Table-2 pass-rate sweep uses the full
        // production recipes instead.)
        let score = |cfg: QuantConfig| PtqSession::new(cfg).quantize(w).unwrap_ok().score;
        let e5m2 = score(QuantConfig::fp8(Fp8Format::E5M2));
        let e4m3 = score(QuantConfig::fp8(Fp8Format::E4M3));
        let e3m4 = score(QuantConfig::fp8(Fp8Format::E3M4));
        let mixed = score(QuantConfig::mixed_fp8());
        rows.push(Table5Row {
            model: model.to_string(),
            task: task.to_string(),
            fp32: w.fp32_score,
            e5m2,
            e4m3,
            e3m4,
            mixed,
        });
    }

    println!("\n## Table 5 — single vs. mixed FP8 formats (F1 on MRPC-style tasks)\n");
    let mut t = MdTable::new(&["Model", "Task", "FP32", "E5M2", "E4M3", "E3M4", "Mixed"]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            r.task.clone(),
            format!("{:.4}", r.fp32),
            format!("{:.4}", r.e5m2),
            format!("{:.4}", r.e4m3),
            format!("{:.4}", r.e3m4),
            format!("{:.4}", r.mixed),
        ]);
    }
    t.print();

    println!("\nShape check:");
    let wins = rows
        .iter()
        .filter(|r| r.mixed >= r.e5m2 && r.mixed >= r.e4m3 && r.mixed >= r.e3m4)
        .count();
    println!(
        "* mixed is the best (or tied-best) FP8 configuration on {wins}/{} workloads",
        rows.len()
    );
    let funnel = &rows[2];
    println!(
        "* Funnel-like heavy-tail member: E3M4 {:.4} vs mixed {:.4} — E3M4's ~2·10³ range \
         window loses the activation bulk (the paper's 0.3704 collapse); E4M3 activations rescue it",
        funnel.e3m4, funnel.mixed
    );
    Some(rows.serialize())
}
