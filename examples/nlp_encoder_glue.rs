//! NLP walkthrough: a BERT-like encoder on an MRPC-style task.
//!
//! Shows the pieces the paper combines for language models:
//! * activation outliers from LayerNorm gains (Figure 3),
//! * why per-tensor INT8 needs SmoothQuant while FP8's dynamic range
//!   absorbs the outliers,
//! * single vs. mixed FP8 formats (E4M3 activations + E3M4 weights).
//!
//! Run with: `cargo run --release --example nlp_encoder_glue`

use fp8_ptq::core::config::{Approach, DataFormat, QuantConfig};
use fp8_ptq::core::workflow::paper_mixed_recipe;
use fp8_ptq::core::{paper_recipe, PtqSession};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::models::families::common::{Head, NlpConfig};
use fp8_ptq::models::families::nlp::encoder_workload;
use fp8_ptq::nn::UnwrapOk;
use fp8_ptq::nn::{ExecHook, Node, OpClass};
use fp8_ptq::tensor::Tensor;

fn main() {
    // A BERT-like encoder with strong LayerNorm activation outliers
    // (gain 500x on one channel — the LLM regime).
    let cfg = NlpConfig {
        vocab: 48,
        seq: 16,
        d: 64,
        heads: 4,
        layers: 2,
        ffn_mult: 2,
        seed: 42,
        outlier_gain: 500.0,
        outlier_channels: 1,
        gamma_sigma: 0.6,
    };
    let w = encoder_workload("bert_like", "mrpc_syn", &cfg, Head::Binary);
    println!(
        "workload: {} (F1 baseline {:.4})",
        w.spec.name, w.fp32_score
    );

    // Peek at the activation distribution the paper's Figure 3 shows:
    // LayerNorm outputs carry outliers two orders of magnitude above the
    // bulk.
    struct LnStats {
        absmax: f32,
        rms: f64,
        n: usize,
    }
    impl ExecHook for LnStats {
        fn after_node(&mut self, node: &Node, out: &Tensor) {
            if node.op.class() == OpClass::LayerNorm {
                for &v in out.data() {
                    self.absmax = self.absmax.max(v.abs());
                    self.rms += (v as f64) * (v as f64);
                    self.n += 1;
                }
            }
        }
    }
    let mut stats = LnStats {
        absmax: 0.0,
        rms: 0.0,
        n: 0,
    };
    w.graph.run(&w.eval[0], &mut stats).unwrap_ok();
    let rms = (stats.rms / stats.n as f64).sqrt();
    println!(
        "LayerNorm outputs: absmax {:.1}, rms {:.2} — outlier ratio {:.0}x (Figure 3, range-bound)\n",
        stats.absmax,
        rms,
        stats.absmax as f64 / rms
    );

    println!("{:<34} {:>8} {:>8}", "configuration", "F1", "loss");
    let show = |name: &str, cfg: &QuantConfig| {
        let out = PtqSession::new(cfg.clone()).quantize(&w).unwrap_ok();
        println!(
            "{:<34} {:>8.4} {:>7.2}%",
            name,
            out.score,
            out.result.loss() * 100.0
        );
    };

    // INT8 without SmoothQuant: the outlier stretches the per-tensor grid.
    let mut int8_raw = paper_recipe(DataFormat::Int8, Approach::Dynamic, w.spec.domain);
    int8_raw.smoothquant_alpha = None;
    show("INT8 dynamic (no SmoothQuant)", &int8_raw);
    // INT8 with SmoothQuant α=0.5 (the paper's NLP INT8 baseline).
    show(
        "INT8 dynamic + SmoothQuant",
        &paper_recipe(DataFormat::Int8, Approach::Dynamic, w.spec.domain),
    );
    // FP8 singles.
    for f in [Fp8Format::E5M2, Fp8Format::E4M3, Fp8Format::E3M4] {
        show(
            &format!("{f} static"),
            &paper_recipe(DataFormat::Fp8(f), Approach::Static, w.spec.domain),
        );
    }
    // Mixed formats: E4M3 activations (range) + E3M4 weights (precision).
    show(
        "mixed E4M3 act + E3M4 weight",
        &paper_mixed_recipe(w.spec.domain),
    );
}
