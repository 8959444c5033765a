//! **Figure 8 — output MSE of a Linear operator under mixed vs. single
//! FP8 formats.**
//!
//! The paper measures the quantization error of a BERT-base (MRPC) Linear
//! layer's output for every (activation-format × weight-format) pair and
//! finds E4M3 activations + E3M4 weights best. We reproduce the grid on a
//! BERT-like encoder's first FFN Linear: activations carry LayerNorm
//! outliers (range-bound), weights are zero-mean normal (precision-bound)
//! — the Figure-3 distributions that make the asymmetric assignment
//! optimal.

use crate::ctx::{Ctx, MdTable};
use ptq_fp8::{fake_quant_fp8, fake_quant_fp8_per_channel, fp8_scale, Fp8Codec, Fp8Format};
use ptq_tensor::ops::linear;
use ptq_tensor::TensorRng;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig8Cell {
    act_format: String,
    weight_format: String,
    output_mse: f64,
}

#[allow(clippy::needless_range_loop)]
pub fn run(_ctx: &mut Ctx) -> Option<serde::Value> {
    let mut rng = TensorRng::seed(0xF18);
    let (seq, d, h) = (64, 48, 96);

    // Activations: LayerNorm-style rows with heavy-tailed channel scales
    // plus one strong outlier channel (range-bound, Figure 3 left).
    let mut x = rng.normal(&[seq, d], 0.0, 1.0);
    let gains: Vec<f32> = (0..d)
        .map(|_| (rng.normal_scalar(0.0, 0.8)).exp())
        .collect();
    for r in 0..seq {
        for c in 0..d {
            *x.at_mut(&[r, c]) *= gains[c];
        }
    }
    rng.amplify_channels(&mut x, 1, 1, 60.0);

    // Weights: zero-mean normal (precision-bound, Figure 3 right).
    let w = rng.normal(&[h, d], 0.0, 0.08);
    let reference = linear(&x, &w, None);

    let mut cells = Vec::new();
    println!("\n## Figure 8 — Linear output MSE, activation format × weight format\n");
    let mut t = MdTable::new(&["act \\ weight", "E5M2", "E4M3", "E3M4"]);
    for af in Fp8Format::ALL {
        let mut row = vec![af.to_string()];
        for wf in Fp8Format::ALL {
            // Quantize activations per-tensor with max scaling.
            let mut xq = x.clone();
            let absmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let codec = Fp8Codec::new(af);
            fake_quant_fp8(xq.data_mut(), &codec, fp8_scale(af, absmax));
            // Quantize weights per-channel.
            let mut wq = w.clone();
            let wcodec = Fp8Codec::new(wf);
            fake_quant_fp8_per_channel(wq.data_mut(), &wcodec, h, d);
            let out = linear(&xq, &wq, None);
            let mse = ptq_tensor::stats::mse(reference.data(), out.data());
            row.push(format!("{mse:.4e}"));
            cells.push(Fig8Cell {
                act_format: af.to_string(),
                weight_format: wf.to_string(),
                output_mse: mse,
            });
        }
        t.row(row);
    }
    t.print();

    let get = |a: &str, w_: &str| {
        cells
            .iter()
            .find(|c| c.act_format == a && c.weight_format == w_)
            .expect("cell")
            .output_mse
    };
    let mixed = get("E4M3", "E3M4");
    println!("\nShape check:");
    println!(
        "* mixed E4M3(act)+E3M4(wt) = {:.3e}; single E4M3 = {:.3e}; single E3M4 = {:.3e}",
        mixed,
        get("E4M3", "E4M3"),
        get("E3M4", "E3M4")
    );
    println!(
        "* mixed beats single-E4M3 by {:.2}x (better weight mantissa) and is \
         within range-safety of single-E3M4's activation risk",
        get("E4M3", "E4M3") / mixed
    );
    Some(cells.serialize())
}
