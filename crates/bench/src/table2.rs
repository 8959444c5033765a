//! **Table 2 — Workload Pass Rate.**
//!
//! Sweeps the paper's six (data-format × approach) rows over the full
//! 75-workload zoo with the per-domain paper recipes, and reports the
//! CV / NLP / All pass rates under the 1 % relative-loss criterion.
//!
//! With `--detail`, also prints the per-domain loss quartiles behind
//! Figure 4 and every failing workload.
//!
//! Paper reference (Table 2): E4M3 static 73.68 / 96.32 / 92.64,
//! E3M4 static 78.95 / 92.11 / 90.04, E5M2 55.26 / 78.42 / 74.89,
//! INT8 57.89 / 67.65 / 65.87. The shape to reproduce: INT8 ≪ FP8
//! overall, E4M3 best on NLP, E3M4 marginally best on CV, E5M2 the
//! weakest FP8 format.

use crate::ctx::{pct, Ctx, MdTable};
use ptq_core::workflow::{table2_rows, SuiteRow};
use ptq_models::ZooFilter;
use serde::Serialize;

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    // CI uses `--only-format` to smoke one format per matrix leg, and a
    // `--spec` file's storage/kernel sections override each row's recipe.
    let flags = ctx.flags.clone();
    let sweep = ctx.sweep(ZooFilter::All);
    eprintln!("zoo: {} workloads", sweep.zoo.len());

    let mut table = MdTable::new(&[
        "Data Type",
        "Quantization Approach",
        "Pass Rate (CV)",
        "Pass Rate (NLP)",
        "Pass Rate (All)",
    ]);
    let mut rows = Vec::new();
    for (format, approach) in table2_rows() {
        if !flags.format_selected(format) {
            continue;
        }
        eprintln!("running {format:?} {approach:?}…");
        let row = sweep.row(format, approach, |cfg| flags.tweak_config(cfg));
        let (dt, ap) = match row.label.split_once(" / ") {
            Some((a, b)) => (a.to_string(), b.to_string()),
            None => (row.label.clone(), String::new()),
        };
        table.row(vec![
            dt,
            ap,
            pct(row.summary.cv),
            pct(row.summary.nlp),
            pct(Some(row.summary.all)),
        ]);
        rows.push(row);
    }
    println!("\n## Table 2 — Workload Pass Rate (1% relative-loss criterion)\n");
    table.print();

    // Stored bytes against the dense-f32 baseline, per row.
    let memory_table = |title: &str, bytes: fn(&SuiteRow) -> (usize, usize)| {
        println!("\n### {title}\n");
        let kib = |b: usize| format!("{:.1} KiB", b as f64 / 1024.0);
        let mut t = MdTable::new(&["Config", "Stored", "FP32 baseline", "Reduction"]);
        for row in &rows {
            let (stored, f32_baseline) = bytes(row);
            t.row(vec![
                row.label.clone(),
                kib(stored),
                kib(f32_baseline),
                format!("{:.2}x", f32_baseline as f64 / stored.max(1) as f64),
            ]);
        }
        t.print();
    };
    // FP8 rows store weights as 1-byte codes + scales (the fused-kernel
    // datapath), INT8 rows keep fake-quant f32 weights, so only FP8 rows
    // show the ~4x reduction.
    memory_table("Resident weight memory (healthy workloads)", |r| {
        (r.weight_bytes, r.weight_bytes_f32)
    });
    // With `ActivationStorage::Fp8` (the default for FP8 rows) quantized
    // op boundaries carry 1-byte codes + per-tile scales; INT8 and
    // fakequant-f32 rows move full f32 tensors.
    memory_table(
        "Activation bytes at quantized op boundaries (eval pass)",
        |r| (r.act_bytes, r.act_bytes_f32),
    );

    if flags.detail {
        println!("\n### Loss quartiles (Figure 4 data)\n");
        let mut qt = MdTable::new(&["Config", "Domain", "min", "q1", "median", "q3", "max"]);
        for row in &rows {
            for (dom, q) in [("CV", &row.summary.cv_loss), ("NLP", &row.summary.nlp_loss)] {
                if let Some(q) = q {
                    qt.row(vec![
                        row.label.clone(),
                        dom.into(),
                        format!("{:+.4}", q.min),
                        format!("{:+.4}", q.q1),
                        format!("{:+.4}", q.median),
                        format!("{:+.4}", q.q3),
                        format!("{:+.4}", q.max),
                    ]);
                }
            }
        }
        qt.print();
        println!("\n### Failing workloads per config\n");
        for row in &rows {
            let fails: Vec<String> = row
                .results
                .iter()
                .filter(|r| !r.passes())
                .map(|r| format!("{} ({:+.2}%)", r.workload, r.loss() * 100.0))
                .collect();
            println!(
                "* **{}** — {} fail: {}",
                row.label,
                fails.len(),
                fails.join(", ")
            );
        }
    }

    Some(rows.serialize())
}
