//! **Figure 12 (Appendix A.4) — extended quantization recipes.**
//!
//! The paper extends quantization beyond the standard Conv/Linear/
//! Embedding set to BatchMatMul, MatMul, LayerNorm, BatchNorm and
//! elementwise ops across 50+ models, finding that FP8 (E4M3 in
//! particular) absorbs the extra coverage with small, low-variability
//! accuracy impact — while INT8 approximations of those memory-bound ops
//! were historically what broke (§3.2).
//!
//! We run the NLP zoo under Standard vs Extended coverage per format and
//! report the mean/worst additional loss from the wider op set.

use crate::ctx::{pct, Ctx, MdTable, FORMATS};
use ptq_core::config::{Approach, Coverage};
use ptq_core::SweepError;
use ptq_models::ZooFilter;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig12Row {
    format: String,
    coverage: String,
    pass_rate: f64,
    mean_loss_pct: f64,
    worst_loss_pct: f64,
    errors: Vec<SweepError>,
}

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    let sweep = ctx.sweep(ZooFilter::Nlp);
    eprintln!("{} workloads", sweep.zoo.len());

    let mut rows = Vec::new();
    for fmt in FORMATS {
        for cov in [Coverage::Standard, Coverage::Extended] {
            // A workload that errors becomes an error row in the JSON.
            let row = sweep.row(fmt, Approach::Static, |cfg| cfg.with_coverage(cov));
            let losses: Vec<f64> = row.results.iter().map(|r| r.loss()).collect();
            let mean = losses.iter().sum::<f64>() / losses.len().max(1) as f64;
            let worst = losses.iter().cloned().fold(f64::MIN, f64::max);
            eprintln!("{fmt} {cov:?} done ({} errors)", row.errors.len());
            rows.push(Fig12Row {
                format: format!("{fmt}"),
                coverage: format!("{cov:?}"),
                pass_rate: row.summary.all,
                mean_loss_pct: mean * 100.0,
                worst_loss_pct: worst * 100.0,
                errors: row.errors,
            });
        }
    }

    println!("\n## Figure 12 — standard vs extended operator coverage (NLP zoo)\n");
    let mut t = MdTable::new(&["Format", "Coverage", "Pass rate", "Mean loss", "Worst loss"]);
    for r in &rows {
        t.row(vec![
            r.format.clone(),
            r.coverage.clone(),
            pct(Some(r.pass_rate)),
            format!("{:+.2}%", r.mean_loss_pct),
            format!("{:+.2}%", r.worst_loss_pct),
        ]);
    }
    t.print();

    let delta = |f: &str| {
        let s = rows
            .iter()
            .find(|r| r.format == f && r.coverage == "Standard")
            .expect("std row");
        let e = rows
            .iter()
            .find(|r| r.format == f && r.coverage == "Extended")
            .expect("ext row");
        e.mean_loss_pct - s.mean_loss_pct
    };
    println!("\nShape check (mean additional loss from extended coverage):");
    for f in ["E4M3", "E3M4", "INT8"] {
        println!("* {f}: {:+.2} points", delta(f));
    }
    println!(
        "Paper: FP8 handles LayerNorm/BatchMatMul/elementwise coverage with \
         small impact; integer approximations of those ops were historically \
         the problem."
    );
    Some(rows.serialize())
}
