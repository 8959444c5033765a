//! **Figure 5 — accuracy loss by model size.**
//!
//! The paper scatter-plots relative accuracy loss against model size
//! (log10 MB, bucketed tiny/small/medium/large) for CV and NLP. Our zoo's
//! absolute sizes are ~100× smaller than production checkpoints (see
//! DESIGN.md), so the buckets here are quantiles of the zoo's own size
//! distribution; the shape to reproduce is that FP8 loss is small and
//! roughly size-independent, while INT8 shows large losses concentrated
//! in particular (outlier-heavy) models regardless of size.

use crate::ctx::{Ctx, MdTable};
use ptq_core::config::Approach;
use ptq_core::workflow::table2_rows;
use ptq_metrics::Domain;
use ptq_models::ZooFilter;
use serde::Serialize;
use std::collections::BTreeSet;

#[derive(Debug, Serialize)]
struct Fig5Point {
    workload: String,
    domain: String,
    format: String,
    size_mb: f64,
    log10_size: f64,
    loss: f64,
}

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    let sweep = ctx.sweep(ZooFilter::All);
    let mut points = Vec::new();
    for (fmt, ap) in table2_rows() {
        if ap == Approach::Dynamic {
            continue; // the figure plots the static recipes
        }
        eprintln!("running {fmt:?}…");
        let row = sweep.row(fmt, ap, |cfg| cfg);
        // Weight memory to stderr only: fig5.json's point schema is a
        // stable plotting contract and stays unchanged.
        eprintln!(
            "  resident weights: {} bytes vs {} bytes f32 ({:.2}x)",
            row.weight_bytes,
            row.weight_bytes_f32,
            row.weight_bytes_f32 as f64 / row.weight_bytes.max(1) as f64
        );
        for r in &row.results {
            points.push(Fig5Point {
                workload: r.workload.clone(),
                domain: r.domain.to_string(),
                format: format!("{fmt}"),
                size_mb: r.size_mb,
                log10_size: r.size_mb.max(1e-9).log10(),
                loss: r.loss(),
            });
        }
    }

    // Size quantile buckets over the zoo.
    let mut sizes: Vec<f64> = sweep.zoo.iter().map(|w| w.graph.size_mb()).collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("finite sizes"));
    let q = |p: f64| sizes[((sizes.len() - 1) as f64 * p) as usize];
    let (q1, q2, q3) = (q(0.25), (q(0.5)), q(0.75));
    // A size's bucket: how many of the three quantiles it exceeds.
    const BUCKETS: [&str; 4] = ["tiny", "small", "medium", "large"];
    let bucket = |s: f64| BUCKETS[[q1, q2, q3].iter().filter(|&&q| s > q).count()];

    println!("\n## Figure 5 — mean |loss| by size bucket and domain\n");
    for dom in [Domain::Cv, Domain::Nlp] {
        println!("### {dom}\n");
        let mut t = MdTable::new(&[&["Format"][..], &BUCKETS[..]].concat());
        let formats: BTreeSet<&str> = points.iter().map(|p| p.format.as_str()).collect();
        for f in formats {
            let mut cells = vec![f.to_string()];
            for b in BUCKETS {
                let sel: Vec<f64> = points
                    .iter()
                    .filter(|p| {
                        p.format == f && p.domain == dom.to_string() && bucket(p.size_mb) == b
                    })
                    .map(|p| p.loss.abs())
                    .collect();
                if sel.is_empty() {
                    cells.push("—".into());
                } else {
                    cells.push(format!(
                        "{:.2}% (n={})",
                        100.0 * sel.iter().sum::<f64>() / sel.len() as f64,
                        sel.len()
                    ));
                }
            }
            t.row(cells);
        }
        t.print();
        println!();
    }
    println!(
        "Size buckets are zoo quantiles at {:.3}/{:.3}/{:.3} MB (paper buckets 32/384/512 MB; \
         our substrate is ~100x smaller).",
        q1, q2, q3
    );
    Some(points.serialize())
}
