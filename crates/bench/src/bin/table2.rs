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

use ptq_bench::{pct, save_json, CommonFlags, MdTable};
use ptq_core::workflow::{run_suite_configured, table2_rows};
use ptq_core::CalibCache;
use ptq_models::{build_zoo, build_zoo_limited, ZooFilter};

fn main() {
    // Common vocabulary (--quick/--detail/--limit/--only-format/--spec)
    // is shared across the bench binaries; CI uses
    // `--only-format` to smoke one format per matrix leg, and a `--spec`
    // file's storage/kernel sections override each row's recipe.
    let flags = CommonFlags::parse();
    let trace = ptq_bench::tracing::init_from_args(&flags.args);
    let filter = if flags.quick {
        ZooFilter::Quick
    } else {
        ZooFilter::All
    };
    eprintln!("building zoo…");
    let zoo = match flags.limit {
        Some(n) => build_zoo_limited(filter, n),
        None => build_zoo(filter),
    };
    eprintln!("zoo: {} workloads", zoo.len());

    let mut table = MdTable::new(&[
        "Data Type",
        "Quantization Approach",
        "Pass Rate (CV)",
        "Pass Rate (NLP)",
        "Pass Rate (All)",
    ]);
    let mut rows = Vec::new();
    // One calibration cache for the whole table: each workload is
    // calibrated once, not once per (format × approach) row.
    let cache = CalibCache::new();
    for (format, approach) in table2_rows() {
        if !flags.format_selected(format) {
            continue;
        }
        eprintln!("running {format:?} {approach:?}…");
        let row = run_suite_configured(&zoo, format, approach, &cache, |cfg| {
            flags.tweak_config(cfg)
        });
        for e in &row.errors {
            eprintln!("  skipped {}: {}", e.workload, e.error);
        }
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

    // Resident weight memory per row: FP8 rows store weights as 1-byte
    // codes + scales (the fused-kernel datapath), INT8 rows keep
    // fake-quant f32 weights, so only FP8 rows show the ~4x reduction.
    println!("\n### Resident weight memory (healthy workloads)\n");
    let kib = |b: usize| format!("{:.1} KiB", b as f64 / 1024.0);
    let mut wt = MdTable::new(&["Config", "Stored", "FP32 baseline", "Reduction"]);
    for row in &rows {
        wt.row(vec![
            row.label.clone(),
            kib(row.weight_bytes),
            kib(row.weight_bytes_f32),
            format!(
                "{:.2}x",
                row.weight_bytes_f32 as f64 / row.weight_bytes.max(1) as f64
            ),
        ]);
    }
    wt.print();

    // Activation traffic per row: with `ActivationStorage::Fp8` (the
    // default for FP8 rows) quantized op boundaries carry 1-byte codes +
    // per-tile scales; INT8 and fakequant-f32 rows move full f32 tensors.
    println!("\n### Activation bytes at quantized op boundaries (eval pass)\n");
    let mut at = MdTable::new(&["Config", "Stored", "FP32 baseline", "Reduction"]);
    for row in &rows {
        at.row(vec![
            row.label.clone(),
            kib(row.act_bytes),
            kib(row.act_bytes_f32),
            format!(
                "{:.2}x",
                row.act_bytes_f32 as f64 / row.act_bytes.max(1) as f64
            ),
        ]);
    }
    at.print();

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

    let path = save_json("table2", &rows);
    if let Some(t) = trace {
        ptq_bench::tracing::finish(t, "table2");
    }
    eprintln!(
        "\ncalibration cache: {} entries, {} hits / {} misses",
        cache.len(),
        cache.hits(),
        cache.misses()
    );
    eprintln!("raw results -> {}", path.display());
}
