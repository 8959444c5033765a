//! **§4.3.1 — quantizing the first and last operators of CNNs.**
//!
//! The paper: enabling quantization of the first conv and last FC drops
//! the CV pass rate by 25 % for E5M2 and 15 % for E4M3, while E3M4 keeps
//! ≈70 % — hence the recommendation to expose first/last quantization as
//! a tuning option rather than a default.
//!
//! We run the CV zoo with the exception on (default) and off per format.

use crate::ctx::{pct, Ctx, MdTable};
use ptq_core::config::{Approach, DataFormat};
use ptq_fp8::Fp8Format;
use ptq_models::ZooFilter;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct FirstLastRow {
    format: String,
    pass_rate_excepted: f64,
    pass_rate_quantized: f64,
    drop_points: f64,
}

pub fn run(ctx: &mut Ctx) -> Option<serde::Value> {
    let sweep = ctx.sweep(ZooFilter::Cv);
    eprintln!("{} CV workloads", sweep.zoo.len());

    let mut rows = Vec::new();
    for f in Fp8Format::ALL {
        let fmt = DataFormat::Fp8(f);
        let pe = sweep.row(fmt, Approach::Static, |cfg| cfg).summary.all;
        let pq = sweep
            .row(fmt, Approach::Static, |cfg| cfg.with_first_last())
            .summary
            .all;
        rows.push(FirstLastRow {
            format: f.to_string(),
            pass_rate_excepted: pe,
            pass_rate_quantized: pq,
            drop_points: (pe - pq) * 100.0,
        });
        eprintln!("{f}: done");
    }

    println!("\n## §4.3.1 — CV pass rate with first/last operators quantized\n");
    let mut t = MdTable::new(&[
        "Format",
        "First/last in FP32 (default)",
        "First/last quantized",
        "Drop",
    ]);
    for r in &rows {
        t.row(vec![
            r.format.clone(),
            pct(Some(r.pass_rate_excepted)),
            pct(Some(r.pass_rate_quantized)),
            format!("{:.1} pts", r.drop_points),
        ]);
    }
    t.print();
    println!("\nShape check (paper: E5M2 −25 pts, E4M3 −15 pts, E3M4 keeps ≈70%):");
    let by = |f: &str| rows.iter().find(|r| r.format == f).expect("format row");
    println!(
        "* drop ordering E5M2 ({:.1}) ≥ E4M3 ({:.1}) ≥ E3M4 ({:.1}) — higher-mantissa formats tolerate the sensitive layers better",
        by("E5M2").drop_points,
        by("E4M3").drop_points,
        by("E3M4").drop_points
    );
    Some(rows.serialize())
}
