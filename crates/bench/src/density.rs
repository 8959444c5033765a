//! **Appendix A.1, Eq. 1–2 — representable-value density of EeMm formats.**
//!
//! `D_{E(e)M(m)}(N) = 2^(m − ⌊log₂ N⌋)`: density halves per octave and
//! doubles per mantissa bit. We print the density sweep and cross-check
//! the formula against the *actual* enumerated grids of the three FP8
//! formats and the uniform INT8 grid.

use crate::ctx::{Ctx, MdTable};
use ptq_fp8::{density_at, Fp8Codec, Fp8Format};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct DensityRow {
    magnitude: f32,
    e5m2: f64,
    e4m3: f64,
    e3m4: f64,
    int8_absmax6: f64,
}

fn actual_density(codec: &Fp8Codec, lo: f32, hi: f32) -> f64 {
    let n = codec
        .enumerate_finite_positive()
        .into_iter()
        .filter(|&(_, v)| v >= lo && v < hi)
        .count();
    n as f64 / (hi - lo) as f64
}

pub fn run(_ctx: &mut Ctx) -> Option<serde::Value> {
    let mut rows = Vec::new();
    println!("\n## Eq. 2 — grid density D(N) = 2^(m − ⌊log₂N⌋)\n");
    let mut t = MdTable::new(&["N", "E5M2", "E4M3", "E3M4", "INT8 (absmax 6)"]);
    // INT8 with absmax 6: uniform density 127/6 per unit regardless of N.
    let int8_density = 127.0 / 6.0;
    for exp in -4..=4 {
        let n = 2f32.powi(exp) * 1.5; // mid-binade points
        let row = DensityRow {
            magnitude: n,
            e5m2: density_at(2, n).expect("positive"),
            e4m3: density_at(3, n).expect("positive"),
            e3m4: density_at(4, n).expect("positive"),
            int8_absmax6: int8_density,
        };
        t.row(vec![
            format!("{:.4}", row.magnitude),
            format!("{:.2}", row.e5m2),
            format!("{:.2}", row.e4m3),
            format!("{:.2}", row.e3m4),
            format!("{:.2}", row.int8_absmax6),
        ]);
        rows.push(row);
    }
    t.print();

    println!("\n### Formula vs. enumerated grid (binade [1, 2))\n");
    let mut t2 = MdTable::new(&["Format", "Eq. 2", "actual codes / unit"]);
    for f in Fp8Format::ALL {
        let c = Fp8Codec::new(f);
        let formula = density_at(f.mantissa_bits(), 1.5).expect("positive");
        let actual = actual_density(&c, 1.0, 2.0);
        assert!((formula - actual).abs() < 1e-9, "{f}: formula != grid");
        t2.row(vec![
            f.to_string(),
            format!("{formula:.2}"),
            format!("{actual:.2}"),
        ]);
    }
    t2.print();
    println!(
        "\nShape check: density halves per octave (the smaller the value, the \
         denser the FP8 grid), doubles per mantissa bit, while INT8 is flat — \
         which is why clipping helps INT8 but not FP8 (Figure 9)."
    );
    Some(rows.serialize())
}
