//! **Cold-start gate** — save PTQ artifacts once, reload them in a fresh
//! process, and prove the reload is both *bit-identical* and *fast*.
//!
//! Two modes, meant to run as two separate OS processes (as CI does):
//!
//! ```text
//! cold_start --save <dir> [--limit N] [--only-format E4M3]
//! cold_start --load <dir>
//! ```
//!
//! `--save` sweeps the Table 2 rows over the quick zoo with the per-domain
//! paper recipes, timing the calibrate-from-scratch path
//! (`PtqSession::save_artifact` = calibrate + quantize + eval + write) and
//! writing one `.ptq` artifact per (row × workload) plus
//! `<dir>/summary.json` with the pinned score bits.
//!
//! `--load` starts from nothing but the directory: it reloads every
//! artifact (`PtqArtifact::load` — the cold-start path that replaces
//! calibration), runs a first evaluation, asserts each score is bit-equal
//! to the calibrate-from-scratch pin, and gates
//! `load_ms < calibrate_ms / 5` — restoring a model from its artifact must
//! be at least 5x faster than quantizing it from scratch, or the exit code
//! is nonzero. Evaluation time is reported but not gated: the eval runs
//! identical kernels on both sides of the comparison.

use ptq_bench::{save_json, CommonFlags, MdTable};
use ptq_core::workflow::{paper_recipe, table2_rows};
use ptq_core::PtqSession;
use ptq_models::{build_zoo, build_zoo_limited, Workload, ZooFilter};
use ptq_trace::json::Value;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One saved artifact: where it lives and what it must score.
#[derive(Serialize)]
struct Entry {
    /// Artifact filename inside the save directory.
    file: String,
    /// Table 2 row label, e.g. `E4M3 / Static`.
    row: String,
    /// Workload name (quick zoo).
    workload: String,
    /// Index into the quick zoo, so the load process can rebuild the
    /// evaluation data without re-reading workload specs from the artifact.
    zoo_index: usize,
    /// Quantized eval score as IEEE-754 bits (hex) — the bit-equality pin.
    score_bits: String,
}

/// The save-mode timing summary the load process reads back.
#[derive(Serialize)]
struct Summary {
    /// Wall-clock of the calibrate-from-scratch path, all entries.
    calibrate_ms: f64,
    /// The artifacts written, with their score pins.
    entries: Vec<Entry>,
}

fn fail(msg: &str) -> ! {
    eprintln!("cold_start: {msg}");
    std::process::exit(1)
}

fn zoo_for(limit: Option<usize>) -> Vec<Workload> {
    match limit {
        Some(n) => build_zoo_limited(ZooFilter::Quick, n),
        None => build_zoo(ZooFilter::Quick),
    }
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect::<String>()
        .split('-')
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

fn save_mode(dir: &Path, flags: &CommonFlags) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    let zoo = zoo_for(flags.limit);
    eprintln!("zoo: {} workloads", zoo.len());

    let mut entries = Vec::new();
    let mut calibrate_ms = 0.0;
    for (format, approach) in table2_rows() {
        if !flags.format_selected(format) {
            continue;
        }
        let row = format!("{format} / {approach:?}");
        for (zoo_index, w) in zoo.iter().enumerate() {
            let cfg = flags.tweak_config(paper_recipe(format, approach, w.spec.domain));
            let file = format!("{}_{}.ptq", slug(&row), slug(&w.spec.name));
            let path = dir.join(&file);
            let t0 = Instant::now();
            let out = PtqSession::new(cfg)
                .save_artifact(w, &path)
                .unwrap_or_else(|e| fail(&format!("{row} / {}: {e}", w.spec.name)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            calibrate_ms += ms;
            eprintln!(
                "saved {file} ({} bytes, {ms:.1} ms, score bits {:#018X})",
                std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                out.score.to_bits()
            );
            entries.push(Entry {
                file,
                row: row.clone(),
                workload: w.spec.name.clone(),
                zoo_index,
                score_bits: format!("{:#018X}", out.score.to_bits()),
            });
        }
    }
    let summary = Summary {
        calibrate_ms,
        entries,
    };
    let spath = dir.join("summary.json");
    std::fs::write(&spath, ptq_bench::to_json_pretty(&summary))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", spath.display())));
    eprintln!(
        "save: {} artifacts, calibrate-from-scratch total {calibrate_ms:.1} ms -> {}",
        summary.entries.len(),
        spath.display()
    );
}

/// A summary.json field, or die with the path that was missing.
fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| fail(&format!("summary.json missing key {key:?}")))
}

fn load_mode(dir: &Path) {
    let spath = dir.join("summary.json");
    let text = std::fs::read_to_string(&spath).unwrap_or_else(|e| {
        fail(&format!(
            "cannot read {}: {e} (run --save first)",
            spath.display()
        ))
    });
    let summary = Value::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{} unparseable: {e}", spath.display())));
    let calibrate_ms = field(&summary, "calibrate_ms")
        .as_f64()
        .unwrap_or_else(|| fail("calibrate_ms is not a number"));
    let entries = field(&summary, "entries")
        .as_array()
        .unwrap_or_else(|| fail("entries is not an array"));
    if entries.is_empty() {
        fail("summary.json has no entries");
    }

    // Rebuilding the zoo (the fp32 eval data the scores are measured on)
    // is shared setup, not part of the cold-start path, so it is timed
    // separately and excluded from the gate.
    let t0 = Instant::now();
    let zoo = build_zoo(ZooFilter::Quick);
    let zoo_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut table = MdTable::new(&["Artifact", "Load", "Eval", "Score bits", "vs pin"]);
    let mut load_ms = 0.0;
    for e in entries {
        let file = field(e, "file")
            .as_str()
            .unwrap_or_else(|| fail("bad file"));
        let zoo_index = field(e, "zoo_index")
            .as_f64()
            .unwrap_or_else(|| fail("bad zoo_index")) as usize;
        let pin_hex = field(e, "score_bits")
            .as_str()
            .unwrap_or_else(|| fail("bad score_bits"));
        let pin = u64::from_str_radix(
            pin_hex.trim_start_matches("0x").trim_start_matches("0X"),
            16,
        )
        .unwrap_or_else(|_| fail(&format!("unparseable score_bits {pin_hex:?}")));
        let w = zoo
            .get(zoo_index)
            .unwrap_or_else(|| fail(&format!("zoo_index {zoo_index} out of range")));

        // The cold-start path under test: mmap + decode to a ready model.
        // The evaluation that follows runs identical kernels on both
        // sides of the comparison (quantize-from-scratch evaluates too),
        // so it verifies bit-equality but stays out of the gate. The
        // loaded artifact re-enters the session flow via `with_artifact`
        // — thresholds restored, nothing requantized — exercising the
        // same path a serving deployment uses.
        let t0 = Instant::now();
        let art = PtqSession::load_artifact(&dir.join(file))
            .unwrap_or_else(|e| fail(&format!("{file}: {e}")));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        load_ms += ms;
        let t1 = Instant::now();
        let out = PtqSession::new(art.model.config.clone())
            .with_artifact(&art)
            .quantize(w)
            .unwrap_or_else(|e| fail(&format!("{file}: eval failed: {e}")));
        let score = out.score;
        let eval_ms = t1.elapsed().as_secs_f64() * 1e3;

        let ok = score.to_bits() == pin;
        table.row(vec![
            file.to_string(),
            format!("{ms:.2} ms"),
            format!("{eval_ms:.2} ms"),
            format!("{:#018X}", score.to_bits()),
            if ok {
                "bit-equal".into()
            } else {
                "MISMATCH".into()
            },
        ]);
        if !ok {
            fail(&format!(
                "{file}: loaded score {score} ({:#018X}) != calibrate-from-scratch pin {pin_hex}",
                score.to_bits()
            ));
        }
    }

    println!("\n## Cold start — artifact load vs calibrate-from-scratch\n");
    table.print();
    let speedup = calibrate_ms / load_ms.max(1e-9);
    println!(
        "\ncalibrate_ms = {calibrate_ms:.1}, load_ms = {load_ms:.1} \
         ({speedup:.1}x speedup; zoo rebuild {zoo_ms:.1} ms, untimed)"
    );

    #[derive(Serialize)]
    struct Report {
        calibrate_ms: f64,
        load_ms: f64,
        speedup: f64,
        artifacts: usize,
        all_bit_equal: bool,
    }
    let path = save_json(
        "cold_start",
        &Report {
            calibrate_ms,
            load_ms,
            speedup,
            artifacts: entries.len(),
            all_bit_equal: true,
        },
    );
    eprintln!("timing summary -> {}", path.display());

    // The gate: a cold start must beat calibrating from scratch 5x.
    if load_ms >= calibrate_ms / 5.0 {
        fail(&format!(
            "cold-start gate failed: load_ms {load_ms:.1} >= calibrate_ms/5 = {:.1}",
            calibrate_ms / 5.0
        ));
    }
    println!(
        "cold-start gate OK: {load_ms:.1} ms < {:.1} ms",
        calibrate_ms / 5.0
    );
}

fn main() {
    let flags = CommonFlags::parse();
    let save_dir = ptq_bench::flag_value(&flags.args, "--save").map(PathBuf::from);
    let load_dir = ptq_bench::flag_value(&flags.args, "--load").map(PathBuf::from);
    match (save_dir, load_dir) {
        (Some(dir), None) => save_mode(&dir, &flags),
        (None, Some(dir)) => load_mode(&dir),
        _ => fail(
            "usage: cold_start --save <dir> [--limit N] [--only-format F] [--spec S] \
             | cold_start --load <dir>",
        ),
    }
}
