//! The workload-level commands: list the zoo, quantize one workload,
//! rank its operators by sensitivity, search a recipe for it.
//!
//! A `<workload>` operand is a name `ptq-bench zoo` lists; a unique
//! prefix is accepted. These commands print and save no JSON.

use crate::ctx::{Ctx, MdTable, Sweep, FORMATS};
use ptq_core::config::{Approach, DataFormat, QuantConfig};
use ptq_core::workflow::paper_mixed_recipe;
use ptq_core::{paper_recipe, sensitivity_profile, AutoTuner, PtqSession};
use ptq_fp8::Fp8Format;
use ptq_models::{Workload, ZooFilter};
use ptq_nn::UnwrapOk;

/// The zoo plus the workload the command's first operand names.
fn named_workload<'a>(ctx: &'a mut Ctx, command: &str) -> (Sweep<'a>, &'a Workload) {
    let Some(prefix) = ctx.flags.operands.get(1).cloned() else {
        eprintln!("usage: ptq-bench {command} <workload>");
        std::process::exit(2);
    };
    let sweep = ctx.sweep(ZooFilter::All);
    let matches: Vec<&Workload> = sweep
        .zoo
        .iter()
        .filter(|w| w.spec.name.starts_with(&prefix))
        .collect();
    match matches[..] {
        [w] => (sweep, w),
        [] => {
            eprintln!("no workload named '{prefix}' (see `ptq-bench zoo`)");
            std::process::exit(1);
        }
        _ => {
            eprintln!("'{prefix}' is ambiguous ({} matches):", matches.len());
            for m in matches.iter().take(8) {
                eprintln!("  {}", m.spec.name);
            }
            std::process::exit(1);
        }
    }
}

pub fn zoo(ctx: &mut Ctx) -> Option<serde::Value> {
    let mut t = MdTable::new(&["Workload", "Domain", "Family", "Params", "FP32 score"]);
    for w in ctx.sweep(ZooFilter::All).zoo {
        t.row(vec![
            w.spec.name.clone(),
            w.spec.domain.to_string(),
            w.spec.family.clone(),
            w.graph.param_count().to_string(),
            format!("{:.4}", w.fp32_score),
        ]);
    }
    t.print();
    None
}

pub fn quantize(ctx: &mut Ctx) -> Option<serde::Value> {
    let fmt_arg = ctx.flags.operands.get(2).map_or("all", String::as_str);
    let formats: Vec<String> = match fmt_arg {
        "all" => FORMATS
            .iter()
            .map(DataFormat::to_string)
            .chain(["mixed".to_string()])
            .collect(),
        one => vec![one.to_string()],
    };
    let (sweep, w) = named_workload(ctx, "quantize");
    println!(
        "workload {} ({:?}, {} params, fp32 {:.4})\n",
        w.spec.name,
        w.spec.domain,
        w.graph.param_count(),
        w.fp32_score
    );
    let mut t = MdTable::new(&["Config", "Score", "Loss", "Pass (1%)"]);
    for f in formats {
        let (label, cfg): (String, QuantConfig) = if f == "mixed" {
            ("mixed E4M3:E3M4".into(), paper_mixed_recipe(w.spec.domain))
        } else if let Some(fmt) = DataFormat::from_label(&f.to_ascii_uppercase()) {
            let cfg = paper_recipe(fmt, Approach::Static, w.spec.domain);
            (cfg.label(), cfg)
        } else {
            eprintln!(
                "unknown format {f:?} (want {} | mixed | all)",
                DataFormat::vocabulary()
            );
            std::process::exit(2);
        };
        let out = PtqSession::new(cfg)
            .cache(sweep.cache)
            .quantize(w)
            .unwrap_ok();
        t.row(vec![
            label,
            format!("{:.4}", out.score),
            format!("{:+.2}%", out.result.loss() * 100.0),
            if out.result.passes() { "yes" } else { "no" }.into(),
        ]);
    }
    t.print();
    None
}

pub fn sensitivity(ctx: &mut Ctx) -> Option<serde::Value> {
    let (_, w) = named_workload(ctx, "sensitivity");
    let cfg = paper_recipe(
        DataFormat::Fp8(Fp8Format::E4M3),
        Approach::Static,
        w.spec.domain,
    );
    eprintln!("measuring per-operator sensitivity (E4M3 static)…");
    let profile = sensitivity_profile(w, &cfg).unwrap_ok();
    let mut t = MdTable::new(&["Rank", "Node", "Class", "Score (only this op)", "Loss"]);
    for (i, n) in profile.nodes.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            n.name.clone(),
            n.class.clone(),
            format!("{:.4}", n.score),
            format!("{:+.2}%", n.loss * 100.0),
        ]);
    }
    t.print();
    None
}

pub fn tune(ctx: &mut Ctx) -> Option<serde::Value> {
    let (_, w) = named_workload(ctx, "tune");
    let outcome = AutoTuner::new().tune(w);
    let mut t = MdTable::new(&["Step", "Recipe", "Score", "Loss", "Status"]);
    for (i, s) in outcome.trace.iter().enumerate() {
        let status = if Some(i) == outcome.accepted {
            "ACCEPTED"
        } else if s.passed {
            "passes"
        } else {
            "fails"
        };
        t.row(vec![
            (i + 1).to_string(),
            s.name.clone(),
            format!("{:.4}", s.score),
            format!("{:+.2}%", s.loss * 100.0),
            status.into(),
        ]);
    }
    t.print();
    if outcome.accepted.is_none() {
        println!("\nno recipe met the 1% criterion — the model needs wider FP32 fallbacks");
    }
    None
}
