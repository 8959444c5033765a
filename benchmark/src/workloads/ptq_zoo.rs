//! `ptq_zoo`: the paper's own use. One op is a *pass* over the 8-model
//! quick zoo: per model `PtqSession::save_artifact` (calibrate → quantize
//! → evaluate → write, no `CalibCache`), then `PtqArtifact::load` and a
//! first forward. `op_p50_ms` is the quantize time of a pass,
//! `first_op_ms` the cold-load time of a pass (both summed over the 8
//! models).

use super::forward::forward;
use super::{outcome, recipe, set_end_to_end, set_op_shares, timed_setup, Ctx, EndToEnd};
use crate::measure::{bit_hash, byte_hash, median, ms, time_box, Rounds, ROUNDS};
use crate::probes;
use crate::report::{Outcome, Values};
use crate::spans::{Site, Tracer};
use ptq_core::{calibrate_workload, PtqArtifact, PtqSession};
use ptq_models::{build_zoo, Workload, ZooFilter};
use std::time::Instant;

/// What one model produced in one pass; every later pass must repeat it.
#[derive(PartialEq, Clone)]
struct ModelResult {
    score_bits: u64,
    artifact_hash: u64,
    artifact_len: usize,
    first_fwd_hash: Option<u64>,
}

struct Pass {
    quantize_ms: f64,
    cold_ms: f64,
    load_ms: f64,
    first_fwd_ms: f64,
    results: Vec<ModelResult>,
}

fn pass(ctx: &Ctx, zoo: &[Workload], site: &Site) -> Pass {
    let pass_id = site.next_id();
    let mut p = Pass {
        quantize_ms: 0.0,
        cold_ms: 0.0,
        load_ms: 0.0,
        first_fwd_ms: 0.0,
        results: Vec::with_capacity(zoo.len()),
    };
    site.span("bench.pass", pass_id, 0, || {
        for (i, w) in zoo.iter().enumerate() {
            let path = ctx.artifact_path(&format!("zoo{i}"));
            let t0 = Instant::now();
            let out = site.span("bench.quantize", site.next_id(), pass_id, || {
                PtqSession::new(recipe(w))
                    .save_artifact(w, &path)
                    .expect("a quick-zoo model quantizes and saves")
            });
            p.quantize_ms += ms(t0.elapsed());
            let t1 = Instant::now();
            let art = site.span("bench.load", site.next_id(), pass_id, || {
                PtqArtifact::load(&path).expect("the artifact just saved loads")
            });
            let t2 = Instant::now();
            let first = site.span("bench.forward", site.next_id(), pass_id, || {
                forward(&art.model, &w.eval[0])
            });
            p.load_ms += ms(t2 - t1);
            p.first_fwd_ms += ms(t2.elapsed());
            p.cold_ms += ms(t1.elapsed());
            let bytes = std::fs::read(&path).expect("the artifact file reads back");
            p.results.push(ModelResult {
                score_bits: out.score.to_bits(),
                artifact_hash: byte_hash(bytes.iter().copied()),
                artifact_len: bytes.len(),
                first_fwd_hash: first.map(|o| bit_hash(o.data())),
            });
        }
    });
    p
}

struct State {
    zoo: Vec<Workload>,
    /// The warm-up pass: the reference every timed pass is checked against.
    reference: Pass,
}

/// In-run oracles, once: a loaded artifact scores bit-equal to the
/// in-memory model, and save→load→save is byte-identical. Returns
/// (checks, mismatches).
fn verify(ctx: &Ctx, state: &State) -> (u64, u64) {
    let mut bad = 0;
    for (i, w) in state.zoo.iter().enumerate() {
        let path = ctx.artifact_path(&format!("zoo{i}"));
        let art = PtqArtifact::load(&path).expect("the reference artifact loads");
        let score = w
            .evaluate_graph(&art.model.graph, &mut art.model.hook())
            .expect("the loaded model evaluates");
        bad += u64::from(score.to_bits() != state.reference.results[i].score_bits);
        let again = ctx.artifact_path("resaved");
        art.save(&again).expect("a loaded artifact saves");
        let same = std::fs::read(&again).ok() == std::fs::read(&path).ok();
        bad += u64::from(!same);
    }
    (2 * state.zoo.len() as u64, bad)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let off = Site::new(None);
    let (state, setup_s) = timed_setup(ctx, || {
        let zoo = build_zoo(ZooFilter::Quick);
        let reference = pass(ctx, &zoo, &off);
        State { zoo, reference }
    });
    let (mut attempted, mut failed) = verify(ctx, &state);
    let n = state.zoo.len();
    let mut values = Values::default();
    let mut notes = Vec::new();

    let mark = ctx.yard.mark();
    let mut rounds = Rounds::default();
    let mut cold = Vec::new();
    let box_len = ctx.untraced() / ROUNDS as u32;
    for _ in 0..ROUNDS {
        rounds.0.push(time_box(box_len, &ctx.yard, |samples| {
            let p = pass(ctx, &state.zoo, &off);
            samples.push(p.quantize_ms);
            cold.push(p.cold_ms);
            attempted += n as u64;
            failed += p
                .results
                .iter()
                .zip(&state.reference.results)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }));
    }
    let passes = rounds.count() as u64;
    let pass_ms = rounds.median_of(median);
    let raw = EndToEnd {
        op_p50_ms: pass_ms,
        ops_per_s: rounds.median_rate(|r| r.samples.len() as f64),
        first_op_ms: median(&cold),
        cpu_s: rounds.cpu_s(),
        ops: passes,
    };
    set_end_to_end(ctx, &mut values, &mut notes, mark, setup_s, raw);
    values.set_opt("ptq_pass_s", pass_ms.map(|m| m / 1e3));
    values.set_opt("cold_load_ms", median(&cold));
    let kib: usize = state.reference.results.iter().map(|r| r.artifact_len).sum();
    values.set("artifact_kib", kib as f64 / 1024.0);
    notes.push(format!("passes {passes} models_per_pass {n}"));

    if ctx.trace {
        traced(ctx, &state, &mut values, &mut notes);
    }
    outcome(values, attempted, failed, notes)
}

fn traced(ctx: &Ctx, state: &State, values: &mut Values, notes: &mut Vec<String>) {
    let zoo = &state.zoo;
    // Accuracy, exact: relative score loss against FP32 per model.
    let losses: Vec<f64> = zoo
        .iter()
        .zip(&state.reference.results)
        .map(|(w, r)| (w.fp32_score - f64::from_bits(r.score_bits)) / w.fp32_score.abs())
        .collect();
    values.set(
        "ptq_rel_loss_pct",
        100.0 * losses.iter().sum::<f64>() / losses.len() as f64,
    );
    values.set(
        "core.pass_rate",
        losses.iter().filter(|&&l| l <= 0.01).count() as f64 / losses.len() as f64,
    );

    let traced_mark = ctx.yard.mark();
    let tracer = Tracer::install();
    let site = Site::new(Some(&tracer));
    let round = time_box(ctx.traced(), &ctx.yard, |samples| {
        samples.push(pass(ctx, zoo, &site).quantize_ms);
    });
    let passes_end = tracer.now_ns();
    let traced_factor = ctx.yard.factor_since(traced_mark).0;

    // One staged pass: the same pipeline as separate public calls, so the
    // quantize time splits into calibrate / quantize / evaluate.
    let (mut cal_s, mut quant_s, mut eval_s, mut save_ms) = (0.0, 0.0, 0.0, 0.0);
    for (i, w) in zoo.iter().enumerate() {
        let cfg = recipe(w);
        let id = site.next_id();
        let t0 = Instant::now();
        let calib = site.span("bench.quantize", id, 0, || {
            calibrate_workload(w, &cfg).expect("calibration runs")
        });
        let t1 = Instant::now();
        let out = site.span("bench.quantize", site.next_id(), 0, || {
            PtqSession::new(cfg.clone())
                .with_calibration(&calib)
                .quantize(w)
                .expect("quantize + evaluate runs")
        });
        let t2 = Instant::now();
        site.span("bench.forward", site.next_id(), 0, || {
            w.evaluate_graph(&out.model.graph, &mut out.model.hook())
                .expect("evaluation runs")
        });
        let evaluate = t2.elapsed().as_secs_f64();
        cal_s += (t1 - t0).as_secs_f64();
        eval_s += evaluate;
        quant_s += ((t2 - t1).as_secs_f64() - evaluate).max(0.0);
        let art =
            PtqArtifact::load(&ctx.artifact_path(&format!("zoo{i}"))).expect("artifact loads");
        let t3 = Instant::now();
        site.span("bench.save", site.next_id(), 0, || {
            art.save(&ctx.artifact_path("resaved"))
                .expect("artifact saves");
        });
        save_ms += ms(t3.elapsed());
    }
    let trace = tracer.finish();
    values.set("core.calibrate_s", cal_s);
    values.set("core.quantize_s", quant_s);
    values.set("core.evaluate_s", eval_s);
    values.set("artifact.save_ms", save_ms);

    let passes = trace.before(passes_end);
    let n_pass = passes.named("bench.pass").count().max(1) as f64;
    let per_pass = |name: &str| passes.total_ms(name).map(|t| t / n_pass);
    values.set_opt("artifact.load_ms", per_pass("bench.load"));
    values.set_opt("artifact.first_fwd_ms", per_pass("bench.forward"));
    let bytes: usize = state.reference.results.iter().map(|r| r.artifact_len).sum();
    if let Some(load_ms) = per_pass("bench.load") {
        values.set(
            "artifact.load_mib_s",
            bytes as f64 / (1 << 20) as f64 / (load_ms / 1e3),
        );
    }
    values.set_opt(
        "nn.plan_build_us",
        trace
            .durs_ms("plan.build")
            .and_then(|v| median(&v))
            .map(|m| m * 1e3),
    );
    if let (Some(by_kind), Some(total)) = (passes.op_ms_by_kind(), passes.total_ms("bench.pass")) {
        set_op_shares(values, by_kind, total);
    }
    let traced_ms = median(&round.samples).map(|m| m * traced_factor);
    if let (Some(t), Some(u)) = (traced_ms, values.get("op_p50_ms")) {
        values.set("trace.overhead_frac", t / u - 1.0);
    }
    notes.push(format!(
        "traced_passes {} staged_passes 1",
        round.samples.len()
    ));
    ctx.finish_trace(&trace, values, notes);

    probes::replay_all(values, ctx.replay_each(), ctx.seed, &recipe(&zoo[0]));
}
