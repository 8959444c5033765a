//! `forward_cv` and `forward_nlp`: one caller in a closed loop over
//! `plans.run` of a quantized model. The op is one forward; `first_op_ms`
//! is a cold start of the same model (`PtqArtifact::load` → first forward
//! answered, plan build included).

use super::{models, outcome, recipe, set_end_to_end, set_op_shares, timed_setup, Ctx, EndToEnd};
use crate::measure::{allocs_per_call, bit_hash, median, ms, time_box, Rng, Rounds, ROUNDS};
use crate::probes;
use crate::report::{Outcome, Values};
use crate::spans::{Site, Trace, Tracer};
use ptq_core::{PtqArtifact, PtqSession, QuantizedModel};
use ptq_models::Workload;
use ptq_tensor::Tensor;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Cv,
    Nlp,
}

/// Cold starts measured at the head of every round.
const COLD_PER_ROUND: usize = 6;

pub struct State {
    pub w: Workload,
    pub model: QuantizedModel,
    pub path: PathBuf,
}

/// Model build + quantize + artifact + warm-up.
pub fn setup(ctx: &Ctx, kind: Kind) -> State {
    let w = match kind {
        Kind::Cv => models::resnet(),
        Kind::Nlp => models::encoder(),
    };
    let path = ctx.artifact_path("forward");
    let out = PtqSession::new(recipe(&w))
        .save_artifact(&w, &path)
        .expect("the workload's model quantizes and saves");
    let model = out.model;
    // One pass over the input pool builds the plan and warms the arena.
    for sample in &w.eval {
        forward(&model, sample).expect("warm-up forward runs");
    }
    State { w, model, path }
}

pub fn forward(model: &QuantizedModel, sample: &[Tensor]) -> Option<Tensor> {
    let mut out = model
        .plans
        .run(&model.graph, sample, &mut model.hook())
        .ok()?;
    out.pop()
}

/// Load the artifact and answer one forward: (ms, output hash).
pub fn cold_start(path: &std::path::Path, sample: &[Tensor]) -> (f64, Option<u64>) {
    let t0 = Instant::now();
    let out = PtqArtifact::load(path)
        .ok()
        .and_then(|art| forward(&art.model, sample));
    (ms(t0.elapsed()), out.map(|o| bit_hash(o.data())))
}

/// Expected output hash per pool sample, from the model after a
/// save→load round trip; the in-memory model must agree on sample 0
/// before anything is timed.
pub fn expected_hashes(state: &State) -> (Vec<u64>, u64) {
    let art = PtqArtifact::load(&state.path).expect("the artifact just saved loads");
    let expected: Vec<u64> = state
        .w
        .eval
        .iter()
        .map(|s| bit_hash(forward(&art.model, s).expect("oracle forward runs").data()))
        .collect();
    let first = forward(&state.model, &state.w.eval[0]).map(|o| bit_hash(o.data()));
    let mismatches = u64::from(first != Some(expected[0]));
    (expected, mismatches)
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let (state, setup_s) = timed_setup(ctx, || setup(ctx, kind));
    let (expected, mut failed) = expected_hashes(&state);
    let mut attempted = 1u64;
    let pool = &state.w.eval;
    let mut rng = Rng::new(ctx.seed);
    let mut values = Values::default();
    let mut notes = Vec::new();

    // Untraced rounds: every end-to-end number comes from here.
    let mark = ctx.yard.mark();
    let mut rounds = Rounds::default();
    let mut cold = Vec::new();
    let box_len = ctx.untraced() / ROUNDS as u32;
    for _ in 0..ROUNDS {
        for _ in 0..COLD_PER_ROUND {
            let (t, hash) = cold_start(&state.path, &pool[0]);
            attempted += 1;
            failed += u64::from(hash != Some(expected[0]));
            cold.push(t);
        }
        rounds.0.push(time_box(box_len, &ctx.yard, |samples| {
            let i = rng.below(pool.len());
            let t0 = Instant::now();
            let out = forward(&state.model, &pool[i]);
            samples.push(ms(t0.elapsed()));
            attempted += 1;
            failed += u64::from(out.map(|o| bit_hash(o.data())) != Some(expected[i]));
        }));
    }
    let fwd_p50 = rounds.median_of(median);
    let ops = rounds.count() as u64;
    let raw = EndToEnd {
        op_p50_ms: fwd_p50,
        ops_per_s: rounds.median_rate(|r| r.samples.len() as f64),
        first_op_ms: median(&cold),
        cpu_s: rounds.cpu_s(),
        ops,
    };
    set_end_to_end(ctx, &mut values, &mut notes, mark, setup_s, raw);
    values.set_opt("fwd_p50_ms", fwd_p50);
    notes.push(format!(
        "forwards {ops} cold_starts {}",
        ROUNDS * COLD_PER_ROUND
    ));

    if ctx.trace {
        traced(ctx, &state, &expected, fwd_p50, &mut values, &mut notes);
    }
    outcome(values, attempted, failed, notes)
}

fn traced(
    ctx: &Ctx,
    state: &State,
    expected: &[u64],
    fwd_p50: Option<f64>,
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    let pool = &state.w.eval;
    let mut rng = Rng::new(ctx.seed ^ 0x7ace);

    // Exact counts from the counting allocator, untraced, on a warm
    // model: per forward, the output clone and the hook's bookkeeping.
    let (allocs, bytes) = allocs_per_call(20, || {
        forward(&state.model, &pool[0]);
    });
    values.set("nn.allocs_per_fwd", allocs);
    values.set("nn.alloc_bytes_per_fwd", bytes);

    let traced_mark = ctx.yard.mark();
    let tracer = Tracer::install();
    let site = Site::new(Some(&tracer));
    // Segment 1: warm forwards, one `bench.forward` each.
    let round = time_box(ctx.traced(), &ctx.yard, |samples| {
        let i = rng.below(pool.len());
        let t0 = Instant::now();
        let out = site.span("bench.forward", site.next_id(), 0, || {
            forward(&state.model, &pool[i])
        });
        samples.push(ms(t0.elapsed()));
        assert_eq!(
            out.map(|o| bit_hash(o.data())),
            Some(expected[i]),
            "tracing changed an output"
        );
    });
    let warm_end = tracer.now_ns();
    // Segment 2: cold starts, `bench.load` around load + first forward.
    for _ in 0..COLD_PER_ROUND {
        let id = site.next_id();
        site.span("bench.load", id, 0, || {
            let art = PtqArtifact::load(&state.path).expect("artifact loads");
            site.span("bench.forward", site.next_id(), id, || {
                forward(&art.model, &pool[0])
            });
        });
    }
    let trace = tracer.finish();

    let warm = trace.before(warm_end);
    let fwd_ms: f64 = warm.total_ms("bench.forward").unwrap_or(0.0);
    if let Some(by_kind) = warm.op_ms_by_kind() {
        set_op_shares(values, by_kind, fwd_ms);
        values.set(
            "nn.fwd_self_frac",
            1.0 - by_kind.iter().sum::<f64>() / fwd_ms,
        );
    }
    values.set_opt(
        "nn.plan_build_us",
        trace
            .durs_ms("plan.build")
            .and_then(|v| median(&v))
            .map(|m| m * 1e3),
    );
    values.set_opt(
        "nn.arena_peak_kib",
        warm.gauge_max("arena.bytes_reused").map(|b| b / 1024.0),
    );
    let macs = macs_per_forward(&warm, &state.model, &pool[0]);
    values.set_opt("nn.macs_per_fwd", macs);
    if let (Some(macs), Some(p50)) = (macs, fwd_p50) {
        values.set("nn.eff_gflops", 2.0 * macs / (p50 * 1e-3) / 1e9);
    }
    let traced_p50 = median(&round.samples).map(|m| m * ctx.yard.factor_since(traced_mark).0);
    if let (Some(t), Some(u)) = (traced_p50, values.get("op_p50_ms")) {
        values.set("trace.overhead_frac", t / u - 1.0);
    }
    notes.push(format!("traced_forwards {}", round.samples.len()));
    ctx.finish_trace(&trace, values, notes);

    probes::replay_all(values, ctx.replay_each(), ctx.seed, &state.model.config);
}

/// Multiply-accumulates of one forward, computed from tensor sizes: each
/// `op` span's output element count times the contraction length read
/// from the weight (conv, linear) or from the first input's last
/// dimension (activation × activation matmuls).
fn macs_per_forward(warm: &Trace, model: &QuantizedModel, sample: &[Tensor]) -> Option<f64> {
    let first = warm.named("bench.forward").min_by_key(|s| s.start_ns)?;
    let ops: Vec<_> = warm
        .named("op")
        .filter(|s| s.start_ns >= first.start_ns && s.end_ns <= first.end_ns)
        .collect();
    if ops.is_empty() {
        return None;
    }
    let graph = &model.graph;
    // Last dimension of every value: graph inputs, then node outputs as
    // the spans report them.
    let mut last_dim: HashMap<usize, usize> = HashMap::new();
    for (id, t) in graph.input_ids().iter().zip(sample) {
        last_dim.insert(*id, t.shape().last().copied().unwrap_or(1));
    }
    let by_name: HashMap<&str, &ptq_nn::Node> =
        graph.nodes().iter().map(|n| (n.name.as_str(), n)).collect();
    let mut macs = 0.0;
    for s in ops {
        let node = by_name.get(s.str_field("node")?)?;
        let shape: Vec<usize> = s
            .str_field("out_shape")?
            .trim_matches(|c| c == '[' || c == ']')
            .split(',')
            .filter_map(|d| d.trim().parse().ok())
            .collect();
        last_dim.insert(node.output, shape.last().copied().unwrap_or(1));
        let elems = s.int_field("elems")? as f64;
        let contraction = match s.str_field("kind")? {
            "Conv2d" | "Linear" => {
                let w = graph.param(node.op.weight_value()?)?;
                w.len() / w.dim(0)
            }
            "MatMul" | "BatchMatMul" => *last_dim.get(node.inputs.first()?)?,
            _ => continue,
        };
        macs += elems * contraction as f64;
    }
    Some(macs)
}
