//! The six workloads. Each module has one `run`: set up (model build,
//! quantize, artifact, warm-up), verify against in-run oracles, then the
//! timed phase — untraced for `--trace 0`; untraced, traced and kernel
//! replays for `--trace 1`.

pub mod decode_long;
pub mod decode_streams;
pub mod forward;
pub mod models;
pub mod ptq_zoo;
pub mod serve_open;

use crate::measure::{fenced, median, peak_rss_mib, Yardstick};
use crate::report::{Outcome, Values};
use crate::spans::Trace;
use ptq_core::workflow::paper_recipe;
use ptq_core::{Approach, DataFormat, QuantConfig};
use ptq_fp8::Fp8Format;
use ptq_models::Workload;
use std::path::PathBuf;
use std::time::Duration;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: traces and reports.
    pub out_dir: PathBuf,
    /// Scratch for `.ptq` files, removed when the run ends.
    pub tmp_dir: PathBuf,
    pub yard: Yardstick,
}

/// Shares of `--seconds` in a traced run; the rest goes to the replays.
const UNTRACED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.35;
const REPLAY_EACH_SHARE: f64 = 0.012;

impl Ctx {
    /// Time for the untraced rounds.
    pub fn untraced(&self) -> Duration {
        let share = if self.trace { UNTRACED_SHARE } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn traced(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * TRACED_SHARE)
    }

    pub fn replay_each(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * REPLAY_EACH_SHARE)
    }

    pub fn artifact_path(&self, stem: &str) -> PathBuf {
        self.tmp_dir.join(format!("{stem}.ptq"))
    }

    /// Write the trace next to the report and record its size.
    pub fn finish_trace(&self, trace: &Trace, values: &mut Values, notes: &mut Vec<String>) {
        values.set("trace.events", trace.program_events() as f64);
        let path = self.out_dir.join(format!("{}.trace.ndjson", self.workload));
        match trace.write_ndjson(&path) {
            Ok(()) => notes.push(format!("trace_file {}", path.display())),
            Err(e) => notes.push(format!("trace_file unwritten: {e}")),
        }
        let rec = trace.reconcile();
        let layers: Vec<String> = rec
            .layers_ms
            .iter()
            .map(|(l, t)| format!("{l}={t:.1}ms"))
            .collect();
        notes.push(format!(
            "reconcile callsite={:.1}ms layers[{}] gap={:.4}{}",
            rec.callsite_ms,
            layers.join(" "),
            rec.gap(),
            if rec.gap() > 0.10 { " GAP>10%" } else { "" }
        ));
        if !rec.unlinked_ms.is_empty() {
            let un: Vec<String> = rec
                .unlinked_ms
                .iter()
                .map(|(n, t)| format!("{n}={t:.1}ms"))
                .collect();
            notes.push(format!(
                "reconcile unlinked_engine_thread_spans[{}]",
                un.join(" ")
            ));
        }
    }
}

/// The paper's E4M3 static recipe for the workload's domain, default
/// storage (FP8 weight codes, coded activations, blocked kernels).
pub fn recipe(w: &Workload) -> QuantConfig {
    paper_recipe(
        DataFormat::Fp8(Fp8Format::E4M3),
        Approach::Static,
        w.spec.domain,
    )
}

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Run `setup` `SETUP_REPS` times (once when tracing), dropping each
/// state before the next so peak RSS holds one. Returns the last state
/// and the median seconds, normalised by the yardstick samples taken
/// around the set-ups.
pub fn timed_setup<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, f64) {
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mark = ctx.yard.mark();
    let mut secs = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let (s, f) = fenced(&ctx.yard, &mut setup);
        state = Some(s);
        secs.push(f.wall.as_secs_f64());
    }
    let (factor, ..) = ctx.yard.factor_since(mark);
    (
        state.expect("at least one set-up"),
        median(&secs).expect("at least one set-up") * factor,
    )
}

/// What a workload measured in its untraced rounds, as measured.
pub struct EndToEnd {
    pub op_p50_ms: Option<f64>,
    pub ops_per_s: Option<f64>,
    pub first_op_ms: Option<f64>,
    /// CPU seconds of the timed ops, and how many ops that was.
    pub cpu_s: f64,
    pub ops: u64,
}

/// Record the gated end-to-end metrics: the timings normalised by the
/// yardstick samples taken since `mark` (the start of the untraced
/// rounds).
pub fn set_end_to_end(
    ctx: &Ctx,
    values: &mut Values,
    notes: &mut Vec<String>,
    mark: usize,
    setup_s: f64,
    raw: EndToEnd,
) {
    let (factor, samples, reading) = ctx.yard.factor_since(mark);
    notes.push(format!(
        "yardstick timed_phase samples {samples} median_ms {reading:.3} factor {factor:.4}"
    ));
    values.set("setup_s", setup_s);
    values.set_opt("op_p50_ms", raw.op_p50_ms.map(|v| v * factor));
    values.set_opt("ops_per_s", raw.ops_per_s.map(|v| v / factor));
    values.set_opt("first_op_ms", raw.first_op_ms.map(|v| v * factor));
    values.set(
        "cpu_ms_per_op",
        raw.cpu_s * 1e3 / raw.ops.max(1) as f64 * factor,
    );
    values.set("peak_rss_mib", peak_rss_mib());
}

/// `nn.share_*`: `op`-span time by operator kind (conv, linear, matmul,
/// other; from `Trace::op_ms_by_kind`) over `total_ms`.
pub fn set_op_shares(values: &mut Values, by_kind: [f64; 4], total_ms: f64) {
    let names = [
        "nn.share_conv",
        "nn.share_linear",
        "nn.share_matmul",
        "nn.share_other",
    ];
    for (name, ms) in names.into_iter().zip(by_kind) {
        values.set(name, ms / total_ms);
    }
}

/// Record the engine's counters (traced run only) and return whether
/// every admitted request was answered:
/// `submitted == completed + shed + failed` at quiesce.
pub fn engine_conserves(ctx: &Ctx, values: &mut Values, stats: &ptq_serve::EngineStats) -> bool {
    if ctx.trace {
        values.set("serve.submitted", stats.submitted as f64);
        values.set("serve.completed", stats.completed as f64);
        values.set("serve.rejected", stats.rejected as f64);
        values.set("serve.shed", stats.shed as f64);
        values.set("serve.failed", stats.failed as f64);
    }
    stats.submitted == stats.completed + stats.shed + stats.failed
}

pub fn outcome(mut values: Values, attempted: u64, failed: u64, mut notes: Vec<String>) -> Outcome {
    values.set("fail_share", failed as f64 / attempted.max(1) as f64);
    notes.push(format!("attempted {attempted}"));
    notes.push(format!("failed {failed}"));
    Outcome {
        values,
        attempted,
        failed,
        notes,
    }
}

/// Run the workload `ctx` names (one of `report::WORKLOADS`).
pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "ptq_zoo" => ptq_zoo::run(ctx),
        "forward_cv" => forward::run(ctx, forward::Kind::Cv),
        "forward_nlp" => forward::run(ctx, forward::Kind::Nlp),
        "serve_open" => serve_open::run(ctx),
        "decode_long" => decode_long::run(ctx),
        "decode_streams" => decode_streams::run(ctx),
        other => unreachable!("{other} is not in report::WORKLOADS"),
    }
}
