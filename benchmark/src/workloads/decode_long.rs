//! `decode_long`: one `DecodeSession` at a time over a GPT-like decoder
//! with an FP8 (E4M3) KV cache — prompt 32 tokens, greedy to the end of
//! the 256 window (224 steps), sessions repeated. The op is one generated
//! token: `op_p50_ms` the median gap between consecutive tokens,
//! `ops_per_s` tokens per second of session wall time (session
//! construction and prefill included), `first_op_ms` the time from
//! `DecodeSession::new` to the first token.

use super::models::{argmax, DECODER_LONG as CFG};
use super::{models, outcome, recipe, set_end_to_end, set_op_shares, timed_setup, Ctx, EndToEnd};
use crate::measure::{alloc_counts, mean, median, ms, percentile, time_box, Rng, Rounds, ROUNDS};
use crate::probes;
use crate::report::{Outcome, Values};
use crate::spans::{Site, Tracer};
use ptq_core::{DecodeSession, KvStorage, PtqArtifact, PtqSession, QuantizedModel};
use ptq_fp8::Fp8Format;
use ptq_tensor::Tensor;
use std::time::{Duration, Instant};

const PROMPT_LEN: usize = 32;
/// Steps of the f32-cache session checked against the full-window oracle.
const ORACLE_STEPS: usize = 8;
/// Steps averaged at each end of a session for the KV-growth slope.
const SLOPE_STEPS: usize = 16;

/// One session's timings (ms) and output.
pub struct Session {
    pub new_ms: f64,
    pub ttft_ms: f64,
    pub gaps_ms: Vec<f64>,
    pub tokens: Vec<f32>,
    pub cache_bytes: usize,
}

/// New session → prefill → greedy steps until `max_new` tokens or the
/// window is full. Hands the model back.
pub fn session(
    model: QuantizedModel,
    seq: usize,
    prompt: &[f32],
    max_new: usize,
    site: &Site,
) -> (QuantizedModel, Session) {
    let t0 = Instant::now();
    let mut s = DecodeSession::new(model, seq).expect("the decoder plans");
    let new_ms = ms(t0.elapsed());
    let id = site.next_id();
    let logits = site.span("bench.prefill", id, 0, || {
        s.prefill(prompt).expect("prefill runs")
    });
    let mut tok = argmax(logits.data());
    let mut last = Instant::now();
    let ttft_ms = ms(last - t0);
    let mut tokens = vec![tok];
    let mut gaps_ms = Vec::with_capacity(seq);
    while tokens.len() < max_new && s.pos() < seq {
        let logits = site.span("bench.step", site.next_id(), id, || {
            s.step(tok).expect("step runs")
        });
        tok = argmax(logits.data());
        let now = Instant::now();
        gaps_ms.push(ms(now - last));
        last = now;
        tokens.push(tok);
    }
    let out = Session {
        new_ms,
        ttft_ms,
        gaps_ms,
        tokens,
        cache_bytes: s.cache_bytes(),
    };
    (s.into_model(), out)
}

fn setup(ctx: &Ctx) -> QuantizedModel {
    let w = models::decoder(&CFG);
    let path = ctx.artifact_path("decode_long");
    let cfg = recipe(&w).with_kv_storage(KvStorage::Fp8 {
        format: Fp8Format::E4M3,
    });
    PtqSession::new(cfg)
        .save_artifact(&w, &path)
        .expect("the decoder quantizes and saves");
    let model = PtqArtifact::load(&path)
        .expect("the artifact just saved loads")
        .model;
    // One whole session plans decoding and warms every buffer.
    let warm: Vec<f32> = (0..PROMPT_LEN).map(|i| (i % CFG.vocab) as f32).collect();
    session(model, CFG.seq, &warm, usize::MAX, &Site::new(None)).0
}

/// Logits row of the last real token from a full-window forward: the
/// oracle an f32-cache session must match bit for bit.
fn full_window_row(model: &QuantizedModel, tokens: &[f32]) -> Vec<f32> {
    let mut window = vec![0.0f32; CFG.seq];
    window[..tokens.len()].copy_from_slice(tokens);
    let out = model
        .plans
        .run(
            &model.graph,
            &[Tensor::from_slice(&window)],
            &mut model.hook(),
        )
        .expect("full-window forward runs");
    out[0].row(tokens.len() - 1).to_vec()
}

/// An f32-cache session against the full-window oracle for the first
/// `ORACLE_STEPS` steps: (checks, mismatches). Also returns the f32
/// session's whole greedy stream for the agreement metric.
fn verify_f32(model: &QuantizedModel, prompt: &[f32]) -> (u64, u64, Vec<f32>) {
    let mut f32_model = model.clone();
    f32_model.config.kv_storage = KvStorage::F32;
    let mut s = DecodeSession::new(f32_model.clone(), CFG.seq).expect("the decoder plans");
    let mut fed = prompt.to_vec();
    let mut logits = s.prefill(prompt).expect("prefill runs");
    let (mut checks, mut bad) = (0, 0);
    let mut tokens = Vec::new();
    while s.pos() < CFG.seq {
        if tokens.len() <= ORACLE_STEPS {
            let want = full_window_row(&f32_model, &fed);
            let same = want
                .iter()
                .zip(logits.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            checks += 1;
            bad += u64::from(!same);
        }
        let tok = argmax(logits.data());
        tokens.push(tok);
        fed.push(tok);
        logits = s.step(tok).expect("step runs");
    }
    tokens.push(argmax(logits.data()));
    (checks, bad, tokens)
}

struct Timed {
    rounds: Rounds,
    /// Tokens generated in each round (its gaps plus one per session).
    round_tokens: Vec<u64>,
    /// Time to first token of every session.
    ttft: Vec<f64>,
    new: Vec<f64>,
    first_steps: Vec<f64>,
    last_steps: Vec<f64>,
    tokens: u64,
    mismatched_sessions: u64,
    sessions: u64,
    cache_bytes: usize,
}

/// Sessions back to back for `budget`; each round's samples are its
/// token gaps.
fn timed(
    ctx: &Ctx,
    model: &mut Option<QuantizedModel>,
    prompt: &[f32],
    reference: &[f32],
    budget: Duration,
    site: &Site,
) -> Timed {
    let mut t = Timed {
        rounds: Rounds::default(),
        round_tokens: Vec::new(),
        ttft: Vec::new(),
        new: Vec::new(),
        first_steps: Vec::new(),
        last_steps: Vec::new(),
        tokens: 0,
        mismatched_sessions: 0,
        sessions: 0,
        cache_bytes: 0,
    };
    for _ in 0..ROUNDS {
        let mut round_tokens = 0u64;
        let round = time_box(budget / ROUNDS as u32, &ctx.yard, |samples| {
            let m = model
                .take()
                .expect("the model is handed back after every session");
            let (m, s) = session(m, CFG.seq, prompt, usize::MAX, site);
            *model = Some(m);
            samples.extend_from_slice(&s.gaps_ms);
            t.ttft.push(s.ttft_ms);
            t.new.push(s.new_ms);
            let n = s.gaps_ms.len();
            t.first_steps.extend(mean(&s.gaps_ms[..SLOPE_STEPS.min(n)]));
            t.last_steps
                .extend(mean(&s.gaps_ms[n.saturating_sub(SLOPE_STEPS)..]));
            round_tokens += s.tokens.len() as u64;
            t.sessions += 1;
            t.mismatched_sessions += u64::from(s.tokens != reference);
            t.cache_bytes = s.cache_bytes;
        });
        t.tokens += round_tokens;
        t.round_tokens.push(round_tokens);
        t.rounds.0.push(round);
    }
    t
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (model, setup_s) = timed_setup(ctx, || setup(ctx));
    let mut rng = Rng::new(ctx.seed);
    let prompt = rng.token_ids(PROMPT_LEN, CFG.vocab);
    let off = Site::new(None);
    let (attempted0, failed0, f32_tokens) = verify_f32(&model, &prompt);
    // The reference stream every timed session must repeat.
    let (model, reference) = session(model, CFG.seq, &prompt, usize::MAX, &off);
    let mut model = Some(model);
    let mut values = Values::default();
    let mut notes = Vec::new();

    let mark = ctx.yard.mark();
    let t = timed(
        ctx,
        &mut model,
        &prompt,
        &reference.tokens,
        ctx.untraced(),
        &off,
    );
    // Every token of a round's sessions, the first included, over the
    // round's op time.
    let tok_rates: Vec<f64> = t
        .rounds
        .0
        .iter()
        .zip(&t.round_tokens)
        .map(|(r, &tokens)| tokens as f64 / r.wall.as_secs_f64())
        .collect();
    let itl_p50 = t.rounds.median_of(median);
    let raw = EndToEnd {
        op_p50_ms: itl_p50,
        ops_per_s: median(&tok_rates),
        first_op_ms: median(&t.ttft),
        cpu_s: t.rounds.cpu_s(),
        ops: t.tokens,
    };
    set_end_to_end(ctx, &mut values, &mut notes, mark, setup_s, raw);
    values.set_opt("itl_p50_ms", itl_p50);
    values.set_opt("itl_p99_ms", t.rounds.median_of(|g| percentile(g, 0.99)));
    values.set_opt("decode_tok_per_s", median(&tok_rates));
    values.set_opt("ttft_p50_ms", median(&t.ttft));
    notes.push(format!(
        "sessions {} tokens {} gaps {} ttft_samples {}",
        t.sessions,
        t.tokens,
        t.rounds.count(),
        t.ttft.len()
    ));

    if ctx.trace {
        traced(
            ctx,
            &mut model,
            &prompt,
            &reference,
            &f32_tokens,
            &t,
            &mut values,
            &mut notes,
        );
    }
    outcome(
        values,
        attempted0 + t.sessions,
        failed0 + t.mismatched_sessions,
        notes,
    )
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    model: &mut Option<QuantizedModel>,
    prompt: &[f32],
    reference: &Session,
    f32_tokens: &[f32],
    untraced: &Timed,
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    values.set_opt("core.session_new_us", mean(&untraced.new).map(|m| m * 1e3));
    values.set_opt(
        "nn.step_us_first",
        mean(&untraced.first_steps).map(|m| m * 1e3),
    );
    values.set_opt(
        "nn.step_us_last",
        mean(&untraced.last_steps).map(|m| m * 1e3),
    );
    let cached = CFG.seq as f64;
    values.set(
        "nn.kv_bytes_per_token",
        untraced.cache_bytes as f64 / cached,
    );
    let weights = model.as_ref().expect("model present").weight_bytes();
    values.set("nn.weight_bytes_per_token", weights as f64);

    // Exact counts over the steps of one session, after its prefill; the
    // session is fed the f32-cache stream, so its argmax at each position
    // against that stream is the FP8 cache's greedy agreement on
    // identical inputs.
    let m = model.take().expect("model present");
    let mut s = DecodeSession::new(m, CFG.seq).expect("the decoder plans");
    let mut agree = 0;
    let mut logits = s.prefill(prompt).expect("prefill runs");
    let steps = CFG.seq - PROMPT_LEN;
    let (c0, b0) = alloc_counts();
    for &tok in &f32_tokens[..steps] {
        agree += usize::from(argmax(logits.data()) == tok);
        logits = s.step(tok).expect("step runs");
    }
    let (c1, b1) = alloc_counts();
    values.set("nn.allocs_per_step", (c1 - c0) as f64 / steps as f64);
    values.set("nn.alloc_bytes_per_step", (b1 - b0) as f64 / steps as f64);
    values.set("nn.kv_greedy_agreement", agree as f64 / steps as f64);
    *model = Some(s.into_model());

    let traced_mark = ctx.yard.mark();
    let tracer = Tracer::install();
    let site = Site::new(Some(&tracer));
    let t = timed(ctx, model, prompt, &reference.tokens, ctx.traced(), &site);
    let trace = tracer.finish();
    assert_eq!(t.mismatched_sessions, 0, "tracing changed a token stream");
    let traced_factor = ctx.yard.factor_since(traced_mark).0;
    values.set_opt(
        "nn.prefill_ms",
        trace.durs_ms("decode.prefill").and_then(|v| mean(&v)),
    );
    if let (Some(by_kind), Some(total)) = (trace.op_ms_by_kind(), trace.total_ms("bench.prefill")) {
        // `op` spans exist in the prefill only; the step schedule has none.
        set_op_shares(values, by_kind, total);
    }
    if let (Some(tr), Some(un)) = (t.rounds.median_of(median), values.get("op_p50_ms")) {
        values.set("trace.overhead_frac", tr * traced_factor / un - 1.0);
    }
    notes.push(format!("traced_sessions {}", t.sessions));
    ctx.finish_trace(&trace, values, notes);

    let cfg = &model.as_ref().expect("model present").config;
    probes::replay_all(values, ctx.replay_each(), ctx.seed, cfg);

    // The kernels of one step, replayed alone: per layer four d×d
    // projections, the two FFN linears and one attention step at the mean
    // cache length; then the vocabulary head.
    let mut rng = Rng::new(ctx.seed ^ 0xf100);
    let each = ctx.replay_each();
    let (d, h) = (CFG.d, CFG.d * CFG.ffn_mult);
    let mean_len = (PROMPT_LEN + CFG.seq) / 2;
    let floor = CFG.layers as f64
        * (4.0 * probes::linear_m1_secs(&mut rng, d, d, each)
            + probes::linear_m1_secs(&mut rng, d, h, each)
            + probes::linear_m1_secs(&mut rng, h, d, each)
            + probes::attn_step_secs(&mut rng, d, CFG.heads, mean_len, each))
        + probes::linear_m1_secs(&mut rng, d, CFG.vocab, each);
    values.set("nn.step_kernel_floor_us", floor * 1e6);
    if let Some(step_ms) = mean(&untraced.rounds.all()) {
        values.set("nn.step_overhead_frac", 1.0 - floor * 1e3 / step_ms);
    }
}
