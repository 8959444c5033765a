//! `decode_streams`: 8 concurrent greedy generations through
//! `Engine::generate` over a GPT-like decoder (d 128, window 64, f32 KV):
//! prompt 8 tokens, 56 new tokens each, prompts drawn from a seeded pool
//! of 16. The op is one generated token; `ops_per_s` is the aggregate
//! token rate, `op_p50_ms` the median gap between consecutive tokens of a
//! stream, `first_op_ms` the time from the `generate` call to a stream's
//! first token.
//!
//! One thread drains the 8 blocking `GenTicket`s round-robin, so a token
//! is timestamped when the drain reaches its stream: a gap or a first
//! token can read late by at most one engine step per other stream ahead
//! of it in the ring.

use super::decode_long::session;
use super::models::DECODER_STREAMS as CFG;
use super::{
    engine_conserves, models, outcome, recipe, set_end_to_end, timed_setup, Ctx, EndToEnd,
};
use crate::measure::{fenced, mean, median, ms, nproc, percentile, Rng, ROUNDS};
use crate::probes;
use crate::report::{Outcome, Values};
use crate::spans::{Site, Tracer};
use ptq_core::{PtqArtifact, PtqSession};
use ptq_serve::{Engine, GenTicket};
use std::time::{Duration, Instant};

const STREAMS: usize = 8;
const PROMPT_LEN: usize = 8;
const NEW_TOKENS: usize = 56;
const POOL: usize = 16;

struct State {
    art: PtqArtifact,
    engine: Engine,
}

fn generate(engine: &Engine, prompt: &[f32]) -> GenTicket {
    engine
        .generate(prompt.to_vec(), NEW_TOKENS, CFG.seq)
        .expect("generation admitted")
}

fn setup(ctx: &Ctx) -> State {
    let w = models::decoder(&CFG);
    let path = ctx.artifact_path("decode_streams");
    PtqSession::new(recipe(&w))
        .save_artifact(&w, &path)
        .expect("the decoder quantizes and saves");
    let art = PtqArtifact::load(&path).expect("the artifact just saved loads");
    let engine = Engine::from_artifact(&art).expect("the engine starts");
    // A full ring of streams plans decoding and warms every worker.
    let warm: Vec<f32> = (0..PROMPT_LEN).map(|i| (i % CFG.vocab) as f32).collect();
    let tickets: Vec<GenTicket> = (0..STREAMS).map(|_| generate(&engine, &warm)).collect();
    for t in tickets {
        t.collect().expect("warm-up stream completes");
    }
    State { art, engine }
}

struct Stream {
    ticket: GenTicket,
    prompt: usize,
    started: Instant,
    last: Instant,
    tokens: Vec<f32>,
    span_id: u64,
}

#[derive(Default)]
struct Round {
    gaps: Vec<f64>,
    ttft: Vec<f64>,
    totals: Vec<f64>,
    tokens: u64,
    streams: u64,
    bad_streams: u64,
    /// Wall and CPU time of the round.
    wall: Duration,
    cpu_s: f64,
}

/// Keep `STREAMS` generations in flight for `len`, then drain.
fn round(
    state: &State,
    prompts: &[Vec<f32>],
    expected: &[Vec<f32>],
    len: Duration,
    rng: &mut Rng,
    site: &Site,
) -> Round {
    let mut r = Round::default();
    let start = Instant::now();
    let open = |rng: &mut Rng| {
        let prompt = rng.below(prompts.len());
        let started = Instant::now();
        Stream {
            ticket: generate(&state.engine, &prompts[prompt]),
            prompt,
            started,
            last: started,
            tokens: Vec::with_capacity(NEW_TOKENS),
            span_id: site.next_id(),
        }
    };
    let mut ring: Vec<Option<Stream>> = (0..STREAMS).map(|_| Some(open(rng))).collect();
    while ring.iter().any(Option::is_some) {
        for slot in &mut ring {
            let Some(s) = slot else { continue };
            match s.ticket.next() {
                Some(Ok(tok)) => {
                    let now = Instant::now();
                    let since = ms(now - s.last);
                    if let Some(tr) = site.tracer {
                        let name = if s.tokens.is_empty() {
                            "bench.prefill"
                        } else {
                            "bench.step"
                        };
                        let parent = if s.tokens.is_empty() { 0 } else { s.span_id };
                        let id = if s.tokens.is_empty() {
                            s.span_id
                        } else {
                            tr.next_id()
                        };
                        tr.record(
                            name,
                            site.thread,
                            id,
                            parent,
                            tr.ns_of(s.last),
                            tr.ns_of(now),
                        );
                    }
                    if s.tokens.is_empty() {
                        r.ttft.push(since);
                    } else {
                        r.gaps.push(since);
                    }
                    s.tokens.push(tok);
                    s.last = now;
                }
                ended => {
                    // `None` closes a finished stream; an error ends it too.
                    r.streams += 1;
                    r.tokens += s.tokens.len() as u64;
                    r.bad_streams += u64::from(ended.is_some() || s.tokens != expected[s.prompt]);
                    r.totals.push(ms(s.last - s.started));
                    *slot = (start.elapsed() < len).then(|| open(rng));
                }
            }
        }
    }
    r
}

#[allow(clippy::too_many_arguments)]
fn rounds(
    ctx: &Ctx,
    state: &State,
    prompts: &[Vec<f32>],
    expected: &[Vec<f32>],
    budget: Duration,
    rng: &mut Rng,
    site: &Site,
) -> Vec<Round> {
    (0..ROUNDS)
        .map(|_| {
            let len = budget / ROUNDS as u32;
            let (mut r, f) = fenced(&ctx.yard, || {
                round(state, prompts, expected, len, rng, site)
            });
            (r.wall, r.cpu_s) = (f.wall, f.cpu_s);
            r
        })
        .collect()
}

/// Median over rounds of a round's statistic.
fn over(rounds: &[Round], stat: impl Fn(&Round) -> Option<f64>) -> Option<f64> {
    median(&rounds.iter().filter_map(stat).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = timed_setup(ctx, || setup(ctx));
    let mut rng = Rng::new(ctx.seed);
    let prompts: Vec<Vec<f32>> = (0..POOL)
        .map(|_| rng.token_ids(PROMPT_LEN, CFG.vocab))
        .collect();
    // Oracle: each prompt decoded alone by a `DecodeSession`.
    let off = Site::new(None);
    let mut solo_model = Some(state.art.model.clone());
    let mut solo_gaps = Vec::new();
    let mut kv_bytes = 0;
    let expected: Vec<Vec<f32>> = prompts
        .iter()
        .map(|p| {
            let m = solo_model.take().expect("model handed back");
            let (m, s) = session(m, CFG.seq, p, NEW_TOKENS, &off);
            solo_model = Some(m);
            solo_gaps.extend(s.gaps_ms);
            kv_bytes = s.cache_bytes;
            s.tokens
        })
        .collect();
    let mut values = Values::default();
    let mut notes = Vec::new();

    let mark = ctx.yard.mark();
    let rs = rounds(
        ctx,
        &state,
        &prompts,
        &expected,
        ctx.untraced(),
        &mut rng,
        &off,
    );
    let tokens: u64 = rs.iter().map(|r| r.tokens).sum();
    let streams: u64 = rs.iter().map(|r| r.streams).sum();
    let bad: u64 = rs.iter().map(|r| r.bad_streams).sum();
    let tok_per_s = over(&rs, |r| Some(r.tokens as f64 / r.wall.as_secs_f64()));
    let itl_p50 = over(&rs, |r| median(&r.gaps));
    let ttft = over(&rs, |r| median(&r.ttft));
    let raw = EndToEnd {
        op_p50_ms: itl_p50,
        ops_per_s: tok_per_s,
        first_op_ms: ttft,
        cpu_s: rs.iter().map(|r| r.cpu_s).sum(),
        ops: tokens,
    };
    set_end_to_end(ctx, &mut values, &mut notes, mark, setup_s, raw);
    values.set_opt("itl_p50_ms", itl_p50);
    values.set_opt("itl_p99_ms", over(&rs, |r| percentile(&r.gaps, 0.99)));
    values.set_opt("decode_tok_per_s", tok_per_s);
    values.set_opt("ttft_p50_ms", ttft);
    let gaps: usize = rs.iter().map(|r| r.gaps.len()).sum();
    notes.push(format!("streams {streams} tokens {tokens} gaps {gaps}"));

    if ctx.trace {
        let workers = nproc() as f64;
        let wall: f64 = rs.iter().map(|r| r.wall.as_secs_f64()).sum();
        let cpu: f64 = rs.iter().map(|r| r.cpu_s).sum();
        let worker_us = wall * 1e6 * workers / tokens.max(1) as f64;
        values.set("serve.gen_token_worker_us", worker_us);
        if let Some(solo_ms) = mean(&solo_gaps) {
            values.set("serve.gen_overhead_frac", 1.0 - solo_ms * 1e3 / worker_us);
            notes.push(format!(
                "solo_tok_per_s {:.0} workers {workers} ceiling_tok_per_s {:.0}",
                1e3 / solo_ms,
                1e3 / solo_ms * workers
            ));
        }
        values.set_opt(
            "serve.stream_total_p50_ms",
            over(&rs, |r| median(&r.totals)),
        );
        values.set("serve.cpu_util", cpu / (wall * workers));
        values.set(
            "nn.weight_bytes_per_token",
            state.art.model.weight_bytes() as f64,
        );
        values.set(
            "nn.kv_bytes_per_token",
            kv_bytes as f64 / (PROMPT_LEN + NEW_TOKENS) as f64,
        );

        let traced_mark = ctx.yard.mark();
        let tracer = Tracer::install();
        let site = Site::new(Some(&tracer));
        let traced = rounds(
            ctx,
            &state,
            &prompts,
            &expected,
            ctx.traced(),
            &mut rng,
            &site,
        );
        let trace = tracer.finish();
        let changed: u64 = traced.iter().map(|r| r.bad_streams).sum();
        assert_eq!(changed, 0, "tracing changed a token stream");
        values.set_opt(
            "nn.prefill_ms",
            trace.durs_ms("decode.prefill").and_then(|v| mean(&v)),
        );
        let traced_p50 =
            over(&traced, |r| median(&r.gaps)).map(|m| m * ctx.yard.factor_since(traced_mark).0);
        if let (Some(t), Some(u)) = (traced_p50, values.get("op_p50_ms")) {
            values.set("trace.overhead_frac", t / u - 1.0);
        }
        ctx.finish_trace(&trace, &mut values, &mut notes);
        probes::replay_all(
            &mut values,
            ctx.replay_each(),
            ctx.seed,
            &state.art.model.config,
        );
    }
    let conserved = engine_conserves(ctx, &mut values, &state.engine.stats());
    outcome(values, streams + 1, bad + u64::from(!conserved), notes)
}
