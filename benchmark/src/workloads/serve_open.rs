//! `serve_open`: forward_nlp's model cold-started with
//! `Engine::from_artifact` under the default `ServeSpec`. The op is one
//! request. Phase A is an open loop, seeded Poisson arrivals at 60 req/s
//! (about 0.3 of capacity on 2 cores); phase B the same at 120 req/s;
//! phase C a closed loop holding 16 requests in flight.
//!
//! Open-loop latency runs from the request's *due* time to its reply, so
//! a stalled generator shows as latency, and the worst generator lateness
//! is reported. One collector thread redeems tickets in submission order:
//! a reply that overtakes an earlier one is timestamped when the earlier
//! one has been redeemed, late by at most the reordering between two
//! workers.

use super::forward::forward;
use super::{
    engine_conserves, models, outcome, recipe, set_end_to_end, set_op_shares, timed_setup, Ctx,
    EndToEnd,
};
use crate::measure::{
    bit_hash, fenced, mean, median, ms, nproc, percentile, Rng, Yardstick, ROUNDS,
};
use crate::probes;
use crate::report::{Outcome, Values};
use crate::spans::Tracer;
use ptq_core::{PtqArtifact, PtqSession};
use ptq_serve::{Engine, EngineStats, Ticket};
use ptq_tensor::Tensor;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const RATE_A: f64 = 60.0;
const RATE_B: f64 = 120.0;
const IN_FLIGHT_C: usize = 16;
/// Shares of the phase budget.
const SHARE_A: f64 = 0.40;
const SHARE_B: f64 = 0.25;
const SHARE_C: f64 = 0.35;
/// Cold starts (load → engine → first reply) per phase-A round.
const COLD_PER_ROUND: usize = 6;
const LADDER: [f64; 6] = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0];
const SLO_P95_MS: f64 = 50.0;

struct State {
    pool: Vec<Vec<Tensor>>,
    path: PathBuf,
    art: PtqArtifact,
    engine: Engine,
}

fn setup(ctx: &Ctx) -> State {
    let w = models::encoder();
    let path = ctx.artifact_path("serve");
    PtqSession::new(recipe(&w))
        .save_artifact(&w, &path)
        .expect("the encoder quantizes and saves");
    let art = PtqArtifact::load(&path).expect("the artifact just saved loads");
    let engine = Engine::from_artifact(&art).expect("the engine starts");
    // One request per pool sample builds the engine's plan and warms
    // every worker's arena.
    let warm: Vec<Ticket> = w
        .eval
        .iter()
        .map(|s| engine.submit(s.clone()).expect("warm-up request admitted"))
        .collect();
    for t in warm {
        t.wait().expect("warm-up request answered");
    }
    State {
        pool: w.eval,
        path,
        art,
        engine,
    }
}

/// Load → engine → first reply, in ms, and whether the reply was right.
fn cold_start(state: &State, expected: &[u64]) -> (f64, bool) {
    let t0 = Instant::now();
    let reply = PtqArtifact::load(&state.path)
        .ok()
        .and_then(|art| Engine::from_artifact(&art).ok())
        .and_then(|engine| {
            let out = engine.submit(state.pool[0].clone()).ok()?.wait().ok();
            let t = ms(t0.elapsed());
            // Shutdown (thread joins) is not part of reaching the reply.
            drop(engine);
            out.map(|o| (t, bit_hash(o[0].data()) == expected[0]))
        });
    reply.unwrap_or((ms(t0.elapsed()), false))
}

/// One finished request: when it was due (or sent, closed loop), when
/// its reply was redeemed, whether the reply was right.
struct Done {
    due: Instant,
    done: Instant,
    ok: bool,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }
}

#[derive(Default)]
struct PhaseRound {
    done: Vec<Done>,
    refused: u64,
    late_max_ms: f64,
    /// Queue depth when the last request had been sent.
    backlog: usize,
    /// Wall and CPU time of the round.
    wall: Duration,
    cpu_s: f64,
}

fn redeem(ticket: Ticket, due: Instant, want: u64) -> Done {
    let reply = ticket.wait();
    Done {
        due,
        done: Instant::now(),
        ok: reply.is_ok_and(|o| bit_hash(o[0].data()) == want),
    }
}

/// Open loop at `rate` for `len`: this thread sends on schedule, a
/// collector thread redeems.
fn open_round(
    state: &State,
    expected: &[u64],
    rate: f64,
    len: Duration,
    rng: &mut Rng,
) -> PhaseRound {
    let mut r = PhaseRound::default();
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(Ticket, Instant, u64)>();
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(t, due, want)| redeem(t, due, want))
                .collect::<Vec<Done>>()
        });
        let mut due = start;
        while due < start + len {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let i = rng.below(state.pool.len());
            let late = ms(Instant::now().saturating_duration_since(due));
            r.late_max_ms = r.late_max_ms.max(late);
            match state.engine.submit(state.pool[i].clone()) {
                Ok(t) => tx.send((t, due, expected[i])).expect("collector is alive"),
                Err(_) => r.refused += 1,
            }
            due += rng.exp_gap(rate);
        }
        r.backlog = state.engine.queue_depth();
        drop(tx);
        r.done = collector.join().expect("collector does not panic");
    });
    r
}

/// Closed loop: keep `IN_FLIGHT_C` requests outstanding for `len`, then
/// drain.
fn closed_round(state: &State, expected: &[u64], len: Duration, rng: &mut Rng) -> PhaseRound {
    let mut r = PhaseRound::default();
    let start = Instant::now();
    let mut flight: VecDeque<(Ticket, Instant, u64)> = VecDeque::new();
    loop {
        let sending = start.elapsed() < len;
        while sending && flight.len() < IN_FLIGHT_C {
            let i = rng.below(state.pool.len());
            let sent = Instant::now();
            match state.engine.submit(state.pool[i].clone()) {
                Ok(t) => flight.push_back((t, sent, expected[i])),
                Err(_) => r.refused += 1,
            }
        }
        match flight.pop_front() {
            Some((t, sent, want)) => r.done.push(redeem(t, sent, want)),
            None => break,
        }
    }
    r
}

/// The three phases, `ROUNDS` rounds each.
#[derive(Default)]
struct Phases {
    a: Vec<PhaseRound>,
    b: Vec<PhaseRound>,
    c: Vec<PhaseRound>,
    mean_batch_a: Option<f64>,
    mean_batch_c: Option<f64>,
}

fn mean_batch(before: EngineStats, after: EngineStats) -> Option<f64> {
    let batches = after.batches - before.batches;
    (batches > 0).then(|| (after.completed - before.completed) as f64 / batches as f64)
}

/// Run `round` with the yardstick sampled before and after it.
fn fenced_round(yard: &Yardstick, round: impl FnOnce() -> PhaseRound) -> PhaseRound {
    let (mut r, f) = fenced(yard, round);
    (r.wall, r.cpu_s) = (f.wall, f.cpu_s);
    r
}

fn run_phases(
    ctx: &Ctx,
    state: &State,
    expected: &[u64],
    budget: Duration,
    rng: &mut Rng,
    mut before_a_round: impl FnMut(),
) -> Phases {
    let mut p = Phases::default();
    let round = |share: f64| budget.mul_f64(share / ROUNDS as f64);
    let s0 = state.engine.stats();
    for _ in 0..ROUNDS {
        before_a_round();
        p.a.push(fenced_round(&ctx.yard, || {
            open_round(state, expected, RATE_A, round(SHARE_A), rng)
        }));
    }
    let s1 = state.engine.stats();
    for _ in 0..ROUNDS {
        p.b.push(fenced_round(&ctx.yard, || {
            open_round(state, expected, RATE_B, round(SHARE_B), rng)
        }));
    }
    let s2 = state.engine.stats();
    for _ in 0..ROUNDS {
        p.c.push(fenced_round(&ctx.yard, || {
            closed_round(state, expected, round(SHARE_C), rng)
        }));
    }
    p.mean_batch_a = mean_batch(s0, s1);
    p.mean_batch_c = mean_batch(s2, state.engine.stats());
    p
}

fn latencies(rounds: &[PhaseRound]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.done.iter().map(Done::latency_ms))
        .collect()
}

/// Median over rounds of each round's median latency.
fn p50_over_rounds(rounds: &[PhaseRound]) -> Option<f64> {
    let per: Vec<f64> = rounds
        .iter()
        .filter_map(|r| median(&r.done.iter().map(Done::latency_ms).collect::<Vec<_>>()))
        .collect();
    median(&per)
}

fn tally(rounds: &[PhaseRound]) -> (u64, u64) {
    let sent: u64 = rounds.iter().map(|r| r.done.len() as u64 + r.refused).sum();
    let bad: u64 = rounds
        .iter()
        .map(|r| r.refused + r.done.iter().filter(|d| !d.ok).count() as u64)
        .sum();
    (sent, bad)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = timed_setup(ctx, || setup(ctx));
    // Oracle: a direct `plans.run` of every pool sample on the loaded model.
    let expected: Vec<u64> = state
        .pool
        .iter()
        .map(|s| {
            bit_hash(
                forward(&state.art.model, s)
                    .expect("oracle forward runs")
                    .data(),
            )
        })
        .collect();
    let mut rng = Rng::new(ctx.seed);
    let mut values = Values::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mark = ctx.yard.mark();
    let mut cold = Vec::new();
    let phases = run_phases(ctx, &state, &expected, ctx.untraced(), &mut rng, || {
        for _ in 0..COLD_PER_ROUND {
            let (t, ok) = cold_start(&state, &expected);
            cold.push(t);
            attempted += 1;
            failed += u64::from(!ok);
        }
    });
    let mut requests = 0;
    for (name, rounds) in [("A", &phases.a), ("B", &phases.b), ("C", &phases.c)] {
        let (sent, bad) = tally(rounds);
        notes.push(format!(
            "phase_{name} sent {sent} succeeded {} failed {bad}",
            sent - bad
        ));
        requests += sent;
        attempted += sent;
        failed += bad;
    }
    let all_rounds = || phases.a.iter().chain(&phases.b).chain(&phases.c);
    let sat: Vec<f64> = phases
        .c
        .iter()
        .map(|r| r.done.len() as f64 / r.wall.as_secs_f64())
        .collect();
    let serve_p50 = p50_over_rounds(&phases.a);
    let raw = EndToEnd {
        op_p50_ms: serve_p50,
        ops_per_s: median(&sat),
        first_op_ms: median(&cold),
        cpu_s: all_rounds().map(|r| r.cpu_s).sum(),
        ops: requests,
    };
    set_end_to_end(ctx, &mut values, &mut notes, mark, setup_s, raw);
    values.set_opt("serve_p50_ms", serve_p50);
    values.set_opt("serve_sat_rps", median(&sat));

    if ctx.trace {
        let cpu: f64 = all_rounds().map(|r| r.cpu_s).sum();
        let wall: f64 = all_rounds().map(|r| r.wall.as_secs_f64()).sum();
        values.set("serve.cpu_util", cpu / (wall * nproc() as f64));
        traced(
            ctx,
            &state,
            &expected,
            &phases,
            &mut rng,
            &mut values,
            &mut notes,
        );
    }

    // Conservation at quiesce, over everything this engine was sent.
    attempted += 1;
    failed += u64::from(!engine_conserves(ctx, &mut values, &state.engine.stats()));
    outcome(values, attempted, failed, notes)
}

fn traced(
    ctx: &Ctx,
    state: &State,
    expected: &[u64],
    untraced: &Phases,
    rng: &mut Rng,
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    // Tails and the second rate: reported, not gated — on a shared
    // 2-core box they do not repeat within a tenth.
    let (a, b) = (latencies(&untraced.a), latencies(&untraced.b));
    values.set_opt("serve.p95_ms_r60", percentile(&a, 0.95));
    values.set_opt("serve.p99_ms_r60", percentile(&a, 0.99));
    values.set_opt("serve.p50_ms_r120", percentile(&b, 0.50));
    values.set_opt("serve.p95_ms_r120", percentile(&b, 0.95));
    values.set_opt("serve.p99_ms_r120", percentile(&b, 0.99));
    values.set_opt("serve.mean_batch_r60", untraced.mean_batch_a);
    values.set_opt("serve.mean_batch_sat", untraced.mean_batch_c);
    let late = untraced.a.iter().chain(&untraced.b).map(|r| r.late_max_ms);
    values.set_opt("serve.gen_late_max_ms", late.reduce(f64::max));
    notes.push(format!("latency_samples r60 {} r120 {}", a.len(), b.len()));

    // The same model called directly in this process: what the engine adds.
    let direct: Vec<f64> = (0..100)
        .map(|i| {
            let t0 = Instant::now();
            forward(&state.art.model, &state.pool[i % state.pool.len()]);
            ms(t0.elapsed())
        })
        .collect();
    if let (Some(p50), Some(d)) = (values.get("serve_p50_ms"), median(&direct)) {
        values.set("serve.overhead_ms", p50 - d);
    }

    // Traced phases: `bench.request` from due time to redeemed reply.
    let traced_mark = ctx.yard.mark();
    let tracer = Tracer::install();
    let collector_thread = tracer.thread_tag();
    let t0 = tracer.now_ns();
    let phases = run_phases(ctx, state, expected, ctx.traced(), rng, || {});
    let mut a_window = (u64::MAX, 0);
    for (phase, rounds) in [(0, &phases.a), (1, &phases.b), (2, &phases.c)] {
        for d in rounds.iter().flat_map(|r| &r.done) {
            let (start, end) = (tracer.ns_of(d.due), tracer.ns_of(d.done));
            tracer.record(
                "bench.request",
                collector_thread,
                tracer.next_id(),
                0,
                start,
                end,
            );
            if phase == 0 {
                a_window = (a_window.0.min(start), a_window.1.max(end));
            }
        }
    }
    let trace = tracer.finish();
    let in_a = trace.window(a_window.0.max(t0), a_window.1);
    let exec = in_a.durs_ms("serve.batch").and_then(|v| mean(&v));
    values.set_opt("serve.batch_exec_ms", exec);
    // Approximate: mean latency minus mean batch execution; a request's
    // own batch is not identifiable without ids in the program's spans.
    if let (Some(lat), Some(exec)) = (mean(&latencies(&phases.a)), exec) {
        values.set("serve.queue_wait_ms", (lat - exec).max(0.0));
    }
    // A batch's requests run on parallel threads, so `op` time can exceed
    // the batch's wall time: shares are of the total `op` time here.
    if let Some(by_kind) = trace.op_ms_by_kind() {
        let total: f64 = by_kind.iter().sum();
        set_op_shares(values, by_kind, total);
    }
    let traced_p50 = p50_over_rounds(&phases.a).map(|m| m * ctx.yard.factor_since(traced_mark).0);
    if let (Some(t), Some(u)) = (traced_p50, values.get("op_p50_ms")) {
        values.set("trace.overhead_frac", t / u - 1.0);
    }
    ctx.finish_trace(&trace, values, notes);

    // The rate ladder: highest fixed rate that meets the latency limit
    // with nothing refused and no backlog left growing.
    let step = Duration::from_secs_f64(ctx.seconds * 0.04);
    let mut slo_max = None;
    for rate in LADDER {
        let r = open_round(state, expected, rate, step, rng);
        let lat: Vec<f64> = r.done.iter().map(Done::latency_ms).collect();
        let p95 = percentile(&lat, 0.95).unwrap_or(f64::INFINITY);
        let met = p95 <= SLO_P95_MS && r.refused == 0 && r.backlog < IN_FLIGHT_C;
        notes.push(format!(
            "ladder rate {rate} sent {} p95_ms {p95:.2} backlog {} met {met}",
            lat.len(),
            r.backlog
        ));
        if met {
            slo_max = Some(rate);
        }
    }
    values.set_opt("serve.slo_max_rps", slo_max);

    probes::replay_all(values, ctx.replay_each(), ctx.seed, &state.art.model.config);
}
