//! Concurrency suite for the serving engine: N client threads × mixed
//! shapes × a deadline mix, checking the three serving invariants:
//!
//! 1. **Exactly-once delivery** — every admitted request gets exactly one
//!    reply (no lost tickets, no cross-wired responses).
//! 2. **Bit-identity** — a served response is bit-identical to a direct
//!    `ExecPlan::run` of the same request against the same model.
//! 3. **Typed failures** — backpressure and deadline shedding surface as
//!    `QueueFull` / `DeadlineExceeded`, never as panics or hangs.

use std::sync::Arc;
use std::time::Duration;

use ptq_core::{
    EngineSpec, PtqArtifact, PtqSession, QuantConfig, QuantizedModel, ServeSpec, UnwrapOk,
    MAX_WORKERS,
};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo, Workload, ZooFilter};
use ptq_serve::{Engine, ServeError};
use ptq_tensor::Tensor;

fn quantized_workload() -> (Workload, QuantizedModel) {
    let mut zoo = build_zoo(ZooFilter::Quick);
    let w = zoo.remove(0);
    let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&w)
        .unwrap_ok();
    (w, out.model)
}

/// Reference answer: run `inputs` directly (no engine) through a model's
/// plan cache with its quantized hook.
fn direct_run(model: &QuantizedModel, inputs: &[Tensor]) -> Vec<Tensor> {
    let mut hook = model.hook();
    model.plans.run(&model.graph, inputs, &mut hook).unwrap_ok()
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: output arity");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.shape(), y.shape(), "{what}: output {i} shape");
        for (j, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: output {i} element {j} diverged ({p} vs {q})"
            );
        }
    }
}

/// A batch-1 variant of an eval sample: the first row of every input
/// tensor. Gives the suite a second, smaller request shape that runs
/// through a different `ExecPlan`.
fn batch1_variant(inputs: &[Tensor]) -> Vec<Tensor> {
    inputs
        .iter()
        .map(|t| {
            let n = t.shape().first().copied().unwrap_or(1).max(1);
            let row = t.len() / n;
            let mut shape = t.shape().to_vec();
            if let Some(d0) = shape.first_mut() {
                *d0 = 1;
            }
            Tensor::from_vec(t.data()[..row].to_vec(), &shape)
        })
        .collect()
}

fn spec_with(model: &QuantizedModel, tweak: impl FnOnce(&mut ServeSpec)) -> EngineSpec {
    let mut spec = EngineSpec::from_config(&model.config);
    tweak(&mut spec.serving);
    spec
}

#[test]
fn served_responses_are_bit_identical_to_direct_runs() {
    let (w, model) = quantized_workload();
    let reference = model.clone();
    let spec = spec_with(&model, |s| s.workers = 2);
    let engine = Engine::new(model, &spec).unwrap();

    // Submit every eval sample, then redeem in order: two workers racing
    // down the queue must not change a single bit of any response.
    let tickets: Vec<_> = w
        .eval
        .iter()
        .map(|sample| engine.submit(sample.clone()).unwrap())
        .collect();
    for (sample, ticket) in w.eval.iter().zip(tickets) {
        let got = ticket.wait().unwrap();
        let want = direct_run(&reference, sample);
        assert_bit_identical(&got, &want, "served vs direct");
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, w.eval.len() as u64);
    assert_eq!(stats.shed + stats.rejected + stats.failed, 0);
    assert_eq!(stats.batches, stats.completed, "one dispatch per request");
}

#[test]
fn concurrent_clients_with_mixed_shapes_lose_and_duplicate_nothing() {
    let (w, model) = quantized_workload();
    let reference = model.clone();
    let spec = spec_with(&model, |s| {
        s.queue_capacity = 1024;
        s.workers = 3;
    });
    let engine = Arc::new(Engine::new(model, &spec).unwrap());

    // Two request shapes: the eval shape and its batch-1 slice. Validate
    // the mixed shape directly first so the suite can't pass vacuously.
    let small = batch1_variant(&w.eval[0]);
    let small_want = direct_run(&reference, &small);
    assert!(!small_want.is_empty());

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 8;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let reference = &reference;
            let eval = &w.eval;
            let small = &small;
            let small_want = &small_want;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    // Interleave shapes per client so the queue holds a mix.
                    if (c + i) % 3 == 0 {
                        let got = engine.submit(small.clone()).unwrap().wait().unwrap();
                        assert_bit_identical(&got, small_want, "mixed small shape");
                    } else {
                        let sample = &eval[(c * PER_CLIENT + i) % eval.len()];
                        let got = engine.submit(sample.clone()).unwrap().wait().unwrap();
                        let want = direct_run(reference, sample);
                        assert_bit_identical(&got, &want, "mixed eval shape");
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.submitted,
        (CLIENTS * PER_CLIENT) as u64,
        "every submit admitted"
    );
    assert_eq!(
        stats.completed, stats.submitted,
        "exactly-once: every admitted request answered"
    );
    assert_eq!(stats.shed + stats.rejected + stats.failed, 0);
    assert_eq!(engine.queue_depth(), 0, "queue drained");
}

#[test]
fn expired_deadlines_shed_with_typed_errors_while_live_requests_complete() {
    let (w, model) = quantized_workload();
    let reference = model.clone();
    let spec = spec_with(&model, |s| s.workers = 2);
    let engine = Engine::new(model, &spec).unwrap();

    // Zero-budget requests are expired the moment a worker looks at the
    // queue, whatever the timing: shedding runs under the dispatch lock
    // before any pop. They must come back as DeadlineExceeded without
    // consuming compute, and must not disturb the live requests queued
    // around them.
    let mut live = Vec::new();
    let mut doomed = Vec::new();
    for (i, sample) in w.eval.iter().enumerate() {
        if i % 2 == 0 {
            live.push((
                sample,
                engine.submit_with_deadline(sample.clone(), None).unwrap(),
            ));
        } else {
            doomed.push(
                engine
                    .submit_with_deadline(sample.clone(), Some(Duration::ZERO))
                    .unwrap(),
            );
        }
    }
    for (sample, ticket) in live {
        let got = ticket.wait().unwrap();
        assert_bit_identical(&got, &direct_run(&reference, sample), "live request");
    }
    let n_doomed = doomed.len();
    for ticket in doomed {
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { budget_us, .. }) => assert_eq!(budget_us, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.shed, n_doomed as u64);
    assert_eq!(stats.completed + stats.shed, stats.submitted);
    assert_eq!(stats.failed, 0);
}

#[test]
fn bounded_queue_rejects_a_burst_with_queue_full() {
    let (w, model) = quantized_workload();
    // One worker behind a queue of 3: submits cost microseconds, a forward
    // costs far more, so a burst outruns the worker and overflows the queue.
    let spec = spec_with(&model, |s| {
        s.queue_capacity = 3;
        s.workers = 1;
    });
    let engine = Engine::new(model, &spec).unwrap();

    const BURST: usize = 256;
    let burst = vec![w.eval[0].clone(); BURST];
    let mut admitted = Vec::new();
    for sample in burst {
        match engine.submit(sample) {
            Ok(ticket) => admitted.push(ticket),
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 3),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert!(stats.rejected >= 1, "the burst never filled the queue");
    assert_eq!(stats.submitted, admitted.len() as u64);
    assert_eq!(stats.submitted + stats.rejected, BURST as u64);

    // Shutdown drains the queue; the admitted requests still complete
    // exactly once.
    drop(engine);
    for t in admitted {
        assert!(t.wait().is_ok(), "admitted requests survive shutdown");
    }
}

#[test]
fn shutdown_drains_admitted_requests_and_refuses_new_ones() {
    let (w, model) = quantized_workload();
    let spec = spec_with(&model, |s| s.workers = 2);
    let engine = Engine::new(model, &spec).unwrap();
    let tickets: Vec<_> = w
        .eval
        .iter()
        .map(|s| engine.submit(s.clone()).unwrap())
        .collect();
    engine.shutdown();
    for t in tickets {
        assert!(
            t.wait().is_ok(),
            "every admitted request is answered before workers exit"
        );
    }
}

#[test]
fn engine_spec_serving_knobs_reach_the_engine() {
    let (w, model) = quantized_workload();
    let spec = spec_with(&model, |s| {
        s.queue_capacity = 17;
        s.default_deadline_ms = Some(9);
        s.workers = 2;
    });
    let engine = Engine::new(model, &spec).unwrap();
    assert_eq!(engine.spec().queue_capacity, 17);
    assert_eq!(engine.spec().default_deadline_ms, Some(9));

    // One dispatch per request: there is no batcher to make them differ.
    let tickets: Vec<_> = w
        .eval
        .iter()
        .map(|s| engine.submit_with_deadline(s.clone(), None).unwrap())
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, w.eval.len() as u64);
    assert_eq!(stats.batches, stats.completed);
}

#[test]
fn a_worker_count_past_the_bound_is_refused_before_any_thread_starts() {
    let (_, model) = quantized_workload();
    let art = PtqArtifact {
        model: model.clone(),
        thresholds: Default::default(),
        serving: ServeSpec::default(),
    };
    // `usize::MAX` first: without the check, its handle `Vec` overflows
    // capacity (and 2^53's aborts) before 10^5 threads could be spawned.
    for workers in [usize::MAX, 1 << 53, 100_000] {
        let spec = spec_with(&model, |s| s.workers = workers);
        let mut bad = art.clone();
        bad.serving = spec.serving.clone();
        for (from, got) in [
            ("Engine::new", Engine::new(model.clone(), &spec).err()),
            ("Engine::from_artifact", Engine::from_artifact(&bad).err()),
        ] {
            match got {
                Some(ServeError::InvalidSpec(e)) => {
                    assert!(e.to_string().contains("serving.workers"), "{from}: {e}")
                }
                other => panic!("{from} with {workers} workers: got {other:?}"),
            }
        }
    }
    const { assert!(MAX_WORKERS < 100_000) };
}

/// Every numeric field of the spec JSON at −1, 0, 1.5, 2^53 and 1e308 (the
/// all-knobs spec, its workers at the default 0): a typed error, or a spec
/// whose engine starts at most the default worker count — checked before
/// it is built, so no case starts more threads than that.
#[test]
fn every_numeric_spec_field_at_an_extreme_is_typed_or_bounded() {
    let (_, model) = quantized_workload();
    let golden = include_str!("../../../tests/golden/engine_spec_all_knobs.json");
    let base = golden.replacen("\"workers\": 4", "\"workers\": 0", 1);
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        "\"smoothquant_alpha\": 0.5",
        "\"percentile\": 0.9999",
        "\n      1,",
        "\"per-tile\": 64",
        "\"queue_capacity\": 64",
        "\"default_deadline_ms\": 25",
        "\"workers\": 0",
    ];
    for field in fields {
        assert!(base.contains(field), "{field} is in the spec");
        let (key, _) = field.rsplit_once(' ').unwrap_or((field, ""));
        for value in ["-1", "0", "1.5", "9007199254740992", "1e308"] {
            let edited = match field.strip_suffix(',') {
                Some(_) => base.replacen(field, &format!("\n      {value},"), 1),
                None => base.replacen(field, &format!("{key} {value}"), 1),
            };
            let Ok(spec) = EngineSpec::from_json(&edited) else {
                continue; // a typed PtqError
            };
            let workers = match spec.serving.workers {
                0 => default,
                n => n,
            };
            if workers > default {
                assert!(
                    spec.serving.validate().is_err(),
                    "{field} = {value}: {workers} workers"
                );
                continue;
            }
            match Engine::new(model.clone(), &spec) {
                Ok(engine) => engine.shutdown(),
                Err(e) => panic!("{field} = {value}: a parsed spec failed to build: {e}"),
            }
        }
    }
}
