//! Streaming-generation suite for the serving engine: tokens produced
//! through `Engine::generate` must be bit-identical to a direct
//! `DecodeSession` greedy decode of the same model (which is itself
//! pinned bit-identical to full-window recompute under the default f32
//! KV cache), streams must terminate exactly, generation sessions must
//! interleave with — not starve — single-shot traffic, and concurrent
//! streams gathered into one step must each stay their solo decode.

use std::time::Duration;

use ptq_core::prelude::*;
use ptq_core::DecodeSession;
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo_limited, Workload, ZooFilter};
use ptq_serve::{Engine, ServeError};

/// The quick zoo's GPT-style decoder (index 6; seq = 12, vocab = 48).
const DECODER_IDX: usize = 6;
const CAPACITY: usize = 12;

fn quantized_decoder() -> (Workload, QuantizedModel) {
    let mut zoo = build_zoo_limited(ZooFilter::Quick, DECODER_IDX + 1);
    let w = zoo.remove(DECODER_IDX);
    let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&w)
        .unwrap_ok();
    (w, out.model)
}

fn spec_with(model: &QuantizedModel, tweak: impl FnOnce(&mut ServeSpec)) -> EngineSpec {
    let mut spec = EngineSpec::from_config(&model.config);
    tweak(&mut spec.serving);
    spec
}

#[test]
fn streamed_tokens_match_a_direct_decode_session_bit_for_bit() {
    let (_w, model) = quantized_decoder();
    let reference = model.clone();
    let prompt = vec![3.0, 11.0, 7.0];
    let max_new = 5;

    let mut direct = DecodeSession::new(reference, CAPACITY).unwrap_ok();
    let expected = direct.generate_greedy(&prompt, max_new).unwrap_ok();

    let spec = spec_with(&model, |s| s.workers = 2);
    let engine = Engine::new(model, &spec).unwrap();
    let served = engine
        .generate(prompt, max_new, CAPACITY)
        .unwrap()
        .collect()
        .unwrap();
    engine.shutdown();

    assert_eq!(
        served, expected,
        "served stream diverged from the direct decode session"
    );
    assert_eq!(served.len(), max_new, "stream must deliver exactly max_new");
}

#[test]
fn generation_interleaves_with_single_shot_traffic() {
    let (w, model) = quantized_decoder();
    let reference = model.clone();
    let prompt = vec![5.0, 1.0];
    // Enough steps that single-shot requests necessarily arrive while the
    // generation is resident in the queue.
    let max_new = CAPACITY - prompt.len();

    let mut direct = DecodeSession::new(reference.clone(), CAPACITY).unwrap_ok();
    let expected = direct.generate_greedy(&prompt, max_new).unwrap_ok();

    // One worker: interleaving can only happen through re-queueing.
    let spec = spec_with(&model, |s| s.workers = 1);
    let engine = Engine::new(model, &spec).unwrap();
    let stream = engine.generate(prompt, max_new, CAPACITY).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| engine.submit(w.eval[i % w.eval.len()].clone()).unwrap())
        .collect();
    for t in tickets {
        let out = t.wait().unwrap();
        assert!(!out.is_empty(), "single-shot request starved");
    }
    let served = stream.collect().unwrap();
    engine.shutdown();
    assert_eq!(served, expected, "interleaving changed the stream");
}

#[test]
fn generate_rejects_non_decoders_and_degenerate_requests_at_submit() {
    // A CNN is not a causal decoder: the planner's typed rejection must
    // surface from the `generate` call itself, not poison the stream.
    let mut zoo = build_zoo_limited(ZooFilter::Quick, 1);
    let w = zoo.remove(0);
    let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&w)
        .unwrap_ok();
    let spec = EngineSpec::from_config(&out.model.config);
    let engine = Engine::new(out.model, &spec).unwrap();
    match engine.generate(vec![1.0], 3, 8) {
        Err(ServeError::Exec(_)) => {}
        other => panic!("expected typed planner rejection, got {other:?}"),
    }
    match engine.generate(vec![1.0], 0, 8) {
        Err(ServeError::Exec(_)) => {}
        other => panic!("expected max_new=0 rejection, got {other:?}"),
    }
    engine.shutdown();

    // An empty prompt, or one longer than the window, is refused before it
    // takes a queue slot: never `submitted`, never `failed`.
    let (_w, model) = quantized_decoder();
    let engine = Engine::new(model.clone(), &spec_with(&model, |s| s.workers = 1)).unwrap();
    for prompt in [vec![], vec![1.0; CAPACITY + 1]] {
        let len = prompt.len();
        match engine.generate(prompt, 3, CAPACITY) {
            Err(ServeError::Exec(PtqError::InvalidInput { .. })) => {}
            other => panic!("expected a typed rejection of a {len}-token prompt, got {other:?}"),
        }
    }
    let full = engine.generate(vec![1.0; CAPACITY], 3, CAPACITY).unwrap();
    assert_eq!(
        full.collect().unwrap().len(),
        1,
        "a full window yields one token"
    );
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 1, 0));
    engine.shutdown();
}

#[test]
fn expired_generation_deadlines_shed_onto_the_stream() {
    let (_w, model) = quantized_decoder();
    let spec = spec_with(&model, |s| s.workers = 1);
    let engine = Engine::new(model, &spec).unwrap();
    // A zero budget expires before any step can run; the shed error must
    // arrive on the stream, then the stream must close.
    let stream = engine
        .generate_with_deadline(vec![2.0], 4, CAPACITY, Some(Duration::ZERO))
        .unwrap();
    match stream.collect() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        // Timing race: the worker may dispatch the prefill before the
        // shed pass sees the expired entry — completing is acceptable,
        // partial silent loss is not.
        Ok(tokens) => assert_eq!(tokens.len(), 4, "stream neither shed nor completed"),
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn a_prompt_token_the_model_rejects_fails_the_stream_and_is_conserved() {
    let (_w, model) = quantized_decoder();
    let reference = model.clone();
    let spec = spec_with(&model, |s| s.workers = 1);
    let engine = Engine::new(model, &spec).unwrap();
    // Out-of-vocabulary id at prompt position 2 (vocab = 48): the first
    // dispatch runs two prompt tokens, then the embedding rejects the third.
    let stream = engine
        .generate(vec![3.0, 11.0, 48.0, 7.0], 4, CAPACITY)
        .unwrap();
    match stream.next() {
        Some(Err(ServeError::Exec(PtqError::InvalidInput { .. }))) => {}
        other => panic!("expected Exec(InvalidInput) on the stream, got {other:?}"),
    }
    assert!(stream.next().is_none(), "an error ends the stream");

    // The failure poisons nothing: the next generation is the direct one.
    let prompt = vec![3.0, 11.0, 7.0];
    let mut direct = DecodeSession::new(reference, CAPACITY).unwrap_ok();
    let expected = direct.generate_greedy(&prompt, 4).unwrap_ok();
    let served = engine.generate(prompt, 4, CAPACITY).unwrap().collect();
    assert_eq!(served.unwrap(), expected);

    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.failed), (2, 1));
    assert_eq!(
        stats.submitted,
        stats.completed + stats.shed + stats.failed,
        "conservation: {stats:?}"
    );
    engine.shutdown();
}

/// Prompt `i` of a ragged family: 1 to 6 tokens.
fn ragged_prompt(i: usize) -> Vec<f32> {
    (0..1 + i % 6)
        .map(|j| ((7 * i + 3 * j) % 48) as f32)
        .collect()
}

/// Each `(prompt, max_new)` decoded alone by a `DecodeSession`.
fn solo_streams(model: &QuantizedModel, requests: &[(Vec<f32>, usize)]) -> Vec<Vec<f32>> {
    let mut direct = DecodeSession::new(model.clone(), CAPACITY).unwrap_ok();
    let solo = requests.iter().map(|(p, n)| direct.generate_greedy(p, *n));
    solo.map(UnwrapOk::unwrap_ok).collect()
}

fn assert_conserved(engine: &Engine) {
    let s = engine.stats();
    assert_eq!(
        s.submitted,
        s.completed + s.shed + s.failed,
        "conservation: {s:?}"
    );
}

#[test]
fn concurrent_streams_each_match_their_solo_session() {
    // Ragged prompts and budgets (some past the window) put the sessions at
    // different positions in every gathered step; 17 streams exceed one
    // gather's 16 rows.
    let (_w, model) = quantized_decoder();
    assert!(model.config.row_independent_acts(), "this recipe gathers");
    for streams in [3, 8, 17] {
        let requests: Vec<(Vec<f32>, usize)> = (0..streams)
            .map(|i| (ragged_prompt(i), 1 + (5 * i) % 9))
            .collect();
        let expected = solo_streams(&model, &requests);
        for workers in [1, 2] {
            let engine = Engine::new(model.clone(), &spec_with(&model, |s| s.workers = workers));
            let engine = engine.unwrap();
            let tickets: Vec<_> = requests
                .iter()
                .map(|(p, n)| engine.generate(p.clone(), *n, CAPACITY).unwrap())
                .collect();
            for (i, (t, want)) in tickets.into_iter().zip(&expected).enumerate() {
                let got = t.collect().unwrap();
                assert_eq!(
                    &got, want,
                    "{streams} streams, {workers} workers: stream {i}"
                );
            }
            let stats = engine.stats();
            assert_eq!(stats.completed, streams as u64, "{stats:?}");
            assert_conserved(&engine);
            engine.shutdown();
        }
    }
}

#[test]
fn a_dropped_ticket_in_a_gather_cancels_only_its_own_stream() {
    let (_w, model) = quantized_decoder();
    let requests: Vec<(Vec<f32>, usize)> = (0..8).map(|i| (ragged_prompt(i), 8)).collect();
    let expected = solo_streams(&model, &requests);
    let engine = Engine::new(model.clone(), &spec_with(&model, |s| s.workers = 1)).unwrap();
    let mut tickets: Vec<_> = requests
        .iter()
        .map(|(p, n)| Some(engine.generate(p.clone(), *n, CAPACITY).unwrap()))
        .collect();
    // Stream 3 reads one token, then hangs up mid-generation.
    let dropped = tickets[3].take().unwrap();
    assert_eq!(dropped.next().unwrap().unwrap(), expected[3][0]);
    drop(dropped);
    for (i, t) in tickets.into_iter().enumerate() {
        if let Some(t) = t {
            assert_eq!(t.collect().unwrap(), expected[i], "stream {i}");
        }
    }
    assert_conserved(&engine);
    engine.shutdown();
}

#[test]
fn a_zero_budget_stream_in_a_gather_is_shed_alone() {
    let (_w, model) = quantized_decoder();
    let requests: Vec<(Vec<f32>, usize)> = (0..8).map(|i| (ragged_prompt(i), 6)).collect();
    let expected = solo_streams(&model, &requests);
    let engine = Engine::new(model.clone(), &spec_with(&model, |s| s.workers = 2)).unwrap();
    let tickets: Vec<_> = requests
        .iter()
        .enumerate()
        .map(|(i, (p, n))| {
            let budget = (i == 5).then_some(Duration::ZERO);
            engine
                .generate_with_deadline(p.clone(), *n, CAPACITY, budget)
                .unwrap()
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        match (i, t.collect()) {
            (5, Err(ServeError::DeadlineExceeded { .. })) => {}
            // Timing race: dispatched before the shed pass saw it.
            (5, Ok(tokens)) => assert_eq!(tokens, expected[5], "neither shed nor complete"),
            (_, got) => assert_eq!(got.unwrap(), expected[i], "stream {i}"),
        }
    }
    let stats = engine.stats();
    assert!(stats.shed <= 1 && stats.failed == 0, "{stats:?}");
    assert_conserved(&engine);
    engine.shutdown();
}

#[test]
fn a_dynamic_scale_decoder_never_gathers_and_stays_bit_identical() {
    // Dynamic per-tensor scales read every row of a tensor, so a step of
    // eight rows would quantize each row differently from its solo step:
    // the engine keeps such a model on one-row steps.
    let mut zoo = build_zoo_limited(ZooFilter::Quick, DECODER_IDX + 1);
    let w = zoo.remove(DECODER_IDX);
    let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_approach(Approach::Dynamic);
    let model = PtqSession::new(cfg).quantize(&w).unwrap_ok().model;
    assert!(!model.config.row_independent_acts());
    let requests: Vec<(Vec<f32>, usize)> = (0..8).map(|i| (ragged_prompt(i), 6)).collect();
    let expected = solo_streams(&model, &requests);
    let engine = Engine::new(model.clone(), &spec_with(&model, |s| s.workers = 1)).unwrap();
    let tickets: Vec<_> = requests
        .iter()
        .map(|(p, n)| engine.generate(p.clone(), *n, CAPACITY).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.collect().unwrap(), expected[i], "stream {i}");
    }
    assert_conserved(&engine);
    engine.shutdown();
}
