//! What a gathered decode step looks like in the trace. Its own test
//! binary: the recorder is process-global, and the engine's events come
//! from its worker threads, so no other engine may run beside this one.

use std::sync::Arc;

use ptq_core::{EngineSpec, PtqSession, QuantConfig, UnwrapOk};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo_limited, ZooFilter};
use ptq_serve::Engine;
use ptq_trace::{EventKind, FieldValue, Level, MemorySink};

/// The quick zoo's GPT-style decoder (index 6; seq = 12, vocab = 48).
const DECODER_IDX: usize = 6;
const CAPACITY: usize = 12;

#[test]
fn gathered_steps_trace_their_rows_and_one_token_each() {
    let mut zoo = build_zoo_limited(ZooFilter::Quick, DECODER_IDX + 1);
    let w = zoo.remove(DECODER_IDX);
    let model = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&w)
        .unwrap_ok()
        .model;
    let mut spec = EngineSpec::from_config(&model.config);
    // One worker takes every queued step of the plan into one pass.
    spec.serving.workers = 1;
    let engine = Engine::new(model, &spec).unwrap();

    let sink = Arc::new(MemorySink::new());
    ptq_trace::install(vec![sink.clone()], Level::Info);
    let (streams, max_new) = (8, 5);
    let tickets: Vec<_> = (0..streams)
        .map(|i| {
            let prompt = vec![(3 * i) as f32; 1 + i % 4];
            engine.generate(prompt, max_new, CAPACITY).unwrap()
        })
        .collect();
    let tokens: usize = tickets
        .into_iter()
        .map(|t| t.collect().unwrap().len())
        .sum();
    engine.shutdown();
    ptq_trace::uninstall();
    assert_eq!(tokens, streams * max_new);

    let evs = sink.events();
    let counted = |name: &str| -> u64 {
        let deltas = evs.iter().filter(|e| e.name == name).map(|e| match e.kind {
            EventKind::Counter { delta } => delta,
            _ => 0,
        });
        deltas.sum()
    };
    assert_eq!(counted("serve.gen_tokens"), tokens as u64, "one per token");
    let rows: Vec<i64> = evs
        .iter()
        .filter(|e| e.name == "decode.step" && matches!(e.kind, EventKind::SpanExit { .. }))
        .map(|e| match e.field("rows") {
            Some(FieldValue::Int(r)) => *r,
            other => panic!("decode.step without rows: {other:?}"),
        })
        .collect();
    // Every token after a stream's first (its prefill's) is one step row.
    assert_eq!(rows.iter().sum::<i64>(), (tokens - streams) as i64);
    assert!(
        rows.len() < tokens - streams,
        "no step was gathered: {rows:?}"
    );
}
