//! The incremental-decode equivalence suite.
//!
//! The KV-cache engine's load-bearing claim: under an f32 cache
//! ([`KvStorage::F32`]), incremental decoding is **bit-identical** to
//! re-running the full window every step — across a decoder zoo, both
//! executors (interpreter and planned), both kernel paths and the
//! quantized hook family. FP8 caches trade that exactness for ~4× less
//! cache memory; their drift must be bounded and *monotone in mantissa
//! bits* (E5M2 ≥ E4M3 ≥ E3M4 error on Gaussian keys/values — more
//! mantissa, less noise).

use proptest::prelude::*;
use ptq_core::config::{ActGranularity, Approach, KvStorage};
use ptq_core::{DecodeSession, PtqError, PtqSession, QuantConfig, QuantizedModel, UnwrapOk};
use ptq_fp8::Fp8Format;
use ptq_models::families::nlp::{decoder_graph, decoder_workload};
use ptq_models::families::NlpConfig;
use ptq_models::{build_zoo_limited, Workload, ZooFilter};
use ptq_nn::{DecodeState, ExecHook, Graph, NoopHook};
use ptq_tensor::ops::KernelPath;
use ptq_tensor::{KvCache, KvCachePolicy, KvSide, Tensor, TensorRng};

fn nlp_cfg(
    vocab: usize,
    seq: usize,
    d: usize,
    heads: usize,
    layers: usize,
    seed: u64,
) -> NlpConfig {
    NlpConfig {
        vocab,
        seq,
        d,
        heads,
        layers,
        ffn_mult: 2,
        seed,
        outlier_gain: 8.0,
        outlier_channels: 1,
        gamma_sigma: 0.3,
    }
}

/// A small decoder zoo spanning head counts, depths and window sizes.
fn decoder_zoo() -> Vec<NlpConfig> {
    vec![
        nlp_cfg(20, 8, 16, 4, 1, 11),
        nlp_cfg(33, 10, 24, 3, 2, 23),
        nlp_cfg(16, 6, 12, 2, 1, 37),
    ]
}

/// Full-window oracle: forward `tokens` zero-padded to `[seq]` and read
/// the logits row of the last real token.
fn full_window_row(
    graph: &Graph,
    seq: usize,
    tokens: &[f32],
    hook: &mut dyn ExecHook,
    planned: bool,
) -> Vec<f32> {
    let mut window = vec![0.0f32; seq];
    window[..tokens.len()].copy_from_slice(tokens);
    let input = Tensor::from_slice(&window);
    let out = if planned {
        let plan = graph.plan(&[vec![seq]]).unwrap_ok();
        plan.run(graph, &[input], hook).unwrap_ok()
    } else {
        graph.run(&[input], hook).unwrap_ok()
    };
    out[0].row(tokens.len() - 1).to_vec()
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: logit {i} diverged ({x} vs {y})"
        );
    }
}

/// Drive one decoder incrementally with `hook`, comparing every produced
/// logits row bitwise against full-window recompute (through `oracle`).
fn check_bit_identity(
    graph: &Graph,
    seq: usize,
    prompt: &[f32],
    mut hook: impl ExecHook,
    mut oracle: impl FnMut(&[f32]) -> Vec<f32>,
    what: &str,
) {
    let plan = graph.plan_decode(seq).unwrap_ok();
    let mut state = DecodeState::new(&plan);
    let mut tokens = prompt.to_vec();
    let logits = state
        .prefill(&plan, graph, &Tensor::from_slice(prompt), &mut hook)
        .unwrap_ok();
    assert_bits_equal(logits.data(), &oracle(&tokens), &format!("{what}: prefill"));
    let mut next = (tokens.len() % 3) as f32;
    while state.pos() < seq {
        tokens.push(next);
        let logits = state.step(&plan, graph, next, &mut hook).unwrap_ok();
        assert_bits_equal(
            logits.data(),
            &oracle(&tokens),
            &format!("{what}: step to len {}", tokens.len()),
        );
        next = (tokens.len() % 3) as f32;
    }
}

#[test]
fn incremental_decode_is_bit_identical_across_zoo_and_executors() {
    for (i, cfg) in decoder_zoo().iter().enumerate() {
        let graph = decoder_graph(cfg);
        let prompt = vec![1.0, 3.0, 0.0];
        // Oracle through the reference loop...
        check_bit_identity(
            &graph,
            cfg.seq,
            &prompt,
            NoopHook,
            |toks| full_window_row(&graph, cfg.seq, toks, &mut NoopHook, false),
            &format!("decoder {i} vs interpreter"),
        );
        // ...and through the planned executor.
        check_bit_identity(
            &graph,
            cfg.seq,
            &prompt,
            NoopHook,
            |toks| full_window_row(&graph, cfg.seq, toks, &mut NoopHook, true),
            &format!("decoder {i} vs planned"),
        );
    }
}

/// The quick zoo's GPT-style decoder, quantized under `cfg`.
fn quantized_decoder(cfg: QuantConfig) -> (Workload, QuantizedModel) {
    let mut zoo = build_zoo_limited(ZooFilter::Quick, 7);
    let w = zoo.remove(6);
    let out = PtqSession::new(cfg).quantize(&w).unwrap_ok();
    (w, out.model)
}

#[test]
fn quantized_decode_is_bit_identical_on_both_kernel_paths() {
    // Static scales + Standard coverage: the hook's behavior per row is
    // shape-independent, so incremental execution cannot perturb it.
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        let (_w, model) =
            quantized_decoder(QuantConfig::fp8(Fp8Format::E4M3).with_kernel_path(path));
        let oracle_model = model.clone();
        let seq = 12;
        let prompt = vec![7.0, 2.0, 19.0];
        check_bit_identity(
            &model.graph,
            seq,
            &prompt,
            model.hook(),
            |toks| {
                full_window_row(
                    &oracle_model.graph,
                    seq,
                    toks,
                    &mut oracle_model.hook(),
                    true,
                )
            },
            &format!("quantized {path:?}"),
        );
    }
}

#[test]
fn decode_session_generate_matches_stepwise_full_window() {
    let (_w, model) = quantized_decoder(QuantConfig::fp8(Fp8Format::E4M3));
    let oracle = model.clone();
    let seq = 12;
    let prompt = vec![4.0, 9.0];
    let mut session = DecodeSession::new(model, seq).unwrap_ok();
    let generated = session
        .generate_greedy(&prompt, seq - prompt.len())
        .unwrap_ok();
    // Replay greedily against the full-window oracle.
    let mut tokens = prompt.clone();
    for (i, &tok) in generated.iter().enumerate() {
        let row = full_window_row(&oracle.graph, seq, &tokens, &mut oracle.hook(), true);
        let expect = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j as f32)
            .unwrap_or(0.0);
        assert_eq!(tok, expect, "greedy token {i} diverged");
        tokens.push(tok);
    }
    assert_eq!(session.pos(), seq, "session should have filled its window");
}

#[test]
fn fp8_cache_error_is_monotone_in_mantissa_bits_on_gaussian_rows() {
    let d = 64;
    let n = 256;
    let rows = TensorRng::seed(77).normal(&[n, d], 0.0, 1.0);
    let mse = |format: Fp8Format| -> f64 {
        let policy = KvCachePolicy::Fp8 {
            format,
            scale: None,
        }
        .calibrated(rows.data());
        let mut cache = KvCache::uniform(1, d, n, policy);
        let mut err = 0.0f64;
        for j in 0..n {
            cache.append(0, KvSide::K, rows.row(j)).unwrap();
        }
        let buf = cache.buf(0, KvSide::K).unwrap();
        for j in 0..n {
            for c in 0..d {
                let e = f64::from(buf.value_at(j, c) - rows.row(j)[c]);
                err += e * e;
            }
        }
        err / (n * d) as f64
    };
    let (e5m2, e4m3, e3m4) = (
        mse(Fp8Format::E5M2),
        mse(Fp8Format::E4M3),
        mse(Fp8Format::E3M4),
    );
    assert!(e3m4 > 0.0, "FP8 storage must be lossy on Gaussian data");
    assert!(
        e5m2 > e4m3 && e4m3 > e3m4,
        "cache error must grow as mantissa bits shrink: E5M2 {e5m2:.3e} ≥ E4M3 {e4m3:.3e} ≥ E3M4 {e3m4:.3e}"
    );
}

#[test]
fn fp8_cache_drift_is_bounded_and_cache_bytes_shrink() {
    let seq = 12;
    let prompt = vec![7.0, 2.0, 19.0];
    // f32-cache reference trajectory (bit-identical to full window).
    let (_w, model) = quantized_decoder(QuantConfig::fp8(Fp8Format::E4M3));
    let mut reference = DecodeSession::new(model, seq).unwrap_ok();
    let mut ref_logits = vec![reference.prefill(&prompt).unwrap_ok()];
    while reference.pos() < seq {
        ref_logits.push(reference.step(1.0).unwrap_ok());
    }
    // Per-format relative-error ceilings: E5M2 keeps only 2 mantissa
    // bits (~6 % per-element quantization noise); the outlier-heavy
    // decoder amplifies cache noise a few-fold through LayerNorm and
    // softmax, so the higher-mantissa formats get a 10 % ceiling.
    for (format, bound) in [
        (Fp8Format::E5M2, 0.30),
        (Fp8Format::E4M3, 0.10),
        (Fp8Format::E3M4, 0.10),
    ] {
        let (_w, model) = quantized_decoder(
            QuantConfig::fp8(Fp8Format::E4M3).with_kv_storage(KvStorage::Fp8 { format }),
        );
        let mut session = DecodeSession::new(model, seq).unwrap_ok();
        let mut logits = vec![session.prefill(&prompt).unwrap_ok()];
        // Prompt positions attend the exact staged rows, never the FP8
        // codes: prefill logits are exactly the planned window run's.
        let m = session.model();
        let unwrapped = full_window_row(&m.graph, seq, &prompt, &mut m.hook(), true);
        assert_bits_equal(logits[0].data(), &unwrapped, &format!("{format}: prefill"));
        while session.pos() < seq {
            logits.push(session.step(1.0).unwrap_ok());
        }
        assert!(
            session.cache_bytes() * 3 < session.cache_f32_bytes(),
            "{format}: cache bytes {} must be under a third of f32 {}",
            session.cache_bytes(),
            session.cache_f32_bytes()
        );
        for (t, (l, r)) in logits.iter().zip(&ref_logits).enumerate() {
            let (mut num, mut den) = (0.0f64, 0.0f64);
            for (a, b) in l.data().iter().zip(r.data()) {
                num += f64::from(a - b) * f64::from(a - b);
                den += f64::from(*b) * f64::from(*b);
            }
            let rel = (num / den.max(1e-30)).sqrt();
            assert!(
                rel < bound,
                "{format}: step {t} drift {rel:.3e} exceeds the {bound} bound"
            );
        }
    }
}

/// Logits rows of positions `s-1..tokens.len()`: `prefill(tokens[..s])`,
/// then one step per remaining token.
fn rows_from_split(
    graph: &Graph,
    seq: usize,
    tokens: &[f32],
    s: usize,
    hook: &mut dyn ExecHook,
) -> Vec<Tensor> {
    let plan = graph.plan_decode(seq).unwrap_ok();
    let mut state = DecodeState::new(&plan);
    let first = state.prefill(&plan, graph, &Tensor::from_slice(&tokens[..s]), hook);
    let mut rows = vec![first.unwrap_ok()];
    for &tok in &tokens[s..] {
        rows.push(state.step(&plan, graph, tok, hook).unwrap_ok());
    }
    rows
}

#[test]
fn where_the_prompt_ends_never_changes_a_logits_row() {
    // Prefill is the prompt's rows through the step schedule, so under an
    // f32 cache position `t`'s row cannot depend on whether `t` was a
    // prompt or a generated position, nor on how many rows ran with it —
    // for every shape-independent hook (the induction the single
    // schedule rests on).
    let recipes = [
        None,
        Some(QuantConfig::fp8(Fp8Format::E4M3)),
        Some(QuantConfig::fp8(Fp8Format::E4M3).with_act_granularity(ActGranularity::PerTile(8))),
    ];
    // The last window is longer than two prefill blocks (16 rows each).
    for cfg in decoder_zoo()
        .into_iter()
        .chain([nlp_cfg(20, 40, 16, 2, 1, 41)])
    {
        let w = decoder_workload("gpt_like", &cfg);
        let tokens: Vec<f32> = (0..cfg.seq)
            .map(|i| ((5 * i + 2) % cfg.vocab) as f32)
            .collect();
        for recipe in &recipes {
            let model = recipe
                .as_ref()
                .map(|r| PtqSession::new(r.clone()).quantize(&w).unwrap_ok().model);
            let rows = |s: usize| match &model {
                Some(m) => rows_from_split(&m.graph, cfg.seq, &tokens, s, &mut m.hook()),
                None => rows_from_split(&w.graph, cfg.seq, &tokens, s, &mut NoopHook),
            };
            let all = rows(1);
            for s in 2..=tokens.len() {
                for (got, want) in rows(s).iter().zip(&all[s - 1..]) {
                    let what = format!("{} {recipe:?} split {s}", w.spec.name);
                    assert_bits_equal(got.data(), want.data(), &what);
                }
            }
        }
    }
}

#[test]
fn a_prompt_of_several_blocks_is_bit_identical_to_the_window() {
    // 37 prompt tokens are two blocks of 16 rows and one of 5; 40 fill
    // the window with nothing left to generate.
    let cfg = nlp_cfg(20, 40, 16, 2, 1, 41);
    let w = decoder_workload("gpt_like", &cfg);
    let m = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&w)
        .unwrap_ok()
        .model;
    for p in [33, 37, 40] {
        let prompt: Vec<f32> = (0..p).map(|i| ((7 * i + 3) % cfg.vocab) as f32).collect();
        check_bit_identity(
            &w.graph,
            cfg.seq,
            &prompt,
            NoopHook,
            |toks| full_window_row(&w.graph, cfg.seq, toks, &mut NoopHook, false),
            &format!("f32 prompt {p}"),
        );
        check_bit_identity(
            &m.graph,
            cfg.seq,
            &prompt,
            m.hook(),
            |toks| full_window_row(&m.graph, cfg.seq, toks, &mut m.hook(), true),
            &format!("quantized prompt {p}"),
        );
    }
}

#[test]
fn dynamic_scales_take_the_prompt_as_one_tensor() {
    // `Approach::Dynamic` scales each tensor at hand — a block of prompt
    // rows at prefill, one row per step — so where the prompt ends does
    // matter there, and what is pinned is the block itself: a one-block
    // prompt that fills the window is exactly the window forward (the same
    // tensors, no padding to take an absmax over).
    let recipe = QuantConfig::fp8(Fp8Format::E4M3).with_approach(Approach::Dynamic);
    for cfg in decoder_zoo() {
        let w = decoder_workload("gpt_like", &cfg);
        let m = PtqSession::new(recipe.clone())
            .quantize(&w)
            .unwrap_ok()
            .model;
        let tokens: Vec<f32> = (0..cfg.seq)
            .map(|i| ((5 * i + 2) % cfg.vocab) as f32)
            .collect();
        let block = rows_from_split(&m.graph, cfg.seq, &tokens, cfg.seq, &mut m.hook());
        let window = full_window_row(&m.graph, cfg.seq, &tokens, &mut m.hook(), true);
        assert_bits_equal(block[0].data(), &window, &w.spec.name);
    }
}

#[test]
fn a_failed_prompt_leaves_the_session_reset_and_reusable() {
    let (_w, model) = quantized_decoder(QuantConfig::fp8(Fp8Format::E4M3));
    let (seq, vocab) = (12, 48.0);
    let prompt = [7.0, 2.0, 19.0];
    let mut fresh = DecodeSession::new(model.clone(), seq).unwrap_ok();
    let want = fresh.prefill(&prompt).unwrap_ok();

    let mut session = DecodeSession::new(model, seq).unwrap_ok();
    session.prefill(&prompt).unwrap_ok();
    // Out-of-vocabulary id at position 1, after one good prompt token.
    let err = session.prefill(&[7.0, vocab, 19.0]).unwrap_err();
    assert!(matches!(err, PtqError::InvalidInput { .. }), "{err:?}");
    assert_eq!((session.pos(), session.cache_bytes()), (0, 0));
    let err = session.step(1.0).unwrap_err();
    assert!(matches!(err, PtqError::InvalidInput { .. }), "{err:?}");
    let got = session.prefill(&prompt).unwrap_ok();
    assert_bits_equal(got.data(), want.data(), "prefill after a failed prompt");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity is not a property of the hand-picked zoo: any causal
    /// decoder the planner accepts decodes bit-identically under an f32
    /// cache, whatever its shape or prompt.
    #[test]
    fn random_decoders_decode_bit_identically(
        seed in 0u64..500,
        heads in 1usize..4,
        dh_quads in 1usize..3,
        layers in 1usize..3,
        seq in 5usize..9,
        p0 in 1usize..4,
    ) {
        let cfg = nlp_cfg(10 + (seed as usize % 17), seq, heads * 4 * dh_quads, heads, layers, seed);
        let graph = decoder_graph(&cfg);
        let prompt: Vec<f32> = (0..p0.min(seq)).map(|i| ((seed as usize + i) % cfg.vocab) as f32).collect();
        check_bit_identity(
            &graph,
            seq,
            &prompt,
            NoopHook,
            |toks| full_window_row(&graph, seq, toks, &mut NoopHook, true),
            "random decoder",
        );
    }
}
