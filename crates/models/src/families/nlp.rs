//! NLP architecture families: encoder models with GLUE-style heads and
//! decoder models for LAMBADA-style last-token prediction and text
//! generation.
//!
//! The defining distributional property (paper Figure 3) is activation
//! outliers: a few LayerNorm gain channels are amplified by
//! [`NlpConfig::outlier_gain`], ranging from mild (≈10×) to extreme
//! (≈1000×, the LLM regime). Per-tensor INT8 activation grids stretch with
//! the outliers and starve the bulk; E4M3's wide dynamic range absorbs
//! them; E3M4's narrower range starts losing the bulk to subnormals at the
//! extreme end — reproducing the paper's E4M3-over-E3M4 ordering on NLP.

use crate::families::common::{
    embed_tokens, ids_tensor, perturb_tokens, transformer_block, Head, NlpConfig,
};
use crate::task::Metric;
use crate::workload::{Workload, WorkloadSpec};
use ptq_metrics::Domain;
use ptq_nn::{Graph, GraphBuilder, UnwrapOk};
use ptq_tensor::{Tensor, TensorRng};

/// Eval sequences per NLP workload.
const EVAL_N: usize = 192;
/// Calibration sequences.
const CALIB_N: usize = 24;
/// Token-replacement probability for eval perturbation.
const TOKEN_NOISE: f32 = 0.03;

/// Build an encoder graph with the given head.
pub fn encoder_graph(cfg: &NlpConfig, head: Head) -> Graph {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let ids = b.input();
    let mut x = embed_tokens(&mut b, &mut rng, ids, cfg);
    for l in 0..cfg.layers {
        x = transformer_block(&mut b, &mut rng, x, cfg, l, false);
    }
    let pooled = b.mean_rows(x);
    let wh = b.param(rng.kaiming(&[head.width(), cfg.d]));
    let bh = b.param(rng.normal(&[head.width()], 0.0, 0.05));
    let out = b.linear(pooled, wh, Some(bh));
    b.finish(vec![out])
}

/// Build a decoder (causal) graph with a vocabulary head over all
/// positions.
pub fn decoder_graph(cfg: &NlpConfig) -> Graph {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let ids = b.input();
    let mut x = embed_tokens(&mut b, &mut rng, ids, cfg);
    for l in 0..cfg.layers {
        x = transformer_block(&mut b, &mut rng, x, cfg, l, true);
    }
    let wh = b.param(rng.normal(&[cfg.vocab, cfg.d], 0.0, (1.0 / cfg.d as f32).sqrt()));
    let out = b.linear(x, wh, None);
    b.finish(vec![out])
}

/// Deterministic eval/calibration id sets for a config.
fn token_sets(cfg: &NlpConfig) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut rng = TensorRng::seed(cfg.seed ^ 0x71A5);
    let eval: Vec<Vec<usize>> = (0..EVAL_N)
        .map(|_| rng.token_ids(cfg.seq, cfg.vocab))
        .collect();
    let calib: Vec<Vec<usize>> = (0..CALIB_N)
        .map(|_| rng.token_ids(cfg.seq, cfg.vocab))
        .collect();
    (eval, calib)
}

/// Encoder workload with a classification/binary/regression head scored
/// with the appropriate GLUE-style metric. `task` names the synthetic
/// task for reporting (`mrpc_syn`, `cola_syn`, `sst2_syn`, `stsb_syn`).
///
/// Classification/binary tasks are prototype clusters in token space:
/// each class is a prototype sequence and samples replace tokens with
/// probability [`TOKEN_NOISE`]; the head's anchors are the prototypes'
/// own pooled features (see [`crate::anchor`]). Regression keeps the
/// FP32-target design (Pearson degrades smoothly under numeric
/// perturbation).
pub fn encoder_workload(family: &str, task: &str, cfg: &NlpConfig, head: Head) -> Workload {
    let mut graph = encoder_graph(cfg, head);
    let mut rng = TensorRng::seed(cfg.seed ^ 0xE7A1);
    let head_id = crate::anchor::head_node(&graph);

    let (eval, metric, calib) = match head {
        Head::Classes(_) | Head::Binary => {
            let k = head.width();
            let prototypes: Vec<Vec<usize>> =
                (0..k).map(|_| rng.token_ids(cfg.seq, cfg.vocab)).collect();
            let n = EVAL_N;
            let mut labels = Vec::with_capacity(n);
            let mut eval = Vec::with_capacity(n);
            let mut calib = Vec::new();
            for i in 0..n {
                let c = i % k;
                labels.push(c);
                let ids = perturb_tokens(&prototypes[c], cfg.vocab, TOKEN_NOISE, &mut rng);
                eval.push(vec![ids_tensor(&ids)]);
                if i < CALIB_N {
                    let ids =
                        perturb_tokens(&prototypes[(i + 1) % k], cfg.vocab, TOKEN_NOISE, &mut rng);
                    calib.push(vec![ids_tensor(&ids)]);
                }
            }
            // Anchor the head at the prototypes' own features.
            let mut probe = eval.clone();
            probe.extend(prototypes.iter().map(|p| vec![ids_tensor(p)]));
            let feats = crate::anchor::capture_features(&graph, &probe, head_id);
            let n_feat = feats.dim(0);
            let rows: Vec<usize> = (n_feat - k..n_feat).collect();
            crate::anchor::install_anchor_head_rows(&mut graph, head_id, &feats, &rows);

            let metric = match head {
                Head::Classes(_) => Metric::Top1 { labels },
                Head::Binary => {
                    let labels: Vec<bool> = labels.iter().map(|&c| c == 1).collect();
                    if task.contains("cola") {
                        Metric::Matthews { labels }
                    } else {
                        Metric::BinaryF1 { labels }
                    }
                }
                Head::Regression => unreachable!(),
            };
            (eval, metric, calib)
        }
        Head::Regression => {
            let (eval_ids, calib_ids) = token_sets(cfg);
            let clean_batches: Vec<Vec<Tensor>> =
                eval_ids.iter().map(|ids| vec![ids_tensor(ids)]).collect();
            let feats = crate::anchor::capture_features(&graph, &clean_batches, head_id);
            crate::anchor::install_regression_head(&mut graph, head_id, &feats, cfg.seed ^ 0xA11);
            // Targets: FP32 outputs on clean sequences; eval on perturbed.
            let targets: Vec<f32> = eval_ids
                .iter()
                .map(|ids| {
                    graph
                        .infer(&[ids_tensor(ids)])
                        .unwrap_ok()
                        .pop()
                        .expect("one output")
                        .data()[0]
                })
                .collect();
            let eval: Vec<Vec<Tensor>> = eval_ids
                .iter()
                .map(|ids| {
                    vec![ids_tensor(&perturb_tokens(
                        ids,
                        cfg.vocab,
                        TOKEN_NOISE,
                        &mut rng,
                    ))]
                })
                .collect();
            let calib: Vec<Vec<Tensor>> =
                calib_ids.iter().map(|ids| vec![ids_tensor(ids)]).collect();
            (eval, Metric::Pearson { targets }, calib)
        }
    };

    Workload::new(
        WorkloadSpec {
            name: format!("{family}_{}d{}l/{task}", cfg.d, cfg.layers),
            domain: Domain::Nlp,
            family: family.to_string(),
        },
        graph,
        calib,
        eval,
        metric,
        None,
    )
}

/// Decoder workload: LAMBADA-style last-token prediction. Labels are the
/// FP32 model's last-position argmax on clean sequences; eval perturbs the
/// *context* (all but the final position stays clean, mirroring how
/// LAMBADA fixes the target).
///
/// LAMBADA items are curated so a competent model can predict the target;
/// the analogous selection here keeps the sequences with the largest FP32
/// top-1/top-2 logit margins from a 3× candidate pool — the margin
/// structure a curated benchmark has. Without it every sample sits at a
/// near-tie and any numeric perturbation flips predictions.
pub fn decoder_workload(family: &str, cfg: &NlpConfig) -> Workload {
    let graph = decoder_graph(cfg);
    let mut rng = TensorRng::seed(cfg.seed ^ 0xDEC0);
    let pool = 3 * EVAL_N;
    let candidates: Vec<Vec<usize>> = (0..pool)
        .map(|_| rng.token_ids(cfg.seq, cfg.vocab))
        .collect();
    // FP32 top-1/top-2 margins on clean sequences.
    let mut scored: Vec<(f32, usize, usize)> = candidates
        .iter()
        .enumerate()
        .map(|(i, ids)| {
            let out = graph
                .infer(&[ids_tensor(ids)])
                .unwrap_ok()
                .pop()
                .expect("one output");
            let last = out.row(out.dim(0) - 1);
            let mut top1 = f32::NEG_INFINITY;
            let mut top2 = f32::NEG_INFINITY;
            let mut arg = 0;
            for (j, &v) in last.iter().enumerate() {
                if v > top1 {
                    top2 = top1;
                    top1 = v;
                    arg = j;
                } else if v > top2 {
                    top2 = v;
                }
            }
            (top1 - top2, i, arg)
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite margins"));
    scored.truncate(EVAL_N);

    let labels: Vec<usize> = scored.iter().map(|&(_, _, arg)| arg).collect();
    let eval: Vec<Vec<Tensor>> = scored
        .iter()
        .map(|&(_, i, _)| {
            let ids = &candidates[i];
            let mut p = perturb_tokens(ids, cfg.vocab, TOKEN_NOISE, &mut rng);
            let n = p.len();
            p[n - 1] = ids[n - 1];
            vec![ids_tensor(&p)]
        })
        .collect();
    let calib: Vec<Vec<Tensor>> = (0..CALIB_N)
        .map(|_| vec![ids_tensor(&rng.token_ids(cfg.seq, cfg.vocab))])
        .collect();

    Workload::new(
        WorkloadSpec {
            name: format!("{family}_{}d{}l/lambada_syn", cfg.d, cfg.layers),
            domain: Domain::Nlp,
            family: family.to_string(),
        },
        graph,
        calib,
        eval,
        Metric::LastTokenTop1 { labels },
        None,
    )
}

/// Greedy-decode `steps` tokens from a prompt with the given hook applied
/// at every forward — the Table-4 text-generation harness. Returns the
/// generated token ids (prompt excluded).
///
/// This is the *full-window reference decoder*: every step re-runs the
/// whole `cfg.seq`-length window (static shapes), shifting the window as
/// tokens are produced — `O(seq²)` work per token. Incremental decoding
/// lives in `ptq_nn::DecodePlan`/`DecodeState` (and `ptq_core`'s
/// `DecodeSession`): one prefill pass seeds a per-layer KV cache, then
/// each step runs a single-row schedule against the cached keys/values.
/// Under an f32 cache the incremental path is bit-identical to this
/// function, which is why it stays — it is the equivalence oracle the
/// decode bench's `--full-window` mode and the `kv_cache_equivalence`
/// suite compare against. (Note the window *shifts* here while the cache
/// path uses absolute positions 0..t; the two agree until the window is
/// full, which is exactly the regime the oracle runs in.)
pub fn generate_greedy(
    graph: &Graph,
    cfg: &NlpConfig,
    prompt: &[usize],
    steps: usize,
    hook: &mut dyn ptq_nn::ExecHook,
) -> Vec<usize> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut window: Vec<usize> = vec![0; cfg.seq];
    let start = cfg.seq.saturating_sub(prompt.len());
    for (i, &t) in prompt.iter().rev().take(cfg.seq).rev().enumerate() {
        window[start + i] = t;
    }
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let logits = graph
            .run(&[ids_tensor(&window)], hook)
            .unwrap_ok()
            .pop()
            .expect("one output");
        let last = logits.dim(0) - 1;
        let next = Tensor::from_slice(logits.row(last)).argmax();
        out.push(next);
        window.rotate_left(1);
        let n = window.len();
        window[n - 1] = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_nn::NoopHook;

    fn cfg(seed: u64) -> NlpConfig {
        NlpConfig {
            vocab: 32,
            seq: 12,
            d: 24,
            heads: 4,
            layers: 1,
            ffn_mult: 2,
            seed,
            outlier_gain: 20.0,
            outlier_channels: 1,
            gamma_sigma: 0.3,
        }
    }

    #[test]
    fn encoder_heads_all_score() {
        let c = cfg(1);
        let cls = encoder_workload("bert_like", "sst2_syn", &c, Head::Classes(4));
        assert!(cls.fp32_score > 0.4, "cls {}", cls.fp32_score);
        let f1 = encoder_workload("bert_like", "mrpc_syn", &c, Head::Binary);
        assert!(f1.fp32_score > 0.4, "f1 {}", f1.fp32_score);
        let mcc = encoder_workload("bert_like", "cola_syn", &c, Head::Binary);
        assert!(mcc.fp32_score.abs() <= 1.0);
        let reg = encoder_workload("bert_like", "stsb_syn", &c, Head::Regression);
        assert!(reg.fp32_score > 0.3, "pearson {}", reg.fp32_score);
    }

    #[test]
    fn decoder_workload_scores() {
        let w = decoder_workload("gpt_like", &cfg(2));
        assert!(
            w.fp32_score > 0.3 && w.fp32_score <= 1.0,
            "fp32 {}",
            w.fp32_score
        );
    }

    #[test]
    fn generation_is_deterministic_and_in_vocab() {
        let c = cfg(3);
        let g = decoder_graph(&c);
        let toks = generate_greedy(&g, &c, &[1, 2, 3], 20, &mut NoopHook);
        assert_eq!(toks.len(), 20);
        assert!(toks.iter().all(|&t| t < c.vocab));
        let again = generate_greedy(&g, &c, &[1, 2, 3], 20, &mut NoopHook);
        assert_eq!(toks, again);
    }

    #[test]
    fn nlp_workloads_deterministic() {
        let a = encoder_workload("bert_like", "sst2_syn", &cfg(5), Head::Classes(4));
        let b = encoder_workload("bert_like", "sst2_syn", &cfg(5), Head::Classes(4));
        assert_eq!(a.fp32_score, b.fp32_score);
    }

    #[test]
    fn outlier_gain_shows_in_activations() {
        let mild = encoder_workload("bert_like", "sst2_syn", &cfg(6), Head::Classes(4));
        let extreme_cfg = NlpConfig {
            outlier_gain: 500.0,
            ..cfg(6)
        };
        let extreme = encoder_workload("bert_like", "sst2_syn", &extreme_cfg, Head::Classes(4));
        struct AbsMax(f32);
        impl ptq_nn::ExecHook for AbsMax {
            fn after_node(&mut self, n: &ptq_nn::Node, o: &Tensor) {
                if n.op.class() == ptq_nn::OpClass::LayerNorm {
                    for &v in o.data() {
                        self.0 = self.0.max(v.abs());
                    }
                }
            }
        }
        let mut hm = AbsMax(0.0);
        mild.graph.run(&mild.eval[0], &mut hm).unwrap_ok();
        let mut he = AbsMax(0.0);
        extreme.graph.run(&extreme.eval[0], &mut he).unwrap_ok();
        assert!(he.0 > 5.0 * hm.0, "extreme {} vs mild {}", he.0, hm.0);
    }
}
