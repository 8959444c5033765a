//! The models the workloads run, with the constants the kernel replays in
//! `probes.rs` were read from. Weights come from each config's own seed,
//! never from `--seed`.

use crate::measure::Rng;
use ptq_metrics::Domain;
use ptq_models::families::common::{CvConfig, Head, NlpConfig};
use ptq_models::families::{cv, nlp};
use ptq_models::task::Metric;
use ptq_models::workload::WorkloadSpec;
use ptq_models::Workload;
use ptq_tensor::Tensor;

/// forward_cv: the zoo's `resnet_like_16x2`. Eval batches are
/// `[48,3,12,12]`; its four residual convs are 16→16 3×3 on
/// `[48,16,12,12]` (15.9 M MACs each).
pub fn resnet() -> Workload {
    cv::resnet_like(&CvConfig {
        img: 12,
        in_ch: 3,
        width: 16,
        depth: 2,
        classes: 8,
        seed: 114,
        hostility: 0.0,
    })
}

/// forward_nlp and serve_open: a BERT-like encoder, d 128, 2 layers,
/// seq 64, 4 heads (head dim 32), FFN 256; input `[64]` token ids.
pub const ENCODER: NlpConfig = NlpConfig {
    vocab: 48,
    seq: 64,
    d: 128,
    heads: 4,
    layers: 2,
    ffn_mult: 2,
    seed: 204,
    outlier_gain: 12.0,
    outlier_channels: 1,
    gamma_sigma: 0.3,
};

/// decode_long: a GPT-like decoder, d 64, 2 layers, window 256, 4 heads.
pub const DECODER_LONG: NlpConfig = NlpConfig {
    vocab: 48,
    seq: 256,
    d: 64,
    heads: 4,
    layers: 2,
    ffn_mult: 2,
    seed: 977,
    outlier_gain: 15.0,
    outlier_channels: 1,
    gamma_sigma: 0.3,
};

/// decode_streams: the same family at d 128, window 64.
pub const DECODER_STREAMS: NlpConfig = NlpConfig {
    vocab: 48,
    seq: 64,
    d: 128,
    heads: 4,
    layers: 2,
    ffn_mult: 2,
    seed: 977,
    outlier_gain: 15.0,
    outlier_channels: 1,
    gamma_sigma: 0.3,
};

const CALIB_N: usize = 24;
const EVAL_N: usize = 32;

fn id_batches(rng: &mut Rng, n: usize, cfg: &NlpConfig) -> Vec<Vec<Tensor>> {
    (0..n)
        .map(|_| {
            vec![Tensor::from_vec(
                rng.token_ids(cfg.seq, cfg.vocab),
                &[cfg.seq],
            )]
        })
        .collect()
}

fn assemble(family: &str, cfg: &NlpConfig, graph: ptq_nn::Graph, metric: Metric) -> Workload {
    let mut rng = Rng::new(cfg.seed ^ 0xbe7c);
    let calib = id_batches(&mut rng, CALIB_N, cfg);
    let eval = id_batches(&mut rng, EVAL_N, cfg);
    Workload::new(
        WorkloadSpec {
            name: format!("{family}_{}d{}l_seq{}", cfg.d, cfg.layers, cfg.seq),
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

/// The family constructors score a 192-sample eval set through an
/// anchored head (6 s for the encoder, 15 s for a 256-window decoder).
/// The workloads need the graph and a calibration set, not the accuracy
/// task, so they assemble the same graph with small seeded sets and
/// placeholder labels; accuracy is reported on `ptq_zoo` only.
pub fn encoder() -> Workload {
    let labels = (0..EVAL_N).map(|i| i % 2 == 1).collect();
    assemble(
        "bert_like",
        &ENCODER,
        nlp::encoder_graph(&ENCODER, Head::Binary),
        Metric::BinaryF1 { labels },
    )
}

pub fn decoder(cfg: &NlpConfig) -> Workload {
    assemble(
        "gpt_like",
        cfg,
        nlp::decoder_graph(cfg),
        Metric::LastTokenTop1 {
            labels: vec![0; EVAL_N],
        },
    )
}

/// Index of the largest logit, first on ties: the greedy rule
/// `DecodeSession::generate_greedy` and `Engine::generate` apply.
pub fn argmax(logits: &[f32]) -> f32 {
    let (mut best, mut best_v) = (0, f32::NEG_INFINITY);
    for (i, &v) in logits.iter().enumerate() {
        if v > best_v {
            (best, best_v) = (i, v);
        }
    }
    best as f32
}
