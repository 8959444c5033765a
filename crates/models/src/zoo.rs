//! The 75-workload zoo: the synthetic analogue of the paper's evaluation
//! suite (§4.1).
//!
//! Families, counts and the CV/NLP split mirror the paper's workload list.
//! Activation-outlier severity (the `outlier_gain` of NLP models and the
//! `hostility` of depthwise/ViT CV models) is varied across the zoo the way
//! real model populations vary: most encoders are mild (~10×), several are
//! moderate (~100×), and a few LLM-style decoders are extreme (~1000×).
//! Everything is seeded and deterministic.
//!
//! Sizes are deliberately small (the host for this reproduction is a
//! single CPU core); the *distributional* properties, not the parameter
//! counts, carry the paper's effects.

use crate::families::common::{CvConfig, Head, NlpConfig};
use crate::families::{cv, misc, nlp};
use crate::workload::Workload;

/// Which slice of the zoo to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZooFilter {
    /// Every workload (75).
    All,
    /// CV workloads only.
    Cv,
    /// NLP workloads only.
    Nlp,
    /// A small, fast, representative subset (for tests and examples).
    Quick,
}

/// Build the zoo.
pub fn build_zoo(filter: ZooFilter) -> Vec<Workload> {
    let mut all: Vec<Workload> = Vec::new();
    let want_cv = matches!(filter, ZooFilter::All | ZooFilter::Cv);
    let want_nlp = matches!(filter, ZooFilter::All | ZooFilter::Nlp);

    if filter == ZooFilter::Quick {
        return quick_zoo();
    }

    if want_cv {
        all.extend(cv_zoo());
    }
    if want_nlp {
        all.extend(nlp_zoo());
    }
    all
}

fn cvc(width: usize, depth: usize, img: usize, seed: u64, hostility: f32) -> CvConfig {
    CvConfig {
        img,
        in_ch: 3,
        width,
        depth,
        classes: 8,
        seed,
        hostility,
    }
}

/// The 35 CV workloads.
#[allow(clippy::vec_init_then_push)]
fn cv_zoo() -> Vec<Workload> {
    let mut v = Vec::new();
    // Plain VGG-style stacks (benign; precision-bound).
    v.push(cv::vgg_like(&cvc(10, 2, 10, 101, 0.0)));
    v.push(cv::vgg_like(&cvc(12, 3, 12, 102, 0.0)));
    v.push(cv::vgg_like(&cvc(14, 2, 10, 103, 0.0)));
    v.push(cv::vgg_like(&cvc(16, 4, 12, 104, 0.0)));
    // ResNets (benign, one mildly hostile).
    v.push(cv::resnet_like(&cvc(10, 2, 10, 111, 0.0)));
    v.push(cv::resnet_like(&cvc(12, 2, 10, 112, 0.0)));
    v.push(cv::resnet_like(&cvc(12, 3, 12, 113, 0.0)));
    v.push(cv::resnet_like(&cvc(16, 2, 12, 114, 0.0)));
    v.push(cv::resnet_like(&cvc(14, 2, 10, 115, 8.0)));
    // MobileNet-style (depthwise; INT8-hostile range).
    v.push(cv::mobilenet_like(&cvc(12, 2, 10, 121, 12.0)));
    v.push(cv::mobilenet_like(&cvc(12, 3, 10, 122, 18.0)));
    v.push(cv::mobilenet_like(&cvc(16, 2, 12, 123, 25.0)));
    v.push(cv::mobilenet_like(&cvc(14, 2, 10, 124, 0.0)));
    // EfficientNet-style (SiLU + depthwise; INT8-hostile).
    v.push(cv::efficientnet_like(&cvc(12, 2, 10, 131, 15.0)));
    v.push(cv::efficientnet_like(&cvc(12, 3, 10, 132, 25.0)));
    v.push(cv::efficientnet_like(&cvc(16, 2, 12, 133, 35.0)));
    v.push(cv::efficientnet_like(&cvc(14, 1, 10, 134, 10.0)));
    // DenseNet-style (unfoldable BN).
    v.push(cv::densenet_like(&cvc(12, 2, 10, 141, 0.0)));
    v.push(cv::densenet_like(&cvc(12, 3, 12, 142, 0.0)));
    v.push(cv::densenet_like(&cvc(16, 2, 10, 143, 6.0)));
    // Inception-style.
    v.push(cv::inception_like(&cvc(12, 2, 10, 151, 0.0)));
    v.push(cv::inception_like(&cvc(14, 2, 12, 152, 0.0)));
    v.push(cv::inception_like(&cvc(16, 3, 12, 153, 0.0)));
    // ViT-style (LayerNorm outliers; INT8-hostile).
    v.push(cv::vit_like(&cvc(32, 1, 8, 161, 0.0), 12.0));
    v.push(cv::vit_like(&cvc(32, 2, 8, 162, 0.0), 25.0));
    v.push(cv::vit_like(&cvc(48, 2, 8, 163, 0.0), 50.0));
    v.push(cv::vit_like(&cvc(24, 2, 8, 164, 0.0), 8.0));
    // U-Net segmentation.
    v.push(cv::unet_like(&cvc(8, 1, 12, 171, 0.0)));
    v.push(cv::unet_like(&cvc(10, 2, 12, 172, 0.0)));
    v.push(cv::unet_like(&cvc(10, 1, 16, 173, 0.0)));
    // Detector heads.
    v.push(cv::detector_like(&cvc(10, 2, 12, 181, 0.0)));
    v.push(cv::detector_like(&cvc(12, 2, 12, 182, 0.0)));
    v.push(cv::detector_like(&cvc(10, 1, 16, 183, 8.0)));
    // Generators (Stable-Diffusion analogue; FID-scored).
    v.push(misc::generator_like(8, 12, 191));
    v.push(misc::generator_like(12, 16, 192));
    v
}

fn nlpc(
    d: usize,
    layers: usize,
    seq: usize,
    seed: u64,
    outlier_gain: f32,
    outlier_channels: usize,
) -> NlpConfig {
    NlpConfig {
        vocab: 48,
        seq,
        d,
        heads: 4,
        layers,
        ffn_mult: 2,
        seed,
        outlier_gain,
        outlier_channels,
        gamma_sigma: 0.3,
    }
}

/// A config with an explicit heavy-tail σ for the LayerNorm gains.
fn with_sigma(mut cfg: NlpConfig, gamma_sigma: f32) -> NlpConfig {
    cfg.gamma_sigma = gamma_sigma;
    cfg
}

/// The 40 NLP (plus audio/recsys) workloads.
///
/// Outlier gains and heavy-tail σ span the real population: most encoders
/// are mild (SmoothQuant + any 8-bit format copes), a band of
/// moderate-to-high-gain models breaks per-tensor INT8 even with
/// SmoothQuant, and a few heavy-tail (σ ≥ 1.5) members exceed E3M4's
/// dynamic-range window while staying inside E4M3's.
#[allow(clippy::vec_init_then_push)]
fn nlp_zoo() -> Vec<Workload> {
    let mut v = Vec::new();
    // BERT-style encoders on GLUE-style tasks.
    v.push(nlp::encoder_workload(
        "bert_like",
        "sst2_syn",
        &nlpc(64, 1, 12, 201, 10.0, 1),
        Head::Classes(6),
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "sst2_syn",
        &with_sigma(nlpc(64, 2, 16, 202, 25.0, 1), 1.4),
        Head::Classes(6),
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "sst2_syn",
        &with_sigma(nlpc(96, 2, 16, 203, 900.0, 2), 0.8),
        Head::Classes(6),
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "mrpc_syn",
        &nlpc(64, 1, 12, 204, 12.0, 1),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "mrpc_syn",
        &nlpc(64, 2, 16, 205, 500.0, 1),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "mrpc_syn",
        &with_sigma(nlpc(96, 2, 16, 206, 1500.0, 2), 0.8),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "cola_syn",
        &nlpc(64, 2, 12, 207, 15.0, 1),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "cola_syn",
        &with_sigma(nlpc(96, 2, 16, 208, 800.0, 1), 0.6),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "stsb_syn",
        &nlpc(64, 1, 12, 209, 10.0, 1),
        Head::Regression,
    ));
    v.push(nlp::encoder_workload(
        "bert_like",
        "stsb_syn",
        &nlpc(64, 2, 16, 210, 600.0, 1),
        Head::Regression,
    ));
    // DistilBERT-style (shallower).
    v.push(nlp::encoder_workload(
        "distilbert_like",
        "sst2_syn",
        &nlpc(64, 1, 16, 211, 15.0, 1),
        Head::Classes(6),
    ));
    v.push(nlp::encoder_workload(
        "distilbert_like",
        "mrpc_syn",
        &nlpc(64, 1, 16, 212, 450.0, 1),
        Head::Binary,
    ));
    // Longformer-style (longer sequences).
    v.push(nlp::encoder_workload(
        "longformer_like",
        "mrpc_syn",
        &nlpc(64, 1, 32, 213, 30.0, 1),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "longformer_like",
        "sst2_syn",
        &with_sigma(nlpc(96, 2, 32, 214, 2000.0, 1), 0.8),
        Head::Classes(6),
    ));
    // Funnel-style — heavy-tail members (the Table-5 E3M4 collapse case).
    v.push(nlp::encoder_workload(
        "funnel_like",
        "mrpc_syn",
        &with_sigma(nlpc(96, 2, 16, 215, 300.0, 1), 1.6),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "funnel_like",
        "sst2_syn",
        &nlpc(64, 1, 12, 216, 20.0, 1),
        Head::Classes(6),
    ));
    // XLM-R-style.
    v.push(nlp::encoder_workload(
        "xlmr_like",
        "mrpc_syn",
        &with_sigma(nlpc(64, 2, 16, 217, 700.0, 1), 1.5),
        Head::Binary,
    ));
    v.push(nlp::encoder_workload(
        "xlmr_like",
        "stsb_syn",
        &nlpc(64, 1, 12, 218, 18.0, 1),
        Head::Regression,
    ));
    // GPT-style decoders (LAMBADA-style task); gains up to LLM-extreme.
    v.push(nlp::decoder_workload(
        "gpt_like",
        &nlpc(64, 1, 12, 221, 15.0, 1),
    ));
    v.push(nlp::decoder_workload(
        "gpt_like",
        &nlpc(64, 2, 16, 222, 800.0, 1),
    ));
    v.push(nlp::decoder_workload(
        "gpt_like",
        &with_sigma(nlpc(64, 2, 16, 223, 1200.0, 2), 0.8),
    ));
    v.push(nlp::decoder_workload(
        "gpt_like",
        &nlpc(64, 1, 16, 224, 8.0, 1),
    ));
    v.push(nlp::decoder_workload(
        "gpt_like",
        &with_sigma(nlpc(96, 2, 16, 225, 2500.0, 1), 1.0),
    ));
    // Bloom-style (extreme outliers — the LLM regime).
    v.push(nlp::decoder_workload(
        "bloom_like",
        &with_sigma(nlpc(64, 2, 16, 231, 2000.0, 1), 0.8),
    ));
    v.push(nlp::decoder_workload(
        "bloom_like",
        &with_sigma(nlpc(96, 2, 16, 232, 4000.0, 1), 1.6),
    ));
    v.push(nlp::decoder_workload(
        "bloom_like",
        &with_sigma(nlpc(96, 2, 16, 233, 800.0, 2), 0.6),
    ));
    // LLaMA-style.
    v.push(nlp::decoder_workload(
        "llama_like",
        &with_sigma(nlpc(96, 2, 16, 241, 600.0, 1), 0.8),
    ));
    v.push(nlp::decoder_workload(
        "llama_like",
        &with_sigma(nlpc(96, 3, 16, 242, 3000.0, 1), 1.7),
    ));
    // DialoGPT / Pegasus-style.
    v.push(nlp::decoder_workload(
        "dialogpt_like",
        &with_sigma(nlpc(64, 2, 16, 251, 900.0, 1), 1.4),
    ));
    v.push(nlp::decoder_workload(
        "pegasus_like",
        &with_sigma(nlpc(64, 2, 16, 252, 80.0, 1), 1.5),
    ));
    // Marian-style translators.
    v.push(misc::translator_like(&nlpc(64, 1, 12, 261, 25.0, 1)));
    v.push(misc::translator_like(&nlpc(64, 1, 12, 262, 500.0, 1)));
    // DLRM-style recommenders.
    v.push(misc::dlrm_like(6, 16, 48, 271));
    v.push(misc::dlrm_like(8, 16, 64, 272));
    v.push(misc::dlrm_like(6, 24, 48, 273));
    // Speech: conv-only and conv+transformer frontends.
    v.push(misc::speech_like(64, 16, 2, 6, 281));
    v.push(misc::speech_like(96, 20, 3, 6, 282));
    v.push(misc::wav2vec_like(64, &nlpc(48, 1, 12, 283, 20.0, 1), 283));
    v.push(misc::wav2vec_like(96, &nlpc(48, 1, 12, 284, 40.0, 1), 284));
    v.push(misc::wav2vec_like(64, &nlpc(48, 2, 12, 285, 15.0, 1), 285));
    v
}

/// A fast 8-workload subset covering both domains, BatchNorm and
/// LayerNorm models, and the outlier-severity range.
fn quick_zoo() -> Vec<Workload> {
    quick_thunks().into_iter().map(|t| t()).collect()
}

/// The quick zoo as unevaluated constructors, so a limited build (see
/// [`build_zoo_limited`]) pays only for the workloads it returns —
/// building (weights + FP32 baseline eval) dominates short runs.
fn quick_thunks() -> Vec<Box<dyn Fn() -> Workload>> {
    vec![
        Box::new(|| cv::vgg_like(&cvc(10, 2, 10, 101, 0.0))),
        Box::new(|| cv::resnet_like(&cvc(12, 2, 10, 112, 0.0))),
        Box::new(|| cv::mobilenet_like(&cvc(12, 2, 10, 121, 12.0))),
        Box::new(|| cv::vit_like(&cvc(32, 1, 8, 161, 0.0), 12.0)),
        Box::new(|| {
            nlp::encoder_workload(
                "bert_like",
                "mrpc_syn",
                &nlpc(64, 1, 12, 204, 12.0, 1),
                Head::Binary,
            )
        }),
        Box::new(|| {
            nlp::encoder_workload(
                "funnel_like",
                "mrpc_syn",
                &with_sigma(nlpc(96, 2, 16, 215, 300.0, 1), 1.6),
                Head::Binary,
            )
        }),
        Box::new(|| nlp::decoder_workload("gpt_like", &nlpc(64, 1, 12, 221, 15.0, 1))),
        Box::new(|| misc::dlrm_like(6, 16, 48, 271)),
    ]
}

/// Build at most `limit` workloads of the filtered zoo, identical to a
/// prefix of [`build_zoo`]'s output. For [`ZooFilter::Quick`] only the
/// returned workloads are constructed at all, which is what makes the
/// bench binaries' `--limit N` flag cheap.
pub fn build_zoo_limited(filter: ZooFilter, limit: usize) -> Vec<Workload> {
    if filter == ZooFilter::Quick {
        return quick_thunks()
            .into_iter()
            .take(limit)
            .map(|t| t())
            .collect();
    }
    let mut zoo = build_zoo(filter);
    zoo.truncate(limit);
    zoo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_zoo_builds() {
        let zoo = build_zoo(ZooFilter::Quick);
        assert_eq!(zoo.len(), 8);
        for w in &zoo {
            assert!(w.fp32_score > 0.2, "{} fp32 {}", w.spec.name, w.fp32_score);
        }
        // Both domains present.
        assert!(zoo.iter().any(|w| w.spec.domain == ptq_metrics::Domain::Cv));
        assert!(zoo
            .iter()
            .any(|w| w.spec.domain == ptq_metrics::Domain::Nlp));
    }

    #[test]
    #[ignore = "builds all 75 workloads (~seconds); run explicitly"]
    fn full_zoo_has_75_unique_workloads() {
        let zoo = build_zoo(ZooFilter::All);
        assert_eq!(zoo.len(), 75);
        let mut names: Vec<&str> = zoo.iter().map(|w| w.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 75, "workload names must be unique");
        let cv_n = zoo
            .iter()
            .filter(|w| w.spec.domain == ptq_metrics::Domain::Cv)
            .count();
        assert_eq!(cv_n, 35);
        for w in &zoo {
            assert!(
                w.fp32_score > 0.15 && w.fp32_score <= 1.0 + 1e-9,
                "{} fp32 {}",
                w.spec.name,
                w.fp32_score
            );
        }
    }
}
