//! Computer-vision architecture families.
//!
//! Shapes and op mixes mirror the paper's CV workload list: plain
//! VGG-style stacks, ResNets, MobileNet/EfficientNet-style depthwise
//! models, DenseNet-style unfoldable-BatchNorm models, Inception-style
//! parallel branches, ViT, U-Net segmentation and detector heads. The
//! *distributional* knob is [`CvConfig::hostility`]: the
//! MobileNet/EfficientNet/ViT analogues get amplified norm gains, which is
//! what makes per-tensor INT8 struggle on those models in the paper
//! (Figure 4 calls out EfficientNet, MobileNetV3 and ViT by name).

use crate::families::common::{batchnorm_with_hostility, conv_bn_relu, CvConfig};
use crate::task::{CalibSource, Metric, Transform};
use crate::workload::{Workload, WorkloadSpec};
use ptq_metrics::Domain;
use ptq_nn::{Graph, GraphBuilder, NoopHook, UnwrapOk};
use ptq_tensor::ops::Conv2dParams;
use ptq_tensor::{Tensor, TensorRng};

/// Eval-set size for batched CV classification.
const EVAL_N: usize = 192;
/// Batch size for batched CV eval.
const EVAL_BATCH: usize = 48;
/// Calibration pool size.
const POOL_N: usize = 64;
/// Default calibration sample count.
const CALIB_N: usize = 64;
/// Relative eval noise (fraction of input std).
const EVAL_NOISE: f32 = 0.28;

/// Assemble a batched CV classification workload from a finished graph.
///
/// The synthetic "dataset" has real class structure: each of
/// `cfg.classes` classes is a *prototype image*, and samples are
/// noise-perturbed copies of their prototype (σ = [`EVAL_NOISE`]). The
/// head is re-wired as a nearest-anchor classifier whose anchors are the
/// prototypes' own features (see [`crate::anchor`]), so classes form
/// separated clusters in feature space with a Gaussian overlap tail —
/// the margin structure of a trained classifier. The FP32 baseline is the
/// clean model's accuracy on the cluster samples (<100 % from overlap),
/// and quantization error moves the decision boundaries, flipping the
/// near-boundary tail first.
pub fn cv_classification(name: &str, family: &str, mut graph: Graph, cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed ^ 0xC1A5);
    let img_shape = [cfg.in_ch, cfg.img, cfg.img];
    let prototypes: Vec<Tensor> = (0..cfg.classes)
        .map(|_| rng.normal(&img_shape, 0.0, 1.0))
        .collect();
    let sample_of = |c: usize, rng: &mut TensorRng| -> Tensor {
        let noise = rng.normal(&img_shape, 0.0, EVAL_NOISE);
        prototypes[c].add(&noise)
    };
    let batch_of = |items: &[Tensor]| -> Tensor {
        Tensor::concat0(&items.iter().collect::<Vec<_>>()).reshape(&[
            items.len(),
            cfg.in_ch,
            cfg.img,
            cfg.img,
        ])
    };

    // Training-distribution pool for BN statistics and calibration data:
    // cluster samples, like the training set of a real model.
    let pool_items: Vec<Tensor> = (0..POOL_N)
        .map(|i| sample_of(i % cfg.classes, &mut rng))
        .collect();
    let source = CalibSource {
        pool: batch_of(&pool_items),
        noise: 0.1,
        batch: 32,
    };

    // "Trained" BatchNorm statistics: moments of the augmented training
    // distribution, as training with data augmentation would leave behind.
    // (This is why the paper's Figure 7 finds train-transform calibration
    // data more effective: it matches the distribution the running stats
    // were estimated on.)
    let init_batches = source.sample(160, Transform::Train, cfg.seed ^ 0xB117);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);
    // Trained weights balance input-channel contributions; re-estimate BN
    // statistics afterwards (see anchor::coadapt_convs).
    crate::anchor::coadapt_convs(&mut graph, &init_batches[..2.min(init_batches.len())]);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);

    // Eval set: EVAL_N cluster samples, labels = generating class.
    let mut labels = Vec::with_capacity(EVAL_N);
    let mut eval_items = Vec::with_capacity(EVAL_N);
    for i in 0..EVAL_N {
        let c = i % cfg.classes;
        labels.push(c);
        eval_items.push(sample_of(c, &mut rng));
    }
    let eval: Vec<Vec<Tensor>> = eval_items
        .chunks(EVAL_BATCH)
        .map(|chunk| vec![batch_of(chunk)])
        .collect();

    // Anchor head: anchors are the prototypes' own features; the centering
    // mean comes from the eval distribution.
    let head = crate::anchor::head_node(&graph);
    let mut probe = eval.clone();
    probe.push(vec![batch_of(&prototypes)]);
    let feats = crate::anchor::capture_features(&graph, &probe, head);
    let n_feat = feats.dim(0);
    let proto_rows: Vec<usize> = (n_feat - cfg.classes..n_feat).collect();
    crate::anchor::install_anchor_head_rows(&mut graph, head, &feats, &proto_rows);

    let calib = source.sample(CALIB_N, Transform::Train, cfg.seed ^ 0xCA11B);

    Workload::new(
        WorkloadSpec {
            name: name.to_string(),
            domain: Domain::Cv,
            family: family.to_string(),
        },
        graph,
        calib,
        eval,
        Metric::Top1 { labels },
        Some(source),
    )
}

/// Plain VGG-style stack: conv-relu blocks with occasional max-pool, no
/// BatchNorm.
pub fn vgg_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let mut cur = x;
    let mut cin = cfg.in_ch;
    let mut side = cfg.img;
    for d in 0..cfg.depth {
        let cout = cfg.width * (1 + d / 2);
        let w = b.param(rng.kaiming(&[cout, cin, 3, 3]));
        cur = b.conv2d(cur, w, None, Conv2dParams::same(3));
        cur = b.relu(cur);
        if d % 2 == 1 && side >= 4 {
            cur = b.max_pool(cur, 2);
            side /= 2;
        }
        cin = cout;
    }
    cur = b.global_avg_pool(cur);
    let wh = b.param(rng.kaiming(&[cfg.classes, cin]));
    let bh = b.param(rng.normal(&[cfg.classes], 0.0, 0.1));
    let out = b.linear(cur, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("vgg_like_{}x{}", cfg.width, cfg.depth),
        "vgg_like",
        g,
        cfg,
    )
}

/// ResNet-style: conv-BN-ReLU stem, residual blocks, GAP head.
pub fn resnet_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let mut cur = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    for d in 0..cfg.depth {
        // Residual branch: two conv-BN, add, relu.
        let w1 = b.param(rng.kaiming(&[c, c, 3, 3]));
        let h = b.conv2d(cur, w1, None, Conv2dParams::same(3));
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, d + 1);
        let h = b.relu(h);
        let w2 = b.param(rng.kaiming(&[c, c, 3, 3]));
        let h = b.conv2d(h, w2, None, Conv2dParams::same(3));
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, d + 1);
        let merged = b.add(cur, h);
        cur = b.relu(merged);
    }
    cur = b.global_avg_pool(cur);
    let wh = b.param(rng.kaiming(&[cfg.classes, c]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(cur, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("resnet_like_{}x{}", cfg.width, cfg.depth),
        "resnet_like",
        g,
        cfg,
    )
}

/// MobileNet-style: depthwise-separable conv blocks with BatchNorm.
pub fn mobilenet_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let mut cur = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    for d in 0..cfg.depth {
        // Depthwise 3x3.
        let wd = b.param(rng.kaiming(&[c, 1, 3, 3]));
        let h = b.depthwise_conv2d(cur, wd, None, Conv2dParams::same(3));
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, 2 * d + 1);
        let h = b.relu(h);
        // Pointwise 1x1.
        let wp = b.param(rng.kaiming(&[c, c, 1, 1]));
        let h = b.conv2d(h, wp, None, Conv2dParams::default());
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, 2 * d + 2);
        cur = b.relu(h);
    }
    cur = b.global_avg_pool(cur);
    let wh = b.param(rng.kaiming(&[cfg.classes, c]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(cur, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("mobilenet_like_{}x{}", cfg.width, cfg.depth),
        "mobilenet_like",
        g,
        cfg,
    )
}

/// EfficientNet-style: depthwise blocks with SiLU activations and a
/// squeeze-excite-ish channel gate (sigmoid of pooled features).
pub fn efficientnet_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let w0 = b.param(rng.kaiming(&[c, cfg.in_ch, 3, 3]));
    let mut cur = b.conv2d(x, w0, None, Conv2dParams::same(3));
    cur = batchnorm_with_hostility(&mut b, &mut rng, cur, c, cfg.hostility, 0);
    cur = b.silu(cur);
    for d in 0..cfg.depth {
        let wd = b.param(rng.kaiming(&[c, 1, 3, 3]));
        let h = b.depthwise_conv2d(cur, wd, None, Conv2dParams::same(3));
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, d + 1);
        let h = b.silu(h);
        let wp = b.param(rng.kaiming(&[c, c, 1, 1]));
        let h = b.conv2d(h, wp, None, Conv2dParams::default());
        let h = batchnorm_with_hostility(&mut b, &mut rng, h, c, cfg.hostility, d + 2);
        let h = b.silu(h);
        cur = b.add(cur, h); // MBConv-style skip
    }
    cur = b.global_avg_pool(cur);
    let wh = b.param(rng.kaiming(&[cfg.classes, c]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(cur, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("efficientnet_like_{}x{}", cfg.width, cfg.depth),
        "efficientnet_like",
        g,
        cfg,
    )
}

/// DenseNet-style: each block's output is *added* into a running feature
/// accumulator whose BatchNorm cannot be folded into a preceding conv —
/// the paper's footnote-2 case for extended-scheme BatchNorm quantization.
pub fn densenet_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let mut cur = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    let mut acc = cur;
    for d in 0..cfg.depth {
        let w = b.param(rng.kaiming(&[c, c, 3, 3]));
        let h = b.conv2d(cur, w, None, Conv2dParams::same(3));
        let h = b.relu(h);
        acc = b.add(acc, h);
        // BatchNorm on the *sum* — not foldable into any single conv.
        acc = batchnorm_with_hostility(&mut b, &mut rng, acc, c, cfg.hostility, d + 1);
        cur = acc;
    }
    let g_feat = b.global_avg_pool(acc);
    let wh = b.param(rng.kaiming(&[cfg.classes, c]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(g_feat, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("densenet_like_{}x{}", cfg.width, cfg.depth),
        "densenet_like",
        g,
        cfg,
    )
}

/// Inception-style: parallel 1×1 and 3×3 branches merged by Add.
pub fn inception_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let mut cur = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    for d in 0..cfg.depth {
        let w1 = b.param(rng.kaiming(&[c, c, 1, 1]));
        let b1 = b.conv2d(cur, w1, None, Conv2dParams::default());
        let b1 = b.relu(b1);
        let w3 = b.param(rng.kaiming(&[c, c, 3, 3]));
        let b3 = b.conv2d(cur, w3, None, Conv2dParams::same(3));
        let b3 = b.relu(b3);
        let merged = b.add(b1, b3);
        cur = batchnorm_with_hostility(&mut b, &mut rng, merged, c, cfg.hostility, d + 1);
    }
    cur = b.global_avg_pool(cur);
    let wh = b.param(rng.kaiming(&[cfg.classes, c]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(cur, wh, Some(bh));
    let g = b.finish(vec![out]);
    cv_classification(
        &format!("inception_like_{}x{}", cfg.width, cfg.depth),
        "inception_like",
        g,
        cfg,
    )
}

/// ViT-style: patch embedding conv, transformer encoder blocks over the
/// patch sequence, mean-pooled classification head. Runs one image per
/// forward (the patch reshape is static), like the NLP workloads.
pub fn vit_like(cfg: &CvConfig, nlp_outlier_gain: f32) -> Workload {
    use crate::families::common::{transformer_block, NlpConfig};
    let patch = 4;
    assert_eq!(cfg.img % patch, 0, "image must divide into patches");
    let p = cfg.img / patch;
    let seq = p * p;
    let d = cfg.width;
    let tcfg = NlpConfig {
        vocab: 0,
        seq,
        d,
        heads: if d.is_multiple_of(4) { 4 } else { 2 },
        layers: cfg.depth,
        ffn_mult: 2,
        seed: cfg.seed,
        outlier_gain: nlp_outlier_gain,
        outlier_channels: 1,
        gamma_sigma: 0.2,
    };
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input(); // [1, in_ch, img, img]
    let wp = b.param(rng.kaiming(&[d, cfg.in_ch, patch, patch]));
    let e = b.conv2d(
        x,
        wp,
        None,
        Conv2dParams {
            stride: patch,
            padding: 0,
        },
    ); // [1, d, p, p]
    let e = b.reshape(e, &[d, seq]);
    let mut cur = b.permute(e, &[1, 0]); // [seq, d]
    let pos = b.param(rng.normal(&[seq, d], 0.0, 0.3));
    cur = b.add_param(cur, pos);
    for l in 0..tcfg.layers {
        cur = transformer_block(&mut b, &mut rng, cur, &tcfg, l, false);
    }
    let pooled = b.mean_rows(cur); // [1, d]
    let wh = b.param(rng.kaiming(&[cfg.classes, d]));
    let bh = b.param(Tensor::zeros(&[cfg.classes]));
    let out = b.linear(pooled, wh, Some(bh));
    let mut graph = b.finish(vec![out]);

    // Per-sample prototype-cluster task (see `cv_classification`):
    // anchors are the class prototypes' own features.
    let mut rng = TensorRng::seed(cfg.seed ^ 0xC1A5);
    let n = 160;
    let shape = [1, cfg.in_ch, cfg.img, cfg.img];
    let prototypes: Vec<Tensor> = (0..cfg.classes)
        .map(|_| rng.normal(&shape, 0.0, 1.0))
        .collect();
    let mut labels = Vec::with_capacity(n);
    let mut eval = Vec::with_capacity(n);
    let mut calib = Vec::new();
    for i in 0..n {
        let c = i % cfg.classes;
        labels.push(c);
        let noise = rng.normal(&shape, 0.0, EVAL_NOISE);
        eval.push(vec![prototypes[c].add(&noise)]);
        if i < 24 {
            let noise = rng.normal(&shape, 0.0, EVAL_NOISE);
            calib.push(vec![prototypes[(i * 3 + 1) % cfg.classes].add(&noise)]);
        }
    }
    let head = crate::anchor::head_node(&graph);
    let mut probe = eval.clone();
    probe.extend(prototypes.iter().map(|p| vec![p.clone()]));
    let feats = crate::anchor::capture_features(&graph, &probe, head);
    let n_feat = feats.dim(0);
    let proto_rows: Vec<usize> = (n_feat - cfg.classes..n_feat).collect();
    crate::anchor::install_anchor_head_rows(&mut graph, head, &feats, &proto_rows);
    Workload::new(
        WorkloadSpec {
            name: format!("vit_like_{}x{}", cfg.width, cfg.depth),
            domain: Domain::Cv,
            family: "vit_like".to_string(),
        },
        graph,
        calib,
        eval,
        Metric::Top1 { labels },
        None,
    )
}

/// U-Net-style encoder/decoder with skip connections; dense per-pixel
/// classification (the Carvana-masking analogue).
pub fn unet_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    // Encoder level 0.
    let e0 = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    // Down to level 1.
    let w_dn = b.param(rng.kaiming(&[2 * c, c, 3, 3]));
    let e1 = b.conv2d(
        e0,
        w_dn,
        None,
        Conv2dParams {
            stride: 2,
            padding: 1,
        },
    );
    let e1 = batchnorm_with_hostility(&mut b, &mut rng, e1, 2 * c, cfg.hostility, 1);
    let e1 = b.relu(e1);
    // Bottleneck convs.
    let mut bot = e1;
    for d in 0..cfg.depth {
        let w = b.param(rng.kaiming(&[2 * c, 2 * c, 3, 3]));
        bot = b.conv2d(bot, w, None, Conv2dParams::same(3));
        bot = batchnorm_with_hostility(&mut b, &mut rng, bot, 2 * c, cfg.hostility, d + 2);
        bot = b.relu(bot);
    }
    // Up + skip.
    let up = b.upsample2x(bot);
    let w_up = b.param(rng.kaiming(&[c, 2 * c, 3, 3]));
    let u0 = b.conv2d(up, w_up, None, Conv2dParams::same(3));
    let u0 = b.relu(u0);
    let merged = b.add(u0, e0);
    // Per-pixel classifier.
    let w_out = b.param(rng.kaiming(&[2, c, 1, 1]));
    let out = b.conv2d(merged, w_out, None, Conv2dParams::default());
    let mut graph = b.finish(vec![out]);

    // Dense labels from FP32 on clean inputs.
    let mut rng = TensorRng::seed(cfg.seed ^ 0xC1A5);
    let n = 24;
    let pool = rng.normal(&[POOL_N, cfg.in_ch, cfg.img, cfg.img], 0.0, 1.0);
    let source = CalibSource {
        pool,
        noise: 0.1,
        batch: 16,
    };
    let init_batches = source.sample(128, Transform::Train, cfg.seed ^ 0xB117);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);
    crate::anchor::coadapt_convs(&mut graph, &init_batches[..2.min(init_batches.len())]);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);
    let clean = rng.normal(&[n, cfg.in_ch, cfg.img, cfg.img], 0.0, 1.0);
    let ref_out = graph.infer(std::slice::from_ref(&clean)).unwrap_ok();
    let labels = pixel_labels(&ref_out[0]);
    let noise = rng.normal(clean.shape(), 0.0, EVAL_NOISE);
    let eval = vec![vec![clean.add(&noise)]];
    let calib = source.sample(32, Transform::Train, cfg.seed ^ 0xCA11B);
    Workload::new(
        WorkloadSpec {
            name: format!("unet_like_{}x{}", cfg.width, cfg.depth),
            domain: Domain::Cv,
            family: "unet_like".to_string(),
        },
        graph,
        calib,
        eval,
        Metric::PixelTop1 { labels },
        Some(source),
    )
}

/// Detector-style: conv backbone with stride-2 downsampling and a 1×1
/// per-cell classification head (the YOLO-grid analogue).
pub fn detector_like(cfg: &CvConfig) -> Workload {
    let mut rng = TensorRng::seed(cfg.seed);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let c = cfg.width;
    let mut cur = conv_bn_relu(&mut b, &mut rng, x, cfg.in_ch, c, 3, 1, cfg.hostility, 0);
    let w_dn = b.param(rng.kaiming(&[c, c, 3, 3]));
    cur = b.conv2d(
        cur,
        w_dn,
        None,
        Conv2dParams {
            stride: 2,
            padding: 1,
        },
    );
    cur = b.relu(cur);
    for d in 0..cfg.depth {
        let w = b.param(rng.kaiming(&[c, c, 3, 3]));
        cur = b.conv2d(cur, w, None, Conv2dParams::same(3));
        cur = batchnorm_with_hostility(&mut b, &mut rng, cur, c, cfg.hostility, d + 1);
        cur = b.relu(cur);
    }
    let w_head = b.param(rng.kaiming(&[cfg.classes, c, 1, 1]));
    let out = b.conv2d(cur, w_head, None, Conv2dParams::default());
    let mut graph = b.finish(vec![out]);

    let mut rng = TensorRng::seed(cfg.seed ^ 0xC1A5);
    let n = 32;
    let pool = rng.normal(&[POOL_N, cfg.in_ch, cfg.img, cfg.img], 0.0, 1.0);
    let source = CalibSource {
        pool,
        noise: 0.1,
        batch: 16,
    };
    let init_batches = source.sample(128, Transform::Train, cfg.seed ^ 0xB117);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);
    crate::anchor::coadapt_convs(&mut graph, &init_batches[..2.min(init_batches.len())]);
    crate::anchor::initialize_bn_stats(&mut graph, &init_batches, 2);
    let clean = rng.normal(&[n, cfg.in_ch, cfg.img, cfg.img], 0.0, 1.0);
    let labels = pixel_labels(&graph.infer(std::slice::from_ref(&clean)).unwrap_ok()[0]);
    let noise = rng.normal(clean.shape(), 0.0, EVAL_NOISE);
    let eval = vec![vec![clean.add(&noise)]];
    let calib = source.sample(32, Transform::Train, cfg.seed ^ 0xCA11B);
    Workload::new(
        WorkloadSpec {
            name: format!("detector_like_{}x{}", cfg.width, cfg.depth),
            domain: Domain::Cv,
            family: "detector_like".to_string(),
        },
        graph,
        calib,
        eval,
        Metric::PixelTop1 { labels },
        Some(source),
    )
}

/// Per-pixel argmax labels from a `[n, classes, h, w]` logit tensor.
fn pixel_labels(logits: &Tensor) -> Vec<usize> {
    let (n, c, h, w) = (logits.dim(0), logits.dim(1), logits.dim(2), logits.dim(3));
    let mut labels = Vec::with_capacity(n * h * w);
    for ni in 0..n {
        for y in 0..h {
            for x in 0..w {
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for ci in 0..c {
                    let v = logits.at(&[ni, ci, y, x]);
                    if v > best_v {
                        best_v = v;
                        best = ci;
                    }
                }
                labels.push(best);
            }
        }
    }
    labels
}

/// Sanity hook used by tests: FP32 re-evaluation must match the stored
/// baseline.
pub fn fp32_rescore(w: &Workload) -> f64 {
    w.evaluate(&NoopHook).unwrap_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> CvConfig {
        CvConfig {
            img: 8,
            width: 6,
            depth: 2,
            classes: 5,
            seed,
            ..CvConfig::default()
        }
    }

    #[test]
    fn all_cv_families_build_and_score() {
        let cfg = small_cfg(1);
        for w in [
            vgg_like(&cfg),
            resnet_like(&cfg),
            mobilenet_like(&cfg),
            efficientnet_like(&cfg),
            densenet_like(&cfg),
            inception_like(&cfg),
            unet_like(&cfg),
            detector_like(&cfg),
        ] {
            assert!(
                w.fp32_score > 0.3 && w.fp32_score <= 1.0,
                "{} fp32 {}",
                w.spec.name,
                w.fp32_score
            );
            assert_eq!(fp32_rescore(&w), w.fp32_score, "{}", w.spec.name);
        }
    }

    #[test]
    fn vit_builds_and_scores() {
        let cfg = CvConfig {
            img: 8,
            width: 16,
            depth: 1,
            classes: 5,
            seed: 2,
            ..CvConfig::default()
        };
        let w = vit_like(&cfg, 10.0);
        assert!(w.fp32_score > 0.3, "fp32 {}", w.fp32_score);
        assert!(!w.has_batchnorm());
    }

    #[test]
    fn bn_families_have_batchnorm() {
        let cfg = small_cfg(3);
        assert!(resnet_like(&cfg).has_batchnorm());
        assert!(mobilenet_like(&cfg).has_batchnorm());
        assert!(!vgg_like(&cfg).has_batchnorm());
    }

    #[test]
    fn hostility_raises_activation_absmax() {
        let benign = resnet_like(&small_cfg(4));
        let hostile = resnet_like(&CvConfig {
            hostility: 30.0,
            ..small_cfg(4)
        });
        // Probe: run one eval batch and track the global activation absmax.
        struct AbsMax(f32);
        impl ptq_nn::ExecHook for AbsMax {
            fn after_node(&mut self, _n: &ptq_nn::Node, o: &Tensor) {
                for &v in o.data() {
                    self.0 = self.0.max(v.abs());
                }
            }
        }
        let mut hb = AbsMax(0.0);
        benign.graph.run(&benign.eval[0], &mut hb).unwrap_ok();
        let mut hh = AbsMax(0.0);
        hostile.graph.run(&hostile.eval[0], &mut hh).unwrap_ok();
        assert!(hh.0 > 3.0 * hb.0, "hostile {} vs benign {}", hh.0, hb.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = resnet_like(&small_cfg(7));
        let b = resnet_like(&small_cfg(7));
        assert_eq!(a.fp32_score, b.fp32_score);
        assert_eq!(a.graph.param_count(), b.graph.param_count());
    }
}
