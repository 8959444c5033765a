//! Criterion benchmark: the end-to-end FP8 activation datapath (quantize
//! activations to codes at the op boundary, run code×code kernels with a
//! fused decode-accumulate) against the PR-5 fused-weight-only path
//! (fake-quant the activation in place as f32, run the same kernels on
//! the f32 activation).
//!
//! Each arm includes its boundary cost — `fake_quant_fp8_lut` for the
//! weight-only path, `QActTensor::quantize_*` for the coded path — so the
//! comparison is what an executor actually pays per node. The coded path
//! buys a ~4× cut in activation bytes crossing each boundary
//! (`QuantOutcome::act_bytes`) while staying bit-identical; this bench
//! (and `ci/check_bench_regress.sh` against the committed baseline in
//! `ci/bench_baseline_act_qq.json`) keeps the compute cost of that trade
//! from regressing.
//!
//! Run with a longer window for stable numbers:
//! `CRITERION_MEASURE_MS=2000 cargo bench -p ptq-bench --bench act_qq_vs_fakequant`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ptq_core::config::ActivationStorage;
use ptq_core::{calibrate_workload, QuantConfig, QuantizedModel, UnwrapOk};
use ptq_fp8::{fake_quant_fp8_lut, Fp8Codec, Fp8Format};
use ptq_models::{build_zoo, ZooFilter};
use ptq_tensor::ops::{self, Conv2dParams};
use ptq_tensor::{tile_scale, QActTensor, QTensor, Tensor, TensorRng};

const F: Fp8Format = Fp8Format::E4M3;
const LIN_BATCH: usize = 32;
const LIN_IN: usize = 256;
const LIN_OUT: usize = 256;

/// The weight-only boundary step: dynamic per-tensor fake-quant in place.
fn fake_quant_dynamic(x: &mut Tensor) {
    let s = tile_scale(F, x.data());
    fake_quant_fp8_lut(x.data_mut(), &Fp8Codec::new(F), s);
}

fn bench_linear(c: &mut Criterion) {
    let mut rng = TensorRng::seed(21);
    let x = rng.normal(&[LIN_BATCH, LIN_IN], 0.0, 1.0);
    let w = rng.kaiming(&[LIN_OUT, LIN_IN]);
    let q = QTensor::quantize_per_channel(&w, F).unwrap();
    let macs = (LIN_BATCH * LIN_IN * LIN_OUT) as u64;
    let mut grp = c.benchmark_group("act_qq_vs_fakequant/linear");
    grp.throughput(Throughput::Elements(macs));
    grp.bench_function("weight_q_fakequant_act", |b| {
        b.iter_batched(
            || x.clone(),
            |mut xf| {
                fake_quant_dynamic(&mut xf);
                black_box(ops::linear(&xf, &q, None))
            },
            BatchSize::LargeInput,
        )
    });
    let mut qx = QActTensor::new();
    grp.bench_function("qq_coded_act", |b| {
        b.iter(|| {
            qx.quantize_dynamic(&x, F);
            black_box(ops::linear(&qx, &q, None))
        })
    });
    let mut qt = QActTensor::new();
    grp.bench_function("qq_coded_act_tile128", |b| {
        b.iter(|| {
            qt.quantize_per_tile(&x, F, 128);
            black_box(ops::linear(&qt, &q, None))
        })
    });
    grp.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = TensorRng::seed(22);
    let x = rng.normal(&[4, 16, 16, 16], 0.0, 1.0);
    let w = rng.kaiming(&[32, 16, 3, 3]);
    let q = QTensor::quantize_per_channel(&w, F).unwrap();
    let cp = Conv2dParams::same(3);
    let macs = (4 * 32 * 16 * 16 * 16 * 9) as u64;
    let mut grp = c.benchmark_group("act_qq_vs_fakequant/conv2d");
    grp.throughput(Throughput::Elements(macs));
    grp.bench_function("weight_q_fakequant_act", |b| {
        b.iter_batched(
            || x.clone(),
            |mut xf| {
                fake_quant_dynamic(&mut xf);
                black_box(ops::conv2d(&xf, &q, None, cp))
            },
            BatchSize::LargeInput,
        )
    });
    let mut qx = QActTensor::new();
    grp.bench_function("qq_coded_act", |b| {
        b.iter(|| {
            qx.quantize_dynamic(&x, F);
            black_box(ops::conv2d(&qx, &q, None, cp))
        })
    });
    grp.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = TensorRng::seed(23);
    let a = rng.normal(&[64, 192], 0.0, 1.0);
    let b_ = rng.normal(&[192, 64], 0.0, 1.0);
    let macs = (64 * 192 * 64) as u64;
    let mut grp = c.benchmark_group("act_qq_vs_fakequant/matmul");
    grp.throughput(Throughput::Elements(macs));
    grp.bench_function("fakequant_both", |b| {
        b.iter_batched(
            || (a.clone(), b_.clone()),
            |(mut af, mut bf)| {
                fake_quant_dynamic(&mut af);
                fake_quant_dynamic(&mut bf);
                black_box(ops::matmul(&af, &bf))
            },
            BatchSize::LargeInput,
        )
    });
    let (mut qa, mut qb) = (QActTensor::new(), QActTensor::new());
    grp.bench_function("qq_coded_both", |b| {
        b.iter(|| {
            qa.quantize_dynamic(&a, F);
            qb.quantize_dynamic(&b_, F);
            black_box(ops::matmul(&qa, &qb))
        })
    });
    grp.finish();
}

/// End-to-end control: one quantized zoo workload through the planned
/// executor with the activation datapath on vs off. Differences here are
/// bounded by the coded-op fraction of total node time.
fn bench_model(c: &mut Criterion) {
    let zoo = build_zoo(ZooFilter::Quick);
    let w = &zoo[0];
    let cfg = QuantConfig::fp8(F);
    let calib = calibrate_workload(w, &cfg).unwrap_ok();
    let coded = QuantizedModel::build(w.graph.clone(), &calib, cfg.clone()).unwrap_ok();
    let legacy = QuantizedModel::build(
        w.graph.clone(),
        &calib,
        cfg.with_activation_storage(ActivationStorage::FakeQuantF32),
    )
    .unwrap_ok();
    let inputs = &w.eval[0];
    let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.shape().to_vec()).collect();
    let plan = w.graph.plan(&shapes).unwrap_ok();
    plan.run(&coded.graph, inputs, &mut coded.hook())
        .unwrap_ok();
    eprintln!(
        "model {}: coded activations {} bytes vs f32 {} bytes ({:.2}x)",
        w.spec.name,
        coded.act_bytes(),
        coded.act_bytes_f32(),
        coded.act_bytes_f32() as f64 / coded.act_bytes().max(1) as f64
    );
    let mut grp = c.benchmark_group("act_qq_vs_fakequant/model");
    grp.throughput(Throughput::Elements(1));
    grp.bench_function(format!("fakequant_{}", w.spec.name), |b| {
        b.iter(|| {
            black_box(
                plan.run(&legacy.graph, inputs, &mut legacy.hook())
                    .unwrap_ok(),
            )
        })
    });
    grp.bench_function(format!("fp8_coded_{}", w.spec.name), |b| {
        b.iter(|| {
            black_box(
                plan.run(&coded.graph, inputs, &mut coded.hook())
                    .unwrap_ok(),
            )
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_linear, bench_conv, bench_matmul, bench_model);
criterion_main!(benches);
