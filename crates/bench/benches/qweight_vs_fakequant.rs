//! Criterion benchmark: `linear` / `conv2d` over an FP8-stored weight
//! (decoding codes through the LUT inside the MAC loop) against the legacy
//! fake-quant path that executes a dense dequantized-f32 weight tensor.
//!
//! What the comparison means: the fused kernels buy a ~4× cut in resident
//! weight bytes (reported by `QuantOutcome::weight_bytes` and the table2
//! binary) while staying bit-identical to the f32 path. The kernel groups
//! measure the compute cost of that trade at matched arithmetic — the
//! per-code table lookup vs a dense f32 load — and `dequant_each_call`
//! shows the alternative the storage design avoids: re-materializing the
//! full f32 weight on every execution. The `model` group runs a real
//! quantized zoo workload end-to-end through the planned executor in both
//! storage modes.
//!
//! Run with a longer window for stable numbers:
//! `CRITERION_MEASURE_MS=2000 cargo bench -p ptq-bench --bench qweight_vs_fakequant`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ptq_core::{calibrate_workload, QuantConfig, QuantizedModel, UnwrapOk, WeightStorage};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo, ZooFilter};
use ptq_tensor::ops::{self, Conv2dParams};
use ptq_tensor::{QTensor, TensorRng};

const LIN_BATCH: usize = 32;
const LIN_IN: usize = 256;
const LIN_OUT: usize = 256;

fn bench_linear_kernel(c: &mut Criterion) {
    let mut rng = TensorRng::seed(11);
    let x = rng.normal(&[LIN_BATCH, LIN_IN], 0.0, 1.0);
    let w = rng.kaiming(&[LIN_OUT, LIN_IN]);
    let q = QTensor::quantize_per_channel(&w, Fp8Format::E4M3).unwrap();
    // The fake-quant path executes exactly the decoded weight, so both
    // arms compute bit-identical outputs.
    let wf = q.dequantize();
    let macs = (LIN_BATCH * LIN_IN * LIN_OUT) as u64;
    let mut grp = c.benchmark_group("qweight_vs_fakequant/linear");
    grp.throughput(Throughput::Elements(macs));
    grp.bench_function("fakequant_f32", |b| {
        b.iter(|| black_box(ops::linear(&x, &wf, None)))
    });
    grp.bench_function("fused_q", |b| {
        b.iter(|| black_box(ops::linear(&x, &q, None)))
    });
    grp.bench_function("dequant_each_call", |b| {
        b.iter(|| black_box(ops::linear(&x, &q.dequantize(), None)))
    });
    grp.finish();
}

fn bench_conv_kernel(c: &mut Criterion) {
    let mut rng = TensorRng::seed(12);
    let x = rng.normal(&[4, 16, 16, 16], 0.0, 1.0);
    let w = rng.kaiming(&[32, 16, 3, 3]);
    let q = QTensor::quantize_per_channel(&w, Fp8Format::E4M3).unwrap();
    let wf = q.dequantize();
    let cp = Conv2dParams::same(3);
    let macs = (4 * 32 * 16 * 16 * 16 * 9) as u64;
    let mut grp = c.benchmark_group("qweight_vs_fakequant/conv2d");
    grp.throughput(Throughput::Elements(macs));
    grp.bench_function("fakequant_f32", |b| {
        b.iter(|| black_box(ops::conv2d(&x, &wf, None, cp)))
    });
    grp.bench_function("fused_q", |b| {
        b.iter(|| black_box(ops::conv2d(&x, &q, None, cp)))
    });
    grp.finish();
}

/// End-to-end control: one quantized zoo workload through the planned
/// executor under both storage modes. Differences here are bounded by the
/// weight-bearing fraction of total node time.
fn bench_model(c: &mut Criterion) {
    let zoo = build_zoo(ZooFilter::Quick);
    let w = &zoo[0];
    let cfg = QuantConfig::fp8(Fp8Format::E4M3);
    let calib = calibrate_workload(w, &cfg).unwrap_ok();
    let stored = QuantizedModel::build(w.graph.clone(), &calib, cfg.clone()).unwrap_ok();
    let legacy = QuantizedModel::build(
        w.graph.clone(),
        &calib,
        cfg.with_weight_storage(WeightStorage::FakeQuantF32),
    )
    .unwrap_ok();
    eprintln!(
        "model {}: fp8-stored weights {} bytes vs f32 {} bytes ({:.2}x)",
        w.spec.name,
        stored.weight_bytes(),
        stored.weight_bytes_f32(),
        stored.weight_bytes_f32() as f64 / stored.weight_bytes().max(1) as f64
    );
    let inputs = &w.eval[0];
    let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.shape().to_vec()).collect();
    let plan = w.graph.plan(&shapes).unwrap_ok();
    let mut grp = c.benchmark_group("qweight_vs_fakequant/model");
    grp.throughput(Throughput::Elements(1));
    grp.bench_function(format!("fakequant_{}", w.spec.name), |b| {
        b.iter(|| {
            black_box(
                plan.run(&legacy.graph, inputs, &mut legacy.hook())
                    .unwrap_ok(),
            )
        })
    });
    grp.bench_function(format!("fp8_stored_{}", w.spec.name), |b| {
        b.iter(|| {
            black_box(
                plan.run(&stored.graph, inputs, &mut stored.hook())
                    .unwrap_ok(),
            )
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_linear_kernel, bench_conv_kernel, bench_model);
criterion_main!(benches);
