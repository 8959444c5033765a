//! Roofline harness for the fused quantized MAC kernels.
//!
//! Three jobs in one binary:
//!
//! 1. **Steady-state allocation audit** (runs first, before any timing):
//!    a counting `#[global_allocator]` proves that warmed-up kernel calls
//!    — including boundary activation quantization and decode-table
//!    packing — allocate zero heap bytes. This is the regression guard
//!    for the per-row `vec![0.0; k]` allocations this PR removed.
//! 2. **Machine probes**: peak f32 multiply-add throughput (independent
//!    unrolled lanes, the compiler's best case) and streaming memory
//!    bandwidth (multi-accumulator sum over a buffer far beyond cache).
//!    These set the roofline: `min(peak_flops, intensity * bandwidth)`.
//! 3. **Kernel benchmarks**: every operand combination with a blocked
//!    kernel (`matmul_qq`: coded·coded; `linear_q/qq`, `conv2d_q/qq`:
//!    f32 or coded input × FP8 weight) through both [`KernelPath`]s on
//!    fixed shapes, reported as GFLOP/s, bytes/MAC, and
//!    fraction-of-roofline, plus the blocked/scalar ratio that
//!    `ci/check_bench_regress.sh` gates against
//!    `ci/bench_baseline_roofline.json`.
//!
//! Shapes are sized to stay under the kernels' parallel fan-out cutoff so
//! the numbers measure the micro-kernels themselves, not thread spawns of
//! the workspace's scoped-thread `rayon` stand-in.
//!
//! Run standalone: `cargo bench -p ptq-bench --bench roofline`
//! (a longer `CRITERION_MEASURE_MS` gives more stable numbers).

use criterion::{black_box, criterion_group, Criterion, Throughput};
use ptq_fp8::Fp8Format;
use ptq_tensor::ops::{self, Conv2dParams, KernelPath};
use ptq_tensor::{QActTensor, QTensor, Tensor, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Counting allocator: every heap byte the process requests is tallied.

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Fixed workload shapes. Kept under the kernels' parallel fan-out cutoff
// (1 << 20 MACs) so both the timing and the allocation audit see the
// serial micro-kernel path. `ci/bench_baseline_roofline.json` duplicates
// the FLOP/byte constants derived from these; change them together.

const F: Fp8Format = Fp8Format::E4M3;

const MM_M: usize = 32;
const MM_K: usize = 160;
const MM_N: usize = 160;

const CV_N: usize = 1;
const CV_CIN: usize = 8;
const CV_H: usize = 24;
const CV_W: usize = 24;
const CV_COUT: usize = 16;
const CV_KHW: usize = 3;
const CV_P: Conv2dParams = Conv2dParams {
    stride: 1,
    padding: 1,
};

const fn mm_macs() -> usize {
    MM_M * MM_K * MM_N
}

const fn conv_macs() -> usize {
    CV_N * CV_COUT * CV_H * CV_W * CV_CIN * CV_KHW * CV_KHW
}

/// Operands shared by the kernel benchmarks and the allocation audit.
struct Fixture {
    a: Tensor,
    qa: QActTensor,
    qb_act: QActTensor,
    qw: QTensor,
    x: Tensor,
    qx: QActTensor,
    cw: QTensor,
}

impl Fixture {
    fn new() -> Self {
        let mut rng = TensorRng::seed(77);
        let a = rng.normal(&[MM_M, MM_K], 0.0, 1.0);
        let b = rng.normal(&[MM_K, MM_N], 0.0, 1.0);
        let w = rng.kaiming(&[MM_N, MM_K]);
        let x = rng.normal(&[CV_N, CV_CIN, CV_H, CV_W], 0.0, 1.0);
        let cw = rng.kaiming(&[CV_COUT, CV_CIN, CV_KHW, CV_KHW]);
        let (mut qa, mut qb_act, mut qx) =
            (QActTensor::new(), QActTensor::new(), QActTensor::new());
        qa.quantize_dynamic(&a, F);
        qb_act.quantize_dynamic(&b, F);
        qx.quantize_dynamic(&x, F);
        Fixture {
            qa,
            qb_act,
            qw: QTensor::quantize_per_channel(&w, F).unwrap(),
            a,
            qx,
            cw: QTensor::quantize_per_channel(&cw, F).unwrap(),
            x,
        }
    }
}

// ---------------------------------------------------------------------
// Steady-state allocation audit.

fn assert_hot_loop_allocation_free() {
    let mut fx = Fixture::new();
    let mut outs: [Tensor; 5] = Default::default();
    // Warm-up: grows the per-thread scratch pool, output buffers and
    // QActTensor code/scale buffers to their high-water marks.
    run_kernel_sweep(&mut fx, &mut outs, 3);
    let before = allocated_bytes();
    run_kernel_sweep(&mut fx, &mut outs, 10);
    let grown = allocated_bytes() - before;
    assert_eq!(
        grown, 0,
        "steady-state kernel calls must not allocate, got {grown} bytes over 10 sweeps"
    );
    eprintln!("[roofline] allocation audit: 0 bytes across 10 warmed kernel sweeps (both paths)");
}

/// One pass over every fused kernel on both paths, re-quantizing
/// activations at the boundary each time (what an executor pays per node).
fn run_kernel_sweep(fx: &mut Fixture, outs: &mut [Tensor; 5], calls: usize) {
    for _ in 0..calls {
        for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
            fx.qa.quantize_dynamic(&fx.a, F);
            ops::matmul_into(&fx.qa, &fx.qb_act, &mut outs[0], path);
            ops::linear_into(&fx.a, &fx.qw, None, &mut outs[1], path);
            ops::linear_into(&fx.qa, &fx.qw, None, &mut outs[2], path);
            ops::conv2d_into(&fx.x, &fx.cw, None, CV_P, &mut outs[3], path);
            fx.qx.quantize_dynamic(&fx.x, F);
            ops::conv2d_into(&fx.qx, &fx.cw, None, CV_P, &mut outs[4], path);
        }
    }
}

// ---------------------------------------------------------------------
// Machine probes.

const FMA_LANES: usize = 64;
const FMA_ROUNDS: usize = 4096;
/// f32 FLOPs one `fma_probe` call performs (mul + add per lane-round).
const FMA_FLOPS_PER_ITER: u64 = (FMA_LANES * FMA_ROUNDS * 2) as u64;

/// Independent multiply-add chains, unrolled wide enough to saturate the
/// FPU pipelines; the multiplier keeps the accumulators finite. Uses the
/// same runtime-detected AVX2 lane the blocked kernels use (rustc
/// targets baseline SSE2), so the ceiling matches what a kernel can
/// actually reach on this machine.
fn fma_probe(seed: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence checked on the line above.
        return unsafe { fma_probe_avx2(seed) };
    }
    fma_probe_scalar(seed)
}

fn fma_probe_scalar(seed: f32) -> f32 {
    let mut acc = [seed; FMA_LANES];
    let m = 0.999_999_9f32;
    let a = 1.0e-9f32;
    for _ in 0..FMA_ROUNDS {
        for lane in acc.iter_mut() {
            *lane = *lane * m + a;
        }
    }
    acc.iter().sum()
}

/// 8 independent 8-wide mul/add chains — enough in flight to cover the
/// mul+add latency, matching the vmulps/vaddps (non-fused) instruction
/// mix of the blocked matmul tile.
///
/// # Safety
///
/// Caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fma_probe_avx2(seed: f32) -> f32 {
    use std::arch::x86_64::*;
    const CHAINS: usize = FMA_LANES / 8;
    let mut acc = [_mm256_set1_ps(seed); CHAINS];
    let m = _mm256_set1_ps(0.999_999_9f32);
    let a = _mm256_set1_ps(1.0e-9f32);
    for _ in 0..FMA_ROUNDS {
        for ch in acc.iter_mut() {
            *ch = _mm256_add_ps(_mm256_mul_ps(*ch, m), a);
        }
    }
    let mut out = [0.0f32; FMA_LANES];
    for (ch, dst) in acc.iter().zip(out.chunks_exact_mut(8)) {
        _mm256_storeu_ps(dst.as_mut_ptr(), *ch);
    }
    out.iter().sum()
}

/// 16 MiB of f32 — far beyond any cache level, so the sum streams from
/// main memory.
const MEMBW_LEN: usize = 1 << 22;
const MEMBW_BYTES_PER_ITER: u64 = (MEMBW_LEN * 4) as u64;

/// Multi-accumulator streaming sum: bandwidth-bound, not latency-bound.
fn membw_probe(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut chunks = buf.chunks_exact(8);
    for c in &mut chunks {
        for (s, v) in acc.iter_mut().zip(c) {
            *s += v;
        }
    }
    acc.iter().sum::<f32>() + chunks.remainder().iter().sum::<f32>()
}

fn bench_machine(c: &mut Criterion) {
    let mut grp = c.benchmark_group("roofline/machine");
    grp.throughput(Throughput::Elements(FMA_FLOPS_PER_ITER));
    grp.bench_function("peak_fma", |b| b.iter(|| fma_probe(black_box(1.0))));
    let buf: Vec<f32> = (0..MEMBW_LEN).map(|i| (i % 17) as f32).collect();
    grp.throughput(Throughput::Bytes(MEMBW_BYTES_PER_ITER));
    grp.bench_function("membw", |b| b.iter(|| membw_probe(black_box(&buf))));
    grp.finish();
}

// ---------------------------------------------------------------------
// Kernel benchmarks: blocked vs scalar reference.

fn path_name(path: KernelPath) -> &'static str {
    match path {
        KernelPath::Blocked => "blocked",
        KernelPath::ScalarReference => "scalar",
    }
}

fn bench_kernels(c: &mut Criterion) {
    let fx = Fixture::new();
    let mut out = Tensor::default();

    let mut grp = c.benchmark_group("roofline/matmul_qq");
    grp.throughput(Throughput::Elements(mm_macs() as u64));
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        grp.bench_function(path_name(path), |b| {
            b.iter(|| ops::matmul_into(black_box(&fx.qa), &fx.qb_act, &mut out, path))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("roofline/linear_q");
    grp.throughput(Throughput::Elements(mm_macs() as u64));
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        grp.bench_function(path_name(path), |b| {
            b.iter(|| ops::linear_into(black_box(&fx.a), &fx.qw, None, &mut out, path))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("roofline/linear_qq");
    grp.throughput(Throughput::Elements(mm_macs() as u64));
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        grp.bench_function(path_name(path), |b| {
            b.iter(|| ops::linear_into(black_box(&fx.qa), &fx.qw, None, &mut out, path))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("roofline/conv2d_q");
    grp.throughput(Throughput::Elements(conv_macs() as u64));
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        grp.bench_function(path_name(path), |b| {
            b.iter(|| ops::conv2d_into(black_box(&fx.x), &fx.cw, None, CV_P, &mut out, path))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("roofline/conv2d_qq");
    grp.throughput(Throughput::Elements(conv_macs() as u64));
    for path in [KernelPath::Blocked, KernelPath::ScalarReference] {
        grp.bench_function(path_name(path), |b| {
            b.iter(|| ops::conv2d_into(black_box(&fx.qx), &fx.cw, None, CV_P, &mut out, path))
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_machine, bench_kernels);

// ---------------------------------------------------------------------
// Roofline report: read back the NDJSON this run just wrote and derive
// GFLOP/s, bytes/MAC, arithmetic intensity and fraction-of-roofline.

/// Minimum (compulsory) memory traffic per kernel call in bytes: each
/// operand read once, the output written once. Codes are 1 byte/element,
/// f32 operands and outputs 4.
fn kernel_table() -> Vec<(&'static str, u64, u64)> {
    let mm_flops = (2 * mm_macs()) as u64;
    let cv_flops = (2 * conv_macs()) as u64;
    let mm_out = (4 * MM_M * MM_N) as u64;
    let conv_in = CV_N * CV_CIN * CV_H * CV_W;
    let conv_w = CV_COUT * CV_CIN * CV_KHW * CV_KHW;
    let conv_out = (4 * CV_N * CV_COUT * CV_H * CV_W) as u64;
    vec![
        // (group, flops/iter, min bytes/iter)
        (
            "roofline/matmul_qq",
            mm_flops,
            (MM_M * MM_K + MM_K * MM_N) as u64 + mm_out,
        ),
        (
            "roofline/linear_q",
            mm_flops,
            (4 * MM_M * MM_K + MM_N * MM_K) as u64 + mm_out,
        ),
        (
            "roofline/linear_qq",
            mm_flops,
            (MM_M * MM_K + MM_N * MM_K) as u64 + mm_out,
        ),
        (
            "roofline/conv2d_q",
            cv_flops,
            (4 * conv_in + conv_w) as u64 + conv_out,
        ),
        (
            "roofline/conv2d_qq",
            cv_flops,
            (conv_in + conv_w) as u64 + conv_out,
        ),
    ]
}

/// Parse one NDJSON record (`{"id":"...","secs_per_iter":...,"iters":...}`).
fn parse_record(line: &str) -> Option<(String, f64)> {
    let record = ptq_trace::json::Value::parse(line).ok()?;
    let id = record.get("id")?.as_str()?;
    let secs = record.get("secs_per_iter")?.as_f64()?;
    Some((id.to_string(), secs))
}

fn print_roofline_report(ndjson_path: &str) {
    let Ok(text) = std::fs::read_to_string(ndjson_path) else {
        eprintln!("[roofline] no NDJSON at {ndjson_path}; skipping report");
        return;
    };
    let mut secs: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some((id, s)) = parse_record(line) {
            // Last record wins if the file has stale runs appended.
            secs.insert(id, s);
        }
    }
    let (Some(&peak_s), Some(&bw_s)) = (
        secs.get("roofline/machine/peak_fma"),
        secs.get("roofline/machine/membw"),
    ) else {
        eprintln!("[roofline] machine probes missing from {ndjson_path}; skipping report");
        return;
    };
    let peak_flops = FMA_FLOPS_PER_ITER as f64 / peak_s;
    let membw = MEMBW_BYTES_PER_ITER as f64 / bw_s;
    eprintln!(
        "\n[roofline] machine: peak {:.2} GFLOP/s, membw {:.2} GB/s",
        peak_flops / 1e9,
        membw / 1e9
    );
    eprintln!(
        "{:<22} {:>8} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "kernel", "path", "GFLOP/s", "bytes/MAC", "AI", "roofline", "fraction"
    );
    for (group, flops, bytes) in kernel_table() {
        let ai = flops as f64 / bytes as f64;
        let roof = peak_flops.min(ai * membw);
        for path in ["blocked", "scalar"] {
            let Some(&s) = secs.get(&format!("{group}/{path}")) else {
                continue;
            };
            let achieved = flops as f64 / s;
            eprintln!(
                "{:<22} {:>8} {:>10.2} {:>10.2} {:>9.2} {:>10.2} {:>8.1}%",
                group.trim_start_matches("roofline/"),
                path,
                achieved / 1e9,
                bytes as f64 / (flops / 2) as f64,
                ai,
                roof / 1e9,
                100.0 * achieved / roof
            );
        }
        let (b, sc) = (
            secs.get(&format!("{group}/blocked")),
            secs.get(&format!("{group}/scalar")),
        );
        if let (Some(&b), Some(&sc)) = (b, sc) {
            eprintln!(
                "{:<22} {:>8} blocked/scalar secs ratio {:.3} ({:.2}x speedup)",
                group.trim_start_matches("roofline/"),
                "",
                b / sc,
                sc / b
            );
        }
    }
}

fn main() {
    assert_hot_loop_allocation_free();
    // The report needs the NDJSON records; point CRITERION_JSON at a
    // scratch file when the caller didn't ask for one.
    let preset = std::env::var("CRITERION_JSON")
        .ok()
        .filter(|p| !p.is_empty());
    let path = preset.clone().unwrap_or_else(|| {
        let p = std::env::temp_dir().join(format!("roofline_{}.ndjson", std::process::id()));
        let p = p.to_string_lossy().into_owned();
        std::env::set_var("CRITERION_JSON", &p);
        p
    });
    benches();
    print_roofline_report(&path);
    if preset.is_none() {
        std::fs::remove_file(&path).ok();
        std::env::remove_var("CRITERION_JSON");
    }
}
