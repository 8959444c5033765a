//! Stand-alone replays: the two machine probes and the program's public
//! kernels called at the workloads' own shapes, outside any model.
//!
//! Shapes (read from the model configs in `workloads/`):
//! * `conv2d_qq` — forward_cv's residual conv: 16→16 channels, 3×3, same
//!   padding, on `[48,16,12,12]` (15.9 M MACs, above the 1 Mi-MAC thread
//!   fan-out cutoff).
//! * `linear_qq` — forward_nlp's FFN up-projection `[64,128]·[256,128]ᵀ`
//!   (2.1 M MACs, above the cutoff).
//! * `matmul_qq` — one attention head of forward_nlp `[64,32]·[32,64]`.
//! * `linear_qq_m1` / `_m8` — decode_streams' FFN up-projection at 1 and
//!   8 rows.
//! * attention steps / KV append — decode_long at a full window: cache
//!   length 256, d 64, 4 heads.
//!
//! GFLOP/s counts 2 flops per MAC. Bytes are the compulsory traffic
//! computed from tensor sizes (codes 1 B, f32 4 B, each operand once) and
//! roofline fractions divide by this file's own probes: computed, not
//! measured on an accelerator.

use crate::measure::{alloc_counts, median, Rng};
use crate::report::Values;
use ptq_core::{EngineSpec, QuantConfig};
use ptq_fp8::{Fp8Codec, Fp8Format, Fp8Lut};
use ptq_tensor::ops::{self, Conv2dParams, KernelPath};
use ptq_tensor::{KvBuf, KvCachePolicy, QActTensor, QTensor, Tensor};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

const F: Fp8Format = Fp8Format::E4M3;

/// Median over batches of the mean seconds per call of `f`, measuring
/// for about `budget`.
fn secs_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    // Batches of about a millisecond, so the clock read is noise.
    let per_batch = ((1e-3 / one) as usize).clamp(1, 100_000);
    let mut means = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || means.len() < 5 {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        means.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    median(&means).expect("at least five batches")
}

// ---- machine probes -------------------------------------------------

const FMA_LANES: usize = 64;
const FMA_ROUNDS: usize = 4096;

/// Independent multiply-add chains, wide enough to fill the FP pipes.
/// Separate mul and add (never fused), the instruction mix of the
/// program's bit-exact kernels, through AVX2 when the machine has it.
fn fma_probe(seed: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was checked on the line above.
        return unsafe { fma_probe_avx2(seed) };
    }
    let mut acc = [seed; FMA_LANES];
    for _ in 0..FMA_ROUNDS {
        for lane in acc.iter_mut() {
            *lane = *lane * 0.999_999_9 + 1.0e-9;
        }
    }
    acc.iter().sum()
}

/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fma_probe_avx2(seed: f32) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let mut acc = [_mm256_set1_ps(seed); FMA_LANES / 8];
    let m = _mm256_set1_ps(0.999_999_9);
    let a = _mm256_set1_ps(1.0e-9);
    for _ in 0..FMA_ROUNDS {
        for ch in acc.iter_mut() {
            *ch = _mm256_add_ps(_mm256_mul_ps(*ch, m), a);
        }
    }
    let mut out = [0.0f32; FMA_LANES];
    for (ch, dst) in acc.iter().zip(out.chunks_exact_mut(8)) {
        // SAFETY: `dst` is 8 f32 wide and the store is unaligned-safe.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), *ch) };
    }
    out.iter().sum()
}

/// 16 MiB of f32: beyond any cache level, so the sum streams from memory.
const MEMBW_LEN: usize = 1 << 22;

fn membw_probe(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    for c in buf.chunks_exact(8) {
        for (s, v) in acc.iter_mut().zip(c) {
            *s += v;
        }
    }
    acc.iter().sum()
}

struct Machine {
    peak_gflops: f64,
    membw_gbs: f64,
}

impl Machine {
    fn probe(budget: Duration) -> Machine {
        let fma = secs_per_call(budget, || {
            black_box(fma_probe(black_box(1.0)));
        });
        let buf: Vec<f32> = (0..MEMBW_LEN).map(|i| (i % 17) as f32).collect();
        let bw = secs_per_call(budget, || {
            black_box(membw_probe(black_box(&buf)));
        });
        Machine {
            peak_gflops: (FMA_LANES * FMA_ROUNDS * 2) as f64 / fma / 1e9,
            membw_gbs: (MEMBW_LEN * 4) as f64 / bw / 1e9,
        }
    }

    /// `min(peak, intensity × bandwidth)` in GFLOP/s.
    fn roofline(&self, flops: f64, bytes: f64) -> f64 {
        self.peak_gflops.min(flops / bytes * self.membw_gbs)
    }
}

// ---- operands -------------------------------------------------------

fn tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
    Tensor::from_vec(rng.normals(shape.iter().product()), shape)
}

fn coded(rng: &mut Rng, shape: &[usize]) -> QActTensor {
    let mut q = QActTensor::new();
    q.quantize_dynamic(&tensor(rng, shape), F);
    q
}

fn weight(rng: &mut Rng, shape: &[usize]) -> QTensor {
    QTensor::quantize_per_channel(&tensor(rng, shape), F).expect("finite replay weight")
}

fn filled_cache(rng: &mut Rng, policy: KvCachePolicy) -> KvBuf {
    let mut buf = KvBuf::new(KV_D, KV_LEN, policy);
    for _ in 0..KV_LEN {
        buf.append_row(&rng.normals(KV_D))
            .expect("row fits the cache");
    }
    buf
}

const KV_D: usize = 64;
const KV_LEN: usize = 256;
const KV_HEADS: usize = 4;

/// The two cache policies with their `[attn_step_q, attn_step_v,
/// kv_append]` metric names.
fn kv_policies() -> [([&'static str; 3], KvCachePolicy); 2] {
    [
        (
            [
                "tensor.attn_step_q_fp8_us",
                "tensor.attn_step_v_fp8_us",
                "tensor.kv_append_fp8_ns",
            ],
            KvCachePolicy::Fp8 {
                format: F,
                scale: Some(16.0),
            },
        ),
        (
            [
                "tensor.attn_step_q_f32_us",
                "tensor.attn_step_v_f32_us",
                "tensor.kv_append_f32_ns",
            ],
            KvCachePolicy::F32,
        ),
    ]
}

/// `[us, gflops, roofline_frac, bytes]` metric names of a replay.
macro_rules! tensor_names {
    ($stem:literal) => {
        [
            concat!("tensor.", $stem, "_us"),
            concat!("tensor.", $stem, "_gflops"),
            concat!("tensor.", $stem, "_roofline_frac"),
            concat!("tensor.", $stem, "_bytes"),
        ]
    };
}

/// One fused-kernel replay: metric names, MACs, compulsory bytes, the
/// call.
struct Kernel<'a> {
    names: [&'static str; 4],
    macs: usize,
    bytes: usize,
    call: Box<dyn FnMut() + 'a>,
}

/// Run every replay, each for about `each`, and record the `machine.*`,
/// `fp8.*` and `tensor.*` metrics and `core.spec_roundtrip_us` for the
/// workload's recipe.
pub fn replay_all(values: &mut Values, each: Duration, seed: u64, cfg: &QuantConfig) {
    values.set("core.spec_roundtrip_us", spec_roundtrip_us(cfg, each));
    let mut rng = Rng::new(seed ^ 0x5eed_ca11);
    let machine = Machine::probe(each);
    values.set("machine.peak_gflops", machine.peak_gflops);
    values.set("machine.membw_gbs", machine.membw_gbs);

    // fp8: the LUT codec and the weight-encode path PTQ runs per tensor.
    let lut = Fp8Lut::for_codec(&Fp8Codec::new(F)).expect("default codec policies have a table");
    let xs = rng.normals(1 << 16);
    let mut sink = vec![0.0f32; xs.len()];
    let t = secs_per_call(each, || {
        for (o, &x) in sink.iter_mut().zip(&xs) {
            *o = lut.quantize(x);
        }
        black_box(&sink);
    });
    values.set("fp8.lut_quantize_melem_s", xs.len() as f64 / t / 1e6);
    let codes: Vec<u8> = (0..1usize << 16).map(|i| (i * 37) as u8).collect();
    let t = secs_per_call(each, || {
        for (o, &c) in sink.iter_mut().zip(&codes) {
            *o = lut.decode(c);
        }
        black_box(&sink);
    });
    values.set("fp8.lut_decode_melem_s", codes.len() as f64 / t / 1e6);
    let w = tensor(&mut rng, &[256, 128]);
    let t = secs_per_call(each, || {
        black_box(QTensor::quantize_per_channel(black_box(&w), F).expect("finite weight"));
    });
    values.set("fp8.encode_codes_melem_s", w.len() as f64 / t / 1e6);

    // tensor: the five fused-kernel replays.
    let conv_x = coded(&mut rng, &[48, 16, 12, 12]);
    let conv_w = weight(&mut rng, &[16, 16, 3, 3]);
    let conv_p = Conv2dParams {
        stride: 1,
        padding: 1,
    };
    let lin_w = weight(&mut rng, &[256, 128]);
    let lin_x = coded(&mut rng, &[64, 128]);
    let lin_x1 = coded(&mut rng, &[1, 128]);
    let lin_x8 = coded(&mut rng, &[8, 128]);
    let mm_a = coded(&mut rng, &[64, 32]);
    let mm_b = coded(&mut rng, &[32, 64]);
    let outs: Vec<std::cell::RefCell<Tensor>> = (0..5).map(|_| Default::default()).collect();
    let lin = |x: &QActTensor, o: &std::cell::RefCell<Tensor>| {
        ops::linear_qq_into(black_box(x), &lin_w, None, &mut o.borrow_mut());
    };
    let mut kernels = vec![
        Kernel {
            names: tensor_names!("conv2d_qq"),
            macs: 48 * 16 * 12 * 12 * 16 * 9,
            bytes: conv_x.len() + conv_w.len() + 4 * 48 * 16 * 12 * 12,
            call: Box::new(|| {
                ops::conv2d_qq_into(
                    black_box(&conv_x),
                    &conv_w,
                    None,
                    conv_p,
                    &mut outs[0].borrow_mut(),
                );
            }),
        },
        Kernel {
            names: tensor_names!("linear_qq"),
            macs: 64 * 128 * 256,
            bytes: lin_x.len() + lin_w.len() + 4 * 64 * 256,
            call: Box::new(|| lin(&lin_x, &outs[1])),
        },
        Kernel {
            names: tensor_names!("matmul_qq"),
            macs: 64 * 32 * 64,
            bytes: mm_a.len() + mm_b.len() + 4 * 64 * 64,
            call: Box::new(|| {
                ops::matmul_qq_into(black_box(&mm_a), &mm_b, &mut outs[2].borrow_mut());
            }),
        },
        Kernel {
            names: tensor_names!("linear_qq_m1"),
            macs: 128 * 256,
            bytes: lin_x1.len() + lin_w.len() + 4 * 256,
            call: Box::new(|| lin(&lin_x1, &outs[3])),
        },
        Kernel {
            names: tensor_names!("linear_qq_m8"),
            macs: 8 * 128 * 256,
            bytes: lin_x8.len() + lin_w.len() + 4 * 8 * 256,
            call: Box::new(|| lin(&lin_x8, &outs[4])),
        },
    ];
    for k in &mut kernels {
        let t = secs_per_call(each, &mut k.call);
        let flops = 2.0 * k.macs as f64;
        let gflops = flops / t / 1e9;
        values.set(k.names[0], t * 1e6);
        values.set(k.names[1], gflops);
        values.set(k.names[2], gflops / machine.roofline(flops, k.bytes as f64));
        values.set(k.names[3], k.bytes as f64);
    }

    // tensor: one decode step's attention against a full cache, and the
    // append that grows it.
    let q = tensor(&mut rng, &[KV_HEADS, 1, KV_D / KV_HEADS]);
    let probs = tensor(&mut rng, &[KV_HEADS, 1, KV_LEN]);
    let row = rng.normals(KV_D);
    let mut out = Tensor::default();
    let mut caches = Vec::new();
    for ([nq, nv, na], policy) in kv_policies() {
        let cache = filled_cache(&mut rng, policy);
        let tq = secs_per_call(each, || {
            ops::attention_step_q(black_box(&q), &cache, &mut out, KernelPath::default());
        });
        let tv = secs_per_call(each, || {
            ops::attention_step_v(black_box(&probs), &cache, &mut out, KernelPath::default());
        });
        let mut grow = KvBuf::new(KV_D, KV_LEN, policy);
        let ta = secs_per_call(each, || {
            grow.clear();
            for _ in 0..KV_LEN {
                grow.append_row(black_box(&row))
                    .expect("row fits the cache");
            }
        });
        values.set(nq, tq * 1e6);
        values.set(nv, tv * 1e6);
        values.set(na, ta / KV_LEN as f64 * 1e9);
        caches.push(cache);
    }

    let act = tensor(&mut rng, &[64, 128]);
    let mut qa = QActTensor::new();
    let t = secs_per_call(each, || qa.quantize_static(black_box(&act), F, 16.0));
    values.set("tensor.act_quantize_melem_s", act.len() as f64 / t / 1e6);

    // What a kernel above the fan-out cutoff pays before any MAC: one
    // two-chunk dispatch of trivial work through the vendored `rayon`.
    let mut pair = vec![0.0f32; 2];
    let t = secs_per_call(each, || {
        pair.par_chunks_mut(1).for_each(|c| c[0] += 1.0);
        black_box(&pair);
    });
    values.set("tensor.par_dispatch_us", t * 1e6);

    // Heap bytes requested by one more sweep of the warmed kernels that
    // stay on the calling thread (the two above the cutoff spawn threads,
    // which allocates; `par_dispatch_us` is their cost). Must read 0.
    let (_, b0) = alloc_counts();
    for k in kernels.iter_mut().filter(|k| k.macs < (1 << 20)) {
        (k.call)();
    }
    for cache in &caches {
        ops::attention_step_q(&q, cache, &mut out, KernelPath::default());
        ops::attention_step_v(&probs, cache, &mut out, KernelPath::default());
    }
    qa.quantize_static(&act, F, 16.0);
    values.set("tensor.kernel_alloc_bytes", (alloc_counts().1 - b0) as f64);
}

/// Seconds of one m=1 `linear_qq` at `[1,k]·[n,k]ᵀ`: the building block
/// of a decode step's kernel floor.
pub fn linear_m1_secs(rng: &mut Rng, k: usize, n: usize, budget: Duration) -> f64 {
    let w = weight(rng, &[n, k]);
    let x = coded(rng, &[1, k]);
    let mut out = Tensor::default();
    secs_per_call(budget, || {
        ops::linear_qq_into(black_box(&x), &w, None, &mut out)
    })
}

/// Seconds of one attention step (scores + context) against an FP8 cache
/// of `len` rows of width `d`.
pub fn attn_step_secs(rng: &mut Rng, d: usize, heads: usize, len: usize, budget: Duration) -> f64 {
    let mut cache = KvBuf::new(
        d,
        len,
        KvCachePolicy::Fp8 {
            format: F,
            scale: Some(16.0),
        },
    );
    for _ in 0..len {
        cache
            .append_row(&rng.normals(d))
            .expect("row fits the cache");
    }
    let q = tensor(rng, &[heads, 1, d / heads]);
    let probs = tensor(rng, &[heads, 1, len]);
    let mut out = Tensor::default();
    secs_per_call(budget, || {
        ops::attention_step_q(black_box(&q), &cache, &mut out, KernelPath::default());
        ops::attention_step_v(black_box(&probs), &cache, &mut out, KernelPath::default());
    })
}

/// `core.spec_roundtrip_us`: an `EngineSpec` to JSON and back, the parse
/// every artifact load performs on its CONFIG chunk.
fn spec_roundtrip_us(cfg: &QuantConfig, budget: Duration) -> f64 {
    let spec = EngineSpec::from_config(cfg);
    secs_per_call(budget, || {
        let text = black_box(&spec).to_json();
        black_box(EngineSpec::from_json(&text).expect("a spec reads its own JSON"));
    }) * 1e6
}
