//! A decode step's FP8 kernels allocate nothing once warm.
//!
//! The m = 1 Linear reads its weight codes in place and both attention
//! steps read their FP8 caches in place; a gathered step (m = 4) and a
//! prefill block (m = 16) pack the weight into a panel. What they stage (a
//! coded input's decoded rows, the panel) comes from the per-thread pool.
//! A counting global allocator sees every byte, so this is its own test
//! binary with one test.

use ptq_fp8::Fp8Format;
use ptq_tensor::ops::{attention_step_q, attention_step_v, linear_into, KernelPath};
use ptq_tensor::{KvBuf, KvCachePolicy, QActTensor, QTensor, Tensor, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_fp8_step_kernels_allocate_nothing() {
    const F: Fp8Format = Fp8Format::E4M3;
    let (d, heads, len) = (64, 4, 256);
    let mut rng = TensorRng::seed(9);
    // A decode step's shapes: an FFN projection at one row, attention
    // against a full window of a static-scale K and a per-row-scale V.
    let w = QTensor::quantize_per_channel(&rng.normal(&[256, 128], 0.0, 1.0), F)
        .expect("finite weight");
    let x = rng.normal(&[1, 128], 0.0, 1.0);
    let (x4, x16) = (
        rng.normal(&[4, 128], 0.0, 1.0),
        rng.normal(&[16, 128], 0.0, 1.0),
    );
    let (mut k, mut v) = (
        KvBuf::new(
            d,
            len,
            KvCachePolicy::Fp8 {
                format: F,
                scale: Some(16.0),
            },
        ),
        KvBuf::new(
            d,
            len,
            KvCachePolicy::Fp8 {
                format: F,
                scale: None,
            },
        ),
    );
    for _ in 0..len {
        let row = rng.normal(&[d], 0.0, 1.0);
        k.append_row(row.data()).expect("row fits");
        v.append_row(row.data()).expect("row fits");
    }
    let q = rng.normal(&[heads, 1, d / heads], 0.0, 1.0);
    let probs = rng.normal(&[heads, 1, len], 0.0, 1.0);
    let (mut qa, mut y, mut scores, mut ctx) = (
        QActTensor::new(),
        Tensor::default(),
        Tensor::default(),
        Tensor::default(),
    );
    let mut call = || {
        for x in [&x, &x4, &x16] {
            qa.quantize_static(x, F, 4.0);
            linear_into(&qa, &w, None, &mut y, KernelPath::Blocked);
        }
        attention_step_q(&q, &k, &mut scores, KernelPath::Blocked);
        attention_step_v(&probs, &v, &mut ctx, KernelPath::Blocked);
    };
    for _ in 0..20 {
        call();
    }
    let before = BYTES.load(Ordering::Relaxed);
    for _ in 0..200 {
        call();
    }
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(bytes, 0, "{bytes} bytes allocated over 200 warm step calls");
}
