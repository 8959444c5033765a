//! Kernels above the fan-out cutoff allocate nothing once warm.
//!
//! The pool's threads persist between fan-outs, so each keeps its
//! per-thread scratch (`ops/scratch.rs`): after warm-up a fanned-out conv
//! and a fanned-out activation encode reuse every buffer. A counting
//! global allocator sees every thread, so this is its own test binary with
//! one test. The bound allows one late first use per helper (a helper that
//! never claimed a chunk during warm-up grows its two row buffers on its
//! first claim); a thread spawned per fan-out would allocate on every call.

use ptq_fp8::Fp8Format;
use ptq_tensor::ops::{conv2d_into, Conv2dParams, KernelPath};
use ptq_tensor::qtensor::QTensor;
use ptq_tensor::rng::TensorRng;
use ptq_tensor::{QActTensor, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn fanned_out_kernels_allocate_nothing_once_warm() {
    const F: Fp8Format = Fp8Format::E4M3;
    let mut rng = TensorRng::seed(5);
    // forward_cv's residual conv: 16→16 3×3 on [8,16,12,12] (2.7 M MACs,
    // one image per chunk) and its 18 432-element input encode.
    let x = rng.normal(&[8, 16, 12, 12], 0.0, 1.0);
    let w = QTensor::quantize_per_channel(&rng.normal(&[16, 16, 3, 3], 0.0, 1.0), F)
        .expect("finite weight");
    let (mut qa, mut out) = (QActTensor::new(), Tensor::default());
    let mut call = || {
        qa.quantize_static(&x, F, 4.0);
        conv2d_into(
            &qa,
            &w,
            None,
            Conv2dParams::same(3),
            &mut out,
            KernelPath::Blocked,
        );
    };
    for _ in 0..50 {
        call();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let calls = 200;
    for _ in 0..calls {
        call();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let helpers = rayon::current_num_threads() - 1;
    assert!(
        allocs <= 2 * helpers,
        "{allocs} allocations over {calls} warm fanned-out calls ({helpers} helpers)"
    );
}
