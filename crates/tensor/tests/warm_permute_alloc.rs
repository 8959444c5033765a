//! A warm `permute_into` allocates nothing: the output buffer is reused
//! and the odometer's index arrays live on the stack. A counting global
//! allocator sees the whole process, so this is its own test binary with
//! one test.

use ptq_tensor::Tensor;
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
fn a_warm_permute_allocates_nothing() {
    // The attention glue: heads split off ([seq, heads, dh] -> [heads,
    // seq, dh], rows copied whole) and the key transpose ([seq, heads,
    // dh] -> [heads, dh, seq], rows gathered with a stride).
    let x = Tensor::from_vec((0..64 * 4 * 32).map(|i| i as f32).collect(), &[64, 4, 32]);
    let mut out = Tensor::default();
    for perm in [[1, 0, 2], [1, 2, 0]] {
        x.permute_into(&perm, &mut out);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..100 {
            x.permute_into(&perm, &mut out);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "{allocs} allocations over 100 warm {perm:?} permutes"
        );
    }
}
