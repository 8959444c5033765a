//! Per-thread reusable kernel scratch.
//!
//! The fused quantized kernels stage decoded operands in f32 buffers (a
//! decoded B panel, a block of decoded activation rows, the weight codes
//! of a call streamed through `decode(code) / scale` into a packed
//! panel). This module keeps one growable buffer pool per thread; kernels
//! *take* a buffer for the duration of a closure and put it back grown,
//! so after warm-up a kernel call that stays on its caller's thread
//! allocates nothing. Every slot is closure-scoped: what a kernel stages
//! is overwritten by the next call and never outlives its own.
//!
//! That covers every call below `PAR_MACS_MIN` (audited by the benchmark's
//! `tensor.kernel_alloc_bytes`, which must read 0) and, above it, the
//! call-wide panels, taken on the caller's thread before the fan-out. It
//! does not cover per-chunk row buffers above the cutoff: `vendor/rayon`
//! spawns scoped OS threads per `par_chunks_mut`, so a worker's pool is
//! born empty and freed at join, and its row buffers are allocated once
//! per fan-out. Measured on the benchmark's `forward_cv` (its convs are
//! above the cutoff; each worker decodes its images into one sample-sized
//! buffer): 90 542 bytes in 90 allocations per forward with the two-thread
//! fan-out, 9 414 in 37 with `RAYON_NUM_THREADS=1` (chunks on the caller's
//! thread); the difference includes the spawn's bookkeeping.
//!
//! Buffers are moved out of the thread-local cell (not borrowed across
//! the closure), so a kernel can hold the call-wide `panel` while its
//! per-chunk closures take `rows` on the same thread without a nested
//! `RefCell` borrow.

use std::cell::RefCell;

#[derive(Default)]
struct Pool {
    /// Call-wide operand panel (decoded B, packed weights). Taken on the
    /// calling thread before the chunk fan-out.
    panel: Vec<f32>,
    /// Second call-wide panel for kernels that stage two forms (decode
    /// then repack).
    panel2: Vec<f32>,
    /// Per-chunk row block (decoded activation rows). Taken inside chunk
    /// closures, on whichever thread runs the chunk.
    rows: Vec<f32>,
    /// Second per-chunk block (k-major transposed A rows for the matmul
    /// register tile).
    rows2: Vec<f32>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Total bytes still owned by this thread's pool (testing aid).
#[cfg(test)]
pub(crate) fn pooled_bytes() -> usize {
    POOL.with(|p| {
        let p = p.borrow();
        4 * (p.panel.capacity() + p.panel2.capacity() + p.rows.capacity() + p.rows2.capacity())
    })
}

fn take(slot: impl Fn(&mut Pool) -> &mut Vec<f32>) -> Vec<f32> {
    POOL.with(|p| std::mem::take(slot(&mut p.borrow_mut())))
}

fn put(slot: impl Fn(&mut Pool) -> &mut Vec<f32>, buf: Vec<f32>) {
    POOL.with(|p| {
        let cell = &mut p.borrow_mut();
        let dst = slot(cell);
        // Keep the larger allocation so the pool converges to the high
        //-water mark instead of thrashing between two kernels.
        if buf.capacity() > dst.capacity() {
            *dst = buf;
        }
    });
}

fn grown(mut buf: Vec<f32>, len: usize) -> Vec<f32> {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// Run `f` with this thread's call-wide panel buffer, at least `len`
/// elements long. Contents are unspecified; the kernel overwrites what it
/// reads.
pub(crate) fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = grown(take(|p| &mut p.panel), len);
    let r = f(&mut buf[..len]);
    put(|p| &mut p.panel, buf);
    r
}

/// Run `f` with this thread's second call-wide panel buffer (for kernels
/// staging two operand forms in one call).
pub(crate) fn with_panel2<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = grown(take(|p| &mut p.panel2), len);
    let r = f(&mut buf[..len]);
    put(|p| &mut p.panel2, buf);
    r
}

/// Run `f` with this thread's per-chunk row buffer, at least `len`
/// elements long.
pub(crate) fn with_rows<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = grown(take(|p| &mut p.rows), len);
    let r = f(&mut buf[..len]);
    put(|p| &mut p.rows, buf);
    r
}

/// Run `f` with this thread's second per-chunk buffer (for kernels that
/// stage two per-chunk forms, e.g. row-major and k-major A blocks).
pub(crate) fn with_rows2<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = grown(take(|p| &mut p.rows2), len);
    let r = f(&mut buf[..len]);
    put(|p| &mut p.rows2, buf);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_not_reallocated() {
        with_panel(1024, |b| b[0] = 1.0);
        let bytes = pooled_bytes();
        for _ in 0..10 {
            with_panel(1024, |b| {
                assert_eq!(b.len(), 1024);
                b[1023] = 2.0;
            });
        }
        assert_eq!(pooled_bytes(), bytes, "steady-state reuse must not grow");
    }

    #[test]
    fn nested_slots_do_not_conflict() {
        with_panel(64, |p| {
            with_rows(32, |r| {
                r[0] = 1.0;
                p[0] = 2.0;
            });
        });
        with_panel(16, |p| assert_eq!(p.len(), 16));
    }

    #[test]
    fn pool_keeps_high_water_mark() {
        with_rows(4096, |_| {});
        let big = pooled_bytes();
        with_rows(8, |b| assert_eq!(b.len(), 8));
        assert_eq!(pooled_bytes(), big);
    }
}
