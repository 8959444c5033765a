//! Per-thread reusable kernel scratch.
//!
//! The kernels stage operands in f32 buffers (packed panels, blocks of
//! decoded rows). Each thread keeps one growable pool; a kernel *takes* a
//! buffer for the duration of a closure and puts it back grown, so after
//! warm-up a call that stays on its caller's thread allocates nothing
//! (every call below `PAR_MACS_MIN`; the benchmark's
//! `tensor.kernel_alloc_bytes` must read 0). Above the cutoff a worker's
//! pool is born empty at each `vendor/rayon` fan-out, so its per-chunk
//! buffers are allocated once per fan-out (DESIGN.md §13 has the figures).
//! Buffers are moved out of the thread-local cell, not borrowed across the
//! closure, so a kernel holding `panel` can take `rows` on the same thread.

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
