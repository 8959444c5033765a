//! Engine-side serving metrics.
//!
//! Counters are relaxed atomics (hot path: one `fetch_add` per event);
//! per-request latencies go into a mutex-guarded vector that a worker
//! locks once per completed request. Percentiles are computed
//! exactly (nearest-rank over the full sample set) at snapshot time —
//! serving runs are bounded, so there is no need for a sketch.
//!
//! The same events are mirrored into [`ptq_trace`] (counters
//! `serve.enqueued` / `serve.completed` / `serve.deadline_shed` /
//! `serve.rejected`, gauge `serve.queue_depth`) so a trace report shows
//! the serving story alongside kernel and arena behavior.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Shared mutable metric state owned by the engine.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected: AtomicU64,
    pub shed: AtomicU64,
    pub failed: AtomicU64,
    /// Completed-request latencies (enqueue → reply), microseconds.
    pub latencies_us: Mutex<Vec<u64>>,
}

impl Stats {
    /// Record one completed request and its end-to-end latency.
    pub fn record(&self, lat_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(lat_us);
    }

    /// Consistent point-in-time snapshot with exact percentiles.
    pub fn snapshot(&self, queue_depth: usize) -> EngineStats {
        let mut lat = self
            .latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        lat.sort_unstable();
        let completed = self.completed.load(Ordering::Relaxed);
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: completed,
            queue_depth,
            p50_us: percentile(&lat, 0.50),
            p95_us: percentile(&lat, 0.95),
            p99_us: percentile(&lat, 0.99),
            max_us: lat.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set; 0 when
/// empty.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_us.len()) - 1;
    sorted_us.get(idx).copied().unwrap_or(0)
}

/// Point-in-time serving statistics (see [`crate::Engine::stats`]).
///
/// Latency fields are end-to-end per request — enqueue to reply, so
/// queueing delay is included, which is what a client observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests admitted past the queue bound.
    pub submitted: u64,
    /// Requests answered with outputs.
    pub completed: u64,
    /// Requests refused at admission ([`crate::ServeError::QueueFull`]).
    pub rejected: u64,
    /// Requests shed in-queue on deadline expiry.
    pub shed: u64,
    /// Requests answered with an execution error
    /// ([`crate::ServeError::Exec`]). At quiesce
    /// `submitted == completed + shed + failed`.
    pub failed: u64,
    /// Dispatches that completed a request: the engine runs one request
    /// per dispatch, so this is `completed` under the name the frozen
    /// `benchmark/` reads (ROADMAP item 1f retires it).
    pub batches: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Median end-to-end latency (µs).
    pub p50_us: u64,
    /// 95th-percentile end-to-end latency (µs).
    pub p95_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_us: u64,
    /// Worst observed end-to-end latency (µs).
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.50), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[3, 9], 0.50), 3);
        assert_eq!(percentile(&[3, 9], 0.99), 9);
    }

    #[test]
    fn snapshot_reports_batch_recorded_latencies() {
        let s = Stats::default();
        s.submitted.fetch_add(3, Ordering::Relaxed);
        for lat_us in [100, 300, 200] {
            s.record(lat_us);
        }
        let snap = s.snapshot(1);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.p50_us, 200);
        assert_eq!(snap.max_us, 300);
    }
}
