//! Cross-recipe calibration cache.
//!
//! Calibration is a full FP32 pass over a workload's calibration set — by
//! far the most expensive step of the Figure-2 pipeline — yet its output
//! depends on the *configuration* only through one bit: whether the
//! observer needs the second histogram/sample pass
//! ([`CalibData::needs_histograms`]). Format, approach, granularity,
//! SmoothQuant α and fallbacks all act downstream of the collected
//! statistics. A recipe sweep (Table 2) or a tuner lattice walk therefore
//! recalibrates the same workload with the identical result over and over.
//!
//! [`CalibCache`] memoizes calibration per `(workload id, histogram
//! requirement)` so a sweep calibrates each workload at most twice (once
//! absmax-only, once with histograms) regardless of how many recipes are
//! evaluated. The cache is `Sync` and lock-cheap: calibration itself runs
//! outside the lock, so parallel sweeps over different workloads never
//! serialize on each other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::calibrate::CalibData;
use crate::config::QuantConfig;
use crate::workflow::calibrate_workload;
use ptq_models::Workload;
use ptq_nn::PtqError;

/// The full dependency set of [`CalibData`] on `(workload, config)`: the
/// observer method enters only through the histogram requirement, and
/// granularity not at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CalibKey {
    /// Workload identity (`spec.name`, unique within a zoo).
    workload: String,
    /// Whether the second (histogram + sample) pass ran.
    needs_histograms: bool,
}

/// Memoized calibration results, shareable across recipes and threads.
#[derive(Debug, Default)]
pub struct CalibCache {
    map: Mutex<HashMap<CalibKey, Arc<CalibData>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CalibCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the map, recovering from poisoning. The map only ever holds
    /// completed calibrations (insertion is a single `HashMap` write with
    /// no user code under the lock), so a panic elsewhere on a sweep
    /// thread cannot leave it half-updated — recovering the guard is
    /// always sound, and one worker's failure never wedges the cache for
    /// the rest of the fleet.
    fn lock_map(&self) -> MutexGuard<'_, HashMap<CalibKey, Arc<CalibData>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The calibration data for `workload` under `cfg`, calibrating on
    /// first use and returning the memoized result afterwards. Calibration
    /// failures (malformed graph, bad shapes) surface as typed errors and
    /// are *not* cached, so a transiently broken workload can be retried.
    ///
    /// Two racing misses on the same key both calibrate (deterministically
    /// to the same data); the first insertion wins and both callers get
    /// the same `Arc`.
    pub fn get_or_calibrate(
        &self,
        workload: &Workload,
        cfg: &QuantConfig,
    ) -> Result<Arc<CalibData>, PtqError> {
        let key = CalibKey {
            workload: workload.spec.name.clone(),
            needs_histograms: CalibData::needs_histograms(cfg),
        };
        if let Some(hit) = self.lock_map().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ptq_trace::counter(
                ptq_trace::Level::Info,
                "calib_cache.hit",
                1,
                &[("workload", key.workload.as_str().into())],
            );
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ptq_trace::counter(
            ptq_trace::Level::Info,
            "calib_cache.miss",
            1,
            &[("workload", key.workload.as_str().into())],
        );
        // Calibrate outside the lock so misses on different workloads run
        // concurrently.
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "calibrate");
        if sp.active() {
            sp.record_str("workload", &key.workload);
            sp.record_int("needs_histograms", i64::from(key.needs_histograms));
        }
        let data = Arc::new(calibrate_workload(workload, cfg)?);
        drop(sp);
        let mut map = self.lock_map();
        let entry = map.entry(key).or_insert(data);
        Ok(Arc::clone(entry))
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to calibrate.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct calibrations held.
    pub fn len(&self) -> usize {
        self.lock_map().len()
    }

    /// True if nothing has been calibrated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CalibMethod, DataFormat};
    use crate::workflow::paper_recipe;
    use crate::Approach;
    use ptq_fp8::Fp8Format;
    use ptq_models::{build_zoo, ZooFilter};
    use ptq_nn::UnwrapOk;

    #[test]
    fn same_recipe_family_calibrates_once() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cache = CalibCache::new();
        let e4 = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let e3 = paper_recipe(
            DataFormat::Fp8(Fp8Format::E3M4),
            Approach::Static,
            w.spec.domain,
        );
        let a = cache.get_or_calibrate(w, &e4).unwrap_ok();
        let b = cache.get_or_calibrate(w, &e3).unwrap_ok();
        assert!(Arc::ptr_eq(&a, &b), "formats share calibration");
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn histogram_observers_get_their_own_entry() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cache = CalibCache::new();
        let absmax = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let mut pct = absmax.clone();
        pct.calibration = CalibMethod::Percentile(0.9999);
        let a = cache.get_or_calibrate(w, &absmax).unwrap_ok();
        let b = cache.get_or_calibrate(w, &pct).unwrap_ok();
        assert!(!Arc::ptr_eq(&a, &b), "histogram pass differs");
        assert_eq!(cache.len(), 2);
        assert!(b.hists.len() >= a.hists.len());
    }

    #[test]
    fn cached_data_equals_direct_calibration() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[1];
        let cache = CalibCache::new();
        let cfg = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let cached = cache.get_or_calibrate(w, &cfg).unwrap_ok();
        let direct = crate::workflow::calibrate_workload(w, &cfg).unwrap_ok();
        assert_eq!(cached.stats.len(), direct.stats.len());
        for (k, s) in &direct.stats {
            let c = cached.stats.get(k).expect("key present");
            assert_eq!(c.absmax.to_bits(), s.absmax.to_bits());
        }
    }
}
