//! The end-to-end Figure-2 workflow: prepare → calibrate → quantize →
//! (BatchNorm-calibrate) → evaluate, plus the paper's per-domain preset
//! recipes and the suite runner behind Table 2.

use crate::calib_cache::CalibCache;
use crate::calibrate::{CalibData, CalibrationHook, HistogramHook};
use crate::config::{Approach, DataFormat, QuantConfig};
use crate::session::PtqSession;
use ptq_fp8::Fp8Format;
use ptq_metrics::{Domain, PassRateSummary};
use ptq_models::Workload;
use ptq_nn::PtqError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use crate::session::QuantOutcome;

/// A per-workload failure recorded by a fail-soft sweep instead of
/// unwinding the whole suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepError {
    /// Failing workload's `spec.name`.
    pub workload: String,
    /// The rendered [`PtqError`].
    pub error: String,
}

/// Run `f` with a last-resort panic boundary: typed errors pass through,
/// and any *residual* panic (a kernel assert or arithmetic edge the typed
/// layer missed) is converted to [`PtqError::Internal`] so one workload's
/// failure cannot unwind a whole sweep or poison shared state.
pub(crate) fn run_guarded<T>(f: impl FnOnce() -> Result<T, PtqError>) -> Result<T, PtqError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic with non-string payload");
            Err(PtqError::Internal(msg.to_string()))
        }
    }
}

/// Run full calibration for a workload's graph under a config (absmax
/// pass, plus the histogram pass when the calibrator needs it), surfacing
/// malformed-graph failures as typed errors.
pub fn calibrate_workload(workload: &Workload, cfg: &QuantConfig) -> Result<CalibData, PtqError> {
    run_guarded(|| {
        let mut hook = CalibrationHook::new();
        workload.calibrate_graph(&workload.graph, &mut hook)?;
        let mut data = hook.into_data();
        if CalibData::needs_histograms(cfg) {
            let mut h2 = HistogramHook::new(&mut data);
            workload.calibrate_graph(&workload.graph, &mut h2)?;
        }
        Ok(data)
    })
}

/// The paper's per-domain recipe for a data format and approach
/// (Table 2 rows):
///
/// * FP8 formats: static (or dynamic) standard scheme; SmoothQuant α=0.5
///   on NLP models; BatchNorm calibration on CV models; E5M2 quantizes
///   directly (no range calibration).
/// * INT8: "Static CV / Dynamic NLP" — the approach argument is overridden
///   per domain; SmoothQuant on NLP.
pub fn paper_recipe(format: DataFormat, approach: Approach, domain: Domain) -> QuantConfig {
    let base = match format {
        DataFormat::Fp8(f) => QuantConfig::fp8(f),
        DataFormat::Int8 => QuantConfig::int8(),
    };
    let base = match (format, domain) {
        (DataFormat::Int8, Domain::Cv) => base.with_approach(Approach::Static),
        (DataFormat::Int8, Domain::Nlp) => {
            // Dynamic INT8 for NLP, as in Table 2. PyTorch's dynamic
            // Linear quantization (which Neural Compressor's NLP INT8 path
            // wraps) uses per-tensor weight observers — a meaningful
            // difference on transformer weights whose columns co-adapt to
            // activation-outlier channels.
            let mut b = base.with_approach(Approach::Dynamic);
            b.weight_granularity = crate::config::Granularity::PerTensor;
            b
        }
        _ => base.with_approach(approach),
    };
    // SmoothQuant is enabled on all NLP models with the default α = 0.5,
    // per §4.2.1. It matters for every format: activation outliers amplify
    // the *absolute* weight-rounding error of the columns that multiply
    // them, so migrating scale into those columns protects FP8 weights as
    // much as INT8 activations.

    match domain {
        Domain::Nlp => base.with_smoothquant(0.5),
        Domain::Cv => base.with_bn_calibration(),
    }
}

/// The paper's mixed-format recipe (E4M3 activations, E3M4 weights) for a
/// domain.
pub fn paper_mixed_recipe(domain: Domain) -> QuantConfig {
    let base = QuantConfig::mixed_fp8();
    match domain {
        Domain::Nlp => base.with_smoothquant(0.5),
        Domain::Cv => base.with_bn_calibration(),
    }
}

/// One row of a Table-2-style sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteRow {
    /// Row label, e.g. `E4M3 / Static`.
    pub label: String,
    /// Aggregated pass rates and loss quartiles (healthy workloads only).
    pub summary: PassRateSummary,
    /// Every per-workload record (for Figures 4 and 5).
    pub results: Vec<ptq_metrics::WorkloadResult>,
    /// Workloads that failed to quantize, recorded instead of aborting
    /// the sweep (empty when every workload succeeded).
    pub errors: Vec<SweepError>,
    /// Total resident weight bytes across the row's healthy workloads, as
    /// actually stored (FP8 bytes + scales under the default
    /// [`crate::WeightStorage::Fp8`] policy, dense f32 otherwise).
    pub weight_bytes: usize,
    /// What those same weights would occupy as dense f32 — the baseline
    /// for the row's weight-memory-reduction ratio.
    pub weight_bytes_f32: usize,
    /// Total activation bytes carried across op boundaries during the
    /// row's evaluation passes: FP8 codes + scales where the activation
    /// datapath ran ([`crate::ActivationStorage::Fp8`]), 4 bytes/element
    /// where inputs stayed fake-quantized f32.
    pub act_bytes: usize,
    /// What those same activation inputs would occupy as dense f32 — the
    /// baseline for the row's activation-memory-reduction ratio.
    pub act_bytes_f32: usize,
}

/// Evaluate a named recipe family over a zoo slice: for each workload the
/// per-domain paper recipe is instantiated, passed through `tweak` (the
/// identity for a plain row; sweep drivers toggle cross-cutting knobs such
/// as coverage, first/last quantization or storage without forking the
/// recipe table) and run. Workloads are processed in parallel; results
/// keep zoo order, so output is identical to the serial sweep.
///
/// Multi-row sweeps (Table 2, Figures 5 and 12) pass the same `cache` to
/// every row so each workload is calibrated once for the whole table
/// instead of once per row.
///
/// The sweep is **fail-soft**: a workload whose quantization fails (or
/// panics) contributes a [`SweepError`] row and every other workload's
/// result is unaffected — bit-identical to a run without the broken
/// workload.
pub fn run_suite(
    zoo: &[Workload],
    format: DataFormat,
    approach: Approach,
    cache: &CalibCache,
    tweak: impl Fn(QuantConfig) -> QuantConfig + Sync,
) -> SuiteRow {
    let mut sp = ptq_trace::span(ptq_trace::Level::Info, "suite");
    if sp.active() {
        sp.record_str("format", &format.to_string());
        sp.record_str("approach", &approach.to_string());
        sp.record_int("workloads", zoo.len() as i64);
    }
    type Attempt = Result<(ptq_metrics::WorkloadResult, [usize; 4]), SweepError>;
    let attempts: Vec<Attempt> = zoo
        .par_iter()
        .map(|w| {
            let cfg = tweak(paper_recipe(format, approach, w.spec.domain));
            let out = PtqSession::new(cfg).cache(cache).quantize(w);
            out.map(|o| {
                let bytes = [
                    o.weight_bytes,
                    o.weight_bytes_f32,
                    o.act_bytes,
                    o.act_bytes_f32,
                ];
                (o.result, bytes)
            })
            .map_err(|e| SweepError {
                workload: w.spec.name.clone(),
                error: e.to_string(),
            })
        })
        .collect();
    let mut results = Vec::with_capacity(attempts.len());
    let mut errors = Vec::new();
    let mut bytes = [0usize; 4];
    for attempt in attempts {
        match attempt {
            Ok((r, b)) => {
                results.push(r);
                for (acc, v) in bytes.iter_mut().zip(b) {
                    *acc += v;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    sp.record_int("errors", errors.len() as i64);
    drop(sp);
    let label = match format {
        DataFormat::Int8 => "INT8 / Static CV Dynamic NLP".to_string(),
        _ => format!("{format} / {approach}"),
    };
    let [weight_bytes, weight_bytes_f32, act_bytes, act_bytes_f32] = bytes;
    SuiteRow {
        label,
        summary: PassRateSummary::of(&results),
        results,
        errors,
        weight_bytes,
        weight_bytes_f32,
        act_bytes,
        act_bytes_f32,
    }
}

/// Convenience: the formats Table 2 sweeps, in row order.
pub fn table2_rows() -> Vec<(DataFormat, Approach)> {
    vec![
        (DataFormat::Fp8(Fp8Format::E5M2), Approach::Static),
        (DataFormat::Fp8(Fp8Format::E4M3), Approach::Static),
        (DataFormat::Fp8(Fp8Format::E4M3), Approach::Dynamic),
        (DataFormat::Fp8(Fp8Format::E3M4), Approach::Static),
        (DataFormat::Fp8(Fp8Format::E3M4), Approach::Dynamic),
        (DataFormat::Int8, Approach::Static),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_models::{build_zoo, ZooFilter};
    use ptq_nn::UnwrapOk;

    #[test]
    fn paper_recipes_follow_the_text() {
        let cv = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            Domain::Cv,
        );
        assert!(cv.bn_calibration);
        assert!(cv.smoothquant_alpha.is_none());
        let nlp = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            Domain::Nlp,
        );
        assert_eq!(nlp.smoothquant_alpha, Some(0.5));
        // INT8 approach is fixed per domain regardless of the argument.
        let i_cv = paper_recipe(DataFormat::Int8, Approach::Dynamic, Domain::Cv);
        assert_eq!(i_cv.approach, Approach::Static);
        let i_nlp = paper_recipe(DataFormat::Int8, Approach::Static, Domain::Nlp);
        assert_eq!(i_nlp.approach, Approach::Dynamic);
        // Dynamic INT8 Linear quantization uses per-tensor weight
        // observers (the PyTorch default the NLP INT8 path wraps).
        assert_eq!(
            i_nlp.weight_granularity,
            crate::config::Granularity::PerTensor
        );
        // FP8 recipes keep the paper's per-channel weight recommendation.
        assert_eq!(
            nlp.weight_granularity,
            crate::config::Granularity::PerChannel
        );
    }

    #[test]
    fn quantize_quick_workloads_e4m3_small_loss() {
        let zoo = build_zoo(ZooFilter::Quick);
        for w in zoo.iter().take(3) {
            let cfg = paper_recipe(
                DataFormat::Fp8(Fp8Format::E4M3),
                Approach::Static,
                w.spec.domain,
            );
            let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
            let loss = out.result.loss();
            assert!(
                loss < 0.25,
                "{}: loss {loss} (fp32 {} quant {})",
                w.spec.name,
                w.fp32_score,
                out.score
            );
        }
    }

    #[test]
    fn suite_row_aggregates() {
        let zoo = build_zoo(ZooFilter::Quick);
        let cache = CalibCache::new();
        let row = run_suite(
            &zoo[..4],
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            &cache,
            |cfg| cfg,
        );
        assert_eq!(row.results.len(), 4);
        assert!(row.errors.is_empty());
        assert!(row.summary.all >= 0.0 && row.summary.all <= 1.0);
        // FP8 rows store weights as bytes: well under 1/3 of the f32
        // footprint (1 byte/element + scales).
        assert!(row.weight_bytes > 0);
        assert!(row.weight_bytes * 3 < row.weight_bytes_f32);
        // INT8 rows keep fake-quant f32 weights: no reduction.
        let int8 = run_suite(
            &zoo[..2],
            DataFormat::Int8,
            Approach::Static,
            &cache,
            |cfg| cfg,
        );
        assert_eq!(int8.weight_bytes, int8.weight_bytes_f32);
    }

    #[test]
    fn suite_is_fail_soft_and_healthy_results_are_bit_identical() {
        let zoo = build_zoo(ZooFilter::Quick);
        let healthy = &zoo[..3];
        let e4m3 = DataFormat::Fp8(Fp8Format::E4M3);
        let cache = CalibCache::new();
        let clean = run_suite(healthy, e4m3, Approach::Static, &cache, |cfg| cfg);

        // A poisoned clone: no eval inputs at all, so evaluation hits the
        // graph's arity validation. Renamed so it cannot share a CalibCache
        // entry with its healthy twin.
        let mut broken = zoo[1].clone();
        broken.spec.name = format!("{}/broken", broken.spec.name);
        broken.eval = vec![vec![]];
        let mixed = vec![
            healthy[0].clone(),
            broken,
            healthy[1].clone(),
            healthy[2].clone(),
        ];
        let row = run_suite(&mixed, e4m3, Approach::Static, &cache, |cfg| cfg);

        // Exactly one error row, naming the poisoned workload with a typed
        // error message, not a panic.
        assert_eq!(row.errors.len(), 1);
        assert!(row.errors[0].workload.ends_with("/broken"));
        assert!(
            row.errors[0].error.contains("inputs"),
            "unexpected error: {}",
            row.errors[0].error
        );

        // Healthy workloads are untouched: same order, bit-identical
        // scores, identical summary.
        assert_eq!(row.results.len(), clean.results.len());
        for (a, b) in row.results.iter().zip(&clean.results) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.quantized.to_bits(), b.quantized.to_bits());
            assert_eq!(a.fp32.to_bits(), b.fp32.to_bits());
        }
        assert_eq!(row.summary.all.to_bits(), clean.summary.all.to_bits());
    }

    #[test]
    fn suite_survives_panicking_workloads() {
        // A graph assembled via the raw constructor with an unbound weight
        // parameter: structural validation rejects it before any kernel
        // runs, and the sweep records the error instead of unwinding.
        let zoo = build_zoo(ZooFilter::Quick);
        let mut broken = zoo[0].clone();
        broken.spec.name = "unbound/param".to_string();
        broken.graph = {
            let mut g = ptq_nn::GraphBuilder::new();
            let x = g.input();
            let w = g.param(ptq_tensor::Tensor::zeros(&[4, 4]));
            let y = g.linear(x, w, None);
            let graph = g.finish(vec![y]);
            ptq_nn::Graph::from_parts(
                graph.nodes().to_vec(),
                std::collections::HashMap::<_, ptq_tensor::Tensor>::new(), // drop every binding
                vec![x],
                vec![y],
                graph.n_values(),
            )
        };
        let row = run_suite(
            std::slice::from_ref(&broken),
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            &CalibCache::new(),
            |cfg| cfg,
        );
        assert!(row.results.is_empty());
        assert_eq!(row.errors.len(), 1);
        assert!(
            row.errors[0].error.contains("not bound"),
            "unexpected error: {}",
            row.errors[0].error
        );
    }
}
