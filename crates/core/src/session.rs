//! The consolidated PTQ entry point: [`PtqSession`].
//!
//! Construct a session from a [`QuantConfig`], optionally attach a shared
//! [`CalibCache`] or pre-collected [`CalibData`], then call
//! [`PtqSession::quantize`] on any number of workloads. The pipeline
//! is the paper's Figure-2 flow — calibrate → quantize → (BatchNorm
//! recalibrate) → evaluate — and is fail-soft: typed errors (and residual
//! panics, converted to [`PtqError::Internal`]) surface per workload
//! instead of unwinding a sweep.

use crate::artifact::{build_writer, PtqArtifact};
use crate::bn_calib::recalibrate_batchnorm;
use crate::calib_cache::CalibCache;
use crate::calibrate::CalibData;
use crate::config::QuantConfig;
use crate::quantizer::QuantizedModel;
use crate::spec::{EngineSpec, ServeSpec};
use crate::workflow::{calibrate_workload, run_guarded};
use ptq_metrics::WorkloadResult;
use ptq_models::Workload;
use ptq_nn::PtqError;

/// Result of quantizing one workload under one recipe.
#[derive(Debug)]
pub struct QuantOutcome {
    /// The quantized model (graph + hook tables).
    pub model: QuantizedModel,
    /// Quantized eval score.
    pub score: f64,
    /// Pass-rate record (baseline vs quantized).
    pub result: WorkloadResult,
    /// Resident bytes of the pre-quantized weights as stored (FP8 bytes +
    /// scales, or dense f32 under
    /// [`crate::WeightStorage::FakeQuantF32`]).
    pub weight_bytes: usize,
    /// Bytes the same weights would occupy as dense f32 — the baseline
    /// for the memory-reduction ratio.
    pub weight_bytes_f32: usize,
    /// Bytes of quantized-node activation inputs as actually carried
    /// across op boundaries during the evaluation pass: FP8 codes +
    /// scales where the activation datapath ran
    /// ([`crate::ActivationStorage::Fp8`]), 4 bytes/element where inputs stayed
    /// fake-quantized f32.
    pub act_bytes: usize,
    /// Bytes the same activation inputs would occupy as dense f32.
    pub act_bytes_f32: usize,
}

/// A configured PTQ pipeline, reusable across workloads.
///
/// ```no_run
/// use ptq_core::{CalibCache, PtqSession, QuantConfig};
/// use ptq_fp8::Fp8Format;
/// use ptq_models::{build_zoo, ZooFilter};
/// use ptq_nn::UnwrapOk;
///
/// let zoo = build_zoo(ZooFilter::Quick);
/// let cache = CalibCache::new();
/// let mut session = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3)).cache(&cache);
/// for w in &zoo {
///     let outcome = session.quantize(w).unwrap_ok();
///     println!("{}: {:.4} -> {:.4}", w.spec.name, w.fp32_score, outcome.score);
/// }
/// ```
pub struct PtqSession<'a> {
    spec: EngineSpec,
    cache: Option<&'a CalibCache>,
    calib: Option<&'a CalibData>,
    artifact: Option<&'a PtqArtifact>,
}

impl std::fmt::Debug for PtqSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtqSession")
            .field("spec", &self.spec)
            .field("cache", &self.cache.is_some())
            .field("calib", &self.calib.is_some())
            .field("artifact", &self.artifact.is_some())
            .finish()
    }
}

impl<'a> PtqSession<'a> {
    /// A session running the given recipe with default serving knobs.
    /// Every knob — storage modes and KV-cache storage included — is a
    /// [`QuantConfig`] field: set it there
    /// (`QuantConfig::with_*`) before constructing the session.
    pub fn new(cfg: QuantConfig) -> Self {
        PtqSession {
            spec: EngineSpec {
                config: cfg,
                serving: ServeSpec::default(),
            },
            cache: None,
            calib: None,
            artifact: None,
        }
    }

    /// A session from an [`EngineSpec`]: [`PtqSession::new`] of its
    /// recipe, with the serving section riding along into saved artifacts
    /// and [`PtqSession::spec`].
    pub fn from_spec(spec: &EngineSpec) -> Self {
        let mut session = PtqSession::new(spec.config.clone());
        session.spec.serving = spec.serving.clone();
        session
    }

    /// The session's spec: its recipe plus the serving section.
    pub fn spec(&self) -> EngineSpec {
        self.spec.clone()
    }

    /// Serve calibration from (and record it into) a shared
    /// [`CalibCache`], so sweeps calibrate each workload once per observer
    /// family instead of once per recipe.
    pub fn cache(mut self, cache: &'a CalibCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Quantize against pre-collected calibration data, skipping the
    /// calibration pass entirely. Takes precedence over
    /// [`PtqSession::cache`].
    pub fn with_calibration(mut self, calib: &'a CalibData) -> Self {
        self.calib = Some(calib);
        self
    }

    /// Enter the session flow from a loaded artifact instead of
    /// calibrating: [`PtqSession::quantize`] then evaluates the
    /// artifact's model as-is — calibration thresholds and frozen scales
    /// are restored from the artifact, nothing is requantized — and
    /// returns the same [`QuantOutcome`] shape the save-side session
    /// produced, bit-identical in score (pinned by the cold-start gate).
    /// The session adopts the artifact's recipe and serving section, so
    /// [`PtqSession::spec`] reflects what was saved. Takes precedence
    /// over [`PtqSession::with_calibration`] and [`PtqSession::cache`].
    pub fn with_artifact(mut self, artifact: &'a PtqArtifact) -> Self {
        self.spec = EngineSpec {
            config: artifact.model.config.clone(),
            serving: artifact.serving.clone(),
        };
        self.artifact = Some(artifact);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &QuantConfig {
        &self.spec.config
    }

    /// Run the full pipeline on one workload: calibrate (or fetch/reuse
    /// calibration), quantize, recalibrate BatchNorm statistics when the
    /// recipe asks for it, and evaluate on the workload's eval set.
    pub fn quantize(&mut self, workload: &Workload) -> Result<QuantOutcome, PtqError> {
        if let Some(art) = self.artifact {
            // The loaded model as-is: its frozen scales, stored weights
            // and (already-recalibrated) BatchNorm statistics are exactly
            // what was saved, so the score bit-matches the save-side
            // session.
            return self.evaluate(workload, "quantize.from_artifact", |_| {
                Ok(art.model.clone())
            });
        }
        self.calibrated(workload, |session, calib| {
            session.quantize_calibrated(workload, calib)
        })
    }

    /// Run the full pipeline on one workload and persist the result as a
    /// versioned artifact at `path` (atomically, via a temp file +
    /// rename). The artifact carries the quantized model *and* the
    /// calibration thresholds its static scales were frozen from;
    /// [`PtqSession::load_artifact`] reloads it bit-identically in any
    /// later process, skipping calibration entirely.
    pub fn save_artifact(
        &mut self,
        workload: &Workload,
        path: &std::path::Path,
    ) -> Result<QuantOutcome, PtqError> {
        if let Some(art) = self.artifact {
            // A loaded artifact re-saves as-is (thresholds restored from
            // the artifact, nothing requantized) after the evaluation.
            let outcome = self.quantize(workload)?;
            build_writer(&outcome.model, &art.thresholds, &self.spec.serving).write_to(path)?;
            return Ok(outcome);
        }
        self.calibrated(workload, |session, calib| {
            let cfg = &session.spec.config;
            let thresholds = calib
                .stats
                .keys()
                .filter_map(|&key| Some((key, calib.threshold(key, cfg)?)))
                .collect();
            let outcome = session.quantize_calibrated(workload, calib)?;
            build_writer(&outcome.model, &thresholds, &session.spec.serving).write_to(path)?;
            Ok(outcome)
        })
    }

    /// Load an artifact written by [`PtqSession::save_artifact`] (or any
    /// of the `save` surfaces). The returned model executes bit-identically
    /// to the one that was saved; no calibration data or workload is
    /// needed.
    pub fn load_artifact(path: &std::path::Path) -> Result<PtqArtifact, PtqError> {
        PtqArtifact::load(path)
    }

    /// The shared calibrate step: check the recipe's parameters, resolve
    /// the calibration data — attached data, else the shared cache, else a
    /// fresh calibration pass — and run `then` over it.
    fn calibrated<T>(
        &mut self,
        workload: &Workload,
        then: impl FnOnce(&mut Self, &CalibData) -> Result<T, PtqError>,
    ) -> Result<T, PtqError> {
        self.spec.config.validate()?;
        if let Some(calib) = self.calib {
            then(self, calib)
        } else if let Some(cache) = self.cache {
            let calib = cache.get_or_calibrate(workload, &self.spec.config)?;
            then(self, &calib)
        } else {
            let calib = calibrate_workload(workload, &self.spec.config)?;
            then(self, &calib)
        }
    }

    /// The quantize → (BatchNorm-recalibrate) → evaluate tail of
    /// [`PtqSession::quantize`], over explicit calibration data (ignores
    /// any data attached via [`PtqSession::with_calibration`]).
    pub fn quantize_calibrated(
        &mut self,
        workload: &Workload,
        calib: &CalibData,
    ) -> Result<QuantOutcome, PtqError> {
        self.evaluate(workload, "quantize", |cfg| {
            let mut model = QuantizedModel::build(workload.graph.clone(), calib, cfg.clone())?;
            if cfg.bn_calibration && workload.has_batchnorm() {
                recalibrate_batchnorm(&mut model, &workload.calib)?;
            }
            Ok(model)
        })
    }

    /// Obtain the model from `make`, evaluate it on the workload's eval
    /// set and account its weight and activation bytes — all inside one
    /// panic boundary and one trace span.
    fn evaluate(
        &self,
        workload: &Workload,
        span_name: &str,
        make: impl FnOnce(&QuantConfig) -> Result<QuantizedModel, PtqError>,
    ) -> Result<QuantOutcome, PtqError> {
        let cfg = &self.spec.config;
        run_guarded(|| {
            let mut sp = ptq_trace::span(ptq_trace::Level::Info, span_name);
            if sp.active() {
                sp.record_str("workload", &workload.spec.name);
                sp.record_str("format", cfg.act_format.label());
            }
            let model = make(cfg)?;
            // Building may have run quantized inference (BatchNorm
            // recalibration); count only the evaluation pass.
            model.reset_act_bytes();
            let score = workload.evaluate_graph(&model.graph, &model.hook())?;
            sp.record_f64("score", score);
            Ok(QuantOutcome {
                score,
                result: workload.result(score),
                weight_bytes: model.weight_bytes(),
                weight_bytes_f32: model.weight_bytes_f32(),
                act_bytes: model.act_bytes(),
                act_bytes_f32: model.act_bytes_f32(),
                model,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ActivationStorage, CalibMethod, WeightStorage};
    use ptq_fp8::Fp8Format;
    use ptq_models::{build_zoo, ZooFilter};
    use ptq_nn::{OnPath, UnwrapOk};
    use ptq_tensor::ops::KernelPath;

    #[test]
    fn session_quantizes_and_scores() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
        assert!(out.score.is_finite());
        assert_eq!(out.result.workload, w.spec.name);
    }

    #[test]
    fn cached_session_is_bit_identical_to_uncached() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[1];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let cache = CalibCache::new();
        let a = PtqSession::new(cfg.clone())
            .cache(&cache)
            .quantize(w)
            .unwrap_ok();
        let b = PtqSession::new(cfg).quantize(w).unwrap_ok();
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn explicit_calibration_skips_the_calibration_pass() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let calib = calibrate_workload(w, &cfg).unwrap_ok();
        let a = PtqSession::new(cfg.clone())
            .with_calibration(&calib)
            .quantize(w)
            .unwrap_ok();
        let b = PtqSession::new(cfg).quantize(w).unwrap_ok();
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }

    #[test]
    fn scalar_reference_path_is_bit_identical_to_blocked() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let blocked = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
            .quantize(w)
            .unwrap_ok();
        let oracle = OnPath(blocked.model.hook(), KernelPath::ScalarReference);
        let scalar = w.evaluate_graph(&blocked.model.graph, &oracle).unwrap_ok();
        assert_eq!(
            blocked.score.to_bits(),
            scalar.to_bits(),
            "kernel path must never change results"
        );
    }

    #[test]
    fn weight_storage_knob_is_score_identical_and_shrinks_weights() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let stored = PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();
        let legacy = PtqSession::new(cfg.with_weight_storage(WeightStorage::FakeQuantF32))
            .quantize(w)
            .unwrap_ok();
        // Same arithmetic either way; only the storage differs.
        assert_eq!(stored.score.to_bits(), legacy.score.to_bits());
        assert_eq!(stored.weight_bytes_f32, legacy.weight_bytes_f32);
        assert_eq!(legacy.weight_bytes, legacy.weight_bytes_f32);
        assert!(
            stored.weight_bytes * 3 < stored.weight_bytes_f32,
            "fp8 storage should be well under 1/3 of f32 ({} vs {})",
            stored.weight_bytes,
            stored.weight_bytes_f32
        );
    }

    #[test]
    fn activation_storage_knob_is_score_identical_and_shrinks_acts() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let coded = PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();
        let legacy = PtqSession::new(cfg.with_activation_storage(ActivationStorage::FakeQuantF32))
            .quantize(w)
            .unwrap_ok();
        // Same arithmetic either way; only what crosses op boundaries
        // differs.
        assert_eq!(coded.score.to_bits(), legacy.score.to_bits());
        assert_eq!(coded.act_bytes_f32, legacy.act_bytes_f32);
        assert_eq!(legacy.act_bytes, legacy.act_bytes_f32);
        assert!(
            coded.act_bytes * 3 < coded.act_bytes_f32,
            "fp8 activations should be well under 1/3 of f32 ({} vs {})",
            coded.act_bytes,
            coded.act_bytes_f32
        );
    }

    #[test]
    fn session_surfaces_typed_errors() {
        let zoo = build_zoo(ZooFilter::Quick);
        let mut broken = zoo[0].clone();
        broken.eval = vec![vec![]];
        let err = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
            .quantize(&broken)
            .unwrap_err();
        assert!(err.to_string().contains("inputs"), "got: {err}");
    }

    #[test]
    fn out_of_range_recipe_is_a_typed_error_not_a_panic() {
        // A hand-built config skips the decoders' validation; the
        // session's calibrate step must still stop it before the
        // histogram percentile assert — on every public entry point.
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg =
            QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(99.99));
        let err = PtqSession::new(cfg.clone()).quantize(w).unwrap_err();
        assert!(matches!(err, PtqError::InvalidTarget { .. }), "{err}");
        let path = std::env::temp_dir().join(format!("ptq-session-bad-{}", std::process::id()));
        let err = PtqSession::new(cfg).save_artifact(w, &path).unwrap_err();
        assert!(matches!(err, PtqError::InvalidTarget { .. }), "{err}");
        assert!(!path.exists());
    }
}
