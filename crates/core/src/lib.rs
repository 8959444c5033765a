//! # ptq-core — the FP8 post-training quantization framework
//!
//! This crate implements the paper's contribution (§3): a unified,
//! scalable PTQ workflow over FP8 formats that generalizes across
//! application domains, together with the INT8 baseline configuration it
//! is compared against.
//!
//! The pieces map one-to-one onto the paper's Figure-2 flow:
//!
//! * **Standard quantization scheme** — Conv2d/Linear/Embedding with
//!   per-channel weight scaling, per-tensor activation scaling
//!   (`s = float_max / max_T`), first/last compute ops excluded for CNNs.
//! * **Extended quantization scheme** — additional operator coverage
//!   (MatMul, BatchMatMul, BatchNorm, LayerNorm, Add, Mul), mixed FP8
//!   formats (E4M3 activations + E3M4 weights), dynamic quantization.
//! * **Range calibration** — absmax by default (what the paper found
//!   sufficient), with percentile / KL-divergence / MSE-sweep observers for
//!   the Appendix-A.1 comparison; E5M2 uses direct quantization.
//! * **BatchNorm calibration** — re-estimates BN running statistics under
//!   the quantized network (§3, Figure 7).
//! * **SmoothQuant** — α-smoothing between activations and weights,
//!   enabled on NLP models (§4.2).
//! * **Accuracy-driven tuning** — the Appendix-A.1 recipe search that
//!   walks the (format × approach × coverage × fallback) lattice until the
//!   1 % criterion is met.
//!
//! The entry point is [`PtqSession`]: configure once, quantize any number
//! of workloads, share calibration through a [`CalibCache`]. Model graphs
//! execute through cached [`ptq_nn::ExecPlan`]s, so repeated calibration
//! and evaluation passes reuse preallocated tensor arenas.
//!
//! ## Quick example
//!
//! ```no_run
//! use ptq_core::{CalibCache, PtqSession, QuantConfig, UnwrapOk};
//! use ptq_fp8::Fp8Format;
//! use ptq_models::{build_zoo, ZooFilter};
//!
//! let zoo = build_zoo(ZooFilter::Quick);
//! let cache = CalibCache::new();
//! let mut session = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3)).cache(&cache);
//! let outcome = session.quantize(&zoo[0]).unwrap_ok();
//! println!("fp32 {:.4} -> quantized {:.4}", zoo[0].fp32_score, outcome.score);
//! ```

pub mod artifact;
pub mod bn_calib;
pub mod calib_cache;
pub mod calibrate;
pub mod config;
pub mod decode;
pub mod observer;
pub mod quantizer;
pub mod sensitivity;
pub mod session;
pub mod smoothquant;
pub mod spec;
pub mod tuner;
pub mod workflow;

pub use artifact::PtqArtifact;
pub use bn_calib::recalibrate_batchnorm;
pub use calib_cache::CalibCache;
pub use calibrate::{CalibData, CalibrationHook, TensorKey};
pub use config::{
    ActGranularity, ActivationStorage, Approach, CalibMethod, Coverage, DataFormat, Granularity,
    KvStorage, QuantConfig, WeightStorage,
};
pub use decode::DecodeSession;
pub use observer::{kl_divergence_threshold, mse_sweep_threshold, percentile_threshold};
pub use ptq_nn::{PtqError, UnwrapOk};
pub use quantizer::{QuantHook, QuantizedModel};
pub use sensitivity::{sensitivity_profile, NodeSensitivity, SensitivityProfile};
pub use session::{PtqSession, QuantOutcome};
pub use smoothquant::smooth_scales;
pub use spec::{EngineSpec, ServeSpec, MAX_WORKERS};
pub use tuner::{AutoTuner, Recipe, TuneOutcome, TuneStep};
pub use workflow::{
    calibrate_workload, paper_mixed_recipe, paper_recipe, run_suite, table2_rows, SuiteRow,
    SweepError,
};
