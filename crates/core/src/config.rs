//! Quantization configuration: formats, approaches, coverage and the
//! paper's preset recipes.

use ptq_fp8::{wire_enum, Fp8Format, WireEnum};
use ptq_nn::{NodeId, OpClass, PtqError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A low-precision data format a tensor class can be quantized to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataFormat {
    /// One of the FP8 formats.
    Fp8(Fp8Format),
    /// 8-bit integer (symmetric per-channel weights, asymmetric
    /// per-tensor activations — the Neural Compressor defaults the paper
    /// compares against).
    Int8,
}

impl DataFormat {
    const INT8: &'static str = "INT8";

    /// The format's wire label: the [`Fp8Format`] vocabulary plus `INT8`.
    pub fn label(self) -> &'static str {
        match self {
            DataFormat::Fp8(f) => f.label(),
            DataFormat::Int8 => Self::INT8,
        }
    }

    /// The format carrying `label`, if any.
    pub fn from_label(label: &str) -> Option<Self> {
        if label == Self::INT8 {
            return Some(DataFormat::Int8);
        }
        Fp8Format::from_label(label).map(DataFormat::Fp8)
    }

    /// Every label, `a | b | c` — the "want …" half of an error message.
    pub fn vocabulary() -> String {
        format!("{} | {}", Fp8Format::vocabulary(), Self::INT8)
    }
}

impl fmt::Display for DataFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Static (calibrated scales) vs dynamic (per-batch runtime scales)
/// activation quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Approach {
    /// Scales frozen from calibration — the paper's default.
    #[default]
    Static,
    /// Activation scales computed from each tensor at run time.
    Dynamic,
}

wire_enum!(Approach { Static => "static", Dynamic => "dynamic" });

/// Capitalized, unlike the wire label: this is the row heading of the
/// paper-shaped tables (`E4M3 / Static`).
impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Approach::Static => write!(f, "Static"),
            Approach::Dynamic => write!(f, "Dynamic"),
        }
    }
}

/// Which operator classes are quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Coverage {
    /// The paper's standard scheme: Conv2d, Linear, Embedding.
    #[default]
    Standard,
    /// The extended scheme: adds MatMul, BatchMatMul, BatchNorm,
    /// LayerNorm, Add, Mul.
    Extended,
}

wire_enum!(Coverage { Standard => "standard", Extended => "extended" });

impl Coverage {
    /// The classes this coverage level quantizes.
    pub fn classes(self) -> &'static [OpClass] {
        match self {
            Coverage::Standard => &[OpClass::Conv2d, OpClass::Linear, OpClass::Embedding],
            Coverage::Extended => &[
                OpClass::Conv2d,
                OpClass::Linear,
                OpClass::Embedding,
                OpClass::MatMul,
                OpClass::BatchMatMul,
                OpClass::BatchNorm,
                OpClass::LayerNorm,
                OpClass::Add,
                OpClass::Mul,
            ],
        }
    }

    /// Whether a class is quantized at this coverage level.
    pub fn includes(self, class: OpClass) -> bool {
        self.classes().contains(&class)
    }
}

/// Weight scale granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Granularity {
    /// One scale per output channel — the paper's recommendation for
    /// weights on all networks.
    #[default]
    PerChannel,
    /// One scale for the whole tensor.
    PerTensor,
}

wire_enum!(Granularity { PerChannel => "per-channel", PerTensor => "per-tensor" });

/// How quantized weights are *held and executed* after PTQ.
///
/// Orthogonal to format/granularity: both modes compute identical scales
/// and identical quantized values; they differ only in the memory layout
/// the model keeps resident and the kernels that consume it. Execution is
/// bit-identical between the two (enforced zoo-wide in
/// `tests/plan_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WeightStorage {
    /// Real FP8 storage: weights kept as 1-byte codes plus scales
    /// (`QTensor`) and passed to the kernels as `WeightOperand::Q`, which
    /// decode them inside the MAC loop — the ~4× weight-memory reduction
    /// 8-bit deployment is for. Applies when the weight format is FP8;
    /// INT8 weights always use fake-quant f32.
    #[default]
    Fp8,
    /// Legacy emulation storage: weights dequantized back to dense f32 at
    /// build time (quantize → dequantize), executed by the f32 kernels.
    FakeQuantF32,
}

// The two storage enums share one vocabulary.
pub(crate) const STORED_FP8: &str = "fp8";
const STORED_FAKEQUANT_F32: &str = "fakequant-f32";

wire_enum!(WeightStorage { Fp8 => STORED_FP8, FakeQuantF32 => STORED_FAKEQUANT_F32 });

impl fmt::Display for WeightStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How quantized *activations* are held and executed between ops.
///
/// The activation-side counterpart of [`WeightStorage`], and orthogonal
/// to it in the same way: both modes compute identical scales and
/// identical quantized values; they differ only in whether the tensor
/// crossing an op boundary is a 1-byte/element code buffer consumed by
/// the code×code kernels or a fake-quantized dense f32 tensor. Execution
/// is bit-identical between the two (enforced zoo-wide in
/// `tests/plan_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ActivationStorage {
    /// Real FP8 storage: eligible activation inputs are quantized to u8
    /// codes at the op boundary and passed to `ops::{conv2d, linear,
    /// matmul}_into` as `ActOperand::Coded` — neither operand is
    /// materialized as a dense f32 tensor on the hot path. Applies when
    /// the activation format is FP8; INT8 activations always use
    /// fake-quant f32.
    #[default]
    Fp8,
    /// Legacy emulation storage: activations fake-quantized in place
    /// (quantize → dequantize) and streamed as dense f32.
    FakeQuantF32,
}

wire_enum!(ActivationStorage { Fp8 => STORED_FP8, FakeQuantF32 => STORED_FAKEQUANT_F32 });

impl fmt::Display for ActivationStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the autoregressive KV cache holds cached key/value rows.
///
/// The decode-time counterpart of [`WeightStorage`] /
/// [`ActivationStorage`]: `F32` is the bit-identity reference (an
/// incremental decode step reproduces the full-window forward exactly —
/// the equivalence oracle for every decode test), `Fp8` stores cached
/// rows as 1-byte codes plus scales for the ~4× cache-memory reduction.
/// Cache scales follow the session's static convention: calibrated once
/// from the prefill activations, with a per-row dynamic fallback when the
/// prefill absmax is degenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KvStorage {
    /// Dense f32 rows — bit-identical to full-window recompute.
    #[default]
    F32,
    /// u8 FP8 codes + scales.
    Fp8 {
        /// Cache code format (E5M2 / E4M3 / E3M4).
        format: Fp8Format,
    },
}

impl fmt::Display for KvStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvStorage::F32 => write!(f, "f32"),
            KvStorage::Fp8 { format } => write!(f, "fp8-{format}"),
        }
    }
}

/// Activation scale granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ActGranularity {
    /// One scale per activation tensor — static from calibration
    /// thresholds, or dynamic per-batch absmax. The paper's scheme.
    #[default]
    PerTensor,
    /// One dynamic absmax scale per `tile`-wide chunk of each
    /// last-dimension row (ragged tails get their own scale) — the
    /// tile-based FP8-Linear scheme: per-tile scales bound the blast
    /// radius of an outlier to one tile and map onto a blocked kernel.
    /// Always dynamic (calibration thresholds are per-tensor); a direct
    /// activation format (E5M2) overrides this with unit scales.
    PerTile(usize),
}

/// Range-calibration method for static activation scales (Appendix A.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CalibMethod {
    /// Calibrated absolute maximum — the paper's default, found
    /// sufficient for FP8.
    #[default]
    AbsMax,
    /// Clip to the given |x| percentile (e.g. 0.9999).
    Percentile(f64),
    /// TensorRT-style KL-divergence threshold search.
    Kl,
    /// Sweep clip thresholds, minimizing actual quantization MSE.
    MseSweep,
}

/// A complete quantization recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Format for activations.
    pub act_format: DataFormat,
    /// Format for weights. Differing from `act_format` gives the paper's
    /// *mixed FP8 formats* scheme (§3.2: E4M3 activations + E3M4 weights).
    pub weight_format: DataFormat,
    /// Static vs dynamic activation scaling.
    pub approach: Approach,
    /// Operator coverage.
    pub coverage: Coverage,
    /// Weight scale granularity.
    pub weight_granularity: Granularity,
    /// Quantize the first and last compute operators of convolutional
    /// networks (§3.1 keeps them in FP32 by default; §4.3.1 studies
    /// enabling them).
    pub quantize_first_last: bool,
    /// SmoothQuant α (None = off). The paper enables α = 0.5 on NLP
    /// models.
    pub smoothquant_alpha: Option<f32>,
    /// Range-calibration method for static activation scales.
    pub calibration: CalibMethod,
    /// Re-estimate BatchNorm running statistics after quantization (the
    /// paper applies this to CV models).
    pub bn_calibration: bool,
    /// Node ids forced to FP32 (the tuner's fallback mechanism).
    pub fallback: BTreeSet<NodeId>,
    /// How quantized weights are stored and executed (defaults to real
    /// FP8 storage).
    pub weight_storage: WeightStorage,
    /// How quantized activations are stored and executed between ops
    /// (defaults to real FP8 storage).
    pub activation_storage: ActivationStorage,
    /// Activation scale granularity (defaults to per-tensor).
    pub act_granularity: ActGranularity,
    /// How the autoregressive KV cache stores cached rows (defaults to
    /// f32, the bit-identity reference).
    pub kv_storage: KvStorage,
}

impl QuantConfig {
    /// The paper's FP8 recipe skeleton for a format: static, standard
    /// coverage, per-channel weights, absmax calibration (none for E5M2,
    /// which quantizes directly), first/last excluded.
    pub fn fp8(format: Fp8Format) -> Self {
        QuantConfig {
            act_format: DataFormat::Fp8(format),
            weight_format: DataFormat::Fp8(format),
            approach: Approach::Static,
            coverage: Coverage::Standard,
            weight_granularity: Granularity::PerChannel,
            quantize_first_last: false,
            smoothquant_alpha: None,
            calibration: CalibMethod::AbsMax,
            bn_calibration: false,
            fallback: BTreeSet::new(),
            weight_storage: WeightStorage::default(),
            activation_storage: ActivationStorage::default(),
            act_granularity: ActGranularity::default(),
            kv_storage: KvStorage::default(),
        }
    }

    /// The mixed-format recipe: E4M3 activations, E3M4 weights (§3.2).
    pub fn mixed_fp8() -> Self {
        QuantConfig {
            act_format: DataFormat::Fp8(Fp8Format::E4M3),
            weight_format: DataFormat::Fp8(Fp8Format::E3M4),
            ..Self::fp8(Fp8Format::E4M3)
        }
    }

    /// The INT8 baseline recipe skeleton.
    pub fn int8() -> Self {
        QuantConfig {
            act_format: DataFormat::Int8,
            weight_format: DataFormat::Int8,
            ..Self::fp8(Fp8Format::E4M3)
        }
    }

    /// Builder-style: set the approach.
    pub fn with_approach(mut self, approach: Approach) -> Self {
        self.approach = approach;
        self
    }

    /// Builder-style: set coverage.
    pub fn with_coverage(mut self, coverage: Coverage) -> Self {
        self.coverage = coverage;
        self
    }

    /// Builder-style: enable SmoothQuant with α.
    pub fn with_smoothquant(mut self, alpha: f32) -> Self {
        self.smoothquant_alpha = Some(alpha);
        self
    }

    /// Builder-style: enable BatchNorm calibration.
    pub fn with_bn_calibration(mut self) -> Self {
        self.bn_calibration = true;
        self
    }

    /// Builder-style: set the range-calibration method.
    pub fn with_calibration(mut self, m: CalibMethod) -> Self {
        self.calibration = m;
        self
    }

    /// Builder-style: quantize first/last compute ops too.
    pub fn with_first_last(mut self) -> Self {
        self.quantize_first_last = true;
        self
    }

    /// Builder-style: add a fallback node.
    pub fn with_fallback(mut self, node: NodeId) -> Self {
        self.fallback.insert(node);
        self
    }

    /// Builder-style: set the weight storage mode.
    pub fn with_weight_storage(mut self, storage: WeightStorage) -> Self {
        self.weight_storage = storage;
        self
    }

    /// Builder-style: set the activation storage mode.
    pub fn with_activation_storage(mut self, storage: ActivationStorage) -> Self {
        self.activation_storage = storage;
        self
    }

    /// Builder-style: set the activation scale granularity.
    pub fn with_act_granularity(mut self, g: ActGranularity) -> Self {
        self.act_granularity = g;
        self
    }

    /// Builder-style: set the KV-cache storage mode.
    pub fn with_kv_storage(mut self, kv: KvStorage) -> Self {
        self.kv_storage = kv;
        self
    }

    /// Reject parameter values no pipeline stage can run: a calibration
    /// percentile outside (0, 1] or a SmoothQuant α outside [0, 1] (NaN
    /// fails both). Every decoder of a recipe calls this, and so does the
    /// session before it calibrates.
    pub fn validate(&self) -> Result<(), PtqError> {
        if let CalibMethod::Percentile(q) = self.calibration {
            if !(q > 0.0 && q <= 1.0) {
                return Err(PtqError::InvalidTarget {
                    detail: format!("calibration percentile must be in (0, 1], got {q}"),
                });
            }
        }
        match self.smoothquant_alpha {
            Some(a) if !(0.0..=1.0).contains(&a) => Err(PtqError::InvalidTarget {
                detail: format!("smoothquant_alpha must be in [0, 1], got {a}"),
            }),
            _ => Ok(()),
        }
    }

    /// True when this config stores weights as real FP8 bytes (the
    /// storage knob is `Fp8` *and* the weight format is an FP8 format —
    /// INT8 weights always stay fake-quant f32).
    pub fn stores_fp8_weights(&self) -> bool {
        self.weight_storage == WeightStorage::Fp8
            && matches!(self.weight_format, DataFormat::Fp8(_))
    }

    /// True when this config stores eligible activations as real FP8
    /// codes between ops (the storage knob is `Fp8` *and* the activation
    /// format is an FP8 format — INT8 activations always stay fake-quant
    /// f32).
    pub fn stores_fp8_acts(&self) -> bool {
        self.activation_storage == ActivationStorage::Fp8
            && matches!(self.act_format, DataFormat::Fp8(_))
    }

    /// True if activations of this config use *direct* quantization (no
    /// range calibration): the paper's E5M2 rule.
    pub fn direct_activation_quant(&self) -> bool {
        matches!(self.act_format, DataFormat::Fp8(f) if f.direct_quantization())
    }

    /// True when quantizing a row of an activation tensor never reads the
    /// tensor's other rows: static, per-tile or (direct quantization) unit
    /// scales — anything but a dynamic per-tensor scale, FP8 or INT8. Rows
    /// of different requests can then share one tensor without moving a
    /// bit of either, so the serving engine gathers decode steps only under
    /// such a config.
    pub fn row_independent_acts(&self) -> bool {
        let per_tile = matches!(self.act_granularity, ActGranularity::PerTile(_));
        match self.act_format {
            DataFormat::Fp8(_) => {
                self.approach == Approach::Static || self.direct_activation_quant() || per_tile
            }
            DataFormat::Int8 => self.approach == Approach::Static,
        }
    }

    /// Short human-readable label, e.g. `E4M3/static` or
    /// `E4M3:E3M4/static` for mixed formats.
    pub fn label(&self) -> String {
        let fmt = if self.act_format == self.weight_format {
            format!("{}", self.act_format)
        } else {
            format!("{}:{}", self.act_format, self.weight_format)
        };
        format!("{fmt}/{}", self.approach.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = QuantConfig::fp8(Fp8Format::E4M3);
        assert_eq!(c.act_format, DataFormat::Fp8(Fp8Format::E4M3));
        assert_eq!(c.approach, Approach::Static);
        assert!(!c.quantize_first_last);
        let m = QuantConfig::mixed_fp8();
        assert_ne!(m.act_format, m.weight_format);
        assert_eq!(QuantConfig::int8().act_format, DataFormat::Int8);
    }

    #[test]
    fn coverage_sets() {
        assert!(Coverage::Standard.includes(OpClass::Conv2d));
        assert!(!Coverage::Standard.includes(OpClass::LayerNorm));
        assert!(Coverage::Extended.includes(OpClass::LayerNorm));
        assert!(Coverage::Extended.includes(OpClass::BatchMatMul));
        assert!(!Coverage::Extended.includes(OpClass::Other));
    }

    #[test]
    fn e5m2_is_direct() {
        assert!(QuantConfig::fp8(Fp8Format::E5M2).direct_activation_quant());
        assert!(!QuantConfig::fp8(Fp8Format::E4M3).direct_activation_quant());
        assert!(!QuantConfig::int8().direct_activation_quant());
    }

    #[test]
    fn only_dynamic_per_tensor_scales_tie_rows_together() {
        let dynamic = |c: QuantConfig| c.with_approach(Approach::Dynamic);
        let e4m3 = QuantConfig::fp8(Fp8Format::E4M3);
        for (c, independent) in [
            (e4m3.clone(), true),
            (dynamic(e4m3.clone()), false),
            (dynamic(QuantConfig::fp8(Fp8Format::E5M2)), true),
            (
                dynamic(e4m3.with_act_granularity(ActGranularity::PerTile(8))),
                true,
            ),
            (QuantConfig::int8(), true),
            (dynamic(QuantConfig::int8()), false),
        ] {
            assert_eq!(c.row_independent_acts(), independent, "{}", c.label());
        }
    }

    #[test]
    fn weight_storage_knob() {
        let c = QuantConfig::fp8(Fp8Format::E4M3);
        assert_eq!(c.weight_storage, WeightStorage::Fp8);
        assert!(c.stores_fp8_weights());
        assert!(!c
            .with_weight_storage(WeightStorage::FakeQuantF32)
            .stores_fp8_weights());
        // INT8 weights never use FP8 storage regardless of the knob.
        assert!(!QuantConfig::int8().stores_fp8_weights());
        // The knob serializes under a stable label (sweep configs and
        // bench JSON embed it).
        let serde::Value::Object(fields) = QuantConfig::mixed_fp8().serialize() else {
            panic!("config serializes as an object");
        };
        let storage = fields
            .iter()
            .find(|(k, _)| k == "weight_storage")
            .map(|(_, v)| v.clone());
        assert_eq!(
            storage,
            Some(serde::Value::Str("Fp8".to_string())),
            "weight_storage must serialize under a stable label"
        );
    }

    #[test]
    fn activation_storage_knob() {
        let c = QuantConfig::fp8(Fp8Format::E4M3);
        assert_eq!(c.activation_storage, ActivationStorage::Fp8);
        assert_eq!(c.act_granularity, ActGranularity::PerTensor);
        assert!(c.stores_fp8_acts());
        assert!(!c
            .with_activation_storage(ActivationStorage::FakeQuantF32)
            .stores_fp8_acts());
        // INT8 activations never use FP8 storage regardless of the knob.
        assert!(!QuantConfig::int8().stores_fp8_acts());
        // The knob serializes under a stable label (sweep configs and
        // bench JSON embed it).
        let serde::Value::Object(fields) = QuantConfig::mixed_fp8().serialize() else {
            panic!("config serializes as an object");
        };
        let storage = fields
            .iter()
            .find(|(k, _)| k == "activation_storage")
            .map(|(_, v)| v.clone());
        assert_eq!(
            storage,
            Some(serde::Value::Str("Fp8".to_string())),
            "activation_storage must serialize under a stable label"
        );
    }

    #[test]
    fn kv_storage_knob() {
        let c = QuantConfig::fp8(Fp8Format::E4M3);
        assert_eq!(c.kv_storage, KvStorage::F32);
        let fp8 = c.with_kv_storage(KvStorage::Fp8 {
            format: Fp8Format::E4M3,
        });
        assert_eq!(fp8.kv_storage.to_string(), "fp8-E4M3");
        assert_eq!(KvStorage::F32.to_string(), "f32");
        // The knob serializes under a stable label (sweep configs and
        // bench JSON embed it).
        let serde::Value::Object(fields) = QuantConfig::mixed_fp8().serialize() else {
            panic!("config serializes as an object");
        };
        assert!(
            fields.iter().any(|(k, _)| k == "kv_storage"),
            "kv_storage must serialize under a stable label"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(QuantConfig::fp8(Fp8Format::E3M4).label(), "E3M4/static");
        assert_eq!(
            QuantConfig::mixed_fp8()
                .with_approach(Approach::Dynamic)
                .label(),
            "E4M3:E3M4/dynamic"
        );
        assert_eq!(QuantConfig::int8().label(), "INT8/static");
    }
}
