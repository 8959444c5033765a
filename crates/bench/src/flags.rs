//! The one command line of `ptq-bench`: `<experiment> [operands] [flags]`,
//! parsed once in `main` and carried by [`crate::ctx::Ctx`], so every
//! experiment agrees on names, value vocabulary and error behavior.
//!
//! * `--quick` — the zoo sweeps run over the 8-workload quick zoo instead
//!   of the full 75-workload zoo.
//! * `--limit <N>` — a sweep keeps only its first N workloads: of the zoo
//!   view it sweeps, or (`fig7`) of the three models it builds itself.
//! * `--detail` — extra per-workload output (`table2`).
//! * `--only-format <F>` — keep only rows of one data format, named by
//!   its wire label (`E5M2` / `E4M3` / `E3M4` / `INT8`) (`table2`).
//! * `--spec <path.json>` — load a serialized [`EngineSpec`]; its
//!   storage + kernel sections override each row's recipe (`table2`).
//! * `--trace <path.ndjson>` — record a trace of the whole run.
//!
//! Anything else starting with `--`, a flag missing its value and a bad
//! value are errors naming the flag; `main` prints them and exits 2.

use ptq_core::config::{DataFormat, QuantConfig};
use ptq_core::EngineSpec;

/// The whole flag vocabulary, as quoted by usage and error messages.
pub const VOCABULARY: &str = "--quick --detail --limit <N> --only-format <F> \
                              --spec <path.json> --trace <path.ndjson>";

/// Parsed command line (see module docs for the vocabulary).
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// Everything that is not a flag or a flag's value, in order: the
    /// experiment name, then its operands.
    pub operands: Vec<String>,
    /// `--quick`.
    pub quick: bool,
    /// `--detail`.
    pub detail: bool,
    /// `--limit N`.
    pub limit: Option<usize>,
    /// `--only-format F`.
    pub only_format: Option<DataFormat>,
    /// `--spec path.json`, fully deserialized.
    pub spec: Option<EngineSpec>,
    /// `--trace path.ndjson`.
    pub trace: Option<String>,
}

impl Flags {
    /// Parse an argv (without the program name).
    pub fn parse_from(args: Vec<String>) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value (flags: {VOCABULARY})"))
            };
            match arg.as_str() {
                "--quick" => flags.quick = true,
                "--detail" => flags.detail = true,
                "--limit" => {
                    let v = value()?;
                    flags.limit = Some(
                        v.parse()
                            .map_err(|_| format!("bad --limit {v:?} (want an integer)"))?,
                    );
                }
                "--only-format" => {
                    let v = value()?;
                    flags.only_format = Some(DataFormat::from_label(&v).ok_or_else(|| {
                        format!(
                            "unknown --only-format {v:?} (want {})",
                            DataFormat::vocabulary()
                        )
                    })?);
                }
                "--spec" => {
                    let path = value()?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read --spec {path}: {e}"))?;
                    flags.spec = Some(
                        EngineSpec::from_json(&text)
                            .map_err(|e| format!("invalid --spec {path}: {e}"))?,
                    );
                }
                "--trace" => flags.trace = Some(value()?),
                _ if arg.starts_with("--") => {
                    return Err(format!("unknown flag {arg} (flags: {VOCABULARY})"));
                }
                _ => flags.operands.push(arg),
            }
        }
        Ok(flags)
    }

    /// Does `--only-format` admit this format? (No flag admits
    /// everything.)
    pub fn format_selected(&self, format: DataFormat) -> bool {
        self.only_format.is_none_or(|want| want == format)
    }

    /// `items` cut to its first `--limit` entries (all of them without
    /// the flag).
    pub fn limited<'a, T>(&self, items: &'a [T]) -> &'a [T] {
        &items[..self.limit.map_or(items.len(), |n| n.min(items.len()))]
    }

    /// Apply the spec file's storage and kernel sections (when given) to
    /// a row's recipe.
    pub fn tweak_config(&self, cfg: QuantConfig) -> QuantConfig {
        match &self.spec {
            None => cfg,
            Some(spec) => cfg
                .with_weight_storage(spec.config.weight_storage)
                .with_activation_storage(spec.config.activation_storage)
                .with_act_granularity(spec.config.act_granularity)
                .with_kernel_path(spec.config.kernel_path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_core::config::{ActivationStorage, WeightStorage};
    use ptq_core::KernelPath;
    use ptq_fp8::Fp8Format;

    fn parse(s: &[&str]) -> Result<Flags, String> {
        Flags::parse_from(s.iter().map(|x| x.to_string()).collect())
    }

    #[test]
    fn parses_the_shared_vocabulary() {
        let f = parse(&[
            "table2",
            "--quick",
            "--detail",
            "--limit",
            "7",
            "--only-format",
            "E4M3",
            "--trace",
            "out.ndjson",
        ])
        .unwrap();
        assert!(f.quick && f.detail);
        assert_eq!(f.limit, Some(7));
        assert_eq!(f.limited(&[0; 9]).len(), 7);
        assert_eq!(f.limited(&[0; 3]).len(), 3);
        assert!(f.format_selected(DataFormat::Fp8(Fp8Format::E4M3)));
        assert!(!f.format_selected(DataFormat::Fp8(Fp8Format::E5M2)));
        assert!(!f.format_selected(DataFormat::Int8));
        assert!(f.spec.is_none());
        assert_eq!(f.trace.as_deref(), Some("out.ndjson"));
        assert_eq!(f.operands, ["table2"]);
        // No flag admits everything; operands keep their order around flags.
        let all = parse(&["quantize", "--quick", "vgg", "e4m3"]).unwrap();
        assert!(all.format_selected(DataFormat::Int8));
        assert_eq!(all.limited(&[0; 9]).len(), 9);
        assert_eq!(all.operands, ["quantize", "vgg", "e4m3"]);
    }

    #[test]
    fn rejects_bad_values_with_the_flag_name() {
        let e = parse(&["b", "--only-format", "E9M9"]).unwrap_err();
        assert!(e.contains("--only-format"), "{e}");
        assert!(e.contains("E5M2 | E4M3 | E3M4 | INT8"), "{e}");
        let e = parse(&["b", "--limit", "many"]).unwrap_err();
        assert!(e.contains("--limit"), "{e}");
        let e = parse(&["b", "--spec", "/nonexistent.json"]).unwrap_err();
        assert!(e.contains("--spec"), "{e}");
    }

    #[test]
    fn rejects_a_flag_without_its_value_and_unknown_flags() {
        for flag in ["--limit", "--trace", "--only-format", "--spec"] {
            let e = parse(&["table2", "--quick", flag]).unwrap_err();
            assert!(e.contains(flag) && e.contains("needs a value"), "{e}");
            assert!(e.contains(VOCABULARY), "{e}");
        }
        let e = parse(&["table2", "--trace", "--quick"]).unwrap_err();
        assert!(e.contains("--trace needs a value"), "{e}");
        let e = parse(&["table2", "--quik"]).unwrap_err();
        assert!(e.contains("unknown flag --quik"), "{e}");
        assert!(e.contains(VOCABULARY), "{e}");
    }

    #[test]
    fn spec_file_overrides_ride_through_tweak_config() {
        let mut p = std::env::temp_dir();
        p.push(format!("ptq-bench-flags-{}.json", std::process::id()));
        let spec_json = r#"{
            "quantization": { "act_format": "E4M3" },
            "storage": { "weights": "fakequant-f32", "activations": "fakequant-f32" },
            "kernel": { "path": "scalar-reference" },
            "serving": { "workers": 3 }
        }"#;
        std::fs::write(&p, spec_json).unwrap();
        let f = parse(&["b", "--spec", p.to_str().unwrap()]).unwrap();
        let cfg = f.tweak_config(QuantConfig::fp8(Fp8Format::E5M2));
        assert_eq!(cfg.weight_storage, WeightStorage::FakeQuantF32);
        assert_eq!(cfg.kernel_path, KernelPath::ScalarReference);
        assert_eq!(cfg.activation_storage, ActivationStorage::FakeQuantF32);
        // The spec file's quantization section does not touch the row.
        assert_eq!(cfg.act_format, DataFormat::Fp8(Fp8Format::E5M2));
        let _ = std::fs::remove_file(&p);
    }
}
