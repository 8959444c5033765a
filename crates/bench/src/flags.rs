//! Shared CLI-flag handling for the bench binaries.
//!
//! Every experiment binary used to parse its own copy of the common
//! flags; this module is the single home for them so the binaries
//! agree on names, value vocabulary and error behavior:
//!
//! * `--quick` — quick zoo instead of the full 75-workload zoo.
//! * `--detail` — extra per-workload output where a binary supports it.
//! * `--limit <N>` — truncate the zoo to its first N workloads.
//! * `--only-format <F>` — keep only rows of one data format, named by
//!   its wire label (`E5M2` / `E4M3` / `E3M4` / `INT8`).
//! * `--spec <path.json>` — load a serialized [`EngineSpec`]; its
//!   storage + kernel sections override each row's recipe.
//!
//! Unknown values exit with status 2 and a message naming the flag —
//! same behavior for every binary.

use ptq_core::config::{DataFormat, QuantConfig};
use ptq_core::EngineSpec;

/// Parsed common flags (see module docs for the vocabulary).
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// The raw argv the flags were parsed from (for binary-specific
    /// extras and `--trace` handling).
    pub args: Vec<String>,
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
}

impl CommonFlags {
    /// Parse from `std::env::args()`, exiting with status 2 on a bad
    /// value (the shared behavior of all bench binaries).
    pub fn parse() -> CommonFlags {
        let args: Vec<String> = std::env::args().collect();
        match CommonFlags::parse_from(args) {
            Ok(f) => f,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argv (testable, no process exit).
    pub fn parse_from(args: Vec<String>) -> Result<CommonFlags, String> {
        let quick = args.iter().any(|a| a == "--quick");
        let detail = args.iter().any(|a| a == "--detail");
        let limit = match crate::flag_value(&args, "--limit") {
            None => None,
            Some(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| format!("bad --limit {v:?} (want an integer)"))?,
            ),
        };
        let only_format = match crate::flag_value(&args, "--only-format") {
            None => None,
            Some(v) => Some(DataFormat::from_label(&v).ok_or_else(|| {
                format!(
                    "unknown --only-format {v:?} (want {})",
                    DataFormat::vocabulary()
                )
            })?),
        };
        let spec = match crate::flag_value(&args, "--spec") {
            None => None,
            Some(path) => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read --spec {path}: {e}"))?;
                Some(
                    EngineSpec::from_json(&text)
                        .map_err(|e| format!("invalid --spec {path}: {e}"))?,
                )
            }
        };
        Ok(CommonFlags {
            args,
            quick,
            detail,
            limit,
            only_format,
            spec,
        })
    }

    /// Does `--only-format` admit this format? (No flag admits
    /// everything.)
    pub fn format_selected(&self, format: DataFormat) -> bool {
        self.only_format.is_none_or(|want| want == format)
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

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_shared_vocabulary() {
        let f = CommonFlags::parse_from(argv(&[
            "bench",
            "--quick",
            "--detail",
            "--limit",
            "7",
            "--only-format",
            "E4M3",
        ]))
        .unwrap();
        assert!(f.quick && f.detail);
        assert_eq!(f.limit, Some(7));
        assert!(f.format_selected(DataFormat::Fp8(Fp8Format::E4M3)));
        assert!(!f.format_selected(DataFormat::Fp8(Fp8Format::E5M2)));
        assert!(!f.format_selected(DataFormat::Int8));
        assert!(f.spec.is_none());
        // No flag admits everything.
        let all = CommonFlags::parse_from(argv(&["bench"])).unwrap();
        assert!(all.format_selected(DataFormat::Int8));
    }

    #[test]
    fn rejects_bad_values_with_the_flag_name() {
        let e = CommonFlags::parse_from(argv(&["b", "--only-format", "E9M9"])).unwrap_err();
        assert!(e.contains("--only-format"), "{e}");
        assert!(e.contains("E5M2 | E4M3 | E3M4 | INT8"), "{e}");
        let e = CommonFlags::parse_from(argv(&["b", "--limit", "many"])).unwrap_err();
        assert!(e.contains("--limit"), "{e}");
        let e = CommonFlags::parse_from(argv(&["b", "--spec", "/nonexistent.json"])).unwrap_err();
        assert!(e.contains("--spec"), "{e}");
    }

    #[test]
    fn spec_file_overrides_ride_through_tweak_config() {
        let mut p = std::env::temp_dir();
        p.push(format!("ptq-bench-flags-{}.json", std::process::id()));
        let spec_json = r#"{
            "quantization": { "act_format": "E4M3" },
            "storage": { "weights": "fakequant-f32", "activations": "fakequant-f32" },
            "kernel": { "path": "scalar-reference" },
            "serving": { "max_batch": 3 }
        }"#;
        std::fs::write(&p, spec_json).unwrap();
        let f = CommonFlags::parse_from(argv(&["b", "--spec", p.to_str().unwrap()])).unwrap();
        let cfg = f.tweak_config(QuantConfig::fp8(Fp8Format::E5M2));
        assert_eq!(cfg.weight_storage, WeightStorage::FakeQuantF32);
        assert_eq!(cfg.kernel_path, KernelPath::ScalarReference);
        assert_eq!(cfg.activation_storage, ActivationStorage::FakeQuantF32);
        // The spec file's quantization section does not touch the row.
        assert_eq!(cfg.act_format, DataFormat::Fp8(Fp8Format::E5M2));
        let _ = std::fs::remove_file(&p);
    }
}
