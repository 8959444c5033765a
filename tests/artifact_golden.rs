//! Golden-artifact compatibility pin.
//!
//! `tests/golden/quantized_e4m3_v7.ptq` is a committed version-7 artifact
//! (quick-zoo workload 0, E4M3 recipe, default serving section and
//! kv_storage knob, written by `PtqSession::save_artifact`). Today's
//! reader must keep loading it and scoring it bit-equal to the pinned
//! output below — any wire-format change that breaks old artifacts fails
//! here instead of in the field. The writer is pinned too: re-encoding
//! the loaded artifact must reproduce the committed bytes, so the format
//! cannot drift silently even in a compatible-reader direction.
//!
//! The superseded version-6 fixture stays committed as
//! `tests/golden/quantized_e4m3_v6.ptq`: it pins the *rejection* path, so
//! old files fail with a clear `UnsupportedVersion` instead of being
//! misparsed. Every chunk but CONFIG is v7's byte for byte; its CONFIG is
//! the binary recipe layout v7 replaced with the spec's JSON text.
//!
//! `tests/golden/engine_spec_all_knobs.json` pins that JSON text — the
//! `--spec` file form and, byte for byte, the CONFIG payload — in its
//! three sections, every knob away from its default.
//!
//! To regenerate after an *intentional* format change (bump VERSION in
//! `crates/artifact` first, keep the old fixture for the rejection test):
//!
//! ```text
//! cargo test --release --test artifact_golden regenerate -- --ignored --nocapture
//! ```

use fp8_ptq::artifact::{ArtifactError, ArtifactReader};
use fp8_ptq::core::config::{
    ActGranularity, ActivationStorage, Approach, CalibMethod, Coverage, Granularity, KvStorage,
    QuantConfig, WeightStorage,
};
use fp8_ptq::core::{EngineSpec, PtqArtifact, PtqError, PtqSession, ServeSpec};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::models::{build_zoo, ZooFilter};
use fp8_ptq::nn::UnwrapOk;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/quantized_e4m3_v7.ptq";

/// The previous-format fixture, kept only to pin the version-rejection
/// error (see `reader_rejects_the_previous_version_with_a_clear_error`).
const OLD_FIXTURE: &str = "tests/golden/quantized_e4m3_v6.ptq";

/// Pinned quantized eval score of the fixture model on quick-zoo
/// workload 0, as IEEE-754 bits. Set by the `regenerate` test; must never
/// change for an existing fixture.
const GOLDEN_SCORE_BITS: u64 = 0x3FEF000000000000;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn golden_artifact_loads_and_scores_bit_equal_to_the_pin() {
    let art = PtqArtifact::load(&fixture_path()).unwrap_ok();
    assert!(
        !art.thresholds.is_empty(),
        "fixture must carry calibration thresholds"
    );
    let zoo = build_zoo(ZooFilter::Quick);
    let w = &zoo[0];
    let score = w
        .evaluate_graph(&art.model.graph, &art.model.hook())
        .unwrap_ok();
    assert_eq!(
        score.to_bits(),
        GOLDEN_SCORE_BITS,
        "golden artifact scored {score} ({:#018X}), pinned {:#018X}",
        score.to_bits(),
        GOLDEN_SCORE_BITS
    );
}

#[test]
fn golden_artifact_bytes_are_reproduced_by_todays_writer() {
    let committed = std::fs::read(fixture_path()).unwrap();
    let art = PtqArtifact::from_bytes(committed.clone()).unwrap_ok();
    assert_eq!(
        art.to_bytes().unwrap_ok(),
        committed,
        "writer output drifted from the committed version-7 artifact"
    );
}

#[test]
fn golden_artifact_matches_calibrate_from_scratch_bit_for_bit() {
    let art = PtqArtifact::load(&fixture_path()).unwrap_ok();
    let zoo = build_zoo(ZooFilter::Quick);
    let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .quantize(&zoo[0])
        .unwrap_ok();
    assert_eq!(
        art.model.artifact_bytes().unwrap_ok(),
        out.model.artifact_bytes().unwrap_ok(),
        "fixture no longer matches a from-scratch quantization"
    );
}

#[test]
fn reader_rejects_the_next_version_with_a_clear_error() {
    let mut bytes = std::fs::read(fixture_path()).unwrap();
    let v = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    bytes[8..12].copy_from_slice(&(v + 1).to_le_bytes());
    let err = ArtifactReader::from_vec(bytes).err().unwrap();
    match err {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, v + 1);
            assert_eq!(supported, v);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
    assert!(
        err.to_string().contains("version"),
        "message should name the problem: {err}"
    );
}

#[test]
fn reader_rejects_the_previous_version_with_a_clear_error() {
    let old = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(OLD_FIXTURE);
    let err = PtqArtifact::load(&old).err().unwrap();
    assert!(
        matches!(
            err,
            PtqError::Artifact(ArtifactError::UnsupportedVersion {
                found: 6,
                supported: 7
            })
        ),
        "v6 fixture must fail with UnsupportedVersion: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("version") && msg.contains('6'),
        "the error must name the found version: {msg}"
    );
}

#[test]
fn mmap_read_path_is_live_on_linux() {
    let reader = ArtifactReader::open(&fixture_path()).unwrap();
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    assert!(
        reader.shared_buf().is_mapped(),
        "fixture should load through the zero-copy mmap path"
    );
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    assert!(!reader.shared_buf().is_mapped());
}

/// Regenerates the fixture and prints the score pin. Ignored: run
/// explicitly (see module docs) only when the format version changes.
#[test]
#[ignore = "writes the committed fixture; run only on an intentional format bump"]
fn regenerate() {
    let zoo = build_zoo(ZooFilter::Quick);
    let path = fixture_path();
    let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
        .save_artifact(&zoo[0], &path)
        .unwrap_ok();
    println!(
        "wrote {} ({} bytes); GOLDEN_SCORE_BITS = {:#018X} (score {})",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        out.score.to_bits(),
        out.score
    );
}

#[test]
fn engine_spec_json_text_is_pinned() {
    let mut config = QuantConfig::mixed_fp8()
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
        .with_kv_storage(KvStorage::Fp8 {
            format: Fp8Format::E5M2,
        });
    config.weight_granularity = Granularity::PerTensor;
    let spec = EngineSpec::from_config(&config).with_serving(ServeSpec {
        queue_capacity: 64,
        default_deadline_ms: Some(25),
        workers: 4,
    });
    let pinned = include_str!("golden/engine_spec_all_knobs.json");
    assert_eq!(spec.to_json(), pinned, "spec JSON text drifted");
    assert_eq!(EngineSpec::from_json(pinned).unwrap_ok(), spec);
}
