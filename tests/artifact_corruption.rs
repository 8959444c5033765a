//! Corruption-injection battery for the PTQ artifact format.
//!
//! Every byte of a real artifact is flipped, every truncation length is
//! tried, and the header fields (magic, version, chunk count, chunk
//! lengths, CRCs) are attacked directly. The contract: a damaged artifact
//! either fails with a *typed* error or decodes to a model whose canonical
//! re-encoding equals the pristine artifact. Never a panic; never a
//! silently different model. The bytes outside the checksummed payloads,
//! alignment padding, are checked too: a nonzero pad byte is a typed
//! `Decode` error naming its chunk.
//!
//! The engine-spec JSON (the `--spec` file format) gets the same
//! treatment at the end of the file; the raw CONFIG-chunk payload's
//! battery sits beside `decode_config` in `crates/core/src/artifact.rs`.

use fp8_ptq::artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
use fp8_ptq::core::artifact::TAG_GRAPH;
use fp8_ptq::core::config::QuantConfig;
use fp8_ptq::core::{CalibrationHook, EngineSpec, PtqArtifact, QuantizedModel};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::nn::{decode_graph, GraphBuilder, PtqError, UnwrapOk};
use fp8_ptq::tensor::TensorRng;

/// A small but representative artifact: FP8-stored weights (QWEIGHTS code
/// blob), per-channel scales, static activation scales, and SmoothQuant
/// divisors all populated.
fn fp8_artifact_bytes() -> Vec<u8> {
    let mut rng = TensorRng::seed(11);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w1 = b.param(rng.kaiming(&[6, 5]));
    let h = b.linear(x, w1, None);
    let h = b.relu(h);
    let w2 = b.param(rng.kaiming(&[3, 6]));
    let y = b.linear(h, w2, None);
    let g = b.finish(vec![y]);
    let calib_x = TensorRng::seed(12).normal(&[4, 5], 0.0, 1.0);
    let mut hook = CalibrationHook::new();
    g.run(&[calib_x], &mut hook).unwrap_ok();
    let cfg = QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(0.5);
    let model = QuantizedModel::build(g, &hook.into_data(), cfg).unwrap_ok();
    model.artifact_bytes()
}

/// An INT8-recipe artifact: dense f32 WEIGHTS and ACT_INT8 codecs
/// populated (the chunks the FP8 fixture leaves empty).
fn int8_artifact_bytes() -> Vec<u8> {
    let mut rng = TensorRng::seed(21);
    let mut b = GraphBuilder::new();
    let x = b.input();
    let w1 = b.param(rng.kaiming(&[4, 7]));
    let y = b.linear(x, w1, None);
    let g = b.finish(vec![y]);
    let calib_x = TensorRng::seed(22).normal(&[3, 7], 0.0, 1.0);
    let mut hook = CalibrationHook::new();
    g.run(&[calib_x], &mut hook).unwrap_ok();
    let model = QuantizedModel::build(g, &hook.into_data(), QuantConfig::int8()).unwrap_ok();
    model.artifact_bytes()
}

/// Flip one byte and parse: either a typed error or a model that
/// re-encodes to the pristine bytes.
fn assert_flip_safe(pristine: &[u8], i: usize, delta: u8) {
    let mut bad = pristine.to_vec();
    bad[i] ^= delta;
    match PtqArtifact::from_bytes(bad) {
        Err(_) => {} // typed rejection: the common case
        Ok(art) => {
            assert_eq!(
                art.to_bytes(),
                pristine,
                "byte {i} flip parsed but decoded a different model"
            );
        }
    }
}

#[test]
fn every_byte_flip_is_typed_or_content_identical_fp8() {
    let bytes = fp8_artifact_bytes();
    assert!(
        PtqArtifact::from_bytes(bytes.clone()).is_ok(),
        "pristine artifact must parse"
    );
    for i in 0..bytes.len() {
        assert_flip_safe(&bytes, i, 0x5A);
        assert_flip_safe(&bytes, i, 0xFF);
    }
}

#[test]
fn every_byte_flip_is_typed_or_content_identical_int8() {
    let bytes = int8_artifact_bytes();
    assert!(PtqArtifact::from_bytes(bytes.clone()).is_ok());
    for i in 0..bytes.len() {
        assert_flip_safe(&bytes, i, 0x01);
    }
}

/// Set each padding byte of `pristine` in turn: every one is refused
/// with a `Decode` error that names the padded chunk.
fn assert_padding_enforced(pristine: &[u8]) {
    let reader = ArtifactReader::from_vec(pristine.to_vec()).expect("pristine container");
    let mut pads = 0;
    for c in reader.chunks() {
        let end = c.offset + c.len;
        for i in end..end.div_ceil(8) * 8 {
            for value in [0x01, 0xAB, 0xFF] {
                let mut bad = pristine.to_vec();
                bad[i] = value;
                match PtqArtifact::from_bytes(bad) {
                    Err(PtqError::Artifact(ArtifactError::Decode { detail })) => assert_eq!(
                        detail,
                        format!("chunk {:#x} padding is not zero", c.tag),
                        "pad byte {i}"
                    ),
                    Err(other) => panic!("pad byte {i} = {value:#x}: unexpected {other}"),
                    Ok(_) => panic!("pad byte {i} = {value:#x} parsed"),
                }
                pads += 1;
            }
        }
    }
    assert!(pads > 0, "the fixture has no padding to attack");
}

#[test]
fn nonzero_padding_is_a_typed_error_naming_the_chunk() {
    assert_padding_enforced(&fp8_artifact_bytes());
    assert_padding_enforced(&int8_artifact_bytes());
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = fp8_artifact_bytes();
    for len in 0..bytes.len() {
        let err = PtqArtifact::from_bytes(bytes[..len].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes parsed successfully"));
        assert!(
            matches!(err, PtqError::Artifact(_)),
            "truncation to {len}: unexpected error class {err}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected_by_name() {
    let mut bytes = fp8_artifact_bytes();
    bytes.extend_from_slice(&[0xAB; 7]);
    let err = PtqArtifact::from_bytes(bytes).unwrap_err();
    match err {
        PtqError::Artifact(ArtifactError::TrailingGarbage { bytes }) => assert_eq!(bytes, 7),
        other => panic!("expected TrailingGarbage, got {other}"),
    }
}

#[test]
fn bad_magic_is_rejected_by_name() {
    let mut bytes = fp8_artifact_bytes();
    bytes[0] ^= 0x20;
    let err = PtqArtifact::from_bytes(bytes).unwrap_err();
    assert!(
        matches!(err, PtqError::Artifact(ArtifactError::BadMagic)),
        "expected BadMagic, got {err}"
    );
}

#[test]
fn future_version_is_rejected_with_a_clear_message() {
    let mut bytes = fp8_artifact_bytes();
    // Header layout: 8-byte magic, then the u32 version.
    let v = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    bytes[8..12].copy_from_slice(&(v + 1).to_le_bytes());
    let err = PtqArtifact::from_bytes(bytes).unwrap_err();
    match err {
        PtqError::Artifact(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, v + 1);
            assert_eq!(supported, v);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
    // The message tells the operator what to do.
    let msg = PtqArtifact::from_bytes({
        let mut b = fp8_artifact_bytes();
        b[8..12].copy_from_slice(&(v + 1).to_le_bytes());
        b
    })
    .unwrap_err()
    .to_string();
    assert!(msg.contains("version"), "unhelpful message: {msg}");
}

#[test]
fn chunk_length_field_corruption_is_typed() {
    let bytes = fp8_artifact_bytes();
    // The first chunk header sits right after the 16-byte container
    // header: tag u32, crc u32, then the u64 length at offset 24.
    for delta in [1u64, 1 << 32, u64::MAX / 2] {
        let mut bad = bytes.clone();
        let len = u64::from_le_bytes(bad[24..32].try_into().unwrap());
        bad[24..32].copy_from_slice(&len.wrapping_add(delta).to_le_bytes());
        let err = PtqArtifact::from_bytes(bad).unwrap_err();
        assert!(
            matches!(err, PtqError::Artifact(_)),
            "length += {delta}: unexpected error class {err}"
        );
    }
}

#[test]
fn payload_body_corruption_fails_the_checksum() {
    let bytes = fp8_artifact_bytes();
    // Flip a byte in the middle of the first chunk payload (offset 32 is
    // the first payload byte; the GRAPH chunk is comfortably larger).
    let mut bad = bytes.clone();
    bad[40] ^= 0x80;
    let err = PtqArtifact::from_bytes(bad).unwrap_err();
    assert!(
        matches!(
            err,
            PtqError::Artifact(ArtifactError::ChecksumMismatch { .. })
        ),
        "expected ChecksumMismatch, got {err}"
    );
}

#[test]
fn missing_chunks_are_reported_not_defaulted() {
    // A structurally valid container with no chunks at all parses at the
    // container level but must fail model decoding with MissingChunk —
    // an artifact without a graph is not an empty model.
    let empty = ArtifactWriter::new().finish();
    let err = PtqArtifact::from_bytes(empty).unwrap_err();
    assert!(
        matches!(err, PtqError::Artifact(ArtifactError::MissingChunk { .. })),
        "expected MissingChunk, got {err}"
    );
}

/// The committed v4 fixture with its GRAPH payload's `n_values` replaced
/// by `f(n_values)`, every chunk rewritten through `ArtifactWriter` so each
/// CRC is valid: only the graph decoder stands between the bytes and the
/// loader's per-value tables.
fn golden_with_n_values(f: impl Fn(usize) -> usize) -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/quantized_e4m3_v4.ptq"
    );
    let reader = ArtifactReader::from_vec(std::fs::read(path).unwrap()).unwrap();
    let mut w = ArtifactWriter::new();
    for c in reader.chunks() {
        let mut payload = reader.chunk(c.tag).unwrap().to_vec();
        if c.tag == TAG_GRAPH {
            // `n_values` is written right before the parameter count.
            let g = decode_graph(&payload).unwrap();
            let (n, params) = (g.n_values() as u64, g.params().count() as u64);
            let field = [n.to_le_bytes(), params.to_le_bytes()].concat();
            let at: Vec<usize> = (0..payload.len() - 15)
                .filter(|&i| payload[i..i + 16] == field[..])
                .collect();
            assert_eq!(at.len(), 1, "n_values field not found once");
            let v = f(n as usize) as u64;
            payload[at[0]..at[0] + 8].copy_from_slice(&v.to_le_bytes());
        }
        w.chunk(c.tag, payload);
    }
    w.finish()
}

#[test]
fn a_hostile_n_values_behind_a_valid_crc_is_a_typed_error() {
    assert!(PtqArtifact::from_bytes(golden_with_n_values(|n| n)).is_ok());
    // High bytes set (a count validation would once allocate per value),
    // one more value than the graph defines, and one fewer than its ids
    // reference.
    let high = |n: usize| n | 0x7f7f_7f7f << 32;
    let cases: [(&str, &dyn Fn(usize) -> usize); 3] = [
        ("high bytes", &high),
        ("one above the defined values", &|n| n + 1),
        ("an id past n_values", &|n| n - 1),
    ];
    for (what, f) in cases {
        let err = PtqArtifact::from_bytes(golden_with_n_values(f)).unwrap_err();
        assert!(
            matches!(err, PtqError::Artifact(ArtifactError::Decode { .. })),
            "{what}: expected a Decode error, got {err}"
        );
    }
}

/// The all-knobs-non-default spec, as its canonical JSON text.
const SPEC_JSON: &str = include_str!("golden/engine_spec_all_knobs.json");

/// Parse a (possibly damaged) spec text: a typed error, or a spec whose
/// parameters are in range and whose rendering is a fixed point of
/// parse → render.
fn assert_spec_text_safe(text: &str) {
    let Ok(spec) = EngineSpec::from_json(text) else {
        return; // typed rejection: the common case
    };
    spec.config.validate().unwrap_ok();
    let canonical = spec.to_json();
    let reparsed = EngineSpec::from_json(&canonical).unwrap_ok();
    assert_eq!(reparsed, spec, "{text}");
    assert_eq!(reparsed.to_json(), canonical, "{text}");
}

#[test]
fn every_truncation_of_the_spec_json_is_a_typed_error() {
    assert!(SPEC_JSON.is_ascii());
    for len in 0..SPEC_JSON.len() {
        let err = EngineSpec::from_json(&SPEC_JSON[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes parsed successfully"));
        assert!(
            matches!(err, PtqError::InvalidTarget { .. }),
            "truncation to {len}: unexpected error class {err}"
        );
    }
}

#[test]
fn every_byte_substitution_in_the_spec_json_is_typed_or_canonical() {
    assert_spec_text_safe(SPEC_JSON);
    let mut text = SPEC_JSON.as_bytes().to_vec();
    for i in 0..text.len() {
        let original = text[i];
        // Every value that keeps the text a `&str`; `from_json` cannot be
        // handed anything else.
        for b in 0..=0x7F {
            text[i] = b;
            assert_spec_text_safe(std::str::from_utf8(&text).expect("ASCII"));
        }
        text[i] = original;
    }
}
