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
//! Below the CRCs, every byte of every chunk payload is flipped and the
//! container rebuilt with valid checksums: each such file is a typed load
//! error or a model whose planned forward returns `Ok` or a typed error.
//!
//! The engine-spec JSON (the `--spec` file format) gets the same
//! treatment at the end of the file; the raw CONFIG-chunk payload's
//! battery sits beside `decode_config` in `crates/core/src/artifact.rs`.

use fp8_ptq::artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
use fp8_ptq::core::artifact::{TAG_GRAPH, TAG_QWEIGHTS};
use fp8_ptq::core::config::QuantConfig;
use fp8_ptq::core::{CalibrationHook, EngineSpec, PtqArtifact, QuantizedModel, TensorKey};
use fp8_ptq::fp8::{CodeBytes, Fp8Format, StoredScales};
use fp8_ptq::nn::{decode_graph, GraphBuilder, PtqError, UnwrapOk};
use fp8_ptq::tensor::{QTensor, Tensor, TensorRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small but representative model: FP8-stored weights (QWEIGHTS code
/// blob), per-channel scales, static activation scales, and SmoothQuant
/// divisors all populated. Input `[_, 5]`.
fn fp8_model() -> QuantizedModel {
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
    QuantizedModel::build(g, &hook.into_data(), cfg).unwrap_ok()
}

/// [`fp8_model`] as artifact bytes.
fn fp8_artifact_bytes() -> Vec<u8> {
    fp8_model().artifact_bytes()
}

/// An INT8-recipe artifact: dense f32 WEIGHTS and ACT_INT8 codecs
/// populated (the chunks the FP8 fixture leaves empty). Input `[_, 7]`.
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

/// The `(tag, payload)` chunks of a valid container, in file order.
fn chunks_of(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let reader = ArtifactReader::from_vec(bytes.to_vec()).unwrap();
    let chunk = |tag| reader.chunk(tag).unwrap().to_vec();
    reader
        .chunks()
        .iter()
        .map(|c| (c.tag, chunk(c.tag)))
        .collect()
}

/// `chunks` as a container, every chunk written through `ArtifactWriter`
/// so each CRC is valid: only the payload decoders stand between the
/// bytes and the model.
fn rebuild(chunks: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    for (tag, payload) in chunks {
        w.chunk(*tag, payload.clone());
    }
    w.finish()
}

/// `bytes` with chunk `tag`'s payload passed through `edit`, CRCs valid.
fn with_payload(bytes: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut chunks = chunks_of(bytes);
    let (_, payload) = chunks.iter_mut().find(|(t, _)| *t == tag).unwrap();
    edit(payload);
    rebuild(&chunks)
}

/// The committed v5 fixture with its GRAPH payload's `n_values` replaced
/// by `f(n_values)`, CRCs valid: only the graph decoder stands between the
/// bytes and the loader's per-value tables.
fn golden_with_n_values(f: impl Fn(usize) -> usize) -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/quantized_e4m3_v5.ptq"
    );
    with_payload(&std::fs::read(path).unwrap(), TAG_GRAPH, |payload| {
        // `n_values` is written right before the parameter count.
        let g = decode_graph(payload).unwrap();
        let (n, params) = (g.n_values() as u64, g.params().count() as u64);
        let field = [n.to_le_bytes(), params.to_le_bytes()].concat();
        let at: Vec<usize> = (0..payload.len() - 15)
            .filter(|&i| payload[i..i + 16] == field[..])
            .collect();
        assert_eq!(at.len(), 1, "n_values field not found once");
        let v = f(n as usize) as u64;
        payload[at[0]..at[0] + 8].copy_from_slice(&v.to_le_bytes());
    })
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

fn assert_decode_error(bytes: Vec<u8>, what: &str) {
    match PtqArtifact::from_bytes(bytes) {
        Err(PtqError::Artifact(ArtifactError::Decode { .. })) => {}
        Err(other) => panic!("{what}: expected a Decode error, got {other}"),
        Ok(_) => panic!("{what}: loaded"),
    }
}

#[test]
fn keys_that_do_not_fit_the_graph_are_typed_errors() {
    // The first QWEIGHTS entry's value id, one bit off: it no longer names
    // the Linear's weight, which would run the graph's f32 weight instead.
    let flipped = with_payload(&fp8_artifact_bytes(), TAG_QWEIGHTS, |p| p[16] ^= 0x01);
    assert_decode_error(flipped, "qweights value id flip");
    // The first Linear's weight transposed to [5, 6]: 30 codes and five
    // per-channel scales make a valid QTensor, but not that Linear's.
    let mut model = fp8_model();
    let (&vid, q) = model
        .qweights
        .iter()
        .find(|(_, q)| q.shape() == [6, 5])
        .unwrap();
    let codes = CodeBytes::from(q.codes().to_vec());
    let scales = StoredScales::PerChannel(vec![1.0; 5]);
    let transposed = QTensor::from_raw_parts(q.format(), vec![5, 6], codes, scales).unwrap();
    model.qweights.insert(vid, transposed);
    assert_decode_error(model.artifact_bytes(), "transposed qweight");
    // Activation keys past the node list or the node's inputs (node 0 is a
    // Linear: one input), and divisors for a node the graph lacks.
    let mut act_node = fp8_model();
    act_node
        .act_scales
        .insert(TensorKey { node: 99, input: 0 }, 1.0);
    let mut act_input = fp8_model();
    act_input
        .act_scales
        .insert(TensorKey { node: 0, input: 1 }, 1.0);
    let mut smooth = fp8_model();
    smooth.smooth.insert(99, vec![1.0; 5]);
    for (what, model) in [
        ("act scale of node 99", act_node),
        ("act scale of input 1", act_input),
        ("smooth divisors of node 99", smooth),
    ] {
        assert_decode_error(model.artifact_bytes(), what);
    }
}

/// Load `bytes` and, when that succeeds, run the planned forward on `x`.
/// Either may fail with an error; neither may panic.
fn load_and_forward(bytes: Vec<u8>, x: &Tensor) {
    if let Ok(art) = PtqArtifact::from_bytes(bytes) {
        let m = &art.model;
        let _ = m
            .plans
            .run(&m.graph, std::slice::from_ref(x), &mut m.hook());
    }
}

#[test]
fn every_payload_byte_flip_behind_a_valid_crc_loads_or_fails_typed() {
    let fixtures = [(fp8_artifact_bytes(), 5), (int8_artifact_bytes(), 7)];
    let mut panics = Vec::new();
    for (bytes, width) in fixtures {
        let x = TensorRng::seed(5).normal(&[2, width], 0.0, 1.0);
        let pristine = chunks_of(&bytes);
        for (c, (tag, payload)) in pristine.iter().enumerate() {
            for i in 0..payload.len() {
                for delta in [0x01, 0x80, 0xFF] {
                    let mut chunks = pristine.clone();
                    chunks[c].1[i] ^= delta;
                    let file = rebuild(&chunks);
                    if catch_unwind(AssertUnwindSafe(|| load_and_forward(file, &x))).is_err() {
                        panics.push(format!("width {width} chunk {tag} byte {i} ^ {delta:#04x}"));
                    }
                }
            }
        }
    }
    assert!(panics.is_empty(), "{} panics: {panics:?}", panics.len());
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
