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
//! error or a model whose planned forward returns `Ok` or a typed error,
//! and loading it never holds more than a fixed multiple of the file's
//! length (a per-thread counting allocator measures the peak). An FP8
//! entry where no fused kernel reads one — a bias, a norm parameter, an
//! embedding table — is refused at load, never at run time.
//!
//! The engine-spec JSON (the `--spec` file format, and byte for byte the
//! CONFIG chunk's payload) gets the same treatment at the end of the file,
//! as text and as a CONFIG payload behind a valid CRC: a text that is not
//! exactly the canonical rendering of what it parses to does not load.

use fp8_ptq::artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
use fp8_ptq::core::artifact::{TAG_CONFIG, TAG_GRAPH, TAG_QWEIGHTS};
use fp8_ptq::core::config::QuantConfig;
use fp8_ptq::core::{CalibrationHook, EngineSpec, PtqArtifact, QuantizedModel, TensorKey};
use fp8_ptq::fp8::{CodeBytes, Fp8Format, StoredScales};
use fp8_ptq::nn::{GraphBuilder, Param, PtqError, UnwrapOk, ValueId};
use fp8_ptq::tensor::ops::Conv2dParams;
use fp8_ptq::tensor::{QTensor, Tensor, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// Bytes this thread has allocated and not freed (frees of memory
    /// another thread allocated count here too), and the high-water mark
    /// [`peak_bytes`] resets.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts live heap bytes per thread, so tests running in parallel do not
/// see each other's allocations.
struct PerThread;

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: forwards to the system allocator unchanged; the counters are
// const-initialized thread-locals without destructors, so counting never
// allocates.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

/// `f`'s result and the most heap it held on this thread at once beyond
/// what was live when it started (its result included).
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start).max(0) as usize)
}

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
    fp8_model().artifact_bytes().unwrap_ok()
}

/// An INT8-recipe artifact: fake-quantized f32 weights in GRAPH and
/// ACT_INT8 codecs populated (what the FP8 fixture leaves empty). Input
/// `[_, 7]`.
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
    model.artifact_bytes().unwrap_ok()
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
                art.to_bytes().unwrap_ok(),
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

/// The committed v7 fixture with its GRAPH payload's `n_values` replaced
/// by `f(n_values)`, CRCs valid: only the graph decoder stands between the
/// bytes and the loader's per-value tables.
fn golden_with_n_values(f: impl Fn(usize) -> usize) -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/quantized_e4m3_v7.ptq"
    );
    let bytes = std::fs::read(path).unwrap();
    let g = PtqArtifact::from_bytes(bytes.clone())
        .unwrap_ok()
        .model
        .graph;
    with_payload(&bytes, TAG_GRAPH, |payload| {
        // `n_values` is written right before the count of the f32
        // parameters GRAPH carries.
        let f32_params = g.params().filter(|(_, p)| p.as_f32().is_some());
        let (n, params) = (g.n_values() as u64, f32_params.count() as u64);
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
    // The first QWEIGHTS entry's value id, one bit off: it names the graph
    // input instead of the first Linear's weight, which GRAPH does not
    // carry (each weight is stored once), so that weight is unbound.
    let flipped = with_payload(&fp8_artifact_bytes(), TAG_QWEIGHTS, |p| p[16] ^= 0x01);
    match PtqArtifact::from_bytes(flipped) {
        Err(PtqError::UnboundParam { value: 1, .. }) => {}
        other => panic!("QWEIGHTS value id flip: expected weight 1 unbound, got {other:?}"),
    }
    // The first Linear's weight transposed to [5, 6]: 30 codes and five
    // per-channel scales make a valid QTensor, and, being the weight
    // itself, a model that loads; its forward is a typed shape error.
    let mut model = fp8_model();
    let (vid, q) = model
        .graph
        .params()
        .find_map(|(v, p)| match p {
            Param::Fp8(q) if q.shape() == [6, 5] => Some((v, q.clone())),
            _ => None,
        })
        .unwrap();
    let codes = CodeBytes::from(q.codes().to_vec());
    let scales = StoredScales::PerChannel(vec![1.0; 5]);
    let transposed = QTensor::from_raw_parts(q.format(), vec![5, 6], codes, scales).unwrap();
    model.graph.set_param(vid, transposed).unwrap_ok();
    let art = PtqArtifact::from_bytes(model.artifact_bytes().unwrap_ok()).unwrap_ok();
    let m = &art.model;
    let x = TensorRng::seed(5).normal(&[2, 5], 0.0, 1.0);
    let err = m.plans.run(&m.graph, &[x], &mut m.hook()).unwrap_err();
    assert!(
        matches!(err, PtqError::ShapeMismatch { .. }),
        "transposed qweight: {err}"
    );
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
        assert_decode_error(model.artifact_bytes().unwrap_ok(), what);
    }
}

/// Every parameter kind in one model: a biased conv, a depthwise conv, a
/// BatchNorm and a biased Linear on an NCHW input, an Embedding table and
/// a LayerNorm on token ids, quantized under `cfg`. Returns the model and
/// its parameter ids by name.
fn every_param_model(cfg: QuantConfig) -> (QuantizedModel, Vec<(&'static str, ValueId)>) {
    let mut rng = TensorRng::seed(31);
    let mut b = GraphBuilder::new();
    let (x, ids) = (b.input(), b.input());
    let conv_w = b.param(rng.kaiming(&[4, 3, 3, 3]));
    let conv_b = b.param(rng.normal(&[4], 0.0, 0.1));
    let c = b.conv2d(x, conv_w, Some(conv_b), Conv2dParams::same(3));
    let dw = b.param(rng.kaiming(&[4, 1, 3, 3]));
    let d = b.depthwise_conv2d(c, dw, None, Conv2dParams::same(3));
    let [gamma, beta, mean, var] = [1.0, 0.0, 0.0, 1.0].map(|v| b.param(Tensor::full(&[4], v)));
    let bn = b.batchnorm(d, gamma, beta, mean, var, 1e-5);
    let r = b.relu(bn);
    let pooled = b.global_avg_pool(r);
    let lin_w = b.param(rng.kaiming(&[5, 4]));
    let lin_b = b.param(rng.normal(&[5], 0.0, 0.1));
    let y = b.linear(pooled, lin_w, Some(lin_b));
    let table = b.param(rng.normal(&[7, 4], 0.0, 1.0));
    let e = b.embedding(ids, table);
    let [ln_g, ln_b] = [1.0, 0.0].map(|v| b.param(Tensor::full(&[4], v)));
    let ln = b.layernorm(e, ln_g, ln_b, 1e-5);
    let g = b.finish(vec![y, ln]);
    let mut hook = CalibrationHook::new();
    let inputs = [
        TensorRng::seed(32).normal(&[2, 3, 6, 6], 0.0, 1.0),
        Tensor::from_slice(&[1.0, 6.0, 3.0]),
    ];
    g.run(&inputs, &mut hook).unwrap_ok();
    let model = QuantizedModel::build(g, &hook.into_data(), cfg).unwrap_ok();
    let ids = vec![
        ("conv weight", conv_w),
        ("conv bias", conv_b),
        ("depthwise weight", dw),
        ("batchnorm gamma", gamma),
        ("batchnorm mean", mean),
        ("linear weight", lin_w),
        ("linear bias", lin_b),
        ("embedding table", table),
        ("layernorm gamma", ln_g),
        ("layernorm beta", ln_b),
    ];
    (model, ids)
}

#[test]
fn an_fp8_entry_no_fused_kernel_reads_is_a_typed_load_error() {
    // With the first and last layers, QWEIGHTS carries the three
    // conv/Linear weights.
    let (model, ids) = every_param_model(QuantConfig::fp8(Fp8Format::E4M3).with_first_last());
    let id = |name: &str| ids.iter().find(|(n, _)| *n == name).unwrap().1;
    let fp8 = |v: ValueId| matches!(model.graph.param(v), Some(Param::Fp8(_)));
    // Conv2d (depthwise too: its blocked kernel reads codes) and Linear
    // weights are FP8-stored, and the model loads and runs.
    for name in ["conv weight", "depthwise weight", "linear weight"] {
        assert!(fp8(id(name)), "{name} should be FP8-stored");
    }
    let art = PtqArtifact::from_bytes(model.artifact_bytes().unwrap_ok()).unwrap_ok();
    let inputs = [
        TensorRng::seed(33).normal(&[1, 3, 6, 6], 0.0, 1.0),
        Tensor::from_slice(&[4.0, 0.0]),
    ];
    art.model
        .graph
        .run(&inputs, &mut art.model.hook())
        .unwrap_ok();

    // The same parameter moved from GRAPH to QWEIGHTS: a consistent file
    // (each value stored once, CRCs valid) that binds FP8 codes where no
    // fused kernel reads them. Refused at load, naming the parameter.
    let misplaced = [
        "conv bias",
        "batchnorm gamma",
        "batchnorm mean",
        "linear bias",
        "embedding table",
        "layernorm gamma",
        "layernorm beta",
    ];
    for name in misplaced {
        let v = id(name);
        let mut bad = model.clone();
        let w = bad.graph.param(v).and_then(Param::as_f32).unwrap();
        let q = QTensor::quantize_per_channel(w, Fp8Format::E4M3).unwrap();
        bad.graph.set_param(v, q).unwrap_ok();
        match PtqArtifact::from_bytes(bad.artifact_bytes().unwrap_ok()) {
            Err(PtqError::Fp8Param { value, .. }) if value == v => {}
            other => panic!("FP8 {name}: expected a typed Fp8Param error, got {other:?}"),
        }
    }

    // With both convs (nodes 0 and 1) left in f32, QWEIGHTS carries one
    // entry, the Linear weight. Renamed, CRC recomputed, to a parameter
    // GRAPH carries as f32, it stores that value twice: a decode error,
    // whichever parameter it names.
    let cfg = QuantConfig::fp8(Fp8Format::E4M3)
        .with_first_last()
        .with_fallback(0)
        .with_fallback(1);
    let (linear_only, _) = every_param_model(cfg);
    let bytes = linear_only.artifact_bytes().unwrap_ok();
    for name in misplaced.iter().chain(&["conv weight", "depthwise weight"]) {
        let v = id(name) as u64;
        let renamed = with_payload(&bytes, TAG_QWEIGHTS, |p| {
            assert_eq!(p[8..16], 1u64.to_le_bytes(), "one QWEIGHTS entry");
            p[16..24].copy_from_slice(&v.to_le_bytes());
        });
        match PtqArtifact::from_bytes(renamed) {
            Err(PtqError::Artifact(ArtifactError::Decode { detail })) => {
                assert!(detail.contains("twice"), "{name}: {detail}")
            }
            other => panic!("QWEIGHTS entry renamed to {name}: got {other:?}"),
        }
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

/// Most heap `PtqArtifact::from_bytes` may hold at once, per byte of the
/// file it loads (the file itself not counted). The payload battery's
/// mutated files peak at 6.81× their length at most (QWEIGHTS byte 24 ^
/// 0x01: 8 828 bytes for a 1 296-byte file). Every count is bounded by the
/// bytes left at its entry's minimum wire size (a GRAPH node 33 bytes, a
/// QWEIGHTS entry 38, a keyed f32 20, ...), so the peak stays linear in
/// the file; a small file's fixed costs (maps, node names, the chunk table,
/// the CONFIG text's parse tree) weigh in.
const LOAD_PEAK_PER_FILE_BYTE: usize = 7;

#[test]
fn loading_any_payload_byte_flip_peaks_within_a_multiple_of_the_file() {
    let fixtures = [fp8_artifact_bytes(), int8_artifact_bytes()];
    let mut worst = (0.0f64, String::new());
    for bytes in fixtures {
        let pristine = chunks_of(&bytes);
        for (c, (tag, payload)) in pristine.iter().enumerate() {
            for i in 0..payload.len() {
                for delta in [0x01, 0x80, 0xFF] {
                    let mut chunks = pristine.clone();
                    chunks[c].1[i] ^= delta;
                    let file = rebuild(&chunks);
                    let len = file.len();
                    let (_, peak) = peak_bytes(|| PtqArtifact::from_bytes(file));
                    let ratio = peak as f64 / len as f64;
                    if ratio > worst.0 {
                        worst = (
                            ratio,
                            format!("chunk {tag} byte {i} ^ {delta:#04x}: {peak} of {len}"),
                        );
                    }
                }
            }
        }
    }
    assert!(
        worst.0 <= LOAD_PEAK_PER_FILE_BYTE as f64,
        "load peak {:.2}x the file, bound {LOAD_PEAK_PER_FILE_BYTE}x: {}",
        worst.0,
        worst.1
    );
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

/// Load `bytes`, which must fail with a `Decode` error naming the CONFIG
/// chunk.
fn assert_config_error(bytes: Vec<u8>, what: &str) {
    assert_config_error_result(PtqArtifact::from_bytes(bytes).map(drop), what)
}

/// A load result that must be a `Decode` error naming the CONFIG chunk.
fn assert_config_error_result(result: Result<(), PtqError>, what: &str) {
    match result {
        Err(PtqError::Artifact(ArtifactError::Decode { detail })) => {
            assert!(detail.starts_with("config: "), "{what}: {detail}")
        }
        Err(other) => panic!("{what}: expected a config Decode error, got {other}"),
        Ok(_) => panic!("{what}: loaded"),
    }
}

#[test]
fn a_config_that_is_not_the_canonical_spec_text_is_a_typed_error() {
    let bytes = fp8_artifact_bytes();
    let text = String::from_utf8(chunks_of(&bytes)[1].1.clone()).unwrap();
    assert_eq!(chunks_of(&bytes)[1].0, TAG_CONFIG);
    let spec = EngineSpec::from_json(&text).unwrap_ok();
    // Each edit parses to a valid spec: only canonicity refuses it.
    let swapped = text.replacen(
        "\"act_format\": \"E4M3\",\n    \"weight_format\": \"E4M3\"",
        "\"weight_format\": \"E4M3\",\n    \"act_format\": \"E4M3\"",
        1,
    );
    let dropped = text.replacen("\n    \"bn_calibration\": false,", "", 1);
    let edits = [
        ("whitespace added", format!("{text}\n")),
        ("two keys swapped", swapped),
        ("a defaultable key dropped", dropped),
    ];
    for (what, edited) in edits {
        assert_ne!(edited, text, "{what}: the edit must change the text");
        assert_eq!(EngineSpec::from_json(&edited).unwrap_ok(), spec, "{what}");
        assert_config_error(
            with_payload(&bytes, TAG_CONFIG, |p| *p = edited.into_bytes()),
            what,
        );
    }
    let non_utf8 = with_payload(&bytes, TAG_CONFIG, |p| p[0] = 0xFF);
    assert_config_error(non_utf8, "a non-UTF-8 byte");
}

/// A hostile CONFIG that would parse into a tree many times its size — an
/// array of 10 001 zeros, of 10 000 `{}`, of 10 000 `[]`, behind a valid
/// CRC (once 25× the file) — is refused before it is parsed: a typed
/// error, the load peak within [`LOAD_PEAK_PER_FILE_BYTE`] of the file.
#[test]
fn an_oversized_config_is_refused_before_it_is_parsed() {
    let bytes = fp8_artifact_bytes();
    let payloads = [("0", 10_001), ("{}", 10_000), ("[]", 10_000)];
    for (entry, n) in payloads {
        let text = format!("[{}]", vec![entry; n].join(","));
        let what = format!("{n} × {entry}");
        let file = with_payload(&bytes, TAG_CONFIG, |p| *p = text.into_bytes());
        let len = file.len();
        let (result, peak) = peak_bytes(|| PtqArtifact::from_bytes(file));
        assert_config_error_result(result.map(drop), &what);
        assert!(
            peak <= LOAD_PEAK_PER_FILE_BYTE * len,
            "{what}: load peak {peak} over {LOAD_PEAK_PER_FILE_BYTE}x the {len}-byte file"
        );
    }
}

#[test]
fn a_config_worker_count_past_the_bound_is_a_typed_error() {
    let bytes = fp8_artifact_bytes();
    let text = String::from_utf8(chunks_of(&bytes)[1].1.clone()).unwrap();
    for workers in [100_000, 1usize << 53, usize::MAX] {
        let edited = text.replacen("\"workers\": 0", &format!("\"workers\": {workers}"), 1);
        assert_ne!(edited, text);
        let file = with_payload(&bytes, TAG_CONFIG, |p| *p = edited.into_bytes());
        match PtqArtifact::from_bytes(file) {
            Err(PtqError::Artifact(ArtifactError::Decode { detail })) => {
                assert!(detail.contains("serving.workers"), "{workers}: {detail}")
            }
            other => panic!("{workers} workers: got {other:?}"),
        }
    }
}
