//! Versioned on-disk PTQ artifacts: quantize once, reload bit-identically.
//!
//! A [`PtqArtifact`] is everything [`QuantizedModel`] needs to execute —
//! the graph with its f32 and FP8-stored parameters, the recipe, static
//! activation scales/codecs, SmoothQuant divisors — plus the calibration
//! thresholds the scales were frozen from, packed into the chunked
//! container format of the `ptq-artifact` crate (magic/version header,
//! per-chunk CRC32, 8-byte-aligned payloads). Each weight is stored once:
//! GRAPH carries the f32 parameters (fake-quantized weights included),
//! QWEIGHTS the FP8-stored ones. CONFIG is the [`EngineSpec`] as the text
//! of a `--spec` file: the recipe has one wire form.
//!
//! Three properties the encoding is built around:
//!
//! * **Bit identity.** Every float is written as its IEEE-754 bit pattern
//!   (CONFIG's numbers as JSON text that parses back to the same value),
//!   and every map is serialized in sorted key order, so `save → load`
//!   reproduces the in-memory model exactly and `save → load → save`
//!   reproduces the artifact *bytes* exactly (enforced in
//!   `tests/artifact_roundtrip.rs`).
//! * **Zero-copy weight codes.** The QWEIGHTS chunk separates per-tensor
//!   metadata from one contiguous code blob; on load each [`QTensor`]'s
//!   codes become a [`CodeBytes`] window into the artifact's shared
//!   buffer (an `mmap` where the platform provides one) instead of a heap
//!   copy.
//! * **No panics, no silent corruption.** Container-level damage is caught
//!   by the CRCs; payload-level nonsense (out-of-order keys, shape/data
//!   disagreements, unknown discriminants, overlapping code windows)
//!   surfaces as a typed [`ArtifactError`] via the fully bounds-checked
//!   [`ByteReader`].
//!
//! Entry points: [`QuantizedModel::save`] / [`QuantizedModel::load`] for
//! the model alone, [`PtqArtifact::save`] / [`PtqArtifact::load`] when the
//! calibration thresholds ride along, and
//! [`crate::PtqSession::save_artifact`] for the full quantize-then-persist
//! pipeline.

use crate::calibrate::TensorKey;
use crate::quantizer::QuantizedModel;
use crate::spec::{EngineSpec, ServeSpec};
use ptq_artifact::{
    ArtifactError, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter, SharedBuf,
};
use ptq_fp8::{CodeBytes, Fp8Error, Int8Codec, Int8Mode, SharedBytes, StoredScales, WireEnum};
use ptq_nn::{decode_graph, encode_graph, Graph, NodeId, Param, PlanSet, PtqError, ValueId};
use ptq_tensor::QTensor;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Chunk tag: the serialized [`ptq_nn::Graph`] with its f32 parameters
/// (see `ptq_nn::serialize`).
pub const TAG_GRAPH: u32 = 1;
/// Chunk tag: the full [`EngineSpec`] — the recipe and the [`ServeSpec`]
/// serving section — as the UTF-8 bytes of [`EngineSpec::to_json`].
pub const TAG_CONFIG: u32 = 2;
/// Chunk tag: the set of node ids executing in low precision.
pub const TAG_QNODES: u32 = 3;
/// Chunk tag: the graph's FP8-stored parameters — metadata plus one
/// aligned code blob the loader borrows zero-copy. (Tag 4, the f32 weight
/// copies of container versions up to 5, is retired, not reused.)
pub const TAG_QWEIGHTS: u32 = 5;
/// Chunk tag: static FP8 activation scales per (node, input).
pub const TAG_ACT_SCALES: u32 = 6;
/// Chunk tag: static INT8 activation codecs per (node, input).
pub const TAG_ACT_INT8: u32 = 7;
/// Chunk tag: SmoothQuant per-input-channel divisors per node.
pub const TAG_SMOOTH: u32 = 8;
/// Chunk tag: calibration clip thresholds per (node, input).
pub const TAG_THRESHOLDS: u32 = 9;

/// A loaded (or about-to-be-saved) PTQ artifact: the quantized model plus
/// the calibration thresholds its static scales were derived from.
#[derive(Debug, Clone)]
pub struct PtqArtifact {
    /// The quantized model, executable as-is via [`QuantizedModel::hook`].
    pub model: QuantizedModel,
    /// Calibrated clip thresholds (`max_T` in the paper's scale rule) per
    /// activation input, as resolved under the recipe's
    /// [`CalibMethod`]. Informational alongside the frozen scales: kept so
    /// tooling can audit or re-derive scales without re-calibrating.
    pub thresholds: BTreeMap<TensorKey, f32>,
    /// The serving section of the [`crate::spec::EngineSpec`] the model
    /// was saved under: batching/deadline defaults for engines built from
    /// this artifact. Never affects arithmetic.
    pub serving: ServeSpec,
}

impl PtqArtifact {
    /// Serialize to the container byte format. Fails, as
    /// [`PtqArtifact::save`] does, on a spec [`EngineSpec::validate`]
    /// refuses.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PtqError> {
        Ok(build_writer(&self.model, &self.thresholds, &self.serving)?.finish())
    }

    /// Serialize and write to `path` (atomically, via a temp file +
    /// rename).
    pub fn save(&self, path: &Path) -> Result<(), PtqError> {
        Ok(build_writer(&self.model, &self.thresholds, &self.serving)?.write_to(path)?)
    }

    /// Parse an artifact from in-memory bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, PtqError> {
        decode_artifact(&ArtifactReader::from_vec(bytes)?)
    }

    /// Load an artifact from disk. The file is memory-mapped where the
    /// platform supports it and the loaded model's FP8 weight codes
    /// borrow from that mapping zero-copy.
    pub fn load(path: &Path) -> Result<Self, PtqError> {
        decode_artifact(&ArtifactReader::open(path)?)
    }
}

impl QuantizedModel {
    /// Persist this model as a versioned artifact at `path` (atomically,
    /// via a temp file + rename). The saved model reloads bit-identically
    /// with [`QuantizedModel::load`].
    pub fn save(&self, path: &Path) -> Result<(), PtqError> {
        Ok(build_writer(self, &BTreeMap::new(), &ServeSpec::default())?.write_to(path)?)
    }

    /// Serialize this model to the container byte format (no thresholds
    /// chunk content and default serving knobs; [`PtqArtifact::to_bytes`]
    /// includes both).
    pub fn artifact_bytes(&self) -> Result<Vec<u8>, PtqError> {
        Ok(build_writer(self, &BTreeMap::new(), &ServeSpec::default())?.finish())
    }

    /// Load a model saved with [`QuantizedModel::save`] (or extracted
    /// from any [`PtqArtifact`]). Plans start fresh; everything that
    /// affects arithmetic is bit-identical to the saved model.
    pub fn load(path: &Path) -> Result<QuantizedModel, PtqError> {
        Ok(PtqArtifact::load(path)?.model)
    }
}

/// Encode `model` (+ `thresholds` + `serving`) into a container writer,
/// ready to `finish()` into bytes or `write_to(path)` atomically. All eight
/// chunks are always present — empty maps encode as a zero count — so
/// every artifact has one canonical layout. A spec the loader would refuse
/// ([`EngineSpec::validate`]) is refused here, before anything is written.
pub(crate) fn build_writer(
    model: &QuantizedModel,
    thresholds: &BTreeMap<TensorKey, f32>,
    serving: &ServeSpec,
) -> Result<ArtifactWriter, PtqError> {
    let spec = EngineSpec {
        config: model.config.clone(),
        serving: serving.clone(),
    };
    spec.validate()?;
    let mut w = ArtifactWriter::new();
    w.chunk(TAG_GRAPH, encode_graph(&model.graph));
    w.chunk(TAG_CONFIG, spec.to_json().into_bytes());
    w.chunk(TAG_QNODES, encode_qnodes(&model.quantized_nodes));
    w.chunk(TAG_QWEIGHTS, encode_fp8_params(&model.graph));
    w.chunk(TAG_ACT_SCALES, encode_keyed_f32(&model.act_scales));
    w.chunk(TAG_ACT_INT8, encode_act_int8(&model.act_int8));
    w.chunk(TAG_SMOOTH, encode_smooth(&model.smooth));
    w.chunk(TAG_THRESHOLDS, encode_keyed_f32(thresholds));
    Ok(w)
}

/// Decode a full artifact out of an opened container.
pub(crate) fn decode_artifact(reader: &ArtifactReader) -> Result<PtqArtifact, PtqError> {
    let graph = decode_graph(reader.chunk(TAG_GRAPH)?, decode_fp8_params(reader)?)?;
    graph.validate_structure()?;
    let EngineSpec { config, serving } = read_spec(reader.chunk(TAG_CONFIG)?, graph.nodes().len())?;
    let quantized_nodes = decode_qnodes(reader.chunk(TAG_QNODES)?, graph.nodes().len())?;
    let act_scales = decode_keyed_f32(reader.chunk(TAG_ACT_SCALES)?, "act scale")?;
    let act_int8 = decode_act_int8(reader.chunk(TAG_ACT_INT8)?)?;
    let smooth = decode_smooth(reader.chunk(TAG_SMOOTH)?)?;
    let thresholds = decode_keyed_f32(reader.chunk(TAG_THRESHOLDS)?, "threshold")?;
    let model = QuantizedModel {
        graph,
        config,
        quantized_nodes,
        act_scales,
        act_int8,
        smooth,
        plans: PlanSet::new(),
    };
    check_keys(&model)?;
    Ok(PtqArtifact {
        model,
        thresholds,
        serving,
    })
}

// ---------------------------------------------------------------------
// Keys against the graph. The CRCs only vouch that the bytes are the
// writer's; this vouches that every keyed entry addresses the graph it
// ships with, so a hostile file is refused here instead of reaching a
// kernel's shape panic. (Weights need no key check: each is the graph's
// own parameter, and `validate_structure` has vetted where FP8 ones sit.)
// ---------------------------------------------------------------------

/// An activation key names a node and an input below its arity; a
/// SmoothQuant key names a node.
fn check_keys(m: &QuantizedModel) -> Result<(), ArtifactError> {
    let nodes = m.graph.nodes();
    let mut acts = m.act_scales.keys().chain(m.act_int8.keys());
    if let Some(k) = acts.find(|k| nodes.get(k.node).is_none_or(|n| k.input >= n.inputs.len())) {
        return Err(ArtifactError::Decode {
            detail: format!(
                "activation key (node {}, input {}) is not in the graph",
                k.node, k.input
            ),
        });
    }
    match m.smooth.keys().find(|&&n| n >= nodes.len()) {
        Some(n) => Err(ArtifactError::Decode {
            detail: format!("smooth divisors of node {n}: not in the graph"),
        }),
        None => Ok(()),
    }
}

fn fp8_err(e: Fp8Error) -> ArtifactError {
    ArtifactError::Decode {
        detail: e.to_string(),
    }
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------
// Enum discriminants (QWEIGHTS' format byte). A plain enum is written as
// one `u8`, its position in the enum's `WireEnum` list; an unknown value
// is a typed decode error, so a future variant forces a version bump
// instead of silently aliasing an old one.
// ---------------------------------------------------------------------

fn put_enum<E: WireEnum>(w: &mut ByteWriter, e: E) {
    w.put_u8(e.discriminant());
}

fn get_enum<E: WireEnum>(r: &mut ByteReader<'_>, what: &str) -> Result<E, ArtifactError> {
    let d = r.get_u8(what)?;
    E::from_discriminant(d).ok_or_else(|| unknown_discriminant(what, d))
}

fn unknown_discriminant(what: &str, d: u8) -> ArtifactError {
    ArtifactError::Decode {
        detail: format!("{what}: unknown discriminant {d}"),
    }
}

/// A strictly increasing id list (the canonical form of a `BTreeSet`).
fn put_id_set(w: &mut ByteWriter, ids: &BTreeSet<usize>) {
    w.put_usize(ids.len());
    for &id in ids {
        w.put_usize(id);
    }
}

fn get_id_set(r: &mut ByteReader<'_>, what: &str) -> Result<BTreeSet<usize>, ArtifactError> {
    let ids = get_sorted(r, what, 8, |r| Ok((r.get_usize(what)?, ())))?;
    Ok(ids.into_iter().map(|(id, ())| id).collect())
}

/// `count × entry` with strictly increasing keys: the one form every map
/// and set takes on the wire. Rejecting any other order is what makes an
/// artifact's encoding canonical (re-save is byte-identical). Each entry
/// takes at least `min_entry` bytes, which bounds the count — and the
/// reservation — by the bytes left.
fn get_sorted<'a, K: PartialOrd + Copy, V>(
    r: &mut ByteReader<'a>,
    what: &str,
    min_entry: usize,
    mut entry: impl FnMut(&mut ByteReader<'a>) -> Result<(K, V), ArtifactError>,
) -> Result<Vec<(K, V)>, ArtifactError> {
    let count = r.get_count_of(what, min_entry)?;
    let mut out: Vec<(K, V)> = Vec::with_capacity(count);
    for _ in 0..count {
        let (key, value) = entry(r)?;
        if out.last().is_some_and(|(prev, _)| *prev >= key) {
            return Err(ArtifactError::Decode {
                detail: format!("{what}: keys out of order"),
            });
        }
        out.push((key, value));
    }
    Ok(out)
}

/// CONFIG bytes: twice the widest canonical text less its fallback ids; the most one id adds.
const CONFIG_BYTES: (usize, usize) = (2048, 28);

/// The CONFIG chunk: the spec's `--spec` text, accepted only as the exact
/// text [`EngineSpec::to_json`] renders for what it parses to, so a file
/// that opens is the writer's canonical image (re-save is byte-identical).
/// A payload longer than any canonical text for a graph of `n_nodes`, or
/// not opening as one does, is refused before it is parsed.
fn read_spec(payload: &[u8], n_nodes: usize) -> Result<EngineSpec, ArtifactError> {
    let config_err = |detail: String| ArtifactError::Decode {
        detail: format!("config: {detail}"),
    };
    let (len, bound) = (payload.len(), CONFIG_BYTES.0 + CONFIG_BYTES.1 * n_nodes);
    if len > bound || !payload.starts_with(b"{\n  \"quantization\": {\n") {
        return Err(config_err(format!(
            "{len} bytes: no canonical text (max {bound})"
        )));
    }
    let text = std::str::from_utf8(payload).map_err(|e| config_err(e.to_string()))?;
    let spec = EngineSpec::from_json(text).map_err(|e| config_err(e.to_string()))?;
    if spec.to_json() != text {
        return Err(config_err("not the canonical spec text".to_string()));
    }
    Ok(spec)
}

// ---------------------------------------------------------------------
// QNODES chunk: sorted node ids.
// ---------------------------------------------------------------------

fn encode_qnodes(nodes: &BTreeSet<NodeId>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_id_set(&mut w, nodes);
    w.finish()
}

fn decode_qnodes(payload: &[u8], n_nodes: usize) -> Result<BTreeSet<NodeId>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let out = get_id_set(&mut r, "quantized node ids")?;
    // Strictly increasing, so the last id bounds them all.
    if let Some(&n) = out.last().filter(|&&n| n >= n_nodes) {
        return Err(ArtifactError::Decode {
            detail: format!("quantized node id {n} out of range (graph has {n_nodes} nodes)"),
        });
    }
    r.expect_end()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// QWEIGHTS chunk: the graph's FP8-stored parameters. Per-tensor metadata
// up front, one contiguous code blob at an 8-aligned offset behind it.
// The blob is the zero-copy region: the loader hands each QTensor a
// `CodeBytes` window into the artifact's shared buffer instead of copying
// codes to the heap, and binds it to the graph under its value id.
//
//   u64 blob_start            payload-relative, 8-aligned
//   u64 count
//   count × {
//     u64 value id            strictly increasing
//     u8  fp8 format
//     usize_slice shape
//     u8  scale kind          0 = per-tensor (f32), 1 = per-channel (f32s)
//     u64 codes offset        blob-relative; windows are contiguous
//     u64 codes length
//   }
//   zero padding to blob_start
//   blob                      raw FP8 codes, back to back
// ---------------------------------------------------------------------

fn encode_fp8_params(graph: &Graph) -> Vec<u8> {
    let fp8 = graph.params().filter_map(|(vid, p)| match p {
        Param::Fp8(q) => Some((vid, q)),
        Param::F32(_) => None,
    });
    let mut params: Vec<(ValueId, &QTensor)> = fp8.collect();
    params.sort_unstable_by_key(|&(vid, _)| vid);
    let mut meta = ByteWriter::new();
    meta.put_usize(params.len());
    let mut blob: Vec<u8> = Vec::new();
    for (vid, q) in params {
        meta.put_usize(vid);
        put_enum(&mut meta, q.format());
        meta.put_usize_slice(q.shape());
        match q.scales() {
            StoredScales::PerTensor(s) => {
                meta.put_u8(0);
                meta.put_f32(*s);
            }
            StoredScales::PerChannel(v) => {
                meta.put_u8(1);
                meta.put_f32_slice(v);
            }
        }
        meta.put_usize(blob.len());
        meta.put_usize(q.codes().len());
        blob.extend_from_slice(q.codes());
    }
    let meta = meta.finish();
    let blob_start = align8(8 + meta.len());
    let mut w = ByteWriter::new();
    w.put_usize(blob_start);
    w.put_bytes(&meta);
    for _ in (8 + meta.len())..blob_start {
        w.put_u8(0);
    }
    w.put_bytes(&blob);
    w.finish()
}

/// The QWEIGHTS chunk's tensors by value id, in id order; `decode_graph`
/// binds them beside GRAPH's f32 parameters.
fn decode_fp8_params(reader: &ArtifactReader) -> Result<Vec<(ValueId, QTensor)>, ArtifactError> {
    let range = reader.chunk_range(TAG_QWEIGHTS)?;
    let payload = reader.chunk(TAG_QWEIGHTS)?;
    let shared: SharedBytes = Arc::<SharedBuf>::clone(reader.shared_buf());
    let mut r = ByteReader::new(payload);
    let blob_start = r.get_usize("fp8 weights blob start")?;
    if blob_start > payload.len() || blob_start % 8 != 0 {
        return Err(ArtifactError::Decode {
            detail: format!(
                "fp8 weights blob start {blob_start} invalid for a {}-byte payload",
                payload.len()
            ),
        });
    }
    let blob_len = payload.len() - blob_start;
    let mut next_off = 0usize;
    // id, format, shape count, scale kind, one f32 scale, offset, length.
    let params = get_sorted(&mut r, "fp8 weights", 8 + 1 + 8 + 1 + 4 + 8 + 8, |r| {
        let vid = r.get_usize("fp8 weights value id")?;
        let format = get_enum(r, "fp8 weights format")?;
        let shape = r.get_usize_vec("fp8 weights shape")?;
        let scales = match r.get_u8("fp8 weights scale kind")? {
            0 => StoredScales::PerTensor(r.get_f32("fp8 weights scale")?),
            1 => StoredScales::PerChannel(r.get_f32_vec("fp8 weights scales")?),
            d => return Err(unknown_discriminant("fp8 weights scale kind", d)),
        };
        let codes_off = r.get_usize("fp8 weights codes offset")?;
        let codes_len = r.get_usize("fp8 weights codes length")?;
        // The blob must be packed exactly: each window starts where the
        // previous one ended, so no byte is shared, skipped, or counted
        // twice. That makes the encoding canonical (re-save is
        // byte-identical) and rules out aliased code windows.
        if codes_off != next_off {
            return Err(ArtifactError::Decode {
                detail: format!(
                    "fp8 weights {vid}: codes offset {codes_off} breaks blob contiguity \
                     (expected {next_off})"
                ),
            });
        }
        next_off = match codes_off.checked_add(codes_len) {
            Some(end) if end <= blob_len => end,
            _ => {
                return Err(ArtifactError::Decode {
                    detail: format!(
                        "fp8 weights {vid}: code window [{codes_off}, {codes_off}+{codes_len}) \
                         exceeds the {blob_len}-byte blob"
                    ),
                })
            }
        };
        let abs = range.offset + blob_start + codes_off;
        let codes =
            CodeBytes::from_shared(SharedBytes::clone(&shared), abs, codes_len).map_err(fp8_err)?;
        let q = QTensor::from_raw_parts(format, shape, codes, scales).map_err(fp8_err)?;
        Ok((vid, q))
    })?;
    let meta_end = r.position();
    if blob_start < meta_end {
        return Err(ArtifactError::Decode {
            detail: format!(
                "fp8 weights blob start {blob_start} overlaps {meta_end} bytes of metadata"
            ),
        });
    }
    if payload[meta_end..blob_start].iter().any(|&b| b != 0) {
        return Err(ArtifactError::Decode {
            detail: "fp8 weights metadata padding must be zero".to_string(),
        });
    }
    if next_off != blob_len {
        return Err(ArtifactError::Decode {
            detail: format!("fp8 weights blob has {blob_len} bytes but entries cover {next_off}"),
        });
    }
    Ok(params)
}

// ---------------------------------------------------------------------
// ACT_SCALES / THRESHOLDS chunks: sorted (node, input) → f32.
// ---------------------------------------------------------------------

fn encode_keyed_f32<'a>(entries: impl IntoIterator<Item = (&'a TensorKey, &'a f32)>) -> Vec<u8> {
    let mut entries: Vec<_> = entries.into_iter().collect();
    entries.sort_unstable_by_key(|&(key, _)| *key);
    let mut w = ByteWriter::new();
    w.put_usize(entries.len());
    for (key, &value) in entries {
        w.put_usize(key.node);
        w.put_usize(key.input);
        w.put_f32(value);
    }
    w.finish()
}

fn decode_keyed_f32<M: FromIterator<(TensorKey, f32)>>(
    payload: &[u8],
    what: &str,
) -> Result<M, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let out = get_sorted(&mut r, what, 8 + 8 + 4, |r| {
        Ok((get_tensor_key(r, what)?, r.get_f32(what)?))
    })?;
    r.expect_end()?;
    Ok(out.into_iter().collect())
}

fn get_tensor_key(r: &mut ByteReader<'_>, what: &str) -> Result<TensorKey, ArtifactError> {
    Ok(TensorKey {
        node: r.get_usize(what)?,
        input: r.get_usize(what)?,
    })
}

// ---------------------------------------------------------------------
// ACT_INT8 chunk: sorted (node, input) → Int8Codec.
// ---------------------------------------------------------------------

fn encode_act_int8(m: &HashMap<TensorKey, Int8Codec>) -> Vec<u8> {
    let mut keys: Vec<TensorKey> = m.keys().copied().collect();
    keys.sort_unstable();
    let mut w = ByteWriter::new();
    w.put_usize(keys.len());
    for key in keys {
        let c = &m[&key];
        w.put_usize(key.node);
        w.put_usize(key.input);
        w.put_u8(match c.mode() {
            Int8Mode::Symmetric => 0,
            Int8Mode::Asymmetric => 1,
        });
        w.put_f32(c.scale());
        w.put_u32(c.zero_point() as u32);
    }
    w.finish()
}

fn decode_act_int8(payload: &[u8]) -> Result<HashMap<TensorKey, Int8Codec>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    // Key, mode, scale, zero point.
    let out = get_sorted(&mut r, "int8 codecs", 8 + 8 + 1 + 4 + 4, |r| {
        let key = get_tensor_key(r, "int8 codec key")?;
        let mode = match r.get_u8("int8 codec mode")? {
            0 => Int8Mode::Symmetric,
            1 => Int8Mode::Asymmetric,
            d => return Err(unknown_discriminant("int8 codec mode", d)),
        };
        let scale = r.get_f32("int8 codec scale")?;
        let zero_point = r.get_u32("int8 codec zero point")? as i32;
        let codec = Int8Codec::from_raw_parts(mode, scale, zero_point).map_err(fp8_err)?;
        Ok((key, codec))
    })?;
    r.expect_end()?;
    Ok(out.into_iter().collect())
}

// ---------------------------------------------------------------------
// SMOOTH chunk: sorted node id → per-input-channel divisors.
// ---------------------------------------------------------------------

fn encode_smooth(m: &HashMap<NodeId, Vec<f32>>) -> Vec<u8> {
    let mut keys: Vec<NodeId> = m.keys().copied().collect();
    keys.sort_unstable();
    let mut w = ByteWriter::new();
    w.put_usize(keys.len());
    for node in keys {
        w.put_usize(node);
        w.put_f32_slice(&m[&node]);
    }
    w.finish()
}

fn decode_smooth(payload: &[u8]) -> Result<HashMap<NodeId, Vec<f32>>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    // Node id, divisor count.
    let out = get_sorted(&mut r, "smooth divisors", 8 + 8, |r| {
        Ok((
            r.get_usize("smooth node id")?,
            r.get_f32_vec("smooth divisors")?,
        ))
    })?;
    r.expect_end()?;
    Ok(out.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationHook;
    use crate::config::{
        ActGranularity, ActivationStorage, Approach, CalibMethod, Coverage, Granularity, KvStorage,
        QuantConfig, WeightStorage,
    };
    use crate::session::PtqSession;
    use ptq_fp8::Fp8Format;
    use ptq_models::{build_zoo, ZooFilter};
    use ptq_nn::UnwrapOk;

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ptq-core-artifact-{}-{name}", std::process::id()));
        p
    }

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

    fn fancy_serving() -> ServeSpec {
        ServeSpec {
            queue_capacity: 64,
            default_deadline_ms: Some(25),
            workers: 4,
        }
    }

    /// A two-Linear FP8 model, small enough to re-save per knob setting.
    fn small_model() -> QuantizedModel {
        let mut rng = ptq_tensor::TensorRng::seed(3);
        let mut b = ptq_nn::GraphBuilder::new();
        let x = b.input();
        let w1 = b.param(rng.kaiming(&[6, 5]));
        let h = b.linear(x, w1, None);
        let w2 = b.param(rng.kaiming(&[3, 6]));
        let y = b.linear(h, w2, None);
        let g = b.finish(vec![y]);
        let mut hook = CalibrationHook::new();
        let calib_x = ptq_tensor::TensorRng::seed(4).normal(&[4, 5], 0.0, 1.0);
        g.run(&[calib_x], &mut hook).unwrap_ok();
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        QuantizedModel::build(g, &hook.into_data(), cfg).unwrap_ok()
    }

    /// `bytes` with the CONFIG payload replaced by `payload`, every CRC
    /// recomputed.
    fn with_config(bytes: Vec<u8>, payload: &[u8]) -> Vec<u8> {
        let reader = ArtifactReader::from_vec(bytes).unwrap();
        let mut w = ArtifactWriter::new();
        for c in reader.chunks() {
            let body = match c.tag {
                TAG_CONFIG => payload.to_vec(),
                tag => reader.chunk(tag).unwrap().to_vec(),
            };
            w.chunk(c.tag, body);
        }
        w.finish()
    }

    #[test]
    fn config_roundtrips_every_knob() {
        let mut model = small_model();
        for cfg in [
            QuantConfig::fp8(Fp8Format::E5M2),
            QuantConfig::fp8(Fp8Format::E4M3),
            QuantConfig::fp8(Fp8Format::E3M4),
            QuantConfig::mixed_fp8(),
            QuantConfig::int8(),
            fancy_config(),
            all_knobs_spec().config,
        ] {
            for serving in [ServeSpec::default(), fancy_serving()] {
                model.config = cfg.clone();
                let art = PtqArtifact {
                    model: model.clone(),
                    thresholds: BTreeMap::new(),
                    serving: serving.clone(),
                };
                let bytes = art.to_bytes().unwrap();
                let back = PtqArtifact::from_bytes(bytes.clone()).unwrap();
                assert_eq!(back.model.config, cfg);
                assert_eq!(back.serving, serving);
                // Canonical: re-saving the loaded artifact is
                // byte-identical.
                assert_eq!(back.to_bytes().unwrap(), bytes);
            }
        }
    }

    /// Every knob away from its default — the spec
    /// `tests/golden/engine_spec_all_knobs.json` holds as JSON.
    fn all_knobs_spec() -> EngineSpec {
        let mut config = fancy_config().with_kv_storage(KvStorage::Fp8 {
            format: Fp8Format::E5M2,
        });
        config.weight_granularity = Granularity::PerTensor;
        EngineSpec {
            config,
            serving: fancy_serving(),
        }
    }

    #[test]
    fn the_config_payload_is_the_spec_json() {
        let spec = all_knobs_spec();
        let mut model = small_model();
        model.config = spec.config.clone();
        let art = PtqArtifact {
            model,
            thresholds: BTreeMap::new(),
            serving: spec.serving.clone(),
        };
        let reader = ArtifactReader::from_vec(art.to_bytes().unwrap()).unwrap();
        let pinned = include_str!("../../../tests/golden/engine_spec_all_knobs.json");
        assert_eq!(reader.chunk(TAG_CONFIG).unwrap(), pinned.as_bytes());
    }

    #[test]
    fn config_rejects_out_of_range_parameters() {
        // The writer refuses the recipe before writing anything ...
        for cfg in [
            QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(f64::NAN)),
            QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(99.99)),
            QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(-0.5),
            QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(f32::INFINITY),
        ] {
            let mut model = small_model();
            model.config = cfg.clone();
            assert!(
                matches!(model.artifact_bytes(), Err(PtqError::InvalidTarget { .. })),
                "{cfg:?} must not save"
            );
        }
        // ... and the reader refuses such a text behind a valid CRC (1e39
        // is an infinite f32).
        let bytes = small_model().artifact_bytes().unwrap();
        let canonical = EngineSpec::from_config(&QuantConfig::fp8(Fp8Format::E4M3)).to_json();
        for (from, to) in [
            (
                "\"calibration\": \"absmax\"",
                "\"calibration\": {\"percentile\": 99.99}",
            ),
            ("\"smoothquant_alpha\": null", "\"smoothquant_alpha\": -0.5"),
            ("\"smoothquant_alpha\": null", "\"smoothquant_alpha\": 1e39"),
        ] {
            assert!(canonical.contains(from), "{from}");
            let text = canonical.replace(from, to);
            assert!(
                matches!(
                    PtqArtifact::from_bytes(with_config(bytes.clone(), text.as_bytes())),
                    Err(PtqError::Artifact(ArtifactError::Decode { .. }))
                ),
                "{to} must not load"
            );
        }
    }

    #[test]
    fn serving_section_roundtrips_through_a_full_artifact() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let spec = EngineSpec::from_config(&QuantConfig::fp8(Fp8Format::E4M3))
            .with_serving(fancy_serving());
        let path = scratch("serving.ptq");
        PtqSession::from_spec(&spec)
            .save_artifact(w, &path)
            .unwrap_ok();
        let art = PtqArtifact::load(&path).unwrap();
        assert_eq!(art.serving, fancy_serving());
        // Re-save preserves the serving bytes exactly.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(art.to_bytes().unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
        // A serving section the loader would refuse is never written.
        let too_many = spec.with_serving(ServeSpec {
            workers: crate::spec::MAX_WORKERS + 1,
            ..fancy_serving()
        });
        let err = PtqSession::from_spec(&too_many)
            .save_artifact(w, &path)
            .unwrap_err();
        assert!(err.to_string().contains("serving.workers"), "{err}");
        assert!(!path.exists());
    }

    #[test]
    fn model_save_load_is_bit_identical_end_to_end() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
        let path = scratch("roundtrip.ptq");
        out.model.save(&path).unwrap();
        let loaded = QuantizedModel::load(&path).unwrap();
        // Same score, bit for bit, through the loaded model.
        let score = w.evaluate_graph(&loaded.graph, &loaded.hook()).unwrap_ok();
        assert_eq!(score.to_bits(), out.score.to_bits());
        // Saving the loaded model reproduces the artifact bytes exactly.
        assert_eq!(
            loaded.artifact_bytes().unwrap(),
            out.model.artifact_bytes().unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn loaded_fp8_codes_borrow_from_the_artifact_mapping() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
        let path = scratch("zerocopy.ptq");
        out.model.save(&path).unwrap();
        let loaded = QuantizedModel::load(&path).unwrap();
        let mut fp8 = 0;
        for (vid, p) in loaded.graph.params() {
            let Param::Fp8(q) = p else { continue };
            assert!(
                q.codes().is_shared(),
                "weight {vid} codes should borrow from the artifact buffer"
            );
            assert_eq!(Some(p), out.model.graph.param(vid));
            fp8 += 1;
        }
        assert!(fp8 > 0, "fixture must exercise FP8 weight storage");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_save_artifact_persists_thresholds() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let path = scratch("session.ptq");
        let out = PtqSession::new(cfg.clone())
            .save_artifact(w, &path)
            .unwrap_ok();
        let art = PtqArtifact::load(&path).unwrap();
        assert!(
            !art.thresholds.is_empty(),
            "calibrated thresholds must be persisted"
        );
        // Thresholds match a from-scratch calibration bit for bit.
        let calib = crate::workflow::calibrate_workload(w, &cfg).unwrap_ok();
        for (&key, &t) in &art.thresholds {
            let fresh = calib.threshold(key, &cfg).unwrap();
            assert_eq!(t.to_bits(), fresh.to_bits());
        }
        let score = w
            .evaluate_graph(&art.model.graph, &art.model.hook())
            .unwrap_ok();
        assert_eq!(score.to_bits(), out.score.to_bits());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn artifact_bytes_roundtrip_without_touching_disk() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[1];
        let mut hook = CalibrationHook::new();
        for batch in &w.calib {
            w.graph.run(batch, &mut hook).unwrap_ok();
        }
        let calib = hook.into_data();
        let cfg = QuantConfig::fp8(Fp8Format::E3M4);
        let model = QuantizedModel::build(w.graph.clone(), &calib, cfg).unwrap_ok();
        let bytes = model.artifact_bytes().unwrap();
        let art = PtqArtifact::from_bytes(bytes.clone()).unwrap();
        assert_eq!(art.to_bytes().unwrap(), bytes);
        assert_eq!(art.model.quantized_nodes, model.quantized_nodes);
        assert_eq!(art.model.act_scales, model.act_scales);
    }

    #[test]
    fn out_of_order_and_overlapping_payloads_are_rejected() {
        // Hand-build a QNODES payload with descending ids.
        let mut w = ByteWriter::new();
        w.put_usize(2);
        w.put_usize(5);
        w.put_usize(3);
        assert!(matches!(
            decode_qnodes(&w.finish(), 10),
            Err(ArtifactError::Decode { .. })
        ));
    }
}
