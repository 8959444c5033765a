//! Versioned on-disk PTQ artifacts: quantize once, reload bit-identically.
//!
//! A [`PtqArtifact`] is everything [`QuantizedModel`] needs to execute —
//! the graph with its f32 and FP8-stored parameters, the recipe, static
//! activation scales/codecs, SmoothQuant divisors — plus the calibration
//! thresholds the scales were frozen from, packed into the chunked
//! container format of the `ptq-artifact` crate (magic/version header,
//! per-chunk CRC32, 8-byte-aligned payloads). Each weight is stored once:
//! GRAPH carries the f32 parameters (fake-quantized weights included),
//! QWEIGHTS the FP8-stored ones.
//!
//! Three properties the encoding is built around:
//!
//! * **Bit identity.** Every float is written as its IEEE-754 bit pattern
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
//! [`crate::PtqSession::save_artifact`] /
//! [`crate::PtqSession::load_artifact`] for the full
//! quantize-then-persist pipeline.

use crate::calibrate::TensorKey;
use crate::config::{ActGranularity, CalibMethod, DataFormat, KvStorage, QuantConfig};
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
/// Chunk tag: the full [`EngineSpec`] — the [`QuantConfig`] recipe
/// followed by the [`ServeSpec`] serving section.
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
    /// Serialize to the container byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        build_writer(&self.model, &self.thresholds, &self.serving).finish()
    }

    /// Serialize and write to `path` (atomically, via a temp file +
    /// rename).
    pub fn save(&self, path: &Path) -> Result<(), PtqError> {
        Ok(build_writer(&self.model, &self.thresholds, &self.serving).write_to(path)?)
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
        Ok(build_writer(self, &BTreeMap::new(), &ServeSpec::default()).write_to(path)?)
    }

    /// Serialize this model to the container byte format (no thresholds
    /// chunk content and default serving knobs; [`PtqArtifact::to_bytes`]
    /// includes both).
    pub fn artifact_bytes(&self) -> Vec<u8> {
        build_writer(self, &BTreeMap::new(), &ServeSpec::default()).finish()
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
/// every artifact has one canonical layout.
pub(crate) fn build_writer(
    model: &QuantizedModel,
    thresholds: &BTreeMap<TensorKey, f32>,
    serving: &ServeSpec,
) -> ArtifactWriter {
    let mut w = ArtifactWriter::new();
    w.chunk(TAG_GRAPH, encode_graph(&model.graph));
    w.chunk(TAG_CONFIG, encode_config(&model.config, serving));
    w.chunk(TAG_QNODES, encode_qnodes(&model.quantized_nodes));
    w.chunk(TAG_QWEIGHTS, encode_fp8_params(&model.graph));
    w.chunk(TAG_ACT_SCALES, encode_keyed_f32(&model.act_scales));
    w.chunk(TAG_ACT_INT8, encode_act_int8(&model.act_int8));
    w.chunk(TAG_SMOOTH, encode_smooth(&model.smooth));
    w.chunk(TAG_THRESHOLDS, encode_keyed_f32(thresholds));
    w
}

/// Decode a full artifact out of an opened container.
pub(crate) fn decode_artifact(reader: &ArtifactReader) -> Result<PtqArtifact, PtqError> {
    let graph = decode_graph(reader.chunk(TAG_GRAPH)?, decode_fp8_params(reader)?)?;
    graph.validate_structure()?;
    let EngineSpec { config, serving } = decode_config(reader.chunk(TAG_CONFIG)?)?;
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
// Enum discriminants. A plain enum is written as one `u8`, its position
// in the enum's `WireEnum` list; an unknown value is a typed decode error,
// so a future variant forces a version bump instead of silently aliasing
// an old one. Data-carrying enums write a tag byte, then the payload.
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

fn put_data_format(w: &mut ByteWriter, f: DataFormat) {
    match f {
        DataFormat::Fp8(fmt) => {
            w.put_u8(0);
            put_enum(w, fmt);
        }
        DataFormat::Int8 => w.put_u8(1),
    }
}

fn get_data_format(r: &mut ByteReader<'_>, what: &str) -> Result<DataFormat, ArtifactError> {
    match r.get_u8(what)? {
        0 => Ok(DataFormat::Fp8(get_enum(r, what)?)),
        1 => Ok(DataFormat::Int8),
        d => Err(unknown_discriminant(what, d)),
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
    let ids = get_sorted(r, what, |r| Ok((r.get_usize(what)?, ())))?;
    Ok(ids.into_iter().map(|(id, ())| id).collect())
}

/// `count × entry` with strictly increasing keys: the one form every map
/// and set takes on the wire. Rejecting any other order is what makes an
/// artifact's encoding canonical (re-save is byte-identical).
fn get_sorted<'a, K: PartialOrd + Copy, V>(
    r: &mut ByteReader<'a>,
    what: &str,
    mut entry: impl FnMut(&mut ByteReader<'a>) -> Result<(K, V), ArtifactError>,
) -> Result<Vec<(K, V)>, ArtifactError> {
    let count = r.get_count(what)?;
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

// ---------------------------------------------------------------------
// CONFIG chunk: the EngineSpec — QuantConfig fields in declaration order,
// then the serving section. Layout frozen at container version 5; both
// halves are fixed-width per field, so any value re-encodes
// byte-identically and corruption is caught by the container CRC, by an
// unknown discriminant, or by `QuantConfig::validate`.
// ---------------------------------------------------------------------

fn encode_config(c: &QuantConfig, s: &ServeSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_data_format(&mut w, c.act_format);
    put_data_format(&mut w, c.weight_format);
    put_enum(&mut w, c.approach);
    put_enum(&mut w, c.coverage);
    put_enum(&mut w, c.weight_granularity);
    w.put_bool(c.quantize_first_last);
    w.put_option(c.smoothquant_alpha, ByteWriter::put_f32);
    match c.calibration {
        CalibMethod::AbsMax => w.put_u8(0),
        CalibMethod::Percentile(q) => {
            w.put_u8(1);
            w.put_f64(q);
        }
        CalibMethod::Kl => w.put_u8(2),
        CalibMethod::MseSweep => w.put_u8(3),
    }
    w.put_bool(c.bn_calibration);
    put_id_set(&mut w, &c.fallback);
    put_enum(&mut w, c.weight_storage);
    put_enum(&mut w, c.activation_storage);
    match c.act_granularity {
        ActGranularity::PerTensor => w.put_u8(0),
        ActGranularity::PerTile(tile) => {
            w.put_u8(1);
            w.put_usize(tile);
        }
    }
    match c.kv_storage {
        KvStorage::F32 => w.put_u8(0),
        KvStorage::Fp8 { format } => {
            w.put_u8(1);
            put_enum(&mut w, format);
        }
    }
    w.put_usize(s.queue_capacity);
    w.put_option(s.default_deadline_ms, ByteWriter::put_usize);
    w.put_usize(s.workers);
    w.finish()
}

fn decode_config(payload: &[u8]) -> Result<EngineSpec, ArtifactError> {
    let r = &mut ByteReader::new(payload);
    let config = QuantConfig {
        act_format: get_data_format(r, "config act format")?,
        weight_format: get_data_format(r, "config weight format")?,
        approach: get_enum(r, "config approach")?,
        coverage: get_enum(r, "config coverage")?,
        weight_granularity: get_enum(r, "config weight granularity")?,
        quantize_first_last: r.get_bool("config quantize_first_last")?,
        smoothquant_alpha: r.get_option("config smoothquant alpha", ByteReader::get_f32)?,
        calibration: match r.get_u8("config calibration")? {
            0 => CalibMethod::AbsMax,
            1 => CalibMethod::Percentile(r.get_f64("config percentile")?),
            2 => CalibMethod::Kl,
            3 => CalibMethod::MseSweep,
            d => return Err(unknown_discriminant("config calibration", d)),
        },
        bn_calibration: r.get_bool("config bn_calibration")?,
        fallback: get_id_set(r, "config fallback nodes")?,
        weight_storage: get_enum(r, "config weight storage")?,
        activation_storage: get_enum(r, "config activation storage")?,
        act_granularity: match r.get_u8("config act granularity")? {
            0 => ActGranularity::PerTensor,
            1 => ActGranularity::PerTile(r.get_usize("config act tile")?),
            d => return Err(unknown_discriminant("config act granularity", d)),
        },
        kv_storage: match r.get_u8("config kv storage")? {
            0 => KvStorage::F32,
            1 => KvStorage::Fp8 {
                format: get_enum(r, "config kv format")?,
            },
            d => return Err(unknown_discriminant("config kv storage", d)),
        },
    };
    let serving = ServeSpec {
        queue_capacity: r.get_usize("config serving queue_capacity")?,
        default_deadline_ms: r.get_option("config serving deadline", ByteReader::get_usize)?,
        workers: r.get_usize("config serving workers")?,
    };
    r.expect_end()?;
    config.validate().map_err(|e| ArtifactError::Decode {
        detail: format!("config: {e}"),
    })?;
    Ok(EngineSpec { config, serving })
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
    let params = get_sorted(&mut r, "fp8 weights", |r| {
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
    let out = get_sorted(&mut r, what, |r| {
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
    let out = get_sorted(&mut r, "int8 codecs", |r| {
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
    let out = get_sorted(&mut r, "smooth divisors", |r| {
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
    use crate::config::{ActivationStorage, Approach, Coverage, Granularity, WeightStorage};
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

    #[test]
    fn config_roundtrips_every_knob() {
        for cfg in [
            QuantConfig::fp8(Fp8Format::E5M2),
            QuantConfig::fp8(Fp8Format::E4M3),
            QuantConfig::fp8(Fp8Format::E3M4),
            QuantConfig::mixed_fp8(),
            QuantConfig::int8(),
            fancy_config(),
        ] {
            for serving in [ServeSpec::default(), fancy_serving()] {
                let bytes = encode_config(&cfg, &serving);
                let back = decode_config(&bytes).unwrap();
                assert_eq!(back.config, cfg);
                assert_eq!(back.serving, serving);
                // Canonical: re-encoding the decoded config is
                // byte-identical.
                assert_eq!(encode_config(&back.config, &back.serving), bytes);
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

    /// The CONFIG payload of [`all_knobs_spec`]: the bytes the commit before
    /// the codec moved onto the `WireEnum` tables wrote (container v3), less
    /// the two batching words v4 dropped from the serving section and the
    /// kernel-path byte v5 dropped after the act granularity.
    const ALL_KNOBS_CONFIG_HEX: &str = "\
        0001000201010101010000003f011ea7e8482effef3f01020000000000000001\
        0000000000000003000000000000000101014000000000000000010040000000\
        000000000119000000000000000400000000000000";

    fn all_knobs_payload() -> Vec<u8> {
        let hex = ALL_KNOBS_CONFIG_HEX.as_bytes();
        hex.chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn config_payload_bytes_are_pinned() {
        let spec = all_knobs_spec();
        let pinned = all_knobs_payload();
        assert_eq!(encode_config(&spec.config, &spec.serving), pinned);
        assert_eq!(decode_config(&pinned).unwrap(), spec);
    }

    #[test]
    fn config_rejects_out_of_range_parameters() {
        let serving = ServeSpec::default();
        for cfg in [
            QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(f64::NAN)),
            QuantConfig::fp8(Fp8Format::E4M3).with_calibration(CalibMethod::Percentile(99.99)),
            QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(-0.5),
            QuantConfig::fp8(Fp8Format::E4M3).with_smoothquant(f32::INFINITY),
        ] {
            let bytes = encode_config(&cfg, &serving);
            assert!(
                matches!(decode_config(&bytes), Err(ArtifactError::Decode { .. })),
                "{cfg:?} must not decode"
            );
        }
    }

    #[test]
    fn config_payload_mutations_never_panic() {
        // Every single-byte substitution and every truncation of the raw
        // CONFIG payload (below the container CRC, which would otherwise
        // catch them all) is a typed error or a valid, canonical spec.
        let payload = all_knobs_payload();
        let check = |bytes: &[u8]| {
            if let Ok(spec) = decode_config(bytes) {
                spec.config.validate().unwrap();
                assert_eq!(encode_config(&spec.config, &spec.serving), bytes);
            }
        };
        for len in 0..payload.len() {
            assert!(
                decode_config(&payload[..len]).is_err(),
                "truncated to {len}"
            );
        }
        let mut mutated = payload.clone();
        for i in 0..payload.len() {
            for b in 0..=u8::MAX {
                mutated[i] = b;
                check(&mutated);
            }
            mutated[i] = payload[i];
        }
    }

    #[test]
    fn config_rejects_unknown_discriminants_and_slack() {
        let serving = ServeSpec::default();
        let mut bytes = encode_config(&QuantConfig::fp8(Fp8Format::E4M3), &serving);
        bytes[0] = 9; // data-format discriminant
        assert!(matches!(
            decode_config(&bytes),
            Err(ArtifactError::Decode { .. })
        ));
        let mut bytes = encode_config(&QuantConfig::fp8(Fp8Format::E4M3), &serving);
        bytes.push(0); // trailing slack
        assert!(decode_config(&bytes).is_err());
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
        assert_eq!(art.to_bytes(), bytes);
        std::fs::remove_file(&path).unwrap();
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
        assert_eq!(loaded.artifact_bytes(), out.model.artifact_bytes());
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
                q.stored().codes().is_shared(),
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
        let art = PtqSession::load_artifact(&path).unwrap();
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
        let bytes = model.artifact_bytes();
        let art = PtqArtifact::from_bytes(bytes.clone()).unwrap();
        assert_eq!(art.to_bytes(), bytes);
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
