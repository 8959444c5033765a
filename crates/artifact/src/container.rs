//! The chunked container: magic/version header + CRC-checksummed,
//! 8-byte-aligned, length-prefixed chunks.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset 0   magic        [u8; 8] = b"PTQ8ART\0"
//! offset 8   version      u32
//! offset 12  chunk_count  u32
//! --- for each chunk (chunk_count times) ---
//!            tag          u32     caller-defined chunk identity
//!            crc32        u32     CRC-32 (IEEE) of the payload bytes
//!            len          u64     payload length in bytes
//!            payload      [u8; len]
//!            padding      0..=7 zero bytes to the next 8-byte boundary
//! --- end ---
//! EOF exactly here; trailing bytes are an error.
//! ```
//!
//! The 16-byte file header plus 16-byte chunk headers keep every payload
//! starting on an 8-byte boundary, so zero-copy views into the buffer
//! (weight code blobs, future f32 blobs) are alignment-safe. Padding
//! bytes are outside the CRC, so the reader checks them separately: a
//! nonzero padding byte is an [`ArtifactError::Decode`] naming its chunk.
//! A file that opens is therefore the writer's canonical image, byte for
//! byte (the corruption suite asserts that every byte flip fails typed or
//! decodes to a model that re-encodes to the pristine bytes).
//!
//! [`ArtifactReader::open`] validates the *entire* container up front —
//! magic, version, chunk table bounds, every CRC, zero padding, exact
//! EOF — so all random corruption is caught before any payload is
//! decoded.

use crate::buf::SharedBuf;
use crate::crc::crc32;
use crate::error::ArtifactError;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"PTQ8ART\0";

/// Newest container version this crate writes and reads.
///
/// History: v1 = the original nine-chunk layout; v2 = the CONFIG chunk
/// grew the `EngineSpec` serving section (request batching / admission
/// control / deadline defaults for `crates/serve`); v3 = the CONFIG
/// chunk grew the `kv_storage` knob (autoregressive KV-cache format);
/// v4 = the serving section shrank to queue capacity / default deadline
/// / workers (the engine's request batching and its two knobs were
/// deleted); v5 = the CONFIG chunk lost its kernel-path byte (the kernel
/// path is not part of the recipe); v6 = each weight is stored once:
/// GRAPH leaves out the FP8-stored parameters QWEIGHTS carries, and the
/// WEIGHTS chunk of f32 weight copies is gone (eight chunks); v7 = the
/// CONFIG chunk is the engine spec's JSON text (the `--spec` file form)
/// instead of a binary layout of its own.
pub const VERSION: u32 = 7;

const HEADER_LEN: usize = 16;
const CHUNK_HEADER_LEN: usize = 16;

/// Round `n` up to the next multiple of 8.
fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Accumulates tagged chunks and assembles the final byte image.
#[derive(Debug, Default)]
pub struct ArtifactWriter {
    chunks: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one chunk. Chunks are written in insertion order; tags
    /// should be unique (the reader rejects duplicates).
    pub fn chunk(&mut self, tag: u32, payload: Vec<u8>) {
        self.chunks.push((tag, payload));
    }

    /// Assemble the container bytes.
    pub fn finish(self) -> Vec<u8> {
        let total = HEADER_LEN
            + self
                .chunks
                .iter()
                .map(|(_, p)| CHUNK_HEADER_LEN + align8(p.len()))
                .sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (tag, payload) in &self.chunks {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.resize(align8(out.len()), 0);
        }
        out
    }

    /// Assemble and write to `path`: the bytes land in a `.tmp` sibling
    /// first and are renamed into place, so a crash mid-write never
    /// leaves a half-written file under the artifact's name.
    pub fn write_to(self, path: &Path) -> Result<(), ArtifactError> {
        let bytes = self.finish();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// One validated chunk's location inside the container buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// The chunk's tag.
    pub tag: u32,
    /// Absolute payload offset into the container buffer (8-aligned).
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A fully validated, zero-copy view over one artifact.
#[derive(Debug)]
pub struct ArtifactReader {
    buf: Arc<SharedBuf>,
    chunks: Vec<ChunkRange>,
    version: u32,
}

impl ArtifactReader {
    /// Open and validate an artifact file (mmap where available).
    pub fn open(path: &Path) -> Result<Self, ArtifactError> {
        let buf = SharedBuf::load(path)?;
        Self::from_shared(Arc::new(buf))
    }

    /// Validate an in-memory byte image (tests, in-process round trips).
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, ArtifactError> {
        Self::from_shared(Arc::new(SharedBuf::from_vec(bytes)))
    }

    /// Validate a shared buffer: magic, version, chunk table bounds,
    /// every chunk's CRC, duplicate tags, zero padding, and exact
    /// end-of-buffer.
    pub fn from_shared(buf: Arc<SharedBuf>) -> Result<Self, ArtifactError> {
        let bytes: &[u8] = buf.as_slice();
        let magic = bytes.get(..8).ok_or(ArtifactError::BadMagic)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let word = |off: usize, what: &str| -> Result<u32, ArtifactError> {
            let b = bytes
                .get(off..off + 4)
                .ok_or_else(|| ArtifactError::Truncated {
                    detail: what.to_string(),
                })?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let version = word(8, "header version")?;
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let chunk_count = word(12, "header chunk count")? as usize;
        let mut chunks = Vec::with_capacity(chunk_count.min(1024));
        let mut pos = HEADER_LEN;
        for i in 0..chunk_count {
            let header =
                bytes
                    .get(pos..pos + CHUNK_HEADER_LEN)
                    .ok_or_else(|| ArtifactError::Truncated {
                        detail: format!("chunk {i} header"),
                    })?;
            let tag = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            let len = u64::from_le_bytes([
                header[8], header[9], header[10], header[11], header[12], header[13], header[14],
                header[15],
            ]);
            let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated {
                detail: format!("chunk {tag:#x} length"),
            })?;
            let offset = pos + CHUNK_HEADER_LEN;
            let payload = offset
                .checked_add(len)
                .and_then(|end| bytes.get(offset..end))
                .ok_or_else(|| ArtifactError::Truncated {
                    detail: format!("chunk {tag:#x} payload"),
                })?;
            if crc32(payload) != crc {
                return Err(ArtifactError::ChecksumMismatch { tag });
            }
            if chunks.iter().any(|c: &ChunkRange| c.tag == tag) {
                return Err(ArtifactError::DuplicateChunk { tag });
            }
            chunks.push(ChunkRange { tag, offset, len });
            // The pad bytes must exist (a file cut inside padding is
            // truncated, not merely untidy) and be zero, so the bytes are
            // the writer's canonical image.
            let padding = bytes
                .get(offset + len..align8(offset + len))
                .ok_or_else(|| ArtifactError::Truncated {
                    detail: format!("chunk {tag:#x} padding"),
                })?;
            if padding.iter().any(|&b| b != 0) {
                return Err(ArtifactError::Decode {
                    detail: format!("chunk {tag:#x} padding is not zero"),
                });
            }
            pos = align8(offset + len);
        }
        if pos != bytes.len() {
            return Err(ArtifactError::TrailingGarbage {
                bytes: bytes.len() - pos,
            });
        }
        Ok(ArtifactReader {
            buf,
            chunks,
            version,
        })
    }

    /// The container version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The shared backing buffer (clone the `Arc` to build zero-copy
    /// views that outlive this reader).
    pub fn shared_buf(&self) -> &Arc<SharedBuf> {
        &self.buf
    }

    /// All chunks, in file order.
    pub fn chunks(&self) -> &[ChunkRange] {
        &self.chunks
    }

    /// True when a chunk with `tag` exists.
    pub fn has(&self, tag: u32) -> bool {
        self.chunks.iter().any(|c| c.tag == tag)
    }

    /// The validated location of chunk `tag` (for zero-copy views into
    /// [`ArtifactReader::shared_buf`]).
    pub fn chunk_range(&self, tag: u32) -> Result<ChunkRange, ArtifactError> {
        self.chunks
            .iter()
            .find(|c| c.tag == tag)
            .copied()
            .ok_or(ArtifactError::MissingChunk { tag })
    }

    /// Borrow chunk `tag`'s payload.
    pub fn chunk(&self, tag: u32) -> Result<&[u8], ArtifactError> {
        let r = self.chunk_range(tag)?;
        // The range was bounds-checked at open; re-check rather than
        // index so no code path in this crate can panic.
        self.buf
            .as_slice()
            .get(r.offset..r.offset + r.len)
            .ok_or(ArtifactError::Truncated {
                detail: format!("chunk {tag:#x} payload"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.chunk(1, b"hello".to_vec());
        w.chunk(2, vec![]);
        w.chunk(0xAB, (0..=99u8).collect());
        w.finish()
    }

    #[test]
    fn roundtrip_and_alignment() {
        let bytes = sample();
        assert_eq!(bytes.len() % 8, 0);
        let r = ArtifactReader::from_vec(bytes).unwrap();
        assert_eq!(r.version(), VERSION);
        assert_eq!(r.chunk(1).unwrap(), b"hello");
        assert_eq!(r.chunk(2).unwrap(), b"");
        assert_eq!(r.chunk(0xAB).unwrap().len(), 100);
        for c in r.chunks() {
            assert_eq!(c.offset % 8, 0, "payloads must be 8-aligned");
        }
        assert!(r.has(2));
        assert!(!r.has(3));
        assert!(matches!(
            r.chunk(3),
            Err(ArtifactError::MissingChunk { tag: 3 })
        ));
    }

    #[test]
    fn file_roundtrip_via_writer() {
        let mut path = std::env::temp_dir();
        path.push(format!("ptq-artifact-container-{}.bin", std::process::id()));
        let mut w = ArtifactWriter::new();
        w.chunk(7, b"persisted".to_vec());
        w.write_to(&path).unwrap();
        let r = ArtifactReader::open(&path).unwrap();
        assert_eq!(r.chunk(7).unwrap(), b"persisted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0x40;
        assert_eq!(
            ArtifactReader::from_vec(bytes).unwrap_err(),
            ArtifactError::BadMagic
        );
        assert_eq!(
            ArtifactReader::from_vec(vec![1, 2, 3]).unwrap_err(),
            ArtifactError::BadMagic
        );
    }

    #[test]
    fn future_version_is_rejected_clearly() {
        let mut bytes = sample();
        bytes[8] = (VERSION + 1) as u8;
        let err = ArtifactReader::from_vec(bytes).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::UnsupportedVersion {
                found: VERSION + 1,
                supported: VERSION,
            }
        );
        assert!(err.to_string().contains("unsupported artifact version"));
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let bytes = sample();
        // Flip one bit inside the first payload ("hello" at offset 32).
        let r = ArtifactReader::from_vec(bytes.clone()).unwrap();
        let off = r.chunk_range(1).unwrap().offset;
        drop(r);
        let mut bad = bytes;
        bad[off] ^= 1;
        assert_eq!(
            ArtifactReader::from_vec(bad).unwrap_err(),
            ArtifactError::ChecksumMismatch { tag: 1 }
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_typed() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = ArtifactReader::from_vec(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::BadMagic
                        | ArtifactError::Truncated { .. }
                        | ArtifactError::ChecksumMismatch { .. }
                        | ArtifactError::TrailingGarbage { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn nonzero_padding_is_a_decode_error_naming_the_chunk() {
        let bytes = sample();
        let r = ArtifactReader::from_vec(bytes.clone()).unwrap();
        // "hello" (tag 1) is followed by 3 pad bytes; 100 bytes (0xAB) by 4.
        let pads: Vec<(u32, usize)> = r
            .chunks()
            .iter()
            .flat_map(|c| (c.offset + c.len..align8(c.offset + c.len)).map(move |i| (c.tag, i)))
            .collect();
        assert_eq!(pads.len(), 7);
        for (tag, i) in pads {
            let mut bad = bytes.clone();
            bad[i] = 0xAB;
            assert_eq!(
                ArtifactReader::from_vec(bad).unwrap_err(),
                ArtifactError::Decode {
                    detail: format!("chunk {tag:#x} padding is not zero")
                },
                "pad byte {i}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample();
        bytes.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            ArtifactReader::from_vec(bytes).unwrap_err(),
            ArtifactError::TrailingGarbage { bytes: 8 }
        );
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let mut w = ArtifactWriter::new();
        w.chunk(5, b"one".to_vec());
        w.chunk(5, b"two".to_vec());
        assert_eq!(
            ArtifactReader::from_vec(w.finish()).unwrap_err(),
            ArtifactError::DuplicateChunk { tag: 5 }
        );
    }

    #[test]
    fn length_field_corruption_is_typed() {
        let bytes = sample();
        // The first chunk's len field lives at header(16) + tag(4) + crc(4).
        let len_off = 24;
        for delta in [1u64, 1 << 32, u64::MAX / 2] {
            let mut bad = bytes.clone();
            let old = u64::from_le_bytes(bad[len_off..len_off + 8].try_into().unwrap());
            bad[len_off..len_off + 8].copy_from_slice(&(old.wrapping_add(delta)).to_le_bytes());
            let err = ArtifactReader::from_vec(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
                ),
                "delta {delta}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn chunk_count_corruption_is_typed() {
        let bytes = sample();
        let mut more = bytes.clone();
        more[12] = more[12].wrapping_add(1); // declares one extra chunk
        assert!(matches!(
            ArtifactReader::from_vec(more).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        let mut fewer = bytes;
        fewer[12] -= 1; // one chunk becomes trailing garbage
        assert!(matches!(
            ArtifactReader::from_vec(fewer).unwrap_err(),
            ArtifactError::TrailingGarbage { .. }
        ));
    }

    #[test]
    fn empty_container_is_valid() {
        let bytes = ArtifactWriter::new().finish();
        let r = ArtifactReader::from_vec(bytes).unwrap();
        assert!(r.chunks().is_empty());
    }
}
