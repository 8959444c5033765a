//! Versioned, checksummed, mmap-able on-disk container for PTQ artifacts.
//!
//! This crate knows nothing about graphs, tensors, or quantization — it
//! provides the *container* the rest of the workspace serializes into:
//!
//! * [`ArtifactWriter`] / [`ArtifactReader`] — a chunked little-endian
//!   layout with an 8-byte magic, a `u32` version, and per-chunk
//!   `tag + crc32 + u64 length` headers. Payloads are zero-padded to
//!   8-byte boundaries so zero-copy views are alignment-safe. The reader
//!   validates the whole container up front (magic, version, bounds,
//!   every CRC, zero padding, exact EOF) and every failure is a typed
//!   [`ArtifactError`] — never a panic.
//! * [`SharedBuf`] — the read-only backing buffer, memory-mapped on
//!   Linux/x86-64 with a whole-file-read fallback elsewhere. One
//!   `Arc<SharedBuf>` is shared by every zero-copy view into the file.
//! * [`ByteWriter`] / [`ByteReader`] — bounds-checked little-endian
//!   cursors the chunk payloads are encoded and decoded with; floats are
//!   stored as IEEE-754 bit patterns so round trips are bit-exact. Slices
//!   (`f32` parameters, `usize` shapes) move as one bounds-checked block.
//! * [`crc32`] — CRC-32/ISO-HDLC (the zlib/PNG polynomial), so external
//!   tooling can verify artifacts without this crate. It folds 64 bytes
//!   per step with carry-less multiplies where the CPU has them, so
//!   checksumming a whole artifact on open costs about as much as reading
//!   it once.
//!
//! Higher layers (`ptq-nn`, `ptq-core`) define the chunk tags and payload
//! schemas; this crate only guarantees that what was written is exactly
//! what is read back, or the load fails with a typed error. A cold load
//! of a 1.4 MB artifact is ≈ 0.1 ms of open and ≈ 0.2 ms of decode
//! (DESIGN.md §14).

pub mod buf;
pub mod container;
pub mod crc;
pub mod cursor;
pub mod error;

pub use buf::SharedBuf;
pub use container::{ArtifactReader, ArtifactWriter, ChunkRange, MAGIC, VERSION};
pub use crc::crc32;
pub use cursor::{ByteReader, ByteWriter};
pub use error::ArtifactError;
