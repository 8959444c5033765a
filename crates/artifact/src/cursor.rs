//! Little-endian byte cursors: the primitive encode/decode layer every
//! chunk payload is written and parsed with.
//!
//! [`ByteWriter`] is infallible (it grows a `Vec<u8>`); [`ByteReader`] is
//! fully bounds-checked and returns typed [`ArtifactError`]s — never a
//! panic — so a hostile or truncated payload surfaces as
//! [`ArtifactError::Truncated`]/[`ArtifactError::Decode`] instead of an
//! index-out-of-range unwind.
//!
//! All integers are little-endian. `usize` values (shapes, counts,
//! lengths) are written as `u64` so the format is identical across
//! platforms; reads convert back with an explicit range check. Floats are
//! written as their IEEE-754 bit patterns (`to_le_bytes`), which is what
//! makes saved scales and parameters *bit*-identical after a round trip.

use crate::error::ArtifactError;

/// Growable little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64` (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a boolean as one byte, 0 or 1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append an optional value: a presence flag, then the value.
    pub fn put_option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Append an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a `u64` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a `u64` count followed by each `usize` as `u64`.
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 8);
        self.buf
            .extend(v.iter().flat_map(|&x| (x as u64).to_le_bytes()));
    }

    /// Append a `u64` count followed by each `f32`'s bit pattern.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 4);
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error if any bytes remain — chunk payloads must be consumed
    /// exactly, so an over-long payload is a format violation, not
    /// silently ignored slack.
    pub fn expect_end(&self) -> Result<(), ArtifactError> {
        if self.pos != self.buf.len() {
            return Err(ArtifactError::Decode {
                detail: format!("{} unconsumed payload bytes", self.remaining()),
            });
        }
        Ok(())
    }

    /// Borrow the next `len` bytes and advance.
    pub fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ArtifactError::Truncated {
                detail: what.to_string(),
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, ArtifactError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a boolean byte; anything but 0 or 1 is a `Decode` error.
    pub fn get_bool(&mut self, what: &str) -> Result<bool, ArtifactError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(ArtifactError::Decode {
                detail: format!("{what}: boolean byte must be 0 or 1, got {x}"),
            }),
        }
    }

    /// Read an optional value written by [`ByteWriter::put_option`].
    pub fn get_option<T>(
        &mut self,
        what: &str,
        get: impl FnOnce(&mut Self, &str) -> Result<T, ArtifactError>,
    ) -> Result<Option<T>, ArtifactError> {
        match self.get_bool(what)? {
            false => Ok(None),
            true => get(self, what).map(Some),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, ArtifactError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, ArtifactError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u64` and convert to `usize`, with an additional sanity
    /// bound: a count can never exceed the bytes remaining in the payload
    /// (every counted item is at least one byte), so an absurd value from
    /// a crafted file fails fast instead of driving a huge allocation.
    pub fn get_count(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.get_u64(what)?;
        let n = usize::try_from(v).map_err(|_| ArtifactError::Decode {
            detail: format!("{what}: count {v} overflows usize"),
        })?;
        if n > self.remaining() {
            return Err(ArtifactError::Decode {
                detail: format!(
                    "{what}: count {n} exceeds {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Read a `u64` and convert to `usize` (no remaining-bytes bound; use
    /// for values that are not element counts, e.g. dimensions and ids).
    pub fn get_usize(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| ArtifactError::Decode {
            detail: format!("{what}: value {v} overflows usize"),
        })
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self, what: &str) -> Result<f32, ArtifactError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, ArtifactError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, ArtifactError> {
        let len = self.get_count(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Decode {
            detail: format!("{what}: invalid UTF-8"),
        })
    }

    /// The bytes of a count-prefixed slice of `width`-byte elements, as
    /// one bounds-checked borrow. A count that overflows `usize` is a
    /// [`ArtifactError::Decode`]; one that claims more elements than the
    /// bytes remaining hold is [`ArtifactError::Truncated`].
    fn take_elems(&mut self, width: usize, what: &str) -> Result<&'a [u8], ArtifactError> {
        let n = self.get_u64(what)?;
        let n = usize::try_from(n).map_err(|_| ArtifactError::Decode {
            detail: format!("{what}: count overflows usize"),
        })?;
        if n > self.remaining() / width {
            return Err(ArtifactError::Truncated {
                detail: what.to_string(),
            });
        }
        self.take(n * width, what)
    }

    /// Read a count-prefixed `usize` slice (written by
    /// [`ByteWriter::put_usize_slice`]). Each element is 8 bytes, so the
    /// count is bounded by `remaining / 8`.
    pub fn get_usize_vec(&mut self, what: &str) -> Result<Vec<usize>, ArtifactError> {
        self.take_elems(8, what)?
            .chunks_exact(8)
            .map(|b| {
                let v = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                usize::try_from(v).map_err(|_| ArtifactError::Decode {
                    detail: format!("{what}: value {v} overflows usize"),
                })
            })
            .collect()
    }

    /// Read a count-prefixed `f32` slice (written by
    /// [`ByteWriter::put_f32_slice`]).
    pub fn get_f32_vec(&mut self, what: &str) -> Result<Vec<f32>, ArtifactError> {
        Ok(self
            .take_elems(4, what)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f32(f32::from_bits(0x7FC0_0001)); // a specific NaN payload
        w.put_f64(-0.0);
        w.put_str("naïve");
        w.put_usize_slice(&[3, 0, 9]);
        w.put_f32_slice(&[1.5, -2.5]);
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize("d").unwrap(), 12345);
        // Bit-exact, including the NaN payload.
        assert_eq!(r.get_f32("e").unwrap().to_bits(), 0x7FC0_0001);
        assert_eq!(r.get_f64("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str("g").unwrap(), "naïve");
        assert_eq!(r.get_usize_vec("h").unwrap(), vec![3, 0, 9]);
        assert_eq!(r.get_f32_vec("i").unwrap(), vec![1.5, -2.5]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(
            r.get_u64("value").unwrap_err(),
            ArtifactError::Truncated {
                detail: "value".to_string()
            }
        );
    }

    #[test]
    fn absurd_counts_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // a count no payload could hold
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_count("items"),
            Err(ArtifactError::Decode { .. })
        ));
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_usize_vec("items").is_err());
    }

    #[test]
    fn a_count_past_the_remaining_bytes_is_truncated() {
        // Each count claims one element more than the payload holds.
        let mut w = ByteWriter::new();
        w.put_u64(3);
        w.put_f32(1.0);
        w.put_f32(2.0);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_f32_vec("floats").unwrap_err(),
            ArtifactError::Truncated {
                detail: "floats".to_string()
            }
        );
        let mut w = ByteWriter::new();
        w.put_u64(3);
        w.put_usize(4);
        w.put_usize(5);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_usize_vec("dims").unwrap_err(),
            ArtifactError::Truncated {
                detail: "dims".to_string()
            }
        );
    }

    #[test]
    fn bulk_slices_match_the_element_codecs() {
        let floats: Vec<f32> = (0..1000u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
            .collect();
        let dims: Vec<usize> = (0..300).map(|i| i * 0x0123_4567_89AB).collect();
        let mut bulk = ByteWriter::new();
        bulk.put_f32_slice(&floats);
        bulk.put_usize_slice(&dims);
        let mut each = ByteWriter::new();
        each.put_usize(floats.len());
        floats.iter().for_each(|&x| each.put_f32(x));
        each.put_usize(dims.len());
        dims.iter().for_each(|&x| each.put_usize(x));
        let bytes = bulk.finish();
        assert_eq!(bytes, each.finish());

        let mut r = ByteReader::new(&bytes);
        let back = r.get_f32_vec("floats").unwrap();
        assert!(back
            .iter()
            .map(|x| x.to_bits())
            .eq(floats.iter().map(|x| x.to_bits())));
        assert_eq!(r.get_usize_vec("dims").unwrap(), dims);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn invalid_utf8_is_a_decode_error() {
        let mut w = ByteWriter::new();
        w.put_usize(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_str("name"),
            Err(ArtifactError::Decode { .. })
        ));
    }

    #[test]
    fn unconsumed_payload_is_an_error() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let _ = r.get_u8("x").unwrap();
        assert!(matches!(r.expect_end(), Err(ArtifactError::Decode { .. })));
    }
}
