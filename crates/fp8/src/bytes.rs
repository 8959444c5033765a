//! [`CodeBytes`]: the byte buffer behind a stored FP8 tensor's codes —
//! either owned, or a zero-copy window into a shared read-only buffer.
//!
//! Freshly quantized tensors own their codes (`Vec<u8>`). Tensors loaded
//! from an on-disk artifact instead *borrow* a range of the artifact's
//! single backing buffer (a memory map where the platform supports it),
//! so loading a model costs one mapping, not one heap copy per weight.
//! This crate stays storage-agnostic: the shared buffer is any
//! `Arc<dyn AsRef<[u8]> + Send + Sync>`, supplied by whichever layer owns
//! the file format.

use crate::error::Fp8Error;
use std::ops::Deref;
use std::sync::Arc;

/// A shared read-only byte buffer a [`CodeBytes`] window can borrow from.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// Row-major FP8 code bytes: owned, or a validated window into a shared
/// buffer. Behaves as `&[u8]` via `Deref`; equality and hashing-adjacent
/// semantics (`PartialEq`) compare byte content, not representation, so
/// a loaded tensor compares equal to the freshly quantized one.
#[derive(Clone)]
pub struct CodeBytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    Shared {
        buf: SharedBytes,
        offset: usize,
        len: usize,
    },
}

impl CodeBytes {
    /// A zero-copy window of `len` bytes at `offset` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Fp8Error::SharedRange`] when `offset + len` overflows or
    /// exceeds the buffer.
    pub fn from_shared(buf: SharedBytes, offset: usize, len: usize) -> Result<Self, Fp8Error> {
        let buf_len = (*buf).as_ref().len();
        let in_bounds = offset.checked_add(len).is_some_and(|end| end <= buf_len);
        if !in_bounds {
            return Err(Fp8Error::SharedRange {
                offset,
                len,
                buf_len,
            });
        }
        Ok(CodeBytes {
            repr: Repr::Shared { buf, offset, len },
        })
    }

    /// The code bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::Shared { buf, offset, len } => &(**buf).as_ref()[*offset..*offset + *len],
        }
    }

    /// True when the bytes are borrowed from a shared buffer rather than
    /// owned (observable so tests can assert the zero-copy path ran).
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, Repr::Shared { .. })
    }
}

impl From<Vec<u8>> for CodeBytes {
    fn from(v: Vec<u8>) -> Self {
        CodeBytes {
            repr: Repr::Owned(v),
        }
    }
}

impl Deref for CodeBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for CodeBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for CodeBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for CodeBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_shared() { "shared" } else { "owned" };
        write!(f, "CodeBytes({kind}, {} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: Vec<u8>) -> SharedBytes {
        Arc::new(bytes)
    }

    #[test]
    fn owned_and_shared_compare_by_content() {
        let owned = CodeBytes::from(vec![1, 2, 3]);
        let buf = shared(vec![0, 1, 2, 3, 4]);
        let view = CodeBytes::from_shared(buf, 1, 3).unwrap();
        assert!(!owned.is_shared());
        assert!(view.is_shared());
        assert_eq!(owned, view);
        assert_eq!(&view[..], &[1, 2, 3]);
        assert_eq!(view.to_vec(), vec![1, 2, 3]);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
    }

    #[test]
    fn out_of_bounds_windows_are_rejected() {
        let buf = shared(vec![0u8; 8]);
        assert!(CodeBytes::from_shared(Arc::clone(&buf), 0, 8).is_ok());
        assert_eq!(
            CodeBytes::from_shared(Arc::clone(&buf), 4, 8).unwrap_err(),
            Fp8Error::SharedRange {
                offset: 4,
                len: 8,
                buf_len: 8
            }
        );
        // Overflow must not wrap around.
        assert!(CodeBytes::from_shared(buf, usize::MAX, 2).is_err());
    }

    #[test]
    fn clone_of_shared_window_shares_the_buffer() {
        let buf = shared(vec![9u8; 16]);
        let a = CodeBytes::from_shared(buf, 4, 4).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert!(b.is_shared());
    }

    #[test]
    fn debug_is_a_summary_not_a_dump() {
        let cb = CodeBytes::from(vec![0u8; 1_000_000]);
        let s = format!("{cb:?}");
        assert!(s.contains("owned"));
        assert!(s.len() < 64);
    }
}
