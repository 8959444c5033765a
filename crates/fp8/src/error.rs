//! Typed errors for the fallible parts of the FP8 crate.
//!
//! Mirrors the PR 2 convention in `ptq-nn`: constructors that used to
//! `assert!`/`expect` now return `Result<_, Fp8Error>` so callers can
//! fail soft instead of unwinding through a sweep.

use std::fmt;

/// Errors from quantized-storage constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fp8Error {
    /// `data.len()` does not match the product of the requested shape.
    ShapeMismatch {
        /// Number of f32 elements supplied.
        data_len: usize,
        /// The requested logical shape.
        shape: Vec<usize>,
    },
    /// Per-channel quantization needs at least one axis to scale over.
    ScalarShape,
    /// Per-channel quantization over an empty leading axis.
    EmptyLeadingAxis,
    /// A per-channel scale vector whose length disagrees with the shape's
    /// leading axis (raw-parts reconstruction only).
    ScaleCountMismatch {
        /// Channels implied by the shape (`shape[0]`).
        expected: usize,
        /// Scales actually supplied.
        got: usize,
    },
    /// A zero-copy code window that falls outside its backing buffer.
    SharedRange {
        /// Requested start offset.
        offset: usize,
        /// Requested window length.
        len: usize,
        /// Actual backing-buffer length.
        buf_len: usize,
    },
    /// Raw codec parameters that violate the codec's invariants (e.g. a
    /// non-finite or non-positive scale, an out-of-range zero point).
    InvalidCodec {
        /// What was invalid.
        detail: String,
    },
}

impl fmt::Display for Fp8Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fp8Error::ShapeMismatch { data_len, shape } => {
                write!(
                    f,
                    "shape/product mismatch: {data_len} elements vs shape {shape:?} "
                )?;
                match crate::storage::shape_product(shape) {
                    Some(n) => write!(f, "(product {n})"),
                    None => write!(f, "(product overflows usize)"),
                }
            }
            Fp8Error::ScalarShape => {
                write!(f, "per-channel quantization needs a non-scalar shape")
            }
            Fp8Error::EmptyLeadingAxis => {
                write!(f, "per-channel quantization over an empty leading axis")
            }
            Fp8Error::ScaleCountMismatch { expected, got } => write!(
                f,
                "per-channel scale count mismatch: shape implies {expected} channels, \
                 got {got} scales"
            ),
            Fp8Error::SharedRange {
                offset,
                len,
                buf_len,
            } => write!(
                f,
                "code window [{offset}, {offset}+{len}) exceeds shared buffer of {buf_len} bytes"
            ),
            Fp8Error::InvalidCodec { detail } => {
                write!(f, "invalid codec parameters: {detail}")
            }
        }
    }
}

impl std::error::Error for Fp8Error {}
