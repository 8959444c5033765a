//! # ptq-fp8 — bit-exact FP8 and INT8 numeric codecs
//!
//! Software emulation of the three 8-bit floating-point formats studied in
//! *"Efficient Post-training Quantization with FP8 Formats"* (MLSys 2024):
//! **E5M2**, **E4M3** and **E3M4**, plus the INT8 affine codecs the paper
//! compares against.
//!
//! The binary formats follow Table 1 of the paper:
//!
//! | | E5M2 | E4M3 | E3M4 |
//! |---|---|---|---|
//! | Exponent bias | 15 | 7 | 3 |
//! | Max value | 57344.0 | 448.0 | 30.0 |
//! | Min subnormal | 2⁻¹⁶ ≈ 1.5e-5 | 2⁻⁹ ≈ 1.9e-3 | 2⁻⁶ ≈ 1.5e-2 |
//! | Subnormals | yes | yes | yes |
//! | NaNs | all (IEEE-like) | single (all-ones) | single (all-ones) |
//! | Infinity | yes | no | no |
//!
//! E5M2 uses IEEE-754-style encoding rules; E4M3 and E3M4 use the *extended*
//! encoding that reclaims ±Infinity for useful values and reserves only the
//! all-ones bit pattern for NaN.
//!
//! The crate is deliberately dependency-light and `f32`-based: the paper's
//! own experiments ran on a software emulation toolkit over FP32 hardware,
//! and this crate is the Rust analogue of that toolkit.
//!
//! ## Quick example
//!
//! ```
//! use ptq_fp8::{Fp8Format, Fp8Codec};
//!
//! let codec = Fp8Codec::new(Fp8Format::E4M3);
//! let code = codec.encode(1.3);
//! let back = codec.decode(code);
//! assert!((back - 1.3).abs() < 0.1); // 3 mantissa bits of precision
//! assert_eq!(codec.decode(codec.encode(448.0)), 448.0); // max value exact
//! ```

pub mod bytes;
pub mod codec;
pub mod density;
pub mod error;
pub mod format;
pub mod int8;
pub mod lut;
pub mod quantize;
pub mod storage;
pub mod wire;

pub use bytes::{CodeBytes, SharedBytes};
pub use codec::{Fp8Codec, OverflowPolicy, Rounding};
pub use density::{density_at, grid_points_in};
pub use error::Fp8Error;
pub use format::{Fp8Format, FpSpec, NanEncoding};
pub use int8::{Int8Codec, Int8Granularity, Int8Mode};
pub use lut::Fp8Lut;
pub use quantize::{
    fake_quant_fp8, fake_quant_fp8_per_channel, fake_quant_int8, fake_quant_int8_per_channel,
    fp8_scale, FakeQuantStats,
};
pub use storage::{absmax_nan_aware, check_shape, StoredScales, StoredTensor};
pub use wire::WireEnum;
