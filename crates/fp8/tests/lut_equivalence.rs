//! LUT ⇔ scalar codec equivalence suite.
//!
//! The table-driven fast path (`Fp8Lut::{quantize, encode}`,
//! `fake_quant_fp8_lut`) must be bit-identical to the scalar reference
//! codec for every input — these tests enforce that exhaustively over the code space, deterministically
//! over the known hard regions (rounding-boundary ties, subnormals,
//! saturation, specials), and probabilistically over the full f32 space.

use proptest::prelude::*;
use ptq_fp8::{
    fake_quant_fp8, fake_quant_fp8_lut, fake_quant_fp8_per_channel, fake_quant_fp8_per_channel_lut,
    fp8_scale, Fp8Codec, Fp8Format, Fp8Lut, OverflowPolicy, Rounding,
};

/// Bitwise equality that treats every NaN as equal (the scalar codec
/// canonicalizes NaNs, so payloads never differ in practice — but the
/// comparison should not depend on that).
fn bits_eq(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Stats equality that treats NaN mse as equal to NaN mse (a NonSaturating
/// codec turns overflow into NaN, which poisons the accumulator on both
/// paths identically).
fn stats_eq(a: &ptq_fp8::FakeQuantStats, b: &ptq_fp8::FakeQuantStats) -> bool {
    (a.mse == b.mse || (a.mse.is_nan() && b.mse.is_nan()))
        && a.max_abs_err.to_bits() == b.max_abs_err.to_bits()
        && a.saturated == b.saturated
        && a.underflowed == b.underflowed
}

/// `lut.quantize(x)` and `lut.encode(x)` both agree with the scalar codec.
fn assert_quantize_matches(f: Fp8Format, x: f32) {
    let codec = Fp8Codec::new(f);
    let lut = Fp8Lut::for_codec(&codec).expect("default codec has a LUT");
    let (a, b) = (lut.quantize(x), codec.quantize(x));
    assert!(
        bits_eq(a, b),
        "{f}: quantize({x:?} = {:#010x}) lut {a:?} vs scalar {b:?}",
        x.to_bits()
    );
    let (a, b) = (lut.encode(x), codec.encode(x));
    assert_eq!(
        a,
        b,
        "{f}: encode({x:?} = {:#010x}) lut {a:#04x} vs scalar {b:#04x}",
        x.to_bits()
    );
}

/// Every one of the 256 codepoints: decode tables agree, and re-quantizing
/// each representable value is the identity on both paths.
#[test]
fn exhaustive_256_codepoints_all_formats() {
    for f in Fp8Format::ALL {
        let codec = Fp8Codec::new(f);
        let lut = Fp8Lut::for_codec(&codec).unwrap();
        for code in 0u16..=255 {
            let code = code as u8;
            let v = codec.decode(code);
            assert!(
                bits_eq(lut.decode(code), v),
                "{f} decode mismatch at code {code:#04x}"
            );
            if v.is_finite() {
                assert_quantize_matches(f, v);
                assert!(
                    bits_eq(lut.quantize(v), v),
                    "{f} grid value {v} not a fixed point of the LUT"
                );
            } else {
                // Saturating codec clamps ±Inf to ±max on both paths; a
                // NaN code's value re-encodes to the canonical NaN code.
                assert_quantize_matches(f, v);
            }
        }
    }
}

/// The exact rounding boundaries between every pair of adjacent grid
/// values, probed at the boundary bit pattern and its neighbours. This is
/// where RNE ties live; one-off errors in the breakpoint table fail here.
#[test]
fn rounding_boundaries_and_ties() {
    for f in Fp8Format::ALL {
        let codec = Fp8Codec::new(f);
        let grid = codec.enumerate_finite_positive();
        for w in grid.windows(2) {
            let (lo, hi) = (w[0].1, w[1].1);
            // Midpoint computed in f64 so the f32 tie pattern itself is hit.
            let mid = ((lo as f64 + hi as f64) * 0.5) as f32;
            let mb = mid.to_bits();
            for delta in -2i64..=2 {
                let bits = (mb as i64 + delta).clamp(0, 0x7F80_0000) as u32;
                let x = f32::from_bits(bits);
                assert_quantize_matches(f, x);
                assert_quantize_matches(f, -x);
            }
        }
    }
}

/// The subnormal region of each format, exhaustively over a fine uniform
/// grid (16 probe points per subnormal step), plus the underflow boundary
/// around half the smallest subnormal.
#[test]
fn subnormal_region_fine_sweep() {
    for f in Fp8Format::ALL {
        let spec = f.spec();
        let step = spec.min_subnormal();
        let probes_per_step = 16;
        let mant_count = 1u32 << spec.man_bits;
        for i in 0..=(mant_count * probes_per_step) {
            let x = step * (i as f32 / probes_per_step as f32);
            assert_quantize_matches(f, x);
            assert_quantize_matches(f, -x);
        }
        // Underflow tie: exactly half the smallest subnormal rounds to
        // even (zero) under RNE; probe the bit neighbourhood.
        let half = step * 0.5;
        let hb = half.to_bits();
        for delta in -2i64..=2 {
            let x = f32::from_bits((hb as i64 + delta).max(0) as u32);
            assert_quantize_matches(f, x);
            assert_quantize_matches(f, -x);
        }
    }
}

/// Saturation: the half-ulp window around the max value, values far above
/// it, ±Inf, and f32::MAX.
#[test]
fn saturation_boundary() {
    for f in Fp8Format::ALL {
        let max_v = f.max_value();
        let ulp = f.spec().ulp_at(max_v);
        for x in [
            max_v,
            max_v + 0.25 * ulp,
            max_v + 0.5 * ulp,
            max_v + 0.75 * ulp,
            max_v + ulp,
            max_v * 2.0,
            max_v * 1e6,
            f32::MAX,
            f32::INFINITY,
        ] {
            assert_quantize_matches(f, x);
            assert_quantize_matches(f, -x);
        }
        // Bit-level scan across the saturation threshold.
        let tb = (max_v + 0.5 * ulp).to_bits();
        for delta in -3i64..=3 {
            let x = f32::from_bits((tb as i64 + delta) as u32);
            assert_quantize_matches(f, x);
            assert_quantize_matches(f, -x);
        }
    }
}

/// NaN inputs (canonical, payloaded, negative) map to NaN on both paths.
#[test]
fn nan_handling() {
    for f in Fp8Format::ALL {
        let codec = Fp8Codec::new(f);
        let lut = Fp8Lut::for_codec(&codec).unwrap();
        for nan in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling payload
            f32::from_bits(0xFFC0_1234), // negative, payloaded
        ] {
            assert!(lut.quantize(nan).is_nan(), "{f}");
            assert_quantize_matches(f, nan);
            assert_eq!(lut.encode(nan), codec.nan_code(), "{f}");
        }
    }
}

/// The ends of the f32 range: signed zeros, f32 subnormals (which the
/// scalar encoder rescales before reading their exponent), the smallest
/// normal, `f32::MAX` and the infinities, both signs.
#[test]
fn f32_range_edges() {
    for f in Fp8Format::ALL {
        for bits in [
            0u32,        // +0
            1,           // smallest subnormal
            2,           //
            0x0000_0100, // mid subnormals
            0x0040_0000, //
            0x007F_FFFF, // largest subnormal
            0x0080_0000, // f32::MIN_POSITIVE
            0x7F7F_FFFF, // f32::MAX
            0x7F80_0000, // +Inf
        ] {
            assert_quantize_matches(f, f32::from_bits(bits));
            assert_quantize_matches(f, f32::from_bits(bits | 0x8000_0000));
        }
    }
}

/// Deterministic strided sweep across the entire f32 bit space, NaN
/// patterns included (prime stride so every exponent region is visited at
/// every mantissa alignment), both signs.
#[test]
fn strided_bit_space_sweep() {
    for f in Fp8Format::ALL {
        let mut bits = 0u32;
        while bits <= 0x7FFF_FFFF {
            assert_quantize_matches(f, f32::from_bits(bits));
            assert_quantize_matches(f, f32::from_bits(bits | 0x8000_0000));
            bits += 509; // prime, ~4.2M probes per sign per format
        }
    }
}

/// Pre-merge, `cargo test --release -p ptq-fp8 --test lut_equivalence --
/// --ignored exhaustive` (DESIGN.md §13): `encode` and `quantize` against
/// the scalar codec on all 2^32 inputs of each paper format, the bit space
/// split across the available cores.
#[test]
#[ignore = "exhaustive over 2^32 inputs per format: minutes on 2 cores"]
fn exhaustive_bit_space_all_formats() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for f in Fp8Format::ALL {
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for bits in t * span..((t + 1) * span).min(1 << 32) {
                        assert_quantize_matches(f, f32::from_bits(bits as u32));
                    }
                });
            }
        });
    }
}

/// Non-default codec policies transparently fall back to the scalar path
/// inside `fake_quant_fp8_lut`, so results still match exactly.
#[test]
fn non_default_policies_fall_back() {
    for f in Fp8Format::ALL {
        for codec in [
            Fp8Codec::new(f).with_rounding(Rounding::TowardZero),
            Fp8Codec::new(f).with_overflow(OverflowPolicy::NonSaturating),
        ] {
            let data: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.37).collect();
            let mut a = data.clone();
            let mut b = data;
            let sa = fake_quant_fp8(&mut a, &codec, 1.7);
            let sb = fake_quant_fp8_lut(&mut b, &codec, 1.7);
            assert!(stats_eq(&sa, &sb), "{f}: {sa:?} vs {sb:?}");
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

fn all_formats() -> impl Strategy<Value = Fp8Format> {
    prop_oneof![
        Just(Fp8Format::E5M2),
        Just(Fp8Format::E4M3),
        Just(Fp8Format::E3M4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random normal f32s across the full exponent range.
    #[test]
    fn random_normals_match(f in all_formats(), xs in proptest::collection::vec(proptest::num::f32::NORMAL, 1..200)) {
        for x in xs {
            assert_quantize_matches(f, x);
        }
    }

    /// Random raw bit patterns — hits subnormals, specials and NaNs too.
    #[test]
    fn random_bit_patterns_match(f in all_formats(), bits in proptest::collection::vec(0u32..=u32::MAX, 1..200)) {
        for b in bits {
            assert_quantize_matches(f, f32::from_bits(b));
        }
    }

    /// Whole-tensor pass: the per-tensor LUT entry point returns identical
    /// outputs AND identical statistics (mse, max_abs_err, saturation and
    /// underflow counts) to the scalar entry point, across random scales.
    #[test]
    fn fake_quant_stats_identical(
        f in all_formats(),
        xs in proptest::collection::vec(-1000.0f32..1000.0, 1..300),
        absmax in 1e-3f32..2000.0,
    ) {
        let codec = Fp8Codec::new(f);
        let scale = fp8_scale(f, absmax);
        let mut a = xs.clone();
        let mut b = xs;
        let sa = fake_quant_fp8(&mut a, &codec, scale);
        let sb = fake_quant_fp8_lut(&mut b, &codec, scale);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Per-channel pass: identical scales, outputs and statistics.
    #[test]
    fn per_channel_identical(
        f in all_formats(),
        channels in 1usize..6,
        inner in 1usize..40,
        seed in 0u32..1000,
    ) {
        let n = channels * inner;
        // Deterministic per-case data spanning several magnitudes.
        let xs: Vec<f32> = (0..n)
            .map(|i| {
                let t = (i as f32 + seed as f32 * 0.77).sin();
                t * 10f32.powi((i % 7) as i32 - 3)
            })
            .collect();
        let codec = Fp8Codec::new(f);
        let mut a = xs.clone();
        let mut b = xs;
        let (scales_a, sa) = fake_quant_fp8_per_channel(&mut a, &codec, channels, inner);
        let (scales_b, sb) = fake_quant_fp8_per_channel_lut(&mut b, &codec, channels, inner);
        prop_assert_eq!(scales_a, scales_b);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
