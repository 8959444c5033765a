//! QTensor ⇔ fake-quantization equivalence suite.
//!
//! Real FP8 weight storage (`QTensor`: u8 codes + scales) must round-trip
//! to exactly the values fake quantization computes in f32 — that identity
//! is what lets the fused execution kernels replace the fake-quant path
//! bit-for-bit. These tests enforce `quantize → dequantize` ==
//! `fake_quant_fp8` / `_per_channel` across all three formats,
//! deterministically on the known hard cases and probabilistically over
//! random tensors, and pin every code the lane encoder writes to the
//! table encoder `Fp8Lut::encode(x · s)`.

use proptest::prelude::*;
use ptq_fp8::{
    fake_quant_fp8, fake_quant_fp8_per_channel, Fp8Codec, Fp8Format, Fp8Lut, StoredScales,
};
use ptq_tensor::{tile_scale, QTensor, Tensor};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn quantize(data: &[f32], shape: &[usize], f: Fp8Format) -> QTensor {
    QTensor::quantize(&Tensor::from_vec(data.to_vec(), shape), f).unwrap()
}

fn quantize_per_channel(data: &[f32], shape: &[usize], f: Fp8Format) -> QTensor {
    QTensor::quantize_per_channel(&Tensor::from_vec(data.to_vec(), shape), f).unwrap()
}

fn dequantize(q: &QTensor) -> Vec<f32> {
    q.dequantize().data().to_vec()
}

/// Per-tensor storage round-trip vs the fake-quant reference.
fn assert_per_tensor_identical(data: &[f32], shape: &[usize], f: Fp8Format) {
    let st = quantize(data, shape, f);
    let codec = Fp8Codec::new(f);
    let mut fake = data.to_vec();
    let scale = match st.scales() {
        StoredScales::PerTensor(s) => *s,
        _ => panic!("expected per-tensor scales"),
    };
    fake_quant_fp8(&mut fake, &codec, scale);
    assert_eq!(bits(&dequantize(&st)), bits(&fake), "{f} {shape:?}");
}

/// Per-channel storage round-trip vs the fake-quant reference; also
/// checks the stored scales match the fake-quant scales bit-for-bit.
fn assert_per_channel_identical(data: &[f32], channels: usize, inner: usize, f: Fp8Format) {
    let st = quantize_per_channel(data, &[channels, inner], f);
    let codec = Fp8Codec::new(f);
    let mut fake = data.to_vec();
    let (fake_scales, _) = fake_quant_fp8_per_channel(&mut fake, &codec, channels, inner);
    match st.scales() {
        StoredScales::PerChannel(s) => assert_eq!(bits(s), bits(&fake_scales), "{f} scales"),
        _ => panic!("expected per-channel scales"),
    }
    assert_eq!(
        bits(&dequantize(&st)),
        bits(&fake),
        "{f} [{channels},{inner}]"
    );
}

#[test]
fn empty_tensor_roundtrips() {
    for f in Fp8Format::ALL {
        assert_per_tensor_identical(&[], &[0], f);
        let st = quantize(&[], &[0, 3], f);
        assert!(st.codes().is_empty());
        assert!(dequantize(&st).is_empty());
    }
}

#[test]
fn single_channel_matches_per_tensor_layout() {
    let data: Vec<f32> = (0..32).map(|i| (i as f32 - 15.5) * 0.21).collect();
    for f in Fp8Format::ALL {
        assert_per_channel_identical(&data, 1, 32, f);
        // One channel over the whole tensor must agree elementwise with
        // the per-tensor path (same absmax → same scale).
        let pc = quantize_per_channel(&data, &[1, 32], f);
        let pt = quantize(&data, &[1, 32], f);
        assert_eq!(bits(&dequantize(&pc)), bits(&dequantize(&pt)), "{f}");
    }
}

#[test]
fn all_zero_channel_passthrough() {
    // One dead channel, one live channel: the dead channel must keep unit
    // scale and decode back to exact zeros.
    let mut data = vec![0.0f32; 16];
    data.extend((0..16).map(|i| (i as f32 - 7.5) * 0.4));
    for f in Fp8Format::ALL {
        assert_per_channel_identical(&data, 2, 16, f);
        let st = quantize_per_channel(&data, &[2, 16], f);
        match st.scales() {
            StoredScales::PerChannel(s) => assert_eq!(s[0], 1.0, "{f} dead channel scale"),
            _ => panic!("expected per-channel scales"),
        }
        assert!(dequantize(&st)[..16].iter().all(|&v| v == 0.0), "{f}");
    }
}

#[test]
fn subnormal_only_data() {
    // Every element below each format's smallest normal: exercises the
    // subnormal encode/decode ladder and max-scaling from tiny absmax.
    for f in Fp8Format::ALL {
        let step = f.spec().min_subnormal();
        let data: Vec<f32> = (0..24)
            .map(|i| step * 0.125 * (i as f32 - 11.5) / 12.0)
            .collect();
        assert_per_tensor_identical(&data, &[24], f);
        assert_per_channel_identical(&data, 2, 12, f);
        // And f32-subnormal inputs (far below every FP8 grid point).
        let tiny: Vec<f32> = (1..9)
            .map(|i| f32::from_bits(i) * if i % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        assert_per_tensor_identical(&tiny, &[8], f);
    }
}

#[test]
fn saturating_and_mixed_magnitude_data() {
    for f in Fp8Format::ALL {
        let max_v = f.max_value();
        let data = [
            max_v * 2.0,
            -max_v,
            max_v * 0.5,
            1.0,
            -1e-6,
            0.0,
            -0.0,
            max_v * 1e4,
        ];
        assert_per_tensor_identical(&data, &[8], f);
        assert_per_channel_identical(&data, 2, 4, f);
        assert_per_channel_identical(&data, 4, 2, f);
    }
}

#[test]
fn subnormal_absmax_channel_matches_fake_quant() {
    // `max / 1e-37` overflows f32 under E5M2 and E4M3: both storage modes
    // must fall back to unit scale for that channel (zeros stay zeros).
    let data = [1e-37f32, 0.0, -1e-37, 0.0, 1.0, -0.5, 0.25, 0.0];
    for f in Fp8Format::ALL {
        assert_per_channel_identical(&data, 2, 4, f);
        assert!(dequantize(&quantize_per_channel(&data, &[2, 4], f))
            .iter()
            .all(|v| !v.is_nan()));
    }
}

/// Edge-case channels of 8 values for format `f`: NaN, ±Inf, ±0, f32 and
/// FP8 subnormals, saturating magnitudes, a subnormal absmax, and the
/// midpoints between neighbouring FP8 values (round-to-nearest-even ties
/// at unit scale: the channel's absmax is the format's max).
fn edge_channels(f: Fp8Format) -> Vec<[f32; 8]> {
    let (max_v, sub) = (f.max_value(), f.spec().min_subnormal());
    let lut = Fp8Lut::for_format(f);
    let tie = |c: u8| (lut.decode(c) + lut.decode(c + 1)) / 2.0;
    vec![
        [f32::NAN, 1.0, -2.0, 0.5, -f32::NAN, 3.0, 0.0, -0.0],
        [
            f32::INFINITY,
            -f32::INFINITY,
            1.0,
            -1.0,
            0.0,
            7.5,
            -0.25,
            2.0,
        ],
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        [
            f32::from_bits(1),
            -f32::from_bits(3),
            f32::from_bits(0x7f_ffff),
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 3.0,
            0.0,
            -f32::from_bits(0x40_0000),
            f32::from_bits(0x10),
        ],
        [
            sub,
            -sub * 0.5,
            sub * 0.25,
            sub * 0.75,
            -sub * 1.5,
            sub * 2.5,
            0.0,
            -sub,
        ],
        [
            max_v * 2.0,
            -max_v,
            max_v * 0.5,
            1.0,
            -1e-6,
            0.0,
            -0.0,
            max_v * 1e4,
        ],
        [
            1e-37,
            0.0,
            -1e-37,
            0.0,
            f32::from_bits(5),
            -0.0,
            1e-38,
            -1e-38,
        ],
        [
            max_v,
            tie(1),
            -tie(2),
            tie(9),
            -tie(17),
            tie(40),
            -tie(63),
            tie(0x6e),
        ],
    ]
}

/// Every code of `q` (coded from `data`) is the table's
/// `Fp8Lut::encode(x · s)` for its element's scale, and every scale is
/// the group's `tile_scale`.
fn assert_codes_are_table_encodes(q: &QTensor, data: &[f32], what: &str) {
    let (f, lut) = (q.format(), Fp8Lut::for_format(q.format()));
    let inner = data.len() / q.scales().len();
    for (c, chunk) in data.chunks(inner.max(1)).enumerate() {
        let s = q.scales().scale_for_channel(c);
        assert_eq!(
            s.to_bits(),
            tile_scale(f, chunk).to_bits(),
            "{f} {what} scale {c}"
        );
        for (i, &x) in chunk.iter().enumerate() {
            let code = q.codes()[c * inner + i];
            assert_eq!(
                code,
                lut.encode(x * s),
                "{f} {what}: channel {c} x={x:e} s={s:e}"
            );
        }
    }
}

#[test]
fn lane_encoded_codes_equal_the_table_encode() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for f in Fp8Format::ALL {
        let channels = edge_channels(f);
        let data: Vec<f32> = channels.iter().flatten().copied().collect();
        let n = channels.len();
        // One tensor with NaN in it (unit scale: every value coded raw),
        // each channel as its own per-tensor group, and per-channel scales.
        assert_codes_are_table_encodes(&quantize(&data, &[n, 8], f), &data, "per-tensor");
        for ch in &channels {
            assert_codes_are_table_encodes(&quantize(ch, &[8], f), ch, "one channel");
        }
        let q = quantize_per_channel(&data, &[n, 8], f);
        assert_codes_are_table_encodes(&q, &data, "per-channel");
        // Random bit patterns, 37 a channel (ragged lanes), under both layouts.
        let raw: Vec<f32> = (0..37 * 64)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits((state >> 32) as u32)
            })
            .collect();
        assert_codes_are_table_encodes(&quantize(&raw, &[64, 37], f), &raw, "raw per-tensor");
        let q = quantize_per_channel(&raw, &[64, 37], f);
        assert_codes_are_table_encodes(&q, &raw, "raw per-channel");
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tensors: per-tensor storage decode is bit-identical to the
    /// fake-quant LUT path.
    #[test]
    fn per_tensor_roundtrip_matches_fake_quant(
        f in all_formats(),
        xs in proptest::collection::vec(-1e5f32..1e5, 1..256),
    ) {
        assert_per_tensor_identical(&xs, &[xs.len()], f);
    }

    /// Random raw bit patterns (subnormals, specials, NaN) still decode to
    /// exactly what fake quantization produces.
    #[test]
    fn per_tensor_bit_patterns_match(
        f in all_formats(),
        raw in proptest::collection::vec(0u32..=u32::MAX, 1..128),
    ) {
        let xs: Vec<f32> = raw.into_iter().map(f32::from_bits).collect();
        let st = quantize(&xs, &[xs.len()], f);
        let codec = Fp8Codec::new(f);
        let mut fake = xs.clone();
        let scale = match st.scales() {
            StoredScales::PerTensor(s) => *s,
            _ => unreachable!(),
        };
        fake_quant_fp8(&mut fake, &codec, scale);
        for (i, (a, b)) in dequantize(&st).iter().zip(&fake).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{} elem {}: {:?} vs {:?}", f, i, a, b
            );
        }
    }

    /// Random shapes: per-channel storage scales and decode are
    /// bit-identical to `fake_quant_fp8_per_channel`.
    #[test]
    fn per_channel_roundtrip_matches_fake_quant(
        f in all_formats(),
        channels in 1usize..8,
        inner in 1usize..48,
        seed in 0u32..1000,
    ) {
        let n = channels * inner;
        let xs: Vec<f32> = (0..n)
            .map(|i| {
                let t = (i as f32 * 0.37 + seed as f32 * 1.13).sin();
                t * 10f32.powi((i % 9) as i32 - 4)
            })
            .collect();
        assert_per_channel_identical(&xs, channels, inner, f);
    }
}
