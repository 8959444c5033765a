//! StoredTensor ⇔ fake-quantization equivalence suite.
//!
//! Real FP8 storage (`StoredTensor`: u8 codes + scales) must round-trip to
//! exactly the values fake quantization computes in f32 — that identity is
//! what lets the fused execution kernels replace the fake-quant path
//! bit-for-bit. These tests enforce `quantize → dequantize` ==
//! `fake_quant_fp8` / `_per_channel` across all three formats,
//! deterministically on the known hard cases and probabilistically over
//! random tensors.

use proptest::prelude::*;
use ptq_fp8::{
    fake_quant_fp8, fake_quant_fp8_per_channel, Fp8Codec, Fp8Format, StoredScales, StoredTensor,
};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-tensor storage round-trip vs the fake-quant reference.
fn assert_per_tensor_identical(data: &[f32], shape: &[usize], f: Fp8Format) {
    let st = StoredTensor::quantize(data, shape, f).unwrap();
    let codec = Fp8Codec::new(f);
    let mut fake = data.to_vec();
    let scale = match st.scales() {
        StoredScales::PerTensor(s) => *s,
        _ => panic!("expected per-tensor scales"),
    };
    fake_quant_fp8(&mut fake, &codec, scale);
    assert_eq!(bits(&st.dequantize()), bits(&fake), "{f} {shape:?}");
}

/// Per-channel storage round-trip vs the fake-quant reference; also
/// checks the stored scales match the fake-quant scales bit-for-bit.
fn assert_per_channel_identical(data: &[f32], channels: usize, inner: usize, f: Fp8Format) {
    let st = StoredTensor::quantize_per_channel(data, &[channels, inner], f).unwrap();
    let codec = Fp8Codec::new(f);
    let mut fake = data.to_vec();
    let (fake_scales, _) = fake_quant_fp8_per_channel(&mut fake, &codec, channels, inner);
    match st.scales() {
        StoredScales::PerChannel(s) => assert_eq!(bits(s), bits(&fake_scales), "{f} scales"),
        _ => panic!("expected per-channel scales"),
    }
    assert_eq!(
        bits(&st.dequantize()),
        bits(&fake),
        "{f} [{channels},{inner}]"
    );
}

#[test]
fn empty_tensor_roundtrips() {
    for f in Fp8Format::ALL {
        assert_per_tensor_identical(&[], &[0], f);
        let st = StoredTensor::quantize(&[], &[0, 3], f).unwrap();
        assert!(st.bytes().is_empty());
        assert!(st.dequantize().is_empty());
    }
}

#[test]
fn single_channel_matches_per_tensor_layout() {
    let data: Vec<f32> = (0..32).map(|i| (i as f32 - 15.5) * 0.21).collect();
    for f in Fp8Format::ALL {
        assert_per_channel_identical(&data, 1, 32, f);
        // One channel over the whole tensor must agree elementwise with
        // the per-tensor path (same absmax → same scale).
        let pc = StoredTensor::quantize_per_channel(&data, &[1, 32], f).unwrap();
        let pt = StoredTensor::quantize(&data, &[1, 32], f).unwrap();
        assert_eq!(bits(&pc.dequantize()), bits(&pt.dequantize()), "{f}");
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
        let st = StoredTensor::quantize_per_channel(&data, &[2, 16], f).unwrap();
        match st.scales() {
            StoredScales::PerChannel(s) => assert_eq!(s[0], 1.0, "{f} dead channel scale"),
            _ => panic!("expected per-channel scales"),
        }
        assert!(st.dequantize()[..16].iter().all(|&v| v == 0.0), "{f}");
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
        let st = StoredTensor::quantize(&xs, &[xs.len()], f).unwrap();
        let codec = Fp8Codec::new(f);
        let mut fake = xs.clone();
        let scale = match st.scales() {
            StoredScales::PerTensor(s) => *s,
            _ => unreachable!(),
        };
        fake_quant_fp8(&mut fake, &codec, scale);
        for (i, (a, b)) in st.dequantize().iter().zip(&fake).enumerate() {
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
