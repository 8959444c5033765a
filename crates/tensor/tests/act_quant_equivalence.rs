//! Property-based tests for the activation quantize-at-boundary path:
//! coded activations must round-trip bit-identically to the fake-quant
//! f32 reference across every format, scale granularity and tile size
//! (ragged tails included), and non-finite inputs must poison the scale
//! to 1.0 per the NaN-propagating absmax convention.

use proptest::prelude::*;
use ptq_fp8::{fake_quant_fp8, Fp8Codec, Fp8Format};
use ptq_tensor::ops::{linear, matmul};
use ptq_tensor::{fake_quant_per_tile, tile_scale, QActTensor, QTensor, TensorRng};

fn formats() -> impl Strategy<Value = Fp8Format> {
    prop_oneof![
        Just(Fp8Format::E5M2),
        Just(Fp8Format::E4M3),
        Just(Fp8Format::E3M4),
    ]
}

fn assert_bits_eq(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dynamic per-tensor quantize-at-boundary round-trips bit-identically
    /// to the in-place fake-quant reference.
    #[test]
    fn dynamic_roundtrip_matches_fake_quant(
        rows in 1usize..7,
        cols in 1usize..17,
        f in formats(),
        seed in 0u64..500,
    ) {
        let x = TensorRng::seed(seed).normal(&[rows, cols], 0.0, 2.0);
        let mut q = QActTensor::new();
        q.quantize_dynamic(&x, f);
        let mut want = x.data().to_vec();
        let s = tile_scale(f, x.data());
        fake_quant_fp8(&mut want, &Fp8Codec::new(f), s);
        assert_bits_eq(q.dequantize().data(), &want);
    }

    /// Per-tile quantization matches the shared `fake_quant_per_tile`
    /// reference for every tile size, including tiles larger than the
    /// inner dim and ragged tails.
    #[test]
    fn per_tile_roundtrip_matches_fake_quant(
        rows in 1usize..6,
        cols in 1usize..19,
        tile in 1usize..24,
        f in formats(),
        seed in 0u64..500,
    ) {
        let x = TensorRng::seed(seed ^ 0xa5).normal(&[rows, cols], 0.0, 2.0);
        let mut q = QActTensor::new();
        q.quantize_per_tile(&x, f, tile);
        let mut want = x.data().to_vec();
        fake_quant_per_tile(&mut want, cols, f, tile);
        assert_bits_eq(q.dequantize().data(), &want);
    }

    /// A non-finite value anywhere in the tensor forces the dynamic
    /// per-tensor scale to exactly 1.0 (the PR 2 convention: the
    /// NaN-propagating absmax makes `fp8_scale` fall back to unit scale).
    #[test]
    fn dynamic_nonfinite_forces_unit_scale(
        len in 1usize..64,
        at in 0usize..64,
        poison_kind in 0u8..3,
        f in formats(),
        seed in 0u64..500,
    ) {
        let at = at % len;
        let poison = match poison_kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
        let mut x = TensorRng::seed(seed ^ 0x5a).normal(&[len], 0.0, 300.0);
        x.data_mut()[at] = poison;
        prop_assert_eq!(tile_scale(f, x.data()), 1.0);
        let mut q = QActTensor::new();
        q.quantize_dynamic(&x, f);
        prop_assert_eq!(q.scales(), &[1.0f32]);
        let deq = q.dequantize();
        if poison.is_nan() {
            prop_assert!(deq.data()[at].is_nan());
        } else {
            // ±Inf saturates to the format maximum on the unit grid.
            prop_assert_eq!(deq.data()[at].abs(), f.max_value());
        }
    }

    /// A non-finite value poisons exactly its own tile's scale to 1.0;
    /// every other tile keeps its finite absmax scale.
    #[test]
    fn per_tile_nonfinite_poisons_only_its_tile(
        rows in 1usize..5,
        cols in 2usize..13,
        tile in 1usize..8,
        at in 0usize..64,
        f in formats(),
        seed in 0u64..500,
    ) {
        let mut x = TensorRng::seed(seed ^ 0x3c).normal(&[rows, cols], 0.0, 2.0);
        let at = at % (rows * cols);
        x.data_mut()[at] = f32::NAN;
        let mut q = QActTensor::new();
        q.quantize_per_tile(&x, f, tile);
        let tiles_per_row = cols.div_ceil(tile);
        let (r, c) = (at / cols, at % cols);
        let poisoned = r * tiles_per_row + c / tile;
        for (i, &s) in q.scales().iter().enumerate() {
            if i == poisoned {
                prop_assert_eq!(s, 1.0, "poisoned tile {}", i);
            } else {
                // Clean tiles use their own absmax; scale 1.0 can still
                // legitimately occur (absmax 0 or a degenerate range), so
                // only check the reference agreement below.
                prop_assert!(s.is_finite() && s > 0.0, "tile {} scale {}", i, s);
            }
        }
        let mut want = x.data().to_vec();
        fake_quant_per_tile(&mut want, cols, f, tile);
        let deq = q.dequantize();
        for (i, (g, w)) in deq.data().iter().zip(&want).enumerate() {
            if i == at {
                prop_assert!(g.is_nan() && w.is_nan());
            } else {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "element {}", i);
            }
        }
    }

    /// linear over coded operands is bit-identical to linear over their
    /// dequantized forms — the fused decode-accumulate never reorders the
    /// MAC loop.
    #[test]
    fn coded_linear_matches_dequantized_reference(
        m in 1usize..5,
        k in 1usize..12,
        n in 1usize..6,
        tile in 0usize..9,
        f in formats(),
        seed in 0u64..500,
    ) {
        let x = TensorRng::seed(seed ^ 0x77).normal(&[m, k], 0.0, 1.0);
        let w = TensorRng::seed(seed ^ 0x78).normal(&[n, k], 0.0, 1.0);
        let qw = QTensor::quantize_per_channel(&w, f).unwrap();
        let mut qx = QActTensor::new();
        if tile == 0 {
            qx.quantize_dynamic(&x, f);
        } else {
            qx.quantize_per_tile(&x, f, tile);
        }
        let got = linear(&qx, &qw, None);
        let want = linear(&qx.dequantize(), &qw.dequantize(), None);
        assert_bits_eq(got.data(), want.data());
    }

    /// matmul over two coded operands is bit-identical to matmul over
    /// their dequantized forms.
    #[test]
    fn coded_matmul_matches_dequantized_reference(
        m in 1usize..5,
        k in 1usize..10,
        n in 1usize..6,
        tile in 0usize..7,
        f in formats(),
        seed in 0u64..500,
    ) {
        let a = TensorRng::seed(seed ^ 0x79).normal(&[m, k], 0.0, 1.0);
        let b = TensorRng::seed(seed ^ 0x7a).normal(&[k, n], 0.0, 1.0);
        let (mut qa, mut qb) = (QActTensor::new(), QActTensor::new());
        if tile == 0 {
            qa.quantize_dynamic(&a, f);
            qb.quantize_dynamic(&b, f);
        } else {
            qa.quantize_per_tile(&a, f, tile);
            qb.quantize_per_tile(&b, f, tile);
        }
        let got = matmul(&qa, &qb);
        let want = matmul(&qa.dequantize(), &qb.dequantize());
        assert_bits_eq(got.data(), want.data());
    }
}
