//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use ptq_tensor::ops::{batch_matmul, linear, matmul, softmax_lastdim_into};
use ptq_tensor::{stats, Tensor, TensorRng};

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    TensorRng::seed(seed).normal(&[rows, cols], 0.0, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_associative(m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6, seed in 0u64..500) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 1);
        let c = tensor(n, p, seed ^ 2);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (x.abs() + y.abs() + 1.0));
        }
    }

    /// matmul distributes over addition.
    #[test]
    fn matmul_distributive(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        let a = tensor(m, k, seed);
        let b1 = tensor(k, n, seed ^ 3);
        let b2 = tensor(k, n, seed ^ 4);
        let lhs = matmul(&a, &b1.add(&b2));
        let rhs = matmul(&a, &b1).add(&matmul(&a, &b2));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (x.abs() + y.abs() + 1.0));
        }
    }

    /// linear(x, W) == matmul(x, Wᵀ) for all shapes.
    #[test]
    fn linear_is_matmul_transpose(m in 1usize..6, k in 1usize..8, n in 1usize..8, seed in 0u64..500) {
        let x = tensor(m, k, seed);
        let w = tensor(n, k, seed ^ 5);
        let y1 = linear(&x, &w, None);
        let y2 = matmul(&x, &w.transpose2());
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// batch_matmul with batch=1 equals plain matmul.
    #[test]
    fn batch_matmul_degenerates(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 6);
        let ab = matmul(&a, &b);
        let a3 = a.clone().reshape(&[1, m, k]);
        let b3 = b.clone().reshape(&[1, k, n]);
        let ab3 = batch_matmul(&a3, &b3).reshape(&[m, n]);
        prop_assert_eq!(ab3.data(), ab.data());
    }

    /// Softmax rows are probability distributions, invariant to shifts.
    #[test]
    fn softmax_properties(rows in 1usize..5, cols in 1usize..8, shift in -100.0f32..100.0, seed in 0u64..500) {
        let x = tensor(rows, cols, seed);
        let (mut s1, mut s2) = (Tensor::default(), Tensor::default());
        softmax_lastdim_into(&x, &mut s1);
        softmax_lastdim_into(&x.map(|v| v + shift), &mut s2);
        for r in 0..rows {
            let sum: f32 = s1.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for (a, b) in s1.row(r).iter().zip(s2.row(r)) {
                prop_assert!((a - b).abs() < 1e-4, "shift invariance");
            }
        }
    }

    /// Transpose is an involution; permute composes correctly.
    #[test]
    fn transpose_involution(m in 1usize..8, n in 1usize..8, seed in 0u64..500) {
        let x = tensor(m, n, seed);
        prop_assert_eq!(&x.transpose2().transpose2(), &x);
        prop_assert_eq!(&x.permute(&[1, 0]), &x.transpose2());
    }

    /// Reshape round-trips and preserves the buffer.
    #[test]
    fn reshape_roundtrip(m in 1usize..8, n in 1usize..8, seed in 0u64..500) {
        let x = tensor(m, n, seed);
        let flat = x.clone().reshape(&[m * n]);
        prop_assert_eq!(flat.data(), x.data());
        prop_assert_eq!(&flat.reshape(&[m, n]), &x);
    }

    /// Running stats merge == single pass, bit for bit.
    #[test]
    fn stats_merge_associative(a in proptest::collection::vec(-100.0f32..100.0, 0..40),
                               b in proptest::collection::vec(-100.0f32..100.0, 0..40)) {
        use ptq_tensor::TensorStats;
        let mut merged = TensorStats::of(&a);
        merged.merge(&TensorStats::of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let whole = TensorStats::of(&all);
        prop_assert_eq!(merged.count, whole.count);
        prop_assert_eq!(merged.min.to_bits(), whole.min.to_bits());
        prop_assert_eq!(merged.max.to_bits(), whole.max.to_bits());
        prop_assert_eq!(merged.absmax.to_bits(), whole.absmax.to_bits());
    }

    /// MSE is symmetric, non-negative, zero iff equal.
    #[test]
    fn mse_metric_axioms(a in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
        let b: Vec<f32> = a.iter().map(|x| x + 0.5).collect();
        prop_assert_eq!(stats::mse(&a, &a), 0.0);
        prop_assert!(stats::mse(&a, &b) > 0.0);
        prop_assert!((stats::mse(&a, &b) - stats::mse(&b, &a)).abs() < 1e-12);
    }

    /// Histogram percentile is monotone in q and bounded by the range.
    #[test]
    fn percentile_monotone(data in proptest::collection::vec(-50.0f32..50.0, 1..128)) {
        let h = ptq_tensor::Histogram::of_abs(&data, 256);
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p100 = h.percentile(1.0);
        prop_assert!(p50 <= p90 + 1e-6);
        prop_assert!(p90 <= p100 + 1e-6);
        prop_assert!(p100 <= h.bound() + 1e-6);
    }
}
