//! The operand-matrix equivalence table of the MAC kernels.
//!
//! Each op has one entry point over operand views, so one table covers
//! every storage combination it executes:
//!
//! | op        | activation(s)                 | weight  |
//! |-----------|-------------------------------|---------|
//! | conv2d    | F32, Coded                    | F32, Q  |
//! | linear    | F32, Coded                    | F32, Q  |
//! | depthwise | F32                           | F32, Q  |
//! | matmul    | {F32, Coded} · {F32, Coded}   | —       |
//!
//! Every row, through both [`KernelPath`]s, must be bit-equal to the f32
//! kernel on the dequantized operands — across the three FP8 formats,
//! per-tensor / per-tile activation scales, per-tensor / per-channel
//! weight scales, shapes ragged around the register tiles (MR=4 rows;
//! 8-wide matmul/linear panels consumed in 4×16 pairs, singly, as 1×8 row
//! tiles under a short row block, and as a ragged tail; conv's 4-pixel ×
//! 16-cout and 4-pixel × 8-cout tiles over the same panels, the last one
//! padded with dead lanes, an overlapped last block on a ragged interior
//! and 1-pixel tiles with clamped taps on the borders) and an injected
//! `0 / -0 / NaN / Inf` (the matmul `av == 0.0` skip and every
//! `0 · Inf = NaN` are semantics the blocked kernels must preserve). The
//! `nonfinite_codes` pins hold the one difference between the two users of
//! the shared register tile — matmul skips a zero lhs term, linear
//! multiplies it — and conv's padding semantics (a padding tap contributes
//! no term, an in-bounds one is always multiplied) on weights the
//! quantizer never emits.
//! Also covers degenerate shapes (any dim zero) that historically
//! panicked in `for_each_chunk`.

use proptest::prelude::*;
use ptq_fp8::Fp8Format;
use ptq_tensor::ops::{
    conv2d, conv2d_into, depthwise_conv2d, linear, linear_into, matmul, matmul_into, ActOperand,
    Conv2dParams, KernelPath, WeightOperand,
};
use ptq_tensor::{QActTensor, QTensor, Tensor, TensorRng};

const PATHS: [KernelPath; 2] = [KernelPath::Blocked, KernelPath::ScalarReference];
/// Operand kinds of a two-operand row: `(first coded?, second coded?)`.
const KINDS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn formats() -> impl Strategy<Value = Fp8Format> {
    prop_oneof![
        Just(Fp8Format::E5M2),
        Just(Fp8Format::E4M3),
        Just(Fp8Format::E3M4),
    ]
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Overwrite one element with `0 / -0 / NaN / Inf` (`kind` 4 leaves the
/// data clean) and a neighbour with an exact zero, so skip and poison
/// interact. One poisoned operand per case keeps NaN payloads
/// unambiguous.
fn poison(t: &mut Tensor, at: usize, kind: u8) {
    let value = match kind {
        0 => 0.0f32,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        _ => return,
    };
    let len = t.len();
    t.data_mut()[at % len] = value;
    t.data_mut()[(at + 1) % len] = 0.0;
}

/// An activation as a row reads it: its dequantized f32 value, and the
/// codes when the row codes it (per-tensor for `tile == 0`, else
/// per-tile).
struct Act(Tensor, Option<QActTensor>);

impl Act {
    fn new(x: &Tensor, coded: bool, f: Fp8Format, tile: usize) -> Self {
        if !coded {
            return Act(x.clone(), None);
        }
        let mut q = QActTensor::new();
        if tile == 0 {
            q.quantize_dynamic(x, f);
        } else {
            q.quantize_per_tile(x, f, tile);
        }
        Act(q.dequantize(), Some(q))
    }

    fn view(&self) -> ActOperand<'_> {
        self.1
            .as_ref()
            .map_or(ActOperand::F32(&self.0), ActOperand::Coded)
    }
}

/// A weight as a row reads it: its dequantized f32 value, and the
/// [`QTensor`] when the row stores it as FP8.
struct Weight(Tensor, Option<QTensor>);

impl Weight {
    fn new(w: &Tensor, q: bool, f: Fp8Format, per_channel: bool) -> Self {
        if !q {
            return Weight(w.clone(), None);
        }
        let q = if per_channel {
            QTensor::quantize_per_channel(w, f).unwrap()
        } else {
            QTensor::quantize(w, f).unwrap()
        };
        Weight(q.dequantize(), Some(q))
    }

    fn view(&self) -> WeightOperand<'_> {
        self.1
            .as_ref()
            .map_or(WeightOperand::F32(&self.0), WeightOperand::Q)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// linear × {F32, Coded} act × {F32, Q} weight, with and without
    /// bias: m on both sides of the MR=4 row block (1..3 run the row tile,
    /// 5 and 9 leave a one-row tail), n from a single ragged panel through
    /// the 4×16 pair plus a full panel plus a ragged tail, k odd and even
    /// (the 2-`kk` unroll remainder).
    #[test]
    fn linear_rows_match_f32_on_dequantized(
        m in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(5), Just(8), Just(9)],
        k in 1usize..16,
        n in 1usize..36,
        tile in 0usize..9,
        per_channel in 0u8..2,
        with_bias in 0u8..2,
        poison_kind in 0u8..5,
        poison_weight in 0u8..2,
        at in 0usize..64,
        f in formats(),
        seed in 0u64..500,
    ) {
        let mut x = TensorRng::seed(seed ^ 0x41).normal(&[m, k], 0.0, 1.5);
        let mut w = TensorRng::seed(seed ^ 0x42).normal(&[n, k], 0.0, 1.5);
        poison(if poison_weight == 1 { &mut w } else { &mut x }, at, poison_kind);
        let bias = TensorRng::seed(seed ^ 0x43).normal(&[n], 0.0, 1.0);
        let bias = (with_bias == 1).then_some(&bias);
        for (coded, q) in KINDS {
            let (xa, wa) = (Act::new(&x, coded, f, tile), Weight::new(&w, q, f, per_channel == 1));
            let want = linear(&xa.0, &wa.0, bias);
            for path in PATHS {
                let mut got = Tensor::default();
                linear_into(xa.view(), wa.view(), bias, &mut got, path);
                assert_bits_eq(&got, &want, &format!("linear coded={coded} q={q} {path}"));
            }
        }
    }

    /// depthwise × {F32, Q} weight (one kernel, no path).
    #[test]
    fn depthwise_rows_match_f32_on_dequantized(
        ni in 1usize..3,
        c in 1usize..6,
        h in 1usize..9,
        w in 1usize..9,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        per_channel in 0u8..2,
        with_bias in 0u8..2,
        poison_kind in 0u8..5,
        poison_weight in 0u8..2,
        at in 0usize..64,
        f in formats(),
        seed in 0u64..500,
    ) {
        let kh = kh.min(h + 2 * padding);
        let kw = kw.min(w + 2 * padding);
        let mut x = TensorRng::seed(seed ^ 0x81).normal(&[ni, c, h, w], 0.0, 1.5);
        let mut wt = TensorRng::seed(seed ^ 0x82).normal(&[c, 1, kh, kw], 0.0, 1.5);
        poison(if poison_weight == 1 { &mut wt } else { &mut x }, at, poison_kind);
        let bias = TensorRng::seed(seed ^ 0x83).normal(&[c], 0.0, 1.0);
        let bias = (with_bias == 1).then_some(&bias);
        let p = Conv2dParams { stride, padding };
        let wa = Weight::new(&wt, true, f, per_channel == 1);
        let want = depthwise_conv2d(&x, &wa.0, bias, p);
        let got = depthwise_conv2d(&x, wa.view(), bias, p);
        assert_bits_eq(&got, &want, "depthwise q");
    }

    /// matmul × {F32, Coded} lhs × {F32, Coded} rhs, shapes ragged around
    /// the 4×8 register tile, ragged tile tails when the tile divides
    /// neither k nor n. The poison lands in the lhs, whose zero-skip is
    /// semantics.
    #[test]
    fn matmul_rows_match_f32_on_dequantized(
        m in 1usize..11,
        k in 1usize..14,
        n in 1usize..19,
        tile in 0usize..9,
        poison_kind in 0u8..5,
        at in 0usize..64,
        f in formats(),
        seed in 0u64..500,
    ) {
        let mut a = TensorRng::seed(seed ^ 0x31).normal(&[m, k], 0.0, 1.5);
        let b = TensorRng::seed(seed ^ 0x32).normal(&[k, n], 0.0, 1.5);
        poison(&mut a, at, poison_kind);
        for (ca, cb) in KINDS {
            let (aa, ba) = (Act::new(&a, ca, f, tile), Act::new(&b, cb, f, tile));
            let want = matmul(&aa.0, &ba.0);
            for path in PATHS {
                let mut got = Tensor::default();
                matmul_into(aa.view(), ba.view(), &mut got, path);
                assert_bits_eq(&got, &want, &format!("matmul coded=({ca},{cb}) {path}"));
            }
        }
    }
}

proptest! {
    // The conv table crosses panel mixes with row shapes: more cases than
    // the other rows need.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// conv2d × {F32, Coded} act × {F32, Q} weight: every border/interior
    /// split the blocked kernel makes (padding that clips ky rows and kx
    /// columns, up to stride 2 under padding 2, rows from narrower than
    /// one 4-pixel block to two full blocks plus an overlapped tail) and
    /// every panel mix (cout 1..7 a padded panel alone, 8 a full one, 9..15
    /// full + padded as a pair, 16 a full pair, 17..19 a pair plus a padded
    /// panel).
    #[test]
    fn conv2d_rows_match_f32_on_dequantized(
        ni in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..20,
        h in 1usize..15,
        w in 1usize..15,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        tile in 0usize..7,
        per_channel in 0u8..2,
        with_bias in 0u8..2,
        poison_kind in 0u8..5,
        poison_weight in 0u8..2,
        at in 0usize..64,
        f in formats(),
        seed in 0u64..500,
    ) {
        // The kernel must fit the padded input (a kernel precondition).
        let kh = kh.min(h + 2 * padding);
        let kw = kw.min(w + 2 * padding);
        let mut x = TensorRng::seed(seed ^ 0x61).normal(&[ni, cin, h, w], 0.0, 1.5);
        let mut wt = TensorRng::seed(seed ^ 0x62).normal(&[cout, cin, kh, kw], 0.0, 1.5);
        poison(if poison_weight == 1 { &mut wt } else { &mut x }, at, poison_kind);
        let bias = TensorRng::seed(seed ^ 0x63).normal(&[cout], 0.0, 1.0);
        let bias = (with_bias == 1).then_some(&bias);
        let p = Conv2dParams { stride, padding };
        for (coded, q) in KINDS {
            let (xa, wa) = (Act::new(&x, coded, f, tile), Weight::new(&wt, q, f, per_channel == 1));
            let want = conv2d(&xa.0, &wa.0, bias, p);
            for path in PATHS {
                let mut got = Tensor::default();
                conv2d_into(xa.view(), wa.view(), bias, p, &mut got, path);
                assert_bits_eq(&got, &want, &format!("conv2d coded={coded} q={q} {path}"));
            }
        }
    }
}

/// Codes no quantizer emits (it saturates), so the proptests cannot reach
/// them: a NaN code and an Inf code in the second operand against an
/// all-zero first operand. Linear has no zero-skip — `0 · NaN` and
/// `0 · Inf` are NaN, bit-equal on both paths; matmul skips the zero lhs
/// term and returns `+0.0`. One non-finite code per reduction keeps the
/// NaN payload unambiguous.
mod nonfinite_codes {
    use super::*;
    use ptq_fp8::StoredScales;

    /// NaN in E4M3, +Inf in E5M2.
    const CODES: [(Fp8Format, u8); 2] = [(Fp8Format::E4M3, 0x7F), (Fp8Format::E5M2, 0x7C)];
    /// 4×16 pair + one full panel + a ragged tail of 3.
    const N: usize = 27;
    /// Odd: the 2-`kk` unroll leaves a remainder step.
    const K: usize = 5;

    /// `[rows, cols]` codes of `1.0` with `code` once per row, at a
    /// position that moves with the row.
    fn codes_with(rows: usize, cols: usize, f: Fp8Format, code: u8) -> Vec<u8> {
        let one = QTensor::quantize(&Tensor::ones(&[1]), f).unwrap().codes()[0];
        let mut codes = vec![one; rows * cols];
        for r in 0..rows {
            codes[r * cols + r % cols] = code;
        }
        codes
    }

    #[test]
    fn linear_zero_row_times_nonfinite_weight_is_nan_on_both_paths() {
        let bias = TensorRng::seed(3).normal(&[N], 0.0, 1.0);
        for (f, code) in CODES {
            for per_channel in [false, true] {
                let scales = if per_channel {
                    StoredScales::PerChannel((0..N).map(|j| 1.0 + 0.5 * j as f32).collect())
                } else {
                    StoredScales::PerTensor(2.0)
                };
                let codes = codes_with(N, K, f, code);
                let q = QTensor::from_raw_parts(f, vec![N, K], codes.into(), scales).unwrap();
                let wd = q.dequantize();
                // m = 5: one full row block and a one-row tail.
                for m in [1usize, 4, 5] {
                    let x = Tensor::zeros(&[m, K]);
                    let xa = Act::new(&x, true, f, 0);
                    for bias in [None, Some(&bias)] {
                        let want = linear(&x, &wd, bias);
                        assert!(want.data().iter().all(|v| v.is_nan()), "{f} reference");
                        for path in PATHS {
                            for xv in [ActOperand::F32(&x), xa.view()] {
                                let mut got = Tensor::default();
                                linear_into(xv, &q, bias, &mut got, path);
                                let what = format!("linear {f} pc={per_channel} m={m} {path}");
                                assert_bits_eq(&got, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_zero_row_times_nonfinite_rhs_keeps_the_skip() {
        for (f, code) in CODES {
            let codes = codes_with(K, N, f, code);
            let b = QActTensor::from_raw_parts(f, vec![K, N], codes, vec![2.0], 0).unwrap();
            assert!(b.dequantize().data().iter().any(|v| !v.is_finite()));
            for m in [1usize, 4, 5] {
                let a = Act::new(&Tensor::zeros(&[m, K]), true, f, 0);
                for path in PATHS {
                    let mut got = Tensor::default();
                    matmul_into(a.view(), &b, &mut got, path);
                    assert_eq!(got.shape(), &[m, N]);
                    assert!(
                        got.data().iter().all(|v| v.to_bits() == 0),
                        "matmul {f} m={m} {path}: a zero lhs term is skipped, not multiplied"
                    );
                }
            }
        }
    }

    /// `[cout, cin, 3, 3]` codes of `1.0` with `code` at tap `(ci 0, ky 0,
    /// kx 0)` of every output channel — one per reduction.
    fn conv_weight(cout: usize, cin: usize, f: Fp8Format, code: u8, per_channel: bool) -> QTensor {
        let one = QTensor::quantize(&Tensor::ones(&[1]), f).unwrap().codes()[0];
        let mut codes = vec![one; cout * cin * 9];
        for co in 0..cout {
            codes[co * cin * 9] = code;
        }
        let scales = if per_channel {
            StoredScales::PerChannel((0..cout).map(|j| 1.0 + 0.5 * j as f32).collect())
        } else {
            StoredScales::PerTensor(2.0)
        };
        QTensor::from_raw_parts(f, vec![cout, cin, 3, 3], codes.into(), scales).unwrap()
    }

    /// Every conv row of the operand table on `x`, `q`: both paths × {F32,
    /// Coded} activation × {without, with} bias, each bit-equal to the f32
    /// kernel on the dequantized operands and passed to `check` with its
    /// bias.
    fn conv_rows(
        x: &Tensor,
        q: &QTensor,
        p: Conv2dParams,
        bias: &Tensor,
        check: impl Fn(&Tensor, Option<&Tensor>, &str),
    ) {
        let (wd, f) = (q.dequantize(), q.format());
        let xa = Act::new(x, true, f, 0);
        for bias in [None, Some(bias)] {
            for path in PATHS {
                for (xd, xv) in [(x, ActOperand::F32(x)), (&xa.0, xa.view())] {
                    let mut got = Tensor::default();
                    conv2d_into(xv, q, bias, p, &mut got, path);
                    let what = format!("conv2d {f} bias={} {path}", bias.is_some());
                    assert_bits_eq(&got, &conv2d(xd, &wd, bias, p), &what);
                    check(&got, bias, &what);
                }
            }
        }
    }

    /// A 3×3 pad-1 conv whose weight is non-finite at tap `(ky 0, kx 0)`:
    /// on output row 0 and column 0 that tap lies in the padding and must
    /// contribute nothing — a staged zero would make `0 · NaN` — while
    /// everywhere else it is multiplied, over a zero activation too (conv
    /// has no zero-skip: `0 · Inf = NaN`). 9 channels = a full panel paired
    /// with a padded one, 7 columns = a block plus an overlapped tail.
    #[test]
    fn conv_nonfinite_weight_under_padding_contributes_no_term() {
        let bias = TensorRng::seed(5).normal(&[9], 0.0, 1.0);
        let p = Conv2dParams::same(3);
        for (f, code) in CODES {
            for per_channel in [false, true] {
                let q = conv_weight(9, 2, f, code, per_channel);
                for x in [Tensor::zeros(&[2, 2, 5, 7]), Tensor::ones(&[2, 2, 5, 7])] {
                    let zero_x = x.data()[0] == 0.0;
                    conv_rows(&x, &q, p, &bias, |got, _, what| {
                        for (i, v) in got.data().iter().enumerate() {
                            let (oy, ox) = (i / 7 % 5, i % 7);
                            if oy == 0 || ox == 0 {
                                assert!(v.is_finite(), "{what}: ({oy},{ox}) reads padding: {v}");
                            } else if zero_x {
                                assert!(v.is_nan(), "{what}: ({oy},{ox}) is 0 · non-finite: {v}");
                            } else {
                                assert!(!v.is_finite(), "{what}: ({oy},{ox}) in bounds: {v}");
                            }
                        }
                    });
                }
            }
        }
    }

    /// `padding >= kernel`: the outer ring of windows lies wholly in the
    /// padding and returns the bias bit pattern — `-0.0` included, `+0.0`
    /// without a bias — whatever the weight holds.
    #[test]
    fn conv_window_wholly_in_padding_returns_the_bias_bits() {
        let mut bias = TensorRng::seed(6).normal(&[9], 0.0, 1.0);
        bias.data_mut()[0] = -0.0;
        bias.data_mut()[8] = -0.0;
        let p = Conv2dParams {
            stride: 1,
            padding: 3,
        };
        let x = TensorRng::seed(7).normal(&[1, 2, 4, 6], 0.0, 1.0);
        for (f, code) in CODES {
            let q = conv_weight(9, 2, f, code, true);
            conv_rows(&x, &q, p, &bias, |got, bias, what| {
                let (oh, ow) = (got.dim(2), got.dim(3));
                for (i, v) in got.data().iter().enumerate() {
                    let (co, oy, ox) = (i / (oh * ow), i / ow % oh, i % ow);
                    if oy == 0 || oy == oh - 1 || ox == 0 || ox == ow - 1 {
                        let want = bias.map_or(0.0, |b| b.data()[co]);
                        assert_eq!(v.to_bits(), want.to_bits(), "{what}: ({co},{oy},{ox})");
                    }
                }
            });
        }
    }
}

/// Degenerate shapes (a zero dim anywhere the types can express one) must
/// produce an empty or all-bias output without panicking on either path.
/// `for_each_chunk` once hit `chunks_mut(0)` and panicked.
mod degenerate {
    use super::*;
    use ptq_tensor::ops::batch_matmul;

    #[test]
    fn f32_kernels_accept_zero_dims() {
        // m == 0: empty output, shape preserved.
        let out = matmul(&Tensor::zeros(&[0, 5]), &Tensor::zeros(&[5, 3]));
        assert_eq!(out.shape(), &[0, 3]);
        // k == 0: output is all zeros (empty reduction).
        let out = matmul(&Tensor::zeros(&[4, 0]), &Tensor::zeros(&[0, 3]));
        assert_eq!(out.shape(), &[4, 3]);
        assert!(out.data().iter().all(|&v| v == 0.0));
        // n == 0: empty output.
        let out = matmul(&Tensor::zeros(&[4, 5]), &Tensor::zeros(&[5, 0]));
        assert_eq!(out.shape(), &[4, 0]);
        let out = linear(&Tensor::zeros(&[0, 7]), &Tensor::zeros(&[3, 7]), None);
        assert_eq!(out.shape(), &[0, 3]);
        let out = batch_matmul(&Tensor::zeros(&[2, 0, 5]), &Tensor::zeros(&[2, 5, 3]));
        assert_eq!(out.shape(), &[2, 0, 3]);
        let out = batch_matmul(&Tensor::zeros(&[0, 4, 5]), &Tensor::zeros(&[0, 5, 3]));
        assert_eq!(out.shape(), &[0, 4, 3]);
    }

    #[test]
    fn quantized_kernels_accept_empty_activations() {
        let f = Fp8Format::E4M3;
        let w = TensorRng::seed(9).normal(&[3, 7], 0.0, 1.0);
        let qw = QTensor::quantize_per_channel(&w, f).unwrap();
        let empty = Tensor::zeros(&[0, 7]);
        let mut qempty = QActTensor::new();
        qempty.quantize_dynamic(&empty, f);
        for path in PATHS {
            let mut out = Tensor::default();
            linear_into(&empty, &qw, None, &mut out, path);
            assert_eq!(out.shape(), &[0, 3]);
            linear_into(&qempty, &qw, None, &mut out, path);
            assert_eq!(out.shape(), &[0, 3]);
        }
    }

    #[test]
    fn coded_matmul_zero_inner_dim_yields_zeros() {
        // k == 0 through the fully-coded path: dynamic quantization of an
        // empty tensor falls back to unit scale and the empty reduction
        // leaves the zero-filled output untouched.
        let f = Fp8Format::E5M2;
        let (mut qa, mut qb) = (QActTensor::new(), QActTensor::new());
        qa.quantize_dynamic(&Tensor::zeros(&[4, 0]), f);
        qb.quantize_dynamic(&Tensor::zeros(&[0, 3]), f);
        for path in PATHS {
            let mut out = Tensor::default();
            matmul_into(&qa, &qb, &mut out, path);
            assert_eq!(out.shape(), &[4, 3]);
            assert!(out.data().iter().all(|&v| v.to_bits() == 0));
        }
    }

    #[test]
    fn q_weight_conv2d_accepts_empty_batch() {
        let f = Fp8Format::E3M4;
        let wt = TensorRng::seed(11).normal(&[2, 3, 3, 3], 0.0, 1.0);
        let qw = QTensor::quantize_per_channel(&wt, f).unwrap();
        let x = Tensor::zeros(&[0, 3, 8, 8]);
        let mut qx = QActTensor::new();
        qx.quantize_dynamic(&x, f);
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        for path in PATHS {
            let mut out = Tensor::default();
            conv2d_into(&x, &qw, None, p, &mut out, path);
            assert_eq!(out.shape(), &[0, 2, 8, 8]);
            conv2d_into(&qx, &qw, None, p, &mut out, path);
            assert_eq!(out.shape(), &[0, 2, 8, 8]);
        }
    }
}
