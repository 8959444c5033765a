//! The operand-matrix equivalence table of the MAC kernels.
//!
//! Each op has one entry point over operand views, so one table covers
//! every storage combination it executes. The path alone chooses the
//! kernel: every row under `Blocked` runs the register tile, f32 operands
//! included, and under `ScalarReference` the reference loop.
//!
//! | op           | activation(s)                 | weight  | paths     |
//! |--------------|-------------------------------|---------|-----------|
//! | conv2d       | F32, Coded                    | F32, Q  | both      |
//! | linear       | F32, Coded                    | F32, Q  | both      |
//! | depthwise    | F32                           | F32, Q  | both      |
//! | matmul       | {F32, Coded} · {F32, Coded}   | —       | both      |
//! | batch_matmul | F32 · F32                     | —       | both      |
//! | attention    | F32 q/probs · FP8 KV cache    | —       | both      |
//!
//! Every row, through both [`KernelPath`]s, must be bit-equal to the
//! `ScalarReference` f32 kernel on the dequantized operands — across the
//! three FP8 formats,
//! per-tensor / per-tile activation scales, per-tensor / per-channel
//! weight scales, shapes ragged around the register tiles (MR=4 rows;
//! 8-wide matmul/linear panels consumed in 4×16 pairs, singly, as 1×8 row
//! tiles under a short row block, and as a ragged tail; conv's 4-pixel ×
//! 16-cout and 4-pixel × 8-cout tiles over the same panels, the last one
//! padded with dead lanes, an overlapped last block on a ragged interior
//! and 1-pixel tiles with clamped taps on the borders) and an injected
//! `0 / -0 / NaN / Inf` (the matmul `av == 0.0` skip, tried with a zero
//! of the lhs over an Inf of `B` in a 4-row chunk, and every
//! `0 · Inf = NaN` are semantics the blocked kernels must preserve). The
//! `nonfinite_codes` pins hold the one difference between the users of
//! the shared register tile — matmul and batch_matmul skip a zero lhs
//! term, linear multiplies it — and conv's padding semantics (a padding
//! tap contributes no term, an in-bounds one is always multiplied) on NaN
//! and Inf weights, as codes the quantizer never emits and as f32.
//! Also covers degenerate shapes (any dim zero) that historically
//! panicked in `for_each_chunk`.

use proptest::prelude::*;
use ptq_fp8::Fp8Format;
use ptq_tensor::ops::{
    attention_step_q, attention_step_v, batch_matmul_into, conv2d_into, depthwise_conv2d_into,
    linear_into, matmul_into, ActOperand, Conv2dParams, KernelPath, KvSegments, WeightOperand,
};
use ptq_tensor::{KvBuf, KvCachePolicy, QActTensor, QTensor, Tensor, TensorRng};

const PATHS: [KernelPath; 2] = [KernelPath::Blocked, KernelPath::ScalarReference];
/// Operand kinds of a two-operand row: `(first coded?, second coded?)`.
const KINDS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// What every row must reproduce: `run` through the scalar reference.
fn oracle(run: impl FnOnce(&mut Tensor, KernelPath)) -> Tensor {
    let mut out = Tensor::default();
    run(&mut out, KernelPath::ScalarReference);
    out
}

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
    /// an FP8 weight read in place; from 4 on the tile runs on the packed
    /// panels, an FP8 weight packed through the same 8-lane block walk; 5,
    /// 9 and 17 leave a one-row tail, 16 is a prefill block), n from a
    /// single ragged panel through the 4×16 pair plus a full panel plus a
    /// ragged tail, k odd and even (the 2-`kk` unroll remainder) and ragged
    /// around the 8-code blocks of the byte transpose.
    #[test]
    fn linear_rows_match_f32_on_dequantized(
        m in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(4), Just(5), Just(8), Just(9), Just(16), Just(17)
        ],
        k in 1usize..27,
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
            let want = oracle(|o, p| linear_into(&xa.0, &wa.0, bias, o, p));
            for path in PATHS {
                let mut got = Tensor::default();
                linear_into(xa.view(), wa.view(), bias, &mut got, path);
                assert_bits_eq(&got, &want, &format!("linear coded={coded} q={q} {path}"));
            }
        }
    }

    /// matmul × {F32, Coded} lhs × {F32, Coded} rhs, shapes ragged around
    /// the 4×8 register tile, ragged tile tails when the tile divides
    /// neither k nor n. The poison lands in the lhs, whose zero-skip is
    /// semantics, and one more lhs zero — in the first 4-row chunk when
    /// m ≥ 4, where the tile tests two `kk` steps of 4 rows at once — sits
    /// over an Inf in its `B` row: a skip that fails to fire there turns
    /// `0 · Inf` into NaN (an f32 `B`; a coded one saturates the Inf).
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
        let mut b = TensorRng::seed(seed ^ 0x32).normal(&[k, n], 0.0, 1.5);
        poison(&mut a, at, poison_kind);
        let kk = (at / 4) % k;
        a.data_mut()[at % m.min(4) * k + kk] = 0.0;
        b.data_mut()[kk * n + at % n] = f32::INFINITY;
        for (ca, cb) in KINDS {
            let (aa, ba) = (Act::new(&a, ca, f, tile), Act::new(&b, cb, f, tile));
            let want = oracle(|o, p| matmul_into(&aa.0, &ba.0, o, p));
            for path in PATHS {
                let mut got = Tensor::default();
                matmul_into(aa.view(), ba.view(), &mut got, path);
                assert_bits_eq(&got, &want, &format!("matmul coded=({ca},{cb}) {path}"));
            }
        }
    }

    /// batch_matmul, f32 · f32 (the attention scores and context): an
    /// empty batch and `k = 0` included, m and n ragged around the MR=4
    /// row block and the 8-wide panels (a single ragged panel through the
    /// 4×16 pair plus a full panel plus a ragged tail). The poison lands
    /// in either operand: a zero lhs term is skipped, so a non-finite rhs
    /// value behind it contributes nothing.
    #[test]
    fn batch_matmul_rows_match_scalar_reference(
        ba in 0usize..4,
        m in 1usize..11,
        k in 0usize..14,
        n in 1usize..36,
        poison_kind in 0u8..5,
        poison_rhs in 0u8..2,
        at in 0usize..64,
        seed in 0u64..500,
    ) {
        let mut a = TensorRng::seed(seed ^ 0x51).normal(&[ba, m, k], 0.0, 1.5);
        let mut b = TensorRng::seed(seed ^ 0x52).normal(&[ba, k, n], 0.0, 1.5);
        let poisoned = if poison_rhs == 1 { &mut b } else { &mut a };
        if !poisoned.is_empty() {
            poison(poisoned, at, poison_kind);
        }
        let want = oracle(|o, p| batch_matmul_into(&a, &b, o, p));
        for path in PATHS {
            let mut got = Tensor::default();
            batch_matmul_into(&a, &b, &mut got, path);
            assert_bits_eq(&got, &want, &format!("batch_matmul {path}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// attention_step_q / attention_step_v on F32 caches and FP8 caches of
    /// every format, static or per-row scales: cache lengths ragged around
    /// the 8-position blocks (and their pairs), `dh` ragged around the
    /// 8-value blocks, a NaN/Inf row appended (a NaN code, a saturated
    /// one), exact zeros in `q` and `probs` (the skip; a whole zero row
    /// too), 1–17 rows per segment (one or several row groups, a ragged
    /// last one) alone or as `KvSegments::Many`, where one segment may hold
    /// no row. Blocked must reproduce the reference bit for bit.
    #[test]
    fn attention_steps_match_scalar_reference_on_every_cache(
        f in formats(),
        storage in 0u8..3,
        dh in prop_oneof![Just(5usize), Just(8), Just(16), Just(24)],
        heads in 1usize..3,
        seg_rows in proptest::collection::vec(1usize..18, 1..4),
        empty_seg in 0usize..4,
        lens in proptest::collection::vec(1usize..41, 3..4),
        poison_row in 0u8..2,
        many in 0u8..2,
        seed in 0u64..500,
    ) {
        let d = heads * dh;
        let segs = if many == 1 { seg_rows.len() } else { 1 };
        let policy = match storage {
            0 => KvCachePolicy::F32,
            s => KvCachePolicy::Fp8 { format: f, scale: (s == 2).then_some(3.5) },
        };
        let caches: Vec<KvBuf> = (0..segs)
            .map(|s| {
                let mut rng = TensorRng::seed(seed ^ (0x91 + s as u64));
                let mut cache = KvBuf::new(d, lens[s] + 1, policy);
                for _ in 0..lens[s] {
                    cache.append_row(rng.normal(&[d], 0.0, 1.5).data()).unwrap();
                }
                if poison_row == 1 {
                    let mut row = rng.normal(&[d], 0.0, 1.5);
                    row.data_mut()[seed as usize % d] = f32::NAN;
                    row.data_mut()[(seed as usize + 1) % d] = f32::INFINITY;
                    cache.append_row(row.data()).unwrap();
                }
                cache
            })
            .collect();
        // Under `Many`, the segment `empty_seg` (if there is one) holds no
        // row: its cache is attended by nobody.
        let mut seg_rows = seg_rows;
        if many == 1 && empty_seg < segs && segs > 1 {
            seg_rows[empty_seg] = 0;
        }
        let rows = &seg_rows[..segs];
        let m: usize = rows.iter().sum();
        let l = caches.iter().map(KvBuf::len).max().unwrap_or(0);
        let mut rng = TensorRng::seed(seed ^ 0x9f);
        let mut q = rng.normal(&[heads, m, dh], 0.0, 1.0);
        let mut probs = rng.normal(&[heads, m, l], 0.0, 1.0);
        for (i, v) in q.data_mut().iter_mut().enumerate() {
            if (i + seed as usize).is_multiple_of(5) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        // Each row's tail past its own cache is what the mask and softmax
        // leave (zeros); inside it, scattered zeros and one all-zero row.
        let row_len: Vec<usize> = (0..segs).flat_map(|s| vec![caches[s].len(); rows[s]]).collect();
        for (i, p) in probs.data_mut().chunks_mut(l).enumerate() {
            p[row_len[i % m]..].fill(0.0);
            for (j, v) in p.iter_mut().enumerate() {
                if (i * 3 + j + seed as usize).is_multiple_of(7) || i + 1 == heads * m {
                    *v = 0.0;
                }
            }
        }
        let list: Vec<(usize, &KvBuf)> = rows.iter().copied().zip(&caches).collect();
        let kv = || if many == 1 { KvSegments::Many(&list) } else { KvSegments::One(&caches[0]) };
        let (mut want_s, mut want_c) = (Tensor::default(), Tensor::default());
        attention_step_q(&q, kv(), &mut want_s, KernelPath::ScalarReference);
        attention_step_v(&probs, kv(), &mut want_c, KernelPath::ScalarReference);
        let (mut got_s, mut got_c) = (Tensor::default(), Tensor::default());
        attention_step_q(&q, kv(), &mut got_s, KernelPath::Blocked);
        attention_step_v(&probs, kv(), &mut got_c, KernelPath::Blocked);
        assert_bits_eq(&got_s, &want_s, &format!("attention_step_q {f} {policy:?}"));
        assert_bits_eq(&got_c, &want_c, &format!("attention_step_v {f} {policy:?}"));
    }
}

proptest! {
    // The conv tables cross panel mixes with row shapes: more cases than
    // the other rows need.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// depthwise × {F32, Q} weight: rows from narrower than one 8-pixel
    /// block to two blocks plus an overlapped tail, border columns and rows
    /// with clamped taps, stride 2 (every pixel alone), cout ragged around
    /// the 8-channel weight panel.
    #[test]
    fn depthwise_rows_match_f32_on_dequantized(
        ni in 1usize..3,
        c in 1usize..11,
        h in 1usize..6,
        w in 1usize..22,
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
        for q in [false, true] {
            let wa = Weight::new(&wt, q, f, per_channel == 1);
            let want = oracle(|o, path| depthwise_conv2d_into(&x, &wa.0, bias, p, o, path));
            for path in PATHS {
                let mut got = Tensor::default();
                depthwise_conv2d_into(&x, wa.view(), bias, p, &mut got, path);
                assert_bits_eq(&got, &want, &format!("depthwise q={q} {path}"));
            }
        }
    }

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
            let want = oracle(|o, path| conv2d_into(&xa.0, &wa.0, bias, p, o, path));
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
/// all-zero first operand — stored as codes, and as the f32 tensor they
/// dequantize to. Linear has no zero-skip — `0 · NaN` and `0 · Inf` are
/// NaN, bit-equal on both paths; matmul and batch_matmul skip the zero
/// lhs term and return `+0.0`. One non-finite value per reduction keeps
/// the NaN payload unambiguous.
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
                        let want = oracle(|o, p| linear_into(&x, &wd, bias, o, p));
                        assert!(want.data().iter().all(|v| v.is_nan()), "{f} reference");
                        for path in PATHS {
                            for xv in [ActOperand::F32(&x), xa.view()] {
                                for wv in [WeightOperand::Q(&q), WeightOperand::F32(&wd)] {
                                    let mut got = Tensor::default();
                                    linear_into(xv, wv, bias, &mut got, path);
                                    let q = matches!(wv, WeightOperand::Q(_));
                                    let what =
                                        format!("linear {f} q={q} pc={per_channel} m={m} {path}");
                                    assert_bits_eq(&got, &want, &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn assert_skipped(got: &Tensor, what: &str) {
        assert!(
            got.data().iter().all(|v| v.to_bits() == 0),
            "{what}: a zero lhs term is skipped, not multiplied"
        );
    }

    #[test]
    fn matmul_zero_row_times_nonfinite_rhs_keeps_the_skip() {
        for (f, code) in CODES {
            let codes = codes_with(K, N, f, code);
            let b = QActTensor::from_raw_parts(f, vec![K, N], codes, vec![2.0], 0).unwrap();
            let bd = b.dequantize();
            assert!(bd.data().iter().any(|v| !v.is_finite()));
            for m in [1usize, 4, 5] {
                let a = Act::new(&Tensor::zeros(&[m, K]), true, f, 0);
                for path in PATHS {
                    for av in [ActOperand::F32(&a.0), a.view()] {
                        for bv in [ActOperand::F32(&bd), ActOperand::Coded(&b)] {
                            let mut got = Tensor::default();
                            matmul_into(av, bv, &mut got, path);
                            assert_eq!(got.shape(), &[m, N]);
                            assert_skipped(&got, &format!("matmul {f} m={m} {path}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_matmul_zero_rows_times_nonfinite_rhs_keep_the_skip() {
        for (f, code) in CODES {
            // Two batches, the second one's non-finite values moved along.
            let mut codes = codes_with(K, N, f, code);
            codes.extend(codes_with(K, N, f, code).iter().rev());
            let b = QActTensor::from_raw_parts(f, vec![2, K, N], codes, vec![2.0], 0).unwrap();
            let bd = b.dequantize();
            for m in [1usize, 4, 5] {
                let a = Tensor::zeros(&[2, m, K]);
                for path in PATHS {
                    let mut got = Tensor::default();
                    batch_matmul_into(&a, &bd, &mut got, path);
                    assert_eq!(got.shape(), &[2, m, N]);
                    assert_skipped(&got, &format!("batch_matmul {f} m={m} {path}"));
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
    /// Coded} activation × {Q, F32} weight × {without, with} bias, each
    /// bit-equal to the reference f32 kernel on the dequantized operands
    /// and passed to `check` with its bias.
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
            for (xd, xv) in [(x, ActOperand::F32(x)), (&xa.0, xa.view())] {
                let want = oracle(|o, path| conv2d_into(xd, &wd, bias, p, o, path));
                for path in PATHS {
                    for wv in [WeightOperand::Q(q), WeightOperand::F32(&wd)] {
                        let mut got = Tensor::default();
                        conv2d_into(xv, wv, bias, p, &mut got, path);
                        let q = matches!(wv, WeightOperand::Q(_));
                        let what = format!("conv2d {f} q={q} bias={} {path}", bias.is_some());
                        assert_bits_eq(&got, &want, &what);
                        check(&got, bias, &what);
                    }
                }
            }
        }
    }

    /// A 3×3 pad-1 conv whose weight, coded or f32, is non-finite at tap
    /// `(ky 0, kx 0)`: on output row 0 and column 0 that tap lies in the
    /// padding and must
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

    #[test]
    fn f32_kernels_accept_zero_dims() {
        let z = Tensor::zeros;
        let mut out = Tensor::default();
        for path in PATHS {
            // m == 0: empty output, shape preserved.
            matmul_into(&z(&[0, 5]), &z(&[5, 3]), &mut out, path);
            assert_eq!(out.shape(), &[0, 3]);
            // k == 0: output is all +0.0 (empty reduction).
            matmul_into(&z(&[4, 0]), &z(&[0, 3]), &mut out, path);
            assert_eq!(out.shape(), &[4, 3]);
            assert!(out.data().iter().all(|&v| v.to_bits() == 0));
            // n == 0: empty output.
            matmul_into(&z(&[4, 5]), &z(&[5, 0]), &mut out, path);
            assert_eq!(out.shape(), &[4, 0]);
            linear_into(&z(&[0, 7]), &z(&[3, 7]), None, &mut out, path);
            assert_eq!(out.shape(), &[0, 3]);
            batch_matmul_into(&z(&[2, 0, 5]), &z(&[2, 5, 3]), &mut out, path);
            assert_eq!(out.shape(), &[2, 0, 3]);
            batch_matmul_into(&z(&[0, 4, 5]), &z(&[0, 5, 3]), &mut out, path);
            assert_eq!(out.shape(), &[0, 4, 3]);
            batch_matmul_into(&z(&[2, 4, 0]), &z(&[2, 0, 3]), &mut out, path);
            assert_eq!(out.shape(), &[2, 4, 3]);
            assert!(out.data().iter().all(|&v| v.to_bits() == 0));
            conv2d_into(
                &z(&[0, 3, 8, 8]),
                &z(&[2, 3, 3, 3]),
                None,
                Conv2dParams::same(3),
                &mut out,
                path,
            );
            assert_eq!(out.shape(), &[0, 2, 8, 8]);
        }
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
