//! Borrowed operand views of the MAC kernels: one entry point per op over
//! these views, not one per storage combination (`From<&…>` makes
//! `ops::linear(&x, &w, None)` compile for every operand kind). Kernels
//! read activations through the private [`Rows`] trait, monomorphized per
//! source (borrowed rows, or codes decoded a block at a time). The blocked
//! kernels pack a weight into panels per call (short rows read FP8 codes in
//! place) unless the caller packed it once for many calls
//! ([`PackedWeight`]); the reference loops read it dense
//! ([`WeightOperand::with_dense`]). No f32 form of a coded operand the
//! caller did not pack outlives its kernel call.

use super::blocked::{decode_pack_weights, NRM};
use super::scratch;
use crate::act::{ActDecode, QActTensor};
use crate::qtensor::QTensor;
use crate::tensor::Tensor;

/// An activation operand: dense f32, or FP8 codes that the kernel decodes
/// (`lut.decode(code) / scale`, per element) into pooled scratch just
/// before the MAC loop reads them.
#[derive(Debug, Clone, Copy)]
pub enum ActOperand<'a> {
    /// A dense f32 tensor, read in place.
    F32(&'a Tensor),
    /// FP8 activation codes; the dense form never crosses the op boundary.
    Coded(&'a QActTensor),
}

/// A weight operand: dense f32, or an FP8-stored [`QTensor`] whose codes
/// the kernel decodes (`lut.decode(code) / scale(channel)`, one division
/// per element, never a reciprocal multiply and never hoisted out of the
/// accumulation) into pooled panels at the start of the call, 8 lanes at a
/// time — or, under fewer than 4 rows, beside the chain.
#[derive(Debug, Clone, Copy)]
pub enum WeightOperand<'a> {
    /// A dense f32 tensor, read in place.
    F32(&'a Tensor),
    /// FP8 weight codes with per-tensor or per-channel scales.
    Q(&'a QTensor),
    /// A weight already in the blocked kernels' column panels.
    Packed(&'a PackedWeight),
}

/// A weight in the blocked kernels' column panels, built once by
/// [`PackedWeight::pack`] for a caller that runs it many times: the values
/// a per-call pack writes (an f32 weight copied, an FP8 one
/// `lut.decode(code) / scale(channel)`), so a kernel reading it gives the
/// bits of one that packs per call. The weight is viewed as `[n, k]`, `n`
/// its first dim: panel `p` holds rows `p·NRM ..` as `k` runs of `NRM`
/// lanes, a ragged last panel's dead lanes repeating row `n − 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeight {
    pub(super) panels: Vec<f32>,
    shape: Vec<usize>,
}

impl PackedWeight {
    /// Pack any weight: the one place a weight is packed ahead of its calls.
    pub fn pack(weight: WeightOperand<'_>) -> Self {
        let shape = weight.shape().to_vec();
        let n = shape.first().copied().unwrap_or(1).max(1);
        let k = shape.iter().product::<usize>() / n;
        let mut panels = vec![0.0; n.next_multiple_of(NRM) * k];
        decode_pack_weights(weight, k, n, &mut panels);
        PackedWeight { panels, shape }
    }
}

impl<'a> From<&'a Tensor> for ActOperand<'a> {
    fn from(t: &'a Tensor) -> Self {
        ActOperand::F32(t)
    }
}

impl<'a> From<&'a QActTensor> for ActOperand<'a> {
    fn from(q: &'a QActTensor) -> Self {
        ActOperand::Coded(q)
    }
}

impl<'a> From<&'a Tensor> for WeightOperand<'a> {
    fn from(t: &'a Tensor) -> Self {
        WeightOperand::F32(t)
    }
}

impl<'a> From<&'a QTensor> for WeightOperand<'a> {
    fn from(q: &'a QTensor) -> Self {
        WeightOperand::Q(q)
    }
}

impl ActOperand<'_> {
    /// Shape of the viewed tensor.
    pub fn shape(&self) -> &[usize] {
        match self {
            ActOperand::F32(t) => t.shape(),
            ActOperand::Coded(q) => q.shape(),
        }
    }
}

impl WeightOperand<'_> {
    /// Shape of the viewed tensor.
    pub fn shape(&self) -> &[usize] {
        match self {
            WeightOperand::F32(t) => t.shape(),
            WeightOperand::Q(q) => q.shape(),
            WeightOperand::Packed(p) => &p.shape,
        }
    }

    /// Run `f` on the whole weight as dense row-major f32, as the
    /// `ScalarReference` loops read it: borrowed, or decoded (read back out
    /// of its panels) into the call-wide panel for the duration of `f`.
    pub(super) fn with_dense<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        match self {
            WeightOperand::F32(t) => f(t.data()),
            WeightOperand::Q(q) => scratch::with_panel(q.len(), |wf| {
                q.decode_into(wf);
                f(wf)
            }),
            WeightOperand::Packed(p) => scratch::with_panel(p.shape.iter().product(), |wf| {
                let k = wf.len() / p.shape[0].max(1);
                for (j, row) in wf.chunks_exact_mut(k.max(1)).enumerate() {
                    let panel = &p.panels[(j - j % NRM) * k..];
                    for (kk, v) in row.iter_mut().enumerate() {
                        *v = panel[kk * NRM + j % NRM];
                    }
                }
                f(wf)
            }),
        }
    }
}

/// Evaluate `$body` with `$rows` bound to the operand's [`Rows`] source —
/// once per operand kind, so `$body` is monomorphized for each.
macro_rules! with_rows {
    ($x:expr, |$rows:ident| $body:expr) => {
        match $x {
            $crate::ops::ActOperand::F32(t) => {
                let $rows = t.data();
                $body
            }
            $crate::ops::ActOperand::Coded(q) => {
                let $rows = &q.decoder();
                $body
            }
        }
    };
}

pub(super) use with_rows;

/// Where a kernel's f32 activation values come from: borrowed from a
/// dense tensor, or decoded from codes into per-thread pooled scratch.
pub(super) trait Rows: Sync {
    /// Run `f` on elements `start .. start + len`, the range one chunk
    /// reads (a block of rows, a conv image).
    fn with<R>(&self, start: usize, len: usize, f: impl FnOnce(&[f32]) -> R) -> R;
}

impl Rows for [f32] {
    #[inline]
    fn with<R>(&self, start: usize, len: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        f(&self[start..start + len])
    }
}

impl Rows for ActDecode<'_> {
    fn with<R>(&self, start: usize, len: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        scratch::with_rows(len, |buf| {
            self.decode_range(start, buf);
            f(buf)
        })
    }
}
