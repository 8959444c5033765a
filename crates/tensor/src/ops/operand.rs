//! Borrowed operand views of the MAC kernels: one entry point per op over
//! these views, not one per storage combination (`From<&…>` makes
//! `ops::linear(&x, &w, None)` compile for every operand kind). Kernels
//! read activations through the private [`Rows`] trait, monomorphized per
//! source (borrowed rows, or codes decoded a block at a time). The blocked
//! kernels pack a weight into panels (short rows read FP8 codes in place);
//! the reference loops read it dense
//! ([`WeightOperand::with_dense`]). No f32 form of a coded operand outlives
//! its kernel call.

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
        }
    }

    /// Run `f` on the whole weight as dense row-major f32, as the
    /// `ScalarReference` loops read it: borrowed, or decoded into the
    /// call-wide panel for the duration of `f`.
    pub(super) fn with_dense<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        match self {
            WeightOperand::F32(t) => f(t.data()),
            WeightOperand::Q(q) => scratch::with_panel(q.len(), |wf| {
                q.decode_into(wf);
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
