//! Autoregressive decoding over a quantized model: [`DecodeSession`].
//!
//! [`crate::QuantizedModel`] executes whole windows; this module is the
//! core-level wrapper that turns one into a *stateful token generator*.
//! It owns the three moving parts the nn layer keeps separate —
//! [`DecodePlan`] (the step schedule), [`DecodeState`] (the KV cache
//! plus step buffers) and the model's [`crate::QuantHook`] — and
//! exposes the natural decoding surface:
//!
//! * [`DecodeSession::prefill`] — run the prompt's `p` tokens through
//!   the step schedule in blocks of rows (work that grows with the
//!   prompt, not with the window), then seal the per-layer KV cache in
//!   the format chosen by [`crate::config::KvStorage`] (FP8 cache scales
//!   are calibrated from the prompt's own K/V rows);
//! * [`DecodeSession::step`] — append one token, touching only one new
//!   row per layer (`O(seq)` work instead of `O(seq²)` full-window
//!   recompute);
//! * [`DecodeSession::generate_greedy`] — the argmax decoding loop.
//!
//! Under [`crate::config::KvStorage::F32`] the whole loop is
//! bit-identical to re-running the full window each step — pinned by
//! `crates/core/tests/kv_cache_equivalence.rs` across the decoder zoo,
//! both executors and both kernel paths.

use crate::quantizer::QuantizedModel;
use ptq_nn::{DecodePlan, DecodeState, PtqError};
use ptq_tensor::Tensor;

/// A stateful decoding session over a quantized model. See the module
/// docs; constructed by [`DecodeSession::new`] (or
/// [`QuantizedModel::decoder`]).
#[derive(Debug)]
pub struct DecodeSession {
    model: QuantizedModel,
    plan: DecodePlan,
    state: DecodeState,
}

impl DecodeSession {
    /// Plan incremental decoding for `model` at window capacity `seq`
    /// (the sequence length the model was built and calibrated for).
    /// Fails with the planner's typed errors when the graph is not a
    /// causal decoder.
    pub fn new(model: QuantizedModel, seq: usize) -> Result<Self, PtqError> {
        let plan = model.graph.plan_decode(seq)?;
        let state = DecodeState::new(&plan);
        Ok(DecodeSession { model, plan, state })
    }

    /// Run the prompt through the step schedule, seed the KV cache and
    /// return the logits row for the last prompt token. Resets any
    /// previous session state first, so one session can decode many
    /// prompts; a prompt that fails leaves the session reset.
    pub fn prefill(&mut self, prompt: &[f32]) -> Result<Tensor, PtqError> {
        self.state.reset();
        let mut hook = self.model.hook();
        self.state.prefill(
            &self.plan,
            &self.model.graph,
            &Tensor::from_slice(prompt),
            &mut hook,
        )
    }

    /// Append `token` and return the next-position logits row. Costs one
    /// single-row pass through the step schedule; errors with
    /// [`PtqError::KvCache`] once the window capacity is reached.
    pub fn step(&mut self, token: f32) -> Result<Tensor, PtqError> {
        let mut hook = self.model.hook();
        self.state
            .step(&self.plan, &self.model.graph, token, &mut hook)
    }

    /// Greedy decoding: prefill on `prompt`, then argmax-and-feed-back
    /// until `max_new` tokens are generated or the window fills.
    /// Returns the generated token ids (prompt excluded).
    pub fn generate_greedy(
        &mut self,
        prompt: &[f32],
        max_new: usize,
    ) -> Result<Vec<f32>, PtqError> {
        let mut logits = self.prefill(prompt)?;
        let mut out = Vec::with_capacity(max_new);
        for _ in 0..max_new {
            let next = logits.argmax() as f32;
            out.push(next);
            if self.state.pos() >= self.plan.seq() {
                break; // window full: `next` is the last in-capacity token
            }
            logits = self.step(next)?;
        }
        Ok(out)
    }

    /// Tokens currently resident in the KV cache (prompt + generated).
    pub fn pos(&self) -> usize {
        self.state.pos()
    }

    /// The window capacity this session was planned for.
    pub fn capacity(&self) -> usize {
        self.plan.seq()
    }

    /// Bytes the KV cache currently occupies as stored (FP8 codes +
    /// scales, or dense f32). 0 before the first prefill.
    pub fn cache_bytes(&self) -> usize {
        self.state.cache_bytes()
    }

    /// Bytes the same cached rows would occupy as dense f32 — the
    /// baseline for the cache-memory-reduction ratio.
    pub fn cache_f32_bytes(&self) -> usize {
        self.state.cache().map_or(0, |c| c.f32_bytes())
    }

    /// The decode plan (the step schedule).
    pub fn plan(&self) -> &DecodePlan {
        &self.plan
    }

    /// The underlying quantized model.
    pub fn model(&self) -> &QuantizedModel {
        &self.model
    }

    /// Drop the cache and session position, keeping the plan; the next
    /// call must be [`DecodeSession::prefill`].
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Take the model back, consuming the session.
    pub fn into_model(self) -> QuantizedModel {
        self.model
    }
}

impl QuantizedModel {
    /// Plan an autoregressive [`DecodeSession`] over this model at window
    /// capacity `seq` (consumes the model; get it back with
    /// [`DecodeSession::into_model`]).
    pub fn decoder(self, seq: usize) -> Result<DecodeSession, PtqError> {
        DecodeSession::new(self, seq)
    }
}
