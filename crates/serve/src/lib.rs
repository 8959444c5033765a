//! # ptq-serve — async serving over quantized models
//!
//! The serving layer the paper's efficiency story ultimately cashes out
//! in: FP8-stored weights cut resident bytes 4×, the MAC kernels run
//! straight off the codes, and this crate turns that into a
//! request/response engine with the scheduling machinery a real
//! deployment needs:
//!
//! * **A worker pool, not a batcher** — one worker per core pops the
//!   queue head, runs it through the model's cached
//!   [`ExecPlan`](ptq_nn::ExecPlan) and replies at once. Single-shot
//!   requests are never coalesced and nothing waits for peers, so every
//!   response is **bit-identical** to a direct run of the same request
//!   (DESIGN.md §15 has the measurement that retired the batching window).
//! * **Admission control** — a bounded queue turns overload into typed
//!   [`ServeError::QueueFull`] backpressure instead of unbounded memory
//!   growth and latency collapse.
//! * **Deadline shedding** — requests whose deadline expires while
//!   queued are answered with [`ServeError::DeadlineExceeded`] *before*
//!   any compute is spent on them.
//! * **Latency accounting** — exact p50/p95/p99 end-to-end percentiles
//!   plus submitted/completed/shed/rejected counters via
//!   [`Engine::stats`], mirrored into [`ptq_trace`].
//! * **Streaming generation** — [`Engine::generate`] streams greedy
//!   tokens from the incremental KV-cache engine ([`ptq_nn::DecodePlan`]).
//!   A session runs *one* decode step per dispatch (its first runs the
//!   prompt) and re-queues behind waiting traffic, so generations
//!   interleave fairly with single-shot requests; the steps of one plan
//!   queued together share one pass, one row each, so each weight is
//!   decoded once for all of them.
//!
//! Configuration rides the consolidated [`ptq_core::EngineSpec`]: the
//! same serializable spec that drives [`ptq_core::PtqSession`] carries a
//! `serving` section, and a saved artifact restores it on cold start
//! ([`Engine::from_artifact`]).
//!
//! ## Quick example
//!
//! ```no_run
//! use ptq_core::prelude::*;
//! use ptq_fp8::Fp8Format;
//! use ptq_models::{build_zoo, ZooFilter};
//! use ptq_serve::Engine;
//!
//! fn main() -> Result<(), Box<dyn std::error::Error>> {
//!     let zoo = build_zoo(ZooFilter::Quick);
//!     let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3)).quantize(&zoo[0])?;
//!     let spec = EngineSpec::from_config(&out.model.config);
//!     let engine = Engine::new(out.model, &spec)?;
//!     let outputs = engine.submit(zoo[0].eval[0].clone())?.wait()?;
//!     println!("served {} output tensors; stats {:?}", outputs.len(), engine.stats());
//!     Ok(())
//! }
//! ```

pub mod engine;
pub mod error;
pub mod metrics;

pub use engine::{Engine, GenTicket, Ticket};
pub use error::ServeError;
pub use metrics::EngineStats;

// The engine API is Send-safe by construction; pin it at compile time so
// a refactor that loses it fails here, not in a downstream build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<EngineStats>();
    assert_send::<Ticket>();
    assert_send::<GenTicket>();
};
