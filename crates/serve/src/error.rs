//! Typed serving errors.
//!
//! Every failure a request can hit — admission, scheduling, execution —
//! surfaces as a [`ServeError`] through [`crate::Ticket::wait`], never as
//! a panic. Backpressure ([`ServeError::QueueFull`]) and deadline
//! shedding ([`ServeError::DeadlineExceeded`]) are distinct variants so
//! load generators and callers can tell "slow down" from "too late"
//! without string matching.

use ptq_nn::PtqError;

/// Error surface of the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the bounded request queue is at capacity. The
    /// request was never enqueued; the caller should back off and retry.
    QueueFull {
        /// Configured queue bound ([`ptq_core::ServeSpec::queue_capacity`]).
        capacity: usize,
    },
    /// The request's deadline elapsed while it was still queued, so it
    /// was shed before spending any compute.
    DeadlineExceeded {
        /// How long the request actually waited before being shed (µs).
        waited_us: u64,
        /// The deadline budget the request carried (µs).
        budget_us: u64,
    },
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// Graph execution failed; carries the underlying typed error.
    Exec(PtqError),
    /// The worker side dropped the reply channel without answering —
    /// only reachable if a worker thread died, which the engine treats
    /// as a bug, not a load condition.
    Disconnected,
    /// Engine construction refused its serving section (see
    /// [`ptq_core::ServeSpec::validate`]); no thread was started.
    InvalidSpec(PtqError),
    /// Engine construction could not spawn its worker threads.
    WorkerSpawn {
        /// OS-level failure description.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity}); backpressure")
            }
            ServeError::DeadlineExceeded {
                waited_us,
                budget_us,
            } => write!(
                f,
                "deadline exceeded: waited {waited_us}µs against a {budget_us}µs budget; \
                 request shed before execution"
            ),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::InvalidSpec(e) => write!(f, "engine not started: {e}"),
            ServeError::Disconnected => {
                write!(f, "reply channel dropped without a response (worker died)")
            }
            ServeError::WorkerSpawn { detail } => {
                write!(f, "failed to spawn worker thread: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) | ServeError::InvalidSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PtqError> for ServeError {
    fn from(e: PtqError) -> Self {
        ServeError::Exec(e)
    }
}
