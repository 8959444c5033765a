//! The typed error surface of the inference and PTQ stack.
//!
//! Every failure a malformed graph, bad binding, or hostile input can
//! provoke is represented here, so callers running fleets of workloads
//! (the paper sweeps 75 architectures over 200+ tasks) can record one
//! workload's failure and keep going instead of unwinding the process.

use crate::graph::ValueId;
use std::fmt;

/// A tensor shape, as used by [`crate::Graph::validate`].
pub type Shape = ptq_tensor::shape::Shape;

/// Why a graph could not be validated or executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtqError {
    /// The caller supplied the wrong number of runtime inputs.
    InputArity {
        /// Inputs the graph declares.
        expected: usize,
        /// Inputs the caller supplied.
        got: usize,
    },
    /// An operator references a parameter value with no bound tensor.
    UnboundParam {
        /// The dangling value id.
        value: ValueId,
        /// Name of the referencing node.
        node: String,
    },
    /// An FP8-stored parameter is read as f32: anywhere but as a Conv2d or
    /// Linear weight, which the fused kernels read as codes.
    Fp8Param {
        /// The FP8-stored parameter.
        value: ValueId,
        /// Name of the reading node.
        node: String,
    },
    /// A node reads a value that no input, parameter, or earlier node
    /// produces.
    UseBeforeDef {
        /// The undefined value id.
        value: ValueId,
        /// Name of the reading node.
        node: String,
    },
    /// A declared graph output is never produced.
    UnproducedOutput {
        /// The missing output value id.
        value: ValueId,
    },
    /// An operator's shape preconditions are violated.
    ShapeMismatch {
        /// Name of the offending node.
        node: String,
        /// Human-readable rule violation (from `ptq_tensor::shape`).
        detail: String,
    },
    /// Runtime data fails an operator's value-level contract (e.g.
    /// negative, fractional, or out-of-range embedding ids).
    InvalidInput {
        /// Name of the offending node.
        node: String,
        /// What was wrong with the data.
        detail: String,
    },
    /// The graph has no nodes.
    EmptyGraph,
    /// An operation targeted the wrong kind of value or node (e.g.
    /// re-binding a non-parameter, reading BatchNorm params off a Conv).
    InvalidTarget {
        /// What the caller did wrong.
        detail: String,
    },
    /// A saved artifact could not be read or written (container-level
    /// corruption, version skew, or a malformed chunk payload).
    Artifact(ptq_artifact::ArtifactError),
    /// The incremental-decode planner met a graph it cannot run
    /// step-wise (an op outside the decoder set, or an attention pattern
    /// it cannot match to a cache).
    DecodeUnsupported {
        /// Name of the offending node (or the pattern stage that failed).
        node: String,
        /// What could not be decoded incrementally.
        detail: String,
    },
    /// A KV cache operation failed: capacity overflow (the session
    /// outgrew its planned window), a ragged row, or a bad layer index.
    KvCache(ptq_tensor::kv::KvError),
    /// An unclassified failure, e.g. a panic caught at a fail-soft
    /// boundary.
    Internal(String),
}

impl fmt::Display for PtqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtqError::InputArity { expected, got } => {
                write!(f, "graph expects {expected} inputs, got {got}")
            }
            PtqError::UnboundParam { value, node } => {
                write!(f, "parameter {value} not bound (node {node})")
            }
            PtqError::Fp8Param { value, node } => {
                write!(f, "parameter {value} of node {node} is FP8-stored, not f32")
            }
            PtqError::UseBeforeDef { value, node } => {
                write!(f, "value {value} is not produced before node {node}")
            }
            PtqError::UnproducedOutput { value } => {
                write!(f, "output value {value} was not produced")
            }
            PtqError::ShapeMismatch { node, detail } => {
                write!(f, "shape error at node {node}: {detail}")
            }
            PtqError::InvalidInput { node, detail } => {
                write!(f, "invalid input at node {node}: {detail}")
            }
            PtqError::EmptyGraph => write!(f, "graph has no nodes"),
            PtqError::InvalidTarget { detail } => write!(f, "invalid target: {detail}"),
            PtqError::Artifact(e) => write!(f, "artifact error: {e}"),
            PtqError::DecodeUnsupported { node, detail } => {
                write!(f, "incremental decode unsupported at {node}: {detail}")
            }
            PtqError::KvCache(e) => write!(f, "kv cache error: {e}"),
            PtqError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for PtqError {}

impl From<ptq_artifact::ArtifactError> for PtqError {
    fn from(e: ptq_artifact::ArtifactError) -> Self {
        PtqError::Artifact(e)
    }
}

impl From<ptq_tensor::kv::KvError> for PtqError {
    fn from(e: ptq_tensor::kv::KvError) -> Self {
        PtqError::KvCache(e)
    }
}

/// The single blessed panicking escape hatch for [`PtqError`] results.
///
/// The canonical API surface is `Result`-returning; code that genuinely
/// wants abort-on-error semantics (examples, tests, one-shot binaries)
/// writes `graph.run(&inputs, &mut hook).unwrap_ok()` instead of relying
/// on separate panicking method variants. The panic message is the
/// error's `Display` form, matching the old `panic!("{e}")` wrappers.
pub trait UnwrapOk<T> {
    /// Unwrap the `Ok` value, panicking with the error's `Display` text.
    fn unwrap_ok(self) -> T;
}

impl<T> UnwrapOk<T> for Result<T, PtqError> {
    fn unwrap_ok(self) -> T {
        match self {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }
}
