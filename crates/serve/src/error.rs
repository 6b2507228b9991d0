//! The crate-level error type.
//!
//! Malformed traces, misconfigured pools, and invalid recovery policies
//! are operator input — they must surface as typed errors the caller can
//! report, never as panics inside a worker thread.

use crate::trace::TraceError;
use std::fmt;

/// Why a serving simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A trace failed to load or validate.
    Trace(TraceError),
    /// The pool shape is unusable (zero workers, zero-capacity scheduler,
    /// or a fault plan sized for a different worker count).
    InvalidPool(String),
    /// A recovery-policy knob is out of range (non-positive backoff,
    /// non-finite deadline, …).
    InvalidPolicy(String),
    /// A worker thread panicked — a bug, surfaced instead of poisoning the
    /// collector.
    WorkerPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Trace(e) => write!(f, "trace error: {e}"),
            ServeError::InvalidPool(e) => write!(f, "invalid pool config: {e}"),
            ServeError::InvalidPolicy(e) => write!(f, "invalid recovery policy: {e}"),
            ServeError::WorkerPanicked => f.write_str("a pool worker panicked"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for ServeError {
    fn from(e: TraceError) -> Self {
        ServeError::Trace(e)
    }
}
