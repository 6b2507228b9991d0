//! The crate-level error type.
//!
//! Misconfigured pools and invalid recovery policies are operator input —
//! they must surface as typed errors the caller can report, never as
//! panics inside a worker thread.

use std::fmt;

/// Why a serving simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The pool shape is unusable (zero workers, a non-finite failover
    /// delay, or a fault plan sized for a different worker count).
    InvalidPool(String),
    /// A recovery-policy knob is out of range (non-positive backoff,
    /// non-finite deadline, …).
    InvalidPolicy(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidPool(e) => write!(f, "invalid pool config: {e}"),
            ServeError::InvalidPolicy(e) => write!(f, "invalid recovery policy: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
