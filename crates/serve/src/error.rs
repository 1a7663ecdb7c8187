//! Typed serving errors: every way a request can fail has a distinct
//! variant, so clients (and the CI chaos gate) can tell an overload shed
//! from a deadline miss from a scorer crash without parsing strings.

use std::time::Duration;

/// Why a [`ScoreEngine`](crate::ScoreEngine) call did not return a normal
/// answer. Every variant is a *response*: the engine never leaves a caller
/// blocked forever, and never panics across the API boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request itself is malformed (empty history, out-of-catalog item
    /// id, `k == 0`). Rejected at admission, before any queueing.
    InvalidRequest(String),
    /// The request's deadline passed before an answer was produced —
    /// either at admission, while queued, or mid-batch. `budget` is the
    /// deadline the request was admitted with.
    DeadlineExceeded {
        /// The per-request deadline that was exceeded.
        budget: Duration,
    },
    /// Load shedding: the admission queue was full and this request was
    /// chosen as the victim (oldest deadline first).
    Shed,
    /// The scorer thread panicked while this request's batch was being
    /// scored. Only the requests of the poisoned batch fail this way; the
    /// engine respawns the scorer for everyone else.
    ScorerPanic(String),
    /// An internal failure confined to this request (e.g. a non-finite
    /// score, or an unresolved representation row).
    Internal(String),
    /// The engine is shutting down.
    Shutdown,
}

impl ServeError {
    /// Stable short tag for reports and counters
    /// (`invalid|deadline|shed|panic|internal|shutdown`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::InvalidRequest(_) => "invalid",
            ServeError::DeadlineExceeded { .. } => "deadline",
            ServeError::Shed => "shed",
            ServeError::ScorerPanic(_) => "panic",
            ServeError::Internal(_) => "internal",
            ServeError::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServeError::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded ({}ms budget)", budget.as_millis())
            }
            ServeError::Shed => write!(f, "shed: admission queue full"),
            ServeError::ScorerPanic(why) => write!(f, "scorer panicked: {why}"),
            ServeError::Internal(why) => write!(f, "internal error: {why}"),
            ServeError::Shutdown => write!(f, "engine is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let all = [
            ServeError::InvalidRequest("x".into()),
            ServeError::DeadlineExceeded {
                budget: Duration::from_millis(5),
            },
            ServeError::Shed,
            ServeError::ScorerPanic("x".into()),
            ServeError::Internal("x".into()),
            ServeError::Shutdown,
        ];
        let kinds: std::collections::BTreeSet<_> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), all.len(), "kinds must be unique");
        // The validators read these names back from reports and logs.
        assert_eq!(kinds, ist_obs::schema::ERROR_KINDS.into_iter().collect());
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }
}
