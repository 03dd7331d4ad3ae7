//! Engine error type.

use std::fmt;

/// Classifies an [`EngineError`] so callers can react to durability and
/// isolation failures without string-matching the message.
///
/// The distinction matters on the WAL path: a [`Corrupt`](EngineErrorKind)
/// or [`ShortRead`](EngineErrorKind) tail is *expected* after a crash and
/// recovery degrades gracefully (replay stops at the last committed record),
/// whereas the same condition surfaced as a panic would take the whole
/// process down while it is trying to come back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineErrorKind {
    /// Plain execution error (unknown table, type mismatch, ...).
    #[default]
    General,
    /// An operating-system I/O error (open, write, fsync, ...).
    Io,
    /// The WAL ended mid-record: fewer bytes on disk than the length prefix
    /// promised. Normal after a torn write; replay stops here.
    ShortRead,
    /// A record failed its checksum or structural validation.
    Corrupt,
    /// Shared state was poisoned by a panicking writer (or a simulated
    /// crash left the WAL writer permanently dead).
    Poisoned,
    /// A pinned snapshot can no longer be served because the underlying
    /// storage was destructively rewritten (UPDATE/DELETE/re-layout).
    SnapshotInvalidated,
    /// The static plan verifier ([`crate::verify`]) rejected a physical
    /// plan before execution: a structural invariant of the operator DAG
    /// (schema arithmetic, column bounds, join-variant rules, pruning or
    /// parameter discipline) did not hold. Execution never starts on such
    /// a plan — the error names the operator and the violated invariant.
    Plan,
    /// An `i64` operation (`+`, `-`, `*`, unary minus, integer `SUM`)
    /// overflowed. Reported instead of wrapping or panicking.
    Arithmetic,
    /// Two (or more) open transactions wait on each other's writer locks in
    /// a cycle; this transaction was chosen as the victim and must roll
    /// back. Retrying the whole transaction is the standard client response.
    Deadlock,
    /// A writer-lock acquisition exceeded its wait budget without a
    /// detected cycle — the holder is just slow (e.g. a long statement or a
    /// stalled client), not provably deadlocked.
    LockTimeout,
}

/// Errors produced while executing statements against the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    pub message: String,
    kind: EngineErrorKind,
}

impl EngineError {
    /// Create a new error of the [`General`](EngineErrorKind::General) kind.
    pub fn new(message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
            kind: EngineErrorKind::General,
        }
    }

    /// Create a new error with an explicit kind.
    pub fn with_kind(kind: EngineErrorKind, message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
            kind,
        }
    }

    /// The error's classification.
    pub fn kind(&self) -> EngineErrorKind {
        self.kind
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine error: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<mtsql::ParseError> for EngineError {
    fn from(e: mtsql::ParseError) -> Self {
        EngineError::new(e.to_string())
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::with_kind(EngineErrorKind::Io, format!("io error: {e}"))
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Shorthand constructor used throughout the engine.
pub fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(EngineError::new(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = EngineError::new("no such table `t`");
        assert!(e.to_string().contains("no such table"));
        assert_eq!(e.kind(), EngineErrorKind::General);
    }

    #[test]
    fn parse_error_converts() {
        let pe = mtsql::ParseError::new("boom");
        let ee: EngineError = pe.into();
        assert!(ee.message.contains("boom"));
    }

    #[test]
    fn kinds_survive_construction() {
        let e = EngineError::with_kind(EngineErrorKind::Corrupt, "bad crc");
        assert_eq!(e.kind(), EngineErrorKind::Corrupt);
        let io: EngineError = std::io::Error::other("disk on fire").into();
        assert_eq!(io.kind(), EngineErrorKind::Io);
    }
}
