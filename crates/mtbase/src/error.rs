//! Middleware error type, unifying parse, rewrite and engine errors.

use std::fmt;

/// Errors surfaced to MTBase clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtError {
    /// The statement could not be parsed.
    Parse(String),
    /// The statement could not be rewritten (e.g. illegal comparison).
    Rewrite(String),
    /// The underlying engine rejected the rewritten statement.
    Engine(String),
    /// The client lacks a privilege required by the statement.
    Privilege(String),
    /// The durability layer failed: a WAL I/O error, a short read or a
    /// corrupt record during recovery, or a writer left dead by a
    /// (simulated) crash. The in-memory state still reflects exactly the
    /// committed prefix.
    Durability(String),
    /// A pinned cursor snapshot can no longer be served (the underlying
    /// table was destructively rewritten). Re-open the cursor.
    Snapshot(String),
    /// The static plan verifier rejected a physical plan before execution —
    /// a planner or rewrite defect, never a data problem. The message names
    /// the operator and the violated structural invariant.
    Plan(String),
    /// Anything else (unsupported feature, configuration problem, ...).
    Other(String),
}

impl fmt::Display for MtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtError::Parse(m) => write!(f, "parse error: {m}"),
            MtError::Rewrite(m) => write!(f, "rewrite error: {m}"),
            MtError::Engine(m) => write!(f, "engine error: {m}"),
            MtError::Privilege(m) => write!(f, "privilege error: {m}"),
            MtError::Durability(m) => write!(f, "durability error: {m}"),
            MtError::Snapshot(m) => write!(f, "snapshot error: {m}"),
            MtError::Plan(m) => write!(f, "plan verification error: {m}"),
            MtError::Other(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for MtError {}

impl From<mtsql::ParseError> for MtError {
    fn from(e: mtsql::ParseError) -> Self {
        MtError::Parse(e.to_string())
    }
}

impl From<mtrewrite::RewriteError> for MtError {
    fn from(e: mtrewrite::RewriteError) -> Self {
        MtError::Rewrite(e.message)
    }
}

impl From<mtengine::EngineError> for MtError {
    fn from(e: mtengine::EngineError) -> Self {
        use mtengine::EngineErrorKind as K;
        match e.kind() {
            K::Io | K::ShortRead | K::Corrupt | K::Poisoned => MtError::Durability(e.message),
            K::SnapshotInvalidated => MtError::Snapshot(e.message),
            K::Plan => MtError::Plan(e.message),
            K::General | K::Arithmetic | K::Deadlock | K::LockTimeout => MtError::Engine(e.message),
        }
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, MtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: MtError = mtsql::ParseError::new("bad token").into();
        assert!(e.to_string().contains("bad token"));
        let e: MtError = mtrewrite::RewriteError::new("mixed predicate").into();
        assert!(e.to_string().contains("mixed predicate"));
        let e: MtError = mtengine::EngineError::new("no such table").into();
        assert!(e.to_string().contains("no such table"));
    }
}
