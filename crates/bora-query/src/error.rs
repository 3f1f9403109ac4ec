//! Typed query errors with byte positions.
//!
//! Every failure in the lexer/parser/planner carries the byte offset it
//! was detected at, so callers (the CLI, the serve wire layer) can show
//! a caret under the offending token instead of a bare message. A
//! malformed query must *never* panic — the robustness tests feed the
//! parser truncations and random garbage and assert a typed error comes
//! back each time.

use bora::BoraError;
use ros_msgs::WireError;

/// Which stage rejected the query (or its execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryErrorKind {
    /// Tokenization failed (unterminated string, bad number, stray byte).
    Lex,
    /// The token stream does not match the grammar.
    Parse,
    /// The query parsed but is semantically invalid (mixed aggregate and
    /// plain items, side-prefixed paths outside a join, …).
    Plan,
    /// Runtime failure inside an operator.
    Exec,
    /// A wire row blob failed to decode.
    Wire,
    /// The storage layer failed mid-scan; `source` holds the
    /// [`BoraError`] so servers can map it to their existing transient /
    /// permanent error codes instead of blaming the query text.
    Storage,
}

/// A typed query failure: stage, optional byte position, message.
#[derive(Debug)]
pub struct QueryError {
    kind: QueryErrorKind,
    pos: Option<usize>,
    msg: String,
    /// Set only for [`QueryErrorKind::Storage`].
    source: Option<BoraError>,
}

impl QueryError {
    pub fn lex(pos: usize, msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Lex, pos: Some(pos), msg: msg.into(), source: None }
    }

    pub fn parse(pos: usize, msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Parse, pos: Some(pos), msg: msg.into(), source: None }
    }

    pub fn plan_at(pos: usize, msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Plan, pos: Some(pos), msg: msg.into(), source: None }
    }

    pub fn plan(msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Plan, pos: None, msg: msg.into(), source: None }
    }

    pub fn exec(msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Exec, pos: None, msg: msg.into(), source: None }
    }

    pub fn wire(msg: impl Into<String>) -> Self {
        QueryError { kind: QueryErrorKind::Wire, pos: None, msg: msg.into(), source: None }
    }

    pub fn kind(&self) -> QueryErrorKind {
        self.kind
    }

    /// Byte offset into the query text, when the failure has one (lex,
    /// parse, and some plan errors do; exec/wire errors do not).
    pub fn pos(&self) -> Option<usize> {
        self.pos
    }

    pub fn message(&self) -> &str {
        &self.msg
    }

    /// Consume, returning the storage failure if that is what this is.
    pub fn into_storage(self) -> Result<BoraError, QueryError> {
        match self.source {
            Some(e) => Ok(e),
            None => Err(self),
        }
    }

    /// Two-line rendering with a caret under the failure position:
    ///
    /// ```text
    /// SELECT time FRM '/imu'
    ///             ^ expected FROM, found identifier `FRM`
    /// ```
    pub fn render_caret(&self, sql: &str) -> String {
        match self.pos {
            Some(pos) => {
                let col = pos.min(sql.len());
                format!("{sql}\n{}^ {}", " ".repeat(col), self.msg)
            }
            None => self.msg.clone(),
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = match self.kind {
            QueryErrorKind::Lex => "lex",
            QueryErrorKind::Parse => "parse",
            QueryErrorKind::Plan => "plan",
            QueryErrorKind::Exec => "exec",
            QueryErrorKind::Wire => "wire",
            QueryErrorKind::Storage => "storage",
        };
        match self.pos {
            Some(p) => write!(f, "{stage} error at byte {p}: {}", self.msg),
            None => write!(f, "{stage} error: {}", self.msg),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<BoraError> for QueryError {
    fn from(e: BoraError) -> Self {
        QueryError { kind: QueryErrorKind::Storage, pos: None, msg: e.to_string(), source: Some(e) }
    }
}

impl From<WireError> for QueryError {
    fn from(e: WireError) -> Self {
        QueryError::wire(e.to_string())
    }
}

pub type QueryResult<T> = Result<T, QueryError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caret_points_at_position() {
        let e = QueryError::parse(12, "expected FROM");
        let r = e.render_caret("SELECT time FRM '/imu'");
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(&lines[1][12..13], "^");
    }

    #[test]
    fn display_carries_stage_and_position() {
        let e = QueryError::lex(3, "unterminated string");
        assert_eq!(e.to_string(), "lex error at byte 3: unterminated string");
        assert_eq!(e.kind(), QueryErrorKind::Lex);
        assert_eq!(e.pos(), Some(3));
    }

    #[test]
    fn storage_errors_unwrap_to_bora() {
        let e = QueryError::from(BoraError::NotAContainer("/x".into()));
        assert_eq!(e.kind(), QueryErrorKind::Storage);
        assert!(e.into_storage().is_ok());
        assert!(QueryError::exec("boom").into_storage().is_err());
    }
}
