//! Distributed query fragments.
//!
//! Distributed execution is **per container**: every per-row stage
//! (scan, join, filter, sample) runs on the node that owns the
//! container, and only the final stage differs by query shape:
//!
//! * **Aggregate queries** ship a *partial-aggregate fragment* — the
//!   statement minus LIMIT, executed in partial mode so each node
//!   returns flattened per-window states (`count`, `min`, `max`,
//!   `(sum, n)`), which the router merges in container order and
//!   finalizes ([`crate::exec::merge_partials`]). The same merge runs
//!   whether one node owns every container or three do, so the result
//!   bytes are identical either way.
//! * **Everything else** ships the statement as-is (per-container LIMIT
//!   kept — each node returns at most `n` rows) and the router
//!   concatenates results in container order, re-applying LIMIT.
//!
//! A fragment is just canonical SQL — the AST's `Display` — so the wire
//! protocol needs no second query encoding.

use crate::ast::{ExplainMode, Query};

/// The statement a node executes in partial-aggregate mode: original
/// query minus EXPLAIN and LIMIT (the router limits after the merge).
pub fn partial_fragment(q: &Query) -> String {
    let mut stmt = q.stmt.clone();
    stmt.limit = None;
    Query { explain: ExplainMode::None, stmt }.to_string()
}

/// The statement a node executes when rows are shipped whole: original
/// query minus EXPLAIN (per-container LIMIT stays as a row-count cap).
pub fn rowship_query(q: &Query) -> String {
    Query { explain: ExplainMode::None, stmt: q.stmt.clone() }.to_string()
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    #[test]
    fn partial_fragment_strips_limit_and_explain() {
        let q = parse(
            "EXPLAIN ANALYZE SELECT window, count() FROM '/imu' \
             WHERE time < 9.0 WINDOW 1s LIMIT 3",
        )
        .unwrap();
        let f = super::partial_fragment(&q);
        assert!(!f.contains("LIMIT") && !f.contains("EXPLAIN"), "{f}");
        assert!(f.contains("WINDOW 1s") && f.contains("WHERE time < 9.0"), "{f}");
        // Fragments must re-parse — they travel as SQL.
        parse(&f).unwrap();
    }
}
