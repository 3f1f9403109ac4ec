//! Logical plan: a validated, linear pipeline built from the AST.
//!
//! The plan is deliberately linear — Scan → Join → Filter → Sample →
//! Aggregate → Project → Limit — because the language has no subqueries
//! and at most one join. [`crate::explain`] renders it as a tree for
//! `EXPLAIN`; [`mod@crate::optimize`] rewrites the scan node in place
//! (time-range and predicate pushdown); [`crate::exec`] interprets it.
//!
//! All semantic validation lives here, so the parser stays purely
//! syntactic and every rejected query carries a byte position when one
//! exists (the planner re-uses the AST's recorded positions).

use crate::ast::{AggFunc, Expr, Items, Query, SelectStmt, Side};
use crate::error::{QueryError, QueryResult};

/// The leaf: which topics to read, over which (pushed) time range, with
/// which (pushed) predicate. Before optimization the range is `None`
/// (full scan) and no predicate is pushed.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// Topics the scan reads, in lane order (FROM order, join topic last).
    pub topics: Vec<String>,
    /// Half-open `[start, end)` nanosecond range pushed into the coarse
    /// time index. `None` = full scan. Always a conservative superset of
    /// the WHERE clause's time constraint — the residual filter keeps
    /// final say, so pushdown can never change results.
    pub range: Option<(u64, u64)>,
    /// Full predicate pushed to the scan, evaluated on the zero-copy
    /// payload before any materialization. Non-join queries only.
    pub pushed_filter: Option<Expr>,
    /// Topics removed by `topic =` / `topic !=` pruning (EXPLAIN shows
    /// them so a surprising empty result is explainable).
    pub pruned: Vec<String>,
    /// Whether the optimizer ran with pushdown enabled (EXPLAIN header).
    pub pushdown: bool,
}

/// `JOIN '<right>' WITHIN w`: pair each left message with every right
/// message within `w` nanoseconds, emitting pairs in merge order at the
/// arrival of the later message.
#[derive(Debug, Clone)]
pub struct JoinNode {
    pub left: String,
    pub right: String,
    pub within_ns: u64,
}

/// One aggregate call of the SELECT list.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` only for `count()`.
    pub arg: Option<Expr>,
}

/// The aggregation stage: specs in SELECT-list order plus the window
/// width (`None` = one global group).
#[derive(Debug, Clone)]
pub struct AggNode {
    pub specs: Vec<AggSpec>,
    pub window_ns: Option<u64>,
}

/// One output column of an aggregate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggItem {
    /// The `window` builtin: the group's window start, in seconds.
    Window,
    /// Index into [`AggNode::specs`].
    Agg(usize),
}

/// What the projection emits.
#[derive(Debug, Clone)]
pub enum PlanItems {
    /// `SELECT *` → the three always-available builtins.
    Star,
    /// Per-message expressions (no aggregates anywhere).
    Exprs(Vec<Expr>),
    /// Aggregate outputs (each SELECT item was a bare call or `window`).
    Aggs(Vec<AggItem>),
}

/// The validated logical plan.
#[derive(Debug, Clone)]
pub struct Logical {
    pub scan: ScanNode,
    pub join: Option<JoinNode>,
    /// Residual filter (after pushdown it may have moved into the scan).
    pub filter: Option<Expr>,
    pub sample_every: Option<u64>,
    pub agg: Option<AggNode>,
    pub items: PlanItems,
    /// Output column names (aliases or canonical expression text).
    pub columns: Vec<String>,
    pub limit: Option<u64>,
}

fn is_window_path(e: &Expr) -> bool {
    matches!(e, Expr::Path { side: Side::None, parts, .. } if parts.len() == 1 && parts[0] == "window")
}

impl Logical {
    /// Build and validate a plan from a parsed statement. All the
    /// language's semantic rules are enforced here.
    pub fn from_stmt(stmt: &SelectStmt) -> QueryResult<Logical> {
        // FROM topics must be distinct — a duplicate would double every
        // message (the merge reads each lane independently).
        for (i, t) in stmt.from.iter().enumerate() {
            if stmt.from[..i].contains(t) {
                return Err(QueryError::plan(format!("duplicate topic '{t}' in FROM")));
            }
        }
        let join = match &stmt.join {
            None => None,
            Some(j) => {
                if stmt.from.len() != 1 {
                    return Err(QueryError::plan("JOIN requires exactly one FROM topic"));
                }
                if j.topic == stmt.from[0] {
                    return Err(QueryError::plan(format!(
                        "JOIN topic '{}' is the same as the FROM topic",
                        j.topic
                    )));
                }
                if stmt.window_ns.is_some() {
                    return Err(QueryError::plan(
                        "WINDOW aggregation over a JOIN is not supported",
                    ));
                }
                Some(JoinNode {
                    left: stmt.from[0].clone(),
                    right: j.topic.clone(),
                    within_ns: j.within_ns,
                })
            }
        };

        // Path-shape rules, applied uniformly to items and WHERE.
        let check_paths = |e: &Expr, in_where: bool| -> QueryResult<()> {
            let mut err = None;
            e.walk_paths(&mut |side, parts, pos| {
                if err.is_some() {
                    return;
                }
                let windowish = side == Side::None && parts.len() == 1 && parts[0] == "window";
                if join.is_none() && side != Side::None {
                    err = Some(QueryError::plan_at(
                        pos,
                        "left./right. prefixes are only valid with a JOIN",
                    ));
                } else if join.is_some() && side == Side::None {
                    err = Some(QueryError::plan_at(
                        pos,
                        format!(
                            "path `{}` in a JOIN must be prefixed with left. or right.",
                            parts.join(".")
                        ),
                    ));
                } else if windowish && in_where {
                    err = Some(QueryError::plan_at(
                        pos,
                        "`window` is only available in the SELECT list",
                    ));
                } else if windowish && stmt.window_ns.is_none() {
                    err = Some(QueryError::plan_at(pos, "`window` requires a WINDOW clause"));
                }
            });
            match err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        };

        if let Some(w) = &stmt.where_expr {
            if w.has_agg() {
                return Err(QueryError::plan_at(w.pos(), "aggregates are not allowed in WHERE"));
            }
            check_paths(w, true)?;
        }

        let mut agg_specs: Vec<AggSpec> = Vec::new();
        let (items, columns) = match &stmt.items {
            Items::Star => {
                if join.is_some() {
                    return Err(QueryError::plan(
                        "SELECT * cannot be used with JOIN; list columns explicitly",
                    ));
                }
                (PlanItems::Star, vec!["time".into(), "topic".into(), "size".into()])
            }
            Items::List(list) => {
                let any_agg = list.iter().any(|it| it.expr.has_agg());
                let mut columns = Vec::with_capacity(list.len());
                for it in list {
                    check_paths(&it.expr, false)?;
                    columns.push(match &it.alias {
                        Some(a) => a.clone(),
                        None => it.expr.to_string(),
                    });
                }
                if any_agg {
                    let mut out = Vec::with_capacity(list.len());
                    for it in list {
                        match &it.expr {
                            Expr::Agg { func, arg, pos } => {
                                if let Some(a) = arg {
                                    if a.has_agg() {
                                        return Err(QueryError::plan_at(
                                            *pos,
                                            "aggregates cannot be nested",
                                        ));
                                    }
                                } else if *func != AggFunc::Count {
                                    return Err(QueryError::plan_at(
                                        *pos,
                                        format!("{}() needs an argument", func.name()),
                                    ));
                                }
                                out.push(AggItem::Agg(agg_specs.len()));
                                agg_specs
                                    .push(AggSpec { func: *func, arg: arg.as_deref().cloned() });
                            }
                            e if is_window_path(e) => out.push(AggItem::Window),
                            e => {
                                return Err(QueryError::plan_at(
                                    e.pos(),
                                    "cannot mix aggregate and per-message items in one SELECT",
                                ))
                            }
                        }
                    }
                    (PlanItems::Aggs(out), columns)
                } else {
                    (PlanItems::Exprs(list.iter().map(|it| it.expr.clone()).collect()), columns)
                }
            }
        };

        let agg = match &items {
            PlanItems::Aggs(_) => Some(AggNode { specs: agg_specs, window_ns: stmt.window_ns }),
            _ => {
                if stmt.window_ns.is_some() {
                    return Err(QueryError::plan(
                        "WINDOW requires aggregate items (count/min/max/mean)",
                    ));
                }
                None
            }
        };

        let mut topics = stmt.from.clone();
        if let Some(j) = &join {
            topics.push(j.right.clone());
        }

        Ok(Logical {
            scan: ScanNode {
                topics,
                range: None,
                pushed_filter: None,
                pruned: Vec::new(),
                pushdown: false,
            },
            join,
            filter: stmt.where_expr.clone(),
            sample_every: stmt.sample_every,
            agg,
            items,
            columns,
            limit: stmt.limit,
        })
    }

    /// Whether this plan aggregates (its output rows are group rows).
    pub fn is_aggregate(&self) -> bool {
        self.agg.is_some()
    }
}

/// Convenience: parse + plan in one step (no optimization).
pub fn plan_query(q: &Query) -> QueryResult<Logical> {
    Logical::from_stmt(&q.stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(sql: &str) -> QueryResult<Logical> {
        Logical::from_stmt(&parse(sql).unwrap().stmt)
    }

    #[test]
    fn plain_select_plans() {
        let p = plan("SELECT time, angular_velocity.x AS wx FROM '/imu' WHERE time < 5.0").unwrap();
        assert_eq!(p.columns, vec!["time", "wx"]);
        assert!(matches!(p.items, PlanItems::Exprs(ref v) if v.len() == 2));
        assert!(p.filter.is_some());
        assert!(p.scan.range.is_none(), "no pushdown before optimize()");
    }

    #[test]
    fn aggregate_select_plans() {
        let p =
            plan("SELECT window, count(), mean(angular_velocity.x) FROM '/imu' WINDOW 1s").unwrap();
        let agg = p.agg.as_ref().unwrap();
        assert_eq!(agg.specs.len(), 2);
        assert_eq!(agg.window_ns, Some(1_000_000_000));
        assert!(matches!(
            p.items,
            PlanItems::Aggs(ref v)
                if v[0] == AggItem::Window && v[1] == AggItem::Agg(0) && v[2] == AggItem::Agg(1)
        ));
    }

    #[test]
    fn join_plans() {
        let p = plan(
            "SELECT left.time, right.time FROM '/imu' JOIN '/cam' WITHIN 10ms \
             WHERE left.angular_velocity.x > 0.5",
        )
        .unwrap();
        let j = p.join.as_ref().unwrap();
        assert_eq!(j.within_ns, 10_000_000);
        assert_eq!(p.scan.topics, vec!["/imu", "/cam"]);
    }

    #[test]
    fn semantic_errors_are_plan_errors() {
        for (sql, needle) in [
            ("SELECT time FROM '/a', '/a'", "duplicate topic"),
            ("SELECT time, count() FROM '/a'", "cannot mix"),
            ("SELECT time FROM '/a' WINDOW 1s", "WINDOW requires aggregate"),
            ("SELECT count() FROM '/a' JOIN '/b' WITHIN 1s WINDOW 1s", "not supported"),
            ("SELECT left.time FROM '/a'", "only valid with a JOIN"),
            ("SELECT time FROM '/a' JOIN '/b' WITHIN 1s", "must be prefixed"),
            ("SELECT window FROM '/a'", "requires a WINDOW clause"),
            ("SELECT count() FROM '/a' WHERE window > 1.0", "SELECT list"),
            ("SELECT count() FROM '/a' WHERE count() > 1", "not allowed in WHERE"),
            ("SELECT count(count()) FROM '/a'", "nested"),
            ("SELECT * FROM '/a' JOIN '/b' WITHIN 1s", "list columns explicitly"),
            ("SELECT count() FROM '/a' JOIN '/a' WITHIN 1s", "same as the FROM topic"),
        ] {
            let e = plan(sql).unwrap_err();
            assert!(
                e.message().contains(needle),
                "{sql}: expected `{needle}` in `{}`",
                e.message()
            );
        }
    }

    #[test]
    fn star_columns_are_builtins() {
        let p = plan("SELECT * FROM '/imu'").unwrap();
        assert_eq!(p.columns, vec!["time", "topic", "size"]);
    }
}
