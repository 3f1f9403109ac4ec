//! Plan optimizer: predicate pushdown into the scan node.
//!
//! Three rewrites, all strictly optional — with pushdown disabled the
//! plan still returns identical rows, just slower:
//!
//! 1. **Time-range pushdown.** Top-level `time` conjuncts of the WHERE
//!    clause become a half-open `[start, end)` nanosecond range handed to
//!    the coarse time index, so block-framed containers only decode
//!    candidate blocks. The derived range is a *conservative superset*
//!    (float seconds round outward by a nanosecond, join ranges widen by
//!    the WITHIN width) and the original predicate stays in force, so
//!    pushdown can never change results — only skip I/O.
//! 2. **Topic pruning.** `topic = 'x'` / `topic != 'x'` conjuncts drop
//!    scan lanes entirely. Pruned topics are recorded for EXPLAIN.
//! 3. **Filter pushdown.** For non-join queries the whole residual
//!    filter moves into the scan, where it is evaluated against the
//!    zero-copy payload before the row is materialized.

use crate::ast::{Expr, Side};
use crate::plan::Logical;
use crate::value::{CmpOp, Value};

/// Knobs for [`optimize`]. `pushdown: false` keeps the plan naive — the
/// pushdown tests and property tests compare both modes.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    pub pushdown: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { pushdown: true }
    }
}

/// Split a predicate into its top-level AND conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::And(a, b) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        other => vec![other],
    }
}

fn is_time_path(e: &Expr) -> bool {
    matches!(e, Expr::Path { parts, .. } if parts.len() == 1 && parts[0] == "time")
}

fn is_topic_path(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Path { side: Side::None, parts, .. } if parts.len() == 1 && parts[0] == "topic"
    )
}

fn lit_f64(e: &Expr) -> Option<f64> {
    match e {
        Expr::Lit(v) => v.as_f64(),
        _ => None,
    }
}

/// Seconds → nanoseconds, rounding *down* and clamping at zero.
fn sec_to_ns_floor(s: f64) -> u64 {
    if s <= 0.0 {
        return 0;
    }
    let ns = (s * 1e9).floor();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Seconds → nanoseconds, rounding *up* and clamping.
fn sec_to_ns_ceil(s: f64) -> u64 {
    if s <= 0.0 {
        return 0;
    }
    let ns = (s * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Running `[lo, hi)` bound accumulator.
struct RangeAcc {
    lo: u64,
    hi: u64,
    constrained: bool,
}

impl RangeAcc {
    fn new() -> Self {
        RangeAcc { lo: 0, hi: u64::MAX, constrained: false }
    }

    /// Apply `time <op> secs`, conservatively widened by ±1 ns so float
    /// rounding can only *grow* the range.
    fn apply(&mut self, op: CmpOp, secs: f64) {
        match op {
            CmpOp::Ge | CmpOp::Gt => {
                // `>` treated as `>=`: superset, residual filter decides.
                self.lo = self.lo.max(sec_to_ns_floor(secs).saturating_sub(1));
                self.constrained = true;
            }
            CmpOp::Lt | CmpOp::Le => {
                // half-open end: +2 covers both `<=` and ceil slack.
                self.hi = self.hi.min(sec_to_ns_ceil(secs).saturating_add(2));
                self.constrained = true;
            }
            CmpOp::Eq => {
                self.lo = self.lo.max(sec_to_ns_floor(secs).saturating_sub(1));
                self.hi = self.hi.min(sec_to_ns_ceil(secs).saturating_add(2));
                self.constrained = true;
            }
            CmpOp::Ne => {}
        }
    }

    fn widen(&mut self, ns: u64) {
        self.lo = self.lo.saturating_sub(ns);
        self.hi = self.hi.saturating_add(ns);
    }

    fn get(&self) -> Option<(u64, u64)> {
        if !self.constrained {
            return None;
        }
        Some((self.lo, self.hi.max(self.lo)))
    }
}

/// Rewrite the plan's scan node in place. Idempotent; with
/// `opts.pushdown == false` only the `pushdown` flag is recorded.
pub fn optimize(mut plan: Logical, opts: &PlanOptions) -> Logical {
    plan.scan.pushdown = opts.pushdown;
    if !opts.pushdown {
        return plan;
    }
    let Some(filter) = plan.filter.clone() else {
        return plan;
    };

    let mut range = RangeAcc::new();
    let mut keep_only: Option<Vec<String>> = None;
    let mut drop_topics: Vec<String> = Vec::new();

    for c in conjuncts(&filter) {
        if let Expr::Cmp { op, lhs, rhs } = c {
            // Normalize `lit <op> path` to `path <op'> lit`.
            let (path, lit, op) = if is_time_path(lhs) || is_topic_path(lhs) {
                (lhs.as_ref(), rhs.as_ref(), *op)
            } else if is_time_path(rhs) || is_topic_path(rhs) {
                let flipped = match *op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    o => o,
                };
                (rhs.as_ref(), lhs.as_ref(), flipped)
            } else {
                continue;
            };
            if is_time_path(path) {
                if let Some(secs) = lit_f64(lit) {
                    range.apply(op, secs);
                }
            } else if let Expr::Lit(Value::Str(name)) = lit {
                match op {
                    CmpOp::Eq => {
                        let set = keep_only.get_or_insert_with(|| vec![name.clone()]);
                        set.retain(|t| t == name);
                    }
                    CmpOp::Ne => drop_topics.push(name.clone()),
                    _ => {}
                }
            }
        }
    }

    // Join time constraints can name left.time/right.time; a match on
    // *either* side bounds the merged scan once widened by the join
    // window (the partner message is at most `within` away).
    if let Some(j) = &plan.join {
        if range.constrained {
            range.widen(j.within_ns);
        }
    }
    plan.scan.range = range.get();

    // Topic pruning only applies when `topic` is unambiguous (no join).
    if plan.join.is_none() {
        let before = plan.scan.topics.clone();
        if let Some(keep) = &keep_only {
            plan.scan.topics.retain(|t| keep.contains(t));
        }
        plan.scan.topics.retain(|t| !drop_topics.contains(t));
        plan.scan.pruned = before.into_iter().filter(|t| !plan.scan.topics.contains(t)).collect();

        // The whole filter rides down to the scan; nothing residual runs
        // on materialized rows.
        plan.scan.pushed_filter = Some(filter);
        plan.filter = None;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::Logical;

    fn opt(sql: &str) -> Logical {
        let q = parse(sql).unwrap();
        optimize(Logical::from_stmt(&q.stmt).unwrap(), &PlanOptions::default())
    }

    #[test]
    fn time_conjuncts_become_a_range() {
        let p = opt("SELECT time FROM '/imu' WHERE time >= 10.0 AND time < 20.0");
        let (lo, hi) = p.scan.range.unwrap();
        assert!((9_999_999_998..=10_000_000_000).contains(&lo));
        assert!((20_000_000_000..=20_000_000_003).contains(&hi));
        assert!(p.filter.is_none(), "filter fully pushed");
        assert!(p.scan.pushed_filter.is_some());
    }

    #[test]
    fn flipped_literal_side_still_pushes() {
        let p = opt("SELECT time FROM '/imu' WHERE 10.0 <= time AND 20.0 > time");
        let (lo, hi) = p.scan.range.unwrap();
        assert!(lo < 10_000_000_000);
        assert!(hi > 20_000_000_000 - 2 && hi < 20_000_000_005);
    }

    #[test]
    fn or_disables_range_derivation() {
        let p = opt("SELECT time FROM '/imu' WHERE time < 5.0 OR topic = '/imu'");
        assert!(p.scan.range.is_none(), "OR is not a conjunct");
        assert!(p.scan.pushed_filter.is_some(), "filter still pushes whole");
    }

    #[test]
    fn topic_pruning() {
        let p = opt("SELECT time FROM '/a', '/b', '/c' WHERE topic != '/b' AND time > 0.0");
        assert_eq!(p.scan.topics, vec!["/a", "/c"]);
        assert_eq!(p.scan.pruned, vec!["/b"]);
        let p = opt("SELECT time FROM '/a', '/b' WHERE topic = '/a'");
        assert_eq!(p.scan.topics, vec!["/a"]);
    }

    #[test]
    fn join_range_widens_by_within() {
        let p = opt("SELECT left.time FROM '/a' JOIN '/b' WITHIN 1s \
             WHERE left.time >= 10.0 AND left.time < 12.0");
        let (lo, hi) = p.scan.range.unwrap();
        assert!(lo <= 9_000_000_000, "widened down by 1s, got {lo}");
        assert!(hi >= 13_000_000_000, "widened up by 1s, got {hi}");
        assert!(p.filter.is_some(), "join filters stay residual");
    }

    #[test]
    fn pushdown_off_leaves_plan_naive() {
        let q = parse("SELECT time FROM '/imu' WHERE time < 5.0").unwrap();
        let p = optimize(Logical::from_stmt(&q.stmt).unwrap(), &PlanOptions { pushdown: false });
        assert!(p.scan.range.is_none());
        assert!(p.filter.is_some());
        assert!(!p.scan.pushdown);
    }
}
