//! Plan execution, a batch at a time.
//!
//! A [`Cursor`] interprets a [`Logical`] plan over batches of up to
//! `BATCH` rows and hands out one result row per call, so the serve
//! layer can stream results in bounded chunks instead of materializing
//! the result set. Its one input is a zero-copy [`MessageStream`] over a
//! container or a live ingest snapshot (scan pushdown applies — the
//! stream's time range comes from the optimizer).
//!
//! **Bind, then scan.** Opening a cursor is the one moment that holds
//! both the plan and the source's topic → datatype map, so that is when
//! every path of the plan is *bound* (`Exprs::lower`): to `time` /
//! `topic` / `size`, or to a column of the batch read, once per scan
//! topic, by an [`Accessor`] — or by nothing, a constant `Null`.
//!
//! **Gather.** A batch fills from the runs the stream lends
//! (`MessageStream::lend_run`: one merge decision for up to the room the
//! batch has left of one lane's messages in one page) or the pairs a join
//! has buffered (pulled a message at a time, `lend` then own). A run's
//! heads — time, lane and size — are appended at once, and its lane's
//! row of accessors is looked up once; then each payload is walked once
//! with the lane's walk, and every bound path is read at the offset that
//! walk found into a typed column with a null mask. Nothing is decoded
//! and nothing is kept: the run goes back before the next one is lent.
//! Only a join holds messages, shared and owned, in its buffers.
//!
//! **Evaluate.** Each lowered expression runs over the whole batch into
//! a column: a literal is one value for every row, a comparison is one
//! loop over a column and a literal (or two columns), `AND`/`OR`/`NOT`
//! combine masks. The pushed and residual filters and `SAMPLE EVERY`
//! leave a selection vector, and the projection reads the rows it names.
//! With a `LIMIT`, a batch gathers no more rows than the limit still
//! needs, so a cursor scans exactly the messages a row-at-a-time one did.
//!
//! **Aggregate.** A merge delivers times in order, so the selected rows
//! of one window are a run whose end is a binary search
//! (`partition_point`) on the time column, and `count`/`mean`/`min`/
//! `max` fold each run in row order: a mean adds the same values in the
//! same order as a row-at-a-time fold, so every result is bit-identical.
//!
//! [`run_naive`] is the oracle: a deliberately simple interpretation of
//! the *statement* (no optimizer, no streaming, no batches, no accessors
//! — it reads a field by decoding the whole message, [`decode_field`])
//! that the property tests compare every plan execution against. Only
//! it runs the row-at-a-time evaluator (`eval`), the projection
//! (`project`) and the per-row aggregate fold (`Groups::fold_row`) —
//! `tests/structure.rs` holds them there. It shares with the cursor what
//! should exist once: the lowered expressions (`Ev`), the join's
//! buffers, the window groups and the aggregate states.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

use bora::{BoraBag, MessageStream, Run, StreamMessage, StreamOptions};
use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::{IoCtx, Storage};

use crate::ast::{ExplainMode, Expr, Query, SelectStmt, Side};
use crate::error::{QueryError, QueryResult};
use crate::optimize::{optimize, PlanOptions};
use crate::plan::{AggItem, AggNode, AggSpec, JoinNode, Logical, PlanItems};
use crate::value::{compare, decode_field, Accessor, CmpOp, Kind, Read, Row, Value};

/// Largest timestamp a [`Time`] can carry, in ns — pushdown ranges are
/// clamped here before conversion so `u64::MAX` sentinels can't wrap.
pub const MAX_TIME_NS: u64 = u32::MAX as u64 * 1_000_000_000 + 999_999_999;

/// The one canonical ns→seconds conversion. Everything that surfaces a
/// time as a value (the `time` builtin, window starts, `header.stamp`)
/// must use this so the equivalence tests compare identical floats.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Rows a cursor gathers before it evaluates: enough that what a batch
/// pays once (an evaluation per expression, a search per window) is
/// nothing per row, few enough that its columns stay in cache.
const BATCH: usize = 256;

// ------------------------------------------------------------ messages

/// One message as the executor sees it: a view of wherever it lives.
#[derive(Clone, Copy)]
struct Msg<'m> {
    time_ns: u64,
    topic: &'m str,
    payload: &'m [u8],
    /// Position of `topic` among the cursor's lanes (the plan's scan
    /// topics first): which of a bound path's accessors reads this
    /// payload.
    lane: usize,
}

impl<'m> Msg<'m> {
    /// The oracle's view of a record: it binds no accessor, so it reads
    /// no lane.
    fn of_record(r: &'m MessageRecord) -> Msg<'m> {
        Msg { time_ns: r.time.as_nanos(), topic: &r.topic, payload: &r.data, lane: 0 }
    }
}

/// A message the cursor owns: one a join buffer shares between the
/// pairs it is part of, a shared slice of its stream's block.
struct Held {
    lane: usize,
    msg: StreamMessage,
}

impl Held {
    fn view(&self) -> Msg<'_> {
        let m = &self.msg;
        Msg { time_ns: m.time.as_nanos(), topic: &m.topic, payload: m.payload(), lane: self.lane }
    }
}

/// One oracle row: a single message, or a joined (left, right) pair.
#[derive(Clone, Copy)]
enum InRow<'m> {
    Single(Msg<'m>),
    Pair(Msg<'m>, Msg<'m>),
}

impl<'m> InRow<'m> {
    fn msg(&self, side: Side) -> &Msg<'m> {
        match (self, side) {
            (InRow::Single(m), _) | (InRow::Pair(m, _), Side::None | Side::Left) => m,
            (InRow::Pair(_, r), Side::Right) => r,
        }
    }
}

// --------------------------------------------------------- expressions

/// The oracle's field reader: look the topic's datatype up and decode
/// the whole message, every time.
struct Decoded<'a> {
    parts: &'a [String],
    datatypes: &'a HashMap<String, String>,
}

impl Decoded<'_> {
    fn read(&self, m: &Msg<'_>) -> Value {
        decode_field(self.datatypes.get(m.topic).map(String::as_str), m.payload, self.parts)
    }
}

/// An [`Expr`] with its paths resolved: builtins to themselves, message
/// fields to an `F` — a batch column's index in a cursor, a [`Decoded`]
/// reader in the oracle.
enum Ev<F> {
    Lit(Value),
    Time(Side),
    Topic(Side),
    Size(Side),
    Field(Side, F),
    Cmp { op: CmpOp, lhs: Box<Ev<F>>, rhs: Box<Ev<F>> },
    And(Box<Ev<F>>, Box<Ev<F>>),
    Or(Box<Ev<F>>, Box<Ev<F>>),
    Not(Box<Ev<F>>),
}

impl<F> Ev<F> {
    fn lower<'e>(e: &'e Expr, field: &mut impl FnMut(Side, &'e [String]) -> F) -> Ev<F> {
        let mut sub = |e: &'e Expr| Box::new(Ev::lower(e, field));
        match e {
            Expr::Lit(v) => Ev::Lit(v.clone()),
            Expr::Path { side, parts, .. } => match parts.as_slice() {
                [b] if b == "time" => Ev::Time(*side),
                [b] if b == "topic" => Ev::Topic(*side),
                [b] if b == "size" => Ev::Size(*side),
                _ => Ev::Field(*side, field(*side, parts)),
            },
            Expr::Cmp { op, lhs, rhs } => Ev::Cmp { op: *op, lhs: sub(lhs), rhs: sub(rhs) },
            Expr::And(a, b) => Ev::And(sub(a), sub(b)),
            Expr::Or(a, b) => Ev::Or(sub(a), sub(b)),
            Expr::Not(x) => Ev::Not(sub(x)),
            // Unreachable: the planner rejects aggregates outside the
            // SELECT list and lowers their arguments, never the calls.
            Expr::Agg { .. } => Ev::Lit(Value::Null),
        }
    }
}

/// The oracle's evaluator: one expression against one row. Total:
/// unknown fields are `Null`, failed comparisons are `false`.
fn eval(e: &Ev<Decoded<'_>>, row: &InRow<'_>) -> Value {
    match e {
        Ev::Lit(v) => v.clone(),
        Ev::Time(s) => Value::Float(ns_to_secs(row.msg(*s).time_ns)),
        Ev::Topic(s) => Value::Str(row.msg(*s).topic.to_owned()),
        Ev::Size(s) => Value::Int(row.msg(*s).payload.len() as i64),
        Ev::Field(s, f) => f.read(row.msg(*s)),
        Ev::Cmp { op, lhs, rhs } => Value::Bool(compare(*op, &eval(lhs, row), &eval(rhs, row))),
        Ev::And(a, b) => Value::Bool(eval(a, row).truthy() && eval(b, row).truthy()),
        Ev::Or(a, b) => Value::Bool(eval(a, row).truthy() || eval(b, row).truthy()),
        Ev::Not(x) => Value::Bool(!eval(x, row).truthy()),
    }
}

/// Every expression of a plan, lowered with one field resolver.
struct Exprs<F> {
    pushed: Option<Ev<F>>,
    filter: Option<Ev<F>>,
    /// The projection (`SELECT *` is its three builtins); empty for an
    /// aggregate plan.
    items: Vec<Ev<F>>,
    /// One per [`AggSpec`]; `None` for `count()`.
    agg_args: Vec<Option<Ev<F>>>,
}

impl<F> Exprs<F> {
    fn lower<'e>(plan: &'e Logical, mut field: impl FnMut(Side, &'e [String]) -> F) -> Exprs<F> {
        let mut ev = |e: &'e Expr| Ev::lower(e, &mut field);
        Exprs {
            pushed: plan.scan.pushed_filter.as_ref().map(&mut ev),
            filter: plan.filter.as_ref().map(&mut ev),
            items: match &plan.items {
                // `SELECT *` with JOIN is a plan error: no side needed.
                PlanItems::Star => {
                    vec![Ev::Time(Side::None), Ev::Topic(Side::None), Ev::Size(Side::None)]
                }
                PlanItems::Exprs(items) => items.iter().map(&mut ev).collect(),
                PlanItems::Aggs(_) => Vec::new(),
            },
            agg_args: plan
                .agg
                .iter()
                .flat_map(|a| &a.specs)
                .map(|s| s.arg.as_ref().map(&mut ev))
                .collect(),
        }
    }
}

/// The oracle's projection of one row.
fn project(items: &[Ev<Decoded<'_>>], row: &InRow<'_>) -> Row {
    items.iter().map(|e| eval(e, row)).collect()
}

// ------------------------------------------------------------- columns

/// One expression's value on every row of a batch. A typed column
/// carries its null mask in its rows (`None` is a null).
#[derive(Clone)]
enum Col {
    /// The same on every row: a literal, or a path no lane binds.
    Const(Value),
    /// A comparison or a boolean; never null.
    Bool(Vec<bool>),
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    /// Strings, and a path whose lanes read different kinds.
    Values(Vec<Value>),
}

impl Col {
    /// The empty column of a path bound by `accessors`, one per lane.
    fn of_field(accessors: &[Option<Accessor>]) -> Col {
        let mut kinds = accessors.iter().flatten().map(Accessor::kind);
        let Some(kind) = kinds.next() else { return Col::Const(Value::Null) };
        match kind {
            _ if kinds.any(|k| k != kind) => Col::Values(Vec::new()),
            Kind::Int => Col::Int(Vec::new()),
            Kind::Float => Col::Float(Vec::new()),
            Kind::Str => Col::Values(Vec::new()),
        }
    }

    fn clear(&mut self) {
        match self {
            Col::Const(_) => {}
            Col::Bool(v) => v.clear(),
            Col::Int(v) => v.clear(),
            Col::Float(v) => v.clear(),
            Col::Values(v) => v.clear(),
        }
    }

    /// Append one row's read; `None` is a null.
    fn push(&mut self, read: Option<Read<'_>>) {
        match self {
            Col::Int(v) => v.push(if let Some(Read::Int(x)) = read { Some(x) } else { None }),
            Col::Float(v) => v.push(if let Some(Read::Float(x)) = read { Some(x) } else { None }),
            Col::Values(v) => v.push(read.map_or(Value::Null, Read::value)),
            Col::Const(_) | Col::Bool(_) => {}
        }
    }

    /// Row `i` as a value.
    fn value(&self, i: usize) -> Value {
        match self {
            Col::Const(v) => v.clone(),
            Col::Bool(v) => Value::Bool(v[i]),
            Col::Int(v) => v[i].map_or(Value::Null, Value::Int),
            Col::Float(v) => v[i].map_or(Value::Null, Value::Float),
            Col::Values(v) => v[i].clone(),
        }
    }

    /// Row `i` as [`Value::as_f64`] sees it.
    fn num(&self, i: usize) -> Option<f64> {
        match self {
            Col::Const(v) => v.as_f64(),
            Col::Int(v) => v[i].map(|x| x as f64),
            Col::Float(v) => v[i],
            Col::Values(v) => v[i].as_f64(),
            Col::Bool(_) => None,
        }
    }

    fn is_null(&self, i: usize) -> bool {
        match self {
            Col::Const(v) => v.is_null(),
            Col::Bool(_) => false,
            Col::Int(v) => v[i].is_none(),
            Col::Float(v) => v[i].is_none(),
            Col::Values(v) => v[i].is_null(),
        }
    }

    /// Whether every row is a number or a null: `compare` on two such
    /// columns is a float comparison of their [`Col::num`]s.
    fn numeric(&self) -> bool {
        match self {
            Col::Int(_) | Col::Float(_) => true,
            Col::Const(v) => v.is_null() || v.as_f64().is_some(),
            _ => false,
        }
    }

    /// The rows that are `Bool(true)`: what a filter keeps.
    fn truthy(&self, n: usize) -> Vec<bool> {
        match self {
            Col::Bool(v) => v.clone(),
            Col::Const(v) => vec![v.truthy(); n],
            Col::Values(v) => v.iter().map(Value::truthy).collect(),
            _ => vec![false; n],
        }
    }
}

/// `compare(op, a[i], b[i])` on every row, in one loop per shape.
fn compare_cols(op: CmpOp, a: &Col, b: &Col, n: usize) -> Vec<bool> {
    match (a, b) {
        (Col::Const(x), Col::Const(y)) => vec![compare(op, x, y); n],
        // `field > 4.2`, `time >= 119.2`: the literal stays a float of
        // seconds, compared as `compare` compares it.
        (Col::Float(x), Col::Const(c)) if c.as_f64().is_some() => {
            fn each(x: &[Option<f64>], y: f64, f: impl Fn(f64, f64) -> bool) -> Vec<bool> {
                x.iter().map(|x| x.is_some_and(|x| f(x, y))).collect()
            }
            let y = c.as_f64().unwrap_or_default();
            // `op.holds(x.partial_cmp(&y))`, spelled so that a NaN is
            // unordered: it satisfies no operator, `!=` included.
            match op {
                CmpOp::Eq => each(x, y, |x, y| x == y),
                CmpOp::Ne => each(x, y, |x, y| matches!(x.partial_cmp(&y), Some(o) if o.is_ne())),
                CmpOp::Lt => each(x, y, |x, y| x < y),
                CmpOp::Le => each(x, y, |x, y| x <= y),
                CmpOp::Gt => each(x, y, |x, y| x > y),
                CmpOp::Ge => each(x, y, |x, y| x >= y),
            }
        }
        _ if a.numeric() && b.numeric() => (0..n)
            .map(|i| match (a.num(i), b.num(i)) {
                (Some(x), Some(y)) => op.holds(x.partial_cmp(&y)),
                _ => false,
            })
            .collect(),
        _ => (0..n).map(|i| compare(op, &a.value(i), &b.value(i))).collect(),
    }
}

/// A path's accessor on each lane; `None` reads as null.
type Lanes = Vec<Option<Accessor>>;

/// The accessor whose walk walks a lane's payloads: the first bound in
/// its `row` (every accessor bound for one datatype walks alike); `None`
/// when the lane binds no path.
fn walker(row: &[Option<Accessor>]) -> Option<&Accessor> {
    row.iter().flatten().next()
}

/// Append one payload's row to `fields`: each path read through its
/// accessor in `row` (one per field; `None` reads as null) at `body`,
/// where the lane's walk found the payload's fields.
#[inline]
fn read_fields(fields: &mut [Col], row: &[Option<Accessor>], payload: &[u8], body: Option<usize>) {
    for (col, a) in fields.iter_mut().zip(row) {
        col.push(a.as_ref().and_then(|a| a.read_at(payload, body?)));
    }
}

/// Which message of a row a path reads: a join's right one is slot 1,
/// every other is slot 0.
fn slot(side: Side) -> usize {
    usize::from(side == Side::Right)
}

/// What a row's message is, besides its fields.
#[derive(Clone, Copy)]
struct Head {
    time_ns: u64,
    lane: u32,
    size: u32,
}

/// One message of each of a batch's rows, column by column.
struct Slot {
    heads: Vec<Head>,
    /// One column per path bound on this side of the row.
    fields: Vec<Col>,
}

/// Up to [`BATCH`] gathered rows.
struct Batch {
    slots: [Slot; 2],
    /// Each slot's `time` column, made when first asked for.
    secs: [OnceCell<Col>; 2],
    /// `accessors[s][lane][f]`: how field `f` of slot `s` is read on
    /// `lane` — a lane's row, so a run resolves its accessors once.
    accessors: [Vec<Vec<Option<Accessor>>>; 2],
    /// The topic of each lane.
    topics: Vec<String>,
}

impl Batch {
    /// A batch over `topics`, whose fields `fields[s][f]` are read on
    /// each lane as that path binds there (past its lanes: as null).
    fn new(fields: [Vec<Lanes>; 2], topics: Vec<String>) -> Batch {
        let slot = |a: &Vec<Lanes>| Slot {
            heads: Vec::with_capacity(BATCH),
            fields: a.iter().map(|lanes| Col::of_field(lanes)).collect(),
        };
        let slots = [slot(&fields[0]), slot(&fields[1])];
        let row = |f: &[Lanes], lane| f.iter().map(|l| l.get(lane).copied().flatten()).collect();
        let accessors = fields.map(|f| (0..topics.len()).map(|lane| row(&f, lane)).collect());
        Batch { slots, secs: Default::default(), accessors, topics }
    }

    fn len(&self) -> usize {
        self.slots[0].heads.len()
    }

    fn clear(&mut self) {
        for s in &mut self.slots {
            s.heads.clear();
            s.fields.iter_mut().for_each(Col::clear);
        }
        self.secs.iter_mut().for_each(|c| drop(c.take()));
    }

    /// Gather one message into slot `s` (a join's pair has two): its
    /// time, lane and size, then every path bound on that side.
    fn push(&mut self, s: usize, m: &Msg<'_>) {
        let slot = &mut self.slots[s];
        let (lane, size) = (m.lane as u32, m.payload.len() as u32);
        slot.heads.push(Head { time_ns: m.time_ns, lane, size });
        let row = &self.accessors[s][m.lane];
        let body = walker(row).and_then(|w| w.walk(m.payload));
        read_fields(&mut slot.fields, row, m.payload, body);
    }

    /// Gather a run of one stream lane's messages, on cursor lane `lane`,
    /// into slot 0: every head at once, then the payloads in one loop,
    /// each walked once and read through the lane's row of accessors —
    /// row and walk resolved once for the run.
    fn push_run(&mut self, lane: usize, run: &Run<'_>) {
        let (slot, row) = (&mut self.slots[0], &self.accessors[0][lane]);
        slot.heads.extend(run.messages().map(|m| Head {
            time_ns: m.time.as_nanos(),
            lane: lane as u32,
            size: m.payload.len() as u32,
        }));
        if slot.fields.is_empty() {
            return;
        }
        let walker = walker(row);
        for m in run.messages() {
            let body = walker.and_then(|w| w.walk(m.payload));
            read_fields(&mut slot.fields, row, m.payload, body);
        }
    }

    /// `e` on every row; a path's column is the batch's own.
    fn column(&self, e: &Ev<usize>) -> Cow<'_, Col> {
        let n = self.len();
        let heads = |s: &Side| self.slots[slot(*s)].heads.iter();
        // `a AND b`, or with `or` set `a OR b`, of two masks.
        let both = |a: &Ev<usize>, b: &Ev<usize>, or: bool| {
            let (a, b) = (self.column(a).truthy(n), self.column(b).truthy(n));
            Col::Bool(a.iter().zip(&b).map(|(&a, &b)| a & b | or & (a | b)).collect())
        };
        Cow::Owned(match e {
            Ev::Lit(v) => Col::Const(v.clone()),
            Ev::Time(s) => {
                return Cow::Borrowed(self.secs[slot(*s)].get_or_init(|| {
                    Col::Float(heads(s).map(|h| Some(ns_to_secs(h.time_ns))).collect())
                }))
            }
            Ev::Topic(s) => Col::Values(
                heads(s).map(|h| Value::Str(self.topics[h.lane as usize].clone())).collect(),
            ),
            Ev::Size(s) => Col::Int(heads(s).map(|h| Some(h.size.into())).collect()),
            Ev::Field(s, f) => return Cow::Borrowed(&self.slots[slot(*s)].fields[*f]),
            Ev::Cmp { op, lhs, rhs } => {
                Col::Bool(compare_cols(*op, &self.column(lhs), &self.column(rhs), n))
            }
            Ev::And(a, b) => both(a, b, false),
            Ev::Or(a, b) => both(a, b, true),
            Ev::Not(x) => Col::Bool(self.column(x).truthy(n).into_iter().map(|t| !t).collect()),
        })
    }
}

// ---------------------------------------------------------- aggregates

/// Running state of one aggregate over one group. `Mean` keeps `(sum,
/// n)` separately so distributed partials merge exactly: the router
/// adds per-container sums in container order, which is the same
/// association a single node merging the same containers uses.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Mean { sum: f64, n: u64 },
}

impl AggState {
    pub fn new(spec: &AggSpec) -> AggState {
        match spec.func {
            crate::ast::AggFunc::Count => AggState::Count(0),
            crate::ast::AggFunc::Min => AggState::Min(None),
            crate::ast::AggFunc::Max => AggState::Max(None),
            crate::ast::AggFunc::Mean => AggState::Mean { sum: 0.0, n: 0 },
        }
    }

    /// Fold one row's argument value in. `None` means the spec has no
    /// argument (`count()`), which counts unconditionally; `count(e)`
    /// counts non-null values only.
    pub fn update(&mut self, v: Option<Value>) {
        match self {
            AggState::Count(n) => {
                if !matches!(v, Some(Value::Null)) {
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && (cur.is_none() || compare(CmpOp::Lt, &v, cur.as_ref().unwrap()))
                    {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && (cur.is_none() || compare(CmpOp::Gt, &v, cur.as_ref().unwrap()))
                    {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Mean { sum, n } => {
                if let Some(f) = v.and_then(|v| v.as_f64()) {
                    *sum += f;
                    *n += 1;
                }
            }
        }
    }

    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Mean { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        }
    }

    /// Flatten into a partial row (the distributed wire format).
    pub fn encode_partial(&self, out: &mut Row) {
        match self {
            AggState::Count(n) => out.push(Value::Int(*n as i64)),
            AggState::Min(v) | AggState::Max(v) => out.push(v.clone().unwrap_or(Value::Null)),
            AggState::Mean { sum, n } => {
                out.push(Value::Float(*sum));
                out.push(Value::Int(*n as i64));
            }
        }
    }

    /// Fold a peer's flattened state in, advancing `i` past the cells
    /// this state occupies.
    pub fn merge_partial(&mut self, row: &Row, i: &mut usize) -> QueryResult<()> {
        let mut take = || -> QueryResult<Value> {
            let v = row.get(*i).cloned().ok_or_else(|| {
                QueryError::wire("partial aggregate row is shorter than the plan expects")
            })?;
            *i += 1;
            Ok(v)
        };
        match self {
            AggState::Count(n) => match take()? {
                Value::Int(m) if m >= 0 => *n += m as u64,
                v => return Err(QueryError::wire(format!("bad count partial {v:?}"))),
            },
            AggState::Min(_) => {
                let v = take()?;
                self.update(Some(v));
            }
            AggState::Max(_) => {
                let v = take()?;
                self.update(Some(v));
            }
            AggState::Mean { sum, n } => {
                match take()? {
                    Value::Float(s) => *sum += s,
                    v => return Err(QueryError::wire(format!("bad mean sum partial {v:?}"))),
                }
                match take()? {
                    Value::Int(m) if m >= 0 => *n += m as u64,
                    v => return Err(QueryError::wire(format!("bad mean count partial {v:?}"))),
                }
            }
        }
        Ok(())
    }
}

/// Column names of the partial (distributed) row shape for a plan.
pub fn partial_columns(specs: &[AggSpec]) -> Vec<String> {
    let mut cols = vec!["__window".to_owned()];
    for s in specs {
        match s.func {
            crate::ast::AggFunc::Mean => {
                cols.push(format!("__{}_sum", s.func.name()));
                cols.push(format!("__{}_n", s.func.name()));
            }
            _ => cols.push(format!("__{}", s.func.name())),
        }
    }
    cols
}

/// The aggregate's groups: per-window [`AggState`]s. The current group
/// stays out of the map together with the time span that shares its
/// key, so the rows of one window reach it without a division or a map
/// lookup — one of each per window on a time-ordered scan, and still
/// right on any other order (a revisited key is taken back out of the
/// map).
struct Groups<'p> {
    agg: &'p AggNode,
    parked: BTreeMap<u64, Vec<AggState>>,
    key: u64,
    /// Times whose window key is `key`; empty before the first row.
    span: Range<u64>,
    states: Vec<AggState>,
}

impl<'p> Groups<'p> {
    fn new(agg: &'p AggNode) -> Self {
        Groups { agg, parked: BTreeMap::new(), key: 0, span: 0..0, states: Vec::new() }
    }

    /// Make the group of time `t` the current one.
    fn enter(&mut self, t: u64) {
        if self.span.contains(&t) {
            return;
        }
        self.park();
        // No WINDOW is one window as wide as time itself.
        let w = self.agg.window_ns.map_or(u64::MAX, |w| w.max(1));
        self.key = t / w;
        self.span = self.key * w..(self.key * w).saturating_add(w);
        self.states = self
            .parked
            .remove(&self.key)
            .unwrap_or_else(|| self.agg.specs.iter().map(AggState::new).collect());
    }

    /// The oracle's fold: one row.
    fn fold_row(&mut self, args: &[Option<Ev<Decoded<'_>>>], row: &InRow<'_>) {
        // Pair rows are only grouped globally (WINDOW+JOIN is rejected
        // at plan time), so any representative time works.
        self.enter(row.msg(Side::Left).time_ns);
        for (st, arg) in self.states.iter_mut().zip(args) {
            st.update(arg.as_ref().map(|a| eval(a, row)));
        }
    }

    /// The cursor's fold: the rows `sel` of a batch whose (left)
    /// messages are `heads`, one run per window. On a merge the times
    /// are sorted, and a run ends where a binary search finds its
    /// window's end.
    fn fold_batch(&mut self, args: &[Option<Cow<'_, Col>>], heads: &[Head], sel: &[usize]) {
        let time = |r: usize| heads[r].time_ns;
        let sorted = heads.is_sorted_by_key(|h| h.time_ns);
        let mut rest = sel;
        while let Some(&first) = rest.first() {
            self.enter(time(first));
            let span = &self.span;
            let run = if sorted {
                rest.partition_point(|&r| time(r) < span.end)
            } else {
                rest.iter().take_while(|&&r| span.contains(&time(r))).count()
            };
            for (st, arg) in self.states.iter_mut().zip(args) {
                fold_run(st, arg.as_deref(), &rest[..run]);
            }
            rest = &rest[run..];
        }
    }

    fn park(&mut self) {
        if !self.span.is_empty() {
            self.parked.insert(self.key, std::mem::take(&mut self.states));
        }
    }

    /// Every group, in window order.
    fn finish(mut self) -> BTreeMap<u64, Vec<AggState>> {
        self.park();
        self.parked
    }
}

/// Fold the rows `rows` of `arg` (`None`: `count()`) into `st` in row
/// order — what [`AggState::update`] does a row at a time, as one loop
/// over a typed column where there is one.
fn fold_run(st: &mut AggState, arg: Option<&Col>, rows: &[usize]) {
    let Some(col) = arg else {
        if let AggState::Count(n) = st {
            *n += rows.len() as u64;
        }
        return;
    };
    match (st, col) {
        (AggState::Count(n), c) => *n += rows.iter().filter(|&&r| !c.is_null(r)).count() as u64,
        (st, Col::Float(x)) if folds_floats(st) => {
            // A run of a selection vector is most often a slice.
            match (rows.first(), rows.last()) {
                (Some(&a), Some(&b)) if b - a + 1 == rows.len() => fold_floats(st, &x[a..=b]),
                _ => fold_floats(st, rows.iter().map(|&r| &x[r])),
            }
        }
        (AggState::Mean { sum, n }, c) => {
            for f in rows.iter().filter_map(|&r| c.num(r)) {
                *sum += f;
                *n += 1;
            }
        }
        (st, c) => rows.iter().for_each(|&r| st.update(Some(c.value(r)))),
    }
}

/// Whether `st` takes a float run as floats: all but a `min`/`max` that
/// holds a value of another kind (which `AggState::update` compares).
fn folds_floats(st: &AggState) -> bool {
    match st {
        AggState::Min(Some(v)) | AggState::Max(Some(v)) => matches!(v, Value::Float(_)),
        _ => true,
    }
}

/// `mean`, `min` or `max` over a float run: a mean adds in row order; an
/// extreme is replaced by a row that is not null when it is empty or the
/// row compares strictly before (`min`) or after (`max`) it — so a NaN
/// met first is kept, and a NaN met later is not taken.
fn fold_floats<'x>(st: &mut AggState, xs: impl IntoIterator<Item = &'x Option<f64>>) {
    let xs = xs.into_iter().flatten().copied();
    let (cur, want) = match st {
        AggState::Mean { sum, n } => {
            for f in xs {
                *sum += f;
                *n += 1;
            }
            return;
        }
        AggState::Min(cur) => (cur, Ordering::Less),
        AggState::Max(cur) => (cur, Ordering::Greater),
        AggState::Count(_) => return,
    };
    let mut m = cur.as_ref().and_then(Value::as_f64);
    for x in xs {
        if m.is_none_or(|m| x.partial_cmp(&m) == Some(want)) {
            m = Some(x);
        }
    }
    *cur = m.map(Value::Float);
}

// ------------------------------------------------------------- cursor

/// Per-operator counters surfaced by `EXPLAIN ANALYZE` and the query
/// benchmarks. Counter deltas (`block.decode`, `pool.hit`) are process
/// globals — meaningful in a single-query process (CLI, benchmark),
/// racy under parallel tests, which is why only serial contexts assert
/// on them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Messages pulled out of the scan (post time-range pushdown).
    pub scanned: u64,
    /// Payload bytes of scanned messages.
    pub scan_bytes: u64,
    /// Messages dropped by the pushed-down predicate, pre-materialization.
    pub pushed_dropped: u64,
    /// Join pairs emitted.
    pub joined: u64,
    /// Rows dropped by the residual filter.
    pub filtered_out: u64,
    /// Rows dropped by SAMPLE EVERY.
    pub sampled_out: u64,
    /// Aggregation groups produced.
    pub groups: u64,
    /// Rows returned to the caller.
    pub rows_out: u64,
    /// Delta of the global `block.decode` counter since the
    /// [`ExecMark`] — from before the scan's stream was built.
    pub block_decodes: u64,
    /// Delta of the global `pool.hit` counter since the [`ExecMark`].
    pub pool_hits: u64,
    /// Virtual I/O+CPU nanoseconds charged to the scan's `IoCtx`.
    pub virt_ns: u64,
    /// Wall-clock microseconds spent inside the cursor.
    pub wall_us: u64,
}

/// The process counters [`ExecStats`] reports deltas of, read before a
/// scan's stream is built: building one fills its first readahead
/// window, and those decodes are the query's too. [`Prepared::cursor_bag`]
/// takes its own; a caller of [`Prepared::cursor_stream`] takes one
/// before it builds the stream and hands it to [`Cursor::since`].
#[derive(Debug, Clone, Copy)]
pub struct ExecMark {
    decodes: u64,
    pool_hits: u64,
}

impl ExecMark {
    pub fn now() -> ExecMark {
        ExecMark {
            decodes: bora_obs::counter("block.decode").get(),
            pool_hits: bora_obs::counter("pool.hit").get(),
        }
    }
}

/// The cursor's one input: a merge, and the clock it charges.
struct Feed<'a, S: Storage> {
    stream: MessageStream<'a, S>,
    ctx: &'a mut IoCtx,
    virt0: u64,
}

impl<S: Storage> Feed<'_, S> {
    /// Pull the next message to keep (a join buffers it); `None` at the
    /// end. `lanes` is the cursor lane of each stream lane.
    fn pull(&mut self, lanes: &[usize]) -> QueryResult<Option<Held>> {
        let m = self.stream.lend(self.ctx)?;
        Ok(m.map(|m| Held { lane: lanes[m.lane], msg: m.own() }))
    }

    fn virt_elapsed(&mut self) -> u64 {
        self.stream.charge_into(self.ctx);
        self.ctx.elapsed_ns().saturating_sub(self.virt0)
    }
}

/// The join's buffers over message handles `M`: shared owned messages in
/// a cursor, plain views in the oracle.
struct JoinState<M> {
    left_topic: String,
    within: u64,
    left: VecDeque<(u64, M)>,
    right: VecDeque<(u64, M)>,
    pairs: VecDeque<(M, M)>,
}

impl<M: Clone> JoinState<M> {
    fn new(j: &JoinNode) -> Self {
        JoinState {
            left_topic: j.left.clone(),
            within: j.within_ns,
            left: VecDeque::new(),
            right: VecDeque::new(),
            pairs: VecDeque::new(),
        }
    }

    /// Admit one merged-stream message (`m`, seen as `view`): evict
    /// expired partners, pair it with every surviving opposite-side
    /// message, buffer it. Pairs come out in merge order at the arrival
    /// of the later member — the oracle runs the identical procedure.
    fn push(&mut self, view: &Msg<'_>, m: M) {
        let horizon = view.time_ns.saturating_sub(self.within);
        for side in [&mut self.left, &mut self.right] {
            while side.front().is_some_and(|x| x.0 < horizon) {
                side.pop_front();
            }
        }
        if view.topic == self.left_topic {
            self.pairs.extend(self.right.iter().map(|(_, r)| (m.clone(), r.clone())));
            self.left.push_back((view.time_ns, m));
        } else {
            self.pairs.extend(self.left.iter().map(|(_, l)| (l.clone(), m.clone())));
            self.right.push_back((view.time_ns, m));
        }
    }
}

/// A running query: pull rows with [`Cursor::next_row`], then read
/// [`Cursor::stats`]. Aggregate plans drain the feed before the first
/// row (they must see all input before a group is final); everything
/// else streams a batch at a time.
pub struct Cursor<'a, S: Storage> {
    plan: Logical,
    /// The plan's expressions, their paths bound to the batch's columns.
    exprs: Exprs<usize>,
    feed: Feed<'a, S>,
    /// The cursor lane of each of the feed's stream lanes (a stream runs
    /// over the scan topics its source has).
    lanes: Vec<usize>,
    batch: Batch,
    join: Option<JoinState<Rc<Held>>>,
    /// Emit partial (distributed) aggregate rows instead of final values.
    partial: bool,
    sample_seen: u64,
    /// Rows made and not yet returned: a batch's, or every group's.
    out: std::vec::IntoIter<Row>,
    /// Whether an aggregate has drained its feed.
    drained: bool,
    stats: ExecStats,
    mark: ExecMark,
    started: std::time::Instant,
    done: bool,
}

impl<'a, S: Storage> Cursor<'a, S> {
    fn new(
        plan: Logical,
        datatypes: &HashMap<String, String>,
        feed: Feed<'a, S>,
        partial: bool,
        mark: ExecMark,
    ) -> QueryResult<Self> {
        if partial && plan.agg.is_none() {
            return Err(QueryError::plan("partial execution requires an aggregate query"));
        }
        // Bind: each distinct path of a side once per scan lane, against
        // that lane's datatype.
        let dts: Vec<Option<&String>> = plan.scan.topics.iter().map(|t| datatypes.get(t)).collect();
        let mut bound: [Vec<(&[String], Lanes)>; 2] = Default::default();
        let exprs = Exprs::lower(&plan, |side, parts| {
            let fields = &mut bound[slot(side)];
            fields.iter().position(|(p, _)| *p == parts).unwrap_or_else(|| {
                let lanes = dts.iter().map(|dt| Accessor::bind(dt.as_ref()?, parts)).collect();
                fields.push((parts, lanes));
                fields.len() - 1
            })
        });
        let accessors = bound.map(|fields| fields.into_iter().map(|(_, lanes)| lanes).collect());
        // A stream topic outside the scan topics (a caller's choice)
        // gets a lane of its own that reads every field as null.
        let mut topics = plan.scan.topics.clone();
        let lanes = feed
            .stream
            .topics()
            .map(|t| {
                topics.iter().position(|p| p == t).unwrap_or_else(|| {
                    topics.push(t.to_owned());
                    topics.len() - 1
                })
            })
            .collect();
        Ok(Cursor {
            lanes,
            batch: Batch::new(accessors, topics),
            join: plan.join.as_ref().map(JoinState::new),
            plan,
            exprs,
            feed,
            partial,
            sample_seen: 0,
            out: Vec::new().into_iter(),
            drained: false,
            stats: ExecStats::default(),
            mark,
            started: std::time::Instant::now(),
            done: false,
        })
    }

    /// Count [`ExecStats::block_decodes`] and `pool_hits` from `mark`,
    /// taken before the stream this cursor reads was built.
    pub fn since(mut self, mark: ExecMark) -> Self {
        self.mark = mark;
        self
    }

    /// Output column names (partial mode has its own shape).
    pub fn columns(&self) -> Vec<String> {
        if self.partial {
            partial_columns(&self.plan.agg.as_ref().unwrap().specs)
        } else {
            self.plan.columns.clone()
        }
    }

    /// Next row after filter/sample/aggregate/project/limit, or `None`.
    pub fn next_row(&mut self) -> QueryResult<Option<Row>> {
        loop {
            if self.done {
                return Ok(None);
            }
            // LIMIT applies to final rows only; partial fragments ship
            // everything and the router limits after the merge.
            if !self.partial && self.plan.limit.is_some_and(|n| self.stats.rows_out >= n) {
                self.finish();
                return Ok(None);
            }
            if let Some(r) = self.out.next() {
                self.stats.rows_out += 1;
                return Ok(Some(r));
            }
            if !self.refill()? {
                self.finish();
                return Ok(None);
            }
        }
    }

    /// Drain everything; convenience for non-streaming callers.
    pub fn collect_rows(&mut self) -> QueryResult<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_row()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Operator counters. Final once the cursor has returned `None`.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.stats.virt_ns = self.feed.virt_elapsed();
        self.stats.block_decodes =
            bora_obs::counter("block.decode").get().saturating_sub(self.mark.decodes);
        self.stats.pool_hits =
            bora_obs::counter("pool.hit").get().saturating_sub(self.mark.pool_hits);
        self.stats.wall_us = self.started.elapsed().as_micros() as u64;
    }

    /// Make the next rows: every group of an aggregate, or the rows of
    /// the next batch (perhaps none); `false` once there are no more.
    fn refill(&mut self) -> QueryResult<bool> {
        if self.plan.agg.is_some() {
            if self.drained {
                return Ok(false);
            }
            self.drained = true;
            self.out = self.aggregate()?.into_iter();
            return Ok(true);
        }
        // A row comes from at most one message or pair, so a batch no
        // larger than what the LIMIT still needs scans nothing a
        // row-at-a-time cursor would not.
        let left = self.plan.limit.map_or(u64::MAX, |n| n - self.stats.rows_out);
        self.gather(left.min(BATCH as u64) as usize)?;
        if self.batch.len() == 0 {
            return Ok(false);
        }
        let sel = self.select();
        if !sel.is_empty() {
            let items: Vec<_> = self.exprs.items.iter().map(|e| self.batch.column(e)).collect();
            let rows: Vec<Row> =
                sel.iter().map(|&i| items.iter().map(|c| c.value(i)).collect()).collect();
            self.out = rows.into_iter();
        }
        Ok(true)
    }

    /// Gather up to `cap` rows — messages, or a join's pairs — into the
    /// batch; fewer means the feed is dry.
    fn gather(&mut self, cap: usize) -> QueryResult<()> {
        let (batch, stats) = (&mut self.batch, &mut self.stats);
        batch.clear();
        let Some(join) = &mut self.join else {
            while batch.len() < cap {
                let feed = &mut self.feed;
                let Some(run) = feed.stream.lend_run(feed.ctx, cap - batch.len())? else { break };
                batch.push_run(self.lanes[run.lane], &run);
            }
            stats.scanned += batch.len() as u64;
            stats.scan_bytes += batch.slots[0].heads.iter().map(|h| u64::from(h.size)).sum::<u64>();
            return Ok(());
        };
        while batch.len() < cap {
            if let Some((l, r)) = join.pairs.pop_front() {
                stats.joined += 1;
                batch.push(0, &l.view());
                batch.push(1, &r.view());
                continue;
            }
            let Some(m) = self.feed.pull(&self.lanes)? else { break };
            let m = Rc::new(m);
            let view = m.view();
            stats.scanned += 1;
            stats.scan_bytes += view.payload.len() as u64;
            join.push(&view, Rc::clone(&m));
        }
        Ok(())
    }

    /// The batch's rows that pass the pushed filter, the residual filter
    /// and `SAMPLE EVERY`, in order; the others are counted where they
    /// dropped out.
    fn select(&mut self) -> Vec<usize> {
        let n = self.batch.len();
        let mut sel: Vec<usize> = (0..n).collect();
        // The pushed predicate is the whole filter of a non-join plan,
        // moved to the scan; its drops are counted apart.
        for (e, dropped) in [
            (&self.exprs.pushed, &mut self.stats.pushed_dropped),
            (&self.exprs.filter, &mut self.stats.filtered_out),
        ] {
            if let Some(e) = e {
                let keep = self.batch.column(e).truthy(n);
                let before = sel.len();
                sel.retain(|&i| keep[i]);
                *dropped += (before - sel.len()) as u64;
            }
        }
        if let Some(k) = self.plan.sample_every {
            let (before, seen) = (sel.len(), &mut self.sample_seen);
            sel.retain(|_| {
                *seen += 1;
                (*seen - 1).is_multiple_of(k)
            });
            self.stats.sampled_out += (before - sel.len()) as u64;
        }
        sel
    }

    fn aggregate(&mut self) -> QueryResult<Vec<Row>> {
        let agg = self.plan.agg.clone().unwrap();
        let mut groups = Groups::new(&agg);
        loop {
            self.gather(BATCH)?;
            let sel = self.select();
            if !sel.is_empty() {
                let args: Vec<Option<_>> = (self.exprs.agg_args.iter())
                    .map(|a| a.as_ref().map(|e| self.batch.column(e)))
                    .collect();
                groups.fold_batch(&args, &self.batch.slots[0].heads, &sel);
            }
            if self.batch.len() < BATCH {
                break;
            }
        }
        let groups = groups.finish();
        self.stats.groups = groups.len() as u64;
        let mut rows = Vec::with_capacity(groups.len());
        for (key, states) in &groups {
            if self.partial {
                let mut r: Row = vec![Value::Int(*key as i64)];
                for st in states {
                    st.encode_partial(&mut r);
                }
                rows.push(r);
            } else {
                rows.push(finalize_group(&self.plan, &agg, *key, states));
            }
        }
        Ok(rows)
    }
}

/// Project one finished group through the plan's aggregate items.
fn finalize_group(plan: &Logical, agg: &AggNode, key: u64, states: &[AggState]) -> Row {
    let PlanItems::Aggs(items) = &plan.items else {
        return Vec::new();
    };
    items
        .iter()
        .map(|it| match it {
            AggItem::Window => Value::Float(ns_to_secs(key * agg.window_ns.unwrap_or(0))),
            AggItem::Agg(i) => states[*i].finalize(),
        })
        .collect()
}

/// Merge per-container partial aggregate rows (in the order given —
/// container order, which both the 1-node and N-node paths use) and
/// finalize through the plan's items, applying the plan's LIMIT.
pub fn merge_partials(plan: &Logical, partials: &[Vec<Row>]) -> QueryResult<Vec<Row>> {
    let agg = plan
        .agg
        .as_ref()
        .ok_or_else(|| QueryError::plan("merge_partials on a non-aggregate plan"))?;
    let mut groups: BTreeMap<u64, Vec<AggState>> = BTreeMap::new();
    for rows in partials {
        for row in rows {
            let key = match row.first() {
                Some(Value::Int(k)) if *k >= 0 => *k as u64,
                other => return Err(QueryError::wire(format!("bad partial window key {other:?}"))),
            };
            let states =
                groups.entry(key).or_insert_with(|| agg.specs.iter().map(AggState::new).collect());
            let mut i = 1usize;
            for st in states.iter_mut() {
                st.merge_partial(row, &mut i)?;
            }
            if i != row.len() {
                return Err(QueryError::wire("partial aggregate row has trailing cells"));
            }
        }
    }
    let mut out: Vec<Row> =
        groups.iter().map(|(key, states)| finalize_group(plan, agg, *key, states)).collect();
    if let Some(n) = plan.limit {
        out.truncate(n as usize);
    }
    Ok(out)
}

// ------------------------------------------------------------ prepare

/// A parsed, planned, optimized query ready to execute any number of
/// times against bags, snapshots, or shipped records.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub sql: String,
    pub query: Query,
    pub plan: Logical,
}

/// Parse + plan + optimize with default options (pushdown on).
pub fn prepare(sql: &str) -> QueryResult<Prepared> {
    prepare_with(sql, &PlanOptions::default())
}

/// Parse + plan + optimize with explicit options.
pub fn prepare_with(sql: &str, opts: &PlanOptions) -> QueryResult<Prepared> {
    let query = crate::parser::parse(sql)?;
    let plan = optimize(Logical::from_stmt(&query.stmt)?, opts);
    Ok(Prepared { sql: sql.to_owned(), query, plan })
}

impl Prepared {
    pub fn explain_mode(&self) -> ExplainMode {
        self.query.explain
    }

    /// The optimizer's pushed-down `[start, end)` scan range as stream
    /// bounds, clamped to what a [`Time`] can carry.
    pub fn scan_range(&self) -> Option<(Time, Time)> {
        self.plan.scan.range.map(|(lo, hi)| {
            (Time::from_nanos(lo.min(MAX_TIME_NS)), Time::from_nanos(hi.min(MAX_TIME_NS)))
        })
    }

    /// Open a cursor over an already-built merge — the one executor
    /// entry every source shares (a container, or a live ingest
    /// snapshot's container + tails). The caller builds `stream` over
    /// the plan's scan topics that the source has, bounded by
    /// [`Prepared::scan_range`]; `datatypes` maps topic → ROS datatype
    /// for field access (a topic without one reads its fields as null).
    /// Block decodes and pool hits count from here unless the caller
    /// hands the cursor an earlier [`ExecMark`] ([`Cursor::since`]).
    pub fn cursor_stream<'a, S: Storage>(
        &self,
        stream: MessageStream<'a, S>,
        datatypes: HashMap<String, String>,
        partial: bool,
        ctx: &'a mut IoCtx,
    ) -> QueryResult<Cursor<'a, S>> {
        let (virt0, mark) = (ctx.elapsed_ns(), ExecMark::now());
        let feed = Feed { stream, ctx, virt0 };
        Cursor::new(self.plan.clone(), &datatypes, feed, partial, mark)
    }

    /// Open a cursor over a container. The optimizer's time range and
    /// topic pruning feed straight into the stream's coarse-time-index
    /// candidate selection; FROM topics absent from the container are
    /// skipped (a fleet query runs over heterogeneous bags).
    pub fn cursor_bag<'a, S: Storage>(
        &self,
        bag: &'a BoraBag<S>,
        partial: bool,
        ctx: &'a mut IoCtx,
    ) -> QueryResult<Cursor<'a, S>> {
        let datatypes = bag.meta().datatypes();
        let present: Vec<&str> = self
            .plan
            .scan
            .topics
            .iter()
            .map(String::as_str)
            .filter(|t| datatypes.contains_key(*t))
            .collect();
        let (range, opts) = (self.scan_range(), StreamOptions::default());
        // [`Prepared::cursor_stream`], with the virtual time, the block
        // decodes and the pool hits counted from before the stream is
        // built (its tag lookups and its first readahead window).
        let (virt0, mark) = (ctx.elapsed_ns(), ExecMark::now());
        let stream = bag.stream_topics_with_tails(&present, Vec::new(), range, opts, ctx)?;
        let feed = Feed { stream, ctx, virt0 };
        Cursor::new(self.plan.clone(), &datatypes, feed, partial, mark)
    }
}

// ------------------------------------------------------------- oracle

/// Reference interpreter: executes the *statement* directly over a
/// record list with no optimizer, streaming, batch or bound accessor
/// involved, a row at a time — every field read decodes the whole
/// message ([`decode_field`]). The property tests assert `plan(bag) ==
/// naive(records)` for random queries; divergence means the clever path
/// broke.
pub fn run_naive(
    stmt: &SelectStmt,
    records: &[MessageRecord],
    datatypes: &HashMap<String, String>,
) -> QueryResult<(Vec<String>, Vec<Row>)> {
    // Reuse the planner for validation + column names only: unoptimized,
    // its filter is the statement's WHERE and nothing is pushed.
    let plan = Logical::from_stmt(stmt)?;
    let exprs = Exprs::lower(&plan, |_, parts| Decoded { parts, datatypes });
    // 1. Select relevant topics, preserving caller order.
    let scanned = records.iter().filter(|r| plan.scan.topics.contains(&r.topic));
    let scanned = scanned.map(Msg::of_record);
    let mut rows: Vec<InRow<'_>> = match &plan.join {
        None => scanned.map(InRow::Single).collect(),
        Some(j) => {
            let mut js = JoinState::new(j);
            scanned.for_each(|m| js.push(&m, m));
            js.pairs.into_iter().map(|(l, r)| InRow::Pair(l, r)).collect()
        }
    };

    // 2. WHERE.
    if let Some(f) = &exprs.filter {
        rows.retain(|r| eval(f, r).truthy());
    }

    // 3. SAMPLE EVERY n.
    if let Some(n) = stmt.sample_every {
        let mut i = 0u64;
        rows.retain(|_| {
            let keep = i.is_multiple_of(n);
            i += 1;
            keep
        });
    }

    // 4. Aggregate or project.
    let mut out: Vec<Row> = match &plan.agg {
        Some(agg) => {
            let mut groups = Groups::new(agg);
            rows.iter().for_each(|r| groups.fold_row(&exprs.agg_args, r));
            let groups = groups.finish();
            groups.iter().map(|(key, states)| finalize_group(&plan, agg, *key, states)).collect()
        }
        None => rows.iter().map(|r| project(&exprs.items, r)).collect(),
    };

    // 5. LIMIT.
    if let Some(n) = stmt.limit {
        out.truncate(n as usize);
    }
    Ok((plan.columns, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bora::OrganizerOptions;
    use ros_msgs::msg::MessageDescriptor;
    use ros_msgs::sensor_msgs::Imu;
    use ros_msgs::RosMessage;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    fn imu_records(n: u32) -> (Vec<MessageRecord>, HashMap<String, String>) {
        let mut recs = Vec::new();
        for i in 0..n {
            let mut imu = Imu::default();
            imu.header.stamp = Time::new(i, 0);
            imu.angular_velocity.x = i as f64 * 0.1;
            recs.push(MessageRecord {
                conn_id: 0,
                topic: "/imu".into(),
                time: Time::new(i, 0),
                data: imu.to_bytes(),
            });
        }
        let dts = HashMap::from([("/imu".to_owned(), Imu::DATATYPE.to_owned())]);
        (recs, dts)
    }

    /// `recs` (`Imu` payloads, in merge order) organised into a container
    /// at `root`.
    fn container<'f>(
        fs: &'f MemStorage,
        root: &str,
        recs: &[MessageRecord],
    ) -> BoraBag<&'f MemStorage> {
        let ctx = &mut IoCtx::new();
        let bag = format!("{root}.bag");
        let mut w = BagWriter::create(fs, &bag, BagWriterOptions::default(), ctx).unwrap();
        let mut conns = HashMap::new();
        for r in recs {
            let conn = *conns
                .entry(&r.topic)
                .or_insert_with(|| w.add_connection(&r.topic, &MessageDescriptor::of::<Imu>()));
            w.write_message(conn, r.time, &r.data, ctx).unwrap();
        }
        w.close(ctx).unwrap();
        bora::duplicate(fs, &bag, fs, root, &OrganizerOptions::default(), ctx).unwrap();
        BoraBag::open(fs, root, ctx).unwrap()
    }

    fn run(sql: &str, recs: &[MessageRecord]) -> Vec<Row> {
        let fs = MemStorage::new();
        let bag = container(&fs, "/c", recs);
        let ctx = &mut IoCtx::new();
        prepare(sql).unwrap().cursor_bag(&bag, false, ctx).unwrap().collect_rows().unwrap()
    }

    #[test]
    fn filter_project_limit() {
        let (recs, _) = imu_records(20);
        let rows = run(
            "SELECT time, angular_velocity.x FROM '/imu' WHERE angular_velocity.x > 0.95 LIMIT 3",
            &recs,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Float(10.0));
    }

    #[test]
    fn windowed_aggregate() {
        let (recs, _) = imu_records(10);
        let rows =
            run("SELECT window, count(), mean(angular_velocity.x) FROM '/imu' WINDOW 5s", &recs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Float(0.0), Value::Int(5), Value::Float(0.2)]);
        assert_eq!(rows[1][1], Value::Int(5));
    }

    #[test]
    fn sample_every() {
        let (recs, _) = imu_records(10);
        let rows = run("SELECT time FROM '/imu' SAMPLE EVERY 3", &recs);
        assert_eq!(rows.len(), 4); // indices 0, 3, 6, 9
    }

    #[test]
    fn naive_matches_cursor() {
        let (recs, dts) = imu_records(30);
        for sql in [
            "SELECT * FROM '/imu' WHERE time >= 5.0 AND time < 25.0",
            "SELECT count(), min(angular_velocity.x), max(angular_velocity.x) FROM '/imu'",
            "SELECT window, mean(size) FROM '/imu' WHERE time > 3.0 WINDOW 7s LIMIT 2",
            "SELECT topic, size FROM '/imu' SAMPLE EVERY 4 LIMIT 5",
        ] {
            let fast = run(sql, &recs);
            let q = crate::parser::parse(sql).unwrap();
            let (_, slow) = run_naive(&q.stmt, &recs, &dts).unwrap();
            assert_eq!(fast, slow, "{sql}");
        }
    }

    /// `header.stamp` and `time` are both seconds of the same nanosecond
    /// count: a message stamped at its record time satisfies
    /// `header.stamp = time` at every instant, not at the ~60 % where
    /// `sec + nsec * 1e-9` and `ns * 1e-9` happen to round alike.
    #[test]
    fn stamp_equals_time_at_every_instant() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut nsec = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_000_000) as u32
        };
        // The `hs` mission's range, then a real ROS epoch.
        let secs = (100..150).cycle().take(600).chain((0..600).map(|i| 1_305_031_102 + i / 4));
        let mut times: Vec<Time> = secs.map(|sec| Time { sec, nsec: nsec() }).collect();
        times.sort();
        let recs: Vec<MessageRecord> = times
            .iter()
            .map(|&time| {
                let mut imu = Imu::default();
                imu.header.stamp = time;
                MessageRecord { conn_id: 0, topic: "/imu".into(), time, data: imu.to_bytes() }
            })
            .collect();
        let dts = HashMap::from([("/imu".to_owned(), Imu::DATATYPE.to_owned())]);
        for sql in [
            "SELECT count() FROM '/imu' WHERE header.stamp = time",
            "SELECT count() FROM '/imu' WHERE header.stamp >= time AND header.stamp <= time",
        ] {
            let all = vec![vec![Value::Int(recs.len() as i64)]];
            assert_eq!(run(sql, &recs), all, "cursor: {sql}");
            let q = crate::parser::parse(sql).unwrap();
            assert_eq!(run_naive(&q.stmt, &recs, &dts).unwrap().1, all, "run_naive: {sql}");
        }
    }

    /// The typed fast paths — float comparisons against a literal and
    /// the `min`/`max`/`mean` folds — mean what `compare` and
    /// `AggState::update` mean on NaNs, signed zeros and infinities, bit
    /// for bit, across batch edges.
    #[test]
    fn typed_paths_agree_with_compare_on_odd_floats() {
        let odd = [f64::NAN, -0.0, 0.0, 1.5, f64::INFINITY, -2.0, f64::NEG_INFINITY, 0.25];
        let recs: Vec<MessageRecord> = (0..700u32)
            .map(|i| {
                let mut imu = Imu::default();
                imu.angular_velocity.x = odd[(i as usize * 7 + i as usize / 3) % odd.len()];
                let time = Time::new(i / 10, (i % 10) * 100_000_000);
                MessageRecord { conn_id: 0, topic: "/imu".into(), time, data: imu.to_bytes() }
            })
            .collect();
        let dts = HashMap::from([("/imu".to_owned(), Imu::DATATYPE.to_owned())]);
        let agg = "count(angular_velocity.x), mean(angular_velocity.x), \
                   min(angular_velocity.x), max(angular_velocity.x)";
        for sql in [
            format!("SELECT window, {agg} FROM '/imu' WINDOW 3s"),
            format!("SELECT {agg} FROM '/imu' WHERE time >= 26.0"),
            "SELECT time FROM '/imu' WHERE angular_velocity.x != 0.0".to_owned(),
            "SELECT time FROM '/imu' WHERE angular_velocity.x = 0.0".to_owned(),
            "SELECT time FROM '/imu' WHERE angular_velocity.x <= 1.5".to_owned(),
            "SELECT time FROM '/imu' WHERE NOT (angular_velocity.x > 0.0)".to_owned(),
            "SELECT time, angular_velocity.x FROM '/imu' WHERE angular_velocity.x >= 0".to_owned(),
        ] {
            let fast = run(&sql, &recs);
            let q = crate::parser::parse(&sql).unwrap();
            let (_, slow) = run_naive(&q.stmt, &recs, &dts).unwrap();
            assert!(crate::encode_rows(&fast) == crate::encode_rows(&slow), "{sql}");
        }
    }

    #[test]
    fn partials_merge_to_single_node_answer() {
        let (recs, _) = imu_records(20);
        let sql = "SELECT window, count(), mean(angular_velocity.x) FROM '/imu' WINDOW 4s";
        let p = prepare(sql).unwrap();
        let fs = MemStorage::new();
        // The whole mission in one container, and split across two whose
        // windows straddle the split.
        let (a, b) = recs.split_at(11);
        let [whole, a, b] = [("/w", &recs[..]), ("/a", a), ("/b", b)]
            .map(|(root, recs)| container(&fs, root, recs));
        let rows = |bag: &BoraBag<&MemStorage>, partial| {
            p.cursor_bag(bag, partial, &mut IoCtx::new()).unwrap().collect_rows().unwrap()
        };
        let merged = merge_partials(&p.plan, &[rows(&a, true), rows(&b, true)]).unwrap();
        assert_eq!(rows(&whole, false), merged);
    }

    #[test]
    fn join_pairs_within_window() {
        let mut recs = Vec::new();
        for i in 0..5u32 {
            let mut imu = Imu::default();
            imu.header.stamp = Time::new(i, 0);
            recs.push(MessageRecord {
                conn_id: 0,
                topic: "/a".into(),
                time: Time::new(i, 0),
                data: imu.to_bytes(),
            });
            recs.push(MessageRecord {
                conn_id: 1,
                topic: "/b".into(),
                time: Time::new(i, 500_000_000),
                data: imu.to_bytes(),
            });
        }
        let dts = HashMap::from([
            ("/a".to_owned(), Imu::DATATYPE.to_owned()),
            ("/b".to_owned(), Imu::DATATYPE.to_owned()),
        ]);
        let sql = "SELECT left.time, right.time FROM '/a' JOIN '/b' WITHIN 600ms";
        let rows = run(sql, &recs);
        // Each /b at i.5 pairs with /a at i (0.5s gap) and /a at i+1
        // (0.5s gap): 5 + 4 = 9 pairs.
        assert_eq!(rows.len(), 9);
        let q = crate::parser::parse(sql).unwrap();
        let (_, slow) = run_naive(&q.stmt, &recs, &dts).unwrap();
        assert_eq!(rows, slow);
    }
}
