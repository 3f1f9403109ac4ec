//! Pull-based plan execution.
//!
//! A [`Cursor`] interprets a [`Logical`] plan one output row at a time,
//! so the serve layer can stream results in bounded chunks instead of
//! materializing the result set. The source is either a zero-copy
//! [`MessageStream`] over a container or a live ingest snapshot (scan
//! pushdown applies — the stream's time range comes from the optimizer),
//! or a pre-merged record vector (the oracle tests' in-memory seam).
//!
//! **Bind, then scan.** Opening a cursor is the one moment that holds
//! both the plan and the source's topic → datatype map, so that is when
//! every path of the plan is *bound* (`Exprs::lower`): to `time` /
//! `topic` / `size`, or — once per scan topic — to an [`Accessor`] that
//! reads the field where it lies in the payload, or to a constant `Null`.
//! A scanned row is then a `Msg` view — `(time_ns, &topic, &payload)` —
//! of the message the stream lends (`MessageStream::lend`), evaluated
//! where it lies in its page: nothing is decoded, cloned or moved, and
//! nothing is allocated unless a string is read. Only a join keeps
//! messages, shared and owned, in its buffers.
//!
//! [`run_naive`] is the oracle: a deliberately simple interpretation of
//! the *statement* (no optimizer, no streaming, no accessors — it reads a
//! field by decoding the whole message, [`decode_field`]) that the
//! property tests compare every plan execution against. The two share
//! the comparison / boolean evaluator (`eval`), the projection and the
//! aggregate fold (`Groups`); they differ in how a path is read
//! (`ReadField`) and in everything around the evaluator.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use bora::{BoraBag, MessageStream, StreamMessage, StreamOptions};
use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::{IoCtx, MemStorage, Storage};

use crate::ast::{ExplainMode, Expr, Query, SelectStmt, Side};
use crate::error::{QueryError, QueryResult};
use crate::optimize::{optimize, PlanOptions};
use crate::plan::{AggItem, AggNode, AggSpec, JoinNode, Logical, PlanItems};
use crate::value::{compare, decode_field, Accessor, CmpOp, Row, Value};

/// Largest timestamp a [`Time`] can carry, in ns — pushdown ranges are
/// clamped here before conversion so `u64::MAX` sentinels can't wrap.
pub const MAX_TIME_NS: u64 = u32::MAX as u64 * 1_000_000_000 + 999_999_999;

/// The one canonical ns→seconds conversion. Everything that surfaces a
/// time as a value (the `time` builtin, window starts, `header.stamp`)
/// must use this so the equivalence tests compare identical floats.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

// ------------------------------------------------------------ messages

/// One message as the evaluator sees it: a view of wherever it lives.
#[derive(Clone, Copy)]
struct Msg<'m> {
    time_ns: u64,
    topic: &'m str,
    payload: &'m [u8],
    /// Position of `topic` among the plan's scan topics: which of a bound
    /// path's per-topic accessors reads this payload.
    lane: usize,
}

/// A message the cursor owns: a record its feed yielded, or one a join
/// buffer shares between the pairs it is part of.
struct Held {
    lane: usize,
    src: Pulled,
}

/// What a feed yields to keep: a shared slice of a stream's block, or a
/// record.
enum Pulled {
    Stream(StreamMessage),
    Record(MessageRecord),
}

impl Held {
    fn view(&self) -> Msg<'_> {
        let (time, topic, payload) = match &self.src {
            Pulled::Stream(m) => (m.time, &*m.topic, m.payload()),
            Pulled::Record(r) => (r.time, r.topic.as_str(), r.data.as_slice()),
        };
        Msg { time_ns: time.as_nanos(), topic, payload, lane: self.lane }
    }
}

/// One pipeline row: a single message, or a joined (left, right) pair.
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

// ---------------------------------------------------------- evaluation

/// How a message field is read — the one thing the cursor and the oracle
/// do differently.
trait ReadField {
    fn read(&self, m: &Msg<'_>) -> Value;
}

/// The cursor's reader: the path bound once per scan lane. `None` is a
/// constant `Null` (no datatype, no model of it, or no such field).
struct Bound(Vec<Option<Accessor>>);

impl ReadField for Bound {
    fn read(&self, m: &Msg<'_>) -> Value {
        match self.0.get(m.lane) {
            Some(Some(a)) => a.read(m.payload),
            _ => Value::Null,
        }
    }
}

/// The oracle's reader: look the topic's datatype up and decode the
/// whole message, every time.
struct Decoded<'a> {
    parts: &'a [String],
    datatypes: &'a HashMap<String, String>,
}

impl ReadField for Decoded<'_> {
    fn read(&self, m: &Msg<'_>) -> Value {
        decode_field(self.datatypes.get(m.topic).map(String::as_str), m.payload, self.parts)
    }
}

/// An [`Expr`] with its paths resolved: builtins to themselves, message
/// fields to an `F`.
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
    fn lower<'e>(e: &'e Expr, field: &mut impl FnMut(&'e [String]) -> F) -> Ev<F> {
        let mut sub = |e: &'e Expr| Box::new(Ev::lower(e, field));
        match e {
            Expr::Lit(v) => Ev::Lit(v.clone()),
            Expr::Path { side, parts, .. } => match parts.as_slice() {
                [b] if b == "time" => Ev::Time(*side),
                [b] if b == "topic" => Ev::Topic(*side),
                [b] if b == "size" => Ev::Size(*side),
                _ => Ev::Field(*side, field(parts)),
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

/// Evaluate an expression against a pipeline row. Total: unknown
/// fields are `Null`, failed comparisons are `false`.
fn eval<F: ReadField>(e: &Ev<F>, row: &InRow<'_>) -> Value {
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
    fn lower<'e>(plan: &'e Logical, mut field: impl FnMut(&'e [String]) -> F) -> Exprs<F> {
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

fn project<F: ReadField>(items: &[Ev<F>], row: &InRow<'_>) -> Row {
    items.iter().map(|e| eval(e, row)).collect()
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

/// The aggregate fold: rows in, per-window [`AggState`]s out. The group
/// of the previous row stays out of the map together with the time span
/// that shares its key, so a row inside that span costs neither a
/// division nor a map lookup — one of each per window on a time-ordered
/// scan, and still right on any other order (a revisited key is taken
/// back out of the map).
struct Groups<'p> {
    agg: &'p AggNode,
    parked: BTreeMap<u64, Vec<AggState>>,
    key: u64,
    /// Times whose window key is `key`; empty before the first row.
    span: std::ops::Range<u64>,
    states: Vec<AggState>,
}

impl<'p> Groups<'p> {
    fn new(agg: &'p AggNode) -> Self {
        Groups { agg, parked: BTreeMap::new(), key: 0, span: 0..0, states: Vec::new() }
    }

    fn fold<F: ReadField>(&mut self, args: &[Option<Ev<F>>], row: &InRow<'_>) {
        // Pair rows are only grouped globally (WINDOW+JOIN is rejected
        // at plan time), so any representative time works.
        let t = row.msg(Side::Left).time_ns;
        if !self.span.contains(&t) {
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
        for (st, arg) in self.states.iter_mut().zip(args) {
            st.update(arg.as_ref().map(|a| eval(a, row)));
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
    /// Delta of the global `block.decode` counter across execution.
    pub block_decodes: u64,
    /// Delta of the global `pool.hit` counter across execution.
    pub pool_hits: u64,
    /// Virtual I/O+CPU nanoseconds charged to the scan's `IoCtx`.
    pub virt_ns: u64,
    /// Wall-clock microseconds spent inside the cursor.
    pub wall_us: u64,
}

enum Feed<'a, S: Storage> {
    Bag { stream: MessageStream<'a, S>, ctx: &'a mut IoCtx, virt0: u64 },
    Records(std::vec::IntoIter<MessageRecord>),
}

impl<S: Storage> Feed<'_, S> {
    /// Pull the next message to keep (a join buffers it); `None` at the
    /// end. `lanes` is the scan lane of each stream lane: the stream says
    /// which of its topics a message is on, a record only its name.
    fn pull(&mut self, topics: &[String], lanes: &[usize]) -> QueryResult<Option<Held>> {
        Ok(match self {
            Feed::Bag { stream, ctx, .. } => stream
                .lend(ctx)?
                .map(|m| Held { lane: lanes[m.lane], src: Pulled::Stream(m.own()) }),
            Feed::Records(it) => it.next().map(|r| Held {
                lane: topics.iter().position(|t| *t == r.topic).unwrap_or(usize::MAX),
                src: Pulled::Record(r),
            }),
        })
    }

    /// Borrow the next message: what the stream lends, where it lies, or
    /// a view of the record just moved into `slot`.
    fn lend<'s>(
        &'s mut self,
        topics: &[String],
        lanes: &[usize],
        slot: &'s mut Option<Held>,
    ) -> QueryResult<Option<Msg<'s>>> {
        match self {
            Feed::Bag { stream, ctx, .. } => Ok(stream.lend(ctx)?.map(|m| Msg {
                time_ns: m.time.as_nanos(),
                topic: m.topic,
                payload: m.payload,
                lane: lanes[m.lane],
            })),
            Feed::Records(_) => {
                *slot = self.pull(topics, lanes)?;
                Ok(slot.as_ref().map(Held::view))
            }
        }
    }

    fn virt_elapsed(&mut self) -> u64 {
        match self {
            Feed::Bag { stream, ctx, virt0 } => {
                stream.charge_into(ctx);
                ctx.elapsed_ns().saturating_sub(*virt0)
            }
            Feed::Records(_) => 0,
        }
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
/// [`Cursor::stats`]. Aggregate plans buffer internally (they must see
/// all input before the first group row comes out); everything else
/// streams.
pub struct Cursor<'a, S: Storage> {
    plan: Logical,
    /// The plan's expressions, bound to the source's datatypes.
    exprs: Exprs<Bound>,
    feed: Feed<'a, S>,
    /// The scan lane of each of the feed's stream lanes (a stream runs
    /// over the scan topics its source has).
    lanes: Vec<usize>,
    /// The record last pulled; a non-join row over records is a view of
    /// it (a stream's row is a view of what the stream lends).
    cur: Option<Held>,
    join: Option<JoinState<Rc<Held>>>,
    /// The pair last popped; a join row is a view of it.
    pair: Option<(Rc<Held>, Rc<Held>)>,
    /// Emit partial (distributed) aggregate rows instead of final values.
    partial: bool,
    sample_seen: u64,
    agged: Option<std::vec::IntoIter<Row>>,
    stats: ExecStats,
    decode0: u64,
    pool0: u64,
    started: std::time::Instant,
    done: bool,
}

impl<'a, S: Storage> Cursor<'a, S> {
    fn new(
        plan: Logical,
        datatypes: &HashMap<String, String>,
        feed: Feed<'a, S>,
        partial: bool,
    ) -> QueryResult<Self> {
        if partial && plan.agg.is_none() {
            return Err(QueryError::plan("partial execution requires an aggregate query"));
        }
        // Bind: each path once per scan lane, against that lane's datatype.
        let lanes: Vec<Option<&String>> =
            plan.scan.topics.iter().map(|t| datatypes.get(t)).collect();
        let exprs = Exprs::lower(&plan, |parts| {
            Bound(lanes.iter().map(|dt| Accessor::bind(dt.as_ref()?, parts)).collect())
        });
        let topics = &plan.scan.topics;
        let lanes = match &feed {
            Feed::Bag { stream, .. } => stream
                .topics()
                .map(|t| topics.iter().position(|p| p == t).unwrap_or(usize::MAX))
                .collect(),
            Feed::Records(_) => Vec::new(),
        };
        Ok(Cursor {
            lanes,
            join: plan.join.as_ref().map(JoinState::new),
            plan,
            exprs,
            feed,
            cur: None,
            pair: None,
            partial,
            sample_seen: 0,
            agged: None,
            stats: ExecStats::default(),
            decode0: bora_obs::counter("block.decode").get(),
            pool0: bora_obs::counter("pool.hit").get(),
            started: std::time::Instant::now(),
            done: false,
        })
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
        if self.done {
            return Ok(None);
        }
        // LIMIT applies to final rows only; partial fragments ship
        // everything and the router limits after the merge.
        if !self.partial {
            if let Some(n) = self.plan.limit {
                if self.stats.rows_out >= n {
                    self.finish();
                    return Ok(None);
                }
            }
        }
        let row = if self.plan.agg.is_some() {
            if self.agged.is_none() {
                let rows = self.drain_aggregate()?;
                self.agged = Some(rows.into_iter());
            }
            self.agged.as_mut().unwrap().next()
        } else {
            self.next_match(|exprs, row| project(&exprs.items, row))?
        };
        match row {
            Some(r) => {
                self.stats.rows_out += 1;
                Ok(Some(r))
            }
            None => {
                self.finish();
                Ok(None)
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
            bora_obs::counter("block.decode").get().saturating_sub(self.decode0);
        self.stats.pool_hits = bora_obs::counter("pool.hit").get().saturating_sub(self.pool0);
        self.stats.wall_us = self.started.elapsed().as_micros() as u64;
    }

    /// Hand `f` the next row surviving scan(+pushed filter) → join →
    /// filter → sample, a view of the message (or pair) this cursor holds
    /// until the next call; `None` when the feed is dry.
    fn next_match<R>(
        &mut self,
        f: impl FnOnce(&Exprs<Bound>, &InRow<'_>) -> R,
    ) -> QueryResult<Option<R>> {
        let topics = &self.plan.scan.topics;
        loop {
            let row = if let Some(join) = &mut self.join {
                self.pair = join.pairs.pop_front();
                let Some((l, r)) = &self.pair else {
                    let Some(m) = self.feed.pull(topics, &self.lanes)? else { return Ok(None) };
                    let m = Rc::new(m);
                    let view = m.view();
                    self.stats.scanned += 1;
                    self.stats.scan_bytes += view.payload.len() as u64;
                    join.push(&view, Rc::clone(&m));
                    continue;
                };
                self.stats.joined += 1;
                InRow::Pair(l.view(), r.view())
            } else {
                let Some(m) = self.feed.lend(topics, &self.lanes, &mut self.cur)? else {
                    return Ok(None);
                };
                self.stats.scanned += 1;
                self.stats.scan_bytes += m.payload.len() as u64;
                InRow::Single(m)
            };
            // The pushed predicate is the whole filter of a non-join
            // plan, moved to the scan; its drops are counted apart.
            if self.exprs.pushed.as_ref().is_some_and(|p| !eval(p, &row).truthy()) {
                self.stats.pushed_dropped += 1;
                continue;
            }
            if self.exprs.filter.as_ref().is_some_and(|f| !eval(f, &row).truthy()) {
                self.stats.filtered_out += 1;
                continue;
            }
            if let Some(n) = self.plan.sample_every {
                let idx = self.sample_seen;
                self.sample_seen += 1;
                if !idx.is_multiple_of(n) {
                    self.stats.sampled_out += 1;
                    continue;
                }
            }
            return Ok(Some(f(&self.exprs, &row)));
        }
    }

    fn drain_aggregate(&mut self) -> QueryResult<Vec<Row>> {
        let agg = self.plan.agg.clone().unwrap();
        let mut groups = Groups::new(&agg);
        while self.next_match(|exprs, row| groups.fold(&exprs.agg_args, row))?.is_some() {}
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
    pub fn cursor_stream<'a, S: Storage>(
        &self,
        stream: MessageStream<'a, S>,
        datatypes: HashMap<String, String>,
        partial: bool,
        ctx: &'a mut IoCtx,
    ) -> QueryResult<Cursor<'a, S>> {
        let virt0 = ctx.elapsed_ns();
        Cursor::new(self.plan.clone(), &datatypes, Feed::Bag { stream, ctx, virt0 }, partial)
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
        // [`Prepared::cursor_stream`], with `ExecStats::virt_ns` counted
        // from before the stream is built (its per-topic tag lookups).
        let virt0 = ctx.elapsed_ns();
        let stream = bag.stream_topics_with_tails(&present, Vec::new(), range, opts, ctx)?;
        Cursor::new(self.plan.clone(), &datatypes, Feed::Bag { stream, ctx, virt0 }, partial)
    }

    /// Open a cursor over pre-merged records (the oracle tests' and
    /// benches' in-memory seam). Records must already be in merge order.
    pub fn cursor_records(
        &self,
        records: Vec<MessageRecord>,
        datatypes: HashMap<String, String>,
        partial: bool,
    ) -> QueryResult<Cursor<'static, MemStorage>> {
        let wanted = &self.plan.scan.topics;
        let filtered: Vec<MessageRecord> = records
            .into_iter()
            .filter(|r| wanted.contains(&r.topic))
            .filter(|r| match self.plan.scan.range {
                Some((lo, hi)) => {
                    let t = r.time.as_nanos();
                    t >= lo && t < hi
                }
                None => true,
            })
            .collect();
        Cursor::new(self.plan.clone(), &datatypes, Feed::Records(filtered.into_iter()), partial)
    }
}

// ------------------------------------------------------------- oracle

/// Reference interpreter: executes the *statement* directly over a
/// record list with no optimizer, streaming or bound accessor involved —
/// every field read decodes the whole message ([`decode_field`]). The
/// property tests assert `plan(bag) == naive(records)` for random
/// queries; divergence means the clever path broke.
pub fn run_naive(
    stmt: &SelectStmt,
    records: &[MessageRecord],
    datatypes: &HashMap<String, String>,
) -> QueryResult<(Vec<String>, Vec<Row>)> {
    // Reuse the planner for validation + column names only: unoptimized,
    // its filter is the statement's WHERE and nothing is pushed.
    let plan = Logical::from_stmt(stmt)?;
    let exprs = Exprs::lower(&plan, |parts| Decoded { parts, datatypes });
    fn view(r: &MessageRecord) -> Msg<'_> {
        Msg { time_ns: r.time.as_nanos(), topic: &r.topic, payload: &r.data, lane: 0 }
    }

    // 1. Select relevant topics, preserving caller order.
    let scanned = records.iter().filter(|r| plan.scan.topics.contains(&r.topic)).map(view);
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
            rows.iter().for_each(|r| groups.fold(&exprs.agg_args, r));
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
    use ros_msgs::sensor_msgs::Imu;
    use ros_msgs::RosMessage;

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

    fn run(sql: &str, recs: &[MessageRecord], dts: &HashMap<String, String>) -> Vec<Row> {
        let p = prepare(sql).unwrap();
        let mut c = p.cursor_records(recs.to_vec(), dts.clone(), false).unwrap();
        c.collect_rows().unwrap()
    }

    #[test]
    fn filter_project_limit() {
        let (recs, dts) = imu_records(20);
        let rows = run(
            "SELECT time, angular_velocity.x FROM '/imu' WHERE angular_velocity.x > 0.95 LIMIT 3",
            &recs,
            &dts,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Float(10.0));
    }

    #[test]
    fn windowed_aggregate() {
        let (recs, dts) = imu_records(10);
        let rows = run(
            "SELECT window, count(), mean(angular_velocity.x) FROM '/imu' WINDOW 5s",
            &recs,
            &dts,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Float(0.0), Value::Int(5), Value::Float(0.2)]);
        assert_eq!(rows[1][1], Value::Int(5));
    }

    #[test]
    fn sample_every() {
        let (recs, dts) = imu_records(10);
        let rows = run("SELECT time FROM '/imu' SAMPLE EVERY 3", &recs, &dts);
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
            let fast = run(sql, &recs, &dts);
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
            assert_eq!(run(sql, &recs, &dts), all, "cursor: {sql}");
            let q = crate::parser::parse(sql).unwrap();
            assert_eq!(run_naive(&q.stmt, &recs, &dts).unwrap().1, all, "run_naive: {sql}");
        }
    }

    #[test]
    fn partials_merge_to_single_node_answer() {
        let (recs, dts) = imu_records(20);
        let sql = "SELECT window, count(), mean(angular_velocity.x) FROM '/imu' WINDOW 4s";
        let p = prepare(sql).unwrap();
        let whole =
            p.cursor_records(recs.clone(), dts.clone(), false).unwrap().collect_rows().unwrap();
        // Split into two "containers" and merge their partials.
        let (a, b) = recs.split_at(11);
        let pa = p.cursor_records(a.to_vec(), dts.clone(), true).unwrap().collect_rows().unwrap();
        let pb = p.cursor_records(b.to_vec(), dts.clone(), true).unwrap().collect_rows().unwrap();
        let merged = merge_partials(&p.plan, &[pa, pb]).unwrap();
        assert_eq!(whole, merged);
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
        let rows = run(sql, &recs, &dts);
        // Each /b at i.5 pairs with /a at i (0.5s gap) and /a at i+1
        // (0.5s gap): 5 + 4 = 9 pairs.
        assert_eq!(rows.len(), 9);
        let q = crate::parser::parse(sql).unwrap();
        let (_, slow) = run_naive(&q.stmt, &recs, &dts).unwrap();
        assert_eq!(rows, slow);
    }
}
