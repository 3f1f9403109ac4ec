//! Pull-based plan execution.
//!
//! A [`Cursor`] interprets a [`Logical`] plan one output row at a time,
//! so the serve layer can stream results in bounded chunks instead of
//! materializing the result set. The source is either a zero-copy
//! [`MessageStream`] over a container or a live ingest snapshot (scan
//! pushdown applies — the stream's time range comes from the optimizer,
//! and the pushed filter is evaluated against the shared-slice payload
//! before any copy), or a pre-merged record vector (the oracle tests'
//! in-memory seam).
//!
//! [`run_naive`] is the oracle: a deliberately simple interpretation of
//! the *statement* (no plan, no optimizer, no streaming) that the
//! property tests compare every plan execution against.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use bora::{BoraBag, MessageStream, StreamOptions};
use ros_msgs::msg::AnyMessage;
use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::{IoCtx, MemStorage, Storage};

use crate::ast::{ExplainMode, Expr, Query, SelectStmt, Side};
use crate::error::{QueryError, QueryResult};
use crate::optimize::{optimize, PlanOptions};
use crate::plan::{AggItem, AggSpec, Logical, PlanItems};
use crate::value::{compare, extract_field, CmpOp, Row, Value};

/// Largest timestamp a [`Time`] can carry, in ns — pushdown ranges are
/// clamped here before conversion so `u64::MAX` sentinels can't wrap.
pub const MAX_TIME_NS: u64 = u32::MAX as u64 * 1_000_000_000 + 999_999_999;

/// The one canonical ns→seconds conversion. Everything that surfaces a
/// `time` value (executor, oracle, window starts) must use this so the
/// equivalence tests compare identical floats.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

// ------------------------------------------------------------ messages

/// One message flowing through the pipeline. Payload access is
/// zero-copy for stream sources; field access decodes lazily and caches
/// the decoded message (a join pairing a message many times decodes it
/// once).
struct QMsg {
    time_ns: u64,
    src: QMsgSrc,
    decoded: Option<Option<AnyMessage>>,
}

enum QMsgSrc {
    Stream(bora::StreamMessage),
    Record(MessageRecord),
}

impl QMsg {
    fn topic(&self) -> &str {
        match &self.src {
            QMsgSrc::Stream(m) => &m.topic,
            QMsgSrc::Record(r) => &r.topic,
        }
    }

    fn payload(&self) -> &[u8] {
        match &self.src {
            QMsgSrc::Stream(m) => m.payload(),
            QMsgSrc::Record(r) => &r.data,
        }
    }

    fn field(&mut self, parts: &[String], datatypes: &HashMap<String, String>) -> Value {
        if self.decoded.is_none() {
            let d = datatypes
                .get(self.topic())
                .and_then(|dt| AnyMessage::decode(dt, self.payload()).ok());
            self.decoded = Some(d);
        }
        match self.decoded.as_ref().unwrap() {
            Some(m) => extract_field(m, parts),
            None => Value::Null,
        }
    }
}

/// Shared handle: join buffers and emitted pairs alias the same message
/// (and its decode cache) without copying the payload.
type MsgRef = Rc<RefCell<QMsg>>;

fn msg_ref(m: QMsg) -> MsgRef {
    Rc::new(RefCell::new(m))
}

/// One pipeline row: a single message, or a joined (left, right) pair.
enum InRow {
    Single(MsgRef),
    Pair(MsgRef, MsgRef),
}

impl InRow {
    fn time_ns(&self) -> u64 {
        match self {
            InRow::Single(m) => m.borrow().time_ns,
            // Pair rows are only grouped globally (WINDOW+JOIN is
            // rejected at plan time), so any representative time works.
            InRow::Pair(l, _) => l.borrow().time_ns,
        }
    }
}

// ---------------------------------------------------------- evaluation

/// Evaluate an expression against a pipeline row. Total: unknown
/// fields are `Null`, failed comparisons are `false`.
fn eval(e: &Expr, row: &InRow, datatypes: &HashMap<String, String>) -> Value {
    match e {
        Expr::Lit(v) => v.clone(),
        Expr::Path { side, parts, .. } => {
            let m = match (row, side) {
                (InRow::Single(m), _) => m,
                (InRow::Pair(_, r), Side::Right) => r,
                (InRow::Pair(l, _), _) => l,
            };
            path_value(m, parts, datatypes)
        }
        Expr::Cmp { op, lhs, rhs } => {
            let a = eval(lhs, row, datatypes);
            let b = eval(rhs, row, datatypes);
            Value::Bool(compare(*op, &a, &b))
        }
        Expr::And(a, b) => {
            Value::Bool(eval(a, row, datatypes).truthy() && eval(b, row, datatypes).truthy())
        }
        Expr::Or(a, b) => {
            Value::Bool(eval(a, row, datatypes).truthy() || eval(b, row, datatypes).truthy())
        }
        Expr::Not(x) => Value::Bool(!eval(x, row, datatypes).truthy()),
        // Unreachable: the planner rejects aggregates outside the
        // SELECT list and never evaluates items through here in
        // aggregate mode.
        Expr::Agg { .. } => Value::Null,
    }
}

fn path_value(m: &MsgRef, parts: &[String], datatypes: &HashMap<String, String>) -> Value {
    let mut m = m.borrow_mut();
    if parts.len() == 1 {
        match parts[0].as_str() {
            "time" => return Value::Float(ns_to_secs(m.time_ns)),
            "topic" => return Value::Str(m.topic().to_owned()),
            "size" => return Value::Int(m.payload().len() as i64),
            _ => {}
        }
    }
    m.field(parts, datatypes)
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

// ------------------------------------------------------------- cursor

/// Per-operator counters surfaced by `EXPLAIN ANALYZE` and the
/// experiments. Counter deltas (`block.decode`, `pool.hit`) are process
/// globals — meaningful in a single-query process (CLI, experiments),
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
    fn next(&mut self) -> QueryResult<Option<QMsg>> {
        match self {
            Feed::Bag { stream, ctx, .. } => match stream.next_msg(ctx) {
                Ok(Some(m)) => Ok(Some(QMsg {
                    time_ns: m.time.as_nanos(),
                    src: QMsgSrc::Stream(m),
                    decoded: None,
                })),
                Ok(None) => Ok(None),
                Err(e) => Err(QueryError::from(e)),
            },
            Feed::Records(it) => Ok(it.next().map(|r| QMsg {
                time_ns: r.time.as_nanos(),
                src: QMsgSrc::Record(r),
                decoded: None,
            })),
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

struct JoinState {
    left_topic: String,
    within: u64,
    left: VecDeque<MsgRef>,
    right: VecDeque<MsgRef>,
    pairs: VecDeque<(MsgRef, MsgRef)>,
}

impl JoinState {
    /// Admit one merged-stream message: evict expired partners, pair it
    /// with every surviving opposite-side message, buffer it. Pairs come
    /// out in merge order at the arrival of the later member — the
    /// oracle implements the identical procedure.
    fn push(&mut self, m: MsgRef) {
        let t = m.borrow().time_ns;
        let horizon = t.saturating_sub(self.within);
        while self.left.front().is_some_and(|x| x.borrow().time_ns < horizon) {
            self.left.pop_front();
        }
        while self.right.front().is_some_and(|x| x.borrow().time_ns < horizon) {
            self.right.pop_front();
        }
        let is_left = m.borrow().topic() == self.left_topic;
        if is_left {
            for r in &self.right {
                self.pairs.push_back((Rc::clone(&m), Rc::clone(r)));
            }
            self.left.push_back(m);
        } else {
            for l in &self.left {
                self.pairs.push_back((Rc::clone(l), Rc::clone(&m)));
            }
            self.right.push_back(m);
        }
    }
}

/// A running query: pull rows with [`Cursor::next_row`], then read
/// [`Cursor::stats`]. Aggregate plans buffer internally (they must see
/// all input before the first group row comes out); everything else
/// streams.
pub struct Cursor<'a, S: Storage> {
    plan: Logical,
    datatypes: HashMap<String, String>,
    feed: Feed<'a, S>,
    join: Option<JoinState>,
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
        datatypes: HashMap<String, String>,
        feed: Feed<'a, S>,
        partial: bool,
    ) -> QueryResult<Self> {
        if partial && plan.agg.is_none() {
            return Err(QueryError::plan("partial execution requires an aggregate query"));
        }
        let join = plan.join.as_ref().map(|j| JoinState {
            left_topic: j.left.clone(),
            within: j.within_ns,
            left: VecDeque::new(),
            right: VecDeque::new(),
            pairs: VecDeque::new(),
        });
        Ok(Cursor {
            plan,
            datatypes,
            feed,
            join,
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
            self.next_match()?.map(|r| self.project(&r))
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

    /// Rows surviving scan(+pushed filter) → join → filter → sample.
    fn next_match(&mut self) -> QueryResult<Option<InRow>> {
        loop {
            let candidate = if let Some(join) = &mut self.join {
                if let Some((l, r)) = join.pairs.pop_front() {
                    self.stats.joined += 1;
                    InRow::Pair(l, r)
                } else {
                    match self.feed.next()? {
                        None => return Ok(None),
                        Some(m) => {
                            self.stats.scanned += 1;
                            self.stats.scan_bytes += m.payload().len() as u64;
                            join.push(msg_ref(m));
                            continue;
                        }
                    }
                }
            } else {
                match self.feed.next()? {
                    None => return Ok(None),
                    Some(m) => {
                        self.stats.scanned += 1;
                        self.stats.scan_bytes += m.payload().len() as u64;
                        let m = msg_ref(m);
                        // Pushed predicate runs against the zero-copy
                        // payload, before any materialization.
                        if let Some(p) = &self.plan.scan.pushed_filter {
                            if !eval(p, &InRow::Single(Rc::clone(&m)), &self.datatypes).truthy() {
                                self.stats.pushed_dropped += 1;
                                continue;
                            }
                        }
                        InRow::Single(m)
                    }
                }
            };
            if let Some(f) = &self.plan.filter {
                if !eval(f, &candidate, &self.datatypes).truthy() {
                    self.stats.filtered_out += 1;
                    continue;
                }
            }
            if let Some(n) = self.plan.sample_every {
                let idx = self.sample_seen;
                self.sample_seen += 1;
                if !idx.is_multiple_of(n) {
                    self.stats.sampled_out += 1;
                    continue;
                }
            }
            return Ok(Some(candidate));
        }
    }

    fn project(&self, row: &InRow) -> Row {
        match &self.plan.items {
            PlanItems::Star => match row {
                InRow::Single(m) => {
                    let m = m.borrow();
                    vec![
                        Value::Float(ns_to_secs(m.time_ns)),
                        Value::Str(m.topic().to_owned()),
                        Value::Int(m.payload().len() as i64),
                    ]
                }
                // Unreachable: `SELECT *` with JOIN is a plan error.
                InRow::Pair(..) => Vec::new(),
            },
            PlanItems::Exprs(items) => {
                items.iter().map(|e| eval(e, row, &self.datatypes)).collect()
            }
            // Aggregate items never reach project().
            PlanItems::Aggs(_) => Vec::new(),
        }
    }

    fn drain_aggregate(&mut self) -> QueryResult<Vec<Row>> {
        let agg = self.plan.agg.clone().unwrap();
        let mut groups: BTreeMap<u64, Vec<AggState>> = BTreeMap::new();
        while let Some(row) = self.next_match()? {
            let key = match agg.window_ns {
                Some(w) => row.time_ns() / w.max(1),
                None => 0,
            };
            let states =
                groups.entry(key).or_insert_with(|| agg.specs.iter().map(AggState::new).collect());
            for (st, spec) in states.iter_mut().zip(&agg.specs) {
                let v = spec.arg.as_ref().map(|a| eval(a, &row, &self.datatypes));
                st.update(v);
            }
        }
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
fn finalize_group(
    plan: &Logical,
    agg: &crate::plan::AggNode,
    key: u64,
    states: &[AggState],
) -> Row {
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
        Cursor::new(self.plan.clone(), datatypes, Feed::Bag { stream, ctx, virt0 }, partial)
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
        Cursor::new(self.plan.clone(), datatypes, Feed::Bag { stream, ctx, virt0 }, partial)
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
        Cursor::new(self.plan.clone(), datatypes, Feed::Records(filtered.into_iter()), partial)
    }
}

// ------------------------------------------------------------- oracle

/// Reference interpreter: executes the *statement* directly over a
/// record list with no planner, optimizer, or streaming involved. The
/// property tests assert `plan(bag) == naive(records)` for random
/// queries; divergence means the clever path broke.
pub fn run_naive(
    stmt: &SelectStmt,
    records: &[MessageRecord],
    datatypes: &HashMap<String, String>,
) -> QueryResult<(Vec<String>, Vec<Row>)> {
    // Reuse the planner for validation + column names only.
    let plan = Logical::from_stmt(stmt)?;
    let topics = &plan.scan.topics;

    // 1. Select relevant topics, preserving caller order.
    let mut rows: Vec<InRow> = Vec::new();
    match &plan.join {
        None => {
            for r in records {
                if topics.contains(&r.topic) {
                    rows.push(InRow::Single(msg_ref(QMsg {
                        time_ns: r.time.as_nanos(),
                        src: QMsgSrc::Record(r.clone()),
                        decoded: None,
                    })));
                }
            }
        }
        Some(j) => {
            let mut js = JoinState {
                left_topic: j.left.clone(),
                within: j.within_ns,
                left: VecDeque::new(),
                right: VecDeque::new(),
                pairs: VecDeque::new(),
            };
            for r in records {
                if r.topic == j.left || r.topic == j.right {
                    js.push(msg_ref(QMsg {
                        time_ns: r.time.as_nanos(),
                        src: QMsgSrc::Record(r.clone()),
                        decoded: None,
                    }));
                }
            }
            rows.extend(js.pairs.into_iter().map(|(l, r)| InRow::Pair(l, r)));
        }
    }

    // 2. WHERE.
    if let Some(f) = &stmt.where_expr {
        rows.retain(|r| eval(f, r, datatypes).truthy());
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
    let mut out: Vec<Row> = match (&plan.agg, &plan.items) {
        (Some(agg), PlanItems::Aggs(_)) => {
            let mut groups: BTreeMap<u64, Vec<AggState>> = BTreeMap::new();
            for r in &rows {
                let key = match agg.window_ns {
                    Some(w) => r.time_ns() / w.max(1),
                    None => 0,
                };
                let states = groups
                    .entry(key)
                    .or_insert_with(|| agg.specs.iter().map(AggState::new).collect());
                for (st, spec) in states.iter_mut().zip(&agg.specs) {
                    st.update(spec.arg.as_ref().map(|a| eval(a, r, datatypes)));
                }
            }
            groups.iter().map(|(key, states)| finalize_group(&plan, agg, *key, states)).collect()
        }
        _ => rows
            .iter()
            .map(|r| match &plan.items {
                PlanItems::Star => match r {
                    InRow::Single(m) => {
                        let m = m.borrow();
                        vec![
                            Value::Float(ns_to_secs(m.time_ns)),
                            Value::Str(m.topic().to_owned()),
                            Value::Int(m.payload().len() as i64),
                        ]
                    }
                    InRow::Pair(..) => Vec::new(),
                },
                PlanItems::Exprs(items) => items.iter().map(|e| eval(e, r, datatypes)).collect(),
                PlanItems::Aggs(_) => Vec::new(),
            })
            .collect(),
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
