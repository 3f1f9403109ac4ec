//! [`ClusterClient`]: the router frontend.
//!
//! Speaks the bora-serve wire protocol to every node, routes each
//! container op to the node(s) the [`Ring`] says hold it, and hides
//! node-level faults:
//!
//! * **failover** — a transport fault, `Io`/`ChecksumMismatch` server
//!   error, or shutting-down node moves the request to the next replica
//!   (`cluster.failover` counts every such hop);
//! * **circuit breaking** — consecutive failures open a per-node
//!   [`CircuitBreaker`]; an open node is skipped at routing time and
//!   re-probed after a count-based cooldown;
//! * **hedging** — when the owner's reply exceeds an adaptive threshold
//!   (EWMA of observed read latency × a factor), the same read is issued
//!   to a replica and the first answer wins. `cluster.hedge.issued` /
//!   `cluster.hedge.wins` export the win rate via bora-obs;
//! * **streaming failover** — [`ClusterStream`] resumes a broken
//!   `READ_STREAM2` on a replica by re-issuing the query and skipping the
//!   messages already delivered. The server-side merge order is
//!   deterministic (`(time, lane)` tie-break), so the resumed stream is
//!   byte-identical to an unbroken one;
//! * **cluster-wide merge** — [`MergedStream`] k-way heap-merges the
//!   per-container streams of many nodes into one chronological stream,
//!   the same merge shape the server uses per container.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bora_serve::{
    ClientError, ClientResult, Connection, ErrorCode, MetricsReport, PingInfo, QueryReply,
    ReadStream, RetryBudget, RetryBudgetConfig, ServeClient, StatsSnapshot, Transport, WireMessage,
};
use crossbeam::channel::{self, RecvTimeoutError};
use ros_msgs::Time;

use crate::health::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::ring::{NodeId, Ring};

/// How multi-replica reads pick a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Owner first, replicas only on failover (and as hedge targets).
    /// Maximizes per-node cache locality.
    #[default]
    Primary,
    /// Least-loaded healthy replica holder (in-flight count, round-robin
    /// tie-break). Spreads hot containers over their whole replica set —
    /// the policy that converts replication into read throughput.
    Spread,
}

/// Hedged-request knobs.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Floor for the hedge trigger (protects cold-start, when the EWMA
    /// has seen nothing).
    pub min_threshold: Duration,
    /// Trigger = `max(min_threshold, factor × EWMA(read latency))`.
    pub factor: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { min_threshold: Duration::from_micros(500), factor: 3.0 }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ClusterClientConfig {
    pub policy: RoutePolicy,
    /// `Some` enables hedged reads (only meaningful with ≥ 2 replicas).
    pub hedge: Option<HedgeConfig>,
    pub breaker: BreakerConfig,
    /// Per-request deadline budget stamped on every routed request (the
    /// wire deadline prefix), so servers shed work that expired in their
    /// queues. `None` sends deadline-free requests.
    pub deadline: Option<Duration>,
    /// Token-bucket budget shared by every failover hop and stream
    /// resume this client performs ([`RetryBudgetConfig`]): when a
    /// correlated outage empties the bucket, requests fail fast on their
    /// first error instead of walking the whole replica set. Hedges are
    /// exempt — a hedge fires because the primary is *slow*, not failed,
    /// and throttling it would re-create the tail-latency problem
    /// hedging exists to solve. `None` disables the budget.
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for ClusterClientConfig {
    fn default() -> Self {
        ClusterClientConfig {
            policy: RoutePolicy::default(),
            hedge: None,
            breaker: BreakerConfig::default(),
            deadline: None,
            retry_budget: Some(RetryBudgetConfig::default()),
        }
    }
}

/// One node as the router sees it: a transport, a bounded connection
/// pool, health state, and an in-flight gauge for load-aware routing.
pub struct NodeEndpoint<T: Transport> {
    pub id: NodeId,
    transport: T,
    pool: Mutex<Vec<ServeClient<T::Conn>>>,
    breaker: Mutex<CircuitBreaker>,
    inflight: AtomicUsize,
    /// Deadline budget stamped on every request through this endpoint.
    deadline: Option<Duration>,
}

/// Connections kept per node beyond which returned ones are dropped.
const POOL_MAX: usize = 8;

impl<T: Transport> NodeEndpoint<T> {
    fn new(id: NodeId, transport: T, breaker: BreakerConfig, deadline: Option<Duration>) -> Self {
        NodeEndpoint {
            id,
            transport,
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(CircuitBreaker::new(breaker)),
            inflight: AtomicUsize::new(0),
            deadline,
        }
    }

    /// A client on a fresh connection, stamping this endpoint's deadline.
    fn connect(&self) -> ClientResult<ServeClient<T::Conn>> {
        let mut client = ServeClient::new(self.transport.connect()?);
        client.set_deadline(self.deadline);
        Ok(client)
    }

    fn lease(&self) -> ClientResult<ServeClient<T::Conn>> {
        match self.pool.lock().unwrap().pop() {
            Some(c) => Ok(c),
            None => self.connect(),
        }
    }

    fn release(&self, client: ServeClient<T::Conn>) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_MAX {
            pool.push(client);
        }
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().unwrap().state()
    }

    /// Run one request against this node, maintaining pool, breaker and
    /// in-flight accounting. A failover-worthy error drops the
    /// connection (it may be desynchronized); an application-level error
    /// keeps it (the node answered correctly — the request was wrong).
    fn attempt<R>(
        &self,
        op: &mut dyn FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let mut client = match self.lease() {
            Ok(c) => c,
            Err(e) => {
                self.breaker.lock().unwrap().on_failure();
                return Err(e);
            }
        };
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let res = op(&mut client);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        match &res {
            Ok(_) => {
                self.breaker.lock().unwrap().on_success();
                self.release(client);
            }
            Err(e) if should_failover(e) => {
                self.breaker.lock().unwrap().on_failure();
            }
            Err(_) => {
                self.breaker.lock().unwrap().on_success();
                self.release(client);
            }
        }
        res
    }
}

/// Should this error move the request to another replica? Transient
/// faults (transport, `Io`, `ChecksumMismatch`, overload, desync) and a
/// node that is shutting down; permanent application errors (unknown
/// topic, not a container, corrupt) answer the same everywhere.
pub fn should_failover(e: &ClientError) -> bool {
    e.is_transient() || matches!(e, ClientError::Server { code: ErrorCode::ShuttingDown, .. })
}

/// A statement the router itself cannot compile maps to the same wire
/// error a node would have answered with — callers see one error shape
/// whether the fault is caught router-side or node-side.
fn bad_query(e: bora_query::QueryError) -> ClientError {
    ClientError::Server { code: ErrorCode::BadQuery, message: e.to_string() }
}

/// `READ`, whole or time-ranged — what every read route sends a node.
fn read_on<C: Connection>(
    c: &mut ServeClient<C>,
    container: &str,
    topics: &[&str],
    range: Option<(Time, Time)>,
) -> ClientResult<Vec<WireMessage>> {
    match range {
        Some((start, end)) => c.read_time(container, topics, start, end),
        None => c.read(container, topics),
    }
}

fn no_nodes(container: &str) -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("no replica holds {container}"),
    ))
}

/// The router. Cheap to share per thread via its own instance — all
/// state (pools, breakers, EWMA) lives behind `Arc`, so `clone` yields a
/// handle onto the same cluster view.
pub struct ClusterClient<T: Transport> {
    ring: Arc<RwLock<Ring>>,
    nodes: BTreeMap<NodeId, Arc<NodeEndpoint<T>>>,
    cfg: ClusterClientConfig,
    /// EWMA of successful read wall latency, nanoseconds.
    ewma_ns: Arc<Mutex<f64>>,
    rr: Arc<AtomicUsize>,
    /// Shared failover/retry token bucket (see
    /// [`ClusterClientConfig::retry_budget`]); shared across clones so
    /// every handle onto the cluster draws from one budget.
    budget: Option<Arc<Mutex<RetryBudget>>>,
}

impl<T: Transport> Clone for ClusterClient<T> {
    fn clone(&self) -> Self {
        ClusterClient {
            ring: Arc::clone(&self.ring),
            nodes: self.nodes.clone(),
            cfg: self.cfg.clone(),
            ewma_ns: Arc::clone(&self.ewma_ns),
            rr: Arc::clone(&self.rr),
            budget: self.budget.clone(),
        }
    }
}

impl<T> ClusterClient<T>
where
    T: Transport + Send + Sync + 'static,
{
    /// Build a router over `(node id, transport)` pairs sharing `ring`.
    /// The ring is shared (not snapshotted) so membership changes made
    /// by the cluster control plane are visible to live clients.
    pub fn new(
        ring: Arc<RwLock<Ring>>,
        endpoints: impl IntoIterator<Item = (NodeId, T)>,
        cfg: ClusterClientConfig,
    ) -> Self {
        let nodes = endpoints
            .into_iter()
            .map(|(id, t)| (id, Arc::new(NodeEndpoint::new(id, t, cfg.breaker, cfg.deadline))))
            .collect();
        let budget = cfg.retry_budget.map(|b| Arc::new(Mutex::new(RetryBudget::new(b))));
        ClusterClient {
            ring,
            nodes,
            cfg,
            ewma_ns: Arc::new(Mutex::new(0.0)),
            rr: Arc::new(AtomicUsize::new(0)),
            budget,
        }
    }

    /// `(tokens banked, retries denied)` of the shared retry budget, if
    /// one is configured.
    pub fn retry_budget_stats(&self) -> Option<(f64, u64)> {
        self.budget.as_ref().map(|b| {
            let b = b.lock().unwrap();
            (b.tokens(), b.denied())
        })
    }

    /// Spend one budget token for a failover hop; `true` when allowed
    /// (or no budget is configured).
    fn try_spend_budget(&self) -> bool {
        match &self.budget {
            None => true,
            Some(b) => b.lock().unwrap().try_spend(),
        }
    }

    fn budget_on_success(&self) {
        if let Some(b) = &self.budget {
            b.lock().unwrap().on_success();
        }
    }

    pub fn ring(&self) -> Arc<RwLock<Ring>> {
        Arc::clone(&self.ring)
    }

    pub fn replicas(&self, container: &str) -> Vec<NodeId> {
        self.ring.read().unwrap().replicas(container)
    }

    pub fn owner(&self, container: &str) -> Option<NodeId> {
        self.ring.read().unwrap().owner(container)
    }

    /// Replica endpoints in attempt order under the configured policy.
    fn ordered(&self, container: &str) -> Vec<Arc<NodeEndpoint<T>>> {
        let replicas = self.ring.read().unwrap().replicas(container);
        let mut eps: Vec<_> =
            replicas.iter().filter_map(|id| self.nodes.get(id)).map(Arc::clone).collect();
        if matches!(self.cfg.policy, RoutePolicy::Spread) && eps.len() > 1 {
            let rr = self.rr.fetch_add(1, Ordering::Relaxed) % eps.len();
            eps.rotate_left(rr);
            // Stable sort: the rotation above breaks in-flight ties
            // round-robin instead of always favouring the lowest id.
            eps.sort_by_key(|ep| ep.inflight.load(Ordering::Relaxed));
        }
        eps
    }

    /// Try `op` on each replica in order until one answers. Nodes whose
    /// breaker denies are skipped — unless every node is denied, in
    /// which case the breakers are overridden (a fully-tripped cluster
    /// must still probe its way back).
    fn with_failover<R>(
        &self,
        container: &str,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let eps = self.ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut last: Option<ClientError> = None;
        for ignore_breaker in [false, true] {
            let mut attempted = false;
            for ep in &eps {
                if !ignore_breaker && !ep.breaker.lock().unwrap().allow() {
                    continue;
                }
                if attempted {
                    // Every hop beyond the first spends a budget token:
                    // with the bucket empty the first error surfaces
                    // instead of every caller walking the replica set.
                    if !self.try_spend_budget() {
                        bora_obs::counter("cluster.retry_budget_denied").inc();
                        return Err(last.unwrap_or_else(|| no_nodes(container)));
                    }
                    bora_obs::counter("cluster.failover").inc();
                }
                attempted = true;
                // One span per attempt: in a merged trace, failover shows
                // up as sibling attempt spans, the abandoned ones marked
                // cancelled. Server-side spans parent under the attempt
                // (roundtrip propagates the innermost open span).
                let sp = bora_obs::span("cluster.attempt");
                match ep.attempt(&mut op) {
                    Ok(v) => {
                        sp.end();
                        self.budget_on_success();
                        return Ok(v);
                    }
                    Err(e) if should_failover(&e) => {
                        sp.cancel();
                        last = Some(e);
                    }
                    Err(e) => {
                        sp.end();
                        return Err(e);
                    }
                }
            }
            if attempted {
                break;
            }
        }
        Err(last.unwrap_or_else(|| no_nodes(container)))
    }

    pub fn open(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.open");
        self.with_failover(container, |c| c.open(container).map(|(stat, _)| stat))
    }

    pub fn topics(&self, container: &str) -> ClientResult<Vec<String>> {
        let _sp = bora_obs::span("cluster.topics");
        self.with_failover(container, |c| c.topics(container))
    }

    pub fn meta(&self, container: &str) -> ClientResult<Vec<u8>> {
        let _sp = bora_obs::span("cluster.meta");
        self.with_failover(container, |c| c.meta(container))
    }

    pub fn stat(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.stat");
        self.with_failover(container, |c| c.stat(container))
    }

    /// Replica endpoints in *ring order* (owner first, no load-aware
    /// rotation) — the deterministic order write fan-out uses.
    fn ring_ordered(&self, container: &str) -> Vec<Arc<NodeEndpoint<T>>> {
        let replicas = self.ring.read().unwrap().replicas(container);
        replicas.iter().filter_map(|id| self.nodes.get(id)).map(Arc::clone).collect()
    }

    /// Append live messages to `container`'s ingest root on **every**
    /// replica the ring assigns it. Writes do not fail over — replication
    /// *is* writing to all holders — and all must ack before the call
    /// returns: a node that cannot take the batch fails the append, so a
    /// reader served by any replica sees the same data. Returns the
    /// owner's `(appended, epoch)`.
    pub fn append(&self, container: &str, messages: &[WireMessage]) -> ClientResult<(u64, u64)> {
        let _sp = bora_obs::span("cluster.append");
        let eps = self.ring_ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut owner_ack = None;
        for ep in &eps {
            let ack = ep.attempt(&mut |c| c.append(container, messages.to_vec()))?;
            owner_ack.get_or_insert(ack);
            bora_obs::counter("cluster.append.replica_acks").inc();
        }
        Ok(owner_ack.expect("non-empty replica set acked"))
    }

    /// Seal (and optionally compact) `container`'s ingest root on every
    /// replica. Same all-must-ack contract as [`ClusterClient::append`].
    /// Returns the owner's `(epoch, sealed_segments)`.
    pub fn seal(&self, container: &str, compact: bool) -> ClientResult<(u64, u32)> {
        let _sp = bora_obs::span("cluster.seal");
        let eps = self.ring_ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut owner_ack = None;
        for ep in &eps {
            let ack = ep.attempt(&mut |c| c.seal(container, compact))?;
            owner_ack.get_or_insert(ack);
        }
        Ok(owner_ack.expect("non-empty replica set acked"))
    }

    pub fn read(&self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, None)
    }

    pub fn read_time(
        &self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, Some((start, end)))
    }

    fn read_inner(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Vec<WireMessage>> {
        let _sp = bora_obs::span("cluster.read");
        if self.cfg.hedge.is_some() {
            // A hedge needs a second replica to race; without one the
            // read falls through to plain failover.
            let eps = self.ordered(container);
            if eps.len() >= 2 {
                return self.read_hedged(&eps, container, topics, range);
            }
        }
        let started = Instant::now();
        let out = self.with_failover(container, |c| read_on(c, container, topics, range));
        if out.is_ok() {
            self.note_read_latency(started.elapsed());
        }
        out
    }

    fn note_read_latency(&self, lat: Duration) {
        let mut ewma = self.ewma_ns.lock().unwrap();
        let ns = lat.as_nanos() as f64;
        *ewma = if *ewma == 0.0 { ns } else { 0.8 * *ewma + 0.2 * ns };
    }

    /// Current hedge trigger.
    pub fn hedge_threshold(&self) -> Duration {
        let h = self.cfg.hedge.unwrap_or_default();
        let ewma = *self.ewma_ns.lock().unwrap();
        h.min_threshold.max(Duration::from_nanos((h.factor * ewma) as u64))
    }

    /// Hedged read over at least two candidates: issue to the first; if
    /// no answer within the adaptive threshold, issue the identical read
    /// to the second and take whichever returns first. Replicas hold identical data
    /// and the read path is deterministic, so both answers are equal —
    /// the hedge trades duplicate work for tail latency only.
    fn read_hedged(
        &self,
        eps: &[Arc<NodeEndpoint<T>>],
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Vec<WireMessage>> {
        let (tx, rx) = channel::unbounded();
        // Legs run on their own threads: each adopts the read's context so
        // its spans (and the server's) stay in the trace tree, and the
        // first leg to deliver a usable answer claims `winner` — every
        // other leg records its span cancelled, so hedged losers are
        // visible as abandoned siblings in the merged timeline.
        let winner = Arc::new(AtomicUsize::new(usize::MAX));
        let pctx = bora_obs::current_context();
        let spawn_read = |ep: Arc<NodeEndpoint<T>>, idx: usize| {
            let tx = tx.clone();
            let winner = Arc::clone(&winner);
            let container = container.to_owned();
            let topics: Vec<String> = topics.iter().map(|t| (*t).to_owned()).collect();
            std::thread::spawn(move || {
                let _ctx = bora_obs::adopt_context(pctx);
                let leg = bora_obs::span("cluster.hedge_leg");
                let started = Instant::now();
                let res = ep.attempt(&mut |c: &mut ServeClient<T::Conn>| {
                    let ts: Vec<&str> = topics.iter().map(String::as_str).collect();
                    read_on(c, &container, &ts, range)
                });
                let won = res.is_ok()
                    && winner
                        .compare_exchange(usize::MAX, idx, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok();
                if won {
                    leg.end();
                } else {
                    leg.cancel();
                }
                // Receiver gone means the other leg already won — the
                // attempt above still ran to completion, keeping its
                // connection aligned and back in the pool.
                let _ = tx.send((idx, started.elapsed(), res));
            });
        };

        spawn_read(Arc::clone(&eps[0]), 0);
        let first = match rx.recv_timeout(self.hedge_threshold()) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => unreachable!("tx held by this scope"),
        };

        match first {
            Some((_, lat, Ok(v))) => {
                self.note_read_latency(lat);
                self.budget_on_success();
                Ok(v)
            }
            Some((_, _, Err(e))) if !should_failover(&e) => Err(e),
            Some((_, _, Err(e))) => {
                // Primary failed fast: this is a failover, not a hedge,
                // so it spends a retry-budget token like any other hop.
                if !self.try_spend_budget() {
                    bora_obs::counter("cluster.retry_budget_denied").inc();
                    return Err(e);
                }
                bora_obs::counter("cluster.failover").inc();
                spawn_read(Arc::clone(&eps[1]), 1);
                let (_, lat, res) = rx.recv().expect("hedge leg sender alive");
                if res.is_ok() {
                    self.note_read_latency(lat);
                    self.budget_on_success();
                }
                res
            }
            None => {
                // Primary slow: hedge to the replica, first answer wins.
                // Deliberately budget-exempt — the primary has not
                // failed, and throttling hedges would re-create the tail
                // latency they exist to cut.
                bora_obs::counter("cluster.hedge.issued").inc();
                spawn_read(Arc::clone(&eps[1]), 1);
                let mut errors = 0;
                loop {
                    let (idx, lat, res) = rx.recv().expect("hedge leg sender alive");
                    match res {
                        Ok(v) => {
                            if idx == 1 {
                                bora_obs::counter("cluster.hedge.wins").inc();
                            }
                            self.note_read_latency(lat);
                            self.budget_on_success();
                            return Ok(v);
                        }
                        Err(e) => {
                            errors += 1;
                            if errors == 2 {
                                return Err(e);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Open a streaming read with transparent mid-stream failover.
    pub fn read_stream(&self, container: &str, topics: &[&str]) -> ClientResult<ClusterStream<T>> {
        self.read_stream_inner(container, topics, None)
    }

    /// Time-ranged variant of [`ClusterClient::read_stream`].
    pub fn read_stream_time(
        &self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<ClusterStream<T>> {
        self.read_stream_inner(container, topics, Some((start, end)))
    }

    fn read_stream_inner(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<ClusterStream<T>> {
        let eps = self.ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut stream = ClusterStream {
            eps,
            cursor: 0,
            current: None,
            container: container.to_owned(),
            topics: topics.iter().map(|t| (*t).to_owned()).collect(),
            range,
            skip: 0,
            fetched: 0,
            budget: self.budget.clone(),
        };
        stream.connect_next()?;
        Ok(stream)
    }

    /// One chronological stream over many containers: a per-container
    /// [`ClusterStream`] per lane, k-way merged by `(time, lane)` — the
    /// same heap merge the server applies across a container's topic
    /// lanes, lifted to the cluster level.
    pub fn read_stream_multi(
        &self,
        containers: &[&str],
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<MergedStream<T>> {
        let mut lanes = Vec::with_capacity(containers.len());
        for c in containers {
            lanes.push(self.read_stream_inner(c, topics, range)?);
        }
        MergedStream::new(lanes)
    }

    /// Run a declarative query against one container, routed to a node
    /// that holds it (with the usual failover/breaker machinery).
    pub fn query(&self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.query_multi(&[container], sql)
    }

    /// Run one query across many containers — the distributed plan from
    /// `bora-query`'s `distrib` module:
    ///
    /// * **aggregate** queries ship a partial-aggregate fragment to each
    ///   container's node and merge the flattened per-window states at
    ///   the router in container order
    ///   ([`bora_query::merge_partials`]), then finalize and apply
    ///   LIMIT — so the result bytes are identical whether one node owns
    ///   every container or each lives elsewhere;
    /// * **everything else** ships the statement as-is and concatenates
    ///   rows in container order, re-applying the global LIMIT.
    ///
    /// `EXPLAIN` renders the router's plan without executing anything;
    /// `EXPLAIN ANALYZE` executes and appends one line per fragment
    /// (container, rows shipped, wire bytes). The reply's `wire_bytes`
    /// sums the response payload bytes of every fragment — the number
    /// the `ext_query` experiment compares against a row-shipping plan.
    pub fn query_multi(&self, containers: &[&str], sql: &str) -> ClientResult<QueryReply> {
        let _sp = bora_obs::span("cluster.query");
        let p = bora_query::prepare(sql).map_err(bad_query)?;
        if containers.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "query over an empty container list",
            )));
        }
        if p.explain_mode() == bora_query::ExplainMode::Plan {
            return Ok(QueryReply {
                columns: p.plan.columns.clone(),
                explain: bora_query::explain_text(&p, None),
                ..QueryReply::default()
            });
        }

        let agg = p.plan.agg.is_some();
        let frag = if agg {
            bora_query::partial_fragment(&p.query)
        } else {
            bora_query::rowship_query(&p.query)
        };
        let mut wire_bytes = 0u64;
        let mut frag_lines = String::new();
        let mut per_container: Vec<Vec<bora_query::Row>> = Vec::with_capacity(containers.len());
        for c in containers {
            let reply = self.with_failover(c, |cl| {
                if agg {
                    cl.query_partial(c, &frag)
                } else {
                    cl.query(c, &frag)
                }
            })?;
            wire_bytes += reply.wire_bytes;
            if p.explain_mode() == bora_query::ExplainMode::Analyze {
                frag_lines.push_str(&format!(
                    "fragment '{c}': rows={} bytes={} {}\n",
                    reply.rows_total,
                    reply.wire_bytes,
                    if agg { "partial-aggregate" } else { "row-ship" },
                ));
            }
            per_container.push(reply.rows);
        }

        let rows = if agg {
            bora_query::merge_partials(&p.plan, &per_container).map_err(bad_query)?
        } else {
            let mut rows: Vec<bora_query::Row> = per_container.into_iter().flatten().collect();
            if let Some(n) = p.plan.limit {
                rows.truncate(n as usize);
            }
            rows
        };
        let explain = if p.explain_mode() == bora_query::ExplainMode::Analyze {
            format!("{}{}", bora_query::explain_text(&p, None), frag_lines)
        } else {
            String::new()
        };
        Ok(QueryReply {
            columns: p.plan.columns.clone(),
            rows_total: rows.len() as u64,
            rows,
            explain,
            wire_bytes,
        })
    }

    /// Health-probe one node directly (not routed through the ring).
    pub fn ping(&self, node: NodeId) -> ClientResult<PingInfo> {
        let ep = self.nodes.get(&node).ok_or_else(|| no_nodes(&format!("node {node}")))?;
        ep.attempt(&mut |c| c.ping())
    }

    /// Probe every node; the per-node result doubles as liveness.
    pub fn ping_all(&self) -> Vec<(NodeId, ClientResult<PingInfo>)> {
        self.nodes.iter().map(|(id, ep)| (*id, ep.attempt(&mut |c| c.ping()))).collect()
    }

    /// One node's `STATS` snapshot (virtual-time accounting lives here).
    pub fn node_stats(&self, node: NodeId) -> ClientResult<StatsSnapshot> {
        let ep = self.nodes.get(&node).ok_or_else(|| no_nodes(&format!("node {node}")))?;
        ep.attempt(&mut |c| c.stats())
    }

    /// One node's full `METRICS` scrape (registry + slow-op tail) — what
    /// the telemetry poller aggregates across the fleet.
    pub fn node_metrics(&self, node: NodeId) -> ClientResult<MetricsReport> {
        let ep = self.nodes.get(&node).ok_or_else(|| no_nodes(&format!("node {node}")))?;
        ep.attempt(&mut |c| c.metrics())
    }

    /// Every reachable node's `METRICS` scrape; unreachable nodes report
    /// their error (the poller counts them, it does not fail the sweep).
    pub fn metrics_all(&self) -> Vec<(NodeId, ClientResult<MetricsReport>)> {
        self.nodes
            .iter()
            .map(|(id, ep)| {
                let mut res = ep.attempt(&mut |c| c.metrics());
                // A pooled connection can die while parked: the peer
                // answers its last request, then begins shutting down and
                // closes before the next lease. The failed attempt drops
                // the stale connection, so one retry runs on a fresh one —
                // METRICS is idempotent control-plane, and a node that is
                // *actually* unreachable just fails twice.
                if matches!(res, Err(ClientError::Io(_))) {
                    res = ep.attempt(&mut |c| c.metrics());
                }
                (*id, res)
            })
            .collect()
    }

    /// Breaker state per node, for observability.
    pub fn breaker_states(&self) -> Vec<(NodeId, BreakerState)> {
        self.nodes.iter().map(|(id, ep)| (*id, ep.breaker_state())).collect()
    }
}

// ----------------------------------------------------------------- stream

/// One node's stream, on a connection of its own.
type NodeStream<T> = ReadStream<<T as Transport>::Conn, ServeClient<<T as Transport>::Conn>>;

/// A cluster-routed `READ_STREAM2` with mid-stream failover: the policy
/// (replica walk, breaker, retry budget, resume) over one
/// [`ReadStream`] per (re)issue, each on a fresh connection it owns.
///
/// If the serving node dies mid-stream, the identical query is re-issued
/// to the next replica and the first `fetched` messages of the re-issue
/// are skipped. Both nodes merge the same container with the same
/// deterministic `(time, lane)` order, so the resumed tail continues the
/// broken stream byte-for-byte.
pub struct ClusterStream<T: Transport> {
    eps: Vec<Arc<NodeEndpoint<T>>>,
    cursor: usize,
    /// The serving node and its stream; `None` once the stream is over.
    current: Option<(Arc<NodeEndpoint<T>>, NodeStream<T>)>,
    container: String,
    topics: Vec<String>,
    range: Option<(Time, Time)>,
    /// Messages of the current (re-issued) stream still to discard.
    skip: u64,
    /// Messages handed to the consumer over the stream's lifetime.
    fetched: u64,
    /// The owning client's shared retry budget: each mid-stream failover
    /// spends a token, so a flapping network cannot turn one stream into
    /// an unbounded reconnect storm.
    budget: Option<Arc<Mutex<RetryBudget>>>,
}

impl<T: Transport> ClusterStream<T> {
    pub fn received(&self) -> u64 {
        self.fetched
    }

    fn connect_next(&mut self) -> ClientResult<()> {
        let topics: Vec<&str> = self.topics.iter().map(String::as_str).collect();
        let mut last: Option<ClientError> = None;
        while let Some(ep) = self.eps.get(self.cursor).map(Arc::clone) {
            self.cursor += 1;
            // The request carries whatever span is open at (re)connect
            // time — for a mid-stream failover that is still the caller's
            // span, so the resumed stream stays in the same trace tree.
            match ep
                .connect()
                .and_then(|c| ReadStream::open(c, &self.container, &topics, self.range))
            {
                Ok(stream) => {
                    self.skip = self.fetched;
                    self.current = Some((ep, stream));
                    return Ok(());
                }
                Err(e) => {
                    ep.breaker.lock().unwrap().on_failure();
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| no_nodes(&self.container)))
    }

    fn failover(&mut self) -> ClientResult<()> {
        if let Some((ep, _)) = self.current.take() {
            ep.breaker.lock().unwrap().on_failure();
        }
        // A stream resume is a retry like any other: it spends from the
        // client's shared budget, and an empty bucket ends the stream
        // with an error instead of hammering the surviving replicas.
        if let Some(b) = &self.budget {
            if !b.lock().unwrap().try_spend() {
                bora_obs::counter("cluster.retry_budget_denied").inc();
                return Err(ClientError::Io(std::io::Error::other(format!(
                    "retry budget exhausted resuming stream of {}",
                    self.container
                ))));
            }
        }
        bora_obs::counter("cluster.failover").inc();
        self.connect_next()
    }
}

impl<T: Transport> Iterator for ClusterStream<T> {
    type Item = ClientResult<WireMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (ep, stream) = self.current.as_mut()?;
            match stream.next() {
                Some(Ok(_)) if self.skip > 0 => self.skip -= 1,
                Some(Ok(m)) => {
                    self.fetched += 1;
                    return Some(Ok(m));
                }
                None => {
                    ep.breaker.lock().unwrap().on_success();
                    if let Some(b) = &self.budget {
                        b.lock().unwrap().on_success();
                    }
                    self.current = None;
                }
                // A transport fault, a desynchronized stream, an overloaded
                // or failing node: resume on the next replica.
                Some(Err(e)) if should_failover(&e) => {
                    if let Err(e) = self.failover() {
                        return Some(Err(e));
                    }
                }
                Some(Err(e)) => {
                    self.current = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl<T: Transport> Drop for ClusterStream<T> {
    fn drop(&mut self) {
        // Dropped mid-stream: hang up instead of draining what the node
        // would still send.
        if let Some((_, stream)) = self.current.take() {
            stream.abandon();
        }
    }
}

// ------------------------------------------------------------ k-way merge

/// Chronological k-way heap merge over per-container cluster streams.
///
/// Each lane is a [`ClusterStream`] (so lanes fail over independently);
/// the heap orders by `(time, lane index)` — the stable tie-break that
/// makes the merged order deterministic across runs and across node
/// deaths.
pub struct MergedStream<T: Transport> {
    lanes: Vec<ClusterStream<T>>,
    heads: Vec<Option<WireMessage>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    failed: bool,
}

impl<T: Transport> MergedStream<T> {
    fn new(mut lanes: Vec<ClusterStream<T>>) -> ClientResult<Self> {
        let mut heads = Vec::with_capacity(lanes.len());
        let mut heap = BinaryHeap::with_capacity(lanes.len());
        for (i, lane) in lanes.iter_mut().enumerate() {
            match lane.next() {
                Some(Ok(m)) => {
                    heap.push(Reverse((m.time.as_nanos(), i)));
                    heads.push(Some(m));
                }
                Some(Err(e)) => return Err(e),
                None => heads.push(None),
            }
        }
        Ok(MergedStream { lanes, heads, heap, failed: false })
    }
}

impl<T: Transport> Iterator for MergedStream<T> {
    type Item = ClientResult<WireMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let Reverse((_, lane)) = self.heap.pop()?;
        let out = self.heads[lane].take().expect("heap entry implies a head");
        match self.lanes[lane].next() {
            Some(Ok(m)) => {
                self.heap.push(Reverse((m.time.as_nanos(), lane)));
                self.heads[lane] = Some(m);
            }
            Some(Err(e)) => {
                self.failed = true;
                return Some(Err(e));
            }
            None => {}
        }
        Some(Ok(out))
    }
}
