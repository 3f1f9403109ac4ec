//! [`ClusterClient`]: the router frontend, and the workspace's one
//! resilient client.
//!
//! Speaks the bora-serve wire protocol to every node, routes each
//! container op to the node(s) the [`Ring`] says hold it, and hides
//! node-level faults behind one replica walk:
//!
//! * **one retry loop** — every routed call, a stream's open and its
//!   resume included, walks its replicas in order, up to four passes,
//!   sleeping 10, 20 and 40 ms between passes (jitter from a per-client
//!   splitmix64 stream takes up to half of each away). A transport
//!   fault, an `Io`/`ChecksumMismatch` server error, overload or a node
//!   that is shutting down moves the call on; a permanent error (unknown
//!   topic, not a container, corrupt) returns at once. Every hop after
//!   the first spends a token of a shared retry budget
//!   ([`RetryBudgetConfig`]) and counts as `cluster.failover`;
//!   [`ClusterClientConfig::deadline`] is the call's total budget. A
//!   one-node client is a retrying client of one server;
//! * **circuit breaking** — consecutive failures open a per-node
//!   [`CircuitBreaker`]; an open node is skipped at routing time and
//!   re-probed after a count-based cooldown;
//! * **hedging** — a read is a stream, open once its first frame arrives.
//!   If none has arrived within an adaptive threshold (EWMA of
//!   first-frame latency × a factor), the next replica is opened too; the
//!   first leg with a frame wins, and the other is abandoned as soon as
//!   it has one — hanging up stops its server within one reply window.
//!   `cluster.hedge.issued` / `cluster.hedge.wins` export the win rate via
//!   bora-obs;
//! * **streaming failover** — [`ClusterStream`] resumes a broken
//!   `READ_STREAM2` on a replica by re-issuing the query and skipping the
//!   messages already delivered. The server-side merge order is
//!   deterministic (`(time, lane)` tie-break), so the resumed stream is
//!   byte-identical to an unbroken one;
//! * **cluster-wide merge** — [`MergedStream`] k-way merges the
//!   per-container streams of many nodes into one chronological stream
//!   with [`bora::stream::Merge`], the merge a node runs over a
//!   container's topics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bora::stream::Merge;
use bora::Crc32c;
use bora_serve::{
    ChunkMessage, ClientError, ClientResult, ErrorCode, MetricsReport, PingInfo, ProtoError,
    QueryReply, ReadStream, ServeClient, Transport, WireMessage,
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
    /// Trigger = `max(min_threshold, factor × EWMA(first-frame latency))`.
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
    /// Total wall-clock budget of one call, every attempt and backoff
    /// sleep included. Each attempt is stamped with what remains of it
    /// (the wire deadline prefix, so servers shed work that expired in
    /// their queues) and bounded by it ([`bora_serve::Connection::set_timeout`]);
    /// no attempt or sleep starts past it, and the call fails with
    /// [`ClientError::DeadlineExceeded`] carrying the last error. `None`
    /// sends deadline-free requests.
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

/// Passes the walk makes over a call's replicas before it gives up.
const PASSES: usize = 4;
/// The walk's sleep before its second, third and fourth pass, in
/// milliseconds; jitter takes up to half of each away.
const BACKOFF_MS: [u64; PASSES - 1] = [10, 20, 40];
/// splitmix64's increment: each jitter draw advances a client's stream
/// by it.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Clients built so far: each one's jitter stream starts from a mix of
/// its number, so two clients never back off in lockstep.
static CLIENTS: AtomicU64 = AtomicU64::new(0);

/// splitmix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The walk's sleep after pass `pass` (0-based): the ladder's rung, less
/// up to half of it drawn from the splitmix64 stream `rng`.
fn backoff(pass: usize, rng: &AtomicU64) -> Duration {
    let raw = BACKOFF_MS[pass] * 1_000;
    let draw = mix(rng.fetch_add(GAMMA, Ordering::Relaxed).wrapping_add(GAMMA));
    // 53 uniform bits → u in [0, 1).
    let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_micros(raw - (raw as f64 * 0.5 * u) as u64)
}

/// One node as the router sees it: a transport, a bounded connection
/// pool, health state, and an in-flight gauge for load-aware routing.
pub struct NodeEndpoint<T: Transport> {
    pub id: NodeId,
    transport: T,
    pool: Mutex<Vec<ServeClient<T::Conn>>>,
    breaker: Mutex<CircuitBreaker>,
    inflight: AtomicUsize,
}

/// Connections kept per node beyond which returned ones are dropped.
const POOL_MAX: usize = 8;

/// One node's stream, on a connection of its own.
type NodeStream<T> = ReadStream<<T as Transport>::Conn, ServeClient<<T as Transport>::Conn>>;

/// What a cluster read asks every node it tries.
struct ReadOp {
    container: String,
    topics: Vec<String>,
    range: Option<(Time, Time)>,
}

impl<T: Transport> NodeEndpoint<T> {
    fn new(id: NodeId, transport: T, breaker: BreakerConfig) -> Self {
        NodeEndpoint {
            id,
            transport,
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(CircuitBreaker::new(breaker)),
            inflight: AtomicUsize::new(0),
        }
    }

    /// `client`, stamped with the attempt's `bound` and bounded by it.
    fn bounded(
        mut client: ServeClient<T::Conn>,
        bound: Option<Duration>,
    ) -> ClientResult<ServeClient<T::Conn>> {
        if bound.is_some() {
            client.set_timeout(bound)?;
        }
        client.set_deadline(bound);
        Ok(client)
    }

    fn lease(&self, bound: Option<Duration>) -> ClientResult<ServeClient<T::Conn>> {
        let pooled = self.pool.lock().unwrap().pop();
        let client = match pooled {
            Some(c) => c,
            None => ServeClient::new(self.transport.connect()?),
        };
        Self::bounded(client, bound)
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().unwrap().state()
    }

    /// Feed an attempt's outcome to the breaker: a failover-worthy error
    /// counts against the node; anything else — an application-level
    /// error included — is the node answering.
    fn settle<R>(&self, res: &ClientResult<R>) {
        let mut breaker = self.breaker.lock().unwrap();
        match res {
            Err(e) if should_failover(e) => breaker.on_failure(),
            _ => breaker.on_success(),
        }
    }

    /// Run one request against this node on a pooled connection, in a
    /// `cluster.attempt` span, maintaining pool, breaker and in-flight
    /// accounting. A broken or undecodable exchange drops the connection
    /// (it may be desynchronized), and so does a node that is shutting
    /// down (it hangs up after saying so); any other answer, an error
    /// frame included, keeps it.
    fn attempt<R>(
        &self,
        bound: Option<Duration>,
        op: &mut dyn FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        // One span per attempt: in a merged trace, failover shows up as
        // sibling attempt spans, the abandoned ones marked cancelled.
        // Server-side spans parent under the attempt (roundtrip
        // propagates the innermost open span).
        let sp = bora_obs::span("cluster.attempt");
        let res = self.lease(bound).and_then(|mut client| {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            let res = op(&mut client);
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            let closed = matches!(
                res,
                Err(ClientError::Io(_) | ClientError::Proto(_))
                    | Err(ClientError::Server { code: ErrorCode::ShuttingDown, .. })
            );
            if !closed {
                let mut pool = self.pool.lock().unwrap();
                if pool.len() < POOL_MAX {
                    pool.push(client);
                }
            }
            res
        });
        self.settle(&res);
        match &res {
            Err(e) if should_failover(e) => sp.cancel(),
            _ => sp.end(),
        }
        res
    }

    /// Send `read` on a fresh connection the stream will own, and wait
    /// for its first frame: a leg is open once its node has answered.
    fn open_stream(&self, read: &ReadOp, bound: Option<Duration>) -> ClientResult<NodeStream<T>> {
        let topics: Vec<&str> = read.topics.iter().map(String::as_str).collect();
        let res = self
            .transport
            .connect()
            .map_err(ClientError::from)
            .and_then(|conn| Self::bounded(ServeClient::new(conn), bound))
            .and_then(|c| ReadStream::open(c, &read.container, &topics, read.range))
            .and_then(ReadStream::first_frame);
        self.settle(&res);
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

fn no_nodes(container: &str) -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("no replica holds {container}"),
    ))
}

/// Tuning for the retry budget a client, its clones and its streams share.
///
/// The bucket starts full at `capacity` tokens; every retry spends one
/// token, every *success* deposits `deposit_per_success` (capped at
/// `capacity`). At the defaults the steady-state retry rate is bounded
/// at 10% of the success rate (one banked retry per ten successes) with
/// bursts of at most `capacity` — so a dying backend costs a bounded
/// number of extra requests instead of a walk's worth of attempts from
/// every caller at once.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudgetConfig {
    /// Maximum banked tokens — the largest retry burst allowed.
    pub capacity: f64,
    /// Tokens earned back per successful request.
    pub deposit_per_success: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig { capacity: 10.0, deposit_per_success: 0.1 }
    }
}

/// A token-bucket retry budget: retries spend, successes earn. Shared by
/// a client, its clones and its streams so failover cannot amplify into
/// a retry storm — once the bucket is empty, failures surface
/// immediately until real successes refill it.
#[derive(Debug)]
struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
    denied: u64,
}

impl RetryBudget {
    /// A full bucket.
    fn new(cfg: RetryBudgetConfig) -> Self {
        RetryBudget { tokens: cfg.capacity, cfg, denied: 0 }
    }

    /// Spend one token for a retry; `false` (and a denial recorded) when
    /// the bucket cannot cover it.
    fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Record a success, earning back a fraction of a token.
    fn on_success(&mut self) {
        self.tokens = (self.tokens + self.cfg.deposit_per_success).min(self.cfg.capacity);
    }
}

/// The failover/retry token bucket a client, its clones and its streams
/// share (see [`ClusterClientConfig::retry_budget`]); empty when no
/// budget is configured.
#[derive(Clone)]
struct SharedBudget(Option<Arc<Mutex<RetryBudget>>>);

impl SharedBudget {
    /// Spend a token on a failover hop: `false` — counted as
    /// `cluster.retry_budget_denied` — when the bucket is empty and the
    /// caller must give up, otherwise `true` and the hop counts as
    /// `cluster.failover`.
    fn failover(&self) -> bool {
        if let Some(b) = &self.0 {
            if !b.lock().unwrap().try_spend() {
                bora_obs::counter("cluster.retry_budget_denied").inc();
                return false;
            }
        }
        bora_obs::counter("cluster.failover").inc();
        true
    }

    fn on_success(&self) {
        if let Some(b) = &self.0 {
            b.lock().unwrap().on_success();
        }
    }
}

/// The router. Cheap to share per thread via its own instance — all
/// state (pools, breakers, EWMA, budget, jitter) lives behind `Arc`, so
/// `clone` yields a handle onto the same cluster view.
pub struct ClusterClient<T: Transport> {
    ring: Arc<RwLock<Ring>>,
    nodes: BTreeMap<NodeId, Arc<NodeEndpoint<T>>>,
    cfg: ClusterClientConfig,
    /// EWMA of a read's first-frame latency, nanoseconds.
    ewma_ns: Arc<Mutex<f64>>,
    rr: Arc<AtomicUsize>,
    /// Shared across clones, so every handle onto the cluster draws from
    /// one budget.
    budget: SharedBudget,
    /// The walk's jitter: a splitmix64 state.
    rng: Arc<AtomicU64>,
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
            rng: Arc::clone(&self.rng),
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
            .map(|(id, t)| (id, Arc::new(NodeEndpoint::new(id, t, cfg.breaker))))
            .collect();
        let budget =
            SharedBudget(cfg.retry_budget.map(|b| Arc::new(Mutex::new(RetryBudget::new(b)))));
        ClusterClient {
            ring,
            nodes,
            cfg,
            ewma_ns: Arc::new(Mutex::new(0.0)),
            rr: Arc::new(AtomicUsize::new(0)),
            budget,
            rng: Arc::new(AtomicU64::new(mix(CLIENTS.fetch_add(1, Ordering::Relaxed)))),
        }
    }

    /// `(tokens banked, retries denied)` of the shared retry budget, if
    /// one is configured.
    pub fn retry_budget_stats(&self) -> Option<(f64, u64)> {
        self.budget.0.as_ref().map(|b| {
            let b = b.lock().unwrap();
            (b.tokens, b.denied)
        })
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

    /// Replica endpoints in attempt order under the configured policy;
    /// an error when no hosted node holds `container`.
    fn ordered(&self, container: &str) -> ClientResult<Vec<Arc<NodeEndpoint<T>>>> {
        let mut eps = self.ring_ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        if matches!(self.cfg.policy, RoutePolicy::Spread) && eps.len() > 1 {
            let rr = self.rr.fetch_add(1, Ordering::Relaxed) % eps.len();
            eps.rotate_left(rr);
            // Stable sort: the rotation above breaks in-flight ties
            // round-robin instead of always favouring the lowest id.
            eps.sort_by_key(|ep| ep.inflight.load(Ordering::Relaxed));
        }
        Ok(eps)
    }

    /// What remains of a call that began at `started` once `pause` has
    /// passed: `None` without a deadline, otherwise the bound to stamp —
    /// or [`ClientError::DeadlineExceeded`], carrying `last`, when
    /// nothing would remain.
    fn remaining(
        &self,
        started: Instant,
        pause: Duration,
        last: &Option<ClientError>,
    ) -> ClientResult<Option<Duration>> {
        let Some(deadline) = self.cfg.deadline else { return Ok(None) };
        let elapsed = started.elapsed();
        match deadline.checked_sub(elapsed + pause) {
            Some(left) if !left.is_zero() => Ok(Some(left)),
            _ => Err(ClientError::DeadlineExceeded {
                deadline,
                elapsed,
                last_error: last
                    .as_ref()
                    .map_or_else(|| "deadline expired before attempt".into(), |e| e.to_string()),
            }),
        }
    }

    /// The one replica walk: every routed call's attempts go through it.
    ///
    /// Up to [`PASSES`] passes over `eps` in order, skipping nodes whose
    /// breaker denies — unless every node is denied, in which case the
    /// pass overrides the breakers (a fully-tripped cluster must still
    /// probe its way back). Between passes it sleeps the jittered
    /// [`BACKOFF_MS`] ladder. Every hop after the first spends a budget
    /// token; with the bucket empty the last error surfaces instead of
    /// every caller walking the replica set. `last` is the error a
    /// resumed stream broke with: a resume's first hop is already a
    /// retry. A permanent error returns at once. Under a deadline each
    /// attempt is stamped with, and bounded by, what remains of it.
    ///
    /// `op` gets the attempt's node first and the rest of the pass
    /// behind it (a hedge's next candidate), and the attempt's bound.
    fn with_failover<R>(
        &self,
        eps: &[Arc<NodeEndpoint<T>>],
        mut last: Option<ClientError>,
        mut op: impl FnMut(&[Arc<NodeEndpoint<T>>], Option<Duration>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let started = Instant::now();
        let mut hopped = last.is_some();
        for pass in 0..PASSES {
            if pass > 0 {
                let pause = backoff(pass - 1, &self.rng);
                self.remaining(started, pause, &last)?;
                std::thread::sleep(pause);
            }
            for ignore_breaker in [false, true] {
                let mut attempted = false;
                for (i, ep) in eps.iter().enumerate() {
                    if !ignore_breaker && !ep.breaker.lock().unwrap().allow() {
                        continue;
                    }
                    let bound = self.remaining(started, Duration::ZERO, &last)?;
                    if hopped && !self.budget.failover() {
                        return Err(last.expect("a hop follows a failure"));
                    }
                    (hopped, attempted) = (true, true);
                    match op(&eps[i..], bound) {
                        Ok(v) => {
                            self.budget.on_success();
                            return Ok(v);
                        }
                        Err(e) if should_failover(&e) => last = Some(e),
                        Err(e) => return Err(e),
                    }
                }
                if attempted {
                    break;
                }
            }
        }
        Err(last.expect("every pass attempts a node"))
    }

    /// A routed call on pooled connections to `container`'s replicas.
    fn routed<R>(
        &self,
        container: &str,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        self.with_failover(&self.ordered(container)?, None, |eps, bound| {
            eps[0].attempt(bound, &mut op)
        })
    }

    pub fn open(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.open");
        self.routed(container, |c| c.open(container).map(|(stat, _)| stat))
    }

    pub fn topics(&self, container: &str) -> ClientResult<Vec<String>> {
        let _sp = bora_obs::span("cluster.topics");
        self.routed(container, |c| c.topics(container))
    }

    pub fn meta(&self, container: &str) -> ClientResult<Vec<u8>> {
        let _sp = bora_obs::span("cluster.meta");
        self.routed(container, |c| c.meta(container))
    }

    pub fn stat(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.stat");
        self.routed(container, |c| c.stat(container))
    }

    /// Replica endpoints in *ring order* (owner first, no load-aware
    /// rotation) — the deterministic order write fan-out uses.
    fn ring_ordered(&self, container: &str) -> Vec<Arc<NodeEndpoint<T>>> {
        let replicas = self.ring.read().unwrap().replicas(container);
        replicas.iter().filter_map(|id| self.nodes.get(id)).map(Arc::clone).collect()
    }

    /// Run `op` once on every replica of `container`, in ring order,
    /// within one deadline: writes do not fail over — replication *is*
    /// writing to all holders — and all must ack. Returns the owner's ack.
    fn on_every_replica<R>(
        &self,
        container: &str,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let eps = self.ring_ordered(container);
        let started = Instant::now();
        let mut owner_ack = None;
        for ep in &eps {
            let ack = ep.attempt(self.remaining(started, Duration::ZERO, &None)?, &mut op)?;
            owner_ack.get_or_insert(ack);
        }
        owner_ack.ok_or_else(|| no_nodes(container))
    }

    /// Append live messages to `container`'s ingest root on **every**
    /// replica the ring assigns it. All must ack before the call
    /// returns: a node that cannot take the batch fails the append, so a
    /// reader served by any replica sees the same data. Returns the
    /// owner's `(appended, epoch)`.
    pub fn append(&self, container: &str, messages: &[WireMessage]) -> ClientResult<(u64, u64)> {
        let _sp = bora_obs::span("cluster.append");
        self.on_every_replica(container, |c| {
            let ack = c.append(container, messages.to_vec())?;
            bora_obs::counter("cluster.append.replica_acks").inc();
            Ok(ack)
        })
    }

    /// Seal (and optionally compact) `container`'s ingest root on every
    /// replica. Same all-must-ack contract as [`ClusterClient::append`].
    /// Returns the owner's `(epoch, sealed_segments)`.
    pub fn seal(&self, container: &str, compact: bool) -> ClientResult<(u64, u32)> {
        let _sp = bora_obs::span("cluster.seal");
        self.on_every_replica(container, |c| c.seal(container, compact))
    }

    /// Every message of `topics`: [`ClusterClient::read_stream`], collected,
    /// each message copied out of its chunk.
    pub fn read(&self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        let _sp = bora_obs::span("cluster.read");
        self.read_stream(container, topics, None)?.map(|m| m.map(WireMessage::from)).collect()
    }

    fn note_first_frame(&self, lat: Duration) {
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

    /// Open `read` on `eps[0]`, hedged onto `eps[1]` when hedging is on:
    /// if no first frame has arrived by the hedge threshold, the second
    /// leg is opened too. Replicas hold identical data and the read path
    /// is deterministic, so either leg's stream is the answer; the first
    /// leg with a frame wins, and the other hangs up once it has one, so
    /// its server stops within one reply window.
    fn open_leg(
        &self,
        eps: &[Arc<NodeEndpoint<T>>],
        read: &Arc<ReadOp>,
        bound: Option<Duration>,
    ) -> ClientResult<(Arc<NodeEndpoint<T>>, NodeStream<T>)> {
        let started = Instant::now();
        if self.cfg.hedge.is_none() || eps.len() < 2 {
            let stream = eps[0].open_stream(read, bound)?;
            self.note_first_frame(started.elapsed());
            return Ok((Arc::clone(&eps[0]), stream));
        }
        // Legs run on their own threads: each adopts the read's context
        // so its spans (and the server's) stay in the trace tree. The
        // first leg with a frame claims `won`; every other leg records
        // its span cancelled, so hedged losers are visible as abandoned
        // siblings in the merged timeline.
        let (tx, rx) = channel::unbounded();
        let won = Arc::new(AtomicBool::new(false));
        let pctx = bora_obs::current_context();
        let spawn_leg = |idx: usize| {
            let (tx, won, read) = (tx.clone(), Arc::clone(&won), Arc::clone(read));
            let ep = Arc::clone(&eps[idx]);
            std::thread::spawn(move || {
                let _ctx = bora_obs::adopt_context(pctx);
                let leg = bora_obs::span("cluster.hedge_leg");
                match ep.open_stream(&read, bound) {
                    Ok(stream) if !won.swap(true, Ordering::SeqCst) => {
                        leg.end();
                        let _ = tx.send((idx, Ok(stream)));
                    }
                    Ok(stream) => {
                        leg.cancel();
                        stream.abandon();
                    }
                    Err(e) => {
                        leg.cancel();
                        let _ = tx.send((idx, Err(e)));
                    }
                }
            });
        };
        spawn_leg(0);
        let (mut legs, mut failed) = (1, 0);
        loop {
            let (idx, res) = if legs == 1 && failed == 0 {
                match rx.recv_timeout(self.hedge_threshold()) {
                    Ok(reply) => reply,
                    // Primary slow: hedge to the replica. Deliberately
                    // budget-exempt — the primary has not failed, and
                    // throttling hedges would re-create the tail latency
                    // they exist to cut.
                    Err(RecvTimeoutError::Timeout) => {
                        bora_obs::counter("cluster.hedge.issued").inc();
                        spawn_leg(1);
                        legs = 2;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => unreachable!("tx held by this scope"),
                }
            } else {
                rx.recv().expect("tx held by this scope")
            };
            match res {
                Ok(stream) => {
                    if idx == 1 {
                        bora_obs::counter("cluster.hedge.wins").inc();
                    }
                    self.note_first_frame(started.elapsed());
                    return Ok((Arc::clone(&eps[idx]), stream));
                }
                // A primary that failed fast is a failover, not a hedge:
                // the walk's next hop spends a budget token for it.
                Err(e) if failed + 1 == legs => return Err(e),
                Err(_) => failed += 1,
            }
        }
    }

    /// Open a streaming read with transparent mid-stream failover, whole
    /// or over `range`. It returns once a node's first frame arrived, so
    /// an error the read meets at its start is this call's.
    pub fn read_stream(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<ClusterStream<T>> {
        let eps = self.ordered(container)?;
        let topics = topics.iter().map(|t| (*t).to_owned()).collect();
        let read = Arc::new(ReadOp { container: container.to_owned(), topics, range });
        let current =
            self.with_failover(&eps, None, |eps, bound| self.open_leg(eps, &read, bound))?;
        Ok(ClusterStream {
            client: self.clone(),
            eps,
            current: Some(current),
            read,
            skip: 0,
            fetched: 0,
            delivered: Crc32c::new(),
            skipped: Crc32c::new(),
        })
    }

    /// One chronological stream over many containers: a per-container
    /// [`ClusterStream`] per lane, k-way merged by `(time, lane)` — the
    /// same [`Merge`] a server applies across a container's topic lanes,
    /// lifted to the cluster level. This is the way to read many
    /// containers at once; [`ClusterClient::read`] per container gives
    /// them one by one.
    pub fn read_stream_multi(
        &self,
        containers: &[&str],
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<MergedStream<T>> {
        let mut lanes = Vec::with_capacity(containers.len());
        for c in containers {
            lanes.push(self.read_stream(c, topics, range)?);
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
    /// sums the response payload bytes of every fragment.
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
            let reply =
                self.routed(
                    c,
                    |cl| {
                        if agg {
                            cl.query_partial(c, &frag)
                        } else {
                            cl.query(c, &frag)
                        }
                    },
                )?;
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
        ep.attempt(self.cfg.deadline, &mut |c| c.ping())
    }

    /// Probe every node; the per-node result doubles as liveness.
    pub fn ping_all(&self) -> Vec<(NodeId, ClientResult<PingInfo>)> {
        self.nodes
            .iter()
            .map(|(id, ep)| (*id, ep.attempt(self.cfg.deadline, &mut |c| c.ping())))
            .collect()
    }

    /// Every reachable node's `METRICS` scrape; unreachable nodes report
    /// their error (the poller counts them, it does not fail the sweep).
    /// Each node's scrape is a walk over that node alone: a pooled
    /// connection can die while parked (the peer answers its last
    /// request, then begins shutting down), and METRICS is idempotent
    /// control-plane, so a fresh connection gets the answer.
    pub fn metrics_all(&self) -> Vec<(NodeId, ClientResult<MetricsReport>)> {
        self.nodes
            .iter()
            .map(|(id, ep)| {
                let one = std::slice::from_ref(ep);
                let res = self.with_failover(one, None, |eps, bound| {
                    eps[0].attempt(bound, &mut |c| c.metrics())
                });
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

/// A cluster-routed `READ_STREAM2` with mid-stream failover: the policy
/// (the client's walk, breaker, retry budget, resume) over one
/// [`ReadStream`] per (re)issue, each on a fresh connection it owns.
///
/// If the serving node dies mid-stream, the identical query is re-issued
/// through the walk — the replicas after the broken one first — and the
/// first `fetched` messages of the re-issue are skipped. Both nodes merge
/// the same container with the same deterministic `(time, lane)` order,
/// so the resumed tail continues the broken stream byte-for-byte. The
/// skipped prefix is held to a CRC32C of what was handed out: a chunk
/// lost or repeated before the break (which only the broken stream's end
/// frame would have told) ends the stream with an error instead of a
/// tail that does not continue it.
pub struct ClusterStream<T: Transport> {
    /// The owning client: its walk, its budget (so a flapping network
    /// cannot turn one stream into an unbounded reconnect storm), its
    /// hedge.
    client: ClusterClient<T>,
    eps: Vec<Arc<NodeEndpoint<T>>>,
    /// The serving node and its stream; `None` once the stream is over.
    current: Option<(Arc<NodeEndpoint<T>>, NodeStream<T>)>,
    read: Arc<ReadOp>,
    /// Messages of the current (re-issued) stream still to discard.
    skip: u64,
    /// Messages handed to the consumer over the stream's lifetime.
    fetched: u64,
    /// CRC32C of the messages handed out, and of the re-issue's skipped
    /// prefix.
    delivered: Crc32c,
    skipped: Crc32c,
}

/// Fold `m` into a stream digest.
fn digest(crc: &mut Crc32c, m: &ChunkMessage) {
    crc.update(&m.time.as_nanos().to_le_bytes());
    crc.update(&(m.topic.len() as u64).to_le_bytes());
    crc.update(m.topic.as_bytes());
    crc.update(&m.data);
}

impl<T: Transport + Send + Sync + 'static> ClusterStream<T> {
    pub fn received(&self) -> u64 {
        self.fetched
    }

    /// Re-issue the read after the serving node broke with `e`. The
    /// request carries whatever span is open at resume time — still the
    /// caller's — so the resumed stream stays in the same trace tree.
    fn resume(&mut self, e: ClientError) -> ClientResult<()> {
        if let Some((ep, _)) = self.current.take() {
            ep.breaker.lock().unwrap().on_failure();
            let after = self.eps.iter().position(|x| Arc::ptr_eq(x, &ep)).map_or(0, |i| i + 1);
            self.eps.rotate_left(after);
        }
        let (client, read) = (&self.client, &self.read);
        let current = client
            .with_failover(&self.eps, Some(e), |eps, bound| client.open_leg(eps, read, bound))?;
        (self.skip, self.skipped) = (self.fetched, Crc32c::new());
        self.current = Some(current);
        Ok(())
    }

    /// The re-issue does not continue what was handed out: end the stream.
    fn diverged(&mut self) -> Option<ClientResult<ChunkMessage>> {
        self.current = None;
        let what =
            format!("a resumed stream of {} diverges from the messages", self.read.container);
        Some(Err(ClientError::Proto(ProtoError(format!("{what} already handed out")))))
    }
}

impl<T: Transport + Send + Sync + 'static> Iterator for ClusterStream<T> {
    type Item = ClientResult<ChunkMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (_, stream) = self.current.as_mut()?;
            match stream.next() {
                Some(Ok(m)) if self.skip > 0 => {
                    self.skip -= 1;
                    digest(&mut self.skipped, &m);
                    if self.skip == 0 && self.skipped.finish() != self.delivered.finish() {
                        return self.diverged();
                    }
                }
                Some(Ok(m)) => {
                    self.fetched += 1;
                    digest(&mut self.delivered, &m);
                    return Some(Ok(m));
                }
                None if self.skip > 0 => return self.diverged(),
                None => self.current = None,
                // A transport fault, a desynchronized stream, an overloaded
                // or failing node: resume on the next replica. A lost or
                // repeated chunk shows only at the end, after messages
                // past it were handed out: that stream ends with its error.
                Some(Err(e))
                    if should_failover(&e) && !matches!(e, ClientError::StreamCount { .. }) =>
                {
                    if let Err(e) = self.resume(e) {
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

/// Chronological k-way merge over per-container cluster streams.
///
/// Each lane is a [`ClusterStream`] (so lanes fail over independently),
/// merged by a node's own [`Merge`]: `(time, lane index)` order — the
/// stable tie-break that makes the merged order deterministic across runs
/// and across node deaths — and the lead lane's heap skip.
///
/// A lane that fails ends the merge: the consumer gets every message
/// the lanes delivered before the failure, then the error, then `None`.
pub struct MergedStream<T: Transport> {
    lanes: Vec<ClusterStream<T>>,
    heads: Vec<Option<ChunkMessage>>,
    merge: Merge,
    /// A lane's error, held back until the message it followed is out.
    failed: Option<ClientError>,
}

impl<T: Transport + Send + Sync + 'static> MergedStream<T> {
    fn new(mut lanes: Vec<ClusterStream<T>>) -> ClientResult<Self> {
        let heads: Vec<_> =
            lanes.iter_mut().map(|l| l.next().transpose()).collect::<Result<_, _>>()?;
        let merge = Merge::new(heads.iter().map(|h| h.as_ref().map(|m| m.time.as_nanos())));
        Ok(MergedStream { lanes, heads, merge, failed: None })
    }

    /// Heap operations the merge has performed (see [`Merge::heap_ops`]).
    pub fn heap_ops(&self) -> u64 {
        self.merge.heap_ops()
    }
}

impl<T: Transport + Send + Sync + 'static> Iterator for MergedStream<T> {
    type Item = ClientResult<ChunkMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.failed.take() {
            return Some(Err(e));
        }
        let lane = self.merge.pick()?;
        let out = self.heads[lane].take().expect("a picked lane has a head");
        match self.lanes[lane].next().transpose() {
            Ok(head) => {
                self.merge.advance(lane, head.as_ref().map(|m| m.time.as_nanos()));
                self.heads[lane] = head;
            }
            // `out` arrived intact and sorts before everything still
            // queued: it goes out now, the error on the next call.
            Err(e) => {
                self.merge.end();
                self.failed = Some(e);
            }
        }
        Some(Ok(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingConfig;
    use bora_serve::{Connection, Response};
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU32;

    // -------------------------------------------------- scripted transport

    /// What a scripted connection does for one request.
    #[derive(Clone)]
    enum Step {
        /// Answer under the seq of the request in flight.
        Reply(Response),
        /// Fail the recv with an I/O error (connection is then unusable).
        Break,
    }

    struct ScriptedConn {
        steps: Arc<Mutex<VecDeque<Step>>>,
        sends: Arc<AtomicU32>,
        /// Seq of the last request sent.
        seq: u32,
        pending: bool,
        broken: bool,
    }

    impl Connection for ScriptedConn {
        fn send_frame(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
            self.sends.fetch_add(1, Ordering::SeqCst);
            let payload = parts.concat();
            self.seq = bora_serve::split_seq(&payload).expect("requests open with a seq").0;
            self.pending = true;
            Ok(())
        }
        // Accepted but unenforced: scripted failures come from the
        // script, not real waits. Without this, a deadline (which bounds
        // each attempt with a timeout) could not be scripted at all.
        fn set_timeout(&mut self, _timeout: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            // One send may be answered by many frames (streams), so
            // `pending` stays set until the connection breaks.
            assert!(self.pending, "recv without a request in flight");
            if self.broken {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "dead conn"));
            }
            match self.steps.lock().unwrap().pop_front() {
                Some(Step::Reply(resp)) => Ok(resp.encode_seq(self.seq).unwrap()),
                Some(Step::Break) | None => {
                    self.broken = true;
                    Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "scripted break"))
                }
            }
        }
    }

    /// Hands every connection the same shared script; counts connects
    /// and request frames sent.
    #[derive(Default)]
    struct ScriptedTransport {
        steps: Arc<Mutex<VecDeque<Step>>>,
        connects: AtomicU32,
        sends: Arc<AtomicU32>,
    }

    impl ScriptedTransport {
        fn new(steps: Vec<Step>) -> Arc<Self> {
            Arc::new(ScriptedTransport {
                steps: Arc::new(Mutex::new(steps.into())),
                ..ScriptedTransport::default()
            })
        }

        fn sends(&self) -> u32 {
            self.sends.load(Ordering::SeqCst)
        }

        fn left(&self) -> usize {
            self.steps.lock().unwrap().len()
        }
    }

    impl Transport for ScriptedTransport {
        type Conn = ScriptedConn;
        fn connect(&self) -> std::io::Result<ScriptedConn> {
            self.connects.fetch_add(1, Ordering::SeqCst);
            Ok(ScriptedConn {
                steps: Arc::clone(&self.steps),
                sends: Arc::clone(&self.sends),
                seq: 0,
                pending: false,
                broken: false,
            })
        }
    }

    fn server_err(code: ErrorCode) -> Step {
        Step::Reply(Response::Error { code, message: "scripted".into() })
    }

    /// A one-node client over `t`: the walk retries that node alone.
    fn one_node(
        t: &Arc<ScriptedTransport>,
        cfg: ClusterClientConfig,
    ) -> ClusterClient<Arc<ScriptedTransport>> {
        let ring = Arc::new(RwLock::new(Ring::with_nodes(RingConfig::default(), 1)));
        ClusterClient::new(ring, [(0, Arc::clone(t))], cfg)
    }

    /// No budget, no deadline: only the walk's passes bound it.
    fn unbudgeted() -> ClusterClientConfig {
        ClusterClientConfig { retry_budget: None, ..ClusterClientConfig::default() }
    }

    fn budget(capacity: f64, deposit_per_success: f64) -> ClusterClientConfig {
        let retry_budget = Some(RetryBudgetConfig { capacity, deposit_per_success });
        ClusterClientConfig { retry_budget, ..ClusterClientConfig::default() }
    }

    // -------------------------------------------------- backoff schedule

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(BACKOFF_MS, [10, 20, 40], "one sleep between each of the four passes");
        for pass in 1..BACKOFF_MS.len() {
            assert_eq!(BACKOFF_MS[pass], 2 * BACKOFF_MS[pass - 1], "the ladder doubles");
        }
        // The last rung is the cap: a walk sleeps at most 70 ms in all.
        let rng = AtomicU64::new(0);
        let slept: Duration = (0..PASSES - 1).map(|pass| backoff(pass, &rng)).sum();
        assert!(slept <= Duration::from_millis(70), "{slept:?}");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let ladder = |seed: u64| -> Vec<Duration> {
            let rng = AtomicU64::new(seed);
            (0..64).map(|k| backoff(k % (PASSES - 1), &rng)).collect()
        };
        let a = ladder(42);
        assert_eq!(a, ladder(42), "same stream, same sleeps");
        for (k, d) in a.iter().enumerate() {
            let raw = Duration::from_millis(BACKOFF_MS[k % (PASSES - 1)]);
            assert!(*d <= raw, "jitter only shortens: {d:?} > {raw:?}");
            assert!(*d * 2 >= raw, "at most half removed: {d:?} < {raw:?}/2");
        }
        assert_ne!(a, ladder(43), "different stream, different jitter");
        // Each client draws from a stream of its own.
        let t = ScriptedTransport::new(vec![]);
        let (c, d) = (one_node(&t, unbudgeted()), one_node(&t, unbudgeted()));
        assert_ne!(c.rng.load(Ordering::SeqCst), d.rng.load(Ordering::SeqCst));
    }

    // ------------------------------------------------------ retry behavior

    #[test]
    fn transient_errors_retry_until_success() {
        let t = ScriptedTransport::new(vec![
            Step::Reply(Response::Overloaded),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec!["/imu".into()])),
        ]);
        let c = one_node(&t, unbudgeted());
        assert_eq!(c.topics("/c").unwrap(), vec!["/imu".to_owned()]);
        assert_eq!(t.sends(), 3, "2 retries");
        assert_eq!(t.connects.load(Ordering::SeqCst), 1, "server errors keep the connection");
    }

    #[test]
    fn broken_stream_reconnects_then_succeeds() {
        let t = ScriptedTransport::new(vec![Step::Break, Step::Reply(Response::Topics(vec![]))]);
        let c = one_node(&t, unbudgeted());
        assert_eq!(c.topics("/c").unwrap(), Vec::<String>::new());
        assert_eq!(t.sends(), 2, "1 retry");
        assert_eq!(t.connects.load(Ordering::SeqCst), 2, "I/O failure forces a reconnect");
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::Io),
            server_err(ErrorCode::Io),
            server_err(ErrorCode::Io),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])), // never reached
        ]);
        let c = one_node(&t, unbudgeted());
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected Io server error, got {other:?}"),
        }
        assert_eq!(t.sends(), PASSES as u32, "4 passes = 3 retries");
        assert_eq!(t.left(), 1, "exactly 4 requests answered");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        for code in [ErrorCode::UnknownTopic, ErrorCode::NotAContainer, ErrorCode::Corrupt] {
            let t = ScriptedTransport::new(vec![
                server_err(code),
                Step::Reply(Response::Topics(vec![])),
            ]);
            let c = one_node(&t, unbudgeted());
            match c.topics("/c") {
                Err(ClientError::Server { code: got, .. }) => assert_eq!(got, code),
                other => panic!("expected server error, got {other:?}"),
            }
            assert_eq!(t.sends(), 1, "{code:?} must not be retried");
            assert_eq!(t.left(), 1, "only one request sent");
        }
    }

    #[test]
    fn checksum_mismatch_is_retried() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::ChecksumMismatch),
            Step::Reply(Response::Topics(vec![])),
        ]);
        let c = one_node(&t, unbudgeted());
        assert!(c.topics("/c").is_ok());
        assert_eq!(t.sends(), 2, "1 retry");
    }

    // ------------------------------------------------------- retry budget

    #[test]
    fn retry_budget_bounds_total_retries() {
        // More transient failures than the bucket can cover: the walk's
        // four passes would allow 3 retries, the budget allows 2.
        let t = ScriptedTransport::new(vec![server_err(ErrorCode::Io); 10]);
        let c = one_node(&t, budget(2.0, 0.1));
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected the underlying Io error, got {other:?}"),
        }
        assert_eq!(t.sends(), 3, "bucket of 2 tokens = 2 retries");
        assert_eq!(c.retry_budget_stats(), Some((0.0, 1)), "bucket empty, one retry denied");
        assert_eq!(t.left(), 7, "exactly 3 requests sent");
    }

    #[test]
    fn retry_budget_refills_on_success() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])), // unreachable: budget empty
        ]);
        let c = one_node(&t, budget(1.0, 0.5));
        assert!(c.topics("/c").is_ok(), "first call retries through on the banked token");
        assert_eq!(c.retry_budget_stats(), Some((0.5, 0)), "success earned half a token back");
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected fail-fast on empty bucket, got {other:?}"),
        }
        assert_eq!(t.sends(), 3, "no second retry: bucket below one token");
        assert_eq!(c.retry_budget_stats(), Some((0.5, 1)));
    }

    // --------------------------------------------------- total deadline

    #[test]
    fn deadline_cuts_backoff_short() {
        // The first backoff sleeps more than 5 ms; the 5 ms total budget
        // makes the client surface the miss instead of sleeping into it.
        let t = ScriptedTransport::new(vec![Step::Break; 5]);
        let deadline = Some(Duration::from_millis(5));
        let c = one_node(&t, ClusterClientConfig { deadline, ..unbudgeted() });
        match c.topics("/c") {
            Err(ClientError::DeadlineExceeded { deadline, elapsed, last_error }) => {
                assert_eq!(deadline, Duration::from_millis(5));
                assert!(elapsed < deadline, "gave up before the deadline, not past a sleep");
                assert!(last_error.contains("scripted break"), "carries the real failure");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(t.sends(), 1, "no retry");
        assert!(!ClientError::DeadlineExceeded {
            deadline: Duration::ZERO,
            elapsed: Duration::ZERO,
            last_error: String::new(),
        }
        .is_transient());
    }

    #[test]
    fn expired_deadline_fails_before_any_attempt() {
        let t = ScriptedTransport::new(vec![Step::Reply(Response::Topics(vec![]))]);
        let c =
            one_node(&t, ClusterClientConfig { deadline: Some(Duration::ZERO), ..unbudgeted() });
        assert!(matches!(c.topics("/c"), Err(ClientError::DeadlineExceeded { .. })));
        assert_eq!(t.left(), 1, "no request was sent");
        assert_eq!(t.connects.load(Ordering::SeqCst), 0, "no connection was made");
    }

    // ------------------------------------------------------------ resume

    /// A chunk repeated before the stream breaks is a tail the resume
    /// cannot continue: the re-issue's skipped prefix differs from what
    /// was handed out, and the stream ends with an error, not with a
    /// shifted tail.
    #[test]
    fn a_resume_that_does_not_continue_the_stream_is_an_error() {
        let chunk = |c: u32| {
            let msgs: Vec<WireMessage> = (0..32)
                .map(|i| WireMessage {
                    topic: "/imu".into(),
                    time: Time::new(c * 32 + i, 0),
                    data: vec![c as u8; 16],
                })
                .collect();
            Step::Reply(bora_serve::compress_chunk(&msgs, &mut simfs::IoCtx::new()))
        };
        let end = Step::Reply(Response::StreamEnd { messages: 96 });
        let whole = [chunk(0), chunk(1), chunk(2), end.clone()];
        // Unbroken, and broken after a chunk and resumed: the answer.
        let mut script = whole.to_vec();
        script.extend([chunk(0), Step::Break]);
        script.extend(whole.clone());
        let t = ScriptedTransport::new(script);
        let c = one_node(&t, unbudgeted());
        let read = c.read("/c", &["/imu"]).unwrap();
        let resumed: Vec<ChunkMessage> =
            c.read_stream("/c", &["/imu"], None).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(read.len(), 96);
        assert_eq!(resumed, read);
        // Chunk 0 twice, then a break: 64 messages out, and the re-issue's
        // first 64 are chunks 0 and 1.
        let mut script = vec![chunk(0), chunk(0), Step::Break];
        script.extend(whole.clone());
        let t = ScriptedTransport::new(script);
        let results: Vec<_> =
            one_node(&t, unbudgeted()).read_stream("/c", &["/imu"], None).unwrap().collect();
        let (last, delivered) = results.split_last().unwrap();
        assert_eq!(delivered.len(), 64);
        assert!(matches!(last, Err(ClientError::Proto(_))), "{last:?}");
        // Chunks 0, 0, 1 and 2, then a break: 128 messages out, more than
        // the whole answer the re-issue ends after.
        let mut script = vec![chunk(0), chunk(0), chunk(1), chunk(2), Step::Break];
        script.extend(whole);
        let t = ScriptedTransport::new(script);
        let results: Vec<_> =
            one_node(&t, unbudgeted()).read_stream("/c", &["/imu"], None).unwrap().collect();
        assert_eq!(results.len(), 129);
        assert!(matches!(results[128], Err(ClientError::Proto(_))), "{:?}", results[128]);
    }
}
