//! The query server: a bounded request queue feeding a worker pool.
//!
//! ```text
//!  transport ──▶ submit_streamed_framed ──try_send──▶ [bounded queue] ──▶ worker 0..N
//!                      │  (control ops answered inline)                    │
//!                      │ full? ◀── Response::Overloaded            Source{pinned handle | snapshot}
//!                      │                                                   │
//!                      └──────── reply channel ◀──────────────────── scan / cursor
//! ```
//!
//! Backpressure is explicit: submitting never blocks on a full queue — it
//! sheds the request with [`Response::Overloaded`] so the client decides
//! whether to retry. The control-plane ops (`STATS`, `SHUTDOWN`) bypass
//! the queue entirely, which is what makes an overloaded server
//! observable: you can always ask it how overloaded it is.
//!
//! Every read op reaches the one k-way merge the same way: a worker opens
//! a `Source` (a static container's pinned cache handle, or a live
//! root's MVCC snapshot — "a static container is a snapshot with empty
//! tails"), builds one `MessageStream` over it, and either `scan`s it
//! into message batches (`READ` and `READ_STREAM2` differ only in their
//! sink) or hands it to a query cursor (`QUERY`).
//!
//! Workers register with a [`simfs::ConcurrencyGauge`], so on cost-model
//! backends each request's virtual I/O time reflects how many workers
//! were actually competing for the device when it ran.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bora::{BoraError, BoraResult, BufferPool, MessageStream, StreamMessage};
use bora_ingest::{IngestStore, Snapshot};
use bora_obs::TraceContext;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use ros_msgs::Time;
use simfs::{ConcurrencyGauge, IoCtx, Storage};

use crate::cache::{HandleCache, PinnedBag};
use crate::metrics::Metrics;
use crate::proto::{
    chunk_frame, ContainerStat, ErrorCode, MetricsReport, PingInfo, Request, Response, SlowOpEntry,
    StatsSnapshot, WireMessage, METRICS_REPORT_VERSION,
};

/// Messages per [`Response::StreamChunk`] frame. Small enough that the
/// first result reaches the client while the merge is still running,
/// large enough that framing overhead stays negligible.
const STREAM_CHUNK_MSGS: usize = 32;

/// Rows per [`Response::QueryChunk`] frame. Query rows are a few scalar
/// cells each — far smaller than raw messages — so the batch can be
/// larger than [`STREAM_CHUNK_MSGS`] at the same framing overhead.
const QUERY_CHUNK_ROWS: usize = 64;

/// Bound of a streaming reply channel: how many frames the worker may run
/// ahead of the transport before it blocks. This is the server-side half
/// of end-to-end backpressure — a slow client throttles the merge instead
/// of buffering the whole result set in memory.
const STREAM_WINDOW: usize = 4;

/// Entries kept in the slow-op ring; older entries are dropped. Bounded
/// so an hour of pathological latency costs fixed memory, sized so the
/// ring still spans a useful tail when a scrape arrives.
const SLOW_OP_RING: usize = 128;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bound of the request queue; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Container handles kept open in the LRU cache.
    pub cache_capacity: usize,
    /// Stable identity of this server within a cluster, echoed by `PING`.
    /// 0 for a standalone deployment.
    pub server_id: u32,
    /// Ops whose total wall time (queue wait included) reaches this land
    /// in the slow-op ring reported by `METRICS`. 0 records every op.
    pub slow_op_threshold_ns: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 8,
            server_id: 0,
            slow_op_threshold_ns: 10_000_000, // 10 ms
        }
    }
}

enum Job {
    Work {
        req: Request,
        reply: Sender<Response>,
        submitted: Instant,
        /// Trace context the client sent, if any; the worker adopts it so
        /// its spans parent under the client's.
        tctx: Option<TraceContext>,
        /// `bora_obs::now_ns()` at submit when tracing is enabled, 0
        /// otherwise — start of the synthesized queue-wait span.
        submitted_ns: u64,
        /// Deadline budget (relative ns) the client propagated on the
        /// wire, if any. A worker that picks the job up after the budget
        /// is spent sheds it unworked.
        deadline_ns: Option<u64>,
    },
    /// Shutdown sentinel: one per worker.
    Poison,
}

struct Shared<S: Storage> {
    storage: S,
    cache: HandleCache<S>,
    /// Live ingest roots this server has opened, keyed by root path.
    /// Unlike the handle cache these are never evicted: an `IngestStore`
    /// owns the root's WAL shards and memtable, so there must be exactly
    /// one per root per process.
    ingests: Mutex<HashMap<String, Arc<IngestStore<S>>>>,
    metrics: Metrics,
    gauge: ConcurrencyGauge,
    shutting_down: AtomicBool,
    server_id: u32,
    started: Instant,
    /// Recent ops over the slow threshold, oldest first.
    slow_ops: Mutex<VecDeque<SlowOpEntry>>,
    slow_op_threshold_ns: u64,
}

/// A running bora-serve instance. Cheap to share via `Arc`; transports
/// call [`Server::submit_streamed_framed`] once per decoded request.
pub struct Server<S: Storage> {
    shared: Arc<Shared<S>>,
    tx: Sender<Job>,
    queue_capacity: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Storage + Clone + Send + Sync + 'static> Server<S> {
    /// Start the worker pool over `storage`.
    pub fn start(storage: S, config: ServerConfig) -> Arc<Self> {
        assert!(config.workers > 0, "need at least one worker");
        let (tx, rx) = channel::bounded::<Job>(config.queue_capacity.max(1));
        // One byte-budgeted pool for the whole process (sized by
        // `BORA_POOL_BYTES`): every handle the cache opens and every
        // ingest snapshot shares it, so total page memory has a single
        // knob regardless of how many containers are hot.
        let shared = Arc::new(Shared {
            storage,
            cache: HandleCache::new(config.cache_capacity).with_pool(BufferPool::from_env()),
            ingests: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            gauge: ConcurrencyGauge::new(),
            shutting_down: AtomicBool::new(false),
            server_id: config.server_id,
            started: Instant::now(),
            slow_ops: Mutex::new(VecDeque::with_capacity(SLOW_OP_RING)),
            slow_op_threshold_ns: config.slow_op_threshold_ns,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("bora-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();
        Arc::new(Server {
            shared,
            tx,
            queue_capacity: config.queue_capacity.max(1),
            workers: Mutex::new(workers),
        })
    }

    /// Handle one single-response request to completion: the last (only)
    /// frame of [`Server::submit_streamed`].
    pub fn submit(&self, req: Request) -> Response {
        let mut last = None;
        self.submit_streamed(req, &mut |resp| {
            last = Some(resp);
            true
        });
        last.expect("submit_streamed emits a terminal frame on every path")
    }

    /// [`Server::submit_streamed_framed`] for a request that arrived with
    /// no trace context and no deadline budget.
    pub fn submit_streamed(&self, req: Request, emit: &mut dyn FnMut(Response) -> bool) -> bool {
        self.submit_streamed_framed(req, None, None, emit)
    }

    /// Handle one request, delivering every response frame through `emit`
    /// — the one way into the server; transports call it once per decoded
    /// frame.
    ///
    /// Control-plane ops answer inline with one frame. Data ops go through
    /// the bounded queue (and may come back [`Response::Overloaded`]): a
    /// single-response op emits one frame; `READ_STREAM2` emits zero or
    /// more chunk frames and `QUERY` a schema frame and row
    /// chunks, each followed by a terminal frame (`StreamEnd`/`QueryEnd`
    /// on success, an error/overload response otherwise). The reply
    /// channel is bounded (`STREAM_WINDOW`): a transport that is slow to
    /// `emit` throttles the worker's merge loop.
    ///
    /// `tctx` is the client's trace context, if the transport decoded one:
    /// the worker adopts it, so every server-side span of this request
    /// parents under the client's span. `deadline_ns` is the client's
    /// deadline budget, if any. Control-plane ops ignore it (they must
    /// stay reachable under overload); a worker sheds a data op whose
    /// queue wait already exceeded the budget — the client has given up or
    /// is about to, so doing the work would burn a worker on a dead
    /// request.
    ///
    /// Returns `false` once `emit` does — the transport lost its client —
    /// at which point the in-flight stream is aborted server-side (the
    /// worker's next send fails and it drops the cache pin).
    pub fn submit_streamed_framed(
        &self,
        req: Request,
        tctx: Option<TraceContext>,
        deadline_ns: Option<u64>,
        emit: &mut dyn FnMut(Response) -> bool,
    ) -> bool {
        let req = match req {
            Request::Stats => return emit(Response::Stats(self.stats())),
            // METRICS is control-plane for the same reason PING is: the
            // telemetry poller must see an overloaded node, not be shed
            // by it.
            Request::Metrics => return emit(Response::Metrics(self.metrics_report())),
            // PING answers inline for the same reason STATS does: the
            // health tracker must hear from an overloaded server, and the
            // queue depth in the reply is the overload signal itself.
            Request::Ping => return emit(Response::Pong(self.ping())),
            // TRACE drains the process-wide span buffers; like STATS it
            // answers inline so a wedged pool can still be profiled. With
            // tracing disabled the document is just empty.
            Request::Trace => {
                return emit(Response::Trace(bora_obs::chrome_trace(
                    &bora_obs::drain(),
                    bora_obs::dropped(),
                )))
            }
            Request::Shutdown => {
                self.begin_shutdown();
                return emit(Response::ShuttingDown);
            }
            data_op => data_op,
        };
        if self.is_shutting_down() {
            return emit(shutting_down("server is shutting down"));
        }
        // Appends shed *before* reads: the queue admits them only while
        // less than half full, so a recording robot under a write burst
        // backs off while analysts' queries still land.
        if matches!(req, Request::Append { .. })
            && self.tx.len() >= (self.queue_capacity / 2).max(1)
        {
            self.shared.metrics.record_shed();
            bora_obs::counter("serve.append_shed").inc();
            return emit(Response::Overloaded);
        }
        let (reply_tx, reply_rx) = channel::bounded(STREAM_WINDOW);
        let job = Job::Work {
            req,
            reply: reply_tx,
            submitted: Instant::now(),
            tctx,
            submitted_ns: obs_now(),
            deadline_ns,
        };
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.record_shed();
                return emit(Response::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                return emit(shutting_down("worker pool stopped"));
            }
        }
        loop {
            let Ok(resp) = reply_rx.recv() else {
                return emit(shutting_down("worker exited before its terminal frame"));
            };
            // Stream chunks and a query's schema / row-chunk frames precede
            // the terminal frame; every other response is one.
            let terminal = !matches!(
                resp,
                Response::StreamChunk(_)
                    | Response::StreamChunkLz(_)
                    | Response::QuerySchema(_)
                    | Response::QueryChunk(_)
            );
            if !emit(resp) {
                // Client is gone: dropping `reply_rx` makes the worker's
                // next send fail, aborting the stream and releasing its
                // cache pin.
                return false;
            }
            if terminal {
                return true;
            }
        }
    }

    /// Health-probe payload (`PING`): identity, uptime, live queue depth.
    pub fn ping(&self) -> PingInfo {
        PingInfo {
            server_id: self.shared.server_id,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
            queue_depth: self.tx.len() as u32,
        }
    }

    /// Declare which containers this server *owns* (vs merely replicates)
    /// under a cluster placement. Owned handles are evicted last — a
    /// burst of replica-read traffic (failover, hedges) cannot churn the
    /// owner's working set out of its own cache.
    pub fn set_owned_containers<I: IntoIterator<Item = String>>(&self, roots: I) {
        self.shared.cache.set_preferred(roots);
    }

    /// Current metrics, including live queue depth and cache counters.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = self.shared.cache.stats();
        let base = StatsSnapshot {
            queue_depth: self.tx.len() as u32,
            queue_capacity: self.queue_capacity as u32,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_len: cache.len,
            cache_capacity: cache.capacity,
            ..StatsSnapshot::default()
        };
        self.shared.metrics.snapshot_into(base)
    }

    /// Versioned scrape payload (`METRICS`): the node's full metric
    /// registry plus its slow-op tail. Reads the same handles `STATS`
    /// does, so the two views can never disagree.
    pub fn metrics_report(&self) -> MetricsReport {
        let snap = self.shared.metrics.registry_snapshot();
        MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id: self.shared.server_id,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
            counters: snap.counters,
            gauges: snap.gauges,
            hists: snap.hists,
            slow_ops: self.shared.slow_ops.lock().iter().cloned().collect(),
        }
    }

    /// Set (or update) a latency objective for `op_name`; see
    /// [`Metrics::set_slo_target`].
    pub fn set_slo_target(&self, op_name: &str, target: bora_obs::SloTarget) {
        self.shared.metrics.set_slo_target(op_name, target);
    }

    /// Evaluate every registered SLO over its current window.
    pub fn slo_statuses(&self) -> Vec<bora_obs::SloStatus> {
        self.shared.metrics.slo_statuses()
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Outstanding cache pins on `container` (0 if not cached). Streaming
    /// reads hold a pin for the stream's lifetime; this makes that
    /// observable to tests and debugging tools.
    pub fn cache_pins(&self, container: &str) -> u32 {
        self.shared.cache.pins(container)
    }

    /// Stop accepting data requests and tell every worker to exit once the
    /// queue drains. Idempotent; does not join (see [`Server::shutdown`]).
    pub fn begin_shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let n = self.workers.lock().len();
        for _ in 0..n {
            // Blocking send: poisons queue behind any in-flight work.
            if self.tx.send(Job::Poison).is_err() {
                break;
            }
        }
    }

    /// `begin_shutdown` plus joining the workers.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl<S: Storage> Drop for Server<S> {
    fn drop(&mut self) {
        // Last Arc going away with workers possibly parked in `recv`:
        // poison and join so no worker thread outlives the server. The
        // blocking sends terminate because workers only ever drain the
        // queue. Idempotent after an explicit `shutdown()`.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let n = self.workers.lock().len();
        for _ in 0..n {
            if self.tx.send(Job::Poison).is_err() {
                break;
            }
        }
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// `bora_obs::now_ns()` when tracing is enabled, 0 otherwise — the
/// untraced hot path must not touch the clock.
fn obs_now() -> u64 {
    if bora_obs::enabled() {
        bora_obs::now_ns()
    } else {
        0
    }
}

fn shutting_down(message: &str) -> Response {
    Response::Error { code: ErrorCode::ShuttingDown, message: message.into() }
}

fn worker_loop<S: Storage + Clone>(shared: &Shared<S>, rx: &Receiver<Job>) {
    // Lane convention: pid 0 is the client; servers are `server_id + 1`.
    bora_obs::set_thread_node(shared.server_id + 1);
    while let Ok(job) = rx.recv() {
        let (req, reply, submitted, tctx, submitted_ns, deadline_ns) = match job {
            Job::Poison => return,
            Job::Work { req, reply, submitted, tctx, submitted_ns, deadline_ns } => {
                (req, reply, submitted, tctx, submitted_ns, deadline_ns)
            }
        };
        // Everything this request records now parents under the client's
        // span (a no-op guard when the request carried no context).
        let _trace = bora_obs::adopt_context(tctx);
        let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
        shared.metrics.record_queue_wait(queue_wait_ns);
        if submitted_ns != 0 {
            // Synthesized after the fact: the submitting thread cannot
            // open a span that ends on this one.
            bora_obs::record_complete("serve.queue_wait", submitted_ns, queue_wait_ns);
        }
        // Deadline shed: if the client's budget was spent while the job
        // queued, answering with the real result would arrive at a caller
        // that already timed out — reply with the miss instead of burning
        // a worker on dead work.
        if let Some(budget) = deadline_ns {
            if queue_wait_ns >= budget {
                shared.metrics.record_shed();
                bora_obs::counter("serve.deadline_shed").inc();
                let _ = reply.send(Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: format!(
                        "deadline budget {budget}ns spent in queue ({queue_wait_ns}ns)"
                    ),
                });
                continue;
            }
        }
        let active = shared.gauge.enter();
        let mut ctx = active.ctx();
        let op = req.op_name();
        let sp = bora_obs::span(span_name(op));
        // Chunk frames go out on `reply` as the merge yields; the
        // terminal (or only) frame is returned and sent below, *after*
        // the metrics record — so a client that has seen the op complete
        // is guaranteed to see it counted by a subsequent STATS.
        let resp = handle(shared, &req, &reply, &mut ctx);
        sp.end_virt(ctx.elapsed_ns());
        drop(active);
        let wall_ns = submitted.elapsed().as_nanos() as u64;
        shared.metrics.record(op, wall_ns, ctx.elapsed_ns());
        if wall_ns >= shared.slow_op_threshold_ns {
            let mut ring = shared.slow_ops.lock();
            if ring.len() == SLOW_OP_RING {
                ring.pop_front();
            }
            ring.push_back(SlowOpEntry {
                trace_id: tctx.map(|c| c.trace_id).unwrap_or(0),
                op: op.to_owned(),
                container: req.container().unwrap_or_default().to_owned(),
                wall_ns: wall_ns - queue_wait_ns,
                queue_wait_ns,
                server_id: shared.server_id,
            });
        }
        // A client that gave up (dropped the reply receiver) is not an
        // error; the work is simply discarded.
        if let Some(resp) = resp {
            let _ = reply.send(resp);
        }
    }
}

/// Static span name for a data-plane op (span names must be `'static`).
fn span_name(op: &str) -> &'static str {
    match op {
        "open" => "serve.open",
        "topics" => "serve.topics",
        "meta" => "serve.meta",
        "read" => "serve.read",
        "read_stream" => "serve.read_stream",
        "query" => "serve.query",
        "append" => "serve.append",
        "seal" => "serve.seal",
        "stat" => "serve.stat",
        _ => "serve.other",
    }
}

/// Resolve `container` as a live ingest root, if it is one. The registry
/// holds the process's single `IngestStore` per root; a miss probes the
/// medium for the `.boraingest` marker and opens (recovering) on first
/// touch. Plain containers return `Ok(None)` and take the handle-cache
/// path.
fn ingest_for<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    ctx: &mut IoCtx,
) -> BoraResult<Option<Arc<IngestStore<S>>>> {
    if let Some(st) = shared.ingests.lock().get(container) {
        return Ok(Some(Arc::clone(st)));
    }
    if !IngestStore::is_ingest_root(&shared.storage, container, ctx) {
        return Ok(None);
    }
    let mut store = IngestStore::open(shared.storage.clone(), container, ctx)?;
    if let Some(pool) = shared.cache.pool() {
        // Ingest snapshot reads draw pages from the same process-wide
        // pool as plain container handles.
        store = store.with_pool(Arc::clone(pool));
    }
    let opened = Arc::new(store);
    // Two workers may race the first open; the registry keeps whichever
    // inserted first and the loser's store is dropped unused.
    let mut reg = shared.ingests.lock();
    Ok(Some(Arc::clone(reg.entry(container.to_owned()).or_insert(opened))))
}

/// The live ingest store behind a write op (`APPEND`, `SEAL`).
fn live_store<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    ctx: &mut IoCtx,
) -> BoraResult<Arc<IngestStore<S>>> {
    ingest_for(shared, container, ctx)?
        .ok_or_else(|| BoraError::NotAContainer(format!("{container}: not a live ingest root")))
}

/// What a read op reads from: a static container through its pinned
/// cache handle, or a live ingest root through an MVCC snapshot. A
/// static container is a snapshot with empty tails, so both answer the
/// same questions and feed the same merge. They differ in one place —
/// what a request for a topic the source lacks gets:
///
/// | op                          | static root    | live root |
/// |-----------------------------|----------------|-----------|
/// | `READ`, `READ_STREAM2`      | `UnknownTopic` | empty     |
/// | `QUERY`                     | skipped        | skipped   |
///
/// A recording may start producing the topic one epoch later, so on a
/// live root its absence is not an error. And a topic a live root holds
/// only in its tail (not yet compacted) has no recorded datatype, so a
/// query reads its message fields as null.
///
/// The pin (or the snapshot's generation handle) lives as long as the
/// `Source`, so a burst of opens for other containers — or a compaction —
/// cannot pull the files out from under an in-flight stream.
enum Source<'c, S: Storage> {
    Static(PinnedBag<'c, S>),
    Live(Snapshot<S>),
}

impl<'c, S: Storage + Clone> Source<'c, S> {
    fn open(shared: &'c Shared<S>, container: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        Ok(match ingest_for(shared, container, ctx)? {
            Some(store) => Source::Live(store.snapshot(ctx)?),
            None => Source::Static(shared.cache.get_or_open(&shared.storage, container, ctx)?),
        })
    }

    /// Every topic the source holds, sorted.
    fn topics(&self) -> Vec<String> {
        match self {
            Source::Static(pinned) => {
                pinned.bag().topics().into_iter().map(str::to_owned).collect()
            }
            Source::Live(snap) => snap.topics(),
        }
    }

    /// Topic → ROS datatype, for query field access.
    fn datatypes(&self) -> HashMap<String, String> {
        match self {
            Source::Static(pinned) => pinned.bag().meta().datatypes(),
            Source::Live(snap) => snap.datatypes(),
        }
    }

    /// The one k-way merge over `topics`, optionally time-bounded.
    fn stream(
        &self,
        topics: &[&str],
        range: Option<(Time, Time)>,
        ctx: &mut IoCtx,
    ) -> BoraResult<MessageStream<'_, S>> {
        match self {
            Source::Static(pinned) => pinned.bag().stream_topics_with_tails(
                topics,
                Vec::new(),
                range,
                Default::default(),
                ctx,
            ),
            Source::Live(snap) => snap.stream(topics, range, ctx),
        }
    }
}

/// Drain `stream` in batches of at most [`STREAM_CHUNK_MSGS`] messages,
/// handing each to `sink` (which empties it). The messages are still the
/// stream's shared slices — what to copy, and where to, is the sink's
/// business. Returns the message total, or `None` when `sink` reported
/// its receiver gone — the stream is aborted, and the virtual time
/// already spent is still folded into `ctx` so metrics stay honest.
fn scan<S: Storage>(
    mut stream: MessageStream<'_, S>,
    ctx: &mut IoCtx,
    sink: &mut dyn FnMut(&mut Vec<StreamMessage>, &mut IoCtx) -> bool,
) -> BoraResult<Option<u64>> {
    let mut batch: Vec<StreamMessage> = Vec::with_capacity(STREAM_CHUNK_MSGS);
    let mut total = 0u64;
    while let Some(msg) = stream.next_msg(ctx)? {
        batch.push(msg);
        total += 1;
        if batch.len() >= STREAM_CHUNK_MSGS && !sink(&mut batch, ctx) {
            stream.charge_into(ctx);
            return Ok(None);
        }
    }
    if !batch.is_empty() && !sink(&mut batch, ctx) {
        return Ok(None);
    }
    Ok(Some(total))
}

/// Run one data-plane op. Chunk frames of a streamed answer are sent on
/// `reply` as they are produced; the terminal (or only) frame is
/// *returned*, so the worker loop can record the op before any client
/// observes its completion. `None` means the receiver disappeared
/// mid-stream (client hung up) and there is nobody left to answer.
fn handle<S: Storage + Clone>(
    shared: &Shared<S>,
    req: &Request,
    reply: &Sender<Response>,
    ctx: &mut IoCtx,
) -> Option<Response> {
    let result = (|| -> BoraResult<Option<Response>> {
        Ok(Some(match req {
            // The three metadata ops describe a *committed* container, so
            // they go straight to the handle cache: a live root has nothing
            // committed to describe (it answers `NotAContainer`), and a
            // static one should not pay `Source::open`'s live-root probe.
            Request::Open { container }
            | Request::Meta { container }
            | Request::Stat { container } => {
                let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
                let meta = pinned.bag().meta();
                match req {
                    Request::Open { .. } => {
                        Response::Opened { stat: stat_of(meta), cached: pinned.was_hit }
                    }
                    Request::Meta { .. } => Response::Meta(meta.encode()),
                    _ => Response::Stat(stat_of(meta)),
                }
            }
            Request::Topics { container } => {
                Response::Topics(Source::open(shared, container, ctx)?.topics())
            }
            Request::Append { container, messages } => {
                let store = live_store(shared, container, ctx)?;
                for m in messages {
                    store.append(&m.topic, m.time, &m.data, ctx)?;
                }
                // The ack promises durability for the whole batch, so any
                // frames still parked in a group-commit buffer go down now.
                store.flush_wal(ctx)?;
                Response::Appended { appended: messages.len() as u64, epoch: store.epoch() }
            }
            Request::Seal { container, compact } => {
                let store = live_store(shared, container, ctx)?;
                store.seal(ctx)?;
                if *compact {
                    store.compact(ctx)?;
                }
                Response::Sealed {
                    epoch: store.epoch(),
                    sealed_segments: store.stat().sealed_batches as u32,
                }
            }
            Request::Read { container, topics, range } => {
                let source = Source::open(shared, container, ctx)?;
                let mut stream = source.stream(&strs(topics), *range, ctx)?;
                // One reply holds every message, so each is materialised
                // from the lent view as it passes; nothing is kept.
                let mut messages = Vec::with_capacity(stream.remaining() as usize);
                while let Some(m) = stream.lend(ctx)? {
                    messages.push(WireMessage::from(m.to_record()));
                }
                Response::Read(messages)
            }
            Request::ReadStream2 { container, topics, range } => {
                let source = Source::open(shared, container, ctx)?;
                let stream = source.stream(&strs(topics), *range, ctx)?;
                // Every chunk goes out as an LZ frame; the codec's raw
                // fallback covers incompressible batches. The payloads'
                // one copy — pool page to frame buffer — is counted like
                // any other materialisation.
                let sent = scan(stream, ctx, &mut |batch, ctx| {
                    bora_obs::counter("serve.stream_chunk_lz").inc();
                    bora_obs::counter("stream.bytes_copied")
                        .add(batch.iter().map(|m| m.payload().len() as u64).sum());
                    let frame =
                        chunk_frame(batch.iter().map(|m| (&*m.topic, m.time, m.payload())), ctx);
                    batch.clear();
                    reply.send(frame).is_ok()
                })?;
                match sent {
                    Some(messages) => Response::StreamEnd { messages },
                    None => return Ok(None),
                }
            }
            Request::Query { container, sql, partial } => {
                // A statement that fails to compile — or is found at fault
                // at execution time (partial mode on a non-aggregate
                // statement) — answers `BadQuery` with the caret rendering:
                // the client's mistake, the connection stays usable.
                // Storage failures mid-scan keep their wire categories (and
                // the eviction policy below), so retry layers treat a query
                // exactly like a read of the same container.
                return query(shared, container, sql, *partial, reply, ctx).or_else(|e| {
                    match e.into_storage() {
                        Ok(storage) => Err(storage),
                        Err(statement) => {
                            bora_obs::counter("serve.bad_query").inc();
                            Ok(Some(Response::Error {
                                code: ErrorCode::BadQuery,
                                message: statement.render_caret(sql),
                            }))
                        }
                    }
                });
            }
            Request::Stats
            | Request::Metrics
            | Request::Trace
            | Request::Ping
            | Request::Shutdown => {
                unreachable!("control ops are answered inline by submit_streamed_framed")
            }
        }))
    })();
    result.unwrap_or_else(|e| {
        // A checksum failure means the cached handle (and its quarantine
        // state) may be poisoned or the medium changed under us: evict so
        // the next request reopens and re-verifies from scratch instead
        // of serving from a suspect handle.
        if matches!(e, BoraError::ChecksumMismatch { .. })
            && req.container().is_some_and(|root| shared.cache.invalidate(root))
        {
            bora_obs::counter("serve.evict_checksum").inc();
        }
        Some(error_response(e))
    })
}

fn strs(topics: &[String]) -> Vec<&str> {
    topics.iter().map(String::as_str).collect()
}

/// Run a [`Request::Query`]: the schema frame and row chunks go out on
/// `reply` as the cursor yields, the terminal [`Response::QueryEnd`] is
/// returned. `EXPLAIN` renders the plan without executing; `EXPLAIN
/// ANALYZE` executes and streams rows like a plain query, then annotates
/// the plan with the observed operator counts in the terminal frame.
/// `None` means the client hung up mid-stream.
fn query<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    sql: &str,
    partial: bool,
    reply: &Sender<Response>,
    ctx: &mut IoCtx,
) -> bora_query::QueryResult<Option<Response>> {
    // Compile before touching storage.
    let p = bora_query::prepare(sql)?;
    let source = Source::open(shared, container, ctx)?;
    // FROM topics the source lacks are skipped (a fleet query runs over
    // heterogeneous containers).
    let held = source.topics();
    let topics: Vec<&str> =
        strs(&p.plan.scan.topics).into_iter().filter(|t| held.iter().any(|h| h == t)).collect();
    let stream = source.stream(&topics, p.scan_range(), ctx)?;
    let mut cur = p.cursor_stream(stream, source.datatypes(), partial, ctx)?;
    if reply.send(Response::QuerySchema(cur.columns())).is_err() {
        return Ok(None);
    }
    if p.explain_mode() == bora_query::ExplainMode::Plan {
        return Ok(Some(Response::QueryEnd {
            rows: 0,
            explain: bora_query::explain_text(&p, None),
        }));
    }
    let mut batch: Vec<bora_query::Row> = Vec::with_capacity(QUERY_CHUNK_ROWS);
    let mut total = 0u64;
    while let Some(row) = cur.next_row()? {
        total += 1;
        batch.push(row);
        if batch.len() >= QUERY_CHUNK_ROWS {
            let frame = Response::QueryChunk(bora_query::encode_rows(&batch));
            batch.clear();
            if reply.send(frame).is_err() {
                return Ok(None);
            }
        }
    }
    if !batch.is_empty()
        && reply.send(Response::QueryChunk(bora_query::encode_rows(&batch))).is_err()
    {
        return Ok(None);
    }
    let explain = match p.explain_mode() {
        bora_query::ExplainMode::Analyze => bora_query::explain_text(&p, Some(&cur.stats())),
        _ => String::new(),
    };
    Ok(Some(Response::QueryEnd { rows: total, explain }))
}

fn stat_of(meta: &bora::ContainerMeta) -> ContainerStat {
    ContainerStat {
        topics: meta.topics.len() as u32,
        messages: meta.message_count(),
        data_bytes: meta.data_bytes(),
        start: meta.start_time,
        end: meta.end_time,
    }
}

/// Map a [`BoraError`] to its wire-level category.
fn error_response(e: BoraError) -> Response {
    let code = match &e {
        BoraError::NotAContainer(_) => ErrorCode::NotAContainer,
        BoraError::UnknownTopic(_) => ErrorCode::UnknownTopic,
        BoraError::Corrupt(_) | BoraError::Wire(_) | BoraError::Bag(_) => ErrorCode::Corrupt,
        BoraError::ChecksumMismatch { .. } => ErrorCode::ChecksumMismatch,
        // A damaged topic in a degraded container needs repair, not a
        // retry: permanent from the client's point of view.
        BoraError::TopicDamaged(_) => ErrorCode::Corrupt,
        BoraError::Fs(_) => ErrorCode::Io,
    };
    Response::Error { code, message: e.to_string() }
}
