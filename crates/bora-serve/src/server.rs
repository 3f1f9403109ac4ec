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
//! whether to retry. The control-plane ops (`METRICS`, `PING`, `TRACE`,
//! `SHUTDOWN`) bypass the queue entirely, which is what makes an
//! overloaded server observable: you can always ask it how overloaded it
//! is. `STATS` is a view of that same scrape ([`Server::stats`],
//! `ServeClient::stats`), not an op of its own.
//!
//! Every read op reaches the one k-way merge the same way: a worker opens
//! a `Source` (a static container's pinned cache handle, or a live
//! root's MVCC snapshot — "a static container is a snapshot with empty
//! tails"), builds one `MessageStream` over it, and either `scan`s it
//! into chunk frames or hands it to a query cursor (`QUERY`). `READ` and
//! `READ_STREAM2` are one op on the wire's reply side: both are answered
//! by chunks and a `StreamEnd`, and differ only in the metrics key they
//! are counted under. A connection's chunks share one codec choice
//! (`ChunkCodec`), which the transport's serve loop holds.
//!
//! Workers register with a [`simfs::ConcurrencyGauge`], so on cost-model
//! backends each request's virtual I/O time reflects how many workers
//! were actually competing for the device when it ran.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bora::{BlockCodec, BoraError, BoraResult, BufferPool, MessageStream, StreamMessage};
use bora_ingest::{IngestStore, Snapshot};
use bora_obs::TraceContext;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use ros_msgs::Time;
use simfs::{ConcurrencyGauge, IoCtx, Storage};

use crate::cache::{HandleCache, PinnedBag};
use crate::metrics::{Metrics, Op, StatsSnapshot};
use crate::proto::{
    chunk_entry_len, chunk_frame, ContainerStat, ErrorCode, MetricsReport, PingInfo, Request,
    Response, SlowOpEntry, CHUNK_FRAME_BASE, MAX_FRAME_LEN, METRICS_REPORT_VERSION,
};

/// Messages a read's chunk ([`Response::StreamChunkLz`]) holds at least
/// before it closes. Small enough that the first result reaches the
/// client while the merge is still running.
const STREAM_CHUNK_MSGS: usize = 32;

/// Payload bytes a chunk holds at least before it closes: one stored
/// block. A frame costs a send and a receive whatever it carries, so a
/// chunk of small messages waits until it carries as much as one page.
const STREAM_CHUNK_BYTES: usize = bora::block::DEFAULT_BLOCK_SIZE as usize;

/// Rows per [`Response::QueryChunk`] frame. Query rows are a few scalar
/// cells each — far smaller than raw messages — so the batch can be
/// larger than [`STREAM_CHUNK_MSGS`] at the same framing overhead.
const QUERY_CHUNK_ROWS: usize = 64;

/// Bound of a streaming reply channel: how many frames the worker may run
/// ahead of the transport before it blocks. This is the server-side half
/// of end-to-end backpressure — a slow client throttles the merge instead
/// of buffering the whole result set in memory.
const STREAM_WINDOW: usize = 4;

/// The probe period of a warm-up round: every 4th chunk of the round
/// ships in the mode the stream is not shipping, so the round holds
/// [`MIN_PAIRS`] drained pairs ten chunks after it opens.
const WARM_UP_PROBE_EVERY: usize = 4;

/// Drained chunks of the shipped mode whose median wait the closed
/// codec watches: more than a hiccup, fewer than a link change lasts.
const WATCH_CHUNKS: usize = 16;

/// Chunks a stream's costs look back over: the watched chunks and the
/// window's undrained ones behind them. A link that changes speed has
/// turned the stream's choice within this many chunks.
const COST_SPAN: usize = 2 * WATCH_CHUNKS;

/// LZ counts as the cheaper mode only below this share of raw's cost.
/// An LZ chunk also spends CPU the worker's clock does not see — the
/// client's decode, and the drain it leaves a CPU-starved connection —
/// so at a near tie raw, which costs neither, ships.
const LZ_SHARE: f64 = 0.75;

/// Drained pairs the comparison needs before it decides: one pair is one
/// hiccup away from either answer.
const MIN_PAIRS: usize = 3;

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
        op: Op,
        reply: Sender<Response>,
        /// The chunk codec of the connection the request came in on.
        codec: Arc<Mutex<ChunkCodec>>,
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

/// A running bora-serve instance. Cheap to share via `Arc`; the serve
/// loop of every transport ([`crate::transport::serve_connection`])
/// hands it each decoded request.
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
        let queue_capacity = config.queue_capacity.max(1);
        let (tx, rx) = channel::bounded::<Job>(queue_capacity);
        let metrics = Metrics::new(queue_capacity);
        // One byte-budgeted pool for the whole process (sized by
        // `BORA_POOL_BYTES`): every handle the cache opens and every
        // ingest snapshot shares it, so total page memory has a single
        // knob regardless of how many containers are hot.
        let cache = HandleCache::in_registry(config.cache_capacity, metrics.registry())
            .with_pool(BufferPool::from_env());
        let shared = Arc::new(Shared {
            storage,
            cache,
            ingests: Mutex::new(HashMap::new()),
            metrics,
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
        Arc::new(Server { shared, tx, queue_capacity, workers: Mutex::new(workers) })
    }

    /// Handle one request to completion and return its terminal frame,
    /// the last of [`Server::submit_streamed`]'s: the only frame of a
    /// single-frame op, a read's `StreamEnd`, a query's `QueryEnd`, or the
    /// error that ended either. Chunk frames before it are dropped.
    pub fn submit(&self, req: Request) -> Response {
        let mut last = None;
        self.submit_streamed(req, &mut |resp| {
            last = Some(resp);
            true
        });
        last.expect("submit_streamed emits a terminal frame on every path")
    }

    /// Handle one request that arrived with no trace context and no
    /// deadline budget, on a link of its own — its chunks' codec starts
    /// fresh — delivering every response frame through `emit`, as the
    /// serve loop does. Returns `false` once `emit` does: the in-flight
    /// stream is then aborted server-side.
    pub fn submit_streamed(&self, req: Request, emit: &mut dyn FnMut(Response) -> bool) -> bool {
        let codec = Arc::new(Mutex::new(ChunkCodec::default()));
        self.submit_streamed_framed(req, None, None, &codec, emit)
    }

    /// Handle one request, delivering every response frame through `emit`
    /// — the one way into the server; a transport calls it once per
    /// decoded frame.
    ///
    /// Control-plane ops answer inline with one frame. Data ops go through
    /// the bounded queue (and may come back [`Response::Overloaded`]): a
    /// single-frame op emits one frame; a read (`READ` or `READ_STREAM2`)
    /// emits zero or more chunk frames and `QUERY` a schema frame and row
    /// chunks, each followed by a terminal frame (`StreamEnd`/`QueryEnd`
    /// on success, an error/overload response otherwise). The reply
    /// channel is bounded (`STREAM_WINDOW`): a transport that is slow to
    /// `emit` throttles the worker's merge loop.
    ///
    /// `codec` is the link's chunk codec: the serve loop keeps one per
    /// connection, because consecutive reads on it are consecutive chunks
    /// of one link.
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
    pub(crate) fn submit_streamed_framed(
        &self,
        req: Request,
        tctx: Option<TraceContext>,
        deadline_ns: Option<u64>,
        codec: &Arc<Mutex<ChunkCodec>>,
        emit: &mut dyn FnMut(Response) -> bool,
    ) -> bool {
        let Some(op) = req.op() else {
            return emit(match req {
                // METRICS answers inline: the telemetry poller must see an
                // overloaded node, not be shed by it.
                Request::Metrics => Response::Metrics(self.metrics_report()),
                // PING answers inline for the same reason: the health
                // tracker must hear from an overloaded server, and the
                // queue depth in the reply is the overload signal itself.
                Request::Ping => Response::Pong(self.ping()),
                // TRACE drains the process-wide span buffers; it answers
                // inline so a wedged pool can still be profiled. With
                // tracing disabled the document is just empty.
                Request::Trace => {
                    Response::Trace(bora_obs::chrome_trace(&bora_obs::drain(), bora_obs::dropped()))
                }
                Request::Shutdown => {
                    self.begin_shutdown();
                    Response::ShuttingDown
                }
                data_op => unreachable!("{data_op:?} has an op"),
            });
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
            op,
            reply: reply_tx,
            codec: Arc::clone(codec),
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
            // Read chunks and a query's schema / row-chunk frames precede
            // the terminal frame; every other response is one.
            let terminal = !matches!(
                resp,
                Response::StreamChunkLz(_) | Response::QuerySchema(_) | Response::QueryChunk(_)
            );
            let drain = matches!(resp, Response::StreamChunkLz(_)).then(Instant::now);
            if !emit(resp) {
                // Client is gone: dropping `reply_rx` makes the worker's
                // next send fail, aborting the stream and releasing its
                // cache pin.
                return false;
            }
            // A read chunk's drain is its write: the link's price for it.
            if let Some(started) = drain {
                codec.lock().drain(started.elapsed());
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

    /// Current summary, live queue depth and cache numbers included: the
    /// view of [`Server::metrics_report`] that `ServeClient::stats` reads
    /// over the wire.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::from(&self.metrics_report())
    }

    /// Versioned scrape payload (`METRICS`): the node's full metric
    /// registry, the queue's depth right now, plus its slow-op tail.
    pub fn metrics_report(&self) -> MetricsReport {
        let snap = self.shared.metrics.registry_snapshot(self.tx.len());
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

    /// Set (or update) a latency objective for `op`; see
    /// [`Metrics::set_slo_target`].
    pub fn set_slo_target(&self, op: Op, target: bora_obs::SloTarget) {
        self.shared.metrics.set_slo_target(op, target);
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
        let (req, op, reply, codec, submitted, tctx, submitted_ns, deadline_ns) = match job {
            Job::Poison => return,
            Job::Work { req, op, reply, codec, submitted, tctx, submitted_ns, deadline_ns } => {
                (req, op, reply, codec, submitted, tctx, submitted_ns, deadline_ns)
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
        let sp = bora_obs::span(op.span());
        // Chunk frames go out on `reply` as the merge yields; the
        // terminal (or only) frame is returned and sent below, *after*
        // the metrics record — so a client that has seen the op complete
        // is guaranteed to see it counted by a subsequent scrape.
        let resp = handle(shared, &req, &reply, &codec, &mut ctx);
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
                op: op.name().to_owned(),
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

/// Whether a read's open chunk — `msgs` messages of `payload` payload
/// bytes, in a reply frame of `frame` bytes — closes before a message
/// that adds `next` bytes to that frame joins it. It closes once it
/// holds [`STREAM_CHUNK_MSGS`] messages and [`STREAM_CHUNK_BYTES`] of
/// payload, and before `next` would take its frame past
/// [`MAX_FRAME_LEN`], which no peer accepts. An empty chunk never closes:
/// a message over the limit alone is a chunk of its own, which the serve
/// loop answers with the one permanent `BadRequest`.
fn chunk_closes(msgs: usize, payload: usize, frame: usize, next: usize) -> bool {
    msgs > 0
        && (msgs >= STREAM_CHUNK_MSGS && payload >= STREAM_CHUNK_BYTES
            || frame + next > MAX_FRAME_LEN as usize)
}

/// Drain `stream` in chunks, handing each to `sink` (which empties it):
/// the open chunk goes when [`chunk_closes`] before the next message, and
/// at the end. The messages are still the stream's shared slices — what
/// to copy, and where to, is the sink's business. Returns the message
/// total, or `None` when `sink` reported its receiver gone — the stream
/// is aborted, and the virtual time already spent is still folded into
/// `ctx` so metrics stay honest.
fn scan<S: Storage>(
    mut stream: MessageStream<'_, S>,
    ctx: &mut IoCtx,
    sink: &mut dyn FnMut(&mut Vec<StreamMessage>, &mut IoCtx) -> bool,
) -> BoraResult<Option<u64>> {
    let mut batch: Vec<StreamMessage> = Vec::with_capacity(STREAM_CHUNK_MSGS);
    let (mut payload, mut frame, mut total) = (0, CHUNK_FRAME_BASE, 0u64);
    while let Some(msg) = stream.next_msg(ctx)? {
        let len = chunk_entry_len(&msg.topic, msg.payload().len());
        if chunk_closes(batch.len(), payload, frame, len) {
            if !sink(&mut batch, ctx) {
                stream.charge_into(ctx);
                return Ok(None);
            }
            (payload, frame) = (0, CHUNK_FRAME_BASE);
        }
        (payload, frame) = (payload + msg.payload().len(), frame + len);
        batch.push(msg);
        total += 1;
    }
    if !batch.is_empty() && !sink(&mut batch, ctx) {
        return Ok(None);
    }
    Ok(Some(total))
}

/// The codec of each read chunk on one connection, raw or LZ, chosen
/// from what the connection's reads themselves measure: there is no
/// option, and no byte of a request, that asks for either. The serve loop
/// keeps one per connection ([`Server::submit_streamed`] makes a fresh one
/// per call), because consecutive reads on a connection are consecutive
/// chunks of one link: a connection pays at most one warm-up round (and
/// its re-opens), not one per short read.
///
/// A chunk's cost is nanoseconds per logical (payload) byte: the
/// worker's time building its frame plus the serve loop's time writing
/// it to the connection (its drain). The drain is timed where the frame
/// is written, so it is the link's price for that frame whether or not
/// any send of the worker waited for it: a lone raw probe's drain does
/// not hide in the slack a slow LZ encoder leaves the link.
///
/// What the worker waits for is the link's pressure on it. A send that
/// finds the window full blocks until the frame at the head of the
/// window drains — the one the connection is writing, sent
/// `STREAM_WINDOW + 1` frames earlier, behind the `STREAM_WINDOW` that
/// are queued — so its wait is charged to that frame; a send that does
/// not block charges it nothing. A read's last `STREAM_WINDOW + 1`
/// chunks are never waited for by a send of its own: when the next read
/// starts, they count as waited for with zero wait.
///
/// Raw ships, and nothing is probed, until the connection's first
/// blocked send: a window that never fills has nothing for LZ to save.
/// That send opens a warm-up round, in which every [`WARM_UP_PROBE_EVERY`]-th
/// chunk probes the mode not shipped. The modes are compared pair by
/// pair: two chunks sent back to back in different modes — a probe and
/// each of its neighbours — drain back to back, so a burst of load on
/// the host lands on both alike. Once [`MIN_PAIRS`] of the round's pairs
/// have drained, LZ ships if in most of them the LZ chunk cost under
/// [`LZ_SHARE`] of the raw one, raw otherwise, and probing closes. The
/// round also measures LZ's encode surcharge: the median, over its
/// pairs, of the LZ chunk's build cost less the raw one's.
///
/// While probing is closed the codec watches the shipped mode's median
/// wait over its last [`WATCH_CHUNKS`] waited-for chunks, and re-opens one
/// round when that wait crosses the surcharge: above it with raw shipped
/// (LZ could now pay), below it with LZ shipped (raw could now be
/// cheaper). A connection whose first block is chunk b's send probes
/// chunks b + 1, b + 5 and — unless three pairs have drained by then —
/// b + 9, and ships its choice from the next chunk on: on loopback and
/// the in-process transport, those probes are its only LZ chunks; behind
/// a slow link, every chunk after them is.
pub(crate) struct ChunkCodec {
    /// Chunks picked and recorded so far.
    chunks: usize,
    /// Chunks whose drain the serve loop has reported, oldest first.
    drains: usize,
    /// The first chunk of the read being sent; no send of it waits for an
    /// earlier one.
    read_start: usize,
    /// The last [`COST_SPAN`] chunks, at their index modulo the span.
    recent: [SentChunk; COST_SPAN],
    /// The mode every chunk but a round's probes ships in.
    shipped: BlockCodec,
    probing: Probing,
}

impl Default for ChunkCodec {
    fn default() -> Self {
        ChunkCodec {
            chunks: 0,
            drains: 0,
            read_start: 0,
            recent: [SentChunk::default(); COST_SPAN],
            shipped: BlockCodec::None,
            probing: Probing::Unblocked,
        }
    }
}

#[derive(Clone, Copy)]
enum Probing {
    /// No send on the connection has blocked yet.
    Unblocked,
    /// A warm-up round is open; it opened at chunk `start`.
    Round { start: usize },
    /// The round that decided closed at chunk `since`, having measured
    /// LZ's encode surcharge at `surcharge` ns per logical byte.
    Closed { since: usize, surcharge: f64 },
}

#[derive(Default, Clone, Copy)]
struct SentChunk {
    codec: BlockCodec,
    /// Logical bytes.
    bytes: u64,
    build_ns: u64,
    /// The serve loop's time writing it, once reported.
    drain_ns: u64,
    /// The wait charged to it once a send waited for it.
    wait_ns: u64,
}

impl SentChunk {
    fn per_byte(&self, ns: u64) -> f64 {
        ns as f64 / self.bytes.max(1) as f64
    }

    fn cost(&self) -> f64 {
        self.per_byte(self.build_ns + self.drain_ns)
    }
}

impl ChunkCodec {
    /// A new read starts on the connection: the chunks of the last one
    /// count as waited for.
    fn start_read(&mut self) {
        self.read_start = self.chunks;
    }

    fn pick(&self) -> BlockCodec {
        match self.probing {
            // A probe ships the mode that is not shipped.
            Probing::Round { start }
                if (self.chunks - start).is_multiple_of(WARM_UP_PROBE_EVERY) =>
            {
                match self.shipped {
                    BlockCodec::Lzss => BlockCodec::None,
                    BlockCodec::None => BlockCodec::Lzss,
                }
            }
            _ => self.shipped,
        }
    }

    /// Account the chunk about to be sent: `bytes` logical bytes as
    /// `codec`, built in `build`. It is recorded before it is sent, since
    /// the serve loop may write it, and report its drain, at once.
    fn record(&mut self, codec: BlockCodec, bytes: u64, build: Duration) {
        let build_ns = build.as_nanos() as u64;
        let chunk = SentChunk { codec, bytes, build_ns, drain_ns: 0, wait_ns: 0 };
        self.recent[self.chunks % COST_SPAN] = chunk;
        self.chunks += 1;
    }

    /// The serve loop wrote the oldest chunk not yet drained, in `drain`.
    fn drain(&mut self, drain: Duration) {
        debug_assert!(self.drains < self.chunks, "a chunk drained before it was recorded");
        self.recent[self.drains % COST_SPAN].drain_ns = drain.as_nanos() as u64;
        self.drains += 1;
    }

    /// The last recorded chunk was sent; `wait` is how long its send
    /// blocked on a full window, `None` if it did not block. Returns
    /// whether this re-opened probing.
    fn sent(&mut self, wait: Option<Duration>) -> bool {
        let k = self.chunks - 1;
        if let Some(head) = k.checked_sub(STREAM_WINDOW + 1).filter(|&h| h >= self.read_start) {
            self.recent[head % COST_SPAN].wait_ns = wait.map_or(0, |w| w.as_nanos() as u64);
        }
        let open = match self.probing {
            Probing::Unblocked => wait.is_some(),
            Probing::Round { start } => {
                if let Some((lz_cheaper, surcharge)) = self.verdict(start) {
                    self.shipped = if lz_cheaper { BlockCodec::Lzss } else { BlockCodec::None };
                    self.probing = Probing::Closed { since: self.chunks, surcharge };
                }
                false
            }
            Probing::Closed { since, surcharge } => self.watched_wait(since).is_some_and(|wait| {
                if self.shipped == BlockCodec::Lzss {
                    wait < surcharge
                } else {
                    wait > surcharge
                }
            }),
        };
        let reopen = open && matches!(self.probing, Probing::Closed { .. });
        if open {
            self.probing = Probing::Round { start: self.chunks };
        }
        reopen
    }

    /// The verdict of the round opened at chunk `start`, once
    /// [`MIN_PAIRS`] of its pairs — adjacent chunks sent in different
    /// modes, the chunk before the round included — have drained: whether
    /// LZ cost under [`LZ_SHARE`] of raw in most of them, and LZ's
    /// median build surcharge over raw, in ns per logical byte. A round
    /// decides ten chunks after it opens, well within the span.
    fn verdict(&self, start: usize) -> Option<(bool, f64)> {
        let mut surcharges = Vec::new();
        let mut lz_wins = 0;
        for k in start..self.drains {
            let (a, b) = (self.recent[(k - 1) % COST_SPAN], self.recent[k % COST_SPAN]);
            if a.codec == b.codec {
                continue;
            }
            let (lz, raw) = if a.codec == BlockCodec::Lzss { (a, b) } else { (b, a) };
            lz_wins += usize::from(lz.cost() < raw.cost() * LZ_SHARE);
            surcharges.push(lz.per_byte(lz.build_ns) - raw.per_byte(raw.build_ns));
        }
        if surcharges.len() < MIN_PAIRS {
            return None;
        }
        let pairs = surcharges.len();
        surcharges.sort_by(f64::total_cmp);
        Some((2 * lz_wins > pairs, surcharges[pairs / 2].max(0.0)))
    }

    /// The median wait per logical byte of the last [`WATCH_CHUNKS`]
    /// waited-for chunks — all but the current read's last
    /// `STREAM_WINDOW + 1`, whose sends have not yet waited for them —
    /// every one sent since chunk `since`; `None` until that many have
    /// been waited for.
    fn watched_wait(&self, since: usize) -> Option<f64> {
        let waited = self.chunks.saturating_sub(STREAM_WINDOW + 1).max(self.read_start);
        let first = waited.checked_sub(WATCH_CHUNKS).filter(|&first| first >= since)?;
        let mut waits: [f64; WATCH_CHUNKS] = std::array::from_fn(|i| {
            let chunk = &self.recent[(first + i) % COST_SPAN];
            chunk.per_byte(chunk.wait_ns)
        });
        waits.sort_by(f64::total_cmp);
        Some(waits[WATCH_CHUNKS / 2])
    }
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
    codec: &Mutex<ChunkCodec>,
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
                let batch = messages.iter().map(|m| (m.topic.as_str(), m.time, &m.data[..]));
                store.append_batch(batch, ctx)?;
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
            Request::Read { container, topics, range }
            | Request::ReadStream2 { container, topics, range } => {
                let source = Source::open(shared, container, ctx)?;
                let stream = source.stream(&strs(topics), *range, ctx)?;
                // Each chunk is one block frame, LZ-coded or raw as this
                // connection's own measurements pick. The payloads' one
                // copy — pool page to frame buffer — is counted like any
                // other materialisation.
                codec.lock().start_read();
                let sent = scan(stream, ctx, &mut |batch, ctx| {
                    let bytes = batch.iter().map(|m| m.payload().len() as u64).sum();
                    bora_obs::counter("stream.bytes_copied").add(bytes);
                    let mode = codec.lock().pick();
                    if mode == BlockCodec::Lzss {
                        bora_obs::counter("serve.stream_chunk_lz").inc();
                    }
                    let started = Instant::now();
                    let frame = chunk_frame(
                        batch.iter().map(|m| (&*m.topic, m.time, m.payload())),
                        mode,
                        ctx,
                    );
                    batch.clear();
                    let built = Instant::now();
                    codec.lock().record(mode, bytes, built - started);
                    // Only a send that finds the window full waits, and
                    // only its wait is charged. The codec is not held
                    // while it waits: the serve loop reports drains to it.
                    let (sent, wait) = match reply.try_send(frame) {
                        Ok(()) => (true, None),
                        Err(TrySendError::Full(frame)) => {
                            (reply.send(frame).is_ok(), Some(built.elapsed()))
                        }
                        Err(TrySendError::Disconnected(_)) => (false, None),
                    };
                    if codec.lock().sent(wait) {
                        shared.metrics.record_codec_reopen();
                    }
                    sent
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
            Request::Metrics | Request::Trace | Request::Ping | Request::Shutdown => {
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
    // Count block decodes from before the stream's first fill.
    let mark = bora_query::ExecMark::now();
    let stream = source.stream(&topics, p.scan_range(), ctx)?;
    let mut cur = p.cursor_stream(stream, source.datatypes(), partial, ctx)?.since(mark);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// What a codec did over one stream: the chunks it LZ-coded, the
    /// mode it shipped outside the probes when it picked each chunk, and
    /// the rounds it re-opened.
    struct Trace {
        lz: Vec<usize>,
        shipped: Vec<BlockCodec>,
        reopens: usize,
    }

    /// Drive a codec whose chunk `k`, sent as `codec`, costs
    /// `cost(k, codec)` = (build, drain) ns per byte. A send waits for the
    /// frame at the window's head to drain, and it blocks if that wait is
    /// not 0; the serve loop reports that drain as the send unblocks.
    fn drive(chunks: usize, cost: impl Fn(usize, BlockCodec) -> (u64, u64)) -> Trace {
        drive_reads(&[chunks], cost)
    }

    /// [`drive`] over consecutive reads of `reads[i]` chunks on one
    /// connection. Each read has a window of its own, so no send waits
    /// for an earlier read's frame; the serve loop writes a read's last
    /// chunks before the next read starts.
    fn drive_reads(reads: &[usize], cost: impl Fn(usize, BlockCodec) -> (u64, u64)) -> Trace {
        let mut codec = ChunkCodec::default();
        let mut sent: Vec<BlockCodec> = Vec::new();
        let mut trace = Trace { lz: Vec::new(), shipped: Vec::new(), reopens: 0 };
        let ns = |n: u64| Duration::from_nanos(n * 1000);
        let mut start = 0;
        for &n in reads {
            codec.start_read();
            for k in start..start + n {
                let mode = codec.pick();
                trace.shipped.push(codec.shipped);
                codec.record(mode, 1000, ns(cost(k, mode).0));
                sent.push(mode);
                let head = k.checked_sub(STREAM_WINDOW + 1).filter(|&h| h >= start);
                let wait = head.map_or(0, |h| cost(h, sent[h]).1);
                if let Some(h) = head {
                    codec.drain(ns(cost(h, sent[h]).1));
                }
                if codec.sent((wait > 0).then(|| ns(wait))) {
                    trace.reopens += 1;
                }
            }
            let end = start + n;
            let undrained = end.saturating_sub(STREAM_WINDOW + 1).max(start);
            for (h, &mode) in sent.iter().enumerate().skip(undrained) {
                codec.drain(ns(cost(h, mode).1));
            }
            start = end;
        }
        trace.lz = (0..sent.len()).filter(|&k| sent[k] == BlockCodec::Lzss).collect();
        trace
    }

    /// LZ builds at 20 ns/B and drains in 5; raw costs 1 + 1.
    fn fast(_: usize, codec: BlockCodec) -> (u64, u64) {
        if codec == BlockCodec::Lzss {
            (20, 5)
        } else {
            (1, 1)
        }
    }

    /// Draining costs 500 ns/B raw, a quarter of that LZ-coded.
    fn slow(_: usize, codec: BlockCodec) -> (u64, u64) {
        if codec == BlockCodec::Lzss {
            (20, 125)
        } else {
            (1, 500)
        }
    }

    /// The warm-up round of a stream whose first blocked send is chunk 5's,
    /// the first with a frame at the window's head.
    const ROUND: [usize; 3] = [6, 10, 14];

    #[test]
    fn a_stream_that_never_blocks_ships_no_lz_chunk() {
        for n in [1, 5, 6, 200, 1817] {
            let trace = drive(n, |k, c| (fast(k, c).0, 0));
            assert_eq!(trace.lz, [], "{n}");
        }
    }

    #[test]
    fn a_fast_link_gets_lz_on_the_probes_alone() {
        for n in [15, 200, 1817] {
            let trace = drive(n, fast);
            assert_eq!(trace.lz, ROUND, "{n}");
            assert_eq!(trace.reopens, 0, "{n}");
        }
        // A stream that ends mid-round has shipped the probes so far.
        assert_eq!(drive(6, fast).lz, []);
        assert_eq!(drive(11, fast).lz, [6, 10]);
    }

    #[test]
    fn a_slow_link_turns_the_stream_to_lz_and_ships_no_raw_chunk() {
        let trace = drive(200, slow);
        // The round's three pairs have drained with chunk 15's send.
        let lz: Vec<usize> = ROUND.into_iter().chain(16..200).collect();
        assert_eq!(trace.lz, lz);
        assert_eq!(trace.reopens, 0);
    }

    #[test]
    fn a_hiccup_or_a_burst_of_load_moves_no_choice() {
        // A raw chunk beside a probe and a probe stall for 4 ms each while
        // the round is open, and a drain stalls for 4 ms once it closed.
        let hiccup = |k, c| match (k, fast(k, c)) {
            (7 | 10, (_, drain)) => (4000, drain),
            (40, (build, _)) => (build, 4000),
            (_, cost) => cost,
        };
        let trace = drive(200, hiccup);
        assert_eq!(trace.lz, ROUND);
        assert_eq!(trace.reopens, 0);
        // Every chunk from 40 on, for 30 and for 60 chunks, waits 50x its
        // cost: both modes alike. The watch may re-open a round, but each
        // round keeps raw, and only its probes go LZ-coded.
        for end in [70, 100] {
            let burst = |k, c| {
                let (build, drain) = fast(k, c);
                if (40..end).contains(&k) {
                    (build, 50 * (build + drain))
                } else {
                    (build, drain)
                }
            };
            let trace = drive(300, burst);
            assert!(trace.shipped.iter().all(|&m| m == BlockCodec::None), "burst to {end}");
            assert_eq!(trace.lz.len(), ROUND.len() * (1 + trace.reopens), "burst to {end}");
            assert!(trace.lz.iter().all(|&k| k < end + COST_SPAN), "burst to {end}");
        }
    }

    #[test]
    fn a_link_that_speeds_up_turns_the_stream_back_to_raw() {
        let trace = drive(240, |k, c| if k < 60 { slow(k, c) } else { fast(k, c) });
        assert_eq!(trace.reopens, 1);
        // Within a span of the change, raw ships.
        assert!(trace.lz.iter().all(|&k| k < 60 + COST_SPAN), "{:?}", trace.lz);
        assert_eq!(trace.shipped[239], BlockCodec::None);
    }

    #[test]
    fn a_link_that_slows_down_turns_the_stream_to_lz() {
        let trace = drive(240, |k, c| if k < 60 { fast(k, c) } else { slow(k, c) });
        assert_eq!(trace.reopens, 1);
        // Within a span of the change, LZ ships.
        let tail: Vec<usize> = (60 + COST_SPAN..240).collect();
        assert_eq!(trace.lz[trace.lz.len() - tail.len()..], tail);
    }

    #[test]
    fn a_connections_next_read_keeps_the_choice_its_reads_made() {
        // Behind a slow link the first read turns to LZ; the next ships
        // LZ from its first chunk, with no round of its own.
        let trace = drive_reads(&[20, 20], slow);
        let lz: Vec<usize> = ROUND.into_iter().chain(16..40).collect();
        assert_eq!(trace.lz, lz);
        assert_eq!(trace.reopens, 0);
        // On a fast link the round closes raw, and the next read ships no
        // LZ chunk.
        let trace = drive_reads(&[20, 20], fast);
        assert_eq!(trace.lz, ROUND);
        assert_eq!(trace.reopens, 0);
        // Reads too short for a send to wait on one of their own frames
        // never block, so they never probe — however slow the link.
        assert_eq!(drive_reads(&[STREAM_WINDOW + 1; 40], slow).lz, []);
    }

    #[test]
    fn a_chunk_closes_at_its_floor_or_before_the_frame_limit() {
        let (max, floor, base) = (MAX_FRAME_LEN as usize, STREAM_CHUNK_BYTES, CHUNK_FRAME_BASE);
        let imu = chunk_entry_len("/imu", 316);
        // The floor takes both: 32 messages, and one stored block.
        assert!(!chunk_closes(31, 10 * floor, base + 10 * floor, imu));
        assert!(!chunk_closes(STREAM_CHUNK_MSGS, floor - 1, base + floor, imu));
        assert!(chunk_closes(STREAM_CHUNK_MSGS, floor, base + floor + 32 * 18, 0));
        assert!(!chunk_closes(4000, floor - 1, base + floor + 4000 * 18, 0));
        // The ceiling: a message that would take the frame one byte past
        // the limit opens the next chunk.
        assert!(!chunk_closes(3, 900, max - 1000, 1000));
        assert!(chunk_closes(3, 900, max - 1000, 1001));
        // 4K rgb8 images, 24.9 MB each: ten fit a frame, the 11th closes
        // the chunk first — 32 of them would be 796 MB.
        let image = chunk_entry_len("/cam", 3840 * 2160 * 3);
        assert!(!chunk_closes(10, 0, base + 9 * image, image));
        assert!(chunk_closes(10, 0, base + 10 * image, image));
        // An empty chunk never closes: a message over the limit alone is a
        // chunk of its own, which closes before the next message.
        assert!(!chunk_closes(0, 0, base, max));
        assert!(chunk_closes(1, max, base + chunk_entry_len("/cam", max), imu));
    }
}
