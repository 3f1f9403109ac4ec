//! [`ServeClient`]: typed request/response wrapper over any
//! [`Connection`]. One outstanding request at a time per client (the
//! protocol is strictly request/response); open more connections for
//! parallelism.
//!
//! [`RetryClient`] wraps the same API with fault tolerance: per-request
//! timeouts, automatic reconnect when the stream breaks or
//! desynchronizes, and capped exponential backoff with deterministic
//! jitter for transient errors. Permanent errors (unknown topic, not a
//! container, structural corruption, bad request) surface immediately —
//! retrying them would only hide a bug.

use std::borrow::BorrowMut;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use ros_msgs::Time;

use crate::metrics::StatsSnapshot;
use crate::proto::{
    ContainerStat, ErrorCode, MetricsReport, PingInfo, ProtoError, Request, Response, WireMessage,
};
use crate::transport::{Connection, Transport};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport broke (peer gone, socket error).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode, or a response of the
    /// wrong kind for the request.
    Proto(ProtoError),
    /// The server answered with a protocol-level error.
    Server { code: ErrorCode, message: String },
    /// The server shed the request under load; retrying later is safe
    /// (no side effects happened).
    Overloaded,
    /// The caller's total wall-clock deadline expired before the request
    /// succeeded. Terminal: the budget is spent, so no retry layer
    /// (including failover) should try again on the same budget.
    DeadlineExceeded {
        /// The configured total budget.
        deadline: Duration,
        /// Wall-clock elapsed when the client gave up.
        elapsed: Duration,
        /// Rendering of the last underlying failure, if any attempt ran.
        last_error: String,
    },
    /// A `READ_STREAM2` answer's chunks held `received` messages where its
    /// `StreamEnd` counts `sent`: a chunk was lost or repeated on the way.
    /// Every chunk carries the request's seq, so nothing else notices.
    /// Retrying the whole read is safe; resuming it is not, since the
    /// messages already handed out cannot be taken back.
    StreamCount { received: u64, sent: u64 },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Overloaded => write!(f, "server overloaded"),
            ClientError::DeadlineExceeded { deadline, elapsed, last_error } => write!(
                f,
                "deadline {deadline:?} exceeded after {elapsed:?} (last error: {last_error})"
            ),
            ClientError::StreamCount { received, sent } => {
                write!(f, "stream delivered {received} messages but the server sent {sent}")
            }
        }
    }
}

impl ClientError {
    /// Whether retrying the request may succeed without operator
    /// intervention. Transport failures and timeouts may heal on a fresh
    /// connection; `Overloaded` explicitly invites a retry; server errors
    /// defer to [`ErrorCode::is_transient`]. Protocol decode failures are
    /// treated as transient because their dominant cause is a
    /// desynchronized stream (e.g. a late response landing after a
    /// timeout), which reconnecting fixes.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Proto(_)
            | ClientError::Overloaded
            | ClientError::StreamCount { .. } => true,
            ClientError::Server { code, .. } => code.is_transient(),
            // The wall-clock budget is spent; retrying cannot un-spend it.
            ClientError::DeadlineExceeded { .. } => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

/// A connected bora-serve client.
pub struct ServeClient<C: Connection> {
    conn: C,
    /// Budget stamped into each outgoing request's header; `None` sends
    /// no deadline.
    deadline: Option<Duration>,
    /// Seq of the most recent request on this connection. The server
    /// echoes it on each frame of its answer, so a stale frame — a
    /// duplicate or reordered leftover from an earlier request — is
    /// discarded instead of being mistaken for the current response (or
    /// worse, an append ack).
    seq: u32,
}

impl<C: Connection> ServeClient<C> {
    pub fn new(conn: C) -> Self {
        ServeClient { conn, deadline: None, seq: 0 }
    }

    /// Connect through a transport.
    pub fn connect<T: Transport<Conn = C>>(transport: &T) -> ClientResult<Self> {
        Ok(ServeClient::new(transport.connect()?))
    }

    /// Set the deadline budget stamped on every subsequent request. The
    /// server sheds a request whose budget was already spent in its
    /// queue, answering [`ErrorCode::DeadlineExceeded`] instead of doing
    /// dead work. `None` (the default) sends no deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Bound how long transport calls may block
    /// ([`Connection::set_timeout`]).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.set_timeout(timeout)
    }

    // The one exchange every op is a form of: `send` a request under the
    // next seq, then `recv` its answer frames — one for most ops, several
    // for a stream or a query.

    /// Stamp `req` with the next seq, the caller's open span (server-side
    /// spans parent under it) and the deadline budget, and send it. A
    /// request the wire cannot carry fails here, before any byte is sent.
    fn send(&mut self, req: &Request) -> ClientResult<()> {
        self.seq = self.seq.wrapping_add(1);
        let deadline_ns = self.deadline.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let frame = req
            .encode_seq(self.seq, bora_obs::current_context(), deadline_ns)
            .map_err(ClientError::Proto)?;
        Ok(self.conn.send_frame(&[&frame])?)
    }

    /// Hand `read` the body (after its seq) of the next frame answering
    /// the request in flight, where it lies in the received buffer. Stale
    /// frames (leftovers of an earlier request that the network
    /// duplicated or reordered) are discarded; a frame without a seq is
    /// an error, never the answer.
    fn recv_with<T>(&mut self, read: impl FnOnce(&[u8]) -> ClientResult<T>) -> ClientResult<T> {
        loop {
            let frame = self.conn.recv_frame()?;
            let (seq, body) = crate::proto::split_seq(&frame).map_err(ClientError::Proto)?;
            if seq == self.seq {
                return read(body);
            }
        }
    }

    /// The next response answering the request in flight, with its size
    /// on the wire after the seq.
    fn recv(&mut self) -> ClientResult<(Response, usize)> {
        self.recv_with(|body| Ok((answer(Response::decode(body))?, body.len())))
    }

    fn roundtrip(&mut self, req: &Request) -> ClientResult<Response> {
        self.send(req)?;
        Ok(self.recv()?.0)
    }

    /// Pull a container into the server's handle cache; `cached` in the
    /// result tells whether it was already there.
    pub fn open(&mut self, container: &str) -> ClientResult<(ContainerStat, bool)> {
        match self.roundtrip(&Request::Open { container: container.into() })? {
            Response::Opened { stat, cached } => Ok((stat, cached)),
            other => Err(unexpected("OPEN", &other)),
        }
    }

    pub fn topics(&mut self, container: &str) -> ClientResult<Vec<String>> {
        match self.roundtrip(&Request::Topics { container: container.into() })? {
            Response::Topics(t) => Ok(t),
            other => Err(unexpected("TOPICS", &other)),
        }
    }

    /// The container's raw metadata; decode with
    /// [`bora::ContainerMeta::decode`].
    pub fn meta(&mut self, container: &str) -> ClientResult<Vec<u8>> {
        match self.roundtrip(&Request::Meta { container: container.into() })? {
            Response::Meta(bytes) => Ok(bytes),
            other => Err(unexpected("META", &other)),
        }
    }

    pub fn read(&mut self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, None)
    }

    pub fn read_time(
        &mut self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, Some((start, end)))
    }

    fn read_inner(
        &mut self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Vec<WireMessage>> {
        let req = Request::Read {
            container: container.into(),
            topics: topics.iter().map(|t| (*t).to_owned()).collect(),
            range,
        };
        match self.roundtrip(&req)? {
            Response::Read(messages) => Ok(messages),
            other => Err(unexpected("READ", &other)),
        }
    }

    /// Issue a `READ_STREAM2` and iterate messages as chunk frames arrive,
    /// instead of waiting for the full result set like [`ServeClient::read`].
    ///
    /// The iterator borrows the client exclusively (the protocol allows
    /// one request in flight per connection). Dropping it mid-stream
    /// drains the remaining frames so the connection stays
    /// request/response aligned.
    pub fn read_stream(
        &mut self,
        container: &str,
        topics: &[&str],
    ) -> ClientResult<ReadStream<C, &mut Self>> {
        ReadStream::open(self, container, topics, None)
    }

    /// Time-ranged variant of [`ServeClient::read_stream`].
    pub fn read_stream_time(
        &mut self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<ReadStream<C, &mut Self>> {
        ReadStream::open(self, container, topics, Some((start, end)))
    }

    /// Execute a `bora-query` statement server-side and collect the
    /// streamed answer. Rows arrive in chunk frames as the server's
    /// cursor yields, so first results do not wait for the full scan;
    /// `EXPLAIN` / `EXPLAIN ANALYZE` statements return the rendered
    /// plan in [`QueryReply::explain`]. A malformed statement fails
    /// with [`ErrorCode::BadQuery`] carrying a caret-annotated message,
    /// and the connection stays usable.
    pub fn query(&mut self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.query_inner(container, sql, false)
    }

    /// Distributed fragment mode: ask for flattened partial-aggregate
    /// rows (`bora_query::partial_columns` shape) instead of final
    /// values, for merging router-side with `bora_query::merge_partials`.
    /// Fails with [`ErrorCode::BadQuery`] for non-aggregate statements.
    pub fn query_partial(&mut self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.query_inner(container, sql, true)
    }

    fn query_inner(
        &mut self,
        container: &str,
        sql: &str,
        partial: bool,
    ) -> ClientResult<QueryReply> {
        self.send(&Request::Query { container: container.into(), sql: sql.into(), partial })?;
        let mut reply = QueryReply::default();
        loop {
            let (resp, wire_bytes) = self.recv()?;
            reply.wire_bytes += wire_bytes as u64;
            match resp {
                Response::QuerySchema(cols) => reply.columns = cols,
                Response::QueryChunk(blob) => {
                    let rows = bora_query::decode_rows(&blob)
                        .map_err(|e| ClientError::Proto(ProtoError(e.to_string())))?;
                    reply.rows.extend(rows);
                }
                Response::QueryEnd { rows, explain } => {
                    reply.rows_total = rows;
                    reply.explain = explain;
                    return Ok(reply);
                }
                other => return Err(unexpected("QUERY", &other)),
            }
        }
    }

    /// Append a batch of live messages to an ingest root. The ack means
    /// every message in the batch is durable (WAL-committed) on the
    /// server; returns `(appended, epoch)`. Not idempotent — a retry
    /// after an ambiguous failure may duplicate the batch, which is why
    /// [`RetryClient`] does not wrap it.
    pub fn append(
        &mut self,
        container: &str,
        messages: Vec<WireMessage>,
    ) -> ClientResult<(u64, u64)> {
        match self.roundtrip(&Request::Append { container: container.into(), messages })? {
            Response::Appended { appended, epoch } => Ok((appended, epoch)),
            other => Err(unexpected("APPEND", &other)),
        }
    }

    /// Seal the ingest root's memtable (and compact if asked); returns
    /// `(epoch, sealed_segments_pending)`.
    pub fn seal(&mut self, container: &str, compact: bool) -> ClientResult<(u64, u32)> {
        match self.roundtrip(&Request::Seal { container: container.into(), compact })? {
            Response::Sealed { epoch, sealed_segments } => Ok((epoch, sealed_segments)),
            other => Err(unexpected("SEAL", &other)),
        }
    }

    pub fn stat(&mut self, container: &str) -> ClientResult<ContainerStat> {
        match self.roundtrip(&Request::Stat { container: container.into() })? {
            Response::Stat(s) => Ok(s),
            other => Err(unexpected("STAT", &other)),
        }
    }

    /// Server-wide summary (`STATS`): a [`ServeClient::metrics`] scrape,
    /// projected.
    pub fn stats(&mut self) -> ClientResult<StatsSnapshot> {
        self.metrics().map(|r| StatsSnapshot::from(&r))
    }

    /// Health probe: server id, uptime, live queue depth. Control-plane,
    /// so it answers even when the data queue is saturated.
    pub fn ping(&mut self) -> ClientResult<PingInfo> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong(p) => Ok(p),
            other => Err(unexpected("PING", &other)),
        }
    }

    /// Full metrics scrape: the node's registry (counters, gauges,
    /// bucketed histograms) plus its slow-op tail. Control-plane, so a
    /// saturated node still answers.
    pub fn metrics(&mut self) -> ClientResult<MetricsReport> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(r) => Ok(r),
            other => Err(unexpected("METRICS", &other)),
        }
    }

    /// Drain the server's span buffers as a Chrome `trace_event` JSON
    /// document (empty unless the server runs with `BORA_TRACE=1`).
    pub fn trace(&mut self) -> ClientResult<String> {
        match self.roundtrip(&Request::Trace)? {
            Response::Trace(json) => Ok(json),
            other => Err(unexpected("TRACE", &other)),
        }
    }

    /// Ask the server to shut down. The connection is unusable afterwards.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("SHUTDOWN", &other)),
        }
    }
}

/// A decoded response as its caller sees it: the server's error and
/// overload frames become their [`ClientError`]s.
fn answer(decoded: Result<Response, ProtoError>) -> ClientResult<Response> {
    match decoded.map_err(ClientError::Proto)? {
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        Response::Overloaded => Err(ClientError::Overloaded),
        resp => Ok(resp),
    }
}

fn unexpected(op: &str, resp: &Response) -> ClientError {
    ClientError::Proto(ProtoError(format!("unexpected response to {op}: {resp:?}")))
}

/// Collected answer to one `QUERY`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReply {
    /// Result column names (partial mode has its own `__`-prefixed shape).
    pub columns: Vec<String>,
    /// Decoded result rows, in server order.
    pub rows: Vec<bora_query::Row>,
    /// Rows the server's cursor produced. Equals `rows.len()` except for
    /// plain `EXPLAIN`, which executes nothing and reports 0.
    pub rows_total: u64,
    /// Rendered plan for `EXPLAIN` / `EXPLAIN ANALYZE`, empty otherwise.
    pub explain: String,
    /// Total response payload bytes this query's frames carried.
    pub wire_bytes: u64,
}

// ----------------------------------------------------------------- stream

/// An in-flight `READ_STREAM2`: yields messages as the server's merge
/// produces them. Created by [`ServeClient::read_stream`], which lends it
/// the client, or by [`ReadStream::open`] over a client it owns.
///
/// The first error is terminal — after yielding `Err` the iterator is
/// exhausted. On drop, any frames still owed by the server are drained
/// (and discarded): the next request on this connection does not have to
/// wade through them, and the worker producing them is not left blocked
/// on a client that stopped reading.
pub struct ReadStream<C: Connection, B: BorrowMut<ServeClient<C>>> {
    client: B,
    buffer: std::collections::VecDeque<WireMessage>,
    done: bool,
    received: u64,
    /// Messages decoded from chunks so far, checked against `StreamEnd`.
    decoded: u64,
    _conn: PhantomData<C>,
}

impl<C: Connection, B: BorrowMut<ServeClient<C>>> ReadStream<C, B> {
    /// Send the stream request on `client` (no response is read here —
    /// the iterator pulls the answer frames).
    pub fn open(
        mut client: B,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Self> {
        client.borrow_mut().send(&Request::ReadStream2 {
            container: container.into(),
            topics: topics.iter().map(|t| (*t).to_owned()).collect(),
            range,
        })?;
        Ok(ReadStream {
            client,
            buffer: std::collections::VecDeque::new(),
            done: false,
            received: 0,
            decoded: 0,
            _conn: PhantomData,
        })
    }

    /// Messages yielded so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Drop the stream without draining it, for an owner that drops the
    /// client with it: closing the connection is what stops the server.
    pub fn abandon(mut self) {
        self.done = true;
    }

    /// Pull the next frame off the connection into `buffer`. A chunk frame
    /// is decoded where it lies in the received buffer
    /// ([`crate::proto::stream_chunk`]), so its messages are the one copy
    /// of its bytes. Only a chunk keeps the stream open: `StreamEnd`, an
    /// error or overload frame, an undecodable frame and a transport
    /// failure (the connection is desynchronized then — nothing left to
    /// drain) all flip `done`. A `StreamEnd` whose count is not the
    /// messages decoded is [`ClientError::StreamCount`].
    fn fetch(&mut self) -> ClientResult<()> {
        let decoded = self.decoded;
        let chunk = self.client.borrow_mut().recv_with(|body| {
            if let Some(msgs) = crate::proto::stream_chunk(body).map_err(ClientError::Proto)? {
                return Ok(Some(msgs));
            }
            match answer(Response::decode(body))? {
                Response::StreamChunk(msgs) => Ok(Some(msgs)),
                Response::StreamEnd { messages } if messages == decoded => Ok(None),
                Response::StreamEnd { messages } => {
                    Err(ClientError::StreamCount { received: decoded, sent: messages })
                }
                other => Err(unexpected("READ_STREAM2", &other)),
            }
        });
        match chunk {
            Ok(Some(msgs)) => {
                self.decoded += msgs.len() as u64;
                self.buffer.extend(msgs);
            }
            Ok(None) => self.done = true,
            Err(e) => {
                self.done = true;
                return Err(e);
            }
        }
        Ok(())
    }
}

impl<C: Connection, B: BorrowMut<ServeClient<C>>> Iterator for ReadStream<C, B> {
    type Item = ClientResult<WireMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(m) = self.buffer.pop_front() {
                self.received += 1;
                return Some(Ok(m));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.fetch() {
                return Some(Err(e));
            }
        }
    }
}

impl<C: Connection, B: BorrowMut<ServeClient<C>>> Drop for ReadStream<C, B> {
    fn drop(&mut self) {
        // Abandoned mid-stream: swallow the remaining frames. Bounded by
        // what the server still produces — which is little, because the
        // reply window means the producer stalls as soon as the client
        // stops consuming, and aborts once the connection drops.
        while !self.done {
            if self.fetch().is_err() {
                return;
            }
        }
    }
}

// ----------------------------------------------------------------- ingest

/// Batch-size thresholds for [`IngestClient`]. A flush fires when either
/// bound is reached; `flush()`/`seal()` force one.
#[derive(Debug, Clone, Copy)]
pub struct IngestBatching {
    pub max_msgs: usize,
    pub max_bytes: usize,
}

impl Default for IngestBatching {
    fn default() -> Self {
        IngestBatching { max_msgs: 64, max_bytes: 256 * 1024 }
    }
}

/// A buffering writer over one ingest root: `write` stages messages
/// locally and ships them as `APPEND` batches when a threshold trips, so
/// a high-rate robot pays one round-trip (and one server-side fsync) per
/// batch instead of per message.
///
/// Messages are only durable after the flush that carries them returns —
/// an unflushed buffer dies with the client, which is the same contract a
/// local `IngestStore` gives un-synced group-commit buffers. Call
/// [`IngestClient::flush`] (or [`IngestClient::seal`], which flushes
/// first) at recording boundaries.
pub struct IngestClient<C: Connection> {
    client: ServeClient<C>,
    container: String,
    batching: IngestBatching,
    buf: Vec<WireMessage>,
    buf_bytes: usize,
    appended: u64,
    last_epoch: u64,
}

impl<C: Connection> IngestClient<C> {
    pub fn new(client: ServeClient<C>, container: &str, batching: IngestBatching) -> Self {
        IngestClient {
            client,
            container: container.to_owned(),
            batching,
            buf: Vec::new(),
            buf_bytes: 0,
            appended: 0,
            last_epoch: 0,
        }
    }

    /// Stage one message; ships the buffer if a batching bound trips.
    pub fn write(&mut self, topic: &str, time: Time, data: &[u8]) -> ClientResult<()> {
        self.buf_bytes += data.len();
        self.buf.push(WireMessage { topic: topic.to_owned(), time, data: data.to_vec() });
        if self.buf.len() >= self.batching.max_msgs.max(1)
            || self.buf_bytes >= self.batching.max_bytes
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Ship everything staged; no-op on an empty buffer. Returns the
    /// server's epoch after the batch (or the last known one).
    pub fn flush(&mut self) -> ClientResult<u64> {
        if !self.buf.is_empty() {
            self.buf_bytes = 0;
            let batch = std::mem::take(&mut self.buf);
            let n = batch.len() as u64;
            let (appended, epoch) = self.client.append(&self.container, batch)?;
            debug_assert_eq!(appended, n);
            self.appended += appended;
            self.last_epoch = epoch;
        }
        Ok(self.last_epoch)
    }

    /// Flush, then seal the root's memtable server-side (compacting into
    /// the next container generation if `compact`).
    pub fn seal(&mut self, compact: bool) -> ClientResult<(u64, u32)> {
        self.flush()?;
        let out = self.client.seal(&self.container, compact)?;
        self.last_epoch = out.0;
        Ok(out)
    }

    /// Messages acked durable so far (staged-but-unflushed not included).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Messages staged locally, awaiting the next flush.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flush any residue and hand the underlying client back.
    pub fn finish(mut self) -> ClientResult<ServeClient<C>> {
        self.flush()?;
        Ok(self.client)
    }
}

// ------------------------------------------------------------------ retry

/// Backoff and timeout tuning for [`RetryClient`].
///
/// Retry `k` (0-based) sleeps `min(base_delay_ms << k, max_delay_ms)`
/// milliseconds, reduced by up to `jitter` of itself — i.e. uniform in
/// `[delay·(1-jitter), delay]`. Jitter is drawn from a splitmix64 stream
/// seeded with `seed`, so a given policy produces one fixed, replayable
/// schedule: tests assert on it, and two clients with different seeds
/// never thundering-herd in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, first try included; 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Cap on the un-jittered backoff.
    pub max_delay_ms: u64,
    /// Fraction of each delay randomized away, in `[0, 1]`.
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
    /// Per-attempt timeout installed on every connection
    /// ([`Connection::set_timeout`]); `None` blocks forever.
    pub timeout: Option<Duration>,
    /// Total wall-clock budget for one logical request, *all* attempts
    /// and backoff sleeps included. When set, each attempt's transport
    /// timeout is clamped to the remaining budget, the remaining budget
    /// is propagated on the wire (the server sheds queue-expired work),
    /// and the client fails with [`ClientError::DeadlineExceeded`]
    /// rather than start an attempt or sleep past the deadline. `None`
    /// (the default) keeps the historical per-attempt-only bound.
    pub deadline: Option<Duration>,
    /// Token-bucket retry budget; `None` disables it, restoring pure
    /// attempt-capped retries. See [`RetryBudgetConfig`].
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 2_000,
            jitter: 0.5,
            seed: 0x5EED_B07A,
            timeout: Some(Duration::from_secs(30)),
            deadline: None,
            retry_budget: Some(RetryBudgetConfig::default()),
        }
    }
}

/// Tuning for [`RetryBudget`].
///
/// The bucket starts full at `capacity` tokens; every retry spends one
/// token, every *success* deposits `deposit_per_success` (capped at
/// `capacity`). At the defaults the steady-state retry rate is bounded
/// at 10% of the success rate (one banked retry per ten successes) with
/// bursts of at most `capacity` — so a dying backend costs a bounded
/// number of extra requests instead of `max_attempts ×` amplification
/// from every caller at once.
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

/// A token-bucket retry budget: retries spend, successes earn. Shared
/// across every retry site of a client so failover cannot amplify into
/// a retry storm — once the bucket is empty, failures surface
/// immediately until real successes refill it.
#[derive(Debug)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
    denied: u64,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        RetryBudget { tokens: cfg.capacity, cfg, denied: 0 }
    }

    /// Spend one token for a retry; `false` (and a denial recorded) when
    /// the bucket cannot cover it.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Record a success, earning back a fraction of a token.
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + self.cfg.deposit_per_success).min(self.cfg.capacity);
    }

    /// Tokens currently banked.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Retries denied because the bucket was empty.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Un-jittered backoff before retry `k` (0-based): capped exponential.
    pub fn raw_delay_ms(&self, retry: u32) -> u64 {
        let factor = if retry >= 63 { u64::MAX } else { 1u64 << retry };
        self.base_delay_ms.saturating_mul(factor).min(self.max_delay_ms)
    }

    fn jittered(&self, retry: u32, rng: &mut u64) -> u64 {
        let raw = self.raw_delay_ms(retry);
        // 53 uniform bits → u in [0, 1).
        let u = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        raw - (raw as f64 * self.jitter.clamp(0.0, 1.0) * u) as u64
    }

    /// The full jittered schedule this policy will follow (one delay per
    /// retry, `max_attempts - 1` entries). Deterministic in `seed`.
    pub fn schedule(&self) -> Vec<u64> {
        let mut rng = self.seed;
        (0..self.max_attempts.saturating_sub(1)).map(|k| self.jittered(k, &mut rng)).collect()
    }
}

/// A [`ServeClient`] that owns its transport and survives faults.
///
/// On a transient error the request is retried on the policy's backoff
/// schedule; if the failure broke or desynchronized the stream (I/O
/// error, timeout, undecodable response) the connection is dropped and
/// re-established first. Requests are idempotent reads, so a retry after
/// an ambiguous failure never duplicates side effects. Each retry
/// increments the process-wide `serve.retries` counter.
pub struct RetryClient<T: Transport> {
    transport: T,
    policy: RetryPolicy,
    client: Option<ServeClient<T::Conn>>,
    /// Timeout currently installed on the live connection, so deadline
    /// clamping only re-installs when the bound actually changed.
    installed_timeout: Option<Duration>,
    budget: Option<RetryBudget>,
    rng: u64,
    next_retry: u32,
    retries: u64,
}

impl<T: Transport> RetryClient<T> {
    /// Wrap `transport`; the first request connects lazily.
    pub fn new(transport: T, policy: RetryPolicy) -> Self {
        let rng = policy.seed;
        let budget = policy.retry_budget.map(RetryBudget::new);
        RetryClient {
            transport,
            policy,
            client: None,
            installed_timeout: None,
            budget,
            rng,
            next_retry: 0,
            retries: 0,
        }
    }

    /// Retries performed over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The retry budget, if one is configured.
    pub fn retry_budget(&self) -> Option<&RetryBudget> {
        self.budget.as_ref()
    }

    fn client(&mut self, timeout: Option<Duration>) -> ClientResult<&mut ServeClient<T::Conn>> {
        if let Some(client) = &mut self.client {
            if timeout != self.installed_timeout {
                // A draining deadline shrinks the per-attempt bound between
                // attempts on the same connection.
                client.set_timeout(timeout)?;
                self.installed_timeout = timeout;
            }
        } else {
            let mut conn = self.transport.connect()?;
            if timeout.is_some() {
                conn.set_timeout(timeout)?;
            }
            self.client = Some(ServeClient::new(conn));
            self.installed_timeout = timeout;
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn run<R>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Per-attempt bound: the policy timeout, clamped to whatever
            // is left of the total deadline. The same bound travels on
            // the wire so the server can shed queue-expired work.
            let bound = match self.policy.deadline {
                None => self.policy.timeout,
                Some(d) => {
                    let elapsed = started.elapsed();
                    if elapsed >= d {
                        return Err(ClientError::DeadlineExceeded {
                            deadline: d,
                            elapsed,
                            last_error: "deadline expired before attempt".into(),
                        });
                    }
                    let remaining = d - elapsed;
                    Some(self.policy.timeout.map_or(remaining, |t| t.min(remaining)))
                }
            };
            let err = match self.client(bound) {
                Ok(c) => {
                    c.set_deadline(bound);
                    match op(c) {
                        Ok(v) => {
                            if let Some(b) = self.budget.as_mut() {
                                b.on_success();
                            }
                            self.next_retry = 0;
                            return Ok(v);
                        }
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            // An I/O failure (including a timeout) or an undecodable
            // response leaves request/response pairing unknown: reconnect
            // rather than read a stale answer into the next request.
            if matches!(err, ClientError::Io(_) | ClientError::Proto(_)) {
                self.client = None;
            }
            if !err.is_transient() || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            // The backoff ladder keeps climbing across requests until a
            // success resets it: a struggling server gets geometrically
            // more breathing room, not a fresh burst per call.
            let delay = self.policy.jittered(self.next_retry, &mut self.rng);
            // No point sleeping into (or past) the deadline: surface the
            // miss now, with the real failure attached.
            if let Some(d) = self.policy.deadline {
                let elapsed = started.elapsed();
                if elapsed + Duration::from_millis(delay) >= d {
                    return Err(ClientError::DeadlineExceeded {
                        deadline: d,
                        elapsed,
                        last_error: err.to_string(),
                    });
                }
            }
            // An empty retry budget turns a would-be retry into an
            // immediate failure: under a correlated outage the bucket
            // drains once, then every caller fails fast instead of
            // multiplying load by max_attempts.
            if let Some(b) = self.budget.as_mut() {
                if !b.try_spend() {
                    bora_obs::counter("serve.retry_budget_denied").inc();
                    return Err(err);
                }
            }
            self.retries += 1;
            bora_obs::counter("serve.retries").inc();
            self.next_retry = (self.next_retry + 1).min(63);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }

    pub fn open(&mut self, container: &str) -> ClientResult<(ContainerStat, bool)> {
        self.run(|c| c.open(container))
    }

    pub fn topics(&mut self, container: &str) -> ClientResult<Vec<String>> {
        self.run(|c| c.topics(container))
    }

    pub fn meta(&mut self, container: &str) -> ClientResult<Vec<u8>> {
        self.run(|c| c.meta(container))
    }

    pub fn read(&mut self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        self.run(|c| c.read(container, topics))
    }

    pub fn read_time(
        &mut self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<Vec<WireMessage>> {
        self.run(|c| c.read_time(container, topics, start, end))
    }

    /// A streamed read collected to completion, with retry. The stream is
    /// retried as a unit: if it breaks mid-flight the whole query is
    /// re-issued from the start on a fresh connection (reads are
    /// idempotent — the cost is repeated work, never duplicated or
    /// missing messages).
    pub fn read_streamed(
        &mut self,
        container: &str,
        topics: &[&str],
    ) -> ClientResult<Vec<WireMessage>> {
        self.run(|c| {
            let mut out = Vec::new();
            for m in c.read_stream(container, topics)? {
                out.push(m?);
            }
            Ok(out)
        })
    }

    /// Time-ranged variant of [`RetryClient::read_streamed`].
    pub fn read_streamed_time(
        &mut self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<Vec<WireMessage>> {
        self.run(|c| {
            let mut out = Vec::new();
            for m in c.read_stream_time(container, topics, start, end)? {
                out.push(m?);
            }
            Ok(out)
        })
    }

    /// A query retried as a unit: if the stream breaks mid-flight the
    /// whole statement is re-issued on a fresh connection (queries are
    /// idempotent reads). [`ErrorCode::BadQuery`] is permanent and
    /// surfaces immediately — resending a statement that cannot parse
    /// would only repeat the failure.
    pub fn query(&mut self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.run(|c| c.query(container, sql))
    }

    /// Fragment-mode variant of [`RetryClient::query`]; see
    /// [`ServeClient::query_partial`].
    pub fn query_partial(&mut self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.run(|c| c.query_partial(container, sql))
    }

    pub fn stat(&mut self, container: &str) -> ClientResult<ContainerStat> {
        self.run(|c| c.stat(container))
    }

    /// See [`ServeClient::stats`].
    pub fn stats(&mut self) -> ClientResult<StatsSnapshot> {
        self.metrics().map(|r| StatsSnapshot::from(&r))
    }

    pub fn metrics(&mut self) -> ClientResult<MetricsReport> {
        self.run(|c| c.metrics())
    }

    /// Health probe. Not retried beyond the policy's normal schedule: a
    /// probe that needs retries is itself the health signal.
    pub fn ping(&mut self) -> ClientResult<PingInfo> {
        self.run(|c| c.ping())
    }

    /// Shutdown is not retried: a lost response is indistinguishable from
    /// a server that already began shutting down, and re-sending it to a
    /// fresh connection would be a new side effect, not a retry.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.client(self.policy.timeout)?.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bora::BlockCodec;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    fn policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_ms: 0, // tests must not sleep
            max_delay_ms: 0,
            jitter: 0.0,
            seed: 1,
            timeout: None,
            deadline: None,
            retry_budget: None,
        }
    }

    // -------------------------------------------------- backoff schedule

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 100,
            max_delay_ms: 1_000,
            jitter: 0.0,
            seed: 7,
            ..policy(8)
        };
        assert_eq!(p.schedule(), vec![100, 200, 400, 800, 1_000, 1_000, 1_000]);
        // Huge shift counts saturate instead of overflowing.
        assert_eq!(p.raw_delay_ms(63), 1_000);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 64,
            max_delay_ms: 4_096,
            jitter: 0.5,
            seed: 42,
            ..policy(10)
        };
        let a = p.schedule();
        assert_eq!(a, p.schedule(), "same seed, same schedule");
        for (k, &d) in a.iter().enumerate() {
            let raw = p.raw_delay_ms(k as u32);
            assert!(d <= raw, "jitter only shortens: {d} > {raw}");
            assert!(d * 2 >= raw, "at most half removed at jitter 0.5: {d} < {raw}/2");
        }
        let other = RetryPolicy { seed: 43, ..p.clone() };
        assert_ne!(a, other.schedule(), "different seed, different jitter");
    }

    // -------------------------------------------------- scripted transport

    /// What a scripted connection does for one request.
    #[derive(Clone)]
    enum Step {
        /// Answer under the seq of the request in flight.
        Reply(Response),
        /// Deliver these bytes as a frame, whatever they are.
        Raw(Vec<u8>),
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
            self.seq = crate::proto::split_seq(&payload).expect("requests open with a seq").0;
            self.pending = true;
            Ok(())
        }
        // Accepted but unenforced: scripted failures come from the
        // script, not real waits. Without this, deadline policies (which
        // install a clamped timeout) could not be scripted at all.
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
                Some(Step::Raw(frame)) => Ok(frame),
                Some(Step::Break) | None => {
                    self.broken = true;
                    Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "scripted break"))
                }
            }
        }
    }

    /// Hands every connection the same shared script; counts connects
    /// and request frames sent.
    struct ScriptedTransport {
        steps: Arc<Mutex<VecDeque<Step>>>,
        connects: AtomicU32,
        sends: Arc<AtomicU32>,
    }

    impl ScriptedTransport {
        fn new(steps: Vec<Step>) -> Self {
            ScriptedTransport {
                steps: Arc::new(Mutex::new(steps.into())),
                connects: AtomicU32::new(0),
                sends: Arc::default(),
            }
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

    // ------------------------------------------------------ retry behavior

    #[test]
    fn transient_errors_retry_until_success() {
        let t = ScriptedTransport::new(vec![
            Step::Reply(Response::Overloaded),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec!["/imu".into()])),
        ]);
        let mut c = RetryClient::new(&t, policy(5));
        assert_eq!(c.topics("/c").unwrap(), vec!["/imu".to_owned()]);
        assert_eq!(c.retries(), 2);
        assert_eq!(t.connects.load(Ordering::SeqCst), 1, "server errors keep the connection");
    }

    #[test]
    fn broken_stream_reconnects_then_succeeds() {
        let t = ScriptedTransport::new(vec![Step::Break, Step::Reply(Response::Topics(vec![]))]);
        let mut c = RetryClient::new(&t, policy(3));
        assert_eq!(c.topics("/c").unwrap(), Vec::<String>::new());
        assert_eq!(c.retries(), 1);
        assert_eq!(t.connects.load(Ordering::SeqCst), 2, "I/O failure forces a reconnect");
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::Io),
            server_err(ErrorCode::Io),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])), // never reached
        ]);
        let mut c = RetryClient::new(&t, policy(3));
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected Io server error, got {other:?}"),
        }
        assert_eq!(c.retries(), 2, "3 attempts = 2 retries");
        assert_eq!(t.steps.lock().unwrap().len(), 1, "exactly 3 requests sent");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        for code in [ErrorCode::UnknownTopic, ErrorCode::NotAContainer, ErrorCode::Corrupt] {
            let t = ScriptedTransport::new(vec![
                server_err(code),
                Step::Reply(Response::Topics(vec![])),
            ]);
            let mut c = RetryClient::new(&t, policy(5));
            match c.topics("/c") {
                Err(ClientError::Server { code: got, .. }) => assert_eq!(got, code),
                other => panic!("expected server error, got {other:?}"),
            }
            assert_eq!(c.retries(), 0, "{code:?} must not be retried");
            assert_eq!(t.steps.lock().unwrap().len(), 1, "only one request sent");
        }
    }

    #[test]
    fn checksum_mismatch_is_retried() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::ChecksumMismatch),
            Step::Reply(Response::Topics(vec![])),
        ]);
        let mut c = RetryClient::new(&t, policy(3));
        assert!(c.topics("/c").is_ok());
        assert_eq!(c.retries(), 1);
    }

    // ------------------------------------------------------- retry budget

    #[test]
    fn retry_budget_bounds_total_retries() {
        // Far more transient failures than the bucket can cover: the
        // attempt cap would allow 99 retries, the budget allows 3.
        let t = ScriptedTransport::new(vec![server_err(ErrorCode::Io); 10]);
        let p = RetryPolicy {
            retry_budget: Some(RetryBudgetConfig { capacity: 3.0, deposit_per_success: 0.1 }),
            ..policy(100)
        };
        let mut c = RetryClient::new(&t, p);
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected the underlying Io error, got {other:?}"),
        }
        assert_eq!(c.retries(), 3, "bucket of 3 tokens = 3 retries");
        assert_eq!(c.retry_budget().unwrap().denied(), 1);
        assert_eq!(t.steps.lock().unwrap().len(), 6, "exactly 4 requests sent");
    }

    #[test]
    fn retry_budget_refills_on_success() {
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])),
            server_err(ErrorCode::Io),
            Step::Reply(Response::Topics(vec![])), // unreachable: budget empty
        ]);
        let p = RetryPolicy {
            retry_budget: Some(RetryBudgetConfig { capacity: 1.0, deposit_per_success: 0.5 }),
            ..policy(5)
        };
        let mut c = RetryClient::new(&t, p);
        assert!(c.topics("/c").is_ok(), "first call retries through on the banked token");
        assert_eq!(c.retry_budget().unwrap().tokens(), 0.5, "success earned half a token back");
        match c.topics("/c") {
            Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
            other => panic!("expected fail-fast on empty bucket, got {other:?}"),
        }
        assert_eq!(c.retries(), 1, "no second retry: bucket below one token");
        assert_eq!(c.retry_budget().unwrap().denied(), 1);
    }

    // --------------------------------------------------- total deadline

    #[test]
    fn deadline_cuts_backoff_short() {
        // The first retry would sleep 10s; the 50ms total budget makes
        // the client surface the miss immediately instead.
        let t = ScriptedTransport::new(vec![Step::Break; 5]);
        let p = RetryPolicy {
            base_delay_ms: 10_000,
            max_delay_ms: 10_000,
            deadline: Some(Duration::from_millis(50)),
            ..policy(5)
        };
        let start = Instant::now();
        let mut c = RetryClient::new(&t, p);
        match c.topics("/c") {
            Err(ClientError::DeadlineExceeded { deadline, last_error, .. }) => {
                assert_eq!(deadline, Duration::from_millis(50));
                assert!(last_error.contains("scripted break"), "carries the real failure");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "did not sleep the 10s backoff");
        assert_eq!(c.retries(), 0);
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
        let p = RetryPolicy { deadline: Some(Duration::ZERO), ..policy(3) };
        let mut c = RetryClient::new(&t, p);
        assert!(matches!(c.topics("/c"), Err(ClientError::DeadlineExceeded { .. })));
        assert_eq!(t.steps.lock().unwrap().len(), 1, "no request was sent");
        assert_eq!(t.connects.load(Ordering::SeqCst), 0, "no connection was made");
    }

    // ------------------------------------------------------- the envelope

    #[test]
    fn stale_frames_are_skipped_and_short_frames_are_errors() {
        let topics = |name: &str| Response::Topics(vec![name.into()]);
        // A duplicate of request 1's answer surfaces during request 2:
        // skipped, not returned.
        let t = ScriptedTransport::new(vec![
            Step::Reply(topics("/first")),
            Step::Raw(topics("/first").encode_seq(1).unwrap()),
            Step::Reply(topics("/second")),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        assert_eq!(c.topics("/c").unwrap(), vec!["/first".to_owned()]);
        assert_eq!(c.topics("/c").unwrap(), vec!["/second".to_owned()]);

        // A bare response (what a peer without the envelope would send)
        // reads as some other seq: skipped too, never taken for the answer.
        let t = ScriptedTransport::new(vec![
            Step::Raw(topics("/bare").encode()),
            Step::Reply(topics("/real")),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        assert_eq!(c.topics("/c").unwrap(), vec!["/real".to_owned()]);

        // A frame too short to hold a seq is a protocol error, once; the
        // answer behind it is still there for whoever keeps reading.
        for short in [vec![1, 0, 0], vec![]] {
            let t = ScriptedTransport::new(vec![Step::Raw(short), Step::Reply(topics("/real"))]);
            let mut c = ServeClient::new(t.connect().unwrap());
            assert!(matches!(c.topics("/c"), Err(ClientError::Proto(_))));
            assert_eq!(t.steps.lock().unwrap().len(), 1, "nothing was read past the bad frame");
        }
    }

    #[test]
    fn oversized_request_fields_fail_before_any_byte_is_sent() {
        let t = ScriptedTransport::new(vec![Step::Reply(Response::Read(vec![]))]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let topic = "t".repeat(70_000);
        assert!(matches!(c.read("/c", &[&topic]), Err(ClientError::Proto(_))));
        assert!(matches!(c.read_stream("/c", &[&topic]).err(), Some(ClientError::Proto(_))));
        assert!(matches!(c.topics(&topic), Err(ClientError::Proto(_))));
        assert_eq!(t.sends.load(Ordering::SeqCst), 0, "no request frame was sent");
        // The connection was never touched, so it is still usable.
        assert_eq!(c.read("/c", &["/imu"]).unwrap(), vec![]);
    }

    // ---------------------------------------------- compressed streaming

    #[test]
    fn read_stream_decodes_lz_chunks() {
        let mut ctx = simfs::IoCtx::new();
        let msgs: Vec<WireMessage> = (0..40)
            .map(|i| WireMessage { topic: "/imu".into(), time: Time::new(i, 0), data: vec![0; 64] })
            .collect();
        let t = ScriptedTransport::new(vec![
            Step::Reply(crate::proto::compress_chunk(&msgs, &mut ctx)),
            Step::Reply(Response::StreamEnd { messages: 40 }),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let got: Vec<WireMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, msgs);
    }

    /// A raw chunk is decoded where it lies in the received frame, with
    /// every check of the copying decoders: a flipped body byte fails the
    /// CRC, a trailing byte or a length that does not fit the frame fails
    /// the framing, and each is a typed error, never messages.
    #[test]
    fn a_damaged_raw_chunk_is_a_proto_error_never_messages() {
        let msgs: Vec<WireMessage> = (0..32)
            .map(|i| WireMessage { topic: "/imu".into(), time: Time::new(i, 0), data: vec![9; 40] })
            .collect();
        let triples = msgs.iter().map(|m| (m.topic.as_str(), m.time, m.data.as_slice()));
        let chunk = crate::proto::chunk_frame(triples, BlockCodec::None, &mut simfs::IoCtx::new());
        let Response::StreamChunkLz(frame) = &chunk else { panic!("a chunk frame") };
        assert_eq!(frame[0], BlockCodec::None.id());
        // seq u32 | opcode u8 | frame length u32 | frame
        let good = chunk.encode_seq(1).unwrap();
        let set_len = |bytes: &mut Vec<u8>, len: usize| {
            bytes[5..9].copy_from_slice(&(len as u32).to_le_bytes());
        };
        let mut flipped = good.clone();
        flipped[9 + bora::block::FRAME_HEADER_LEN + 100] ^= 0x01;
        let mut trailing = good.clone();
        trailing.push(0);
        let mut short = good.clone();
        set_len(&mut short, frame.len() + 1);
        let mut shorter = good.clone();
        set_len(&mut shorter, frame.len() - 1);
        let end = Step::Reply(Response::StreamEnd { messages: 32 });

        let t = ScriptedTransport::new(vec![Step::Raw(good), end.clone()]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let got: Vec<WireMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, msgs);
        for (what, bytes) in
            [("flipped", flipped), ("trailing", trailing), ("short", short), ("shorter", shorter)]
        {
            let t = ScriptedTransport::new(vec![Step::Raw(bytes), end.clone()]);
            let mut c = ServeClient::new(t.connect().unwrap());
            let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
            assert_eq!(results.len(), 1, "{what}: no message before the error");
            assert!(matches!(results[0], Err(ClientError::Proto(_))), "{what}: {:?}", results[0]);
        }
    }

    /// A chunk lost or repeated on the way still carries the request's
    /// seq, so only the end frame's count can tell: the stream yields
    /// what arrived, then an error naming both counts.
    #[test]
    fn a_lost_or_repeated_chunk_ends_the_stream_with_both_counts() {
        let chunks: Vec<Vec<WireMessage>> = (0..3u32)
            .map(|c| {
                (0..32u32)
                    .map(|i| WireMessage {
                        topic: "/imu".into(),
                        time: Time::new(c * 32 + i, 0),
                        data: vec![c as u8; 16],
                    })
                    .collect()
            })
            .collect();
        let chunk = |c: usize| {
            Step::Reply(crate::proto::compress_chunk(&chunks[c], &mut simfs::IoCtx::new()))
        };
        let end = Step::Reply(Response::StreamEnd { messages: 96 });
        for (script, received) in [
            (vec![chunk(0), chunk(2), end.clone()], 64),
            (vec![chunk(0), chunk(1), chunk(1), chunk(2), end.clone()], 128),
        ] {
            let t = ScriptedTransport::new(script);
            let mut c = ServeClient::new(t.connect().unwrap());
            let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
            let (last, delivered) = results.split_last().unwrap();
            assert_eq!(delivered.iter().filter(|r| r.is_ok()).count() as u64, received);
            let err = last.as_ref().unwrap_err();
            assert!(
                matches!(err, ClientError::StreamCount { received: r, sent: 96 } if *r == received),
                "{err}"
            );
            assert_eq!(
                err.to_string(),
                format!("stream delivered {received} messages but the server sent 96")
            );
        }
    }

    #[test]
    fn read_stream_surfaces_bad_request_without_reissuing() {
        let msgs =
            vec![WireMessage { topic: "/imu".into(), time: Time::new(1, 0), data: vec![7; 8] }];
        // A first-frame BadRequest is the server's real answer: it must
        // surface once, not be swallowed and reissued as a different op.
        // The chunk scripted behind it would be consumed by a reissue.
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::BadRequest),
            Step::Reply(Response::StreamChunk(msgs.clone())),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0], Err(ClientError::Server { code: ErrorCode::BadRequest, .. })));
        assert_eq!(t.sends.load(Ordering::SeqCst), 1, "exactly one request frame was sent");
        assert_eq!(t.steps.lock().unwrap().len(), 1, "nothing was read past the error");

        // Mid-stream it is just as terminal.
        let t = ScriptedTransport::new(vec![
            Step::Reply(Response::StreamChunk(msgs.clone())),
            server_err(ErrorCode::BadRequest),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ClientError::Server { code: ErrorCode::BadRequest, .. })));
    }

    #[test]
    fn stream2_matches_buffered_read_end_to_end() {
        use crate::server::{Server, ServerConfig};
        use crate::transport::MemTransport;
        use ros_msgs::sensor_msgs::Imu;

        let fs = Arc::new(simfs::MemStorage::new());
        let mut ctx = simfs::IoCtx::new();
        let mut rec = bora::BoraRecorder::create(
            Arc::clone(&fs),
            "/c",
            bora::RecorderOptions::default(),
            &mut ctx,
        )
        .unwrap();
        for i in 0..200u32 {
            let mut imu = Imu::default();
            imu.header.seq = i;
            rec.record_ros_message("/imu", Time::new(100 + i, 0), &imu, &mut ctx).unwrap();
        }
        rec.close(&mut ctx).unwrap();

        let server = Server::start(fs, ServerConfig::default());
        let t = MemTransport::new(Arc::clone(&server));
        let mut c = ServeClient::new(t.connect().unwrap());
        let buffered = c.read("/c", &["/imu"]).unwrap();
        let streamed: Vec<WireMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed.len(), 200);
        // Raw or LZ-coded as the stream measured its link; LZ-coded chunks
        // reach this client behind a slow link in bora-chaos's
        // `stream_codec` tests.
        assert_eq!(streamed, buffered, "the stream must be byte-identical");
        server.shutdown();
    }

    // -------------------------------------------- set_timeout default

    #[test]
    fn set_timeout_default_is_loudly_unsupported() {
        struct NoTimeoutConn;
        impl Connection for NoTimeoutConn {
            fn send_frame(&mut self, _parts: &[&[u8]]) -> std::io::Result<()> {
                Ok(())
            }
            fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
                Ok(Vec::new())
            }
        }
        let mut c = NoTimeoutConn;
        assert!(c.set_timeout(None).is_ok(), "None requests the default and always succeeds");
        let err = c.set_timeout(Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }
}
