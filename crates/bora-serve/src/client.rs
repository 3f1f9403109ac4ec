//! [`ServeClient`]: typed request/response wrapper over any
//! [`Connection`]. One outstanding request at a time per client (the
//! protocol is strictly request/response); open more connections for
//! parallelism.
//!
//! This module has no retry code: a [`ServeClient`] reports every fault
//! as a [`ClientError`], and [`ClientError::is_transient`] says whether
//! trying again may help. Retrying is `bora-cluster`'s `ClusterClient`'s
//! one loop — over one node, it is a retrying client of one server.

use std::borrow::BorrowMut;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::time::Duration;

use ros_msgs::Time;

use crate::metrics::StatsSnapshot;
use crate::proto::{
    ChunkMessage, ChunkTopics, ContainerStat, ErrorCode, FromChunk, MetricsReport, PingInfo,
    ProtoError, Request, Response, WireMessage,
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
    /// A read's chunks held `received` messages where its `StreamEnd`
    /// counts `sent`: a chunk was lost or repeated on the way.
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

    /// The next received frame answering the request in flight, its seq
    /// first. Stale frames (leftovers of an earlier request that the
    /// network duplicated or reordered) are discarded; a frame without a
    /// seq is an error, never the answer.
    fn recv_answer(&mut self) -> ClientResult<Vec<u8>> {
        loop {
            let frame = self.conn.recv_frame()?;
            let (seq, _) = crate::proto::split_seq(&frame).map_err(ClientError::Proto)?;
            if seq == self.seq {
                return Ok(frame);
            }
        }
    }

    /// The next response answering the request in flight, with its size
    /// on the wire after the seq.
    fn recv(&mut self) -> ClientResult<(Response, usize)> {
        let frame = self.recv_answer()?;
        let body = after_seq(&frame);
        Ok((answer(Response::decode(body))?, body.len()))
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

    /// Every message of `topics`: a `READ`, collected from its chunks
    /// (the same receive path as [`ServeClient::read_stream`]), each
    /// message built owned, its payload copied once out of its chunk.
    pub fn read(&mut self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, None)
    }

    /// [`ServeClient::read`] over `[start, end)`: a message at `end` is
    /// not read.
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
        let req = Request::Read { container: container.into(), topics: owned(topics), range };
        ReadStream::start(self, &req)?.collect()
    }

    /// Issue a `READ_STREAM2` and iterate messages as chunk frames arrive,
    /// instead of collecting them all like [`ServeClient::read`]. Each
    /// [`ChunkMessage`] is a view into the chunk it arrived in: nothing is
    /// allocated or copied per message, and a message held keeps its
    /// chunk's whole frame alive.
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
    /// no client retries it.
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

/// A frame's body, past the seq that [`ServeClient::recv_answer`] read.
fn after_seq(frame: &[u8]) -> &[u8] {
    &frame[4..]
}

fn owned(topics: &[&str]) -> Vec<String> {
    topics.iter().map(|t| (*t).to_owned()).collect()
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

/// An in-flight read: yields messages as the server's merge produces
/// them. Created by [`ServeClient::read_stream`], which lends it
/// the client, or by [`ReadStream::open`] over a client it owns.
///
/// What it yields is `M`, built where each message lies in its received
/// chunk ([`FromChunk`]): a [`ChunkMessage`] (the default, and what
/// [`ServeClient::read_stream`] yields) shares the chunk's buffer and
/// copies nothing; a [`WireMessage`] (what [`ServeClient::read`]
/// collects) copies its payload out. A stream interns its topics, so a
/// topic's name is allocated once per stream, not once per message.
///
/// The first error is terminal — after yielding `Err` the iterator is
/// exhausted. On drop, any frames still owed by the server are drained
/// (and discarded): the next request on this connection does not have to
/// wade through them, and the worker producing them is not left blocked
/// on a client that stopped reading.
pub struct ReadStream<C: Connection, B: BorrowMut<ServeClient<C>>, M: FromChunk = ChunkMessage> {
    client: B,
    buffer: VecDeque<M>,
    topics: ChunkTopics,
    done: bool,
    received: u64,
    /// Messages decoded from chunks so far, checked against `StreamEnd`.
    decoded: u64,
    _conn: PhantomData<C>,
}

impl<C: Connection, B: BorrowMut<ServeClient<C>>, M: FromChunk> ReadStream<C, B, M> {
    /// Send a `READ_STREAM2` on `client` (no response is read here — the
    /// iterator pulls the answer frames).
    pub fn open(
        client: B,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Self> {
        let req =
            Request::ReadStream2 { container: container.into(), topics: owned(topics), range };
        ReadStream::start(client, &req)
    }

    /// Send `req`, a read, on `client`.
    fn start(mut client: B, req: &Request) -> ClientResult<Self> {
        client.borrow_mut().send(req)?;
        Ok(ReadStream {
            client,
            buffer: VecDeque::new(),
            topics: ChunkTopics::default(),
            done: false,
            received: 0,
            decoded: 0,
            _conn: PhantomData,
        })
    }

    /// Wait for the answer's first frame: a stream that comes back has
    /// been answered, and one that fails failed before any message.
    pub fn first_frame(mut self) -> ClientResult<Self> {
        if self.buffer.is_empty() && !self.done {
            self.fetch()?;
        }
        Ok(self)
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
    /// ([`crate::proto::stream_chunk`]), which its messages then share.
    /// Only a chunk keeps the stream open: `StreamEnd`, an error or
    /// overload frame, an undecodable frame and a transport failure (the
    /// connection is desynchronized then — nothing left to drain) all flip
    /// `done`. A `StreamEnd` whose count is not the messages decoded is
    /// [`ClientError::StreamCount`].
    fn fetch(&mut self) -> ClientResult<()> {
        let (decoded, topics, buffer) = (self.decoded, &mut self.topics, &mut self.buffer);
        let chunk = self.client.borrow_mut().recv_answer().and_then(|mut frame| {
            let msgs = crate::proto::stream_chunk(&mut frame, topics, buffer);
            if let Some(msgs) = msgs.map_err(ClientError::Proto)? {
                return Ok(Some(msgs));
            }
            match answer(Response::decode(after_seq(&frame)))? {
                Response::StreamEnd { messages } if messages == decoded => Ok(None),
                Response::StreamEnd { messages } => {
                    Err(ClientError::StreamCount { received: decoded, sent: messages })
                }
                other => Err(unexpected("a read", &other)),
            }
        });
        match chunk {
            Ok(Some(msgs)) => self.decoded += msgs,
            Ok(None) => self.done = true,
            Err(e) => {
                self.done = true;
                return Err(e);
            }
        }
        Ok(())
    }
}

impl<C: Connection, B: BorrowMut<ServeClient<C>>, M: FromChunk> Iterator for ReadStream<C, B, M> {
    type Item = ClientResult<M>;

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

impl<C: Connection, B: BorrowMut<ServeClient<C>>, M: FromChunk> Drop for ReadStream<C, B, M> {
    fn drop(&mut self) {
        // Abandoned mid-stream: swallow the remaining frames. Bounded by
        // what the server still produces — which is little, because the
        // reply window means the producer stalls as soon as the client
        // stops consuming, and aborts once the connection drops.
        while !self.done {
            self.buffer.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use bora::BlockCodec;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    // -------------------------------------------------- scripted transport

    /// What a scripted connection answers next.
    #[derive(Clone)]
    enum Step {
        /// Answer under the seq of the request in flight.
        Reply(Response),
        /// Deliver these bytes as a frame, whatever they are.
        Raw(Vec<u8>),
    }

    struct ScriptedConn {
        steps: Arc<Mutex<VecDeque<Step>>>,
        sends: Arc<AtomicU32>,
        /// Seq of the last request sent.
        seq: u32,
    }

    impl Connection for ScriptedConn {
        fn send_frame(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
            self.sends.fetch_add(1, Ordering::SeqCst);
            let payload = parts.concat();
            self.seq = crate::proto::split_seq(&payload).expect("requests open with a seq").0;
            Ok(())
        }
        fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
            match self.steps.lock().unwrap().pop_front() {
                Some(Step::Reply(resp)) => Ok(resp.encode_seq(self.seq).unwrap()),
                Some(Step::Raw(frame)) => Ok(frame),
                None => Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "script over")),
            }
        }
    }

    /// Hands every connection the same shared script; counts request
    /// frames sent.
    struct ScriptedTransport {
        steps: Arc<Mutex<VecDeque<Step>>>,
        sends: Arc<AtomicU32>,
    }

    impl ScriptedTransport {
        fn new(steps: Vec<Step>) -> Self {
            ScriptedTransport { steps: Arc::new(Mutex::new(steps.into())), sends: Arc::default() }
        }
    }

    impl Transport for ScriptedTransport {
        type Conn = ScriptedConn;
        fn connect(&self) -> std::io::Result<ScriptedConn> {
            let (steps, sends) = (Arc::clone(&self.steps), Arc::clone(&self.sends));
            Ok(ScriptedConn { steps, sends, seq: 0 })
        }
    }

    fn server_err(code: ErrorCode) -> Step {
        Step::Reply(Response::Error { code, message: "scripted".into() })
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
        let t = ScriptedTransport::new(vec![Step::Reply(Response::StreamEnd { messages: 0 })]);
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
        let got: Vec<ChunkMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, msgs);
    }

    /// A raw chunk is decoded where it lies in the received frame, with
    /// every check of the copying decoders: a flipped body byte fails the
    /// CRC, a trailing byte or a length that does not fit the frame fails
    /// the framing, and each is a typed error, never messages — for a
    /// stream and for a read, which collects the same chunks. A chunk
    /// lost on the way fails the read's count.
    #[test]
    fn a_damaged_raw_chunk_is_a_proto_error_never_messages() {
        let msgs: Vec<WireMessage> = (0..32)
            .map(|i| WireMessage { topic: "/imu".into(), time: Time::new(i, 0), data: vec![9; 40] })
            .collect();
        let chunk = crate::proto::tests::chunk_of(&msgs, BlockCodec::None);
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

        let t = ScriptedTransport::new(vec![Step::Raw(good.clone()), end.clone()]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let got: Vec<ChunkMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, msgs);
        let t = ScriptedTransport::new(vec![Step::Raw(good), end.clone()]);
        assert_eq!(ServeClient::new(t.connect().unwrap()).read("/c", &["/imu"]).unwrap(), msgs);
        for (what, bytes) in
            [("flipped", flipped), ("trailing", trailing), ("short", short), ("shorter", shorter)]
        {
            let t = ScriptedTransport::new(vec![Step::Raw(bytes.clone()), end.clone()]);
            let mut c = ServeClient::new(t.connect().unwrap());
            let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
            assert_eq!(results.len(), 1, "{what}: no message before the error");
            assert!(matches!(results[0], Err(ClientError::Proto(_))), "{what}: {:?}", results[0]);
            let t = ScriptedTransport::new(vec![Step::Raw(bytes), end.clone()]);
            let read = ServeClient::new(t.connect().unwrap()).read("/c", &["/imu"]);
            assert!(matches!(read, Err(ClientError::Proto(_))), "{what}: read {read:?}");
        }
        let t = ScriptedTransport::new(vec![end]);
        let read = ServeClient::new(t.connect().unwrap()).read("/c", &["/imu"]);
        assert!(
            matches!(read, Err(ClientError::StreamCount { received: 0, sent: 32 })),
            "lost: read {read:?}"
        );
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
        let msgs = [WireMessage { topic: "/imu".into(), time: Time::new(1, 0), data: vec![7; 8] }];
        let chunk = crate::proto::tests::chunk_of(&msgs, BlockCodec::None);
        // A first-frame BadRequest is the server's real answer: it must
        // surface once, not be swallowed and reissued as a different op.
        // The chunk scripted behind it would be consumed by a reissue.
        let t = ScriptedTransport::new(vec![
            server_err(ErrorCode::BadRequest),
            Step::Reply(chunk.clone()),
        ]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0], Err(ClientError::Server { code: ErrorCode::BadRequest, .. })));
        assert_eq!(t.sends.load(Ordering::SeqCst), 1, "exactly one request frame was sent");
        assert_eq!(t.steps.lock().unwrap().len(), 1, "nothing was read past the error");

        // Mid-stream it is just as terminal.
        let t = ScriptedTransport::new(vec![Step::Reply(chunk), server_err(ErrorCode::BadRequest)]);
        let mut c = ServeClient::new(t.connect().unwrap());
        let results: Vec<_> = c.read_stream("/c", &["/imu"]).unwrap().collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ClientError::Server { code: ErrorCode::BadRequest, .. })));
    }

    /// A container of 200 IMU messages under `/c`.
    fn imu_container() -> Arc<simfs::MemStorage> {
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
        fs
    }

    #[test]
    fn stream2_matches_buffered_read_end_to_end() {
        use crate::server::{Server, ServerConfig};
        use crate::transport::MemTransport;

        let server = Server::start(imu_container(), ServerConfig::default());
        let t = MemTransport::new(Arc::clone(&server));
        let mut c = ServeClient::new(t.connect().unwrap());
        let buffered = c.read("/c", &["/imu"]).unwrap();
        let streamed: Vec<ChunkMessage> =
            c.read_stream("/c", &["/imu"]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed.len(), 200);
        // Raw or LZ-coded as the stream measured its link; LZ-coded chunks
        // reach this client behind a slow link in bora-chaos's
        // `stream_codec` tests.
        assert_eq!(streamed, buffered, "the stream must be byte-identical");
        server.shutdown();
    }

    /// A read is answered by CRC-checked chunks: a payload byte flipped
    /// on the way is a protocol error, never a message that differs from
    /// the stored one.
    #[test]
    fn a_read_with_a_flipped_payload_byte_is_a_proto_error() {
        use crate::server::{Server, ServerConfig};
        use crate::transport::{MemConnection, MemTransport};

        /// Flips the last byte of the first frame it receives: a byte of
        /// the answer's last message's payload.
        struct FlipFirst(MemConnection, bool);
        impl Connection for FlipFirst {
            fn send_frame(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
                self.0.send_frame(parts)
            }
            fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
                let mut frame = self.0.recv_frame()?;
                if !std::mem::replace(&mut self.1, true) {
                    *frame.last_mut().expect("an answer frame") ^= 0x01;
                }
                Ok(frame)
            }
        }

        let server = Server::start(imu_container(), ServerConfig::default());
        let t = MemTransport::new(Arc::clone(&server));
        let mut c = ServeClient::new(FlipFirst(t.connect().unwrap(), false));
        let read = c.read("/c", &["/imu"]);
        assert!(matches!(read, Err(ClientError::Proto(_))), "{read:?}");
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
