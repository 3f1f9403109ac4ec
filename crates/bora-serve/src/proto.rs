//! The bora-serve wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by the payload. The first payload byte is the opcode;
//! the rest is the operation's fields in fixed little-endian layouts
//! (strings are `u16` length + UTF-8, lists are `u16` count + elements).
//! There is no versioning handshake — both ends of a deployment ship
//! together — but unknown opcodes and truncated payloads decode to
//! [`ProtoError`] rather than panicking, so a malformed client cannot
//! take a worker down.
//!
//! The protocol is request/response with one extension: a `READ_STREAM`
//! request is answered by a *sequence* of frames — zero or more
//! [`Response::StreamChunk`]s as the server's k-way merge yields
//! messages, closed by a [`Response::StreamEnd`] (or a terminal
//! [`Response::Error`]). Everything else stays one-request/one-response,
//! and one outstanding request per connection keeps the backpressure
//! story honest: stream frames are produced no faster than the transport
//! accepts them, and a client that wants parallelism opens more
//! connections, which the server's bounded queue then sheds explicitly
//! via [`Response::Overloaded`].

use bora::block::{decode_frame, encode_frame};
use bora::BlockCodec;
use bora_obs::{HistSummary, TraceContext, BUCKETS};
use ros_msgs::Time;
use rosbag::MessageRecord;
use simfs::IoCtx;

/// Frame length prefix size (little-endian u32).
pub const FRAME_HEADER_LEN: usize = 4;

/// Upper bound on a single frame's payload; decoding rejects anything
/// larger so a corrupt length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

// Request opcodes.
const OP_OPEN: u8 = 0x01;
const OP_TOPICS: u8 = 0x02;
const OP_META: u8 = 0x03;
const OP_READ: u8 = 0x04;
const OP_STAT: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_TRACE: u8 = 0x08;
const OP_READ_STREAM: u8 = 0x09;
const OP_PING: u8 = 0x0A;
const OP_APPEND: u8 = 0x0B;
const OP_SEAL: u8 = 0x0C;
const OP_METRICS: u8 = 0x0D;

/// Optional trace-context prefix on a request payload: a client that is
/// tracing wraps the inner request as
/// `[0x0F, trace_id u64, parent_span u64, flags u8, inner payload…]`
/// (flags bit 0 = sampled). Untraced clients send the bare request, so
/// the untraced encoding is byte-identical to the pre-trace protocol —
/// old clients talk to new servers and vice versa. An old server sees
/// `0x0F` as an unknown opcode and answers with a clean [`ProtoError`]
/// error, which is why traced clients only prepend the header when a
/// context is actually present.
const OP_TRACE_CTX: u8 = 0x0F;

/// Bytes a trace-context prefix adds to a request payload.
pub const TRACE_CTX_LEN: usize = 1 + 8 + 8 + 1;

/// Optional deadline prefix on a request payload: a client with a
/// per-request budget wraps the (possibly trace-wrapped) payload as
/// `[0x10, budget_ns u64, inner payload…]`. The budget is *relative*
/// nanoseconds remaining at send time, not an absolute timestamp, so
/// no clock synchronisation is assumed — the server measures its own
/// queue wait against it and sheds work whose budget is already spent.
/// Like the trace prefix, the header is only prepended when a deadline
/// is actually set, so deadline-free traffic stays byte-identical to
/// the pre-deadline protocol.
const OP_DEADLINE: u8 = 0x10;

/// Bytes a deadline prefix adds to a request payload.
pub const DEADLINE_LEN: usize = 1 + 8;

/// Correlation prefix, outermost on both directions of the wire:
/// `[0x11, seq u32, inner payload…]`. The client stamps every request
/// with a per-connection sequence number and the server echoes it on
/// every frame it sends in answer (all chunks of a stream carry the
/// request's seq). This is what lets a client *reject* a stale frame —
/// a duplicated or reordered response surfacing after its request was
/// lost would otherwise be read as the answer to the *next* request,
/// and an ack credited to an append the server never saw. Uncorrelated
/// requests get uncorrelated responses, so plain peers interoperate
/// unchanged.
pub const OP_CORR: u8 = 0x11;

/// Bytes a correlation prefix adds to a payload.
pub const CORR_LEN: usize = 1 + 4;

/// `READ_STREAM2`: identical fields to `READ_STREAM`, but the request
/// opcode doubles as a capability bit — a client that sends it declares
/// it can decode [`Response::StreamChunkLz`] frames, so the server is
/// free to ship each chunk LZ-compressed. `ServeClient` always sends it
/// (both ends ship together, so there is no older server to probe for);
/// plain `READ_STREAM` stays for peers that want uncompressed chunks.
const OP_READ_STREAM2: u8 = 0x12;

/// `QUERY`: execute a `bora-query` statement against a container and
/// stream the result back. Answered by one [`Response::QuerySchema`]
/// (column names), zero or more [`Response::QueryChunk`]s (row blobs,
/// `bora_query::wire` encoding), and a terminal [`Response::QueryEnd`]
/// carrying the row total and — for `EXPLAIN` / `EXPLAIN ANALYZE` — the
/// rendered plan. A malformed statement answers with
/// [`ErrorCode::BadQuery`] and the connection stays usable.
const OP_QUERY: u8 = 0x13;

/// Wrap `inner` in a correlation prefix carrying `seq`.
pub fn wrap_corr(seq: u32, inner: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CORR_LEN + inner.len());
    buf.push(OP_CORR);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(inner);
    buf
}

/// Split a payload into its correlation seq (if prefixed) and the inner
/// bytes. Payloads without the prefix — plain peers, pre-correlation
/// traffic — come back as `(None, payload)` untouched.
pub fn peel_corr(payload: &[u8]) -> (Option<u32>, &[u8]) {
    if payload.len() >= CORR_LEN && payload[0] == OP_CORR {
        let seq = u32::from_le_bytes(payload[1..CORR_LEN].try_into().unwrap());
        (Some(seq), &payload[CORR_LEN..])
    } else {
        (None, payload)
    }
}

/// Build a [`Response::StreamChunkLz`] from a message batch: the plain
/// chunk body is wrapped in one LZ `bora::block` frame. Frames that do
/// not shrink are stored raw inside the frame (the codec's built-in
/// fallback), so this never inflates a batch beyond the 13-byte frame
/// header. Compression cost is charged to `ctx` like any other
/// storage-layer compression.
pub fn compress_chunk(messages: &[WireMessage], ctx: &mut IoCtx) -> Response {
    let mut w = Writer { buf: Vec::new() };
    w.msgs(messages);
    Response::StreamChunkLz(encode_frame(BlockCodec::Lzss, &w.buf, ctx))
}

/// Decode a [`Response::StreamChunkLz`] frame back into its message
/// batch. The frame's CRC32C is verified over the stored bytes before
/// any decompression, so a corrupted chunk surfaces as a [`ProtoError`],
/// never as silently wrong messages.
pub fn decompress_chunk(frame: &[u8]) -> ProtoResult<Vec<WireMessage>> {
    // Client-side wall-clock work: the virtual-cost model meters the
    // server, so the charge sink here is a throwaway.
    let mut ctx = IoCtx::new();
    let (body, used) = decode_frame(frame, "stream-chunk", &mut ctx)
        .map_err(|e| ProtoError(format!("bad compressed chunk: {e}")))?;
    if used != frame.len() {
        return Err(ProtoError(format!(
            "{} trailing bytes after compressed chunk frame",
            frame.len() - used
        )));
    }
    let mut r = Reader::new(&body);
    let messages = r.msgs()?;
    r.finish()?;
    Ok(messages)
}

// Response opcodes (request opcode | 0x80, errors in 0xE0+).
const OP_OK_OPEN: u8 = 0x81;
const OP_OK_TOPICS: u8 = 0x82;
const OP_OK_META: u8 = 0x83;
const OP_OK_READ: u8 = 0x84;
const OP_OK_STAT: u8 = 0x85;
const OP_OK_STATS: u8 = 0x86;
const OP_OK_SHUTDOWN: u8 = 0x87;
const OP_OK_TRACE: u8 = 0x88;
const OP_OK_STREAM_CHUNK: u8 = 0x89;
const OP_OK_STREAM_END: u8 = 0x8A;
const OP_OK_PONG: u8 = 0x8B;
const OP_OK_APPENDED: u8 = 0x8C;
const OP_OK_SEALED: u8 = 0x8D;
const OP_OK_METRICS: u8 = 0x8E;
/// A `READ_STREAM2` chunk: one `bora::block` frame (codec tag,
/// uncompressed length, physical length, CRC32C) whose logical bytes are
/// the plain `StreamChunk` body. Reusing the storage-layer frame means
/// wire chunks inherit its per-frame raw fallback (incompressible
/// batches cost 13 bytes of header, not a blow-up) and its checksum —
/// a bit-flipped chunk decodes to a typed error, never to garbage
/// messages.
const OP_OK_STREAM_CHUNK_LZ: u8 = 0x8F;
const OP_OK_QUERY_SCHEMA: u8 = 0x93;
const OP_OK_QUERY_CHUNK: u8 = 0x94;
const OP_OK_QUERY_END: u8 = 0x95;
const OP_ERROR: u8 = 0xE0;
const OP_OVERLOADED: u8 = 0xEE;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or touch) a container, pulling it into the handle cache.
    Open { container: String },
    /// List a container's topics.
    Topics { container: String },
    /// Fetch the container's raw metadata (`ContainerMeta::encode` bytes).
    Meta { container: String },
    /// Read messages of `topics`, optionally restricted to `[start, end]`.
    Read { container: String, topics: Vec<String>, range: Option<(Time, Time)> },
    /// Like `Read`, but answered with a sequence of
    /// [`Response::StreamChunk`] frames written as the server-side merge
    /// yields messages, closed by [`Response::StreamEnd`]. The worker's
    /// cache pin is held for the stream's whole lifetime.
    ReadStream { container: String, topics: Vec<String>, range: Option<(Time, Time)> },
    /// Like `ReadStream`, but announces that this client decodes
    /// [`Response::StreamChunkLz`] — the server may answer with
    /// compressed chunk frames (it still may send plain `StreamChunk`s;
    /// the capability is permission, not obligation).
    ReadStream2 { container: String, topics: Vec<String>, range: Option<(Time, Time)> },
    /// Append live messages to an ingest root (`bora-ingest`). Messages
    /// must be per-topic chronological; the whole batch is acked as a
    /// unit once its WAL frames are group-committed. Appends are shed
    /// *before* reads under load: the queue admits them only while it is
    /// less than half full, so a recording robot cannot starve analysts.
    Append { container: String, messages: Vec<WireMessage> },
    /// Seal the ingest root's memtable into sorted segment files and, if
    /// `compact`, merge every sealed segment into the next container
    /// generation.
    Seal { container: String, compact: bool },
    /// Execute a `bora-query` statement against a container (live
    /// ingest roots included — the server reads an MVCC snapshot).
    /// `partial: true` asks for flattened partial-aggregate rows
    /// instead of final values — the distributed fragment mode; it is
    /// a [`ErrorCode::BadQuery`] error for non-aggregate statements.
    Query { container: String, sql: String, partial: bool },
    /// Summary numbers for one container.
    Stat { container: String },
    /// Server-wide metrics snapshot.
    Stats,
    /// Drain the server's span buffers as a Chrome trace JSON document.
    /// Control-plane (skips the data queue); empty unless the server runs
    /// with tracing enabled (`BORA_TRACE=1`).
    Trace,
    /// Liveness/health probe. Control-plane (skips the data queue), so a
    /// saturated server still answers in O(1) — which is exactly what a
    /// cluster health tracker needs: the reply's queue depth *is* the
    /// overload signal, not a timeout.
    Ping,
    /// Full metrics scrape: the node's registry (counters, gauges,
    /// histograms with buckets) plus its slow-op tail, versioned so a
    /// newer poller can reject a layout it does not understand.
    /// Control-plane (skips the data queue) — a telemetry poller must
    /// see an overloaded node, not be shed by it.
    Metrics,
    /// Stop accepting work and shut the pool down.
    Shutdown,
}

/// Reply to [`Request::Ping`]: identity plus the two numbers a cluster
/// health tracker keys routing decisions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PingInfo {
    /// The serving node's stable identity within a cluster (0 for a
    /// standalone server).
    pub server_id: u32,
    /// Nanoseconds since the server process started its worker pool.
    pub uptime_ns: u64,
    /// Requests sitting in the bounded queue right now.
    pub queue_depth: u32,
}

/// Summary counters for one container (`STAT`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainerStat {
    pub topics: u32,
    pub messages: u64,
    pub data_bytes: u64,
    pub start: Time,
    pub end: Time,
}

/// One message returned by `READ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    pub topic: String,
    pub time: Time,
    pub data: Vec<u8>,
}

impl From<MessageRecord> for WireMessage {
    fn from(m: MessageRecord) -> Self {
        WireMessage { topic: m.topic, time: m.time, data: m.data }
    }
}

/// Latency summary for one op kind inside a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpSummary {
    pub count: u64,
    /// Wall-clock nanoseconds, measured submit → response.
    pub wall_min_ns: u64,
    pub wall_mean_ns: u64,
    pub wall_p99_ns: u64,
    /// Virtual nanoseconds charged by the storage cost model.
    pub virt_mean_ns: u64,
}

/// Server-wide metrics snapshot (`STATS`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Summaries keyed by op name (`open`, `topics`, `meta`, `read`,
    /// `stat`), sorted by name for deterministic encoding.
    pub ops: Vec<(String, OpSummary)>,
    /// Requests rejected with [`Response::Overloaded`].
    pub shed: u64,
    /// Requests sitting in the queue right now.
    pub queue_depth: u32,
    /// Bound of the request queue.
    pub queue_capacity: u32,
    /// Mean time requests spent parked in the queue before a worker took
    /// them (the queue-wait share of `wall_mean_ns`).
    pub queue_wait_mean_ns: u64,
    pub queue_wait_p99_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_len: u32,
    pub cache_capacity: u32,
}

impl StatsSnapshot {
    /// Total completed requests across all ops.
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.count).sum()
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    pub fn op(&self, name: &str) -> Option<&OpSummary> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Layout version of [`MetricsReport`]; bumped whenever the encoding
/// changes shape so pollers can reject reports they don't understand.
pub const METRICS_REPORT_VERSION: u32 = 1;

/// One entry of a node's slow-op ring (`METRICS`): an op that exceeded
/// the server's slow-op threshold, with enough identity to find its
/// spans in a merged trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowOpEntry {
    /// Trace id of the request, 0 when the request was untraced.
    pub trace_id: u64,
    /// Op name (`read`, `append`, …).
    pub op: String,
    /// Container/shard the op targeted; empty for container-less ops.
    pub container: String,
    /// Worker wall time, queue wait excluded.
    pub wall_ns: u64,
    /// Time parked in the bounded queue before a worker picked it up.
    pub queue_wait_ns: u64,
    /// The reporting node's server id.
    pub server_id: u32,
}

/// Versioned snapshot of one node's metrics registry plus its slow-op
/// tail — the `METRICS` reply a [`crate::ServeClient`] hands to the
/// cluster telemetry poller. Histograms travel with their full bucket
/// content (sparsely: only non-zero buckets), so merged cluster-wide
/// percentiles are bucket-exact rather than averages of percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// [`METRICS_REPORT_VERSION`] at encode time.
    pub version: u32,
    pub server_id: u32,
    /// Nanoseconds since the node's worker pool started.
    pub uptime_ns: u64,
    /// Sorted by name (registry order).
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub hists: Vec<(String, HistSummary)>,
    /// Most recent slow ops, oldest first, bounded by the server's ring.
    pub slow_ops: Vec<SlowOpEntry>,
}

impl MetricsReport {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Error category carried in an [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    NotAContainer = 1,
    UnknownTopic = 2,
    Corrupt = 3,
    Io = 4,
    BadRequest = 5,
    ShuttingDown = 6,
    /// A file's bytes failed CRC32C verification against the container
    /// MANIFEST. The server evicts the cached handle, so a retry reopens
    /// from the medium — transient read damage heals, persistent damage
    /// keeps answering with this code (then `bora fsck --repair`).
    ChecksumMismatch = 7,
    /// The request's propagated deadline budget was already spent when
    /// the server picked the job up, so it shed the work without doing
    /// it. Permanent by design: the budget is gone, and retrying or
    /// failing over cannot buy it back — the caller must either accept
    /// the miss or issue a fresh request with a fresh budget.
    DeadlineExceeded = 8,
    /// The `QUERY` statement failed to lex, parse, or plan. The message
    /// carries the position-annotated rendering; the request can never
    /// succeed as written, so the code is permanent — but the
    /// *connection* survives, exactly like any other request error.
    BadQuery = 9,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::NotAContainer,
            2 => ErrorCode::UnknownTopic,
            3 => ErrorCode::Corrupt,
            4 => ErrorCode::Io,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::ChecksumMismatch,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::BadQuery,
            _ => return None,
        })
    }

    /// Whether retrying the same request may succeed without operator
    /// intervention. `Io` faults and checksum failures can heal (the
    /// server reopens the handle); a missing container, unknown topic,
    /// structural corruption, or a malformed request will fail the same
    /// way every time.
    pub fn is_transient(self) -> bool {
        match self {
            ErrorCode::Io | ErrorCode::ChecksumMismatch => true,
            ErrorCode::NotAContainer
            | ErrorCode::UnknownTopic
            | ErrorCode::Corrupt
            | ErrorCode::BadRequest
            | ErrorCode::ShuttingDown
            | ErrorCode::DeadlineExceeded
            | ErrorCode::BadQuery => false,
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Opened {
        stat: ContainerStat,
        cached: bool,
    },
    Topics(Vec<String>),
    /// Raw `ContainerMeta::encode` bytes; the client decodes them with
    /// `bora::ContainerMeta::decode`, reusing the container's own format.
    Meta(Vec<u8>),
    Read(Vec<WireMessage>),
    /// One batch of a `READ_STREAM` answer; more frames follow.
    StreamChunk(Vec<WireMessage>),
    /// One batch of a `READ_STREAM2` answer, carried as a
    /// `bora::block` frame wrapping the plain chunk body. Decode with
    /// [`decompress_chunk`]; produce with [`compress_chunk`].
    StreamChunkLz(Vec<u8>),
    /// Terminal frame of a `READ_STREAM` answer: total messages streamed.
    StreamEnd {
        messages: u64,
    },
    /// First frame of a `QUERY` answer: result column names.
    QuerySchema(Vec<String>),
    /// One batch of a `QUERY` answer: rows in the `bora_query::wire`
    /// blob encoding (opaque to this layer).
    QueryChunk(Vec<u8>),
    /// Terminal frame of a `QUERY` answer: total rows streamed, plus
    /// the rendered plan for `EXPLAIN` / `EXPLAIN ANALYZE` (empty
    /// otherwise).
    QueryEnd {
        rows: u64,
        explain: String,
    },
    /// Reply to [`Request::Append`]: messages durably written and the
    /// store's MVCC epoch after the batch.
    Appended {
        appended: u64,
        epoch: u64,
    },
    /// Reply to [`Request::Seal`]: the epoch after the operation and how
    /// many sealed batches still await compaction (0 right after a
    /// `compact: true` seal — the compaction-lag signal).
    Sealed {
        epoch: u64,
        sealed_segments: u32,
    },
    Stat(ContainerStat),
    Stats(StatsSnapshot),
    /// Full registry scrape (see [`Request::Metrics`]).
    Metrics(MetricsReport),
    /// Chrome `trace_event` JSON text drained from the server's span
    /// buffers (see [`Request::Trace`]).
    Trace(String),
    /// Health-probe reply (see [`Request::Ping`]).
    Pong(PingInfo),
    ShuttingDown,
    Error {
        code: ErrorCode,
        message: String,
    },
    /// The bounded request queue was full; retry later. Sent without
    /// queueing, so an overloaded server answers this in O(1).
    Overloaded,
}

/// Decode failure: the frame was structurally invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

type ProtoResult<T> = Result<T, ProtoError>;

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(op: u8) -> Self {
        Writer { buf: vec![op] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn time(&mut self, t: Time) {
        self.u32(t.sec);
        self.u32(t.nsec);
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn stat(&mut self, s: &ContainerStat) {
        self.u32(s.topics);
        self.u64(s.messages);
        self.u64(s.data_bytes);
        self.time(s.start);
        self.time(s.end);
    }
    fn msgs(&mut self, msgs: &[WireMessage]) {
        self.u32(msgs.len() as u32);
        for m in msgs {
            self.str(&m.topic);
            self.time(m.time);
            self.bytes(&m.data);
        }
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Histogram with sparse buckets: exact count/sum/min, then
    /// `(index, value)` pairs for the non-zero buckets only — a typical
    /// latency histogram occupies a dozen of the 64.
    fn hist(&mut self, h: &HistSummary) {
        self.u64(h.count);
        self.u64(h.sum);
        self.u64(h.min);
        let nonzero = h.buckets.iter().filter(|&&b| b != 0).count();
        self.u8(nonzero as u8);
        for (i, &b) in h.buckets.iter().enumerate() {
            if b != 0 {
                self.u8(i as u8);
                self.u64(b);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> ProtoResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> ProtoResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> ProtoResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> ProtoResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> ProtoResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn time(&mut self) -> ProtoResult<Time> {
        Ok(Time { sec: self.u32()?, nsec: self.u32()? })
    }
    fn str(&mut self) -> ProtoResult<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError("non-UTF8 string field".into()))
    }
    fn bytes(&mut self) -> ProtoResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn stat(&mut self) -> ProtoResult<ContainerStat> {
        Ok(ContainerStat {
            topics: self.u32()?,
            messages: self.u64()?,
            data_bytes: self.u64()?,
            start: self.time()?,
            end: self.time()?,
        })
    }
    fn msgs(&mut self) -> ProtoResult<Vec<WireMessage>> {
        let n = self.u32()? as usize;
        let mut messages = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            messages.push(WireMessage {
                topic: self.str()?,
                time: self.time()?,
                data: self.bytes()?,
            });
        }
        Ok(messages)
    }
    fn i64(&mut self) -> ProtoResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn hist(&mut self) -> ProtoResult<HistSummary> {
        let mut h = HistSummary {
            count: self.u64()?,
            sum: self.u64()?,
            min: self.u64()?,
            buckets: [0; BUCKETS],
        };
        let nonzero = self.u8()? as usize;
        for _ in 0..nonzero {
            let idx = self.u8()? as usize;
            if idx >= BUCKETS {
                return Err(ProtoError(format!("histogram bucket index {idx} out of range")));
            }
            h.buckets[idx] = self.u64()?;
        }
        Ok(h)
    }
    fn finish(self) -> ProtoResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError(format!("{} trailing bytes after payload", self.buf.len() - self.pos)))
        }
    }
}

impl Request {
    /// The container a data-plane request targets, if any.
    pub fn container(&self) -> Option<&str> {
        match self {
            Request::Open { container }
            | Request::Topics { container }
            | Request::Meta { container }
            | Request::Read { container, .. }
            | Request::ReadStream { container, .. }
            | Request::ReadStream2 { container, .. }
            | Request::Append { container, .. }
            | Request::Seal { container, .. }
            | Request::Query { container, .. }
            | Request::Stat { container } => Some(container),
            Request::Stats
            | Request::Metrics
            | Request::Trace
            | Request::Ping
            | Request::Shutdown => None,
        }
    }

    /// Human-readable op name, used as the metrics key.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Topics { .. } => "topics",
            Request::Meta { .. } => "meta",
            Request::Read { .. } => "read",
            // Same op as ReadStream under a different chunk encoding, so
            // both share one metrics/SLO key.
            Request::ReadStream { .. } | Request::ReadStream2 { .. } => "read_stream",
            Request::Append { .. } => "append",
            Request::Seal { .. } => "seal",
            Request::Query { .. } => "query",
            Request::Stat { .. } => "stat",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace => "trace",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w;
        match self {
            Request::Open { container } => {
                w = Writer::new(OP_OPEN);
                w.str(container);
            }
            Request::Topics { container } => {
                w = Writer::new(OP_TOPICS);
                w.str(container);
            }
            Request::Meta { container } => {
                w = Writer::new(OP_META);
                w.str(container);
            }
            Request::Read { container, topics, range }
            | Request::ReadStream { container, topics, range }
            | Request::ReadStream2 { container, topics, range } => {
                w = Writer::new(match self {
                    Request::Read { .. } => OP_READ,
                    Request::ReadStream { .. } => OP_READ_STREAM,
                    _ => OP_READ_STREAM2,
                });
                w.str(container);
                w.u16(topics.len() as u16);
                for t in topics {
                    w.str(t);
                }
                match range {
                    Some((start, end)) => {
                        w.u8(1);
                        w.time(*start);
                        w.time(*end);
                    }
                    None => w.u8(0),
                }
            }
            Request::Append { container, messages } => {
                w = Writer::new(OP_APPEND);
                w.str(container);
                w.msgs(messages);
            }
            Request::Seal { container, compact } => {
                w = Writer::new(OP_SEAL);
                w.str(container);
                w.u8(*compact as u8);
            }
            Request::Query { container, sql, partial } => {
                w = Writer::new(OP_QUERY);
                w.str(container);
                // u32 length: query text has no natural u16 bound.
                w.bytes(sql.as_bytes());
                w.u8(*partial as u8);
            }
            Request::Stat { container } => {
                w = Writer::new(OP_STAT);
                w.str(container);
            }
            Request::Stats => w = Writer::new(OP_STATS),
            Request::Metrics => w = Writer::new(OP_METRICS),
            Request::Trace => w = Writer::new(OP_TRACE),
            Request::Ping => w = Writer::new(OP_PING),
            Request::Shutdown => w = Writer::new(OP_SHUTDOWN),
        }
        w.buf
    }

    pub fn decode(payload: &[u8]) -> ProtoResult<Request> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let req = match op {
            OP_OPEN => Request::Open { container: r.str()? },
            OP_TOPICS => Request::Topics { container: r.str()? },
            OP_META => Request::Meta { container: r.str()? },
            OP_READ | OP_READ_STREAM | OP_READ_STREAM2 => {
                let container = r.str()?;
                let n = r.u16()? as usize;
                let mut topics = Vec::with_capacity(n);
                for _ in 0..n {
                    topics.push(r.str()?);
                }
                let range = match r.u8()? {
                    0 => None,
                    1 => Some((r.time()?, r.time()?)),
                    v => return Err(ProtoError(format!("bad range marker {v}"))),
                };
                match op {
                    OP_READ => Request::Read { container, topics, range },
                    OP_READ_STREAM => Request::ReadStream { container, topics, range },
                    _ => Request::ReadStream2 { container, topics, range },
                }
            }
            OP_APPEND => {
                let container = r.str()?;
                Request::Append { container, messages: r.msgs()? }
            }
            OP_SEAL => {
                let container = r.str()?;
                let compact = match r.u8()? {
                    0 => false,
                    1 => true,
                    v => return Err(ProtoError(format!("bad compact marker {v}"))),
                };
                Request::Seal { container, compact }
            }
            OP_QUERY => {
                let container = r.str()?;
                let sql = String::from_utf8(r.bytes()?)
                    .map_err(|_| ProtoError("query text is not UTF-8".into()))?;
                let partial = match r.u8()? {
                    0 => false,
                    1 => true,
                    v => return Err(ProtoError(format!("bad partial marker {v}"))),
                };
                Request::Query { container, sql, partial }
            }
            OP_STAT => Request::Stat { container: r.str()? },
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            OP_TRACE => Request::Trace,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError(format!("unknown request opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }

    /// Encode with an optional trace-context prefix. With `ctx: None`
    /// the output is byte-identical to [`Request::encode`] — a client
    /// that isn't tracing is indistinguishable from one that predates
    /// tracing, which is what keeps old servers compatible.
    pub fn encode_traced(&self, ctx: Option<TraceContext>) -> Vec<u8> {
        let Some(c) = ctx else { return self.encode() };
        let inner = self.encode();
        let mut buf = Vec::with_capacity(TRACE_CTX_LEN + inner.len());
        buf.push(OP_TRACE_CTX);
        buf.extend_from_slice(&c.trace_id.to_le_bytes());
        buf.extend_from_slice(&c.parent_span.to_le_bytes());
        buf.push(c.sampled as u8);
        buf.extend_from_slice(&inner);
        buf
    }

    /// Decode a request payload, peeling the optional trace-context
    /// prefix. Plain payloads (old clients) decode to `(req, None)`.
    pub fn decode_traced(payload: &[u8]) -> ProtoResult<(Request, Option<TraceContext>)> {
        if payload.first() != Some(&OP_TRACE_CTX) {
            return Ok((Request::decode(payload)?, None));
        }
        if payload.len() < TRACE_CTX_LEN {
            return Err(ProtoError("truncated trace-context header".into()));
        }
        let trace_id = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let parent_span = u64::from_le_bytes(payload[9..17].try_into().unwrap());
        let flags = payload[17];
        if flags & !1 != 0 {
            return Err(ProtoError(format!("unknown trace-context flags {flags:#04x}")));
        }
        let ctx = TraceContext { trace_id, parent_span, sampled: flags & 1 != 0 };
        Ok((Request::decode(&payload[TRACE_CTX_LEN..])?, Some(ctx)))
    }

    /// Encode with both optional prefixes: the deadline header is the
    /// *outermost* layer, wrapping the (possibly trace-wrapped) payload.
    /// With both `None` the output is byte-identical to
    /// [`Request::encode`].
    pub fn encode_framed(&self, ctx: Option<TraceContext>, deadline_ns: Option<u64>) -> Vec<u8> {
        let inner = self.encode_traced(ctx);
        let Some(budget) = deadline_ns else { return inner };
        let mut buf = Vec::with_capacity(DEADLINE_LEN + inner.len());
        buf.push(OP_DEADLINE);
        buf.extend_from_slice(&budget.to_le_bytes());
        buf.extend_from_slice(&inner);
        buf
    }

    /// Decode a request payload, peeling the optional deadline prefix
    /// and then the optional trace-context prefix. Plain payloads (old
    /// clients) decode to `(req, None, None)`.
    #[allow(clippy::type_complexity)]
    pub fn decode_framed(
        payload: &[u8],
    ) -> ProtoResult<(Request, Option<TraceContext>, Option<u64>)> {
        if payload.first() != Some(&OP_DEADLINE) {
            let (req, ctx) = Request::decode_traced(payload)?;
            return Ok((req, ctx, None));
        }
        if payload.len() < DEADLINE_LEN {
            return Err(ProtoError("truncated deadline header".into()));
        }
        let budget_ns = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let (req, ctx) = Request::decode_traced(&payload[DEADLINE_LEN..])?;
        Ok((req, ctx, Some(budget_ns)))
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut w;
        match self {
            Response::Opened { stat, cached } => {
                w = Writer::new(OP_OK_OPEN);
                w.stat(stat);
                w.u8(*cached as u8);
            }
            Response::Topics(topics) => {
                w = Writer::new(OP_OK_TOPICS);
                w.u16(topics.len() as u16);
                for t in topics {
                    w.str(t);
                }
            }
            Response::Meta(bytes) => {
                w = Writer::new(OP_OK_META);
                w.bytes(bytes);
            }
            Response::Read(messages) => {
                w = Writer::new(OP_OK_READ);
                w.msgs(messages);
            }
            Response::StreamChunk(messages) => {
                w = Writer::new(OP_OK_STREAM_CHUNK);
                w.msgs(messages);
            }
            Response::StreamChunkLz(frame) => {
                w = Writer::new(OP_OK_STREAM_CHUNK_LZ);
                w.bytes(frame);
            }
            Response::StreamEnd { messages } => {
                w = Writer::new(OP_OK_STREAM_END);
                w.u64(*messages);
            }
            Response::QuerySchema(cols) => {
                w = Writer::new(OP_OK_QUERY_SCHEMA);
                w.u16(cols.len() as u16);
                for c in cols {
                    w.str(c);
                }
            }
            Response::QueryChunk(blob) => {
                w = Writer::new(OP_OK_QUERY_CHUNK);
                w.bytes(blob);
            }
            Response::QueryEnd { rows, explain } => {
                w = Writer::new(OP_OK_QUERY_END);
                w.u64(*rows);
                w.bytes(explain.as_bytes());
            }
            Response::Appended { appended, epoch } => {
                w = Writer::new(OP_OK_APPENDED);
                w.u64(*appended);
                w.u64(*epoch);
            }
            Response::Sealed { epoch, sealed_segments } => {
                w = Writer::new(OP_OK_SEALED);
                w.u64(*epoch);
                w.u32(*sealed_segments);
            }
            Response::Stat(stat) => {
                w = Writer::new(OP_OK_STAT);
                w.stat(stat);
            }
            Response::Stats(s) => {
                w = Writer::new(OP_OK_STATS);
                w.u16(s.ops.len() as u16);
                for (name, op) in &s.ops {
                    w.str(name);
                    w.u64(op.count);
                    w.u64(op.wall_min_ns);
                    w.u64(op.wall_mean_ns);
                    w.u64(op.wall_p99_ns);
                    w.u64(op.virt_mean_ns);
                }
                w.u64(s.shed);
                w.u32(s.queue_depth);
                w.u32(s.queue_capacity);
                w.u64(s.queue_wait_mean_ns);
                w.u64(s.queue_wait_p99_ns);
                w.u64(s.cache_hits);
                w.u64(s.cache_misses);
                w.u64(s.cache_evictions);
                w.u32(s.cache_len);
                w.u32(s.cache_capacity);
            }
            Response::Metrics(m) => {
                w = Writer::new(OP_OK_METRICS);
                w.u32(m.version);
                w.u32(m.server_id);
                w.u64(m.uptime_ns);
                w.u16(m.counters.len() as u16);
                for (name, v) in &m.counters {
                    w.str(name);
                    w.u64(*v);
                }
                w.u16(m.gauges.len() as u16);
                for (name, v) in &m.gauges {
                    w.str(name);
                    w.i64(*v);
                }
                w.u16(m.hists.len() as u16);
                for (name, h) in &m.hists {
                    w.str(name);
                    w.hist(h);
                }
                w.u16(m.slow_ops.len() as u16);
                for s in &m.slow_ops {
                    w.u64(s.trace_id);
                    w.str(&s.op);
                    w.str(&s.container);
                    w.u64(s.wall_ns);
                    w.u64(s.queue_wait_ns);
                    w.u32(s.server_id);
                }
            }
            Response::Trace(json) => {
                w = Writer::new(OP_OK_TRACE);
                w.bytes(json.as_bytes());
            }
            Response::Pong(p) => {
                w = Writer::new(OP_OK_PONG);
                w.u32(p.server_id);
                w.u64(p.uptime_ns);
                w.u32(p.queue_depth);
            }
            Response::ShuttingDown => w = Writer::new(OP_OK_SHUTDOWN),
            Response::Error { code, message } => {
                w = Writer::new(OP_ERROR);
                w.u8(*code as u8);
                w.str(message);
            }
            Response::Overloaded => w = Writer::new(OP_OVERLOADED),
        }
        w.buf
    }

    pub fn decode(payload: &[u8]) -> ProtoResult<Response> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let resp = match op {
            OP_OK_OPEN => {
                let stat = r.stat()?;
                let cached = r.u8()? != 0;
                Response::Opened { stat, cached }
            }
            OP_OK_TOPICS => {
                let n = r.u16()? as usize;
                let mut topics = Vec::with_capacity(n);
                for _ in 0..n {
                    topics.push(r.str()?);
                }
                Response::Topics(topics)
            }
            OP_OK_META => Response::Meta(r.bytes()?),
            OP_OK_READ => Response::Read(r.msgs()?),
            OP_OK_STREAM_CHUNK => Response::StreamChunk(r.msgs()?),
            OP_OK_STREAM_CHUNK_LZ => Response::StreamChunkLz(r.bytes()?),
            OP_OK_STREAM_END => Response::StreamEnd { messages: r.u64()? },
            OP_OK_QUERY_SCHEMA => {
                let n = r.u16()? as usize;
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    cols.push(r.str()?);
                }
                Response::QuerySchema(cols)
            }
            OP_OK_QUERY_CHUNK => Response::QueryChunk(r.bytes()?),
            OP_OK_QUERY_END => {
                let rows = r.u64()?;
                let explain = String::from_utf8(r.bytes()?)
                    .map_err(|_| ProtoError("explain text is not UTF-8".into()))?;
                Response::QueryEnd { rows, explain }
            }
            OP_OK_APPENDED => Response::Appended { appended: r.u64()?, epoch: r.u64()? },
            OP_OK_SEALED => Response::Sealed { epoch: r.u64()?, sealed_segments: r.u32()? },
            OP_OK_STAT => Response::Stat(r.stat()?),
            OP_OK_STATS => {
                let n = r.u16()? as usize;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
                    let op = OpSummary {
                        count: r.u64()?,
                        wall_min_ns: r.u64()?,
                        wall_mean_ns: r.u64()?,
                        wall_p99_ns: r.u64()?,
                        virt_mean_ns: r.u64()?,
                    };
                    ops.push((name, op));
                }
                Response::Stats(StatsSnapshot {
                    ops,
                    shed: r.u64()?,
                    queue_depth: r.u32()?,
                    queue_capacity: r.u32()?,
                    queue_wait_mean_ns: r.u64()?,
                    queue_wait_p99_ns: r.u64()?,
                    cache_hits: r.u64()?,
                    cache_misses: r.u64()?,
                    cache_evictions: r.u64()?,
                    cache_len: r.u32()?,
                    cache_capacity: r.u32()?,
                })
            }
            OP_OK_METRICS => {
                let version = r.u32()?;
                let server_id = r.u32()?;
                let uptime_ns = r.u64()?;
                let nc = r.u16()? as usize;
                let mut counters = Vec::with_capacity(nc);
                for _ in 0..nc {
                    counters.push((r.str()?, r.u64()?));
                }
                let ng = r.u16()? as usize;
                let mut gauges = Vec::with_capacity(ng);
                for _ in 0..ng {
                    gauges.push((r.str()?, r.i64()?));
                }
                let nh = r.u16()? as usize;
                let mut hists = Vec::with_capacity(nh);
                for _ in 0..nh {
                    hists.push((r.str()?, r.hist()?));
                }
                let ns = r.u16()? as usize;
                let mut slow_ops = Vec::with_capacity(ns);
                for _ in 0..ns {
                    slow_ops.push(SlowOpEntry {
                        trace_id: r.u64()?,
                        op: r.str()?,
                        container: r.str()?,
                        wall_ns: r.u64()?,
                        queue_wait_ns: r.u64()?,
                        server_id: r.u32()?,
                    });
                }
                Response::Metrics(MetricsReport {
                    version,
                    server_id,
                    uptime_ns,
                    counters,
                    gauges,
                    hists,
                    slow_ops,
                })
            }
            OP_OK_TRACE => {
                let raw = r.bytes()?;
                Response::Trace(
                    String::from_utf8(raw)
                        .map_err(|_| ProtoError("non-UTF8 trace document".into()))?,
                )
            }
            OP_OK_PONG => Response::Pong(PingInfo {
                server_id: r.u32()?,
                uptime_ns: r.u64()?,
                queue_depth: r.u32()?,
            }),
            OP_OK_SHUTDOWN => Response::ShuttingDown,
            OP_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)
                    .ok_or_else(|| ProtoError("unknown error code".into()))?;
                Response::Error { code, message: r.str()? }
            }
            OP_OVERLOADED => Response::Overloaded,
            other => return Err(ProtoError(format!("unknown response opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Wrap a payload in a length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a frame header, validating the length bound.
pub fn frame_len(header: [u8; FRAME_HEADER_LEN]) -> ProtoResult<usize> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError(format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}")));
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Open { container: "/c/hs0".into() });
        roundtrip_req(Request::Topics { container: "".into() });
        roundtrip_req(Request::Meta { container: "/c".into() });
        roundtrip_req(Request::Read {
            container: "/c/hs0".into(),
            topics: vec!["/camera/depth".into(), "/imu".into()],
            range: Some((Time::new(3, 14), Time::new(10, 0))),
        });
        roundtrip_req(Request::Read { container: "/c".into(), topics: vec![], range: None });
        roundtrip_req(Request::ReadStream {
            container: "/c/hs0".into(),
            topics: vec!["/imu".into()],
            range: Some((Time::new(1, 0), Time::new(2, 0))),
        });
        roundtrip_req(Request::ReadStream { container: "/c".into(), topics: vec![], range: None });
        roundtrip_req(Request::ReadStream2 {
            container: "/c/hs0".into(),
            topics: vec!["/imu".into(), "/cam".into()],
            range: Some((Time::new(1, 0), Time::new(2, 0))),
        });
        roundtrip_req(Request::ReadStream2 { container: "/c".into(), topics: vec![], range: None });
        roundtrip_req(Request::Append {
            container: "/live".into(),
            messages: vec![
                WireMessage { topic: "/imu".into(), time: Time::new(3, 14), data: vec![1, 2] },
                WireMessage { topic: "/cam".into(), time: Time::new(3, 15), data: vec![] },
            ],
        });
        roundtrip_req(Request::Append { container: "/live".into(), messages: vec![] });
        roundtrip_req(Request::Seal { container: "/live".into(), compact: true });
        roundtrip_req(Request::Seal { container: "/live".into(), compact: false });
        roundtrip_req(Request::Query {
            container: "/c/hs0".into(),
            sql: "SELECT count() FROM '/imu' WHERE time >= 1.0".into(),
            partial: true,
        });
        roundtrip_req(Request::Query { container: "/c".into(), sql: "".into(), partial: false });
        // Query text is u32-length-prefixed: no u16 ceiling on statements.
        roundtrip_req(Request::Query {
            container: "/c".into(),
            sql: format!("SELECT time FROM '/t' WHERE {}", "x.y > 1 AND ".repeat(10_000)),
            partial: false,
        });
        roundtrip_req(Request::Stat { container: "/c".into() });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Trace);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn trace_context_prefix_roundtrips() {
        let req =
            Request::Read { container: "/c/hs0".into(), topics: vec!["/imu".into()], range: None };
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF_0042, parent_span: 77, sampled: true };
        let traced = req.encode_traced(Some(ctx));
        assert_eq!(Request::decode_traced(&traced).unwrap(), (req.clone(), Some(ctx)));
        // Unsampled bit travels too.
        let off = TraceContext { sampled: false, ..ctx };
        let (r2, c2) = Request::decode_traced(&req.encode_traced(Some(off))).unwrap();
        assert_eq!((r2, c2), (req.clone(), Some(off)));
        // No context → byte-identical to the pre-trace encoding, and
        // decode_traced accepts it (old client → new server).
        assert_eq!(req.encode_traced(None), req.encode());
        assert_eq!(Request::decode_traced(&req.encode()).unwrap(), (req.clone(), None));
        // Plain decode rejects the prefixed form the way an old server
        // would reject any unknown opcode: an error, not a panic.
        assert!(Request::decode(&traced).is_err());
        // Malformed prefixes error cleanly.
        assert!(Request::decode_traced(&[0x0F, 1, 2]).is_err());
        let mut bad_flags = req.encode_traced(Some(ctx));
        bad_flags[17] = 0xFE;
        assert!(Request::decode_traced(&bad_flags).is_err());
    }

    #[test]
    fn deadline_prefix_roundtrips() {
        let req =
            Request::Read { container: "/c/hs0".into(), topics: vec!["/imu".into()], range: None };
        let ctx = TraceContext { trace_id: 7, parent_span: 8, sampled: true };
        // Deadline alone.
        let framed = req.encode_framed(None, Some(1_500_000));
        assert_eq!(Request::decode_framed(&framed).unwrap(), (req.clone(), None, Some(1_500_000)));
        // Deadline wrapping a trace context (deadline is outermost).
        let both = req.encode_framed(Some(ctx), Some(42));
        assert_eq!(both[0], 0x10);
        assert_eq!(both[DEADLINE_LEN], 0x0F);
        assert_eq!(Request::decode_framed(&both).unwrap(), (req.clone(), Some(ctx), Some(42)));
        // Trace context alone stays the pure trace encoding.
        assert_eq!(req.encode_framed(Some(ctx), None), req.encode_traced(Some(ctx)));
        // Neither prefix → byte-identical to the bare encoding, and
        // decode_framed accepts old-client payloads.
        assert_eq!(req.encode_framed(None, None), req.encode());
        assert_eq!(Request::decode_framed(&req.encode()).unwrap(), (req.clone(), None, None));
        // Truncated deadline header errors cleanly, as does a deadline
        // prefix wrapping garbage.
        assert!(Request::decode_framed(&[0x10, 1, 2]).is_err());
        assert!(Request::decode_framed(&[0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF]).is_err());
        // Plain decode rejects the prefixed form (old server behaviour).
        assert!(Request::decode(&framed).is_err());
    }

    #[test]
    fn corr_prefix_roundtrips() {
        let inner = Request::Ping.encode();
        let framed = wrap_corr(0xDEAD_BEEF, &inner);
        assert_eq!(framed[0], OP_CORR);
        assert_eq!(framed.len(), CORR_LEN + inner.len());
        assert_eq!(peel_corr(&framed), (Some(0xDEAD_BEEF), &inner[..]));
        // Unprefixed payloads pass through untouched — plain peers.
        assert_eq!(peel_corr(&inner), (None, &inner[..]));
        // A response's opcode space (0x8x/0xEx) can never be mistaken
        // for the prefix, and a short 0x11 frame is not peeled.
        assert_eq!(peel_corr(&[OP_CORR, 1]), (None, &[OP_CORR, 1][..]));
        let resp = Response::Pong(PingInfo::default()).encode();
        assert_eq!(peel_corr(&resp).0, None);
        // Seq wraps with the u32 — stamping is cheap and unbounded.
        let w = wrap_corr(u32::MAX, &inner);
        assert_eq!(peel_corr(&w).0, Some(u32::MAX));
    }

    #[test]
    fn metrics_report_roundtrips() {
        let mut hist = HistSummary { count: 3, sum: 1_000_000, min: 120, ..Default::default() };
        hist.buckets[7] = 2;
        hist.buckets[19] = 1;
        let report = MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id: 2,
            uptime_ns: 5_000_000_000,
            counters: vec![("serve.shed".into(), 4), ("cache.hits".into(), 99)],
            gauges: vec![("serve.queue_depth".into(), -1), ("serve.inflight".into(), 12)],
            hists: vec![
                ("serve.op.read.wall_ns".into(), hist),
                ("empty".into(), HistSummary::default()),
            ],
            slow_ops: vec![SlowOpEntry {
                trace_id: 42,
                op: "read".into(),
                container: "/c/hs0".into(),
                wall_ns: 25_000_000,
                queue_wait_ns: 3_000,
                server_id: 2,
            }],
        };
        roundtrip_resp(Response::Metrics(report.clone()));
        assert_eq!(report.counter("cache.hits"), 99);
        assert_eq!(report.counter("missing"), 0);
        assert_eq!(report.gauge("serve.queue_depth"), Some(-1));
        assert_eq!(report.hist("serve.op.read.wall_ns").unwrap().count, 3);
        roundtrip_resp(Response::Metrics(MetricsReport::default()));
        // A sparse histogram with an out-of-range bucket index is rejected.
        let mut r = super::Reader::new(&[
            0, 0, 0, 0, 0, 0, 0, 0, // count
            0, 0, 0, 0, 0, 0, 0, 0, // sum
            0, 0, 0, 0, 0, 0, 0, 0, // min
            1, 64, 1, 0, 0, 0, 0, 0, 0, 0, // one bucket at index 64 (out of range)
        ]);
        assert!(r.hist().is_err());
    }

    #[test]
    fn response_roundtrips() {
        let stat = ContainerStat {
            topics: 7,
            messages: 12_345,
            data_bytes: 1 << 30,
            start: Time::new(1, 2),
            end: Time::new(100, 999_999_999),
        };
        roundtrip_resp(Response::Opened { stat: stat.clone(), cached: true });
        roundtrip_resp(Response::Topics(vec!["/imu".into(), "/tf".into()]));
        roundtrip_resp(Response::Meta(vec![1, 2, 3, 255]));
        roundtrip_resp(Response::Read(vec![
            WireMessage { topic: "/imu".into(), time: Time::new(5, 0), data: vec![0; 64] },
            WireMessage { topic: "/tf".into(), time: Time::new(5, 1), data: vec![] },
        ]));
        roundtrip_resp(Response::StreamChunk(vec![WireMessage {
            topic: "/imu".into(),
            time: Time::new(6, 7),
            data: vec![9; 16],
        }]));
        roundtrip_resp(Response::StreamChunk(vec![]));
        roundtrip_resp(Response::StreamEnd { messages: 42 });
        roundtrip_resp(Response::QuerySchema(vec!["time".into(), "__count".into()]));
        roundtrip_resp(Response::QuerySchema(vec![]));
        roundtrip_resp(Response::QueryChunk(vec![0, 1, 2, 254, 255]));
        roundtrip_resp(Response::QueryChunk(vec![]));
        roundtrip_resp(Response::QueryEnd { rows: 9_000, explain: "Scan topics=[/imu]".into() });
        roundtrip_resp(Response::QueryEnd { rows: 0, explain: "".into() });
        roundtrip_resp(Response::Error {
            code: ErrorCode::BadQuery,
            message: "SELECT\n^ expected an expression".into(),
        });
        roundtrip_resp(Response::Appended { appended: 17, epoch: 930 });
        roundtrip_resp(Response::Sealed { epoch: 931, sealed_segments: 3 });
        roundtrip_resp(Response::Stat(stat));
        roundtrip_resp(Response::Stats(StatsSnapshot {
            ops: vec![
                (
                    "open".into(),
                    OpSummary {
                        count: 3,
                        wall_min_ns: 10,
                        wall_mean_ns: 20,
                        wall_p99_ns: 30,
                        virt_mean_ns: 40,
                    },
                ),
                ("read".into(), OpSummary::default()),
            ],
            shed: 9,
            queue_depth: 2,
            queue_capacity: 64,
            queue_wait_mean_ns: 1_234,
            queue_wait_p99_ns: 8_191,
            cache_hits: 100,
            cache_misses: 4,
            cache_evictions: 1,
            cache_len: 3,
            cache_capacity: 4,
        }));
        roundtrip_resp(Response::Trace("{\"traceEvents\":[]}".into()));
        roundtrip_resp(Response::Pong(PingInfo {
            server_id: 3,
            uptime_ns: 987_654_321,
            queue_depth: 17,
        }));
        roundtrip_resp(Response::Pong(PingInfo::default()));
        roundtrip_resp(Response::ShuttingDown);
        roundtrip_resp(Response::Error { code: ErrorCode::UnknownTopic, message: "/nope".into() });
        roundtrip_resp(Response::Error {
            code: ErrorCode::ChecksumMismatch,
            message: "t/data".into(),
        });
        roundtrip_resp(Response::Overloaded);
    }

    #[test]
    fn compressed_chunk_roundtrips() {
        let mut ctx = IoCtx::new();
        // Compressible batch: repetitive payloads shrink on the wire.
        let msgs: Vec<WireMessage> = (0..64)
            .map(|i| WireMessage {
                topic: "/imu".into(),
                time: Time::new(100 + i, 0),
                data: vec![0u8; 256],
            })
            .collect();
        let resp = compress_chunk(&msgs, &mut ctx);
        let Response::StreamChunkLz(frame) = &resp else { panic!("expected lz chunk") };
        let mut plain = Writer { buf: Vec::new() };
        plain.msgs(&msgs);
        assert!(
            frame.len() < plain.buf.len() / 2,
            "mostly-zero batch must compress ≥2x: {} vs {}",
            frame.len(),
            plain.buf.len()
        );
        assert_eq!(decompress_chunk(frame).unwrap(), msgs);
        roundtrip_resp(resp);

        // Empty batch and incompressible batch still roundtrip (raw
        // fallback inside the frame).
        let empty = compress_chunk(&[], &mut ctx);
        let Response::StreamChunkLz(f) = &empty else { panic!() };
        assert_eq!(decompress_chunk(f).unwrap(), Vec::<WireMessage>::new());
        let noise: Vec<WireMessage> = (0..8)
            .map(|i| WireMessage {
                topic: format!("/t{i}"),
                time: Time::new(i, 7),
                data: (0..97u32)
                    .map(|j| (j.wrapping_mul(2654435761).wrapping_add(i)) as u8)
                    .collect(),
            })
            .collect();
        let Response::StreamChunkLz(f) = compress_chunk(&noise, &mut ctx) else { panic!() };
        assert_eq!(decompress_chunk(&f).unwrap(), noise);

        // A flipped bit fails the frame CRC: typed error, no garbage.
        let Response::StreamChunkLz(mut bad) = compress_chunk(&msgs, &mut ctx) else { panic!() };
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decompress_chunk(&bad).is_err());
        // Trailing bytes after the frame are rejected too.
        let Response::StreamChunkLz(mut long) = compress_chunk(&msgs, &mut ctx) else { panic!() };
        long.push(0);
        assert!(decompress_chunk(&long).is_err());
    }

    #[test]
    fn transient_classification() {
        assert!(ErrorCode::Io.is_transient());
        assert!(ErrorCode::ChecksumMismatch.is_transient());
        for code in [
            ErrorCode::NotAContainer,
            ErrorCode::UnknownTopic,
            ErrorCode::Corrupt,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadQuery,
        ] {
            assert!(!code.is_transient(), "{code:?} must be permanent");
        }
    }

    #[test]
    fn request_container_accessor() {
        assert_eq!(Request::Open { container: "/c".into() }.container(), Some("/c"));
        assert_eq!(
            Request::Read { container: "/c".into(), topics: vec![], range: None }.container(),
            Some("/c")
        );
        assert_eq!(
            Request::Append { container: "/live".into(), messages: vec![] }.container(),
            Some("/live")
        );
        assert_eq!(
            Request::Seal { container: "/live".into(), compact: false }.container(),
            Some("/live")
        );
        assert_eq!(Request::Stats.container(), None);
        assert_eq!(Request::Ping.container(), None);
        assert_eq!(Request::Shutdown.container(), None);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x42]).is_err(), "unknown opcode");
        // OPEN with a length prefix pointing past the end.
        assert!(Request::decode(&[OP_OPEN, 0xFF, 0xFF, b'x']).is_err());
        // Valid request with trailing garbage.
        let mut buf = Request::Stats.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        // Oversized frame header.
        assert!(frame_len((MAX_FRAME_LEN + 1).to_le_bytes()).is_err());
        assert_eq!(frame_len(17u32.to_le_bytes()).unwrap(), 17);
    }
}
