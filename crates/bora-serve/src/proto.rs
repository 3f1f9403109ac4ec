//! The bora-serve wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by the payload. Every payload, in both directions,
//! opens with the same envelope:
//!
//! ```text
//! request:   seq u32 | flags u8 | [deadline_ns u64] | [trace_id u64, parent_span u64] | opcode u8 | fields
//! response:  seq u32 | opcode u8 | fields
//! ```
//!
//! * `seq` is the client's per-connection request counter; the server
//!   echoes it on every frame it sends in answer (all chunks of a stream
//!   carry the request's seq). A client discards a frame whose seq is not
//!   the one in flight — a duplicated or reordered response surfacing
//!   after its request was lost would otherwise be read as the answer to
//!   the *next* request, and an ack credited to an append the server never
//!   saw. A frame too short to hold a seq is a [`ProtoError`].
//! * `flags` bit 0 says a deadline budget follows: *relative* nanoseconds
//!   remaining at send time, not a timestamp, so no clock synchronisation
//!   is assumed — the server measures its own queue wait against it and
//!   sheds work whose budget is already spent. Bit 1 says a trace context
//!   follows and bit 2 is that context's `sampled` bit; any other bit (or
//!   bit 2 without bit 1) is rejected. [`Request::encode_framed`] is the
//!   only writer of this header ([`Request::encode_seq`] is the same
//!   bytes behind their `seq`) and [`Request::decode_framed`] its only
//!   reader.
//! * the rest is the operation's fields in fixed little-endian layouts
//!   (strings are `u16` length + UTF-8, lists are `u16` count + elements).
//!
//! There is no versioning handshake and no optional part — both ends of a
//! deployment ship together — but unknown opcodes, unknown flag bits and
//! truncated payloads decode to [`ProtoError`] rather than panicking, so
//! a malformed client cannot take a worker down.
//!
//! The protocol is request/response with two extensions: a read (`READ`
//! or `READ_STREAM2`, which differ only in the op they are counted as) is
//! answered by a *sequence* of frames — zero or more
//! [`Response::StreamChunkLz`] chunks as its k-way merge yields messages,
//! closed by a [`Response::StreamEnd`] carrying their count (or a
//! terminal [`Response::Error`]) — and `QUERY` likewise streams a schema
//! frame and row chunks. Each read chunk is one `bora::block` frame whose
//! codec the server picks per chunk from what the connection measures —
//! LZ where the link is slower than the encoder, raw (`BlockCodec::None`,
//! still CRC-checked) where it is not; no byte of the request asks for
//! either. [`Response::Read`] and [`Response::StreamChunk`], the owned
//! message replies, still encode and decode, but no server sends them.
//!
//! A raw chunk's payload bytes are copied once by the server, and not at
//! all by a client that streams them. The worker copies each from its
//! pool page into the open chunk's frame buffer as the stream lends it
//! (`OpenChunk`, which [`compress_chunk`] fills from its slice); a raw
//! frame *is* that buffer, and the connection writes it behind its
//! 9-byte head ([`Response::encode_parts`]) and the length prefix in one
//! vectored write. The client's transport reads the frame into a buffer
//! of its length, with no zero-fill ahead of it; [`stream_chunk`] checks the chunk where it lies (CRC32C over
//! the stored bytes, lengths, no trailing byte) and keeps that buffer: a
//! streamed read hands out [`ChunkMessage`]s, views into it, so the
//! client copies no payload and allocates nothing per message. A message
//! held keeps its whole frame alive. A collected read copies each payload
//! once, into its own [`WireMessage`]. An LZ-coded chunk adds
//! the codec's passes: the encoder writes a new frame, the decoder a new
//! logical buffer. Everything else stays one-request/one-response, and one
//! outstanding request per connection keeps the backpressure story
//! honest: stream frames are produced no faster than the transport
//! accepts them, and a client that wants parallelism opens more
//! connections, which the server's bounded queue then sheds explicitly
//! via [`Response::Overloaded`].

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::Arc;

use bora::block::{decode_frame_in_place, encode_frame_in_place};
use bora::BlockCodec;
use bora_obs::{HistSummary, TraceContext, BUCKETS};
use ros_msgs::wire::{WireRead, WireWrite};
use ros_msgs::{Time, WireError};
use rosbag::MessageRecord;
use simfs::IoCtx;

use crate::metrics::Op;

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
// 0x06 was `STATS`, retired: `ServeClient::stats` projects a `METRICS`
// scrape.
const OP_SHUTDOWN: u8 = 0x07;
const OP_TRACE: u8 = 0x08;
const OP_PING: u8 = 0x0A;
const OP_APPEND: u8 = 0x0B;
const OP_SEAL: u8 = 0x0C;
const OP_METRICS: u8 = 0x0D;

// Request header flag bits (see the module doc).
const FLAG_DEADLINE: u8 = 1 << 0;
const FLAG_TRACE: u8 = 1 << 1;
const FLAG_SAMPLED: u8 = 1 << 2;

/// `READ_STREAM2`: `READ`'s fields and `READ`'s answer —
/// [`Response::StreamChunkLz`] frames, each LZ-coded or raw as the
/// connection's measurements choose, and a [`Response::StreamEnd`]. The
/// two opcodes differ only in the op a server counts them as. (`0x09` was
/// the plain-chunks-only `READ_STREAM`, retired.)
const OP_READ_STREAM2: u8 = 0x12;

/// `QUERY`: execute a `bora-query` statement against a container and
/// stream the result back. Answered by one [`Response::QuerySchema`]
/// (column names), zero or more [`Response::QueryChunk`]s (row blobs,
/// `bora_query::wire` encoding), and a terminal [`Response::QueryEnd`]
/// carrying the row total and — for `EXPLAIN` / `EXPLAIN ANALYZE` — the
/// rendered plan. A malformed statement answers with
/// [`ErrorCode::BadQuery`] and the connection stays usable.
const OP_QUERY: u8 = 0x13;

/// Split a received frame payload into the seq it opens with and the
/// rest. A frame too short to hold one is not an answer to anything.
pub fn split_seq(payload: &[u8]) -> ProtoResult<(u32, &[u8])> {
    let mut rest = payload;
    match rest.get_u32() {
        Ok(seq) => Ok((seq, rest)),
        Err(_) => Err(ProtoError(format!("{}-byte frame holds no seq", payload.len()))),
    }
}

/// Build a [`Response::StreamChunkLz`] from a message batch: the plain
/// chunk body is wrapped in one LZ `bora::block` frame. Frames that do
/// not shrink are stored raw inside the frame (the codec's built-in
/// fallback), so this never inflates a batch beyond the 13-byte frame
/// header. Compression cost is charged to `ctx` like any other
/// storage-layer compression.
pub fn compress_chunk(messages: &[WireMessage], ctx: &mut IoCtx) -> Response {
    let entries = messages.iter().map(|m| chunk_entry_len(&m.topic, m.data.len())).sum();
    let mut chunk = OpenChunk::with_capacity(entries);
    for m in messages {
        chunk.push(&m.topic, m.time, &m.data);
    }
    chunk.finish(BlockCodec::Lzss, ctx)
}

/// Messages a read's chunk ([`Response::StreamChunkLz`]) holds at least
/// before it closes. Small enough that the first result reaches the
/// client while the merge is still running.
const STREAM_CHUNK_MSGS: usize = 32;

/// Payload bytes a chunk holds at least before it closes: one stored
/// block. A frame costs a send and a receive whatever it carries, so a
/// chunk of small messages waits until it carries as much as one page.
const STREAM_CHUNK_BYTES: usize = bora::block::DEFAULT_BLOCK_SIZE as usize;

/// Bytes a read chunk's reply frame holds before its first message: seq,
/// opcode and frame length, the block frame's header and the message
/// count. The server closes a chunk before it grows past
/// [`MAX_FRAME_LEN`].
const CHUNK_FRAME_BASE: usize = 4 + 1 + 4 + CHUNK_HEAD;

/// Bytes an open chunk's buffer holds before its first message: room for
/// the block frame's header, and the message count.
const CHUNK_HEAD: usize = bora::block::FRAME_HEADER_LEN + 4;

/// Bytes one message adds to a chunk's body: `u16` topic length, two
/// `u32` of time, `u32` payload length, and the topic and payload.
fn chunk_entry_len(topic: &str, payload: usize) -> usize {
    14 + topic.len() + payload
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

/// A read chunk being built, the one place a chunk frame is laid out:
/// each pushed message goes straight into the buffer that, when the
/// chunk is sent raw or does not compress, *is* the frame
/// (`bora::block::encode_frame_in_place`). The server's scan pushes the
/// pool-page slices the stream lends, so a payload is copied once, and
/// the chunk's own length is its frame's.
pub(crate) struct OpenChunk {
    w: Writer,
    msgs: usize,
    payload: usize,
}

impl OpenChunk {
    /// An empty chunk with room for `entries` bytes of messages.
    fn with_capacity(entries: usize) -> Self {
        let mut buf = Vec::with_capacity(CHUNK_HEAD + entries);
        buf.resize(CHUNK_HEAD, 0);
        OpenChunk { w: Writer { buf, overflow: false }, msgs: 0, payload: 0 }
    }

    /// A read's first chunk, sized from the floor and its first message:
    /// room for as many messages like it as the chunk holds at least. A
    /// buffer grown by doubling from the floor would copy each byte of a
    /// chunk of images about 1.5 more times.
    pub(crate) fn first(topic: &str, payload: usize) -> Self {
        let like = STREAM_CHUNK_MSGS.max(STREAM_CHUNK_BYTES.div_ceil(payload.max(1)));
        Self::with_capacity((like * chunk_entry_len(topic, payload)).min(MAX_FRAME_LEN as usize))
    }

    /// The chunk, if it closes ([`chunk_closes`]) before a message of
    /// `topic` with `payload` bytes joins it. The next chunk then opens in
    /// its place, sized from it with one message of its average to spare.
    pub(crate) fn close_before(&mut self, topic: &str, payload: usize) -> Option<OpenChunk> {
        let (len, next) = (self.w.buf.len(), chunk_entry_len(topic, payload));
        if !chunk_closes(self.msgs, self.payload, CHUNK_FRAME_BASE - CHUNK_HEAD + len, next) {
            return None;
        }
        let entries = len - CHUNK_HEAD;
        Some(std::mem::replace(self, OpenChunk::with_capacity(entries + entries / self.msgs)))
    }

    pub(crate) fn push(&mut self, topic: &str, time: Time, payload: &[u8]) {
        self.w.msg(topic, time, payload);
        self.msgs += 1;
        self.payload += payload.len();
    }

    /// Payload bytes pushed so far.
    pub(crate) fn payload(&self) -> usize {
        self.payload
    }

    /// The chunk as a [`Response::StreamChunkLz`] of `codec`: a
    /// [`BlockCodec::None`] frame skips the encoder and keeps the frame's
    /// CRC32C.
    pub(crate) fn finish(self, codec: BlockCodec, ctx: &mut IoCtx) -> Response {
        let mut body = self.w.finish().expect("topic names fit a u16 length prefix");
        body[CHUNK_HEAD - 4..CHUNK_HEAD].copy_from_slice(&(self.msgs as u32).to_le_bytes());
        Response::StreamChunkLz(encode_frame_in_place(codec, body, ctx))
    }
}

/// A read chunk's block frame checked and decoded: its CRC32C over the
/// stored bytes before any decompression, its lengths, and no byte after
/// it. A raw frame's logical bytes are its stored bytes, borrowed.
fn chunk_body(frame: &[u8]) -> ProtoResult<Cow<'_, [u8]>> {
    // Client-side wall-clock work: the virtual-cost model meters the
    // server, so the charge sink here is a throwaway.
    let mut ctx = IoCtx::new();
    let (body, used) = decode_frame_in_place(frame, "stream-chunk", &mut ctx)
        .map_err(|e| ProtoError(format!("bad compressed chunk: {e}")))?;
    if used != frame.len() {
        return Err(ProtoError(format!(
            "{} trailing bytes after compressed chunk frame",
            frame.len() - used
        )));
    }
    Ok(body)
}

/// The messages of a chunk's logical bytes, walked where they lie: each
/// is its topic's bytes, its time and its payload's range in the buffer
/// the walk was given. The count is checked against the bytes left before
/// anything is reserved for it, and a byte after the last message is a
/// [`ProtoError`].
struct ChunkWalk<'a> {
    buf: &'a [u8],
    rest: &'a [u8],
    left: usize,
}

/// A walked message: its topic's bytes, its time and its payload's range.
type Walked<'a> = (&'a [u8], Time, Range<usize>);

impl<'a> ChunkWalk<'a> {
    /// The chunk body that starts at `at` of `buf` and runs to its end.
    fn new(buf: &'a [u8], at: usize) -> ProtoResult<Self> {
        let mut rest = &buf[at..];
        // Topic length, time and payload length: 14 bytes at least.
        let left = rest.get_count(14)?;
        Ok(ChunkWalk { buf, rest, left })
    }

    fn next(&mut self) -> ProtoResult<Option<Walked<'a>>> {
        if self.left == 0 {
            return self.rest.finish().map(|()| None);
        }
        self.left -= 1;
        let len = self.rest.get_u16()? as usize;
        let topic = self.rest.take(len)?;
        let time = self.rest.get_time()?;
        let len = self.rest.get_u32()? as usize;
        let start = self.buf.len() - self.rest.len();
        self.rest.take(len)?;
        Ok(Some((topic, time, start..start + len)))
    }
}

/// The topics a read's messages have named so far, one shared string
/// each: a message's topic bytes are compared with these, and only a new
/// topic is checked for UTF-8 and allocated. Holds at most 64 names; a
/// stream of more topics than that replaces the last one held.
#[derive(Debug, Default)]
pub struct ChunkTopics {
    seen: Vec<Arc<str>>,
}

impl ChunkTopics {
    const MAX: usize = 64;

    fn intern(&mut self, bytes: &[u8]) -> ProtoResult<&Arc<str>> {
        let at = match self.seen.iter().position(|t| t.as_bytes() == bytes) {
            Some(at) => at,
            None => {
                let topic = std::str::from_utf8(bytes)
                    .map_err(|_| ProtoError("non-UTF8 string field".into()))?;
                if self.seen.len() == Self::MAX {
                    self.seen.pop();
                }
                self.seen.push(Arc::from(topic));
                self.seen.len() - 1
            }
        };
        Ok(&self.seen[at])
    }
}

/// What a read's chunk decoder ([`stream_chunk`]) builds from each message
/// it walks: a [`ChunkMessage`] that points into the chunk, or a
/// [`WireMessage`] that copies its payload out.
pub trait FromChunk: Sized {
    /// The message of `topic` at `time` whose payload is `data` of
    /// `chunk`, the chunk's logical buffer.
    fn from_chunk(topic: &Arc<str>, time: Time, chunk: &Arc<Vec<u8>>, data: Range<usize>) -> Self;
}

impl FromChunk for ChunkMessage {
    fn from_chunk(topic: &Arc<str>, time: Time, chunk: &Arc<Vec<u8>>, data: Range<usize>) -> Self {
        let data = ChunkBytes { chunk: Arc::clone(chunk), start: data.start, end: data.end };
        ChunkMessage { topic: Arc::clone(topic), time, data }
    }
}

impl FromChunk for WireMessage {
    fn from_chunk(topic: &Arc<str>, time: Time, chunk: &Arc<Vec<u8>>, data: Range<usize>) -> Self {
        WireMessage::copied(topic, time, &chunk[data])
    }
}

impl WireMessage {
    /// A message that owns a copy of `topic` and `data`.
    fn copied(topic: &str, time: Time, data: &[u8]) -> Self {
        WireMessage { topic: topic.to_owned(), time, data: data.to_vec() }
    }
}

/// Decode a [`Response::StreamChunkLz`] frame back into its message
/// batch, with [`stream_chunk`]'s checks and walk. Each message is copied
/// once, into its own [`WireMessage`].
pub fn decompress_chunk(frame: &[u8]) -> ProtoResult<Vec<WireMessage>> {
    let body = chunk_body(frame)?;
    let (mut walk, mut topics) = (ChunkWalk::new(&body, 0)?, ChunkTopics::default());
    let mut messages = Vec::with_capacity(walk.left);
    while let Some((topic, time, data)) = walk.next()? {
        messages.push(WireMessage::copied(topics.intern(topic)?, time, &body[data]));
    }
    Ok(messages)
}

/// The messages of a received read chunk, built by `M` where they lie and
/// appended to `out`; how many. `frame` is a whole received frame, its seq
/// first. `None`, and `frame` left as it is, when it is not a
/// [`Response::StreamChunkLz`] — decode it with [`Response::decode`].
/// Otherwise `frame` is taken: a raw chunk's logical bytes *are* the
/// frame's tail, so it moves, uncopied, into the buffer its messages
/// share, and an LZ chunk's messages share the decoded buffer. A held
/// [`ChunkMessage`] keeps that whole buffer alive. The checks are
/// [`Response::decode`]'s and [`decompress_chunk`]'s: a short length,
/// trailing bytes, a CRC failure or a bad message is a [`ProtoError`],
/// and appends nothing.
pub fn stream_chunk<M: FromChunk>(
    frame: &mut Vec<u8>,
    topics: &mut ChunkTopics,
    out: &mut VecDeque<M>,
) -> ProtoResult<Option<u64>> {
    let (_, mut r) = split_seq(frame)?;
    if r.first() != Some(&OP_OK_STREAM_CHUNK_LZ) {
        return Ok(None);
    }
    r.get_u8()?;
    let len = r.get_u32()? as usize;
    let block = r.take(len)?;
    r.finish()?;
    // The block frame is the frame's tail; a raw one's logical bytes
    // follow its header.
    let stored_at = frame.len() - len + bora::block::FRAME_HEADER_LEN;
    let decoded = match chunk_body(block)? {
        Cow::Owned(logical) => Some(logical),
        Cow::Borrowed(_) => None,
    };
    let (chunk, at) = match decoded {
        Some(logical) => (Arc::new(logical), 0),
        None => (Arc::new(std::mem::take(frame)), stored_at),
    };
    let before = out.len();
    let walked = walk_into(&chunk, at, topics, out);
    if walked.is_err() {
        out.truncate(before);
    }
    walked.map(Some)
}

/// The chunk body at `at` of `chunk`, walked into `out` as `M`s: how
/// many messages it holds.
fn walk_into<M: FromChunk>(
    chunk: &Arc<Vec<u8>>,
    at: usize,
    topics: &mut ChunkTopics,
    out: &mut VecDeque<M>,
) -> ProtoResult<u64> {
    let mut walk = ChunkWalk::new(chunk, at)?;
    let n = walk.left;
    out.reserve(n);
    while let Some((topic, time, data)) = walk.next()? {
        out.push_back(M::from_chunk(topics.intern(topic)?, time, chunk, data));
    }
    Ok(n as u64)
}

// Response opcodes (request opcode | 0x80, errors in 0xE0+).
const OP_OK_OPEN: u8 = 0x81;
const OP_OK_TOPICS: u8 = 0x82;
const OP_OK_META: u8 = 0x83;
const OP_OK_READ: u8 = 0x84;
const OP_OK_STAT: u8 = 0x85;
const OP_OK_SHUTDOWN: u8 = 0x87;
const OP_OK_TRACE: u8 = 0x88;
const OP_OK_STREAM_CHUNK: u8 = 0x89;
const OP_OK_STREAM_END: u8 = 0x8A;
const OP_OK_PONG: u8 = 0x8B;
const OP_OK_APPENDED: u8 = 0x8C;
const OP_OK_SEALED: u8 = 0x8D;
const OP_OK_METRICS: u8 = 0x8E;
/// A read's chunk: one `bora::block` frame (codec tag,
/// uncompressed length, physical length, CRC32C) whose logical bytes are
/// the plain `StreamChunk` body. Reusing the storage-layer frame means
/// wire chunks inherit its per-frame raw fallback (incompressible
/// batches cost 13 bytes of header, not a blow-up) and its checksum —
/// a bit-flipped chunk decodes to a typed error, never to garbage
/// messages. A chunk the server chose to send raw is the same frame
/// with codec tag 0.
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
    /// Read messages of `topics`, optionally restricted to `[start, end)`:
    /// answered with a sequence of [`Response::StreamChunkLz`] frames
    /// written as the server-side merge yields messages, closed by
    /// [`Response::StreamEnd`]. The worker holds its clone of the
    /// container handle for the answer's whole lifetime.
    Read { container: String, topics: Vec<String>, range: Option<(Time, Time)> },
    /// `Read` under the op a client that hands out messages as they
    /// arrive is counted as (`read_stream`); the same answer.
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

/// One message of a read, owned: what a collected read
/// ([`crate::ServeClient::read`]) returns and an append sends.
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

impl From<ChunkMessage> for WireMessage {
    fn from(m: ChunkMessage) -> Self {
        WireMessage::copied(&m.topic, m.time, &m.data)
    }
}

/// One message of a streamed read ([`crate::ServeClient::read_stream`]),
/// where it lies in the chunk it arrived in: a view, not a copy. Its
/// topic is the stream's one shared string for that topic, and its
/// payload a range of the chunk's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMessage {
    pub topic: Arc<str>,
    pub time: Time,
    pub data: ChunkBytes,
}

/// A streamed message equals the owned message of the same topic, time
/// and bytes.
impl PartialEq<WireMessage> for ChunkMessage {
    fn eq(&self, other: &WireMessage) -> bool {
        (&*self.topic, self.time, &*self.data) == (&*other.topic, other.time, &*other.data)
    }
}

/// A streamed message's payload: a range of the logical buffer of the
/// chunk it arrived in — the received frame itself for a raw chunk, the
/// decoded bytes for an LZ-coded one — which its chunk's messages share.
/// It derefs to the payload's bytes. While one message is held, the whole
/// buffer stays alive; copy the bytes out (`to_vec`, or
/// [`WireMessage::from`]) to keep a payload past its chunk.
#[derive(Clone)]
pub struct ChunkBytes {
    chunk: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Deref for ChunkBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.chunk[self.start..self.end]
    }
}

impl PartialEq for ChunkBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ChunkBytes {}

impl std::fmt::Debug for ChunkBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
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
    /// A whole read's messages in one owned reply (`OK_READ`). It still
    /// encodes and decodes, but no server sends it: a read is answered by
    /// [`Response::StreamChunkLz`] frames and a [`Response::StreamEnd`].
    Read(Vec<WireMessage>),
    /// One batch of a read's answer as owned messages (`OK_STREAM_CHUNK`).
    /// It still encodes and decodes, but no server sends it.
    StreamChunk(Vec<WireMessage>),
    /// One batch of a read's answer (`READ` or `READ_STREAM2`), carried as a
    /// `bora::block` frame wrapping the plain chunk body — LZ-coded or
    /// raw, as the frame's codec byte says. Decode with
    /// [`decompress_chunk`]; [`compress_chunk`] produces the LZ-coded
    /// form.
    StreamChunkLz(Vec<u8>),
    /// Terminal frame of a read's answer: total messages streamed.
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

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError(e.to_string())
    }
}

type ProtoResult<T> = Result<T, ProtoError>;

// ---------------------------------------------------------------- encoding

/// The protocol's own layer over [`WireWrite`]: `u16`-prefixed strings
/// and lists, and the composite fields several messages share.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
    /// A string or list was too long for its `u16` length prefix; the
    /// buffer is unusable (see [`Writer::finish`]).
    overflow: bool,
}

impl WireWrite for Writer {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

impl Writer {
    /// The encoded bytes, unless a length did not fit its prefix — a
    /// wrapped prefix would ship a frame whose tail parses as something
    /// else.
    fn finish(self) -> ProtoResult<Vec<u8>> {
        if self.overflow {
            return Err(ProtoError("a string or list exceeds its u16 length prefix".into()));
        }
        Ok(self.buf)
    }
    /// A `u16` length or count prefix.
    fn len16(&mut self, n: usize) {
        match u16::try_from(n) {
            Ok(n) => self.put_u16(n),
            Err(_) => self.overflow = true,
        }
    }
    fn str(&mut self, s: &str) {
        self.len16(s.len());
        self.put_bytes(s.as_bytes());
    }
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.len16(items.len());
        for it in items {
            item(self, it);
        }
    }
    fn strs(&mut self, list: &[String]) {
        self.list(list, |w, s| w.str(s));
    }
    fn stat(&mut self, s: &ContainerStat) {
        self.put_u32(s.topics);
        self.put_u64(s.messages);
        self.put_u64(s.data_bytes);
        self.put_time(s.start);
        self.put_time(s.end);
    }
    fn msg(&mut self, topic: &str, time: Time, payload: &[u8]) {
        self.str(topic);
        self.put_time(time);
        self.put_byte_array(payload);
    }
    fn msgs(&mut self, msgs: &[WireMessage]) {
        self.put_u32(msgs.len() as u32);
        for m in msgs {
            self.msg(&m.topic, m.time, &m.data);
        }
    }
    /// Histogram with sparse buckets: exact count/sum/min, then
    /// `(index, value)` pairs for the non-zero buckets only — a typical
    /// latency histogram occupies a dozen of the 64.
    fn hist(&mut self, h: &HistSummary) {
        self.put_u64(h.count);
        self.put_u64(h.sum);
        self.put_u64(h.min);
        let nonzero = h.buckets.iter().filter(|&&b| b != 0).count();
        self.put_u8(nonzero as u8);
        for (i, &b) in h.buckets.iter().enumerate() {
            if b != 0 {
                self.put_u8(i as u8);
                self.put_u64(b);
            }
        }
    }
}

/// What [`Writer`] writes, read back over [`WireRead`]. Every list count
/// is checked against the bytes left before anything is reserved for it.
trait ProtoRead<'a>: WireRead<'a> {
    fn str(&mut self) -> ProtoResult<String> {
        let len = self.get_u16()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| ProtoError("non-UTF8 string field".into()))
    }
    /// A `u16`-counted list of items of at least `min_size` bytes each.
    fn list<T>(
        &mut self,
        min_size: usize,
        mut item: impl FnMut(&mut Self) -> ProtoResult<T>,
    ) -> ProtoResult<Vec<T>> {
        let n = self.get_u16()? as usize;
        let mut items = Vec::with_capacity(self.fits(n, min_size)?);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }
    fn strs(&mut self) -> ProtoResult<Vec<String>> {
        self.list(2, |r| r.str())
    }
    fn flag(&mut self, what: &str) -> ProtoResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtoError(format!("bad {what} marker {v}"))),
        }
    }
    fn stat(&mut self) -> ProtoResult<ContainerStat> {
        Ok(ContainerStat {
            topics: self.get_u32()?,
            messages: self.get_u64()?,
            data_bytes: self.get_u64()?,
            start: self.get_time()?,
            end: self.get_time()?,
        })
    }
    fn msgs(&mut self) -> ProtoResult<Vec<WireMessage>> {
        // Topic length, time and payload length: 14 bytes at least.
        let n = self.get_count(14)?;
        let mut messages = Vec::with_capacity(n);
        for _ in 0..n {
            messages.push(WireMessage {
                topic: self.str()?,
                time: self.get_time()?,
                data: self.get_byte_array()?,
            });
        }
        Ok(messages)
    }
    fn hist(&mut self) -> ProtoResult<HistSummary> {
        let mut h = HistSummary {
            count: self.get_u64()?,
            sum: self.get_u64()?,
            min: self.get_u64()?,
            buckets: [0; BUCKETS],
        };
        let nonzero = self.get_u8()? as usize;
        for _ in 0..nonzero {
            let idx = self.get_u8()? as usize;
            if idx >= BUCKETS {
                return Err(ProtoError(format!("histogram bucket index {idx} out of range")));
            }
            h.buckets[idx] = self.get_u64()?;
        }
        Ok(h)
    }
    fn finish(&self) -> ProtoResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ProtoError(format!("{n} trailing bytes after payload"))),
        }
    }
}

impl<'a> ProtoRead<'a> for &'a [u8] {}

impl Request {
    /// The container a data-plane request targets, if any.
    pub fn container(&self) -> Option<&str> {
        match self {
            Request::Open { container }
            | Request::Topics { container }
            | Request::Meta { container }
            | Request::Read { container, .. }
            | Request::ReadStream2 { container, .. }
            | Request::Append { container, .. }
            | Request::Seal { container, .. }
            | Request::Query { container, .. }
            | Request::Stat { container } => Some(container),
            Request::Metrics | Request::Trace | Request::Ping | Request::Shutdown => None,
        }
    }

    /// The data op this request is — its metrics key, span and slow-op
    /// name — or `None` for a control-plane op, which is never recorded.
    pub fn op(&self) -> Option<Op> {
        Some(match self {
            Request::Open { .. } => Op::Open,
            Request::Topics { .. } => Op::Topics,
            Request::Meta { .. } => Op::Meta,
            Request::Read { .. } => Op::Read,
            Request::ReadStream2 { .. } => Op::ReadStream,
            Request::Append { .. } => Op::Append,
            Request::Seal { .. } => Op::Seal,
            Request::Query { .. } => Op::Query,
            Request::Stat { .. } => Op::Stat,
            Request::Metrics | Request::Trace | Request::Ping | Request::Shutdown => return None,
        })
    }

    /// The request header (see the module doc), then opcode and fields.
    fn write(&self, w: &mut Writer, ctx: Option<TraceContext>, deadline_ns: Option<u64>) {
        let mut flags = 0;
        if deadline_ns.is_some() {
            flags |= FLAG_DEADLINE;
        }
        if let Some(c) = ctx {
            flags |= FLAG_TRACE | if c.sampled { FLAG_SAMPLED } else { 0 };
        }
        w.put_u8(flags);
        if let Some(budget) = deadline_ns {
            w.put_u64(budget);
        }
        if let Some(c) = ctx {
            w.put_u64(c.trace_id);
            w.put_u64(c.parent_span);
        }
        match self {
            Request::Open { container } => {
                w.put_u8(OP_OPEN);
                w.str(container);
            }
            Request::Topics { container } => {
                w.put_u8(OP_TOPICS);
                w.str(container);
            }
            Request::Meta { container } => {
                w.put_u8(OP_META);
                w.str(container);
            }
            Request::Read { container, topics, range }
            | Request::ReadStream2 { container, topics, range } => {
                let op =
                    if matches!(self, Request::Read { .. }) { OP_READ } else { OP_READ_STREAM2 };
                w.put_u8(op);
                w.str(container);
                w.strs(topics);
                match range {
                    Some((start, end)) => {
                        w.put_u8(1);
                        w.put_time(*start);
                        w.put_time(*end);
                    }
                    None => w.put_u8(0),
                }
            }
            Request::Append { container, messages } => {
                w.put_u8(OP_APPEND);
                w.str(container);
                w.msgs(messages);
            }
            Request::Seal { container, compact } => {
                w.put_u8(OP_SEAL);
                w.str(container);
                w.put_u8(*compact as u8);
            }
            Request::Query { container, sql, partial } => {
                w.put_u8(OP_QUERY);
                w.str(container);
                // u32 length: query text has no natural u16 bound.
                w.put_string(sql);
                w.put_u8(*partial as u8);
            }
            Request::Stat { container } => {
                w.put_u8(OP_STAT);
                w.str(container);
            }
            Request::Metrics => w.put_u8(OP_METRICS),
            Request::Trace => w.put_u8(OP_TRACE),
            Request::Ping => w.put_u8(OP_PING),
            Request::Shutdown => w.put_u8(OP_SHUTDOWN),
        }
    }

    /// Encode header, opcode and fields — everything of the frame payload
    /// after its `seq`. `ctx` is the caller's trace context (server-side
    /// spans parent under it), `deadline_ns` the budget left for this
    /// request.
    ///
    /// # Panics
    /// If a string or list is too long for its `u16` length prefix; a
    /// sender of outside input uses [`Request::encode_seq`], which
    /// returns that as an error.
    pub fn encode_framed(&self, ctx: Option<TraceContext>, deadline_ns: Option<u64>) -> Vec<u8> {
        let mut w = Writer::default();
        self.write(&mut w, ctx, deadline_ns);
        w.finish().expect("request field fits its u16 length prefix")
    }

    /// The whole frame payload: `seq`, then [`Request::encode_framed`]'s
    /// bytes. Fails, instead of shipping a wrapped length prefix, when a
    /// name is longer than 65 535 bytes or a list has more entries.
    pub fn encode_seq(
        &self,
        seq: u32,
        ctx: Option<TraceContext>,
        deadline_ns: Option<u64>,
    ) -> ProtoResult<Vec<u8>> {
        let mut w = Writer::default();
        w.put_u32(seq);
        self.write(&mut w, ctx, deadline_ns);
        w.finish()
    }

    /// Decode what [`Request::encode_framed`] wrote: the request, its
    /// trace context and its deadline budget.
    #[allow(clippy::type_complexity)]
    pub fn decode_framed(
        payload: &[u8],
    ) -> ProtoResult<(Request, Option<TraceContext>, Option<u64>)> {
        let mut r = payload;
        let flags = r.get_u8()?;
        if flags & !(FLAG_DEADLINE | FLAG_TRACE | FLAG_SAMPLED) != 0
            || flags & (FLAG_TRACE | FLAG_SAMPLED) == FLAG_SAMPLED
        {
            return Err(ProtoError(format!("bad request header flags {flags:#04x}")));
        }
        let deadline_ns = if flags & FLAG_DEADLINE != 0 { Some(r.get_u64()?) } else { None };
        let ctx = if flags & FLAG_TRACE != 0 {
            let (trace_id, parent_span) = (r.get_u64()?, r.get_u64()?);
            Some(TraceContext { trace_id, parent_span, sampled: flags & FLAG_SAMPLED != 0 })
        } else {
            None
        };
        let op = r.get_u8()?;
        let req = match op {
            OP_OPEN => Request::Open { container: r.str()? },
            OP_TOPICS => Request::Topics { container: r.str()? },
            OP_META => Request::Meta { container: r.str()? },
            OP_READ | OP_READ_STREAM2 => {
                let container = r.str()?;
                let topics = r.strs()?;
                let range =
                    if r.flag("range")? { Some((r.get_time()?, r.get_time()?)) } else { None };
                if op == OP_READ {
                    Request::Read { container, topics, range }
                } else {
                    Request::ReadStream2 { container, topics, range }
                }
            }
            OP_APPEND => Request::Append { container: r.str()?, messages: r.msgs()? },
            OP_SEAL => Request::Seal { container: r.str()?, compact: r.flag("compact")? },
            OP_QUERY => {
                let container = r.str()?;
                Request::Query { container, sql: r.get_string()?, partial: r.flag("partial")? }
            }
            OP_STAT => Request::Stat { container: r.str()? },
            OP_METRICS => Request::Metrics,
            OP_TRACE => Request::Trace,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError(format!("unknown request opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok((req, ctx, deadline_ns))
    }
}

impl Response {
    /// Opcode and fields into `w`, but for a stream chunk's frame, which
    /// is returned to follow the head as it lies.
    fn write<'a>(&'a self, w: &mut Writer) -> &'a [u8] {
        match self {
            Response::Opened { stat, cached } => {
                w.put_u8(OP_OK_OPEN);
                w.stat(stat);
                w.put_u8(*cached as u8);
            }
            Response::Topics(topics) => {
                w.put_u8(OP_OK_TOPICS);
                w.strs(topics);
            }
            Response::Meta(bytes) => {
                w.put_u8(OP_OK_META);
                w.put_byte_array(bytes);
            }
            Response::Read(messages) => {
                w.put_u8(OP_OK_READ);
                w.msgs(messages);
            }
            Response::StreamChunk(messages) => {
                w.put_u8(OP_OK_STREAM_CHUNK);
                w.msgs(messages);
            }
            Response::StreamChunkLz(frame) => {
                w.put_u8(OP_OK_STREAM_CHUNK_LZ);
                w.put_u32(frame.len() as u32);
                return frame;
            }
            Response::StreamEnd { messages } => {
                w.put_u8(OP_OK_STREAM_END);
                w.put_u64(*messages);
            }
            Response::QuerySchema(cols) => {
                w.put_u8(OP_OK_QUERY_SCHEMA);
                w.strs(cols);
            }
            Response::QueryChunk(blob) => {
                w.put_u8(OP_OK_QUERY_CHUNK);
                w.put_byte_array(blob);
            }
            Response::QueryEnd { rows, explain } => {
                w.put_u8(OP_OK_QUERY_END);
                w.put_u64(*rows);
                w.put_string(explain);
            }
            Response::Appended { appended, epoch } => {
                w.put_u8(OP_OK_APPENDED);
                w.put_u64(*appended);
                w.put_u64(*epoch);
            }
            Response::Sealed { epoch, sealed_segments } => {
                w.put_u8(OP_OK_SEALED);
                w.put_u64(*epoch);
                w.put_u32(*sealed_segments);
            }
            Response::Stat(stat) => {
                w.put_u8(OP_OK_STAT);
                w.stat(stat);
            }
            Response::Metrics(m) => {
                w.put_u8(OP_OK_METRICS);
                w.put_u32(m.version);
                w.put_u32(m.server_id);
                w.put_u64(m.uptime_ns);
                w.list(&m.counters, |w, (name, v)| {
                    w.str(name);
                    w.put_u64(*v);
                });
                w.list(&m.gauges, |w, (name, v)| {
                    w.str(name);
                    w.put_i64(*v);
                });
                w.list(&m.hists, |w, (name, h)| {
                    w.str(name);
                    w.hist(h);
                });
                w.list(&m.slow_ops, |w, s| {
                    w.put_u64(s.trace_id);
                    w.str(&s.op);
                    w.str(&s.container);
                    w.put_u64(s.wall_ns);
                    w.put_u64(s.queue_wait_ns);
                    w.put_u32(s.server_id);
                });
            }
            Response::Trace(json) => {
                w.put_u8(OP_OK_TRACE);
                w.put_string(json);
            }
            Response::Pong(p) => {
                w.put_u8(OP_OK_PONG);
                w.put_u32(p.server_id);
                w.put_u64(p.uptime_ns);
                w.put_u32(p.queue_depth);
            }
            Response::ShuttingDown => w.put_u8(OP_OK_SHUTDOWN),
            Response::Error { code, message } => {
                w.put_u8(OP_ERROR);
                w.put_u8(*code as u8);
                // An error text may quote client input (a query statement)
                // of any length: cut it to what the prefix can count.
                w.str(&message[..message.floor_char_boundary(u16::MAX as usize)]);
            }
            Response::Overloaded => w.put_u8(OP_OVERLOADED),
        }
        &[]
    }

    /// Opcode and fields — everything of the frame payload after its
    /// `seq`.
    ///
    /// # Panics
    /// If a name or list is too long for its `u16` length prefix; the
    /// serve loop uses [`Response::encode_seq`], which returns that as an
    /// error.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        let tail = self.write(&mut w);
        w.put_bytes(tail);
        w.finish().expect("response field fits its u16 length prefix")
    }

    /// The whole frame payload: the request's `seq`, then
    /// [`Response::encode`]'s bytes — [`Response::encode_parts`] joined.
    pub fn encode_seq(&self, seq: u32) -> ProtoResult<Vec<u8>> {
        let (mut head, tail) = self.encode_parts(seq)?;
        head.extend_from_slice(tail);
        Ok(head)
    }

    /// [`Response::encode_seq`]'s bytes in two parts, to be written back
    /// to back: a head (`seq`, opcode, fields) and a tail borrowed from
    /// `self` — a stream chunk's frame, which so crosses to the transport
    /// as the worker built it; empty for every other response.
    pub fn encode_parts(&self, seq: u32) -> ProtoResult<(Vec<u8>, &[u8])> {
        let mut w = Writer::default();
        w.put_u32(seq);
        let tail = self.write(&mut w);
        Ok((w.finish()?, tail))
    }

    pub fn decode(payload: &[u8]) -> ProtoResult<Response> {
        let mut r = payload;
        let op = r.get_u8()?;
        let resp = match op {
            OP_OK_OPEN => Response::Opened { stat: r.stat()?, cached: r.get_bool()? },
            OP_OK_TOPICS => Response::Topics(r.strs()?),
            OP_OK_META => Response::Meta(r.get_byte_array()?),
            OP_OK_READ => Response::Read(r.msgs()?),
            OP_OK_STREAM_CHUNK => Response::StreamChunk(r.msgs()?),
            OP_OK_STREAM_CHUNK_LZ => Response::StreamChunkLz(r.get_byte_array()?),
            OP_OK_STREAM_END => Response::StreamEnd { messages: r.get_u64()? },
            OP_OK_QUERY_SCHEMA => Response::QuerySchema(r.strs()?),
            OP_OK_QUERY_CHUNK => Response::QueryChunk(r.get_byte_array()?),
            OP_OK_QUERY_END => Response::QueryEnd { rows: r.get_u64()?, explain: r.get_string()? },
            OP_OK_APPENDED => Response::Appended { appended: r.get_u64()?, epoch: r.get_u64()? },
            OP_OK_SEALED => Response::Sealed { epoch: r.get_u64()?, sealed_segments: r.get_u32()? },
            OP_OK_STAT => Response::Stat(r.stat()?),
            // Minimum entry sizes: a name's length prefix and a counter; and
            // three histogram totals and a bucket count; a slow op's ids,
            // times and two length prefixes.
            OP_OK_METRICS => Response::Metrics(MetricsReport {
                version: r.get_u32()?,
                server_id: r.get_u32()?,
                uptime_ns: r.get_u64()?,
                counters: r.list(10, |r| Ok((r.str()?, r.get_u64()?)))?,
                gauges: r.list(10, |r| Ok((r.str()?, r.get_i64()?)))?,
                hists: r.list(27, |r| Ok((r.str()?, r.hist()?)))?,
                slow_ops: r.list(32, |r| {
                    Ok(SlowOpEntry {
                        trace_id: r.get_u64()?,
                        op: r.str()?,
                        container: r.str()?,
                        wall_ns: r.get_u64()?,
                        queue_wait_ns: r.get_u64()?,
                        server_id: r.get_u32()?,
                    })
                })?,
            }),
            OP_OK_TRACE => Response::Trace(r.get_string()?),
            OP_OK_PONG => Response::Pong(PingInfo {
                server_id: r.get_u32()?,
                uptime_ns: r.get_u64()?,
                queue_depth: r.get_u32()?,
            }),
            OP_OK_SHUTDOWN => Response::ShuttingDown,
            OP_ERROR => {
                let code = ErrorCode::from_u8(r.get_u8()?)
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

/// Parse a frame header, validating the length bound.
pub fn frame_len(header: [u8; FRAME_HEADER_LEN]) -> ProtoResult<usize> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError(format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}")));
    }
    Ok(len as usize)
}

/// The header of a `len`-byte payload — [`frame_len`]'s inverse, with
/// the same bound: a longer payload has no header a peer would accept.
pub fn frame_prefix(len: usize) -> ProtoResult<[u8; FRAME_HEADER_LEN]> {
    match u32::try_from(len) {
        Ok(n) if n <= MAX_FRAME_LEN => Ok(n.to_le_bytes()),
        _ => Err(ProtoError(format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A chunk of `messages` sent as `codec`, built as the server's scan
    /// builds one.
    pub(crate) fn chunk_of(messages: &[WireMessage], codec: BlockCodec) -> Response {
        let mut chunk = OpenChunk::with_capacity(0);
        for m in messages {
            chunk.push(&m.topic, m.time, &m.data);
        }
        chunk.finish(codec, &mut IoCtx::new())
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Every `Request` variant, with and without its optional parts.
    fn every_request() -> Vec<Request> {
        let (container, topics) = (String::from("/c/hs0"), vec!["/imu".into(), "/cam".into()]);
        let range = Some((Time::new(3, 14), Time::new(10, 0)));
        vec![
            Request::Open { container: container.clone() },
            Request::Topics { container: "".into() },
            Request::Meta { container: container.clone() },
            Request::Read { container: container.clone(), topics: topics.clone(), range },
            Request::Read { container: container.clone(), topics: vec![], range: None },
            Request::ReadStream2 { container: container.clone(), topics, range },
            Request::ReadStream2 { container: container.clone(), topics: vec![], range: None },
            Request::Append {
                container: "/live".into(),
                messages: vec![
                    WireMessage { topic: "/imu".into(), time: Time::new(3, 14), data: vec![1, 2] },
                    WireMessage { topic: "/cam".into(), time: Time::new(3, 15), data: vec![] },
                ],
            },
            Request::Append { container: "/live".into(), messages: vec![] },
            Request::Seal { container: "/live".into(), compact: true },
            Request::Seal { container: "/live".into(), compact: false },
            Request::Query {
                container: container.clone(),
                sql: "SELECT count() FROM '/imu' WHERE time >= 1.0".into(),
                partial: true,
            },
            Request::Query { container: container.clone(), sql: "".into(), partial: false },
            Request::Stat { container },
            Request::Metrics,
            Request::Trace,
            Request::Ping,
            Request::Shutdown,
        ]
    }

    const CTX: TraceContext =
        TraceContext { trace_id: 0xDEAD_BEEF_0042, parent_span: 77, sampled: true };

    /// Every header a request can carry: {no deadline, deadline} × {no
    /// context, sampled, unsampled}.
    fn every_header() -> Vec<(Option<TraceContext>, Option<u64>)> {
        let ctxs = [None, Some(CTX), Some(TraceContext { sampled: false, ..CTX })];
        ctxs.into_iter().flat_map(|c| [(c, None), (c, Some(1_500_000))]).collect()
    }

    /// What the server counts a chunk's reply frame as is what
    /// [`Response::encode_parts`] writes: raw exactly, LZ-coded no more.
    #[test]
    fn a_chunk_reply_is_its_base_and_its_entries() {
        let payload = vec![7u8; 5000];
        let msgs = [("/imu", 316), ("/camera/rgb/image_color", 0), ("/tf", 5000)];
        let counted =
            CHUNK_FRAME_BASE + msgs.iter().map(|&(t, n)| chunk_entry_len(t, n)).sum::<usize>();
        for codec in [BlockCodec::None, BlockCodec::Lzss] {
            let mut chunk = OpenChunk::with_capacity(0);
            for &(topic, n) in &msgs {
                chunk.push(topic, Time::new(1, 2), &payload[..n]);
            }
            let chunk = chunk.finish(codec, &mut IoCtx::new());
            let (head, tail) = chunk.encode_parts(u32::MAX).unwrap();
            let len = head.len() + tail.len();
            assert!(len == counted || codec == BlockCodec::Lzss && len < counted, "{codec:?}");
        }
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

    #[test]
    fn every_request_roundtrips_under_every_header() {
        for req in every_request() {
            for (ctx, deadline) in every_header() {
                let bytes = req.encode_framed(ctx, deadline);
                assert_eq!(Request::decode_framed(&bytes).unwrap(), (req.clone(), ctx, deadline));
            }
        }
        // Query text is u32-length-prefixed: no u16 ceiling on statements.
        let long = Request::Query {
            container: "/c".into(),
            sql: format!("SELECT time FROM '/t' WHERE {}", "x.y > 1 AND ".repeat(10_000)),
            partial: false,
        };
        let bytes = long.encode_framed(Some(CTX), Some(9));
        assert_eq!(Request::decode_framed(&bytes).unwrap(), (long, Some(CTX), Some(9)));
    }

    #[test]
    fn header_layout_is_flags_then_deadline_then_context() {
        let req = Request::Ping;
        assert_eq!(req.encode_framed(None, None), [0, OP_PING]);
        let both = req.encode_framed(Some(CTX), Some(42));
        assert_eq!(both[0], FLAG_DEADLINE | FLAG_TRACE | FLAG_SAMPLED);
        assert_eq!(both[1..9], 42u64.to_le_bytes());
        assert_eq!(both[9..17], CTX.trace_id.to_le_bytes());
        assert_eq!(both[17..25], CTX.parent_span.to_le_bytes());
        assert_eq!(both[25..], [OP_PING]);
        // The header changes nothing after it.
        let read = Request::Read { container: "/c".into(), topics: vec!["/t".into()], range: None };
        let (plain, traced) = (read.encode_framed(None, None), read.encode_framed(Some(CTX), None));
        assert_eq!(traced[0], FLAG_TRACE | FLAG_SAMPLED);
        assert_eq!(traced[17..], plain[1..]);
    }

    #[test]
    fn truncated_payloads_and_unknown_flags_are_typed_errors() {
        for req in every_request() {
            for (ctx, deadline) in every_header() {
                let bytes = req.encode_framed(ctx, deadline);
                for cut in 0..bytes.len() {
                    assert!(
                        Request::decode_framed(&bytes[..cut]).is_err(),
                        "{req:?}: {cut}-byte prefix of {} decoded",
                        bytes.len()
                    );
                }
                // Each undefined bit alone, all of them, and `sampled`
                // without a context to be the sampled bit of.
                for bad in [8u8, 16, 32, 64, 128, 0xF8, FLAG_SAMPLED] {
                    let mut flagged = bytes.clone();
                    flagged[0] = if bad == FLAG_SAMPLED { bad } else { flagged[0] | bad };
                    assert!(Request::decode_framed(&flagged).is_err(), "flags {:#04x}", flagged[0]);
                }
                let mut trailing = bytes;
                trailing.push(0);
                assert!(Request::decode_framed(&trailing).is_err());
            }
        }
    }

    #[test]
    fn retired_opcodes_are_unknown() {
        // STATS, plain READ_STREAM and the three former prefixes, where
        // an opcode goes: rejected like any opcode nobody speaks.
        let read = Request::Read { container: "/c".into(), topics: vec![], range: None };
        for op in [0x06, 0x09, 0x0F, 0x10, 0x11] {
            let mut bytes = read.encode_framed(None, None);
            bytes[1] = op;
            let err = Request::decode_framed(&bytes).unwrap_err();
            assert!(err.0.contains("unknown request opcode"), "{op:#04x}: {err}");
        }
        // And `OK_STATS`, where a response opcode goes.
        let err = Response::decode(&[0x86]).unwrap_err();
        assert!(err.0.contains("unknown response opcode"), "{err}");
    }

    #[test]
    fn every_frame_opens_with_its_seq() {
        let req = Request::Stat { container: "/c".into() };
        let framed = req.encode_seq(0xDEAD_BEEF, Some(CTX), Some(7)).unwrap();
        let (seq, rest) = split_seq(&framed).unwrap();
        assert_eq!((seq, rest), (0xDEAD_BEEF, &req.encode_framed(Some(CTX), Some(7))[..]));
        let resp = Response::Pong(PingInfo::default());
        let framed = resp.encode_seq(u32::MAX).unwrap();
        assert_eq!(split_seq(&framed).unwrap(), (u32::MAX, &resp.encode()[..]));
        // A frame too short to hold a seq is an error, never an answer.
        for short in [&[][..], &[1], &[1, 2, 3]] {
            assert!(split_seq(short).is_err());
        }
        assert_eq!(split_seq(&[1, 0, 0, 0]).unwrap(), (1, &[][..]));
    }

    #[test]
    fn lengths_past_their_u16_prefix_are_rejected_not_wrapped() {
        let long = "t".repeat(70_000);
        let fits = "t".repeat(u16::MAX as usize);
        let read = |container: &str, topics: Vec<String>| Request::Read {
            container: container.into(),
            topics,
            range: None,
        };
        assert!(read("/c", vec![fits.clone()]).encode_seq(1, None, None).is_ok());
        assert!(read("/c", vec![long.clone()]).encode_seq(1, None, None).is_err());
        assert!(read(&long, vec![]).encode_seq(1, None, None).is_err());
        assert!(read("/c", vec![String::new(); 65_536]).encode_seq(1, None, None).is_err());
        let append = Request::Append {
            container: "/live".into(),
            messages: vec![WireMessage {
                topic: long.clone(),
                time: Time::new(1, 0),
                data: vec![],
            }],
        };
        assert!(append.encode_seq(1, None, None).is_err());
        // Responses too: a column name can be as long as a query's text.
        assert!(Response::QuerySchema(vec![long.clone()]).encode_seq(1).is_err());
        // An error text is cut to fit (on a character boundary) instead.
        let message = format!("{}é", "x".repeat(u16::MAX as usize - 1));
        let resp = Response::Error { code: ErrorCode::BadQuery, message: message.clone() };
        let Response::Error { message: cut, .. } = Response::decode(&resp.encode()).unwrap() else {
            panic!("expected an error response")
        };
        assert_eq!(cut, message[..u16::MAX as usize - 1]);
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
        let mut r: &[u8] = &[
            0, 0, 0, 0, 0, 0, 0, 0, // count
            0, 0, 0, 0, 0, 0, 0, 0, // sum
            0, 0, 0, 0, 0, 0, 0, 0, // min
            1, 64, 1, 0, 0, 0, 0, 0, 0, 0, // one bucket at index 64 (out of range)
        ];
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
        let plain = Response::StreamChunk(msgs.clone()).encode().len();
        assert!(
            frame.len() < plain / 2,
            "mostly-zero batch must compress ≥2x: {} vs {plain}",
            frame.len()
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
    fn a_reply_in_parts_is_its_encode_seq() {
        let msgs =
            vec![WireMessage { topic: "/t".into(), time: Time::new(1, 0), data: vec![3; 90] }];
        let chunk = compress_chunk(&msgs, &mut IoCtx::new());
        let Response::StreamChunkLz(frame) = &chunk else { panic!("a chunk frame") };
        let (head, tail) = chunk.encode_parts(9).unwrap();
        assert_eq!((head.len(), tail.as_ptr()), (9, frame.as_ptr()), "the frame is borrowed");
        assert_eq!([head, tail.to_vec()].concat(), chunk.encode_seq(9).unwrap());
        for resp in [Response::StreamEnd { messages: 1 }, Response::Read(msgs.clone())] {
            let (head, tail) = resp.encode_parts(9).unwrap();
            assert!(tail.is_empty());
            assert_eq!(head, resp.encode_seq(9).unwrap());
        }
        // The chunk reads back where it lies; any other reply is not one,
        // and is left for `Response::decode`.
        let frame = chunk.encode_seq(9).unwrap();
        assert_eq!(chunk_messages::<WireMessage>(frame.clone()), Ok(msgs.clone()));
        assert_eq!(chunk_messages::<ChunkMessage>(frame.clone()).unwrap(), msgs);
        let end = Response::StreamEnd { messages: 1 }.encode_seq(9).unwrap();
        let mut other = end.clone();
        let mut out = VecDeque::<ChunkMessage>::new();
        assert_eq!(stream_chunk(&mut other, &mut ChunkTopics::default(), &mut out), Ok(None));
        assert_eq!((other, out.len()), (end, 0));
        let mut empty = 9u32.to_le_bytes().to_vec();
        assert_eq!(stream_chunk(&mut empty, &mut ChunkTopics::default(), &mut out), Ok(None));
        assert!(chunk_messages::<ChunkMessage>(frame[..frame.len() - 1].to_vec()).is_err());
        assert!(chunk_messages::<ChunkMessage>(vec![9, 0, 0]).is_err(), "no seq");
    }

    /// A received frame's messages as `stream_chunk` builds them, or its
    /// error; a frame that is not a chunk is a test failure.
    fn chunk_messages<M: FromChunk>(mut frame: Vec<u8>) -> ProtoResult<Vec<M>> {
        let mut out = VecDeque::new();
        let n = stream_chunk(&mut frame, &mut ChunkTopics::default(), &mut out)?;
        assert_eq!(n, Some(out.len() as u64), "a chunk");
        Ok(out.into())
    }

    /// A raw chunk frame, as received (seq first), around hand-laid
    /// logical bytes: a message count, then `entries`.
    fn raw_chunk(count: u32, entries: &[u8]) -> Vec<u8> {
        let mut buf = vec![0; bora::block::FRAME_HEADER_LEN];
        buf.put_u32(count);
        buf.extend_from_slice(entries);
        let frame = encode_frame_in_place(BlockCodec::None, buf, &mut IoCtx::new());
        Response::StreamChunkLz(frame).encode_seq(1).unwrap()
    }

    /// One chunk entry with a topic of any bytes and a payload length
    /// that need not be the payload's.
    fn entry(topic: &[u8], payload_len: u32, payload: &[u8]) -> Vec<u8> {
        let mut e = Vec::new();
        e.put_u16(topic.len() as u16);
        e.put_bytes(topic);
        e.put_time(Time::new(1, 2));
        e.put_u32(payload_len);
        e.put_bytes(payload);
        e
    }

    /// A chunk walked with hostile logical bytes under a valid CRC — a bad
    /// topic after one already interned, a payload past the chunk's end,
    /// a trailing byte, a count the chunk cannot hold — is a typed error
    /// from every builder and from `decompress_chunk`, never a panic, and
    /// appends nothing to what the stream already holds.
    #[test]
    fn a_hostile_chunk_body_is_a_proto_error() {
        let imu = entry(b"/imu", 3, &[7; 3]);
        let cases = [
            (
                "non-UTF-8 topic after an interned one",
                raw_chunk(2, &[imu.clone(), entry(&[0xC3, 0x28], 0, &[])].concat()),
                "non-UTF8",
            ),
            (
                "payload past the chunk's end",
                raw_chunk(2, &[imu.clone(), entry(b"/imu", 4, &[7; 3])].concat()),
                "needed 4 bytes, had 3",
            ),
            ("trailing byte", raw_chunk(1, &[imu.clone(), vec![0]].concat()), "1 trailing"),
            (
                "count past the chunk's end",
                raw_chunk(3, &[imu.clone(), imu.clone()].concat()),
                "truncated",
            ),
            ("count the chunk cannot hold", raw_chunk(u32::MAX, &imu), "implausible"),
        ];
        let good = raw_chunk(1, &imu);
        for (what, frame, says) in cases {
            let mut topics = ChunkTopics::default();
            let mut out = VecDeque::<ChunkMessage>::new();
            let mut held = good.clone();
            assert_eq!(stream_chunk(&mut held, &mut topics, &mut out), Ok(Some(1)), "{what}");
            let mut bad = frame.clone();
            let err = stream_chunk(&mut bad, &mut topics, &mut out).expect_err(what);
            assert!(err.0.contains(says), "{what}: {err}");
            assert_eq!(out.len(), 1, "{what}: nothing appended");
            let mut owned = VecDeque::<WireMessage>::new();
            let mut bad = frame.clone();
            let err = stream_chunk(&mut bad, &mut topics, &mut owned).expect_err(what);
            assert!(err.0.contains(says) && owned.is_empty(), "{what}: {err}");
            let err = decompress_chunk(&frame[9..]).expect_err(what);
            assert!(err.0.contains(says), "{what}: {err}");
        }
    }

    /// Random message lists — repeated topics, empty payloads, an empty
    /// topic, a multi-byte one — sent as raw and as LZ-coded chunks decode
    /// to the same messages through `decompress_chunk` and through both of
    /// `stream_chunk`'s builders; a stream names each topic with one
    /// shared string.
    #[test]
    fn both_builders_decode_every_chunk_alike() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let names = ["/imu", "", "/kamera/\u{fc}berblick/\u{6df1}\u{5ea6}", "/tf", "/imu/data_raw"];
        let mut rng = StdRng::seed_from_u64(0xB0BA);
        let mut lz_coded = 0;
        for _ in 0..200 {
            let n = rng.random_range(0..40usize);
            let msgs: Vec<WireMessage> = (0..n)
                .map(|i| {
                    let len = if rng.random_bool(0.2) { 0 } else { rng.random_range(1..300usize) };
                    let fill = rng.random_range(0..=255u8);
                    let data = if rng.random_bool(0.5) {
                        vec![fill; len]
                    } else {
                        (0..len).map(|_| rng.random_range(0..=255u8)).collect()
                    };
                    let topic = names[rng.random_range(0..names.len())].to_owned();
                    WireMessage {
                        topic,
                        time: Time::new(i as u32, rng.random_range(0..1000)),
                        data,
                    }
                })
                .collect();
            let (mut topics, mut streamed) =
                (ChunkTopics::default(), VecDeque::<ChunkMessage>::new());
            let mut owned = VecDeque::<WireMessage>::new();
            for codec in [BlockCodec::None, BlockCodec::Lzss] {
                let Response::StreamChunkLz(block) = chunk_of(&msgs, codec) else { panic!() };
                lz_coded += usize::from(block[0] == BlockCodec::Lzss.id());
                assert_eq!(decompress_chunk(&block).unwrap(), msgs, "{codec:?}");
                let frame = Response::StreamChunkLz(block).encode_seq(1).unwrap();
                let got = stream_chunk(&mut frame.clone(), &mut topics, &mut streamed);
                assert_eq!(got, Ok(Some(n as u64)));
                assert_eq!(stream_chunk(&mut frame.clone(), &mut topics, &mut owned), got);
            }
            let twice = [&msgs[..], &msgs[..]].concat();
            assert_eq!(Vec::from(owned), twice);
            assert!(streamed.iter().zip(&twice).all(|(s, w)| s == w));
            for (a, b) in streamed.iter().zip(streamed.iter().skip(1)) {
                assert_eq!(
                    a.topic == b.topic,
                    Arc::ptr_eq(&a.topic, &b.topic),
                    "one string a topic"
                );
            }
        }
        assert!(lz_coded > 50, "{lz_coded} of 200 lists LZ-coded");
    }

    #[test]
    fn hostile_chunk_header_cannot_make_the_client_allocate() {
        // A server (or a bit flip) controls the frame header, which the
        // CRC does not cover: a few dozen stored bytes with a valid CRC
        // under an `unc_len` of 4 GiB must be a typed error, not a
        // reservation.
        let mut ctx = IoCtx::new();
        let msgs =
            vec![WireMessage { topic: "/t".into(), time: Time::new(1, 0), data: vec![0; 200] }];
        let Response::StreamChunkLz(mut frame) = compress_chunk(&msgs, &mut ctx) else { panic!() };
        assert_eq!(frame[0], BlockCodec::Lzss.id());
        frame[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decompress_chunk(&frame).unwrap_err();
        assert!(err.0.contains("bad compressed chunk"), "{err}");
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
        assert_eq!(Request::Metrics.container(), None);
        assert_eq!(Request::Ping.container(), None);
        assert_eq!(Request::Shutdown.container(), None);
        // A data request has an op; a control request has neither.
        for req in every_request() {
            assert_eq!(req.op().is_some(), req.container().is_some(), "{req:?}");
        }
        let stream = Request::ReadStream2 { container: "/c".into(), topics: vec![], range: None };
        assert_eq!(stream.op(), Some(Op::ReadStream));
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        assert!(Request::decode_framed(&[]).is_err());
        assert!(Request::decode_framed(&[0, 0x42]).is_err(), "unknown opcode");
        // OPEN with a length prefix pointing past the end.
        assert!(Request::decode_framed(&[0, OP_OPEN, 0xFF, 0xFF, b'x']).is_err());
        assert!(Response::decode(&[]).is_err());
        assert!(Response::decode(&[0x42]).is_err(), "unknown opcode");
        // Oversized frame header, read or written.
        assert!(frame_len((MAX_FRAME_LEN + 1).to_le_bytes()).is_err());
        assert_eq!(frame_len(17u32.to_le_bytes()).unwrap(), 17);
        let max = MAX_FRAME_LEN as usize;
        assert_eq!(frame_prefix(max).unwrap(), MAX_FRAME_LEN.to_le_bytes());
        assert_eq!(frame_len(frame_prefix(17).unwrap()).unwrap(), 17);
        for over in [max + 1, u32::MAX as usize, u32::MAX as usize + 1] {
            assert!(frame_prefix(over).is_err(), "{over}");
        }
    }
}
