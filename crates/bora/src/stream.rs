//! Streaming, zero-copy query pipeline — the primary read path.
//!
//! The paper's Fig. 7 read is "one contiguous read per topic + a k-way
//! merge". The materializing implementation of that idea pays three taxes
//! the paper never models: the whole result set resident at once, a
//! per-message `String` + payload allocation, and a *linear scan over all
//! k cursors per output message*. [`MessageStream`] removes all three:
//!
//! * **Bounded cursors** — each topic is read through a cursor that
//!   fetches the `data` file in runs of consecutive index entries capped
//!   by a readahead window ([`StreamOptions::readahead_bytes`]), so peak
//!   resident bytes are ~`k × readahead`, not the result size.
//! * **Heap merge** — [`Merge`], a binary heap over `(time, lane)` keys,
//!   picks the next message in O(log k); `lane` is the topic's position
//!   in the caller's request, which reproduces the old merge's (and the
//!   baseline reader's) first-requested-wins order for simultaneous
//!   timestamps while staying a total, deterministic tie-break. The lane
//!   that won last stays out of the heap and keeps winning while its next
//!   key still sorts before the heap's top, so a run of messages from one
//!   lane — and all of a single-topic stream — costs no heap operation.
//!   The cluster router merges per-container streams with the same type.
//! * **Lent runs** — [`MessageStream::lend_run`] drives the merge: one
//!   pick lends the winning lane's next messages as a [`Run`], index
//!   entries over one queued block, up to the consumer's cap, the end of
//!   that block and the runner-up lane's head key
//!   ([`Merge::runner_up`]) — exactly the messages the lead would win
//!   one pick at a time without a heap operation. A straddler, an empty
//!   payload and a tail message are runs of one. The consumer borrows
//!   the run until its next pull; [`MessageStream::lend`] is a run of
//!   one ([`Lent`]). A consumer that must keep a message longer calls
//!   [`MessageStream::next_msg`] ("lend, then own"): a [`StreamMessage`]
//!   is an (`Arc<[u8]>` block, range) pair plus an interned `Arc<str>`
//!   topic name. Either way `stream.bytes_copied` stays at 0 until a
//!   consumer explicitly materializes (`to_record`). A run is charged,
//!   counted and advanced once, as `n` single lends would be: the
//!   virtual clock, the fill passes, `heap_ops`, `delivered` and
//!   `bytes_stitched` do not depend on how a consumer cuts its runs.
//! * **Page-backed cursors** — on a block-framed topic the cursor queues
//!   the buffer pool's own pages (no copy of them) and a payload is a
//!   slice of its page; a payload that straddles pages is stitched into
//!   one buffer of its own length, the one copy left
//!   (`stream.bytes_stitched`). A queued page is the pool's `Arc<[u8]>`,
//!   which the pool may evict at any time: an evicted page then costs
//!   its bytes until the cursor passes it, and the budget bounds what
//!   the pool keeps, not what cursors hold. A v1 topic queues one
//!   `read_at` buffer per run.
//! * **Modelled parallel prefetch** — BORA-Lib fills topics in
//!   parallel; here the fills of a pass run inline, one lane after
//!   another on the consumer's thread, and the parallelism is the
//!   model's. Each cursor owns an `IoCtx` whose declared contention is
//!   set per fill pass to the number of modelled lanes sharing the
//!   device in that pass (a lone steady-state refill runs uncontended),
//!   and the caller is charged the pass's makespan: `PREFETCH_LANES`
//!   lanes take the pass's cursors in equal shares, in order, and the
//!   pass costs the dearest share — how the organizer charges its
//!   distributors.
//!
//! Per-message bookkeeping is a field or a handle, never a name: the
//! stream publishes its `stream.merge.heap_ops` and
//! `stream.bytes_stitched` once, when its clocks are folded
//! ([`MessageStream::charge_into`]), and `to_record` keeps
//! `stream.bytes_copied` in a process-wide `OnceLock` — a by-name
//! `bora_obs::counter(..)` is a global lock, a `String` and a hash, which
//! per message was ~75 of a warm `next_msg`'s ~175 ns. What still looks a
//! name up here does so once per fill (`stream.prefetch.queue_depth`);
//! `tests/metric_lookups.rs` holds the line.
//!
//! Full-topic streams still honor the commit manifest: each cursor folds
//! the chunks it fetches into a running CRC32C and compares against the
//! manifest entry when the file's last chunk arrives, so a corrupt topic
//! surfaces as [`BoraError::ChecksumMismatch`] before the stream can
//! complete — on every stream of it, as nothing remembers the failure.
//! Time-range streams skip content verification, exactly like the
//! materializing time path always has.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::device::cpu;
use simfs::{IoCtx, Storage};

use crate::checksum::Crc32c;
use crate::container::{BoraBag, DataSource, FUSE_DELIVERY_NS};
use crate::error::{BoraError, BoraResult};
use crate::layout::TopicPaths;
use crate::tag::OpenTopic;
use crate::topic_index::TopicIndexEntry;

/// Tuning for [`MessageStream`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Per-topic readahead window: a cursor keeps at most ~this many
    /// data-file bytes queued (one oversized message may exceed it — a
    /// run always covers at least one entry).
    pub readahead_bytes: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { readahead_bytes: 1 << 20 }
    }
}

/// The modelled prefetch parallelism: a fill pass costs the dearest of
/// this many equal shares of its lanes. No thread runs them.
const PREFETCH_LANES: usize = 4;

/// One in-memory message appended *after* a topic's container entries —
/// served from an ingest memtable or a sealed segment instead of the
/// topic's `data` file. A live store hands these to
/// [`BoraBag::stream_topics_with_tails`] so the k-way merge sees
/// mid-recording data through the exact same lanes (and therefore the
/// exact same `(time, lane)` tie-break) as compacted data: the merge
/// output is byte-identical whether a message lives in a tail or in the
/// container.
///
/// Tail messages of one topic must be chronological and must not predate
/// the topic's last container entry — the ingest store enforces both by
/// rejecting out-of-order appends — and must lie inside the stream's
/// range: the holder cuts its tails to the window (the ingest snapshot
/// binary-searches its sorted slices), so the stream never copies or
/// filters a message it will not deliver.
#[derive(Debug, Clone)]
pub struct TailMessage {
    pub time: Time,
    pub data: Arc<[u8]>,
}

/// One message, owned: a shared slice of its topic's data block.
#[derive(Debug, Clone)]
pub struct StreamMessage {
    pub conn_id: u32,
    /// Interned topic name (shared with the tag table — no allocation).
    pub topic: Arc<str>,
    pub time: Time,
    block: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl StreamMessage {
    /// Borrow the payload — zero copies, zero allocations.
    pub fn payload(&self) -> &[u8] {
        &self.block[self.start..self.start + self.len]
    }

    /// Materialize into the classic owned record (copies payload + topic;
    /// the copy is counted in the `stream.bytes_copied` metric so the
    /// zero-copy claim is measurable, not asserted).
    pub fn to_record(&self) -> MessageRecord {
        record(self.conn_id, &self.topic, self.time, self.payload())
    }
}

/// One message, lent: the front of the lane that won the merge, borrowed
/// from its cursor until the stream is pulled again. Nothing is cloned to
/// make one; [`Lent::own`] is what [`MessageStream::next_msg`] adds.
#[derive(Debug, Clone, Copy)]
pub struct Lent<'a> {
    pub time: Time,
    pub topic: &'a Arc<str>,
    pub payload: &'a [u8],
    pub conn_id: u32,
    /// The topic's position among the topics the stream was built over.
    pub lane: usize,
    block: &'a Arc<[u8]>,
    start: usize,
}

impl Lent<'_> {
    /// Keep the message past the next pull: two reference bumps, no copy.
    pub fn own(&self) -> StreamMessage {
        StreamMessage {
            conn_id: self.conn_id,
            topic: Arc::clone(self.topic),
            time: self.time,
            block: Arc::clone(self.block),
            start: self.start,
            len: self.payload.len(),
        }
    }

    /// [`StreamMessage::to_record`], straight from the lent view.
    pub fn to_record(&self) -> MessageRecord {
        record(self.conn_id, self.topic, self.time, self.payload)
    }
}

/// A run of one lane's messages, lent: its first message and the index
/// entries after it whose payloads lie in the same queued block — a pool
/// page, or a v1 topic's run buffer — borrowed from its cursor until the
/// stream is pulled again. A straddler (lent from its stitch), an empty
/// payload and a tail message are runs of one.
pub struct Run<'a> {
    /// The topic's position among the topics the stream was built over.
    pub lane: usize,
    first: Lent<'a>,
    rest: &'a [TopicIndexEntry],
    /// Data-file offset of the block's first byte.
    base: u64,
}

impl<'a> Run<'a> {
    /// The run's messages, in merge order.
    pub fn messages(&self) -> impl Iterator<Item = Lent<'a>> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().map(move |e| {
            let start = (e.offset - self.base) as usize;
            let payload = &self.first.block[start..][..e.len as usize];
            Lent { time: e.time, payload, start, ..self.first }
        }))
    }
}

fn record(conn_id: u32, topic: &str, time: Time, payload: &[u8]) -> MessageRecord {
    // Resolved once per process: this runs for every message of every
    // materializing read, and a lookup by name is a lock, a `String`
    // and a hash.
    static BYTES_COPIED: OnceLock<bora_obs::Counter> = OnceLock::new();
    BYTES_COPIED.get_or_init(|| bora_obs::counter("stream.bytes_copied")).add(payload.len() as u64);
    MessageRecord { conn_id, topic: topic.to_owned(), time, data: payload.to_vec() }
}

/// Counters a finished (or in-flight) stream exposes for tests and the
/// serve layer's metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Messages yielded so far.
    pub delivered: u64,
    /// Heap operations the merge performed: a lead displaced (its push
    /// and the winner's pop) or, once a lane ran dry, the pop alone.
    /// Messages the lead lane delivers in a row cost none.
    pub heap_ops: u64,
    /// High-water mark of the bytes all cursors hold (pages and runs).
    pub peak_resident_bytes: usize,
    /// Data-file bytes fetched by cursor fills.
    pub bytes_fetched: u64,
    /// Number of cursor fill batches issued.
    pub refills: u64,
    /// Payload bytes copied because their message straddled pages.
    pub bytes_stitched: u64,
}

/// The `(time, lane)` k-way merge: which lane's head comes next. Lanes
/// are numbered from 0 and keyed by their head's time in nanoseconds; a
/// tie goes to the lower lane. The lane that won last — the lead — is
/// kept out of the heap with the key of its next head and wins again,
/// without a heap operation, while that key sorts before the heap's top.
///
/// A caller [`pick`](Merge::pick)s a lane, consumes its head, and reports
/// the lane's next key with [`advance`](Merge::advance) before it picks
/// again. [`MessageStream`] drives one over topic cursors, the cluster
/// router one over per-container streams.
pub struct Merge {
    /// One key per lane with a head, other than the lead.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The lane that won last and its next key, from `advance` until the
    /// next `pick`.
    lead: Option<(u64, usize)>,
    heap_ops: u64,
}

impl Merge {
    /// A merge over lanes whose first keys are `heads`, in lane order
    /// (`None`: the lane is empty).
    pub fn new(heads: impl IntoIterator<Item = Option<u64>>) -> Self {
        let keys = heads.into_iter().enumerate().filter_map(|(lane, t)| Some(Reverse((t?, lane))));
        let mut heap: BinaryHeap<_> = keys.collect();
        Merge { lead: heap.pop().map(|Reverse(key)| key), heap, heap_ops: 0 }
    }

    /// The lane whose head is next, or `None` once every lane is dry.
    #[inline]
    pub fn pick(&mut self) -> Option<usize> {
        match self.lead.take() {
            Some(key) if self.runner_up().is_none_or(|top| key < top) => Some(key.1),
            lead => {
                self.heap.extend(lead.map(Reverse));
                let Reverse((_, lane)) = self.heap.pop()?;
                self.heap_ops += 1;
                Some(lane)
            }
        }
    }

    /// The lane just picked has `next` as its head's key now (`None`: it
    /// is dry).
    #[inline]
    pub fn advance(&mut self, lane: usize, next: Option<u64>) {
        self.lead = next.map(|t| (t, lane));
    }

    /// The key of the runner-up lane's head, the heap's top: between a
    /// `pick` and its `advance`, the picked lane's later heads that sort
    /// before it are the ones the lane would win again without a heap
    /// operation (`None`: no other lane has a head).
    pub fn runner_up(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|top| top.0)
    }

    /// Every lane is dry from now on: a caller whose lane failed ends
    /// the merge with it.
    pub fn end(&mut self) {
        (self.heap, self.lead) = (BinaryHeap::new(), None);
    }

    /// Heap operations so far: a lead displaced (its push and the
    /// winner's pop) or, once a lane ran dry, the pop alone. A pick the
    /// lead wins costs none, so this is the number of picks whose lane
    /// differs from the one before.
    pub fn heap_ops(&self) -> u64 {
        self.heap_ops
    }
}

/// Fetched bytes a cursor holds: one pool page of a block-framed topic,
/// or one `read_at` run of a v1 one.
#[derive(Debug)]
struct Block {
    /// Absolute (logical) data-file offset of `data[0]`.
    start: u64,
    data: Arc<[u8]>,
}

impl Block {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }
}

/// Per-topic read cursor: index entries + a bounded queue of fetched
/// blocks + a private virtual clock charged for this topic's I/O.
#[derive(Default)]
struct TopicCursor {
    /// The open topic's record: name, connection id, paths, block map.
    topic: Arc<OpenTopic>,
    entries: Vec<TopicIndexEntry>,
    /// Next entry to yield to the merge.
    next: usize,
    /// Entries [..fetched) are covered by `blocks`.
    fetched: usize,
    /// In offset order; what the merge has passed is retired from the
    /// front, and a block-framed topic's back page is what the next run
    /// continues in.
    blocks: VecDeque<Block>,
    /// The straddling payload last lent, stitched from its pages.
    stitch: Arc<[u8]>,
    /// In-memory messages merged after the container entries (live-ingest
    /// tails). Delivered straight from their shared payload slices — no
    /// fill, no block queue.
    tail: Vec<TailMessage>,
    /// Next tail message to yield once `entries` are exhausted.
    tail_next: usize,
    /// Whether the topic has container files behind it. Tail-only lanes
    /// (topics not yet compacted into the container) skip index loading
    /// and fills entirely.
    container_backed: bool,
    /// How the data file is physically read: direct or block-decoded
    /// (resolved once at prepare).
    src: DataSource,
    /// Running CRC over the whole data file + manifest expectation, when
    /// this is a verifying full-file direct stream. Block-framed reads
    /// verify per block at fill time instead (a pool hit must not depend
    /// on having streamed the whole file).
    verify: Option<(Crc32c, u64, u32, String)>,
    /// This cursor's share of the virtual clock (prefetch I/O).
    ctx: IoCtx,
}

impl TopicCursor {
    fn peek_time(&self) -> Option<Time> {
        let entry = self.entries.get(self.next).map(|e| e.time);
        entry.or_else(|| self.tail.get(self.tail_next).map(|m| m.time))
    }

    /// Fetched bytes the merge has not passed yet. Of a block-framed
    /// topic: fetched end − next entry's offset. A v1 run is one buffer,
    /// held — and counted, as it always was — until its last message has
    /// gone.
    fn queued_bytes(&self) -> usize {
        let Some(next) = self.entries[..self.fetched].get(self.next) else { return 0 };
        if let DataSource::Blocked { .. } = self.src {
            return (self.entries[self.fetched - 1].end() - next.offset) as usize;
        }
        self.blocks.iter().filter(|b| b.end() > next.offset).map(|b| b.data.len()).sum()
    }

    /// Drop the blocks that end at or before `offset`, the first byte
    /// still to be delivered.
    fn retire(&mut self, offset: u64) {
        while self.blocks.front().is_some_and(|b| b.end() <= offset) {
            self.blocks.pop_front();
        }
    }

    /// Fetch runs of consecutive entries until ~`readahead` bytes are
    /// queued (always at least one entry per run, so oversized messages
    /// still stream). Every fetched entry ends up covered by `blocks`,
    /// or the fill fails: [`TopicCursor::lend_run`] slices without checking.
    fn fill<S: Storage>(&mut self, bag: &BoraBag<S>, readahead: usize) -> BoraResult<()> {
        let corrupt = |what: String| Err(BoraError::Corrupt(what));
        while self.fetched < self.entries.len() && self.queued_bytes() < readahead {
            let run_start = self.entries[self.fetched].offset;
            if self.fetched > 0 && run_start < self.entries[self.fetched - 1].end() {
                return corrupt(format!(
                    "{}: entry {} starts at {run_start}, inside its predecessor",
                    self.topic.paths.index, self.fetched
                ));
            }
            // A hole between entries (never produced by the organizer,
            // but defensively possible) ends the run.
            let mut end_idx = self.fetched;
            let mut run_end = run_start;
            while end_idx < self.entries.len() {
                let e = &self.entries[end_idx];
                if e.offset != run_end || (run_end - run_start) as usize >= readahead {
                    break;
                }
                run_end = e.end();
                end_idx += 1;
            }
            self.retire(self.entries[self.next].offset);
            match &self.src {
                // One buffer per run, folded into the whole-file CRC of a
                // verifying stream, checked when the last chunk lands.
                DataSource::RawDirect => {
                    let (path, len) = (&self.topic.paths.data, (run_end - run_start) as usize);
                    let bytes = bag.storage.read_at(path, run_start, len, &mut self.ctx)?;
                    if let Some((crc, expected_len, expected_crc, rel)) = self.verify.as_mut() {
                        crc.update(&bytes);
                        if end_idx == self.entries.len() {
                            let actual = crc.finish();
                            if run_end != *expected_len || actual != *expected_crc {
                                bora_obs::counter("verify.checksum_fail").inc();
                                return Err(BoraError::ChecksumMismatch {
                                    path: std::mem::take(rel),
                                    expected: *expected_crc,
                                    actual,
                                });
                            }
                        }
                    }
                    self.blocks.push_back(Block { start: run_start, data: Arc::from(bytes) });
                }
                // The pool's own pages, from the first byte not queued
                // yet: a run that continues in the back page does not
                // fetch it again.
                DataSource::Blocked { map } => {
                    if run_end > map.logical_len {
                        return corrupt(format!(
                            "{}: index ends at {run_end}, block map logs {}",
                            self.topic.paths.data, map.logical_len
                        ));
                    }
                    let (paths, page_size) = (&self.topic.paths, map.block_size as u64);
                    let mut at = self.blocks.back().map_or(run_start, |b| b.end().max(run_start));
                    while at < run_end {
                        let page = at / page_size;
                        let start = page * page_size;
                        let data = bag.block_page(paths, map, page as usize, &mut self.ctx)?;
                        let (path, len) = (&paths.data, data.len() as u64);
                        if len != (map.logical_len - start).min(page_size) {
                            return corrupt(format!("{path}: page {page} holds {len} bytes"));
                        }
                        at = start + len;
                        self.blocks.push_back(Block { start, data });
                    }
                }
            }
            self.fetched = end_idx;
        }
        bora_obs::histogram("stream.prefetch.queue_depth").record(self.blocks.len() as u64);
        Ok(())
    }

    /// Lend the next run — the next message, and after it those of the
    /// next `max` − 1 that were fetched, lie in the same block, have a
    /// payload and are keyed `(time, lane)` before `bound`, up to the
    /// first that does not — with the time of the message after it. The
    /// covering blocks must already be queued.
    #[inline]
    fn lend_run(
        &mut self,
        lane: usize,
        max: usize,
        bound: Option<(u64, usize)>,
        stitched: &mut u64,
    ) -> (Option<Time>, Run<'_>) {
        let (time, block, start, len);
        let (mut rest, mut base) = (&[][..], 0);
        if let Some(&e) = self.entries.get(self.next) {
            self.next += 1;
            (time, len) = (e.time, e.len as usize);
            if len == 0 {
                // An empty payload lies in no page (it may sit past the
                // last one): any buffer's empty prefix is it.
                (block, start) = (&self.stitch, 0);
            } else {
                self.retire(e.offset);
                let front = self.blocks.front().expect("fill covers every fetched entry");
                let at = (e.offset - front.start) as usize;
                if e.end() <= front.end() {
                    (block, start) = (&front.data, at);
                    // A run of one (`lend`) scans no further entry.
                    if max > 1 {
                        let fits = |x: &&TopicIndexEntry| {
                            let key = (x.time.as_nanos(), lane);
                            x.len > 0 && x.end() <= front.end() && bound.is_none_or(|b| key < b)
                        };
                        let end = self.next + (max - 1).min(self.fetched - self.next);
                        let n = self.entries[self.next..end].iter().take_while(fits).count();
                        (rest, base) = (&self.entries[self.next..self.next + n], front.start);
                        self.next += n;
                    }
                } else {
                    // A straddler: the one copy left, into a buffer of
                    // the payload's own length.
                    let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
                    let out = Arc::get_mut(&mut buf).expect("a fresh buffer is not shared");
                    let (mut done, mut skip) = (0, at);
                    for b in &self.blocks {
                        let n = (b.data.len() - skip).min(len - done);
                        out[done..done + n].copy_from_slice(&b.data[skip..skip + n]);
                        (done, skip) = (done + n, 0);
                        if done == len {
                            break;
                        }
                    }
                    *stitched += len as u64;
                    self.stitch = buf;
                    (block, start) = (&self.stitch, 0);
                }
            }
        } else {
            // Container entries exhausted — serve from the in-memory tail.
            let m = &self.tail[self.tail_next];
            self.tail_next += 1;
            (time, block, start, len) = (m.time, &m.data, 0, m.data.len());
        }
        let payload = &block[start..start + len];
        let (topic, conn_id) = (&self.topic.name, self.topic.conn_id);
        let first = Lent { time, topic, payload, conn_id, lane, block, start };
        (self.peek_time(), Run { lane, first, rest, base })
    }
}

/// A chronological k-way merged stream over selected topics of a
/// [`BoraBag`]. Obtain one via [`BoraBag::stream_topics`] /
/// [`BoraBag::stream_topics_with_tails`]; drive it with
/// [`MessageStream::lend_run`] or [`MessageStream::lend`], or
/// [`MessageStream::next_msg`] to keep what it yields.
pub struct MessageStream<'a, S: Storage> {
    bag: &'a BoraBag<S>,
    cursors: Vec<TopicCursor>,
    /// Over the cursors' next message times, lane = cursor index; emptied
    /// when a fill fails, which ends the stream.
    merge: Merge,
    opts: StreamOptions,
    /// The consumer's declared process concurrency; each fill pass
    /// multiplies it by the number of modelled lanes active in *that
    /// pass*.
    base_concurrency: u32,
    /// `ceil(log2 k)` for the merge's per-message CPU charge (0 for k<=1).
    log_k: u64,
    stats: StreamStats,
    /// Accumulated prefetch cost: per fill pass, the dearest modelled
    /// lane's sum of cursor-clock deltas. This is what `charge_into` puts
    /// on the consumer's clock.
    io_ns: u64,
    /// Set once the prefetch clocks have been folded into a consumer ctx
    /// (idempotence for `charge_into`).
    charged: bool,
}

impl<'a, S: Storage> MessageStream<'a, S> {
    /// Build a stream over `topics`; `range` bounds it via the coarse
    /// time index (`None` = whole topics, manifest-verified). `tails` is
    /// either empty or one tail per topic (live-ingest messages merged
    /// after the topic's container entries, already inside `range`); a
    /// topic unknown to the container is accepted when it brings a
    /// non-empty tail.
    pub(crate) fn new(
        bag: &'a BoraBag<S>,
        topics: &[&str],
        mut tails: Vec<Vec<TailMessage>>,
        range: Option<(Time, Time)>,
        opts: StreamOptions,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let k = topics.len();
        debug_assert!(tails.is_empty() || tails.len() == k, "one tail per topic");
        tails.resize_with(k, Vec::new);
        let mut cursors = Vec::with_capacity(k);
        for (&name, tail) in topics.iter().zip(tails) {
            let (topic, container_backed) = match bag.tags.lookup(name, ctx) {
                Ok(topic) => (Arc::clone(topic), true),
                Err(BoraError::UnknownTopic(_)) if !tail.is_empty() => {
                    // Tail-only lane: every message is in memory; the
                    // (nonexistent) container files are never touched.
                    (OpenTopic::new(name, TopicPaths::default()), false)
                }
                Err(e) => return Err(e),
            };
            cursors.push(TopicCursor {
                topic,
                tail,
                container_backed,
                ctx: IoCtx::with_concurrency(ctx.concurrency),
                ..TopicCursor::default()
            });
        }
        let mut stream = MessageStream {
            bag,
            cursors,
            merge: Merge::new([]),
            opts,
            base_concurrency: ctx.concurrency,
            log_k: if k > 1 { (usize::BITS - (k - 1).leading_zeros()) as u64 } else { 0 },
            stats: StreamStats::default(),
            io_ns: 0,
            charged: false,
        };
        // Index load + initial fill for every cursor, in one pass.
        stream.fill_pass(&(0..k).collect::<Vec<_>>(), range, true)?;
        stream.merge = Merge::new(stream.cursors.iter().map(|c| c.peek_time().map(Time::as_nanos)));
        Ok(stream)
    }

    /// Run prepare (optionally) + fill for `lanes` (ascending), one after
    /// another on the caller's thread. The pass is charged as if
    /// `PREFETCH_LANES` lanes had filled it in parallel: each takes an
    /// equal share of the cursors in order, and the pass costs the
    /// dearest share. The first failure ends the pass and the merge.
    fn fill_pass(
        &mut self,
        lanes: &[usize],
        range: Option<(Time, Time)>,
        prepare: bool,
    ) -> BoraResult<()> {
        if lanes.is_empty() {
            return Ok(());
        }
        self.stats.refills += 1;
        let readahead = self.opts.readahead_bytes.max(1);
        let parallel = PREFETCH_LANES.min(lanes.len());
        // Contention is per pass: only the lanes filled *in this pass*
        // share the device. A lone steady-state refill runs uncontended;
        // a batched refill divides bandwidth across its modelled lanes
        // (batched lanes are all low-water, so their fetch sizes — and
        // hence their shares — are roughly equal by construction).
        let contention = self.base_concurrency.saturating_mul(parallel as u32).max(1);
        let sp = bora_obs::span("bora.stream.prefetch");
        let (mut costs, mut filled) = (Vec::with_capacity(lanes.len()), Ok(()));
        for &lane in lanes {
            let c = &mut self.cursors[lane];
            c.ctx.concurrency = contention;
            let t0 = c.ctx.elapsed_ns();
            filled = prepare_and_fill(self.bag, c, range, readahead, prepare);
            costs.push(c.ctx.elapsed_ns() - t0);
            if filled.is_err() {
                break;
            }
        }
        let share = lanes.len().div_ceil(parallel);
        let pass_ns = costs.chunks(share).map(|s| s.iter().sum()).max().unwrap_or(0);
        self.io_ns += pass_ns;
        sp.end_virt(pass_ns);
        let held = self.cursors.iter().flat_map(|c| &c.blocks);
        let resident: usize = held.map(|b| b.data.len()).sum();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
        self.stats.bytes_fetched = self.cursors.iter().map(|c| c.ctx.stats.bytes_read).sum();
        filled.inspect_err(|_| self.merge.end())
    }

    /// Lend the next run in global time order — up to `max` (at least
    /// one) of one lane's messages, views of its front valid until the
    /// next pull — or `None` when the stream is exhausted. The first
    /// `None` folds the prefetch clocks into `ctx` (each fill pass at its
    /// modelled makespan — see module docs). This is what drives the
    /// stream's [`Merge`]: one pick per run, and every other way to drain
    /// the stream goes through it. A run ends at `max`, at the end of its
    /// block or of the fetched entries, and before the runner-up lane's
    /// head, so it costs what as many [`MessageStream::lend`]s would.
    pub fn lend_run(&mut self, ctx: &mut IoCtx, max: usize) -> BoraResult<Option<Run<'_>>> {
        let Some(lane) = self.merge.pick() else {
            self.charge_into(ctx);
            return Ok(None);
        };
        let c = &self.cursors[lane];
        if c.next >= c.fetched && c.next < c.entries.len() {
            // The lane is dry. Batch the refill: top up every low cursor
            // in one pass so one dry lane amortizes the others'
            // readahead.
            let half = self.opts.readahead_bytes.max(1) / 2;
            let low = |c: &TopicCursor| c.fetched < c.entries.len() && c.queued_bytes() < half;
            let lanes: Vec<usize> =
                (0..self.cursors.len()).filter(|&l| l == lane || low(&self.cursors[l])).collect();
            self.fill_pass(&lanes, None, false).inspect_err(|_| self.charge_into(ctx))?;
        }
        // A run of one (`lend`) needs no bound, so it reads none.
        let bound = if max > 1 { self.merge.runner_up() } else { None };
        let stitched = &mut self.stats.bytes_stitched;
        let (next, run) = self.cursors[lane].lend_run(lane, max, bound, stitched);
        // Per-message consumer-side charges, in one add: one FUSE/ROS-Lib
        // delivery round trip + the paper's O(log k) pick (k<=1 merges
        // are free, matching the old single-stream fast path). The model
        // prices the paper's merge, so a pick the lead made for free is
        // charged like any other.
        let n = 1 + run.rest.len() as u64;
        ctx.charge_ns(n * (FUSE_DELIVERY_NS + self.log_k * cpu::SORT_ELEMENT_NS));
        self.stats.delivered += n;
        self.merge.advance(lane, next.map(Time::as_nanos));
        Ok(Some(run))
    }

    /// [`MessageStream::lend_run`] of one message: a view of the winning
    /// lane's front, valid until the next pull; `None` when exhausted.
    pub fn lend(&mut self, ctx: &mut IoCtx) -> BoraResult<Option<Lent<'_>>> {
        Ok(self.lend_run(ctx, 1)?.map(|run| run.first))
    }

    /// [`MessageStream::lend`], then own: for a consumer that keeps the
    /// message across the next pull.
    pub fn next_msg(&mut self, ctx: &mut IoCtx) -> BoraResult<Option<StreamMessage>> {
        Ok(self.lend(ctx)?.map(|m| m.own()))
    }

    /// Fold the prefetch work into `ctx`: the clock advances by the fill
    /// passes' modelled makespans (the fills themselves ran inline, on
    /// the threads that pulled the stream), the per-topic I/O stats sum,
    /// and the merge's heap operations and the bytes it stitched join
    /// the process-wide `stream.merge.heap_ops` and
    /// `stream.bytes_stitched`. Called automatically when the stream
    /// exhausts or fails; call it explicitly if you abandon a stream
    /// early and still want the consumed I/O on your clock.
    pub fn charge_into(&mut self, ctx: &mut IoCtx) {
        if self.charged {
            return;
        }
        self.charged = true;
        bora_obs::counter("stream.merge.heap_ops").add(self.merge.heap_ops());
        bora_obs::counter("stream.bytes_stitched").add(self.stats.bytes_stitched);
        ctx.charge_ns(self.io_ns);
        for c in &self.cursors {
            ctx.absorb_stats(&c.ctx);
        }
    }

    /// Counters so far (peak resident bytes, heap ops, ...).
    pub fn stats(&self) -> StreamStats {
        StreamStats { heap_ops: self.merge.heap_ops(), ..self.stats }
    }

    /// Messages remaining (exact — index entries plus queued tails).
    pub fn remaining(&self) -> u64 {
        let left = |c: &TopicCursor| c.entries.len() - c.next + c.tail.len() - c.tail_next;
        self.cursors.iter().map(left).sum::<usize>() as u64
    }

    /// The topics the stream merges, in lane order.
    pub fn topics(&self) -> impl Iterator<Item = &str> {
        self.cursors.iter().map(|c| &*c.topic.name)
    }

    /// Drain into owned records — the materializing path behind
    /// [`BoraBag::read_topics`], [`BoraBag::read_topics_time`] and the
    /// ingest snapshot's `read_time_range`.
    pub fn collect_records(mut self, ctx: &mut IoCtx) -> BoraResult<Vec<MessageRecord>> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        while let Some(run) = self.lend_run(ctx, usize::MAX)? {
            out.extend(run.messages().map(|m| m.to_record()));
        }
        Ok(out)
    }
}

/// Load a cursor's index slice (full or time-bounded) and run its first
/// fill — one lane's work in a fill pass.
fn prepare_and_fill<S: Storage>(
    bag: &BoraBag<S>,
    cursor: &mut TopicCursor,
    range: Option<(Time, Time)>,
    readahead: usize,
    prepare: bool,
) -> BoraResult<()> {
    if !cursor.container_backed {
        // Tail-only lane: nothing on storage to load or prefetch.
        return Ok(());
    }
    if prepare {
        cursor.src = bag.data_source(&cursor.topic, &mut cursor.ctx)?;
        cursor.entries = bag.load_entries(&cursor.topic.paths, range, &mut cursor.ctx)?;
        // Arm end-to-end verification when the manifest knows the data
        // file and the cursor reads all of it directly; blocked sources
        // verify per frame instead, and a time range skips it.
        if range.is_none() && matches!(cursor.src, DataSource::RawDirect) {
            cursor.verify = bag.manifest_expectation(&cursor.topic.paths.data);
        }
    }
    cursor.fill(bag, readahead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_frame, BlockCodec, BlockEntry, BlockMap, BlockParams};
    use crate::bufpool::BufferPool;
    use crate::checksum::crc32c;
    use crate::layout::manifest_path;
    use crate::manifest::Manifest;
    use crate::meta::TopicMeta;
    use crate::topic_index::{decode_entries, encode_entries};
    use crate::writer::ContainerWriter;
    use simfs::MemStorage;

    const PAGE: u32 = 64;

    /// `/c`: one topic `/t` of `payloads` (message `i` at `i` seconds) in
    /// raw frames of [`PAGE`] logical bytes.
    fn container(fs: &MemStorage, payloads: &[Vec<u8>]) {
        let ctx = &mut IoCtx::new();
        let block = Some(BlockParams { codec: BlockCodec::None, block_size: PAGE });
        let w = ContainerWriter::begin(fs, "/c", block, 1_000_000_000, usize::MAX, ctx).unwrap();
        let meta = TopicMeta { topic: "/t".into(), ..TopicMeta::default() };
        let mut t = w.topic(fs, meta, ctx).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            t.push(fs, Time::new(i as u32, 0), p, ctx).unwrap();
        }
        let done = t.finish(fs, ctx).unwrap();
        w.commit(fs, vec![done], 0, None, ctx).unwrap();
    }

    /// Replace `/c/<rel>` and re-pin its MANIFEST entry to the new bytes,
    /// so the commit record vouches for them: what is left to notice is
    /// the cursor's own checks.
    fn tamper(fs: &MemStorage, rel: &str, bytes: &[u8]) {
        let ctx = &mut IoCtx::new();
        fs.remove_file(&format!("/c/{rel}"), ctx).unwrap();
        fs.append(&format!("/c/{rel}"), bytes, ctx).unwrap();
        let mut entries = Manifest::load(fs, "/c", ctx).unwrap().entries().to_vec();
        let entry = entries.iter_mut().find(|e| e.path == rel).unwrap();
        (entry.len, entry.crc32c) = (bytes.len() as u64, crc32c(bytes));
        fs.remove_file(&manifest_path("/c"), ctx).unwrap();
        Manifest::new(entries).unwrap().store(fs, "/c", ctx).unwrap();
    }

    /// `/c/t/data` and `/c/t/blocks` rebuilt from `pages`, whatever their
    /// lengths, under a map that claims `logical_len`.
    fn reframe(fs: &MemStorage, pages: &[&[u8]], logical_len: u64) {
        let ctx = &mut IoCtx::new();
        let frames: Vec<Vec<u8>> =
            pages.iter().map(|p| encode_frame(BlockCodec::None, p, ctx)).collect();
        let entries = frames
            .iter()
            .map(|f| BlockEntry { phys_off: 0, frame_len: f.len() as u32, first_time: Time::ZERO })
            .collect();
        let map = BlockMap { codec: BlockCodec::None, block_size: PAGE, logical_len, entries };
        tamper(fs, "t/data", &frames.concat());
        tamper(fs, "t/blocks", &map.encode());
    }

    /// `(seconds, payload)` of every message of `/t`, lent and owned,
    /// over `range` seconds; both ways must agree.
    fn drain(
        fs: &MemStorage,
        range: Option<(u32, u32)>,
        readahead: usize,
    ) -> BoraResult<Vec<(u32, Vec<u8>)>> {
        let ctx = &mut IoCtx::new();
        let bag = BoraBag::open(fs, "/c", ctx)?;
        let opts = StreamOptions { readahead_bytes: readahead };
        let range = range.map(|(a, b)| (Time::new(a, 0), Time::new(b, 0)));
        let mut lent = Vec::new();
        let mut stream = bag.stream_topics_with_tails(&["/t"], vec![], range, opts.clone(), ctx)?;
        let total = stream.remaining() as usize;
        while let Some(m) = stream.lend(ctx)? {
            lent.push((m.time.sec, m.payload.to_vec()));
            assert_eq!(stream.remaining() as usize, total - lent.len());
        }
        let mut owned = Vec::new();
        let mut stream = bag.stream_topics_with_tails(&["/t"], vec![], range, opts, ctx)?;
        while let Some(m) = stream.next_msg(ctx)? {
            owned.push((m.time.sec, m.payload().to_vec()));
        }
        assert_eq!(lent, owned);
        Ok(lent)
    }

    fn corrupt_naming(result: BoraResult<Vec<(u32, Vec<u8>)>>, file: &str) {
        match result {
            Err(BoraError::Corrupt(what)) => assert!(what.contains(file), "{what}"),
            other => panic!("expected Corrupt naming {file}, got {other:?}"),
        }
    }

    #[test]
    fn an_empty_payload_on_a_page_boundary_is_delivered_once_in_order() {
        // Offsets: 0..64 | (64) | 64..128 | (128) — the empty payloads are
        // the last message of page 0 and the first of page 1, and the
        // last of the file, where a walk to "its" page finds none.
        let payloads = vec![vec![1u8; 64], vec![], vec![2u8; 64], vec![]];
        let want: Vec<(u32, Vec<u8>)> =
            payloads.iter().enumerate().map(|(i, p)| (i as u32, p.clone())).collect();
        let fs = MemStorage::new();
        container(&fs, &payloads);
        for readahead in [1, 64, 65, 1 << 20] {
            assert_eq!(drain(&fs, None, readahead).unwrap(), want, "readahead {readahead}");
            // First of a time range, last of one, and all of one.
            assert_eq!(drain(&fs, Some((1, 3)), readahead).unwrap(), want[1..3]);
            assert_eq!(drain(&fs, Some((0, 2)), readahead).unwrap(), want[..2]);
            assert_eq!(drain(&fs, Some((3, 9)), readahead).unwrap(), want[3..]);
        }
    }

    #[test]
    fn a_straddler_is_stitched_once_and_a_page_is_fetched_once() {
        // 40-byte payloads over 64-byte pages: 40 | 24+16 | 48+... every
        // second or third message lies across a boundary.
        let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 40]).collect();
        let fs = MemStorage::new();
        container(&fs, &payloads);
        let straddlers: u64 =
            (0..32u64).filter(|i| i * 40 / 64 != (i * 40 + 39) / 64).map(|_| 40).sum();
        for readahead in [1, 100, 1 << 20] {
            let ctx = &mut IoCtx::new();
            let pool = BufferPool::new(1 << 20);
            let bag = BoraBag::open(&fs, "/c", ctx).unwrap().with_pool(Arc::clone(&pool));
            let opts = StreamOptions { readahead_bytes: readahead };
            let mut stream = bag.stream_topics(&["/t"], opts, ctx).unwrap();
            let mut i = 0u8;
            while let Some(m) = stream.lend(ctx).unwrap() {
                assert_eq!(m.payload, &[i; 40][..]);
                i += 1;
            }
            assert_eq!(i, 32);
            assert_eq!(stream.stats().bytes_stitched, straddlers);
            // 1280 bytes are 20 pages: each looked up once, although
            // most runs start in the page the one before ended in.
            let s = pool.stats();
            assert_eq!((s.hits, s.misses), (0, 20), "readahead {readahead}");
        }
    }

    #[test]
    fn a_short_or_empty_page_is_corrupt() {
        let fs = MemStorage::new();
        let payloads = vec![vec![7u8; 50], vec![8u8; 50], vec![9u8; 50]];
        for short in [&[7u8; 63][..], &[]] {
            container(&fs, &payloads);
            reframe(&fs, &[short, &[8u8; 64], &[9u8; 22]], 150);
            for readahead in [1, 1 << 20] {
                corrupt_naming(drain(&fs, None, readahead), "/c/t/data");
            }
            fs.remove_dir_all("/c", &mut IoCtx::new()).unwrap();
        }
        // The last page is as long as the map says, not as the index needs.
        container(&fs, &payloads);
        reframe(&fs, &[&[7u8; 64], &[8u8; 64], &[9u8; 21]], 150);
        corrupt_naming(drain(&fs, None, 1 << 20), "/c/t/data");
        corrupt_naming(drain(&fs, Some((2, 3)), 1), "/c/t/data");
    }

    #[test]
    fn an_index_and_a_block_map_that_disagree_are_corrupt() {
        let fs = MemStorage::new();
        let payloads = vec![vec![7u8; 50], vec![8u8; 50], vec![9u8; 50]];
        // The index ends past the last page: a longer last entry.
        container(&fs, &payloads);
        let ctx = &mut IoCtx::new();
        let mut entries = decode_entries(&fs.read_all("/c/t/index", ctx).unwrap()).unwrap();
        entries[2].len = 60;
        tamper(&fs, "t/index", &encode_entries(&entries));
        corrupt_naming(drain(&fs, None, 1 << 20), "/c/t/data");
        corrupt_naming(drain(&fs, Some((2, 3)), 1), "/c/t/data");
        assert_eq!(drain(&fs, Some((0, 2)), 1).unwrap().len(), 2, "the entries before it read");
        // An entry that starts inside its predecessor.
        entries[2] = TopicIndexEntry { offset: 90, len: 50, ..entries[2] };
        tamper(&fs, "t/index", &encode_entries(&entries));
        corrupt_naming(drain(&fs, None, 1 << 20), "/c/t/index");
        // The map logs fewer bytes than the index covers.
        fs.remove_dir_all("/c", ctx).unwrap();
        container(&fs, &payloads);
        reframe(&fs, &[&[7u8; 64], &[8u8; 64], &[9u8; 12]], 140);
        corrupt_naming(drain(&fs, None, 1), "/c/t/data");
    }

    #[test]
    fn a_failing_lane_ends_its_pass_and_every_stream_of_its_topic_alone() {
        // `/a` and `/b`: three 50-byte messages each, at 0, 1 and 2 s, in
        // raw frames of 64 | 64 | 22 logical bytes; `/b`'s last frame rots
        // under a MANIFEST that vouches for it.
        let (fs, ctx) = (MemStorage::new(), &mut IoCtx::new());
        let block = Some(BlockParams { codec: BlockCodec::None, block_size: PAGE });
        let w = ContainerWriter::begin(&fs, "/c", block, 1_000_000_000, usize::MAX, ctx).unwrap();
        let mut done = Vec::new();
        for topic in ["/a", "/b"] {
            let meta = TopicMeta { topic: topic.into(), ..TopicMeta::default() };
            let mut t = w.topic(&fs, meta, ctx).unwrap();
            for i in 0..3u8 {
                t.push(&fs, Time::new(i.into(), 0), &[i; 50], ctx).unwrap();
            }
            done.push(t.finish(&fs, ctx).unwrap());
        }
        w.commit(&fs, done, 0, None, ctx).unwrap();
        let mut data = fs.read_all("/c/b/data", ctx).unwrap();
        *data.last_mut().unwrap() ^= 1;
        tamper(&fs, "b/data", &data);

        // A 100-byte window queues two messages a lane. `/a`'s third is a
        // refill that finds `/b` low too: one pass over both lanes, which
        // fills `/a` and fails on `/b`.
        let bag = BoraBag::open(&fs, "/c", ctx).unwrap();
        let opts = StreamOptions { readahead_bytes: 100 };
        let mut stream = bag.stream_topics(&["/a", "/b"], opts.clone(), ctx).unwrap();
        for want in ["/a", "/b", "/a", "/b"] {
            assert_eq!(&**stream.lend(ctx).unwrap().unwrap().topic, want);
        }
        match stream.lend(ctx).map(|m| m.map(|m| m.time)) {
            Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "b/data"),
            other => panic!("expected ChecksumMismatch on b/data, got {other:?}"),
        }
        assert_eq!(stream.stats().refills, 2);
        assert!(stream.lend(ctx).unwrap().is_none(), "the failure ends the merge");
        // Nothing remembers the failure: a new stream of `/b` finds it
        // again, and `/a` still reads whole.
        let b = bag.stream_topics(&["/b"], opts.clone(), ctx).unwrap().collect_records(ctx);
        assert!(matches!(b, Err(BoraError::ChecksumMismatch { path, .. }) if path == "b/data"));
        let a = bag.stream_topics(&["/a"], opts, ctx).unwrap().collect_records(ctx).unwrap();
        let a: Vec<Vec<u8>> = a.into_iter().map(|r| r.data).collect();
        assert_eq!(a, [[0u8; 50], [1; 50], [2; 50]]);
    }
}
