//! Streaming, zero-copy, parallel query pipeline — the primary read path.
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
//! * **Heap merge** — a binary heap over `(time, lane)` keys picks the
//!   next message in O(log k); `lane` is the topic's position in the
//!   caller's request, which reproduces the old merge's (and the baseline
//!   reader's) first-requested-wins order for simultaneous timestamps
//!   while staying a total, deterministic tie-break. The lane that won
//!   last stays out of the heap and keeps winning while its next key
//!   still sorts before the heap's top, so a run of messages from one
//!   lane — and all of a single-topic stream — costs no heap operation.
//! * **Lent messages** — [`MessageStream::lend`] is the merge: the
//!   consumer borrows the winning lane's front message ([`Lent`]) until
//!   its next pull. A consumer that must keep a message longer calls
//!   [`MessageStream::next_msg`] ("lend, then own"): a [`StreamMessage`]
//!   is an (`Arc<[u8]>` block, range) pair plus an interned `Arc<str>`
//!   topic name. Either way `stream.bytes_copied` stays at 0 until a
//!   consumer explicitly materializes (`to_record`).
//! * **Page-backed cursors** — on a block-framed topic the cursor queues
//!   the buffer pool's own pages (no copy of them) and a payload is a
//!   slice of its page; a payload that straddles pages is stitched into
//!   one buffer of its own length, the one copy left
//!   (`stream.bytes_stitched`). Held pages are not pinned: the pool's
//!   budget stays the ceiling it is, and a page evicted while a cursor
//!   holds it costs that page's bytes until the cursor passes it —
//!   what the copy of it used to cost always. A v1 topic queues one
//!   `read_at` buffer per run.
//! * **Parallel prefetch** — cursor fills run on a small scoped-thread
//!   pool (the organizer's distributor pattern); each cursor owns an
//!   `IoCtx` whose declared contention is set per fill pass to the
//!   number of lanes actually sharing the device in that pass (a lone
//!   steady-state refill runs uncontended), and the caller is charged
//!   the *per-thread makespan*: each pass costs the slowest pool
//!   thread's share of topics (with `prefetch_threads = 1` that degrades
//!   to the honest sequential sum), mirroring how the organizer charges
//!   its distributors.
//!
//! Per-message bookkeeping is a handle, never a name: the stream resolves
//! `stream.merge.heap_ops` once, when it is built, publishes its
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
//! surfaces as [`BoraError::ChecksumMismatch`] (and is quarantined) before
//! the stream can complete. Time-range streams skip content verification,
//! exactly like the materializing time path always has.

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
use crate::topic_index::TopicIndexEntry;

/// Tuning for [`MessageStream`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Per-topic readahead window: a cursor keeps at most ~this many
    /// data-file bytes queued (one oversized message may exceed it — a
    /// run always covers at least one entry).
    pub readahead_bytes: usize,
    /// Size of the scoped-thread pool that fills cursors. `1` disables
    /// parallel prefetch (fills run inline on the consumer thread).
    pub prefetch_threads: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { readahead_bytes: 1 << 20, prefetch_threads: 4 }
    }
}

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
/// rejecting out-of-order appends.
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

fn record(conn_id: u32, topic: &str, time: Time, payload: &[u8]) -> MessageRecord {
    // Resolved once per process: this runs for every message of every
    // materializing read, and a lookup by name is a lock, a `String`
    // and a hash.
    static BYTES_COPIED: OnceLock<bora_obs::Counter> = OnceLock::new();
    BYTES_COPIED.get_or_init(|| bora_obs::counter("stream.bytes_copied")).add(payload.len() as u64);
    MessageRecord { conn_id, topic: topic.to_owned(), time, data: payload.to_vec() }
}

/// Counters a finished (or in-flight) stream exposes for tests, the
/// `ext_stream` experiment, and the serve layer's metrics.
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
    topic: Arc<str>,
    conn_id: u32,
    paths: Arc<TopicPaths>,
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
    /// First error hit by a pool fill; surfaced by the next pull.
    failed: Option<BoraError>,
}

impl TopicCursor {
    fn peek_time(&self) -> Option<Time> {
        self.entries
            .get(self.next)
            .map(|e| e.time)
            .or_else(|| self.tail.get(self.tail_next).map(|m| m.time))
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
    /// or the fill fails: [`TopicCursor::lend`] slices without checking.
    fn fill<S: Storage>(&mut self, bag: &BoraBag<S>, readahead: usize) -> BoraResult<()> {
        let corrupt = |what: String| Err(BoraError::Corrupt(what));
        while self.fetched < self.entries.len() && self.queued_bytes() < readahead {
            let run_start = self.entries[self.fetched].offset;
            if self.fetched > 0 && run_start < self.entries[self.fetched - 1].end() {
                return corrupt(format!(
                    "{}: entry {} starts at {run_start}, inside its predecessor",
                    self.paths.index, self.fetched
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
                    let len = (run_end - run_start) as usize;
                    let bytes =
                        bag.storage.read_at(&self.paths.data, run_start, len, &mut self.ctx)?;
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
                            self.paths.data, map.logical_len
                        ));
                    }
                    let page_size = map.block_size as u64;
                    let mut at = self.blocks.back().map_or(run_start, |b| b.end().max(run_start));
                    while at < run_end {
                        let page = at / page_size;
                        let start = page * page_size;
                        let data =
                            bag.block_page(&self.paths, map, page as usize, &mut self.ctx)?;
                        if data.len() as u64 != (map.logical_len - start).min(page_size) {
                            return corrupt(format!(
                                "{}: page {page} holds {} bytes",
                                self.paths.data,
                                data.len()
                            ));
                        }
                        at = start + data.len() as u64;
                        self.blocks.push_back(Block { start, data });
                    }
                }
            }
            self.fetched = end_idx;
        }
        bora_obs::histogram("stream.prefetch.queue_depth").record(self.blocks.len() as u64);
        Ok(())
    }

    /// Lend the next message, with the time of the one after it; the
    /// covering blocks must already be queued.
    fn lend(&mut self, lane: usize, stitched: &mut u64) -> (Option<Time>, Lent<'_>) {
        let (time, block, start, len);
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
        let lent =
            Lent { time, topic: &self.topic, payload, conn_id: self.conn_id, lane, block, start };
        (self.peek_time(), lent)
    }
}

/// A chronological k-way merged stream over selected topics of a
/// [`BoraBag`]. Obtain one via [`BoraBag::stream_topics`] /
/// [`BoraBag::stream_topics_time`]; drive it with [`MessageStream::lend`],
/// or [`MessageStream::next_msg`] to keep what it yields.
pub struct MessageStream<'a, S: Storage> {
    bag: &'a BoraBag<S>,
    cursors: Vec<TopicCursor>,
    /// Min-heap over `(time_ns, lane)`; one key per non-exhausted lane
    /// other than `lead`.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The key of the lane that won last, while it has messages left: it
    /// wins again without a heap operation for as long as it sorts before
    /// the heap's top.
    lead: Option<(u64, usize)>,
    opts: StreamOptions,
    /// The consumer's declared process concurrency; each fill pass
    /// multiplies it by the number of threads active in *that pass*.
    base_concurrency: u32,
    /// `ceil(log2 k)` for the merge's per-message CPU charge (0 for k<=1).
    log_k: u64,
    stats: StreamStats,
    /// `stream.merge.heap_ops`, resolved when the stream is built.
    heap_ops: bora_obs::Counter,
    /// Accumulated prefetch cost: per fill pass, the slowest pool
    /// thread's sum of cursor-clock deltas (the whole sum when fills ran
    /// inline). This is what `charge_into` puts on the consumer's clock.
    io_ns: u64,
    /// Set once the parallel prefetch clocks have been folded into a
    /// consumer ctx (idempotence for `charge_into`).
    charged: bool,
    done: bool,
}

impl<'a, S: Storage> MessageStream<'a, S> {
    /// Build a stream over `topics`; `range` bounds it via the coarse
    /// time index (`None` = whole topics, manifest-verified). `tails` is
    /// either empty or one tail per topic (live-ingest messages merged
    /// after the topic's container entries); a topic unknown to the
    /// container is accepted when it brings a non-empty tail.
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
        for (topic, mut tail) in topics.iter().zip(tails) {
            bag.check_not_damaged(topic)?;
            // A tail-only topic stays known even when the range filter
            // empties its tail — the query legitimately selects nothing.
            let had_tail = !tail.is_empty();
            if let Some((start, end)) = range {
                tail.retain(|m| m.time >= start && m.time < end);
            }
            let (paths, container_backed) = match bag.tags.lookup_arc(topic, ctx) {
                Ok(p) => (p, true),
                Err(BoraError::UnknownTopic(_)) if had_tail => {
                    // Tail-only lane: every message is in memory; the
                    // (nonexistent) container files are never touched.
                    (Arc::new(TopicPaths::new(bag.root(), topic)), false)
                }
                Err(e) => return Err(e),
            };
            let interned = bag.tags.interned_topic(topic).unwrap_or_else(|| Arc::from(*topic));
            cursors.push(TopicCursor {
                topic: interned,
                conn_id: bag.conn_id_of(topic),
                paths,
                tail,
                container_backed,
                ctx: IoCtx::with_concurrency(ctx.concurrency),
                ..TopicCursor::default()
            });
        }
        let mut stream = MessageStream {
            bag,
            cursors,
            heap: BinaryHeap::with_capacity(k),
            lead: None,
            opts,
            base_concurrency: ctx.concurrency,
            log_k: if k > 1 { (usize::BITS - (k - 1).leading_zeros()) as u64 } else { 0 },
            stats: StreamStats::default(),
            heap_ops: bora_obs::counter("stream.merge.heap_ops"),
            io_ns: 0,
            charged: false,
            done: false,
        };
        // Index load + initial fill for every cursor, on the pool.
        let lanes: Vec<usize> = (0..stream.cursors.len()).collect();
        stream.run_pool(&lanes, range, true)?;
        for lane in 0..stream.cursors.len() {
            if let Some(t) = stream.cursors[lane].peek_time() {
                stream.heap.push(Reverse((t.as_nanos(), lane)));
            }
        }
        stream.lead = stream.heap.pop().map(|Reverse(key)| key);
        Ok(stream)
    }

    /// Run prepare (optionally) + fill for `lanes` (ascending) on the
    /// scoped-thread pool, surfacing the first failure. Single-lane
    /// batches run inline: no thread is worth spinning up for one cursor.
    fn run_pool(
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
        let pool = self.opts.prefetch_threads.max(1).min(lanes.len());
        // Contention is per pass: only the lanes filled *in this pass*
        // share the device. A lone steady-state refill runs uncontended;
        // a batched refill divides bandwidth across its active threads
        // (batched lanes are all low-water, so their fetch sizes — and
        // hence their shares — are roughly equal by construction).
        let contention = self.base_concurrency.saturating_mul(pool as u32).max(1);
        let bag = self.bag;
        let sp = bora_obs::span("bora.stream.prefetch");
        // One thread's share of the pass, and what it cost on its
        // cursors' clocks.
        let work = |share: &mut [&mut TopicCursor]| -> u64 {
            let mut ns = 0;
            for c in share {
                c.ctx.concurrency = contention;
                let t0 = c.ctx.elapsed_ns();
                c.failed = prepare_and_fill(bag, c, range, readahead, prepare).err();
                ns += c.ctx.elapsed_ns() - t0;
            }
            ns
        };
        let mut selected: Vec<&mut TopicCursor> = (self.cursors.iter_mut().enumerate())
            .filter_map(|(l, c)| lanes.contains(&l).then_some(c))
            .collect();
        // Cost of this pass = the slowest thread's share (with one
        // thread, simply the sequential total).
        let pass_ns = if pool == 1 {
            work(&mut selected)
        } else {
            let per = selected.len().div_ceil(pool);
            std::thread::scope(|s| {
                let shares: Vec<_> =
                    selected.chunks_mut(per).map(|share| s.spawn(|| work(share))).collect();
                shares.into_iter().map(|t| t.join().expect("a fill does not panic")).max()
            })
            .unwrap_or(0)
        };
        self.io_ns += pass_ns;
        sp.end_virt(pass_ns);
        let held = self.cursors.iter().flat_map(|c| &c.blocks);
        let resident: usize = held.map(|b| b.data.len()).sum();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
        self.stats.bytes_fetched = self.cursors.iter().map(|c| c.ctx.stats.bytes_read).sum();
        for &lane in lanes {
            if let Some(e) = self.cursors[lane].failed.take() {
                if let BoraError::ChecksumMismatch { .. } = &e {
                    self.bag.quarantine(&self.cursors[lane].topic);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Lend the next message in global time order — a view of its lane's
    /// front, valid until the next pull — or `None` when the stream is
    /// exhausted. The first `None` folds the parallel prefetch clocks
    /// into `ctx` (makespan over topics — see module docs). This is the
    /// one merge; every other way to drain the stream goes through it.
    pub fn lend(&mut self, ctx: &mut IoCtx) -> BoraResult<Option<Lent<'_>>> {
        if self.done {
            return Ok(None);
        }
        let lane = match self.lead.take() {
            Some(key) if self.heap.peek().is_none_or(|top| key < top.0) => key.1,
            lead => {
                self.heap.extend(lead.map(Reverse));
                let Some(Reverse((_, lane))) = self.heap.pop() else {
                    self.done = true;
                    self.charge_into(ctx);
                    return Ok(None);
                };
                self.stats.heap_ops += 1;
                self.heap_ops.inc();
                lane
            }
        };
        let c = &self.cursors[lane];
        if c.next >= c.fetched && c.next < c.entries.len() {
            // The lane is dry. Batch the refill: top up every low cursor
            // in one pool pass so one dry lane amortizes the others'
            // readahead.
            let half = self.opts.readahead_bytes.max(1) / 2;
            let low = |c: &TopicCursor| c.fetched < c.entries.len() && c.queued_bytes() < half;
            let lanes: Vec<usize> =
                (0..self.cursors.len()).filter(|&l| l == lane || low(&self.cursors[l])).collect();
            if let Err(e) = self.run_pool(&lanes, None, false) {
                self.done = true;
                self.charge_into(ctx);
                return Err(e);
            }
        }
        // Per-message consumer-side charges: one FUSE/ROS-Lib delivery
        // round trip + the paper's O(log k) pick (k<=1 merges are free,
        // matching the old single-stream fast path). The model prices
        // the paper's merge, so a pick the lead made for free is charged
        // like any other.
        ctx.charge_ns(FUSE_DELIVERY_NS + self.log_k * cpu::SORT_ELEMENT_NS);
        self.stats.delivered += 1;
        let (next, msg) = self.cursors[lane].lend(lane, &mut self.stats.bytes_stitched);
        self.lead = next.map(|t| (t.as_nanos(), lane));
        Ok(Some(msg))
    }

    /// [`MessageStream::lend`], then own: for a consumer that keeps the
    /// message across the next pull.
    pub fn next_msg(&mut self, ctx: &mut IoCtx) -> BoraResult<Option<StreamMessage>> {
        Ok(self.lend(ctx)?.map(|m| m.own()))
    }

    /// Fold the prefetch work into `ctx`: the clock advances by the
    /// accumulated per-thread makespan of the fill passes, the per-topic
    /// I/O stats sum, and the bytes it stitched join the process-wide
    /// `stream.bytes_stitched`. Called automatically when the stream
    /// exhausts; call it explicitly if you abandon a stream early and
    /// still want the consumed I/O on your clock.
    pub fn charge_into(&mut self, ctx: &mut IoCtx) {
        if self.charged {
            return;
        }
        self.charged = true;
        bora_obs::counter("stream.bytes_stitched").add(self.stats.bytes_stitched);
        ctx.charge_ns(self.io_ns);
        for c in &self.cursors {
            ctx.absorb_stats(&c.ctx);
        }
    }

    /// Counters so far (peak resident bytes, heap ops, ...).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Messages remaining (exact — index entries plus queued tails).
    pub fn remaining(&self) -> u64 {
        self.cursors
            .iter()
            .map(|c| (c.entries.len() - c.next) as u64 + (c.tail.len() - c.tail_next) as u64)
            .sum()
    }

    /// The topics the stream merges, in lane order.
    pub fn topics(&self) -> impl Iterator<Item = &str> {
        self.cursors.iter().map(|c| &*c.topic)
    }

    /// Drain into owned records — the materializing compatibility path
    /// (`read_topics` & friends are thin wrappers over this).
    pub fn collect_records(mut self, ctx: &mut IoCtx) -> BoraResult<Vec<MessageRecord>> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        while let Some(m) = self.lend(ctx)? {
            out.push(m.to_record());
        }
        Ok(out)
    }
}

/// Load a cursor's index slice (full or time-bounded) and run its first
/// fill — the unit of work a pool thread executes.
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
        cursor.src = bag.data_source(&cursor.topic, &cursor.paths, &mut cursor.ctx)?;
        cursor.entries = bag.load_entries(&cursor.topic, &cursor.paths, range, &mut cursor.ctx)?;
        // Arm end-to-end verification when the manifest knows the data
        // file and the cursor reads all of it directly; blocked sources
        // verify per frame instead, and a time range skips it.
        if range.is_none() && matches!(cursor.src, DataSource::RawDirect) {
            cursor.verify = bag.manifest_expectation(&cursor.paths.data);
        }
    }
    cursor.fill(bag, readahead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_frame, BlockCodec, BlockEntry, BlockMap, BlockParams};
    use crate::bufpool::BufferPool;
    use crate::layout::manifest_path;
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

    /// Replace `/c/t/<file>` and drop the MANIFEST that would catch it:
    /// what is left to notice is the cursor's own checks.
    fn tamper(fs: &MemStorage, file: &str, bytes: &[u8]) {
        let ctx = &mut IoCtx::new();
        let path = format!("/c/t/{file}");
        fs.remove_file(&path, ctx).unwrap();
        fs.append(&path, bytes, ctx).unwrap();
        if fs.exists(&manifest_path("/c"), ctx) {
            fs.remove_file(&manifest_path("/c"), ctx).unwrap();
        }
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
        tamper(fs, "data", &frames.concat());
        tamper(fs, "blocks", &map.encode());
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
        let opts = StreamOptions { readahead_bytes: readahead, prefetch_threads: 1 };
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
            let opts = StreamOptions { readahead_bytes: readahead, prefetch_threads: 1 };
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
        tamper(&fs, "index", &encode_entries(&entries));
        corrupt_naming(drain(&fs, None, 1 << 20), "/c/t/data");
        corrupt_naming(drain(&fs, Some((2, 3)), 1), "/c/t/data");
        assert_eq!(drain(&fs, Some((0, 2)), 1).unwrap().len(), 2, "the entries before it read");
        // An entry that starts inside its predecessor.
        entries[2] = TopicIndexEntry { offset: 90, len: 50, ..entries[2] };
        tamper(&fs, "index", &encode_entries(&entries));
        corrupt_naming(drain(&fs, None, 1 << 20), "/c/t/index");
        // The map logs fewer bytes than the index covers.
        fs.remove_dir_all("/c", ctx).unwrap();
        container(&fs, &payloads);
        reframe(&fs, &[&[7u8; 64], &[8u8; 64], &[9u8; 12]], 140);
        corrupt_naming(drain(&fs, None, 1), "/c/t/data");
    }
}
