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
//!   while staying a total, deterministic tie-break.
//! * **Shared-slice payloads** — a [`StreamMessage`] is an (`Arc<[u8]>`
//!   block, range) pair plus an interned `Arc<str>` topic name: delivery
//!   is pointer arithmetic, and `stream.bytes_copied` stays at ~0 until a
//!   consumer explicitly materializes ([`StreamMessage::to_record`]).
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
//! `stream.merge.heap_ops` once, when it is built, and `to_record` keeps
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
use crate::topic_index::{decode_entries, slice_time_range, TopicIndexEntry, ENTRY_SIZE};

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

/// One message, delivered as a shared slice of its topic's data block.
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
        // Resolved once per process: this runs for every message of every
        // materializing read, and a lookup by name is a lock, a `String`
        // and a hash.
        static BYTES_COPIED: OnceLock<bora_obs::Counter> = OnceLock::new();
        BYTES_COPIED.get_or_init(|| bora_obs::counter("stream.bytes_copied")).add(self.len as u64);
        MessageRecord {
            conn_id: self.conn_id,
            topic: (*self.topic).to_owned(),
            time: self.time,
            data: self.payload().to_vec(),
        }
    }
}

/// Counters a finished (or in-flight) stream exposes for tests, the
/// `ext_stream` experiment, and the serve layer's metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Messages yielded so far.
    pub delivered: u64,
    /// Heap push/pop pairs performed by the merge.
    pub heap_ops: u64,
    /// High-water mark of total queued block bytes across all cursors.
    pub peak_resident_bytes: usize,
    /// Data-file bytes fetched by cursor fills.
    pub bytes_fetched: u64,
    /// Number of cursor fill batches issued.
    pub refills: u64,
}

/// One fetched run of consecutive messages from a topic's data file.
#[derive(Debug)]
struct Block {
    /// Absolute data-file offset of `data[0]`.
    start: u64,
    data: Arc<[u8]>,
}

impl Block {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }
}

/// Per-topic read cursor: index entries + a bounded queue of data blocks
/// + a private virtual clock charged for this topic's I/O.
struct TopicCursor {
    topic: Arc<str>,
    conn_id: u32,
    paths: Arc<TopicPaths>,
    entries: Vec<TopicIndexEntry>,
    /// Next entry to yield to the merge.
    next: usize,
    /// Entries [..fetched) are covered by `blocks`.
    fetched: usize,
    blocks: VecDeque<Block>,
    queued_bytes: usize,
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
    /// First error hit by a pool fill; surfaced by the next `next_msg`.
    failed: Option<BoraError>,
}

impl TopicCursor {
    fn peek_time(&self) -> Option<Time> {
        self.entries
            .get(self.next)
            .map(|e| e.time)
            .or_else(|| self.tail.get(self.tail_next).map(|m| m.time))
    }

    fn needs_fill(&self, readahead: usize) -> bool {
        self.fetched < self.entries.len() && self.queued_bytes < readahead / 2
    }

    /// Fetch runs of consecutive entries until ~`readahead` bytes are
    /// queued (always at least one entry per run, so oversized messages
    /// still stream). Folds verifying streams' chunks into the running
    /// CRC and checks it when the last chunk lands.
    fn fill<S: Storage>(&mut self, bag: &BoraBag<S>, readahead: usize) -> BoraResult<()> {
        while self.fetched < self.entries.len() && self.queued_bytes < readahead {
            let run_start = self.entries[self.fetched].offset;
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
            // A hole between entries (never produced by the organizer,
            // but defensively possible) ends the run; take at least one.
            if end_idx == self.fetched {
                run_end = self.entries[self.fetched].end();
                end_idx = self.fetched + 1;
            }
            let len = (run_end - run_start) as usize;
            let bytes = bag.fetch_logical(&self.paths, &self.src, run_start, len, &mut self.ctx)?;
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
            self.queued_bytes += bytes.len();
            self.blocks.push_back(Block { start: run_start, data: Arc::from(bytes) });
            self.fetched = end_idx;
        }
        bora_obs::histogram("stream.prefetch.queue_depth").record(self.blocks.len() as u64);
        Ok(())
    }

    /// Yield the next message; the covering block must already be queued.
    fn pop_msg(&mut self) -> StreamMessage {
        if self.next >= self.entries.len() {
            // Container entries exhausted — serve from the in-memory tail.
            let m = &self.tail[self.tail_next];
            self.tail_next += 1;
            return StreamMessage {
                conn_id: self.conn_id,
                topic: Arc::clone(&self.topic),
                time: m.time,
                block: Arc::clone(&m.data),
                start: 0,
                len: m.data.len(),
            };
        }
        let e = self.entries[self.next];
        let block = self.blocks.front().expect("fill() ran before pop_msg");
        debug_assert!(e.offset >= block.start && e.end() <= block.end());
        let start = (e.offset - block.start) as usize;
        let msg = StreamMessage {
            conn_id: self.conn_id,
            topic: Arc::clone(&self.topic),
            time: e.time,
            block: Arc::clone(&block.data),
            start,
            len: e.len as usize,
        };
        self.next += 1;
        if e.end() >= block.end() {
            let spent = self.blocks.pop_front().unwrap();
            self.queued_bytes -= spent.data.len();
        }
        msg
    }

    /// Whether the next message is already deliverable (its block is
    /// queued, or it comes from the in-memory tail).
    fn front_ready(&self) -> bool {
        match (self.entries.get(self.next), self.blocks.front()) {
            (Some(e), Some(b)) => e.offset >= b.start && e.end() <= b.end(),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }
}

/// A chronological k-way merged stream over selected topics of a
/// [`BoraBag`]. Obtain one via [`BoraBag::stream_topics`] /
/// [`BoraBag::stream_topics_time`]; drive it with
/// [`MessageStream::next_msg`] or the [`MessageStream::iter`] adapter.
pub struct MessageStream<'a, S: Storage> {
    bag: &'a BoraBag<S>,
    cursors: Vec<TopicCursor>,
    /// Min-heap over `(time_ns, lane)`; one key per non-exhausted lane.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    opts: StreamOptions,
    /// The consumer's declared process concurrency; each fill pass
    /// multiplies it by the number of threads active in *that pass*.
    base_concurrency: u32,
    /// `ceil(log2 k)` for the merge's per-message CPU charge (0 for k<=1).
    log_k: u64,
    stats: StreamStats,
    /// `stream.merge.heap_ops`, resolved when the stream is built and
    /// recorded through for every message it delivers.
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
                entries: Vec::new(),
                next: 0,
                fetched: 0,
                blocks: VecDeque::new(),
                queued_bytes: 0,
                tail,
                tail_next: 0,
                container_backed,
                src: DataSource::RawDirect,
                verify: None,
                ctx: IoCtx::with_concurrency(ctx.concurrency),
                failed: None,
            });
        }
        let mut stream = MessageStream {
            bag,
            cursors,
            heap: BinaryHeap::with_capacity(k),
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
        Ok(stream)
    }

    /// Run prepare (optionally) + fill for `lanes` on the scoped-thread
    /// pool, surfacing the first failure. Single-lane batches run inline:
    /// no thread is worth spinning up for one cursor.
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
        for &l in lanes {
            self.cursors[l].ctx.concurrency = contention;
        }
        let bag = self.bag;
        let before: Vec<u64> = lanes.iter().map(|&l| self.cursors[l].ctx.elapsed_ns()).collect();
        let sp = bora_obs::span("bora.stream.prefetch");
        if pool == 1 {
            for &lane in lanes {
                let c = &mut self.cursors[lane];
                let r = prepare_and_fill(bag, c, range, readahead, prepare);
                if let Err(e) = r {
                    c.failed = Some(e);
                }
            }
        } else {
            let lane_set: Vec<bool> = {
                let mut v = vec![false; self.cursors.len()];
                for &l in lanes {
                    v[l] = true;
                }
                v
            };
            let mut selected: Vec<&mut TopicCursor> = self
                .cursors
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| lane_set[*i])
                .map(|(_, c)| c)
                .collect();
            let per = selected.len().div_ceil(pool);
            std::thread::scope(|s| {
                for chunk in selected.chunks_mut(per) {
                    s.spawn(move || {
                        for c in chunk.iter_mut() {
                            if let Err(e) = prepare_and_fill(bag, c, range, readahead, prepare) {
                                c.failed = Some(e);
                                break;
                            }
                        }
                    });
                }
            });
        }
        // Cost of this pass = the slowest thread's share: cursors were
        // split over the pool in `per`-sized runs, so group the per-lane
        // clock deltas the same way and take the largest group sum. With
        // one thread that is simply the sequential total.
        let deltas: Vec<u64> = lanes
            .iter()
            .zip(&before)
            .map(|(&l, &b)| self.cursors[l].ctx.elapsed_ns() - b)
            .collect();
        let per = lanes.len().div_ceil(pool);
        let pass_ns = deltas.chunks(per).map(|chunk| chunk.iter().sum::<u64>()).max().unwrap_or(0);
        self.io_ns += pass_ns;
        sp.end_virt(pass_ns);
        let resident: usize = self.cursors.iter().map(|c| c.queued_bytes).sum();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
        self.stats.bytes_fetched = self.cursors.iter().map(|c| c.ctx.stats.bytes_read).sum();
        for lane in lanes {
            if let Some(e) = self.cursors[*lane].failed.take() {
                if let BoraError::ChecksumMismatch { .. } = &e {
                    self.bag.quarantine(&self.cursors[*lane].topic);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Next message in global time order, or `None` when the stream is
    /// exhausted. The first `None` folds the parallel prefetch clocks
    /// into `ctx` (makespan over topics — see module docs).
    pub fn next_msg(&mut self, ctx: &mut IoCtx) -> BoraResult<Option<StreamMessage>> {
        if self.done {
            return Ok(None);
        }
        let Some(Reverse((_, lane))) = self.heap.pop() else {
            self.done = true;
            self.charge_into(ctx);
            return Ok(None);
        };
        if !self.cursors[lane].front_ready() {
            // Batch the refill: top up every low cursor in one pool pass
            // so one dry lane amortizes the others' readahead.
            let readahead = self.opts.readahead_bytes.max(1);
            let lanes: Vec<usize> = (0..self.cursors.len())
                .filter(|&l| l == lane || self.cursors[l].needs_fill(readahead))
                .collect();
            if let Err(e) = self.run_pool(&lanes, None, false) {
                self.done = true;
                self.charge_into(ctx);
                return Err(e);
            }
        }
        let msg = self.cursors[lane].pop_msg();
        if let Some(t) = self.cursors[lane].peek_time() {
            self.heap.push(Reverse((t.as_nanos(), lane)));
        }
        // Per-message consumer-side charges: one FUSE/ROS-Lib delivery
        // round trip + the heap's O(log k) pick (k<=1 merges are free,
        // matching the old single-stream fast path).
        ctx.charge_ns(FUSE_DELIVERY_NS + self.log_k * cpu::SORT_ELEMENT_NS);
        self.stats.heap_ops += 1;
        self.heap_ops.inc();
        self.stats.delivered += 1;
        Ok(Some(msg))
    }

    /// Fold the prefetch work into `ctx`: the clock advances by the
    /// accumulated per-thread makespan of the fill passes, the per-topic
    /// I/O stats sum. Called automatically when the stream exhausts; call
    /// it explicitly if you abandon a stream early and still want the
    /// consumed I/O on your clock.
    pub fn charge_into(&mut self, ctx: &mut IoCtx) {
        if self.charged {
            return;
        }
        self.charged = true;
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

    /// Iterator adapter over (`stream`, `ctx`).
    pub fn iter<'s>(&'s mut self, ctx: &'s mut IoCtx) -> StreamIter<'s, 'a, S> {
        StreamIter { stream: self, ctx }
    }

    /// Drain into owned records — the materializing compatibility path
    /// (`read_topics` & friends are thin wrappers over this).
    pub fn collect_records(mut self, ctx: &mut IoCtx) -> BoraResult<Vec<MessageRecord>> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        loop {
            match self.next_msg(ctx) {
                Ok(Some(m)) => out.push(m.to_record()),
                Ok(None) => return Ok(out),
                Err(e) => {
                    self.charge_into(ctx);
                    return Err(e);
                }
            }
        }
    }
}

/// `for msg in stream.iter(&mut ctx)` sugar over [`MessageStream::next_msg`].
pub struct StreamIter<'s, 'a, S: Storage> {
    stream: &'s mut MessageStream<'a, S>,
    ctx: &'s mut IoCtx,
}

impl<S: Storage> Iterator for StreamIter<'_, '_, S> {
    type Item = BoraResult<StreamMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        self.stream.next_msg(self.ctx).transpose()
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
        match range {
            None => {
                let bytes = bag.verified_read_all(
                    &cursor.paths.index,
                    Some(&cursor.topic),
                    &mut cursor.ctx,
                )?;
                cursor.entries = decode_entries(&bytes)?;
                cursor.ctx.charge_ns(cursor.entries.len() as u64 * cpu::INDEX_ENTRY_NS);
                // Arm end-to-end verification when the manifest knows the
                // data file and the cursor reads it directly; pooled and
                // blocked sources verify per page/frame instead.
                if matches!(cursor.src, DataSource::RawDirect) {
                    cursor.verify = bag.manifest_expectation(&cursor.paths.data);
                }
            }
            Some((start, end)) => {
                let tindex = {
                    let sp = bora_obs::span("bora.tindex.load");
                    let v0 = cursor.ctx.elapsed_ns();
                    let bytes = bag.verified_read_all(
                        &cursor.paths.tindex,
                        Some(&cursor.topic),
                        &mut cursor.ctx,
                    )?;
                    let tindex = crate::time_index::TimeIndex::decode(&bytes)?;
                    sp.end_virt(cursor.ctx.elapsed_ns() - v0);
                    tindex
                };
                let Some((first, last)) = tindex.candidate_entries(start, end) else {
                    return Ok(());
                };
                let count = (last - first) as usize;
                let idx_bytes = bag.storage.read_at(
                    &cursor.paths.index,
                    first as u64 * ENTRY_SIZE as u64,
                    count * ENTRY_SIZE,
                    &mut cursor.ctx,
                )?;
                let candidates = decode_entries(&idx_bytes)?;
                cursor.ctx.charge_ns(count as u64 * cpu::INDEX_ENTRY_NS);
                cursor.entries = slice_time_range(&candidates, start, end).to_vec();
            }
        }
    }
    cursor.fill(bag, readahead)
}
