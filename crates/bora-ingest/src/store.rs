//! The ingest store: WAL → memtable → sealed segments → container
//! generations, with MVCC snapshot reads.
//!
//! ## State machine
//!
//! ```text
//! append ──► WAL shard (group-committed) + memtable
//! seal   ──► per-topic .seg files, then one .seal marker (the commit),
//!            then WAL reset; the frozen memtable becomes a SealedBatch
//! compact ─► generation g+1 under .staging: each topic of generation g
//!            resumed (its verified bytes appended as they are), the
//!            sealed batches pushed behind; MANIFEST last, one rename
//!            commits; then the in-memory swap; then the consumed
//!            seg/seal files are deleted, best-effort
//! ```
//!
//! A generation is an ordinary container and is written like every other
//! one: a topic at a time through `bora::writer` (`TopicWriter` for the
//! files, `ContainerWriter` for the staged commit, with the `.ingest`
//! marker as its extra root file). Because appends are per-topic
//! chronological, the old generation's topic is always a prefix of the
//! new one's, so compaction *resumes* it (`TopicWriter::resume`) instead
//! of reading it back and writing it again — and the generation it
//! commits is byte-identical to the one a rewrite would. What it takes
//! from the old generation it first checks against that generation's
//! MANIFEST, so damage stops the compaction with a typed error instead
//! of being copied under a new, valid commit record.
//!
//! A compaction's input is immutable (a pinned generation, sealed
//! batches) and its output a staged directory, so it holds the state
//! lock only to pin the one and to swap in the other. Appends, seals and
//! snapshots go on while it builds; a second compaction waits on a mutex
//! of its own.
//!
//! Every arrow is individually crash-atomic: a power cut mid-append leaves
//! a torn WAL tail (truncated on recovery, counter `wal.torn_tail`); one
//! mid-seal leaves segments without a marker (discarded — the WAL still
//! has the records); one mid-compact leaves a `.staging` generation with
//! no MANIFEST (swept at open — the old generation and its seals are
//! intact). Recovery replays durable WAL records with sequence numbers
//! above what the newest generation and valid seals already cover, so a
//! message is never lost once fsynced and never duplicated.
//!
//! ## MVCC
//!
//! The store keeps a single epoch counter, bumped by every append, seal,
//! and compaction. [`IngestStore::snapshot`] pins the current generation
//! (via `Arc` — compaction retires old generation directories only when
//! no snapshot holds them — and with it the container the generation was
//! opened into once, `GenHandle::bag`), the sealed batches, and a clone
//! of the memtable (payloads are `Arc<[u8]>`, so the clone is cheap).
//! Reads off a snapshot are byte-identical whether a message is currently
//! in the memtable, a sealed segment, or a compacted container, because
//! all three feed the same `(time, lane)` k-way merge in `bora::stream`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use bora::block::{BlockCodec, BlockParams};
use bora::bufpool::BufferPool;
use bora::checksum::{crc32c, decode_envelope, encode_envelope};
use bora::error::{BoraError, BoraResult};
use bora::layout::{meta_path, TopicPaths};
use bora::manifest::Manifest;
use bora::meta::TopicMeta;
use bora::time_index::DEFAULT_WINDOW_NS;
use bora::topic_index::{TopicIndexEntry, ENTRY_SIZE};
use bora::writer::ContainerWriter;
use bora::BoraBag;
use parking_lot::Mutex;
use ros_msgs::wire::{WireRead, WireWrite};
use ros_msgs::Time;
use simfs::{EntryKind, IoCtx, Storage};

use crate::layout::{
    gen_dir, gen_root, marker_path, parse_gen_name, parse_seg_name, seal_marker_path, seg_dir,
    segment_path, shard_of, wal_dir, wal_shard_path, GEN_MARKER,
};
use crate::segment::{IngestMessage, SealMarker, SealedBatch, SealedFile, Segment};
use crate::snapshot::Snapshot;
use crate::wal::{WalRecord, WalShard};

const CFG_MAGIC: u32 = 0x42_49_4E_31; // "BIN1"
const GEN_MAGIC: u32 = 0x42_49_47_31; // "BIG1"

/// Ingest-root configuration, persisted in `.boraingest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Number of WAL shard files appends are hashed over.
    pub wal_shards: usize,
    /// Records buffered per shard before an automatic fsync.
    pub group_commit: u64,
    /// Coarse time-index window width for compacted containers.
    pub window_ns: u64,
    /// Block framing for compacted generations: `Some` makes every
    /// compaction write delta-timestamped, optionally compressed topic
    /// blocks (container metadata v2); `None` keeps the plain v1 layout.
    /// Encoded as an optional trailer so pre-block `.boraingest` files
    /// still decode.
    pub block: Option<BlockParams>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { wal_shards: 4, group_commit: 8, window_ns: DEFAULT_WINDOW_NS, block: None }
    }
}

impl IngestConfig {
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(CFG_MAGIC, |out| {
            out.put_u32(self.wal_shards as u32);
            out.put_u64(self.group_commit);
            out.put_u64(self.window_ns);
            if let Some(b) = self.block {
                out.put_u8(b.codec.id());
                out.put_u32(b.block_size);
            }
        })
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        decode_envelope(bytes, CFG_MAGIC, "ingest config", |cur| {
            let wal_shards = cur.get_u32()? as usize;
            let group_commit = cur.get_u64()?;
            let window_ns = cur.get_u64()?;
            let block = if cur.remaining() == 0 {
                None
            } else {
                let codec = BlockCodec::from_id(cur.get_u8()?)?;
                let block_size = cur.get_u32()?;
                if block_size == 0 {
                    return Err(BoraError::Corrupt("ingest config block size is zero".into()));
                }
                Some(BlockParams { codec, block_size })
            };
            Ok(IngestConfig { wal_shards, group_commit, window_ns, block })
        })
    }
}

/// The `.ingest` marker inside a generation container: what the
/// generation subsumes, so recovery knows which seals and WAL records are
/// already compacted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenMarker {
    pub generation: u64,
    /// Highest seal sequence merged into this generation (0 = none).
    pub last_seal_seq: u64,
    /// Highest WAL sequence merged into this generation (0 = none).
    pub last_wal_seq: u64,
}

impl GenMarker {
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(GEN_MAGIC, |out| {
            out.put_u64(self.generation);
            out.put_u64(self.last_seal_seq);
            out.put_u64(self.last_wal_seq);
        })
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        decode_envelope(bytes, GEN_MAGIC, "generation marker", |cur| {
            Ok(GenMarker {
                generation: cur.get_u64()?,
                last_seal_seq: cur.get_u64()?,
                last_wal_seq: cur.get_u64()?,
            })
        })
    }
}

/// What [`IngestStore::open`] recovers from a root, worked out by reading
/// alone: `open` deletes the debris, loads the seals and replays the WAL
/// above [`Recovery::covered_wal_seq`]; `bora-tool ingest-stat` reports
/// the same plan without changing a byte.
pub struct Recovery<S> {
    pub cfg: IngestConfig,
    /// The newest generation whose MANIFEST commits an `.ingest` marker
    /// naming the generation of its directory, opened by recovery for
    /// every later reader (see `GenHandle::bag`).
    pub gen: GenHandle<S>,
    /// The seals above the generation's watermark that a valid marker
    /// commits, as `(seal_seq from the file name, marker)`, ascending.
    pub seals: Vec<(u64, SealMarker)>,
    /// What recovery deletes: under `gen/` every other entry (superseded
    /// generations, crashed compactions); under `seg/` the files of seals
    /// the generation consumed or no marker commits, segment files their
    /// marker does not list, and names that parse as neither.
    pub debris: Vec<(String, EntryKind)>,
}

impl<S: Storage + Clone> Recovery<S> {
    pub fn read(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        let root = root.trim_end_matches('/');
        let mp = marker_path(root);
        if !storage.exists(&mp, ctx) {
            return Err(BoraError::NotAContainer(root.to_owned()));
        }
        let cfg = IngestConfig::decode(&storage.read_all(&mp, ctx)?)?;

        // The newest committed generation, looked for newest first, so
        // that only the winner and what failed before it are read;
        // everything else in gen/ is debris from crashed compactions and
        // superseded generations.
        let gdir = gen_dir(root);
        let (mut gens, mut debris) = (Vec::new(), Vec::new());
        for e in storage.read_dir(&gdir, ctx)? {
            let path = format!("{gdir}/{}", e.name);
            match (parse_gen_name(&e.name), e.kind) {
                (Some(g), EntryKind::Dir) => gens.push((g, path)),
                _ => debris.push((path, e.kind)),
            }
        }
        gens.sort_unstable_by_key(|&(g, _)| Reverse(g));
        let mut gen = None;
        for (g, path) in gens {
            match gen {
                None => match GenHandle::committed(storage, g, &path, ctx) {
                    Some(handle) => gen = Some(handle),
                    None => debris.push((path, EntryKind::Dir)),
                },
                Some(_) => debris.push((path, EntryKind::Dir)),
            }
        }
        let gen = gen.ok_or_else(|| {
            BoraError::Corrupt(format!("ingest root {root} has no committed generation"))
        })?;

        // Committed seals above the generation's watermark.
        let sdir = seg_dir(root);
        let mut by_seal: BTreeMap<u64, Vec<(String, bool)>> = BTreeMap::new();
        for e in storage.read_dir(&sdir, ctx)? {
            match parse_seg_name(&e.name) {
                Some((seq, topic)) => {
                    by_seal.entry(seq).or_default().push((e.name, topic.is_none()))
                }
                None => debris.push((format!("{sdir}/{}", e.name), EntryKind::File)),
            }
        }
        let mut seals = Vec::new();
        for (seq, files) in by_seal {
            let marker = if seq > gen.last_seal_seq && files.iter().any(|(_, m)| *m) {
                storage
                    .read_all(&seal_marker_path(root, seq), ctx)
                    .ok()
                    .and_then(|b| SealMarker::decode(&b).ok())
            } else {
                None
            };
            // Without one, consumed by the generation or never committed
            // (the WAL still holds an uncommitted seal's records).
            for (name, is_marker) in files {
                let kept = marker
                    .as_ref()
                    .is_some_and(|m| is_marker || m.files.iter().any(|f| f.name == name));
                if !kept {
                    debris.push((format!("{sdir}/{name}"), EntryKind::File));
                }
            }
            seals.extend(marker.map(|m| (seq, m)));
        }
        Ok(Recovery { cfg, gen, seals, debris })
    }

    /// The highest WAL sequence number the generation and the committed
    /// seals hold: recovery replays only the records above it.
    pub fn covered_wal_seq(&self) -> u64 {
        self.seals.iter().map(|(_, m)| m.last_wal_seq).fold(self.gen.last_wal_seq, u64::max)
    }
}

/// One committed generation. Snapshots hold an `Arc` to it; compaction
/// deletes a retired generation's directory only once no snapshot does.
pub struct GenHandle<S> {
    pub generation: u64,
    /// Container root of this generation (`<root>/gen/C<g>`).
    pub root: String,
    pub last_seal_seq: u64,
    pub last_wal_seq: u64,
    /// The generation's container, opened by its first reader and shared
    /// by every later one; see [`GenHandle::bag`].
    bag: Mutex<Option<BoraBag<S>>>,
}

impl<S: Storage + Clone> GenHandle<S> {
    /// Generation `g` at `root`, if its MANIFEST commits an `.ingest`
    /// marker naming `g`. The marker is read through the opened
    /// container, whose open loaded the MANIFEST: one read of it for
    /// both. A generation the marker commits but whose container does
    /// not open is still returned, unopened: its first reader fails on
    /// it, and recovery does not sweep it as debris.
    fn committed(storage: &S, g: u64, root: &str, ctx: &mut IoCtx) -> Option<Self> {
        let mut gen = GenHandle {
            generation: g,
            root: root.to_owned(),
            last_seal_seq: 0,
            last_wal_seq: 0,
            bag: Mutex::new(None),
        };
        let marker = match gen.bag(storage, ctx) {
            Ok(bag) => bag.manifest().read_committed(storage, root, GEN_MARKER, ctx),
            Err(_) => Manifest::load(storage, root, ctx)
                .and_then(|m| m.read_committed(storage, root, GEN_MARKER, ctx)),
        };
        let marker = marker.and_then(|b| GenMarker::decode(&b)).ok();
        let marker = marker.filter(|m| m.generation == g)?;
        (gen.last_seal_seq, gen.last_wal_seq) = (marker.last_seal_seq, marker.last_wal_seq);
        Some(gen)
    }

    /// The generation's opened container — the one place `bora-ingest`
    /// opens one. The first caller (recovery, a snapshot or a compaction)
    /// opens it, holding this handle's mutex and never the state lock,
    /// and every later one clones it: `.bora`, the MANIFEST and the block
    /// maps are read once per generation. The bag keeps nothing a failed
    /// read found, so every read of a rotted generation verifies again
    /// and answers `ChecksumMismatch`, as a static root's does.
    fn bag(&self, storage: &S, ctx: &mut IoCtx) -> BoraResult<BoraBag<S>> {
        let mut opened = self.bag.lock();
        if let Some(bag) = opened.as_ref() {
            return Ok(bag.clone());
        }
        let bag = BoraBag::open(storage.clone(), &self.root, ctx)?;
        *opened = Some(bag.clone());
        Ok(bag)
    }
}

/// Point-in-time counters for `bora-tool ingest-stat` and the serve tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStat {
    pub epoch: u64,
    pub generation: u64,
    pub last_seal_seq: u64,
    /// WAL records fsynced but not yet sealed.
    pub wal_durable_records: u64,
    /// WAL records buffered in memory awaiting group commit.
    pub wal_buffered_records: u64,
    pub active_topics: usize,
    pub active_messages: u64,
    pub active_bytes: u64,
    pub sealed_batches: usize,
    /// Compaction lag: messages sealed but not yet compacted.
    pub sealed_messages: u64,
    pub sealed_bytes: u64,
}

struct IngestState<S> {
    shards: Vec<WalShard>,
    memtable: BTreeMap<String, Vec<IngestMessage>>,
    sealed: Vec<Arc<SealedBatch>>,
    gen: Arc<GenHandle<S>>,
    /// Generations superseded by compaction but possibly still pinned.
    retired: Vec<Arc<GenHandle<S>>>,
    /// Next WAL sequence number (first record is 1; 0 means "none").
    next_seq: u64,
    /// Next seal sequence number (first seal is 1; 0 means "none").
    next_seal_seq: u64,
    epoch: u64,
    /// Per-topic high-water timestamp across container + sealed +
    /// memtable, enforcing the chronological-lane invariant.
    last_time: BTreeMap<String, Time>,
}

impl<S> IngestState<S> {
    /// Retired generations no snapshot pins any more, taken off the list.
    /// Handles are only ever cloned under the state lock, so what is
    /// returned can never be pinned again and its files can be deleted
    /// after the lock is released.
    fn take_unpinned(&mut self) -> Vec<Arc<GenHandle<S>>> {
        let (unpinned, pinned) =
            std::mem::take(&mut self.retired).into_iter().partition(|h| Arc::strong_count(h) == 1);
        self.retired = pinned;
        unpinned
    }
}

/// A live ingest root: robots append through [`IngestStore::append`],
/// readers query through [`IngestStore::snapshot`].
pub struct IngestStore<S: Storage> {
    storage: S,
    root: String,
    cfg: IngestConfig,
    /// Shared page cache handed to every snapshot's container reads.
    pool: Option<Arc<BufferPool>>,
    inner: Mutex<IngestState<S>>,
    /// Held for the whole of a compaction, so that there is one at a
    /// time; taken before `inner`, never while holding it.
    compacting: Mutex<()>,
}

impl<S: Storage + Clone> IngestStore<S> {
    /// Initialize a fresh ingest root. Commits an empty generation-0
    /// container first (so every snapshot has a container to open), then
    /// the `.boraingest` marker last — a crash mid-create leaves debris
    /// but never a root that [`IngestStore::open`] accepts — and opens
    /// what it committed, as any later open would.
    pub fn create(storage: S, root: &str, cfg: IngestConfig, ctx: &mut IoCtx) -> BoraResult<Self> {
        let sp = bora_obs::span("ingest.create");
        let root = root.trim_end_matches('/').to_owned();
        let mp = marker_path(&root);
        if storage.exists(&mp, ctx) {
            return Err(BoraError::Fs(simfs::FsError::AlreadyExists(root)));
        }
        storage.mkdir_all(&wal_dir(&root), ctx)?;
        storage.mkdir_all(&seg_dir(&root), ctx)?;
        storage.mkdir_all(&gen_dir(&root), ctx)?;
        let marker = GenMarker { generation: 0, last_seal_seq: 0, last_wal_seq: 0 };
        let g0 = gen_root(&root, 0);
        stage_generation(&storage, &g0, &cfg, ctx)?.commit(
            &storage,
            Vec::new(),
            0,
            Some((GEN_MARKER, &marker.encode())),
            ctx,
        )?;
        storage.append(&mp, &cfg.encode(), ctx)?;
        storage.flush(&mp, ctx)?;
        sp.end();
        IngestStore::open(storage, &root, ctx)
    }

    /// Open (and recover) an existing ingest root:
    ///
    /// 1. newest generation with a valid MANIFEST + `.ingest` marker
    ///    wins; older generations and staging debris are swept;
    /// 2. seals above the generation's watermark with a valid marker are
    ///    loaded memory-resident (verified against the marker's lengths
    ///    and CRCs); unmarked segments are discarded — their records are
    ///    still in the WAL;
    /// 3. WAL shards are truncated at the first torn frame, and surviving
    ///    records above the covered watermark replay into the memtable.
    pub fn open(storage: S, root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        let sp = bora_obs::span("ingest.open");
        let root = root.trim_end_matches('/').to_owned();
        let plan = Recovery::read(&storage, &root, ctx)?;
        let covered = plan.covered_wal_seq();
        let Recovery { cfg, gen, seals, debris } = plan;

        // 1. Sweep what no committed state refers to.
        for (path, kind) in debris {
            match kind {
                EntryKind::Dir => storage.remove_dir_all(&path, ctx)?,
                EntryKind::File => storage.remove_file(&path, ctx)?,
            }
        }

        // 2. Load the committed seals, each file held to its marker.
        let sdir = seg_dir(&root);
        let mut sealed: Vec<Arc<SealedBatch>> = Vec::with_capacity(seals.len());
        for (seal_seq, m) in seals {
            let mut topics = BTreeMap::new();
            for f in &m.files {
                let bytes = storage.read_all(&format!("{sdir}/{}", f.name), ctx)?;
                if bytes.len() as u64 != f.len || crc32c(&bytes) != f.crc32c {
                    return Err(BoraError::Corrupt(format!("sealed segment {} damaged", f.name)));
                }
                let seg = Segment::decode(&bytes)?;
                topics.insert(seg.topic, seg.msgs);
            }
            sealed.push(Arc::new(SealedBatch { seal_seq, last_wal_seq: m.last_wal_seq, topics }));
        }

        // 3. Recover WAL shards and replay uncovered records.
        let mut shards: Vec<WalShard> =
            (0..cfg.wal_shards.max(1)).map(|i| WalShard::new(wal_shard_path(&root, i))).collect();
        let mut records: Vec<WalRecord> = Vec::new();
        for sh in &mut shards {
            records.extend(sh.recover(&storage, ctx)?);
        }
        records.retain(|r| r.seq > covered);
        records.sort_by_key(|r| r.seq);
        let mut next_seq = covered + 1;
        let mut memtable: BTreeMap<String, Vec<IngestMessage>> = BTreeMap::new();
        for r in records {
            next_seq = next_seq.max(r.seq + 1);
            memtable.entry(r.topic).or_default().push(IngestMessage {
                time: r.time,
                seq: r.seq,
                data: r.data.into(),
            });
        }

        // High-water timestamps: container topics' last index entry, then
        // sealed batches and the replayed memtable. Recovery opened the
        // generation, `.bora` held to its MANIFEST, for every later reader.
        let gen = Arc::new(gen);
        let mut last_time: BTreeMap<String, Time> = BTreeMap::new();
        for t in &gen.bag(&storage, ctx)?.meta().topics {
            if t.message_count == 0 {
                continue;
            }
            let paths = TopicPaths::new(&gen.root, &t.topic);
            let ilen = storage.len(&paths.index, ctx)?;
            if ilen >= ENTRY_SIZE as u64 {
                let tail =
                    storage.read_at(&paths.index, ilen - ENTRY_SIZE as u64, ENTRY_SIZE, ctx)?;
                let mut cur: &[u8] = &tail;
                last_time.insert(t.topic.clone(), TopicIndexEntry::decode(&mut cur)?.time);
            }
        }
        for batch in &sealed {
            for (topic, msgs) in &batch.topics {
                if let Some(m) = msgs.last() {
                    let e = last_time.entry(topic.clone()).or_insert(m.time);
                    *e = (*e).max(m.time);
                }
            }
        }
        for (topic, msgs) in &memtable {
            if let Some(m) = msgs.last() {
                let e = last_time.entry(topic.clone()).or_insert(m.time);
                *e = (*e).max(m.time);
            }
        }

        let next_seal_seq = sealed.iter().map(|b| b.seal_seq).fold(gen.last_seal_seq, u64::max) + 1;
        sp.end();
        Ok(IngestStore {
            storage,
            root,
            cfg,
            pool: None,
            inner: Mutex::new(IngestState {
                shards,
                memtable,
                sealed,
                gen,
                retired: Vec::new(),
                next_seq,
                next_seal_seq,
                epoch: 1,
                last_time,
            }),
            compacting: Mutex::new(()),
        })
    }

    /// Is `root` an ingest root (has the `.boraingest` marker)?
    pub fn is_ingest_root(storage: &S, root: &str, ctx: &mut IoCtx) -> bool {
        storage.exists(&marker_path(root.trim_end_matches('/')), ctx)
    }

    pub fn root(&self) -> &str {
        &self.root
    }

    pub fn config(&self) -> IngestConfig {
        self.cfg
    }

    /// Attach a shared buffer pool: every snapshot taken afterwards
    /// routes its container-lane reads through it.
    pub fn with_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Append one timestamped message. Returns its WAL sequence number.
    /// The record is durable once its shard group-commits (every
    /// `group_commit` records, at [`IngestStore::flush_wal`], and at
    /// every seal). Appends must be per-topic chronological — an
    /// out-of-order timestamp is rejected, which is what keeps every
    /// merge lane sorted and the memtable/segment/container read paths
    /// byte-identical.
    pub fn append(&self, topic: &str, time: Time, data: &[u8], ctx: &mut IoCtx) -> BoraResult<u64> {
        self.append_batch([(topic, time, data)], ctx).map(|seqs| seqs.start)
    }

    /// Append a batch of `(topic, time, payload)` messages under one lock,
    /// all or nothing: every message is checked against its topic's
    /// high-water mark — earlier messages of the same batch included —
    /// before any is applied, so an out-of-order message rejects the
    /// whole batch and leaves the store as it was. Returns the WAL
    /// sequence numbers the batch took.
    pub fn append_batch<'m, I>(&self, batch: I, ctx: &mut IoCtx) -> BoraResult<Range<u64>>
    where
        I: IntoIterator<Item = (&'m str, Time, &'m [u8])>,
        I::IntoIter: Clone,
    {
        let batch = batch.into_iter();
        let mut st = self.inner.lock();
        let mut high: BTreeMap<&str, Time> = BTreeMap::new();
        for (topic, time, _) in batch.clone() {
            let last = high.get(topic).or_else(|| st.last_time.get(topic));
            if let Some(last) = last.filter(|last| time < **last) {
                return Err(BoraError::Corrupt(format!(
                    "out-of-order append on {topic}: {} < high-water {}",
                    time.as_nanos(),
                    last.as_nanos()
                )));
            }
            high.insert(topic, time);
        }
        let first = st.next_seq;
        for (topic, time, data) in batch {
            let seq = st.next_seq;
            st.next_seq += 1;
            let shard = shard_of(topic, self.cfg.wal_shards.max(1));
            st.shards[shard].append(seq, topic, time, data);
            if st.shards[shard].buffered_records() >= self.cfg.group_commit.max(1) {
                st.shards[shard].sync(&self.storage, ctx)?;
            }
            // A known topic's name is looked up, not allocated.
            let msg = IngestMessage { time, seq, data: data.into() };
            if let Some(msgs) = st.memtable.get_mut(topic) {
                msgs.push(msg);
            } else {
                st.memtable.insert(topic.to_owned(), vec![msg]);
            }
            if let Some(last) = st.last_time.get_mut(topic) {
                *last = time;
            } else {
                st.last_time.insert(topic.to_owned(), time);
            }
            st.epoch += 1;
        }
        Ok(first..st.next_seq)
    }

    /// Force-sync every WAL shard (one fsync per non-empty shard).
    pub fn flush_wal(&self, ctx: &mut IoCtx) -> BoraResult<()> {
        let st = &mut *self.inner.lock();
        for sh in &mut st.shards {
            sh.sync(&self.storage, ctx)?;
        }
        Ok(())
    }

    /// Seal the memtable: write one sorted, time-indexed segment file per
    /// topic, commit them with a fsynced seal marker, then retire the WAL
    /// shards. Returns the seal sequence, or `None` if there was nothing
    /// to seal.
    pub fn seal(&self, ctx: &mut IoCtx) -> BoraResult<Option<u64>> {
        let sp = bora_obs::span("ingest.seal");
        let st = &mut *self.inner.lock();
        // Anything still buffered must land before its only copy moves
        // out of the WAL path.
        for sh in &mut st.shards {
            sh.sync(&self.storage, ctx)?;
        }
        if st.memtable.is_empty() {
            sp.end();
            return Ok(None);
        }
        let seal_seq = st.next_seal_seq;
        let last_wal_seq = st.next_seq - 1;
        let mut files = Vec::with_capacity(st.memtable.len());
        for (topic, msgs) in &st.memtable {
            let seg = Segment { topic: topic.clone(), seal_seq, msgs: msgs.clone() };
            let bytes = seg.encode();
            let path = segment_path(&self.root, seal_seq, topic);
            self.storage.append(&path, &bytes, ctx)?;
            self.storage.flush(&path, ctx)?;
            let name = path.rsplit('/').next().expect("segment file name").to_owned();
            files.push(SealedFile { name, len: bytes.len() as u64, crc32c: crc32c(&bytes) });
        }
        // The marker is the commit: before it, recovery discards the
        // segments (the WAL has the records); after it, the batch is
        // durable independent of the WAL.
        let marker = SealMarker { seal_seq, last_wal_seq, files };
        let mpath = seal_marker_path(&self.root, seal_seq);
        self.storage.append(&mpath, &marker.encode(), ctx)?;
        self.storage.flush(&mpath, ctx)?;
        for sh in &mut st.shards {
            sh.reset(&self.storage, ctx)?;
        }
        let topics = std::mem::take(&mut st.memtable);
        st.sealed.push(Arc::new(SealedBatch { seal_seq, last_wal_seq, topics }));
        st.next_seal_seq = seal_seq + 1;
        st.epoch += 1;
        bora_obs::counter("ingest.seal").inc();
        sp.end();
        Ok(Some(seal_seq))
    }

    /// Merge the sealed batches into a new container generation,
    /// committed with the staged-manifest protocol, so a power cut at any
    /// point leaves either the old or the new generation, never a mix.
    /// Returns the current generation number (unchanged when there was
    /// nothing to compact).
    ///
    /// Appends are per-topic chronological, so the old generation is a
    /// byte prefix of the new one: each carried topic is *resumed*
    /// ([`bora::writer::TopicWriter::resume`] — old files verified against
    /// the old MANIFEST, full frames appended as they are) and only the
    /// sealed messages are pushed. The result is byte-identical to writing
    /// the whole root again.
    ///
    /// The state lock is taken twice, briefly: to pin the input (the
    /// current generation and the batches sealed so far, both immutable)
    /// and, after the commit rename, to swap the new generation in.
    /// Appends, seals and snapshots proceed in between — a batch sealed
    /// meanwhile stays for the next compaction; a second `compact` waits
    /// for this one. The consumed `.seg` / `.seal` files are removed after
    /// the swap, best-effort: the compaction is committed by then, and a
    /// file that will not go is debris [`IngestStore::open`] sweeps.
    pub fn compact(&self, ctx: &mut IoCtx) -> BoraResult<u64> {
        let sp = bora_obs::span("ingest.compact");
        let _one_at_a_time = self.compacting.lock();
        let (old, batches) = {
            let st = self.inner.lock();
            (Arc::clone(&st.gen), st.sealed.clone())
        };
        if batches.is_empty() {
            sp.end();
            return Ok(old.generation);
        }
        // A damaged byte must stop the compaction, not be copied under a
        // fresh, valid commit record: everything taken from the old
        // generation is checked against the MANIFEST its open verified
        // `.bora` against.
        let old_bag = old.bag(&self.storage, ctx)?;
        let from = (old.root.as_str(), old_bag.manifest());
        let old_meta = old_bag.meta();
        if old_meta.block != self.cfg.block {
            return Err(BoraError::Corrupt(format!(
                "{}: written with block {:?}, the root's config says {:?}",
                meta_path(&old.root),
                old_meta.block,
                self.cfg.block
            )));
        }
        let mut topics: BTreeSet<&str> = old_meta.topics.iter().map(|t| &*t.topic).collect();
        for b in &batches {
            topics.extend(b.topics.keys().map(String::as_str));
        }
        let new_root = gen_root(&self.root, old.generation + 1);
        let container = stage_generation(&self.storage, &new_root, &self.cfg, ctx)?;
        let mut finished = Vec::with_capacity(topics.len());
        let mut adopted = 0;
        for topic in topics {
            let mut w = match old_meta.topic(topic) {
                Some(tm) => container.resume_topic(&self.storage, tm.clone(), from, ctx)?,
                None => {
                    let identity = TopicMeta { topic: topic.to_owned(), ..TopicMeta::default() };
                    container.topic(&self.storage, identity, ctx)?
                }
            };
            adopted += w.data_len();
            for b in &batches {
                for m in b.topics.get(topic).into_iter().flatten() {
                    w.push(&self.storage, m.time, &m.data, ctx)?;
                }
            }
            finished.push(w.finish(&self.storage, ctx)?);
        }
        let bytes_written: u64 = finished.iter().flat_map(|t| &t.files).map(|f| f.len).sum();
        let last_seal_seq = batches.last().expect("non-empty").seal_seq;
        let last_wal_seq = batches.iter().map(|b| b.last_wal_seq).fold(old.last_wal_seq, u64::max);
        let marker = GenMarker { generation: old.generation + 1, last_seal_seq, last_wal_seq };
        container.commit(
            &self.storage,
            finished,
            bytes_written,
            Some((GEN_MARKER, &marker.encode())),
            ctx,
        )?;
        // Committed. Swap before anything else can fail: from here on the
        // new generation is what `open` would find.
        let new_gen = Arc::new(GenHandle {
            generation: marker.generation,
            root: new_root,
            last_seal_seq,
            last_wal_seq,
            bag: Mutex::new(None),
        });
        drop(old);
        let unpinned = {
            let st = &mut *self.inner.lock();
            // Seals only push, and no other compaction ran: the pinned
            // batches are still the front of the list.
            st.sealed.drain(..batches.len());
            let retired = std::mem::replace(&mut st.gen, new_gen);
            st.retired.push(retired);
            st.epoch += 1;
            st.take_unpinned()
        };
        for b in &batches {
            let segs = b.topics.keys().map(|topic| segment_path(&self.root, b.seal_seq, topic));
            for p in segs.chain([seal_marker_path(&self.root, b.seal_seq)]) {
                if self.storage.exists(&p, ctx) {
                    let _ = self.storage.remove_file(&p, ctx);
                }
            }
        }
        self.remove_generations(unpinned, ctx);
        bora_obs::counter("compact.bytes").add(bytes_written);
        bora_obs::counter("compact.adopted_bytes").add(adopted);
        sp.end();
        Ok(marker.generation)
    }

    /// Delete retired generations nothing pins any more (see
    /// [`IngestState::take_unpinned`]); without the state lock.
    fn remove_generations(&self, gens: Vec<Arc<GenHandle<S>>>, ctx: &mut IoCtx) {
        for h in gens {
            if self.storage.exists(&h.root, ctx) {
                let _ = self.storage.remove_dir_all(&h.root, ctx);
            }
            // The generation's files are gone; drop its cached pages so
            // the budget goes back to live data.
            if let Some(p) = &self.pool {
                p.invalidate_prefix(&h.root);
            }
        }
    }

    /// Current point-in-time counters.
    pub fn stat(&self) -> IngestStat {
        let st = self.inner.lock();
        IngestStat {
            epoch: st.epoch,
            generation: st.gen.generation,
            last_seal_seq: st.next_seal_seq - 1,
            wal_durable_records: st.shards.iter().map(|s| s.durable_records).sum(),
            wal_buffered_records: st.shards.iter().map(|s| s.buffered_records()).sum(),
            active_topics: st.memtable.len(),
            active_messages: st.memtable.values().map(|v| v.len() as u64).sum(),
            active_bytes: st.memtable.values().flatten().map(|m| m.data.len() as u64).sum(),
            sealed_batches: st.sealed.len(),
            sealed_messages: st.sealed.iter().map(|b| b.message_count()).sum(),
            sealed_bytes: st.sealed.iter().map(|b| b.data_bytes()).sum(),
        }
    }

    /// Current MVCC epoch (bumped by every append, seal, and compaction).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Pin an MVCC snapshot: the current generation, sealed batches, and
    /// a frozen copy of the memtable (payloads are shared, not copied).
    /// The snapshot never observes later appends, seals, or compactions,
    /// and keeps its generation's files alive until dropped.
    pub fn snapshot(&self, ctx: &mut IoCtx) -> BoraResult<Snapshot<S>> {
        let (gen, sealed, memtable, epoch, unpinned) = {
            let st = &mut *self.inner.lock();
            bora_obs::gauge("snapshot.epochs").set(st.epoch as i64);
            let unpinned = st.take_unpinned();
            (Arc::clone(&st.gen), st.sealed.clone(), st.memtable.clone(), st.epoch, unpinned)
        };
        self.remove_generations(unpinned, ctx);
        // Taken with the state lock released: `gen` already pins the
        // generation's files, so appenders never wait on its first open
        // and a concurrent compaction cannot delete what is being opened.
        let bag = gen.bag(&self.storage, ctx)?;
        let bag = match &self.pool {
            Some(p) => bag.with_pool(Arc::clone(p)),
            None => bag,
        };
        Ok(Snapshot::new(bag, gen, sealed, memtable, epoch))
    }
}

/// Stage a generation container at `gen_root` in the root's configured
/// format. The compactor replaces each file whole, so every file is one
/// append.
fn stage_generation<S: Storage>(
    storage: &S,
    gen_root: &str,
    cfg: &IngestConfig,
    ctx: &mut IoCtx,
) -> BoraResult<ContainerWriter> {
    ContainerWriter::begin(storage, gen_root, cfg.block, cfg.window_ns, usize::MAX, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bora::block::BlockMap;
    use simfs::MemStorage;

    fn store<S: Storage + Clone>(fs: S, ctx: &mut IoCtx) -> IngestStore<S> {
        IngestStore::create(
            fs,
            "/live",
            IngestConfig { wal_shards: 2, group_commit: 2, window_ns: 1_000, block: None },
            ctx,
        )
        .unwrap()
    }

    #[test]
    fn create_bootstraps_generation_zero() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        let s = st.stat();
        assert_eq!(s.generation, 0);
        assert_eq!(s.active_messages, 0);
        // The empty C0 is a committed container.
        assert!(fs.exists("/live/gen/C00000000/MANIFEST", &mut ctx));
        assert!(IngestStore::is_ingest_root(&&fs, "/live", &mut ctx));
        assert!(!IngestStore::is_ingest_root(&&fs, "/elsewhere", &mut ctx));
    }

    #[test]
    fn a_fresh_root_recovers_to_the_state_create_starts_from() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        assert!(!fs.exists(&wal_shard_path("/live", 0), &mut ctx), "no WAL shard written yet");
        let inner = st.inner.lock();
        assert_eq!((inner.next_seq, inner.next_seal_seq, inner.epoch), (1, 1, 1));
        assert_eq!(
            (inner.gen.generation, inner.gen.last_seal_seq, inner.gen.last_wal_seq),
            (0, 0, 0)
        );
        assert!(inner.last_time.is_empty() && inner.memtable.is_empty() && inner.sealed.is_empty());
        assert_eq!(inner.shards.len(), 2);
        assert!(inner.shards.iter().all(|sh| sh.durable_records + sh.buffered_records() == 0));
    }

    #[test]
    fn create_twice_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let _st = store(&fs, &mut ctx);
        assert!(IngestStore::create(&fs, "/live", IngestConfig::default(), &mut ctx).is_err());
    }

    #[test]
    fn append_seal_compact_round_trip() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        for i in 0..10u64 {
            st.append("/imu", Time::from_nanos(i * 100), &[i as u8; 16], &mut ctx).unwrap();
            st.append("/gps", Time::from_nanos(i * 100 + 50), &[i as u8; 8], &mut ctx).unwrap();
        }
        assert_eq!(st.stat().active_messages, 20);
        let seal = st.seal(&mut ctx).unwrap();
        assert_eq!(seal, Some(1));
        assert_eq!(st.stat().active_messages, 0);
        assert_eq!(st.stat().sealed_messages, 20);
        let g = st.compact(&mut ctx).unwrap();
        assert_eq!(g, 1);
        let s = st.stat();
        assert_eq!(s.sealed_messages, 0);
        // Compacted container is a clean, fully verifiable bag.
        let report = bora::fsck::check(&fs, "/live/gen/C00000001", &mut ctx).unwrap();
        assert!(report.is_clean(), "{report:?}");
        // Old generation directory is gone (no snapshot pinned it).
        assert!(!fs.exists("/live/gen/C00000000", &mut ctx));
    }

    #[test]
    fn out_of_order_append_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        st.append("/imu", Time::from_nanos(500), b"a", &mut ctx).unwrap();
        assert!(st.append("/imu", Time::from_nanos(400), b"b", &mut ctx).is_err());
        // Equal timestamps are fine; other topics are independent.
        st.append("/imu", Time::from_nanos(500), b"c", &mut ctx).unwrap();
        st.append("/gps", Time::from_nanos(100), b"d", &mut ctx).unwrap();
    }

    #[test]
    fn a_rejected_batch_applies_nothing() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        let batch = [10, 20, 5].map(|ns| ("/a", Time::from_nanos(ns), &b"x"[..]));
        assert!(st.append_batch(batch, &mut ctx).is_err());
        assert_eq!(st.stat().active_messages, 0);
        let snap = st.snapshot(&mut ctx).unwrap();
        assert!(snap
            .stream(&["/a"], None, &mut ctx)
            .unwrap()
            .collect_records(&mut ctx)
            .unwrap()
            .is_empty());
        // Nothing reached the WAL, and the high-water mark did not move.
        st.flush_wal(&mut ctx).unwrap();
        drop(snap);
        drop(st);
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        assert_eq!(st.stat().active_messages, 0);
        assert_eq!(st.append("/a", Time::from_nanos(5), b"y", &mut ctx).unwrap(), 1);
    }

    #[test]
    fn reopen_replays_durable_wal() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        {
            let st = store(&fs, &mut ctx);
            for i in 0..5u64 {
                st.append("/imu", Time::from_nanos(i), &[1, 2, 3], &mut ctx).unwrap();
            }
            st.flush_wal(&mut ctx).unwrap();
        }
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        let s = st.stat();
        assert_eq!(s.active_messages, 5);
        assert_eq!(s.wal_durable_records, 5);
        // Appends continue with fresh sequence numbers, still monotonic.
        st.append("/imu", Time::from_nanos(10), b"next", &mut ctx).unwrap();
        assert!(st.append("/imu", Time::from_nanos(3), b"stale", &mut ctx).is_err());
    }

    #[test]
    fn reopen_loads_sealed_batches() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        {
            let st = store(&fs, &mut ctx);
            st.append("/imu", Time::from_nanos(1), b"one", &mut ctx).unwrap();
            st.seal(&mut ctx).unwrap();
            st.append("/imu", Time::from_nanos(2), b"two", &mut ctx).unwrap();
            st.flush_wal(&mut ctx).unwrap();
        }
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        let s = st.stat();
        assert_eq!(s.sealed_batches, 1);
        assert_eq!(s.sealed_messages, 1);
        assert_eq!(s.active_messages, 1, "unsealed WAL record replayed");
        assert_eq!(s.last_seal_seq, 1);
    }

    #[test]
    fn seal_then_compact_is_idempotent_under_reopen() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        {
            let st = store(&fs, &mut ctx);
            st.append("/imu", Time::from_nanos(1), b"one", &mut ctx).unwrap();
            st.seal(&mut ctx).unwrap();
            st.compact(&mut ctx).unwrap();
        }
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        let s = st.stat();
        assert_eq!(s.generation, 1);
        assert_eq!(s.sealed_batches, 0);
        assert_eq!(s.active_messages, 0);
        // No duplicate replay: the compacted container holds exactly one.
        let snap = st.snapshot(&mut ctx).unwrap();
        let msgs =
            snap.stream(&["/imu"], None, &mut ctx).unwrap().collect_records(&mut ctx).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].data, b"one");
    }

    #[test]
    fn empty_seal_is_a_no_op() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        assert_eq!(st.seal(&mut ctx).unwrap(), None);
        assert_eq!(st.compact(&mut ctx).unwrap(), 0);
    }

    #[test]
    fn config_round_trip() {
        let cfg = IngestConfig { wal_shards: 7, group_commit: 33, window_ns: 12345, block: None };
        assert_eq!(IngestConfig::decode(&cfg.encode()).unwrap(), cfg);
        let mut bad = cfg.encode();
        bad[5] ^= 1;
        assert!(IngestConfig::decode(&bad).is_err());
    }

    #[test]
    fn config_block_trailer_round_trips_and_stays_optional() {
        let plain = IngestConfig::default();
        let plain_bytes = plain.encode();
        let blocked = IngestConfig { block: Some(BlockParams::default()), ..plain };
        let blocked_bytes = blocked.encode();
        assert_eq!(IngestConfig::decode(&plain_bytes).unwrap(), plain);
        assert_eq!(IngestConfig::decode(&blocked_bytes).unwrap(), blocked);
        // The trailer is strictly appended: a pre-block reader's length
        // assumptions still hold for plain configs.
        assert_eq!(blocked_bytes.len(), plain_bytes.len() + 5);
    }

    #[test]
    fn blocked_compaction_reads_back_identical() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let cfg = IngestConfig {
            wal_shards: 2,
            group_commit: 2,
            window_ns: 1_000,
            block: Some(BlockParams { codec: BlockCodec::Lzss, block_size: 64 }),
        };
        let st = IngestStore::create(&fs, "/live", cfg, &mut ctx).unwrap();
        let mut expect = Vec::new();
        for i in 0..40u64 {
            // Compressible payloads spanning several 64-byte blocks.
            let payload = vec![(i % 3) as u8; 48];
            st.append("/imu", Time::from_nanos(i * 10), &payload, &mut ctx).unwrap();
            expect.push(payload);
        }
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        // Second round resumes an already-blocked old generation.
        for i in 40..50u64 {
            let payload = vec![7u8; 48];
            st.append("/imu", Time::from_nanos(i * 10), &payload, &mut ctx).unwrap();
            expect.push(payload);
        }
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        let snap = st.snapshot(&mut ctx).unwrap();
        let msgs =
            snap.stream(&["/imu"], None, &mut ctx).unwrap().collect_records(&mut ctx).unwrap();
        assert_eq!(msgs.len(), 50);
        for (m, e) in msgs.iter().zip(&expect) {
            assert_eq!(&m.data, e);
        }
        // The committed generation verifies clean, blocks file included.
        let report = bora::fsck::check(&fs, "/live/gen/C00000002", &mut ctx).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    /// create → 50 appends → seal → compact, then one flipped bit at
    /// `byte` of generation 1's `imu/<file>` (`byte` is given the file's
    /// bytes and its `blocks` map, when it has one): the next compaction
    /// must refuse to carry the damage into generation 2.
    fn damaged_generation_stops_compaction(
        block: Option<BlockParams>,
        file: &str,
        byte: impl Fn(&[u8], Option<&BlockMap>) -> u64,
    ) {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let cfg = IngestConfig { wal_shards: 2, group_commit: 2, window_ns: 1_000, block };
        let st = IngestStore::create(&fs, "/live", cfg, &mut ctx).unwrap();
        for i in 0..50u64 {
            st.append("/imu", Time::from_nanos(i * 10), &[(i % 5) as u8; 48], &mut ctx).unwrap();
        }
        st.seal(&mut ctx).unwrap();
        assert_eq!(st.compact(&mut ctx).unwrap(), 1);

        let path = format!("/live/gen/C00000001/imu/{file}");
        let map = block.map(|_| {
            BlockMap::decode(&fs.read_all("/live/gen/C00000001/imu/blocks", &mut ctx).unwrap())
                .unwrap()
        });
        let at = byte(&fs.read_all(&path, &mut ctx).unwrap(), map.as_ref());
        let old = fs.read_at(&path, at, 1, &mut ctx).unwrap()[0];
        fs.write_at(&path, at, &[old ^ 0x10], &mut ctx).unwrap();

        st.append("/imu", Time::from_nanos(500), &[9; 48], &mut ctx).unwrap();
        let seal = st.seal(&mut ctx).unwrap().unwrap();
        match st.compact(&mut ctx) {
            Err(BoraError::ChecksumMismatch { path, .. }) => {
                assert_eq!(path, format!("imu/{file}"))
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // Nothing was committed and nothing consumed.
        let s = st.stat();
        assert_eq!((s.generation, s.sealed_batches, s.sealed_messages), (1, 1, 1));
        assert!(!fs.exists("/live/gen/C00000002", &mut ctx));
        assert!(fs.exists(&segment_path("/live", seal, "/imu"), &mut ctx));
        assert!(fs.exists(&seal_marker_path("/live", seal), &mut ctx));

        // The store is still usable, and a reader is told the same thing.
        st.append("/imu", Time::from_nanos(510), &[9; 48], &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap().unwrap();
        let snap = st.snapshot(&mut ctx).unwrap();
        match snap.stream(&["/imu"], None, &mut ctx).and_then(|s| s.collect_records(&mut ctx)) {
            Err(BoraError::ChecksumMismatch { path, .. }) => {
                assert_eq!(path, format!("imu/{file}"))
            }
            Err(BoraError::Corrupt(_)) if file == "data" => {}
            other => panic!("expected a typed error, got {:?}", other.map(|m| m.len())),
        }
    }

    const LZSS_256: Option<BlockParams> =
        Some(BlockParams { codec: BlockCodec::Lzss, block_size: 256 });

    #[test]
    fn damaged_generation_v1_is_not_laundered_into_the_next() {
        // Inside entry 3's time field: still a well-formed index.
        damaged_generation_stops_compaction(None, "index", |_, _| 3 * 20 + 2);
        damaged_generation_stops_compaction(None, "data", |_, _| 100);
    }

    #[test]
    fn damaged_generation_blocked_is_a_typed_error_not_a_panic() {
        // A high byte of entry 3's offset field: far outside the data.
        damaged_generation_stops_compaction(LZSS_256, "index", |_, _| 3 * 20 + 8 + 3);
    }

    #[test]
    fn damaged_generation_adopted_frames_are_held_to_the_manifest() {
        use bora::block::FRAME_HEADER_LEN;
        // 2 400 logical bytes: nine full frames, which the next
        // compaction would append as they are, and a partial one.
        let frame = |map: Option<&BlockMap>, i: usize| map.unwrap().entries[i];
        // A stored byte of an adopted frame: under that frame's CRC,
        // which adoption no longer computes.
        damaged_generation_stops_compaction(LZSS_256, "data", |_, map| {
            assert_eq!(map.unwrap().entries.len(), 10);
            frame(map, 4).phys_off + FRAME_HEADER_LEN as u64
        });
        // An adopted frame's `unc_len`: under no frame CRC at all.
        damaged_generation_stops_compaction(LZSS_256, "data", |_, map| frame(map, 4).phys_off + 1);
        // The partial frame, which is decoded.
        damaged_generation_stops_compaction(LZSS_256, "data", |data, map| {
            assert_eq!(frame(map, 9).phys_off + frame(map, 9).frame_len as u64, data.len() as u64);
            data.len() as u64 - 1
        });
        // A frame length in `blocks`: what decides which bytes are adopted.
        damaged_generation_stops_compaction(LZSS_256, "blocks", |blocks, _| {
            blocks.len() as u64 - 4
        });
    }

    #[test]
    fn generation_written_with_another_block_config_is_corrupt() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        st.append("/imu", Time::from_nanos(1), b"one", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        assert_eq!(st.compact(&mut ctx).unwrap(), 1);
        let cfg = IngestConfig { block: LZSS_256, ..st.config() };
        drop(st);
        // No API does this: the config is written once, by `create`.
        fs.remove_file("/live/.boraingest", &mut ctx).unwrap();
        fs.append("/live/.boraingest", &cfg.encode(), &mut ctx).unwrap();

        let fs = simfs::FaultyStorage::new(fs);
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        st.append("/imu", Time::from_nanos(2), b"two", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        let before = fs.mutations();
        match st.compact(&mut ctx) {
            Err(BoraError::Corrupt(msg)) => assert!(msg.contains(".bora"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(fs.mutations(), before, "nothing may be written");
        assert_eq!((st.stat().generation, st.stat().sealed_batches), (1, 1));
    }

    #[test]
    fn failed_cleanup_does_not_wedge_compaction() {
        use simfs::{FaultRule, FaultyStorage};
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        let st = store(&fs, &mut ctx);
        st.append("/imu", Time::from_nanos(1), b"one", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        fs.inject(FaultRule {
            path_contains: Some(".seg".into()),
            max_failures: Some(1),
            ..FaultRule::default()
        });
        // The fault hits the clean-up of a compaction that is committed.
        assert_eq!(st.compact(&mut ctx).unwrap(), 1);
        assert_eq!((st.stat().generation, st.stat().sealed_batches), (1, 0));
        st.append("/imu", Time::from_nanos(2), b"two", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        assert_eq!(st.compact(&mut ctx).unwrap(), 2);
        let read = |st: &IngestStore<&FaultyStorage<MemStorage>>, ctx: &mut IoCtx| {
            let msgs = st
                .snapshot(ctx)
                .unwrap()
                .stream(&["/imu"], None, ctx)
                .unwrap()
                .collect_records(ctx)
                .unwrap();
            msgs.into_iter().map(|m| m.data).collect::<Vec<_>>()
        };
        assert_eq!(read(&st, &mut ctx), [b"one".to_vec(), b"two".to_vec()]);
        drop(st);
        let st = IngestStore::open(&fs, "/live", &mut ctx).unwrap();
        assert_eq!((st.stat().generation, st.stat().sealed_batches), (2, 0));
        assert_eq!(read(&st, &mut ctx), [b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn gen_marker_round_trip() {
        let m = GenMarker { generation: 4, last_seal_seq: 9, last_wal_seq: 512 };
        assert_eq!(GenMarker::decode(&m.encode()).unwrap(), m);
    }
}
