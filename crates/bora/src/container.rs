//! [`BoraBag`]: BORA-Lib's query interface over a container.
//!
//! * `open` is the paper's Fig. 4b: list the container's sub-directories to
//!   build the tag manager's hash table, read the small metadata file, and
//!   return — no chunk-info iteration, no per-message index construction.
//! * `read_topics` is Fig. 7: hash-lookup each topic's back-end path and
//!   hand the underlying file system large contiguous reads.
//! * `read_topics_time` uses the coarse-grain time index: window arithmetic
//!   narrows each topic to a candidate entry range, one contiguous read
//!   covers the candidates, and a fine timestamp filter finishes the job.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::device::cpu;
use simfs::{IoCtx, Storage};

use crate::block::{decode_frame, BlockMap, BlockParams};
use crate::bufpool::BufferPool;
use crate::checksum::Crc32c;
use crate::error::{BoraError, BoraResult};
use crate::layout::{meta_path, rel_path, TopicPaths};
use crate::manifest::Manifest;
use crate::meta::ContainerMeta;
use crate::stream::{MessageStream, StreamOptions, TailMessage};
use crate::tag::TagManager;
use crate::time_index::TimeIndex;
use crate::topic_index::{
    decode_entries, is_chronological, slice_time_range, TopicIndexEntry, ENTRY_SIZE,
};

/// Per-message delivery cost through the ROS-Lib/FUSE front end.
///
/// The paper's prototype keeps the ROS-Lib message API: applications still
/// receive messages one by one through the FUSE interposition layer, and a
/// FUSE 2.x read round trip costs tens of microseconds. This is why the
/// paper's measured wins are 1.5-11x rather than unbounded — BORA
/// eliminates the *seek and scan* work, not the per-message delivery. The
/// bulk [`BoraBag::read_topic_raw`] path bypasses ROS-Lib and does not pay
/// it.
pub const FUSE_DELIVERY_NS: u64 = 60_000;

/// An opened BORA container.
///
/// The tag table and metadata built by [`BoraBag::open`] are immutable for
/// the handle's lifetime and shared behind `Arc`s, so cloning a handle is
/// cheap (two reference bumps plus the storage handle's own clone). A
/// serving layer can therefore open a container once and hand concurrent
/// workers their own handles.
pub struct BoraBag<S> {
    pub(crate) storage: S,
    root: String,
    pub(crate) tags: Arc<TagManager>,
    meta: Arc<ContainerMeta>,
    /// Commit manifest, when the container has one. Full-file reads are
    /// verified against it lazily; pre-manifest containers get `None` and
    /// read unverified.
    manifest: Arc<Option<Manifest>>,
    /// topic → stable connection id, precomputed at open so per-message
    /// reporting is a hash lookup rather than a linear scan of the
    /// metadata topic list.
    conn_ids: Arc<HashMap<Arc<str>, u32>>,
    /// Topics whose files failed verification — populated up front by
    /// [`BoraBag::open_degraded`] and lazily whenever a read catches a
    /// checksum mismatch. Reads of a damaged topic short-circuit with
    /// [`BoraError::TopicDamaged`]; the other topics keep serving.
    damaged: Arc<Mutex<HashSet<String>>>,
    /// Shared buffer pool, when the embedding layer attached one
    /// ([`BoraBag::with_pool`]). Block-framed data files page through
    /// it; v1 files always read storage directly (the classic path,
    /// bit-for-bit unchanged — see [`DataSource`] for why).
    pool: Option<Arc<BufferPool>>,
    /// Lazily loaded per-topic block maps (block-framed containers).
    block_maps: Arc<Mutex<HashMap<String, Arc<BlockMap>>>>,
}

impl<S: Clone> Clone for BoraBag<S> {
    fn clone(&self) -> Self {
        BoraBag {
            storage: self.storage.clone(),
            root: self.root.clone(),
            tags: Arc::clone(&self.tags),
            meta: Arc::clone(&self.meta),
            manifest: Arc::clone(&self.manifest),
            conn_ids: Arc::clone(&self.conn_ids),
            damaged: Arc::clone(&self.damaged),
            pool: self.pool.clone(),
            block_maps: Arc::clone(&self.block_maps),
        }
    }
}

/// How a topic's `data` file is physically read — resolved once per
/// cursor/bulk read by [`BoraBag::data_source`].
#[derive(Default)]
pub(crate) enum DataSource {
    /// v1 file: direct `read_at`, exactly the pre-pool path. v1 data
    /// files are deliberately **never** pooled: their only integrity
    /// cover is the manifest's whole-file CRC, which the direct paths
    /// fold over actual storage bytes. Serving cached pages would make
    /// that check vacuously pass over memory while the medium rots.
    /// Block-framed files carry a per-frame CRC verified at every fill,
    /// so they pool safely.
    #[default]
    RawDirect,
    /// Block-framed file: frames decode per block, through the pool when
    /// one is attached.
    Blocked { map: Arc<BlockMap> },
}

impl<S: Storage> BoraBag<S> {
    /// BORA-assisted open (Fig. 4b): build the tag hash table from the
    /// directory listing and load the container metadata.
    pub fn open(storage: S, container_root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        // The child spans partition the whole open: summing their virtual
        // charges reproduces the parent's (the paper's Fig. 4b
        // decomposition — directory-listing hash build + one small read —
        // plus the commit-manifest load the verification layer adds).
        let sp_open = bora_obs::span("bora.open");
        let virt_open = ctx.elapsed_ns();
        let tags = {
            let sp = bora_obs::span("bora.open.tag_rebuild");
            let v0 = ctx.elapsed_ns();
            let tags = TagManager::build(&storage, container_root, ctx)?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            tags
        };
        let meta = {
            let sp = bora_obs::span("bora.open.meta_read");
            let v0 = ctx.elapsed_ns();
            let meta_bytes = storage
                .read_all(&meta_path(container_root), ctx)
                .map_err(|_| BoraError::NotAContainer(container_root.to_owned()))?;
            let meta = ContainerMeta::decode(&meta_bytes)?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            meta
        };
        // The commit manifest, when present, arms lazy read verification.
        // A container written before the commit protocol has none and
        // reads unverified; a *damaged* manifest is a hard error — the
        // container claims to be verifiable but can't be.
        let manifest = {
            let sp = bora_obs::span("bora.open.manifest_load");
            let v0 = ctx.elapsed_ns();
            let manifest = Manifest::load(&storage, container_root, ctx)?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            manifest
        };
        bora_obs::counter("bora.open.count").inc();
        sp_open.end_virt(ctx.elapsed_ns() - virt_open);
        let conn_ids = meta
            .topics
            .iter()
            .enumerate()
            .map(|(i, t)| (Arc::from(t.topic.as_str()), i as u32))
            .collect();
        Ok(BoraBag {
            storage,
            root: container_root.to_owned(),
            tags: Arc::new(tags),
            meta: Arc::new(meta),
            manifest: Arc::new(manifest),
            conn_ids: Arc::new(conn_ids),
            damaged: Arc::new(Mutex::new(HashSet::new())),
            pool: None,
            block_maps: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Attach a shared buffer pool: subsequent data-file reads (bulk and
    /// streaming) page through it, so hot topics are served from memory
    /// across handles, workers, and connections.
    pub fn with_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The attached buffer pool, if any.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Block parameters of a block-framed container (metadata v2).
    pub fn block_params(&self) -> Option<BlockParams> {
        self.meta.block
    }

    /// Degraded open: like [`BoraBag::open`], but instead of trusting the
    /// tree, pre-screens every topic's files against the manifest (cheap
    /// length checks; content checksums stay lazy) and quarantines the
    /// topics that fail. Reads of quarantined topics return
    /// [`BoraError::TopicDamaged`]; intact topics serve normally. Returns
    /// the quarantined topic names alongside the handle.
    pub fn open_degraded(
        storage: S,
        container_root: &str,
        ctx: &mut IoCtx,
    ) -> BoraResult<(Self, Vec<String>)> {
        let bag = Self::open(storage, container_root, ctx)?;
        let mut damaged_topics = Vec::new();
        if let Some(manifest) = bag.manifest.as_ref() {
            for topic in bag.topics().into_iter().map(str::to_owned).collect::<Vec<_>>() {
                let paths = bag.tags.lookup(&topic, ctx)?.clone();
                let intact =
                    [&paths.data, &paths.index, &paths.tindex, &paths.blocks].iter().all(|p| {
                        let rel = match rel_path(&bag.root, p) {
                            Some(r) => r,
                            None => return false,
                        };
                        match manifest.entry(rel) {
                            // Unlisted file: nothing to verify against.
                            None => true,
                            Some(e) => bag.storage.len(p, ctx).map(|l| l == e.len).unwrap_or(false),
                        }
                    });
                if !intact {
                    damaged_topics.push(topic);
                }
            }
            damaged_topics.sort();
            let mut set = bag.damaged.lock();
            for t in &damaged_topics {
                set.insert(t.clone());
            }
        }
        Ok((bag, damaged_topics))
    }

    /// Topics currently quarantined as damaged (degraded mode).
    pub fn damaged_topics(&self) -> Vec<String> {
        let mut v: Vec<String> = self.damaged.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Whether this container carries a commit manifest (and therefore
    /// verifies reads).
    pub fn has_manifest(&self) -> bool {
        self.manifest.is_some()
    }

    pub(crate) fn check_not_damaged(&self, topic: &str) -> BoraResult<()> {
        if self.damaged.lock().contains(topic) {
            return Err(BoraError::TopicDamaged(topic.to_owned()));
        }
        Ok(())
    }

    /// Quarantine a topic after a failed verification (streaming cursors
    /// detect mismatches off the open path and report back through this).
    pub(crate) fn quarantine(&self, topic: &str) {
        self.damaged.lock().insert(topic.to_owned());
    }

    /// What the commit manifest expects of `path`, as a ready-to-fold
    /// running CRC + (len, crc, rel-path) triple — `None` when the
    /// container has no manifest or doesn't list the file. The streaming
    /// read path uses this to verify a data file chunk-by-chunk without
    /// ever holding it whole.
    pub(crate) fn manifest_expectation(&self, path: &str) -> Option<(Crc32c, u64, u32, String)> {
        let manifest = self.manifest.as_ref().as_ref()?;
        let rel = rel_path(&self.root, path)?;
        let entry = manifest.entry(rel)?;
        Some((Crc32c::new(), entry.len, entry.crc32c, rel.to_owned()))
    }

    /// Full-file read with lazy manifest verification: length + CRC32C
    /// are checked when the container has a manifest entry for the file.
    /// On mismatch the owning topic is quarantined and the typed
    /// [`BoraError::ChecksumMismatch`] surfaces to the caller. Partial
    /// (`read_at`) paths skip content verification — the time-range read
    /// path trades verification for not touching the whole file, which is
    /// exactly the point of the coarse index.
    pub(crate) fn verified_read_all(
        &self,
        path: &str,
        topic: Option<&str>,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<u8>> {
        let bytes = self.storage.read_all(path, ctx)?;
        if let (Some(manifest), Some(rel)) = (self.manifest.as_ref(), rel_path(&self.root, path)) {
            manifest.verify(rel, &bytes).inspect_err(|_| {
                if let Some(t) = topic {
                    self.quarantine(t);
                }
            })?;
        }
        Ok(bytes)
    }

    /// Load (and cache) one topic's block map.
    pub(crate) fn block_map(
        &self,
        topic: &str,
        paths: &TopicPaths,
        ctx: &mut IoCtx,
    ) -> BoraResult<Arc<BlockMap>> {
        if let Some(m) = self.block_maps.lock().get(topic) {
            return Ok(Arc::clone(m));
        }
        let bytes = self.verified_read_all(&paths.blocks, Some(topic), ctx)?;
        let map = Arc::new(BlockMap::decode(&bytes)?);
        self.block_maps.lock().insert(topic.to_owned(), Arc::clone(&map));
        Ok(map)
    }

    /// Resolve how `topic`'s data file is read: direct, pool-paged, or
    /// block-decoded — see [`DataSource`].
    pub(crate) fn data_source(
        &self,
        topic: &str,
        paths: &TopicPaths,
        ctx: &mut IoCtx,
    ) -> BoraResult<DataSource> {
        if self.meta.block.is_some() {
            return Ok(DataSource::Blocked { map: self.block_map(topic, paths, ctx)? });
        }
        // v1 stays direct even when a pool is attached — see [`DataSource`].
        Ok(DataSource::RawDirect)
    }

    /// One decoded page of a block-framed topic (logical block `page`),
    /// through the pool when attached: on a pool hit no storage read, no
    /// decompression and no allocation runs at all.
    pub(crate) fn block_page(
        &self,
        paths: &TopicPaths,
        map: &BlockMap,
        page: usize,
        ctx: &mut IoCtx,
    ) -> BoraResult<Arc<[u8]>> {
        let Some(&e) = map.entries.get(page) else {
            return Err(BoraError::Corrupt(format!(
                "{}: page {page} of a block map of {}",
                paths.data,
                map.entries.len()
            )));
        };
        let fill = |ctx: &mut IoCtx| -> BoraResult<Vec<u8>> {
            let frame = self.storage.read_at(&paths.data, e.phys_off, e.frame_len as usize, ctx)?;
            let rel = rel_path(&self.root, &paths.data).unwrap_or(&paths.data);
            let (logical, _) = decode_frame(&frame, rel, ctx)?;
            // Every block decode is counted: `EXPLAIN ANALYZE` and the
            // pushdown experiments read the delta of this counter to
            // prove how many decodes a time-range restriction skipped.
            bora_obs::counter("block.decode").inc();
            bora_obs::counter("block.decode_bytes").add(logical.len() as u64);
            Ok(logical)
        };
        match &self.pool {
            Some(pool) => Ok(pool.get_or_fill(&paths.data, page as u64, || fill(ctx))?.0.bytes()),
            None => Ok(Arc::from(fill(ctx)?)),
        }
    }

    /// Copy logical range `[start, start+len)` of a block-framed topic's
    /// data out of its pages — the bulk read's path; a stream cursor
    /// queues the pages themselves.
    fn fetch_logical(
        &self,
        paths: &TopicPaths,
        map: &BlockMap,
        start: u64,
        len: usize,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<u8>> {
        let page_size = map.block_size as u64;
        let mut out = Vec::with_capacity(len);
        let end = start + len as u64;
        let mut off = start;
        while off < end {
            let page = off / page_size;
            let page_start = page * page_size;
            let bytes = self.block_page(paths, map, page as usize, ctx)?;
            let lo = (off - page_start) as usize;
            let hi = ((end - page_start) as usize).min(bytes.len());
            if hi <= lo {
                return Err(BoraError::Corrupt(format!(
                    "{}: read past end of page {page}",
                    paths.data
                )));
            }
            out.extend_from_slice(&bytes[lo..hi]);
            off = page_start + hi as u64;
        }
        Ok(out)
    }

    pub fn root(&self) -> &str {
        &self.root
    }

    pub fn meta(&self) -> &ContainerMeta {
        &self.meta
    }

    pub fn tags(&self) -> &TagManager {
        &self.tags
    }

    pub fn topics(&self) -> Vec<&str> {
        self.tags.topics()
    }

    /// Bag-level time range recorded in the metadata.
    pub fn time_range(&self) -> (Time, Time) {
        (self.meta.start_time, self.meta.end_time)
    }

    /// Load one topic's full fine-grain index.
    pub fn load_index(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<Vec<TopicIndexEntry>> {
        self.check_not_damaged(topic)?;
        let paths = self.tags.lookup(topic, ctx)?.clone();
        self.load_entries(topic, &paths, None, ctx)
    }

    /// Load one topic's coarse time index.
    pub fn load_time_index(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<TimeIndex> {
        self.check_not_damaged(topic)?;
        let paths = self.tags.lookup(topic, ctx)?.clone();
        self.time_index_at(topic, &paths, ctx)
    }

    fn time_index_at(
        &self,
        topic: &str,
        paths: &TopicPaths,
        ctx: &mut IoCtx,
    ) -> BoraResult<TimeIndex> {
        let sp = bora_obs::span("bora.tindex.load");
        let v0 = ctx.elapsed_ns();
        let bytes = self.verified_read_all(&paths.tindex, Some(topic), ctx)?;
        let tindex = TimeIndex::decode(&bytes)?;
        sp.end_virt(ctx.elapsed_ns() - v0);
        Ok(tindex)
    }

    /// The index entries of `topic` a read needs: all of them (the whole,
    /// verified `index` file), or those inside `range` — window arithmetic
    /// on the coarse time index narrows the topic to a candidate entry
    /// range, one contiguous read covers the candidates, and a fine
    /// timestamp filter finishes the job.
    pub(crate) fn load_entries(
        &self,
        topic: &str,
        paths: &TopicPaths,
        range: Option<(Time, Time)>,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<TopicIndexEntry>> {
        let Some((start, end)) = range else {
            let entries =
                decode_entries(&self.verified_read_all(&paths.index, Some(topic), ctx)?)?;
            ctx.charge_ns(entries.len() as u64 * cpu::INDEX_ENTRY_NS);
            return Ok(entries);
        };
        let tindex = self.time_index_at(topic, paths, ctx)?;
        let Some((first, last)) = tindex.candidate_entries(start, end) else {
            return Ok(Vec::new());
        };
        let count = (last - first) as usize;
        let at = first as u64 * ENTRY_SIZE as u64;
        let bytes = self.storage.read_at(&paths.index, at, count * ENTRY_SIZE, ctx)?;
        let candidates = decode_entries(&bytes)?;
        ctx.charge_ns(count as u64 * cpu::INDEX_ENTRY_NS);
        Ok(slice_time_range(&candidates, start, end).to_vec())
    }

    /// Bulk-read one topic: the whole `data` file in one sequential read
    /// plus its index. This is the raw form analytics pipelines want.
    pub fn read_topic_raw(
        &self,
        topic: &str,
        ctx: &mut IoCtx,
    ) -> BoraResult<(Vec<TopicIndexEntry>, Vec<u8>)> {
        self.check_not_damaged(topic)?;
        let paths = self.tags.lookup(topic, ctx)?.clone();
        let index = {
            let bytes = self.verified_read_all(&paths.index, Some(topic), ctx)?;
            decode_entries(&bytes)?
        };
        let data = match self.data_source(topic, &paths, ctx)? {
            DataSource::RawDirect => self.verified_read_all(&paths.data, Some(topic), ctx)?,
            DataSource::Blocked { map } => self
                .fetch_logical(&paths, &map, 0, map.logical_len as usize, ctx)
                .inspect_err(|e| {
                    if let BoraError::ChecksumMismatch { .. } = e {
                        self.quarantine(topic);
                    }
                })?,
        };
        Ok((index, data))
    }

    /// Stream every message of the selected topics in global time order:
    /// bounded readahead per topic, parallel prefetch, heap k-way merge,
    /// zero-copy payloads. This is the primary read path; the
    /// materializing `read_*` methods below are `collect()` wrappers over
    /// it.
    pub fn stream_topics<'a>(
        &'a self,
        topics: &[&str],
        opts: StreamOptions,
        ctx: &mut IoCtx,
    ) -> BoraResult<MessageStream<'a, S>> {
        MessageStream::new(self, topics, Vec::new(), None, opts, ctx)
    }

    /// Time-bounded stream over the selected topics, narrowed per topic
    /// by the coarse-grain time index before any data-file byte moves.
    pub fn stream_topics_time<'a>(
        &'a self,
        topics: &[&str],
        start: Time,
        end: Time,
        opts: StreamOptions,
        ctx: &mut IoCtx,
    ) -> BoraResult<MessageStream<'a, S>> {
        MessageStream::new(self, topics, Vec::new(), Some((start, end)), opts, ctx)
    }

    /// Stream `topics` with live-ingest tails merged in: `tails[i]` holds
    /// topic `i`'s in-memory messages (sealed segments + memtable, in
    /// append order) that are *newer* than the topic's container entries.
    /// The k-way merge treats a container entry and a tail message
    /// identically — same lanes, same `(time, lane)` tie-break — so the
    /// output is byte-identical whether a message has been compacted into
    /// the container yet or not. A topic the container doesn't know is
    /// accepted when its tail is non-empty (not yet compacted at all).
    pub fn stream_topics_with_tails<'a>(
        &'a self,
        topics: &[&str],
        tails: Vec<Vec<TailMessage>>,
        range: Option<(Time, Time)>,
        opts: StreamOptions,
        ctx: &mut IoCtx,
    ) -> BoraResult<MessageStream<'a, S>> {
        MessageStream::new(self, topics, tails, range, opts, ctx)
    }

    /// Read every message of one topic, in time order, delivered through
    /// the ROS-Lib front end (per-message FUSE round trip charged).
    pub fn read_topic(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<Vec<MessageRecord>> {
        self.stream_topics(&[topic], StreamOptions::default(), ctx)?.collect_records(ctx)
    }

    /// `bag.read_messages(topics=[...])`, BORA style (Fig. 7): one
    /// bounded sequential read stream per topic (prefetched in parallel),
    /// heap-merged into time order (O(N log k), not the baseline's
    /// O(N log N) over a scattered file).
    pub fn read_topics(&self, topics: &[&str], ctx: &mut IoCtx) -> BoraResult<Vec<MessageRecord>> {
        let sp = bora_obs::span("bora.read_topics");
        let v0 = ctx.elapsed_ns();
        let out = self.stream_topics(topics, StreamOptions::default(), ctx)?.collect_records(ctx);
        sp.end_virt(ctx.elapsed_ns() - v0);
        out
    }

    /// `bag.read_messages(topics, start_time, end_time)` via the
    /// coarse-grain time index.
    pub fn read_topics_time(
        &self,
        topics: &[&str],
        start: Time,
        end: Time,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<MessageRecord>> {
        let sp = bora_obs::span("bora.read_topics_time");
        let v0 = ctx.elapsed_ns();
        let out = self
            .stream_topics_time(topics, start, end, StreamOptions::default(), ctx)?
            .collect_records(ctx);
        sp.end_virt(ctx.elapsed_ns() - v0);
        out
    }

    /// Time-range read of one topic.
    pub fn read_topic_time(
        &self,
        topic: &str,
        start: Time,
        end: Time,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<MessageRecord>> {
        self.stream_topics_time(&[topic], start, end, StreamOptions::default(), ctx)?
            .collect_records(ctx)
    }

    /// Container self-check: per topic, the index must be chronological,
    /// entries must tile the data file, and the time index must cover all
    /// entries. Returns the number of messages verified.
    pub fn verify(&self, ctx: &mut IoCtx) -> BoraResult<u64> {
        let mut total = 0u64;
        for topic in self.topics().into_iter().map(str::to_owned).collect::<Vec<_>>() {
            let entries = self.load_index(&topic, ctx)?;
            if !is_chronological(&entries) {
                return Err(BoraError::Corrupt(format!("{topic}: index not chronological")));
            }
            let paths = self.tags.lookup(&topic, ctx)?.clone();
            let data_len = self.storage.len(&paths.data, ctx)?;
            let covered: u64 = entries.iter().map(|e| e.len as u64).sum();
            if self.meta.block.is_some() {
                // Block-framed topic: the index tiles the *logical*
                // stream the map describes; the physical file must match
                // the map's frame lengths.
                let map = self.block_map(&topic, &paths, ctx)?;
                if covered != map.logical_len {
                    return Err(BoraError::Corrupt(format!(
                        "{topic}: index covers {covered} bytes, block map logs {}",
                        map.logical_len
                    )));
                }
                if map.phys_len() != data_len {
                    return Err(BoraError::Corrupt(format!(
                        "{topic}: block map frames total {} bytes, data file has {data_len}",
                        map.phys_len()
                    )));
                }
            } else if covered != data_len {
                return Err(BoraError::Corrupt(format!(
                    "{topic}: index covers {covered} bytes, data file has {data_len}"
                )));
            }
            let tindex = self.load_time_index(&topic, ctx)?;
            let windowed: u64 = tindex.windows.iter().map(|w| w.count as u64).sum();
            if windowed != entries.len() as u64 {
                return Err(BoraError::Corrupt(format!(
                    "{topic}: time index covers {windowed} of {} entries",
                    entries.len()
                )));
            }
            if let Some(m) = self.meta.topic(&topic) {
                if m.message_count != entries.len() as u64 {
                    return Err(BoraError::Corrupt(format!(
                        "{topic}: metadata says {} messages, index has {}",
                        m.message_count,
                        entries.len()
                    )));
                }
            }
            total += entries.len() as u64;
        }
        Ok(total)
    }

    /// Stable connection id for reporting: position in the metadata topic
    /// list (containers have no wire-level connections). Hash lookup on a
    /// table built once at open.
    pub(crate) fn conn_id_of(&self, topic: &str) -> u32 {
        self.conn_ids.get(topic).copied().unwrap_or(u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organizer::{duplicate, OrganizerOptions};
    use ros_msgs::sensor_msgs::{CameraInfo, Imu};
    use ros_msgs::RosMessage;
    use rosbag::{BagReader, BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    fn setup() -> (MemStorage, u64, u64) {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut w = BagWriter::create(
            &fs,
            "/src.bag",
            BagWriterOptions { chunk_size: 4096, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        let (mut n_imu, mut n_cam) = (0u64, 0u64);
        for tick in 0..300u32 {
            let t = Time::from_nanos(tick as u64 * 100_000_000);
            let mut imu = Imu::default();
            imu.header.seq = tick;
            imu.header.stamp = t;
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
            n_imu += 1;
            if tick % 6 == 0 {
                let mut cam = CameraInfo::default();
                cam.header.seq = tick;
                cam.header.stamp = t;
                w.write_ros_message("/camera/rgb/camera_info", t, &cam, &mut ctx).unwrap();
                n_cam += 1;
            }
        }
        w.close(&mut ctx).unwrap();
        duplicate(&fs, "/src.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx).unwrap();
        (fs, n_imu, n_cam)
    }

    #[test]
    fn open_lists_topics() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(bag.topics(), vec!["/camera/rgb/camera_info", "/imu"]);
        assert!(bag.meta().message_count() > 0);
    }

    #[test]
    fn read_topic_matches_baseline_reader() {
        let (fs, n_imu, _) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let bora_msgs = bag.read_topic("/imu", &mut ctx).unwrap();
        assert_eq!(bora_msgs.len() as u64, n_imu);

        let baseline = BagReader::open(&fs, "/src.bag", &mut ctx).unwrap();
        let base_msgs = baseline.read_messages(&["/imu"], &mut ctx).unwrap();
        assert_eq!(bora_msgs.len(), base_msgs.len());
        for (a, b) in bora_msgs.iter().zip(&base_msgs) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn multi_topic_merge_is_chronological_and_complete() {
        let (fs, n_imu, n_cam) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let msgs = bag.read_topics(&["/imu", "/camera/rgb/camera_info"], &mut ctx).unwrap();
        assert_eq!(msgs.len() as u64, n_imu + n_cam);
        for pair in msgs.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn time_query_matches_baseline() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let baseline = BagReader::open(&fs, "/src.bag", &mut ctx).unwrap();
        for (s, e) in [(0.0, 5.0), (7.3, 12.9), (29.9, 30.0), (0.0, 100.0)] {
            let (start, end) = (Time::from_sec_f64(s), Time::from_sec_f64(e));
            let ours = bag
                .read_topics_time(&["/imu", "/camera/rgb/camera_info"], start, end, &mut ctx)
                .unwrap();
            let theirs = baseline
                .read_messages_time(&["/imu", "/camera/rgb/camera_info"], start, end, &mut ctx)
                .unwrap();
            assert_eq!(ours.len(), theirs.len(), "range [{s}, {e})");
            for (a, b) in ours.iter().zip(&theirs) {
                assert_eq!(a.time, b.time);
                assert_eq!(a.data, b.data);
            }
        }
    }

    #[test]
    fn time_query_empty_range() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let msgs = bag
            .read_topics_time(&["/imu"], Time::new(900, 0), Time::new(901, 0), &mut ctx)
            .unwrap();
        assert!(msgs.is_empty());
    }

    #[test]
    fn unknown_topic_is_error() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert!(matches!(bag.read_topic("/gps", &mut ctx), Err(BoraError::UnknownTopic(_))));
    }

    #[test]
    fn verify_passes_on_fresh_container() {
        let (fs, n_imu, n_cam) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(bag.verify(&mut ctx).unwrap(), n_imu + n_cam);
    }

    #[test]
    fn verify_detects_truncated_data() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        // Corrupt: drop bytes from the data file.
        let data = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &data[..data.len() - 10], &mut ctx).unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert!(matches!(bag.verify(&mut ctx), Err(BoraError::Corrupt(_))));
    }

    #[test]
    fn open_missing_container() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        assert!(BoraBag::open(&fs, "/nothing", &mut ctx).is_err());
    }

    #[test]
    fn checksum_mismatch_is_typed_and_quarantines_topic() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        // Flip one payload byte; lengths stay intact, so only the CRC
        // can catch it.
        let data = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        let mut bad = data.clone();
        bad[data.len() / 2] ^= 0x40;
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &bad, &mut ctx).unwrap();

        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert!(bag.has_manifest());
        assert!(matches!(
            bag.read_topic_raw("/imu", &mut ctx),
            Err(BoraError::ChecksumMismatch { .. })
        ));
        // The topic is now quarantined; the sibling topic still serves.
        assert!(matches!(bag.read_topic_raw("/imu", &mut ctx), Err(BoraError::TopicDamaged(_))));
        assert!(bag.read_topic_raw("/camera/rgb/camera_info", &mut ctx).is_ok());
        assert_eq!(bag.damaged_topics(), vec!["/imu".to_owned()]);
    }

    #[test]
    fn degraded_open_quarantines_truncated_topic() {
        let (fs, _, n_cam) = setup();
        let mut ctx = IoCtx::new();
        let data = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &data[..data.len() - 10], &mut ctx).unwrap();

        let (bag, damaged) = BoraBag::open_degraded(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(damaged, vec!["/imu".to_owned()]);
        assert!(matches!(bag.read_topic("/imu", &mut ctx), Err(BoraError::TopicDamaged(_))));
        let cam = bag.read_topic("/camera/rgb/camera_info", &mut ctx).unwrap();
        assert_eq!(cam.len() as u64, n_cam);
    }

    #[test]
    fn degraded_open_on_clean_container_quarantines_nothing() {
        let (fs, n_imu, _) = setup();
        let mut ctx = IoCtx::new();
        let (bag, damaged) = BoraBag::open_degraded(&fs, "/c", &mut ctx).unwrap();
        assert!(damaged.is_empty());
        assert_eq!(bag.read_topic("/imu", &mut ctx).unwrap().len() as u64, n_imu);
    }

    #[test]
    fn payloads_decode_through_bora() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let msgs = bag
            .read_topic_time("/imu", Time::from_sec_f64(1.0), Time::from_sec_f64(2.0), &mut ctx)
            .unwrap();
        assert_eq!(msgs.len(), 10);
        for m in &msgs {
            let imu = Imu::from_bytes(&m.data).unwrap();
            assert_eq!(imu.header.stamp, m.time);
        }
    }
}
