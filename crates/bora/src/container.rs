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

use std::sync::Arc;

use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::device::cpu;
use simfs::{IoCtx, Storage};

use crate::block::{decode_frame_in_place, BlockMap};
use crate::bufpool::BufferPool;
use crate::checksum::Crc32c;
use crate::error::{BoraError, BoraResult};
use crate::layout::{meta_path, rel_path, TopicPaths, META_FILE};
use crate::manifest::Manifest;
use crate::meta::ContainerMeta;
use crate::stream::{MessageStream, StreamOptions, TailMessage};
use crate::tag::{OpenTopic, TagManager};
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
/// eliminates the *seek and scan* work, not the per-message delivery.
pub const FUSE_DELIVERY_NS: u64 = 60_000;

/// An opened BORA container.
///
/// The tag table, metadata and MANIFEST built by [`BoraBag::open`] are
/// immutable for the handle's lifetime and shared behind `Arc`s, so a
/// clone is a reference bump for each, the root path and the storage
/// handle's own clone, and every clone reads the same open topics. A handle keeps nothing a
/// failed read found: each read verifies what it reads, so damage
/// answers [`BoraError::ChecksumMismatch`] through every handle, whenever
/// it was taken. A serving layer can therefore open a container once and
/// hand concurrent workers their own handles.
#[derive(Clone)]
pub struct BoraBag<S> {
    pub(crate) storage: S,
    root: String,
    /// One record per committed topic: paths, connection id, block map.
    pub(crate) tags: Arc<TagManager>,
    meta: Arc<ContainerMeta>,
    /// The commit record. `.bora` is held to it at open, and full-file
    /// reads lazily after; a topic directory it does not commit is not
    /// opened at all.
    manifest: Arc<Manifest>,
    /// Shared buffer pool, when the embedding layer attached one
    /// ([`BoraBag::with_pool`]). Block-framed data files page through
    /// it; v1 files always read storage directly (the classic path,
    /// bit-for-bit unchanged — see [`DataSource`] for why).
    pool: Option<Arc<BufferPool>>,
}

/// How a topic's `data` file is physically read — resolved once per
/// cursor by [`BoraBag::data_source`].
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
    /// directory listing and load the container metadata. Both are held
    /// to the MANIFEST: `.bora` must match its commit record, and a
    /// listed directory the MANIFEST does not commit is not a topic.
    pub fn open(storage: S, container_root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {
        // The child spans partition the whole open: summing their virtual
        // charges reproduces the parent's (the paper's Fig. 4b
        // decomposition — directory-listing hash build + one small read —
        // plus the commit-manifest load the verification layer adds).
        let sp_open = bora_obs::span("bora.open");
        let virt_open = ctx.elapsed_ns();
        let mut tags = {
            let sp = bora_obs::span("bora.open.tag_rebuild");
            let v0 = ctx.elapsed_ns();
            let tags = TagManager::build(&storage, container_root, ctx)?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            tags
        };
        let meta_bytes = {
            let sp = bora_obs::span("bora.open.meta_read");
            let v0 = ctx.elapsed_ns();
            let meta_bytes = storage
                .read_all(&meta_path(container_root), ctx)
                .map_err(|_| BoraError::NotAContainer(container_root.to_owned()))?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            meta_bytes
        };
        // A missing or damaged MANIFEST is a hard error: nothing commits
        // what the root holds.
        let manifest = {
            let sp = bora_obs::span("bora.open.manifest_load");
            let v0 = ctx.elapsed_ns();
            let manifest = Manifest::load(&storage, container_root, ctx)?;
            sp.end_virt(ctx.elapsed_ns() - v0);
            manifest
        };
        manifest.verify(META_FILE, &meta_bytes)?;
        let meta = ContainerMeta::decode(&meta_bytes)?;
        tags.retain_committed(&manifest);
        tags.assign_connection_ids(&meta);
        bora_obs::counter("bora.open.count").inc();
        sp_open.end_virt(ctx.elapsed_ns() - virt_open);
        Ok(BoraBag {
            storage,
            root: container_root.to_owned(),
            tags: Arc::new(tags),
            meta: Arc::new(meta),
            manifest: Arc::new(manifest),
            pool: None,
        })
    }

    /// Attach a shared buffer pool: subsequent data-file reads page
    /// through it, so hot topics are served from memory across handles,
    /// workers, and connections.
    pub fn with_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// What the commit manifest expects of `path`, as a ready-to-fold
    /// running CRC + (len, crc, rel-path) triple — `None` for a file the
    /// MANIFEST does not list, which an open topic's `data` never is
    /// (the open keeps only committed topics). The streaming read path
    /// uses this to verify a data file chunk-by-chunk without ever
    /// holding it whole.
    pub(crate) fn manifest_expectation(&self, path: &str) -> Option<(Crc32c, u64, u32, String)> {
        let rel = rel_path(&self.root, path)?;
        let entry = self.manifest.entry(rel)?;
        Some((Crc32c::new(), entry.len, entry.crc32c, rel.to_owned()))
    }

    /// Full-file read with lazy manifest verification: length + CRC32C
    /// are checked against the file's entry, and a file without one is
    /// [`BoraError::Corrupt`]. A mismatch is the typed
    /// [`BoraError::ChecksumMismatch`], and the next read verifies again.
    /// Partial (`read_at`) paths skip content verification — the
    /// time-range read path trades verification for not touching the
    /// whole file, which is exactly the point of the coarse index.
    pub(crate) fn verified_read_all(&self, path: &str, ctx: &mut IoCtx) -> BoraResult<Vec<u8>> {
        let bytes = self.storage.read_all(path, ctx)?;
        let rel = rel_path(&self.root, path).unwrap_or(path);
        self.manifest.verify(rel, &bytes)?;
        Ok(bytes)
    }

    /// One topic's block map: loaded and verified by the first read that
    /// needs it, kept on the topic's record after.
    pub(crate) fn block_map(
        &self,
        topic: &OpenTopic,
        ctx: &mut IoCtx,
    ) -> BoraResult<Arc<BlockMap>> {
        if let Some(map) = topic.blocks.get() {
            return Ok(Arc::clone(map));
        }
        let map = BlockMap::decode(&self.verified_read_all(&topic.paths.blocks, ctx)?)?;
        Ok(Arc::clone(topic.blocks.get_or_init(|| Arc::new(map))))
    }

    /// Resolve how `topic`'s data file is read: direct, pool-paged, or
    /// block-decoded — see [`DataSource`].
    pub(crate) fn data_source(&self, topic: &OpenTopic, ctx: &mut IoCtx) -> BoraResult<DataSource> {
        if self.meta.block.is_some() {
            return Ok(DataSource::Blocked { map: self.block_map(topic, ctx)? });
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
        // A raw frame's logical bytes are borrowed from the read and
        // copied once, into the page; an LZSS frame's decode into a
        // buffer first.
        let fill = |ctx: &mut IoCtx| -> BoraResult<Arc<[u8]>> {
            let frame = self.storage.read_at(&paths.data, e.phys_off, e.frame_len as usize, ctx)?;
            let rel = rel_path(&self.root, &paths.data).unwrap_or(&paths.data);
            let (logical, _) = decode_frame_in_place(&frame, rel, ctx)?;
            // Every block decode is counted: `EXPLAIN ANALYZE` and the
            // pushdown test read the delta of this counter to prove how
            // many decodes a time-range restriction skipped.
            bora_obs::counter("block.decode").inc();
            bora_obs::counter("block.decode_bytes").add(logical.len() as u64);
            Ok(Arc::from(logical))
        };
        match &self.pool {
            Some(pool) => Ok(pool.get_or_fill_file(paths.data_id, page as u64, || fill(ctx))?.0),
            None => fill(ctx),
        }
    }

    pub fn root(&self) -> &str {
        &self.root
    }

    pub fn meta(&self) -> &ContainerMeta {
        &self.meta
    }

    /// The commit record `.bora` was held to at open.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
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
        self.load_entries(&self.tags.lookup(topic, ctx)?.paths, None, ctx)
    }

    /// Load one topic's coarse time index.
    pub fn load_time_index(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<TimeIndex> {
        self.time_index_at(&self.tags.lookup(topic, ctx)?.paths, ctx)
    }

    fn time_index_at(&self, paths: &TopicPaths, ctx: &mut IoCtx) -> BoraResult<TimeIndex> {
        let sp = bora_obs::span("bora.tindex.load");
        let v0 = ctx.elapsed_ns();
        let bytes = self.verified_read_all(&paths.tindex, ctx)?;
        let tindex = TimeIndex::decode(&bytes)?;
        sp.end_virt(ctx.elapsed_ns() - v0);
        Ok(tindex)
    }

    /// The index entries of the topic at `paths` a read needs: all of
    /// them (the whole, verified `index` file), or those inside `range` —
    /// window arithmetic on the coarse time index narrows the topic to a
    /// candidate entry range, one contiguous read covers the candidates,
    /// and a fine timestamp filter finishes the job.
    pub(crate) fn load_entries(
        &self,
        paths: &TopicPaths,
        range: Option<(Time, Time)>,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<TopicIndexEntry>> {
        let Some((start, end)) = range else {
            let entries = decode_entries(&self.verified_read_all(&paths.index, ctx)?)?;
            ctx.charge_ns(entries.len() as u64 * cpu::INDEX_ENTRY_NS);
            return Ok(entries);
        };
        let tindex = self.time_index_at(paths, ctx)?;
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

    /// Stream `topics` with live-ingest tails merged in: `tails[i]` holds
    /// topic `i`'s in-memory messages (sealed segments + memtable, in
    /// append order) that are *newer* than the topic's container entries
    /// and lie inside `range` — the caller cuts a tail to the window, the
    /// stream does not filter it. The k-way merge treats a container entry
    /// and a tail message identically — same lanes, same `(time, lane)`
    /// tie-break — so the output is byte-identical whether a message has
    /// been compacted into the container yet or not. A topic the container
    /// doesn't know is accepted when its tail is non-empty (not yet
    /// compacted at all).
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
        let range = Some((start, end));
        let out = self
            .stream_topics_with_tails(topics, Vec::new(), range, StreamOptions::default(), ctx)?
            .collect_records(ctx);
        sp.end_virt(ctx.elapsed_ns() - v0);
        out
    }

    /// Container self-check: per topic, the index must be chronological,
    /// entries must tile the data file, and the time index must cover all
    /// entries. Returns the number of messages verified.
    pub fn verify(&self, ctx: &mut IoCtx) -> BoraResult<u64> {
        let mut total = 0u64;
        for topic in self.topics() {
            let entries = self.load_index(topic, ctx)?;
            if !is_chronological(&entries) {
                return Err(BoraError::Corrupt(format!("{topic}: index not chronological")));
            }
            let record = self.tags.lookup(topic, ctx)?;
            let data_len = self.storage.len(&record.paths.data, ctx)?;
            let covered: u64 = entries.iter().map(|e| e.len as u64).sum();
            if self.meta.block.is_some() {
                // Block-framed topic: the index tiles the *logical*
                // stream the map describes; the physical file must match
                // the map's frame lengths.
                let map = self.block_map(record, ctx)?;
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
            let tindex = self.load_time_index(topic, ctx)?;
            let windowed: u64 = tindex.windows.iter().map(|w| w.count as u64).sum();
            if windowed != entries.len() as u64 {
                return Err(BoraError::Corrupt(format!(
                    "{topic}: time index covers {windowed} of {} entries",
                    entries.len()
                )));
            }
            if let Some(m) = self.meta.topic(topic) {
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
        let bora_msgs = bag.read_topics(&["/imu"], &mut ctx).unwrap();
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
        assert!(matches!(bag.read_topics(&["/gps"], &mut ctx), Err(BoraError::UnknownTopic(_))));
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
    fn a_checksum_mismatch_answers_every_read_of_its_topic_alone() {
        let (fs, _, n_cam) = setup();
        let mut ctx = IoCtx::new();
        // Flip one payload byte; lengths stay intact, so only the CRC
        // can catch it.
        let data = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        let mut bad = data.clone();
        bad[data.len() / 2] ^= 0x40;
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &bad, &mut ctx).unwrap();

        // Every read verifies again: the second finds the damage as the
        // first did, and the sibling topic still serves.
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                bag.read_topics(&["/imu"], &mut ctx),
                Err(BoraError::ChecksumMismatch { .. })
            ));
            let sibling = bag.read_topics(&["/camera/rgb/camera_info"], &mut ctx).unwrap();
            assert_eq!(sibling.len() as u64, n_cam);
        }
    }

    #[test]
    fn a_message_carries_its_topics_position_in_the_metadata() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let position = |t: &str| bag.meta().topics.iter().position(|m| m.topic == t).unwrap();
        for m in bag.read_topics(&["/imu", "/camera/rgb/camera_info"], &mut ctx).unwrap() {
            assert_eq!(m.conn_id as usize, position(&m.topic), "{}", m.topic);
        }
    }

    #[test]
    fn payloads_decode_through_bora() {
        let (fs, ..) = setup();
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let msgs = bag
            .read_topics_time(&["/imu"], Time::from_sec_f64(1.0), Time::from_sec_f64(2.0), &mut ctx)
            .unwrap();
        assert_eq!(msgs.len(), 10);
        for m in &msgs {
            let imu = Imu::from_bytes(&m.data).unwrap();
            assert_eq!(imu.header.stamp, m.time);
        }
    }
}
