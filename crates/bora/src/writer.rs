//! The container writer: how a topic's files are laid out, and how a
//! container becomes visible.
//!
//! Every producer of a container drives this module and nothing else
//! writes the layout — the organizer's distributors
//! ([`crate::organizer::duplicate`]), the online recorder
//! ([`crate::recorder::BoraRecorder`]), `fsck`'s per-topic rebuild
//! ([`crate::fsck::repair`]) and the ingest compactor (`bora-ingest`). One
//! producer means one set of bytes under one integrity cover: the
//! differential and golden tests in `tests/one_writer.rs` hold the four
//! callers to byte-identical per-topic files.
//!
//! **A topic** goes through a [`TopicWriter`]: messages in through
//! [`TopicWriter::push`]; out, the `data` file — raw payload bytes, or
//! block frames from a [`BlockWriter`] — appended whenever the pending
//! bytes reach the caller's flush threshold, out of one buffer that is
//! reused across flushes; then `blocks` / `index` / `tindex` at
//! [`TopicWriter::finish`], which returns the topic's counts, time span
//! and the [`ManifestEntry`] of every file, the `data` entry from a CRC
//! kept running over the appended bytes so nothing is read back. A
//! writer can also re-open its own output: [`TopicWriter::resume`]
//! continues a topic of a committed container — old files verified, old
//! `data` appended as it is up to its last full frame, the framer and the
//! index seeded — so that the topic's files are a function of its message
//! sequence, not of how many sittings wrote them (the ingest compactor
//! appends to a generation this way instead of rewriting it).
//!
//! **A container** goes through a [`ContainerWriter`], the crash-atomic
//! commit protocol: everything is built under a staging sibling,
//! `<root>.staging`, with the MANIFEST written last, flushed, and one
//! rename making the container visible. A crash at any earlier point
//! leaves staging debris (which a later attempt or `fsck` rolls back) and
//! no `<root>` at all — `open` can never see a half-built container.
//!
//! The virtual CPU charges stay with those that know what they model:
//! callers charge `cpu::INDEX_ENTRY_NS` where a message is parsed and
//! routed, [`BlockWriter`] charges the codec.

use ros_msgs::Time;
use simfs::{IoCtx, Storage};

use crate::block::{decode_frame, BlockMap, BlockParams, BlockWriter};
use crate::checksum::{crc32c, Crc32c};
use crate::error::{BoraError, BoraResult};
use crate::layout::{manifest_path, meta_path, rel_path, staging_path, TopicPaths};
use crate::manifest::{Manifest, ManifestEntry};
use crate::meta::{ContainerMeta, TopicMeta};
use crate::time_index::TimeIndex;
use crate::topic_index::{decode_entries, encode_entries, TopicIndexEntry};

/// A topic whose files are complete: what the container's metadata and
/// MANIFEST record about it.
#[derive(Debug)]
pub struct FinishedTopic {
    /// The identity the writer was created with, counts filled in.
    pub meta: TopicMeta,
    /// Earliest and latest message time; `None` for an empty topic.
    pub span: Option<(Time, Time)>,
    /// Commit records of the topic's files, paths relative to the root.
    pub files: Vec<ManifestEntry>,
}

/// Writes one topic's file set under a container (or staging) root.
pub struct TopicWriter {
    root: String,
    paths: TopicPaths,
    meta: TopicMeta,
    window_ns: u64,
    flush_at: usize,
    /// `Some` frames the `data` file; `None` writes payloads as they are.
    framer: Option<BlockWriter>,
    entries: Vec<TopicIndexEntry>,
    logical_len: u64,
    span: Option<(Time, Time)>,
    /// `data` bytes produced but not yet appended. Cleared, never
    /// dropped, so it is allocated once per topic.
    pending: Vec<u8>,
    /// Length and running CRC of every `data` byte produced so far.
    phys_len: u64,
    crc: Crc32c,
}

impl TopicWriter {
    /// Create `meta.topic`'s directory under `root` and a writer for its
    /// files. `block` and `window_ns` are the container's; `data` is
    /// appended once `flush_at` bytes are pending (`usize::MAX`: one
    /// append for the whole file). The counts in `meta` are ignored.
    pub fn create<S: Storage>(
        storage: &S,
        root: &str,
        meta: TopicMeta,
        block: Option<BlockParams>,
        window_ns: u64,
        flush_at: usize,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let paths = TopicPaths::new(root, &meta.topic);
        storage.mkdir_all(&paths.dir, ctx)?;
        Ok(TopicWriter {
            root: root.to_owned(),
            paths,
            meta,
            window_ns,
            flush_at,
            framer: block.map(BlockWriter::new),
            entries: Vec::new(),
            logical_len: 0,
            span: None,
            pending: Vec::new(),
            phys_len: 0,
            crc: Crc32c::new(),
        })
    }

    /// [`TopicWriter::create`], continuing the topic where a committed
    /// container left it: `from` is that container's root and its loaded
    /// MANIFEST, and it must have been written with the same `block`.
    /// Pushing the rest of the topic's messages and finishing yields,
    /// byte for byte, the files one writer fed the whole sequence
    /// produces — the old `data` is a prefix of the new one (raw payloads
    /// concatenate; frames are cut at fixed multiples of the block size,
    /// see [`BlockWriter`]), and `index` / `tindex` / `blocks` are
    /// rebuilt at `finish` from entries seeded here.
    ///
    /// Nothing is adopted unverified. The old `index`, `data` and
    /// `blocks` are each read whole and checked against their commit
    /// record — a file the MANIFEST does not list is
    /// [`BoraError::Corrupt`] — which is the only check that covers a full
    /// frame's bytes, header included, because full frames are appended
    /// to the new `data` as they are, without decoding. The final partial
    /// frame is decoded (so its own CRC is checked too) back into the
    /// framer's open block. The files must also agree with each other
    /// about which bytes those are: `blocks` has this container's codec
    /// and block size, its frame lengths add up to `data`, its logical
    /// length is where `index` ends, and the partial frame is exactly the
    /// rest of the file. Any disagreement is `Corrupt` before a byte is
    /// sliced or written.
    #[allow(clippy::too_many_arguments)] // `create`'s seven, and what to resume
    pub fn resume<S: Storage>(
        storage: &S,
        root: &str,
        meta: TopicMeta,
        block: Option<BlockParams>,
        window_ns: u64,
        flush_at: usize,
        from: (&str, &Manifest),
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let old = TopicPaths::new(from.0, &meta.topic);
        let mut w = Self::create(storage, root, meta, block, window_ns, flush_at, ctx)?;

        w.entries = decode_entries(&read_committed(storage, from, &old.index, ctx)?)?;
        w.logical_len =
            w.entries.last().map_or(Some(0), |e| e.offset.checked_add(e.len as u64)).ok_or_else(
                || BoraError::Corrupt(format!("{}: the last entry overflows", old.index)),
            )?;
        for e in &w.entries {
            widen(&mut w.span, e.time, e.time);
        }

        let data = read_committed(storage, from, &old.data, ctx)?;
        let adopted = match block {
            None => {
                ensure(data.len() as u64 == w.logical_len, &old.data, || {
                    format!("{} bytes, the index ends at {}", data.len(), w.logical_len)
                })?;
                data.len()
            }
            Some(params) => {
                let mut map = BlockMap::decode(&read_committed(storage, from, &old.blocks, ctx)?)?;
                let framed = BlockParams { codec: map.codec, block_size: map.block_size };
                ensure(framed == params, &old.blocks, || {
                    format!("framed {framed:?}, the container {params:?}")
                })?;
                ensure(map.logical_len == w.logical_len, &old.blocks, || {
                    let (map, index) = (map.logical_len, w.logical_len);
                    format!("{map} logical bytes, the index ends at {index}")
                })?;
                ensure(map.phys_len() == data.len() as u64, &old.blocks, || {
                    format!("frames add up to {} bytes, data has {}", map.phys_len(), data.len())
                })?;
                // `BlockMap::decode` holds the entry count to the logical
                // length, so there is a partial last block exactly when the
                // length is not a multiple of the block size; and every
                // `phys_off` lies inside `data`, which the sum just covered.
                let tail_len = (map.logical_len % params.block_size as u64) as usize;
                let full = map.entries.len() - usize::from(tail_len > 0);
                let (adopted, tail, tail_first_time) = match map.entries.get(full) {
                    None => (data.len(), Vec::new(), Time::ZERO),
                    Some(e) => {
                        let at = e.phys_off as usize;
                        let (tail, used) = decode_frame(&data[at..], &rel(from.0, &old.data), ctx)?;
                        let rest = data.len() - at;
                        ensure(used == rest && tail.len() == tail_len, &old.data, || {
                            let got = tail.len();
                            format!("last frame: {got} bytes in {used}, not {tail_len} in {rest}")
                        })?;
                        (at, tail, e.first_time)
                    }
                };
                map.entries.truncate(full);
                w.framer = Some(BlockWriter::resume(params, map.entries, tail, tail_first_time));
                adopted
            }
        };
        // Straight from the read buffer, which is gone before the first
        // push: the old bytes are never held beside the new ones.
        if adopted > 0 {
            storage.append(&w.paths.data, &data[..adopted], ctx)?;
            w.crc.update(&data[..adopted]);
            w.phys_len = adopted as u64;
        }
        Ok(w)
    }

    /// Bytes of `data` produced so far. Straight after
    /// [`TopicWriter::resume`]: the bytes adopted as they were.
    pub fn data_len(&self) -> u64 {
        self.phys_len
    }

    /// Time of the message pushed last.
    pub fn last_time(&self) -> Option<Time> {
        self.entries.last().map(|e| e.time)
    }

    /// Append one message. Index offsets are logical — positions in the
    /// topic's concatenated payloads — whether or not `data` is framed.
    pub fn push<S: Storage>(
        &mut self,
        storage: &S,
        time: Time,
        payload: &[u8],
        ctx: &mut IoCtx,
    ) -> BoraResult<()> {
        self.entries.push(TopicIndexEntry {
            time,
            offset: self.logical_len,
            len: payload.len() as u32,
        });
        self.logical_len += payload.len() as u64;
        widen(&mut self.span, time, time);
        let mark = self.pending.len();
        match &mut self.framer {
            Some(f) => f.push(time, payload, &mut self.pending, ctx),
            None => self.pending.extend_from_slice(payload),
        }
        self.account(mark);
        if self.pending.len() >= self.flush_at {
            storage.append(&self.paths.data, &self.pending, ctx)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Fold `pending[mark..]` into the `data` file's length and CRC.
    fn account(&mut self, mark: usize) {
        self.crc.update(&self.pending[mark..]);
        self.phys_len += (self.pending.len() - mark) as u64;
    }

    /// Write what is left of `data`, then `blocks` (when framed), `index`
    /// and `tindex`.
    pub fn finish<S: Storage>(mut self, storage: &S, ctx: &mut IoCtx) -> BoraResult<FinishedTopic> {
        let blocks = self.framer.take().map(|f| {
            let mark = self.pending.len();
            let map = f.finish(&mut self.pending, ctx);
            self.account(mark);
            map.encode()
        });
        // The tail — or, when no byte was ever produced, an empty append
        // so that the file exists.
        if !self.pending.is_empty() || self.phys_len == 0 {
            storage.append(&self.paths.data, &self.pending, ctx)?;
        }
        let mut files = vec![ManifestEntry {
            path: rel(&self.root, &self.paths.data),
            len: self.phys_len,
            crc32c: self.crc.finish(),
        }];
        let index = encode_entries(&self.entries);
        let tindex = TimeIndex::build(&self.entries, self.window_ns).encode();
        let rest = [
            (&self.paths.blocks, blocks.as_deref()),
            (&self.paths.index, Some(&index[..])),
            (&self.paths.tindex, Some(&tindex[..])),
        ];
        for (path, bytes) in rest {
            let Some(bytes) = bytes else { continue };
            files.push(put_file(storage, &self.root, path, bytes, ctx)?);
        }
        self.meta.message_count = self.entries.len() as u64;
        self.meta.bytes = self.logical_len;
        Ok(FinishedTopic { meta: self.meta, span: self.span, files })
    }
}

/// Builds a container under `<root>.staging` and commits it with one
/// rename.
pub struct ContainerWriter {
    root: String,
    stage: String,
    block: Option<BlockParams>,
    window_ns: u64,
    flush_at: usize,
}

impl ContainerWriter {
    /// Sweep the debris of an earlier attempt and create the staging
    /// directory. `block`, `window_ns` and `flush_at` apply to every
    /// topic (see [`TopicWriter::create`]) and the first two are what the
    /// committed `.bora` records.
    pub fn begin<S: Storage>(
        storage: &S,
        root: &str,
        block: Option<BlockParams>,
        window_ns: u64,
        flush_at: usize,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let stage = staging_path(root);
        if storage.exists(&stage, ctx) {
            storage.remove_dir_all(&stage, ctx)?;
        }
        storage.mkdir_all(&stage, ctx)?;
        Ok(ContainerWriter { root: root.to_owned(), stage, block, window_ns, flush_at })
    }

    /// A writer for one topic of the staged container.
    pub fn topic<S: Storage>(
        &self,
        storage: &S,
        meta: TopicMeta,
        ctx: &mut IoCtx,
    ) -> BoraResult<TopicWriter> {
        TopicWriter::create(
            storage,
            &self.stage,
            meta,
            self.block,
            self.window_ns,
            self.flush_at,
            ctx,
        )
    }

    /// [`ContainerWriter::topic`], continuing the topic from the committed
    /// container `from` (see [`TopicWriter::resume`]).
    pub fn resume_topic<S: Storage>(
        &self,
        storage: &S,
        meta: TopicMeta,
        from: (&str, &Manifest),
        ctx: &mut IoCtx,
    ) -> BoraResult<TopicWriter> {
        TopicWriter::resume(
            storage,
            &self.stage,
            meta,
            self.block,
            self.window_ns,
            self.flush_at,
            from,
            ctx,
        )
    }

    /// Commit: `.bora` (topics in the order given), the caller's `extra`
    /// root file if any (the ingest tier's `.ingest` marker), the
    /// MANIFEST last, a flush, and the rename that makes `<root>` exist.
    pub fn commit<S: Storage>(
        self,
        storage: &S,
        topics: Vec<FinishedTopic>,
        source_bag_len: u64,
        extra: Option<(&str, &[u8])>,
        ctx: &mut IoCtx,
    ) -> BoraResult<ContainerMeta> {
        let mut span = None;
        let mut files = Vec::with_capacity(topics.len() * 4 + 2);
        let mut metas = Vec::with_capacity(topics.len());
        for t in topics {
            if let Some((first, last)) = t.span {
                widen(&mut span, first, last);
            }
            files.extend(t.files);
            metas.push(t.meta);
        }
        let (start_time, end_time) = span.unwrap_or((Time::ZERO, Time::ZERO));
        let meta = ContainerMeta {
            topics: metas,
            start_time,
            end_time,
            window_ns: self.window_ns,
            source_bag_len,
            block: self.block,
        };
        files.push(put_file(storage, &self.stage, &meta_path(&self.stage), &meta.encode(), ctx)?);
        if let Some((name, bytes)) = extra {
            files.push(put_file(
                storage,
                &self.stage,
                &format!("{}/{name}", self.stage),
                bytes,
                ctx,
            )?);
        }
        Manifest::new(files)?.store(storage, &self.stage, ctx)?;
        storage.flush(&manifest_path(&self.stage), ctx)?;
        storage.rename(&self.stage, &self.root, ctx)?;
        Ok(meta)
    }
}

/// `Corrupt`, naming `path`, unless `ok`.
fn ensure(ok: bool, path: &str, what: impl FnOnce() -> String) -> BoraResult<()> {
    if ok {
        Ok(())
    } else {
        Err(BoraError::Corrupt(format!("{path}: {}", what())))
    }
}

/// Grow `span` to cover `[first, last]`.
fn widen(span: &mut Option<(Time, Time)>, first: Time, last: Time) {
    *span = Some(span.map_or((first, last), |(a, b)| (a.min(first), b.max(last))));
}

/// `path` as the MANIFEST names it: relative to the container `root`.
fn rel(root: &str, path: &str) -> String {
    rel_path(root, path).expect("a container's files are under its root").to_owned()
}

/// The whole of `path`, a file of the committed container `from`, held to
/// its commit record there.
fn read_committed<S: Storage>(
    storage: &S,
    from: (&str, &Manifest),
    path: &str,
    ctx: &mut IoCtx,
) -> BoraResult<Vec<u8>> {
    from.1.read_committed(storage, from.0, &rel(from.0, path), ctx)
}

/// Write `bytes` as the whole of `path`; returns its commit record.
fn put_file<S: Storage>(
    storage: &S,
    root: &str,
    path: &str,
    bytes: &[u8],
    ctx: &mut IoCtx,
) -> BoraResult<ManifestEntry> {
    storage.append(path, bytes, ctx)?;
    Ok(ManifestEntry { path: rel(root, path), len: bytes.len() as u64, crc32c: crc32c(bytes) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCodec;
    use simfs::{FaultyStorage, MemStorage};

    /// Mutating storage ops of one topic written with `flush_at`.
    fn ops(block: Option<BlockParams>, flush_at: usize, payloads: &[&[u8]]) -> u64 {
        let fs = FaultyStorage::new(MemStorage::new());
        let ctx = &mut IoCtx::new();
        let meta = TopicMeta { topic: "/t".into(), ..TopicMeta::default() };
        let mut w = TopicWriter::create(&fs, "/c", meta, block, 1_000, flush_at, ctx).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            w.push(&fs, Time::from_nanos(i as u64), p, ctx).unwrap();
        }
        let done = w.finish(&fs, ctx).unwrap();
        // Every commit record matches the file it names.
        for f in &done.files {
            let bytes = fs.read_all(&format!("/c/{}", f.path), ctx).unwrap();
            assert_eq!((f.len, f.crc32c), (bytes.len() as u64, crc32c(&bytes)), "{}", f.path);
        }
        assert_eq!(done.meta.message_count, payloads.len() as u64);
        fs.mutations()
    }

    #[test]
    fn data_appends_follow_the_threshold_and_the_tail_is_written_only_if_there_is_one() {
        let raw = Some(BlockParams { codec: BlockCodec::None, block_size: 4 });
        // mkdir + index + tindex, plus the `data` appends (and `blocks`).
        assert_eq!(ops(None, 8, &[]), 3 + 1, "an empty topic still gets its file");
        assert_eq!(ops(None, 8, &[b"abcd", b"ef"]), 3 + 1, "below the threshold: the tail");
        assert_eq!(ops(None, 8, &[b"abcd", b"efgh"]), 3 + 1, "flushed whole: no tail");
        assert_eq!(ops(None, 8, &[b"abcd", b"efgh", b"i"]), 3 + 2);
        assert_eq!(ops(None, usize::MAX, &[b"abcd", b"efgh", b"i"]), 3 + 1);
        assert_eq!(ops(raw, 1, &[]), 4 + 1);
        assert_eq!(ops(raw, 1, &[b"abcd", b"efgh"]), 4 + 2, "a flush per frame, no tail");
        assert_eq!(ops(raw, 1, &[b"abcd", b"ef"]), 4 + 2, "one frame flushed, one in the tail");
        assert_eq!(ops(raw, usize::MAX, &[b"abcd", b"ef"]), 4 + 1);
    }

    const RAW_4: BlockParams = BlockParams { codec: BlockCodec::None, block_size: 4 };

    /// A committed container `/old` holding `/t` = "abcd" "ef" framed
    /// `RAW_4` (one full frame, one partial), or unframed.
    fn committed(block: Option<BlockParams>) -> MemStorage {
        let fs = MemStorage::new();
        let ctx = &mut IoCtx::new();
        let c = ContainerWriter::begin(&fs, "/old", block, 1_000, usize::MAX, ctx).unwrap();
        let meta = TopicMeta { topic: "/t".into(), ..TopicMeta::default() };
        let mut w = c.topic(&fs, meta, ctx).unwrap();
        w.push(&fs, Time::from_nanos(1), b"abcd", ctx).unwrap();
        w.push(&fs, Time::from_nanos(2), b"ef", ctx).unwrap();
        let done = w.finish(&fs, ctx).unwrap();
        c.commit(&fs, vec![done], 0, None, ctx).unwrap();
        fs
    }

    /// Replace `/old/<rel>` — `None` drops its commit record instead —
    /// and commit the change, so that only the cross-checks between
    /// the files are left to object.
    fn forge(fs: &MemStorage, rel: &str, bytes: Option<&[u8]>) {
        let ctx = &mut IoCtx::new();
        let mut entries = Manifest::load(fs, "/old", ctx).unwrap().entries().to_vec();
        let at = entries.iter().position(|e| e.path == rel).unwrap();
        match bytes {
            Some(bytes) => {
                fs.remove_file(&format!("/old/{rel}"), ctx).unwrap();
                entries[at] = put_file(fs, "/old", &format!("/old/{rel}"), bytes, ctx).unwrap();
            }
            None => drop(entries.remove(at)),
        }
        fs.remove_file(&manifest_path("/old"), ctx).unwrap();
        Manifest::new(entries).unwrap().store(fs, "/old", ctx).unwrap();
    }

    fn resume(fs: &MemStorage, block: Option<BlockParams>) -> BoraResult<TopicWriter> {
        let ctx = &mut IoCtx::new();
        let manifest = Manifest::load(fs, "/old", ctx).unwrap();
        let meta = TopicMeta { topic: "/t".into(), ..TopicMeta::default() };
        TopicWriter::resume(fs, "/new", meta, block, 1_000, usize::MAX, ("/old", &manifest), ctx)
    }

    fn assert_corrupt(fs: &MemStorage, block: Option<BlockParams>, names: &str) {
        match resume(fs, block) {
            Err(BoraError::Corrupt(msg)) => assert!(msg.contains(names), "{msg}"),
            other => panic!("expected Corrupt naming {names}, got {:?}", other.map(|_| "a writer")),
        }
        let data = TopicPaths::new("/new", "/t").data;
        assert!(!fs.exists(&data, &mut IoCtx::new()), "nothing may be adopted");
    }

    #[test]
    fn resume_adopts_full_frames_and_reopens_the_partial_one() {
        use crate::block::FRAME_HEADER_LEN;
        let fs = committed(Some(RAW_4));
        let w = resume(&fs, Some(RAW_4)).unwrap();
        assert_eq!(w.data_len(), (FRAME_HEADER_LEN + 4) as u64, "\"abcd\" as it was framed");
        assert_eq!((w.entries.len(), w.logical_len), (2, 6));
        assert_eq!(w.span, Some((Time::from_nanos(1), Time::from_nanos(2))));
        assert_eq!(w.last_time(), Some(Time::from_nanos(2)));
        // Unframed, the whole file is a prefix of the next one.
        assert_eq!(resume(&committed(None), None).unwrap().data_len(), 6);
    }

    #[test]
    fn resume_never_slices_on_trust() {
        let ctx = &mut IoCtx::new();
        let read =
            |fs: &MemStorage, rel: &str| fs.read_all(&format!("/old/{rel}"), &mut IoCtx::new());

        // Another framing than the container's, in either direction.
        let other = BlockParams { codec: BlockCodec::Lzss, block_size: 4 };
        assert_corrupt(&committed(Some(RAW_4)), Some(other), "t/blocks");
        assert_corrupt(
            &committed(Some(RAW_4)),
            Some(BlockParams { block_size: 8, ..RAW_4 }),
            "t/blocks",
        );
        assert_corrupt(&committed(None), Some(RAW_4), "t/blocks: not listed");
        assert_corrupt(&committed(Some(RAW_4)), None, "t/data");

        // A file without a commit record is not "nothing to check".
        let fs = committed(Some(RAW_4));
        forge(&fs, "t/data", None);
        assert_corrupt(&fs, Some(RAW_4), "t/data: not listed");

        // `blocks` and `index` disagree about where the topic ends.
        let fs = committed(Some(RAW_4));
        let index = read(&fs, "t/index").unwrap();
        forge(&fs, "t/index", Some(&index[..index.len() / 2]));
        assert_corrupt(&fs, Some(RAW_4), "t/blocks");
        let fs = committed(None);
        forge(&fs, "t/index", Some(&index[..index.len() / 2]));
        assert_corrupt(&fs, None, "t/data");

        // Frame lengths that do not add up to `data`.
        let fs = committed(Some(RAW_4));
        let data = read(&fs, "t/data").unwrap();
        forge(&fs, "t/data", Some(&data[..data.len() - 1]));
        assert_corrupt(&fs, Some(RAW_4), "t/blocks");

        // They add up, but the last frame ends before the file does.
        let fs = committed(Some(RAW_4));
        let mut map = BlockMap::decode(&read(&fs, "t/blocks").unwrap()).unwrap();
        map.entries[1].frame_len += 3;
        forge(&fs, "t/blocks", Some(&map.encode()));
        forge(&fs, "t/data", Some(&[&data[..], b"xyz"].concat()));
        assert_corrupt(&fs, Some(RAW_4), "t/data");

        // An index whose last entry runs off the end of `u64`.
        let fs = committed(Some(RAW_4));
        let huge = TopicIndexEntry { time: Time::from_nanos(1), offset: u64::MAX, len: 2 };
        forge(&fs, "t/index", Some(&encode_entries(&[huge])));
        assert_corrupt(&fs, Some(RAW_4), "t/index");
        assert!(!fs.exists("/new/t/blocks", ctx));
    }
}
