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
//! kept running over the appended bytes so nothing is read back.
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

use crate::block::{BlockParams, BlockWriter};
use crate::checksum::{crc32c, Crc32c};
use crate::error::BoraResult;
use crate::layout::{manifest_path, meta_path, rel_path, staging_path, TopicPaths};
use crate::manifest::{Manifest, ManifestEntry};
use crate::meta::{ContainerMeta, TopicMeta};
use crate::time_index::TimeIndex;
use crate::topic_index::{encode_entries, TopicIndexEntry};

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

/// Grow `span` to cover `[first, last]`.
fn widen(span: &mut Option<(Time, Time)>, first: Time, last: Time) {
    *span = Some(span.map_or((first, last), |(a, b)| (a.min(first), b.max(last))));
}

/// `path` as the MANIFEST names it: relative to the container `root`.
fn rel(root: &str, path: &str) -> String {
    rel_path(root, path).expect("a container's files are under its root").to_owned()
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
}
