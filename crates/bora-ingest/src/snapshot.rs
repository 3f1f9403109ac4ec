//! MVCC snapshot reads over a live ingest root.
//!
//! A [`Snapshot`] is an epoch-stamped, immutable view: the generation
//! container that existed when it was taken (pinned via `Arc`, so a
//! concurrent compaction cannot delete its files, and read through the
//! bag the generation was opened into once), the sealed batches, and a
//! frozen copy of the memtable. Reads merge all three through `bora`'s
//! k-way `MessageStream` — the container lane comes from the topic's
//! `data`/`index` files, and the sealed + memtable messages ride the
//! same lane as an in-memory tail — so the result is byte-identical to
//! querying the fully compacted container later. A tail is cut to the
//! read's window where it is held: each chronological sealed and
//! memtable slice is binary-searched, and only the window is copied.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bora::error::BoraResult;
use bora::{BoraBag, MessageStream, StreamOptions, TailMessage};
use ros_msgs::Time;
use rosbag::MessageRecord;
use simfs::{IoCtx, Storage};

use crate::segment::{IngestMessage, SealedBatch};
use crate::store::GenHandle;

/// An immutable, epoch-stamped view of an ingest root.
pub struct Snapshot<S: Storage> {
    /// The pinned generation's container, a clone of the bag its handle
    /// opened once for every snapshot; every stream borrows it. It
    /// carries the store's shared page pool, so a hot topic stays hot
    /// across epochs until compaction invalidates its generation.
    bag: BoraBag<S>,
    /// Keeps the generation's files alive while `bag` reads them.
    gen: Arc<GenHandle<S>>,
    sealed: Vec<Arc<SealedBatch>>,
    memtable: BTreeMap<String, Vec<IngestMessage>>,
    epoch: u64,
}

impl<S: Storage> Snapshot<S> {
    pub(crate) fn new(
        bag: BoraBag<S>,
        gen: Arc<GenHandle<S>>,
        sealed: Vec<Arc<SealedBatch>>,
        memtable: BTreeMap<String, Vec<IngestMessage>>,
        epoch: u64,
    ) -> Self {
        Snapshot { bag, gen, sealed, memtable, epoch }
    }

    /// The store epoch this snapshot observes. Messages appended after
    /// this epoch are invisible to every read.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn generation(&self) -> u64 {
        self.gen.generation
    }

    /// Container root backing this snapshot's compacted lane.
    pub fn container_root(&self) -> &str {
        &self.gen.root
    }

    /// All topics visible to this snapshot — compacted, sealed, or still
    /// in the memtable — sorted.
    pub fn topics(&self) -> Vec<String> {
        let mut set: BTreeSet<String> =
            self.bag.meta().topics.iter().map(|t| t.topic.clone()).collect();
        for b in &self.sealed {
            set.extend(b.topics.keys().cloned());
        }
        set.extend(self.memtable.keys().cloned());
        set.into_iter().collect()
    }

    /// Topic → ROS datatype for every *compacted* topic. A topic that so
    /// far exists only in the tail (sealed batches / memtable) has no
    /// recorded datatype yet and is simply absent — the query layer then
    /// treats its payloads as opaque and field paths read as null until
    /// the next compaction lands the topic in a generation container.
    pub fn datatypes(&self) -> HashMap<String, String> {
        self.bag.meta().datatypes()
    }

    /// Stream `topics` in global time order, optionally bounded to a
    /// half-open `[start, end)` range: the generation container's lanes
    /// with the sealed + memtable messages riding them as tails. A topic
    /// the recording has not produced yet is empty, not an error (it may
    /// start existing one epoch later); dropping its empty lane cannot
    /// change the merge output.
    pub fn stream(
        &self,
        topics: &[&str],
        range: Option<(Time, Time)>,
        ctx: &mut IoCtx,
    ) -> BoraResult<MessageStream<'_, S>> {
        let (topics, tails) = self.known_lanes(topics, range);
        self.bag.stream_topics_with_tails(&topics, tails, range, StreamOptions::default(), ctx)
    }

    /// Read a half-open `[start, end)` time range across topics — the
    /// mid-recording `BoraBag::read_topics_time`. A whole-topic read is
    /// `stream(topics, None, ctx)?.collect_records(ctx)`.
    pub fn read_time_range(
        &self,
        topics: &[&str],
        start: Time,
        end: Time,
        ctx: &mut IoCtx,
    ) -> BoraResult<Vec<MessageRecord>> {
        let sp = bora_obs::span("ingest.snapshot_read");
        let out = self.stream(topics, Some((start, end)), ctx)?.collect_records(ctx);
        sp.end();
        out
    }

    /// Keep only lanes this snapshot knows (compacted topic, or a tail
    /// message inside `range`). Relative lane order is preserved, so the
    /// `(time, lane)` tie-break among surviving lanes — the only ones
    /// that can emit — is unchanged.
    fn known_lanes<'t>(
        &self,
        topics: &[&'t str],
        range: Option<(Time, Time)>,
    ) -> (Vec<&'t str>, Vec<Vec<TailMessage>>) {
        let tails = self.tails_for(topics, range);
        topics
            .iter()
            .zip(tails)
            .filter(|(t, tail)| self.bag.meta().topic(t).is_some() || !tail.is_empty())
            .map(|(t, tail)| (*t, tail))
            .unzip()
    }

    /// One tail per requested topic, inside `range`: sealed batches in
    /// seal order, then the frozen memtable — which is exactly append
    /// order, so each lane stays chronological and the `(time, lane)`
    /// merge tie-break gives the same bytes as the compacted layout.
    fn tails_for(&self, topics: &[&str], range: Option<(Time, Time)>) -> Vec<Vec<TailMessage>> {
        let tail = |t: &str| {
            let held =
                self.sealed.iter().filter_map(|b| b.topics.get(t)).chain(self.memtable.get(t));
            held.flat_map(|msgs| window(msgs, range)).map(to_tail).collect()
        };
        topics.iter().map(|&t| tail(t)).collect()
    }
}

/// The messages of a chronological slice inside `[start, end)`, found by
/// binary search (`partition_point`, so an inverted range is empty).
fn window(msgs: &[IngestMessage], range: Option<(Time, Time)>) -> &[IngestMessage] {
    let Some((start, end)) = range else { return msgs };
    let from = msgs.partition_point(|m| m.time < start);
    &msgs[from..msgs.partition_point(|m| m.time < end).max(from)]
}

fn to_tail(m: &IngestMessage) -> TailMessage {
    TailMessage { time: m.time, data: Arc::clone(&m.data) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IngestConfig, IngestStore};
    use simfs::MemStorage;

    fn live_store<'a>(fs: &'a MemStorage, ctx: &mut IoCtx) -> IngestStore<&'a MemStorage> {
        IngestStore::create(
            fs,
            "/live",
            IngestConfig { wal_shards: 2, group_commit: 4, window_ns: 1_000, block: None },
            ctx,
        )
        .unwrap()
    }

    fn fill(st: &IngestStore<&MemStorage>, ctx: &mut IoCtx) {
        for i in 0..12u64 {
            st.append("/imu", Time::from_nanos(i * 100), &[i as u8, 0xAA], ctx).unwrap();
            if i % 3 == 0 {
                st.append("/camera", Time::from_nanos(i * 100 + 7), &[i as u8; 64], ctx).unwrap();
            }
        }
    }

    /// Whole topics: the snapshot's stream, unbounded, collected.
    fn read(snap: &Snapshot<&MemStorage>, topics: &[&str], ctx: &mut IoCtx) -> Vec<MessageRecord> {
        snap.stream(topics, None, ctx).unwrap().collect_records(ctx).unwrap()
    }

    /// Message identity modulo `conn_id`: conn ids are assigned per
    /// container generation (and are not part of the serve wire format),
    /// so cross-layer comparisons use (topic, time, payload).
    fn payloads(msgs: &[MessageRecord]) -> Vec<(String, u64, Vec<u8>)> {
        msgs.iter().map(|m| (m.topic.clone(), m.time.as_nanos(), m.data.clone())).collect()
    }

    #[test]
    fn snapshot_reads_match_across_memtable_seal_compact() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = live_store(&fs, &mut ctx);
        fill(&st, &mut ctx);

        // All in memtable.
        let a = read(&st.snapshot(&mut ctx).unwrap(), &["/imu", "/camera"], &mut ctx);
        st.seal(&mut ctx).unwrap();
        // All in a sealed batch.
        let b = read(&st.snapshot(&mut ctx).unwrap(), &["/imu", "/camera"], &mut ctx);
        st.compact(&mut ctx).unwrap();
        // All compacted into the container.
        let c = read(&st.snapshot(&mut ctx).unwrap(), &["/imu", "/camera"], &mut ctx);
        assert_eq!(a.len(), 16);
        assert_eq!(payloads(&a), payloads(&b), "memtable vs sealed");
        assert_eq!(payloads(&b), payloads(&c), "sealed vs compacted");
    }

    #[test]
    fn snapshot_never_observes_later_appends() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = live_store(&fs, &mut ctx);
        st.append("/imu", Time::from_nanos(10), b"early", &mut ctx).unwrap();
        let snap = st.snapshot(&mut ctx).unwrap();
        let pinned_epoch = snap.epoch();

        st.append("/imu", Time::from_nanos(20), b"late", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        assert!(st.epoch() > pinned_epoch);

        let msgs = read(&snap, &["/imu"], &mut ctx);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].data, b"early");

        // A fresh snapshot sees everything.
        let now = st.snapshot(&mut ctx).unwrap();
        assert_eq!(read(&now, &["/imu"], &mut ctx).len(), 2);
    }

    #[test]
    fn snapshot_pins_generation_across_compaction() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = live_store(&fs, &mut ctx);
        st.append("/imu", Time::from_nanos(1), b"one", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        let snap = st.snapshot(&mut ctx).unwrap();
        assert_eq!(snap.generation(), 1);

        st.append("/imu", Time::from_nanos(2), b"two", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        // Generation 1's directory survives while the snapshot lives...
        assert!(fs.exists("/live/gen/C00000001", &mut ctx));
        assert_eq!(read(&snap, &["/imu"], &mut ctx).len(), 1);
        drop(snap);
        // ...and is garbage-collected at the next snapshot/compaction.
        let _ = st.snapshot(&mut ctx).unwrap();
        assert!(!fs.exists("/live/gen/C00000001", &mut ctx));
    }

    #[test]
    fn time_range_spans_container_and_tail() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = live_store(&fs, &mut ctx);
        for i in 0..6u64 {
            st.append("/imu", Time::from_nanos(i * 100), &[i as u8], &mut ctx).unwrap();
        }
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        for i in 6..12u64 {
            st.append("/imu", Time::from_nanos(i * 100), &[i as u8], &mut ctx).unwrap();
        }
        let snap = st.snapshot(&mut ctx).unwrap();
        let msgs = snap
            .read_time_range(&["/imu"], Time::from_nanos(400), Time::from_nanos(800), &mut ctx)
            .unwrap();
        let got: Vec<u8> = msgs.iter().map(|m| m.data[0]).collect();
        assert_eq!(got, vec![4, 5, 6, 7], "range straddles the compaction boundary");

        // Tail-only topic with the whole tail filtered out: empty, not
        // an UnknownTopic error.
        st.append("/new", Time::from_nanos(10_000), b"x", &mut ctx).unwrap();
        let snap2 = st.snapshot(&mut ctx).unwrap();
        let none = snap2
            .read_time_range(&["/new"], Time::from_nanos(0), Time::from_nanos(5), &mut ctx)
            .unwrap();
        assert!(none.is_empty());

        // Every 10 ns: [0, 200) compacted, [200, 400) sealed, [400, 500)
        // in the memtable. A tail is cut where it is held, so an inverted
        // or empty range selects nothing and a range across the three
        // layers what each holds of it.
        let fs = MemStorage::new();
        let st = live_store(&fs, &mut ctx);
        let append = |from: u64, to: u64, ctx: &mut IoCtx| {
            for t in (from..to).step_by(10) {
                st.append("/imu", Time::from_nanos(t), &t.to_le_bytes(), ctx).unwrap();
            }
            st.seal(ctx).unwrap();
        };
        append(0, 200, &mut ctx);
        st.compact(&mut ctx).unwrap();
        append(200, 400, &mut ctx);
        for t in (400..500).step_by(10) {
            st.append("/imu", Time::from_nanos(t), &t.to_le_bytes(), &mut ctx).unwrap();
        }
        let snap = st.snapshot(&mut ctx).unwrap();
        let times = |start: u64, end: u64, ctx: &mut IoCtx| -> Vec<u64> {
            let (start, end) = (Time::from_nanos(start), Time::from_nanos(end));
            let msgs = snap.read_time_range(&["/imu"], start, end, ctx).unwrap();
            msgs.iter().map(|m| u64::from_le_bytes(m.data[..].try_into().unwrap())).collect()
        };
        assert!(times(300, 100, &mut ctx).is_empty(), "inverted");
        assert!(times(400, 400, &mut ctx).is_empty(), "empty");
        let across = times(100, 450, &mut ctx);
        assert_eq!(across.len(), 35, "10 compacted, 20 sealed, 5 in the memtable");
        assert_eq!(across, (100..450).step_by(10).collect::<Vec<_>>());
    }

    #[test]
    fn topics_unions_all_layers() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let st = live_store(&fs, &mut ctx);
        st.append("/a", Time::from_nanos(1), b"1", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        st.append("/b", Time::from_nanos(2), b"2", &mut ctx).unwrap();
        st.seal(&mut ctx).unwrap();
        st.append("/c", Time::from_nanos(3), b"3", &mut ctx).unwrap();
        let snap = st.snapshot(&mut ctx).unwrap();
        assert_eq!(snap.topics(), vec!["/a", "/b", "/c"]);
    }
}
