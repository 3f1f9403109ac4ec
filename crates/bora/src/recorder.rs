//! Online recording — the paper's future-work mode (§III.C: "BORA could
//! be integrated into a file system running on a robot so that it can
//! manipulate bag data in an online way").
//!
//! [`BoraRecorder`] subscribes like `rosbag record` but writes *directly*
//! into a container, with no bag-to-container duplication step
//! afterwards. It drives the same [`crate::writer`] as the offline
//! organizer — per-topic files through a [`TopicWriter`], the container
//! staged under `<root>.staging` and committed MANIFEST-last with one
//! rename — so a recorded container is byte-identical per topic to an
//! organized one (tested below), verifies on read, is `fsck`-Clean, and a
//! recorder that dies before [`BoraRecorder::close`] leaves only staging
//! debris, never a half-written root.
//!
//! The trade-off the paper anticipates is write-side: recording scatters
//! appends across topic files instead of one log, so each topic's bytes
//! are batched into appends of [`RecorderOptions::write_buffer`].

use std::collections::BTreeMap;

use ros_msgs::{MessageDescriptor, RosMessage, Time};
use simfs::device::cpu;
use simfs::{IoCtx, Storage};

use crate::error::{BoraError, BoraResult};
use crate::meta::{ContainerMeta, TopicMeta};
use crate::time_index::DEFAULT_WINDOW_NS;
use crate::writer::{ContainerWriter, TopicWriter};

/// Options for online recording.
#[derive(Debug, Clone, Copy)]
pub struct RecorderOptions {
    pub window_ns: u64,
    /// Per-topic write-buffer size.
    pub write_buffer: usize,
}

impl Default for RecorderOptions {
    fn default() -> Self {
        RecorderOptions { window_ns: DEFAULT_WINDOW_NS, write_buffer: 256 * 1024 }
    }
}

/// Records messages straight into a BORA container.
pub struct BoraRecorder<S> {
    storage: S,
    container: ContainerWriter,
    /// By topic name: the order `.bora` lists them in.
    topics: BTreeMap<String, TopicWriter>,
    messages: u64,
}

impl<S: Storage> BoraRecorder<S> {
    /// Start recording into a new container at `root`.
    pub fn create(
        storage: S,
        root: &str,
        opts: RecorderOptions,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        if storage.exists(root, ctx) {
            return Err(BoraError::Fs(simfs::FsError::AlreadyExists(root.to_owned())));
        }
        // Live recording stays plain v1 layout: no block framing.
        let container =
            ContainerWriter::begin(&storage, root, None, opts.window_ns, opts.write_buffer, ctx)?;
        Ok(BoraRecorder { storage, container, topics: BTreeMap::new(), messages: 0 })
    }

    /// Subscribe a topic (idempotent).
    pub fn subscribe(
        &mut self,
        topic: &str,
        desc: &MessageDescriptor,
        ctx: &mut IoCtx,
    ) -> BoraResult<()> {
        if self.topics.contains_key(topic) {
            return Ok(());
        }
        let meta = TopicMeta {
            topic: topic.to_owned(),
            datatype: desc.datatype.clone(),
            md5sum: desc.md5sum.clone(),
            definition: desc.definition.clone(),
            ..TopicMeta::default()
        };
        let writer = self.container.topic(&self.storage, meta, ctx)?;
        self.topics.insert(topic.to_owned(), writer);
        Ok(())
    }

    /// Record one serialized message. Messages must arrive chronologically
    /// per topic (as a subscriber receives them).
    pub fn record(
        &mut self,
        topic: &str,
        time: Time,
        payload: &[u8],
        ctx: &mut IoCtx,
    ) -> BoraResult<()> {
        let w =
            self.topics.get_mut(topic).ok_or_else(|| BoraError::UnknownTopic(topic.to_owned()))?;
        if let Some(last) = w.last_time().filter(|last| time < *last) {
            return Err(BoraError::Corrupt(format!(
                "{topic}: out-of-order stamp {time} after {last}"
            )));
        }
        ctx.charge_ns(cpu::INDEX_ENTRY_NS);
        w.push(&self.storage, time, payload, ctx)?;
        self.messages += 1;
        Ok(())
    }

    /// Typed convenience: subscribe-if-needed and record.
    pub fn record_ros_message<M: RosMessage>(
        &mut self,
        topic: &str,
        time: Time,
        msg: &M,
        ctx: &mut IoCtx,
    ) -> BoraResult<()> {
        if !self.topics.contains_key(topic) {
            self.subscribe(topic, &MessageDescriptor::of::<M>(), ctx)?;
        }
        self.record(topic, time, &msg.to_bytes(), ctx)
    }

    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Finish: flush every topic, write its indices, and commit. Only now
    /// does `root` exist, openable by [`crate::BoraBag`].
    pub fn close(self, ctx: &mut IoCtx) -> BoraResult<ContainerMeta> {
        let mut finished = Vec::with_capacity(self.topics.len());
        for w in self.topics.into_values() {
            finished.push(w.finish(&self.storage, ctx)?);
        }
        // No source bag: recorded online.
        self.container.commit(&self.storage, finished, 0, None, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::BoraBag;
    use crate::organizer::{duplicate, OrganizerOptions};
    use ros_msgs::sensor_msgs::Imu;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    fn imu_at(i: u32) -> (Time, Imu) {
        let t = Time::new(100 + i / 10, (i % 10) * 100_000_000);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        (t, imu)
    }

    #[test]
    fn record_then_query() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut rec =
            BoraRecorder::create(&fs, "/c", RecorderOptions::default(), &mut ctx).unwrap();
        for i in 0..500 {
            let (t, imu) = imu_at(i);
            rec.record_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        let meta = rec.close(&mut ctx).unwrap();
        assert_eq!(meta.message_count(), 500);

        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(bag.verify(&mut ctx).unwrap(), 500);
        let msgs =
            bag.read_topic_time("/imu", Time::new(110, 0), Time::new(120, 0), &mut ctx).unwrap();
        assert_eq!(msgs.len(), 100);
    }

    #[test]
    fn online_equals_offline_container() {
        // Record the same stream online and via bag+organizer; the
        // resulting containers must answer queries identically.
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();

        let mut rec =
            BoraRecorder::create(&fs, "/online", RecorderOptions::default(), &mut ctx).unwrap();
        let mut w = BagWriter::create(
            &fs,
            "/b.bag",
            BagWriterOptions { chunk_size: 2048, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        for i in 0..300 {
            let (t, imu) = imu_at(i);
            rec.record_ros_message("/imu", t, &imu, &mut ctx).unwrap();
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        rec.close(&mut ctx).unwrap();
        w.close(&mut ctx).unwrap();
        duplicate(&fs, "/b.bag", &fs, "/offline", &OrganizerOptions::default(), &mut ctx).unwrap();

        let online = BoraBag::open(&fs, "/online", &mut ctx).unwrap();
        let offline = BoraBag::open(&fs, "/offline", &mut ctx).unwrap();
        let a = online.read_topic("/imu", &mut ctx).unwrap();
        let b = offline.read_topic("/imu", &mut ctx).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.data, y.data);
        }
        // Byte-identical topic files too.
        for file in ["data", "index", "tindex"] {
            assert_eq!(
                fs.read_all(&format!("/online/imu/{file}"), &mut ctx).unwrap(),
                fs.read_all(&format!("/offline/imu/{file}"), &mut ctx).unwrap(),
                "imu/{file}"
            );
        }
    }

    fn record_imu<'a>(fs: &'a MemStorage, n: u32, ctx: &mut IoCtx) -> BoraRecorder<&'a MemStorage> {
        let mut rec = BoraRecorder::create(fs, "/c", RecorderOptions::default(), ctx).unwrap();
        for i in 0..n {
            let (t, imu) = imu_at(i);
            rec.record_ros_message("/imu", t, &imu, ctx).unwrap();
        }
        rec
    }

    #[test]
    fn recorded_container_is_committed_and_verified() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        record_imu(&fs, 100, &mut ctx).close(&mut ctx).unwrap();
        assert!(!fs.exists("/c.staging", &mut ctx));
        let report = crate::fsck::check(&fs, "/c", &mut ctx).unwrap();
        assert!(report.is_clean() && report.has_manifest, "{report:?}");

        // A flipped byte is a typed error on read, not served.
        let byte = fs.read_at("/c/imu/data", 33, 1, &mut ctx).unwrap()[0];
        fs.write_at("/c/imu/data", 33, &[byte ^ 0x08], &mut ctx).unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert!(bag.has_manifest());
        match bag.read_topic("/imu", &mut ctx) {
            Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/data"),
            other => panic!("expected ChecksumMismatch, got {:?}", other.map(|m| m.len())),
        }
    }

    #[test]
    fn dropped_recorder_leaves_only_staging_debris() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        drop(record_imu(&fs, 100, &mut ctx));
        assert!(!fs.exists("/c", &mut ctx), "no root before close");
        let report = crate::fsck::check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(report.state, crate::FsckState::Torn);
        let outcome =
            crate::fsck::repair::<_, MemStorage>(&fs, "/c", None, &Default::default(), &mut ctx);
        assert_eq!(outcome.unwrap(), crate::RepairOutcome::RolledBack);
        assert!(!fs.exists("/c.staging", &mut ctx) && !fs.exists("/c", &mut ctx));
    }

    #[test]
    fn out_of_order_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut rec =
            BoraRecorder::create(&fs, "/c", RecorderOptions::default(), &mut ctx).unwrap();
        let (_, imu) = imu_at(0);
        rec.record_ros_message("/imu", Time::new(200, 0), &imu, &mut ctx).unwrap();
        assert!(matches!(
            rec.record_ros_message("/imu", Time::new(100, 0), &imu, &mut ctx),
            Err(BoraError::Corrupt(_))
        ));
    }

    #[test]
    fn unsubscribed_topic_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut rec =
            BoraRecorder::create(&fs, "/c", RecorderOptions::default(), &mut ctx).unwrap();
        assert!(matches!(
            rec.record("/ghost", Time::ZERO, b"x", &mut ctx),
            Err(BoraError::UnknownTopic(_))
        ));
    }

    #[test]
    fn empty_subscription_still_materializes() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut rec =
            BoraRecorder::create(&fs, "/c", RecorderOptions::default(), &mut ctx).unwrap();
        rec.subscribe("/quiet", &MessageDescriptor::of::<Imu>(), &mut ctx).unwrap();
        rec.close(&mut ctx).unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(bag.topics(), vec!["/quiet"]);
        assert!(bag.read_topic("/quiet", &mut ctx).unwrap().is_empty());
    }
}
