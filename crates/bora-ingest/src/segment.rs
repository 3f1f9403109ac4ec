//! Sealed segments: sorted, time-indexed, CRC-trailed per-topic files,
//! committed batch-at-a-time by a seal marker.
//!
//! A seal freezes the whole memtable: every topic's pending messages
//! become one `.seg` file, and a `.seal` marker — written and fsynced
//! *after* every segment file — lists the files with their lengths and
//! CRCs plus the last WAL sequence number the batch covers. The marker is
//! the commit record: segments without a valid marker are discarded on
//! recovery (the WAL still has their records), and WAL records at or
//! below a valid marker's `last_wal_seq` are skipped on replay (their
//! segments already have them). Either way, every message exists exactly
//! once.

use std::collections::BTreeMap;
use std::sync::Arc;

use bora::checksum::{decode_envelope, encode_envelope};
use bora::error::{BoraError, BoraResult};
use ros_msgs::wire::{WireRead, WireWrite};
use ros_msgs::Time;

const SEG_MAGIC: u32 = 0x42_53_47_31; // "BSG1"
const SEAL_MAGIC: u32 = 0x42_53_4C_31; // "BSL1"

/// One message held in memory (memtable or sealed batch). The payload is
/// shared so snapshots, segments, and tail lanes never copy it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestMessage {
    pub time: Time,
    /// Global WAL sequence number (stable identity across seal/compact).
    pub seq: u64,
    pub data: Arc<[u8]>,
}

/// One topic's sealed messages, as serialized to a `.seg` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pub topic: String,
    pub seal_seq: u64,
    pub msgs: Vec<IngestMessage>,
}

impl Segment {
    /// Serialize: magic, seal_seq, topic, entry table
    /// `(time, seq, len)*`, concatenated payloads, trailing CRC32C of
    /// everything before it. The sorted entry table doubles as the
    /// segment's time index.
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(SEG_MAGIC, |out| {
            let payload_len: usize = self.msgs.iter().map(|m| m.data.len()).sum();
            out.reserve(28 + self.topic.len() + self.msgs.len() * 20 + payload_len);
            out.put_u64(self.seal_seq);
            out.put_string(&self.topic);
            out.put_u32(self.msgs.len() as u32);
            for m in &self.msgs {
                out.put_u64(m.time.as_nanos());
                out.put_u64(m.seq);
                out.put_u32(m.data.len() as u32);
            }
            for m in &self.msgs {
                out.put_bytes(&m.data);
            }
        })
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        decode_envelope(bytes, SEG_MAGIC, "segment", |cur| {
            let seal_seq = cur.get_u64()?;
            let topic = cur.get_string()?;
            // Time, sequence number and payload length: 20 bytes.
            let n = cur.get_count(20)?;
            let mut heads = Vec::with_capacity(n);
            for _ in 0..n {
                let time = Time::from_nanos(cur.get_u64()?);
                let seq = cur.get_u64()?;
                let len = cur.get_u32()? as usize;
                heads.push((time, seq, len));
            }
            let mut msgs = Vec::with_capacity(n);
            for (time, seq, len) in heads {
                let data = cur
                    .take(len)
                    .map_err(|_| BoraError::Corrupt("segment payload truncated".into()))?;
                msgs.push(IngestMessage { time, seq, data: Arc::from(data) });
            }
            Ok(Segment { topic, seal_seq, msgs })
        })
    }
}

/// One committed seal: the per-topic messages of a whole frozen memtable,
/// kept memory-resident until compaction (snapshots pin these, so a
/// compaction can delete the files without invalidating open readers).
#[derive(Debug, Clone)]
pub struct SealedBatch {
    pub seal_seq: u64,
    /// Highest WAL sequence number covered by this batch.
    pub last_wal_seq: u64,
    pub topics: BTreeMap<String, Vec<IngestMessage>>,
}

impl SealedBatch {
    pub fn message_count(&self) -> u64 {
        self.topics.values().map(|v| v.len() as u64).sum()
    }

    pub fn data_bytes(&self) -> u64 {
        self.topics.values().flatten().map(|m| m.data.len() as u64).sum()
    }
}

/// One file the seal marker commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedFile {
    /// File name inside `seg/` (not a full path).
    pub name: String,
    pub len: u64,
    pub crc32c: u32,
}

/// The seal marker (`seg/<n>.seal`): the batch's commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealMarker {
    pub seal_seq: u64,
    pub last_wal_seq: u64,
    pub files: Vec<SealedFile>,
}

impl SealMarker {
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(SEAL_MAGIC, |out| {
            out.put_u64(self.seal_seq);
            out.put_u64(self.last_wal_seq);
            out.put_u32(self.files.len() as u32);
            for f in &self.files {
                out.put_string(&f.name);
                out.put_u64(f.len);
                out.put_u32(f.crc32c);
            }
        })
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        decode_envelope(bytes, SEAL_MAGIC, "seal marker", |cur| {
            let seal_seq = cur.get_u64()?;
            let last_wal_seq = cur.get_u64()?;
            // Name length prefix, length and CRC: 16 bytes at least.
            let n = cur.get_count(16)?;
            let mut files = Vec::with_capacity(n);
            for _ in 0..n {
                files.push(SealedFile {
                    name: cur.get_string()?,
                    len: cur.get_u64()?,
                    crc32c: cur.get_u32()?,
                });
            }
            Ok(SealMarker { seal_seq, last_wal_seq, files })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(ns: u64, seq: u64, data: &[u8]) -> IngestMessage {
        IngestMessage { time: Time::from_nanos(ns), seq, data: Arc::from(data) }
    }

    #[test]
    fn segment_round_trip() {
        let seg = Segment {
            topic: "/camera/rgb".into(),
            seal_seq: 3,
            msgs: vec![msg(10, 0, b"alpha"), msg(20, 2, b""), msg(20, 5, &[9u8; 512])],
        };
        assert_eq!(Segment::decode(&seg.encode()).unwrap(), seg);
    }

    #[test]
    fn segment_any_bit_flip_detected() {
        let seg = Segment { topic: "/imu".into(), seal_seq: 0, msgs: vec![msg(1, 1, b"xyz")] };
        let bytes = seg.encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(Segment::decode(&bad).is_err(), "flip at byte {pos} undetected");
        }
    }

    #[test]
    fn segment_truncation_detected() {
        let seg = Segment { topic: "/imu".into(), seal_seq: 0, msgs: vec![msg(1, 1, b"xyz")] };
        let bytes = seg.encode();
        for keep in 0..bytes.len() {
            assert!(Segment::decode(&bytes[..keep]).is_err(), "truncation to {keep} undetected");
        }
    }

    #[test]
    fn seal_marker_round_trip() {
        let m = SealMarker {
            seal_seq: 7,
            last_wal_seq: 1234,
            files: vec![
                SealedFile { name: "00000007-imu.seg".into(), len: 99, crc32c: 0xAB },
                SealedFile { name: "00000007-tf.seg".into(), len: 12, crc32c: 0xCD },
            ],
        };
        assert_eq!(SealMarker::decode(&m.encode()).unwrap(), m);
        let mut bad = m.encode();
        bad[6] ^= 1;
        assert!(SealMarker::decode(&bad).is_err());
    }
}
