//! Container metadata (`.bora` file).
//!
//! Holds what the source bag's connection records held — topic names,
//! datatypes, md5sums, full message definitions — plus per-topic counts and
//! the bag's time range. Reading it is a single small sequential read;
//! BORA's open never scans message data.

use std::collections::HashMap;

use ros_msgs::wire::{WireRead, WireWrite};
use ros_msgs::Time;

use crate::block::{BlockCodec, BlockParams};
use crate::error::{BoraError, BoraResult};

const META_MAGIC: u32 = 0x42_4F_52_41; // "BORA"
/// v1: raw per-topic `data` files. v2 appends the container's block
/// parameters (codec + block size); a container without block framing
/// still encodes as v1, so pre-block readers and byte-identity tests
/// keep working unchanged.
const META_VERSION: u32 = 1;
const META_VERSION_BLOCKS: u32 = 2;

/// Metadata for one topic stored in the container.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopicMeta {
    pub topic: String,
    pub datatype: String,
    pub md5sum: String,
    pub definition: String,
    pub message_count: u64,
    pub bytes: u64,
}

/// Container-level metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainerMeta {
    pub topics: Vec<TopicMeta>,
    pub start_time: Time,
    pub end_time: Time,
    /// Coarse time-index window width used by every topic's `tindex`.
    pub window_ns: u64,
    /// Size of the source bag file, for reporting.
    pub source_bag_len: u64,
    /// Block framing of every topic's `data` file, when the container
    /// was written with compressed columnar blocks (metadata v2).
    /// `None` = plain v1 layout, read exactly as before.
    pub block: Option<BlockParams>,
}

impl ContainerMeta {
    pub fn message_count(&self) -> u64 {
        self.topics.iter().map(|t| t.message_count).sum()
    }

    pub fn data_bytes(&self) -> u64 {
        self.topics.iter().map(|t| t.bytes).sum()
    }

    pub fn topic(&self, name: &str) -> Option<&TopicMeta> {
        self.topics.iter().find(|t| t.topic == name)
    }

    /// Topic → ROS datatype, the map the query layer decodes message
    /// fields by.
    pub fn datatypes(&self) -> HashMap<String, String> {
        self.topics.iter().map(|t| (t.topic.clone(), t.datatype.clone())).collect()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(META_MAGIC);
        out.put_u32(if self.block.is_some() { META_VERSION_BLOCKS } else { META_VERSION });
        out.put_time(self.start_time);
        out.put_time(self.end_time);
        out.put_u64(self.window_ns);
        out.put_u64(self.source_bag_len);
        out.put_u32(self.topics.len() as u32);
        for t in &self.topics {
            out.put_string(&t.topic);
            out.put_string(&t.datatype);
            out.put_string(&t.md5sum);
            out.put_string(&t.definition);
            out.put_u64(t.message_count);
            out.put_u64(t.bytes);
        }
        if let Some(b) = self.block {
            out.push(b.codec.id());
            out.put_u32(b.block_size);
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        let mut cur = bytes;
        if cur.get_u32()? != META_MAGIC {
            return Err(BoraError::Corrupt("metadata magic mismatch".into()));
        }
        let ver = cur.get_u32()?;
        if ver != META_VERSION && ver != META_VERSION_BLOCKS {
            return Err(BoraError::Corrupt(format!("unsupported metadata version {ver}")));
        }
        let start_time = cur.get_time()?;
        let end_time = cur.get_time()?;
        let window_ns = cur.get_u64()?;
        let source_bag_len = cur.get_u64()?;
        // Four string length prefixes and two counters: 32 bytes at least.
        let n = cur.get_count(32)?;
        let mut topics = Vec::with_capacity(n);
        for _ in 0..n {
            topics.push(TopicMeta {
                topic: cur.get_string()?,
                datatype: cur.get_string()?,
                md5sum: cur.get_string()?,
                definition: cur.get_string()?,
                message_count: cur.get_u64()?,
                bytes: cur.get_u64()?,
            });
        }
        let block = if ver >= META_VERSION_BLOCKS {
            let codec = BlockCodec::from_id(cur.get_u8()?)?;
            let block_size = cur.get_u32()?;
            if block_size == 0 {
                return Err(BoraError::Corrupt("metadata block size is zero".into()));
            }
            Some(BlockParams { codec, block_size })
        } else {
            None
        };
        if cur.remaining() != 0 {
            return Err(BoraError::Corrupt("trailing bytes in metadata".into()));
        }
        Ok(ContainerMeta { topics, start_time, end_time, window_ns, source_bag_len, block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContainerMeta {
        ContainerMeta {
            topics: vec![
                TopicMeta {
                    topic: "/imu".into(),
                    datatype: "sensor_msgs/Imu".into(),
                    md5sum: "ff".into(),
                    definition: "def".into(),
                    message_count: 24367,
                    bytes: 8_400_000,
                },
                TopicMeta {
                    topic: "/camera/depth/image".into(),
                    datatype: "sensor_msgs/Image".into(),
                    md5sum: "aa".into(),
                    definition: "def2".into(),
                    message_count: 1429,
                    bytes: 1_640_000_000,
                },
            ],
            start_time: Time::new(100, 0),
            end_time: Time::new(187, 500),
            window_ns: 5_000_000_000,
            source_bag_len: 2_900_000_000,
            block: None,
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(ContainerMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn aggregates() {
        let m = sample();
        assert_eq!(m.message_count(), 24367 + 1429);
        assert_eq!(m.data_bytes(), 8_400_000 + 1_640_000_000);
        assert!(m.topic("/imu").is_some());
        assert!(m.topic("/nope").is_none());
    }

    #[test]
    fn corrupt_rejected() {
        let m = sample();
        let mut bytes = m.encode();
        bytes[0] ^= 1;
        assert!(ContainerMeta::decode(&bytes).is_err());
        let mut bytes2 = m.encode();
        bytes2.push(0);
        assert!(ContainerMeta::decode(&bytes2).is_err());
    }

    #[test]
    fn empty_meta_round_trips() {
        let m = ContainerMeta::default();
        assert_eq!(ContainerMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn v2_block_params_round_trip_and_v1_stays_bit_identical() {
        let mut m = sample();
        let v1_bytes = m.encode();
        m.block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 64 * 1024 });
        let v2_bytes = m.encode();
        assert_eq!(ContainerMeta::decode(&v2_bytes).unwrap(), m);
        // v2 is v1 plus appended fields and a bumped version word —
        // nothing in the shared prefix moved.
        assert_eq!(v2_bytes.len(), v1_bytes.len() + 5);
        assert_eq!(&v2_bytes[8..v1_bytes.len()], &v1_bytes[8..]);
        // A truncated v2 (claims blocks, lacks the fields) is rejected.
        assert!(ContainerMeta::decode(&v2_bytes[..v1_bytes.len()]).is_err());
    }
}
