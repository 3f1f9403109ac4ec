//! The ROS bag v2.0 file format, from scratch, plus the **baseline**
//! `rosbag`-style access API — the control group of every experiment in the
//! BORA paper.
//!
//! # Format
//!
//! A bag is `#ROSBAG V2.0\n` followed by a sequence of *records*. Each
//! record is a length-prefixed header (a set of `name=value` fields) plus a
//! length-prefixed data blob. Record kinds ([`record::Op`]):
//!
//! * **Bag header** — offset of the index section, connection/chunk counts;
//!   padded to a fixed size so it can be rewritten in place on close.
//! * **Chunk** — a batch of serialized connection + message-data records.
//! * **Index data** — per (chunk, connection): `(time, offset-in-chunk)`
//!   pairs, written right after each chunk. This is the index data the
//!   paper notes is "scattered all over a bag".
//! * **Connection** — topic name, datatype, md5sum, full message
//!   definition.
//! * **Chunk info** — per chunk: position, time range, per-connection
//!   message counts; all appended at the end of the bag.
//!
//! # Baseline access pattern (paper Fig. 4a)
//!
//! [`BagReader::open`] performs the traditional open: read the bag header,
//! jump to the index section, read connections and chunk infos, then
//! *iterate the chunk-info list*, seeking to every chunk to collect its
//! index-data records — O(#chunks) seeks — and finally build the in-memory
//! message index. [`BagReader::read_messages`] and
//! [`BagReader::read_messages_time`] then run the paper's baseline query
//! algorithms (per-topic entry gathering; O(N log N) timestamp merge-sort
//! for time-range queries).
//!
//! All I/O goes through [`simfs::Storage`], so the same code runs on the
//! in-memory, timed single-node, PVFS, and Lustre backends.

#![forbid(unsafe_code)]

pub mod compress;
pub mod error;
pub mod index;
pub mod reader;
pub mod rebag;
pub mod record;
pub mod reindex;
pub mod stats;
pub mod writer;

pub use error::{BagError, BagResult};
pub use index::{BagIndex, ConnectionInfo, IndexEntry};
pub use reader::{BagReader, MessageRecord};
pub use rebag::{rebag, Filter, RebagReport};
pub use record::{Op, RecordHeader, MAGIC};
pub use reindex::{reindex, ReindexReport};
pub use stats::{bag_stats, BagStats, TopicStats};
pub use writer::{BagWriter, BagWriterOptions, Compression};
