//! **BORA: a Bag Optimizer for Robotic Analysis** — the paper's primary
//! contribution (SC20), reimplemented in Rust.
//!
//! BORA is a file-system middleware that sits between ROS and an underlying
//! file system. When a bag is *duplicated* onto a storage node, BORA
//! re-organizes it into a **container**:
//!
//! ```text
//! /mnt/bags/bag1/                  ← container root (named after the bag)
//!     .bora                        ← container metadata (topics, counts, time range)
//!     camera%depth%image/          ← one sub-directory per topic
//!         data                     ← all messages of the topic, contiguous
//!         index                    ← (time, offset, len) per message
//!         tindex                   ← coarse-grain time index (fixed windows)
//!     imu/
//!         ...
//! ```
//!
//! The three mechanisms of the paper map to these modules:
//!
//! * [`organizer`] — the **data organizer** (Fig. 6): one scanner thread
//!   reads the bag once; a pool of distributor threads feeds each topic's
//!   messages to its [`writer::TopicWriter`], the one place that lays out
//!   `data` / `index` / `tindex` (and `blocks`) and commits a container.
//! * [`tag`] — the **tag manager**: a hash table topic → back-end path,
//!   rebuilt from a directory listing every time a container is opened
//!   (Table I shows why that is cheap).
//! * [`time_index`] — the **coarse-grain time index** (Fig. 8): fixed
//!   windows mapping `window start → range of message entries`, so a
//!   `(topics, start, end)` query touches only candidate windows instead
//!   of merge-sorting every timestamp.
//!
//! [`container::BoraBag`] is BORA-Lib: `open` (Fig. 4b — no chunk
//! iteration), `read_topics` (Fig. 7), and `read_topics_time`.
//! [`borafs::BoraFs`] is the front-end layer standing in for the paper's
//! FUSE mount: logical "bag files" on the front-end path, containers on the
//! back-end path, plus bag import (duplication), bag export (rebagging),
//! and BORA-to-BORA copy.
//!
//! # Quickstart
//!
//! ```
//! use bora::{BoraBag, OrganizerOptions};
//! use rosbag::{BagWriter, BagWriterOptions};
//! use ros_msgs::{sensor_msgs::Imu, Time};
//! use simfs::{IoCtx, MemStorage};
//!
//! let fs = MemStorage::new();
//! let mut ctx = IoCtx::new();
//!
//! // Record a bag the ordinary ROS way...
//! let mut w = BagWriter::create(&fs, "/src.bag", BagWriterOptions::default(), &mut ctx).unwrap();
//! for i in 0..100u32 {
//!     let mut imu = Imu::default();
//!     imu.header.stamp = Time::new(i, 0);
//!     w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
//! }
//! w.close(&mut ctx).unwrap();
//!
//! // ...duplicate it into a BORA container...
//! bora::organizer::duplicate(&fs, "/src.bag", &fs, "/bora/src", &OrganizerOptions::default(), &mut ctx).unwrap();
//!
//! // ...and query by topic + time range without any full-bag scan.
//! let bag = BoraBag::open(&fs, "/bora/src", &mut ctx).unwrap();
//! let msgs = bag.read_topics_time(&["/imu"], Time::new(10, 0), Time::new(20, 0), &mut ctx).unwrap();
//! assert_eq!(msgs.len(), 10);
//! ```

#![deny(unsafe_code)]

pub mod block;
pub mod borafs;
pub mod bufpool;
pub mod checksum;
pub mod container;
pub mod error;
pub mod fsck;
pub mod layout;
pub mod manifest;
pub mod meta;
pub mod organizer;
pub mod recorder;
pub mod stream;
pub mod tag;
pub mod time_index;
pub mod topic_index;
pub mod writer;

pub use block::{BlockCodec, BlockMap, BlockParams, BlockWriter};
pub use borafs::{BoraFs, BoraFsOptions};
pub use bufpool::{file_id, BufferPool, FileId, PoolStats};
pub use checksum::{crc32c, Crc32c};
pub use container::BoraBag;
pub use error::{BoraError, BoraResult};
pub use fsck::{FsckReport, FsckState, RepairOutcome};
pub use manifest::{Manifest, ManifestEntry};
pub use meta::ContainerMeta;
pub use organizer::{duplicate, OrganizeReport, OrganizerOptions};
pub use recorder::{BoraRecorder, RecorderOptions};
pub use stream::{
    Lent, MessageStream, Run, StreamMessage, StreamOptions, StreamStats, TailMessage,
};
pub use tag::TagManager;
pub use time_index::TimeIndex;
pub use topic_index::TopicIndexEntry;
