//! **bora-ingest** — the live write path of the BORA reproduction.
//!
//! The organizer (`bora::organizer`) converts *finished* bags into
//! containers; this crate lets robots write *while recording* and lets
//! analysts query mid-recording data with the same APIs, same merge
//! semantics, and the same crash-consistency story as the offline path:
//!
//! * **WAL** ([`wal`]) — appends land in per-shard, CRC32C-framed,
//!   fsync-batched logs. A torn tail is truncated on recovery; everything
//!   before it replays.
//! * **Seal** ([`segment`]) — the memtable freezes into per-topic sorted
//!   segment files, committed atomically by a fsynced seal marker.
//! * **Compaction** ([`store`]) — sealed batches merge into the next
//!   container generation, written by the organizer's own `bora::writer`
//!   and its staged-manifest commit protocol, so `bora fsck` accepts
//!   every committed generation and a power cut at any instant loses at
//!   most un-fsynced appends. Appends are per-topic chronological, so a
//!   generation is a byte prefix of the next: a compaction resumes each
//!   topic's verified files and pushes only what was sealed, off the
//!   store lock — it holds up nothing but another compaction.
//! * **MVCC snapshots** ([`snapshot`]) — readers pin an epoch-stamped
//!   view {generation, sealed batches, frozen memtable} and stream it
//!   through `bora`'s k-way merge; results are byte-identical no matter
//!   which layer currently holds a message.
//!
//! ```
//! use bora_ingest::{IngestConfig, IngestStore};
//! use ros_msgs::Time;
//! use simfs::{IoCtx, MemStorage};
//!
//! let fs = MemStorage::new();
//! let mut ctx = IoCtx::new();
//! let store = IngestStore::create(&fs, "/live", IngestConfig::default(), &mut ctx).unwrap();
//! store.append("/imu", Time::from_nanos(100), b"reading", &mut ctx).unwrap();
//! let snap = store.snapshot(&mut ctx).unwrap();
//! // Whole topics: the snapshot's one stream (no time range), collected.
//! let msgs = snap.stream(&["/imu"], None, &mut ctx).unwrap().collect_records(&mut ctx).unwrap();
//! assert_eq!(msgs[0].data, b"reading");
//! store.seal(&mut ctx).unwrap();
//! store.compact(&mut ctx).unwrap();
//! let snap = store.snapshot(&mut ctx).unwrap();
//! let again = snap.stream(&["/imu"], None, &mut ctx).unwrap().collect_records(&mut ctx).unwrap();
//! // Byte-identical across the state change (conn ids are per-container
//! // artifacts; topic, time, and payload are the message's identity).
//! assert_eq!(again[0].data, msgs[0].data);
//! assert_eq!(again[0].time, msgs[0].time);
//! ```

#![forbid(unsafe_code)]

pub mod layout;
pub mod segment;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use segment::{IngestMessage, SealMarker, SealedBatch, Segment};
pub use snapshot::Snapshot;
pub use store::{GenHandle, GenMarker, IngestConfig, IngestStat, IngestStore, Recovery};
pub use wal::{WalRecord, WalShard};
