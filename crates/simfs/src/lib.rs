//! Storage substrate for the BORA reproduction.
//!
//! The BORA paper (SC20) evaluates its middleware on three platforms: a
//! single-node NVMe server running Ext4/XFS, a 4-node PVFS cluster on
//! 10 GbE, and a Tianhe-1A Lustre storage subsystem on InfiniBand. None of
//! those are available here, so this crate provides the closest synthetic
//! equivalents that exercise the same code paths:
//!
//! * [`Storage`] — the filesystem trait all middleware in the workspace is
//!   written against (bags, BORA containers, PLFS-lite containers, the DB
//!   engines' WALs).
//! * [`MemStorage`] — a real in-memory filesystem: all data paths move real
//!   bytes, so every algorithm above it is genuine.
//! * [`LocalStorage`] — a passthrough to the host filesystem for examples
//!   and integration tests that want real disk I/O.
//! * [`TimedStorage`] — wraps any storage with a [`DeviceModel`] (NVMe SSD,
//!   HDD, RAID-0 presets) and charges a per-session **virtual clock**
//!   ([`IoCtx`]), so experiments at paper scale (up to 4.2 TB logical) are
//!   deterministic and finish in seconds.
//! * [`ClusterStorage`] — a striped multi-server filesystem with a network
//!   model and a metadata-server cost, configurable as the paper's 4-node
//!   PVFS cluster ([`ClusterConfig::pvfs4`]) or the Tianhe-1A Lustre
//!   subsystem ([`ClusterConfig::tianhe_lustre`]).
//! * [`parallel`] — a deterministic fork-join harness for the swarm
//!   experiments (N processes, one bag each; makespan = max of per-process
//!   virtual clocks under a shared-resource contention model).
//!
//! Timing methodology (also documented in `DESIGN.md`): data is moved for
//! real; *time* is charged to the session's virtual clock from first
//! principles (seek/op latency + bytes/bandwidth + network RTT + metadata
//! service time), with contention factors derived from the experiment's
//! declared process count. Real wall-clock benches live in the `bench`
//! crate's Criterion suites.

#![forbid(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod device;
pub mod error;
pub mod faulty;
pub mod local;
pub mod mem;
pub mod parallel;
pub mod path;
pub mod storage;
pub mod timed;

pub use clock::{ActiveWorker, ConcurrencyGauge, IoCtx, IoStats, LogicalClock};
pub use cluster::{ClusterConfig, ClusterStorage};
pub use device::{DeviceModel, NetModel};
pub use error::{FsError, FsResult};
pub use faulty::{FaultKind, FaultRule, FaultyStorage, PowerCut, PowerCutSchedule};
pub use local::LocalStorage;
pub use mem::MemStorage;
pub use parallel::run_parallel;
pub use storage::{DirEntry, EntryKind, Metadata, Storage};
pub use timed::TimedStorage;
