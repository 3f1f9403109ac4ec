//! **bora-cluster** — a sharded, replicated, self-healing serving tier
//! over bora-serve nodes.
//!
//! One bora-serve node amortizes container opens for one machine's worth
//! of queries; a fleet's analysis traffic outgrows that machine. This
//! crate scales the serving layer *out* while keeping every lower layer
//! (wire protocol, handle cache, storage cost models) unchanged:
//!
//! * [`ring`] — consistent-hash placement with virtual nodes and a
//!   replication factor: the membership list *is* the directory, and a
//!   join/leave moves only the minimal set of containers
//!   ([`ring::Ring::reshard`] makes the moves explicit and
//!   [`ring::MigrationPlan::batches`] throttles them);
//! * [`client`] — the router and the one resilient client: speaks the
//!   bora-serve protocol to owner nodes through one retry loop (a walk
//!   over the replicas, up to four passes with a jittered backoff, a
//!   shared retry budget and a total deadline) that fails over on
//!   transport faults and `Io`/`ChecksumMismatch` errors; a read is a
//!   stream, hedged at its first frame against a replica (adaptive EWMA
//!   threshold, the loser abandoned, win rate exported via bora-obs),
//!   resumed on a replica byte-identically when it breaks, and k-way
//!   merged cluster-wide with the node's own `bora::stream::Merge`;
//! * [`health`] — per-node circuit breakers, count-based for
//!   determinism;
//! * [`cluster`] — the in-process control plane: N servers over
//!   independent fault-injectable storage, provisioning, and
//!   re-replication of under-replicated containers after node death;
//! * [`telemetry`] — the observability plane: scrapes every node's
//!   `METRICS` registry snapshot, folds them into one cluster view
//!   (counters summed, histograms merged bucket-wise so cluster
//!   percentiles are exact, gauges kept as min/max spreads), tracks
//!   per-node counter deltas between scrapes, and renders the
//!   `bora-tool top` table and JSON.
//!
//! ```
//! use bora_cluster::{ClusterClientConfig, ClusterTierConfig, LocalCluster};
//! use simfs::{IoCtx, MemStorage};
//!
//! // Build one tiny container on a staging filesystem...
//! let staging = MemStorage::new();
//! let mut ctx = IoCtx::new();
//! # use rosbag::{BagWriter, BagWriterOptions};
//! # use ros_msgs::{sensor_msgs::Imu, Time};
//! # let mut w = BagWriter::create(&staging, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
//! # let mut imu = Imu::default();
//! # imu.header.stamp = Time::new(1, 0);
//! # w.write_ros_message("/imu", Time::new(1, 0), &imu, &mut ctx).unwrap();
//! # w.close(&mut ctx).unwrap();
//! bora::duplicate(&staging, "/m.bag", &staging, "/c/m", &Default::default(), &mut ctx).unwrap();
//!
//! // ...serve it from a 4-node cluster, replicated 2×.
//! let cluster = LocalCluster::start(ClusterTierConfig::default());
//! cluster.provision(&staging, &["/c/m"]).unwrap();
//! let client = cluster.client(ClusterClientConfig::default());
//! assert_eq!(client.topics("/c/m").unwrap(), vec!["/imu"]);
//! assert_eq!(client.replicas("/c/m").len(), 2);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod health;
pub mod ring;
pub mod telemetry;

pub use client::{
    ClusterClient, ClusterClientConfig, ClusterStream, HedgeConfig, MergedStream, NodeEndpoint,
    RetryBudgetConfig, RoutePolicy,
};
pub use cluster::{ClusterTierConfig, HealReport, LocalCluster, LocalNode};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use ring::{hash_key, MigrationPlan, Move, NodeId, Ring, RingConfig};
pub use telemetry::{
    aggregate_reports, render_top, scrape_to_json, AggregatedMetrics, ClusterScrape,
    ClusterTelemetry, PoolScrape,
};
