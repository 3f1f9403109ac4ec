//! **bora-serve** — a concurrent bag-query service over BORA containers.
//!
//! The BORA paper optimizes one analysis process reading one container.
//! A fleet's post-mission workflow looks different: many analysts and
//! pipelines query the *same few* containers (yesterday's missions) over
//! and over. Re-running `BoraBag::open` per query repays the tag-table
//! and metadata cost every time; bora-serve amortizes it:
//!
//! * a [`cache::HandleCache`] keeps recently used containers open (LRU,
//!   capacity-bounded, entries pinned while a request uses them);
//! * a [`server::Server`] drains a **bounded** request queue with a pool
//!   of workers — when the queue fills, requests are shed with an
//!   explicit [`proto::Response::Overloaded`] instead of queuing without
//!   bound or blocking the transport;
//! * a hand-rolled length-prefixed binary protocol ([`proto`]) carries
//!   `OPEN`/`TOPICS`/`META`/`READ`/`STAT`/`STATS`/`SHUTDOWN` over either
//!   in-process channels ([`transport::MemTransport`], deterministic, for
//!   tests and benches) or real TCP ([`transport::TcpTransport`] and the
//!   `bora-serve` binary);
//! * per-op latency/count metrics ([`metrics`], backed by the shared
//!   `bora-obs` histograms and including the queue-wait vs service-time
//!   split) are served from the control plane (`STATS` skips the data
//!   queue), so an overloaded server can still be observed; with
//!   `BORA_TRACE=1` the `TRACE` op additionally drains the process's
//!   span buffers as a Chrome trace JSON document.
//!
//! ```
//! use std::sync::Arc;
//! use bora_serve::{Server, ServerConfig, ServeClient, MemTransport};
//! use simfs::{IoCtx, MemStorage};
//!
//! // Build one tiny container...
//! let fs = Arc::new(MemStorage::new());
//! let mut ctx = IoCtx::new();
//! # use rosbag::{BagWriter, BagWriterOptions};
//! # use ros_msgs::{sensor_msgs::Imu, Time};
//! # let mut w = BagWriter::create(&*fs, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
//! # let mut imu = Imu::default();
//! # imu.header.stamp = Time::new(1, 0);
//! # w.write_ros_message("/imu", Time::new(1, 0), &imu, &mut ctx).unwrap();
//! # w.close(&mut ctx).unwrap();
//! bora::duplicate(&*fs, "/m.bag", &*fs, "/c/m", &Default::default(), &mut ctx).unwrap();
//!
//! // ...serve it, query it.
//! let server = Server::start(Arc::clone(&fs), ServerConfig::default());
//! let transport = MemTransport::new(Arc::clone(&server));
//! let mut client = ServeClient::connect(&transport).unwrap();
//! assert_eq!(client.topics("/c/m").unwrap(), vec!["/imu"]);
//! assert_eq!(client.stats().unwrap().cache_misses, 1);
//! client.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod transport;

pub use cache::{CacheStats, HandleCache, PinnedBag};
pub use client::{
    ClientError, ClientResult, IngestBatching, IngestClient, QueryReply, ReadStream, RetryBudget,
    RetryBudgetConfig, RetryClient, RetryPolicy, ServeClient,
};
pub use proto::{
    compress_chunk, decompress_chunk, split_seq, ContainerStat, ErrorCode, MetricsReport,
    OpSummary, PingInfo, ProtoError, Request, Response, SlowOpEntry, StatsSnapshot, WireMessage,
    METRICS_REPORT_VERSION,
};
pub use server::{Server, ServerConfig};
pub use transport::{
    spawn_tcp_listener, Connection, MemTransport, TcpConnection, TcpListenerHandle, TcpTransport,
    Transport,
};
