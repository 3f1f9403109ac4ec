//! **bora-chaos** — a seeded, deterministic network-fault layer for the
//! BORA serving tier, plus the scenario scheduler that breaks a cluster
//! on purpose.
//!
//! The cluster code path (retry budgets, failover, hedges, breakers,
//! partition-aware heal) exists to survive a hostile network. This
//! crate *is* that hostile network, built so its hostility replays:
//!
//! * [`ChaosTransport`] wraps any [`bora_serve::Transport`] so every
//!   frame consults a shared [`ChaosState`] — rule-driven
//!   drop/delay/duplicate/reorder/truncate faults plus asymmetric
//!   [`Partition`]s, all decided by a splitmix64 stream keyed off the
//!   seed and the [`simfs::LogicalClock`] event order, never off wall
//!   time;
//! * [`ThrottledTransport`] is an in-process link of bounded bandwidth,
//!   capped on the serving side so a slow link pushes back on the
//!   server's reply window as a socket would;
//! * [`run_scenario`] drives a live 3-node [`bora_cluster::LocalCluster`]
//!   through composite failure scripts ([`Scenario`]) while invariant
//!   checkers assert that no acked append is lost, reads stay
//!   byte-identical to a fault-free baseline, heal refuses minority
//!   views and then converges, breakers re-close, and per-request
//!   deadlines bound every op's wall time;
//! * [`ScenarioReport::replay_key`] is the determinism contract: two
//!   runs of the same `(scenario, seed)` agree on the outcome digest
//!   and the violation list, which CI replays and asserts.
//!
//! ```
//! use std::sync::Arc;
//! use bora_chaos::{ChaosRule, ChaosState, ChaosTransport, NetFault};
//!
//! let state = Arc::new(ChaosState::new(0xb0ba));
//! state.set_rules(vec![ChaosRule::new(NetFault::Drop).on_recv().prob(0.2)]);
//! // Wrap any transport; node id 0 tags this wire's frames.
//! # use bora_serve::{MemTransport, Server, ServerConfig};
//! # use simfs::MemStorage;
//! # let server = Server::start(Arc::new(MemStorage::new()), ServerConfig::default());
//! let chaotic = ChaosTransport::new(MemTransport::new(server), 0, Arc::clone(&state));
//! # let _ = chaotic;
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod scenario;
pub mod throttle;
pub mod transport;

pub use fault::{
    splitmix64, ChaosRule, ChaosState, Direction, FaultRecord, NetFault, Partition, FAULT_LOG_CAP,
};
pub use scenario::{
    run_scenario, Scenario, ScenarioReport, INGEST_ROOT, LIVE_TOPIC, STATIC_ROOT, STATIC_TOPICS,
};
pub use throttle::ThrottledTransport;
pub use transport::{ChaosConnection, ChaosTransport, DEFAULT_FRAME_TIMEOUT};
