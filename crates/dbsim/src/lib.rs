//! `dbsim`: miniature database engines for the paper's Fig. 2 experiment.
//!
//! The paper motivates BORA by showing that replacing the bag mechanism
//! with a DBMS makes *ingest* catastrophically slow: inserting 49,233 TF
//! messages took Ext4 130 ms, while Aerospike, PostgreSQL, and InfluxDB
//! were 51.8x, 93.6x, and 3,694.6x slower. Those systems are unavailable
//! here, so this crate implements the **architectural overheads** that
//! produce the gap, from scratch (see DESIGN.md's substitution table):
//!
//! * [`KvStore`] (Aerospike-like) — client RPC per operation, record
//!   envelope serialization, an open-addressing hash index
//!   ([`hash_index`]), an append-only data log, periodic durability.
//! * [`SqlStore`] (PostgreSQL-like) — the client renders an `INSERT`
//!   statement as SQL *text*; the engine tokenizes and parses it
//!   ([`sql`]), plans it onto a table, inserts into a from-scratch B-tree
//!   primary index ([`btree`]), appends a WAL record, and fsyncs at commit
//!   (autocommit = every statement).
//! * [`TsdbStore`] (InfluxDB-like) — the client renders *line protocol*
//!   text over an HTTP-style RPC; the engine parses it ([`line_protocol`]),
//!   maintains per-series time-sorted shards, a tag index, and a
//!   write-ahead log with per-point durability. The paper also notes
//!   InfluxDB cannot represent ROS's nested arrays — the line-protocol
//!   schema here flattens TF messages into ten scalar fields, losing the
//!   covariance arrays, which is exactly that limitation.
//!
//! The filesystem baseline (plain bag append) lives in the `bench` crate's
//! Fig. 2 harness.

#![forbid(unsafe_code)]

pub mod btree;
pub mod engine;
pub mod hash_index;
pub mod kv;
pub mod line_protocol;
pub mod sql;
pub mod tsdb;
pub mod wal;

pub use engine::{DbError, DbResult, InsertEngine, RpcModel};
pub use kv::KvStore;
pub use sql::SqlStore;
pub use tsdb::TsdbStore;
