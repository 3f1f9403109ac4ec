//! **bora-query** — a declarative query layer over BORA containers.
//!
//! A small SELECT language compiled through the classic pipeline:
//!
//! ```text
//! SQL ──lex──▶ tokens ──parse──▶ AST ──plan──▶ Logical ──optimize──▶ Logical ──exec──▶ rows
//!                                                 │                      │
//!                                             EXPLAIN            EXPLAIN ANALYZE
//! ```
//!
//! The language covers the access patterns the paper's analysis
//! workloads need: projection over message fields, WHERE filters on
//! time/topic/fields, per-window aggregation (`count`/`min`/`max`/
//! `mean`), decimation (`SAMPLE EVERY n`), and a time-window join of two
//! topics (`JOIN '/cam' WITHIN 10ms`).
//!
//! The optimizer pushes time predicates into the container's coarse
//! time index (so block-framed topics skip decoding non-candidate
//! blocks), prunes scan lanes from topic predicates, and pushes the
//! residual filter to the zero-copy scan. Pushdown is conservative by
//! construction — the derived range is a superset and the predicate
//! still runs — so `--no-pushdown` changes cost, never results.
//!
//! Execution is pull-based ([`Cursor`]) over the existing k-way merge
//! streams, which is what lets the serve layer stream result rows in
//! bounded chunks, and what makes MVCC snapshots and the read path's
//! checksum verification apply to queries for free. A cursor has one input, a
//! `bora::MessageStream`: [`Prepared::cursor_bag`] builds it over a
//! container, and [`Prepared::cursor_stream`] takes one its caller built
//! (a live snapshot's, say). Underneath, the cursor gathers, filters
//! and aggregates a batch of messages at a time, in typed columns.
//!
//! ```
//! use bora::OrganizerOptions;
//! use rosbag::{BagWriter, BagWriterOptions};
//! use ros_msgs::{sensor_msgs::Imu, Time};
//! use simfs::{IoCtx, MemStorage};
//!
//! let fs = MemStorage::new();
//! let mut ctx = IoCtx::new();
//! let mut w = BagWriter::create(&fs, "/a.bag", BagWriterOptions::default(), &mut ctx).unwrap();
//! for i in 0..50u32 {
//!     let mut imu = Imu::default();
//!     imu.angular_velocity.x = i as f64;
//!     w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
//! }
//! w.close(&mut ctx).unwrap();
//! bora::duplicate(&fs, "/a.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx).unwrap();
//!
//! let bag = bora::BoraBag::open(&fs, "/c", &mut ctx).unwrap();
//! let p = bora_query::prepare(
//!     "SELECT count() FROM '/imu' WHERE time >= 10.0 AND time < 20.0").unwrap();
//! let mut cur = p.cursor_bag(&bag, false, &mut ctx).unwrap();
//! let rows = cur.collect_rows().unwrap();
//! assert_eq!(rows[0][0], bora_query::Value::Int(10));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod distrib;
pub mod error;
pub mod exec;
pub mod explain;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod value;
pub mod wire;

pub use ast::{AggFunc, ExplainMode, Query, SelectStmt};
pub use distrib::{partial_fragment, rowship_query};
pub use error::{QueryError, QueryErrorKind, QueryResult};
pub use exec::{
    merge_partials, ns_to_secs, partial_columns, prepare, prepare_with, run_naive, Cursor,
    ExecMark, ExecStats, Prepared, MAX_TIME_NS,
};
pub use explain::{explain_json, explain_text};
pub use optimize::{optimize, PlanOptions};
pub use parser::parse;
pub use plan::Logical;
pub use value::{Row, Value};
pub use wire::{decode_rows, encode_rows};
