//! Experiment harness for the BORA reproduction.
//!
//! One module per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). Each experiment is an ordinary function that
//! builds its workload, runs baseline and BORA code paths on the
//! appropriate simulated platform, and returns a [`report::Table`] that
//! the `repro` binary prints and saves as CSV. Integration tests call the
//! same functions with small scales and assert the paper's qualitative
//! claims (who wins, by roughly what factor).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! ```

#![forbid(unsafe_code)]

pub mod env;
pub mod experiments;
pub mod merge_ref;
pub mod report;

pub use env::{Platform, ScaleConfig};
pub use report::Table;
