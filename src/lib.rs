//! Umbrella crate for the BORA (SC20) reproduction.
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can exercise the full system through one import.
//! See `DESIGN.md` at the repository root for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.

#![forbid(unsafe_code)]

pub use bora;
pub use bora_serve;
pub use dbsim;
pub use plfs_lite;
pub use ros_msgs;
pub use rosbag;
pub use simfs;
pub use workloads;
