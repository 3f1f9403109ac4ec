//! Deterministic synthetic workloads shaped after the BORA paper's
//! evaluation inputs.
//!
//! The paper evaluates on real TUM RGB-D bags (Handheld SLAM) that are not
//! redistributable here, so this crate generates bags with **exactly the
//! paper's Table II composition** — the same seven topics, the same
//! message-count and byte-share proportions, the same interleaving of
//! huge unstructured images with small structured messages — from a seeded
//! PRNG (see DESIGN.md's substitution table). Every measured effect in the
//! paper depends on layout, counts, sizes, and timestamps, not on pixel
//! values.
//!
//! * [`tum`] — the Handheld-SLAM bag family (Table II), scalable from the
//!   2.9 GB original to the 42 GB swarm bags, with an orthogonal
//!   `payload_scale` so benchmark runs fit in RAM while preserving shape.
//! * [`apps`] — the four real-world applications of Table III (HS, RS,
//!   DO, PA) as topic-set selectors.
//! * [`swarm`] — per-robot bag generation for the Tianhe-1A swarm
//!   scenario (§IV.E).
//! * [`amr`] — a second family (warehouse AMR: lidar, odometry, GPS,
//!   compressed video) exercising the structured-data-dominant regime.

#![forbid(unsafe_code)]

//! * [`querymix`] — skewed (hot/cold) query streams against a set of
//!   containers, driving the serving benchmark and tests.

pub mod amr;
pub mod apps;
pub mod querymix;
pub mod swarm;
pub mod tum;

pub use apps::{Application, APPLICATIONS};
pub use querymix::{Query, QueryKind, QueryMixOptions};
pub use tum::{topic, GenOptions, TopicSpec, TumBag, TUM_TOPICS};
