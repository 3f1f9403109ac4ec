//! ROS1 message model and wire serialization, implemented from scratch.
//!
//! The BORA paper (SC20) operates on ROS *bags*: files of timestamped,
//! serialized ROS messages. This crate provides the message layer that the
//! rest of the reproduction is built on:
//!
//! * [`Time`] / [`RosDuration`] — ROS1 time representation (`u32` seconds +
//!   `u32` nanoseconds since the epoch).
//! * [`RosMessage`] — the serialization trait implemented by every message
//!   type, mirroring ROS1's little-endian wire format (fixed-width scalars,
//!   `u32`-length-prefixed strings and dynamic arrays).
//! * Message types used by the paper's workloads (Table II of the paper):
//!   `sensor_msgs/Image`, `sensor_msgs/CameraInfo`, `sensor_msgs/Imu`,
//!   `tf2_msgs/TFMessage`, `visualization_msgs/MarkerArray`, and the
//!   `std_msgs`/`geometry_msgs` primitives they are composed of.
//! * [`md5`] — a from-scratch MD5 implementation used to derive the
//!   `md5sum` field of bag connection headers from message definitions,
//!   exactly as `rosbag` stores it.
//!
//! # Example
//!
//! ```
//! use ros_msgs::{sensor_msgs::Imu, RosMessage, Time};
//!
//! let mut imu = Imu::default();
//! imu.header.stamp = Time::from_sec_f64(12.5);
//! imu.linear_acceleration.z = 9.81;
//!
//! let mut buf = Vec::new();
//! imu.serialize(&mut buf);
//! let back = Imu::deserialize(&mut buf.as_slice()).unwrap();
//! assert_eq!(back.linear_acceleration.z, 9.81);
//! ```

#![forbid(unsafe_code)]

pub mod geometry_msgs;
pub mod md5;
pub mod msg;
pub mod nav_msgs;
pub mod sensor_msgs;
pub mod std_msgs;
pub mod tf2_msgs;
pub mod time;
pub mod visualization_msgs;
pub mod wire;

pub use msg::{AnyMessage, MessageDescriptor, RosMessage, Walk};
pub use time::{RosDuration, Time};
pub use wire::{WireError, WireRead, WireWrite};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WireError>;
