//! The payloads the field-reader suites compare their readers over:
//! random valid messages of every datatype `AnyMessage::decode` models
//! plus one it does not, each mutilated every way the suites know, and
//! the paths they bind — shared by `prop_accessor.rs` (accessor against
//! decode + `extract_field`) and `prop_columns.rs` (column fill against
//! the accessor, a payload at a time). Each uses part of it.
#![allow(dead_code)]

use bora_query::Value;
use proptest::test_runner::TestRng;
use ros_msgs::geometry_msgs::{Point, TransformStamped};
use ros_msgs::nav_msgs::Odometry;
use ros_msgs::sensor_msgs::{CameraInfo, Image, Imu};
use ros_msgs::std_msgs::{ColorRgba, Header};
use ros_msgs::tf2_msgs::TfMessage;
use ros_msgs::visualization_msgs::{Marker, MarkerArray, MarkerType};
use ros_msgs::{RosMessage, Time};

/// Every path `extract_field` answers for some datatype, then paths it
/// answers for none: unknown names, known prefixes cut short, known
/// paths with a segment too many, and odd segments.
pub const PATHS: &[&str] = &[
    "angular_velocity.x",
    "angular_velocity.y",
    "angular_velocity.z",
    "linear_acceleration.x",
    "linear_acceleration.y",
    "linear_acceleration.z",
    "orientation.x",
    "orientation.y",
    "orientation.z",
    "orientation.w",
    "header.seq",
    "header.frame_id",
    "header.stamp",
    "width",
    "height",
    "step",
    "encoding",
    "distortion_model",
    "transforms",
    "markers",
    // unknown
    "nope",
    "header.nope",
    "angular_velocity.w",
    "orientation.v",
    "data",
    // too short
    "header",
    "angular_velocity",
    "orientation",
    // too long
    "header.stamp.sec",
    "angular_velocity.x.y",
    "width.x",
    "transforms.len",
    "markers.0",
    // odd segments
    "",
    "orientation.xy",
    "orientation.",
    "orientation.é",
];

/// The five modelled datatypes and one `decode` keeps opaque.
pub const DATATYPES: [&str; 6] = [
    Imu::DATATYPE,
    Image::DATATYPE,
    CameraInfo::DATATYPE,
    TfMessage::DATATYPE,
    MarkerArray::DATATYPE,
    Odometry::DATATYPE,
];

pub fn paths() -> Vec<Vec<String>> {
    PATHS.iter().map(|p| p.split('.').map(str::to_owned).collect()).collect()
}

/// Empty, ASCII and multi-byte UTF-8 strings.
pub fn text(rng: &mut TestRng) -> String {
    ["", "imu_link", "rgb8", "plumb_bob", "é", "カメラ/深度", "a\u{10348}b"][rng.below(7)]
        .to_owned()
}

pub fn header(rng: &mut TestRng) -> Header {
    Header {
        seq: rng.next_u64() as u32,
        stamp: Time { sec: rng.next_u64() as u32, nsec: rng.below(1_000_000_000) as u32 },
        frame_id: text(rng),
    }
}

/// Any bit pattern: the readers move bits, they do no arithmetic.
pub fn float(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

/// One random valid message of `datatype`, serialized. Arrays are empty
/// about a third of the time.
pub fn message(datatype: &str, rng: &mut TestRng) -> Vec<u8> {
    match datatype {
        Imu::DATATYPE => {
            let mut m = Imu { header: header(rng), ..Default::default() };
            m.orientation.x = float(rng);
            m.orientation.w = float(rng);
            m.angular_velocity.x = float(rng);
            m.angular_velocity.z = float(rng);
            m.linear_acceleration.y = float(rng);
            m.to_bytes()
        }
        Image::DATATYPE => Image {
            header: header(rng),
            height: rng.next_u64() as u32,
            width: rng.next_u64() as u32,
            encoding: text(rng),
            is_bigendian: rng.next_u64() as u8,
            step: rng.next_u64() as u32,
            data: (0..rng.below(3) * 7).map(|_| rng.next_u64() as u8).collect(),
        }
        .to_bytes(),
        CameraInfo::DATATYPE => CameraInfo {
            header: header(rng),
            height: rng.next_u64() as u32,
            width: rng.next_u64() as u32,
            distortion_model: text(rng),
            d: (0..rng.below(3) * 2).map(|_| float(rng)).collect(),
            ..Default::default()
        }
        .to_bytes(),
        TfMessage::DATATYPE => TfMessage {
            transforms: (0..rng.below(3))
                .map(|_| TransformStamped {
                    header: header(rng),
                    child_frame_id: text(rng),
                    ..Default::default()
                })
                .collect(),
        }
        .to_bytes(),
        MarkerArray::DATATYPE => MarkerArray {
            markers: (0..rng.below(3))
                .map(|_| Marker {
                    header: header(rng),
                    ns: text(rng),
                    marker_type: MarkerType::Sphere,
                    points: vec![Point::default(); rng.below(3)],
                    colors: vec![ColorRgba::default(); rng.below(3)],
                    text: text(rng),
                    ..Default::default()
                })
                .collect(),
        }
        .to_bytes(),
        _ => Odometry { header: header(rng), ..Default::default() }.to_bytes(),
    }
}

/// Equality that tells `NaN` payloads and `-0.0` from `0.0` apart.
pub fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The ways [`mutilations`] bends a valid message, in the order it
/// yields them.
pub const MUTILATIONS: [&str; 5] = [
    "a valid message",
    "a strict prefix",
    "trailing bytes",
    "a rewritten u32",
    "a byte rewritten to 0xFF",
];

/// `valid` and every payload mutilated from it, each with its index in
/// [`MUTILATIONS`]: every strict prefix, 1, 2 and 5 random trailing
/// bytes, every `u32` rewritten to `u32::MAX` and to one past the end of
/// the input, every byte rewritten to `0xFF` (which breaks each UTF-8
/// string body in turn).
pub fn mutilations(valid: &[u8], rng: &mut TestRng) -> Vec<(usize, Vec<u8>)> {
    let mut out = vec![(0, valid.to_vec())];
    out.extend((0..valid.len()).map(|cut| (1, valid[..cut].to_vec())));
    for extra in [1, 2, 5] {
        let mut longer = valid.to_vec();
        longer.extend((0..extra).map(|_| rng.next_u64() as u8));
        out.push((2, longer));
    }
    for at in 0..valid.len().saturating_sub(3) {
        let past_the_end = (valid.len() - (at + 4) + 1) as u32;
        for len in [u32::MAX, past_the_end] {
            let mut bent = valid.to_vec();
            bent[at..at + 4].copy_from_slice(&len.to_le_bytes());
            out.push((3, bent));
        }
    }
    for at in 0..valid.len() {
        let mut bent = valid.to_vec();
        bent[at] = 0xFF;
        out.push((4, bent));
    }
    out
}
