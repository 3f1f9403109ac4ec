//! Differential tests for the cursor's field reader.
//!
//! A cursor reads a field with an [`Accessor`]: the datatype's walk
//! (`ros_msgs::AnyMessage::walker`) checks the payload, then one read
//! where the field lies. The oracle reads it by decoding the whole
//! message and asking [`extract_field`]. The executor is only right if
//! the two agree on *every* byte string, not only on valid messages — a
//! payload one of them rejects and the other reads would make a filter
//! keep a row the oracle drops.
//!
//! So: for every datatype `AnyMessage::decode` models plus one it does
//! not, and for every path `extract_field` answers plus unknown,
//! too-short and too-long ones, the two readers must return the same
//! [`Value`] bit for bit over random valid messages and over each of
//! them mutilated — every strict prefix, trailing bytes, every `u32`
//! rewritten to `u32::MAX` and to one past the end of the input, every
//! byte rewritten to `0xFF` (which breaks each UTF-8 string body in
//! turn). The accessor is safe code in crates that forbid `unsafe`, so
//! "never reads out of bounds" is "never panics", which running the
//! suite shows; "never allocates in proportion to a length prefix" is
//! checked as: a string it returns is no longer than the payload.

use std::collections::HashMap;

use bora_query::value::{extract_field, Accessor};
use bora_query::{prepare, run_naive, Value};
use proptest::prelude::*;
use ros_msgs::geometry_msgs::{Point, TransformStamped};
use ros_msgs::nav_msgs::Odometry;
use ros_msgs::sensor_msgs::{CameraInfo, Image, Imu};
use ros_msgs::std_msgs::{ColorRgba, Header};
use ros_msgs::tf2_msgs::TfMessage;
use ros_msgs::visualization_msgs::{Marker, MarkerArray, MarkerType};
use ros_msgs::{AnyMessage, RosMessage, Time};
use rosbag::{BagReader, BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

/// Every path `extract_field` answers for some datatype, then paths it
/// answers for none: unknown names, known prefixes cut short, known
/// paths with a segment too many, and odd segments.
const PATHS: &[&str] = &[
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
const DATATYPES: [&str; 6] = [
    Imu::DATATYPE,
    Image::DATATYPE,
    CameraInfo::DATATYPE,
    TfMessage::DATATYPE,
    MarkerArray::DATATYPE,
    Odometry::DATATYPE,
];

fn paths() -> Vec<Vec<String>> {
    PATHS.iter().map(|p| p.split('.').map(str::to_owned).collect()).collect()
}

/// Empty, ASCII and multi-byte UTF-8 strings.
fn text(rng: &mut TestRng) -> String {
    ["", "imu_link", "rgb8", "plumb_bob", "é", "カメラ/深度", "a\u{10348}b"][rng.below(7)]
        .to_owned()
}

fn header(rng: &mut TestRng) -> Header {
    Header {
        seq: rng.next_u64() as u32,
        stamp: Time { sec: rng.next_u64() as u32, nsec: rng.below(1_000_000_000) as u32 },
        frame_id: text(rng),
    }
}

/// Any bit pattern: the readers move bits, they do no arithmetic.
fn float(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

/// One random valid message of `datatype`, serialized. Arrays are empty
/// about a third of the time.
fn message(datatype: &str, rng: &mut TestRng) -> Vec<u8> {
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
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Both readers over one payload, every path; returns the number of
/// comparisons made.
fn compare_readers(
    datatype: &str,
    payload: &[u8],
    paths: &[Vec<String>],
    accessors: &[Option<Accessor>],
    what: &str,
) -> Result<u64, TestCaseError> {
    let decoded = AnyMessage::decode(datatype, payload).ok();
    for (path, accessor) in paths.iter().zip(accessors) {
        let want = decoded.as_ref().map_or(Value::Null, |m| extract_field(m, path));
        let got = accessor.map_or(Value::Null, |a| a.read(payload));
        prop_assert!(
            same_bits(&got, &want),
            "{datatype} {path:?} over {what}: accessor {got:?}, decode + extract_field {want:?}\n\
             payload {payload:?}"
        );
        if let Value::Str(s) = &got {
            prop_assert!(
                s.len() <= payload.len(),
                "{datatype} {path:?}: string outgrew its payload"
            );
        }
    }
    Ok(paths.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn accessor_equals_decode_then_extract(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let paths = paths();
        // (valid, prefix, trailing, u32 rewrite, byte rewrite) comparisons.
        let mut made = [0u64; 5];
        for datatype in DATATYPES {
            let accessors: Vec<Option<Accessor>> =
                paths.iter().map(|p| Accessor::bind(datatype, p)).collect();
            let valid = message(datatype, &mut rng);
            let check = |payload: &[u8], what: &str| {
                compare_readers(datatype, payload, &paths, &accessors, what)
            };
            made[0] += check(&valid, "a valid message")?;
            for cut in 0..valid.len() {
                made[1] += check(&valid[..cut], "a strict prefix")?;
            }
            for extra in [1, 2, 5] {
                let mut longer = valid.clone();
                longer.extend((0..extra).map(|_| rng.next_u64() as u8));
                made[2] += check(&longer, "trailing bytes")?;
            }
            for at in 0..valid.len().saturating_sub(3) {
                let past_the_end = (valid.len() - (at + 4) + 1) as u32;
                for len in [u32::MAX, past_the_end] {
                    let mut bent = valid.clone();
                    bent[at..at + 4].copy_from_slice(&len.to_le_bytes());
                    made[3] += check(&bent, "a rewritten u32")?;
                }
            }
            for at in 0..valid.len() {
                let mut bent = valid.clone();
                bent[at] = 0xFF;
                made[4] += check(&bent, "a byte rewritten to 0xFF")?;
            }
        }
        prop_assert!(made.iter().all(|n| *n > 0), "a mutation class made no comparison: {made:?}");
    }
}

/// The walks accept what the decoders accept on whole valid messages of
/// every modelled datatype, and every bound path of the vocabulary reads
/// a non-null value there — the differential suite above would also pass
/// if both readers answered `Null` to everything.
#[test]
fn bound_paths_read_values_from_valid_messages() {
    let mut rng = TestRng::from_seed(7);
    let mut bound = 0;
    for datatype in DATATYPES {
        let payload = message(datatype, &mut rng);
        for path in paths() {
            if let Some(a) = Accessor::bind(datatype, &path) {
                assert_ne!(a.read(&payload), Value::Null, "{datatype} {path:?}");
                bound += 1;
            }
        }
    }
    // Imu 13, Image 7, CameraInfo 6, TFMessage 1, MarkerArray 1, Odometry 0.
    assert_eq!(bound, 28);
}

/// Executor level: a container with an image topic, a `/tf` topic and a
/// topic whose datatype has no model answers field queries exactly as
/// the oracle does — counts, a numeric field behind a string, an array
/// length, and a field nobody has.
#[test]
fn mixed_container_matches_naive() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut rng = TestRng::from_seed(11);
    let mut w = BagWriter::create(&fs, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..60u32 {
        let t = Time::new(10 + i / 3, (i % 3) * 1_000);
        match i % 3 {
            0 => {
                let image = Image {
                    header: header(&mut rng),
                    height: 4,
                    width: i % 9,
                    encoding: text(&mut rng),
                    step: 8,
                    data: vec![i as u8; 4096],
                    ..Default::default()
                };
                w.write_ros_message("/cam", t, &image, &mut ctx).unwrap();
            }
            1 => {
                let tf =
                    TfMessage { transforms: vec![TransformStamped::default(); (i % 4) as usize] };
                w.write_ros_message("/tf", t, &tf, &mut ctx).unwrap();
            }
            _ => {
                let odom = Odometry { header: header(&mut rng), ..Default::default() };
                w.write_ros_message("/odom", t, &odom, &mut ctx).unwrap();
            }
        }
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&fs, "/m.bag", &fs, "/c", &Default::default(), &mut ctx).unwrap();
    let bag = bora::BoraBag::open(&fs, "/c", &mut ctx).unwrap();
    let reader = BagReader::open(&fs, "/m.bag", &mut ctx).unwrap();
    let records = reader.read_messages(&["/cam", "/tf", "/odom"], &mut ctx).unwrap();
    let datatypes: HashMap<String, String> = bag.meta().datatypes();
    assert_eq!(datatypes["/odom"], Odometry::DATATYPE);

    for sql in [
        "SELECT count(), max(width), min(step) FROM '/cam' WHERE width > 0",
        "SELECT time, width, encoding, header.frame_id FROM '/cam' WHERE header.seq >= 0",
        "SELECT time, transforms FROM '/tf'",
        "SELECT window, count(transforms), max(transforms) FROM '/tf' WINDOW 5s",
        "SELECT count(x), count(header.seq), count() FROM '/odom'",
        "SELECT topic, width, transforms, header.stamp FROM '/cam', '/tf', '/odom'",
        "SELECT count(width), count(transforms) FROM '/cam', '/tf', '/odom' WHERE size > 0",
        "SELECT left.width, right.transforms FROM '/cam' JOIN '/tf' WITHIN 1s \
         WHERE right.transforms > 1",
    ] {
        let p = prepare(sql).unwrap();
        let got = p.cursor_bag(&bag, false, &mut ctx).unwrap().collect_rows().unwrap();
        let (_, want) = run_naive(&p.query.stmt, &records, &datatypes).unwrap();
        assert!(!want.is_empty(), "{sql}: the oracle returned nothing to compare");
        assert_eq!(got, want, "{sql}");
    }
}
