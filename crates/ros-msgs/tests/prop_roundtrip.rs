//! Property-based round-trip tests for the wire format: for every message
//! type, `deserialize(serialize(m)) == m` and `serialize` produces exactly
//! `wire_len()` bytes, for arbitrary field values. A type with a walk
//! (`AnyMessage::walker`) is walked too: the walk accepts the message,
//! rejects it one byte short and one byte long, and agrees with the
//! decoder on junk.

use proptest::prelude::*;
use ros_msgs::geometry_msgs::{Point, Pose, Quaternion, Transform, TransformStamped, Vector3};
use ros_msgs::sensor_msgs::{CameraInfo, Image, Imu, RegionOfInterest};
use ros_msgs::std_msgs::{ColorRgba, Header};
use ros_msgs::tf2_msgs::TfMessage;
use ros_msgs::visualization_msgs::{Marker, MarkerArray, MarkerType};
use ros_msgs::{AnyMessage, RosMessage, Time};

fn arb_time() -> impl Strategy<Value = Time> {
    (any::<u32>(), 0u32..1_000_000_000).prop_map(|(sec, nsec)| Time { sec, nsec })
}

fn arb_header() -> impl Strategy<Value = Header> {
    (any::<u32>(), arb_time(), "[a-z_/]{0,24}").prop_map(|(seq, stamp, frame_id)| Header {
        seq,
        stamp,
        frame_id,
    })
}

fn arb_vector3() -> impl Strategy<Value = Vector3> {
    (any::<f64>(), any::<f64>(), any::<f64>()).prop_map(|(x, y, z)| Vector3 { x, y, z })
}

fn arb_quat() -> impl Strategy<Value = Quaternion> {
    (any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>()).prop_map(|(x, y, z, w)| Quaternion {
        x,
        y,
        z,
        w,
    })
}

fn arb_transform_stamped() -> impl Strategy<Value = TransformStamped> {
    (arb_header(), "[a-z_]{0,16}", arb_vector3(), arb_quat()).prop_map(|(header, child, t, r)| {
        TransformStamped {
            header,
            child_frame_id: child,
            transform: Transform { translation: t, rotation: r },
        }
    })
}

fn arb_marker() -> impl Strategy<Value = Marker> {
    (
        arb_header(),
        "[a-z]{0,8}",
        any::<i32>(),
        prop::sample::select(vec![
            MarkerType::Arrow,
            MarkerType::Cube,
            MarkerType::Sphere,
            MarkerType::LineStrip,
        ]),
        arb_vector3(),
        prop::collection::vec(
            (any::<f64>(), any::<f64>(), any::<f64>()).prop_map(|(x, y, z)| Point { x, y, z }),
            0..8,
        ),
    )
        .prop_map(|(header, ns, id, marker_type, scale, points)| Marker {
            header,
            ns,
            id,
            marker_type,
            scale,
            points,
            color: ColorRgba { r: 0.5, g: 0.5, b: 0.5, a: 1.0 },
            ..Default::default()
        })
}

/// Bit-exact comparison for messages containing floats (NaN != NaN under
/// PartialEq, so compare serialized bytes instead).
fn assert_roundtrip<M: RosMessage + std::fmt::Debug>(m: &M) {
    let bytes = m.to_bytes();
    assert_eq!(bytes.len(), m.wire_len(), "wire_len mismatch");
    let back = M::from_bytes(&bytes).expect("deserialize");
    assert_eq!(back.to_bytes(), bytes, "re-serialization differs");
    if let Some(walk) = AnyMessage::walker(M::DATATYPE) {
        assert!(walk(&bytes).is_some(), "walk rejects a valid {}", M::DATATYPE);
        assert_eq!(walk(&bytes[..bytes.len() - 1]), None, "walk accepts a cut {}", M::DATATYPE);
        assert_eq!(walk(&[&bytes[..], &[0]].concat()), None, "walk accepts a trailing byte");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn header_roundtrip(h in arb_header()) {
        assert_roundtrip(&h);
    }

    #[test]
    fn vector3_roundtrip(v in arb_vector3()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn quaternion_roundtrip(q in arb_quat()) {
        assert_roundtrip(&q);
    }

    #[test]
    fn pose_roundtrip(p in (arb_vector3(), arb_quat())) {
        let pose = Pose {
            position: Point { x: p.0.x, y: p.0.y, z: p.0.z },
            orientation: p.1,
        };
        assert_roundtrip(&pose);
    }

    #[test]
    fn transform_stamped_roundtrip(ts in arb_transform_stamped()) {
        assert_roundtrip(&ts);
    }

    #[test]
    fn tf_message_roundtrip(transforms in prop::collection::vec(arb_transform_stamped(), 0..6)) {
        assert_roundtrip(&TfMessage { transforms });
    }

    #[test]
    fn image_roundtrip(
        header in arb_header(),
        height in 0u32..64,
        width in 0u32..64,
        encoding in "[a-zA-Z0-9]{0,8}",
        data in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let img = Image {
            header,
            height,
            width,
            encoding,
            is_bigendian: 0,
            step: width * 3,
            data,
        };
        assert_roundtrip(&img);
    }

    #[test]
    fn camera_info_roundtrip(
        header in arb_header(),
        d in prop::collection::vec(any::<f64>(), 0..8),
        k0 in any::<f64>(),
    ) {
        let mut ci = CameraInfo { header, d, ..Default::default() };
        ci.k[0] = k0;
        ci.roi = RegionOfInterest { x_offset: 1, y_offset: 2, height: 3, width: 4, do_rectify: true };
        assert_roundtrip(&ci);
    }

    #[test]
    fn imu_roundtrip(header in arb_header(), av in arb_vector3(), la in arb_vector3()) {
        let imu =
            Imu { header, angular_velocity: av, linear_acceleration: la, ..Default::default() };
        assert_roundtrip(&imu);
    }

    #[test]
    fn marker_array_roundtrip(markers in prop::collection::vec(arb_marker(), 0..4)) {
        assert_roundtrip(&MarkerArray { markers });
    }

    /// Decoding arbitrary junk must never panic — it may only error, and
    /// the type's walk must reject exactly what its decoder rejects.
    #[test]
    fn decode_junk_never_panics(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        fn decodes<M: RosMessage>(junk: &[u8]) {
            let decoded = M::from_bytes(junk).is_ok();
            if let Some(walk) = AnyMessage::walker(M::DATATYPE) {
                assert_eq!(walk(junk).is_some(), decoded, "{}", M::DATATYPE);
            }
        }
        decodes::<Imu>(&junk);
        decodes::<Image>(&junk);
        decodes::<CameraInfo>(&junk);
        decodes::<TfMessage>(&junk);
        decodes::<MarkerArray>(&junk);
        decodes::<Header>(&junk);
    }
}
