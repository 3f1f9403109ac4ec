//! Cross-crate integration: the full lifecycle a downstream user runs —
//! record → duplicate → open → query → export — with every result checked
//! against the baseline reader, across storage backends.

use bora_repro::*;

use bora::{BoraBag, BoraFs, BoraFsOptions, OrganizerOptions};
use ros_msgs::{RosDuration, RosMessage, Time};
use rosbag::{BagReader, BagWriterOptions};
use simfs::{ClusterConfig, ClusterStorage, DeviceModel, IoCtx, MemStorage, Storage, TimedStorage};
use workloads::tum::{generate_bag, topic, GenOptions};
use workloads::Application;

fn tiny_opts() -> GenOptions {
    GenOptions {
        count_scale: 0.03,
        payload_scale: 0.005,
        seed: 99,
        writer: BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        ..Default::default()
    }
}

/// The full lifecycle on a given backend.
fn lifecycle_on<S: Storage>(fs: &S) {
    let mut ctx = IoCtx::new();
    let bag = generate_bag(fs, "/hs.bag", &tiny_opts(), &mut ctx).expect("generate");
    bora::organizer::duplicate(fs, "/hs.bag", fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .expect("duplicate");

    let baseline = BagReader::open(fs, "/hs.bag", &mut ctx).expect("baseline open");
    let bora_bag = BoraBag::open(fs, "/c", &mut ctx).expect("bora open");

    // Container self-check.
    assert_eq!(bora_bag.verify(&mut ctx).expect("verify"), bag.message_count);

    // Every topic: identical payload streams through both paths.
    for spec in &workloads::tum::TUM_TOPICS {
        let base = baseline.read_messages(&[spec.name], &mut ctx).unwrap();
        let ours = bora_bag.read_topics(&[spec.name], &mut ctx).unwrap();
        assert_eq!(base.len(), ours.len(), "count mismatch on {}", spec.name);
        for (a, b) in base.iter().zip(&ours) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.data, b.data);
        }
    }

    // Every application's multi-topic query agrees too.
    for app in workloads::APPLICATIONS {
        let topics = app.topics(3);
        let base = baseline.read_messages(&topics, &mut ctx).unwrap();
        let ours = bora_bag.read_topics(&topics, &mut ctx).unwrap();
        assert_eq!(base.len(), ours.len(), "{}", app.abbrev());
    }
}

#[test]
fn lifecycle_mem() {
    lifecycle_on(&MemStorage::new());
}

#[test]
fn lifecycle_timed_ext4() {
    lifecycle_on(&TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4()));
}

#[test]
fn lifecycle_pvfs_cluster() {
    lifecycle_on(&ClusterStorage::new(ClusterConfig::pvfs4()));
}

#[test]
fn lifecycle_lustre_cluster() {
    lifecycle_on(&ClusterStorage::new(ClusterConfig::tianhe_lustre()));
}

#[test]
fn lifecycle_on_real_disk() {
    let dir = std::env::temp_dir().join(format!("bora-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = simfs::LocalStorage::new(&dir).expect("local storage");
    lifecycle_on(&fs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lifecycle_through_plfs_middleware() {
    // The unmodified stack also runs over the PLFS-style middleware.
    let fs = plfs_lite::PlfsStorage::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let bag = generate_bag(&fs, "/hs.bag", &tiny_opts(), &mut ctx).expect("generate");
    let reader = BagReader::open(&fs, "/hs.bag", &mut ctx).expect("open");
    assert_eq!(reader.index().message_count(), bag.message_count);
    let imu = reader.read_messages(&[topic::IMU], &mut ctx).unwrap();
    assert!(!imu.is_empty());
}

#[test]
fn time_window_queries_agree_across_full_staircase() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    generate_bag(&fs, "/hs.bag", &tiny_opts(), &mut ctx).unwrap();
    bora::organizer::duplicate(&fs, "/hs.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .unwrap();
    let baseline = BagReader::open(&fs, "/hs.bag", &mut ctx).unwrap();
    let bora_bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
    let (t0, t_end) = bora_bag.time_range();
    let topics = Application::RobotSlam.topics(0);

    // Paper's stair-step: fixed start, end grows by 5 s steps past EOF.
    let mut w = 0.0f64;
    loop {
        w += 5.0;
        let end = t0 + RosDuration::from_sec_f64(w);
        let base = baseline.read_messages_time(&topics, t0, end, &mut ctx).unwrap();
        let ours = bora_bag.read_topics_time(&topics, t0, end, &mut ctx).unwrap();
        assert_eq!(base.len(), ours.len(), "window {w}s");
        for (a, b) in base.iter().zip(&ours) {
            assert_eq!((a.time, &a.data), (b.time, &b.data), "window {w}s");
        }
        if end > t_end + RosDuration::from_sec_f64(10.0) {
            break;
        }
    }
}

#[test]
fn export_import_round_trip_preserves_everything() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    generate_bag(&fs, "/hs.bag", &tiny_opts(), &mut ctx).unwrap();

    let bora_fs =
        BoraFs::mount(&fs, "/front", "/back", BoraFsOptions::default(), &mut ctx).unwrap();
    bora_fs.import_bag(&fs, "/hs.bag", "hs.bag", &mut ctx).unwrap();
    bora_fs.export_bag("hs.bag", &fs, "/roundtrip.bag", &mut ctx).unwrap();

    // The exported bag, read with the plain reader, yields the same
    // message multiset as the original (order may legitimately differ for
    // identical timestamps across topics, so compare sorted digests).
    let orig = BagReader::open(&fs, "/hs.bag", &mut ctx).unwrap();
    let back = BagReader::open(&fs, "/roundtrip.bag", &mut ctx).unwrap();
    let all_topics: Vec<&str> = orig.topics().into_iter().collect();
    let mut a: Vec<(Time, String)> = orig
        .read_messages(&all_topics, &mut ctx)
        .unwrap()
        .into_iter()
        .map(|m| (m.time, ros_msgs::md5::hex_digest(&m.data)))
        .collect();
    let all_topics_b: Vec<&str> = back.topics().into_iter().collect();
    let mut b: Vec<(Time, String)> = back
        .read_messages(&all_topics_b, &mut ctx)
        .unwrap()
        .into_iter()
        .map(|m| (m.time, ros_msgs::md5::hex_digest(&m.data)))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn typed_payloads_survive_the_whole_pipeline() {
    use ros_msgs::sensor_msgs::{CameraInfo, Image, Imu};
    use ros_msgs::tf2_msgs::TfMessage;
    use ros_msgs::visualization_msgs::MarkerArray;

    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    generate_bag(&fs, "/hs.bag", &tiny_opts(), &mut ctx).unwrap();
    bora::organizer::duplicate(&fs, "/hs.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .unwrap();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    for spec in &workloads::tum::TUM_TOPICS {
        let msgs = bag.read_topics(&[spec.name], &mut ctx).unwrap();
        assert!(!msgs.is_empty(), "{} empty", spec.name);
        let m = &msgs[msgs.len() / 2];
        match spec.id {
            'A' | 'B' => {
                let img = Image::from_bytes(&m.data).unwrap();
                assert!(img.geometry_is_consistent());
            }
            'C' | 'D' => {
                let ci = CameraInfo::from_bytes(&m.data).unwrap();
                assert_eq!(ci.distortion_model, "plumb_bob");
            }
            'E' => {
                let arr = MarkerArray::from_bytes(&m.data).unwrap();
                assert_eq!(arr.markers.len(), 2);
            }
            'F' => {
                let imu = Imu::from_bytes(&m.data).unwrap();
                assert_eq!(imu.linear_acceleration.z, 9.81);
            }
            'G' => {
                let tf = TfMessage::from_bytes(&m.data).unwrap();
                assert_eq!(tf.transforms.len(), 2);
            }
            _ => unreachable!(),
        }
    }
}
