//! One commit record: a byte that `BoraBag` serves, `fsck` passes or a
//! writer adopts is one the container's MANIFEST lists, with matching
//! length and CRC32C. Each test is a damage the read path once took for
//! truth — a root that lost its MANIFEST, a topic directory copied in
//! beside the committed ones, a rotted `.bora` — held to the one rule
//! through the library, `fsck` and the server. A live ingest root's
//! generation is a container like any other: recovery opens it under the
//! same rule, and a rotted one answers every served read as a static
//! root does.

use std::sync::Arc;

use bora::fsck::{self, FsckState, RepairOutcome};
use bora::{BoraBag, BoraError, BoraResult, OrganizerOptions};
use bora_ingest::{IngestConfig, IngestStore};
use bora_serve::{ErrorCode, Request, Response, Server, ServerConfig};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage, Storage};

/// Messages of `/imu` in the source bag.
const N: usize = 300;

/// `/src.bag` of `N` IMU messages, organised into `/c`.
fn setup() -> MemStorage {
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    let opts = BagWriterOptions { chunk_size: 4096, ..Default::default() };
    let mut w = BagWriter::create(&fs, "/src.bag", opts, ctx).unwrap();
    for tick in 0..N as u32 {
        let t = Time::from_nanos(tick as u64 * 10_000_000);
        let mut imu = Imu::default();
        imu.header.seq = tick;
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, ctx).unwrap();
    }
    w.close(ctx).unwrap();
    bora::duplicate(&fs, "/src.bag", &fs, "/c", &OrganizerOptions::default(), ctx).unwrap();
    fs
}

/// Flip one bit of byte `at` of `path`, in place.
fn flip(fs: &MemStorage, path: &str, at: usize) {
    let ctx = &mut IoCtx::new();
    let mut bytes = fs.read_all(path, ctx).unwrap();
    bytes[at] ^= 0x20;
    fs.remove_file(path, ctx).unwrap();
    fs.append(path, &bytes, ctx).unwrap();
}

/// `/c` with its MANIFEST deleted and one `imu/data` payload byte rotted.
fn lost_manifest() -> MemStorage {
    let fs = setup();
    fs.remove_file("/c/MANIFEST", &mut IoCtx::new()).unwrap();
    flip(&fs, "/c/imu/data", 100);
    fs
}

/// `/c` with the three files of `/imu` copied into `/c/ghost`, which no
/// commit record lists.
fn stray_directory() -> MemStorage {
    let fs = setup();
    let ctx = &mut IoCtx::new();
    for file in ["data", "index", "tindex"] {
        let bytes = fs.read_all(&format!("/c/imu/{file}"), ctx).unwrap();
        fs.append(&format!("/c/ghost/{file}"), &bytes, ctx).unwrap();
    }
    fs
}

#[test]
fn a_root_that_lost_its_manifest_is_corrupt_and_repairs_from_source() {
    let fs = lost_manifest();
    let ctx = &mut IoCtx::new();
    match BoraBag::open(&fs, "/c", ctx) {
        Err(BoraError::Corrupt(m)) => assert!(m.contains("MANIFEST"), "{m}"),
        other => panic!("expected Corrupt naming the MANIFEST, got {:?}", other.err()),
    }
    let report = fsck::check(&fs, "/c", ctx).unwrap();
    assert_eq!(report.state, FsckState::Corrupt);
    assert!(report.damages.iter().any(|d| d.rel_path == "MANIFEST"), "{report:?}");

    let source = Some((&fs, "/src.bag"));
    let out = fsck::repair(&fs, "/c", source, &OrganizerOptions::default(), ctx).unwrap();
    assert_eq!(out, RepairOutcome::RolledForward);
    assert_eq!(fsck::check(&fs, "/c", ctx).unwrap().state, FsckState::Clean);
    let bag = BoraBag::open(&fs, "/c", ctx).unwrap();
    assert_eq!(bag.read_topics(&["/imu"], ctx).unwrap().len(), N);
}

#[test]
fn an_uncommitted_directory_is_not_a_topic() {
    let fs = stray_directory();
    let ctx = &mut IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", ctx).unwrap();
    assert_eq!(bag.topics(), vec!["/imu"]);
    assert!(matches!(bag.read_topics(&["/ghost"], ctx), Err(BoraError::UnknownTopic(_))));
    assert_eq!(bag.read_topics(&["/imu"], ctx).unwrap().len(), N);

    let report = fsck::check(&fs, "/c", ctx).unwrap();
    assert_eq!(report.state, FsckState::Clean);
    assert_eq!(report.unknown_files, ["ghost/data", "ghost/index", "ghost/tindex"]);
}

#[test]
fn a_rotted_meta_file_fails_the_open() {
    let fs = setup();
    // The first byte of `/imu`'s datatype: `sensor_msgs/Imu` turns into
    // `Sensor_msgs/Imu`, a type no field of a query would resolve in.
    flip(&fs, "/c/.bora", 56);
    match BoraBag::open(&fs, "/c", &mut IoCtx::new()) {
        Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, ".bora"),
        other => panic!("expected ChecksumMismatch on .bora, got {:?}", other.err()),
    }
}

#[test]
fn the_server_serves_only_what_the_manifest_commits() {
    let fs = stray_directory();
    let server = Server::start(Arc::new(fs), ServerConfig::default());
    match server.submit(Request::Topics { container: "/c".into() }) {
        Response::Topics(topics) => assert_eq!(topics, ["/imu"]),
        other => panic!("expected the committed topics, got {other:?}"),
    }
    server.shutdown();

    let server = Server::start(Arc::new(lost_manifest()), ServerConfig::default());
    let read = Request::Read { container: "/c".into(), topics: vec!["/imu".into()], range: None };
    match server.submit(read) {
        Response::Error { code: ErrorCode::Corrupt, .. } => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    server.shutdown();
}

/// `/live`, an ingest root whose generation 1 holds `N` messages of
/// `/imu`, written through a store that is then dropped.
fn live_root() -> MemStorage {
    live_root_of(&["/imu"])
}

/// `/live` as [`live_root`] makes it, with `N` messages of each of
/// `topics`.
fn live_root_of(topics: &[&str]) -> MemStorage {
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    let st = IngestStore::create(&fs, "/live", IngestConfig::default(), ctx).unwrap();
    let payload = [0x42; 48];
    for topic in topics {
        let batch = (0..N as u64).map(|i| (*topic, Time::from_nanos(i), &payload[..]));
        st.append_batch(batch, ctx).unwrap();
    }
    st.seal(ctx).unwrap();
    assert_eq!(st.compact(ctx).unwrap(), 1);
    fs
}

#[test]
fn recovery_holds_a_live_generations_meta_file_to_its_manifest() {
    let fs = live_root();
    // One bit of the topic name: `/imu` turns into `/Imu`, a directory
    // that does not exist.
    let meta = "/live/gen/C00000001/.bora";
    let bytes = fs.read_all(meta, &mut IoCtx::new()).unwrap();
    let at = bytes.windows(4).position(|w| w == b"/imu").expect("the topic name") + 1;
    flip(&fs, meta, at);
    match IngestStore::open(&fs, "/live", &mut IoCtx::new()) {
        Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, ".bora"),
        other => panic!("expected ChecksumMismatch on .bora, got {:?}", other.err()),
    }
}

#[test]
fn a_rotted_live_generation_answers_every_read_with_a_checksum_mismatch() {
    let fs = live_root();
    flip(&fs, "/live/gen/C00000001/imu/data", 100);
    let server = Server::start(Arc::new(fs), ServerConfig::default());
    // The damage a read finds is not remembered as a quarantine: each
    // read opens the generation again and finds it again, so a cluster
    // client keeps failing over instead of being told `Corrupt`.
    for attempt in 0..3 {
        let read =
            Request::Read { container: "/live".into(), topics: vec!["/imu".into()], range: None };
        match server.submit(read) {
            Response::Error { code: ErrorCode::ChecksumMismatch, .. } => {}
            other => panic!("read {attempt}: expected ChecksumMismatch, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A whole read of a rotted `imu/data`: the typed mismatch, whoever asks.
fn assert_mismatch<T>(read: BoraResult<T>, who: &str) {
    match read {
        Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/data", "{who}"),
        Err(e) => panic!("{who}: expected ChecksumMismatch, got {e}"),
        Ok(_) => panic!("{who}: a rotted topic read whole"),
    }
}

#[test]
fn a_handle_taken_before_a_read_found_damage_answers_as_one_taken_after() {
    let fs = live_root_of(&["/imu", "/tf"]);
    flip(&fs, "/live/gen/C00000001/imu/data", 100);
    let ctx = &mut IoCtx::new();

    // A static root: two clones of one opened bag, each read in turn.
    let first = BoraBag::open(&fs, "/live/gen/C00000001", ctx).unwrap();
    let second = first.clone();
    for (who, bag) in [("second", &second), ("first", &first), ("second", &second)] {
        assert_mismatch(bag.read_topics(&["/imu"], ctx), who);
        assert_eq!(bag.read_topics(&["/tf"], ctx).unwrap().len(), N, "{who}: /tf");
    }

    // A live root: two snapshots taken before a read found the damage,
    // one after.
    let st = IngestStore::open(&fs, "/live", ctx).unwrap();
    let (s1, s2) = (st.snapshot(ctx).unwrap(), st.snapshot(ctx).unwrap());
    assert_mismatch(s2.stream(&["/imu"], None, ctx).and_then(|s| s.collect_records(ctx)), "s2");
    let s3 = st.snapshot(ctx).unwrap();
    for (who, snap) in [("s1", &s1), ("s2", &s2), ("s3", &s3), ("s1", &s1)] {
        let imu = snap.stream(&["/imu"], None, ctx).and_then(|s| s.collect_records(ctx));
        assert_mismatch(imu, who);
        let tf = snap.stream(&["/tf"], None, ctx).and_then(|s| s.collect_records(ctx));
        assert_eq!(tf.unwrap().len(), N, "{who}: /tf");
    }
}
