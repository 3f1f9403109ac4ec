//! Failure injection across the stack: every layer must turn storage
//! faults into typed errors — no panics, no silent corruption — and leave
//! recoverable state behind where the design promises it (WAL checksums,
//! bag reindex, container verify).

use bora_repro::*;

use bora::{BoraBag, OrganizerOptions};
use dbsim::InsertEngine;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagReader, BagWriter, BagWriterOptions};
use simfs::{FaultKind, FaultRule, FaultyStorage, IoCtx, MemStorage, Storage};
use std::sync::Arc;

fn fail_writes_after(n: u64) -> FaultRule {
    FaultRule { kind: FaultKind::Writes, after_ops: n, ..FaultRule::default() }
}

fn build_small_bag<S: Storage>(fs: &S, n: u32) {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        fs,
        "/b.bag",
        BagWriterOptions { chunk_size: 2048, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    for i in 0..n {
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = Time::new(i, 0);
        w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
}

#[test]
fn bag_writer_reports_write_failures() {
    let fs = FaultyStorage::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        &fs,
        "/b.bag",
        BagWriterOptions { chunk_size: 1024, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    fs.inject(fail_writes_after(1));
    let mut imu = Imu::default();
    let mut failed = false;
    for i in 0..200u32 {
        imu.header.seq = i;
        if w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "writer must surface the injected failure");
}

#[test]
fn interrupted_recording_is_reindexable() {
    // Write through a faulty layer that dies mid-recording; whatever
    // chunks made it to storage must be recoverable by reindex.
    let inner = MemStorage::new();
    {
        let fs = FaultyStorage::new(&inner);
        let mut ctx = IoCtx::new();
        let mut w = BagWriter::create(
            &fs,
            "/b.bag",
            BagWriterOptions { chunk_size: 1024, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        fs.inject(fail_writes_after(6)); // several chunk flushes succeed
        let mut imu = Imu::default();
        for i in 0..500u32 {
            imu.header.seq = i;
            if w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).is_err() {
                break;
            }
        }
        // writer dropped without close()
    }
    let mut ctx = IoCtx::new();
    assert!(BagReader::open(&inner, "/b.bag", &mut ctx).is_err(), "unclosed bag must not open");
    let report = rosbag::reindex(&inner, "/b.bag", &mut ctx).expect("reindex");
    assert!(report.messages_recovered > 0);
    let r = BagReader::open(&inner, "/b.bag", &mut ctx).expect("open after recovery");
    assert_eq!(r.index().message_count(), report.messages_recovered);
}

#[test]
fn organizer_fails_cleanly_midway() {
    let inner = MemStorage::new();
    build_small_bag(&inner, 300);
    let fs = FaultyStorage::new(&inner);
    fs.inject(FaultRule {
        kind: FaultKind::Writes,
        path_contains: Some("/c".into()),
        after_ops: 3,
        ..FaultRule::default()
    });
    let mut ctx = IoCtx::new();
    let result = bora::organizer::duplicate(
        &fs,
        "/b.bag",
        &fs,
        "/c",
        &OrganizerOptions::default(),
        &mut ctx,
    );
    assert!(result.is_err(), "duplicate must fail, not silently truncate");
    // Crash-atomic commit: the failed capture never exposes a root at
    // all — only staging debris, which fsck classifies as Torn and
    // sweeps on rollback.
    fs.clear_faults();
    assert!(!inner.exists("/c", &mut ctx), "no half-committed root may appear");
    let report = bora::fsck::check(&inner, "/c", &mut ctx).unwrap();
    assert_eq!(report.state, bora::FsckState::Torn);
    let outcome = bora::fsck::repair::<_, MemStorage>(
        &inner,
        "/c",
        None,
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    assert_eq!(outcome, bora::RepairOutcome::RolledBack);
    assert!(!inner.exists("/c.staging", &mut ctx), "rollback sweeps the debris");
}

#[test]
fn silent_write_corruption_is_caught_by_manifest_crc() {
    // A write that lands corrupted on the medium (bit-rot in transit)
    // does not fail the capture — the corruption is silent. The MANIFEST
    // CRC, computed from the in-memory payload, catches it at read time
    // and fsck repairs the one damaged topic from the source bag.
    let inner = MemStorage::new();
    build_small_bag(&inner, 100);
    let fs = FaultyStorage::new(&inner);
    fs.inject(FaultRule {
        kind: FaultKind::Writes,
        path_contains: Some("data".into()),
        corrupt_with: Some(0x40),
        max_failures: Some(1),
        ..FaultRule::default()
    });
    let mut ctx = IoCtx::new();
    bora::organizer::duplicate(&fs, "/b.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .expect("corruption is silent; the capture itself succeeds");

    let bag = BoraBag::open(&inner, "/c", &mut ctx).unwrap();
    match bag.read_topics(&["/imu"], &mut ctx) {
        Err(bora::BoraError::ChecksumMismatch { .. }) => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }

    let report = bora::fsck::check(&inner, "/c", &mut ctx).unwrap();
    assert_eq!(report.state, bora::FsckState::Corrupt);
    let outcome = bora::fsck::repair(
        &inner,
        "/c",
        Some((&inner, "/b.bag")),
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    assert!(matches!(outcome, bora::RepairOutcome::RepairedTopics(_)), "got {outcome:?}");
    let healed = BoraBag::open(&inner, "/c", &mut ctx).unwrap();
    assert_eq!(healed.read_topics(&["/imu"], &mut ctx).unwrap().len(), 100);
}

#[test]
fn bora_read_corruption_is_detected_by_verify() {
    let inner = MemStorage::new();
    build_small_bag(&inner, 200);
    let mut ctx = IoCtx::new();
    bora::organizer::duplicate(
        &inner,
        "/b.bag",
        &inner,
        "/c",
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();

    // Corrupt reads of the index file: decode or verify must notice.
    let fs = FaultyStorage::new(&inner);
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("tindex".into()),
        corrupt_with: Some(0x80),
        ..FaultRule::default()
    });
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
    let res = bag.load_time_index("/imu", &mut ctx);
    assert!(res.is_err(), "corrupted tindex magic must be rejected, got {res:?}");
}

#[test]
fn wal_checksum_catches_injected_corruption() {
    let fs = Arc::new(FaultyStorage::new(MemStorage::new()));
    let mut ctx = IoCtx::new();
    let mut db = dbsim::TsdbStore::create(Arc::clone(&fs), "/ts", &mut ctx).unwrap();
    let msgs = workloads::tum::fig2_tf_messages(20, 9);
    for m in &msgs {
        db.insert_tf(m, &mut ctx).unwrap();
    }
    // Corrupt WAL reads and replay: the checksum must fail loudly.
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("wal".into()),
        corrupt_with: Some(0x01),
        ..FaultRule::default()
    });
    let replay = dbsim::wal::Wal::replay(&Arc::clone(&fs), "/ts/wal", &mut ctx);
    assert!(replay.is_err(), "WAL replay must detect corruption");
}

#[test]
fn metadata_faults_do_not_panic_open_paths() {
    let inner = MemStorage::new();
    build_small_bag(&inner, 50);
    let mut ctx = IoCtx::new();
    bora::organizer::duplicate(
        &inner,
        "/b.bag",
        &inner,
        "/c",
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    let fs = FaultyStorage::new(&inner);
    fs.inject(FaultRule { kind: FaultKind::Metadata, ..FaultRule::default() });
    assert!(BoraBag::open(&fs, "/c", &mut ctx).is_err());
    assert!(BagReader::open(&fs, "/b.bag", &mut ctx).is_err());
}
