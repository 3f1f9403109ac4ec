//! Crash consistency of the container commit path: a deterministic
//! power-cut sweep over every mutating storage op of a capture, plus
//! property tests that `bora fsck` verdicts are stable and repair is
//! idempotent.
//!
//! The invariant under test is the acceptance bar for the commit
//! protocol: **no crash point may yield a container that opens Clean but
//! returns wrong or partial data.** A crash mid-capture leaves either
//! nothing (the cut landed before the staging directory) or staging
//! debris that fsck classifies as Torn; repair rolls forward from the
//! source bag to a container byte-identical to an uncrashed capture.

use bora::block::{BlockCodec, BlockParams};
use bora::{fsck, BoraBag, BoraError, FsckState, Manifest, OrganizerOptions, RepairOutcome};
use proptest::prelude::*;
use ros_msgs::{md5, sensor_msgs::Imu, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{FaultyStorage, IoCtx, MemStorage, PowerCutSchedule, Storage};

const SRC: &str = "/src.bag";
const DST: &str = "/c/slam";
const TOPICS: [&str; 2] = ["/imu", "/odom"];

fn source_bag_bytes(messages_per_topic: u32) -> Vec<u8> {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        &fs,
        SRC,
        BagWriterOptions { chunk_size: 2048, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    for i in 0..messages_per_topic {
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = Time::new(i, 0);
        for topic in TOPICS {
            w.write_ros_message(topic, Time::new(i, 0), &imu, &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
    fs.read_all(SRC, &mut ctx).unwrap()
}

fn fresh_disk(bag_bytes: &[u8]) -> FaultyStorage<MemStorage> {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    fs.append(SRC, bag_bytes, &mut ctx).unwrap();
    FaultyStorage::new(fs)
}

/// MD5 over (path, content) in MANIFEST order: equal digests mean the
/// containers are byte-identical file for file.
fn container_digest<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> String {
    let manifest = Manifest::load(storage, root, ctx).unwrap().expect("committed ⇒ MANIFEST");
    let mut acc = Vec::new();
    for e in manifest.entries() {
        acc.extend_from_slice(e.path.as_bytes());
        acc.push(0);
        acc.extend_from_slice(&storage.read_all(&format!("{root}/{}", e.path), ctx).unwrap());
    }
    md5::hex_digest(&acc)
}

#[test]
fn every_crash_point_recovers_to_byte_identical_clean() {
    let bag_bytes = source_bag_bytes(15);
    let opts = OrganizerOptions::default();

    // Probe run: size the sweep, fix the reference digest and counts.
    let probe = fresh_disk(&bag_bytes);
    let mut ctx = IoCtx::new();
    bora::organizer::duplicate(&probe, SRC, &probe, DST, &opts, &mut ctx).unwrap();
    let total = probe.mutations();
    assert!(total > 4, "sweep needs a non-trivial capture, got {total} mutations");
    let reference = container_digest(probe.inner(), DST, &mut ctx);
    let reference_msgs =
        BoraBag::open(probe.inner(), DST, &mut ctx).unwrap().read_topic("/imu", &mut ctx).unwrap();

    let (mut torn_seen, mut unstarted_seen) = (0u64, 0u64);
    for cut in PowerCutSchedule::sweep(total) {
        let faulty = fresh_disk(&bag_bytes);
        let mut ctx = IoCtx::new();
        faulty.arm_power_cut(cut);
        bora::organizer::duplicate(&faulty, SRC, &faulty, DST, &opts, &mut ctx)
            .expect_err("armed cut must abort the capture");

        // "Reboot": the wrapper is dead; inspect the surviving medium.
        let disk = faulty.inner();
        match fsck::check(disk, DST, &mut ctx) {
            // Nothing reached the medium — the capture never started.
            Err(BoraError::NotAContainer(_)) => {
                unstarted_seen += 1;
                bora::organizer::duplicate(disk, SRC, disk, DST, &opts, &mut ctx).unwrap();
            }
            Ok(report) => {
                // The commit rename is the last mutation, so a crashed
                // capture can never present a committed root — Torn
                // (staging debris only) is the sole legal verdict.
                assert_eq!(
                    report.state,
                    FsckState::Torn,
                    "crash at mutation {} must not yield a {:?} root",
                    cut.after_mutations,
                    report.state
                );
                torn_seen += 1;
                // Rollback alone must also be a legal exit (idempotent
                // with the roll-forward below): classify → roll forward.
                let outcome = fsck::repair(disk, DST, Some((disk, SRC)), &opts, &mut ctx).unwrap();
                assert_eq!(outcome, RepairOutcome::RolledForward);
            }
            Err(e) => panic!("fsck failed at mutation {}: {e}", cut.after_mutations),
        }

        assert!(fsck::check(disk, DST, &mut ctx).unwrap().is_clean());
        assert_eq!(
            container_digest(disk, DST, &mut ctx),
            reference,
            "recovered container must be byte-identical (crash at mutation {})",
            cut.after_mutations
        );
        let msgs =
            BoraBag::open(disk, DST, &mut ctx).unwrap().read_topic("/imu", &mut ctx).unwrap();
        assert_eq!(msgs.len(), reference_msgs.len());
    }
    assert!(torn_seen > 0, "the sweep must hit mid-capture crash points");
    assert!(unstarted_seen > 0, "the sweep must hit the pre-staging crash point");
}

#[test]
fn rollback_without_source_leaves_no_debris() {
    let bag_bytes = source_bag_bytes(10);
    let faulty = fresh_disk(&bag_bytes);
    let mut ctx = IoCtx::new();
    // Crash halfway through the capture.
    let probe = fresh_disk(&bag_bytes);
    bora::organizer::duplicate(&probe, SRC, &probe, DST, &OrganizerOptions::default(), &mut ctx)
        .unwrap();
    let half = probe.mutations() / 2;
    faulty.arm_power_cut(simfs::PowerCut { after_mutations: half, torn_bytes: Some(1) });
    bora::organizer::duplicate(&faulty, SRC, &faulty, DST, &OrganizerOptions::default(), &mut ctx)
        .expect_err("cut mid-capture");
    let disk = faulty.inner();
    let outcome =
        fsck::repair::<_, MemStorage>(disk, DST, None, &OrganizerOptions::default(), &mut ctx)
            .unwrap();
    assert_eq!(outcome, RepairOutcome::RolledBack);
    assert!(!disk.exists(&format!("{DST}.staging"), &mut ctx), "debris swept");
    assert!(!disk.exists(DST, &mut ctx), "rollback does not invent a container");
}

/// Per-topic repair of a block-framed container: one flipped byte in
/// `rel` must be repaired in place, in the container's own format, even
/// though the caller (like `bora-tool fsck --repair`) passes default —
/// v1 — organizer options.
fn block_framed_repair_keeps_the_format(rel: &str) {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    fs.append(SRC, &source_bag_bytes(40), &mut ctx).unwrap();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 4096 });
    let opts = OrganizerOptions { block, ..OrganizerOptions::default() };
    bora::organizer::duplicate(&fs, SRC, &fs, DST, &opts, &mut ctx).unwrap();
    let reference = container_digest(&fs, DST, &mut ctx);

    let full = format!("{DST}/{rel}");
    let offset = fs.len(&full, &mut ctx).unwrap() / 2;
    let byte = fs.read_at(&full, offset, 1, &mut ctx).unwrap()[0];
    fs.write_at(&full, offset, &[byte ^ 0x04], &mut ctx).unwrap();
    assert_eq!(fsck::check(&fs, DST, &mut ctx).unwrap().state, FsckState::Corrupt);

    let outcome =
        fsck::repair(&fs, DST, Some((&fs, SRC)), &OrganizerOptions::default(), &mut ctx).unwrap();
    assert_eq!(outcome, RepairOutcome::RepairedTopics(1));
    assert_eq!(container_digest(&fs, DST, &mut ctx), reference);
    assert_eq!(BoraBag::open(&fs, DST, &mut ctx).unwrap().meta().block, block);
    assert!(fsck::check(&fs, DST, &mut ctx).unwrap().is_clean());
}

#[test]
fn block_framed_repair_of_damaged_data() {
    block_framed_repair_keeps_the_format("imu/data");
}

#[test]
fn block_framed_repair_of_damaged_blocks_map() {
    block_framed_repair_keeps_the_format("imu/blocks");
}

/// Where per-topic repair is not possible (here: the MANIFEST is damaged)
/// the full rebuild keeps the format `.bora` records, too.
#[test]
fn block_framed_repair_by_full_rebuild_keeps_the_format() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    fs.append(SRC, &source_bag_bytes(40), &mut ctx).unwrap();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 4096 });
    let opts = OrganizerOptions { block, window_ns: 500_000_000, ..OrganizerOptions::default() };
    bora::organizer::duplicate(&fs, SRC, &fs, DST, &opts, &mut ctx).unwrap();
    let reference = container_digest(&fs, DST, &mut ctx);

    let manifest = format!("{DST}/MANIFEST");
    let byte = fs.read_at(&manifest, 9, 1, &mut ctx).unwrap()[0];
    fs.write_at(&manifest, 9, &[byte ^ 0x80], &mut ctx).unwrap();

    let outcome =
        fsck::repair(&fs, DST, Some((&fs, SRC)), &OrganizerOptions::default(), &mut ctx).unwrap();
    assert_eq!(outcome, RepairOutcome::RolledForward);
    assert_eq!(container_digest(&fs, DST, &mut ctx), reference);
}

/// Build a committed container and return its manifest-relative paths.
fn committed_container(messages_per_topic: u32) -> (MemStorage, Vec<String>, String) {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let bytes = source_bag_bytes(messages_per_topic);
    fs.append(SRC, &bytes, &mut ctx).unwrap();
    bora::organizer::duplicate(&fs, SRC, &fs, DST, &OrganizerOptions::default(), &mut ctx).unwrap();
    let paths: Vec<String> = Manifest::load(&fs, DST, &mut ctx)
        .unwrap()
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.path.clone())
        .collect();
    let digest = container_digest(&fs, DST, &mut ctx);
    (fs, paths, digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flip one byte anywhere in any manifest-tracked file: fsck verdicts
    /// are stable across re-runs, repair converges to a byte-identical
    /// Clean container, and repairing again is a no-op.
    #[test]
    fn fsck_verdict_stable_and_repair_idempotent(
        file_sel in 0usize..1 << 16,
        offset_sel in 0usize..1 << 16,
        xor in 1u8..=255,
    ) {
        let (fs, paths, reference) = committed_container(8);
        let mut ctx = IoCtx::new();
        let rel = &paths[file_sel % paths.len()];
        let full = format!("{DST}/{rel}");
        let len = fs.len(&full, &mut ctx).unwrap() as usize;
        prop_assert!(len > 0, "manifest-tracked files are never empty");
        let offset = (offset_sel % len) as u64;
        let byte = fs.read_at(&full, offset, 1, &mut ctx).unwrap()[0];
        fs.write_at(&full, offset, &[byte ^ xor], &mut ctx).unwrap();

        // Verdicts are stable: re-running check changes nothing.
        let r1 = fsck::check(&fs, DST, &mut ctx).unwrap();
        let r2 = fsck::check(&fs, DST, &mut ctx).unwrap();
        prop_assert_eq!(r1.state, FsckState::Corrupt);
        prop_assert_eq!(r1.state, r2.state);
        prop_assert_eq!(r1.damages.len(), r2.damages.len());

        // Repair converges...
        let outcome = fsck::repair(
            &fs, DST, Some((&fs, SRC)), &OrganizerOptions::default(), &mut ctx,
        ).unwrap();
        prop_assert!(
            matches!(outcome, RepairOutcome::RepairedTopics(_) | RepairOutcome::RolledForward),
            "unexpected outcome {:?}", outcome
        );
        prop_assert!(fsck::check(&fs, DST, &mut ctx).unwrap().is_clean());
        prop_assert_eq!(container_digest(&fs, DST, &mut ctx), reference);

        // ...and is idempotent: a second repair finds nothing to do.
        let again = fsck::repair(
            &fs, DST, Some((&fs, SRC)), &OrganizerOptions::default(), &mut ctx,
        ).unwrap();
        prop_assert_eq!(again, RepairOutcome::AlreadyClean);
    }
}
