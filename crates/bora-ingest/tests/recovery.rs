//! Crash consistency of the live write path: a deterministic power-cut
//! sweep over every mutating storage op of an append → seal → compact →
//! append workload.
//!
//! The invariant: **recovery always succeeds, never invents, duplicates,
//! reorders, or corrupts a message, and loses at most appends whose
//! group commit had not completed** — each topic's recovered messages
//! are an exact prefix of the appended sequence. Re-appending the lost
//! suffix and finishing the workload then yields reads byte-identical to
//! an uncrashed run, proving the replay path converges.
//!
//! The sweep runs over a plain root and over a block-framed one (LZSS,
//! 16-byte blocks), where the script's second compaction and the one that
//! converges resume a generation: full frames appended as they are, the
//! partial last frame decoded and carried on.

use std::collections::BTreeMap;

use bora::block::{BlockCodec, BlockParams};
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::Time;
use rosbag::MessageRecord;
use simfs::{FaultyStorage, IoCtx, MemStorage, PowerCutSchedule, Storage};

const ROOT: &str = "/live";
const TOPICS: [&str; 2] = ["/imu", "/cam"];

const LZSS_16: Option<BlockParams> = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 16 });

fn cfg(block: Option<BlockParams>) -> IngestConfig {
    // group_commit = 1: every acked append is durable, so the durability
    // frontier is exact and the sweep's prefix assertion is strict.
    IngestConfig { wal_shards: 2, group_commit: 1, window_ns: 1_000, block }
}

/// The full workload as (topic, time, payload) in append order.
fn script() -> Vec<(&'static str, Time, Vec<u8>)> {
    let mut out = Vec::new();
    for i in 0..8u64 {
        out.push(("/imu", Time::from_nanos(i * 10), vec![i as u8; 4]));
        if i % 2 == 0 {
            out.push(("/cam", Time::from_nanos(i * 10 + 5), vec![0xC0 | i as u8; 9]));
        }
    }
    out
}

/// Fresh disk with an already-created (empty) ingest root, so the sweep
/// exercises append/seal/compact rather than bootstrap.
fn fresh_disk(block: Option<BlockParams>) -> MemStorage {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    IngestStore::create(&fs, ROOT, cfg(block), &mut ctx).unwrap();
    fs
}

/// Run the whole workload: appends interleaved with two seal+compact
/// cycles, ending with unsealed appends in the WAL + memtable.
fn run_workload<S: Storage>(fs: S, ctx: &mut IoCtx) -> bora::BoraResult<()> {
    let st = IngestStore::open(fs, ROOT, ctx)?;
    let script = script();
    for (i, (topic, time, data)) in script.iter().enumerate() {
        st.append(topic, *time, data, ctx)?;
        if i == 4 || i == 8 {
            st.seal(ctx)?;
            st.compact(ctx)?;
        }
    }
    st.flush_wal(ctx)
}

fn read_all<S: Storage + Clone>(
    st: &IngestStore<S>,
    ctx: &mut IoCtx,
) -> Vec<(String, u64, Vec<u8>)> {
    let snap = st.snapshot(ctx).unwrap();
    let msgs: Vec<MessageRecord> = snap.read_topics(&TOPICS, ctx).unwrap();
    msgs.into_iter().map(|m| (m.topic, m.time.as_nanos(), m.data)).collect()
}

#[test]
fn every_crash_point_recovers_and_converges() {
    sweep_every_crash_point(None);
}

#[test]
fn every_crash_point_recovers_and_converges_lzss_blocks() {
    sweep_every_crash_point(LZSS_16);
}

fn sweep_every_crash_point(block: Option<BlockParams>) {
    // Probe run: size the sweep and fix the reference read.
    let probe = FaultyStorage::new(fresh_disk(block));
    let mut ctx = IoCtx::new();
    run_workload(&probe, &mut ctx).unwrap();
    let total = probe.mutations();
    assert!(total > 20, "sweep needs a non-trivial workload, got {total} mutations");
    let reference = {
        let st = IngestStore::open(probe.inner(), ROOT, &mut ctx).unwrap();
        read_all(&st, &mut ctx)
    };
    assert_eq!(reference.len(), script().len());

    let mut mid_seal_or_compact = 0u64;
    for cut in PowerCutSchedule::sweep(total) {
        let faulty = FaultyStorage::new(fresh_disk(block));
        let mut ctx = IoCtx::new();
        faulty.arm_power_cut(cut);
        run_workload(&faulty, &mut ctx).expect_err("armed cut must abort the workload");

        // "Reboot": recovery must always succeed on the surviving medium.
        let disk = faulty.inner();
        let st = IngestStore::open(disk, ROOT, &mut ctx)
            .unwrap_or_else(|e| panic!("recovery failed at mutation {}: {e}", cut.after_mutations));

        // The recovered generation is a committed, fully verifiable
        // container (the staged-manifest protocol held).
        let snap = st.snapshot(&mut ctx).unwrap();
        let report = bora::fsck::check(disk, snap.container_root(), &mut ctx).unwrap();
        assert!(
            report.is_clean(),
            "generation damaged after cut at mutation {}: {report:?}",
            cut.after_mutations
        );
        drop(snap);

        // Per-topic prefix property: nothing invented, duplicated,
        // reordered, or corrupted.
        let recovered = read_all(&st, &mut ctx);
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for (topic, time, data) in &recovered {
            let idx = seen.entry(topic.clone()).or_insert(0);
            let expected = script()
                .into_iter()
                .filter(|(t, _, _)| *t == topic.as_str())
                .nth(*idx)
                .unwrap_or_else(|| {
                    panic!("extra message on {topic} after cut at {}", cut.after_mutations)
                });
            assert_eq!((*time, data), (expected.1.as_nanos(), &expected.2));
            *idx += 1;
        }
        if st.stat().generation > 0 {
            mid_seal_or_compact += 1;
        }

        // Re-append the lost suffix (what a robot's resend would do),
        // finish with a seal + compact, and the store converges to the
        // uncrashed result.
        for (topic, time, data) in script() {
            let taken = seen.get(topic).copied().unwrap_or(0);
            if taken > 0 {
                *seen.get_mut(topic).unwrap() -= 1;
                continue;
            }
            st.append(topic, time, &data, &mut ctx).unwrap();
        }
        st.seal(&mut ctx).unwrap();
        st.compact(&mut ctx).unwrap();
        assert_eq!(
            read_all(&st, &mut ctx),
            reference,
            "converged state must be byte-identical (cut at mutation {})",
            cut.after_mutations
        );
    }
    assert!(mid_seal_or_compact > 0, "the sweep must hit post-compaction crash points");
}

#[test]
fn cut_between_seal_and_compact_preserves_sealed_batch() {
    // Target the acceptance scenario directly: the seal commits, the
    // power dies before (or during) compaction, and recovery serves the
    // sealed data byte-identically.
    let mut ctx = IoCtx::new();

    // Count mutations up to the end of the first seal.
    let probe = FaultyStorage::new(fresh_disk(None));
    {
        let st = IngestStore::open(&probe, ROOT, &mut ctx).unwrap();
        for (topic, time, data) in script().into_iter().take(5) {
            st.append(topic, time, &data, &mut ctx).unwrap();
        }
        st.seal(&mut ctx).unwrap();
    }
    let after_seal = probe.mutations();
    let reference = {
        let st = IngestStore::open(probe.inner(), ROOT, &mut ctx).unwrap();
        read_all(&st, &mut ctx)
    };
    assert_eq!(reference.len(), 5);

    // Re-run with compaction, cutting at every point from "seal just
    // committed" through mid-compaction.
    for extra in 0..6u64 {
        let faulty = FaultyStorage::new(fresh_disk(None));
        faulty.arm_power_cut(simfs::PowerCut {
            after_mutations: after_seal + extra,
            torn_bytes: Some(1),
        });
        let r = (|| -> bora::BoraResult<()> {
            let st = IngestStore::open(&faulty, ROOT, &mut ctx)?;
            for (topic, time, data) in script().into_iter().take(5) {
                st.append(topic, time, &data, &mut ctx)?;
            }
            st.seal(&mut ctx)?;
            st.compact(&mut ctx)?;
            Ok(())
        })();
        assert!(r.is_err(), "cut must fire during compaction (extra {extra})");

        let st = IngestStore::open(faulty.inner(), ROOT, &mut ctx).unwrap();
        assert_eq!(
            read_all(&st, &mut ctx),
            reference,
            "sealed batch lost or altered (cut {extra} mutations after the seal)"
        );
        // And compaction still completes from the recovered state.
        st.compact(&mut ctx).unwrap();
        assert_eq!(read_all(&st, &mut ctx), reference);
    }
}
