//! Table IV — I/O middleware comparison.
//!
//! The paper's Table IV is qualitative; this reproduction grounds two of
//! its columns in *measured* behaviour of the two middleware systems we
//! actually implement (PLFS-lite and BORA): both interpose via a
//! FUSE-style layer, PLFS's layout is checkpoint-oriented while BORA's is
//! semantic, and only BORA turns a topic query into a contiguous read.

use bora::{BoraBag, OrganizerOptions};
use plfs_lite::PlfsStorage;
use rosbag::BagReader;
use simfs::{DeviceModel, IoCtx, MemStorage, TimedStorage};
use workloads::tum::{generate_bag, topic};

use crate::env::ScaleConfig;
use crate::report::{ms, Table};

pub fn run(scales: &ScaleConfig) -> Vec<Table> {
    // Qualitative rows, straight from the paper.
    let mut qual = Table::new(
        "table4",
        "I/O middleware comparison (paper Table IV)",
        &["system", "interposition", "usage", "app. modification"],
    );
    for row in [
        ["HDF5", "Library", "Scientific Data", "No"],
        ["ADIOS", "Library", "Checkpoint-restart", "No"],
        ["PLFS", "FUSE or Library", "Checkpoint-restart", "Yes"],
        ["ROMIO", "Library", "MPI-IO", "No"],
        ["BORA", "FUSE or Library", "Bag Enhancement", "Yes"],
    ] {
        qual.row(row.iter().map(|s| s.to_string()).collect());
    }
    qual.note("HDF5/ADIOS/ROMIO rows are the paper's qualitative claims; PLFS and BORA are implemented here");

    // Measured supplement: the same topic query through each implemented
    // middleware on the same device model.
    let mut measured = Table::new(
        "table4m",
        "Measured supplement: one topic query through each implemented layer",
        &["layer", "semantics", "query (ms)"],
    );
    let opts = scales.gen_for_gb(2.9);

    let plain = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let mut ctx = IoCtx::new();
    generate_bag(&plain, "/b.bag", &opts, &mut ctx).unwrap();
    let mut qctx = IoCtx::new();
    let r = BagReader::open(&plain, "/b.bag", &mut qctx).unwrap();
    r.read_messages(&[topic::RGB_CAMERA_INFO], &mut qctx).unwrap();
    measured.row(vec!["none (plain rosbag)".into(), "byte stream".into(), ms(qctx.elapsed_ns())]);

    let plfs = PlfsStorage::new(TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4()));
    let mut ctx = IoCtx::new();
    generate_bag(&plfs, "/b.bag", &opts, &mut ctx).unwrap();
    let mut qctx = IoCtx::new();
    let r = BagReader::open(&plfs, "/b.bag", &mut qctx).unwrap();
    r.read_messages(&[topic::RGB_CAMERA_INFO], &mut qctx).unwrap();
    measured.row(vec!["PLFS-lite".into(), "byte extents".into(), ms(qctx.elapsed_ns())]);

    let bora_fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let mut ctx = IoCtx::new();
    generate_bag(&bora_fs, "/b.bag", &opts, &mut ctx).unwrap();
    bora::organizer::duplicate(
        &bora_fs,
        "/b.bag",
        &bora_fs,
        "/c",
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    let mut qctx = IoCtx::new();
    let bag = BoraBag::open(&bora_fs, "/c", &mut qctx).unwrap();
    bag.read_topics(&[topic::RGB_CAMERA_INFO], &mut qctx).unwrap();
    measured.row(vec!["BORA".into(), "topics + time".into(), ms(qctx.elapsed_ns())]);
    measured.note("same workload, same device model: semantics-blind middleware adds cost, semantic middleware removes it");

    vec![qual, measured]
}
