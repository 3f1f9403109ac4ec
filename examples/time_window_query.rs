//! Anatomy of the coarse-grain time index (paper Fig. 8).
//!
//! ```text
//! cargo run --release --example time_window_query
//! ```
//!
//! Shows the window arithmetic (`⌊start/W⌋ .. ⌈end/W⌉`), how many
//! candidate entries the coarse index hands to the fine filter, and how
//! the query cost scales with the window — versus the baseline, which
//! merge-sorts every timestamp of the topic no matter how small the
//! window is.

use bora::BoraBag;
use ros_msgs::{RosDuration, Time};
use rosbag::BagReader;
use simfs::{DeviceModel, IoCtx, MemStorage, TimedStorage};
use workloads::tum::{generate_bag, topic, GenOptions};

fn main() {
    let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let mut ctx = IoCtx::new();
    let opts = GenOptions { count_scale: 0.5, payload_scale: 0.002, ..Default::default() };
    println!("generating bag...");
    generate_bag(&fs, "/hs.bag", &opts, &mut ctx).expect("generate");
    bora::organizer::duplicate(
        &fs,
        "/hs.bag",
        &fs,
        "/bora/hs",
        &bora::OrganizerOptions::default(),
        &mut ctx,
    )
    .expect("duplicate");

    let bag = BoraBag::open(&fs, "/bora/hs", &mut ctx).expect("open");
    let reader = BagReader::open(&fs, "/hs.bag", &mut ctx).expect("baseline open");
    let (t0, t_end) = bag.time_range();
    let total = bag.meta().topic(topic::IMU).unwrap().message_count;
    let tindex = bag.load_time_index(topic::IMU, &mut ctx).unwrap();
    println!(
        "topic {}: {} messages over [{t0}, {t_end}], {} non-empty windows of {} s\n",
        topic::IMU,
        total,
        tindex.len(),
        tindex.window_ns / 1_000_000_000
    );

    println!(
        "{:>10}  {:>6}..{:<6}  {:>10}  {:>8}  {:>12}  {:>12}  {:>8}",
        "window(s)", "slot", "slot", "candidates", "matches", "bora(ms)", "rosbag(ms)", "speedup"
    );
    for w in [1.0, 5.0, 25.0, 125.0] {
        let start = t0 + RosDuration::from_sec_f64(10.0);
        let end = start + RosDuration::from_sec_f64(w);
        let (lo, hi) = tindex.slot_range(start, end);
        let candidates = tindex.candidate_entries(start, end).map(|(a, b)| b - a).unwrap_or(0);

        let mut bctx = IoCtx::new();
        let got = bag.read_topics_time(&[topic::IMU], start, end, &mut bctx).unwrap();
        let mut rctx = IoCtx::new();
        let base = reader.read_messages_time(&[topic::IMU], start, end, &mut rctx).unwrap();
        assert_eq!(got.len(), base.len());

        println!(
            "{:>10.0}  {:>6}..{:<6}  {:>10}  {:>8}  {:>12.3}  {:>12.3}  {:>7.1}x",
            w,
            lo,
            hi,
            candidates,
            got.len(),
            bctx.elapsed().as_secs_f64() * 1e3,
            rctx.elapsed().as_secs_f64() * 1e3,
            rctx.elapsed_ns() as f64 / bctx.elapsed_ns().max(1) as f64,
        );
    }
    println!(
        "\nthe baseline merge-sorts all {total} index entries for every query; \
         BORA touches only the candidate windows."
    );
    let _ = Time::ZERO;
}
