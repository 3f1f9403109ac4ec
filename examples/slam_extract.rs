//! SLAM front-end extraction: the paper's motivating workload.
//!
//! ```text
//! cargo run --release --example slam_extract
//! ```
//!
//! Generates a Handheld-SLAM-shaped bag (Table II composition), then runs
//! the Handheld SLAM extraction (depth + RGB image streams) two ways —
//! the traditional `rosbag` path and the BORA path — decoding the image
//! payloads and pairing depth/RGB frames by timestamp, as a real SLAM
//! front end would before feature extraction.

use bora::BoraBag;
use ros_msgs::sensor_msgs::Image;
use ros_msgs::RosMessage;
use rosbag::reader::MessageRecord;
use rosbag::BagReader;
use simfs::{DeviceModel, IoCtx, MemStorage, TimedStorage};
use workloads::tum::{generate_bag, topic, GenOptions};
use workloads::Application;

/// Pair depth and RGB frames whose stamps are within 20 ms — the standard
/// RGB-D association step.
fn associate(depth: &[MessageRecord], rgb: &[MessageRecord]) -> usize {
    const TOL_NS: u64 = 20_000_000;
    let mut pairs = 0;
    let mut j = 0usize;
    for d in depth {
        while j < rgb.len() && rgb[j].time.as_nanos() + TOL_NS < d.time.as_nanos() {
            j += 1;
        }
        if j < rgb.len() && rgb[j].time.as_nanos() <= d.time.as_nanos() + TOL_NS {
            pairs += 1;
        }
    }
    pairs
}

fn frame_stats(msgs: &[MessageRecord]) -> (usize, f64) {
    let mut bytes = 0usize;
    let mut mean_sum = 0.0f64;
    for m in msgs {
        let img = Image::from_bytes(&m.data).expect("image decodes");
        bytes += img.data.len();
        if !img.data.is_empty() {
            mean_sum += img.data.iter().map(|&b| b as f64).sum::<f64>() / img.data.len() as f64;
        }
    }
    (bytes, mean_sum / msgs.len().max(1) as f64)
}

fn main() {
    let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let mut ctx = IoCtx::new();

    println!("generating Handheld-SLAM bag (Table II shape, reduced payloads)...");
    let opts = GenOptions { count_scale: 0.25, payload_scale: 0.002, ..Default::default() };
    let bag = generate_bag(&fs, "/hs.bag", &opts, &mut ctx).expect("generate");
    println!("  {} messages, {} bytes on disk", bag.message_count, bag.file_len);

    println!("duplicating into a BORA container...");
    bora::organizer::duplicate(
        &fs,
        "/hs.bag",
        &fs,
        "/bora/hs",
        &bora::OrganizerOptions::default(),
        &mut ctx,
    )
    .expect("duplicate");

    let topics = Application::HandheldSlam.topics(0);
    println!("Handheld SLAM requires: {topics:?}");

    // --- Traditional path. ---
    let mut base_ctx = IoCtx::new();
    let reader = BagReader::open(&fs, "/hs.bag", &mut base_ctx).expect("baseline open");
    let base_depth = reader.read_messages(&[topic::DEPTH_IMAGE], &mut base_ctx).unwrap();
    let base_rgb = reader.read_messages(&[topic::RGB_IMAGE], &mut base_ctx).unwrap();
    let base_ms = base_ctx.elapsed().as_secs_f64() * 1e3;

    // --- BORA path. ---
    let mut bora_ctx = IoCtx::new();
    let bbag = BoraBag::open(&fs, "/bora/hs", &mut bora_ctx).expect("bora open");
    let bora_depth = bbag.read_topics(&[topic::DEPTH_IMAGE], &mut bora_ctx).unwrap();
    let bora_rgb = bbag.read_topics(&[topic::RGB_IMAGE], &mut bora_ctx).unwrap();
    let bora_ms = bora_ctx.elapsed().as_secs_f64() * 1e3;

    assert_eq!(base_depth.len(), bora_depth.len());
    assert_eq!(base_rgb.len(), bora_rgb.len());

    let (dbytes, dmean) = frame_stats(&bora_depth);
    let (rbytes, rmean) = frame_stats(&bora_rgb);
    let pairs = associate(&bora_depth, &bora_rgb);

    println!("\nextraction results (identical for both paths):");
    println!("  depth frames: {} ({dbytes} bytes, mean intensity {dmean:.1})", bora_depth.len());
    println!("  rgb frames:   {} ({rbytes} bytes, mean intensity {rmean:.1})", bora_rgb.len());
    println!("  associated RGB-D pairs (±20 ms): {pairs}");

    println!("\nvirtual acquisition time:");
    println!("  traditional rosbag: {base_ms:.2} ms");
    println!("  BORA:               {bora_ms:.2} ms  ({:.2}x)", base_ms / bora_ms);
}
