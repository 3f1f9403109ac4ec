//! Swarm analysis ("Bullet Time"): every robot's RGB camera at the same
//! instant, pulled from one bag per robot — the paper's §IV.E scenario on
//! the Tianhe-1A Lustre model.
//!
//! ```text
//! cargo run --release --example swarm_analysis
//! ```

use bora::BoraBag;
use ros_msgs::{RosDuration, Time};
use rosbag::BagReader;
use simfs::{run_parallel, ClusterConfig, ClusterStorage, IoCtx};
use workloads::swarm::generate_swarm;
use workloads::tum::{topic, GenOptions};

fn main() {
    let robots = 12;
    let fs = ClusterStorage::new(ClusterConfig::tianhe_lustre());
    let mut ctx = IoCtx::new();

    println!("generating a {robots}-robot swarm on the Lustre model...");
    let opts = GenOptions { count_scale: 0.05, payload_scale: 0.004, ..Default::default() };
    let swarm = generate_swarm(&fs, "/swarm", robots, 4, &opts, &mut ctx).expect("swarm");

    println!("duplicating each distinct bag into a BORA container...");
    let mut containers = Vec::new();
    for (i, path) in swarm.bag_paths.iter().enumerate() {
        let root = format!("/bora/robot{i}");
        bora::organizer::duplicate(
            &fs,
            path,
            &fs,
            &root,
            &bora::OrganizerOptions::default(),
            &mut ctx,
        )
        .expect("duplicate");
        containers.push(root);
    }

    // The multi-angle snapshot: RGB frames in a 2-second window around t0.
    let t0 = Time::new(101, 0);
    let window = (t0, t0 + RosDuration::from_sec_f64(2.0));
    println!(
        "\nall {robots} processes extract {} in [{}, {}) simultaneously\n",
        topic::RGB_IMAGE,
        window.0,
        window.1
    );

    // Baseline: every process opens its bag the traditional way.
    let base = run_parallel(robots, |robot, ctx| {
        let bag = &swarm.bag_paths[robot % swarm.bag_paths.len()];
        let reader = BagReader::open(&fs, bag, ctx).expect("open");
        let frames =
            reader.read_messages_time(&[topic::RGB_IMAGE], window.0, window.1, ctx).expect("query");
        assert!(!frames.is_empty());
    });

    // BORA: tag-manager open + coarse time index.
    let ours = run_parallel(robots, |robot, ctx| {
        let root = &containers[robot % containers.len()];
        let bag = BoraBag::open(&fs, root, ctx).expect("open");
        let frames =
            bag.read_topics_time(&[topic::RGB_IMAGE], window.0, window.1, ctx).expect("query");
        assert!(!frames.is_empty());
    });

    let base_ms = base.makespan().as_secs_f64() * 1e3;
    let ours_ms = ours.makespan().as_secs_f64() * 1e3;
    println!("swarm makespan (virtual, max over {robots} processes):");
    println!("  traditional rosbag on Lustre: {base_ms:.2} ms");
    println!("  BORA on Lustre:               {ours_ms:.2} ms  ({:.1}x)", base_ms / ours_ms);
    println!(
        "\naggregate storage seconds: baseline {:.2}, BORA {:.2}",
        base.total_ns() as f64 / 1e9,
        ours.total_ns() as f64 / 1e9
    );
}
