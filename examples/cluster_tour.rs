//! Cluster-tier walkthrough: shard a fleet's containers over a
//! replicated node set, lose a node mid-traffic, and keep answering.
//!
//! ```text
//! cargo run --example cluster_tour
//! ```
//!
//! bora-serve scales one machine; this example stands up the tier above
//! it — four in-process serve nodes behind a consistent-hash ring — and
//! walks the cluster's whole lifecycle: provisioning, routed reads of one
//! container and of the whole fleet merged into one stream, a node death
//! with transparent failover, self-healing
//! re-replication, and an elastic join that moves only the minimal set
//! of containers.

use bora_cluster::{ClusterClientConfig, ClusterTierConfig, LocalCluster, RingConfig, RoutePolicy};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

fn main() {
    // --- 1. Stage six robots' mission containers on a scratch fs. ---
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    for robot in 0..6u32 {
        let bag = format!("/stage/robot{robot}.bag");
        let mut w =
            BagWriter::create(&staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for tick in 0..500u32 {
            let t = Time::from_nanos(1_000_000_000 * 100 + tick as u64 * 10_000_000);
            let mut imu = Imu::default();
            imu.header.seq = tick;
            imu.header.stamp = t;
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        let root = format!("/fleet/robot{robot}");
        bora::duplicate(&staging, &bag, &staging, &root, &Default::default(), &mut ctx).unwrap();
        roots.push(root);
    }

    // --- 2. A 4-node cluster, every container replicated twice. ---
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes: 4,
        ring: RingConfig { vnodes: 64, replication: 2 },
        ..ClusterTierConfig::default()
    });
    let root_refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(&staging, &root_refs).unwrap();
    println!("placement (container -> replica set):");
    for (container, holders) in cluster.directory() {
        println!("  {container} -> {holders:?}");
    }

    // --- 3. A router with replica-spread reads and hedging enabled. ---
    let client = cluster.client(ClusterClientConfig {
        policy: RoutePolicy::Spread,
        hedge: Some(Default::default()),
        ..Default::default()
    });
    for (id, ping) in client.ping_all() {
        let p = ping.expect("node answers ping");
        println!(
            "node {id}: server_id={} uptime={:.1} ms queue_depth={}",
            p.server_id,
            p.uptime_ns as f64 / 1e6,
            p.queue_depth
        );
    }

    // --- 4. The whole fleet as one chronological stream: every robot's
    // container read on the node that holds it, merged by (time, robot).
    let started = std::time::Instant::now();
    let mut fleet = client.read_stream_multi(&root_refs, &["/imu"], None).unwrap();
    let fleet_msgs: Vec<_> = fleet.by_ref().collect::<Result<_, _>>().unwrap();
    assert!(fleet_msgs.windows(2).all(|w| w[0].time <= w[1].time));
    println!(
        "fleet stream over {} robots: {} messages in {:.2} ms, {} heap operations",
        roots.len(),
        fleet_msgs.len(),
        started.elapsed().as_secs_f64() * 1e3,
        fleet.heap_ops()
    );

    // --- 5. Kill a node mid-traffic: reads fail over to replicas. ---
    let victim = client.owner(&roots[0]).unwrap();
    let before = client.read(&roots[0], &["/imu"]).unwrap();
    cluster.kill(victim);
    let after = client.read(&roots[0], &["/imu"]).unwrap();
    assert_eq!(before, after);
    println!(
        "killed node {victim}; reads identical through failover ({} hops so far)",
        bora_obs::counter("cluster.failover").get()
    );

    // --- 6. Heal: drop the dead node, re-replicate what it held. ---
    let report = cluster.heal().unwrap();
    println!(
        "heal: removed {:?}, {} re-replication copies in {} batches",
        report.removed, report.copies, report.batches
    );

    // --- 7. Elastic join: a fresh node pulls only its share. ---
    let copies_before = bora_obs::counter("cluster.migrate.copies").get();
    let joined = cluster.join().unwrap();
    let moved = bora_obs::counter("cluster.migrate.copies").get() - copies_before;
    println!(
        "node {joined} joined; {moved} container copies moved (of {} placed)",
        roots.len() * 2
    );

    // The full fleet still answers, byte-identically.
    let final_read = client.read(&roots[0], &["/imu"]).unwrap();
    assert_eq!(final_read, before);
    println!("hedge threshold settled at {:?}", client.hedge_threshold());
    cluster.shutdown();
    println!("cluster stopped");
}
