//! Observing a cluster: cross-node traces, fleet telemetry, SLOs, and
//! the slow-op log — the full observability plane in one walkthrough.
//!
//! ```text
//! cargo run --example observe_cluster
//! BORA_TRACE=1 BORA_TRACE_OUT=fleet.trace.json cargo run --example observe_cluster
//! ```
//!
//! With tracing on, the run writes a single Chrome trace (load it in
//! ui.perfetto.dev) where every server-side span — queue wait included —
//! parents under the client span that caused it, across all three node
//! lanes; hedged loser legs and abandoned failover attempts appear as
//! cancelled siblings.

use std::time::Duration;

use bora_cluster::{
    ClusterClientConfig, ClusterTelemetry, ClusterTierConfig, HedgeConfig, LocalCluster, RingConfig,
};
use bora_obs::SloTarget;
use bora_serve::Op;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

fn main() {
    // Honour BORA_TRACE / BORA_TRACE_OUT from the environment.
    bora_obs::init_from_env();

    // --- 1. Stage three mission containers. ---
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    for robot in 0..3u32 {
        let bag = format!("/stage/robot{robot}.bag");
        let mut w =
            BagWriter::create(&staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for tick in 0..300u32 {
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

    // --- 2. A 3-node cluster, replicated 2×, with an aggressive slow-op
    //        threshold so the in-memory demo actually logs a tail. ---
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes: 3,
        ring: RingConfig { vnodes: 64, replication: 2 },
        server: bora_serve::ServerConfig {
            slow_op_threshold_ns: 100_000, // 100µs
            ..Default::default()
        },
        ..ClusterTierConfig::default()
    });
    let root_refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(&staging, &root_refs).unwrap();

    // Latency objectives, registered on every node: reads must keep
    // their p99 under 50ms, opens under 10ms.
    for id in cluster.node_ids() {
        let node = cluster.node(id).unwrap();
        node.server.set_slo_target(Op::ReadStream, SloTarget::p99(50_000_000));
        node.server.set_slo_target(Op::Open, SloTarget::p99(10_000_000));
    }

    // --- 3. Traffic: hedged reads, plus one injected node death so the
    //        trace shows failover. ---
    let client = cluster.client(ClusterClientConfig {
        hedge: Some(HedgeConfig { min_threshold: Duration::from_micros(50), factor: 3.0 }),
        ..ClusterClientConfig::default()
    });
    for round in 0..10 {
        for root in &roots {
            client.topics(root).unwrap();
            let msgs = client.read(root, &["/imu"]).unwrap();
            assert_eq!(msgs.len(), 300);
            if round % 3 == 0 {
                client.stat(root).unwrap();
            }
        }
    }
    let victim = client.replicas(&roots[0])[0];
    println!("killing node {victim} mid-traffic...");
    cluster.kill(victim);
    client.topics(&roots[0]).unwrap(); // fails over; attempt span cancelled
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), 300);

    // --- 4. The telemetry plane: scrape every node, render `top`. ---
    let telemetry = ClusterTelemetry::new(client.clone());
    let scrape = telemetry.scrape();
    println!("\n=== bora-tool top (one scrape) ===");
    print!("{}", bora_cluster::render_top(&scrape));
    println!(
        "\ncluster-wide reads: {} (summed over {} nodes; hedged losers included)",
        scrape.aggregate.hist("serve.op.read_stream.wall_ns").map(|h| h.count).unwrap_or(0),
        scrape.aggregate.nodes,
    );

    // --- 5. SLO verdicts per node. ---
    println!("\n=== SLO status ===");
    for id in cluster.node_ids() {
        let node = cluster.node(id).unwrap();
        for s in node.server.slo_statuses() {
            println!(
                "node {id} {:<6} p99 {:>9}ns (target {:>9}ns) samples {:>4} breached={} ({} total)",
                s.name, s.p99_ns, s.target.p99_ns, s.samples, s.breached, s.breaches
            );
        }
    }

    cluster.shutdown();

    // --- 6. One merged Chrome trace for the whole fleet run. ---
    match bora_obs::write_trace_if_enabled("fleet.trace.json") {
        Ok(Some(path)) => println!("\nmerged fleet trace written to {}", path.display()),
        Ok(None) => println!("\n(set BORA_TRACE=1 to capture the merged fleet trace)"),
        Err(e) => eprintln!("trace write failed: {e}"),
    }
}
