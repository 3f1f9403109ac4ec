//! bora-cluster integration: the cluster tier driven through the public
//! workspace API, end to end.
//!
//! The crate-level tests pin the ring's placement math (proptests) and
//! the failover state machine (fault injection); this file covers the
//! seams between crates: `bora::multi` swarm fan-out routed through
//! [`ClusterBackend`], the cluster-level k-way merged stream (before and
//! after a node dies mid-stream), and an elastic join resharding live
//! data without disturbing readers.

use bora::{SwarmBackend, SwarmSpec};
use bora_cluster::{
    swarm_query, ClusterBackend, ClusterClientConfig, ClusterTierConfig, LocalCluster, RingConfig,
    RoutePolicy,
};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const TOPICS: [&str; 2] = ["/imu", "/odom"];

/// Stage `robots` mission containers with distinct, recognizable content
/// per robot (seq numbers offset by robot id), returning their roots.
fn stage_fleet(staging: &MemStorage, robots: u32, msgs_per_robot: u32) -> Vec<String> {
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    for robot in 0..robots {
        let bag = format!("/stage/robot{robot}.bag");
        let mut w =
            BagWriter::create(staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for tick in 0..msgs_per_robot {
            let t = Time::from_nanos(1_000_000_000 + tick as u64 * 5_000_000);
            let mut imu = Imu::default();
            imu.header.seq = robot * 1_000_000 + tick;
            imu.header.stamp = t;
            imu.linear_acceleration.x = robot as f64;
            w.write_ros_message(TOPICS[(tick % 2) as usize], t, &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        let root = format!("/fleet/robot{robot}");
        bora::duplicate(staging, &bag, staging, &root, &Default::default(), &mut ctx).unwrap();
        roots.push(root);
    }
    roots
}

fn start_cluster(
    staging: &MemStorage,
    roots: &[String],
    nodes: u32,
) -> LocalCluster<std::sync::Arc<simfs::ClusterStorage>> {
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes,
        ring: RingConfig { vnodes: 64, replication: 2 },
        ..ClusterTierConfig::default()
    });
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(staging, &refs).unwrap();
    cluster
}

/// `bora::multi`'s swarm fan-out, rewired through the cluster router:
/// every robot's answer must equal a directly routed read, and the
/// whole swarm must keep answering identically after a node death.
#[test]
fn swarm_fan_out_routes_through_cluster_and_survives_node_death() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 5, 120);
    let cluster = start_cluster(&staging, &roots, 3);
    let client = cluster.client(ClusterClientConfig::default());

    let spec = SwarmSpec::topics(&["/imu"]);
    let swarm = swarm_query(&client, &roots, &spec).unwrap();
    assert_eq!(swarm.per_robot.len(), roots.len());

    // Each robot's lane equals the directly routed read — same messages,
    // same order — and carries that robot's distinct content.
    for (robot, (root, lane)) in roots.iter().zip(&swarm.per_robot).enumerate() {
        let direct = client.read(root, &["/imu"]).unwrap();
        assert_eq!(lane.len(), direct.len(), "robot {robot} lane length");
        for (got, want) in lane.iter().zip(&direct) {
            assert_eq!(got.topic, want.topic);
            assert_eq!(got.time, want.time);
            assert_eq!(got.data, want.data);
        }
        assert!(!lane.is_empty(), "robot {robot} returned no messages");
    }
    assert!(swarm.makespan_ns > 0, "swarm must account wall time");

    // The backend trait is public: a single-robot query through it
    // matches the fan-out's lane for that robot.
    let backend = ClusterBackend { client: &client };
    let (solo, _) = backend.query_robot(&roots[0], &spec, roots.len() as u32).unwrap();
    assert_eq!(solo.len(), swarm.per_robot[0].len());

    // Kill the node holding robot 0; the identical swarm keeps working.
    let victim = client.owner(&roots[0]).unwrap();
    cluster.kill(victim);
    let after = swarm_query(&client, &roots, &spec).unwrap();
    for (robot, (before, now)) in swarm.per_robot.iter().zip(&after.per_robot).enumerate() {
        assert_eq!(before.len(), now.len(), "robot {robot} after node death");
        for (b, n) in before.iter().zip(now) {
            assert_eq!(b.data, n.data, "robot {robot} bytes changed after failover");
        }
    }
    cluster.shutdown();
}

/// The cluster-level merged stream yields one chronological sequence
/// over many containers: `(time, lane)` ordered, byte-identical to
/// merging the per-container routed reads by the same rule.
#[test]
fn merged_stream_is_chronological_and_matches_materialized_reads() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 4, 90);
    let cluster = start_cluster(&staging, &roots, 3);
    let client =
        cluster.client(ClusterClientConfig { policy: RoutePolicy::Spread, ..Default::default() });

    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let merged: Vec<_> =
        client.read_stream_multi(&refs, &TOPICS, None).unwrap().collect::<Result<_, _>>().unwrap();

    // Expected: per-lane routed reads, k-way merged by (time, lane).
    let mut expected = Vec::new();
    for (lane, root) in roots.iter().enumerate() {
        for m in client.read(root, &TOPICS).unwrap() {
            expected.push((m.time, lane, m));
        }
    }
    expected.sort_by_key(|(t, lane, _)| (*t, *lane));

    assert_eq!(merged.len(), expected.len());
    let mut last = (Time::from_nanos(0), 0usize);
    for (got, (time, lane, want)) in merged.iter().zip(&expected) {
        assert_eq!(got.time, want.time);
        assert_eq!(got.topic, want.topic);
        assert_eq!(got.data, want.data);
        assert!((*time, *lane) >= last, "merge emitted out of (time, lane) order");
        last = (*time, *lane);
    }
    cluster.shutdown();
}

/// Cluster streams ride the one stream op (`READ_STREAM2`, LZ chunks) and
/// deliver exactly what `read` does, per container and merged — before a
/// node dies, across its death mid-stream (the resume on a replica skips
/// exactly the messages already delivered), and after.
#[test]
fn cluster_streams_match_reads_across_a_mid_stream_node_kill() {
    use bora_chaos::{ChaosState, ChaosTransport, Partition};
    use bora_cluster::ClusterClient;
    use bora_serve::{MemTransport, WireMessage};
    use std::sync::Arc;

    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 3, 200);
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let cluster = start_cluster(&staging, &roots, 3);
    // A partition is what cuts a stream mid-flight here: the in-process
    // transport buffers a node's whole answer, so killing the node alone
    // would still deliver it.
    let chaos = Arc::new(ChaosState::new(7));
    let endpoints = cluster.node_ids().into_iter().map(|id| {
        let mem = MemTransport::new(Arc::clone(&cluster.node(id).unwrap().server));
        let t = ChaosTransport::new(mem, id, Arc::clone(&chaos));
        (id, t.with_frame_timeout(std::time::Duration::from_millis(50)))
    });
    let client = ClusterClient::new(cluster.ring(), endpoints, ClusterClientConfig::default());

    let expected: Vec<Vec<WireMessage>> =
        roots.iter().map(|r| client.read(r, &TOPICS).unwrap()).collect();
    let mut merged_expected: Vec<(Time, usize, &WireMessage)> = Vec::new();
    for (lane, msgs) in expected.iter().enumerate() {
        merged_expected.extend(msgs.iter().map(|m| (m.time, lane, m)));
    }
    merged_expected.sort_by_key(|(t, lane, _)| (*t, *lane));
    let check_streams = |when: &str| {
        for (root, want) in roots.iter().zip(&expected) {
            let got: Vec<WireMessage> =
                client.read_stream(root, &TOPICS).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(&got, want, "{root} streamed {when}");
        }
        let merged: Vec<WireMessage> = client
            .read_stream_multi(&refs, &TOPICS, None)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(merged.len(), merged_expected.len());
        for (got, (_, _, want)) in merged.iter().zip(&merged_expected) {
            assert_eq!(&got, want, "merged stream {when}");
        }
    };

    check_streams("before the kill");
    // The nodes served those streams as LZ chunks.
    for id in cluster.node_ids() {
        let report = client.node_metrics(id).unwrap();
        assert!(report.counter("serve.stream_chunk_lz") > 0, "node {id} sent no LZ chunk");
    }

    // Kill robot 0's owner 70 messages in — past two 32-message chunks.
    let owner = client.owner(&roots[0]).unwrap();
    let failovers = bora_obs::counter("cluster.failover").get();
    let mut stream = client.read_stream(&roots[0], &TOPICS).unwrap();
    let mut got: Vec<WireMessage> = stream.by_ref().take(70).collect::<Result<_, _>>().unwrap();
    chaos.set_partition(Some(Partition::full([owner])));
    cluster.kill(owner);
    got.extend(stream.by_ref().collect::<Result<Vec<_>, _>>().unwrap());
    assert_eq!(stream.received(), 200);
    assert_eq!(got, expected[0], "the resumed stream must continue the broken one exactly");
    assert!(bora_obs::counter("cluster.failover").get() > failovers, "no failover was counted");

    check_streams("after the kill");
    cluster.shutdown();
}

/// An elastic join reshards live data with minimal movement: only
/// containers whose replica set gained the new node change holders, and
/// every read answers identically before and after the migration.
#[test]
fn join_resharding_moves_minimally_and_preserves_reads() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 8, 60);
    let cluster = start_cluster(&staging, &roots, 3);
    let client = cluster.client(ClusterClientConfig::default());

    let before_reads: Vec<_> = roots.iter().map(|r| client.read(r, &["/imu"]).unwrap()).collect();
    let before_dir: std::collections::BTreeMap<String, Vec<u32>> =
        cluster.directory().into_iter().collect();

    let joined = cluster.join().unwrap();
    let after_dir: std::collections::BTreeMap<String, Vec<u32>> =
        cluster.directory().into_iter().collect();

    let mut gained = 0usize;
    for (container, holders) in &after_dir {
        let old = &before_dir[container];
        if holders.contains(&joined) {
            gained += 1;
        } else {
            // Minimal movement: a container the new node did not gain
            // keeps its holder set untouched.
            assert_eq!(holders, old, "{container} moved without involving the joined node");
        }
    }
    // The new node takes roughly its share — and not everything.
    let placements = after_dir.values().map(Vec::len).sum::<usize>();
    assert!(gained > 0, "a 4th node joined but gained no containers");
    assert!(
        gained <= placements.div_ceil(2),
        "join moved {gained} of {placements} placements — far more than its share"
    );

    // A router built after the join sees the new topology; every
    // container still answers byte-identically.
    let client = cluster.client(ClusterClientConfig::default());
    for (root, before) in roots.iter().zip(&before_reads) {
        let after = client.read(root, &["/imu"]).unwrap();
        assert_eq!(&after, before, "{root} read changed across reshard");
    }
    cluster.shutdown();
}
