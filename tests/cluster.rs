//! bora-cluster integration: the cluster tier driven through the public
//! workspace API, end to end.
//!
//! The crate-level tests pin the ring's placement math (proptests) and
//! the failover state machine (fault injection); this file covers the
//! seams between crates: many containers read through the router one by
//! one and as one k-way merged stream (before and after a node dies, and
//! across a node cut off mid-stream), a merge that ends on a lane's error
//! without losing what that lane delivered, and an elastic join
//! resharding live data without disturbing readers.

use bora_chaos::{ChaosRule, ChaosState, ChaosTransport, NetFault, Partition};
use bora_cluster::{
    ClusterClient, ClusterClientConfig, ClusterTierConfig, LocalCluster, RetryBudgetConfig,
    RingConfig, RoutePolicy,
};
use bora_serve::{ChunkMessage, ClientError, MemTransport, WireMessage};
use ros_msgs::sensor_msgs::Image;
use ros_msgs::{RosMessage, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};
use std::sync::Arc;

const TOPICS: [&str; 2] = ["/imu", "/odom"];

/// Stage `robots` mission containers with distinct, recognizable content
/// per robot (seq numbers offset by robot id), returning their roots.
/// Robot `r`'s mission starts `r × stagger_ns` after robot 0's. Each
/// message is a 2 KiB image, so a stream's chunks hold 32 messages: its
/// 64 KiB floor and its 32-message floor fall together.
fn stage_fleet(
    staging: &MemStorage,
    robots: u32,
    msgs_per_robot: u32,
    stagger_ns: u64,
) -> Vec<String> {
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    for robot in 0..robots {
        let bag = format!("/stage/robot{robot}.bag");
        let mut w =
            BagWriter::create(staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for tick in 0..msgs_per_robot {
            let t = Time::from_nanos(
                1_000_000_000 + robot as u64 * stagger_ns + tick as u64 * 5_000_000,
            );
            let mut image = Image { height: 32, width: 64, step: 64, ..Image::default() };
            image.header.seq = robot * 1_000_000 + tick;
            image.header.stamp = t;
            image.encoding = "mono8".into();
            image.data = vec![robot as u8; 2048];
            w.write_ros_message(TOPICS[(tick % 2) as usize], t, &image, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        let root = format!("/fleet/robot{robot}");
        bora::duplicate(staging, &bag, staging, &root, &Default::default(), &mut ctx).unwrap();
        roots.push(root);
    }
    roots
}

/// The robot a staged message came from.
fn robot_of(data: &[u8]) -> u32 {
    Image::from_bytes(data).unwrap().header.seq / 1_000_000
}

fn start_cluster(
    staging: &MemStorage,
    roots: &[String],
    nodes: u32,
) -> LocalCluster<Arc<simfs::ClusterStorage>> {
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes,
        ring: RingConfig { vnodes: 64, replication: 2 },
        ..ClusterTierConfig::default()
    });
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(staging, &refs).unwrap();
    cluster
}

/// A router whose node transports run through one [`ChaosState`], so a
/// [`Partition`] can cut a stream mid-flight: the in-process transport
/// buffers a node's whole answer, so killing the node alone would still
/// deliver it.
fn chaos_client(
    cluster: &LocalCluster<Arc<simfs::ClusterStorage>>,
    cfg: ClusterClientConfig,
) -> (ClusterClient<impl bora_serve::Transport + Send + Sync + 'static>, Arc<ChaosState>) {
    let chaos = Arc::new(ChaosState::new(7));
    let endpoints = cluster.node_ids().into_iter().map(|id| {
        let mem = MemTransport::new(Arc::clone(&cluster.node(id).unwrap().server));
        let t = ChaosTransport::new(mem, id, Arc::clone(&chaos));
        (id, t.with_frame_timeout(std::time::Duration::from_millis(50)))
    });
    (ClusterClient::new(cluster.ring(), endpoints, cfg), chaos)
}

/// Per-container routed reads merged by `(time, lane)`: what a merged
/// stream over them must deliver, and how many of its picks change lane
/// — the merge's exact heap operations.
fn merge_reads(reads: &[Vec<WireMessage>]) -> (Vec<WireMessage>, u64) {
    let mut keyed: Vec<(Time, usize, &WireMessage)> = Vec::new();
    for (lane, msgs) in reads.iter().enumerate() {
        keyed.extend(msgs.iter().map(|m| (m.time, lane, m)));
    }
    keyed.sort_by_key(|(t, lane, _)| (*t, *lane));
    let changes = keyed.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
    (keyed.into_iter().map(|(_, _, m)| m.clone()).collect(), changes)
}

/// Many containers through the router: each robot's routed read carries
/// that robot's own content; a `read_stream_multi` over one container is
/// that read and never touches the heap; over robots whose missions
/// follow one another it is each robot's read in turn, at one heap
/// operation per hand-over — the lead lane's skip, across nodes.
#[test]
fn fleet_reads_route_through_the_cluster_alone_and_merged() {
    let staging = MemStorage::new();
    // 120 messages 5 ms apart: a mission lasts 0.6 s, and the next robot
    // starts a second after the one before.
    let roots = stage_fleet(&staging, 5, 120, 1_000_000_000);
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let cluster = start_cluster(&staging, &roots, 3);
    let client = cluster.client(ClusterClientConfig::default());

    let mut reads = Vec::new();
    for (robot, root) in refs.iter().enumerate() {
        let read = client.read(root, &["/imu"]).unwrap();
        assert_eq!(read.len(), 60, "robot {robot}");
        assert!(read.iter().all(|m| robot_of(&m.data) == robot as u32), "robot {robot}'s content");
        let mut alone = client.read_stream_multi(&[root], &["/imu"], None).unwrap();
        let streamed: Vec<ChunkMessage> = alone.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(streamed, read, "robot {robot} streamed alone");
        assert_eq!(alone.heap_ops(), 0, "one lane never touches the heap");
        reads.push(read);
    }
    let mut merged = client.read_stream_multi(&refs, &["/imu"], None).unwrap();
    let got: Vec<ChunkMessage> = merged.by_ref().collect::<Result<_, _>>().unwrap();
    assert_eq!(got, reads.concat(), "staggered missions merge robot after robot");
    assert_eq!(merged.heap_ops(), roots.len() as u64 - 1, "one heap operation per hand-over");
    cluster.shutdown();
}

/// The cluster-level merged stream yields one chronological sequence
/// over many containers: `(time, lane)` ordered, byte-identical to
/// merging the per-container routed reads by the same rule, with exactly
/// one heap operation per change of lane — and the same bytes again once
/// robot 0's owner is dead.
#[test]
fn merged_stream_is_chronological_and_matches_materialized_reads() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 4, 90, 0);
    let cluster = start_cluster(&staging, &roots, 3);
    let client =
        cluster.client(ClusterClientConfig { policy: RoutePolicy::Spread, ..Default::default() });

    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let mut stream = client.read_stream_multi(&refs, &TOPICS, None).unwrap();
    let merged: Vec<ChunkMessage> = stream.by_ref().collect::<Result<_, _>>().unwrap();

    // Expected: per-lane routed reads, k-way merged by (time, lane).
    let reads: Vec<Vec<WireMessage>> =
        refs.iter().map(|r| client.read(r, &TOPICS).unwrap()).collect();
    let (expected, lane_changes) = merge_reads(&reads);
    assert_eq!(merged, expected);
    assert!(merged.windows(2).all(|w| w[0].time <= w[1].time), "merge out of time order");
    // Every robot ticks at the same instants, so the lanes take turns.
    assert_eq!(lane_changes, merged.len() as u64 - 1);
    assert_eq!(stream.heap_ops(), lane_changes);

    // Kill the node holding robot 0: the identical merge keeps answering.
    let victim = client.owner(&roots[0]).unwrap();
    cluster.kill(victim);
    let after: Vec<ChunkMessage> =
        client.read_stream_multi(&refs, &TOPICS, None).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(after, merged, "merged stream after robot 0's owner died");
    cluster.shutdown();
}

/// Cluster streams ride the one stream op (`READ_STREAM2`) and
/// deliver exactly what `read` does, per container and merged — before a
/// node dies, across its death mid-stream (the resume on a replica skips
/// exactly the messages already delivered), and after.
#[test]
fn cluster_streams_match_reads_across_a_mid_stream_node_kill() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 3, 200, 0);
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let cluster = start_cluster(&staging, &roots, 3);
    let (client, chaos) = chaos_client(&cluster, ClusterClientConfig::default());

    let expected: Vec<Vec<WireMessage>> =
        roots.iter().map(|r| client.read(r, &TOPICS).unwrap()).collect();
    let (merged_expected, _) = merge_reads(&expected);
    let check_streams = |when: &str| {
        for (root, want) in roots.iter().zip(&expected) {
            let got: Vec<ChunkMessage> =
                client.read_stream(root, &TOPICS, None).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(&got, want, "{root} streamed {when}");
        }
        let merged: Vec<ChunkMessage> = client
            .read_stream_multi(&refs, &TOPICS, None)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(merged, merged_expected, "merged stream {when}");
    };

    check_streams("before the kill");

    // Kill robot 0's owner 70 messages in — past two 32-message chunks —
    // with robot 0's stream and a merged one both open on it.
    let owner = client.owner(&roots[0]).unwrap();
    let failovers = bora_obs::counter("cluster.failover").get();
    let mut stream = client.read_stream(&roots[0], &TOPICS, None).unwrap();
    let mut merged = client.read_stream_multi(&refs, &TOPICS, None).unwrap();
    let mut got: Vec<ChunkMessage> = stream.by_ref().take(70).collect::<Result<_, _>>().unwrap();
    let mut got_merged: Vec<ChunkMessage> =
        merged.by_ref().take(3 * 70).collect::<Result<_, _>>().unwrap();
    chaos.set_partition(Some(Partition::full([owner])));
    cluster.kill(owner);
    got.extend(stream.by_ref().collect::<Result<Vec<_>, _>>().unwrap());
    assert_eq!(stream.received(), 200);
    assert_eq!(got, expected[0], "the resumed stream must continue the broken one exactly");
    got_merged.extend(merged.collect::<Result<Vec<_>, _>>().unwrap());
    assert_eq!(got_merged, merged_expected, "the merge must continue across the resume");
    assert!(bora_obs::counter("cluster.failover").get() > failovers, "no failover was counted");

    check_streams("after the kill");
    cluster.shutdown();
}

/// A lane that fails mid-merge, with no retry budget left to resume it,
/// ends the merged stream — after every message the lanes delivered
/// before the failure, the failed lane's last one included: the `Err`
/// follows exactly a `(time, lane)`-sorted prefix of the full merge, and
/// that prefix ends on the failed lane.
#[test]
fn a_failed_lane_ends_the_merge_after_what_it_delivered() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 3, 200, 0);
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    let cluster = start_cluster(&staging, &roots, 3);
    let no_retries = RetryBudgetConfig { capacity: 0.0, ..Default::default() };
    let cfg = ClusterClientConfig { retry_budget: Some(no_retries), ..Default::default() };
    let (client, chaos) = chaos_client(&cluster, cfg);
    let reads: Vec<Vec<WireMessage>> =
        refs.iter().map(|r| client.read(r, &TOPICS).unwrap()).collect();
    let (expected, _) = merge_reads(&reads);

    // Cut off a node that serves exactly one lane (the owner serves it).
    let owners: Vec<_> = refs.iter().map(|r| client.owner(r).unwrap()).collect();
    let lane = (0..owners.len())
        .find(|&l| owners.iter().filter(|&&o| o == owners[l]).count() == 1)
        .expect("some node owns exactly one robot");
    let denied = bora_obs::counter("cluster.retry_budget_denied").get();
    let mut merged = client.read_stream_multi(&refs, &TOPICS, None).unwrap();
    let mut before: Vec<ChunkMessage> =
        merged.by_ref().take(3 * 40).collect::<Result<_, _>>().unwrap();
    chaos.set_partition(Some(Partition::full([owners[lane]])));
    let err = loop {
        match merged.next() {
            Some(Ok(m)) => before.push(m),
            Some(Err(e)) => break e,
            None => panic!("the partitioned lane never failed"),
        }
    };
    assert!(bora_cluster::client::should_failover(&err), "{err}");
    assert!(bora_obs::counter("cluster.retry_budget_denied").get() > denied, "no resume denied");
    assert!(merged.next().is_none(), "a failed merge is over");
    assert!(before.len() < expected.len());
    assert_eq!(before, expected[..before.len()], "a (time, lane)-sorted prefix");
    assert_eq!(
        robot_of(&before.last().unwrap().data),
        lane as u32,
        "the failed lane's last message"
    );
    chaos.set_partition(None);
    cluster.shutdown();
}

/// A chunk lost on the way shows only in the stream's end frame, after
/// the messages behind it were handed out: the cluster stream ends with
/// the count error instead of resuming on a replica at `fetched`, which
/// would paper over the gap.
#[test]
fn a_lost_chunk_ends_a_cluster_stream_with_its_count() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 1, 200, 0);
    let cluster = start_cluster(&staging, &roots, 3);
    let (client, chaos) = chaos_client(&cluster, ClusterClientConfig::default());
    let expected = client.read(&roots[0], &TOPICS).unwrap();
    assert_eq!(expected.len(), 200, "seven chunks");
    // Event `at` is the request, `at + 1` the first chunk: drop the second.
    let at = chaos.events();
    chaos.set_rules(vec![ChaosRule::new(NetFault::Drop).on_recv().window(at + 2, at + 3)]);
    let mut results: Vec<_> = client.read_stream(&roots[0], &TOPICS, None).unwrap().collect();
    assert_eq!(chaos.faults_injected(), 1);
    let last = results.pop().unwrap();
    let delivered: Vec<ChunkMessage> = results.into_iter().map(Result::unwrap).collect();
    assert_eq!(delivered.len(), 200 - 32, "no replica filled the gap");
    assert_eq!(delivered[..32], expected[..32]);
    assert_eq!(delivered[32..], expected[64..]);
    assert!(matches!(last, Err(ClientError::StreamCount { received: 168, sent: 200 })), "{last:?}");
    cluster.shutdown();
}

/// An elastic join reshards live data with minimal movement: only
/// containers whose replica set gained the new node change holders, and
/// every read answers identically before and after the migration.
#[test]
fn join_resharding_moves_minimally_and_preserves_reads() {
    let staging = MemStorage::new();
    let roots = stage_fleet(&staging, 8, 60, 0);
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
