//! Fleet-wide observability, end to end: trace context crossing the
//! wire, server-side spans parenting under the originating client span,
//! hedged losers and abandoned failover attempts marked cancelled, a
//! resumed cluster stream staying in its caller's trace, the untraced
//! path staying span-free, and the cluster telemetry plane aggregating
//! per-node registries.
//!
//! Tracing state is process-wide; every test that touches it serializes
//! on one lock (same idiom as `tests/obs.rs`).

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use bora_cluster::{
    ClusterClientConfig, ClusterTelemetry, ClusterTierConfig, HedgeConfig, LocalCluster, RingConfig,
};
use bora_obs::SpanEvent;
use bora_serve::Request;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stage `n` small containers on a fresh staging filesystem.
fn stage(n: usize) -> (MemStorage, Vec<String>) {
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    for i in 0..n {
        let bag = format!("/stage/m{i}.bag");
        let mut w =
            BagWriter::create(&staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for tick in 0..40u32 {
            let t = Time::from_nanos(1_000_000_000 + tick as u64 * 5_000_000);
            let mut imu = Imu::default();
            imu.header.seq = tick;
            imu.header.stamp = t;
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        let root = format!("/fleet/m{i}");
        bora::duplicate(&staging, &bag, &staging, &root, &Default::default(), &mut ctx).unwrap();
        roots.push(root);
    }
    (staging, roots)
}

fn three_node_cluster(
    staging: &MemStorage,
    roots: &[String],
) -> LocalCluster<std::sync::Arc<simfs::ClusterStorage>> {
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes: 3,
        ring: RingConfig { vnodes: 64, replication: 2 },
        ..ClusterTierConfig::default()
    });
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(staging, &refs).unwrap();
    cluster
}

/// Walk `ev`'s parent chain to its root. Panics (with context) on a
/// dangling parent reference — the exact defect this suite exists to
/// catch.
fn root_of<'a>(ev: &'a SpanEvent, by_id: &'a HashMap<u64, &'a SpanEvent>) -> &'a SpanEvent {
    let mut cur = ev;
    let mut hops = 0;
    while cur.parent_span != 0 {
        cur = by_id.get(&cur.parent_span).unwrap_or_else(|| {
            panic!(
                "span {} ({}, node {}) references missing parent {}",
                cur.span_id, cur.name, cur.node, cur.parent_span
            )
        });
        hops += 1;
        assert!(hops < 64, "parent chain cycle at {}", cur.name);
    }
    cur
}

/// The PR's acceptance scenario: a 3-node cluster under a query mix with
/// hedging forced on and a failover injected mid-run. Every server-side
/// span must resolve, through the wire-propagated context, to a client
/// root span; hedged losers and abandoned attempts must be visible as
/// cancelled siblings; and the per-node Chrome traces must merge into
/// one causally-linked timeline.
#[test]
fn server_spans_parent_under_client_roots_across_hedge_and_failover() {
    let _guard = trace_lock();
    bora_obs::set_enabled(true);
    bora_obs::drain();

    let (staging, roots) = stage(3);
    let cluster = three_node_cluster(&staging, &roots);
    // Zero hedge threshold: every read immediately issues its second leg,
    // so loser legs are guaranteed, not timing-dependent.
    let client = cluster.client(ClusterClientConfig {
        hedge: Some(HedgeConfig { min_threshold: Duration::ZERO, factor: 0.0 }),
        ..ClusterClientConfig::default()
    });

    for root in &roots {
        client.open(root).unwrap();
        client.topics(root).unwrap();
        assert_eq!(client.read(root, &["/imu"]).unwrap().len(), 40);
    }
    // Injected failover: kill one replica of roots[0] and read again —
    // the dead attempt cancels, the surviving replica answers.
    let victim = client.replicas(&roots[0])[0];
    cluster.kill(victim);
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), 40);
    // A non-hedged op against the dead owner takes the with_failover
    // path, leaving a cancelled `cluster.attempt` sibling.
    client.topics(&roots[0]).unwrap();

    bora_obs::set_enabled(false);
    let events = bora_obs::drain();
    cluster.shutdown();

    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.span_id, e)).collect();
    let server_events: Vec<&SpanEvent> = events.iter().filter(|e| e.node != 0).collect();
    assert!(!server_events.is_empty(), "no server-side spans recorded");
    for ev in &server_events {
        assert_ne!(ev.trace_id, 0, "server span {} lost its trace id", ev.name);
        let root = root_of(ev, &by_id);
        assert_eq!(
            root.node, 0,
            "server span {} (node {}) roots at {} (node {}), not at a client span",
            ev.name, ev.node, root.name, root.node
        );
        assert!(
            root.name.starts_with("cluster."),
            "server span {} roots at {:?}, not a cluster op",
            ev.name,
            root.name
        );
        assert_eq!(ev.trace_id, root.trace_id, "trace id must be stable along the chain");
    }
    // Queue-wait split crosses the wire too, as a server-side child.
    assert!(
        server_events.iter().any(|e| e.name == "serve.queue_wait" && e.parent_span != 0),
        "no parented serve.queue_wait spans"
    );

    // Hedged losers: both legs traced, winner ended, loser cancelled.
    let legs: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "cluster.hedge_leg").collect();
    assert!(legs.iter().any(|e| e.cancelled), "no hedge leg marked cancelled");
    assert!(legs.iter().any(|e| !e.cancelled), "no hedge leg won");
    // Injected failover: the dead node's attempt shows up cancelled.
    assert!(
        events.iter().any(|e| e.name == "cluster.attempt" && e.cancelled),
        "failover left no cancelled attempt span"
    );

    // Per-node exports merge into one causally-linked timeline: the same
    // parent/child references resolve inside the merged document.
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert!(nodes.len() >= 3, "expected client + at least two server lanes, got {nodes:?}");
    let parts: Vec<String> = nodes
        .iter()
        .map(|n| {
            let lane: Vec<SpanEvent> = events.iter().filter(|e| e.node == *n).cloned().collect();
            bora_obs::chrome_trace(&lane, 0)
        })
        .collect();
    let merged = bora_obs::merge_chrome_traces(&parts);
    assert!(merged.contains("\"client\""), "merged trace lost the client lane");
    assert!(merged.contains("\"node-0\""), "merged trace lost the node lanes");
    for ev in &server_events {
        assert!(
            merged.contains(&format!("\"span_id\":{},", ev.parent_span)),
            "merged trace cannot resolve parent {} of {}",
            ev.parent_span,
            ev.name
        );
    }
}

/// A cluster stream that loses its node mid-flight resumes on a replica
/// inside the same trace: the request re-issued on the fresh connection
/// carries the span open at resume time, so both nodes' `serve.read_stream`
/// spans parent under the one caller span.
#[test]
fn resumed_cluster_stream_stays_in_the_callers_trace() {
    use bora_chaos::{ChaosState, ChaosTransport, Partition};
    use bora_cluster::ClusterClient;
    use bora_serve::MemTransport;
    use std::sync::Arc;

    let _guard = trace_lock();
    let (staging, roots) = stage(1);
    let cluster = three_node_cluster(&staging, &roots);
    // A partition is what cuts a stream mid-flight here: the in-process
    // transport buffers a node's whole answer, so killing the node alone
    // would still deliver it.
    let chaos = Arc::new(ChaosState::new(1));
    let endpoints = cluster.node_ids().into_iter().map(|id| {
        let mem = MemTransport::new(Arc::clone(&cluster.node(id).unwrap().server));
        let t = ChaosTransport::new(mem, id, Arc::clone(&chaos));
        (id, t.with_frame_timeout(Duration::from_millis(50)))
    });
    let client = ClusterClient::new(cluster.ring(), endpoints, ClusterClientConfig::default());
    let expected = client.read(&roots[0], &["/imu"]).unwrap();
    let owner = client.owner(&roots[0]).unwrap();

    bora_obs::set_enabled(true);
    bora_obs::drain();
    let caller = bora_obs::span("cluster.test_stream");
    let mut stream = client.read_stream(&roots[0], &["/imu"]).unwrap();
    // 40 messages are two chunks; the first is in hand when the owner goes.
    let mut got: Vec<_> = stream.by_ref().take(8).collect::<Result<_, _>>().unwrap();
    chaos.set_partition(Some(Partition::full([owner])));
    cluster.kill(owner);
    got.extend(stream.collect::<Result<Vec<_>, _>>().unwrap());
    drop(caller);
    bora_obs::set_enabled(false);
    let events = bora_obs::drain();
    cluster.shutdown();

    assert_eq!(got, expected, "the resumed stream must continue the broken one exactly");
    let caller = events.iter().find(|e| e.name == "cluster.test_stream").unwrap();
    let served: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "serve.read_stream").collect();
    let mut nodes: Vec<u32> = served.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), 2, "the stream was served by the owner, then a replica: {nodes:?}");
    for ev in served {
        assert_eq!(ev.trace_id, caller.trace_id, "node {} left the trace", ev.node);
        assert_eq!(
            ev.parent_span, caller.span_id,
            "node {} span is not the caller's child",
            ev.node
        );
    }
}

/// With tracing disabled there is no sampling, no context, no spans.
#[test]
fn untraced_path_is_span_free() {
    let _guard = trace_lock();
    bora_obs::set_enabled(false);
    bora_obs::drain();
    assert_eq!(bora_obs::current_context(), None);

    // End to end: a full query mix with tracing off records nothing.
    let (staging, roots) = stage(1);
    let cluster = three_node_cluster(&staging, &roots);
    let client = cluster.client(ClusterClientConfig::default());
    client.open(&roots[0]).unwrap();
    client.read(&roots[0], &["/imu"]).unwrap();
    cluster.shutdown();
    assert!(bora_obs::drain().is_empty(), "tracing off must record no spans");
}

/// One envelope for traced and untraced requests: the two encodings of a
/// request differ only in the header, and decode to the same request.
#[test]
fn traced_and_untraced_frames_differ_only_in_the_header() {
    let req = Request::Read {
        container: "/fleet/m0".into(),
        topics: vec!["/imu".into()],
        range: Some((Time::new(1, 0), Time::new(2, 0))),
    };
    let ctx = bora_obs::TraceContext { trace_id: 7, parent_span: 9, sampled: true };
    let (plain, traced) = (req.encode_framed(None, None), req.encode_framed(Some(ctx), None));

    // flags u8, then — traced only — trace_id u64 and parent_span u64.
    assert_eq!(traced.len(), plain.len() + 16);
    assert_eq!(plain[0], 0);
    assert_ne!(traced[0], 0);
    assert_eq!(traced[17..], plain[1..], "everything after the header is the same bytes");

    assert_eq!(Request::decode_framed(&plain).unwrap(), (req.clone(), None, None));
    assert_eq!(Request::decode_framed(&traced).unwrap(), (req, Some(ctx), None));
}

/// A context with the sampling bit off crosses the wire but must not
/// produce spans on the receiving side.
#[test]
fn unsampled_context_is_carried_but_not_adopted() {
    let _guard = trace_lock();
    bora_obs::set_enabled(true);
    bora_obs::drain();

    let off = bora_obs::TraceContext { trace_id: 42, parent_span: 43, sampled: false };
    let req = Request::Stats;
    let (_, decoded, _) = Request::decode_framed(&req.encode_framed(Some(off), None)).unwrap();
    assert_eq!(decoded, Some(off), "the bit travels; the receiver decides");

    // Adoption filters it: spans recorded under it are fresh roots, not
    // children of the unsampled remote span.
    {
        let _g = bora_obs::adopt_context(decoded);
        assert_eq!(bora_obs::current_context(), None);
        let sp = bora_obs::span("fleet.unsampled_child");
        drop(sp);
    }
    bora_obs::set_enabled(false);
    let events = bora_obs::drain();
    let ev = events.iter().find(|e| e.name == "fleet.unsampled_child").unwrap();
    assert_eq!(ev.parent_span, 0, "unsampled context must not parent local spans");
    assert_ne!(ev.trace_id, 42, "unsampled trace id must not leak into local roots");
}

/// The telemetry plane against a live cluster: scraping all nodes sums
/// counters across exactly the nodes that served, and a second scrape's
/// deltas reflect only the traffic in between.
#[test]
fn cluster_telemetry_aggregates_live_nodes_and_tracks_deltas() {
    let (staging, roots) = stage(2);
    let cluster = three_node_cluster(&staging, &roots);
    let client = cluster.client(ClusterClientConfig::default());
    for root in &roots {
        client.topics(root).unwrap();
        client.read(root, &["/imu"]).unwrap();
    }

    let telemetry = ClusterTelemetry::new(client.clone());
    let first = telemetry.scrape();
    assert_eq!(first.reports.len(), 3, "all three nodes must answer");
    assert!(first.unreachable.is_empty());
    // Each `topics` and `read` hit exactly one replica; the cluster-wide
    // sum sees all of them regardless of placement.
    let topics_hist = first.aggregate.hist("serve.op.topics.wall_ns").unwrap();
    assert_eq!(topics_hist.count, 2, "two topics calls cluster-wide");
    assert_eq!(first.aggregate.hist("serve.op.read.wall_ns").unwrap().count, 2);
    // Per-node counts split the same total.
    let per_node: u64 = first
        .reports
        .iter()
        .filter_map(|(_, r)| r.hist("serve.op.read.wall_ns"))
        .map(|h| h.count)
        .sum();
    assert_eq!(per_node, 2);

    // Quiet interval → second scrape's read delta is empty; one more
    // read → third scrape shows exactly it.
    let second = telemetry.scrape();
    let read_delta = |scrape: &bora_cluster::ClusterScrape| -> u64 {
        scrape
            .deltas
            .iter()
            .flat_map(|(_, d)| d.iter())
            .filter(|(name, _)| name == "serve.op.read.wall_ns.count")
            .map(|&(_, v)| v)
            .sum()
    };
    assert_eq!(read_delta(&second), 0, "no traffic, no delta");
    client.read(&roots[0], &["/imu"]).unwrap();
    let third = telemetry.scrape();
    assert_eq!(read_delta(&third), 1, "exactly the one read since the last scrape");

    // METRICS is control-plane: even a node that has begun shutting down
    // still answers the poller (an overloaded or dying node is exactly
    // the one telemetry must not go blind on).
    let victim = cluster.node_ids()[0];
    cluster.kill(victim);
    let after = telemetry.scrape();
    assert_eq!(
        after.reports.len(),
        3,
        "shutting-down nodes still answer METRICS; unreachable: {:?}",
        after.unreachable
    );
    cluster.shutdown();
}

/// A node whose transport is dead degrades the scrape to an
/// `unreachable` row instead of killing the sweep.
#[test]
fn unreachable_nodes_degrade_the_scrape_not_the_sweep() {
    use bora_cluster::{ClusterClient, Ring, RingConfig};
    use bora_serve::TcpTransport;
    use std::sync::{Arc, RwLock};

    // Port from the ephemeral range bound to nothing: connects are
    // refused immediately.
    let dead = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap()
        // listener dropped here — the port is free again
    };
    let ring = Arc::new(RwLock::new(Ring::with_nodes(RingConfig::default(), 1)));
    let client = ClusterClient::new(ring, [(0u32, TcpTransport::new(dead))], Default::default());
    let telemetry = ClusterTelemetry::new(client);
    let scrape = telemetry.scrape();
    assert!(scrape.reports.is_empty());
    assert_eq!(scrape.unreachable.len(), 1);
    assert_eq!(scrape.unreachable[0].0, 0);
    assert_eq!(scrape.aggregate.nodes, 0);
    // The render degrades gracefully too.
    let table = bora_cluster::render_top(&scrape);
    assert!(table.contains("node 0: unreachable"), "{table}");
}
