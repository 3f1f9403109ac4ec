//! bora-serve integration: the full protocol stack over both transports,
//! error mapping, and backend fault injection.
//!
//! The deterministic concurrency scenarios (hot cache, eviction churn,
//! overload shedding) live in `tests/concurrency.rs`; this file covers
//! the seams those skip: real TCP framing, protocol-level errors, and a
//! faulty storage backend under the running service.

use bora_repro::*;

use bora::{BoraBag, OrganizerOptions};
use bora_serve::{
    spawn_tcp_listener, ClientError, ErrorCode, MemTransport, RetryClient, RetryPolicy,
    ServeClient, Server, ServerConfig, TcpTransport,
};
use simfs::{FaultKind, FaultRule, FaultyStorage, IoCtx, MemStorage, Storage};
use std::sync::Arc;
use workloads::tum::GenOptions;

/// One generated Handheld-SLAM bag organized into `n` containers
/// `/srv0..`, on any storage backend.
fn build_containers<S: simfs::Storage>(fs: &S, n: usize) -> Vec<String> {
    let mut ctx = IoCtx::new();
    let opts = GenOptions {
        count_scale: 0.05,
        payload_scale: 0.003,
        seed: 0x5e,
        writer: rosbag::BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        ..Default::default()
    };
    workloads::tum::generate_bag(fs, "/hs.bag", &opts, &mut ctx).unwrap();
    (0..n)
        .map(|k| {
            let root = format!("/srv{k}");
            bora::organizer::duplicate(
                fs,
                "/hs.bag",
                fs,
                &root,
                &OrganizerOptions::default(),
                &mut ctx,
            )
            .unwrap();
            root
        })
        .collect()
}

#[test]
fn tcp_transport_end_to_end() {
    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 2);
    let mut ctx = IoCtx::new();
    let direct = BoraBag::open(Arc::clone(&fs), &roots[0], &mut ctx).unwrap();
    let expected_imu = direct.read_topic("/imu", &mut ctx).unwrap().len();
    let mut expected_topics: Vec<String> = direct.topics().into_iter().map(str::to_owned).collect();
    expected_topics.sort();
    drop(direct);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let listener = spawn_tcp_listener(Arc::clone(&server), "127.0.0.1:0".parse().unwrap()).unwrap();
    let transport = TcpTransport::new(listener.addr());

    // Several clients over real sockets, concurrently.
    std::thread::scope(|scope| {
        for worker in 0..3 {
            let transport = &transport;
            let roots = &roots;
            let expected_topics = &expected_topics;
            scope.spawn(move || {
                let mut client = ServeClient::connect(transport).unwrap();
                for round in 0..3 {
                    let root = &roots[(worker + round) % roots.len()];
                    assert_eq!(&client.topics(root).unwrap(), expected_topics);
                    let msgs = client.read(root, &["/imu"]).unwrap();
                    assert_eq!(msgs.len(), expected_imu);
                    // Messages arrive time-ordered through the wire too.
                    for pair in msgs.windows(2) {
                        assert!(pair[0].time <= pair[1].time);
                    }
                }
            });
        }
    });

    let mut client = ServeClient::connect(&transport).unwrap();
    let stat = client.stat(&roots[0]).unwrap();
    assert!(stat.messages > 0);
    assert!(stat.topics as usize >= expected_topics.len());

    // The container's raw metadata survives the trip byte-exact.
    let meta_bytes = client.meta(&roots[0]).unwrap();
    let meta = bora::ContainerMeta::decode(&meta_bytes).unwrap();
    assert_eq!(meta.message_count(), stat.messages);

    let snap = client.stats().unwrap();
    assert_eq!(snap.shed, 0);
    assert!(snap.cache_hits > 0);

    // SHUTDOWN over TCP stops the acceptor; join must not hang.
    client.shutdown().unwrap();
    listener.join();
    server.shutdown();
}

#[test]
fn unknown_container_and_topic_map_to_typed_errors() {
    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    // A path that does not exist at all fails at the storage layer...
    match client.topics("/nonexistent") {
        Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
        other => panic!("expected Io, got {other:?}"),
    }
    // ...while an existing directory with no container layout inside is
    // diagnosed as such.
    {
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/empty", &mut ctx).unwrap();
    }
    match client.topics("/empty") {
        Err(ClientError::Server { code: ErrorCode::NotAContainer, .. }) => {}
        other => panic!("expected NotAContainer, got {other:?}"),
    }
    // A static container that lacks a requested topic: both read ops say
    // so, while a query skips the absent topic and answers from the ones
    // that exist (a fleet query runs over heterogeneous containers).
    match client.read(&roots[0], &["/imu", "/no/such/topic"]) {
        Err(ClientError::Server { code: ErrorCode::UnknownTopic, .. }) => {}
        other => panic!("expected UnknownTopic, got {other:?}"),
    }
    let streamed: Vec<_> =
        client.read_stream(&roots[0], &["/imu", "/no/such/topic"]).unwrap().collect();
    match streamed.as_slice() {
        [Err(ClientError::Server { code: ErrorCode::UnknownTopic, .. })] => {}
        other => panic!("expected one UnknownTopic, got {other:?}"),
    }
    let imu = client.read(&roots[0], &["/imu"]).unwrap().len() as i64;
    let counted = client.query(&roots[0], "SELECT count() FROM '/imu', '/no/such/topic'").unwrap();
    assert_eq!(counted.rows, vec![vec![bora_query::Value::Int(imu)]]);
    // The connection survives server-side errors.
    assert!(!client.topics(&roots[0]).unwrap().is_empty());
    server.shutdown();
}

#[test]
fn backend_fault_becomes_protocol_error_without_poisoning_the_cache() {
    let fs = Arc::new(FaultyStorage::new(MemStorage::new()));
    let roots = build_containers(&*fs, 2);

    let server = Server::start(
        Arc::clone(&fs),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    // Warm /srv0; count its messages while the backend is healthy.
    let healthy = client.read(&roots[0], &["/imu"]).unwrap().len();
    assert!(healthy > 0);
    let warm_snap = client.stats().unwrap();
    assert_eq!(warm_snap.cache_len, 1);

    // Fault every read under /srv1: the cold open must fail cleanly.
    // (`BoraBag::open` folds a failed metadata read into NotAContainer —
    // from the opener's seat an unreadable container and a missing one
    // look the same.)
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("/srv1".into()),
        ..FaultRule::default()
    });
    match client.open(&roots[1]) {
        Err(ClientError::Server { code: ErrorCode::NotAContainer, .. }) => {}
        other => panic!("expected NotAContainer error, got {other:?}"),
    }
    // The failed open must not leave a half-built handle behind.
    let snap = client.stats().unwrap();
    assert_eq!(snap.cache_len, 1, "failed open must not be cached");

    // The healthy container is unaffected while the fault is live, and
    // the pool keeps serving (same client, same workers).
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), healthy);

    // Fault cleared: the service recovers without a restart.
    fs.clear_faults();
    let (_, cached) = client.open(&roots[1]).unwrap();
    assert!(!cached, "the faulted open must not have cached anything");
    assert_eq!(client.read(&roots[1], &["/imu"]).unwrap().len(), healthy);

    // Now fault the *data* path of the already-cached /srv0: the READ
    // fails with a typed error, but the cached handle itself is fine —
    // once the backend recovers, the same handle serves correct data.
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("/srv0/imu".into()),
        ..FaultRule::default()
    });
    match client.read(&roots[0], &["/imu"]) {
        Err(ClientError::Server { code: ErrorCode::Io, .. }) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
    fs.clear_faults();
    let before = client.stats().unwrap().cache_hits;
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), healthy);
    let after = client.stats().unwrap();
    assert!(after.cache_hits > before, "recovery read must come from the cached handle");

    server.shutdown();
}

#[test]
fn retry_client_completes_query_mix_under_transient_faults() {
    let fs = Arc::new(FaultyStorage::new(MemStorage::new()));
    let roots = build_containers(&*fs, 2);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay_ms: 0, // schedule shape is unit-tested; keep this test fast
        max_delay_ms: 0,
        ..RetryPolicy::default()
    };
    let mut client = RetryClient::new(MemTransport::new(Arc::clone(&server)), policy);

    // Warm both containers while the backend is healthy: a cold open
    // under a read fault folds into NotAContainer, which is (correctly)
    // permanent — transient faults are only recoverable on warm handles.
    let healthy = client.read(&roots[0], &["/imu"]).unwrap().len();
    assert!(healthy > 0);
    assert_eq!(client.read(&roots[1], &["/imu"]).unwrap().len(), healthy);

    // Transient backend trouble: the next few reads touching /srv0's
    // data die with Io, then the medium heals (max_failures expires the
    // rule). The retry client must absorb all of it.
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("/srv0/imu".into()),
        max_failures: Some(3),
        ..FaultRule::default()
    });

    let global_before = bora_obs::counter("serve.retries").get();
    for round in 0..4 {
        let root = &roots[round % roots.len()];
        // Zero client-visible errors across the whole mix: every call
        // either succeeds first try or converges through retries.
        assert!(!client.topics(root).unwrap().is_empty());
        assert_eq!(client.read(root, &["/imu"]).unwrap().len(), healthy);
        assert!(client.stat(root).unwrap().messages > 0);
    }
    assert!(client.retries() > 0, "the injected faults must have forced retries");
    assert!(
        bora_obs::counter("serve.retries").get() > global_before,
        "retries must be visible in telemetry"
    );

    server.shutdown();
}

/// `STATS` accounts for every request a client made, op by op: a skewed
/// mix of metadata queries, windowed reads and full reads over three
/// containers, after one `OPEN` each.
#[test]
fn stats_account_for_every_request_of_a_query_mix() {
    use ros_msgs::Time;
    use std::collections::BTreeMap;
    use workloads::querymix::{self, QueryKind, QueryMixOptions};

    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 3);
    let mut ctx = IoCtx::new();
    let probe = BoraBag::open(&*fs, &roots[0], &mut ctx).unwrap();
    let mut topics: Vec<String> = probe.topics().into_iter().map(str::to_owned).collect();
    topics.sort();
    let (start, end) = probe.time_range();
    let span = (end.as_nanos() - start.as_nanos()) as f64;
    let opts =
        QueryMixOptions { containers: roots.len(), hot_set: 1, queries: 60, ..Default::default() };
    let mix = querymix::generate(&opts);

    let config = ServerConfig { cache_capacity: 2, ..ServerConfig::default() };
    let server = Server::start(Arc::clone(&fs), config);
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();
    let mut want: BTreeMap<&str, u64> = BTreeMap::new();
    for root in &roots {
        client.open(root).unwrap();
        *want.entry("open").or_default() += 1;
    }
    for q in &mix {
        let root = &roots[q.container];
        let topic = [topics[q.topic_index % topics.len()].as_str()];
        let op = match q.kind {
            QueryKind::Topics => client.topics(root).map(|_| "topics"),
            QueryKind::Stat => client.stat(root).map(|_| "stat"),
            QueryKind::ReadWindow => {
                let from = start.as_nanos() + (span * q.window_start) as u64;
                let to = from + (span * q.window_frac) as u64;
                let (from, to) = (Time::from_nanos(from), Time::from_nanos(to));
                client.read_time(root, &topic, from, to).map(|_| "read")
            }
            QueryKind::ReadFull => client.read(root, &topic).map(|_| "read"),
        };
        *want.entry(op.unwrap()).or_default() += 1;
    }
    assert_eq!(want.len(), 4, "the mix must hold both metadata ops and reads: {want:?}");

    let snap = client.stats().unwrap();
    server.shutdown();
    let got: BTreeMap<&str, u64> =
        snap.ops.iter().filter(|(_, o)| o.count > 0).map(|(n, o)| (n.as_str(), o.count)).collect();
    assert_eq!(got, want);
    assert_eq!(snap.total_requests(), (roots.len() + mix.len()) as u64);
    assert_eq!(snap.shed, 0);
}

#[test]
fn streaming_read_is_byte_identical_to_buffered_read() {
    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let topics: Vec<String> = client.topics(&roots[0]).unwrap();
    let refs: Vec<&str> = topics.iter().map(String::as_str).collect();

    // Whole-container query: every topic, both framings.
    let buffered = client.read(&roots[0], &refs).unwrap();
    assert!(!buffered.is_empty());
    let streamed: Vec<_> =
        client.read_stream(&roots[0], &refs).unwrap().map(|m| m.unwrap()).collect();
    assert_eq!(streamed.len(), buffered.len());
    for (s, b) in streamed.iter().zip(&buffered) {
        assert_eq!(s.topic, b.topic);
        assert_eq!(s.time, b.time);
        assert_eq!(s.data, b.data);
    }

    // Time-windowed query through both framings.
    let stat = client.stat(&roots[0]).unwrap();
    let mid = ros_msgs::Time::from_nanos((stat.start.as_nanos() + stat.end.as_nanos()) / 2);
    let buffered = client.read_time(&roots[0], &refs, stat.start, mid).unwrap();
    let streamed: Vec<_> = client
        .read_stream_time(&roots[0], &refs, stat.start, mid)
        .unwrap()
        .map(|m| m.unwrap())
        .collect();
    assert_eq!(streamed.len(), buffered.len());
    for (s, b) in streamed.iter().zip(&buffered) {
        assert_eq!((&s.topic, s.time, &s.data), (&b.topic, b.time, &b.data));
    }

    // The streamed result is chunked on the wire; metrics must have seen
    // the op under its own name.
    let snap = client.stats().unwrap();
    let streamed_ops = snap.ops.iter().find(|(n, _)| n == "read_stream").map(|(_, o)| o.count);
    assert!(streamed_ops.unwrap_or(0) >= 2);

    server.shutdown();
}

#[test]
fn streamed_reads_survive_transient_faults_via_retry() {
    let fs = Arc::new(FaultyStorage::new(MemStorage::new()));
    let roots = build_containers(&*fs, 2);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay_ms: 0,
        max_delay_ms: 0,
        ..RetryPolicy::default()
    };
    let mut client = RetryClient::new(MemTransport::new(Arc::clone(&server)), policy);

    // Warm handles while healthy; capture the expected bytes.
    let healthy = client.read(&roots[0], &["/imu"]).unwrap();
    assert!(!healthy.is_empty());
    assert_eq!(client.read(&roots[1], &["/imu"]).unwrap().len(), healthy.len());

    // A burst of transient read faults on /srv0's data: the read — a
    // stream collected — fails mid-stream with a terminal error frame,
    // the retry layer re-issues the whole query, and the client sees zero
    // errors and byte-identical results.
    fs.inject(FaultRule {
        kind: FaultKind::Reads,
        path_contains: Some("/srv0/imu".into()),
        max_failures: Some(3),
        ..FaultRule::default()
    });
    for round in 0..4 {
        let root = &roots[round % roots.len()];
        let streamed = client.read(root, &["/imu"]).unwrap();
        assert_eq!(streamed.len(), healthy.len());
        for (s, b) in streamed.iter().zip(&healthy) {
            assert_eq!((&s.topic, s.time, &s.data), (&b.topic, b.time, &b.data));
        }
    }
    assert!(client.retries() > 0, "the injected faults must have forced retries");

    server.shutdown();
}

#[test]
fn abandoned_stream_releases_pin_and_keeps_connection_usable() {
    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let expected = client.read(&roots[0], &["/imu"]).unwrap().len();
    assert!(expected > 3);

    // Take a few messages, then drop the iterator mid-stream. Drop drains
    // the remaining frames, so the very next request on the same
    // connection must pair with its own response.
    {
        let mut stream = client.read_stream(&roots[0], &["/imu"]).unwrap();
        for _ in 0..3 {
            stream.next().unwrap().unwrap();
        }
        assert_eq!(stream.received(), 3);
    }
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), expected);

    // The worker finished (or aborted) the stream: its cache pin must be
    // gone. Poll briefly — the release happens on a worker thread.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.cache_pins(&roots[0]) != 0 {
        assert!(std::time::Instant::now() < deadline, "stream pin never released");
        std::thread::yield_now();
    }

    server.shutdown();
}

#[test]
fn client_hangup_mid_stream_aborts_server_side() {
    use bora_serve::{Request, Response};

    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());

    // Emulate a transport whose peer vanishes after the first frame:
    // `emit` returns false, submit_streamed drops the reply channel, and
    // the worker's next send aborts the merge.
    let mut frames = 0u32;
    let completed = server.submit_streamed(
        Request::ReadStream2 {
            container: roots[0].clone(),
            topics: vec!["/imu".into()],
            range: None,
        },
        &mut |resp| {
            frames += 1;
            assert!(matches!(
                resp,
                Response::StreamChunk(_) | Response::StreamChunkLz(_) | Response::StreamEnd { .. }
            ));
            false // client gone after the first frame
        },
    );
    assert!(!completed, "an abandoned stream must report incompleteness");
    assert_eq!(frames, 1);

    // The abort must release the cache pin and leave the server healthy.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.cache_pins(&roots[0]) != 0 {
        assert!(std::time::Instant::now() < deadline, "aborted stream pin never released");
        std::thread::yield_now();
    }
    match server.submit(Request::Stat { container: roots[0].clone() }) {
        Response::Stat(s) => assert!(s.messages > 0),
        other => panic!("server unhealthy after aborted stream: {other:?}"),
    }

    server.shutdown();
}

/// The opcodes this protocol retired — `STATS`, plain `READ_STREAM` and the three
/// former request prefixes — are unknown opcodes now: `BadRequest` under
/// the request's seq, and the connection keeps serving.
#[test]
fn retired_opcodes_answer_bad_request_and_keep_the_connection() {
    use bora_serve::{split_seq, Connection, ErrorCode, Request, Response, Transport};

    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let mut conn = MemTransport::new(Arc::clone(&server)).connect().unwrap();

    let read = Request::Read { container: roots[0].clone(), topics: vec![], range: None };
    for (seq, op) in [(1u32, 0x06u8), (2, 0x09), (3, 0x0F), (4, 0x10), (5, 0x11)] {
        let mut frame = read.encode_seq(seq, None, None).unwrap();
        frame[5] = op; // seq u32 | flags u8 | opcode
        conn.send_frame(&[&frame]).unwrap();
        let answer = conn.recv_frame().unwrap();
        let (echoed, body) = split_seq(&answer).unwrap();
        assert_eq!(echoed, seq);
        match Response::decode(body).unwrap() {
            Response::Error { code: ErrorCode::BadRequest, message } => {
                assert!(message.contains("unknown request opcode"), "{op:#04x}: {message}")
            }
            other => panic!("{op:#04x} answered {other:?}"),
        }
    }
    // A frame that was a whole request before the envelope (bare opcode
    // first) is malformed too, not misread as something else.
    conn.send_frame(&[&9u32.to_le_bytes()[..], &[0x0A]]).unwrap();
    let answer = conn.recv_frame().unwrap();
    assert!(matches!(
        Response::decode(split_seq(&answer).unwrap().1).unwrap(),
        Response::Error { code: ErrorCode::BadRequest, .. }
    ));

    let mut client = ServeClient::new(conn);
    assert!(client.stat(&roots[0]).unwrap().messages > 0, "connection unusable after bad frames");
    server.shutdown();
}

#[test]
fn server_evicts_cached_handle_on_checksum_failure() {
    let fs = Arc::new(MemStorage::new());
    let roots = build_containers(&*fs, 1);

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let healthy = client.read(&roots[0], &["/imu"]).unwrap().len();
    assert!(healthy > 0);
    assert_eq!(client.stats().unwrap().cache_len, 1);

    // Flip one byte of the committed data file behind the server's back:
    // the next read fails the lazy manifest CRC.
    let data = format!("{}/imu/data", roots[0]);
    let mut ctx = IoCtx::new();
    let byte = fs.read_at(&data, 0, 1, &mut ctx).unwrap()[0];
    fs.write_at(&data, 0, &[byte ^ 0xFF], &mut ctx).unwrap();

    // Every read op reaches the one eviction site: each failure evicts the
    // handle it opened, exactly once (this is the only test in the binary
    // that corrupts data, so the process-wide counter is ours).
    let evictions = bora_obs::counter("serve.evict_checksum");
    let evicted_before = evictions.get();
    let expect_eviction = |op: &str, failure: Option<ClientError>, nth: u64| {
        match failure {
            Some(ClientError::Server { code: ErrorCode::ChecksumMismatch, .. }) => {}
            other => panic!("{op}: expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(evictions.get(), evicted_before + nth, "{op} evicts exactly once");
    };
    expect_eviction("READ", client.read(&roots[0], &["/imu"]).err(), 1);
    let streamed = client.read_stream(&roots[0], &["/imu"]).unwrap().find_map(Result::err);
    expect_eviction("READ_STREAM2", streamed, 2);
    expect_eviction("QUERY", client.query(&roots[0], "SELECT count() FROM '/imu'").err(), 3);
    assert_eq!(client.stats().unwrap().cache_len, 0, "poisoned handle must be evicted");

    // Restore the medium: the service recovers on a fresh handle. Had the
    // poisoned handle survived in the cache, it would keep /imu
    // quarantined and answer Corrupt forever — this read proves eviction.
    fs.write_at(&data, 0, &[byte], &mut ctx).unwrap();
    assert_eq!(client.read(&roots[0], &["/imu"]).unwrap().len(), healthy);

    server.shutdown();
}
