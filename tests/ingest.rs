//! Live-ingest integration: the full serve stack over an ingest root.
//!
//! The acceptance property: a query issued mid-ingest over
//! `READ_STREAM2` — while messages still sit in the WAL and memtable —
//! returns **byte-identical** results to the same query after seal and
//! compaction, including across a power cut injected between the seal
//! and the compaction.

use std::sync::Arc;

use bora_ingest::{IngestConfig, IngestStore};
use bora_serve::{
    ChunkMessage, IngestBatching, IngestClient, MemTransport, ServeClient, Server, ServerConfig,
    WireMessage,
};
use ros_msgs::Time;
use simfs::{FaultyStorage, IoCtx, MemStorage, PowerCut};

const ROOT: &str = "/live";
const TOPICS: [&str; 2] = ["/imu", "/cam"];

fn cfg() -> IngestConfig {
    IngestConfig { wal_shards: 2, group_commit: 1, window_ns: 1_000, block: None }
}

/// Deterministic workload: (topic, time, payload) in append order,
/// per-topic chronological.
fn script(n: u64) -> Vec<(&'static str, Time, Vec<u8>)> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(("/imu", Time::from_nanos(i * 10), vec![i as u8; 6]));
        if i % 2 == 0 {
            out.push(("/cam", Time::from_nanos(i * 10 + 3), vec![0xA0 | i as u8; 11]));
        }
    }
    out
}

/// Collect a full `READ_STREAM2` answer as wire messages.
fn stream_all<C: bora_serve::Connection>(
    client: &mut ServeClient<C>,
    container: &str,
) -> Vec<WireMessage> {
    let stream = client.read_stream(container, &TOPICS).unwrap();
    stream.map(|m| m.map(WireMessage::from)).collect::<Result<_, _>>().unwrap()
}

/// The one-`Source` contract on a live root, whatever layer the bytes
/// sit in: the streamed and the buffered time-range read both equal the
/// `[start, end)` slice of `all`, and a topic the recording has not
/// produced (yet) reads empty rather than failing.
fn assert_ranged_reads_agree<C: bora_serve::Connection>(
    client: &mut ServeClient<C>,
    all: &[WireMessage],
    state: &str,
) {
    let (start, end) = (Time::from_nanos(20), Time::from_nanos(53));
    let want: Vec<WireMessage> =
        all.iter().filter(|m| m.time >= start && m.time < end).cloned().collect();
    assert!(!want.is_empty() && want.len() < all.len(), "range must cut the script");
    let streamed: Vec<ChunkMessage> = client
        .read_stream_time(ROOT, &TOPICS, start, end)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(streamed, want, "{state}: streamed range read");
    assert_eq!(client.read_time(ROOT, &TOPICS, start, end).unwrap(), want, "{state}: buffered");
    assert!(client.read(ROOT, &["/never"]).unwrap().is_empty(), "{state}: unseen topic, READ");
    let unseen: Vec<ChunkMessage> =
        client.read_stream(ROOT, &["/never"]).unwrap().collect::<Result<_, _>>().unwrap();
    assert!(unseen.is_empty(), "{state}: unseen topic, READ_STREAM2");
}

#[test]
fn mid_ingest_stream_is_byte_identical_across_seal_and_compaction() {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&fs), ROOT, cfg(), &mut ctx).unwrap());

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    // Append everything through the wire; messages now live only in the
    // WAL + memtable.
    let batch: Vec<WireMessage> = script(8)
        .into_iter()
        .map(|(t, time, data)| WireMessage { topic: t.into(), time, data })
        .collect();
    let n = batch.len() as u64;
    let (appended, epoch) = client.append(ROOT, batch).unwrap();
    assert_eq!(appended, n);
    assert!(epoch > 0);

    // The mid-ingest query: served purely from the live layers.
    let live = stream_all(&mut client, ROOT);
    assert_eq!(live.len(), n as usize);
    for pair in live.windows(2) {
        assert!(pair[0].time <= pair[1].time, "stream must stay chronological");
    }
    assert_ranged_reads_agree(&mut client, &live, "memtable");

    // Seal: same bytes, now served from sealed segments.
    let (_, pending) = client.seal(ROOT, false).unwrap();
    assert_eq!(pending, 1, "one sealed batch awaiting compaction");
    assert_eq!(stream_all(&mut client, ROOT), live);
    assert_ranged_reads_agree(&mut client, &live, "sealed");

    // Compact: same bytes, now served from the committed container.
    let (_, pending) = client.seal(ROOT, true).unwrap();
    assert_eq!(pending, 0, "compaction drained the sealed backlog");
    assert_eq!(stream_all(&mut client, ROOT), live);
    assert_ranged_reads_agree(&mut client, &live, "compacted");

    // Buffered `Read` over the same query agrees with the stream frames.
    let buffered = client.read(ROOT, &TOPICS).unwrap();
    assert_eq!(buffered, live);

    // Topics through the wire see the live/compacted union.
    assert_eq!(client.topics(ROOT).unwrap(), vec!["/cam".to_owned(), "/imu".to_owned()]);
    server.shutdown();
}

/// `QUERY` over a live root runs the same cursor over the same merge as
/// over a static container: whatever layer the messages sit in, the rows
/// equal the reference interpreter's over everything appended so far.
#[test]
fn live_root_query_matches_the_oracle_in_every_state() {
    use bora_query::{encode_rows, run_naive};
    use bora_serve::{ClientError, ErrorCode};
    use rosbag::MessageRecord;

    // Live roots record no datatypes, so the statements stick to the
    // builtin columns.
    const WINDOWED: &str = "SELECT window, count(), max(size) FROM '/imu', '/cam' WINDOW 500ms";
    const RANGED: &str =
        "SELECT time, topic, size FROM '/imu', '/cam' WHERE time >= 1.25 AND time < 1.95";
    // Timestamps are unique across topics, so time order is merge order.
    let record = |topic: &str, ms: u64, len: usize| MessageRecord {
        conn_id: 0,
        topic: topic.to_owned(),
        time: Time::from_nanos(ms * 1_000_000),
        data: vec![ms as u8; len],
    };
    let ticks = |from: u64, to: u64| -> Vec<MessageRecord> {
        (from..to)
            .flat_map(|i| {
                let imu = record("/imu", 1_000 + i * 100, 6);
                let cam = (i % 2 == 0).then(|| record("/cam", 1_030 + i * 100, 11));
                std::iter::once(imu).chain(cam)
            })
            .collect()
    };
    let wire = |records: &[MessageRecord]| -> Vec<WireMessage> {
        records.iter().cloned().map(WireMessage::from).collect()
    };

    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&fs), ROOT, cfg(), &mut ctx).unwrap());
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    // Rows of both statements, each checked against the oracle run over
    // `appended`.
    type Client = ServeClient<bora_serve::transport::MemConnection>;
    let check = |client: &mut Client, appended: &[MessageRecord], state: &str| -> [Vec<u8>; 2] {
        [WINDOWED, RANGED].map(|sql| {
            let stmt = bora_query::parse(sql).unwrap().stmt;
            let (columns, want) = run_naive(&stmt, appended, &Default::default()).unwrap();
            assert!(!want.is_empty(), "{state}: {sql} selects nothing");
            let got = client.query(ROOT, sql).unwrap();
            assert_eq!(got.columns, columns, "{state}: {sql}");
            assert_eq!(encode_rows(&got.rows), encode_rows(&want), "{state}: {sql}");
            encode_rows(&got.rows)
        })
    };

    let mut appended = ticks(0, 12);
    client.append(ROOT, wire(&appended)).unwrap();
    let in_memtable = check(&mut client, &appended, "memtable only");

    client.seal(ROOT, false).unwrap();
    assert_eq!(check(&mut client, &appended, "sealed"), in_memtable);

    // Compact, then keep recording: the merge now spans the generation
    // container and a fresh tail. The tail lies past RANGED's window, so
    // that statement's rows are the same in all three states.
    client.seal(ROOT, true).unwrap();
    let tail = ticks(12, 18);
    client.append(ROOT, wire(&tail)).unwrap();
    appended.extend(tail);
    let spanning = check(&mut client, &appended, "generation + tail");
    assert_ne!(spanning[0], in_memtable[0], "the tail must show up in the windowed counts");
    assert_eq!(spanning[1], in_memtable[1]);

    // The executor really scanned the live root.
    let analyzed = client.query(ROOT, &format!("EXPLAIN ANALYZE {RANGED}")).unwrap();
    assert_eq!(encode_rows(&analyzed.rows), spanning[1]);
    let scanned: u64 = analyzed
        .explain
        .lines()
        .find(|line| line.contains("Scan topics="))
        .and_then(|line| line.split("rows=").nth(1))
        .map(|rest| rest.chars().take_while(char::is_ascii_digit).collect::<String>())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no scan row count in:\n{}", analyzed.explain));
    assert!(scanned > 0, "{}", analyzed.explain);

    // A malformed statement is the client's fault; the connection lives.
    match client.query(ROOT, "SELECT FROM '/imu'") {
        Err(ClientError::Server { code: ErrorCode::BadQuery, message }) => {
            assert!(message.contains('^'), "no caret in: {message}");
        }
        other => panic!("expected BadQuery, got {other:?}"),
    }
    assert_eq!(encode_rows(&client.query(ROOT, RANGED).unwrap().rows), spanning[1]);
    server.shutdown();
}

#[test]
fn power_cut_between_seal_and_compact_recovers_byte_identically() {
    let disk = Arc::new(MemStorage::new());
    let faulty = Arc::new(FaultyStorage::new(Arc::clone(&disk)));
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&disk), ROOT, cfg(), &mut ctx).unwrap());

    let server = Server::start(Arc::clone(&faulty), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let batch: Vec<WireMessage> = script(6)
        .into_iter()
        .map(|(t, time, data)| WireMessage { topic: t.into(), time, data })
        .collect();
    let n = batch.len();
    client.append(ROOT, batch).unwrap();
    let reference = stream_all(&mut client, ROOT);
    assert_eq!(reference.len(), n);

    // Seal commits; then the power dies two mutations into compaction,
    // tearing the last write.
    client.seal(ROOT, false).unwrap();
    // `arm_power_cut` resets the mutation counter: the cut fires two
    // mutating ops into the compaction, tearing the last write.
    faulty.arm_power_cut(PowerCut { after_mutations: 2, torn_bytes: Some(1) });
    client.seal(ROOT, true).expect_err("compaction must abort at the power cut");
    server.shutdown();
    drop(client);
    drop(server);

    // "Reboot": a fresh server over the surviving medium. Recovery runs
    // inside the server's first touch of the root.
    let server = Server::start(Arc::clone(&disk), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let recovered = stream_all(&mut client, ROOT);
    assert_eq!(recovered, reference, "sealed data must survive the cut byte-identically");

    // And the interrupted compaction completes from the recovered state.
    let (_, pending) = client.seal(ROOT, true).unwrap();
    assert_eq!(pending, 0);
    assert_eq!(stream_all(&mut client, ROOT), reference);
    server.shutdown();
}

#[test]
fn ingest_client_batches_writes() {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&fs), ROOT, cfg(), &mut ctx).unwrap());

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let conn = ServeClient::connect(&transport).unwrap();
    let mut writer =
        IngestClient::new(conn, ROOT, IngestBatching { max_msgs: 4, max_bytes: 1 << 20 });

    let script = script(10);
    let total = script.len() as u64;
    for (topic, time, data) in &script {
        writer.write(topic, *time, data).unwrap();
    }
    // 16 messages with max_msgs=4: everything except the final partial
    // batch is already durable.
    assert!(writer.appended() >= total - 3);
    assert_eq!(u64::from(u32::try_from(writer.buffered()).unwrap()) + writer.appended(), total);
    writer.flush().unwrap();
    assert_eq!(writer.appended(), total);
    let (_, pending) = writer.seal(true).unwrap();
    assert_eq!(pending, 0);

    let mut client = writer.finish().unwrap();
    let served = stream_all(&mut client, ROOT);
    assert_eq!(served.len(), script.len());
    let expected: Vec<(String, u64, Vec<u8>)> = {
        let mut all: Vec<_> =
            served.iter().map(|m| (m.topic.clone(), m.time.as_nanos(), m.data.clone())).collect();
        all.sort();
        all
    };
    let mut sent: Vec<(String, u64, Vec<u8>)> =
        script.into_iter().map(|(t, time, data)| (t.to_owned(), time.as_nanos(), data)).collect();
    sent.sort();
    assert_eq!(expected, sent, "every staged message reached the store exactly once");
    server.shutdown();
}

/// An `APPEND` batch is all or nothing: one out-of-order message rejects
/// the batch, and none of its earlier messages is stored.
#[test]
fn a_rejected_append_batch_leaves_nothing_behind() {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&fs), ROOT, cfg(), &mut ctx).unwrap());
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();

    let batch = [10, 20, 5].map(|ns| WireMessage {
        topic: "/a".into(),
        time: Time::from_nanos(ns),
        data: vec![1],
    });
    assert!(client.append(ROOT, batch.to_vec()).is_err());
    assert!(client.read(ROOT, &["/a"]).unwrap().is_empty());
    server.shutdown();
}
