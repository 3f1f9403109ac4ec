//! Golden bytes of the binary formats that live outside a container's
//! topic files: every serve wire frame, and the files of a live ingest
//! root that recovery reads (`.boraingest`, `seg/*.seg`, `seg/*.seal`,
//! the WAL shards, and each generation's `.ingest` marker and MANIFEST).
//!
//! The per-format suites round-trip, which a change made symmetrically to
//! an encoder and its decoder passes. These digests pin the bytes
//! themselves, so a codec refactor that moves one fails here. A change
//! that moves bytes on purpose recaptures them (the tests print what they
//! observe with `-- --nocapture`).

use bora::block::{BlockCodec, BlockParams};
use bora_ingest::{IngestConfig, IngestStore};
use bora_obs::{HistSummary, TraceContext};
use bora_query::{encode_rows, Value};
use bora_serve::{
    compress_chunk, ContainerStat, ErrorCode, MetricsReport, PingInfo, Request, Response,
    SlowOpEntry, WireMessage, METRICS_REPORT_VERSION,
};
use ros_msgs::{md5, Time};
use simfs::{IoCtx, MemStorage, Storage};

const WIRE_DIGEST: &str = "12d8189d89a2dd2717118cac3489a398";
const INGEST_DIGEST: &str = "9b72df858c38beefdd6e3c5e4f018aa8";

/// Appends `bytes` behind its length, so two encodings can never run into
/// each other unnoticed.
fn push(acc: &mut Vec<u8>, bytes: &[u8]) {
    acc.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    acc.extend_from_slice(bytes);
}

fn msg(topic: &str, sec: u32, data: &[u8]) -> WireMessage {
    WireMessage { topic: topic.into(), time: Time::new(sec, 7), data: data.to_vec() }
}

fn every_request() -> Vec<Request> {
    let c = String::from("/c/hs0");
    let topics = vec!["/imu".to_owned(), "/camera/rgb".to_owned()];
    let range = Some((Time::new(3, 14), Time::new(10, 0)));
    vec![
        Request::Open { container: c.clone() },
        Request::Topics { container: c.clone() },
        Request::Meta { container: c.clone() },
        Request::Read { container: c.clone(), topics: topics.clone(), range },
        Request::Read { container: c.clone(), topics: vec![], range: None },
        Request::ReadStream2 { container: c.clone(), topics, range },
        Request::ReadStream2 { container: c.clone(), topics: vec![], range: None },
        Request::Append {
            container: "/live".into(),
            messages: vec![msg("/imu", 1, &[1, 2, 3]), msg("/cam", 2, &[])],
        },
        Request::Seal { container: "/live".into(), compact: true },
        Request::Seal { container: "/live".into(), compact: false },
        Request::Query {
            container: c.clone(),
            sql: "SELECT count() FROM '/imu' WINDOW 1s".into(),
            partial: true,
        },
        Request::Stat { container: c },
        Request::Metrics,
        Request::Trace,
        Request::Ping,
        Request::Shutdown,
    ]
}

fn every_response() -> Vec<Response> {
    let stat = ContainerStat {
        topics: 7,
        messages: 12_345,
        data_bytes: 1 << 33,
        start: Time::new(1, 2),
        end: Time::new(100, 999_999_999),
    };
    let batch: Vec<WireMessage> =
        (0..12).map(|i| msg("/imu", 100 + i, &[(i % 3) as u8; 40])).collect();
    let mut x = 0x1234_5678u32;
    let noise: Vec<u8> = (0..96)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect();
    let mut hist = HistSummary { count: 3, sum: 1_000_000, min: 120, ..Default::default() };
    hist.buckets[0] = 1;
    hist.buckets[19] = 2;
    let rows = vec![
        vec![Value::Null, Value::Bool(true), Value::Int(-7)],
        vec![Value::Float(2.5), Value::Str("window ∞".into())],
        vec![],
    ];
    vec![
        Response::Opened { stat: stat.clone(), cached: true },
        Response::Topics(vec!["/imu".into(), "/tf".into()]),
        Response::Meta(vec![0x42, 0x4F, 0x52, 0x41, 0, 255]),
        Response::Read(batch.clone()),
        Response::StreamChunk(batch.clone()),
        Response::StreamChunk(vec![]),
        // Small enough that the bounded encoder decides at the end of the
        // input, whatever its give-up rule: one compressed, one raw.
        compress_chunk(&batch, &mut IoCtx::new()),
        compress_chunk(&[msg("/n", 1, &noise)], &mut IoCtx::new()),
        Response::StreamEnd { messages: 42 },
        Response::QuerySchema(vec!["window".into(), "count()".into()]),
        Response::QueryChunk(encode_rows(&rows)),
        Response::QueryChunk(encode_rows(&[])),
        Response::QueryEnd { rows: 9_000, explain: "Scan topics=[/imu]".into() },
        Response::Appended { appended: 17, epoch: 930 },
        Response::Sealed { epoch: 931, sealed_segments: 3 },
        Response::Stat(stat),
        Response::Metrics(MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id: 2,
            uptime_ns: 5_000_000_000,
            counters: vec![("serve.shed".into(), 4)],
            gauges: vec![("serve.queue_depth".into(), -1)],
            hists: vec![("serve.op.read.wall_ns".into(), hist), ("e".into(), Default::default())],
            slow_ops: vec![SlowOpEntry {
                trace_id: 42,
                op: "read".into(),
                container: "/c/hs0".into(),
                wall_ns: 25_000_000,
                queue_wait_ns: 3_000,
                server_id: 2,
            }],
        }),
        Response::Trace("{\"traceEvents\":[]}".into()),
        Response::Pong(PingInfo { server_id: 3, uptime_ns: 987_654_321, queue_depth: 17 }),
        Response::ShuttingDown,
        Response::Error { code: ErrorCode::ChecksumMismatch, message: "imu/data".into() },
        Response::Error { code: ErrorCode::BadQuery, message: "SELECT\n^ expected".into() },
        Response::Overloaded,
    ]
}

#[test]
fn wire_frames_keep_their_bytes() {
    let ctx = TraceContext { trace_id: 0xDEAD_BEEF_0042, parent_span: 77, sampled: true };
    let headers = [
        (None, None),
        (None, Some(1_500_000)),
        (Some(ctx), None),
        (Some(TraceContext { sampled: false, ..ctx }), Some(9)),
    ];
    let mut acc = Vec::new();
    for req in every_request() {
        for (ctx, deadline) in headers {
            push(&mut acc, &req.encode_seq(0x0102_0304, ctx, deadline).unwrap());
        }
    }
    let responses = every_response();
    assert!(matches!(responses[6], Response::StreamChunkLz(ref f) if f[0] == 1), "compressed");
    assert!(matches!(responses[7], Response::StreamChunkLz(ref f) if f[0] == 0), "stored raw");
    for resp in responses {
        push(&mut acc, &resp.encode_seq(u32::MAX - 1).unwrap());
    }
    let digest = md5::hex_digest(&acc);
    println!("wire frames: {digest} over {} bytes", acc.len());
    assert_eq!(digest, WIRE_DIGEST, "a wire frame's bytes moved");
}

/// Every file of `dir` and below, as `(path, bytes)` in path order.
fn files_under<S: Storage>(fs: &S, dir: &str, out: &mut Vec<(String, Vec<u8>)>) {
    let ctx = &mut IoCtx::new();
    for e in fs.read_dir(dir, ctx).unwrap() {
        let path = format!("{dir}/{}", e.name);
        match e.kind {
            simfs::EntryKind::Dir => files_under(fs, &path, out),
            simfs::EntryKind::File => out.push((path.clone(), fs.read_all(&path, ctx).unwrap())),
        }
    }
}

#[test]
fn ingest_root_files_keep_their_bytes() {
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 256 });
    let cfg = IngestConfig { wal_shards: 2, group_commit: 4, window_ns: 1_000_000, block };
    let st = IngestStore::create(&fs, "/live", cfg, ctx).unwrap();
    let topics = ["/imu", "/camera/rgb", "/tf"];
    let mut t = 0u64;
    let mut append = |st: &IngestStore<&MemStorage>, n: u64, ctx: &mut IoCtx| {
        for i in 0..n {
            t += 1_000 + i % 7;
            let topic = topics[(i % 3) as usize];
            st.append(topic, Time::from_nanos(t), &vec![(i % 5) as u8; 24 + i as usize], ctx)
                .unwrap();
        }
    };
    // Generation 1 from one seal, then two seals pending compaction and a
    // tail only the WAL holds.
    append(&st, 30, ctx);
    st.seal(ctx).unwrap();
    st.compact(ctx).unwrap();
    append(&st, 20, ctx);
    st.seal(ctx).unwrap();
    append(&st, 10, ctx);
    st.seal(ctx).unwrap();
    append(&st, 9, ctx);
    st.flush_wal(ctx).unwrap();

    let mut files = Vec::new();
    files_under(&fs, "/live", &mut files);
    let wanted = |p: &str| {
        let name = p.rsplit('/').next().unwrap();
        p.starts_with("/live/seg/")
            || p.starts_with("/live/wal/")
            || [".boraingest", ".ingest", "MANIFEST"].contains(&name)
    };
    let mut acc = Vec::new();
    let mut seen = Vec::new();
    for (path, bytes) in files.iter().filter(|(p, _)| wanted(p)) {
        push(&mut acc, path.as_bytes());
        push(&mut acc, bytes);
        seen.push(path.as_str());
    }
    println!("ingest root files {seen:?}");
    assert_eq!(seen.iter().filter(|p| p.ends_with(".seg")).count(), 6, "{seen:?}");
    assert_eq!(seen.iter().filter(|p| p.ends_with(".seal")).count(), 2, "{seen:?}");
    assert_eq!(seen.iter().filter(|p| p.ends_with(".wal")).count(), 2, "{seen:?}");
    let digest = md5::hex_digest(&acc);
    println!("ingest root: {digest} over {} bytes", acc.len());
    assert_eq!(digest, INGEST_DIGEST, "an ingest root file's bytes moved");
}
