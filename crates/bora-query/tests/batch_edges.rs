//! Batch boundaries: the cursor gathers up to 256 rows before it
//! evaluates anything, so every window, range, filter, sample and limit
//! can end inside a batch, on its last row or on the first row of the
//! next. `prop_query` draws at most 100 events and never crosses one.
//!
//! Here a few hundred to 1 500 messages over three topics — two `Imu`
//! topics and one whose datatype the query layer does not model, so every
//! path reads null on it — run statements whose edges are placed on and
//! beside the 256-row edges of their scan: time ranges from the scan's own
//! timestamps, windows 2.55 / 2.56 / 2.57 s wide over messages 10 ms
//! apart, `SAMPLE EVERY` 255 / 256 / 257, `LIMIT` 255 / 256 / 257, a
//! `JOIN`, and a string path (`header.frame_id`). Each statement runs
//! through an unframed (v1) container and through a block-framed one
//! with 512-byte blocks, where messages straddle blocks, and must return
//! [`run_naive`]'s rows byte for byte (`encode_rows`). With a `LIMIT`, the
//! cursor must also scan exactly what a row-at-a-time cursor scans: the
//! shortest prefix of its scan on which the oracle reaches the limit.
//!
//! The stream lends runs of one topic's messages within a page, and a
//! batch takes at most the room it has left from each. A one-topic
//! mission in 128 KiB pages — more than 256 messages each — makes runs
//! longer than that room: `LIMIT 300` and its neighbours, and windows and
//! ranges that end mid-page, are held to the oracle the same way.

use std::collections::HashMap;

use bora::{BlockCodec, BlockParams, BoraBag, BufferPool, OrganizerOptions};
use bora_query::{encode_rows, parse, prepare, run_naive, Cursor, Prepared};
use ros_msgs::msg::MessageDescriptor;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{RosMessage, Time};
use rosbag::reader::MessageRecord;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage, Storage};

const IMU: &str = "/imu";
const IMU2: &str = "/imu2";
/// No datatype the query layer models: every path on it is null.
const RAW: &str = "/raw";
const RAW_TYPE: &str = "bench_msgs/Raw";
/// Message `i` lies at `(i + 1) * STEP_NS`.
const STEP_NS: u64 = 10_000_000;
const FRAMES: [&str; 4] = ["imu_link", "base", "", "imu_link_2"];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` messages, 10 ms apart, on the three topics at random.
fn mission(n: u64, seed: u64) -> Vec<MessageRecord> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let time = Time::from_nanos((i + 1) * STEP_NS);
            let (topic, data) = match rng.next() % 5 {
                0 => (RAW, (0..rng.next() % 48).map(|_| rng.next() as u8).collect()),
                k => (if k < 3 { IMU } else { IMU2 }, imu(i, time, &mut rng)),
            };
            MessageRecord { conn_id: 0, topic: topic.to_owned(), time, data }
        })
        .collect()
}

/// `n` messages on `/imu` alone, 10 ms apart.
fn imu_mission(n: u64, seed: u64) -> Vec<MessageRecord> {
    let mut rng = Rng(seed);
    let message = |i| {
        let time = Time::from_nanos((i + 1) * STEP_NS);
        MessageRecord { conn_id: 0, topic: IMU.to_owned(), time, data: imu(i, time, &mut rng) }
    };
    (0..n).map(message).collect()
}

/// Message `i` of an `Imu` topic, at `time`.
fn imu(i: u64, time: Time, rng: &mut Rng) -> Vec<u8> {
    let mut imu = Imu::default();
    imu.header.seq = i as u32;
    imu.header.stamp = time;
    imu.header.frame_id = FRAMES[(rng.next() % 4) as usize].into();
    imu.angular_velocity.x = rng.unit() * 2.0 - 1.0;
    imu.linear_acceleration.y = 9.81 * rng.unit();
    imu.to_bytes()
}

/// The datatypes the oracle sees: none for `/raw`, whose type the query
/// layer does not model (the containers record it, and read it as null).
fn datatypes() -> HashMap<String, String> {
    [IMU, IMU2].iter().map(|t| ((*t).to_owned(), Imu::DATATYPE.to_owned())).collect()
}

/// The mission in a container at `root`: unframed (v1), or block-framed
/// with `block`.
fn container<'f>(
    fs: &'f MemStorage,
    root: &str,
    records: &[MessageRecord],
    block: Option<BlockParams>,
) -> BoraBag<&'f MemStorage> {
    let ctx = &mut IoCtx::new();
    let bag = format!("{root}.bag");
    let mut w = BagWriter::create(fs, &bag, BagWriterOptions::default(), ctx).unwrap();
    let raw = MessageDescriptor {
        datatype: RAW_TYPE.into(),
        md5sum: "0".repeat(32),
        definition: "uint8[] data\n".into(),
    };
    let mut conns = HashMap::new();
    for r in records {
        let conn = *conns.entry(r.topic.clone()).or_insert_with(|| {
            let desc = if r.topic == RAW { raw.clone() } else { MessageDescriptor::of::<Imu>() };
            w.add_connection(&r.topic, &desc)
        });
        w.write_message(conn, r.time, &r.data, ctx).unwrap();
    }
    w.close(ctx).unwrap();
    let opts = OrganizerOptions { block, ..Default::default() };
    bora::duplicate(fs, &bag, fs, root, &opts, ctx).unwrap();
    BoraBag::open(fs, root, ctx).unwrap().with_pool(BufferPool::new(1 << 20))
}

/// A time in seconds as a literal that parses back to the same `f64`.
fn secs(ns: u64) -> String {
    format!("{:?}", bora_query::ns_to_secs(ns))
}

/// Statements whose edges fall on and beside the batch edges of their
/// scans over `records`, each with its `LIMIT` clause apart.
fn statements(records: &[MessageRecord]) -> Vec<(String, String)> {
    let times = |topics: &[&str]| -> Vec<u64> {
        let scan = records.iter().filter(|r| topics.contains(&r.topic.as_str()));
        scan.map(|r| r.time.as_nanos()).collect()
    };
    let all = times(&[IMU, IMU2, RAW]);
    let imu = times(&[IMU]);
    let agg = "count(), count(angular_velocity.x), mean(angular_velocity.x), \
               min(header.seq), max(linear_acceleration.y)";
    let mut out: Vec<(String, &str)> = Vec::new();
    // Windows of 255, 256 and 257 rows of the full scan, and wider.
    for w in ["2550ms", "2560ms", "2570ms", "1s", "5120ms"] {
        out.push((format!("SELECT window, {agg} FROM '/imu', '/imu2', '/raw' WINDOW {w}"), ""));
        out.push((format!("SELECT window, {agg} FROM '/imu' WINDOW {w}"), ""));
    }
    // Ranges from, to and between the scan's own times at its batch
    // edges: inclusive and exclusive, each on the edge and one beside.
    for (from, scan) in [("'/imu', '/imu2', '/raw'", &all), ("'/imu'", &imu)] {
        for k in [255, 256, 257, 511, 512, 513] {
            let Some(&t) = scan.get(k) else { continue };
            let (t, end) = (secs(t), secs(scan.get(k + 300).copied().unwrap_or(u64::MAX / 4)));
            out.push((format!("SELECT {agg} FROM {from} WHERE time >= {t} AND time < {end}"), ""));
            out.push((
                format!("SELECT window, {agg} FROM {from} WHERE time > {t} WINDOW 2560ms"),
                "",
            ));
            out.push((
                format!("SELECT time, topic, angular_velocity.x FROM {from} WHERE time <= {t}"),
                "",
            ));
            out.push((format!("SELECT * FROM {from} WHERE time < {t} OR time > {end}"), ""));
        }
    }
    // Field and string filters, which drop rows at random inside batches.
    for filter in [
        "angular_velocity.x > 0.25",
        "NOT (header.seq >= 700) AND linear_acceleration.y < 7.0",
        "header.frame_id = 'base' OR size < 24",
        "header.frame_id != 'imu_link' AND header.frame_id >= ''",
        "topic = '/raw' OR angular_velocity.x <= 0.1",
    ] {
        let from = "'/imu', '/imu2', '/raw'";
        out.push((
            format!("SELECT time, topic, size, header.frame_id FROM {from} WHERE {filter}"),
            "",
        ));
        out.push((format!("SELECT window, {agg} FROM {from} WHERE {filter} WINDOW 2560ms"), ""));
    }
    // Decimation with periods at the batch size.
    for n in [7, 255, 256, 257] {
        out.push((
            format!("SELECT time, header.seq FROM '/imu', '/imu2', '/raw' SAMPLE EVERY {n}"),
            "",
        ));
        out.push((
            format!("SELECT window, {agg} FROM '/imu', '/raw' SAMPLE EVERY {n} WINDOW 2560ms"),
            "",
        ));
    }
    // A string column, all null on `/raw`, through the aggregates.
    out.push((
        "SELECT window, min(header.frame_id), max(header.frame_id), count(header.frame_id) \
         FROM '/imu', '/raw' WINDOW 2560ms"
            .into(),
        "",
    ));
    // Limits at, before and after a batch edge.
    for limit in [" LIMIT 1", " LIMIT 255", " LIMIT 256", " LIMIT 257", " LIMIT 513"] {
        let from = "'/imu', '/imu2', '/raw'";
        out.push((format!("SELECT * FROM {from}"), limit));
        out.push((
            format!("SELECT time, header.frame_id FROM {from} WHERE linear_acceleration.y > 1.5"),
            limit,
        ));
        out.push((format!("SELECT time, header.seq FROM {from} SAMPLE EVERY 3"), limit));
        out.push((format!("SELECT window, count() FROM {from} WINDOW 2560ms"), limit));
        out.push((
            "SELECT left.time, right.time, left.header.frame_id, right.angular_velocity.x \
             FROM '/imu' JOIN '/imu2' WITHIN 25ms"
                .into(),
            limit,
        ));
    }
    // Joins, one of them against the topic that reads null.
    out.push((
        "SELECT left.time, right.size, right.header.seq FROM '/imu' JOIN '/raw' WITHIN 20ms \
         WHERE left.angular_velocity.x > 0.0"
            .into(),
        "",
    ));
    out.push((
        "SELECT count(), mean(left.angular_velocity.x), max(right.header.frame_id) \
         FROM '/imu2' JOIN '/imu' WITHIN 40ms"
            .into(),
        "",
    ));
    out.into_iter().map(|(sql, limit)| (sql, limit.to_owned())).collect()
}

/// The scan of `p` over `records`: its topics, within its pushed range.
fn scan<'r>(p: &Prepared, records: &'r [MessageRecord]) -> Vec<&'r MessageRecord> {
    let (topics, range) = (&p.plan.scan.topics, p.plan.scan.range);
    let in_range = |t: u64| range.is_none_or(|(lo, hi)| t >= lo && t < hi);
    records.iter().filter(|r| topics.contains(&r.topic) && in_range(r.time.as_nanos())).collect()
}

/// What a row-at-a-time cursor scans to answer `sql` with `LIMIT n`:
/// the shortest prefix of the scan on which the oracle reaches `n` rows,
/// or the whole scan.
fn scanned_by_rows(
    sql: &str,
    n: usize,
    scan: &[&MessageRecord],
    dts: &HashMap<String, String>,
) -> u64 {
    let stmt = parse(sql).unwrap().stmt;
    let rows = |k: usize| {
        let prefix: Vec<MessageRecord> = scan[..k].iter().map(|r| (*r).clone()).collect();
        run_naive(&stmt, &prefix, dts).unwrap().1.len()
    };
    if rows(scan.len()) < n {
        return scan.len() as u64;
    }
    let (mut lo, mut hi) = (0, scan.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if rows(mid) >= n {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as u64
}

/// Drain `cur`, check its columns and rows, and return what it scanned.
fn answer<S: Storage>(
    source: &str,
    sql: &str,
    mut cur: Cursor<'_, S>,
    columns: &[String],
    want: &[u8],
) -> u64 {
    assert_eq!(cur.columns(), columns, "{source}: {sql}");
    let rows = cur.collect_rows().unwrap();
    assert!(encode_rows(&rows) == want, "{source} differs from the oracle: {sql}");
    cur.stats().scanned
}

/// Run every statement over `records` in an unframed (v1) container and
/// in one of `block_size`-byte blocks, against the oracle.
fn check(records: &[MessageRecord], statements: &[(String, String)], block_size: u32) {
    let dts = datatypes();
    let fs = MemStorage::new();
    let v1 = container(&fs, "/v1", records, None);
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size });
    let framed = container(&fs, "/framed", records, block);
    for (body, limit) in statements {
        let sql = format!("{body}{limit}");
        let p = prepare(&sql).unwrap_or_else(|e| panic!("{sql}\n{e}"));
        let (columns, want) = run_naive(&p.query.stmt, records, &dts).unwrap();
        let want = encode_rows(&want);
        let scanned = [("v1", &v1), ("block-framed", &framed)].map(|(source, bag)| {
            let ctx = &mut IoCtx::new();
            answer(source, &sql, p.cursor_bag(bag, false, ctx).unwrap(), &columns, &want)
        });
        if let (Some(n), None) = (p.plan.limit, &p.plan.agg) {
            let expect = scanned_by_rows(body, n as usize, &scan(&p, records), &dts);
            assert_eq!(scanned, [expect, expect], "scanned: {sql}");
        }
    }
}

#[test]
fn rows_cross_batch_edges_exactly_as_the_oracle_reads_them() {
    for (n, seed) in [(300, 0x9E37_79B9_7F4A_7C15), (767, 0xB0BA_CAFE), (1_500, 0x5EED)] {
        let records = mission(n, seed);
        let statements = statements(&records);
        assert!(statements.len() > 60, "{} statements", statements.len());
        check(&records, &statements, 512);
    }
}

#[test]
fn runs_longer_than_the_room_in_a_batch_are_cut_where_the_oracle_cuts() {
    const PAGE: u32 = 128 << 10;
    let records = imu_mission(2_000, 0xFEED);
    let longest = records.iter().map(|r| r.data.len()).max().unwrap();
    assert!(longest * 300 < PAGE as usize, "{longest}-byte messages: fewer than 300 a page");
    let times: Vec<u64> = records.iter().map(|r| r.time.as_nanos()).collect();
    let agg = "count(), mean(angular_velocity.x), min(header.seq), max(linear_acceleration.y)";
    let mut statements: Vec<(String, &str)> = Vec::new();
    for limit in [" LIMIT 255", " LIMIT 256", " LIMIT 257", " LIMIT 300", " LIMIT 700"] {
        statements.push(("SELECT * FROM '/imu'".into(), limit));
        statements.push(("SELECT time, header.seq FROM '/imu' SAMPLE EVERY 3".into(), limit));
        statements.push((
            "SELECT time, angular_velocity.x FROM '/imu' WHERE linear_acceleration.y > 4.5".into(),
            limit,
        ));
    }
    // Windows of 100 to 499 messages, which end inside pages of 400 and
    // more, over the whole scan and over ranges that start and end
    // mid-page.
    for w in ["1s", "2550ms", "2570ms", "4990ms"] {
        statements.push((format!("SELECT window, {agg} FROM '/imu' WINDOW {w}"), ""));
    }
    for (from, to) in [(100, 399), (257, 1_000), (555, 1_999), (1_000, 1_300)] {
        let (t, end) = (secs(times[from]), secs(times[to]));
        let range = format!("WHERE time >= {t} AND time < {end}");
        statements.push((format!("SELECT {agg} FROM '/imu' {range}"), ""));
        statements.push((format!("SELECT window, {agg} FROM '/imu' {range} WINDOW 1s"), ""));
        statements.push((format!("SELECT time, header.seq FROM '/imu' {range}"), " LIMIT 300"));
    }
    let statements: Vec<_> = statements.into_iter().map(|(s, l)| (s, l.to_owned())).collect();
    check(&records, &statements, PAGE);
}
