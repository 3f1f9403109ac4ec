//! Micro-benchmarks for the query layer's hot paths.
//!
//! The load-bearing numbers:
//! * `prepare` — lex + parse + plan + optimize for a representative
//!   statement; this is per-query overhead on every wire request, so it
//!   must stay far below execution cost;
//! * `exec/*` — the executor, in scanned rows per second. One
//!   block-framed `/imu` container (the `hs` mission's IMU topic in
//!   shape: 24 367 messages of 320 bytes over 48 s) is built in
//!   `MemStorage` behind a warm buffer pool and every statement is
//!   prepared *outside* the timed region; an iteration is
//!   `cursor_bag(..).collect_rows()` and nothing else. The statements are
//!   the wall-clock benchmark's `query_agg` shapes — the full-topic
//!   `WINDOW 1s` aggregate, the same over a fifth of the mission (time
//!   range pushdown), a selective filter with a projection — plus
//!   `count()`, which reads no field and so prices the scan itself;
//! * `merge_partials` — the router's per-fragment merge cost for a
//!   distributed aggregate;
//! * `encode_rows` / `decode_rows` — the wire codec for result rows,
//!   paid once per row on every served query.

use std::hint::black_box;
use std::sync::Arc;

use bora::{BlockParams, BoraBag, BufferPool, OrganizerOptions};
use bora_query::{decode_rows, encode_rows, merge_partials, prepare, Prepared, Row};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const AGG: &str = "SELECT window, count(), mean(angular_velocity.x), max(linear_acceleration.y) \
                   FROM '/imu'";
/// `hs` records 24 367 IMU messages in 48 s from t = 100 s.
const MESSAGES: u32 = 24_367;
const START_NS: u64 = 100_000_000_000;
const STEP_NS: u64 = 48_000_000_000 / MESSAGES as u64;

/// The `/imu` container, opened behind a pool that holds all of it.
fn imu_container() -> BoraBag<Arc<MemStorage>> {
    let fs = Arc::new(MemStorage::new());
    let ctx = &mut IoCtx::new();
    let mut w = BagWriter::create(&*fs, "/imu.bag", BagWriterOptions::default(), ctx).unwrap();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..MESSAGES {
        let t = Time::from_nanos(START_NS + i as u64 * STEP_NS);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        imu.header.frame_id = "imu_link".into();
        imu.angular_velocity.x = unit();
        imu.linear_acceleration.y = 9.81 * unit();
        w.write_ros_message("/imu", t, &imu, ctx).unwrap();
    }
    w.close(ctx).unwrap();
    let opts = OrganizerOptions { block: Some(BlockParams::default()), ..Default::default() };
    bora::duplicate(&*fs, "/imu.bag", &*fs, "/c", &opts, ctx).unwrap();
    BoraBag::open(fs, "/c", ctx).unwrap().with_pool(BufferPool::new(64 << 20))
}

fn run(p: &Prepared, bag: &BoraBag<Arc<MemStorage>>, partial: bool) -> (Vec<Row>, u64) {
    let ctx = &mut IoCtx::new();
    let mut cur = p.cursor_bag(bag, partial, ctx).unwrap();
    let rows = cur.collect_rows().unwrap();
    (rows, cur.stats().scanned)
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group.sample_size(60);

    let full = format!("{AGG} WINDOW 1s");
    group.bench_function("prepare", |b| {
        b.iter(|| prepare(black_box(&full)).unwrap());
    });

    let bag = imu_container();
    let ranged = format!("{AGG} WHERE time >= 119.2 AND time < 128.8 WINDOW 1s");
    let selective = "SELECT time, angular_velocity.x, linear_acceleration.y FROM '/imu' \
                     WHERE angular_velocity.x > 0.94";
    for (name, sql) in [
        ("exec/count", "SELECT count() FROM '/imu'"),
        ("exec/window_agg_full", &full),
        ("exec/window_agg_ranged", &ranged),
        ("exec/filter_project", selective),
    ] {
        let p = prepare(sql).unwrap();
        // The first run fills the pool; its count is the row's unit.
        let (rows, scanned) = run(&p, &bag, false);
        assert!(!rows.is_empty() && scanned > 0, "{name} scans and answers");
        group.throughput(Throughput::Elements(scanned));
        group.bench_function(name, |b| b.iter(|| run(black_box(&p), &bag, false)));
    }

    // Partial merge: three fragments' worth of per-window states.
    let p = prepare(&full).unwrap();
    let (partial, _) = run(&p, &bag, true);
    let partials = vec![partial.clone(), partial.clone(), partial];
    group.throughput(Throughput::Elements(partials.iter().map(|p| p.len() as u64).sum()));
    group.bench_function("merge_partials", |b| {
        b.iter(|| merge_partials(black_box(&p.plan), black_box(&partials)).unwrap());
    });

    let (rows, _) = run(&prepare(selective).unwrap(), &bag, false);
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("encode_rows", |b| {
        b.iter(|| encode_rows(black_box(&rows)));
    });
    let blob = encode_rows(&rows);
    group.bench_function("decode_rows", |b| {
        b.iter(|| decode_rows(black_box(&blob)).unwrap());
    });

    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
