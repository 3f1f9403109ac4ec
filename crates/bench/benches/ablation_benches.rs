//! Wall-clock ablations that have no per-layer metric in the wall-clock
//! benchmark (`benchmark/`, which times every kernel a served request
//! touches; these four are design questions no request asks):
//!
//! * `tag_manager` — Table I and DESIGN.md §5.3: the tag table rebuilt
//!   from the directory listing vs from a persisted topic list, in
//!   topics/s;
//! * `time_index_window` — DESIGN.md §5.1: build (entries/s) and lookup
//!   (lookups/s) cost of the coarse index per window width;
//! * `organizer_threads` — DESIGN.md §5.2: one bag organised by 1..8
//!   distributor threads, in bag MB/s;
//! * `db_insert_2k_tf` — Fig. 2's engines doing real parse/index/WAL
//!   work, in inserts/s.
//!
//! Fixtures are built outside the timed region and every row declares
//! its unit; `BENCH_ablation.json` at the repo root is this file's ledger
//! (`BENCH_JSON=$PWD/BENCH_ablation.json cargo bench -p bench --bench
//! ablation_benches`). The virtual-clock sweeps of the same questions are
//! `repro ablation_window|ablation_threads|ablation_tag_persist|fig2`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use bora::{OrganizerOptions, TagManager, TimeIndex, TopicIndexEntry};
use dbsim::{InsertEngine, KvStore, SqlStore, TsdbStore};
use ros_msgs::geometry_msgs::TransformStamped;
use ros_msgs::Time;
use rosbag::BagWriterOptions;
use simfs::{IoCtx, MemStorage, Storage};
use workloads::tum::{fig2_tf_messages, generate_bag, GenOptions};

fn bench_tag_manager(c: &mut Criterion) {
    let mut group = c.benchmark_group("tag_manager");
    for n in [10usize, 100, 1_000, 10_000] {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        fs.append("/c/.bora", b"m", &mut ctx).unwrap();
        let topics: Vec<String> = (0..n).map(|i| format!("/dev/sensor_{i:06}")).collect();
        for t in &topics {
            fs.mkdir_all(&format!("/c/{}", bora::layout::encode_topic(t)), &mut ctx).unwrap();
        }
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("rebuild_from_listing", n), &n, |b, _| {
            b.iter(|| TagManager::build(&fs, "/c", &mut IoCtx::new()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("from_persisted_list", n), &n, |b, _| {
            b.iter(|| TagManager::from_topics("/c", black_box(&topics)))
        });
    }
    group.finish();
}

fn bench_time_index_window(c: &mut Criterion) {
    let entries: Vec<TopicIndexEntry> = (0..100_000u64)
        .map(|i| TopicIndexEntry { time: Time::from_nanos(i * 2_000_000), offset: i * 64, len: 64 })
        .collect();
    let mut group = c.benchmark_group("time_index_window");
    for window_s in [1u64, 5, 10, 60] {
        let w = window_s * 1_000_000_000;
        group.throughput(Throughput::Elements(entries.len() as u64));
        group.bench_with_input(BenchmarkId::new("build", window_s), &w, |b, &w| {
            b.iter(|| TimeIndex::build(black_box(&entries), w))
        });
        let ti = TimeIndex::build(&entries, w);
        let start = Time::from_sec_f64(30.0);
        let end = Time::from_sec_f64(42.0);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("lookup", window_s), &w, |b, _| {
            b.iter(|| ti.candidate_entries(black_box(start), black_box(end)))
        });
    }
    group.finish();
}

fn bench_organizer_threads(c: &mut Criterion) {
    let src = MemStorage::new();
    let mut ctx = IoCtx::new();
    let gen = GenOptions {
        count_scale: 0.05,
        payload_scale: 0.004,
        seed: 0xBE9C,
        writer: BagWriterOptions { chunk_size: 128 * 1024, ..Default::default() },
        ..Default::default()
    };
    generate_bag(&src, "/hs.bag", &gen, &mut ctx).unwrap();
    let bag_len = src.len("/hs.bag", &mut ctx).unwrap();

    let mut group = c.benchmark_group("organizer_threads");
    group.throughput(Throughput::Bytes(bag_len));
    for threads in [1usize, 2, 4, 8] {
        let opts = OrganizerOptions { distributor_threads: threads, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &opts, |b, opts| {
            // Every iteration organises into a destination of its own,
            // made before the clock starts and dropped after it stops.
            b.iter_batched(
                MemStorage::new,
                |dst| {
                    bora::duplicate(&src, "/hs.bag", &dst, "/c", opts, &mut IoCtx::new()).unwrap();
                    dst
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Insert `msgs` into an engine that `create` made outside the timed
/// region; the engine and its storage are dropped outside it too.
fn insert_all<E: InsertEngine>(
    b: &mut criterion::Bencher,
    msgs: &[TransformStamped],
    create: impl Fn(Arc<MemStorage>, &mut IoCtx) -> E,
) {
    b.iter_batched(
        || create(Arc::new(MemStorage::new()), &mut IoCtx::new()),
        |mut engine| {
            let mut ctx = IoCtx::new();
            for m in msgs {
                engine.insert_tf(m, &mut ctx).unwrap();
            }
            engine
        },
        BatchSize::LargeInput,
    )
}

fn bench_db_insert(c: &mut Criterion) {
    let msgs = fig2_tf_messages(2_000, 0xD8);
    let mut group = c.benchmark_group("db_insert_2k_tf");
    group.throughput(Throughput::Elements(msgs.len() as u64));
    group.bench_function("kv", |b| {
        insert_all(b, &msgs, |fs, ctx| KvStore::create(fs, "/kv", ctx).unwrap())
    });
    group.bench_function("sql", |b| {
        insert_all(b, &msgs, |fs, ctx| SqlStore::create(fs, "/pg", ctx).unwrap())
    });
    group.bench_function("tsdb", |b| {
        insert_all(b, &msgs, |fs, ctx| TsdbStore::create(fs, "/ts", ctx).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tag_manager,
    bench_time_index_window,
    bench_organizer_threads,
    bench_db_insert,
);
criterion_main!(benches);
