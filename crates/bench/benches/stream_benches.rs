//! Criterion micro-benchmarks for the streaming query pipeline (PR:
//! streaming zero-copy reads) — real wall-clock time of the pieces the
//! `ext_stream` experiment measures on the virtual clock:
//!
//! * CRC32C: the dispatched path (hardware where present), slice-by-8
//!   alone, and the bitwise reference,
//! * heap vs linear k-way merge at several fan-ins,
//! * zero-copy streaming consumption (`payload()`) vs materializing
//!   (`to_record()` / `read_topics`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bench::merge_ref::{merge_streams_heap, merge_streams_linear};
use bora::checksum::crc32c_bitwise_reference;
use bora::{crc32c, BoraBag, Crc32c, StreamOptions};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use rosbag::reader::MessageRecord;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};
use std::sync::Arc;

const MSGS_PER_TOPIC: u32 = 128;
const MAX_TOPICS: usize = 32;

/// A `MAX_TOPICS`-topic Imu bag organized into a container at `/c`.
fn prepared_env() -> (Arc<MemStorage>, Vec<String>) {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let topics: Vec<String> = (0..MAX_TOPICS).map(|i| format!("/sensor/{i:02}")).collect();
    let mut w = BagWriter::create(
        fs.as_ref(),
        "/sweep.bag",
        BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    let desc = MessageDescriptor::of::<Imu>();
    let conns: Vec<u32> = topics.iter().map(|t| w.add_connection(t, &desc)).collect();
    for i in 0..MSGS_PER_TOPIC {
        for (ti, &conn) in conns.iter().enumerate() {
            let mut imu = Imu::default();
            imu.header.seq = i;
            imu.header.stamp = Time::new(i, ti as u32);
            w.write_message(conn, imu.header.stamp, &imu.to_bytes(), &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(fs.as_ref(), "/sweep.bag", fs.as_ref(), "/c", &Default::default(), &mut ctx)
        .unwrap();
    (fs, topics)
}

/// `dispatched` is what the workspace calls (`crc32c`: the SSE4.2
/// instruction where the CPU has it, else the `slice8` path); `slice8` is
/// the table-driven fallback on its own, so the row exists on every host.
fn bench_crc32c(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32c");
    for size in [4 * 1024usize, 64 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_mul(31)).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("dispatched", size), &data, |b, d| {
            b.iter(|| black_box(crc32c(d)))
        });
        group.bench_with_input(BenchmarkId::new("slice8", size), &data, |b, d| {
            b.iter(|| {
                let mut crc = Crc32c::new();
                crc.update_slice8(d);
                black_box(crc.finish())
            })
        });
        group.bench_with_input(BenchmarkId::new("bitwise_reference", size), &data, |b, d| {
            b.iter(|| black_box(crc32c_bitwise_reference(d)))
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let (fs, topics) = prepared_env();
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(fs.as_ref(), "/c", &mut ctx).unwrap();

    let mut group = c.benchmark_group("kway_merge");
    group.sample_size(20);
    for k in [4usize, 16, 32] {
        let per_topic: Vec<Vec<MessageRecord>> =
            topics[..k].iter().map(|t| bag.read_topic(t, &mut ctx).unwrap()).collect();
        group.bench_with_input(BenchmarkId::new("linear", k), &per_topic, |b, streams| {
            b.iter(|| {
                let mut ctx = IoCtx::new();
                black_box(merge_streams_linear(streams.clone(), &mut ctx))
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", k), &per_topic, |b, streams| {
            b.iter(|| {
                let mut ctx = IoCtx::new();
                black_box(merge_streams_heap(streams.clone(), &mut ctx))
            })
        });
    }
    group.finish();
}

fn bench_streaming_vs_materializing(c: &mut Criterion) {
    let (fs, topics) = prepared_env();
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(fs.as_ref(), "/c", &mut ctx).unwrap();
    let refs: Vec<&str> = topics[..8].iter().map(String::as_str).collect();

    let mut group = c.benchmark_group("read_8_topics");
    group.sample_size(20);
    group.bench_function("materializing_read_topics", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            black_box(bag.read_topics(&refs, &mut ctx).unwrap())
        })
    });
    group.bench_function("streaming_zero_copy", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            let mut stream = bag.stream_topics(&refs, StreamOptions::default(), &mut ctx).unwrap();
            let mut bytes = 0u64;
            while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
                bytes += m.payload().len() as u64; // borrow only, no copy
            }
            black_box(bytes)
        })
    });
    group.bench_function("streaming_to_records", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            let mut stream = bag.stream_topics(&refs, StreamOptions::default(), &mut ctx).unwrap();
            let mut out = Vec::new();
            while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
                out.push(m.to_record()); // copies payloads out of the blocks
            }
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crc32c, bench_merge, bench_streaming_vs_materializing);
criterion_main!(benches);
