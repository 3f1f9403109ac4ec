//! Micro-benchmarks for the bora-serve hot paths: the wire codec (every
//! request and response crosses it) and the handle-cache hit path (every
//! query against a warm container takes it).

use std::sync::Arc;

use bora_serve::cache::HandleCache;
use bora_serve::proto::{Request, Response, WireMessage};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ros_msgs::{sensor_msgs::Imu, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};
use std::hint::black_box;

fn read_response(messages: usize, payload: usize) -> Response {
    Response::Read(
        (0..messages)
            .map(|i| WireMessage {
                topic: "/camera/depth/image".into(),
                time: Time::new(i as u32, 0),
                data: vec![0xA5; payload],
            })
            .collect(),
    )
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_codec");
    group.sample_size(40);

    let req = Request::Read {
        container: "/c/hs0".into(),
        topics: vec!["/camera/depth/image".into(), "/imu".into(), "/tf".into()],
        range: Some((Time::new(10, 0), Time::new(20, 0))),
    };
    let req_bytes = req.encode_framed(None, None);
    group
        .bench_function("request_encode", |b| b.iter(|| black_box(&req).encode_framed(None, None)));
    group.bench_function("request_decode", |b| {
        b.iter(|| Request::decode_framed(black_box(&req_bytes)).unwrap())
    });

    for &messages in &[16usize, 256] {
        let resp = read_response(messages, 512);
        let resp_bytes = resp.encode();
        group.bench_with_input(
            BenchmarkId::new("read_response_encode", messages),
            &resp,
            |b, resp| b.iter(|| black_box(resp).encode()),
        );
        group.bench_with_input(
            BenchmarkId::new("read_response_decode", messages),
            &resp_bytes,
            |b, bytes| b.iter(|| Response::decode(black_box(bytes)).unwrap()),
        );
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    // One small real container so hit and miss paths run actual opens.
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(&*fs, "/b.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..200u32 {
        let mut imu = Imu::default();
        imu.header.stamp = Time::new(i, 0);
        w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    for i in 0..2 {
        bora::duplicate(&*fs, "/b.bag", &*fs, &format!("/c/b{i}"), &Default::default(), &mut ctx)
            .unwrap();
    }

    let mut group = c.benchmark_group("serve_cache");
    group.sample_size(40);

    let cache: HandleCache<Arc<MemStorage>> = HandleCache::new(4);
    group.bench_function("hit", |b| {
        b.iter(|| {
            let mut qctx = IoCtx::new();
            black_box(cache.get_or_open(&fs, "/c/b0", &mut qctx).unwrap().was_hit)
        })
    });

    // Capacity 1 with two containers: every access misses, runs a real
    // open, and evicts the other entry — the worst-case churn path.
    let churn: HandleCache<Arc<MemStorage>> = HandleCache::new(1);
    let mut flip = false;
    group.bench_function("miss_open_evict", |b| {
        b.iter(|| {
            flip = !flip;
            let root = if flip { "/c/b0" } else { "/c/b1" };
            let mut qctx = IoCtx::new();
            black_box(churn.get_or_open(&fs, root, &mut qctx).unwrap().was_hit)
        })
    });
    group.finish();
}

criterion_group!(serve_benches, bench_codec, bench_cache);
criterion_main!(serve_benches);
