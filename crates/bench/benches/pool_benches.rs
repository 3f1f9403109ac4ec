//! Micro-benchmarks for the buffer pool and the block codec hot paths.
//!
//! The load-bearing numbers:
//! * `pool_hit` — a warm `get_or_fill` (one shard lock + map probe +
//!   pin); this sits on every pooled page read, so it must stay cheap;
//! * `pool_miss_evict` — the cold path at a full budget: fill, clock
//!   sweep, insert (steady-state eviction cost);
//! * `encode_lzss` / `encode_raw_fallback` — the compaction/organizer
//!   write cost per 64 KiB block, compressible vs incompressible. The
//!   second reads ~0.56 ms where it read ~1.1 ms before the encoder's
//!   search was bounded: an incompressible block costs half a match
//!   search, a copy and a CRC, not a full LZSS pass that is then thrown
//!   away. It will drop in steps as `PROBE_DIVISOR` grows — ~65 µs with
//!   a one-window probe, not a typo when it happens;
//! * `decode_lzss` / `decode_raw` — the cursor-fill cost per block (CRC
//!   verify + decompress), i.e. what a pool *miss* pays over a hit;
//! * `stream_chunk_lz_roundtrip` — one compressed wire chunk through
//!   `compress_chunk` + `decompress_chunk` (the ReadStream2 unit).

use std::hint::black_box;

use bora::block::{decode_frame, encode_frame};
use bora::{BlockCodec, BufferPool};
use bora_serve::{compress_chunk, decompress_chunk, Response, WireMessage};
use criterion::{criterion_group, criterion_main, Criterion};
use ros_msgs::Time;
use simfs::IoCtx;

const BLOCK: usize = 64 * 1024;

/// A structured, IMU-like block: long zero runs with a sprinkle of
/// counters — the shape LZSS actually earns its keep on.
fn compressible_block() -> Vec<u8> {
    let mut v = vec![0u8; BLOCK];
    for (i, b) in v.iter_mut().enumerate().step_by(61) {
        *b = (i % 251) as u8;
    }
    v
}

/// PRNG bytes LZSS cannot shrink — exercises the raw fallback.
fn incompressible_block() -> Vec<u8> {
    let mut x = 0x1234_5678u32;
    (0..BLOCK)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect()
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.sample_size(60);

    // Budget holds the whole keyspace: every lookup after warmup hits.
    let pool = BufferPool::with_page_size(256 * 1024 * 1024, BLOCK);
    let page = compressible_block();
    for k in 0..64u64 {
        let p = page.clone();
        pool.get_or_fill("/bench/data", k, move || Ok(p)).unwrap();
    }
    let mut k = 0u64;
    group.bench_function("pool_hit", |b| {
        b.iter(|| {
            k = (k + 1) % 64;
            let (page, hit) =
                pool.get_or_fill(black_box("/bench/data"), k, || unreachable!("warm")).unwrap();
            debug_assert!(hit);
            black_box(page.len());
        })
    });

    // Budget of 8 pages over 8 shards: every miss evicts a predecessor.
    let small = BufferPool::with_page_size((8 * BLOCK) as u64, BLOCK);
    let mut n = 0u64;
    group.bench_function("pool_miss_evict", |b| {
        b.iter(|| {
            n += 1;
            let p = page.clone();
            let (page, hit) =
                small.get_or_fill(black_box("/bench/data"), n, move || Ok(p)).unwrap();
            debug_assert!(!hit);
            black_box(page.len());
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_codec");
    group.sample_size(30);

    let zip = compressible_block();
    let raw = incompressible_block();
    group.bench_function("encode_lzss_64k", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            black_box(encode_frame(BlockCodec::Lzss, black_box(&zip), &mut ctx).len())
        })
    });
    group.bench_function("encode_raw_fallback_64k", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            black_box(encode_frame(BlockCodec::Lzss, black_box(&raw), &mut ctx).len())
        })
    });

    let mut ctx = IoCtx::new();
    let zip_frame = encode_frame(BlockCodec::Lzss, &zip, &mut ctx);
    let raw_frame = encode_frame(BlockCodec::Lzss, &raw, &mut ctx);
    group.bench_function("decode_lzss_64k", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            black_box(decode_frame(black_box(&zip_frame), "bench/data", &mut ctx).unwrap().0.len())
        })
    });
    group.bench_function("decode_raw_64k", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            black_box(decode_frame(black_box(&raw_frame), "bench/data", &mut ctx).unwrap().0.len())
        })
    });
    group.finish();
}

fn bench_stream_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_chunk");
    group.sample_size(30);

    // One server-side chunk: 32 IMU-sized structured payloads.
    let msgs: Vec<WireMessage> = (0..32u32)
        .map(|i| {
            let mut data = vec![0u8; 320];
            data[0] = i as u8;
            WireMessage { topic: "/imu".into(), time: Time::new(100 + i, 0), data }
        })
        .collect();
    group.bench_function("stream_chunk_lz_roundtrip", |b| {
        b.iter(|| {
            let mut ctx = IoCtx::new();
            let resp = compress_chunk(black_box(&msgs), &mut ctx);
            let Response::StreamChunkLz(frame) = resp else { unreachable!() };
            black_box(decompress_chunk(&frame).unwrap().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pool, bench_codec, bench_stream_chunk);
criterion_main!(benches);
