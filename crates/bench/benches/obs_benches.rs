//! Micro-benchmarks for the observability plane's hot paths.
//!
//! The load-bearing numbers:
//! * `span_disabled` — the cost every instrumented call site pays when
//!   tracing is off (one relaxed atomic load; the PR's budget is ≤5ns);
//! * `encode_untraced` vs `encode_traced` — what a trace context in the
//!   request header adds to a wire frame;
//! * `windowed_record` / `windowed_snapshot` — the SLO tracker's
//!   per-sample and per-evaluation cost;
//! * `hist_merge` — the bucket-wise fold the cluster aggregation does
//!   once per histogram per node per scrape;
//! * `metrics_scrape` — one full OP_METRICS roundtrip against a served
//!   node (the telemetry poller's unit of work).

use std::sync::Arc;

use bora_obs::{ExpHistogram, TraceContext, WindowedHistogram};
use bora_serve::{MemTransport, Request, ServeClient, Server, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use simfs::MemStorage;
use std::hint::black_box;

fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_span");
    group.sample_size(60);

    // The shim times each sample with an `Instant::now()` pair (~25ns),
    // which would swamp a ~1ns op — so each sample runs 1024 call sites
    // and the per-op cost is the reported time divided by 1024. The
    // ≤5ns/op budget for the disabled path means ≤5.1µs here.
    const BATCH: usize = 1024;
    bora_obs::set_enabled(false);
    group.bench_function("span_disabled_x1024", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let sp = bora_obs::span(black_box("bench.op"));
                drop(sp);
            }
        })
    });

    bora_obs::set_enabled(true);
    bora_obs::drain();
    group.bench_function("span_enabled_x1024", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let sp = bora_obs::span(black_box("bench.op"));
                drop(sp);
            }
        })
    });
    bora_obs::set_enabled(false);
    bora_obs::drain();
    group.finish();
}

fn bench_trace_header(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_wire");
    group.sample_size(60);

    let req = Request::Read {
        container: "/c/hs0".into(),
        topics: vec!["/imu".into(), "/tf".into()],
        range: None,
    };
    group.bench_function("encode_untraced", |b| {
        b.iter(|| black_box(&req).encode_framed(None, None))
    });
    let ctx = TraceContext { trace_id: 0x1234, parent_span: 0x5678, sampled: true };
    group.bench_function("encode_traced", |b| {
        b.iter(|| black_box(&req).encode_framed(Some(ctx), None))
    });
    let traced = req.encode_framed(Some(ctx), None);
    group.bench_function("decode_traced", |b| {
        b.iter(|| Request::decode_framed(black_box(&traced)).unwrap())
    });
    group.finish();
}

fn bench_windowed(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_window");
    group.sample_size(60);

    let w = WindowedHistogram::per_second_minute();
    let mut t = 0u64;
    group.bench_function("windowed_record", |b| {
        b.iter(|| {
            t = t.wrapping_add(7_919); // walk time forward, off-slot-boundary
            w.record_at(black_box(t), black_box(4096));
        })
    });
    // Populated window → snapshot folds all 60 slots.
    for i in 0..60_000u64 {
        w.record_at(i * 1_000_000, i % 8192);
    }
    group.bench_function("windowed_snapshot", |b| {
        b.iter(|| w.snapshot_at(black_box(60_000_000_000)))
    });

    let a = ExpHistogram::new();
    let bh = ExpHistogram::new();
    for i in 0..4096u64 {
        a.record(i * 37 + 1);
        bh.record(i * 91 + 5);
    }
    let (sa, sb) = (a.snapshot(), bh.snapshot());
    group.bench_function("hist_merge", |b| b.iter(|| black_box(&sa).merge(black_box(&sb))));
    group.finish();
}

fn bench_scrape(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_scrape");
    group.sample_size(30);

    let fs = Arc::new(MemStorage::new());
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();
    // Put real content in the registry so the report is representative.
    for _ in 0..256 {
        let _ = client.stats();
    }
    group.bench_function("metrics_scrape", |b| b.iter(|| client.metrics().unwrap()));
    group.finish();
    client.shutdown().unwrap();
    server.shutdown();
}

criterion_group!(benches, bench_span, bench_trace_header, bench_windowed, bench_scrape);
criterion_main!(benches);
