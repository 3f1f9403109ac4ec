//! One workload, start to finish: set-up (several times, for `setup_s`),
//! the warm-up repetition that checks every answer, then either the
//! timed repetitions (`--trace 0`, end-to-end metrics) or the counted
//! repetitions and the layer peel (`--trace 1`, per-layer metrics).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host::peak_rss_mb;
use crate::plan::{Class, Kind, Plan};
use crate::run::{pooled, run_rep, Mode, Rep, Stat, World};
use crate::stats::median;
use crate::world::{tree_bytes, Reference};

#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One timed repetition, lists and mission divided by ten.
    pub quick: bool,
    /// Where the traced run writes its Chrome trace.
    pub out: Option<PathBuf>,
}

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, in reporting order.
    pub metrics: Vec<(&'static str, Stat)>,
    /// The layer with the largest self time (traced runs).
    pub top_layer: Option<String>,
    pub reps: usize,
    pub requests_per_rep: usize,
}

/// Set-ups per run whose median is `setup_s`.
const SETUPS: usize = 3;
/// Fewest timed repetitions behind an end-to-end value.
const MIN_REPS: usize = 3;

pub fn run(args: &Args) -> Outcome {
    // Before any server starts: the pool reads its budget at start-up.
    match args.kind.pool_bytes(args.quick) {
        Some(bytes) => std::env::set_var("BORA_POOL_BYTES", bytes.to_string()),
        None => std::env::remove_var("BORA_POOL_BYTES"),
    }

    // Each set-up starts from nothing; the last one is measured on.
    let setups = if args.quick || args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let world = loop {
        let t = Instant::now();
        let world = World::setup(args.kind, args.seed, args.quick);
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == setups {
            break world;
        }
        world.teardown();
    };
    let reference = Reference::read(&world.fs);
    let plan = Plan::build(args.kind, &reference, args.seed, args.quick);

    // Warm-up: fills caches and checks every answer against the baseline
    // reader's. Its failures count; its times do not.
    let warm = run_rep(&world, &plan, &reference, Mode::Verify);

    let mut outcome = if args.trace {
        crate::layers::run(args, &world, &plan, &reference)
    } else {
        let (min_reps, budget) = if args.quick {
            (1, Duration::ZERO)
        } else {
            (MIN_REPS, Duration::from_secs(args.seconds))
        };
        let mut reps = Vec::new();
        let t = Instant::now();
        while reps.len() < min_reps || t.elapsed() < budget {
            reps.push(run_rep(&world, &plan, &reference, Mode::Timed));
        }
        let mut metrics = vec![("setup_s", Stat::exact(median(&setup_s)))];
        metrics.extend(end_to_end(&world, &plan, &reference, &reps));
        // Last, so it covers the whole run.
        metrics.push(("peak_rss_mb", Stat::exact(peak_rss_mb())));
        let (checks, broken) = validity(args.kind, &reps);
        Outcome {
            attempted: reps.iter().map(|r| r.samples.len() as u64).sum::<u64>() + checks,
            failed: reps.iter().map(Rep::failed).sum::<u64>() + broken,
            metrics,
            top_layer: None,
            reps: reps.len(),
            requests_per_rep: plan.reqs.len(),
        }
    };
    outcome.attempted += warm.samples.len() as u64;
    outcome.failed += warm.failed();
    world.teardown();
    outcome
}

/// The metrics a user of the system sees. A rate is the median over the
/// timed repetitions of the repetition's rate; a latency is the median of
/// the samples of all of them (a cold scan's repetition holds two).
fn end_to_end(
    world: &World,
    plan: &Plan,
    reference: &Reference,
    reps: &[Rep],
) -> Vec<(&'static str, Stat)> {
    let read = Class::Read;
    vec![
        ("read_msgs_s", Stat::over_reps(reps, |r| r.msgs_per_s(read))),
        ("read_ops_s", Stat::over_reps(reps, |r| r.ops_per_s(read))),
        ("read_p50_ms", Stat::median_of(&pooled(reps, |r| r.total_ms(read)))),
        ("stored_bytes_per_user_byte", stored_ratio(world, plan, reference, reps)),
    ]
}

/// Bytes under the workload's container roots per payload byte stored in
/// them. Exact: a function of the seed alone.
fn stored_ratio(world: &World, plan: &Plan, reference: &Reference, reps: &[Rep]) -> Stat {
    if plan.kind == Kind::IngestMixed {
        return Stat::over_reps(reps, |r| r.live_bytes as f64 / plan.batch_bytes as f64);
    }
    let roots: &[&str] =
        if plan.kind == Kind::WindowMix { &crate::plan::MIX_ROOTS } else { &[crate::plan::BLK] };
    let stored: u64 = roots.iter().map(|r| tree_bytes(&world.fs, r)).sum();
    Stat::exact(stored as f64 / (reference.payload_bytes * roots.len() as u64) as f64)
}

/// Each workload exists to exercise one regime; a run that left it is a
/// failed run, whatever its times. Returns (checks made, checks failed).
fn validity(kind: Kind, reps: &[Rep]) -> (u64, u64) {
    let sum = |name: &str| reps.iter().map(|r| r.counter(name)).sum::<u64>();
    let ok = match kind {
        // Warm means warm: not one block decoded while timing.
        Kind::ScanSmallWarm => sum("block.decode") == 0,
        // Cold means cold: the pool must miss nearly always.
        Kind::ScanLargeCold => {
            let (hit, miss) = (sum("pool.hit"), sum("pool.miss"));
            miss > 0 && (hit as f64) < 0.1 * (hit + miss) as f64
        }
        // The handle cache must both hit and miss.
        Kind::WindowMix => {
            reps.iter().all(|r| r.stat(|s| s.cache_misses) > 0 && r.stat(|s| s.cache_hits) > 0)
        }
        Kind::QueryAgg | Kind::IngestMixed => return (0, 0),
    };
    if !ok {
        eprintln!("{}: workload left the regime it exists to measure", kind.name());
    }
    (1, u64::from(!ok))
}

/// Count metrics of the serving layers, as deltas of the server's own
/// counters around each untraced repetition. With one connection they
/// repeat exactly.
pub fn layer_counts(plan: &Plan, reps: &[Rep]) -> Vec<(&'static str, Stat)> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| Stat::over_reps(reps, f);
    let counter = |name: &'static str| per_rep(&move |r| r.counter(name) as f64);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let user_bytes = plan.batch_bytes as f64;
    let mut out = vec![
        (
            "serve.server.queue_wait_p50_us",
            per_rep(&|r| r.hist("serve.queue_wait_ns").percentile(0.5) as f64 / 1e3),
        ),
        (
            "serve.server.queue_wait_p99_us",
            per_rep(&|r| r.hist("serve.queue_wait_ns").percentile(0.99) as f64 / 1e3),
        ),
        ("serve.server.shed", per_rep(&|r| r.stat(|s| s.shed) as f64)),
        (
            "serve.cache.hit_ratio",
            per_rep(&|r| {
                let hits = r.stat(|s| s.cache_hits) as f64;
                ratio(hits, hits + r.stat(|s| s.cache_misses) as f64)
            }),
        ),
        ("serve.cache.evictions", per_rep(&|r| r.stat(|s| s.cache_evictions) as f64)),
        ("serve.wire.lz_chunks", counter("serve.stream_chunk_lz")),
        (
            "bora.bufpool.hit_ratio",
            per_rep(&|r| {
                let hits = r.counter("pool.hit") as f64;
                ratio(hits, hits + r.counter("pool.miss") as f64)
            }),
        ),
        ("bora.bufpool.misses", counter("pool.miss")),
        ("bora.bufpool.evictions", counter("pool.evict")),
        ("bora.bufpool.bypasses", counter("pool.bypass")),
        (
            "bora.bufpool.resident_mb",
            per_rep(&|r| r.after.report.gauge("pool.resident_bytes").unwrap_or(0) as f64 / 1e6),
        ),
        ("bora.block.decodes", counter("block.decode")),
        ("bora.block.decoded_mb", per_rep(&|r| r.counter("block.decode_bytes") as f64 / 1e6)),
        (
            "bora.stream.heap_ops_per_msg",
            per_rep(&|r| {
                ratio(r.counter("stream.merge.heap_ops") as f64, r.msgs(Class::Read) as f64)
            }),
        ),
        (
            "bora.stream.copied_bytes_per_payload_byte",
            per_rep(&|r| {
                ratio(r.counter("stream.bytes_copied") as f64, r.bytes(Class::Read) as f64)
            }),
        ),
        ("ingest.wal.fsyncs", counter("wal.fsync")),
        ("ingest.store.seals", counter("ingest.seal")),
        (
            "ingest.compact.bytes_per_user_byte",
            per_rep(&|r| ratio(r.counter("compact.bytes") as f64, user_bytes)),
        ),
    ];
    // Metrics of single requests that no bound guards: time to first
    // message, the tail, and the write side of `ingest_mixed`. Percentiles
    // pool the repetitions and are reported only with ten samples beyond
    // them.
    let (reads, writes) =
        (pooled(reps, |r| r.total_ms(Class::Read)), pooled(reps, |r| r.total_ms(Class::Write)));
    let queries: &[f64] = if plan.kind == Kind::QueryAgg { &reads } else { &[] };
    out.extend([
        ("first_msg_p50_ms", Stat::median_of(&pooled(reps, |r| r.first_ms(Class::Read)))),
        ("read_p99_ms", Stat::tail_of(&reads, 0.99)),
        ("query.p95_ms", Stat::tail_of(queries, 0.95)),
        ("write_msgs_s", per_rep(&|r| r.msgs_per_s(Class::Write))),
        ("write_p50_ms", Stat::median_of(&writes)),
        ("ingest.append_ack_p99_ms", Stat::tail_of(&writes, 0.99)),
    ]);
    out
}
