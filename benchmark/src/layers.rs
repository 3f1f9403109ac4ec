//! The traced run (`--trace 1`): counted repetitions for the count
//! metrics, then the **layer peel** — every sampled request issued at
//! successive depths through public entry points, each call under a span
//! of the harness's own — and a few kernels timed alone.
//!
//! Three stacks are fed the identical request sequence, so their handle
//! caches, pools and live roots are in the same state request by request:
//!
//! * **A** `client.request`: `ServeClient` over TCP loopback;
//! * **B** `serve.submit`: a twin server, `Server::submit_streamed`
//!   in-process — no framing, no socket;
//! * **C** the library calls a worker makes (`HandleCache::get_or_open`,
//!   `BoraBag::stream_topics`, `bora_query::prepare` + cursor,
//!   `IngestStore::append` …) on the harness's own handles;
//!
//! and below them leaf kernels over the bytes that request touched
//! (`Response::encode`/`decode`, `compress_chunk`/`decompress_chunk`,
//! `decode_frame`, `crc32c`, `BufferPool::get_or_fill`). B explains part
//! of A, C part of B, the kernels part of whichever ran them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bora::block::{decode_frame, encode_frame};
use bora::layout::TopicPaths;
use bora::{crc32c, BlockCodec, BoraBag, BufferPool, StreamOptions};
use bora_ingest::IngestStore;
use bora_query::PlanOptions;
use bora_serve::{
    compress_chunk, decompress_chunk, HandleCache, MemTransport, Request, Response, ServeClient,
    Server, WireMessage,
};
use simfs::{IoCtx, MemStorage, Storage};

use crate::measure::{layer_counts, Args, Outcome};
use crate::plan::{Kind, Plan, Req, TAIL_TOPICS};
use crate::run::{create_live_root, exec, live_stack, run_rep, Mode, Stat, World};
use crate::trace::{chrome_trace, self_times, Layer, Recorder};
use crate::world::{organise, Client, Fs, Reference, Stack};

/// Every n-th request of the list is peeled to the leaves and recorded;
/// the others still run on all three stacks, to keep their state equal.
fn sample_stride(kind: Kind, quick: bool) -> usize {
    if quick {
        return 1;
    }
    match kind {
        Kind::ScanSmallWarm | Kind::QueryAgg => 2,
        Kind::WindowMix => 4,
        Kind::ScanLargeCold | Kind::IngestMixed => 1,
    }
}

pub fn run(args: &Args, world: &World, plan: &Plan, reference: &Reference) -> Outcome {
    // Two counted repetitions, and between them one that has bora-obs
    // spans on: the cost of watching is that one against its untraced
    // neighbours (bracketed, so that a drifting host cancels). `--quick`
    // has the first neighbour only.
    let mut reps = vec![run_rep(world, plan, reference, Mode::Timed)];
    bora_obs::set_enabled(true);
    let watched = run_rep(world, plan, reference, Mode::Timed);
    bora_obs::set_enabled(false);
    drop(bora_obs::drain());
    if !args.quick {
        reps.push(run_rep(world, plan, reference, Mode::Timed));
    }
    let mut metrics = layer_counts(plan, &reps);
    let plain = reps.iter().map(|r| r.wall_ns as f64).sum::<f64>() / reps.len() as f64;
    metrics.push((
        "obs.span_overhead_pct",
        Stat::exact((watched.wall_ns as f64 / plain - 1.0) * 100.0),
    ));

    let stall =
        (plan.kind == Kind::IngestMixed).then(|| run_rep(world, plan, reference, Mode::Stall));
    let stall_ms = stall.as_ref().map_or(0.0, |r| r.stall_max_ns as f64 / 1e6);
    metrics.push(("ingest.read_stall_max_ms", Stat::exact(stall_ms)));

    let mut peel = Peel::new(world, plan);
    // Unrecorded requests first, so that the peel meets the steady
    // state the timed repetitions measure: the first half of the list
    // for `window_mix` (the peel is the second), whose pool — smaller
    // than what the list touches — and handle cache depend on what came
    // before; one round of the distinct requests elsewhere. A live root
    // starts empty, as in every repetition.
    let (warm, first) = match plan.kind {
        Kind::WindowMix => (plan.reqs.len() / 2, plan.reqs.len() / 2),
        Kind::QueryAgg => (3, 0),
        Kind::ScanSmallWarm | Kind::ScanLargeCold => (1, 0),
        Kind::IngestMixed => (0, 0),
    };
    for i in 0..warm.min(plan.reqs.len()) {
        peel.request(i, false);
    }
    // The peel runs its requests three times over plus the kernels;
    // twice the run length bounds it on a slow host.
    let stride = sample_stride(plan.kind, args.quick);
    let budget = Duration::from_secs(2 * args.seconds.max(1));
    let t = Instant::now();
    for i in first..plan.reqs.len() {
        if t.elapsed() > budget {
            eprintln!("peel stopped at request {i} of {}: out of time", plan.reqs.len());
            break;
        }
        peel.request(i, i % stride == 0);
    }
    let Peel { rec, scanned, rows_out, a, stacks, .. } = peel;
    // Clients first: a connection thread ends when its peer hangs up.
    drop(a);
    stacks.into_iter().for_each(Stack::stop);

    let (layers, overlap_ns) = self_times(&rec.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let root = layer("client.request");
    let requests = root.spans.max(1) as f64;
    let per_request_us = |ns: u64| ns as f64 / requests / 1e3;

    let top_layer = print_table(&layers, overlap_ns);

    let submit = layer("serve.submit");
    let mean_us = |name: &str| layer(name).mean_dur_ns() / 1e3;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let micro = Micro::measure(world, plan, args.quick);
    let times: Vec<(&'static str, f64)> = vec![
        ("client.request_us", mean_us("client.request")),
        ("client.self_us", per_request_us(root.self_ns)),
        ("client.overlap_ratio", ratio(overlap_ns, root.dur_ns)),
        ("serve.submit_us", mean_us("serve.submit")),
        ("serve.server.self_us", per_request_us(submit.self_ns)),
        ("serve.proto.request_ns", layer("serve.proto.request").mean_dur_ns()),
        ("serve.proto.resp_encode_ns_per_msg", layer("serve.proto.resp_encode").ns_per_work()),
        ("serve.proto.resp_decode_ns_per_msg", layer("serve.proto.resp_decode").ns_per_work()),
        ("serve.transport.tcp_rtt_us", micro.tcp_rtt_us),
        ("serve.transport.mem_rtt_us", micro.mem_rtt_us),
        ("serve.wire.lz_encode_mb_s", layer("serve.wire.lz_encode").work_per_us()),
        ("serve.wire.lz_decode_mb_s", layer("serve.wire.lz_decode").work_per_us()),
        ("bora.block.decode_mb_s", layer("bora.block.decode").work_per_us()),
        ("bora.checksum.crc32c_mb_s", layer("bora.checksum.crc32c").work_per_us()),
        ("bora.bufpool.hit_ns", layer("bora.bufpool.hit").ns_per_work()),
        ("bora.bufpool.fill_evict_us", layer("bora.bufpool.fill_evict").ns_per_work() / 1e3),
        ("bora.stream.drain_ns_per_msg", layer("bora.stream").ns_per_work()),
        ("serve.cache.hit_ns", layer("serve.cache.hit").mean_dur_ns()),
        ("serve.cache.miss_open_us", mean_us("serve.cache.miss_open")),
        ("bora.container.open_us", micro.container_open_us),
        ("bora.time_index.lookup_us", mean_us("bora.time_index.lookup")),
        ("query.prepare_us", mean_us("query.prepare")),
        ("query.exec.ns_per_row", layer("query.exec").ns_per_work()),
        ("query.wire.encode_ns_per_row", layer("query.wire.encode_rows").ns_per_work()),
        ("query.exec.rows_scanned_per_row_returned", ratio(scanned, rows_out)),
        ("query.exec.block_decodes_skipped_ratio", micro.decodes_skipped_ratio),
        ("ingest.store.append_ns_per_msg", layer("ingest.store.append").ns_per_work()),
        ("ingest.store.seal_ms", mean_us("ingest.store.seal") / 1e3),
        ("ingest.store.compact_mb_s", layer("ingest.store.compact").work_per_us()),
        ("bora.block.encode_mb_s", micro.block_encode_mb_s),
        ("bora.organizer.duplicate_mb_s", micro.duplicate_mb_s),
        ("ingest.snapshot.open_us", mean_us("ingest.snapshot.open")),
        ("ingest.snapshot.read_ns_per_msg", layer("ingest.snapshot.read").ns_per_work()),
        ("rosbag.open_ms", reference.rosbag_open_ms),
        ("rosbag.read_ns_per_msg", reference.rosbag_read_ns_per_msg),
    ];
    metrics.extend(times.into_iter().map(|(name, value)| (name, Stat::exact(value))));

    if let Some(dir) = &args.out {
        let path = dir.join(format!("trace-{}.json", plan.kind.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(&rec.spans).render()));
        match written {
            Ok(()) => println!("chrome trace: {} spans in {}", rec.spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    let all = reps.iter().chain([&watched]).chain(&stall);
    Outcome {
        attempted: all.clone().map(|r| r.samples.len() as u64).sum(),
        failed: all.map(|r| r.failed()).sum(),
        metrics,
        top_layer,
        reps: reps.len(),
        requests_per_rep: plan.reqs.len(),
    }
}

/// Print each layer's self time per peeled request, largest first, and
/// show that they sum to `client.request`; returns the largest's name.
fn print_table(layers: &BTreeMap<&'static str, Layer>, overlap_ns: u64) -> Option<String> {
    let root = layers.get("client.request").copied().unwrap_or_default();
    let per_request_us = |ns: u64| ns as f64 / root.spans.max(1) as f64 / 1e3;
    println!("layer self time per request, {} requests peeled", root.spans);
    let mut table: Vec<(&str, Layer)> = layers.iter().map(|(n, l)| (*n, *l)).collect();
    table.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    for (name, l) in &table {
        let share = 100.0 * l.self_ns as f64 / root.dur_ns.max(1) as f64;
        println!("  {name:<32} {:>12.1} us {share:>6.1}%", per_request_us(l.self_ns));
    }
    let overlap = "(overlap, client beside server)";
    println!("  {overlap:<32} {:>12.1} us", -per_request_us(overlap_ns));
    let sum: u64 = table.iter().map(|(_, l)| l.self_ns).sum();
    println!(
        "  {:<32} {:>12.1} us  = client.request {:.1} us",
        "sum",
        per_request_us(sum - overlap_ns),
        per_request_us(root.dur_ns)
    );
    table.first().map(|(name, _)| (*name).to_owned())
}

/// The three stacks and the recorder.
struct Peel<'a> {
    plan: &'a Plan,
    rec: Recorder,
    /// Storage stacks B and C read; for `ingest_mixed`, stack C's own.
    fs: Fs,
    a: Vec<Client>,
    batches_a: Vec<Vec<WireMessage>>,
    b: Arc<Server<Fs>>,
    cache: HandleCache<Fs>,
    pool: Arc<BufferPool>,
    store: Option<IngestStore<Fs>>,
    /// Pools the page kernels run on: one holding its pages, one far too
    /// small to.
    warm_pool: Arc<BufferPool>,
    cold_pool: Arc<BufferPool>,
    cold_page: u64,
    /// Stacks A and B, to stop when the peel is over.
    stacks: Vec<Stack>,
    /// Executor totals over the sampled queries.
    scanned: u64,
    rows_out: u64,
}

const PAGE: usize = 64 * 1024;
const WARM_PAGES: u64 = 64;

impl<'a> Peel<'a> {
    fn new(world: &'a World, plan: &'a Plan) -> Peel<'a> {
        let pool = BufferPool::from_env();
        let capacity = plan.kind.cache_capacity();
        // All three stacks start from nothing, so that equal requests
        // leave them in equal states.
        let (stack_a, stack_b, fs, store);
        if plan.kind == Kind::IngestMixed {
            (_, stack_a) = live_stack();
            (_, stack_b) = live_stack();
            let fs_c: Fs = Arc::new(MemStorage::new());
            let root = create_live_root(&fs_c).with_pool(Arc::clone(&pool));
            (fs, store) = (fs_c, Some(root));
        } else {
            stack_a = Stack::start(&world.fs, capacity);
            stack_b = Stack::start(&world.fs, capacity);
            (fs, store) = (Arc::clone(&world.fs), None);
        }
        let a = (0..2).map(|_| stack_a.connect()).collect();
        let b = Arc::clone(&stack_b.server);
        let stacks = vec![stack_a, stack_b];

        let warm_pool = BufferPool::new(WARM_PAGES * 2 * PAGE as u64);
        for page in 0..WARM_PAGES {
            warm_pool.get_or_fill("kernel", page, || Ok(vec![0u8; PAGE])).expect("fill page");
        }
        let cold_pool = BufferPool::new(8 * 2 * PAGE as u64);
        Peel {
            plan,
            rec: Recorder::new(),
            fs,
            a,
            batches_a: plan.batches.clone(),
            b,
            cache: HandleCache::new(capacity).with_pool(Arc::clone(&pool)),
            pool,
            store,
            warm_pool,
            cold_pool,
            cold_page: 0,
            stacks,
            scanned: 0,
            rows_out: 0,
        }
    }

    /// Issue request `i` on all three stacks; keep the spans, and run the
    /// kernels, if `record`.
    fn request(&mut self, i: usize, record: bool) {
        let plan = self.plan;
        let req = &plan.reqs[i];
        self.rec.on = record;

        let client = &mut self.a[req.conn()];
        let batches = &mut self.batches_a;
        let (root, _) = self.rec.time("client.request", None, i, || {
            (exec(client, req, batches, false).expect("peeled request"), 0)
        });

        let request = to_request(req, &plan.batches);
        let (submitted, mut frames) = (request.clone(), Vec::new());
        let (submit, ()) = self.rec.time("serve.submit", root, i, || {
            self.b.submit_streamed(submitted, &mut |resp| {
                frames.push(resp);
                true
            });
            ((), 0)
        });

        match req {
            Req::Append { .. } | Req::Tail { .. } | Req::Seal { .. } => {
                self.library_live(i, submit, req)
            }
            Req::Query { sql, .. } => self.library_query(i, submit, req.root(), sql),
            _ => self.library_read(i, submit, req),
        }
        if self.rec.on {
            self.wire_kernels(i, root, submit, &request, &frames);
        }
    }

    /// Stack C for scans, window reads, topics and stat: the handle
    /// cache, then the read, then the page and block kernels its pool
    /// traffic implies.
    fn library_read(&mut self, i: usize, submit: Option<usize>, req: &Req) {
        let ctx = &mut IoCtx::new();
        let bag = self.open(i, submit, req.root());
        let before = self.pool.stats();
        // The span, the topics read, and whether every frame of theirs
        // was decoded (a scan that fills, fills every page; a window read
        // decodes as many frames of its topic as it filled pages).
        let (parent, topics, whole): (_, Vec<&str>, bool) = match req {
            Req::Scan { topics, .. } => {
                let (span, ()) = self.rec.time("bora.stream", submit, i, || {
                    let mut stream =
                        bag.stream_topics(topics, StreamOptions::default(), ctx).expect("stream");
                    let mut msgs = 0;
                    while stream.next_msg(ctx).expect("stream message").is_some() {
                        msgs += 1;
                    }
                    ((), msgs)
                });
                (span, topics.to_vec(), true)
            }
            Req::Window { topic, start, end, .. } => {
                let (span, ()) = self.rec.time("bora.read", submit, i, || {
                    let msgs = bag.read_topics_time(&[topic], *start, *end, ctx).expect("read");
                    ((), msgs.len() as u64)
                });
                self.rec.time("bora.time_index.lookup", span, i, || {
                    let index = bag.load_time_index(topic, ctx).expect("time index");
                    (std::hint::black_box(index.candidate_entries(*start, *end)), 1)
                });
                (span, vec![topic], false)
            }
            // Topics and stat answer from the handle alone.
            _ => return,
        };
        let after = self.pool.stats();
        let (hits, fills) = (after.hits - before.hits, after.misses - before.misses);
        self.page_kernels(i, parent, hits, fills);
        if fills > 0 && self.rec.on {
            let limit = if whole { u64::MAX } else { fills };
            self.block_kernels(i, parent, req.root(), &topics, limit);
        }
    }

    /// `HandleCache::get_or_open` on stack C's cache: a hit or a real
    /// `BoraBag::open`, exactly when stacks A and B have one.
    fn open(&mut self, i: usize, submit: Option<usize>, root: &str) -> BoraBag<Fs> {
        let t = Instant::now();
        let pinned =
            self.cache.get_or_open(&self.fs, root, &mut IoCtx::new()).expect("open container");
        let dur_ns = t.elapsed().as_nanos() as u64;
        let name = if pinned.was_hit { "serve.cache.hit" } else { "serve.cache.miss_open" };
        self.rec.push(name, submit, i, t, dur_ns, 1);
        pinned.bag().clone()
    }

    fn library_query(&mut self, i: usize, submit: Option<usize>, root: &str, sql: &str) {
        let (_, prepared) = self.rec.time("query.prepare", submit, i, || {
            (bora_query::prepare(sql).expect("statement compiles"), 1)
        });
        let bag = self.open(i, submit, root);
        let before = self.pool.stats();
        let ctx = &mut IoCtx::new();
        let (span, stats) = self.rec.time("query.exec", submit, i, || {
            let mut cursor = prepared.cursor_bag(&bag, false, ctx).expect("cursor");
            std::hint::black_box(cursor.collect_rows().expect("rows"));
            let stats = cursor.stats();
            (stats, stats.scanned + stats.pushed_dropped)
        });
        if self.rec.on {
            self.scanned += stats.scanned + stats.pushed_dropped;
            self.rows_out += stats.rows_out;
        }
        let after = self.pool.stats();
        self.page_kernels(i, span, after.hits - before.hits, after.misses - before.misses);
    }

    /// Stack C for `ingest_mixed`: the store calls a worker makes.
    fn library_live(&mut self, i: usize, submit: Option<usize>, req: &Req) {
        let store = self.store.as_ref().expect("live root");
        let ctx = &mut IoCtx::new();
        match req {
            Req::Append { batch } => {
                let batch = &self.plan.batches[*batch];
                self.rec.time("ingest.store.append", submit, i, || {
                    for m in batch {
                        store.append(&m.topic, m.time, &m.data, ctx).expect("append");
                    }
                    store.flush_wal(ctx).expect("flush wal");
                    ((), batch.len() as u64)
                });
            }
            Req::Tail { start, end } => {
                let (_, snapshot) = self.rec.time("ingest.snapshot.open", submit, i, || {
                    (store.snapshot(ctx).expect("snapshot"), 1)
                });
                self.rec.time("ingest.snapshot.read", submit, i, || {
                    let msgs =
                        snapshot.read_time_range(&TAIL_TOPICS, *start, *end, ctx).expect("read");
                    ((), msgs.len() as u64)
                });
            }
            Req::Seal { compact } => {
                self.rec.time("ingest.store.seal", submit, i, || {
                    store.seal(ctx).expect("seal");
                    ((), 1)
                });
                if *compact {
                    let written = bora_obs::counter("compact.bytes");
                    self.rec.time("ingest.store.compact", submit, i, || {
                        let before = written.get();
                        store.compact(ctx).expect("compact");
                        ((), written.get() - before)
                    });
                }
            }
            other => unreachable!("{other:?} is not a live-root request"),
        }
    }

    /// `BufferPool::get_or_fill` alone, as often as the request hit and
    /// filled: hits on a pool that holds its pages, fills (allocation,
    /// copy into the page, eviction — no read, no decode) on one that
    /// cannot.
    fn page_kernels(&mut self, i: usize, parent: Option<usize>, hits: u64, fills: u64) {
        if !self.rec.on {
            return;
        }
        if hits > 0 {
            let pool = &self.warm_pool;
            self.rec.time("bora.bufpool.hit", parent, i, || {
                for k in 0..hits {
                    let page = pool.get_or_fill("kernel", k % WARM_PAGES, || Ok(Vec::new()));
                    std::hint::black_box(page.expect("page").1);
                }
                ((), hits)
            });
        }
        if fills > 0 {
            let (pool, first) = (&self.cold_pool, self.cold_page);
            self.cold_page += fills;
            self.rec.time("bora.bufpool.fill_evict", parent, i, || {
                for k in first..first + fills {
                    let page = pool.get_or_fill("kernel", k, || Ok(vec![0u8; PAGE]));
                    std::hint::black_box(page.expect("page").1);
                }
                ((), fills)
            });
        }
    }

    /// `decode_frame` over up to `limit` frames of each topic's `data`
    /// file, and `crc32c` alone over the same stored bytes.
    fn block_kernels(
        &mut self,
        i: usize,
        parent: Option<usize>,
        root: &str,
        topics: &[&str],
        limit: u64,
    ) {
        let ctx = &mut IoCtx::new();
        let files: Vec<Vec<u8>> = topics
            .iter()
            .map(|t| self.fs.read_all(&TopicPaths::new(root, t).data, ctx).expect("data file"))
            .collect();
        let mut extents = Vec::with_capacity(files.len());
        let (span, ()) = self.rec.time("bora.block.decode", parent, i, || {
            let mut logical = 0;
            for file in &files {
                let (mut at, mut frames) = (0, 0);
                while at < file.len() && frames < limit {
                    let (bytes, used) = decode_frame(&file[at..], "kernel", ctx).expect("frame");
                    logical += bytes.len() as u64;
                    at += used;
                    frames += 1;
                }
                extents.push(at);
            }
            ((), logical)
        });
        self.rec.time("bora.checksum.crc32c", span, i, || {
            let mut bytes = 0;
            for (file, &extent) in files.iter().zip(&extents) {
                std::hint::black_box(crc32c(&file[..extent]));
                bytes += extent as u64;
            }
            ((), bytes)
        });
    }

    /// The wire's own work on this request's frames: the request's
    /// encode and decode, each response frame's, and the chunk codec on
    /// every compressed chunk. Encoding is the server's (part of
    /// `serve.submit` for the chunk codec, which a worker runs; of the
    /// connection thread otherwise), decoding the client's.
    fn wire_kernels(
        &mut self,
        i: usize,
        root: Option<usize>,
        submit: Option<usize>,
        request: &Request,
        frames: &[Response],
    ) {
        self.rec.time("serve.proto.request", root, i, || {
            let bytes = request.encode_framed(None, None);
            (std::hint::black_box(Request::decode_framed(&bytes).expect("request decodes")), 1)
        });
        let ctx = &mut IoCtx::new();
        let mut msgs = 0;
        for frame in frames {
            match frame {
                Response::Read(m) | Response::StreamChunk(m) => msgs += m.len() as u64,
                Response::StreamChunkLz(lz) => {
                    let (_, batch) = self.rec.time("serve.wire.lz_decode", root, i, || {
                        let batch = decompress_chunk(lz).expect("chunk decompresses");
                        let bytes = batch.iter().map(|m| m.data.len() as u64).sum();
                        (batch, bytes)
                    });
                    msgs += batch.len() as u64;
                    self.rec.time("serve.wire.lz_encode", submit, i, || {
                        let bytes = batch.iter().map(|m| m.data.len() as u64).sum();
                        (std::hint::black_box(compress_chunk(&batch, ctx)), bytes)
                    });
                }
                Response::QueryChunk(blob) => {
                    let (_, rows) = self.rec.time("query.wire.decode_rows", root, i, || {
                        let rows = bora_query::decode_rows(blob).expect("rows decode");
                        let n = rows.len() as u64;
                        (rows, n)
                    });
                    msgs += rows.len() as u64;
                    self.rec.time("query.wire.encode_rows", submit, i, || {
                        (std::hint::black_box(bora_query::encode_rows(&rows)), rows.len() as u64)
                    });
                }
                _ => {}
            }
        }
        let work = msgs.max(1);
        let (_, encoded) = self.rec.time("serve.proto.resp_encode", root, i, || {
            (frames.iter().map(Response::encode).collect::<Vec<_>>(), work)
        });
        self.rec.time("serve.proto.resp_decode", root, i, || {
            for bytes in &encoded {
                std::hint::black_box(Response::decode(bytes).expect("response decodes"));
            }
            ((), work)
        });
    }
}

/// The wire request `ServeClient` sends for `req`.
fn to_request(req: &Req, batches: &[Vec<WireMessage>]) -> Request {
    let container = req.root().to_owned();
    let owned = |topics: &[&str]| topics.iter().map(|t| (*t).to_owned()).collect();
    match req {
        Req::Scan { topics, .. } => {
            Request::ReadStream2 { container, topics: owned(topics), range: None }
        }
        Req::Window { topic, start, end, .. } => {
            Request::Read { container, topics: vec![topic.clone()], range: Some((*start, *end)) }
        }
        Req::Tail { start, end } => {
            Request::Read { container, topics: owned(&TAIL_TOPICS), range: Some((*start, *end)) }
        }
        Req::Topics { .. } => Request::Topics { container },
        Req::Stat { .. } => Request::Stat { container },
        Req::Query { sql, .. } => Request::Query { container, sql: sql.clone(), partial: false },
        Req::Append { batch } => Request::Append { container, messages: batches[*batch].clone() },
        Req::Seal { compact } => Request::Seal { container, compact: *compact },
    }
}

/// Kernels timed alone, the same on every workload.
struct Micro {
    tcp_rtt_us: f64,
    mem_rtt_us: f64,
    container_open_us: f64,
    block_encode_mb_s: f64,
    duplicate_mb_s: f64,
    decodes_skipped_ratio: f64,
}

impl Micro {
    fn measure(world: &World, plan: &Plan, quick: bool) -> Micro {
        let ctx = &mut IoCtx::new();
        // `ingest_mixed` keeps no container of its own: organise one.
        let fs = &world.fs;
        let t = Instant::now();
        let payload = organise(fs, "/c/micro", true);
        let duplicate_mb_s = payload as f64 / t.elapsed().as_secs_f64() / 1e6;

        let rounds = if quick { 20 } else { 200 };
        let stack = Stack::start(fs, plan.kind.cache_capacity());
        let rtt_us = |client: &mut dyn FnMut()| {
            client();
            let t = Instant::now();
            for _ in 0..rounds {
                client();
            }
            t.elapsed().as_secs_f64() * 1e6 / rounds as f64
        };
        let mut tcp = stack.connect();
        let tcp_rtt_us = rtt_us(&mut || {
            tcp.ping().expect("ping over tcp");
        });
        let mut mem = ServeClient::connect(&MemTransport::new(Arc::clone(&stack.server)))
            .expect("connect in-process");
        let mem_rtt_us = rtt_us(&mut || {
            mem.ping().expect("ping in-process");
        });
        drop((tcp, mem));
        stack.stop();

        let t = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(BoraBag::open(Arc::clone(fs), "/c/micro", ctx).expect("open"));
        }
        let container_open_us = t.elapsed().as_secs_f64() * 1e6 / rounds as f64;

        // Block encode over the IMU topic's logical bytes: compressible,
        // so the codec does its real work.
        let imu = bora::block::read_logical(
            &**fs,
            &TopicPaths::new("/c/micro", workloads::tum::topic::IMU),
            ctx,
        )
        .expect("imu bytes");
        let t = Instant::now();
        for block in imu.chunks(PAGE) {
            std::hint::black_box(encode_frame(BlockCodec::Lzss, block, ctx));
        }
        let block_encode_mb_s = imu.len() as f64 / t.elapsed().as_secs_f64() / 1e6;

        // Share of block decodes the planner's time-range pushdown avoids
        // on the list's first ten ranged statements: `1 - decodes(pushdown)
        // / decodes(no pushdown)`, on a handle with no pool, so that every
        // page read is a decode. 0 for a list with no ranged statement.
        let unpooled = BoraBag::open(Arc::clone(fs), "/c/micro", ctx).expect("open");
        let decodes = |sql: &str, pushdown: bool| {
            let ctx = &mut IoCtx::new();
            let prepared =
                bora_query::prepare_with(sql, &PlanOptions { pushdown }).expect("compiles");
            let mut cursor = prepared.cursor_bag(&unpooled, false, ctx).expect("cursor");
            cursor.collect_rows().expect("rows");
            cursor.stats().block_decodes
        };
        let ranged = plan.reqs.iter().filter_map(|r| match r {
            Req::Query { sql, .. } if sql.contains("WHERE time") => Some(sql.as_str()),
            _ => None,
        });
        let (mut with, mut without) = (0, 0);
        for sql in ranged.take(10) {
            with += decodes(sql, true);
            without += decodes(sql, false);
        }
        let decodes_skipped_ratio =
            if without == 0 { 0.0 } else { 1.0 - with as f64 / without as f64 };

        Micro {
            tcp_rtt_us,
            mem_rtt_us,
            container_open_us,
            block_encode_mb_s,
            duplicate_mb_s,
            decodes_skipped_ratio,
        }
    }
}
