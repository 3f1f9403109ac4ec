//! Set-up, the warm-up repetition that checks every answer, and the
//! timed repetitions of one workload — all through `ServeClient` over
//! TCP loopback, in closed loops.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bora_ingest::{IngestConfig, IngestStore};
use bora_obs::HistSummary;
use bora_serve::{ClientError, ContainerStat, MetricsReport, StatsSnapshot, WireMessage};
use simfs::{IoCtx, MemStorage};

use crate::plan::{
    digest_messages, digest_names, digest_rows, digest_stat, expect_read, Class, Expect, Kind,
    Plan, Req, BLK, LIVE, MIX_ROOTS, TAIL_TOPICS,
};
use crate::stats::{median, tail_percentile, Digest};
use crate::world::{generate, organise, tree_bytes, Client, Fs, Reference, Stack, SMALL_TOPICS};

/// One completed request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub total_ns: u64,
    /// Call to first message (or row) usable by the caller; equals
    /// `total_ns` for buffered replies.
    pub first_ns: u64,
    /// Messages or rows delivered to the client (reads), or acknowledged
    /// durable (appends).
    pub msgs: u64,
    /// Payload bytes of the messages a read delivered.
    pub bytes: u64,
    pub ok: bool,
}

impl Sample {
    /// A request that returned an error, or the wrong answer.
    fn failure(class: Class) -> Sample {
        Sample { class, total_ns: 0, first_ns: 0, msgs: 0, bytes: 0, ok: false }
    }
}

/// The server's own counters at one instant: its metrics registry
/// merged with the process-wide one, and the handle-cache numbers.
pub struct Probe {
    pub report: MetricsReport,
    pub stats: StatsSnapshot,
}

impl Probe {
    pub fn take(stack: &Stack) -> Probe {
        Probe { report: stack.server.metrics_report(), stats: stack.server.stats() }
    }
}

/// One pass over the request list.
pub struct Rep {
    pub wall_ns: u64,
    pub samples: Vec<Sample>,
    /// `ingest_mixed`: bytes under the live root after the final
    /// compaction (the root is dropped with the repetition).
    pub live_bytes: u64,
    /// [`Mode::Stall`]: the longest tail poll beside the replay.
    pub stall_max_ns: u64,
    /// Counters just before the first request and just after the last.
    pub before: Probe,
    pub after: Probe,
}

impl Rep {
    /// Growth of a counter over the repetition.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.report.counter(name).saturating_sub(self.before.report.counter(name))
    }

    /// Samples a histogram took during the repetition.
    pub fn hist(&self, name: &str) -> HistSummary {
        let earlier = self.before.report.hist(name).copied().unwrap_or_default();
        self.after.report.hist(name).map(|h| h.delta_since(&earlier)).unwrap_or_default()
    }

    /// Growth of one of the server's `STATS` numbers over the repetition.
    pub fn stat(&self, f: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        f(&self.after.stats).saturating_sub(f(&self.before.stats))
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn of(&self, class: Class) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.class == class)
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }

    /// Messages (rows) the class's requests moved.
    pub fn msgs(&self, class: Class) -> u64 {
        self.of(class).map(|s| s.msgs).sum()
    }

    /// Payload bytes the class's requests delivered.
    pub fn bytes(&self, class: Class) -> u64 {
        self.of(class).map(|s| s.bytes).sum()
    }

    pub fn msgs_per_s(&self, class: Class) -> f64 {
        self.msgs(class) as f64 / self.wall_s()
    }

    pub fn ops_per_s(&self, class: Class) -> f64 {
        self.of(class).count() as f64 / self.wall_s()
    }

    pub fn total_ms(&self, class: Class) -> Vec<f64> {
        self.of(class).map(|s| s.total_ns as f64 * 1e-6).collect()
    }

    pub fn first_ms(&self, class: Class) -> Vec<f64> {
        self.of(class).map(|s| s.first_ns as f64 * 1e-6).collect()
    }
}

/// A workload's data set and server, as set-up leaves them.
pub struct World {
    pub fs: Fs,
    /// `None` for `ingest_mixed`, which starts a server per repetition.
    pub stack: Option<Stack>,
}

impl World {
    /// Everything a workload needs before its first request: generate the
    /// bag, organise its containers, start the server, and touch what the
    /// timed requests will touch. Timed as `setup_s`.
    pub fn setup(kind: Kind, seed: u64, quick: bool) -> World {
        let fs: Fs = Arc::new(MemStorage::new());
        generate(&fs, seed, quick);
        if kind == Kind::IngestMixed {
            // What each repetition pays again: a fresh root and server.
            let (live, stack) = live_stack();
            stack.stop();
            drop(live);
            return World { fs, stack: None };
        }
        organise(&fs, BLK, true);
        if kind == Kind::WindowMix {
            organise(&fs, MIX_ROOTS[1], false);
            for (src, dst) in [(MIX_ROOTS[0], MIX_ROOTS[2]), (MIX_ROOTS[1], MIX_ROOTS[3])] {
                bora::organizer::copy_container(&*fs, src, &*fs, dst, &mut IoCtx::new())
                    .expect("copy container");
            }
        }
        let stack = Stack::start(&fs, kind.cache_capacity());
        let mut client = stack.connect();
        // First touch: what a cache can hold is put there, so that timing
        // starts warm. A cold scan has nothing to keep but the handle.
        let warm = match kind {
            Kind::ScanSmallWarm => vec![Req::Scan { root: BLK, topics: &SMALL_TOPICS }],
            Kind::ScanLargeCold => vec![Req::Stat { root: BLK }],
            Kind::WindowMix => MIX_ROOTS.iter().map(|&root| Req::Stat { root }).collect(),
            Kind::QueryAgg => {
                vec![Req::Query { root: BLK, sql: "SELECT count() FROM '/imu'".to_owned() }]
            }
            Kind::IngestMixed => unreachable!("returned above"),
        };
        for req in &warm {
            exec(&mut client, req, &mut [], false).expect("first-touch request");
        }
        drop(client);
        World { fs, stack: Some(stack) }
    }

    pub fn teardown(self) {
        if let Some(stack) = self.stack {
            stack.stop();
        }
    }
}

/// A fresh live root on fresh storage, and a server over it. The flush
/// policy is the store's default: `group_commit 8`, and the server
/// flushes the WAL before every append ack.
pub fn live_stack() -> (Fs, Stack) {
    let fs: Fs = Arc::new(MemStorage::new());
    // Dropped at once: the server must hold the root's only store.
    drop(create_live_root(&fs));
    let stack = Stack::start(&fs, Kind::IngestMixed.cache_capacity());
    (fs, stack)
}

/// An empty live root at [`LIVE`] whose compactions write block frames.
pub fn create_live_root(fs: &Fs) -> IngestStore<Fs> {
    let cfg = IngestConfig { block: Some(Default::default()), ..IngestConfig::default() };
    IngestStore::create(Arc::clone(fs), LIVE, cfg, &mut IoCtx::new()).expect("create live root")
}

fn digest_wire(msgs: &[WireMessage]) -> Expect {
    digest_messages(msgs.iter().map(|m| (&*m.topic, m.time, &*m.data)))
}

/// What a request returned.
pub enum Reply {
    /// A drained `read_stream`: counted (and digested) as it arrived,
    /// with its payload bytes.
    Streamed(Expect, u64),
    Messages(Vec<WireMessage>),
    Names(Vec<String>),
    Stat(ContainerStat),
    Rows(Vec<bora_query::Row>),
    /// Appends acknowledged (0 for a seal).
    Acked(u64),
}

impl Reply {
    /// The reply in the shape [`Expect`] states it. The digest is only
    /// computed for the warm-up repetition; timed ones count items.
    pub fn summary(&self, verify: bool) -> Expect {
        match self {
            Reply::Streamed(e, _) => *e,
            Reply::Acked(n) => Expect { items: *n, digest: 0 },
            Reply::Messages(m) if !verify => Expect { items: m.len() as u64, digest: 0 },
            Reply::Names(n) if !verify => Expect { items: n.len() as u64, digest: 0 },
            Reply::Rows(r) if !verify => Expect { items: r.len() as u64, digest: 0 },
            Reply::Stat(_) if !verify => Expect { items: 1, digest: 0 },
            Reply::Messages(m) => digest_wire(m),
            Reply::Names(n) => digest_names(n.iter().map(String::as_str)),
            Reply::Rows(r) => digest_rows(r),
            Reply::Stat(s) => digest_stat(s.topics, s.messages, s.data_bytes, s.start, s.end),
        }
    }

    /// Payload bytes of the messages delivered.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Reply::Streamed(_, bytes) => *bytes,
            Reply::Messages(m) => m.iter().map(|m| m.data.len() as u64).sum(),
            _ => 0,
        }
    }
}

/// Issue one request and wait for its whole answer; returns the reply,
/// nanoseconds to the first message usable by the caller, and to the
/// last. `verify` digests a streamed answer as it arrives.
pub fn exec(
    client: &mut Client,
    req: &Req,
    batches: &mut [Vec<WireMessage>],
    verify: bool,
) -> Result<(Reply, u64, u64), ClientError> {
    let t = Instant::now();
    let mut first_ns = 0;
    let reply = match req {
        Req::Scan { root, topics } => {
            let mut d = Digest::default();
            let (mut items, mut bytes) = (0u64, 0u64);
            for m in client.read_stream(root, topics)? {
                let m = m?;
                if items == 0 {
                    first_ns = t.elapsed().as_nanos() as u64;
                }
                items += 1;
                bytes += m.data.len() as u64;
                if verify {
                    d.message(&m.topic, m.time.as_nanos(), &m.data);
                }
            }
            Reply::Streamed(Expect { items, digest: if verify { d.finish() } else { 0 } }, bytes)
        }
        Req::Window { root, topic, start, end } => {
            Reply::Messages(client.read_time(root, &[topic.as_str()], *start, *end)?)
        }
        Req::Tail { start, end, .. } => {
            Reply::Messages(client.read_time(LIVE, &TAIL_TOPICS, *start, *end)?)
        }
        Req::Topics { root } => Reply::Names(client.topics(root)?),
        Req::Stat { root } => Reply::Stat(client.stat(root)?),
        Req::Query { root, sql } => Reply::Rows(client.query(root, sql)?.rows),
        Req::Append { batch } => {
            Reply::Acked(client.append(LIVE, std::mem::take(&mut batches[*batch]))?.0)
        }
        Req::Seal { compact } => {
            client.seal(LIVE, *compact)?;
            Reply::Acked(0)
        }
    };
    let total_ns = t.elapsed().as_nanos() as u64;
    Ok((reply, if first_ns == 0 { total_ns } else { first_ns }, total_ns))
}

/// How a pass over the list is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Count items only: the timed and counted repetitions.
    Timed,
    /// Check every answer's digest: the warm-up repetition.
    Verify,
    /// `ingest_mixed` only: a second thread polls the tail at 20 Hz and
    /// the longest poll is kept as `Rep::stall_max_ns`.
    Stall,
}

/// Run the list once. Thread `j` of `plan.threads` owns every request
/// with `index % threads == j` and its own connection; each waits for a
/// reply before sending its next request.
pub fn run_rep(world: &World, plan: &Plan, reference: &Reference, mode: Mode) -> Rep {
    let verify = mode == Mode::Verify;
    // `ingest_mixed` starts from nothing every time.
    let live = (plan.kind == Kind::IngestMixed).then(live_stack);
    let stack = live.as_ref().map(|(_, s)| s).or(world.stack.as_ref()).expect("a server");
    // Untimed: connections, and this repetition's copy of the batches
    // (`append` takes them by value).
    let conns = plan.threads.max(plan.reqs.iter().map(Req::conn).max().unwrap_or(0) + 1);
    let mut clients: Vec<Client> = (0..conns).map(|_| stack.connect()).collect();
    let mut batches = plan.batches.clone();
    let mut poller = (mode == Mode::Stall).then(|| stack.connect());
    let before = Probe::take(stack);

    let (progress, done) = (AtomicUsize::new(0), AtomicBool::new(false));
    let barrier = Barrier::new(plan.threads + 1);
    let (wall_ns, samples, stall_max_ns) = std::thread::scope(|scope| {
        let poll = poller.as_mut().map(|c| scope.spawn(|| poll_tail(c, plan, &progress, &done)));
        // A thread's share of the connections; the batches go with the
        // first (only `ingest_mixed` has any, and it has one thread).
        let handles: Vec<_> = clients
            .chunks_mut(conns / plan.threads)
            .enumerate()
            .map(|(j, clients)| {
                let mut batches = if j == 0 { std::mem::take(&mut batches) } else { Vec::new() };
                let (barrier, progress) = (&barrier, &progress);
                scope.spawn(move || {
                    barrier.wait();
                    run_slice(clients, plan, j, &mut batches, verify, progress)
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let samples: Vec<Sample> =
            handles.into_iter().flat_map(|h| h.join().expect("generator thread")).collect();
        let wall_ns = t.elapsed().as_nanos() as u64;
        done.store(true, Ordering::SeqCst);
        (wall_ns, samples, poll.map_or(0, |p| p.join().expect("poller thread")))
    });
    let after = Probe::take(stack);
    let mut rep = Rep { wall_ns, samples, live_bytes: 0, stall_max_ns, before, after };

    if let Some((fs, _)) = &live {
        rep.live_bytes = tree_bytes(fs, LIVE);
        if verify {
            // The live root must hold exactly what was replayed.
            let all: Vec<&str> = reference.topics.iter().map(String::as_str).collect();
            let want = expect_read(reference, &all, None, plan.batches.iter().map(Vec::len).sum());
            let got = clients[1].read(LIVE, &all).map(|msgs| digest_wire(&msgs));
            let ok = got.as_ref().is_ok_and(|g| *g == want);
            if !ok {
                eprintln!("final read of the live root: want {want:?}, got {got:?}");
            }
            rep.samples.push(Sample { ok, ..Sample::failure(Class::Admin) });
        }
    }
    drop(clients);
    if let Some((_, stack)) = live {
        stack.stop();
    }
    rep
}

/// Read the last two seconds of what has been appended so far, every
/// 50 ms until `done`; returns the longest read. A reader that stalls
/// behind a seal or a compaction shows here and nowhere else: the replay
/// thread's own reads never overlap its own seals.
fn poll_tail(client: &mut Client, plan: &Plan, progress: &AtomicUsize, done: &AtomicBool) -> u64 {
    let mut max_ns = 0;
    while !done.load(Ordering::SeqCst) {
        // The newest tail read at or before the replay's position names
        // the window an analyst would ask for now.
        let at = progress.load(Ordering::SeqCst);
        let window = plan.reqs[..at].iter().rev().find(|r| matches!(r, Req::Tail { .. }));
        if let Some(req) = window {
            let t = Instant::now();
            if exec(client, req, &mut [], false).is_ok() {
                max_ns = max_ns.max(t.elapsed().as_nanos() as u64);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    max_ns
}

/// Thread `offset`'s share of the list: every `plan.threads`-th request.
fn run_slice(
    clients: &mut [Client],
    plan: &Plan,
    offset: usize,
    batches: &mut [Vec<WireMessage>],
    verify: bool,
    progress: &AtomicUsize,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(plan.reqs.len() / plan.threads + 1);
    for i in (offset..plan.reqs.len()).step_by(plan.threads) {
        progress.store(i, Ordering::SeqCst);
        let req = &plan.reqs[i];
        let client = &mut clients[req.conn()];
        let sample = match exec(client, req, batches, verify) {
            Ok((reply, first_ns, total_ns)) => {
                let (got, want) = (reply.summary(verify), plan.expect[i]);
                let ok = got.items == want.items && (!verify || got.digest == want.digest);
                if !ok {
                    eprintln!("request {i} {req:?}: want {want:?}, got {got:?}");
                }
                // Topics and stat replies carry no messages.
                let msgs = match req {
                    Req::Topics { .. } | Req::Stat { .. } => 0,
                    _ => got.items,
                };
                let bytes = reply.payload_bytes();
                Sample { class: req.class(), total_ns, first_ns, msgs, bytes, ok }
            }
            Err(e) => {
                eprintln!("request {i} {req:?}: {e}");
                Sample::failure(req.class())
            }
        };
        samples.push(sample);
    }
    samples
}

/// A reported value with what stands behind it.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    /// Smallest and largest of the per-repetition values (of the samples,
    /// for a pooled percentile).
    pub min: f64,
    pub max: f64,
    /// Samples behind a percentile; 0 for anything else.
    pub n: usize,
}

impl Stat {
    pub fn exact(value: f64) -> Stat {
        Stat { value, min: value, max: value, n: 0 }
    }

    fn ranged(value: f64, all: &[f64], n: usize) -> Stat {
        let min = all.iter().copied().fold(f64::INFINITY, f64::min);
        let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Stat { value, min, max, n }
    }

    /// Median over repetitions of a per-repetition value.
    pub fn over_reps(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Stat {
        let values: Vec<f64> = reps.iter().map(f).collect();
        Stat::ranged(median(&values), &values, 0)
    }

    /// Median of samples pooled over the repetitions; 0 if there are none
    /// (the metric does not exist on this workload).
    pub fn median_of(samples: &[f64]) -> Stat {
        if samples.is_empty() {
            return Stat::exact(0.0);
        }
        Stat::ranged(median(samples), samples, samples.len())
    }

    /// `p`-quantile of pooled samples; 0 unless ten samples lie beyond it.
    pub fn tail_of(samples: &[f64], p: f64) -> Stat {
        match tail_percentile(samples, p) {
            Some(value) => Stat::ranged(value, samples, samples.len()),
            None => Stat::exact(0.0),
        }
    }
}

/// Samples of every repetition in one list.
pub fn pooled(reps: &[Rep], f: impl Fn(&Rep) -> Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(f).collect()
}
