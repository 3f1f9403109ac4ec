//! Concurrency: shared containers and bags must serve many threads
//! correctly (the swarm scenario runs one process per bag, but nothing in
//! the design forbids many readers of one container).

use bora_repro::*;

use bora::{BoraBag, OrganizerOptions};
use bora_serve::{ClientError, MemTransport, ServeClient, Server, ServerConfig};
use ros_msgs::RosDuration;
use rosbag::BagReader;
use simfs::{DirEntry, FsResult, IoCtx, MemStorage, Metadata, Storage};
use std::sync::{Arc, Condvar, Mutex};
use workloads::tum::{generate_bag, GenOptions, TUM_TOPICS};

fn setup() -> Arc<MemStorage> {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let opts = GenOptions {
        count_scale: 0.05,
        payload_scale: 0.003,
        seed: 0xC0,
        writer: rosbag::BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        ..Default::default()
    };
    generate_bag(fs.as_ref(), "/hs.bag", &opts, &mut ctx).unwrap();
    bora::organizer::duplicate(
        fs.as_ref(),
        "/hs.bag",
        fs.as_ref(),
        "/c",
        &OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    fs
}

#[test]
fn many_threads_share_one_bora_bag() {
    let fs = setup();
    let mut ctx = IoCtx::new();
    let bag = Arc::new(BoraBag::open(Arc::clone(&fs), "/c", &mut ctx).unwrap());

    let expected: Vec<(String, usize)> = TUM_TOPICS
        .iter()
        .map(|t| {
            let n = bag.read_topics(&[t.name], &mut ctx).unwrap().len();
            (t.name.to_owned(), n)
        })
        .collect();

    let mut handles = Vec::new();
    for worker in 0..8 {
        let bag = Arc::clone(&bag);
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctx = IoCtx::new();
            for round in 0..5 {
                let (name, n) = &expected[(worker + round) % expected.len()];
                let msgs = bag.read_topics(&[name], &mut ctx).unwrap();
                assert_eq!(msgs.len(), *n, "worker {worker} round {round} on {name}");
                for pair in msgs.windows(2) {
                    assert!(pair[0].time <= pair[1].time);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn many_threads_share_one_baseline_reader() {
    // The baseline reader has interior state (the compressed-chunk cache);
    // it must stay consistent under concurrent readers.
    let fs = setup();
    let mut ctx = IoCtx::new();
    let reader = Arc::new(BagReader::open(Arc::clone(&fs), "/hs.bag", &mut ctx).unwrap());
    let total = reader.index().message_count();

    let mut handles = Vec::new();
    for _ in 0..6 {
        let reader = Arc::clone(&reader);
        handles.push(std::thread::spawn(move || {
            let mut ctx = IoCtx::new();
            let all: Vec<&str> = TUM_TOPICS.iter().map(|t| t.name).collect();
            let msgs = reader.read_messages(&all, &mut ctx).unwrap();
            assert_eq!(msgs.len() as u64, total);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_time_windows_partition_cleanly() {
    let fs = setup();
    let mut ctx = IoCtx::new();
    let bag = Arc::new(BoraBag::open(Arc::clone(&fs), "/c", &mut ctx).unwrap());
    let (t0, t_end) = bag.time_range();
    let span_s = (t_end - t0).as_sec_f64();

    // Partition the bag into 6 disjoint windows queried concurrently;
    // their union must equal one full query.
    let full = bag
        .read_topics_time(&["/imu"], t0, t_end + RosDuration::from_sec_f64(1.0), &mut ctx)
        .unwrap()
        .len();

    let slices = 6;
    let mut handles = Vec::new();
    for k in 0..slices {
        let bag = Arc::clone(&bag);
        let s = t0 + RosDuration::from_sec_f64(span_s * k as f64 / slices as f64);
        let e = if k == slices - 1 {
            t_end + RosDuration::from_sec_f64(1.0)
        } else {
            t0 + RosDuration::from_sec_f64(span_s * (k + 1) as f64 / slices as f64)
        };
        handles.push(std::thread::spawn(move || {
            let mut ctx = IoCtx::new();
            bag.read_topics_time(&["/imu"], s, e, &mut ctx).unwrap().len()
        }));
    }
    let sum: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(sum, full, "disjoint windows must tile the stream exactly");
}

#[test]
fn parallel_duplications_into_distinct_roots() {
    let fs = setup();
    let mut handles = Vec::new();
    for k in 0..4 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let mut ctx = IoCtx::new();
            bora::organizer::duplicate(
                fs.as_ref(),
                "/hs.bag",
                fs.as_ref(),
                &format!("/par{k}"),
                &OrganizerOptions::default(),
                &mut ctx,
            )
            .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut ctx = IoCtx::new();
    let mut digests = Vec::new();
    for k in 0..4 {
        let data = fs.read_all(&format!("/par{k}/imu/data"), &mut ctx).unwrap();
        digests.push(ros_msgs::md5::hex_digest(&data));
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "parallel duplicates must agree");
}

// ------------------------------------------------------------ bora-serve
//
// The serving layer's whole point is concurrency: many clients, one
// handle cache, a bounded queue. These scenarios drive it through real
// clients over the in-process transport.

/// Duplicate the seed container into `n` serving roots `/srv0..`.
fn serve_roots(fs: &Arc<MemStorage>, n: usize) -> Vec<String> {
    let mut ctx = IoCtx::new();
    (0..n)
        .map(|k| {
            let root = format!("/srv{k}");
            bora::organizer::duplicate(
                fs.as_ref(),
                "/hs.bag",
                fs.as_ref(),
                &root,
                &OrganizerOptions::default(),
                &mut ctx,
            )
            .unwrap();
            root
        })
        .collect()
}

#[test]
fn serve_many_clients_all_hit_the_hot_cache() {
    let fs = setup();
    let roots = serve_roots(&fs, 2);
    let mut ctx = IoCtx::new();
    let expected_imu = BoraBag::open(Arc::clone(&fs), &roots[0], &mut ctx)
        .unwrap()
        .read_topics(&["/imu"], &mut ctx)
        .unwrap()
        .len();

    let server = Server::start(
        Arc::clone(&fs),
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let transport = MemTransport::new(Arc::clone(&server));

    // Warm both containers first: two racing cold opens would both count
    // as misses (correct, but it would make the arithmetic below fuzzy).
    let mut warm = ServeClient::connect(&transport).unwrap();
    for root in &roots {
        let (_, cached) = warm.open(root).unwrap();
        assert!(!cached);
    }

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 5;
    std::thread::scope(|scope| {
        for worker in 0..CLIENTS {
            let transport = &transport;
            let roots = &roots;
            scope.spawn(move || {
                let mut client = ServeClient::connect(transport).unwrap();
                for round in 0..ROUNDS {
                    let root = &roots[(worker + round) % roots.len()];
                    let topics = client.topics(root).unwrap();
                    assert!(topics.iter().any(|t| t == "/imu"));
                    let msgs = client.read(root, &["/imu"]).unwrap();
                    assert_eq!(msgs.len(), expected_imu, "client {worker} round {round}");
                }
            });
        }
    });

    let snap = ServeClient::connect(&transport).unwrap().stats().unwrap();
    server.shutdown();
    // Working set (2) fits the cache (4): each container is opened once,
    // every request after the warmup hits.
    assert_eq!(snap.cache_misses, roots.len() as u64);
    assert_eq!(snap.cache_evictions, 0);
    assert_eq!(snap.shed, 0);
    let swarm = (CLIENTS * ROUNDS * 2) as u64;
    assert_eq!(snap.total_requests(), swarm + roots.len() as u64);
    assert_eq!(snap.cache_hits, swarm);
}

#[test]
fn serve_evicts_when_working_set_exceeds_cache() {
    let fs = setup();
    let roots = serve_roots(&fs, 4);
    let mut ctx = IoCtx::new();
    let expected_imu = BoraBag::open(Arc::clone(&fs), &roots[0], &mut ctx)
        .unwrap()
        .read_topics(&["/imu"], &mut ctx)
        .unwrap()
        .len();

    let server = Server::start(
        Arc::clone(&fs),
        ServerConfig {
            workers: 3,
            queue_capacity: 64,
            cache_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let transport = MemTransport::new(Arc::clone(&server));

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for worker in 0..CLIENTS {
            let transport = &transport;
            let roots = &roots;
            scope.spawn(move || {
                let mut client = ServeClient::connect(transport).unwrap();
                for round in 0..ROUNDS {
                    // Stride so every client sweeps all four containers.
                    let root = &roots[(worker + round) % roots.len()];
                    let msgs = client.read(root, &["/imu"]).unwrap();
                    assert_eq!(msgs.len(), expected_imu, "client {worker} round {round}");
                }
            });
        }
    });

    let snap = ServeClient::connect(&transport).unwrap().stats().unwrap();
    server.shutdown();
    // Four containers cannot fit a 2-slot cache: churn is forced, yet
    // every query above still saw correct data.
    assert!(snap.cache_misses > roots.len() as u64, "churn must force re-opens");
    assert!(snap.cache_evictions > 0);
    // Capacity is a hard bound: a worker reading an evicted container
    // holds its own clone of the handle, not a place in the cache.
    assert!(snap.cache_len <= 2, "cache len {} exceeds capacity", snap.cache_len);
    assert_eq!(snap.total_requests(), (CLIENTS * ROUNDS) as u64);
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        (CLIENTS * ROUNDS) as u64,
        "every lookup is a hit or a miss"
    );
}

/// A storage wrapper whose reads and file removals can be held at gates:
/// lets a test park a worker deterministically, to fill the bounded queue
/// or to stop a recovery in the middle of its debris sweep.
#[derive(Clone)]
struct GatedStorage {
    inner: Arc<MemStorage>,
    gate: Arc<Gate>,
    removals: Arc<Gate>,
}

struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    open: bool,
    waiting: usize,
    /// Threads the closed gate parks at most; later arrivals pass.
    holds: usize,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState { open: true, waiting: 0, holds: usize::MAX }),
            cv: Condvar::new(),
        })
    }
    fn close(&self) {
        self.close_for(usize::MAX);
    }
    /// Close the gate to the first `holds` threads to arrive.
    fn close_for(&self, holds: usize) {
        let mut s = self.state.lock().unwrap();
        s.open = false;
        s.holds = holds;
    }
    fn open_all(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        if s.open || s.waiting >= s.holds {
            return;
        }
        s.waiting += 1;
        while !s.open {
            s = self.cv.wait(s).unwrap();
        }
        s.waiting -= 1;
    }
    /// Spin until `n` threads are parked at the gate.
    fn wait_for_waiters(&self, n: usize) {
        while self.state.lock().unwrap().waiting < n {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

impl Storage for GatedStorage {
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.create(path, ctx)
    }
    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        self.inner.append(path, data, ctx)
    }
    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.write_at(path, offset, data, ctx)
    }
    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.gate.pass();
        self.inner.read_at(path, offset, len, ctx)
    }
    fn len(&self, path: &str, ctx: &mut IoCtx) -> FsResult<u64> {
        self.inner.len(path, ctx)
    }
    fn exists(&self, path: &str, ctx: &mut IoCtx) -> bool {
        self.inner.exists(path, ctx)
    }
    fn stat(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Metadata> {
        self.inner.stat(path, ctx)
    }
    fn mkdir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.mkdir_all(path, ctx)
    }
    fn read_dir(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        self.inner.read_dir(path, ctx)
    }
    fn remove_file(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.removals.pass();
        self.inner.remove_file(path, ctx)
    }
    fn remove_dir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.remove_dir_all(path, ctx)
    }
    fn rename(&self, from: &str, to: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.rename(from, to, ctx)
    }
    fn flush(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.flush(path, ctx)
    }
}

#[test]
fn serve_overload_sheds_requests_instead_of_hanging() {
    let fs = setup();
    let roots = serve_roots(&fs, 1);
    let root = roots[0].clone();
    let gate = Gate::new();
    let gated =
        GatedStorage { inner: Arc::clone(&fs), gate: Arc::clone(&gate), removals: Gate::new() };

    // One worker, one queue slot: the third concurrent data request has
    // nowhere to go.
    let server = Server::start(
        gated,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let transport = MemTransport::new(Arc::clone(&server));

    // Warm the cache while the gate is open, so the stall below happens
    // on data reads, not inside the container open.
    let mut warm = ServeClient::connect(&transport).unwrap();
    let (_, cached) = warm.open(&root).unwrap();
    assert!(!cached);

    gate.close();

    // Request A occupies the single worker (parked at the gate)...
    let a = std::thread::spawn({
        let transport = MemTransport::new(Arc::clone(&server));
        let root = root.clone();
        move || ServeClient::connect(&transport).unwrap().read(&root, &["/imu"]).unwrap().len()
    });
    gate.wait_for_waiters(1);

    // ...request B fills the one queue slot...
    let b = std::thread::spawn({
        let transport = MemTransport::new(Arc::clone(&server));
        let root = root.clone();
        move || ServeClient::connect(&transport).unwrap().read(&root, &["/imu"]).unwrap().len()
    });
    while server.stats().queue_depth < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // ...and request C must come back Overloaded immediately, not hang.
    let mut c = ServeClient::connect(&transport).unwrap();
    match c.read(&root, &["/imu"]) {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The control plane bypasses the queue: a saturated server is still
    // observable, and reports the saturation.
    let snap = c.stats().unwrap();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.queue_depth, 1);
    assert_eq!(snap.queue_capacity, 1);

    // Release the gate: the stalled and queued requests complete intact.
    gate.open_all();
    let (na, nb) = (a.join().unwrap(), b.join().unwrap());
    assert!(na > 0);
    assert_eq!(na, nb);

    let snap = c.stats().unwrap();
    assert_eq!(snap.shed, 1, "no further shedding once the queue drained");
    assert_eq!(snap.queue_depth, 0);
    server.shutdown();
}

/// Two first requests for one live root race to open it. Recovery is not
/// free of side effects — it sweeps debris and truncates torn WAL tails —
/// so the root is recovered once, and both requests are answered from
/// that one store.
#[test]
fn racing_first_requests_recover_a_live_root_once() {
    use bora_ingest::{IngestConfig, IngestStore};

    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    drop(IngestStore::create(Arc::clone(&fs), "/live", IngestConfig::default(), &mut ctx).unwrap());
    // Debris the first recovery sweeps.
    fs.mkdir_all("/live/seg", &mut ctx).unwrap();
    fs.create("/live/seg/junk", &mut ctx).unwrap();
    let removals = Gate::new();
    let gated =
        GatedStorage { inner: Arc::clone(&fs), gate: Gate::new(), removals: Arc::clone(&removals) };
    let server = Server::start(gated, ServerConfig { workers: 2, ..ServerConfig::default() });
    let topics = |server: &Arc<Server<GatedStorage>>| {
        let transport = MemTransport::new(Arc::clone(server));
        move || ServeClient::connect(&transport).unwrap().topics("/live")
    };

    // The first request parks in its recovery's debris sweep...
    removals.close_for(1);
    let first = std::thread::spawn(topics(&server));
    removals.wait_for_waiters(1);
    // ...and a second first request comes in. Give it the time to finish,
    // as it does when it recovers the root a second time, then let the
    // first go on. A server that recovers a root once keeps the second
    // request waiting on the first's open, so there this wait runs out;
    // the outcome does not depend on it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let second = std::thread::spawn({
        let topics = topics(&server);
        move || {
            let answer = topics();
            done_tx.send(()).unwrap();
            answer
        }
    });
    let _ = done_rx.recv_timeout(std::time::Duration::from_millis(500));
    removals.open_all();

    let first = first.join().unwrap().expect("the first request answers Topics");
    let second = second.join().unwrap().expect("the second request answers Topics");
    assert_eq!(first, second);
    assert!(!fs.exists("/live/seg/junk", &mut ctx), "recovery swept the debris");
    server.shutdown();
}
