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
    // Capacity bounds the idle footprint; pins bound the in-flight one.
    // The last insert may have found every other entry pinned (one pin
    // per worker), in which case the cache stays over capacity until the
    // next insert evicts.
    assert!(snap.cache_len <= 2 + 3, "cache len {} exceeds capacity + workers", snap.cache_len);
    assert_eq!(snap.total_requests(), (CLIENTS * ROUNDS) as u64);
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        (CLIENTS * ROUNDS) as u64,
        "every lookup is a hit or a miss"
    );
}

/// A storage wrapper whose reads can be held at a gate: lets a test park
/// the worker pool deterministically to fill the bounded queue.
#[derive(Clone)]
struct GatedStorage {
    inner: Arc<MemStorage>,
    gate: Arc<Gate>,
}

struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    open: bool,
    waiting: usize,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState { open: true, waiting: 0 }),
            cv: Condvar::new(),
        })
    }
    fn close(&self) {
        self.state.lock().unwrap().open = false;
    }
    fn open_all(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        if s.open {
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
    let gated = GatedStorage { inner: Arc::clone(&fs), gate: Arc::clone(&gate) };

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
