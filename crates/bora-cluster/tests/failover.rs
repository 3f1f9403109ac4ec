//! Failover integration: a node dies **mid-`READ_STREAM2`** and the
//! client must deliver a byte-identical result by resuming on a
//! replica, counting the hop in `cluster.failover`; afterwards `heal`
//! re-replicates what the death left under-replicated.
//!
//! `MemTransport` is unbounded, so a server streams its whole answer
//! eagerly — killing the *process* mid-stream would race the buffer.
//! Instead each node runs over a [`GateStorage`] that injects an `Io`
//! fault after a calibrated number of data reads, so the owner fails
//! *while producing* the stream, deterministically. The same gates count
//! what a hedged read costs both replicas.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bora::{BoraBag, BoraError};
use bora_cluster::{
    ClusterClient, ClusterClientConfig, ClusterTierConfig, HedgeConfig, LocalCluster, NodeId,
    RingConfig, RoutePolicy,
};
use bora_serve::transport::{serve_connection, MemConnection};
use bora_serve::{Connection, Server, Transport, WireMessage};
use ros_msgs::sensor_msgs::{Image, Imu};
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{DirEntry, FsError, FsResult, IoCtx, MemStorage, Metadata, Storage};

/// MemStorage plus a read gate: after `limit` successful data reads,
/// every further `read_at` fails with `Io` — the storage-level fault
/// the router must treat as failover-worthy.
struct GateStorage {
    inner: MemStorage,
    reads: AtomicU64,
    limit: AtomicU64,
}

impl GateStorage {
    fn new() -> Self {
        GateStorage {
            inner: MemStorage::new(),
            reads: AtomicU64::new(0),
            limit: AtomicU64::new(u64::MAX),
        }
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    fn set_limit(&self, limit: u64) {
        self.limit.store(limit, Ordering::SeqCst);
    }

    fn gate(&self) -> FsResult<()> {
        if self.reads.fetch_add(1, Ordering::SeqCst) >= self.limit.load(Ordering::SeqCst) {
            return Err(FsError::Io("gate: injected data-read fault".into()));
        }
        Ok(())
    }
}

impl Storage for GateStorage {
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
        self.gate()?;
        self.inner.read_at(path, offset, len, ctx)
    }
    fn read_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.gate()?;
        self.inner.read_all(path, ctx)
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

const ROOT: &str = "/c/failover";
const TOPICS: [&str; 2] = ["/imu", "/odom"];

/// Build a two-topic, 400-message container on a staging filesystem.
fn build_staging() -> MemStorage {
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w =
        BagWriter::create(&staging, "/stage.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..400u32 {
        let t = Time::new(1 + i / 10, (i % 10) * 1_000_000);
        let mut imu = Imu::default();
        imu.header.stamp = t;
        imu.header.seq = i;
        let topic = TOPICS[(i % 2) as usize];
        w.write_ros_message(topic, t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&staging, "/stage.bag", &staging, ROOT, &Default::default(), &mut ctx).unwrap();
    staging
}

type Gates = Arc<Mutex<BTreeMap<NodeId, Arc<GateStorage>>>>;

fn start_gated_cluster(nodes: u32) -> (LocalCluster<Arc<GateStorage>>, Gates) {
    let gates: Gates = Arc::new(Mutex::new(BTreeMap::new()));
    let factory_gates = Arc::clone(&gates);
    let cluster = LocalCluster::start_with(
        ClusterTierConfig {
            nodes,
            ring: RingConfig { vnodes: 64, replication: 2 },
            ..ClusterTierConfig::default()
        },
        move |id| {
            let gs = Arc::new(GateStorage::new());
            factory_gates.lock().unwrap().insert(id, Arc::clone(&gs));
            gs
        },
    );
    (cluster, gates)
}

#[test]
fn mid_stream_node_death_is_byte_identical_and_counted() {
    let staging = build_staging();
    let (cluster, gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();

    let client = cluster.client(ClusterClientConfig {
        policy: RoutePolicy::Primary,
        hedge: None,
        ..ClusterClientConfig::default()
    });

    let replicas = client.replicas(ROOT);
    assert_eq!(replicas.len(), 2);
    let owner = replicas[0];
    let owner_gate = Arc::clone(gates.lock().unwrap().get(&owner).unwrap());

    // Warm the owner's handle cache, then measure the steady-state
    // data-read cost of one full query.
    let warm = client.read(ROOT, &TOPICS).unwrap();
    assert_eq!(warm.len(), 400);
    let c0 = owner_gate.reads();
    let baseline = client.read(ROOT, &TOPICS).unwrap();
    assert_eq!(baseline, warm);
    let per_query = owner_gate.reads() - c0;
    assert!(per_query >= 2, "query did only {per_query} data reads; gate can't split it");

    // Arm the gate so the *next* query dies roughly halfway through
    // producing its stream.
    owner_gate.set_limit(owner_gate.reads() + per_query / 2);

    let failovers_before = bora_obs::counter("cluster.failover").get();
    let streamed: Vec<_> = client
        .read_stream(ROOT, &TOPICS, None)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .expect("stream must survive the owner's mid-stream death");

    // Byte-identical: same messages, same order, same payloads.
    assert_eq!(streamed, baseline);
    let failovers = bora_obs::counter("cluster.failover").get() - failovers_before;
    assert!(failovers >= 1, "owner died mid-stream but cluster.failover did not move");

    // The dead node is now failing storage-side; declare it dead and
    // heal. The container fell to one live holder, so heal must copy it
    // back up to the replication factor.
    cluster.kill(owner);
    let report = cluster.heal().unwrap();
    assert_eq!(report.removed, vec![owner]);
    assert!(report.copies >= 1, "heal made no re-replication copies: {report:?}");
    assert!(report.batches >= 1);

    // Post-heal: a fresh router sees the shrunken ring, the dead node
    // holds nothing, and reads still match byte-for-byte.
    let client2 = cluster.client(ClusterClientConfig::default());
    let replicas2 = client2.replicas(ROOT);
    assert_eq!(replicas2.len(), 2);
    assert!(!replicas2.contains(&owner));
    for (_, holders) in cluster.directory() {
        assert!(!holders.contains(&owner));
    }
    assert_eq!(client2.read(ROOT, &TOPICS).unwrap(), baseline);

    cluster.shutdown();
}

#[test]
fn killed_server_process_fails_over_without_streaming() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = cluster.client(ClusterClientConfig::default());

    let baseline = client.read(ROOT, &TOPICS).unwrap();
    let owner = client.replicas(ROOT)[0];
    cluster.kill(owner);

    // Plain (non-streaming) reads route around the shut-down node.
    let failovers_before = bora_obs::counter("cluster.failover").get();
    assert_eq!(client.read(ROOT, &TOPICS).unwrap(), baseline);
    assert!(bora_obs::counter("cluster.failover").get() > failovers_before);

    cluster.shutdown();
}

/// The owner's `.bora` rots on its medium after provisioning: its open
/// fails the check against the MANIFEST, which an owner-first read takes
/// for a fault of that replica, and the healthy one answers byte for byte.
#[test]
fn a_rotted_meta_file_on_the_owner_fails_over_to_the_replica() {
    let staging = build_staging();
    let (cluster, gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = cluster.client(ClusterClientConfig {
        policy: RoutePolicy::Primary,
        hedge: None,
        ..ClusterClientConfig::default()
    });
    let owner = client.replicas(ROOT)[0];
    let owner_gate = Arc::clone(gates.lock().unwrap().get(&owner).unwrap());
    let ctx = &mut IoCtx::new();
    let meta = format!("{ROOT}/.bora");
    let mut bytes = owner_gate.inner.read_all(&meta, ctx).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x20;
    owner_gate.inner.remove_file(&meta, ctx).unwrap();
    owner_gate.inner.append(&meta, &bytes, ctx).unwrap();
    assert!(matches!(
        BoraBag::open(&owner_gate.inner, ROOT, ctx).err(),
        Some(BoraError::ChecksumMismatch { path, .. }) if path == ".bora"
    ));

    let expected: Vec<WireMessage> = BoraBag::open(&staging, ROOT, ctx)
        .unwrap()
        .read_topics(&TOPICS, ctx)
        .unwrap()
        .into_iter()
        .map(WireMessage::from)
        .collect();
    let failovers_before = bora_obs::counter("cluster.failover").get();
    assert_eq!(client.read(ROOT, &TOPICS).unwrap(), expected);
    let failovers = bora_obs::counter("cluster.failover").get() - failovers_before;
    assert!(failovers >= 1, "the owner's open failed but cluster.failover did not move");

    cluster.shutdown();
}

#[test]
fn total_replica_loss_is_reported_not_healed() {
    let staging = build_staging();
    let (cluster, gates) = start_gated_cluster(2);
    cluster.provision(&staging, &[ROOT]).unwrap();
    // R=2 on a 2-node cluster: killing both nodes loses every replica.
    for id in cluster.node_ids() {
        cluster.kill(id);
        gates.lock().unwrap().get(&id).unwrap().set_limit(0);
    }
    let err = cluster.heal().unwrap_err();
    assert!(err.to_string().contains("lost every replica"), "{err}");
}

/// Messages in the many-chunk container: 2 KiB images, so a chunk holds
/// 32 of them — its 64 KiB floor and its 32-message floor fall together.
const MANY: u32 = 1_280;
/// The server's reply window, in chunk frames (`STREAM_WINDOW`).
const REPLY_WINDOW: usize = 4;

/// A one-topic container of `MANY` 2 KiB images: `MANY / 32` chunks.
fn build_many_chunks() -> MemStorage {
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w =
        BagWriter::create(&staging, "/many.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..MANY {
        let t = Time::from_nanos(1_000_000_000 + i as u64 * 1_000_000);
        let mut image = Image { height: 32, width: 64, step: 64, ..Image::default() };
        image.header.seq = i;
        image.header.stamp = t;
        image.encoding = "mono8".into();
        image.data = vec![i as u8; 2048];
        w.write_ros_message(TOPICS[0], t, &image, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&staging, "/many.bag", &staging, ROOT, &Default::default(), &mut ctx).unwrap();
    staging
}

/// Data reads of every gate once they have stopped moving: a hedge
/// loser that is still working has not settled.
fn settled_reads(gates: &Gates) -> u64 {
    let total = || gates.lock().unwrap().values().map(|g| g.reads()).sum::<u64>();
    loop {
        let before = total();
        std::thread::sleep(Duration::from_millis(100));
        if total() == before {
            return before;
        }
    }
}

/// Frames a link holds that its client has not received yet, and
/// whether the client hung up.
type Credit = Arc<(Mutex<(u32, bool)>, Condvar)>;

/// An in-process link to a node that holds one undelivered frame, as a
/// socket's buffer holds a few: a server that sends faster than its
/// client reads waits, held to its reply window, until the client reads
/// or hangs up — unlike `MemTransport`, which buffers a whole answer.
struct Link(Arc<Server<Arc<GateStorage>>>);

/// The link's server end: a send waits for the client to take the frame
/// before it.
struct Served(MemConnection, Credit);

/// The link's client end.
struct Client(MemConnection, Credit);

impl Connection for Served {
    fn send_frame(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        let (held, cv) = &*self.1;
        let mut held = cv.wait_while(held.lock().unwrap(), |(n, gone)| *n > 0 && !*gone).unwrap();
        if held.1 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        held.0 += 1;
        self.0.send_frame(parts)
    }
    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        self.0.recv_frame()
    }
}

impl Connection for Client {
    fn send_frame(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        self.0.send_frame(parts)
    }
    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        let frame = self.0.recv_frame()?;
        self.1 .0.lock().unwrap().0 -= 1;
        self.1 .1.notify_all();
        Ok(frame)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.1 .0.lock().unwrap().1 = true;
        self.1 .1.notify_all();
    }
}

impl Transport for Link {
    type Conn = Client;
    fn connect(&self) -> std::io::Result<Client> {
        let (client, served) = MemConnection::pair();
        let credit = Credit::default();
        let mut served = Served(served, Arc::clone(&credit));
        let server = Arc::clone(&self.0);
        std::thread::spawn(move || serve_connection(&server, &mut served));
        Ok(Client(client, credit))
    }
}

/// A hedge races two legs of one read, and the loser hangs up once its
/// first frame is in: across both replicas a hedged read costs at most
/// one read's data reads plus one reply window's worth, where racing
/// whole answers costs two reads. Each node is reached over a [`Link`],
/// so no server runs ahead of its client.
#[test]
fn a_hedge_loser_does_one_reply_window_of_extra_work() {
    let staging = build_many_chunks();
    let (cluster, gates) = start_gated_cluster(2);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = |hedge| {
        let links = cluster
            .node_ids()
            .into_iter()
            .map(|id| (id, Link(cluster.node(id).unwrap().server.clone())));
        ClusterClient::new(
            cluster.ring(),
            links,
            ClusterClientConfig { hedge, ..ClusterClientConfig::default() },
        )
    };
    let plain = client(None);
    let hedged = client(Some(HedgeConfig { min_threshold: Duration::ZERO, factor: 0.0 }));
    let owner = plain.owner(ROOT).unwrap();
    assert_eq!(plain.replicas(ROOT).len(), 2);

    // Warm both replicas' handles (a hedged read opens on both), then
    // measure what one read costs the owner.
    let baseline = plain.read(ROOT, &[TOPICS[0]]).unwrap();
    assert_eq!(baseline.len(), MANY as usize);
    assert_eq!(hedged.read(ROOT, &[TOPICS[0]]).unwrap(), baseline);
    settled_reads(&gates);
    let owner_gate = Arc::clone(gates.lock().unwrap().get(&owner).unwrap());
    let before = owner_gate.reads();
    assert_eq!(plain.read(ROOT, &[TOPICS[0]]).unwrap(), baseline);
    let per_query = owner_gate.reads() - before;
    assert!(per_query >= 2, "query did only {per_query} data reads; the gates can't tell");
    // One reply window of work: what a stream reads to deliver that many
    // chunks (its first readahead covers more), hung up on after them.
    let before = settled_reads(&gates);
    let mut stream = plain.read_stream(ROOT, &[TOPICS[0]], None).unwrap();
    assert_eq!(stream.by_ref().take(REPLY_WINDOW * 32).count(), REPLY_WINDOW * 32);
    drop(stream);
    let window = settled_reads(&gates) - before;
    assert!(window < per_query, "a reply window read {window} of a read's {per_query}");

    let issued = bora_obs::counter("cluster.hedge.issued").get();
    let before = settled_reads(&gates);
    assert_eq!(hedged.read(ROOT, &[TOPICS[0]]).unwrap(), baseline);
    let spent = settled_reads(&gates) - before;
    assert!(bora_obs::counter("cluster.hedge.issued").get() > issued, "no hedge was issued");
    assert!(
        spent <= per_query + window,
        "a hedged read cost {spent} data reads; one read costs {per_query}, a reply window {window}"
    );
    cluster.shutdown();
}
