//! Failover integration: a node dies **mid-`READ_STREAM2`** and the
//! client must deliver a byte-identical result by resuming on a
//! replica, counting the hop in `cluster.failover`; afterwards `heal`
//! re-replicates what the death left under-replicated.
//!
//! `MemTransport` is unbounded, so a server streams its whole answer
//! eagerly — killing the *process* mid-stream would race the buffer.
//! Instead each node runs over a [`GateStorage`] that injects an `Io`
//! fault after a calibrated number of data reads, so the owner fails
//! *while producing* the stream, deterministically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bora_cluster::{
    ClusterClientConfig, ClusterTierConfig, LocalCluster, NodeId, RingConfig, RoutePolicy,
};
use ros_msgs::{sensor_msgs::Imu, Time};
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
        .read_stream(ROOT, &TOPICS)
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
