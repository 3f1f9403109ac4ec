//! Composite chaos scenarios over a live 3-node [`LocalCluster`], with
//! invariant checkers.
//!
//! Each scenario provisions the same fixture — one static (sealed)
//! container and one live ingest root, replicated 2× over 3 nodes —
//! then drives a [`ClusterClient`] through a scripted op sequence while
//! a shared [`ChaosState`] corrupts the wire. The script, the rule set,
//! and the rng are all functions of the seed, so a scenario replays the
//! same failure schedule every run; the replay contract is
//! [`ScenarioReport::replay_key`] — `(outcome digest, violations)` must
//! be identical across replays of the same `(scenario, seed)`.
//!
//! Invariants checked (violations are collected, not panicked, so a CI
//! job can emit the full report as an artifact):
//!
//! * **No acked append is lost** — every batch the client saw acked is
//!   present in the final read; every batch read back was either acked
//!   or failed *ambiguously* (an error after the request may have
//!   reached some replica).
//! * **Reads are byte-identical** to the fault-free baseline, both
//!   mid-chaos (every successful read) and at the end.
//! * **Heal converges** — after the partition lifts, a final heal runs
//!   with nothing deferred, every container is fully replicated on live
//!   nodes, and heal *refuses* to run from a minority reachability view.
//! * **Breakers re-close** after the network heals and traffic resumes.
//! * **Deadlines bound work** — no single op's wall time exceeds the
//!   propagated per-request deadline times the replica count, plus
//!   scheduling slack.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bora_cluster::{
    BreakerConfig, BreakerState, ClusterClient, ClusterClientConfig, ClusterTierConfig,
    HedgeConfig, LocalCluster, NodeId, RingConfig, RoutePolicy,
};
use bora_ingest::{IngestConfig, IngestStore};
use bora_serve::{MemTransport, RetryBudgetConfig, WireMessage};
use ros_msgs::{sensor_msgs::Imu, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

use crate::fault::{ChaosRule, ChaosState, NetFault, Partition};
use crate::transport::ChaosTransport;

pub const STATIC_ROOT: &str = "/c/chaos-static";
pub const INGEST_ROOT: &str = "/c/chaos-live";
pub const STATIC_TOPICS: [&str; 2] = ["/imu", "/odom"];
pub const LIVE_TOPIC: &str = "/chaos";

/// Per-request deadline the chaos client propagates on the wire.
const DEADLINE: Duration = Duration::from_millis(800);
/// Chaos frame timeout: how long one lost frame stalls its caller.
const FRAME_TIMEOUT: Duration = Duration::from_millis(100);
/// An op may burn a deadline per replica (failover walks the set) plus
/// generous scheduling slack before we call it a deadline violation.
const OP_WALL_SLACK: Duration = Duration::from_secs(4);
const MSGS_PER_BATCH: u64 = 3;

/// The scripted fault schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Partition the static owner mid-stream (then asymmetrically),
    /// kill it, verify minority-side heal is refused, heal from the
    /// majority, and converge.
    PartitionOwner,
    /// Crash a node under sustained appends, heal, join a replacement,
    /// and keep appending.
    CrashRestart,
    /// Duplicate / reorder / delay / truncate responses and drop
    /// requests while reads and appends interleave.
    DupDelay,
    /// Flap a replica's network on and off under hedged reads.
    FlapNetwork,
}

impl Scenario {
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::PartitionOwner,
            Scenario::CrashRestart,
            Scenario::DupDelay,
            Scenario::FlapNetwork,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scenario::PartitionOwner => "partition-owner",
            Scenario::CrashRestart => "crash-restart",
            Scenario::DupDelay => "dup-delay",
            Scenario::FlapNetwork => "flap-network",
        }
    }

    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|sc| sc.name() == s)
    }
}

/// What one scenario run did and found.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub scenario: &'static str,
    pub seed: u64,
    /// Logical frame events witnessed.
    pub events: u64,
    /// Faults injected (partition drops included).
    pub faults_injected: u64,
    pub ops_attempted: u64,
    pub ops_ok: u64,
    pub acked_batches: u64,
    pub ambiguous_batches: u64,
    pub max_op_wall: Duration,
    /// Empty on a healthy run.
    pub violations: Vec<String>,
    /// FNV over the final reads and directory shape — the
    /// deterministic-outcome fingerprint.
    pub outcome_digest: u64,
}

impl ScenarioReport {
    /// The replay-identity contract: two runs of the same `(scenario,
    /// seed)` must agree on this, even when thread timing perturbs the
    /// exact fault count (hedged scenarios race decide() calls).
    pub fn replay_key(&self) -> (u64, Vec<String>) {
        (self.outcome_digest, self.violations.clone())
    }

    pub fn to_json(&self) -> String {
        let violations: Vec<String> =
            self.violations.iter().map(|v| format!("\"{}\"", v.replace('"', "'"))).collect();
        format!(
            concat!(
                "{{\"scenario\":\"{}\",\"seed\":{},\"events\":{},\"faults_injected\":{},",
                "\"ops_attempted\":{},\"ops_ok\":{},\"acked_batches\":{},",
                "\"ambiguous_batches\":{},\"max_op_wall_ms\":{},",
                "\"outcome_digest\":\"{:016x}\",\"violations\":[{}]}}"
            ),
            self.scenario,
            self.seed,
            self.events,
            self.faults_injected,
            self.ops_attempted,
            self.ops_ok,
            self.acked_batches,
            self.ambiguous_batches,
            self.max_op_wall.as_millis(),
            self.outcome_digest,
            violations.join(",")
        )
    }
}

/// Run one scenario under one seed. Panics only on fixture bugs (e.g.
/// provisioning fails); every *invariant* failure lands in
/// [`ScenarioReport::violations`].
pub fn run_scenario(scenario: Scenario, seed: u64) -> ScenarioReport {
    let (policy, hedge) = match scenario {
        Scenario::PartitionOwner | Scenario::CrashRestart => (RoutePolicy::Primary, None),
        Scenario::DupDelay => (RoutePolicy::Spread, None),
        Scenario::FlapNetwork => (
            RoutePolicy::Spread,
            Some(HedgeConfig { min_threshold: Duration::from_millis(2), factor: 2.0 }),
        ),
    };
    let mut h = Harness::new(scenario, seed, policy, hedge);
    match scenario {
        Scenario::PartitionOwner => h.run_partition_owner(),
        Scenario::CrashRestart => h.run_crash_restart(),
        Scenario::DupDelay => h.run_dup_delay(),
        Scenario::FlapNetwork => h.run_flap_network(),
    }
    h.finalize()
}

type NodeStorage = Arc<MemStorage>;
type ChaosClusterClient = ClusterClient<ChaosTransport<MemTransport<NodeStorage>>>;

struct Harness {
    scenario: Scenario,
    seed: u64,
    cluster: LocalCluster<NodeStorage>,
    state: Arc<ChaosState>,
    chaos: ChaosClusterClient,
    clean: ClusterClient<MemTransport<NodeStorage>>,
    baseline: Vec<WireMessage>,
    acked: Vec<u64>,
    ambiguous: Vec<u64>,
    next_batch: u64,
    ops_attempted: u64,
    ops_ok: u64,
    max_op_wall: Duration,
    violations: Vec<String>,
}

/// The fault-free fixture both the cluster and the baseline come from:
/// a 200-message two-topic static container plus an (empty) live ingest
/// root.
fn build_staging() -> NodeStorage {
    let staging = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w =
        BagWriter::create(&*staging, "/stage.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..200u32 {
        let t = Time::new(1 + i / 10, (i % 10) * 1_000_000);
        let mut imu = Imu::default();
        imu.header.stamp = t;
        imu.header.seq = i;
        w.write_ros_message(STATIC_TOPICS[(i % 2) as usize], t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&*staging, "/stage.bag", &*staging, STATIC_ROOT, &Default::default(), &mut ctx)
        .unwrap();
    drop(
        IngestStore::create(
            Arc::clone(&staging),
            INGEST_ROOT,
            IngestConfig { wal_shards: 2, group_commit: 1, window_ns: 1_000, block: None },
            &mut ctx,
        )
        .unwrap(),
    );
    staging
}

impl Harness {
    fn new(
        scenario: Scenario,
        seed: u64,
        policy: RoutePolicy,
        hedge: Option<HedgeConfig>,
    ) -> Harness {
        let staging = build_staging();
        let cluster = LocalCluster::start_with(
            ClusterTierConfig {
                nodes: 3,
                ring: RingConfig { vnodes: 64, replication: 2 },
                ..ClusterTierConfig::default()
            },
            |_| Arc::new(MemStorage::new()),
        );
        cluster.provision(&staging, &[STATIC_ROOT, INGEST_ROOT]).unwrap();

        let state = Arc::new(ChaosState::new(seed));
        let endpoints: Vec<(NodeId, ChaosTransport<MemTransport<NodeStorage>>)> = cluster
            .node_ids()
            .into_iter()
            .map(|id| {
                let node = cluster.node(id).expect("node is hosted");
                let t = ChaosTransport::new(
                    MemTransport::new(Arc::clone(&node.server)),
                    id,
                    Arc::clone(&state),
                )
                .with_frame_timeout(FRAME_TIMEOUT);
                (id, t)
            })
            .collect();
        let chaos = ClusterClient::new(
            cluster.ring(),
            endpoints,
            ClusterClientConfig {
                policy,
                hedge,
                breaker: BreakerConfig::default(),
                deadline: Some(DEADLINE),
                // Roomier than the serving default: a chaos run *is* a
                // correlated outage, and we still want the tail of each
                // phase to retry its way back to health.
                retry_budget: Some(RetryBudgetConfig { capacity: 16.0, deposit_per_success: 0.5 }),
            },
        );
        let clean = cluster.client(ClusterClientConfig {
            deadline: None,
            retry_budget: None,
            ..ClusterClientConfig::default()
        });
        let baseline = clean
            .read(STATIC_ROOT, &STATIC_TOPICS)
            .expect("fault-free baseline read of the provisioned fixture");
        assert_eq!(baseline.len(), 200, "fixture sanity");
        Harness {
            scenario,
            seed,
            cluster,
            state,
            chaos,
            clean,
            baseline,
            acked: Vec::new(),
            ambiguous: Vec::new(),
            next_batch: 0,
            ops_attempted: 0,
            ops_ok: 0,
            max_op_wall: Duration::ZERO,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, msg: String) {
        bora_obs::counter("chaos.invariant_violations").inc();
        self.violations.push(msg);
    }

    /// Track one op's wall time against the deadline invariant.
    fn clocked<R>(&mut self, what: &str, op: impl FnOnce(&ChaosClusterClient) -> R) -> R {
        let started = Instant::now();
        let out = op(&self.chaos);
        let wall = started.elapsed();
        self.max_op_wall = self.max_op_wall.max(wall);
        self.ops_attempted += 1;
        let bound = DEADLINE * 3 + OP_WALL_SLACK;
        if wall > bound {
            self.violation(format!(
                "{what} ran {}ms, past its propagated deadline bound of {}ms",
                wall.as_millis(),
                bound.as_millis()
            ));
        }
        out
    }

    /// One read of the static container through the chaos client. A
    /// failure is tolerated (the network is being attacked); a *wrong
    /// answer* is a violation.
    fn read_static(&mut self) {
        let res = self.clocked("read", |c| c.read(STATIC_ROOT, &STATIC_TOPICS));
        if let Ok(msgs) = res {
            self.ops_ok += 1;
            if msgs != self.baseline {
                self.violation(format!(
                    "mid-chaos read returned {} messages that differ from the fault-free \
                     baseline ({})",
                    msgs.len(),
                    self.baseline.len()
                ));
            }
        }
    }

    /// Stream the static container, comparing to baseline on success.
    fn stream_static_with(&mut self, mut mid: impl FnMut(&Harness)) {
        let started = Instant::now();
        let stream = match self.chaos.read_stream(STATIC_ROOT, &STATIC_TOPICS) {
            Ok(s) => s,
            Err(_) => {
                self.ops_attempted += 1;
                return;
            }
        };
        let mut got = Vec::new();
        let mut failed = false;
        let mut mid_ran = false;
        for (i, item) in stream.enumerate() {
            if i == self.baseline.len() / 2 {
                mid(self);
                mid_ran = true;
            }
            match item {
                Ok(m) => got.push(m),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        // If the stream died before its midpoint, still run the
        // scheduled mid-stream action: the following phases assume it.
        if !mid_ran {
            mid(self);
        }
        self.max_op_wall = self.max_op_wall.max(started.elapsed());
        self.ops_attempted += 1;
        if !failed {
            self.ops_ok += 1;
            if got != self.baseline {
                self.violation(format!(
                    "stream under chaos delivered {} messages, diverging from baseline",
                    got.len()
                ));
            }
        }
    }

    fn batch(&mut self) -> (u64, Vec<WireMessage>) {
        let id = self.next_batch;
        self.next_batch += 1;
        let msgs = (0..MSGS_PER_BATCH)
            .map(|j| WireMessage {
                topic: LIVE_TOPIC.into(),
                time: Time::new(1_000 + id as u32, j as u32),
                data: batch_payload(id, j),
            })
            .collect();
        (id, msgs)
    }

    /// One append through the chaos client. Acked → must survive;
    /// failed → ambiguous (it may have landed on a subset of replicas).
    fn append_live(&mut self) {
        let (id, msgs) = self.batch();
        let res = self.clocked("append", |c| c.append(INGEST_ROOT, &msgs));
        match res {
            Ok(_) => {
                self.ops_ok += 1;
                self.acked.push(id);
            }
            Err(_) => self.ambiguous.push(id),
        }
    }

    /// Lift every fault, then drive a *fixed* number of traffic rounds
    /// so the chaos client's breakers get probed back to Closed
    /// (asserted in `finalize`). The round count is fixed — not
    /// break-on-healthy — because in hedged scenarios the number of
    /// rounds a breaker needs is timing-dependent, and an early break
    /// would make the append count (and so the final bytes) vary across
    /// replays.
    fn success_rounds(&mut self) {
        self.state.set_partition(None);
        self.state.set_rules(Vec::new());
        // Let in-flight hedge legs from the fault phase drain: a leg
        // blocked on a partitioned victim fails up to one frame timeout
        // *later*, and that late `on_failure` would race the recovery
        // traffic below — it could re-trip a breaker after its last
        // probe and make the re-close invariant flaky.
        std::thread::sleep(FRAME_TIMEOUT + Duration::from_millis(50));
        for _ in 0..40 {
            self.read_static();
            self.append_live();
        }
        // Read-only top-up for any breaker still counting down to its
        // probe. Reads do not change the final bytes, so breaking early
        // here cannot perturb replay identity.
        for _ in 0..50 {
            if self.live_breakers_closed() {
                break;
            }
            self.read_static();
        }
    }

    fn live_breakers_closed(&self) -> bool {
        let live = self.cluster.live_nodes();
        self.chaos
            .breaker_states()
            .iter()
            .filter(|(id, _)| live.contains(id))
            .all(|(_, st)| *st == BreakerState::Closed)
    }

    // ------------------------------------------------------- scenarios

    fn run_partition_owner(&mut self) {
        // Background jitter for the whole scripted phase: delays never
        // fail an op, so they do not perturb the failover script, but
        // every delivery is still a scheduled fault.
        self.state.set_rules(vec![ChaosRule::new(NetFault::Delay { ms: 3 })
            .on_send()
            .on_recv()
            .prob(0.45)]);
        // Warm-up: a few (jittered but successful) ops so pools and
        // caches exist.
        for _ in 0..2 {
            self.read_static();
            self.append_live();
        }
        let owner = self.chaos.replicas(STATIC_ROOT)[0];

        // Partition the owner *mid-stream*: the stream must resume on
        // the replica and still be byte-identical.
        self.stream_static_with(|h| {
            h.state.set_partition(Some(Partition::full([owner])));
        });

        // Reads fail over; appends that need the owner go ambiguous.
        for _ in 0..6 {
            self.read_static();
            self.append_live();
        }

        // Asymmetric phase: requests reach the owner but responses are
        // lost — the nastier half-open failure.
        self.state.set_partition(Some(Partition::rx_only([owner])));
        for _ in 0..5 {
            self.read_static();
        }
        self.state.set_partition(Some(Partition::full([owner])));

        // The owner is gone for good. Heal — but first prove the
        // control plane refuses to act on a minority view.
        self.cluster.kill(owner);
        let live = self.cluster.live_nodes();
        let minority: BTreeSet<NodeId> = live.iter().take(1).copied().collect();
        self.cluster.set_reachable(Some(minority));
        match self.cluster.heal() {
            Err(_) => {}
            Ok(r) => self.violation(format!(
                "heal from a minority reachability view was not refused (report: {r:?})"
            )),
        }
        self.cluster.set_reachable(Some(live.into_iter().collect()));
        if let Err(e) = self.cluster.heal() {
            self.violation(format!("heal from the majority view failed: {e}"));
        }
        self.cluster.set_reachable(None);
        self.success_rounds();
    }

    fn run_crash_restart(&mut self) {
        self.state.set_rules(vec![
            ChaosRule::new(NetFault::Drop).on_send().prob(0.08),
            ChaosRule::new(NetFault::Delay { ms: 5 }).on_send().on_recv().prob(0.45),
        ]);
        for _ in 0..10 {
            self.append_live();
            self.read_static();
        }

        // Crash the ingest owner mid-append-storm.
        let victim = self.chaos.replicas(INGEST_ROOT)[0];
        self.cluster.kill(victim);
        for _ in 0..6 {
            self.append_live();
            self.read_static();
        }

        // Heal around the corpse, then grow a replacement node and keep
        // appending — the "restart" half of crash-restart.
        self.state.set_rules(Vec::new());
        if let Err(e) = self.cluster.heal() {
            self.violation(format!("heal after crash failed: {e}"));
        }
        if let Err(e) = self.cluster.join() {
            self.violation(format!("join of replacement node failed: {e}"));
        }
        let resumed_from = self.ops_ok;
        for _ in 0..6 {
            self.append_live();
        }
        if self.ops_ok == resumed_from {
            self.violation("no append succeeded after heal + replacement join".into());
        }
        self.success_rounds();
    }

    fn run_dup_delay(&mut self) {
        self.state.set_rules(vec![
            ChaosRule::new(NetFault::Duplicate).on_recv().prob(0.18),
            ChaosRule::new(NetFault::Reorder).on_recv().prob(0.18),
            ChaosRule::new(NetFault::Delay { ms: 7 }).on_send().on_recv().prob(0.3),
            ChaosRule::new(NetFault::Drop).on_send().prob(0.1),
            // Recv-only: a truncated *request* would decode server-side
            // into a permanent BadRequest (see `NetFault::Truncate`).
            ChaosRule::new(NetFault::Truncate).on_recv().prob(0.1),
        ]);
        for i in 0..45 {
            self.read_static();
            if i % 2 == 0 {
                self.append_live();
            }
        }
        self.state.set_rules(Vec::new());
        self.success_rounds();
    }

    fn run_flap_network(&mut self) {
        // Read-only on purpose: hedge legs race `decide()` calls across
        // threads, so appends here would make the acked set — and the
        // final bytes — timing-dependent. Reads are idempotent; the
        // replay contract survives the racing fault draws.
        self.state.set_rules(vec![
            ChaosRule::new(NetFault::Drop).on_recv().prob(0.1),
            ChaosRule::new(NetFault::Delay { ms: 3 }).on_send().on_recv().prob(0.45),
        ]);
        let replicas = self.chaos.replicas(STATIC_ROOT);
        for cycle in 0..10 {
            let victim = replicas[cycle % replicas.len()];
            let partition = if cycle % 2 == 0 {
                Partition::full([victim])
            } else {
                Partition::rx_only([victim])
            };
            self.state.set_partition(Some(partition));
            for _ in 0..4 {
                self.read_static();
            }
            self.state.set_partition(None);
            for _ in 0..2 {
                self.read_static();
            }
        }
        // One read with every replica cut off. Whether a flapped read
        // above fails is a race between its hedge legs; this one cannot
        // succeed, so "some op failed" does not hang on that race.
        self.state.set_partition(Some(Partition::full(replicas)));
        self.read_static();
        self.state.set_rules(Vec::new());
        self.success_rounds();
    }

    // ------------------------------------------------------ invariants

    fn finalize(mut self) -> ScenarioReport {
        self.state.set_partition(None);
        self.state.set_rules(Vec::new());
        self.cluster.set_reachable(None);

        // Heal must converge: nothing deferred, nothing left to move.
        match self.cluster.heal() {
            Ok(report) if report.deferred > 0 => self.violation(format!(
                "final heal did not converge: {} copies still deferred",
                report.deferred
            )),
            Ok(_) => {}
            Err(e) => self.violation(format!("final heal failed: {e}")),
        }

        // Directory: every container fully replicated on live nodes.
        let live: BTreeSet<NodeId> = self.cluster.live_nodes().into_iter().collect();
        let want = 2.min(live.len());
        for (container, holders) in self.cluster.directory() {
            let live_holders = holders.iter().filter(|id| live.contains(id)).count();
            if live_holders < want {
                self.violation(format!(
                    "{container} has {live_holders} live holders after heal, wanted {want}"
                ));
            }
        }

        // Final reads through a fault-free client: static bytes match
        // the baseline; the live root obeys the append containment.
        let mut digest = Fnv::new();
        match self.clean.read(STATIC_ROOT, &STATIC_TOPICS) {
            Ok(msgs) => {
                if msgs != self.baseline {
                    self.violation(
                        "final static read diverged from the fault-free baseline".into(),
                    );
                }
                digest.fold_messages(&msgs);
            }
            Err(e) => self.violation(format!("final static read failed: {e}")),
        }
        match self.clean.read(INGEST_ROOT, &[LIVE_TOPIC]) {
            Ok(msgs) => {
                let read_ids: BTreeSet<u64> =
                    msgs.iter().filter_map(|m| parse_batch_id(&m.data)).collect();
                let lost: Vec<u64> =
                    self.acked.iter().filter(|id| !read_ids.contains(id)).copied().collect();
                for id in lost {
                    self.violation(format!("acked batch {id} is missing from the final read"));
                }
                let allowed: BTreeSet<u64> =
                    self.acked.iter().chain(self.ambiguous.iter()).copied().collect();
                let phantom: Vec<u64> =
                    read_ids.iter().filter(|id| !allowed.contains(id)).copied().collect();
                for id in phantom {
                    self.violation(format!("final read contains batch {id} that was never sent"));
                }
                digest.fold_messages(&msgs);
            }
            Err(e) => self.violation(format!("final ingest read failed: {e}")),
        }

        // Breakers re-closed after heal + traffic (success_rounds drove
        // the probes; this is the assertion).
        if !self.live_breakers_closed() {
            let states: Vec<String> = self
                .chaos
                .breaker_states()
                .iter()
                .filter(|(id, _)| live.contains(id))
                .map(|(id, st)| format!("node{id}={st:?}"))
                .collect();
            self.violation(format!("breakers did not re-close after heal: {}", states.join(", ")));
        }

        // Fold the directory shape so placement drift breaks the digest.
        for (container, holders) in self.cluster.directory() {
            digest.fold_bytes(container.as_bytes());
            for id in holders {
                digest.fold_bytes(&id.to_le_bytes());
            }
        }

        let report = ScenarioReport {
            scenario: self.scenario.name(),
            seed: self.seed,
            events: self.state.events(),
            faults_injected: self.state.faults_injected(),
            ops_attempted: self.ops_attempted,
            ops_ok: self.ops_ok,
            acked_batches: self.acked.len() as u64,
            ambiguous_batches: self.ambiguous.len() as u64,
            max_op_wall: self.max_op_wall,
            violations: self.violations,
            outcome_digest: digest.finish(),
        };
        self.cluster.shutdown();
        report
    }
}

fn batch_payload(id: u64, msg: u64) -> Vec<u8> {
    format!("batch-{id:08}-{msg}").into_bytes()
}

fn parse_batch_id(data: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(data).ok()?;
    s.strip_prefix("batch-")?.get(..8)?.parse().ok()
}

/// FNV-1a, the same tiny digest `simfs::path_key` uses — good enough to
/// fingerprint "did two replays end in the same state".
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn fold_messages(&mut self, msgs: &[WireMessage]) {
        for m in msgs {
            self.fold_bytes(m.topic.as_bytes());
            self.fold_bytes(&m.time.sec.to_le_bytes());
            self.fold_bytes(&m.time.nsec.to_le_bytes());
            self.fold_bytes(&m.data);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_ids_roundtrip() {
        assert_eq!(parse_batch_id(&batch_payload(42, 1)), Some(42));
        assert_eq!(parse_batch_id(b"not a batch"), None);
        assert_eq!(parse_batch_id(b""), None);
    }

    #[test]
    fn scenario_names_roundtrip() {
        for s in Scenario::all() {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let r = ScenarioReport {
            scenario: "dup-delay",
            seed: 7,
            events: 10,
            faults_injected: 3,
            ops_attempted: 5,
            ops_ok: 4,
            acked_batches: 2,
            ambiguous_batches: 1,
            max_op_wall: Duration::from_millis(12),
            violations: vec!["acked batch 3 is missing from the final read".into()],
            outcome_digest: 0xdead_beef,
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"dup-delay\""));
        assert!(json.contains("\"violations\":[\"acked batch 3"));
    }
}
