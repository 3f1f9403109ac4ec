//! [`LocalCluster`]: the control plane, hosting N bora-serve nodes
//! in-process.
//!
//! Each node is a full [`bora_serve::Server`] over its **own** storage
//! backend (by default a per-node simfs [`simfs::ClusterStorage`], so
//! per-server fault injection reaches each node independently), reached
//! through [`MemTransport`] — the deterministic in-process transport the
//! rest of the workspace tests with. The control plane owns:
//!
//! * the **directory**: the shared [`Ring`] mapping container → replica
//!   set, updated on join/leave;
//! * **provisioning**: copying containers onto their replica nodes
//!   ([`LocalCluster::provision`]) and telling each node which
//!   containers it owns (replica-aware cache eviction);
//! * **self-healing**: after a node death, [`LocalCluster::heal`]
//!   removes it from the ring and re-replicates every container that
//!   fell under its replication factor, throttled to
//!   `migrate_batch` copies per batch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use bora::organizer::copy_container;
use bora::BoraResult;
use bora_serve::{MemTransport, Server, ServerConfig};
use simfs::{ClusterConfig as SimClusterConfig, ClusterStorage, IoCtx, Storage};

use crate::client::{ClusterClient, ClusterClientConfig};
use crate::ring::{Move, NodeId, Ring, RingConfig};

/// Cluster-tier shape.
#[derive(Debug, Clone)]
pub struct ClusterTierConfig {
    /// Initial node count (ids `0..nodes`).
    pub nodes: u32,
    pub ring: RingConfig,
    /// Per-node server template; `server_id` is overridden per node.
    pub server: ServerConfig,
    /// Per-node storage cost model (each node gets its own instance).
    pub storage: SimClusterConfig,
    /// Migration throttle: container copies in flight per batch during
    /// join/heal resharding.
    pub migrate_batch: usize,
}

impl Default for ClusterTierConfig {
    fn default() -> Self {
        ClusterTierConfig {
            nodes: 4,
            ring: RingConfig::default(),
            server: ServerConfig::default(),
            storage: SimClusterConfig::pvfs4(),
            migrate_batch: 4,
        }
    }
}

/// One hosted node.
pub struct LocalNode<S: Storage + Clone + Send + Sync + 'static> {
    pub id: NodeId,
    pub storage: S,
    pub server: Arc<Server<S>>,
}

/// What a heal pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Dead nodes dropped from the ring.
    pub removed: Vec<NodeId>,
    /// Re-replication copies executed (under-replicated containers).
    pub copies: usize,
    /// Copy batches the throttle split the work into.
    pub batches: usize,
    /// Copies planned but not executed because the source or target was
    /// outside the control plane's reachability view; a later heal (after
    /// the partition lifts) picks them up.
    pub deferred: usize,
}

/// An in-process multi-node serving tier.
pub struct LocalCluster<S: Storage + Clone + Send + Sync + 'static> {
    cfg: ClusterTierConfig,
    ring: Arc<RwLock<Ring>>,
    nodes: Mutex<BTreeMap<NodeId, Arc<LocalNode<S>>>>,
    /// Which nodes hold a copy of each container (ground truth for
    /// sourcing heals; the ring is the *intended* placement).
    holders: Mutex<BTreeMap<String, BTreeSet<NodeId>>>,
    dead: Mutex<BTreeSet<NodeId>>,
    /// The control plane's network reachability view: `None` = full
    /// visibility; `Some(set)` = only these nodes are reachable (a
    /// partition is in effect). Heal consults it so re-replication never
    /// sources from — or is driven by — a minority side.
    reachable: Mutex<Option<BTreeSet<NodeId>>>,
    next_id: AtomicU32,
    factory: Mutex<Box<dyn FnMut(NodeId) -> S + Send>>,
}

impl LocalCluster<Arc<ClusterStorage>> {
    /// Start a cluster whose nodes each run over their own simulated
    /// cluster filesystem (per-node fault injection available via
    /// [`LocalCluster::node`]`.storage`).
    pub fn start(cfg: ClusterTierConfig) -> Self {
        let storage_cfg = cfg.storage;
        Self::start_with(cfg, move |_| Arc::new(ClusterStorage::new(storage_cfg)))
    }
}

impl<S: Storage + Clone + Send + Sync + 'static> LocalCluster<S> {
    /// Start with a custom per-node storage factory (benchmarks wrap
    /// storage to pace wall-clock time; tests inject faults).
    pub fn start_with(
        cfg: ClusterTierConfig,
        mut factory: impl FnMut(NodeId) -> S + Send + 'static,
    ) -> Self {
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        let ring = Ring::with_nodes(cfg.ring, cfg.nodes);
        let mut nodes = BTreeMap::new();
        for id in 0..cfg.nodes {
            nodes.insert(id, Arc::new(Self::spawn_node(&cfg, id, &mut factory)));
        }
        LocalCluster {
            next_id: AtomicU32::new(cfg.nodes),
            cfg,
            ring: Arc::new(RwLock::new(ring)),
            nodes: Mutex::new(nodes),
            holders: Mutex::new(BTreeMap::new()),
            dead: Mutex::new(BTreeSet::new()),
            reachable: Mutex::new(None),
            factory: Mutex::new(Box::new(factory)),
        }
    }

    fn spawn_node(
        cfg: &ClusterTierConfig,
        id: NodeId,
        factory: &mut impl FnMut(NodeId) -> S,
    ) -> LocalNode<S> {
        let storage = factory(id);
        let server =
            Server::start(storage.clone(), ServerConfig { server_id: id, ..cfg.server.clone() });
        LocalNode { id, storage, server }
    }

    pub fn ring(&self) -> Arc<RwLock<Ring>> {
        Arc::clone(&self.ring)
    }

    pub fn node(&self, id: NodeId) -> Option<Arc<LocalNode<S>>> {
        self.nodes.lock().unwrap().get(&id).cloned()
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.lock().unwrap().keys().copied().collect()
    }

    pub fn live_nodes(&self) -> Vec<NodeId> {
        let dead = self.dead.lock().unwrap();
        self.nodes.lock().unwrap().keys().filter(|id| !dead.contains(id)).copied().collect()
    }

    pub fn containers(&self) -> Vec<String> {
        self.holders.lock().unwrap().keys().cloned().collect()
    }

    /// container → current holder set (the *materialized* directory).
    pub fn directory(&self) -> Vec<(String, Vec<NodeId>)> {
        self.holders
            .lock()
            .unwrap()
            .iter()
            .map(|(c, nodes)| (c.clone(), nodes.iter().copied().collect()))
            .collect()
    }

    /// Copy each container from `src` onto every node in its ring
    /// replica set, register it in the directory, and refresh the nodes'
    /// owned-container (cache-eviction preference) lists.
    pub fn provision<SS: Storage>(&self, src: &SS, roots: &[&str]) -> BoraResult<()> {
        let mut ctx = IoCtx::new();
        for root in roots {
            let replicas = self.ring.read().unwrap().replicas(root);
            for id in &replicas {
                let node = self.node(*id).expect("ring node is hosted");
                copy_container(src, root, &node.storage, root, &mut ctx)?;
            }
            self.holders.lock().unwrap().entry((*root).to_owned()).or_default().extend(replicas);
        }
        self.refresh_preferred();
        Ok(())
    }

    /// Push each node's owned-container list into its handle cache, so
    /// eviction prefers dropping containers the node merely borrowed.
    fn refresh_preferred(&self) {
        let holders = self.holders.lock().unwrap();
        for (id, node) in self.nodes.lock().unwrap().iter() {
            let owned: Vec<String> = holders
                .iter()
                .filter(|(_, nodes)| nodes.contains(id))
                .map(|(c, _)| c.clone())
                .collect();
            node.server.set_owned_containers(owned);
        }
    }

    /// A router over every hosted node (dead ones included — the router
    /// discovers death through faults, like a real deployment).
    pub fn client(&self, cfg: ClusterClientConfig) -> ClusterClient<MemTransport<S>> {
        let endpoints: Vec<(NodeId, MemTransport<S>)> = self
            .nodes
            .lock()
            .unwrap()
            .values()
            .map(|n| (n.id, MemTransport::new(Arc::clone(&n.server))))
            .collect();
        ClusterClient::new(Arc::clone(&self.ring), endpoints, cfg)
    }

    /// Kill a node: its serve process stops accepting work, existing
    /// connections see EOF. The ring still lists it (clients fail over
    /// to replicas transparently) until [`LocalCluster::heal`] runs.
    pub fn kill(&self, id: NodeId) {
        if let Some(node) = self.node(id) {
            node.server.shutdown();
        }
        self.dead.lock().unwrap().insert(id);
        bora_obs::counter("cluster.node_killed").inc();
    }

    /// Add a fresh node: extend the ring, then pull every container the
    /// new placement assigns to it from a current holder, throttled to
    /// `migrate_batch` copies per batch (deterministic minimal movement:
    /// only keys whose replica set gained the new node move).
    pub fn join(&self) -> BoraResult<NodeId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let node = {
            let mut factory = self.factory.lock().unwrap();
            Arc::new(Self::spawn_node(&self.cfg, id, &mut *factory))
        };
        self.nodes.lock().unwrap().insert(id, node);

        let before = self.ring.read().unwrap().clone();
        let mut after = before.clone();
        after.add_node(id);
        let keys = self.containers();
        let plan = Ring::reshard(&before, &after, &keys);
        self.execute_moves(&plan.moves)?;
        *self.ring.write().unwrap() = after;
        self.refresh_preferred();
        Ok(id)
    }

    /// Install (or clear, with `None`) the control plane's reachability
    /// view. While a partition is in effect, [`LocalCluster::heal`]
    /// refuses to run from a minority side, only sources copies from
    /// reachable holders, and defers copies onto unreachable targets.
    pub fn set_reachable(&self, view: Option<BTreeSet<NodeId>>) {
        *self.reachable.lock().unwrap() = view;
    }

    /// Drop dead nodes from the ring and re-replicate every container
    /// left under-replicated, sourcing from surviving holders. Also a
    /// convergence pass: copies a previous heal deferred behind a
    /// partition are planned again, so calling `heal()` after the
    /// partition lifts completes them. Returns what was done.
    pub fn heal(&self) -> BoraResult<HealReport> {
        let removed: Vec<NodeId> = self.dead.lock().unwrap().iter().copied().collect();
        // Partition awareness: a control plane that can only see a
        // minority of the live nodes must not reshape the ring — the
        // majority side may be healthy, serving, and running its own
        // heal; acting on minority knowledge would fork the directory
        // (classic split-brain). Quorum is strictly more than half of
        // the live nodes.
        let view = self.reachable.lock().unwrap().clone();
        if let Some(view) = &view {
            let live = self.live_nodes();
            let visible = live.iter().filter(|id| view.contains(id)).count();
            if 2 * visible <= live.len() {
                return Err(bora::BoraError::Corrupt(format!(
                    "heal refused: reachability view covers {visible} of {} live nodes \
                     (no majority — possible minority side of a partition)",
                    live.len()
                )));
            }
        }
        let in_view = |id: &NodeId| view.as_ref().is_none_or(|v| v.contains(id));
        let before = self.ring.read().unwrap().clone();
        let mut after = before.clone();
        for id in &removed {
            after.remove_node(*id);
        }

        // Plan against *holders*, not the old ring: a dead node may have
        // been holding data the ring no longer assigns it, and a heal
        // must only source from live replicas.
        let mut moves = Vec::new();
        let mut deferred = 0usize;
        {
            let mut holders = self.holders.lock().unwrap();
            for (container, holding) in holders.iter_mut() {
                for id in &removed {
                    holding.remove(id);
                }
                if holding.is_empty() {
                    return Err(bora::BoraError::Corrupt(format!(
                        "container {container} lost every replica"
                    )));
                }
                let missing: Vec<NodeId> = after
                    .replicas(container)
                    .into_iter()
                    .filter(|t| !holding.contains(t))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                // Only a *reachable* holder may source a copy: bytes on
                // the far side of a partition cannot be read, and a copy
                // that silently raced the partition could resurrect a
                // stale replica as ground truth.
                let Some(source) = holding.iter().find(|n| in_view(n)).copied() else {
                    deferred += missing.len();
                    continue;
                };
                for target in missing {
                    if !in_view(&target) {
                        deferred += 1;
                        continue;
                    }
                    moves.push(Move { container: container.clone(), from: source, to: target });
                }
            }
        }
        if removed.is_empty() && moves.is_empty() && deferred == 0 {
            return Ok(HealReport::default());
        }
        let batches = moves.len().div_ceil(self.cfg.migrate_batch.max(1));
        self.execute_moves(&moves)?;
        *self.ring.write().unwrap() = after;
        {
            let mut dead = self.dead.lock().unwrap();
            let mut nodes = self.nodes.lock().unwrap();
            for id in &removed {
                dead.remove(id);
                nodes.remove(id);
            }
        }
        self.refresh_preferred();
        bora_obs::counter("cluster.heal.copies").add(moves.len() as u64);
        if deferred > 0 {
            bora_obs::counter("cluster.heal.deferred").add(deferred as u64);
        }
        Ok(HealReport { removed, copies: moves.len(), batches, deferred })
    }

    /// Run a migration plan, `migrate_batch` copies at a time. Copies in
    /// a batch run back-to-back (the throttle bounds fabric pressure,
    /// which in virtual time is already serialized per `IoCtx`).
    fn execute_moves(&self, moves: &[Move]) -> BoraResult<()> {
        for batch in moves.chunks(self.cfg.migrate_batch.max(1)) {
            for m in batch {
                let from = self.node(m.from).expect("move source hosted");
                let to = self.node(m.to).expect("move target hosted");
                let mut ctx = IoCtx::new();
                copy_container(&from.storage, &m.container, &to.storage, &m.container, &mut ctx)?;
                self.holders.lock().unwrap().entry(m.container.clone()).or_default().insert(m.to);
                bora_obs::counter("cluster.migrate.copies").inc();
            }
        }
        Ok(())
    }

    /// Shut every node down.
    pub fn shutdown(&self) {
        for node in self.nodes.lock().unwrap().values() {
            node.server.shutdown();
        }
    }
}

impl<S: Storage + Clone + Send + Sync + 'static> Drop for LocalCluster<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
