//! Capacity-bounded LRU cache of open container handles.
//!
//! Opening a BORA container is cheap by design (Fig. 4b: one directory
//! listing plus a small metadata read) but not free — on a cost-model
//! backend it is several storage round trips. A serving process answers
//! many queries against few containers, so the cache keeps handles open
//! and amortizes that cost to zero for hot containers.
//!
//! A handle, not a lease, is what the cache hands out: `BoraBag` is
//! `Arc`-backed and closes nothing when it drops, so a worker's clone
//! keeps its container readable after the cache has evicted or
//! invalidated the entry. Capacity is therefore a hard bound on the
//! entries held, and eviction is plain LRU.
//!
//! The cache counts into a [`Registry`] — the server's own, so its hits,
//! misses, evictions, length and capacity are in every `METRICS` scrape
//! (and so in `STATS`) under the `serve.cache_*` names of
//! [`crate::metrics`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bora::{BoraBag, BoraResult, BufferPool};
use bora_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use simfs::{IoCtx, Storage};

use crate::metrics::{CACHE_CAPACITY, CACHE_EVICTIONS, CACHE_HITS, CACHE_LEN, CACHE_MISSES};

struct Entry<S> {
    bag: BoraBag<S>,
    /// Last-touch tick; the smallest value is the eviction victim.
    touched: u64,
}

struct Inner<S> {
    entries: HashMap<String, Entry<S>>,
    /// Containers this server *owns* under a cluster placement (empty for
    /// a standalone server). Eviction takes non-preferred (replica-read)
    /// entries first, so failover and hedge traffic against replicas
    /// cannot churn the owner's working set out of its own cache.
    preferred: HashSet<String>,
    tick: u64,
}

/// Thread-safe LRU of `BoraBag` handles, keyed by container root.
pub struct HandleCache<S> {
    inner: Mutex<Inner<S>>,
    capacity: usize,
    /// Shared page cache attached to every handle this cache opens: all
    /// workers' data reads draw on ONE byte budget (`BORA_POOL_BYTES`)
    /// instead of per-handle buffers.
    pool: Option<Arc<BufferPool>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Entries held, set whenever an entry comes or goes.
    len: Gauge,
}

/// A cached handle: a clone of the bag (cheap, `Arc`-backed tag table and
/// metadata) that stays readable for as long as it is held.
pub struct PinnedBag<S> {
    bag: BoraBag<S>,
    /// Whether the handle was already cached (metrics want to distinguish
    /// amortized hits from cold opens).
    pub was_hit: bool,
}

impl<S> PinnedBag<S> {
    pub fn bag(&self) -> &BoraBag<S> {
        &self.bag
    }
}

impl<S: Storage + Clone> HandleCache<S> {
    /// A cache that counts into a registry of its own.
    pub fn new(capacity: usize) -> Self {
        Self::in_registry(capacity, &Registry::new())
    }

    /// A cache that counts into `registry`.
    pub fn in_registry(capacity: usize, registry: &Registry) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        registry.gauge(CACHE_CAPACITY).set(capacity as i64);
        HandleCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                preferred: HashSet::new(),
                tick: 0,
            }),
            capacity,
            pool: None,
            hits: registry.counter(CACHE_HITS),
            misses: registry.counter(CACHE_MISSES),
            evictions: registry.counter(CACHE_EVICTIONS),
            len: registry.gauge(CACHE_LEN),
        }
    }

    /// Attach a shared buffer pool; handles opened from now on route
    /// their data reads through it.
    pub fn with_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Fetch `root` from the cache, opening it on miss. `ctx` is charged
    /// only on miss (a hit performs no storage I/O — that is the whole
    /// point).
    pub fn get_or_open(
        &self,
        storage: &S,
        root: &str,
        ctx: &mut IoCtx,
    ) -> BoraResult<PinnedBag<S>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.entries.get_mut(root) {
                e.touched = tick;
                self.hits.inc();
                return Ok(PinnedBag { bag: e.bag.clone(), was_hit: true });
            }
            self.misses.inc();
        }
        // Open outside the lock: a cold open is the slow path, and other
        // workers must keep hitting the cache while it runs. Two racing
        // misses for the same root both open; the first insert stays, and
        // the later opener's bag is dropped here in favour of it — wasted
        // work, never a wrong answer.
        let mut bag = BoraBag::open(storage.clone(), root, ctx)?;
        if let Some(pool) = &self.pool {
            bag = bag.with_pool(Arc::clone(pool));
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let touched = inner.tick;
        let entry = inner.entries.entry(root.to_owned()).or_insert(Entry { bag, touched });
        entry.touched = touched;
        let bag = entry.bag.clone();
        self.evict_excess(&mut inner);
        self.len.set(inner.entries.len() as i64);
        Ok(PinnedBag { bag, was_hit: false })
    }

    /// Drop a container from the cache (e.g. after a backend fault made
    /// its handle suspect). Workers holding a clone keep reading it;
    /// future requests re-open. Also drops the container's pages from the
    /// shared pool — a suspect handle's cached bytes are equally suspect.
    pub fn invalidate(&self, root: &str) -> bool {
        if let Some(pool) = &self.pool {
            pool.invalidate_prefix(root);
        }
        let mut inner = self.inner.lock();
        let removed = inner.entries.remove(root).is_some();
        self.len.set(inner.entries.len() as i64);
        removed
    }

    /// Replace the preferred (owned) container set. Preferred entries are
    /// evicted only once every non-preferred entry is gone.
    pub fn set_preferred<I: IntoIterator<Item = String>>(&self, roots: I) {
        self.inner.lock().preferred = roots.into_iter().collect();
    }

    /// Evict least-recently-touched entries down to capacity, taking
    /// non-preferred (replica) entries before preferred (owned) ones
    /// regardless of recency.
    fn evict_excess(&self, inner: &mut Inner<S>) {
        let Inner { entries, preferred, .. } = inner;
        while entries.len() > self.capacity {
            let victim = entries.iter().min_by_key(|(k, e)| (preferred.contains(*k), e.touched));
            let Some(victim) = victim.map(|(k, _)| k.clone()) else { break };
            entries.remove(&victim);
            self.evictions.inc();
            if !preferred.is_empty() && !preferred.contains(&victim) {
                bora_obs::counter("serve.evict_replica").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::MemStorage;
    use std::sync::Arc;

    /// Hits, misses, evictions and length, as `registry` holds them.
    fn counts(registry: &Registry) -> (u64, u64, u64, i64) {
        let count = |name| registry.counter(name).get();
        (
            count(CACHE_HITS),
            count(CACHE_MISSES),
            count(CACHE_EVICTIONS),
            registry.gauge(CACHE_LEN).get(),
        )
    }

    fn make_containers(n: usize) -> Arc<MemStorage> {
        use ros_msgs::{sensor_msgs::Imu, Time};
        use rosbag::{BagWriter, BagWriterOptions};
        let fs = Arc::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        let mut w =
            BagWriter::create(&*fs, "/src.bag", BagWriterOptions::default(), &mut ctx).unwrap();
        for i in 0..20u32 {
            let mut imu = Imu::default();
            imu.header.stamp = Time::new(i, 0);
            w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        for i in 0..n {
            bora::organizer::duplicate(
                &*fs,
                "/src.bag",
                &*fs,
                &format!("/c/bag{i}"),
                &bora::OrganizerOptions::default(),
                &mut ctx,
            )
            .unwrap();
        }
        fs
    }

    #[test]
    fn hit_miss_eviction_accounting() {
        let fs = make_containers(3);
        let registry = Registry::new();
        let cache: HandleCache<Arc<MemStorage>> = HandleCache::in_registry(2, &registry);
        let mut ctx = IoCtx::new();

        assert!(!cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap().was_hit);
        assert!(cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap().was_hit);
        assert!(!cache.get_or_open(&fs, "/c/bag1", &mut ctx).unwrap().was_hit);
        // Third distinct container evicts the LRU (bag0: touched earlier).
        assert!(!cache.get_or_open(&fs, "/c/bag2", &mut ctx).unwrap().was_hit);
        assert_eq!(counts(&registry), (1, 3, 1, 2));
        assert_eq!(registry.gauge(CACHE_CAPACITY).get(), 2);
        // bag0 was evicted → miss again.
        assert!(!cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap().was_hit);
    }

    #[test]
    fn a_held_handle_outlives_its_eviction() {
        let fs = make_containers(2);
        let registry = Registry::new();
        let cache: HandleCache<Arc<MemStorage>> = HandleCache::in_registry(1, &registry);
        let mut ctx = IoCtx::new();

        let bag0 = cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap();
        // Capacity 1 is a hard bound: bag1 evicts bag0 although bag0 is
        // still held, and the held clone keeps reading its container.
        let _bag1 = cache.get_or_open(&fs, "/c/bag1", &mut ctx).unwrap();
        assert_eq!(counts(&registry), (0, 2, 1, 1));
        assert_eq!(bag0.bag().topics(), vec!["/imu"]);
    }

    #[test]
    fn preferred_entries_outlive_replica_entries() {
        let fs = make_containers(4);
        let registry = Registry::new();
        let cache: HandleCache<Arc<MemStorage>> = HandleCache::in_registry(2, &registry);
        cache.set_preferred(["/c/bag0".to_owned()]);
        let mut ctx = IoCtx::new();

        // bag0 (owned) is the LRU, bag1 (replica) recently touched; the
        // next admission must still evict bag1, not the owned handle.
        cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap();
        cache.get_or_open(&fs, "/c/bag1", &mut ctx).unwrap();
        cache.get_or_open(&fs, "/c/bag2", &mut ctx).unwrap();
        assert!(
            cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap().was_hit,
            "owned entry must survive replica churn"
        );
        assert!(!cache.get_or_open(&fs, "/c/bag1", &mut ctx).unwrap().was_hit);

        // With only owned entries left they evict among themselves: the
        // preferred set degrades to plain LRU rather than keeping them forever.
        cache.set_preferred(["/c/bag2".to_owned(), "/c/bag3".to_owned()]);
        cache.get_or_open(&fs, "/c/bag2", &mut ctx).unwrap();
        cache.get_or_open(&fs, "/c/bag3", &mut ctx).unwrap();
        assert_eq!(counts(&registry).3, 2);
    }

    #[test]
    fn invalidate_forces_reopen() {
        let fs = make_containers(1);
        let registry = Registry::new();
        let cache: HandleCache<Arc<MemStorage>> = HandleCache::in_registry(2, &registry);
        let mut ctx = IoCtx::new();
        let held = cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap();
        assert!(cache.invalidate("/c/bag0"));
        assert_eq!(counts(&registry).3, 0, "the length follows an invalidation");
        assert!(!cache.invalidate("/c/bag0"), "second invalidate is a no-op");
        // The held clone still works after invalidation.
        assert_eq!(held.bag().topics(), vec!["/imu"]);
        drop(held);
        assert!(!cache.get_or_open(&fs, "/c/bag0", &mut ctx).unwrap().was_hit);
    }
}
