//! Global byte-budgeted buffer pool.
//!
//! One [`BufferPool`] serves every serve worker, stream cursor, and
//! snapshot read of a process: pages are keyed by `(file, page
//! number)`, a file being its path interned once per open topic
//! ([`file_id`], held by `TopicPaths`); the byte budget is a single
//! knob (`BORA_POOL_BYTES`), and eviction is a per-shard clock sweep
//! (the postgrust-sql `buffer_pool.rs` design the ROADMAP names). A
//! page holds one buffer-pool-sized slice of a raw `data` file, or one
//! *decoded* block of a block-framed topic ([`crate::block`]) —
//! decompression lands directly in the frame that later hits serve it.
//!
//! Concurrency model:
//!
//! * The key map, frame table, clock hand, and resident-byte count live
//!   behind one mutex per **shard** (keys hash to shards), so unrelated
//!   files don't serialize on one lock.
//! * A hit pins the frame (pin count) and returns a [`PageRef`]; the
//!   clock sweep never evicts a pinned frame, and each frame carries an
//!   **epoch** bumped on eviction so a late unpin of a recycled slot is
//!   a no-op instead of corrupting the successor's pin count.
//! * Page bytes are `Arc<[u8]>`: even a page evicted the instant after
//!   its `PageRef` unpins stays valid for whoever still holds the bytes
//!   — use-after-evict is unrepresentable.
//! * A fill (the miss path) runs **outside** the shard lock; if a racing
//!   thread landed the same page first, its copy wins and ours is
//!   dropped (both threads still count one miss each — they both did
//!   the I/O).
//!
//! Metrics flow through `bora_obs` (`pool.hit`, `pool.miss`,
//! `pool.evict`, `pool.resident_bytes`, `pool.budget_bytes`), which the
//! serve layer's OP_METRICS scrape already ships to `bora-tool top`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use parking_lot::{Mutex, RwLock};

use crate::error::BoraResult;

/// Environment variable naming the pool budget in bytes.
pub const POOL_BYTES_ENV: &str = "BORA_POOL_BYTES";
/// Default budget when `BORA_POOL_BYTES` is unset: 64 MiB.
pub const DEFAULT_POOL_BYTES: u64 = 64 * 1024 * 1024;
const SHARDS: usize = 8;

/// A file as the pool keys it: its path, interned by [`file_id`].
pub type FileId = u32;

/// A page's key: its file and its page number.
type Key = (FileId, u64);

/// Every path interned so far, both ways. Entries are never removed —
/// an id stays valid for as long as anything holds it — so the table
/// grows by one path per distinct data file a process opens.
#[derive(Default)]
struct Files {
    ids: HashMap<Arc<str>, FileId>,
    names: Vec<Arc<str>>,
}

static FILES: LazyLock<RwLock<Files>> = LazyLock::new(Default::default);

/// The pool's id of the file at `path`: the same for every caller that
/// names the same path. A topic interns its data file once, when it is
/// opened; a page lookup then hashes two integers and allocates nothing.
pub fn file_id(path: &str) -> FileId {
    if let Some(&id) = FILES.read().ids.get(path) {
        return id;
    }
    let mut files = FILES.write();
    if let Some(&id) = files.ids.get(path) {
        return id;
    }
    let id = FileId::try_from(files.names.len()).expect("fewer than 2^32 interned files");
    let name: Arc<str> = Arc::from(path);
    files.names.push(Arc::clone(&name));
    files.ids.insert(name, id);
    id
}

#[derive(Debug)]
struct Frame {
    key: Key,
    data: Arc<[u8]>,
    pins: u32,
    /// Clock-sweep reference bit: set on hit, cleared by the hand.
    referenced: bool,
    /// Bumped when the slot is evicted; a stale `PageRef` unpin compares
    /// epochs and walks away.
    epoch: u64,
    live: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, usize>,
    frames: Vec<Frame>,
    free: Vec<usize>,
    hand: usize,
    resident_bytes: u64,
}

/// Aggregate pool counters (exact — backed by the pool's own atomics,
/// not the global metrics registry, so tests can assert equality).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Fills that could not be cached (every candidate frame pinned).
    pub bypasses: u64,
    pub resident_bytes: u64,
    pub budget_bytes: u64,
}

impl PoolStats {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shared, byte-budgeted page cache. Construct once per process (or
/// per test) and attach to handles via [`crate::BoraBag::with_pool`].
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    budget: u64,
    page_size: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    /// The process-wide metrics, resolved once: a lookup by name is a
    /// global lock, a `String` and a hash, and a hit is a map lookup.
    obs: PoolMetrics,
}

struct PoolMetrics {
    hit: bora_obs::Counter,
    miss: bora_obs::Counter,
    evict: bora_obs::Counter,
    bypass: bora_obs::Counter,
    resident_bytes: bora_obs::Gauge,
}

impl BufferPool {
    pub fn new(budget_bytes: u64) -> Arc<Self> {
        Self::with_page_size(budget_bytes, crate::block::DEFAULT_BLOCK_SIZE as usize)
    }

    /// `page_size` is the slice width for *raw* (non-block-framed) data
    /// files; block-framed topics always page at their own block size.
    pub fn with_page_size(budget_bytes: u64, page_size: usize) -> Arc<Self> {
        bora_obs::gauge("pool.budget_bytes").set(budget_bytes as i64);
        Arc::new(BufferPool {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            budget: budget_bytes.max(1),
            page_size: page_size.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            obs: PoolMetrics {
                hit: bora_obs::counter("pool.hit"),
                miss: bora_obs::counter("pool.miss"),
                evict: bora_obs::counter("pool.evict"),
                bypass: bora_obs::counter("pool.bypass"),
                resident_bytes: bora_obs::gauge("pool.resident_bytes"),
            },
        })
    }

    /// Budget from `BORA_POOL_BYTES` (bytes; falls back to 64 MiB on
    /// unset or unparsable) — the serve layer's one memory knob.
    pub fn from_env() -> Arc<Self> {
        let budget = std::env::var(POOL_BYTES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_POOL_BYTES);
        Self::new(budget)
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    fn shard_of(&self, key: &Key) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Look up page `page_no` of `file`, running `fill` on miss. Returns
    /// the pinned page and whether it was a hit. The fill executes
    /// without any pool lock held.
    pub fn get_or_fill<F>(
        self: &Arc<Self>,
        file: &str,
        page_no: u64,
        fill: F,
    ) -> BoraResult<(PageRef, bool)>
    where
        F: FnOnce() -> BoraResult<Vec<u8>>,
    {
        self.get_or_fill_file(file_id(file), page_no, || fill().map(Arc::from))
    }

    /// [`BufferPool::get_or_fill`] for a file already interned
    /// ([`file_id`]): what an open topic calls. `fill` hands over the
    /// page itself, so a fill that builds it from borrowed bytes copies
    /// them once.
    pub fn get_or_fill_file<F>(
        self: &Arc<Self>,
        file: FileId,
        page_no: u64,
        fill: F,
    ) -> BoraResult<(PageRef, bool)>
    where
        F: FnOnce() -> BoraResult<Arc<[u8]>>,
    {
        let key: Key = (file, page_no);
        let si = self.shard_of(&key);
        {
            let mut shard = self.shards[si].lock();
            if let Some(&slot) = shard.map.get(&key) {
                let f = &mut shard.frames[slot];
                f.pins += 1;
                f.referenced = true;
                let page = PageRef {
                    pool: Arc::clone(self),
                    shard: si,
                    slot,
                    epoch: f.epoch,
                    data: Arc::clone(&f.data),
                };
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.hit.inc();
                return Ok((page, true));
            }
        }
        // Miss: do the I/O (and any decode) unlocked, then insert.
        let bytes = fill()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.miss.inc();
        let mut shard = self.shards[si].lock();
        if let Some(&slot) = shard.map.get(&key) {
            // A racing fill landed first; serve its copy.
            let f = &mut shard.frames[slot];
            f.pins += 1;
            f.referenced = true;
            let page = PageRef {
                pool: Arc::clone(self),
                shard: si,
                slot,
                epoch: f.epoch,
                data: Arc::clone(&f.data),
            };
            return Ok((page, false));
        }
        let per_shard = self.budget / self.shards.len() as u64;
        let need = bytes.len() as u64;
        if need > per_shard {
            // Oversized page (budget shrunk below the page size): caching
            // it would overrun the budget no matter what gets evicted, so
            // serve it uncached — the budget stays a hard ceiling.
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            self.obs.bypass.inc();
            return Ok((
                PageRef {
                    pool: Arc::clone(self),
                    shard: si,
                    slot: usize::MAX,
                    epoch: 0,
                    data: bytes,
                },
                false,
            ));
        }
        if !self.make_room(&mut shard, per_shard.saturating_sub(need)) {
            // Every frame pinned: serve the bytes uncached rather than
            // blow the budget.
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            self.obs.bypass.inc();
            return Ok((
                PageRef {
                    pool: Arc::clone(self),
                    shard: si,
                    slot: usize::MAX,
                    epoch: 0,
                    data: bytes,
                },
                false,
            ));
        }
        shard.resident_bytes += need;
        self.obs.resident_bytes.add(need as i64);
        let slot = match shard.free.pop() {
            Some(s) => {
                let epoch = shard.frames[s].epoch;
                shard.frames[s] = Frame {
                    key,
                    data: Arc::clone(&bytes),
                    pins: 1,
                    referenced: true,
                    epoch,
                    live: true,
                };
                s
            }
            None => {
                shard.frames.push(Frame {
                    key,
                    data: Arc::clone(&bytes),
                    pins: 1,
                    referenced: true,
                    epoch: 0,
                    live: true,
                });
                shard.frames.len() - 1
            }
        };
        let epoch = shard.frames[slot].epoch;
        shard.map.insert(key, slot);
        Ok((PageRef { pool: Arc::clone(self), shard: si, slot, epoch, data: bytes }, false))
    }

    /// Clock-sweep shard frames until `resident_bytes <= target`. Pinned
    /// frames are skipped; a referenced frame gets its second chance.
    /// Returns false when the target is unreachable (all pinned).
    fn make_room(&self, shard: &mut Shard, target: u64) -> bool {
        if shard.frames.is_empty() {
            return true;
        }
        let n = shard.frames.len();
        // Two full laps clear every reference bit; a third proves only
        // pinned frames remain.
        let mut steps = 0usize;
        while shard.resident_bytes > target {
            if steps >= 3 * n {
                return false;
            }
            steps += 1;
            let i = shard.hand % n;
            shard.hand = (shard.hand + 1) % n;
            let f = &mut shard.frames[i];
            if !f.live || f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let freed = f.data.len() as u64;
            f.live = false;
            f.epoch += 1;
            f.data = Arc::from(Vec::new());
            let key = f.key;
            shard.map.remove(&key);
            shard.free.push(i);
            shard.resident_bytes -= freed;
            self.obs.resident_bytes.add(-(freed as i64));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.obs.evict.inc();
        }
        true
    }

    /// Drop every resident page of files under `path_prefix` — the serve
    /// layer calls this when a container is invalidated (healed in
    /// place, re-fetched, or checksum-evicted) so stale pages can't
    /// outlive the handle cache's generation bump.
    pub fn invalidate_prefix(&self, path_prefix: &str) {
        let files = FILES.read();
        let ids = files.names.iter().enumerate().filter(|(_, p)| p.starts_with(path_prefix));
        let ids: HashSet<FileId> = ids.map(|(id, _)| id as FileId).collect();
        drop(files);
        for shard in &self.shards {
            let mut shard = shard.lock();
            let victims: Vec<Key> =
                shard.map.keys().filter(|k| ids.contains(&k.0)).copied().collect();
            for key in victims {
                if let Some(slot) = shard.map.remove(&key) {
                    let f = &mut shard.frames[slot];
                    let freed = f.data.len() as u64;
                    f.live = false;
                    f.epoch += 1;
                    f.data = Arc::from(Vec::new());
                    shard.free.push(slot);
                    shard.resident_bytes -= freed;
                    self.obs.resident_bytes.add(-(freed as i64));
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.obs.evict.inc();
                }
            }
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            resident_bytes: self.shards.iter().map(|s| s.lock().resident_bytes).sum(),
            budget_bytes: self.budget,
        }
    }
}

impl Drop for BufferPool {
    /// Return this pool's still-resident bytes to the process gauge so
    /// short-lived pools (tests, sweeps) don't leave `pool.resident_bytes`
    /// drifting upward forever.
    fn drop(&mut self) {
        let resident: u64 = self.shards.iter().map(|s| s.lock().resident_bytes).sum();
        if resident > 0 {
            self.obs.resident_bytes.add(-(resident as i64));
        }
    }
}

/// A pinned page. Deref to the page bytes; dropping unpins. The bytes
/// are an `Arc` slice, so cloning them out (`PageRef::bytes`) stays valid
/// even after the frame is recycled.
pub struct PageRef {
    pool: Arc<BufferPool>,
    shard: usize,
    /// `usize::MAX` marks an uncached bypass page (nothing to unpin).
    slot: usize,
    epoch: u64,
    data: Arc<[u8]>,
}

impl PageRef {
    /// Shared handle to the page bytes (outlives the pin).
    pub fn bytes(&self) -> Arc<[u8]> {
        Arc::clone(&self.data)
    }
}

impl std::ops::Deref for PageRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        if self.slot == usize::MAX {
            return;
        }
        let mut shard = self.pool.shards[self.shard].lock();
        if let Some(f) = shard.frames.get_mut(self.slot) {
            if f.epoch == self.epoch && f.pins > 0 {
                f.pins -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_page(tag: u8, len: usize) -> BoraResult<Vec<u8>> {
        Ok(vec![tag; len])
    }

    #[test]
    fn hit_miss_and_budget_eviction() {
        let pool = BufferPool::with_page_size(4 * 1024, 1024);
        // 8 shards × 512 B per shard budget at 4 KiB total: one 256 B
        // page per shard fits, a second in the same shard evicts.
        let (p0, hit) = pool.get_or_fill("/a", 0, || fill_page(1, 256)).unwrap();
        assert!(!hit);
        assert_eq!(&p0[..4], &[1, 1, 1, 1]);
        drop(p0);
        let (_p, hit) = pool.get_or_fill("/a", 0, || panic!("must not refill")).unwrap();
        assert!(hit);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.resident_bytes >= 256);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        // One shard's budget is 128 bytes; pin a 100-byte page and pour
        // more keys into the pool — the pinned page must stay mapped.
        let pool = BufferPool::with_page_size(8 * 128, 128);
        let (pinned, _) = pool.get_or_fill("/hot", 0, || fill_page(9, 100)).unwrap();
        for i in 0..64u64 {
            let (_p, _) = pool.get_or_fill("/cold", i, || fill_page(2, 100)).unwrap();
        }
        let (again, hit) = pool.get_or_fill("/hot", 0, || fill_page(0, 100)).unwrap();
        assert!(hit, "pinned page was evicted");
        assert_eq!(&again[..1], &[9]);
        drop(pinned);
    }

    #[test]
    fn evicted_bytes_stay_valid() {
        let pool = BufferPool::with_page_size(8 * 64, 64);
        let (p, _) = pool.get_or_fill("/x", 0, || fill_page(5, 60)).unwrap();
        let bytes = p.bytes();
        drop(p);
        pool.invalidate_prefix("/x");
        assert_eq!(&bytes[..3], &[5, 5, 5], "Arc keeps evicted bytes alive");
        let (_p, hit) = pool.get_or_fill("/x", 0, || fill_page(6, 60)).unwrap();
        assert!(!hit, "invalidated page must refill");
    }

    #[test]
    fn a_path_is_one_file_id_and_one_key() {
        let (a, b) = (file_id("/ids/a/data"), file_id("/ids/b/data"));
        assert_ne!(a, b);
        assert_eq!(file_id("/ids/a/data"), a);
        assert_eq!(crate::layout::TopicPaths::new("/ids", "/a").data_id, a);
        let pool = BufferPool::new(1 << 20);
        pool.get_or_fill("/ids/a/data", 3, || fill_page(1, 10)).unwrap();
        let (page, hit) = pool.get_or_fill_file(a, 3, || fill_page(2, 10).map(Arc::from)).unwrap();
        assert!(hit && page[0] == 1);
        assert!(!pool.get_or_fill_file(b, 3, || fill_page(3, 10).map(Arc::from)).unwrap().1);
    }

    #[test]
    fn invalidate_prefix_scopes_by_path() {
        let pool = BufferPool::new(1 << 20);
        pool.get_or_fill("/c1/t/data", 0, || fill_page(1, 10)).unwrap();
        pool.get_or_fill("/c2/t/data", 0, || fill_page(2, 10)).unwrap();
        pool.invalidate_prefix("/c1");
        let (_p, hit) = pool.get_or_fill("/c2/t/data", 0, || fill_page(0, 10)).unwrap();
        assert!(hit);
        let (_p, hit) = pool.get_or_fill("/c1/t/data", 0, || fill_page(1, 10)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_readers_and_evictor_exact_accounting() {
        // Readers hammer a keyspace larger than the budget while an
        // invalidator sweeps: every read must see its own tag (no
        // use-after-evict / no torn page), pinned pages never vanish
        // mid-pin, and hits + misses == lookups exactly.
        let pool = BufferPool::with_page_size(8 * 512, 128);
        let readers = 4usize;
        let per_reader = 400usize;
        std::thread::scope(|s| {
            for r in 0..readers {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..per_reader {
                        let key = ((r * per_reader + i) % 23) as u64;
                        let tag = (key as u8) + 1;
                        let (page, _hit) =
                            pool.get_or_fill("/t/data", key, || fill_page(tag, 120)).unwrap();
                        assert!(page.iter().all(|&b| b == tag), "torn or stale page");
                        let held = page.bytes();
                        drop(page);
                        assert!(held.iter().all(|&b| b == tag));
                    }
                });
            }
            let pool2 = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..50 {
                    pool2.invalidate_prefix("/t");
                    std::thread::yield_now();
                }
            });
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, (readers * per_reader) as u64, "lookup accounting drifted");
        assert!(s.resident_bytes <= pool.budget_bytes());
    }

    #[test]
    fn all_pinned_bypasses_instead_of_over_budget() {
        let pool = BufferPool::with_page_size(8 * 128, 128);
        // Hold pins on enough pages to exhaust one shard, then keep
        // asking for new keys: the pool must keep serving (bypass) and
        // resident bytes must not exceed the budget.
        let mut pins = Vec::new();
        for i in 0..64u64 {
            let (p, _) = pool.get_or_fill("/p", i, || fill_page(1, 100)).unwrap();
            pins.push(p);
        }
        let s = pool.stats();
        assert!(s.bypasses > 0, "expected pinned shard to bypass");
        assert!(s.resident_bytes <= pool.budget_bytes());
        drop(pins);
    }
}
