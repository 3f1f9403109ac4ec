//! Global byte-budgeted buffer pool.
//!
//! One [`BufferPool`] serves every serve worker, stream cursor, and
//! snapshot read of a process: pages are keyed by `(file, page
//! number)`, a file being its path interned once per open topic
//! ([`file_id`], held by `TopicPaths`); the byte budget is a single
//! knob (`BORA_POOL_BYTES`), and eviction is a per-shard clock sweep
//! (the postgrust-sql `buffer_pool.rs` design the ROADMAP names). A
//! page is one *decoded* block of a block-framed topic
//! ([`crate::block`]) — decompression lands directly in the page that
//! later hits serve. A v1 `data` file never enters the pool: its reads
//! go to storage.
//!
//! Concurrency model:
//!
//! * The key map, frame table, clock hand, and resident-byte count live
//!   behind one mutex per **shard** (keys hash to shards), so unrelated
//!   files don't serialize on one lock.
//! * A lookup hands out the page itself, an `Arc<[u8]>`, and sets its
//!   clock reference bit; a hit takes the shard lock once. Nothing is
//!   leased: the sweep may evict a page a reader still holds, and the
//!   reader's `Arc` keeps the bytes valid until it drops them —
//!   use-after-evict is unrepresentable. The budget bounds what the pool
//!   keeps, never what readers hold.
//! * A fill (the miss path) runs **outside** the shard lock; if a racing
//!   thread landed the same page first, its copy wins and ours is
//!   dropped (both threads still count one miss each — they both did
//!   the I/O).
//! * The one bypass is a page larger than its shard's share of the
//!   budget: it is served uncached and counted, so the budget stays a
//!   hard ceiling.
//!
//! Metrics flow through `bora_obs` (`pool.hit`, `pool.miss`,
//! `pool.evict`, `pool.bypass`, `pool.resident_bytes`,
//! `pool.budget_bytes`), which the serve layer's OP_METRICS scrape
//! already ships to `bora-tool top`.

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
    /// Clock-sweep reference bit: set on hit, cleared by the hand.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, usize>,
    /// `None` is a free slot, listed in `free`.
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    hand: usize,
    resident_bytes: u64,
}

impl Shard {
    /// The page under `key`, marked referenced, if resident.
    fn hit(&mut self, key: &Key) -> Option<Arc<[u8]>> {
        let f = self.frames[*self.map.get(key)?].as_mut()?;
        f.referenced = true;
        Some(Arc::clone(&f.data))
    }

    /// Make `data` resident under `key`, in the last slot freed if any.
    fn insert(&mut self, key: Key, data: Arc<[u8]>) {
        self.resident_bytes += data.len() as u64;
        let frame = Some(Frame { key, data, referenced: true });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.frames[slot] = frame;
                slot
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.map.insert(key, slot);
    }

    /// Free `slot`'s page and return its length; a reader that still
    /// holds the bytes keeps them.
    fn remove(&mut self, slot: usize) -> u64 {
        let f = self.frames[slot].take().expect("a mapped slot holds a frame");
        self.map.remove(&f.key);
        self.free.push(slot);
        let freed = f.data.len() as u64;
        self.resident_bytes -= freed;
        freed
    }
}

/// Aggregate pool counters (exact — backed by the pool's own atomics,
/// not the global metrics registry, so tests can assert equality).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Fills served uncached: the page was larger than a shard's share
    /// of the budget, so caching it would overrun the budget.
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
        bora_obs::gauge("pool.budget_bytes").set(budget_bytes as i64);
        Arc::new(BufferPool {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            budget: budget_bytes.max(1),
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

    fn shard_of(&self, key: &Key) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Look up page `page_no` of `file`, running `fill` on miss. Returns
    /// the page and whether it was a hit. The fill executes without any
    /// pool lock held.
    pub fn get_or_fill<F>(&self, file: &str, page_no: u64, fill: F) -> BoraResult<(Arc<[u8]>, bool)>
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
        &self,
        file: FileId,
        page_no: u64,
        fill: F,
    ) -> BoraResult<(Arc<[u8]>, bool)>
    where
        F: FnOnce() -> BoraResult<Arc<[u8]>>,
    {
        let key: Key = (file, page_no);
        let shard = &self.shards[self.shard_of(&key)];
        if let Some(page) = shard.lock().hit(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.hit.inc();
            return Ok((page, true));
        }
        // Miss: do the I/O (and any decode) unlocked, then insert.
        let bytes = fill()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.miss.inc();
        let per_shard = self.budget / self.shards.len() as u64;
        let need = bytes.len() as u64;
        if need > per_shard {
            // Oversized page (budget shrunk below the page size): caching
            // it would overrun the budget no matter what gets evicted, so
            // serve it uncached — the budget stays a hard ceiling.
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            self.obs.bypass.inc();
            return Ok((bytes, false));
        }
        let mut shard = shard.lock();
        // A racing fill that landed first wins; ours is dropped.
        if let Some(page) = shard.hit(&key) {
            return Ok((page, false));
        }
        self.make_room(&mut shard, per_shard - need);
        shard.insert(key, Arc::clone(&bytes));
        self.obs.resident_bytes.add(need as i64);
        Ok((bytes, false))
    }

    /// Clock-sweep shard frames until `resident_bytes <= target`; a
    /// referenced frame gets its second chance. Every resident page can
    /// be evicted, so two laps always reach the target.
    fn make_room(&self, shard: &mut Shard, target: u64) {
        while shard.resident_bytes > target {
            let i = shard.hand;
            shard.hand = (i + 1) % shard.frames.len();
            let Some(f) = &mut shard.frames[i] else { continue };
            if std::mem::take(&mut f.referenced) {
                continue;
            }
            let freed = shard.remove(i);
            self.evicted(freed);
        }
    }

    fn evicted(&self, freed: u64) {
        self.obs.resident_bytes.add(-(freed as i64));
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.obs.evict.inc();
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
            let victims: Vec<usize> =
                shard.map.iter().filter(|(k, _)| ids.contains(&k.0)).map(|(_, &s)| s).collect();
            for slot in victims {
                let freed = shard.remove(slot);
                self.evicted(freed);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_page(tag: u8, len: usize) -> BoraResult<Vec<u8>> {
        Ok(vec![tag; len])
    }

    #[test]
    fn hit_miss_and_budget_eviction() {
        let pool = BufferPool::new(4 * 1024);
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
    fn evicted_bytes_stay_valid() {
        let pool = BufferPool::new(8 * 64);
        let (bytes, _) = pool.get_or_fill("/x", 0, || fill_page(5, 60)).unwrap();
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
        // use-after-evict / no torn page), a held page keeps its bytes
        // after the pool lets it go, and hits + misses == lookups
        // exactly.
        let pool = BufferPool::new(8 * 512);
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
                        let held = Arc::clone(&page);
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
    fn a_page_over_its_shard_budget_is_served_uncached() {
        // 128 bytes per shard: a 200-byte page cannot be cached without
        // overrunning the budget, so it is served, counted, and not kept.
        let pool = BufferPool::new(8 * 128);
        for _ in 0..2 {
            let (page, hit) = pool.get_or_fill("/big", 0, || fill_page(7, 200)).unwrap();
            assert!(!hit, "an uncached page misses again");
            assert_eq!((page.len(), page[199]), (200, 7));
        }
        let s = pool.stats();
        assert_eq!((s.misses, s.bypasses, s.evictions, s.resident_bytes), (2, 2, 0, 0));
    }

    #[test]
    fn held_pages_never_bypass() {
        // 128 bytes per shard and 64 pages of 100 bytes, every one still
        // held: a page a reader holds can be evicted, so each fill finds
        // room and the held bytes stay what they were.
        let pool = BufferPool::new(8 * 128);
        let mut held = Vec::new();
        for i in 0..64u64 {
            let (page, _) = pool.get_or_fill("/held", i, || fill_page(i as u8, 100)).unwrap();
            held.push(page);
        }
        let s = pool.stats();
        assert_eq!(s.bypasses, 0, "{s:?}");
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.resident_bytes <= pool.budget_bytes(), "{s:?}");
        for (i, page) in held.iter().enumerate() {
            assert!(page.len() == 100 && page.iter().all(|&b| b == i as u8), "page {i}");
        }
    }
}
