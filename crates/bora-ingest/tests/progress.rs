//! A compaction is background work: while one builds its generation,
//! appends, seals and snapshot reads go on, and only another compaction
//! waits.
//!
//! The first test forces the interleaving: storage that parks the
//! compactor inside its build (at its first append under `.staging/`)
//! until the test lets it go. Every step taken meanwhile reports through a
//! channel with a timeout, and a step that does not come back opens the
//! gate before it fails the test — so a store that holds its state lock
//! across the build fails here, it does not hang. The second is a seeded
//! stress run of an appender, a sealer / compactor and a reader that must
//! end equal to the materialised oracle.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use bora::block::{BlockCodec, BlockParams};
use bora::BoraResult;
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::Time;
use simfs::{DirEntry, FsResult, IoCtx, MemStorage, Metadata, Storage};

const ROOT: &str = "/live";
const TOPICS: [&str; 2] = ["/imu", "/cam"];
const STEP_TIMEOUT: Duration = Duration::from_secs(20);

fn cfg() -> IngestConfig {
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 32 });
    IngestConfig { wal_shards: 2, group_commit: 4, window_ns: 1_000, block }
}

/// What a read returns, comparably: `(topic, time, payload)` in merge order.
type Read = Vec<(String, u64, Vec<u8>)>;

fn read_all<S: Storage + Clone>(st: &IngestStore<S>) -> Read {
    let ctx = &mut IoCtx::new();
    let snap = st.snapshot(ctx).unwrap();
    let all = snap.read_time_range(&TOPICS, Time::ZERO, Time::MAX, ctx).unwrap();
    all.into_iter().map(|m| (m.topic, m.time.as_nanos(), m.data)).collect()
}

/// Message `i` of a script whose stamps rise strictly, so that the merge
/// order of any prefix is its append order.
fn message(i: u64) -> (&'static str, Time, Vec<u8>) {
    let topic = TOPICS[(i % 3 == 2) as usize];
    (topic, Time::from_nanos(10 * (i + 1)), vec![i as u8; 5 + (i as usize * 7) % 40])
}

fn as_read(script: impl Iterator<Item = u64>) -> Read {
    script.map(message).map(|(topic, t, data)| (topic.to_owned(), t.as_nanos(), data)).collect()
}

/// `MemStorage` whose next append under `.staging/` — once armed — says it
/// has arrived and then waits to be released.
#[derive(Default)]
struct Gated {
    inner: MemStorage,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Gated {
    /// Arm the gate. The first half hears the compactor park; the second
    /// releases it.
    fn arm(&self) -> (Receiver<()>, Sender<()>) {
        let ((parked_tx, parked_rx), (release_tx, release_rx)) = (channel(), channel());
        *self.gate.lock().unwrap() = Some((parked_tx, release_rx));
        (parked_rx, release_tx)
    }
}

impl Storage for Gated {
    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        if path.contains(".staging/") {
            if let Some((parked, release)) = self.gate.lock().unwrap().take() {
                parked.send(()).unwrap();
                // A dropped sender releases too: a failing test must not
                // leave this thread behind.
                let _ = release.recv();
            }
        }
        self.inner.append(path, data, ctx)
    }
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.create(path, ctx)
    }
    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.write_at(path, offset, data, ctx)
    }
    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
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
fn appends_seals_and_reads_proceed_while_a_compaction_builds() {
    let fs = Gated::default();
    let ctx = &mut IoCtx::new();
    let st = IngestStore::create(&fs, ROOT, cfg(), ctx).unwrap();
    let append = |range: std::ops::Range<u64>| {
        for (topic, time, data) in range.map(message) {
            st.append(topic, time, &data, &mut IoCtx::new()).unwrap();
        }
    };
    // Generation 1, so that the gated compaction has frames to adopt,
    // and one sealed batch for it to merge.
    append(0..40);
    st.seal(ctx).unwrap();
    assert_eq!(st.compact(ctx).unwrap(), 1);
    append(40..60);
    assert_eq!(st.seal(ctx).unwrap(), Some(2));

    std::thread::scope(|scope| {
        // Run `f` beside the parked compaction. If it does not come back,
        // open the gate first: the test must fail, not hang in the scope.
        fn step<'s, T: Send + 's>(
            scope: &'s std::thread::Scope<'s, '_>,
            release: &Sender<()>,
            what: &str,
            f: impl FnOnce() -> T + Send + 's,
        ) -> T {
            let (tx, rx) = channel();
            scope.spawn(move || tx.send(f()));
            rx.recv_timeout(STEP_TIMEOUT).unwrap_or_else(|_| {
                let _ = release.send(());
                panic!("{what} did not return while a compaction was building")
            })
        }
        let compact = || st.compact(&mut IoCtx::new());

        let (parked, release) = fs.arm();
        let (done_tx, done) = channel::<BoraResult<u64>>();
        scope.spawn(move || done_tx.send(compact()));
        parked.recv_timeout(STEP_TIMEOUT).expect("the compaction reaches its staged files");

        let pinned =
            step(scope, &release, "a snapshot", || st.snapshot(&mut IoCtx::new()).unwrap());
        step(scope, &release, "an append", || append(60..70));
        assert_eq!(step(scope, &release, "a read", || read_all(&st)), as_read(0..70));
        assert_eq!(
            step(scope, &release, "a seal", || st.seal(&mut IoCtx::new()).unwrap()),
            Some(3)
        );
        step(scope, &release, "an append", || append(70..75));
        assert_eq!(step(scope, &release, "a read", || read_all(&st)), as_read(0..75));
        assert!(done.try_recv().is_err(), "the compaction is still parked");
        let s = st.stat();
        assert_eq!((s.generation, s.sealed_batches, s.active_messages), (1, 2, 5));

        release.send(()).unwrap();
        assert_eq!(done.recv_timeout(STEP_TIMEOUT).unwrap().unwrap(), 2);
        // Generation 2 took the batch it had pinned; the one sealed
        // meanwhile and the memtable are as they were.
        let s = st.stat();
        assert_eq!((s.generation, s.sealed_batches, s.active_messages), (2, 1, 5));
        assert_eq!(read_all(&st), as_read(0..75));
        // A snapshot from before the swap still reads its own epoch, from
        // the generation it pins.
        let old = pinned.read_time_range(&TOPICS, Time::ZERO, Time::MAX, &mut IoCtx::new());
        assert_eq!(old.unwrap().len(), 60);
        drop(pinned);

        // A second compactor waits for the first — on the compaction
        // mutex, not holding the state lock while it does.
        let (parked, release) = fs.arm();
        let (first_tx, first) = channel::<BoraResult<u64>>();
        scope.spawn(move || first_tx.send(compact()));
        parked.recv_timeout(STEP_TIMEOUT).expect("the compaction reaches its staged files");
        let (second_tx, second) = channel::<BoraResult<u64>>();
        scope.spawn(move || second_tx.send(compact()));
        step(scope, &release, "an append beside a waiting compactor", || append(75..80));
        assert_eq!(step(scope, &release, "a read", || read_all(&st)), as_read(0..80));
        assert!(first.try_recv().is_err() && second.try_recv().is_err());
        release.send(()).unwrap();
        assert_eq!(first.recv_timeout(STEP_TIMEOUT).unwrap().unwrap(), 3);
        // Nothing was sealed meanwhile: the second finds nothing to do.
        assert_eq!(second.recv_timeout(STEP_TIMEOUT).unwrap().unwrap(), 3);
    });
    let s = st.stat();
    assert_eq!((s.generation, s.sealed_batches, s.active_messages), (3, 0, 10));
    assert_eq!(read_all(&st), as_read(0..80));

    st.flush_wal(ctx).unwrap();
    drop(st);
    let st = IngestStore::open(&fs, ROOT, ctx).unwrap();
    assert_eq!(st.stat().generation, 3);
    assert_eq!(read_all(&st), as_read(0..80));
}

#[test]
fn concurrent_appender_compactor_and_reader_end_equal_to_the_oracle() {
    const MESSAGES: u64 = 600;
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    let st = IngestStore::create(&fs, ROOT, cfg(), ctx).unwrap();
    let appended = std::sync::atomic::AtomicU64::new(0);
    let done = |at: &std::sync::atomic::AtomicU64| at.load(std::sync::atomic::Ordering::SeqCst);

    let (seals, reads) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let ctx = &mut IoCtx::new();
            for i in 0..MESSAGES {
                let (topic, time, data) = message(i);
                st.append(topic, time, &data, ctx).unwrap();
                appended.store(i + 1, std::sync::atomic::Ordering::SeqCst);
                // A seeded stutter, so that the other two get turns at
                // different points from one run of the loop to the next.
                if i.wrapping_mul(0x9E37_79B9).is_multiple_of(7) {
                    std::thread::yield_now();
                }
            }
        });
        let compactor = scope.spawn(|| {
            let ctx = &mut IoCtx::new();
            let mut seals = 0u64;
            while done(&appended) < MESSAGES {
                if st.seal(ctx).unwrap().is_some() {
                    seals += 1;
                    if seals.is_multiple_of(2) {
                        st.compact(ctx).unwrap();
                    }
                }
                std::thread::yield_now();
            }
            seals
        });
        let reader = scope.spawn(|| {
            let (mut reads, mut longest) = (0u64, 0usize);
            while done(&appended) < MESSAGES {
                // Whatever the writers are in the middle of, a snapshot is
                // a prefix of the script, and never a shorter one than the
                // snapshot before it.
                let floor = done(&appended) as usize;
                let got = read_all(&st);
                assert!(got.len() >= floor.max(longest), "{} < {floor} or {longest}", got.len());
                assert_eq!(got, as_read(0..got.len() as u64));
                longest = got.len();
                reads += 1;
            }
            reads
        });
        appender.join().unwrap();
        (compactor.join().unwrap(), reader.join().unwrap())
    });
    assert!(seals > 0 && reads > 0, "{seals} seals, {reads} reads");

    assert_eq!(read_all(&st), as_read(0..MESSAGES));
    st.seal(ctx).unwrap();
    st.compact(ctx).unwrap();
    assert_eq!(read_all(&st), as_read(0..MESSAGES));
    let generation = st.stat().generation;
    drop(st);
    let st = IngestStore::open(&fs, ROOT, ctx).unwrap();
    assert_eq!((st.stat().generation, st.stat().sealed_batches), (generation, 0));
    assert_eq!(read_all(&st), as_read(0..MESSAGES));
    let root = format!("{ROOT}/gen/C{generation:08}");
    assert!(bora::fsck::check(&fs, &root, ctx).unwrap().is_clean());
}
