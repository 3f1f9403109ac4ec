//! What a stream costs in bytes allocated: a raw chunk's payload is
//! copied once on the client, into the messages it hands out, and a raw
//! block frame once on a pool fill, into the page.
//!
//! A counting global allocator tallies the bytes allocated on the thread
//! that turned it on; the server's threads (acceptor, connection,
//! workers) allocate uncounted. Receiving a raw stream over TCP — read
//! as it arrives or collected by `read` — may
//! allocate each frame's bytes once (the receive buffer), the messages'
//! own bytes, and a constant per message. A client that copies each frame
//! twice more — out of the receive buffer into a `Response`, and out of
//! that into a buffer of logical bytes — allocates about three frames
//! plus the payload, and fails here. A cold scan of a block-framed topic
//! may allocate each stored frame (the storage read) and each page's
//! logical bytes once; a fill that copies them a second time on the way
//! into the pool fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bora::layout::TopicPaths;
use bora::{BlockParams, BoraBag, BufferPool, OrganizerOptions, StreamOptions};
use bora_serve::{
    spawn_tcp_listener, Connection, ServeClient, Server, ServerConfig, TcpConnection, TcpTransport,
    Transport, WireMessage,
};
use ros_msgs::{MessageDescriptor, Time};
use simfs::{IoCtx, MemStorage, Storage};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    /// A grown buffer counts the bytes it grew by.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s value and the bytes allocated on this thread while it ran.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

const ROOT: &str = "/c/noise";
const TOPIC: &str = "/noise";
const MESSAGES: u32 = 4000;
/// 16 KiB messages in the block-framed scan: 4 MiB, 64 pages of 64 KiB.
const PAGE_MESSAGES: u32 = 256;
/// Bytes a message may cost the client beyond its own: its slot in the
/// chunk's `Vec<WireMessage>` and in the caller's.
const PER_MESSAGE: u64 = 256;
/// Bytes a pool page may cost a scan beyond its frame and its own bytes.
const PER_PAGE: u64 = 512;

/// `/noise.bag`: one topic of `messages` noise messages of `size` bytes,
/// which neither a stream chunk nor a block frame can LZ-code.
fn noise_bag(fs: &MemStorage, messages: u32, size: usize, ctx: &mut IoCtx) {
    let options = rosbag::BagWriterOptions::default();
    let mut w = rosbag::BagWriter::create(fs, "/noise.bag", options, ctx).unwrap();
    let desc = MessageDescriptor {
        datatype: "test_msgs/Noise".into(),
        md5sum: "0".repeat(32),
        definition: "uint8[] data\n".into(),
    };
    let conn = w.add_connection(TOPIC, &desc);
    let mut x = 0x2545_f491_u32;
    for i in 0..messages {
        let data: Vec<u8> = (0..size)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        w.write_message(conn, Time::new(1 + i / 100, i % 100 * 10_000_000), &data, ctx).unwrap();
    }
    w.close(ctx).unwrap();
}

/// A container of 1 KiB noise messages: every chunk on the wire is raw.
fn serve() -> Arc<Server<Arc<MemStorage>>> {
    let fs = Arc::new(MemStorage::new());
    let ctx = &mut IoCtx::new();
    noise_bag(&fs, MESSAGES, 1024, ctx);
    bora::duplicate(&*fs, "/noise.bag", &*fs, ROOT, &Default::default(), ctx).unwrap();
    Server::start(fs, ServerConfig::default())
}

/// A client connection that adds up the frames it receives, and the
/// stream chunks among them that are LZ-coded.
struct Tally {
    inner: TcpConnection,
    bytes: Arc<AtomicU64>,
    lz_chunks: Arc<AtomicU64>,
}

impl Connection for Tally {
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.inner.send_frame(parts)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv_frame()?;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        // seq u32 | opcode u8 | frame length u32 | block frame: codec u8 …
        if frame.get(4) == Some(&0x8F) && frame.get(9) != Some(&bora::BlockCodec::None.id()) {
            self.lz_chunks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(frame)
    }
}

#[test]
fn a_raw_stream_costs_the_client_one_copy_of_its_frames() {
    let server = serve();
    let listener = spawn_tcp_listener(Arc::clone(&server), "127.0.0.1:0".parse().unwrap()).unwrap();
    let (bytes, lz_chunks) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let inner = TcpTransport::new(listener.addr()).connect().unwrap();
    let tally = Tally { inner, bytes: Arc::clone(&bytes), lz_chunks: Arc::clone(&lz_chunks) };
    let mut client = ServeClient::new(tally);
    let stream = |c: &mut ServeClient<Tally>| -> Vec<WireMessage> {
        c.read_stream(ROOT, &[TOPIC]).unwrap().collect::<Result<_, _>>().unwrap()
    };
    let read = |c: &mut ServeClient<Tally>| c.read(ROOT, &[TOPIC]).unwrap();
    // The first stream opens the container and fills the pool.
    let first = stream(&mut client);

    // A read is the same stream, collected: the same bound holds.
    for (what, receive) in [("read_stream", &stream as &dyn Fn(&mut _) -> _), ("read", &read)] {
        bytes.store(0, Ordering::Relaxed);
        let (msgs, allocated) = allocated(|| receive(&mut client));
        assert_eq!(msgs, first, "{what}");
        assert_eq!(msgs.len(), MESSAGES as usize);
        assert_eq!(lz_chunks.load(Ordering::Relaxed), 0, "every chunk is raw");
        let frames = bytes.load(Ordering::Relaxed);
        let owned: u64 = msgs.iter().map(|m| (m.data.capacity() + m.topic.capacity()) as u64).sum();
        let budget = frames + owned + PER_MESSAGE * msgs.len() as u64;
        println!(
            "{what}: allocated {allocated} B receiving {frames} B of frames into {owned} B of \
             messages ({:.2} frames + messages; budget {budget} B)",
            allocated.saturating_sub(owned) as f64 / frames as f64
        );
        assert!(
            allocated <= budget,
            "{what}: allocated {allocated} B > {frames} B of frames + {owned} B of messages + \
             {PER_MESSAGE} B per message"
        );
    }
    drop(client);
    server.shutdown();
}

#[test]
fn a_cold_raw_page_costs_one_copy_of_its_bytes() {
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    noise_bag(&fs, PAGE_MESSAGES, 16 << 10, ctx);
    let blocked = OrganizerOptions { block: Some(BlockParams::default()), ..Default::default() };
    bora::duplicate(&fs, "/noise.bag", &fs, ROOT, &blocked, ctx).unwrap();
    let paths = TopicPaths::new(ROOT, TOPIC);
    let (frames, index) = (fs.len(&paths.data, ctx).unwrap(), fs.len(&paths.index, ctx).unwrap());
    let pool = BufferPool::new(64 << 20);
    let bag = BoraBag::open(&fs, ROOT, ctx).unwrap().with_pool(Arc::clone(&pool));
    // On this thread alone: fills run inline on the consumer.
    let opts = StreamOptions { prefetch_threads: 1, ..Default::default() };
    let scan = |ctx: &mut IoCtx| {
        let mut stream = bag.stream_topics(&[TOPIC], opts.clone(), ctx).unwrap();
        let (mut msgs, mut digest) = (0u32, bora::Crc32c::new());
        while let Some(m) = stream.lend(ctx).unwrap() {
            msgs += 1;
            digest.update(m.payload);
        }
        (msgs, digest.finish())
    };
    // The bag reads its block map once; the pool starts cold again.
    let (warm_up, _) = allocated(|| scan(ctx));
    pool.invalidate_prefix(ROOT);
    let before = pool.stats();

    let (cold, cold_bytes) = allocated(|| scan(ctx));
    let filled = pool.stats();
    let (warm, warm_bytes) = allocated(|| scan(ctx));
    assert_eq!((warm_up.0, cold, warm), (PAGE_MESSAGES, warm_up, warm_up));
    let (pages, logical) = (filled.misses - before.misses, filled.resident_bytes);
    assert_eq!(pages, 64);
    assert_eq!(frames, logical + pages * bora::block::FRAME_HEADER_LEN as u64, "all stored raw");
    assert_eq!(filled.evictions + filled.bypasses, before.evictions + before.bypasses);
    assert_eq!(pool.stats().misses, filled.misses, "the rescan is warm");
    // What both scans allocate — the topic's index, read and decoded,
    // and the stream — does not grow with the pages.
    let budget = warm_bytes + frames + logical + PER_PAGE * pages;
    println!(
        "cold scan: {cold_bytes} B for {frames} B of frames into {logical} B of {pages} pages \
         ({:.2} pages beside the frames and the warm scan; budget {budget} B); \
         warm rescan: {warm_bytes} B",
        (cold_bytes - warm_bytes - frames) as f64 / logical as f64
    );
    assert!(
        cold_bytes <= budget,
        "cold scan allocated {cold_bytes} B > the warm scan's {warm_bytes} B + {frames} B of \
         frames + {logical} B of pages + {PER_PAGE} B per page"
    );
    assert!(
        warm_bytes <= 3 * index + 4096,
        "the warm rescan allocated {warm_bytes} B, more than its {index} B index read and decoded"
    );
}
