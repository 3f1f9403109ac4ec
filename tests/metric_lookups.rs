//! The streaming read path resolves its metrics once, not once per message.
//!
//! `bora_obs::counter(name)` is a global lock, a `String` and a hash
//! lookup; the registry's own rule is "resolve once, record many". This
//! file holds one test and nothing else, so that it runs in its own
//! process and the global registry's lookup count
//! ([`bora_obs::Registry::lookups`]) moves for this test's reads alone.
//! It streams more than 10 000 small messages three ways — `next_msg`
//! (and `lend` under it), `collect_records` (every message through
//! `to_record`) and a served `READ` — and requires the number of by-name
//! lookups to be bounded by what happens per fill and per request, never
//! by the number of messages — nor, since the pool resolves its own
//! counters when it is built, by the number of pages.
//!
//! Being alone in its process also makes the process-wide counters
//! exact here: `stream.merge.heap_ops` counts heap operations that
//! happened (none on a single lane), `stream.bytes_copied` stays put
//! until something materialises, and `stream.bytes_stitched` is the
//! payload bytes of the messages that straddle two pages.

use std::sync::Arc;

use bora::{BlockParams, BoraBag, OrganizerOptions, StreamOptions};
use bora_serve::{MemTransport, ServeClient, Server, ServerConfig};
use ros_msgs::geometry_msgs::Vector3;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const MESSAGES: u32 = 12_000;
const TOPICS: [&str; 2] = ["/wind", "/drift"];

#[test]
fn lookups_by_name_do_not_grow_with_messages() {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(&*fs, "/l.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..MESSAGES {
        let t = Time::from_nanos(1_000_000_000 + i as u64 * 1_000_000);
        let v = Vector3::new(i as f64, 0.5, -1.0);
        w.write_ros_message(TOPICS[(i % 2) as usize], t, &v, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    // Block-framed, so the reads page through the pool like the served
    // workloads do.
    let opts = OrganizerOptions { block: Some(BlockParams::default()), ..Default::default() };
    bora::duplicate(&*fs, "/l.bag", &*fs, "/c", &opts, &mut ctx).unwrap();

    let registry = bora_obs::registry::global();
    let copied = bora_obs::counter("stream.bytes_copied");
    let heap_ops = bora_obs::counter("stream.merge.heap_ops");
    let stitched = bora_obs::counter("stream.bytes_stitched");
    let pool = bora::BufferPool::new(8 << 20);
    let bag = BoraBag::open(Arc::clone(&fs), "/c", &mut ctx).unwrap().with_pool(pool);

    // 1. The merge itself, owned. The two topics alternate, so nearly
    // every message displaces the lead: one heap operation each, no more.
    let (lookups0, heap0, copied0) = (registry.lookups(), heap_ops.get(), copied.get());
    let mut stream = bag
        .stream_topics_with_tails(&TOPICS, Vec::new(), None, StreamOptions::default(), &mut ctx)
        .unwrap();
    let mut n = 0u32;
    while stream.next_msg(&mut ctx).unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, MESSAGES);
    let ops = heap_ops.get() - heap0;
    assert_eq!(ops, stream.stats().heap_ops);
    assert!(ops <= MESSAGES as u64 && ops > MESSAGES as u64 / 2, "{ops} heap ops");
    let next_msg = registry.lookups() - lookups0;

    // The same merge lent, one lane: the lead is never challenged, the
    // heap never touched. Nothing so far has copied a payload, except
    // the ones that lie across a page boundary.
    let (heap0, stitched0) = (heap_ops.get(), stitched.get());
    let mut stream = bag.stream_topics(&TOPICS[..1], StreamOptions::default(), &mut ctx).unwrap();
    let (mut n, mut straddlers, mut at) = (0u32, 0u64, 0u64);
    while let Some(m) = stream.lend(&mut ctx).unwrap() {
        let end = at + m.payload.len() as u64;
        if at >> 16 != (end - 1) >> 16 {
            straddlers += end - at;
        }
        (n, at) = (n + 1, end);
    }
    assert_eq!(n, MESSAGES / 2);
    assert_eq!(heap_ops.get() - heap0, 0, "a single lane costs no heap operation");
    assert!(straddlers > 0, "{at} bytes of /wind cross no 64 KiB boundary");
    assert_eq!(stitched.get() - stitched0, straddlers);
    assert_eq!(stream.stats().bytes_stitched, straddlers);
    assert_eq!(copied.get(), copied0, "neither lend nor next_msg materialises");

    // 2. The materializing drain: every message through `to_record`.
    let (lookups0, copied0) = (registry.lookups(), copied.get());
    let stream = bag
        .stream_topics_with_tails(&TOPICS, Vec::new(), None, StreamOptions::default(), &mut ctx)
        .unwrap();
    let records = stream.collect_records(&mut ctx).unwrap();
    assert_eq!(records.len(), MESSAGES as usize);
    let payload: u64 = records.iter().map(|r| r.data.len() as u64).sum();
    assert_eq!(copied.get() - copied0, payload, "copied bytes are still counted in full");
    let collect = registry.lookups() - lookups0;

    // 3. A served READ: one reply holding every message.
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let mut client = ServeClient::connect(&MemTransport::new(Arc::clone(&server))).unwrap();
    let (lookups0, copied0) = (registry.lookups(), copied.get());
    assert_eq!(client.read("/c", &TOPICS).unwrap().len(), MESSAGES as usize);
    assert_eq!(copied.get() - copied0, payload);
    let served = registry.lookups() - lookups0;
    server.shutdown();

    eprintln!(
        "by-name lookups for {MESSAGES} messages: next_msg {next_msg}, \
         collect_records {collect}, served READ {served}"
    );
    for (what, lookups) in [("next_msg", next_msg), ("collect_records", collect), ("READ", served)]
    {
        assert!(lookups < 200, "{what}: {lookups} metric lookups by name for {MESSAGES} messages");
    }
}
