//! Streaming query pipeline: differential tests against the materializing
//! merge, tie-break stability, bounded residency, and the zero-copy claim.
//!
//! The heap merge is the primary read path (`read_topics` is a thin
//! `collect()` over it), so these tests pin its equivalence to the old
//! linear-scan merge — byte-for-byte, including the order of simultaneous
//! timestamps — and the properties the materializing path never had:
//! peak resident bytes bounded by the readahead window, and payload
//! delivery without copies.

use proptest::prelude::*;

use bench::merge_ref::{merge_streams_heap, merge_streams_linear};
use bora::{BoraBag, OrganizerOptions, StreamOptions};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

/// A synthetic message event: (topic index, time-nanos, payload seed).
type Event = (usize, u64, u8);

const TOPICS: [&str; 4] = ["/imu", "/tf", "/camera/rgb/image_color", "/odom"];

/// Events with a deliberately tiny time domain so simultaneous timestamps
/// across topics are common, not a corner case.
fn arb_colliding_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0usize..4, 0u64..40, any::<u8>()), 1..150).prop_map(|mut v| {
        for e in v.iter_mut() {
            e.1 *= 1_000_000_000; // whole seconds: collisions survive Time's (sec, nsec) split
        }
        v.sort_by_key(|e| e.1);
        v
    })
}

fn build_container(fs: &MemStorage, events: &[Event]) {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        fs,
        "/p.bag",
        BagWriterOptions { chunk_size: 2048, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    let desc = MessageDescriptor::of::<Imu>();
    let conns: Vec<u32> = TOPICS.iter().map(|t| w.add_connection(t, &desc)).collect();
    for &(ti, ns, seed) in events {
        let mut imu = Imu::default();
        imu.header.seq = seed as u32;
        imu.header.stamp = Time::from_nanos(ns);
        imu.linear_acceleration.x = seed as f64;
        w.write_message(conns[ti], Time::from_nanos(ns), &imu.to_bytes(), &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::organizer::duplicate(fs, "/p.bag", fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming heap merge and the retired linear-scan merge produce
    /// byte-identical sequences — same times, same payloads, same order
    /// for simultaneous timestamps — for arbitrary workloads and stream
    /// tunings.
    #[test]
    fn streaming_merge_equals_linear_merge(
        events in arb_colliding_events(),
        readahead in 256usize..16384,
        threads in 1usize..5,
    ) {
        let fs = MemStorage::new();
        build_container(&fs, &events);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        // Reference: per-topic reads merged by the old linear scan.
        let per_topic: Vec<Vec<rosbag::reader::MessageRecord>> = TOPICS
            .iter()
            .map(|t| bag.read_topic(t, &mut ctx).unwrap())
            .collect();
        let linear = merge_streams_linear(per_topic.clone(), &mut ctx);
        let heap = merge_streams_heap(per_topic, &mut ctx);
        prop_assert_eq!(linear.len(), events.len());
        prop_assert_eq!(heap.len(), linear.len());

        // Streaming path, driven message-by-message.
        let opts = StreamOptions { readahead_bytes: readahead, prefetch_threads: threads };
        let mut stream = bag.stream_topics(&TOPICS, opts, &mut ctx).unwrap();
        let mut streamed = Vec::new();
        while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
            streamed.push((m.topic.to_string(), m.time, m.payload().to_vec()));
        }

        prop_assert_eq!(streamed.len(), linear.len());
        for ((s, l), h) in streamed.iter().zip(&linear).zip(&heap) {
            prop_assert_eq!(&s.0, &l.topic);
            prop_assert_eq!(s.1, l.time);
            prop_assert_eq!(&s.2, &l.data);
            prop_assert_eq!(&l.topic, &h.topic);
            prop_assert_eq!(l.time, h.time);
            prop_assert_eq!(&l.data, &h.data);
        }
        for w in streamed.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "stream must stay chronological");
        }
    }

    /// Time-bounded streams equal the materializing time query for any
    /// window (which itself is differential-tested against the baseline
    /// reader in prop_invariants.rs).
    #[test]
    fn streaming_time_window_equals_materializing(
        events in arb_colliding_events(),
        bounds in (0u64..45_000_000_000, 0u64..45_000_000_000),
    ) {
        let (a, b) = bounds;
        let (start, end) = (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b)));
        let fs = MemStorage::new();
        build_container(&fs, &events);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        let reference = bag.read_topics_time(&TOPICS, start, end, &mut ctx).unwrap();
        let opts = StreamOptions { readahead_bytes: 1024, prefetch_threads: 2 };
        let mut stream = bag.stream_topics_time(&TOPICS, start, end, opts, &mut ctx).unwrap();
        let mut got = Vec::new();
        while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
            got.push(m);
        }
        prop_assert_eq!(got.len(), reference.len());
        for (m, r) in got.iter().zip(&reference) {
            prop_assert_eq!(&*m.topic, r.topic.as_str());
            prop_assert_eq!(m.time, r.time);
            prop_assert_eq!(m.payload(), r.data.as_slice());
        }
    }
}

/// Write `count` messages on each of `topics`, all at the same sequence of
/// timestamps, with the payload encoding (topic, i) so order is checkable.
fn build_simultaneous(fs: &MemStorage, topics: &[&str], count: u32) {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(fs, "/p.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    let desc = MessageDescriptor::of::<Imu>();
    let conns: Vec<u32> = topics.iter().map(|t| w.add_connection(t, &desc)).collect();
    for i in 0..count {
        for (ti, &conn) in conns.iter().enumerate() {
            let mut imu = Imu::default();
            imu.header.seq = (ti as u32) << 16 | i;
            imu.header.stamp = Time::new(i, 0);
            w.write_message(conn, Time::new(i, 0), &imu.to_bytes(), &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
    bora::organizer::duplicate(fs, "/p.bag", fs, "/c", &OrganizerOptions::default(), &mut ctx)
        .unwrap();
}

/// For simultaneous timestamps, the merge yields messages in the order the
/// caller requested the topics — the same stable first-requested-wins rule
/// the linear merge had — and flipping the request order flips the ties.
#[test]
fn simultaneous_timestamps_follow_requested_topic_order() {
    let fs = MemStorage::new();
    build_simultaneous(&fs, &["/a", "/b", "/c"], 8);
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    for order in [["/a", "/b", "/c"], ["/c", "/a", "/b"]] {
        let mut stream = bag.stream_topics(&order, StreamOptions::default(), &mut ctx).unwrap();
        let mut got = Vec::new();
        while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
            got.push((m.time, m.topic.to_string()));
        }
        assert_eq!(got.len(), 24);
        for (i, chunk) in got.chunks(3).enumerate() {
            for (j, (time, topic)) in chunk.iter().enumerate() {
                assert_eq!(*time, Time::new(i as u32, 0));
                assert_eq!(topic, order[j], "tie order must follow the request order");
            }
        }
    }
}

/// Peak resident bytes track the readahead window, not the result size:
/// the whole point of streaming. The bound is `k × (readahead + one run)`
/// — a run may overshoot the window by up to one window plus one message.
#[test]
fn peak_resident_bytes_bounded_by_readahead_window() {
    let fs = MemStorage::new();
    // Two topics × 300 Imu messages ≈ 2 × 300 × ~330B ≈ 200 KB of data.
    build_simultaneous(&fs, &["/a", "/b"], 300);
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    let readahead = 4096usize;
    let opts = StreamOptions { readahead_bytes: readahead, prefetch_threads: 2 };
    let mut stream = bag.stream_topics(&["/a", "/b"], opts, &mut ctx).unwrap();
    let mut total_bytes = 0usize;
    while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
        total_bytes += m.payload().len();
    }
    let stats = stream.stats();
    assert_eq!(stats.delivered, 600);
    let per_cursor_bound = 2 * readahead + 1024; // window + one overshooting run
    assert!(
        stats.peak_resident_bytes <= 2 * per_cursor_bound,
        "peak resident {} exceeds k×window bound {}",
        stats.peak_resident_bytes,
        2 * per_cursor_bound
    );
    assert!(
        stats.peak_resident_bytes < total_bytes / 2,
        "peak resident {} should be far below the {}B result set",
        stats.peak_resident_bytes,
        total_bytes
    );
    assert!(stats.refills > 2, "a bounded window must refill as the stream drains");
}

/// Borrowing payloads copies nothing; only explicit materialization
/// (`to_record`) moves bytes — and the telemetry counter proves it.
#[test]
fn payload_access_is_zero_copy() {
    let fs = MemStorage::new();
    build_simultaneous(&fs, &["/a", "/b"], 50);
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    let before = bora_obs::counter("stream.bytes_copied").get();
    let mut stream = bag.stream_topics(&["/a", "/b"], StreamOptions::default(), &mut ctx).unwrap();
    let mut checksum = 0u64;
    let mut last: Option<bora::StreamMessage> = None;
    while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
        checksum = checksum.wrapping_add(m.payload().iter().map(|&b| b as u64).sum::<u64>());
        last = Some(m);
    }
    assert!(checksum > 0);
    assert_eq!(bora_obs::counter("stream.bytes_copied").get(), before, "payload() must not copy");

    let m = last.unwrap();
    let rec = m.to_record();
    assert_eq!(
        bora_obs::counter("stream.bytes_copied").get(),
        before + rec.data.len() as u64,
        "to_record() copies exactly the payload"
    );
}

/// An abandoned stream explicitly folds its prefetch I/O into the caller's
/// clock via `charge_into`; the fold is idempotent.
#[test]
fn abandoned_stream_charges_once() {
    let fs = MemStorage::new();
    build_simultaneous(&fs, &["/a", "/b"], 100);
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    let mut ctx2 = IoCtx::new();
    let mut stream = bag.stream_topics(&["/a", "/b"], StreamOptions::default(), &mut ctx2).unwrap();
    for _ in 0..5 {
        stream.next_msg(&mut ctx2).unwrap().unwrap();
    }
    let before = ctx2.elapsed_ns();
    stream.charge_into(&mut ctx2);
    let after_once = ctx2.elapsed_ns();
    assert!(after_once > before, "prefetch I/O must land on the clock");
    stream.charge_into(&mut ctx2);
    assert_eq!(ctx2.elapsed_ns(), after_once, "charge_into is idempotent");
    drop(stream);
    let _ = ctx;
}
