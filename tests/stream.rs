//! Streaming query pipeline: differential tests against the materializing
//! merge, tie-break stability, bounded residency, and the zero-copy claim.
//!
//! The heap merge is the primary read path (`read_topics` is a thin
//! `collect()` over it), so these tests pin its equivalence to the old
//! linear-scan merge — byte-for-byte, including the order of simultaneous
//! timestamps — and the properties the materializing path never had:
//! peak resident bytes bounded by the readahead window, and payload
//! delivery without copies. On block-framed containers the cursor queues
//! pool pages and lends slices of them: lent, owned and materialised
//! drains must agree for every page size from "every message straddles"
//! to "none does", with live tails and time ranges, and the one copy left
//! (a straddler's stitch) is counted exactly. A drain by runs
//! (`lend_run`, at random caps) must be the message-at-a-time drain cut
//! into pieces: the same messages, merge decisions, stitches, fill passes
//! and virtual time, each run one lane's, inside one block, and before the
//! runner-up lane's head.

use proptest::prelude::*;

use bench::merge_ref::{merge_streams_heap, merge_streams_linear};
use bora::stream::Merge;
use bora::{BlockParams, BoraBag, OrganizerOptions, StreamOptions, TailMessage};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use rosbag::reader::MessageRecord;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};
use std::sync::{RwLock, RwLockReadGuard};

/// `stream.bytes_copied` is one counter for the whole process: a test
/// that materialises holds this shared, and the test that reads the
/// counter holds it alone, so no other test's copies land in its window.
static BYTES_COPIED: RwLock<()> = RwLock::new(());

fn materialising() -> RwLockReadGuard<'static, ()> {
    BYTES_COPIED.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    build_container_with(fs, events, None);
}

/// An `Imu` of the event, or — for one seed in 16 — an empty payload.
fn payload((_, ns, seed): Event) -> Vec<u8> {
    if seed % 16 == 7 {
        return Vec::new();
    }
    let mut imu = Imu::default();
    imu.header.seq = seed as u32;
    imu.header.stamp = Time::from_nanos(ns);
    imu.linear_acceleration.x = seed as f64;
    imu.to_bytes()
}

/// [`build_container`], block-framed when `block` says so.
fn build_container_with(fs: &MemStorage, events: &[Event], block: Option<BlockParams>) {
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
    for &e in events {
        w.write_message(conns[e.0], Time::from_nanos(e.1), &payload(e), &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    let opts = OrganizerOptions { block, ..Default::default() };
    bora::organizer::duplicate(fs, "/p.bag", fs, "/c", &opts, &mut ctx).unwrap();
}

/// One delivered message: (topic, time, payload).
type Seen = (String, Time, Vec<u8>);

/// What a stream over [`TOPICS`] of a container holding `stored` plus the
/// live tails `live` must deliver within `range`, and how many payload
/// bytes of it lie across a `page`-byte boundary of their `data` file:
/// chronological, simultaneous timestamps in topic order, a topic's own
/// messages in the order they were written.
fn expected(
    stored: &[Event],
    live: &[Event],
    range: Option<(Time, Time)>,
    page: u64,
) -> (Vec<Seen>, u64) {
    let within = |ns: u64| {
        let t = Time::from_nanos(ns);
        range.is_none_or(|(start, end)| t >= start && t < end)
    };
    let mut offsets = [0u64; TOPICS.len()];
    let mut straddling = 0;
    for &e in stored {
        let (at, len) = (offsets[e.0], payload(e).len() as u64);
        offsets[e.0] += len;
        if within(e.1) && len > 0 && at / page != (at + len - 1) / page {
            straddling += len;
        }
    }
    let mut all: Vec<Event> = stored.iter().chain(live).copied().filter(|e| within(e.1)).collect();
    all.sort_by_key(|e| (e.1, e.0)); // stable: a topic's own order survives
    let seen = all.iter().map(|&e| (TOPICS[e.0].to_owned(), Time::from_nanos(e.1), payload(e)));
    (seen.collect(), straddling)
}

/// Drain a fresh stream four ways — lent, owned, materialised, and in
/// runs capped at random from 1 to 300 — holding each to `want`; returns
/// the lent drain's stats and the number of runs the last drain took.
/// The run drain must make the same merge decisions, stitches, fill
/// passes and virtual-clock charges as the lent one, and each run must
/// hold one lane, lie in one block (a `page`-byte page, on a block-framed
/// container) and sort before the runner-up lane's head.
fn drain_four_ways(
    bag: &BoraBag<&MemStorage>,
    live: &[Event],
    range: Option<(Time, Time)>,
    opts: &StreamOptions,
    want: &[Seen],
    page: u64,
) -> (bora::StreamStats, usize) {
    let _copies = materialising();
    let open = |ctx: &mut IoCtx| {
        // A tail is handed over already cut to `range`, as a snapshot cuts it.
        let tail = |lane| {
            let within = move |t: &Time| range.is_none_or(|(start, end)| (start..end).contains(t));
            let of_lane = live.iter().filter(move |e| e.0 == lane);
            let tail = of_lane
                .map(|&e| TailMessage { time: Time::from_nanos(e.1), data: payload(e).into() });
            tail.filter(move |m| within(&m.time))
        };
        let tails = (0..TOPICS.len()).map(|lane| tail(lane).collect()).collect();
        bag.stream_topics_with_tails(&TOPICS, tails, range, opts.clone(), ctx).unwrap()
    };

    let mut lent_ctx = IoCtx::new();
    let mut stream = open(&mut lent_ctx);
    assert_eq!(stream.remaining() as usize, want.len());
    let mut lent: Vec<Seen> = Vec::new();
    while let Some(m) = stream.lend(&mut lent_ctx).unwrap() {
        assert_eq!(&**m.topic, TOPICS[m.lane], "the lane is the topic's place in the request");
        lent.push((m.topic.to_string(), m.time, m.payload.to_vec()));
        assert_eq!(stream.remaining() as usize, want.len() - lent.len());
    }
    assert_eq!(lent, want, "lent");
    let stats = stream.stats();
    assert_eq!(stats.delivered as usize, want.len());

    let mut ctx = IoCtx::new();
    let mut stream = open(&mut ctx);
    let mut owned = Vec::new();
    while let Some(m) = stream.next_msg(&mut ctx).unwrap() {
        owned.push(m);
        assert_eq!(stream.remaining() as usize, want.len() - owned.len());
    }
    // Kept across every later pull, and still the bytes they were.
    let owned: Vec<Seen> =
        owned.iter().map(|m| (m.topic.to_string(), m.time, m.payload().to_vec())).collect();
    assert_eq!(owned, want, "owned");

    let records = open(&mut ctx).collect_records(&mut ctx).unwrap();
    let records: Vec<Seen> = records.into_iter().map(|r| (r.topic, r.time, r.data)).collect();
    assert_eq!(records, want, "materialised");

    let mut run_ctx = IoCtx::new();
    let mut stream = open(&mut run_ctx);
    let (mut ran, mut keys, mut runs) = (Vec::<Seen>::new(), Vec::new(), Vec::new());
    let mut rng = want.len() as u64 * 0x9E37_79B9 + 1;
    loop {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let cap = (rng % 300 + 1) as usize;
        let Some(run) = stream.lend_run(&mut run_ctx, cap).unwrap() else { break };
        let msgs: Vec<_> = run.messages().collect();
        assert!((1..=cap).contains(&msgs.len()), "{} messages for a cap of {cap}", msgs.len());
        let lane = run.lane;
        for pair in msgs.windows(2) {
            assert!(!pair[0].payload.is_empty(), "an empty payload is a run of one");
            let (end, next) = (pair[0].payload.as_ptr_range().end, pair[1].payload.as_ptr());
            assert_eq!(end, next, "a run's payloads follow each other in one block");
        }
        if msgs.len() > 1 {
            let bytes: usize = msgs.iter().map(|m| m.payload.len()).sum();
            assert!(bytes as u64 <= page, "a run of {bytes} bytes in {page}-byte pages");
        }
        runs.push((keys.len(), keys.len() + msgs.len()));
        for m in &msgs {
            assert_eq!(m.lane, lane, "a run holds one lane");
            keys.push((m.time, m.lane));
            ran.push((m.topic.to_string(), m.time, m.payload.to_vec()));
        }
        assert_eq!(stream.remaining() as usize, want.len() - ran.len());
    }
    assert_eq!(ran, want, "in runs");
    // The runner-up's head is the next message of another lane.
    for &(start, end) in &runs {
        let lane = keys[start].1;
        if let Some(after) = keys[end..].iter().find(|k| k.1 != lane) {
            assert!(keys[end - 1] < *after, "a run ends before the runner-up's head");
        }
    }
    let by_runs = stream.stats();
    assert_eq!(
        (by_runs.heap_ops, by_runs.delivered, by_runs.bytes_stitched, by_runs.refills),
        (stats.heap_ops, stats.delivered, stats.bytes_stitched, stats.refills),
        "heap ops, deliveries, stitched bytes and fill passes"
    );
    assert_eq!(run_ctx.elapsed_ns(), lent_ctx.elapsed_ns(), "virtual time");
    (stats, runs.len())
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
    ) {
        let _copies = materialising();
        let fs = MemStorage::new();
        build_container(&fs, &events);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        // Reference: per-topic reads merged by the old linear scan.
        let per_topic: Vec<Vec<rosbag::reader::MessageRecord>> = TOPICS
            .iter()
            .map(|t| bag.read_topics(&[t], &mut ctx).unwrap())
            .collect();
        let linear = merge_streams_linear(per_topic.clone());
        let heap = merge_streams_heap(per_topic);
        prop_assert_eq!(linear.len(), events.len());
        prop_assert_eq!(heap.len(), linear.len());

        // Streaming path, driven message-by-message.
        let opts = StreamOptions { readahead_bytes: readahead };
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
        let _copies = materialising();
        let fs = MemStorage::new();
        build_container(&fs, &events);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        let reference = bag.read_topics_time(&TOPICS, start, end, &mut ctx).unwrap();
        let opts = StreamOptions { readahead_bytes: 1024 };
        let range = Some((start, end));
        let mut stream =
            bag.stream_topics_with_tails(&TOPICS, Vec::new(), range, opts, &mut ctx).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Page-backed cursors and lent delivery: for every page size from
    /// "every message straddles" to "none does", any readahead, with or
    /// without a time range, with or without live tails, the lent, the
    /// owned and the materialised drain are the
    /// expected sequence — times, topics, payloads and tie order — and
    /// `remaining()` is exact after every pull. The stitched bytes are
    /// exactly the straddlers', and what the cursors hold stays within
    /// the window plus the pages at its two ends.
    #[test]
    fn lent_owned_and_materialised_agree_on_block_framed_containers(
        events in arb_colliding_events(),
        block_size in prop::sample::select(vec![64u32, 256, 4096, 65536]),
        readahead in 1024usize..16384,
        (ranged, a, b) in (any::<bool>(), 0u64..45_000_000_000, 0u64..45_000_000_000),
        (tailed, live_from) in (any::<bool>(), 0usize..150),
    ) {
        let range = ranged.then(|| (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b))));
        // The events from `live_from` on have not been compacted yet: the
        // stream gets them as tails, newer than anything in the container.
        let live_from = if tailed { live_from.min(events.len()) } else { events.len() };
        let (stored, live) = events.split_at(live_from);
        let fs = MemStorage::new();
        let block = BlockParams { block_size, ..Default::default() };
        build_container_with(&fs, stored, Some(block));
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        let (want, straddling) = expected(stored, live, range, block_size as u64);
        let opts = StreamOptions { readahead_bytes: readahead };
        let (stats, _) = drain_four_ways(&bag, live, range, &opts, &want, block_size as u64);
        prop_assert_eq!(stats.bytes_stitched, straddling);
        // Per lane: a window, the run that may overshoot it by another
        // (plus a message), and the partly used page at either end.
        let message = events.iter().map(|&e| payload(e).len()).max().unwrap_or(0);
        let per_lane = 2 * readahead + message + 2 * block_size as usize;
        prop_assert!(
            stats.peak_resident_bytes <= TOPICS.len() * per_lane,
            "peak resident {} of {} per lane", stats.peak_resident_bytes, per_lane
        );
    }
}

/// The lane that won last keeps the lead without a heap operation while
/// its next timestamp sorts before the runner-up's. Long runs from one
/// lane, runs that end in a tie with every other lane and runs that start
/// in one: the order is the one the heap alone would give, the heap
/// was in fact skipped, and a drain by runs took far fewer pulls than
/// messages.
#[test]
fn long_runs_and_cross_lane_ties_merge_in_heap_order() {
    let mut events: Vec<Event> = Vec::new();
    for round in 0..9u64 {
        let t0 = round * 100;
        // A run of 40 on one lane; every lane ties with its first and
        // its last message, and lane 3 shadows every fifth one.
        events.extend((0..40).map(|i| ((round % 3) as usize, t0 + i, i as u8)));
        events.extend((0..4).flat_map(|lane| [(lane, t0, 0xAA), (lane, t0 + 39, 0xBB)]));
        events.extend((0..40).step_by(5).map(|i| (3, t0 + i, 0xCC)));
    }
    for e in events.iter_mut() {
        e.1 *= 1_000_000_000;
    }
    events.sort_by_key(|e| e.1);
    let framed = BlockParams { block_size: 4096, ..Default::default() };
    for (block, page) in [(None, u64::MAX), (Some(framed), 4096)] {
        let fs = MemStorage::new();
        build_container_with(&fs, &events, block);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let (want, _) = expected(&events, &[], None, u64::MAX);
        for readahead in [2048, 1 << 20] {
            let opts = StreamOptions { readahead_bytes: readahead };
            let (stats, runs) = drain_four_ways(&bag, &[], None, &opts, &want, page);
            assert!(
                stats.heap_ops * 2 < stats.delivered,
                "{} heap operations for {} messages",
                stats.heap_ops,
                stats.delivered
            );
            // Lane 3's every fifth message, the empty payloads and the
            // page, window and cap edges cut the runs of 40: 252 to 317
            // runs here, where one message at a time would be 504.
            assert!(runs * 3 < stats.delivered as usize * 2, "{runs} runs for {}", stats.delivered);
        }
    }
}

/// Lanes for the bare merge: 1 to 5 of them, each the running sum of
/// steps of 0 to 3 ns, so cross-lane ties, equal times within a lane and
/// long stretches one lane wins alone are all common; any lane may be
/// empty.
fn arb_lanes() -> impl Strategy<Value = Vec<Vec<u64>>> {
    let lane = prop::collection::vec(0u64..4, 0..60).prop_map(|steps| {
        let mut t = 0;
        steps
            .into_iter()
            .map(|step| {
                t += step;
                t
            })
            .collect()
    });
    prop::collection::vec(lane, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`Merge`], driven the way both read paths drive it — pick a lane,
    /// take its head, advance it to the next — picks lanes in exactly the
    /// order the heap-only reference merge emits them, and spends one heap
    /// operation per change of lane: none at all over one lane.
    #[test]
    fn merge_picks_in_heap_order_at_one_heap_op_per_lane_change(lanes in arb_lanes()) {
        let record = |lane: usize, i: usize, t: u64| MessageRecord {
            conn_id: lane as u32,
            topic: String::new(),
            time: Time::from_nanos(t),
            data: (i as u32).to_le_bytes().to_vec(),
        };
        let streams = lanes
            .iter()
            .enumerate()
            .map(|(lane, ts)| ts.iter().enumerate().map(|(i, &t)| record(lane, i, t)).collect())
            .collect();
        let reference = merge_streams_heap(streams);
        let want: Vec<(usize, usize)> = reference
            .iter()
            .map(|r| (r.conn_id as usize, u32::from_le_bytes(r.data[..].try_into().unwrap()) as usize))
            .collect();

        let mut next = vec![0; lanes.len()];
        let mut merge = Merge::new(lanes.iter().map(|ts| ts.first().copied()));
        let mut got = Vec::new();
        while let Some(lane) = merge.pick() {
            got.push((lane, next[lane]));
            next[lane] += 1;
            merge.advance(lane, lanes[lane].get(next[lane]).copied());
        }
        prop_assert_eq!(&got, &want);
        let lane_changes = want.windows(2).filter(|w| w[0].0 != w[1].0).count() as u64;
        prop_assert_eq!(merge.heap_ops(), lane_changes);
        if lanes.len() == 1 {
            prop_assert_eq!(merge.heap_ops(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs are single lends cut into pieces. Over an unframed container
    /// and block-framed ones with pages of 64 to 512 bytes — runs end at
    /// page edges, and straddlers are common — with empty payloads, ties
    /// across lanes, live tails, time ranges and readahead windows small
    /// enough to refill mid-stream, a drain by `lend_run` at caps of 1 to
    /// 300 is held by `drain_four_ways` to the lent drain: the same
    /// messages, heap operations, deliveries, stitched bytes, fill passes
    /// and virtual time; every run one lane's, in one block, before the
    /// runner-up's head.
    #[test]
    fn lend_runs_agree_with_single_lends(
        events in arb_colliding_events(),
        page in prop::sample::select(vec![0u32, 64, 128, 512]),
        readahead in 256usize..4096,
        (ranged, a, b) in (any::<bool>(), 0u64..45_000_000_000, 0u64..45_000_000_000),
        (tailed, live_from) in (any::<bool>(), 0usize..150),
    ) {
        let range = ranged.then(|| (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b))));
        let live_from = if tailed { live_from.min(events.len()) } else { events.len() };
        let (stored, live) = events.split_at(live_from);
        let fs = MemStorage::new();
        let block = (page > 0).then(|| BlockParams { block_size: page, ..Default::default() });
        build_container_with(&fs, stored, block);
        let mut ctx = IoCtx::new();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let page = if page > 0 { page as u64 } else { u64::MAX };
        let (want, straddling) = expected(stored, live, range, page);
        let opts = StreamOptions { readahead_bytes: readahead };
        let (stats, _) = drain_four_ways(&bag, live, range, &opts, &want, page);
        prop_assert_eq!(stats.bytes_stitched, straddling);
    }
}

/// A run's bound is the runner-up's whole key, `(time, lane)`: at a tie
/// across lanes the lower lane goes first. Lane 1's run stops before
/// lane 0's head at the same time; lane 0's run takes its message at the
/// time of lane 1's head and stops at the next.
#[test]
fn a_run_stops_at_the_runner_up_key_and_a_tie_goes_to_the_lower_lane() {
    let lanes: [&[u64]; 2] = [&[3, 3, 4], &[1, 2, 3]];
    let mut next = [0usize; 2];
    let mut merge = Merge::new(lanes.iter().map(|ts| ts.first().copied()));
    let mut runs = Vec::new();
    while let Some(lane) = merge.pick() {
        // What a run over the lane takes: its head, then every later key
        // that sorts before the runner-up's.
        let bound = merge.runner_up();
        let ts = &lanes[lane][next[lane]..];
        let n = 1 + ts[1..].iter().take_while(|&&t| bound.is_none_or(|b| (t, lane) < b)).count();
        runs.push((lane, ts[..n].to_vec(), bound));
        next[lane] += n;
        merge.advance(lane, lanes[lane].get(next[lane]).copied());
    }
    assert_eq!(
        runs,
        [
            (1, vec![1, 2], Some((3, 0))),
            (0, vec![3, 3], Some((3, 1))),
            (1, vec![3], Some((4, 0))),
            (0, vec![4], None),
        ]
    );
    assert_eq!(merge.heap_ops(), 3, "one per change of lane after the first pick");
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
    let opts = StreamOptions { readahead_bytes: readahead };
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
    let _alone = BYTES_COPIED.write().unwrap_or_else(|poisoned| poisoned.into_inner());
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
