//! Cross-crate property tests: for arbitrary (small) workloads, the BORA
//! pipeline is lossless and its indices stay consistent.

use proptest::prelude::*;

use bora::{BoraBag, OrganizerOptions, TimeIndex, TopicIndexEntry};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use rosbag::{BagReader, BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage, Storage};

/// A synthetic message event: (topic index, time-nanos, payload seed).
type Event = (usize, u64, u8);

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0usize..4, 0u64..200_000_000_000, any::<u8>()), 1..120).prop_map(
        |mut v| {
            // Bags are recorded chronologically.
            v.sort_by_key(|e| e.1);
            v
        },
    )
}

const TOPICS: [&str; 4] = ["/imu", "/tf", "/camera/rgb/image_color", "/odom"];

fn build_bag(fs: &MemStorage, events: &[Event], chunk_size: usize) -> u64 {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        fs,
        "/p.bag",
        BagWriterOptions { chunk_size, ..Default::default() },
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
    let s = w.close(&mut ctx).unwrap();
    s.message_count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writing a bag and reading it back yields every message, in time
    /// order, regardless of chunking.
    #[test]
    fn bag_round_trip_lossless(events in arb_events(), chunk_size in 256usize..8192) {
        let fs = MemStorage::new();
        let n = build_bag(&fs, &events, chunk_size);
        prop_assert_eq!(n as usize, events.len());

        let mut ctx = IoCtx::new();
        let r = BagReader::open(&fs, "/p.bag", &mut ctx).unwrap();
        prop_assert_eq!(r.index().message_count() as usize, events.len());
        let msgs = r.read_messages(&TOPICS, &mut ctx).unwrap();
        prop_assert_eq!(msgs.len(), events.len());
        for w in msgs.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    /// Duplication into a container loses nothing: per-topic counts and
    /// payload bytes match the baseline exactly.
    #[test]
    fn organizer_is_lossless(events in arb_events(), threads in 1usize..5) {
        let fs = MemStorage::new();
        build_bag(&fs, &events, 2048);
        let mut ctx = IoCtx::new();
        bora::organizer::duplicate(
            &fs, "/p.bag", &fs, "/c",
            &OrganizerOptions { distributor_threads: threads, ..OrganizerOptions::default() },
            &mut ctx,
        ).unwrap();

        let baseline = BagReader::open(&fs, "/p.bag", &mut ctx).unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        prop_assert_eq!(bag.verify(&mut ctx).unwrap() as usize, events.len());

        for t in TOPICS {
            let base = baseline.read_messages(&[t], &mut ctx).unwrap();
            let ours = bag.read_topics(&[t], &mut ctx).unwrap();
            prop_assert_eq!(base.len(), ours.len());
            for (a, b) in base.iter().zip(&ours) {
                prop_assert_eq!(a.time, b.time);
                prop_assert_eq!(&a.data, &b.data);
            }
        }
    }

    /// For any window, the BORA time query equals the baseline time query.
    #[test]
    fn time_queries_equivalent(
        events in arb_events(),
        bounds in (0u64..220_000_000_000, 0u64..220_000_000_000),
    ) {
        let (a, b) = bounds;
        let (start, end) = (Time::from_nanos(a.min(b)), Time::from_nanos(a.max(b)));
        let fs = MemStorage::new();
        build_bag(&fs, &events, 2048);
        let mut ctx = IoCtx::new();
        bora::organizer::duplicate(&fs, "/p.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx).unwrap();
        let baseline = BagReader::open(&fs, "/p.bag", &mut ctx).unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

        let base = baseline.read_messages_time(&TOPICS, start, end, &mut ctx).unwrap();
        let ours = bag.read_topics_time(&TOPICS, start, end, &mut ctx).unwrap();
        prop_assert_eq!(base.len(), ours.len());
        for (x, y) in base.iter().zip(&ours) {
            prop_assert_eq!(x.time, y.time);
            prop_assert_eq!(&x.data, &y.data);
        }
    }

    /// The coarse time index never misses an entry: its candidate range is
    /// a superset of the exact matches, for arbitrary windows and widths.
    #[test]
    fn coarse_index_is_superset(
        times in prop::collection::vec(0u64..100_000_000_000, 1..200),
        window_ns in 1_000_000u64..20_000_000_000,
        query in (0u64..110_000_000_000, 1u64..30_000_000_000),
    ) {
        let mut times = times;
        times.sort_unstable();
        let entries: Vec<TopicIndexEntry> = times
            .iter()
            .enumerate()
            .map(|(i, &ns)| TopicIndexEntry { time: Time::from_nanos(ns), offset: i as u64, len: 1 })
            .collect();
        let ti = TimeIndex::build(&entries, window_ns);
        let start = Time::from_nanos(query.0);
        let end = Time::from_nanos(query.0 + query.1);

        let exact: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.time >= start && e.time < end)
            .map(|(i, _)| i)
            .collect();
        match ti.candidate_entries(start, end) {
            Some((first, last)) => {
                for i in &exact {
                    prop_assert!((first as usize..last as usize).contains(i));
                }
            }
            None => prop_assert!(exact.is_empty(), "index missed {} entries", exact.len()),
        }
    }

    /// simfs path normalization is idempotent and component-stable.
    /// (`.`/`..` components are rejected by design, so exclude them.)
    #[test]
    fn path_normalization_idempotent(
        parts in prop::collection::vec(
            "[a-z0-9._-]{1,8}".prop_filter("dot components are rejected", |p| p != "." && p != ".."),
            1..6,
        )
    ) {
        let raw = format!("//{}/", parts.join("//"));
        let n1 = simfs::path::normalize(&raw).unwrap();
        let n2 = simfs::path::normalize(&n1).unwrap();
        prop_assert_eq!(&n1, &n2);
        prop_assert_eq!(n1.split('/').filter(|c| !c.is_empty()).count(), parts.len());
    }

    /// Topic-name encoding for container directories is bijective over
    /// ROS topic names (slash-separated non-empty components; literal
    /// `%` allowed since we escape it).
    #[test]
    fn topic_encoding_bijective(topic in "(/[a-z][a-z0-9_%]{0,6}){1,4}") {
        let enc = bora::layout::encode_topic(&topic);
        prop_assert!(!enc.contains('/'));
        prop_assert_eq!(bora::layout::decode_topic(&enc), topic);
    }

    /// MemStorage append/read semantics under arbitrary interleavings.
    #[test]
    fn mem_storage_append_semantics(chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..20)) {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut expected = Vec::new();
        for c in &chunks {
            let off = fs.append("/f", c, &mut ctx).unwrap();
            prop_assert_eq!(off as usize, expected.len());
            expected.extend_from_slice(c);
        }
        prop_assert_eq!(fs.read_all("/f", &mut ctx).unwrap(), expected);
    }
}
