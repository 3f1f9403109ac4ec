//! End-to-end tests of LZSS-compressed bags: write, open, query, recover.

use proptest::prelude::*;
use ros_msgs::sensor_msgs::{CameraInfo, Imu};
use ros_msgs::{RosMessage, Time};
use rosbag::{BagReader, BagWriter, BagWriterOptions, Compression};
use simfs::{IoCtx, MemStorage, Storage};

fn build_compressed(fs: &MemStorage, n: u32) -> u64 {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        fs,
        "/c.bag",
        BagWriterOptions { chunk_size: 8 * 1024, compression: Compression::Lzss },
        &mut ctx,
    )
    .unwrap();
    for i in 0..n {
        let t = Time::new(i, 0);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        if i % 3 == 0 {
            let mut cam = CameraInfo::default();
            cam.header.seq = i;
            w.write_ros_message("/camera_info", t, &cam, &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap().message_count
}

#[test]
fn compressed_bag_is_smaller_and_equivalent() {
    let fs_plain = MemStorage::new();
    let fs_comp = MemStorage::new();
    let mut ctx = IoCtx::new();

    // Same content, both compressions.
    let mut w = BagWriter::create(
        &fs_plain,
        "/c.bag",
        BagWriterOptions { chunk_size: 8 * 1024, compression: Compression::None },
        &mut ctx,
    )
    .unwrap();
    for i in 0..400u32 {
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = Time::new(i, 0);
        w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    build_compressed(&fs_comp, 400);

    let plain_len = fs_plain.len("/c.bag", &mut ctx).unwrap();
    let comp_len = fs_comp.len("/c.bag", &mut ctx).unwrap();
    // IMU messages are highly repetitive (zero covariances): big win.
    assert!(comp_len < plain_len / 2, "compressed {comp_len} vs plain {plain_len}");

    // Same messages come back.
    let rp = BagReader::open(&fs_plain, "/c.bag", &mut ctx).unwrap();
    let rc = BagReader::open(&fs_comp, "/c.bag", &mut ctx).unwrap();
    let mp = rp.read_messages(&["/imu"], &mut ctx).unwrap();
    let mc = rc.read_messages(&["/imu"], &mut ctx).unwrap();
    assert_eq!(mp.len(), mc.len());
    for (a, b) in mp.iter().zip(&mc) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.data, b.data);
    }
}

#[test]
fn compressed_time_queries_work() {
    let fs = MemStorage::new();
    build_compressed(&fs, 300);
    let mut ctx = IoCtx::new();
    let r = BagReader::open(&fs, "/c.bag", &mut ctx).unwrap();
    let msgs =
        r.read_messages_time(&["/imu"], Time::new(100, 0), Time::new(150, 0), &mut ctx).unwrap();
    assert_eq!(msgs.len(), 50);
    let decoded = Imu::from_bytes(&msgs[0].data).unwrap();
    assert_eq!(decoded.header.seq, 100);
}

#[test]
fn compressed_bag_duplicates_into_bora() {
    let fs = MemStorage::new();
    let n = build_compressed(&fs, 240);
    let mut ctx = IoCtx::new();
    bora::organizer::duplicate(
        &fs,
        "/c.bag",
        &fs,
        "/bora",
        &bora::OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();
    let bag = bora::BoraBag::open(&fs, "/bora", &mut ctx).unwrap();
    assert_eq!(bag.verify(&mut ctx).unwrap(), n);
    let msgs = bag.read_topics(&["/imu"], &mut ctx).unwrap();
    assert_eq!(msgs.len(), 240);
}

#[test]
fn compressed_bag_reindexes() {
    let fs = MemStorage::new();
    build_compressed(&fs, 200);
    let mut ctx = IoCtx::new();
    // Crash it: cut the index section.
    let bytes = fs.read_all("/c.bag", &mut ctx).unwrap();
    let mut cur: &[u8] = &bytes[rosbag::MAGIC.len()..];
    let (h, _) = rosbag::record::read_record(&mut cur).unwrap();
    let bh = rosbag::record::BagHeader::from_header(&h).unwrap();
    let mut crashed = bytes[..bh.index_pos as usize].to_vec();
    let placeholder =
        rosbag::record::BagHeader { index_pos: 0, conn_count: 0, chunk_count: 0 }.encode_padded();
    crashed[rosbag::MAGIC.len()..rosbag::MAGIC.len() + placeholder.len()]
        .copy_from_slice(&placeholder);
    fs.remove_file("/c.bag", &mut ctx).unwrap();
    fs.append("/c.bag", &crashed, &mut ctx).unwrap();

    let report = rosbag::reindex(&fs, "/c.bag", &mut ctx).unwrap();
    assert!(report.messages_recovered > 0);
    let r = BagReader::open(&fs, "/c.bag", &mut ctx).unwrap();
    assert_eq!(r.index().message_count(), report.messages_recovered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LZSS round-trips arbitrary byte strings.
    #[test]
    fn lzss_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = rosbag::compress::compress(&data);
        prop_assert_eq!(rosbag::compress::decompress(&c, data.len()).unwrap(), data);
    }

    /// LZSS round-trips structured, repetitive data (the realistic case).
    #[test]
    fn lzss_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..32),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = rosbag::compress::compress(&data);
        prop_assert_eq!(rosbag::compress::decompress(&c, data.len()).unwrap(), data);
    }

    /// Decompressing arbitrary junk never panics.
    #[test]
    fn lzss_decode_junk_never_panics(
        junk in prop::collection::vec(any::<u8>(), 0..512),
        expected in 0usize..1024,
    ) {
        let _ = rosbag::compress::decompress(&junk, expected);
    }
}
