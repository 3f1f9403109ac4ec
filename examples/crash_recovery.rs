//! Crash recovery: an interrupted recording is reindexed and then imported
//! into BORA — the operational path a robot fleet actually hits.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use bora::BoraBag;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::record::{read_record, BagHeader, BAG_HEADER_RECORD_SIZE};
use rosbag::{BagReader, BagWriter, BagWriterOptions, MAGIC};
use simfs::{IoCtx, MemStorage, Storage};

fn main() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();

    // 1. A recording that never gets to close(): chunks are on disk but
    //    the header is a placeholder and the index section is missing.
    let mut w = BagWriter::create(
        &fs,
        "/flight.bag",
        BagWriterOptions { chunk_size: 4096, ..Default::default() },
        &mut ctx,
    )
    .expect("create");
    for i in 0..400u32 {
        let t = Time::new(50 + i / 20, (i % 20) * 50_000_000);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, &mut ctx).expect("write");
    }
    // Simulate the crash: strip the index section + zero the header,
    // then append half a record of garbage (power cut mid-write).
    let bytes = fs.read_all("/flight.bag", &mut ctx).unwrap();
    let mut cur: &[u8] = &bytes[MAGIC.len()..];
    let (h, _) = read_record(&mut cur).unwrap();
    let _ = BagHeader::from_header(&h); // placeholder header: index_pos = 0
    drop(w); // never closed
    let valid = bytes.len(); // writer flushed full chunks only
    let mut crashed = bytes[..valid].to_vec();
    crashed.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
    fs.remove_file("/flight.bag", &mut ctx).unwrap();
    fs.append("/flight.bag", &crashed, &mut ctx).unwrap();
    let _ = BAG_HEADER_RECORD_SIZE;

    println!("crashed bag: {} bytes", fs.len("/flight.bag", &mut ctx).unwrap());
    match BagReader::open(&fs, "/flight.bag", &mut ctx) {
        Err(e) => println!("opening it fails, as expected: {e}"),
        Ok(_) => unreachable!("crashed bag should not open"),
    }

    // 2. Recover.
    let report = rosbag::reindex(&fs, "/flight.bag", &mut ctx).expect("reindex");
    println!(
        "reindex: recovered {} messages in {} chunks, discarded {} trailing bytes",
        report.messages_recovered, report.chunks_recovered, report.truncated_bytes
    );

    // 3. Business as usual: open, import into BORA, query.
    let r = BagReader::open(&fs, "/flight.bag", &mut ctx).expect("open after reindex");
    println!("reopened: {} messages indexed", r.index().message_count());

    bora::organizer::duplicate(
        &fs,
        "/flight.bag",
        &fs,
        "/bora/flight",
        &bora::OrganizerOptions::default(),
        &mut ctx,
    )
    .expect("import");
    let bag = BoraBag::open(&fs, "/bora/flight", &mut ctx).expect("bora open");
    let n = bag.verify(&mut ctx).expect("verify");
    let window = bag
        .read_topics_time(&["/imu"], Time::new(55, 0), Time::new(60, 0), &mut ctx)
        .expect("query");
    println!(
        "BORA container verified ({n} messages); [55 s, 60 s) window holds {} messages",
        window.len()
    );
}
