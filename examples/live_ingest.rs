//! Live ingest walkthrough: query a recording while it is still being
//! written.
//!
//! ```text
//! cargo run --example live_ingest
//! ```
//!
//! The BORA container is a post-mission format: the organizer rewrites a
//! finished bag. bora-ingest removes the "finished" part — appends land
//! in a CRC-framed WAL and an in-memory segment per topic, seals freeze
//! those into sorted segment files, and background compaction folds them
//! into an ordinary container generation. Readers never care: an MVCC
//! snapshot pins {container, sealed segments, frozen memtable} and the
//! k-way merge serves the same bytes no matter which layer holds them.
//!
//! This example starts a server over a live ingest root, streams appends
//! through the batching writer while a concurrent analyst runs a
//! mid-recording `READ_STREAM2` query, then seals + compacts and shows the
//! mid-recording answer was a byte-identical prefix of the final one.

use std::sync::Arc;

use bora_serve::{
    ChunkMessage, IngestBatching, IngestClient, MemTransport, ServeClient, Server, ServerConfig,
};
use ros_msgs::Time;
use simfs::{IoCtx, MemStorage};

const ROOT: &str = "/live/mission";
const TOPICS: [&str; 2] = ["/imu", "/camera/info"];

/// The recorded timeline: globally increasing timestamps, 100 Hz IMU with
/// a camera-info message every fifth tick.
fn timeline(ticks: u64) -> Vec<(&'static str, Time, Vec<u8>)> {
    let mut out = Vec::new();
    for i in 0..ticks {
        let t = Time::from_nanos(1_000_000_000 + i * 10_000_000);
        out.push(("/imu", t, vec![i as u8; 32]));
        if i % 5 == 0 {
            let t = Time::from_nanos(1_000_000_000 + i * 10_000_000 + 1);
            out.push(("/camera/info", t, vec![0xC0 | (i % 16) as u8; 96]));
        }
    }
    out
}

fn main() {
    // --- 1. A live ingest root, served like any container. ---
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    bora_ingest::IngestStore::create(
        Arc::clone(&fs),
        ROOT,
        bora_ingest::IngestConfig::default(),
        &mut ctx,
    )
    .expect("create ingest root");
    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));

    let script = timeline(400);
    let half = script.len() / 2;

    // --- 2. Record the first half through the batching writer. ---
    let conn = ServeClient::connect(&transport).expect("writer connect");
    let mut recorder = IngestClient::new(conn, ROOT, IngestBatching::default());
    for (topic, t, data) in &script[..half] {
        recorder.write(topic, *t, data).expect("append");
    }
    recorder.flush().expect("group commit");
    println!("recorder: {} messages durable (epoch moves per batch)", recorder.appended());

    // --- 3. A mid-recording query: served from WAL + memtable only. ---
    let mut analyst = ServeClient::connect(&transport).expect("analyst connect");
    let mid: Vec<ChunkMessage> = analyst
        .read_stream(ROOT, &TOPICS)
        .expect("mid-recording stream")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream frames");
    println!("mid-recording query: {} messages, all still in the live layers", mid.len());
    assert_eq!(mid.len(), half);
    assert!(mid.windows(2).all(|p| p[0].time <= p[1].time), "stream is chronological");

    // --- 4. Recording continues; then seal + compact in the background. ---
    for (topic, t, data) in &script[half..] {
        recorder.write(topic, *t, data).expect("append");
    }
    recorder.flush().expect("group commit");
    let (epoch, pending) = recorder.seal(true).expect("seal + compact");
    println!("sealed + compacted at epoch {epoch}; {pending} sealed batches left behind");
    assert_eq!(pending, 0);

    // --- 5. Same query again: now served from the compacted container —
    // and the mid-recording answer is a byte-identical prefix of it. ---
    let full: Vec<ChunkMessage> = analyst
        .read_stream(ROOT, &TOPICS)
        .expect("post-compaction stream")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream frames");
    assert_eq!(full.len(), script.len());
    assert_eq!(&full[..mid.len()], &mid[..], "layers must never change the bytes");
    println!(
        "post-compaction query: {} messages; first {} byte-identical to the live answer",
        full.len(),
        mid.len()
    );

    // --- 6. What the server saw: `stats()`, the `STATS` view of one
    // `METRICS` scrape. ---
    let snap = analyst.stats().expect("stats");
    for (op, s) in &snap.ops {
        if s.count > 0 {
            println!(
                "  {op:<12} n={:<4} wall mean {:>8.1} us",
                s.count,
                s.wall_mean_ns as f64 / 1e3
            );
        }
    }
    let mut writer_conn = recorder.finish().expect("writer finish");
    writer_conn.shutdown().expect("shutdown");
    server.shutdown();
    println!("done: a query mid-recording reads the same bytes the archive will hold");
}
