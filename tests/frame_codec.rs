//! The frame codec on the data the wall-clock benchmark serves.
//!
//! `encode_frame` decides early whether a block is worth compressing
//! (`rosbag::compress::compress_bounded`). On every 64 KiB block, every
//! wire chunk the server builds and every 32-message batch (the chunk of
//! a read of 2 KiB messages) of the `hs` data set that early verdict must be
//! the full pass's verdict — that is what keeps
//! `stored_bytes_per_user_byte` where it was — and the served payloads
//! must reach their frame in one counted copy.

use std::sync::Arc;

use bora::block::{decode_frame, encode_frame, DEFAULT_BLOCK_SIZE, FRAME_HEADER_LEN};
use bora::{BlockCodec, BlockParams, OrganizerOptions};
use bora_serve::{
    compress_chunk, MemTransport, Response, ServeClient, Server, ServerConfig, WireMessage,
};
use rosbag::{BagReader, MessageRecord};
use simfs::{IoCtx, MemStorage};
use workloads::tum::{self, topic, GenOptions};

/// `bora-serve`'s floors of a read chunk: it closes once it holds this
/// many messages and one stored block of payload (the frame limit, the
/// other rule, is far above any chunk of `hs`).
const STREAM_CHUNK_MSGS: usize = 32;

/// `scan` cut where the server closes its chunks.
fn server_chunks(scan: &[WireMessage]) -> Vec<&[WireMessage]> {
    let (mut chunks, mut start, mut payload) = (Vec::new(), 0, 0);
    for (i, m) in scan.iter().enumerate() {
        payload += m.data.len();
        if i + 1 - start >= STREAM_CHUNK_MSGS && payload >= DEFAULT_BLOCK_SIZE as usize {
            chunks.push(&scan[start..=i]);
            (start, payload) = (i + 1, 0);
        }
    }
    if start < scan.len() {
        chunks.push(&scan[start..]);
    }
    chunks
}

/// The benchmark's two scans: the five small topics, the two image topics.
const SCANS: [&[&str]; 2] = [
    &[topic::RGB_CAMERA_INFO, topic::DEPTH_CAMERA_INFO, topic::MARKER_ARRAY, topic::IMU, topic::TF],
    &[topic::DEPTH_IMAGE, topic::RGB_IMAGE],
];

/// The `hs` bag of `benchmark/` (`count_scale` aside), read back in the
/// baseline reader's `(time, conn)` order — the order the k-way merge
/// serves, so the batches below are the server's batches.
fn hs(fs: &MemStorage, count_scale: f64, seed: u64) -> Vec<MessageRecord> {
    let ctx = &mut IoCtx::new();
    let opts = GenOptions { count_scale, payload_scale: 0.02, seed, ..Default::default() };
    tum::generate_bag(fs, "/hs.bag", &opts, ctx).unwrap();
    let reader = BagReader::open(fs, "/hs.bag", ctx).unwrap();
    let topics: Vec<&str> = tum::TUM_TOPICS.iter().map(|t| t.name).collect();
    reader.read_messages(&topics, ctx).unwrap()
}

/// `frame` is what the bounded encoder made of `logical`; the full pass
/// must agree on whether it compresses, and on the bytes when it does.
fn assert_full_pass_agrees(frame: &[u8], logical: &[u8], lz: &mut usize, what: &str) {
    let full = rosbag::compress::compress(logical);
    let stored = &frame[FRAME_HEADER_LEN..];
    if full.len() < logical.len() {
        assert_eq!(
            frame[0],
            BlockCodec::Lzss.id(),
            "{what}: gave up on input the full pass shrinks"
        );
        assert_eq!(stored, full, "{what}");
        *lz += 1;
    } else {
        assert_eq!(frame[0], BlockCodec::None.id(), "{what}");
        assert_eq!(stored, logical, "{what}");
    }
}

fn verdicts_agree_on_hs(seed: u64) {
    let mission = hs(&MemStorage::new(), 1.0, seed);
    let ctx = &mut IoCtx::new();
    let (mut frames, mut lz) = (0, 0);

    for spec in &tum::TUM_TOPICS {
        let logical: Vec<u8> = mission
            .iter()
            .filter(|m| m.topic == spec.name)
            .flat_map(|m| m.data.iter().copied())
            .collect();
        for (i, block) in logical.chunks(DEFAULT_BLOCK_SIZE as usize).enumerate() {
            let frame = encode_frame(BlockCodec::Lzss, block, ctx);
            assert_full_pass_agrees(&frame, block, &mut lz, &format!("{} block {i}", spec.name));
            frames += 1;
        }
    }
    let blocks = frames;

    for topics in SCANS {
        let scan: Vec<WireMessage> = mission
            .iter()
            .filter(|m| topics.contains(&m.topic.as_str()))
            .map(|m| WireMessage { topic: m.topic.clone(), time: m.time, data: m.data.clone() })
            .collect();
        let batches: Vec<&[WireMessage]> = scan.chunks(STREAM_CHUNK_MSGS).collect();
        for (shape, batches) in [("chunk", server_chunks(&scan)), ("batch", batches)] {
            for (i, batch) in batches.into_iter().enumerate() {
                let Response::StreamChunkLz(frame) = compress_chunk(batch, ctx) else {
                    panic!("compress_chunk answers StreamChunkLz")
                };
                let (body, _) = decode_frame(&frame, "chunk", ctx).unwrap();
                let what = format!("{topics:?} {shape} {i}");
                assert_full_pass_agrees(&frame, &body, &mut lz, &what);
                frames += 1;
            }
        }
    }

    // Not vacuous: the data set has both kinds, in both shapes.
    assert!(blocks > 1000 && frames - blocks > 1900, "{blocks} blocks, {frames} frames");
    assert!(lz > 100 && frames - lz > 900, "{lz} of {frames} frames compressed");
}

#[test]
fn early_verdict_is_the_full_pass_verdict_on_hs_seed_1() {
    verdicts_agree_on_hs(1);
}

#[test]
fn early_verdict_is_the_full_pass_verdict_on_hs_seed_2() {
    verdicts_agree_on_hs(2);
}

/// A streamed scan copies each payload byte once on the server — pool
/// page (or read buffer) into the chunk's frame buffer — and says so in
/// `stream.bytes_copied`. (No other test of this file streams, so the
/// process-wide counter is this test's own.)
#[test]
fn streamed_scan_counts_one_copy_per_payload_byte() {
    let fs = Arc::new(MemStorage::new());
    let mission = hs(&fs, 0.02, 1);
    let ctx = &mut IoCtx::new();
    let opts = OrganizerOptions { block: Some(BlockParams::default()), ..Default::default() };
    bora::duplicate(&*fs, "/hs.bag", &*fs, "/c", &opts, ctx).unwrap();

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let mut client = ServeClient::connect(&MemTransport::new(Arc::clone(&server))).unwrap();
    let copied = bora_obs::counter("stream.bytes_copied");
    for topics in SCANS {
        let expected: Vec<&MessageRecord> =
            mission.iter().filter(|m| topics.contains(&m.topic.as_str())).collect();
        let before = copied.get();
        let got: Vec<_> = client.read_stream("/c", topics).unwrap().map(|m| m.unwrap()).collect();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!((&g.topic, g.time, &g.data), (&e.topic, e.time, &e.data));
        }
        let payload: u64 = expected.iter().map(|m| m.data.len() as u64).sum();
        assert_eq!(copied.get() - before, payload, "{topics:?}");
    }
    drop(client);
    server.shutdown();
}
