//! One count rule for every decoder: an element count read from the input
//! is checked against the bytes left before anything is reserved for it
//! (`ros_msgs::wire::WireRead::get_count` / `fits`). A `u32::MAX` — or,
//! for a `u16` list, `u16::MAX` — count is the typed "implausible length
//! prefix" error, not a reservation followed by a truncation error.

use std::sync::Arc;

use std::collections::VecDeque;

use bora::block::{encode_frame_in_place, BlockCodec, BlockEntry, BlockMap, FRAME_HEADER_LEN};
use bora::checksum::crc32c;
use bora::meta::{ContainerMeta, TopicMeta};
use bora::{Manifest, ManifestEntry};
use bora_ingest::segment::SealedFile;
use bora_ingest::{IngestMessage, SealMarker, Segment};
use bora_query::{decode_rows, encode_rows, Value};
use bora_serve::proto::{stream_chunk, ChunkTopics};
use bora_serve::{MetricsReport, Request, Response, WireMessage};
use ros_msgs::Time;

/// A valid encoding, where its count sits, and the decoder.
struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    /// Offset and width (2 or 4) of the count.
    count_at: (usize, usize),
    /// Re-seals the checksum over the count, which the patched count must
    /// not fail first.
    reseal: fn(&mut [u8]),
    decode: fn(&[u8]) -> Result<(), String>,
}

fn msgs() -> Vec<WireMessage> {
    vec![
        WireMessage { topic: "/imu".into(), time: Time::new(1, 2), data: vec![7; 9] },
        WireMessage { topic: "/tf".into(), time: Time::new(1, 3), data: vec![] },
    ]
}

/// No checksum covers the count.
fn unsealed(_: &mut [u8]) {}

/// The encoding ends in a CRC32C of everything before it.
fn trailer(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// A read chunk reply (opcode, frame length, block frame): the block
/// frame's CRC32C, in its header, covers the stored bytes after it.
fn chunk_frame(bytes: &mut [u8]) {
    let stored = 5 + FRAME_HEADER_LEN;
    let crc = crc32c(&bytes[stored..]);
    bytes[stored - 4..stored].copy_from_slice(&crc.to_le_bytes());
}

/// `msgs()` as a raw read chunk, the reply a server sends.
fn raw_chunk() -> Vec<u8> {
    // An owned chunk's body after its opcode is a read chunk's logical
    // bytes: the count, then the messages.
    let plain = Response::StreamChunk(msgs()).encode();
    let mut buf = vec![0; FRAME_HEADER_LEN];
    buf.extend_from_slice(&plain[1..]);
    let frame = encode_frame_in_place(BlockCodec::None, buf, &mut simfs::IoCtx::new());
    Response::StreamChunkLz(frame).encode()
}

fn cases() -> Vec<Case> {
    let manifest = Manifest::new(vec![
        ManifestEntry { path: "imu/data".into(), len: 9, crc32c: 1 },
        ManifestEntry { path: ".bora".into(), len: 3, crc32c: 2 },
    ])
    .unwrap();
    let meta = ContainerMeta {
        topics: vec![TopicMeta { topic: "/imu".into(), ..TopicMeta::default() }],
        ..ContainerMeta::default()
    };
    let map = BlockMap {
        codec: BlockCodec::Lzss,
        block_size: 64,
        logical_len: 100,
        entries: vec![
            BlockEntry { phys_off: 0, frame_len: 30, first_time: Time::new(1, 0) },
            BlockEntry { phys_off: 30, frame_len: 20, first_time: Time::new(2, 0) },
        ],
    };
    let segment = Segment {
        topic: "/imu".into(),
        seal_seq: 3,
        msgs: vec![IngestMessage { time: Time::new(1, 0), seq: 4, data: Arc::from(&b"abc"[..]) }],
    };
    let seal = SealMarker {
        seal_seq: 3,
        last_wal_seq: 4,
        files: vec![SealedFile { name: "00000003-imu.seg".into(), len: 50, crc32c: 9 }],
    };
    let append = Request::Append { container: "/live".into(), messages: msgs() };
    let metrics = MetricsReport { counters: vec![("a".into(), 1)], ..MetricsReport::default() };
    let rows = encode_rows(&[vec![Value::Int(1), Value::Null], vec![]]);
    let response = |bytes: &[u8]| Response::decode(bytes).map(drop).map_err(|e| e.to_string());
    vec![
        Case {
            name: "MANIFEST",
            bytes: manifest.encode(),
            count_at: (8, 4),
            reseal: trailer,
            decode: |b| Manifest::decode(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: ".bora metadata",
            bytes: meta.encode(),
            count_at: (40, 4),
            reseal: unsealed,
            decode: |b| ContainerMeta::decode(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: "blocks map",
            bytes: map.encode(),
            count_at: (21, 4),
            reseal: unsealed,
            decode: |b| BlockMap::decode(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: ".seg segment",
            bytes: segment.encode(),
            count_at: (4 + 8 + 4 + "/imu".len(), 4),
            reseal: trailer,
            decode: |b| Segment::decode(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: ".seal marker",
            bytes: seal.encode(),
            count_at: (4 + 8 + 8, 4),
            reseal: trailer,
            decode: |b| SealMarker::decode(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: "APPEND request",
            bytes: append.encode_framed(None, None),
            count_at: (2 + 2 + "/live".len(), 4),
            reseal: unsealed,
            decode: |b| Request::decode_framed(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: "STREAM_CHUNK response",
            bytes: Response::StreamChunk(msgs()).encode(),
            count_at: (1, 4),
            reseal: unsealed,
            decode: response,
        },
        Case {
            name: "raw STREAM_CHUNK_LZ, the client's chunk decoder",
            bytes: raw_chunk(),
            count_at: (5 + FRAME_HEADER_LEN, 4),
            reseal: chunk_frame,
            decode: |b| {
                let mut frame = [&[0u8; 4][..], b].concat();
                let mut out = VecDeque::<WireMessage>::new();
                let walked = stream_chunk(&mut frame, &mut ChunkTopics::default(), &mut out);
                match walked.map_err(|e| e.to_string())? {
                    Some(2) => Ok(()),
                    other => Err(format!("decoded {other:?} messages, not 2")),
                }
            },
        },
        Case {
            name: "TOPICS response",
            bytes: Response::Topics(vec!["/imu".into(), "/tf".into()]).encode(),
            count_at: (1, 2),
            reseal: unsealed,
            decode: response,
        },
        Case {
            name: "METRICS response",
            bytes: Response::Metrics(metrics).encode(),
            count_at: (1 + 4 + 4 + 8, 2),
            reseal: unsealed,
            decode: response,
        },
        Case {
            name: "query row blob",
            bytes: rows.clone(),
            count_at: (0, 4),
            reseal: unsealed,
            decode: |b| decode_rows(b).map(drop).map_err(|e| e.to_string()),
        },
        Case {
            name: "query row cells",
            bytes: rows,
            count_at: (4, 2),
            reseal: unsealed,
            decode: |b| decode_rows(b).map(drop).map_err(|e| e.to_string()),
        },
    ]
}

#[test]
fn every_decoder_rejects_a_count_its_input_cannot_hold() {
    for case in cases() {
        assert_eq!((case.decode)(&case.bytes), Ok(()), "{}: the valid encoding", case.name);
        let (at, width) = case.count_at;
        let mut bad = case.bytes.clone();
        bad[at..at + width].fill(0xFF);
        (case.reseal)(&mut bad);
        let max = if width == 4 { u32::MAX as u64 } else { u16::MAX as u64 };
        let err = (case.decode)(&bad).expect_err(case.name);
        assert!(err.contains(&format!("implausible length prefix: {max}")), "{}: {err}", case.name);
    }
}
