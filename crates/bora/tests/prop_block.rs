//! Property tests for the block-framed storage format (`bora::block`).
//!
//! The deterministic unit tests in `block.rs` pin known shapes; these
//! sweep randomized payload sets across every codec and odd block sizes
//! to hold the format's core promises:
//!
//! * encode → decode is **byte-identical**, end-to-end and per block;
//! * any single flipped byte surfaces a **typed** error — payload
//!   corruption specifically as [`BoraError::ChecksumMismatch`] — never
//!   a panic and never silently wrong bytes;
//! * torn (truncated) frames fail typed too;
//! * at container level, a corrupt block quarantines its topic: the
//!   first read reports the mismatch, later reads get `TopicDamaged`,
//!   sibling topics keep serving;
//! * a topic's files are a function of its message sequence, not of how
//!   many sittings wrote them: `create → push prefix → finish`, then
//!   `resume → push suffix → finish`, equals one sitting file for file.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

use bora::block::{decode_frame, decode_frames, FRAME_HEADER_LEN};
use bora::meta::TopicMeta;
use bora::writer::ContainerWriter;
use bora::{BlockCodec, BlockMap, BlockParams, BlockWriter, BoraError, Manifest, ManifestEntry};
use ros_msgs::Time;
use simfs::{IoCtx, MemStorage, Storage};

/// Payload mix an ingest shard actually sees: runs of repetitive bytes
/// (compressible), short counters, and PRNG-ish noise (incompressible).
fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(
        (0u8..4, 0usize..160).prop_map(|(kind, len)| match kind {
            0 => vec![0xAB; len],
            1 => (0..len).map(|i| (i % 7) as u8).collect(),
            2 => {
                let mut x = 0x9E37_79B9u32 ^ len as u32;
                (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        (x >> 24) as u8
                    })
                    .collect()
            }
            _ => Vec::new(),
        }),
        0..24,
    )
}

fn arb_codec() -> impl Strategy<Value = BlockCodec> {
    select(vec![BlockCodec::None, BlockCodec::Lzss])
}

fn write_blocks(
    codec: BlockCodec,
    block_size: u32,
    payloads: &[Vec<u8>],
) -> (Vec<u8>, BlockMap, Vec<u8>) {
    let mut ctx = IoCtx::new();
    let mut w = BlockWriter::new(BlockParams { codec, block_size });
    let (mut logical, mut frames) = (Vec::new(), Vec::new());
    for (i, p) in payloads.iter().enumerate() {
        w.push(Time::new(i as u32, 0), p, &mut frames, &mut ctx);
        logical.extend_from_slice(p);
    }
    let map = w.finish(&mut frames, &mut ctx);
    (frames, map, logical)
}

/// How one message of the sittings test is shaped, relative to the block
/// size and to what the topic already holds.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Empty,
    Small(usize),
    /// Ends exactly on the next block boundary.
    ToBoundary,
    /// A block and this much more.
    OverABlock(usize),
}

fn arb_shapes() -> impl Strategy<Value = Vec<(Shape, u64)>> {
    let shape = prop_oneof![
        Just(Shape::Empty),
        (1usize..40).prop_map(Shape::Small),
        Just(Shape::ToBoundary),
        (0usize..70).prop_map(Shape::OverABlock),
    ];
    // Time steps of 0 keep equal stamps in play.
    vec((shape, 0u64..3), 0..20)
}

/// The messages `shapes` describe at `block_size`: compressible and
/// incompressible stretches alternate.
fn shaped_messages(shapes: &[(Shape, u64)], block_size: usize) -> Vec<(Time, Vec<u8>)> {
    let (mut at, mut now, mut x) = (0usize, 0u64, 0x9E37_79B9u32);
    shapes
        .iter()
        .enumerate()
        .map(|(i, (shape, dt))| {
            let len = match *shape {
                Shape::Empty => 0,
                Shape::Small(n) => n,
                Shape::ToBoundary => block_size - at % block_size,
                Shape::OverABlock(extra) => block_size + extra,
            };
            at += len;
            now += dt;
            let payload = (0..len)
                .map(|j| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    if i % 2 == 0 {
                        (j % 5) as u8
                    } else {
                        (x >> 24) as u8
                    }
                })
                .collect();
            (Time::from_nanos(now), payload)
        })
        .collect()
}

/// What `finish` reports about a topic.
type Finished = (TopicMeta, Option<(Time, Time)>, Vec<ManifestEntry>);

/// One sitting of the writer: a container at `root` holding `/t`, resumed
/// from the committed container `from` when there is one.
fn sitting(
    fs: &MemStorage,
    root: &str,
    block: Option<BlockParams>,
    flush_at: usize,
    from: Option<&str>,
    msgs: &[(Time, Vec<u8>)],
) -> Finished {
    let ctx = &mut IoCtx::new();
    let meta = TopicMeta { topic: "/t".into(), datatype: "x/T".into(), ..TopicMeta::default() };
    let c = ContainerWriter::begin(fs, root, block, 4, flush_at, ctx).unwrap();
    let mut w = match from {
        Some(old) => {
            let manifest = Manifest::load(fs, old, ctx).unwrap().unwrap();
            c.resume_topic(fs, meta, (old, &manifest), ctx).unwrap()
        }
        None => c.topic(fs, meta, ctx).unwrap(),
    };
    for (time, payload) in msgs {
        w.push(fs, *time, payload, ctx).unwrap();
    }
    let done = w.finish(fs, ctx).unwrap();
    let reported = (done.meta.clone(), done.span, done.files.clone());
    c.commit(fs, vec![done], 0, None, ctx).unwrap();
    reported
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resume_then_finish_equals_one_sitting(
        shapes in arb_shapes(),
        split in 0usize..64,
        block in select(vec![
            None,
            Some(BlockParams { codec: BlockCodec::None, block_size: 16 }),
            Some(BlockParams { codec: BlockCodec::Lzss, block_size: 16 }),
            Some(BlockParams { codec: BlockCodec::None, block_size: 100 }),
            Some(BlockParams { codec: BlockCodec::Lzss, block_size: 257 }),
            Some(BlockParams { codec: BlockCodec::Lzss, block_size: 4096 }),
        ]),
        flush_at in select(vec![1usize, 300, usize::MAX]),
    ) {
        let msgs = shaped_messages(&shapes, block.map_or(64, |b| b.block_size as usize));
        let split = split % (msgs.len() + 1);
        let fs = MemStorage::new();
        sitting(&fs, "/first", block, flush_at, None, &msgs[..split]);
        let resumed = sitting(&fs, "/second", block, flush_at, Some("/first"), &msgs[split..]);
        let whole = sitting(&fs, "/whole", block, flush_at, None, &msgs);

        prop_assert_eq!(&resumed, &whole);
        let ctx = &mut IoCtx::new();
        let (a, b) = (
            Manifest::load(&fs, "/second", ctx).unwrap().unwrap(),
            Manifest::load(&fs, "/whole", ctx).unwrap().unwrap(),
        );
        prop_assert_eq!(&a, &b);
        for e in a.entries() {
            let second = fs.read_all(&format!("/second/{}", e.path), ctx).unwrap();
            let whole = fs.read_all(&format!("/whole/{}", e.path), ctx).unwrap();
            prop_assert!(second == whole, "{} differs", e.path);
        }
    }

    #[test]
    fn roundtrip_is_byte_identical(
        payloads in arb_payloads(),
        codec in arb_codec(),
        block_size in select(vec![16u32, 48, 64, 257, 1024]),
    ) {
        let (frames, map, logical) = write_blocks(codec, block_size, &payloads);
        let mut ctx = IoCtx::new();
        prop_assert_eq!(map.logical_len, logical.len() as u64);
        let decoded = decode_frames(&frames, "t/data", &mut ctx).unwrap();
        prop_assert_eq!(&decoded, &logical);
        // Random access through the map agrees with the sequential view.
        for (i, e) in map.entries.iter().enumerate() {
            let (start, len) = map.logical_range(i);
            let frame = &frames[e.phys_off as usize..(e.phys_off + e.frame_len as u64) as usize];
            let (block, used) = decode_frame(frame, "t/data", &mut ctx).unwrap();
            prop_assert_eq!(used as u32, e.frame_len);
            prop_assert_eq!(&block[..], &logical[start as usize..start as usize + len]);
        }
        // The map survives its own wire encoding.
        prop_assert_eq!(BlockMap::decode(&map.encode()).unwrap(), map);
    }

    #[test]
    fn corruption_is_typed_never_silent(
        payloads in arb_payloads(),
        codec in arb_codec(),
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let (frames, map, _logical) = write_blocks(codec, 64, &payloads);
        if map.entries.is_empty() {
            return Err(TestCaseError::reject("all payloads empty"));
        }
        let mut ctx = IoCtx::new();
        // Aim the flip at one frame, wrapping the position into it.
        let e = map.entries[flip_pos % map.entries.len()];
        let lo = e.phys_off as usize;
        let mut frame = frames[lo..lo + e.frame_len as usize].to_vec();
        let pos = flip_pos % frame.len();
        frame[pos] ^= 1 << flip_bit;
        match decode_frame(&frame, "imu/data", &mut ctx) {
            // Payload corruption must be the *typed* mismatch, so the
            // read path can quarantine and the tooling can report it.
            Err(BoraError::ChecksumMismatch { path, .. }) if pos >= FRAME_HEADER_LEN => {
                prop_assert_eq!(path, "imu/data");
            }
            // Header corruption may fail earlier (bad codec tag, bad
            // lengths) — any typed error is fine; silence is not.
            Err(_) => {}
            Ok(_) => prop_assert!(false, "flipped bit {flip_bit} at {pos} decoded Ok"),
        }
    }

    #[test]
    fn torn_frames_fail_typed(
        payloads in arb_payloads(),
        codec in arb_codec(),
        cut_at in 0usize..4096,
    ) {
        let (frames, map, _logical) = write_blocks(codec, 64, &payloads);
        if map.entries.is_empty() {
            return Err(TestCaseError::reject("all payloads empty"));
        }
        let mut ctx = IoCtx::new();
        let e = map.entries[0];
        let frame = &frames[e.phys_off as usize..(e.phys_off + e.frame_len as u64) as usize];
        let cut = cut_at % frame.len();
        prop_assert!(decode_frame(&frame[..cut], "t/data", &mut ctx).is_err());
    }
}

/// Container-level quarantine: a flipped payload byte inside one topic's
/// block file poisons that topic only — typed error first, `TopicDamaged`
/// after, sibling topics unaffected.
#[test]
fn corrupt_block_quarantines_only_its_topic() {
    use ros_msgs::sensor_msgs::Imu;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::{MemStorage, Storage};

    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(&fs, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..50u32 {
        let t = Time::new(100 + i, 0);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        w.write_ros_message("/imu2", t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    let opts = bora::OrganizerOptions {
        block: Some(BlockParams { codec: BlockCodec::Lzss, block_size: 4096 }),
        ..Default::default()
    };
    bora::duplicate(&fs, "/m.bag", &fs, "/c", &opts, &mut ctx).unwrap();

    // Flip one payload byte of /imu's block-framed data file.
    let data = "/c/imu/data";
    let off = FRAME_HEADER_LEN as u64 + 3;
    let byte = fs.read_at(data, off, 1, &mut ctx).unwrap()[0];
    fs.write_at(data, off, &[byte ^ 0x40], &mut ctx).unwrap();

    let bag = bora::BoraBag::open(&fs, "/c", &mut ctx).unwrap();
    match bag.read_topic_raw("/imu", &mut ctx) {
        Err(BoraError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| "Ok(..)")),
    }
    match bag.read_topic_raw("/imu", &mut ctx) {
        Err(BoraError::TopicDamaged(t)) => assert_eq!(t, "/imu"),
        other => panic!("expected TopicDamaged, got {:?}", other.map(|_| "Ok(..)")),
    }
    let (index, _) = bag.read_topic_raw("/imu2", &mut ctx).unwrap();
    assert_eq!(index.len(), 50, "sibling topic must keep serving");
}
