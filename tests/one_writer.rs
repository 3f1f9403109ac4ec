//! One container writer, many producers.
//!
//! Every producer of a container — the organizer, the online recorder,
//! the ingest compactor and `fsck`'s per-topic rebuild — drives
//! `bora::writer`. Two kinds of evidence hold that together:
//!
//! * **Differential**: the same per-topic message stream (the tiny `hs`
//!   bag, all seven topics) through every producer that supports the
//!   format yields byte-identical `data` / `index` / `tindex` / `blocks`
//!   — through the compactor in one round, and in five that each resume
//!   the generation before.
//! * **Golden**: the MANIFEST-order digest of `duplicate`'s output and of
//!   generation 1 of a create → seal → compact run, and the number of
//!   mutating storage ops each run issues, are pinned to the values the
//!   four private writers produced before they were replaced — "same
//!   bytes, same op count" is this test, not a sentence in a changelog.

use bora::block::{BlockCodec, BlockParams};
use bora::layout::TopicPaths;
use bora::time_index::DEFAULT_WINDOW_NS;
use bora::{fsck, BoraRecorder, Manifest, OrganizerOptions, RecorderOptions, RepairOutcome};
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::{md5, MessageDescriptor};
use rosbag::{BagReader, BagWriterOptions, MessageRecord};
use simfs::{FaultyStorage, IoCtx, MemStorage, Storage};
use workloads::tum::{generate_bag, GenOptions, TUM_TOPICS};

const BAG: &str = "/hs.bag";
const FILES: [&str; 4] = ["data", "index", "tindex", "blocks"];
const LZSS: Option<BlockParams> = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 4096 });
const RAW_BLOCKS: Option<BlockParams> =
    Some(BlockParams { codec: BlockCodec::None, block_size: 4096 });

/// A disk holding the tiny `hs` bag (~1 800 messages, ~430 KB).
fn disk_with_bag() -> MemStorage {
    let fs = MemStorage::new();
    let opts = GenOptions {
        count_scale: 0.03,
        payload_scale: 0.005,
        seed: 99,
        writer: BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        ..Default::default()
    };
    generate_bag(&fs, BAG, &opts, &mut IoCtx::new()).unwrap();
    fs
}

/// A write buffer far below the image topics' size, so the organizer's
/// flush cadence (several appends per `data` file) is part of what the
/// goldens pin.
fn organizer_opts(block: Option<BlockParams>) -> OrganizerOptions {
    OrganizerOptions { write_buffer: 16 * 1024, block, ..OrganizerOptions::default() }
}

fn ingest_cfg(block: Option<BlockParams>) -> IngestConfig {
    IngestConfig { wal_shards: 2, group_commit: 8, window_ns: DEFAULT_WINDOW_NS, block }
}

/// Every message of the bag in `(time, conn)` order.
fn messages(fs: &MemStorage) -> Vec<MessageRecord> {
    let ctx = &mut IoCtx::new();
    let topics: Vec<&str> = TUM_TOPICS.iter().map(|t| t.name).collect();
    BagReader::open(fs, BAG, ctx).unwrap().read_messages(&topics, ctx).unwrap()
}

/// MD5 over (path, content) in MANIFEST order: equal digests mean the
/// containers are byte-identical file for file.
fn container_digest<S: Storage>(storage: &S, root: &str) -> String {
    let ctx = &mut IoCtx::new();
    let manifest = Manifest::load(storage, root, ctx).expect("committed ⇒ MANIFEST");
    let mut acc = Vec::new();
    for e in manifest.entries() {
        acc.extend_from_slice(e.path.as_bytes());
        acc.push(0);
        acc.extend_from_slice(&storage.read_all(&format!("{root}/{}", e.path), ctx).unwrap());
    }
    md5::hex_digest(&acc)
}

/// One topic's files (`None` where the format has no such file).
fn topic_files<S: Storage>(storage: &S, root: &str, topic: &str) -> Vec<Option<Vec<u8>>> {
    let ctx = &mut IoCtx::new();
    let dir = TopicPaths::new(root, topic).dir;
    FILES
        .iter()
        .map(|f| {
            let path = format!("{dir}/{f}");
            storage.exists(&path, ctx).then(|| storage.read_all(&path, ctx).unwrap())
        })
        .collect()
}

fn assert_same_topic_files<S: Storage>(fs: &S, reference: &str, other: &str, what: &str) {
    for spec in &TUM_TOPICS {
        let (a, b) = (topic_files(fs, reference, spec.name), topic_files(fs, other, spec.name));
        for ((a, b), file) in a.iter().zip(&b).zip(FILES) {
            assert!(a == b, "{what}: {}/{file} differs from the organizer's", spec.name);
        }
    }
}

/// create → append everything → seal → compact; returns the root of
/// generation 1.
fn ingest_one_round<S: Storage + Clone>(
    fs: S,
    root: &str,
    block: Option<BlockParams>,
    msgs: &[MessageRecord],
) -> String {
    let ctx = &mut IoCtx::new();
    let st = IngestStore::create(fs, root, ingest_cfg(block), ctx).unwrap();
    for m in msgs {
        st.append(&m.topic, m.time, &m.data, ctx).unwrap();
    }
    st.seal(ctx).unwrap();
    assert_eq!(st.compact(ctx).unwrap(), 1);
    let gen_root = st.snapshot(ctx).unwrap().container_root().to_owned();
    gen_root
}

/// What the four private writers produced at the commit before
/// `bora::writer` replaced them.
struct Golden {
    organize_digest: &'static str,
    organize_mutations: u64,
    generation_digest: &'static str,
    ingest_mutations: u64,
}

const GOLDEN_V1: Golden = Golden {
    organize_digest: "436f4daa0e50e70bbb4c7a9cdd69443b",
    organize_mutations: 84,
    generation_digest: "4989f6cb602d47f714c527ab6461b2cc",
    ingest_mutations: 532,
};

const GOLDEN_LZSS: Golden = Golden {
    organize_digest: "5b0532127406fde276d20c7d08a0b0f6",
    organize_mutations: 70,
    generation_digest: "9c8703f0cbbb088ee66e4c67d1e4926c",
    ingest_mutations: 539,
};

fn assert_golden(block: Option<BlockParams>, golden: &Golden) {
    let fs = FaultyStorage::new(disk_with_bag());
    let msgs = messages(fs.inner());

    let before = fs.mutations();
    bora::duplicate(&fs, BAG, &fs, "/org", &organizer_opts(block), &mut IoCtx::new()).unwrap();
    let organize_mutations = fs.mutations() - before;
    let organize_digest = container_digest(&fs, "/org");

    let before = fs.mutations();
    let gen_root = ingest_one_round(&fs, "/live", block, &msgs);
    let ingest_mutations = fs.mutations() - before;
    let generation_digest = container_digest(&fs, &gen_root);

    println!(
        "golden {block:?}: organize {organize_digest} / {organize_mutations} ops, \
         generation 1 {generation_digest} / {ingest_mutations} ops"
    );
    assert_eq!(organize_digest, golden.organize_digest, "organizer bytes moved");
    assert_eq!(organize_mutations, golden.organize_mutations, "organizer op count moved");
    assert_eq!(generation_digest, golden.generation_digest, "compacted bytes moved");
    assert_eq!(ingest_mutations, golden.ingest_mutations, "ingest op count moved");
}

#[test]
fn golden_v1_bytes_and_op_counts() {
    assert_golden(None, &GOLDEN_V1);
}

#[test]
fn golden_lzss_bytes_and_op_counts() {
    assert_golden(LZSS, &GOLDEN_LZSS);
}

/// The differential: every producer that supports `block` against the
/// organizer's container.
fn assert_producers_agree(block: Option<BlockParams>) {
    let fs = disk_with_bag();
    let ctx = &mut IoCtx::new();
    let msgs = messages(&fs);
    let opts = organizer_opts(block);
    bora::duplicate(&fs, BAG, &fs, "/org", &opts, ctx).unwrap();

    // The recorder writes v1 only.
    if block.is_none() {
        let reader = BagReader::open(&fs, BAG, ctx).unwrap();
        let mut rec = BoraRecorder::create(
            &fs,
            "/rec",
            RecorderOptions { window_ns: opts.window_ns, write_buffer: 16 * 1024 },
            ctx,
        )
        .unwrap();
        for c in &reader.index().connections {
            let desc = MessageDescriptor {
                datatype: c.datatype.clone(),
                md5sum: c.md5sum.clone(),
                definition: c.definition.clone(),
            };
            rec.subscribe(&c.topic, &desc, ctx).unwrap();
        }
        for m in &msgs {
            rec.record(&m.topic, m.time, &m.data, ctx).unwrap();
        }
        rec.close(ctx).unwrap();
        assert_same_topic_files(&fs, "/org", "/rec", "recorder");
    }

    // The compactor: one round, and five — every later round resumes the
    // generation before it. `/imu` first appears in round 3, round 4 has
    // nothing new on the colour images, and each topic's messages keep
    // their order, which is all the organizer's container depends on.
    let gen1 = ingest_one_round(&fs, "/live1", block, &msgs);
    assert_same_topic_files(&fs, "/org", &gen1, "compactor, one round");
    const ROUNDS: usize = 5;
    let mut rounds: [Vec<&MessageRecord>; ROUNDS] = Default::default();
    for (i, m) in msgs.iter().enumerate() {
        let round = match (m.topic.as_str(), i * ROUNDS / msgs.len()) {
            ("/imu", 0 | 1) => 2,
            ("/camera/rgb/image_color", 3) => 4,
            (_, round) => round,
        };
        rounds[round].push(m);
    }
    let st = IngestStore::create(&fs, "/live5", ingest_cfg(block), ctx).unwrap();
    for (round, msgs) in rounds.iter().enumerate() {
        assert!(msgs.iter().any(|m| m.topic == "/imu") == (round >= 2), "round {round}");
        assert!(msgs.iter().any(|m| m.topic == "/camera/rgb/image_color") == (round != 3));
        for m in msgs {
            st.append(&m.topic, m.time, &m.data, ctx).unwrap();
        }
        st.seal(ctx).unwrap();
        assert_eq!(st.compact(ctx).unwrap(), round as u64 + 1);
    }
    let gen5 = st.snapshot(ctx).unwrap().container_root().to_owned();
    assert_same_topic_files(&fs, "/org", &gen5, "compactor, five rounds");

    // `fsck`: damage every topic's `data` in a copy, rebuild from the bag.
    bora::organizer::copy_container(&fs, "/org", &fs, "/fixed", ctx).unwrap();
    for spec in &TUM_TOPICS {
        let data = TopicPaths::new("/fixed", spec.name).data;
        let byte = fs.read_at(&data, 20, 1, ctx).unwrap()[0];
        fs.write_at(&data, 20, &[byte ^ 0x40], ctx).unwrap();
    }
    let outcome =
        fsck::repair(&fs, "/fixed", Some((&fs, BAG)), &OrganizerOptions::default(), ctx).unwrap();
    assert_eq!(outcome, RepairOutcome::RepairedTopics(TUM_TOPICS.len()));
    assert_same_topic_files(&fs, "/org", "/fixed", "fsck rebuild");
    assert_eq!(container_digest(&fs, "/fixed"), container_digest(&fs, "/org"));
}

#[test]
fn producers_agree_v1() {
    assert_producers_agree(None);
}

#[test]
fn producers_agree_raw_blocks() {
    assert_producers_agree(RAW_BLOCKS);
}

#[test]
fn producers_agree_lzss_blocks() {
    assert_producers_agree(LZSS);
}
