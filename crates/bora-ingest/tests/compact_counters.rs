//! What a compaction copies and what it makes anew, by the counters.
//!
//! `compact.bytes` counts every byte a compaction writes; of those,
//! `compact.adopted_bytes` were appended as the old generation had them.
//! The difference is the work that grows with what was sealed, not with
//! the root. The counters are process-global: this file holds one test
//! and nothing else, so that they move for its compactions alone.

use bora::block::{BlockCodec, BlockParams, FRAME_HEADER_LEN};
use bora::Manifest;
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::Time;
use simfs::{IoCtx, MemStorage};

const BLOCK_SIZE: u32 = 1024;
const TOPICS: [&str; 2] = ["/imu", "/cam"];

#[test]
fn a_compaction_makes_anew_only_what_was_sealed() {
    let fs = MemStorage::new();
    let ctx = &mut IoCtx::new();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: BLOCK_SIZE });
    let cfg = IngestConfig { wal_shards: 2, group_commit: 8, window_ns: 1_000_000, block };
    let st = IngestStore::create(&fs, "/live", cfg, ctx).unwrap();
    // Noise, so that stored bytes are payload bytes plus frame headers.
    let mut x = 0x2545_F491u32;
    let mut append = |range: std::ops::Range<u64>, ctx: &mut IoCtx| -> u64 {
        let mut bytes = 0;
        for i in range {
            let payload: Vec<u8> = (0..300)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (x >> 24) as u8
                })
                .collect();
            st.append(TOPICS[(i % 2) as usize], Time::from_nanos(i * 1_000), &payload, ctx)
                .unwrap();
            bytes += payload.len() as u64;
        }
        bytes
    };
    let written = bora_obs::counter("compact.bytes");
    let adopted = bora_obs::counter("compact.adopted_bytes");

    // The root: 600 KB in generation 1, nothing to adopt from generation 0.
    let root_bytes = append(0..2_000, ctx);
    st.seal(ctx).unwrap();
    st.compact(ctx).unwrap();
    assert!(written.get() >= root_bytes);
    assert_eq!(adopted.get(), 0);

    // Forty more messages on top of it.
    let (written0, new_bytes) = (written.get(), append(2_000..2_040, ctx));
    st.seal(ctx).unwrap();
    assert_eq!(st.compact(ctx).unwrap(), 2);
    let (written, adopted) = (written.get() - written0, adopted.get());
    assert!(written >= root_bytes + new_bytes, "every byte of generation 2 is written");

    // Made anew: the new payloads framed, each topic's reopened partial
    // block, and the three small files, which are rebuilt whole.
    let manifest = Manifest::load(&fs, "/live/gen/C00000002", ctx).unwrap().unwrap();
    let small_files: u64 =
        manifest.entries().iter().filter(|e| !e.path.ends_with("/data")).map(|e| e.len).sum();
    let frame = (BLOCK_SIZE as usize + FRAME_HEADER_LEN) as u64;
    let new_frames = new_bytes / BLOCK_SIZE as u64 + 1;
    let bound = new_bytes
        + new_frames * FRAME_HEADER_LEN as u64
        + TOPICS.len() as u64 * frame
        + small_files;
    assert!(written - adopted <= bound, "{written} written, {adopted} adopted, bound {bound}");
    assert!(bound * 5 < root_bytes, "the bound ({bound}) is not the root ({root_bytes})");
    // Adopted: everything of generation 1 but those partial blocks.
    assert!(adopted + TOPICS.len() as u64 * frame >= root_bytes, "{adopted} of {root_bytes}");
}
