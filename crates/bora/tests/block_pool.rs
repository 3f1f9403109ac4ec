//! What block framing and the buffer pool change, by bytes and counters:
//! nothing a reader sees, and only what they promise to.
//!
//! One structured IMU topic is organised twice — as a v1 container and
//! LZSS block-framed — and read through a pool, cold and then warm:
//!
//! * every scan returns the same messages, whatever the format and
//!   whether the pool is cold or warm;
//! * a warm scan fills nothing, and a v1 topic never enters the pool;
//! * a pool below the working set evicts and stays within its budget;
//!   one above it evicts nothing;
//! * block framing at least halves the topic's files, and a container
//!   copy (what heal ships) moves exactly the container's bytes — so the
//!   heal wire shrinks with the disk.

use std::sync::Arc;

use bora::organizer::copy_container;
use bora::{BlockCodec, BlockParams, BoraBag, BufferPool, OrganizerOptions, PoolStats};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions, MessageRecord};
use simfs::{EntryKind, IoCtx, MemStorage, Storage};

const TOPIC: &str = "/imu";
const MSGS: u32 = 4_000;
const BLOCK: usize = 8 * 1024;
const RAW: &str = "/c_raw";
const LZ: &str = "/c_lz";

/// The source bag, organised into a v1 and a block-framed container.
fn stage() -> MemStorage {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(&fs, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..MSGS {
        let t = Time::from_nanos(1_000_000_000 + u64::from(i) * 5_000_000);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        imu.angular_velocity.x = f64::from(i % 64) * 0.01;
        imu.linear_acceleration.z = 9.81;
        w.write_ros_message(TOPIC, t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&fs, "/m.bag", &fs, RAW, &OrganizerOptions::default(), &mut ctx).unwrap();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: BLOCK as u32 });
    let lz = OrganizerOptions { block, ..OrganizerOptions::default() };
    bora::duplicate(&fs, "/m.bag", &fs, LZ, &lz, &mut ctx).unwrap();
    fs
}

/// Two scans of the topic through `pool`: the messages and the pool's
/// counters after each.
fn scan_twice(
    fs: &MemStorage,
    root: &str,
    pool: &Arc<BufferPool>,
) -> [(Vec<MessageRecord>, PoolStats); 2] {
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(fs, root, &mut ctx).unwrap().with_pool(Arc::clone(pool));
    [(); 2].map(|()| (bag.read_topics(&[TOPIC], &mut ctx).unwrap(), pool.stats()))
}

/// Bytes of every file under `root`.
fn tree_bytes(fs: &MemStorage, root: &str) -> u64 {
    let mut ctx = IoCtx::new();
    let (mut total, mut dirs) = (0, vec![root.to_owned()]);
    while let Some(dir) = dirs.pop() {
        for e in fs.read_dir(&dir, &mut ctx).unwrap() {
            let path = format!("{dir}/{}", e.name);
            match e.kind {
                EntryKind::Dir => dirs.push(path),
                EntryKind::File => total += fs.len(&path, &mut ctx).unwrap(),
            }
        }
    }
    total
}

#[test]
fn raw_and_lz_scans_are_identical_cold_and_warm() {
    let fs = stage();
    let pool = BufferPool::new(64 << 20);
    let [(raw_cold, raw_after), (raw_warm, _)] = scan_twice(&fs, RAW, &pool);
    assert_eq!(raw_cold.len(), MSGS as usize);
    assert_eq!(raw_warm, raw_cold);
    // v1 data files never enter the pool.
    assert_eq!((raw_after.hits, raw_after.misses, raw_after.resident_bytes), (0, 0, 0));

    let [(lz_cold, cold), (lz_warm, warm)] = scan_twice(&fs, LZ, &pool);
    assert_eq!(lz_cold, raw_cold);
    assert_eq!(lz_warm, raw_cold);
    // The cold scan fills every page once; the warm one fills nothing
    // and hits each of those pages again.
    assert!(cold.misses > 1);
    assert_eq!(warm.misses, cold.misses);
    assert_eq!(warm.hits - cold.hits, cold.hits + cold.misses);
    assert_eq!(warm.evictions, 0);
}

#[test]
fn the_pool_stays_within_its_budget() {
    let fs = stage();
    // The pool holds decoded pages: the working set is the v1 data file.
    let working_set = fs.len(&format!("{RAW}{TOPIC}/data"), &mut IoCtx::new()).unwrap();
    let want = scan_twice(&fs, RAW, &BufferPool::new(1 << 20))[0].0.clone();

    let small = BufferPool::new(working_set / 4);
    for (msgs, s) in scan_twice(&fs, LZ, &small) {
        assert_eq!(msgs, want);
        assert!(s.resident_bytes <= s.budget_bytes, "{s:?}");
    }
    let s = small.stats();
    assert!(s.evictions > 0 && s.misses > s.hits, "a quarter of the set must thrash: {s:?}");

    let roomy = BufferPool::new(working_set * 2);
    let [(_, cold), (_, warm)] = scan_twice(&fs, LZ, &roomy);
    assert_eq!((warm.evictions, warm.misses), (0, cold.misses), "{warm:?}");
}

#[test]
fn block_framing_halves_the_topic_on_disk_and_on_the_heal_wire() {
    let fs = stage();
    let topic_bytes = |root: &str| tree_bytes(&fs, &format!("{root}{TOPIC}"));
    let (raw_disk, lz_disk) = (topic_bytes(RAW), topic_bytes(LZ));
    assert!(lz_disk * 2 <= raw_disk, "{raw_disk} -> {lz_disk}");

    let dst = MemStorage::new();
    let copied = [RAW, LZ].map(|root| {
        let n = copy_container(&fs, root, &dst, root, &mut IoCtx::new()).unwrap();
        // A copy ships the container's files verbatim, nothing more.
        assert_eq!(n, tree_bytes(&fs, root), "{root}");
        assert_eq!(tree_bytes(&dst, root), n, "{root}");
        n
    });
    assert!(copied[1] * 2 <= copied[0], "heal bytes {} -> {}", copied[0], copied[1]);
}
