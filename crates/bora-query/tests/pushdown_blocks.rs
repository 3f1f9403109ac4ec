//! Pushdown, by the block counter: a time predicate pushed into the scan
//! decodes only the blocks its range reaches, and never changes a row.
//!
//! Decodes are counted by the process-wide `block.decode` counter, read
//! around the whole query and by the cursor's own `ExecStats`, so this
//! file holds one test and nothing else.

use bora::{BlockCodec, BlockParams, BoraBag, OrganizerOptions};
use bora_query::{prepare_with, ExecStats, PlanOptions, Row};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const MESSAGES: u64 = 10_000;
/// Bytes of one stored `Imu` message, and of one block's logical span.
const MSG_BYTES: u64 = 312;
const BLOCK: u64 = 8192;

/// 200 s of 50 Hz IMU from t = 1000 s, LZSS block-framed at 8 KiB.
fn stage() -> MemStorage {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(&fs, "/q.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for tick in 0..MESSAGES {
        let t = Time::from_nanos(1_000_000_000_000 + tick * 20_000_000);
        let mut imu = Imu::default();
        imu.header.seq = tick as u32;
        imu.header.stamp = t;
        imu.angular_velocity.x = (tick % 100) as f64 * 0.01;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    let block = Some(BlockParams { codec: BlockCodec::Lzss, block_size: BLOCK as u32 });
    let opts = OrganizerOptions { block, ..Default::default() };
    bora::duplicate(&fs, "/q.bag", &fs, "/c", &opts, &mut ctx).unwrap();
    fs
}

/// The rows of `sql`, its executor counters, and the blocks it decoded.
fn run(bag: &BoraBag<&MemStorage>, sql: &str, pushdown: bool) -> (Vec<Row>, ExecStats, u64) {
    let mut ctx = IoCtx::new();
    let decodes = bora_obs::counter("block.decode");
    let before = decodes.get();
    let p = prepare_with(sql, &PlanOptions { pushdown }).unwrap();
    let mut cur = p.cursor_bag(bag, false, &mut ctx).unwrap();
    let rows = cur.collect_rows().unwrap();
    (rows, cur.stats(), decodes.get() - before)
}

/// The blocks holding messages `[from, to)` of the topic's data.
fn blocks_spanned(from: u64, to: u64) -> u64 {
    (to * MSG_BYTES - 1) / BLOCK - from * MSG_BYTES / BLOCK + 1
}

#[test]
fn a_pushed_time_range_decodes_only_the_blocks_it_reaches() {
    let fs = stage();
    let bag = BoraBag::open(&fs, "/c", &mut IoCtx::new()).unwrap();
    // (WHERE clause, the first message it selects, one past its last)
    for (clause, from, to) in [
        ("", 0, MESSAGES),
        (" WHERE time >= 1100.0", 5_000, MESSAGES),
        (" WHERE time >= 1180.0", 9_000, MESSAGES),
        (" WHERE time >= 1198.0 AND time < 1200.0", 9_900, MESSAGES),
    ] {
        let sql =
            format!("SELECT count(), mean(angular_velocity.x) FROM '/imu'{clause} WINDOW 10s");
        let (rows_on, on, on_blocks) = run(&bag, &sql, true);
        let (rows_off, off, off_blocks) = run(&bag, &sql, false);
        assert!(!rows_on.is_empty(), "{sql}");
        assert_eq!(rows_on, rows_off, "pushdown changed the rows of {sql}");
        // Pushed, the scan reads the selected messages and decodes the
        // blocks that hold them: 381 for the whole topic, 4 for 1 %.
        assert_eq!((on.scanned, on_blocks), (to - from, blocks_spanned(from, to)), "{sql}");
        // `ExecStats` counts the same decodes, the stream's first
        // readahead window included: 381 / 191 / 39 / 4.
        assert_eq!(on.block_decodes, on_blocks, "{sql}");
        assert_eq!(off.block_decodes, off_blocks, "{sql}");
        // Unpushed, it decodes every block and filters afterwards.
        assert_eq!((off.scanned, off.pushed_dropped), (MESSAGES, 0), "{sql}");
        assert_eq!(off_blocks, blocks_spanned(0, MESSAGES), "{sql}");
    }
}
