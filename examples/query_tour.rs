//! Query tour: two analyses from the ROS analysis literature, each
//! written twice — once as a declarative query, once as a hand-written
//! streaming consumer — asserted to agree, plus a look at what predicate
//! pushdown buys on a block-framed container.
//!
//! ```text
//! cargo run --release --example query_tour
//! ```
//!
//! 1. **Computation-graph extraction** (time-windowed topic activity, à
//!    la "Automatic Extraction of Time-windowed ROS Computation Graphs
//!    from ROS Bag Files"): per-topic message counts bucketed into
//!    30-second windows — `SELECT window, count() ... WINDOW 30s`.
//! 2. **Message-flow pairing** (à la "Message Flow Analysis with Complex
//!    Causal Links"): candidate causal links between `/cam` frames and
//!    the `/imu` readings within 120 ms of them — `JOIN ... WITHIN`.
//! 3. **Pushdown**: a selective time filter planned with pushdown on and
//!    off. Both return identical rows; the pushed plan decodes only the
//!    blocks its range spans. The annotated plan is written to
//!    `query_explain.json` for CI to validate.

use bora::{BlockCodec, BlockParams, BoraBag, OrganizerOptions};
use bora_query::{explain_json, ns_to_secs, prepare_with, PlanOptions, Row, Value};
use ros_msgs::sensor_msgs::{Image, Imu};
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const WINDOW_NS: u64 = 30_000_000_000;
const WITHIN_NS: u64 = 120_000_000;
/// Logical block size of the container, and bytes of one stored `/imu`
/// message (no `frame_id`).
const BLOCK: u64 = 4096;
const IMU_BYTES: u64 = 312;

fn main() {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();

    // A 400-second mission: 10 Hz IMU, 2 Hz camera (offset 1.3 ms so no
    // two topics ever share a timestamp), block-framed at 4 KiB.
    let mut w = BagWriter::create(&fs, "/m.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for tick in 0..4000u64 {
        let t = Time::from_nanos(1_000_000_000_000 + tick * 100_000_000);
        let mut imu = Imu::default();
        imu.header.seq = tick as u32;
        imu.header.stamp = t;
        imu.angular_velocity.x = (tick % 100) as f64 * 0.01;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
    }
    for frame in 0..800u64 {
        let t = Time::from_nanos(1_000_000_000_000 + frame * 500_000_000 + 1_300_000);
        let mut img = Image::default();
        img.header.seq = frame as u32;
        img.header.stamp = t;
        img.width = 640;
        img.height = 480;
        w.write_ros_message("/cam", t, &img, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    let opts = OrganizerOptions {
        block: Some(BlockParams { codec: BlockCodec::Lzss, block_size: BLOCK as u32 }),
        ..Default::default()
    };
    bora::duplicate(&fs, "/m.bag", &fs, "/c", &opts, &mut ctx).unwrap();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    // ---------------------------------------------- 1. computation graph
    println!("== time-windowed computation graph (30 s windows) ==");
    println!("{:>8}  {:>8}  {:>8}  {:>10}", "topic", "windows", "msgs", "mean rate");
    for topic in ["/imu", "/cam"] {
        let sql = format!("SELECT window, count() FROM '{topic}' WINDOW 30s");
        let p = prepare_with(&sql, &PlanOptions::default()).unwrap();
        let mut cur = p.cursor_bag(&bag, false, &mut ctx).unwrap();
        let rows = cur.collect_rows().unwrap();

        // The hand-written consumer: read the topic, bucket by window.
        let mut buckets = std::collections::BTreeMap::<u64, i64>::new();
        for m in bag.read_topics(&[topic], &mut ctx).unwrap() {
            *buckets.entry(m.time.as_nanos() / WINDOW_NS).or_default() += 1;
        }
        let expected: Vec<Row> = buckets
            .iter()
            .map(|(k, n)| vec![Value::Float(ns_to_secs(k * WINDOW_NS)), Value::Int(*n)])
            .collect();
        assert_eq!(rows, expected, "{topic}: query disagrees with the streaming consumer");

        let msgs: i64 = buckets.values().sum();
        println!(
            "{:>8}  {:>8}  {:>8}  {:>8.1}/s",
            topic,
            rows.len(),
            msgs,
            msgs as f64 / (rows.len() as f64 * ns_to_secs(WINDOW_NS)),
        );
    }

    // ------------------------------------------------- 2. message flow
    println!("\n== candidate causal links: /imu within 120 ms of each /cam frame ==");
    let sql = "SELECT left.time, right.time FROM '/imu' JOIN '/cam' WITHIN 120ms";
    let p = prepare_with(sql, &PlanOptions::default()).unwrap();
    let mut cur = p.cursor_bag(&bag, false, &mut ctx).unwrap();
    let rows = cur.collect_rows().unwrap();

    // Hand-written: every (imu, cam) pair within the window, emitted at
    // the arrival of the later member — i.e. ordered by (later, earlier).
    let imu = bag.read_topics(&["/imu"], &mut ctx).unwrap();
    let cam = bag.read_topics(&["/cam"], &mut ctx).unwrap();
    let mut pairs = Vec::new();
    for l in &imu {
        for r in &cam {
            let (lt, rt) = (l.time.as_nanos(), r.time.as_nanos());
            if lt.abs_diff(rt) <= WITHIN_NS {
                pairs.push((lt.max(rt), lt.min(rt), lt, rt));
            }
        }
    }
    pairs.sort();
    // `time` is the builtin's float rendering — ns_to_secs, the same
    // conversion the executor uses (it differs from sec + nsec·1e-9 in
    // the last ulp, and the comparison below is exact).
    let tv = |ns: u64| Value::Float(ns_to_secs(ns));
    let expected: Vec<Row> = pairs.iter().map(|(_, _, lt, rt)| vec![tv(*lt), tv(*rt)]).collect();
    assert_eq!(rows, expected, "join disagrees with the pairing consumer");
    println!(
        "{} links over {} frames ({:.1} per frame)",
        rows.len(),
        cam.len(),
        rows.len() as f64 / cam.len() as f64
    );

    // ---------------------------------------------------- 3. pushdown
    println!("\n== pushdown on a selective time filter ==");
    let sql = "EXPLAIN ANALYZE SELECT count() FROM '/imu' \
               WHERE time >= 1050.0 AND time < 1090.0";
    let run = |pushdown: bool, ctx: &mut IoCtx| {
        let p = prepare_with(sql, &PlanOptions { pushdown }).unwrap();
        let mut cur = p.cursor_bag(&bag, false, ctx).unwrap();
        let rows = cur.collect_rows().unwrap();
        let stats = cur.stats();
        (p, rows, stats)
    };
    let (p_on, rows_on, on) = run(true, &mut ctx);
    let (_, rows_off, off) = run(false, &mut ctx);
    assert_eq!(rows_on, rows_off, "pushdown changed the result");
    assert_eq!(rows_on, vec![vec![Value::Int(400)]], "40 s of 10 Hz IMU is 400 messages");
    println!("blocks decoded: {} with pushdown, {} without", on.block_decodes, off.block_decodes);
    // The pushed scan reads ticks 500..=900 (the range's end is
    // inclusive after rounding; the filter drops tick 900) and decodes
    // the blocks they lie in, its first readahead window included: 31 of
    // the topic's 305. The unpushed scan decodes all 305.
    let blocks = |from: u64, to: u64| (to * IMU_BYTES - 1) / BLOCK - from * IMU_BYTES / BLOCK + 1;
    assert_eq!((on.scanned, on.pushed_dropped), (401, 1));
    assert_eq!((on.block_decodes, off.block_decodes), (blocks(500, 901), blocks(0, 4000)));

    let json = explain_json(&p_on, Some(&on));
    std::fs::write("query_explain.json", &json).unwrap();
    println!("annotated plan written to query_explain.json ({} bytes)", json.len());
}
