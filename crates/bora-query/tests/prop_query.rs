//! Property tests for the query compiler and executor.
//!
//! Random queries over random record streams, organised into a
//! block-framed container of 512-byte blocks, checked three ways:
//!
//! 1. **Plan vs naive**: the planned, pushdown-optimized cursor agrees
//!    with [`run_naive`] over the records, a direct transcription of the
//!    language semantics that never looks at a plan.
//! 2. **Pushdown is invisible**: planning with `pushdown: false`
//!    produces the same rows — the optimizer may only change *work*,
//!    never *results*, and on this container pushdown drives the coarse
//!    time index's block skipping.
//! 3. **EXPLAIN ANALYZE is honest**: the `rows=` the annotated plan
//!    reports equals the number of rows the cursor actually produced.
//!
//! The first also runs over an unframed (v1) container.

use std::collections::HashMap;

use bora::{BlockCodec, BlockParams, BoraBag, OrganizerOptions};
use bora_query::{prepare_with, run_naive, PlanOptions, Row};
use proptest::prelude::*;
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{RosMessage, Time};
use rosbag::reader::MessageRecord;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const TOPICS: [&str; 2] = ["/imu", "/gps"];

/// A random record stream: strictly increasing, never-colliding
/// timestamps (so bag merge order and record order agree exactly) over
/// up to two topics, with a small-integer signal in
/// `angular_velocity.x` so aggregate arithmetic is float-exact.
fn arb_events() -> impl Strategy<Value = Vec<(usize, u64, i64)>> {
    prop::collection::vec((0usize..2, 1u64..2_000_000_000, -40i64..40), 0..100)
}

fn build_records(events: &[(usize, u64, i64)]) -> (Vec<MessageRecord>, HashMap<String, String>) {
    let mut recs = Vec::with_capacity(events.len());
    let mut t_ns = 500_000_000u64;
    for (i, &(topic, gap_ns, x)) in events.iter().enumerate() {
        t_ns += gap_ns;
        let t = Time::from_nanos(t_ns);
        let mut imu = Imu::default();
        imu.header.seq = i as u32;
        imu.header.stamp = t;
        imu.angular_velocity.x = x as f64;
        recs.push(MessageRecord {
            conn_id: topic as u32,
            topic: TOPICS[topic].to_owned(),
            time: t,
            data: imu.to_bytes(),
        });
    }
    let dts = TOPICS.iter().map(|t| ((*t).to_owned(), Imu::DATATYPE.to_owned())).collect();
    (recs, dts)
}

/// A random well-formed statement, rendered straight to SQL. The shape
/// sweeps every clause the grammar has: projection vs aggregation,
/// multi-topic FROM, time/field/boolean WHERE (the time forms are what
/// pushdown extracts), SAMPLE EVERY, WINDOW, LIMIT.
fn arb_sql() -> impl Strategy<Value = String> {
    (
        (0usize..6, 0usize..3),
        (0usize..6, 0u64..50, 1u64..70, 0i64..40),
        (0usize..4, 0usize..2, 1u64..40, 0usize..3, 1u64..25),
    )
        .prop_map(|((it, tc), (wc, a, d, c), (sc, wp, w, lc, l))| {
            let agg = it >= 3;
            let windowed = agg && wp == 1;
            let mut items = match it {
                0 => "time, topic",
                1 => "time, angular_velocity.x",
                2 => "header.seq, size",
                3 => "count()",
                4 => "count(), mean(angular_velocity.x)",
                _ => "min(angular_velocity.x), max(angular_velocity.x), count()",
            }
            .to_owned();
            if windowed {
                items = format!("window, {items}");
            }
            let from = match tc {
                0 => "'/imu'",
                1 => "'/gps'",
                _ => "'/imu', '/gps'",
            };
            let mut sql = format!("SELECT {items} FROM {from}");
            let b = a + d;
            match wc {
                0 => {}
                1 => sql.push_str(&format!(" WHERE time >= {a}.0")),
                2 => sql.push_str(&format!(" WHERE time < {b}.0")),
                3 => sql.push_str(&format!(" WHERE time >= {a}.0 AND time < {b}.0")),
                4 => sql.push_str(&format!(" WHERE angular_velocity.x >= {c}.0")),
                _ => sql.push_str(&format!(" WHERE time >= {a}.0 OR angular_velocity.x < {c}.0")),
            }
            if sc > 0 {
                sql.push_str(&format!(" SAMPLE EVERY {}", sc + 1));
            }
            if windowed {
                sql.push_str(&format!(" WINDOW {w}s"));
            }
            if lc > 0 {
                sql.push_str(&format!(" LIMIT {l}"));
            }
            sql
        })
}

/// `recs` organised into a container on `fs`: block-framed with small
/// blocks when `block` is set, so a pushed time range narrows the scan
/// through the coarse time index to the blocks it can touch.
fn container<'f>(
    fs: &'f MemStorage,
    recs: &[MessageRecord],
    block: Option<BlockParams>,
) -> BoraBag<&'f MemStorage> {
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(fs, "/p.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for r in recs {
        let imu = Imu::from_bytes(&r.data).unwrap();
        w.write_ros_message(&r.topic, r.time, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    let opts = OrganizerOptions { block, ..Default::default() };
    bora::duplicate(fs, "/p.bag", fs, "/c", &opts, &mut ctx).unwrap();
    BoraBag::open(fs, "/c", &mut ctx).unwrap()
}

/// 512-byte LZSS blocks: a few messages each.
fn small_blocks() -> Option<BlockParams> {
    Some(BlockParams { codec: BlockCodec::Lzss, block_size: 512 })
}

fn run_planned(sql: &str, pushdown: bool, bag: &BoraBag<&MemStorage>) -> (Vec<String>, Vec<Row>) {
    let p = prepare_with(sql, &PlanOptions { pushdown }).unwrap_or_else(|e| {
        panic!("generated statement failed to plan: {sql}\n{e}");
    });
    let ctx = &mut IoCtx::new();
    let mut cur = p.cursor_bag(bag, false, ctx).unwrap();
    let cols = cur.columns();
    let rows = cur.collect_rows().unwrap();
    (cols, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_matches_naive_and_pushdown_never_changes_rows(
        events in arb_events(),
        sql in arb_sql(),
    ) {
        let (recs, dts) = build_records(&events);
        let fs = MemStorage::new();
        let bag = container(&fs, &recs, small_blocks());

        let (cols_on, rows_on) = run_planned(&sql, true, &bag);
        let (cols_off, rows_off) = run_planned(&sql, false, &bag);
        let p = prepare_with(&sql, &PlanOptions::default()).unwrap();
        let (cols_naive, rows_naive) = run_naive(&p.query.stmt, &recs, &dts).unwrap();

        prop_assert_eq!(&cols_on, &cols_naive, "columns diverged: {}", sql);
        prop_assert_eq!(&cols_on, &cols_off, "pushdown changed columns: {}", sql);
        prop_assert_eq!(&rows_on, &rows_naive, "plan vs naive: {}", sql);
        prop_assert_eq!(&rows_on, &rows_off, "pushdown changed rows: {}", sql);
    }

    #[test]
    fn analyze_row_counts_match_actual_rows(
        events in arb_events(),
        sql in arb_sql(),
    ) {
        let (recs, _) = build_records(&events);
        let fs = MemStorage::new();
        let bag = container(&fs, &recs, small_blocks());
        let analyzed = format!("EXPLAIN ANALYZE {sql}");
        let p = prepare_with(&analyzed, &PlanOptions::default()).unwrap();
        let ctx = &mut IoCtx::new();
        let mut cur = p.cursor_bag(&bag, false, ctx).unwrap();
        let rows = cur.collect_rows().unwrap();
        let stats = cur.stats();
        prop_assert_eq!(stats.rows_out, rows.len() as u64, "{}", sql);
        let text = bora_query::explain_text(&p, Some(&stats));
        // Aggregate plans annotate the Aggregate node with its group
        // count; everything else annotates the Project node with the
        // delivered row count (LIMIT can make groups > rows).
        let needle = if p.plan.agg.is_some() {
            format!("groups={}", stats.groups)
        } else {
            format!("rows={}", rows.len())
        };
        prop_assert!(
            text.contains(&needle),
            "EXPLAIN ANALYZE missing {:?}: {}\n{}",
            needle,
            sql,
            text
        );
    }

    /// The same random queries over an unframed (v1) container: the
    /// other data layout, its coarse time index and the streaming merge
    /// must not change what a query means either.
    #[test]
    fn container_cursor_matches_naive(
        events in arb_events(),
        sql in arb_sql(),
    ) {
        let (recs, dts) = build_records(&events);
        if recs.is_empty() {
            // An empty bag is a writer-layer edge case, not a query one.
            return Ok(());
        }
        let fs = MemStorage::new();
        let bag = container(&fs, &recs, None);

        let p = prepare_with(&sql, &PlanOptions::default()).unwrap();
        let ctx = &mut IoCtx::new();
        let mut cur = p.cursor_bag(&bag, false, ctx).unwrap();
        let rows = cur.collect_rows().unwrap();
        let (_, want) = run_naive(&p.query.stmt, &recs, &dts).unwrap();
        prop_assert_eq!(rows, want, "container vs naive: {}", sql);
    }
}
