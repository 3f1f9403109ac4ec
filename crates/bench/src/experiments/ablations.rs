//! Ablations of BORA's design choices (DESIGN.md §5) — not figures from
//! the paper, but sweeps over the parameters the paper leaves to the
//! developer.

use bora::{BoraBag, OrganizerOptions};
use ros_msgs::RosDuration;
use simfs::{ClusterConfig, ClusterStorage, DeviceModel, IoCtx, MemStorage, Storage, TimedStorage};
use workloads::tum::{generate_bag, topic};

use crate::env::ScaleConfig;
use crate::report::{ms, Table};

/// §5.1 — time-window width: the paper fixes W=5 s in its example and
/// says the value is developer-configurable. Sweep it and show the
/// narrow-window query cost and the index size trade-off.
pub fn run_window(scales: &ScaleConfig) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_window",
        "Coarse time-index window width vs query cost and index size",
        &["window (s)", "tindex windows", "tindex bytes", "1 s query (ms)", "60 s query (ms)"],
    );
    for window_s in [1u64, 5, 10, 60] {
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let mut ctx = IoCtx::new();
        generate_bag(&fs, "/hs.bag", &scales.gen_for_gb(2.9), &mut ctx).unwrap();
        bora::organizer::duplicate(
            &fs,
            "/hs.bag",
            &fs,
            "/c",
            &OrganizerOptions {
                window_ns: window_s * 1_000_000_000,
                ..OrganizerOptions::default()
            },
            &mut ctx,
        )
        .unwrap();
        let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();
        let (t0, _) = bag.time_range();
        let tindex = bag.load_time_index(topic::IMU, &mut ctx).unwrap();
        let tindex_bytes = fs.len("/c/imu/tindex", &mut ctx).unwrap();

        let q = |secs: f64| {
            let mut qctx = IoCtx::new();
            bag.read_topics_time(
                &[topic::IMU],
                t0,
                t0 + RosDuration::from_sec_f64(secs),
                &mut qctx,
            )
            .unwrap();
            qctx.elapsed_ns()
        };
        table.row(vec![
            window_s.to_string(),
            tindex.len().to_string(),
            tindex_bytes.to_string(),
            ms(q(1.0)),
            ms(q(60.0)),
        ]);
    }
    table.note("narrow windows tighten candidate sets for short queries at the cost of index size");
    vec![table]
}

/// §5.2 — distributor thread count ("determined by system specs").
pub fn run_threads(scales: &ScaleConfig) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_threads",
        "Data-organizer distributor thread count vs duplication cost",
        &["threads", "scan (ms)", "distribute (ms)", "total charged (ms)"],
    );
    for threads in [1usize, 2, 4, 8] {
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let mut ctx = IoCtx::new();
        generate_bag(&fs, "/hs.bag", &scales.gen_for_gb(2.9), &mut ctx).unwrap();
        let mut dctx = IoCtx::new();
        let report = bora::organizer::duplicate(
            &fs,
            "/hs.bag",
            &fs,
            "/c",
            &OrganizerOptions { distributor_threads: threads, ..OrganizerOptions::default() },
            &mut dctx,
        )
        .unwrap();
        table.row(vec![
            threads.to_string(),
            ms(report.scan_ns),
            ms(report.distribute_ns),
            ms(dctx.elapsed_ns()),
        ]);
    }
    table.note("one device: threads trade per-thread time against contention; the win is overlap, not raw parallel bandwidth");
    vec![table]
}

/// §5.3 — rebuild-at-open vs hypothetical persisted tag table
/// (Table I's design justification, measured end to end).
pub fn run_tag_persist(scales: &ScaleConfig) -> Vec<Table> {
    let _ = scales;
    let mut table = Table::new(
        "ablation_tag_persist",
        "Tag table: rebuild from listing vs read persisted copy",
        &["topics", "rebuild (virtual ms)", "persisted read (virtual ms)"],
    );
    for n in [10usize, 100, 1_000, 10_000] {
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let mut ctx = IoCtx::new();
        fs.append("/c/.bora", b"m", &mut ctx).unwrap();
        let mut persisted = Vec::new();
        for i in 0..n {
            let t = format!("/dev/sensor_{i:06}");
            fs.mkdir_all(&format!("/c/{}", bora::layout::encode_topic(&t)), &mut ctx).unwrap();
            persisted.extend_from_slice(t.as_bytes());
            persisted.push(b'\n');
        }
        fs.append("/c/.tags", &persisted, &mut ctx).unwrap();

        let mut rctx = IoCtx::new();
        bora::TagManager::build(&fs, "/c", &mut rctx).unwrap();

        // Persisted variant: one sequential read + hash inserts.
        let mut pctx = IoCtx::new();
        let bytes = fs.read_all("/c/.tags", &mut pctx).unwrap();
        let topics: Vec<String> =
            String::from_utf8(bytes).unwrap().lines().map(str::to_owned).collect();
        pctx.charge_ns(topics.len() as u64 * simfs::device::cpu::HASH_OP_NS);
        let tm = bora::TagManager::from_topics("/c", &topics);
        assert_eq!(tm.len(), n);

        table.row(vec![n.to_string(), ms(rctx.elapsed_ns()), ms(pctx.elapsed_ns())]);
    }
    table.note("the rebuild stays cheap enough that persisting the table (and keeping it coherent) buys nothing — the paper's Table I argument");
    vec![table]
}

/// §5.4 — PVFS data-server count: where the network bottleneck bites.
pub fn run_stripe(scales: &ScaleConfig) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_stripe",
        "Cluster data-server count vs BORA topic-read time (2.9 GB bag)",
        &["servers", "baseline (ms)", "BORA (ms)", "BORA speedup"],
    );
    for servers in [1u32, 2, 4, 8] {
        let cfg = ClusterConfig { data_servers: servers, ..ClusterConfig::pvfs4() };
        let storage = ClusterStorage::new(cfg);
        let mut ctx = IoCtx::new();
        generate_bag(&storage, "/hs.bag", &scales.gen_for_gb(2.9), &mut ctx).unwrap();
        bora::organizer::duplicate(
            &storage,
            "/hs.bag",
            &storage,
            "/c",
            &OrganizerOptions::default(),
            &mut ctx,
        )
        .unwrap();

        let mut bctx = IoCtx::new();
        let reader = rosbag::BagReader::open(&storage, "/hs.bag", &mut bctx).unwrap();
        reader.read_messages(&[topic::RGB_IMAGE], &mut bctx).unwrap();

        let mut octx = IoCtx::new();
        let bag = BoraBag::open(&storage, "/c", &mut octx).unwrap();
        bag.read_topics(&[topic::RGB_IMAGE], &mut octx).unwrap();

        table.row(vec![
            servers.to_string(),
            ms(bctx.elapsed_ns()),
            ms(octx.elapsed_ns()),
            crate::report::speedup(bctx.elapsed_ns(), octx.elapsed_ns()),
        ]);
    }
    table.note("past a few servers the 10 GbE fabric, not the devices, bounds both systems — the paper's §IV.D observation");
    vec![table]
}
