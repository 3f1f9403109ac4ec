//! End-to-end test of the `bora-tool` binary against real files.

use std::path::PathBuf;
use std::process::Command;

use ros_msgs::sensor_msgs::Imu;
use ros_msgs::tf2_msgs::TfMessage;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, LocalStorage};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bora-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_demo_bag(dir: &PathBuf, n: u32) {
    let fs = LocalStorage::new(dir).unwrap();
    let mut ctx = IoCtx::new();
    let mut w = BagWriter::create(
        &fs,
        "/demo.bag",
        BagWriterOptions { chunk_size: 4096, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    for i in 0..n {
        let t = Time::new(100 + i, 0);
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        if i % 4 == 0 {
            w.write_ros_message("/tf", t, &TfMessage::default(), &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
}

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bora-tool"))
}

#[test]
fn full_cli_lifecycle_on_disk() {
    let dir = workdir("life");
    write_demo_bag(&dir, 80);
    let bag = dir.join("demo.bag");
    let container = dir.join("demo_container");

    // import
    let out = tool().arg("import").arg(&bag).arg(&container).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("imported 100 messages"));
    assert!(container.join("imu").join("data").exists());
    assert!(container.join(".bora").exists());

    // info + topics
    let out = tool().arg("info").arg(&container).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("messages:     100"), "{text}");
    assert!(text.contains("/imu"));
    let out = tool().arg("topics").arg(&container).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.trim().lines().collect::<Vec<_>>(), vec!["/imu", "/tf"]);

    // query: full count + time-windowed count
    let out =
        tool().arg("query").arg(&container).arg("SELECT count() FROM '/imu'").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("80"));
    let out = tool()
        .arg("query")
        .arg(&container)
        .arg("SELECT count() FROM '/imu' WHERE time >= 110.0 AND time < 120.0")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.lines().any(|l| l.trim() == "10"), "{text}");

    // --explain renders the plan without executing; --no-pushdown shows up.
    let out = tool()
        .arg("query")
        .arg(&container)
        .args(["SELECT count() FROM '/imu'", "--explain"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("pushdown=on"));
    let out = tool()
        .arg("query")
        .arg(&container)
        .args(["SELECT count() FROM '/imu'", "--explain", "--no-pushdown"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("pushdown=off"));

    // --json: one object with columns, rows, and the annotated plan.
    let out = tool()
        .arg("query")
        .arg(&container)
        .args(["EXPLAIN ANALYZE SELECT count() FROM '/imu' WHERE time < 110.0", "--json"])
        .output()
        .unwrap();
    let json = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"columns\":") && json.contains("\"explain\":{"), "{json}");

    // A malformed statement dies with a caret diagnostic, not a panic.
    let out = tool().arg("query").arg(&container).arg("SELECT FROM '/imu'").output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains('^'),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // verify
    let out = tool().arg("verify").arg(&container).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK: 100 messages"));

    // export, and the exported bag imports again losslessly
    let rebag = dir.join("rebag.bag");
    let out = tool().arg("export").arg(&container).arg(&rebag).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("exported 100 messages"));
    let container2 = dir.join("round2");
    let out = tool().arg("import").arg(&rebag).arg(&container2).output().unwrap();
    assert!(out.status.success());
    let out = tool().arg("verify").arg(&container2).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK: 100 messages"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_detects_tampering() {
    let dir = workdir("tamper");
    write_demo_bag(&dir, 20);
    let container = dir.join("c");
    assert!(tool()
        .arg("import")
        .arg(dir.join("demo.bag"))
        .arg(&container)
        .status()
        .unwrap()
        .success());

    // Chop bytes off a topic data file.
    let data = container.join("imu").join("data");
    let bytes = std::fs::read(&data).unwrap();
    std::fs::write(&data, &bytes[..bytes.len() - 8]).unwrap();

    let out = tool().arg("verify").arg(&container).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("CORRUPT"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_stat_reports_wal_depth_segments_and_lag() {
    use bora_ingest::{IngestConfig, IngestStore};

    let dir = workdir("ingest");
    let root = dir.join("live");

    // Not an ingest root yet: the tool must refuse, not invent numbers.
    let out = tool().arg("ingest-stat").arg(&root).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a live ingest root"));

    // Build a real root: one sealed batch awaiting compaction plus one
    // record that only the WAL holds.
    let fs = LocalStorage::new(&dir).unwrap();
    let mut ctx = IoCtx::new();
    let cfg =
        IngestConfig { wal_shards: 2, group_commit: 4, window_ns: 1_000_000_000, block: None };
    let store = IngestStore::create(fs, "/live", cfg, &mut ctx).unwrap();
    for i in 0..6u64 {
        store.append("/imu", Time::from_nanos(i * 10), &[i as u8; 4], &mut ctx).unwrap();
        if i % 2 == 0 {
            store.append("/cam", Time::from_nanos(i * 10 + 1), b"frame", &mut ctx).unwrap();
        }
    }
    store.seal(&mut ctx).unwrap().expect("nine messages to seal");
    store.append("/imu", Time::from_nanos(1_000), b"tail", &mut ctx).unwrap();
    store.flush_wal(&mut ctx).unwrap();

    let out = tool().arg("ingest-stat").arg(&root).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("2 wal shard(s)"), "{text}");
    // The seal wrote one segment per topic; none compacted yet.
    assert!(text.contains("1 seal marker(s), 2 segment file(s)"), "{text}");
    assert!(text.contains("compaction lag: 1 seal(s) / 2 segment file(s) pending"), "{text}");
    // The seal retired the WAL, so only the tail append is in it — and it
    // is exactly the record recovery would replay as an active segment.
    assert!(text.contains("1 durable record(s); 1 unsealed -> 1 active segment(s)"), "{text}");

    // After compaction the lag drains and the generation advances.
    store.compact(&mut ctx).unwrap();
    let out = tool().arg("ingest-stat").arg(&root).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("generation:     1"), "{text}");
    assert!(text.contains("compaction lag: 0 seal(s) / 0 segment file(s) pending"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_stat_json_has_the_schema_ci_depends_on() {
    use bora_ingest::{IngestConfig, IngestStore};

    let dir = workdir("ingest-json");
    let fs = LocalStorage::new(&dir).unwrap();
    let mut ctx = IoCtx::new();
    let cfg =
        IngestConfig { wal_shards: 2, group_commit: 4, window_ns: 1_000_000_000, block: None };
    let store = IngestStore::create(fs, "/live", cfg, &mut ctx).unwrap();
    for i in 0..4u64 {
        store.append("/imu", Time::from_nanos(i * 10), &[i as u8; 4], &mut ctx).unwrap();
    }
    store.seal(&mut ctx).unwrap().expect("messages to seal");
    store.append("/imu", Time::from_nanos(1_000), b"tail", &mut ctx).unwrap();
    store.flush_wal(&mut ctx).unwrap();

    let out = tool().arg("ingest-stat").arg(dir.join("live")).arg("--json").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    // One flat object with a stable key set — the schema CI parses.
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"root\":",
        "\"wal_shards\":2",
        "\"group_commit\":4",
        "\"window_ns\":1000000000",
        "\"generation\":",
        "\"compacted_seal\":",
        "\"compacted_wal_seq\":",
        "\"staging_debris\":",
        "\"seal_markers\":1",
        "\"segment_files\":1",
        "\"lag_seals\":1",
        "\"lag_segment_files\":1",
        "\"wal_durable_records\":1",
        "\"wal_unsealed_records\":1",
        "\"active_segments\":1",
        "\"torn_wal_shards\":0",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Flag order must not matter.
    let out2 = tool().arg("ingest-stat").arg("--json").arg(dir.join("live")).output().unwrap();
    assert!(out2.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir`, path and bytes, in path order.
fn tree(dir: &std::path::Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            tree(&path, out);
        } else {
            out.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
}

#[test]
fn ingest_stat_reports_what_recovery_opens_and_writes_nothing() {
    use bora_ingest::{GenMarker, IngestConfig, IngestStore};

    let dir = workdir("ingest-recovery");
    let root = dir.join("live");
    let fs = LocalStorage::new(&dir).unwrap();
    let mut ctx = IoCtx::new();
    let cfg =
        IngestConfig { wal_shards: 1, group_commit: 1, window_ns: 1_000_000_000, block: None };
    let store = IngestStore::create(fs, "/live", cfg, &mut ctx).unwrap();
    for i in 0..4u64 {
        store.append("/imu", Time::from_nanos(i * 10), &[i as u8; 4], &mut ctx).unwrap();
    }
    store.seal(&mut ctx).unwrap().expect("messages to seal");
    assert_eq!(store.compact(&mut ctx).unwrap(), 1);
    store.append("/imu", Time::from_nanos(100), b"tail", &mut ctx).unwrap();
    drop(store);

    // Debris recovery sweeps: a valid marker for generation 2 in a
    // directory without a MANIFEST; generation 1's MANIFEST beside a
    // marker that names generation 4 in the directory of generation 3; a
    // segment no seal commits; a torn WAL tail.
    let gen = root.join("gen");
    let marker = |generation| GenMarker { generation, last_seal_seq: 9, last_wal_seq: 99 };
    std::fs::create_dir(gen.join("C00000002")).unwrap();
    std::fs::write(gen.join("C00000002/.ingest"), marker(2).encode()).unwrap();
    std::fs::create_dir(gen.join("C00000003")).unwrap();
    std::fs::copy(gen.join("C00000001/MANIFEST"), gen.join("C00000003/MANIFEST")).unwrap();
    std::fs::write(gen.join("C00000003/.ingest"), marker(4).encode()).unwrap();
    std::fs::write(root.join("seg/00000007-imu.seg"), b"never sealed").unwrap();
    let wal = root.join("wal/shard-0.wal");
    let mut torn = std::fs::read(&wal).unwrap();
    torn.extend_from_slice(&[9, 0, 0, 0, 1]);
    std::fs::write(&wal, torn).unwrap();

    let mut before = Vec::new();
    tree(&root, &mut before);
    let out = tool().arg("ingest-stat").arg(&root).arg("--json").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    let text = tool().arg("ingest-stat").arg(&root).output().unwrap();
    let text = String::from_utf8_lossy(&text.stdout).into_owned();
    let mut after = Vec::new();
    tree(&root, &mut after);
    assert!(before == after, "ingest-stat changed the root");

    for key in [
        "\"generation\":1,",
        "\"compacted_seal\":1,",
        "\"seal_markers\":0,",
        "\"segment_files\":1,",
        "\"lag_seals\":0,",
        "\"wal_durable_records\":1,",
        "\"wal_unsealed_records\":1,",
        "\"torn_wal_shards\":1,",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(text.contains("generation:     1 (compacted through seal 1"), "{text}");

    // Recovery agrees: it opens generation 1 and replays the one record.
    let store = IngestStore::open(LocalStorage::new(&dir).unwrap(), "/live", &mut ctx).unwrap();
    let s = store.stat();
    assert_eq!((s.generation, s.active_messages, s.sealed_batches), (1, 1, 0));
    assert!(!gen.join("C00000002").exists() && !gen.join("C00000003").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_demo_renders_table_and_json() {
    let out = tool().args(["top", "--demo"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    // Per-node rows plus the cluster-wide `*` fold, for ops the demo ran.
    assert!(table.contains("node"), "{table}");
    assert!(table.contains("topics"), "{table}");
    assert!(table.contains("stat"), "{table}");
    assert!(table.lines().any(|l| l.starts_with("* ")), "no aggregate rows:\n{table}");

    let out = tool().args(["top", "--demo", "--json"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"aggregate\":"), "{json}");
    assert!(json.contains("\"serve.op.topics.wall_ns\""), "{json}");
}

#[test]
fn import_refuses_garbage() {
    let dir = workdir("garbage");
    std::fs::write(dir.join("junk.bag"), vec![0u8; 9000]).unwrap();
    let out = tool().arg("import").arg(dir.join("junk.bag")).arg(dir.join("c")).output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}
