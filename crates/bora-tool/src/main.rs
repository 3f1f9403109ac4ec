//! `bora-tool` — operate on real bags and containers on the local disk,
//! and observe serving clusters.
//!
//! ```text
//! bora-tool import  <src.bag> <container-dir>    duplicate a bag into a container
//! bora-tool record? (see `rosbag-tool` for bag-side operations)
//! bora-tool info    <container-dir>              container metadata summary
//! bora-tool topics  <container-dir>              list topics
//! bora-tool query   <container-dir> <sql> [--explain] [--json] [--no-pushdown]
//!                                                run a SELECT statement (see bora-query)
//! bora-tool export  <container-dir> <out.bag>    rebag a container
//! bora-tool verify  <container-dir>              consistency self-check
//! bora-tool fsck    <container-dir> [--repair [--source <src.bag>]]
//!                                                classify Clean/Torn/Corrupt, optionally repair
//! bora-tool ingest-stat <ingest-dir> [--json] [--node <addr>]
//!                                                live-ingest root: WAL depth, segments, lag,
//!                                                block codec; --node adds a pool scrape
//! bora-tool top --nodes <addr,addr,...> [--json] scrape METRICS from running TCP nodes
//! bora-tool top --demo [--json]                  same, against a built-in 3-node demo cluster
//! bora-tool chaos [--seed <n>] [--scenario <name>|all] [--replay] [--json]
//!                                                break an in-process cluster on purpose
//! ```
//!
//! All storage goes through `simfs::LocalStorage`, i.e. real files —
//! except `top`, which speaks the bora-serve wire protocol.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::exit;

use bora::{BoraBag, BoraError, OrganizerOptions};
use bora_ingest::{layout, wal, Recovery};
use bora_obs::json_string;
use ros_msgs::Time;
use simfs::{IoCtx, LocalStorage, Storage};

/// Split a host path into (LocalStorage rooted at its parent, "/name").
fn split(path: &str) -> (LocalStorage, String) {
    let p = Path::new(path);
    let parent = p.parent().filter(|q| !q.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = p
        .file_name()
        .unwrap_or_else(|| {
            eprintln!("bad path: {path}");
            exit(2);
        })
        .to_string_lossy()
        .into_owned();
    let fs = LocalStorage::new(parent).unwrap_or_else(|e| {
        eprintln!("cannot open {parent:?}: {e}");
        exit(2);
    });
    (fs, format!("/{name}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = IoCtx::new();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["import", src, dst] => {
            let (sfs, spath) = split(src);
            let (dfs, dpath) = split(dst);
            let report = bora::organizer::duplicate(
                &sfs,
                &spath,
                &dfs,
                &dpath,
                &OrganizerOptions::default(),
                &mut ctx,
            )
            .unwrap_or_else(die);
            println!(
                "imported {} messages across {} topics ({} payload bytes) into {dst}",
                report.messages, report.topics, report.payload_bytes
            );
        }
        ["info", dir] => {
            let (fs, path) = split(dir);
            let bag = BoraBag::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            let m = bag.meta();
            println!("container:    {dir}");
            println!("messages:     {}", m.message_count());
            println!("payload:      {} bytes", m.data_bytes());
            println!("time range:   [{}, {}]", m.start_time, m.end_time);
            println!("time window:  {} s", m.window_ns as f64 / 1e9);
            println!("topics:");
            for t in &m.topics {
                println!(
                    "  {:40} {:28} {:>9} msgs  {:>12} bytes",
                    t.topic, t.datatype, t.message_count, t.bytes
                );
            }
        }
        ["topics", dir] => {
            let (fs, path) = split(dir);
            let bag = BoraBag::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            for t in bag.topics() {
                println!("{t}");
            }
        }
        ["query", dir, rest @ ..] => {
            let mut sql: Option<&str> = None;
            let mut explain = false;
            let mut json = false;
            let mut pushdown = true;
            for a in rest {
                match *a {
                    "--explain" => explain = true,
                    "--json" => json = true,
                    "--no-pushdown" => pushdown = false,
                    s if sql.is_none() => sql = Some(s),
                    _ => usage(),
                }
            }
            query_container(dir, sql.unwrap_or_else(|| usage()), explain, json, pushdown, &mut ctx);
        }
        ["export", dir, out] => {
            let (fs, path) = split(dir);
            let (ofs, opath) = split(out);
            let bag = BoraBag::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            let topics: Vec<String> = bag.topics().into_iter().map(str::to_owned).collect();
            let refs: Vec<&str> = topics.iter().map(String::as_str).collect();
            let msgs = bag.read_topics(&refs, &mut ctx).unwrap_or_else(die);
            let mut w = rosbag::BagWriter::create(
                &ofs,
                &opath,
                rosbag::BagWriterOptions::default(),
                &mut ctx,
            )
            .unwrap_or_else(die);
            let mut conn_ids = std::collections::HashMap::new();
            for tm in &bag.meta().topics {
                let desc = ros_msgs::MessageDescriptor {
                    datatype: tm.datatype.clone(),
                    md5sum: tm.md5sum.clone(),
                    definition: tm.definition.clone(),
                };
                conn_ids.insert(tm.topic.clone(), w.add_connection(&tm.topic, &desc));
            }
            for m in &msgs {
                w.write_message(conn_ids[&m.topic], m.time, &m.data, &mut ctx).unwrap_or_else(die);
            }
            let s = w.close(&mut ctx).unwrap_or_else(die);
            println!("exported {} messages to {out} ({} bytes)", s.message_count, s.file_len);
        }
        ["fsck", dir, rest @ ..] => {
            let (repair, source) = match rest {
                [] => (false, None),
                ["--repair"] => (true, None),
                ["--repair", "--source", src] => (true, Some(*src)),
                _ => usage(),
            };
            let (fs, path) = split(dir);
            let report = bora::fsck::check(&fs, &path, &mut ctx).unwrap_or_else(die);
            println!(
                "state: {:?}{}",
                report.state,
                if report.stale_staging { " (stale staging debris)" } else { "" }
            );
            println!(
                "files checked: {}, bytes checked: {}",
                report.files_checked, report.bytes_checked
            );
            for d in &report.damages {
                println!("  damaged: {} ({})", d.rel_path, d.reason);
            }
            if !repair {
                if !report.is_clean() {
                    exit(1);
                }
                return;
            }
            let opts = OrganizerOptions::default();
            let outcome = match source {
                Some(src) => {
                    let (sfs, spath) = split(src);
                    bora::fsck::repair(&fs, &path, Some((&sfs, spath.as_str())), &opts, &mut ctx)
                        .unwrap_or_else(die)
                }
                None => bora::fsck::repair::<_, LocalStorage>(&fs, &path, None, &opts, &mut ctx)
                    .unwrap_or_else(die),
            };
            println!("repair: {outcome:?}");
        }
        ["ingest-stat", rest @ ..] => {
            let mut dir: Option<&str> = None;
            let mut json = false;
            let mut node: Option<&str> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match *a {
                    "--json" => json = true,
                    "--node" => node = Some(it.next().copied().unwrap_or_else(|| usage())),
                    d if dir.is_none() => dir = Some(d),
                    _ => usage(),
                }
            }
            let dir = dir.unwrap_or_else(|| usage());
            let (fs, path) = split(dir);
            let mut stats = ingest_stat(&fs, &path, dir, &mut ctx).unwrap_or_else(die);
            if let Some(addr) = node {
                stats.pool = scrape_pool(addr);
            }
            if json {
                println!("{}", stats.to_json());
            } else {
                stats.print_text();
            }
        }
        ["verify", dir] => {
            let (fs, path) = split(dir);
            let bag = BoraBag::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            match bag.verify(&mut ctx) {
                Ok(n) => println!("OK: {n} messages verified"),
                Err(e) => {
                    eprintln!("CORRUPT: {e}");
                    exit(1);
                }
            }
        }
        ["top", rest @ ..] => top(rest),
        ["chaos", rest @ ..] => chaos(rest),
        _ => usage(),
    }
}

// ------------------------------------------------------------------- query

/// `bora-tool query` — compile a SELECT statement with `bora-query` and
/// run it against a container on local disk. `--explain` acts like an
/// `EXPLAIN` prefix (plan only, nothing executes); a statement-level
/// `EXPLAIN [ANALYZE]` works too. `--json` emits one machine-readable
/// object; `--no-pushdown` plans with pushdown disabled (same rows,
/// different cost — compare the two EXPLAIN ANALYZE outputs).
fn query_container(
    dir: &str,
    sql: &str,
    explain: bool,
    json: bool,
    pushdown: bool,
    ctx: &mut IoCtx,
) {
    use bora_query::{explain_json, explain_text, prepare_with, ExplainMode, PlanOptions};

    let p = prepare_with(sql, &PlanOptions { pushdown }).unwrap_or_else(|e| {
        eprintln!("{}", e.render_caret(sql));
        exit(2);
    });
    let mode = match (explain, p.explain_mode()) {
        (true, ExplainMode::None) => ExplainMode::Plan,
        (_, m) => m,
    };
    if mode == ExplainMode::Plan {
        if json {
            println!("{}", explain_json(&p, None));
        } else {
            print!("{}", explain_text(&p, None));
        }
        return;
    }

    let (fs, path) = split(dir);
    let bag = BoraBag::open(&fs, &path, ctx).unwrap_or_else(die);
    let mut cur = p.cursor_bag(&bag, false, ctx).unwrap_or_else(die);
    let columns = cur.columns();
    let rows = cur.collect_rows().unwrap_or_else(|e| {
        eprintln!("{}", e.render_caret(sql));
        exit(1);
    });
    let stats = cur.stats();

    if json {
        let cols: Vec<String> = columns.iter().map(|c| json_string(c)).collect();
        let rendered: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|v| v.render_json()).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let explain_field = if mode == ExplainMode::Analyze {
            explain_json(&p, Some(&stats))
        } else {
            "null".into()
        };
        println!(
            "{{\"columns\":[{}],\"rows\":[{}],\"explain\":{explain_field}}}",
            cols.join(","),
            rendered.join(","),
        );
        return;
    }

    println!("{}", columns.join("\t"));
    for r in &rows {
        let cells: Vec<String> = r.iter().map(|v| v.render()).collect();
        println!("{}", cells.join("\t"));
    }
    eprintln!("({} row(s))", rows.len());
    if mode == ExplainMode::Analyze {
        eprint!("{}", explain_text(&p, Some(&stats)));
    }
}

// ------------------------------------------------------------------- chaos

/// `bora-tool chaos` — break an in-process 3-node cluster on purpose.
/// Runs the named fault scenario (or all of them) under a fixed seed,
/// prints each report, and exits nonzero on any invariant violation.
/// `--replay` runs every scenario twice and additionally fails if the
/// second run's outcome diverges from the first — the determinism check
/// CI leans on.
fn chaos(rest: &[&str]) {
    use bora_chaos::{run_scenario, Scenario};

    let mut seed: u64 = 0xb0ba;
    let mut json = false;
    let mut replay = false;
    let mut scenarios: Vec<Scenario> = Scenario::all().to_vec();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match *a {
            "--json" => json = true,
            "--replay" => replay = true,
            "--seed" => {
                let s = it.next().copied().unwrap_or_else(|| usage());
                seed = parse_seed(s).unwrap_or_else(|| {
                    eprintln!("bad seed: {s}");
                    exit(2);
                });
            }
            "--scenario" => {
                let s = it.next().copied().unwrap_or_else(|| usage());
                scenarios = match Scenario::parse(s) {
                    Some(sc) => vec![sc],
                    None if s == "all" => Scenario::all().to_vec(),
                    None => {
                        let names: Vec<_> = Scenario::all().iter().map(|sc| sc.name()).collect();
                        eprintln!("unknown scenario {s:?}; one of: {} | all", names.join(" | "));
                        exit(2);
                    }
                };
            }
            _ => usage(),
        }
    }

    let mut failed = false;
    let mut reports = Vec::new();
    for sc in scenarios {
        let report = run_scenario(sc, seed);
        failed |= !report.violations.is_empty();
        if !json {
            print_chaos_report(&report, "run");
        }
        if replay {
            let again = run_scenario(sc, seed);
            failed |= !again.violations.is_empty();
            if again.replay_key() != report.replay_key() {
                failed = true;
                eprintln!(
                    "REPLAY DIVERGED: {} seed={seed:#x}: {:016x} vs {:016x}",
                    sc.name(),
                    report.outcome_digest,
                    again.outcome_digest
                );
            } else if !json {
                print_chaos_report(&again, "replay");
            }
            reports.push(again);
        }
        reports.push(report);
    }
    if json {
        let lines: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", lines.join(","));
    }
    if failed {
        exit(1);
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn print_chaos_report(r: &bora_chaos::ScenarioReport, label: &str) {
    println!(
        "{:<16} {label:<6} seed={:#x} faults={} events={} ops={}/{} acked={} ambiguous={} \
         max_wall={:?} digest={:016x} violations={}",
        r.scenario,
        r.seed,
        r.faults_injected,
        r.events,
        r.ops_ok,
        r.ops_attempted,
        r.acked_batches,
        r.ambiguous_batches,
        r.max_op_wall,
        r.outcome_digest,
        r.violations.len()
    );
    for v in &r.violations {
        println!("  VIOLATION: {v}");
    }
}

// --------------------------------------------------------------------- top

/// `bora-tool top` — scrape every node's `METRICS` registry and render
/// the per-node / per-op latency table plus the fleet-wide slow-op tail.
/// `--nodes` speaks TCP to a running cluster; `--demo` spins up an
/// in-process 3-node cluster, drives a query mix through it, and scrapes
/// that (with `BORA_TRACE=1` it also writes the merged Chrome trace).
fn top(rest: &[&str]) {
    let mut json = false;
    let mut demo = false;
    let mut nodes: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match *a {
            "--json" => json = true,
            "--demo" => demo = true,
            "--nodes" => {
                nodes = Some(it.next().copied().unwrap_or_else(|| usage()).to_owned());
            }
            _ => usage(),
        }
    }
    let scrape = match (demo, nodes) {
        (true, None) => top_demo(),
        (false, Some(list)) => top_tcp(&list),
        _ => usage(),
    };
    if json {
        println!("{}", bora_cluster::scrape_to_json(&scrape));
    } else {
        print!("{}", bora_cluster::render_top(&scrape));
    }
}

/// Scrape running TCP nodes. No ring, no routing — `top` talks to every
/// address it is given, and a node that does not answer becomes an
/// `unreachable` row instead of killing the sweep.
fn top_tcp(list: &str) -> bora_cluster::ClusterScrape {
    use bora_serve::{ServeClient, TcpTransport};

    let mut scrape = bora_cluster::ClusterScrape::default();
    for (i, addr) in list.split(',').filter(|s| !s.is_empty()).enumerate() {
        let id = i as u32;
        let parsed: Result<std::net::SocketAddr, _> = addr.parse();
        let report = parsed.map_err(|e| format!("{addr}: {e}")).and_then(|sock| {
            ServeClient::connect(&TcpTransport::new(sock))
                .and_then(|mut c| c.metrics())
                .map_err(|e| format!("{addr}: {e}"))
        });
        match report {
            Ok(r) => scrape.reports.push((id, r)),
            Err(why) => scrape.unreachable.push((id, why)),
        }
    }
    scrape.aggregate = bora_cluster::aggregate_reports(
        &scrape.reports.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
    );
    scrape
}

/// A self-contained cluster to point `top` at: 3 nodes, 2 containers,
/// a small query mix. The slow-op threshold is dropped to 50µs so the
/// demo's in-memory ops actually populate the tail.
fn top_demo() -> bora_cluster::ClusterScrape {
    use bora_cluster::{ClusterClientConfig, ClusterTelemetry, ClusterTierConfig, LocalCluster};
    use ros_msgs::sensor_msgs::Imu;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    bora_obs::init_from_env();
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    for name in ["alpha", "beta"] {
        let bag = format!("/{name}.bag");
        let mut w =
            BagWriter::create(&staging, &bag, BagWriterOptions::default(), &mut ctx).unwrap();
        for i in 0..50u32 {
            let t = Time::new(100 + i, 0);
            let mut imu = Imu::default();
            imu.header.seq = i;
            imu.header.stamp = t;
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        bora::duplicate(
            &staging,
            &bag,
            &staging,
            &format!("/c/{name}"),
            &Default::default(),
            &mut ctx,
        )
        .unwrap_or_else(die);
    }

    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes: 3,
        server: bora_serve::ServerConfig { slow_op_threshold_ns: 50_000, ..Default::default() },
        ..Default::default()
    });
    cluster.provision(&staging, &["/c/alpha", "/c/beta"]).unwrap_or_else(die);
    let client = cluster.client(ClusterClientConfig::default());
    for round in 0..20 {
        for c in ["/c/alpha", "/c/beta"] {
            client.topics(c).unwrap_or_else(die);
            client.stat(c).unwrap_or_else(die);
            if round % 4 == 0 {
                client.read(c, &["/imu"]).unwrap_or_else(die);
            }
        }
    }
    let telemetry = ClusterTelemetry::new(client);
    let scrape = telemetry.scrape();
    cluster.shutdown();
    match bora_obs::write_trace_if_enabled("bora-top-demo.trace.json") {
        Ok(Some(p)) => eprintln!("trace written to {}", p.display()),
        Ok(None) => {}
        Err(e) => eprintln!("trace write failed: {e}"),
    }
    scrape
}

// -------------------------------------------------------------- ingest-stat

/// Everything `ingest-stat` reports, gathered once and rendered as
/// either the human table or `--json`.
struct IngestStats {
    root: String,
    /// What recovery would open: config, generation, committed seals and
    /// the debris it would sweep.
    plan: Recovery<LocalStorage>,
    seals: usize,
    seg_files: usize,
    durable: u64,
    active: u64,
    active_segments: usize,
    torn_shards: usize,
    /// Buffer-pool numbers scraped from a serving node (`--node <addr>`);
    /// `None` when the stat ran purely against the on-disk root.
    pool: Option<bora_cluster::PoolScrape>,
}

impl IngestStats {
    fn staging(&self) -> usize {
        self.plan.debris.iter().filter(|(p, _)| p.ends_with(".staging")).count()
    }

    fn lag_files(&self) -> usize {
        self.plan.seals.iter().map(|(_, m)| m.files.len()).sum()
    }

    fn print_text(&self) {
        let (cfg, gen) = (&self.plan.cfg, &self.plan.gen);
        println!("ingest root:    {}", self.root);
        println!(
            "config:         {} wal shard(s), group commit {}, \
             time window {} s",
            cfg.wal_shards,
            cfg.group_commit,
            cfg.window_ns as f64 / 1e9
        );
        match cfg.block {
            Some(b) => println!("blocks:         {} codec, {} B blocks", b.codec, b.block_size),
            None => println!("blocks:         off (v1 data files)"),
        }
        println!(
            "generation:     {} (compacted through seal {}, wal seq {}){}",
            gen.generation,
            gen.last_seal_seq,
            gen.last_wal_seq,
            match self.staging() {
                0 => String::new(),
                n => format!("  [{n} staging debris]"),
            }
        );
        println!(
            "sealed:         {} seal marker(s), {} segment file(s) on disk; \
             compaction lag: {} seal(s) / {} segment file(s) pending",
            self.seals,
            self.seg_files,
            self.plan.seals.len(),
            self.lag_files()
        );
        println!(
            "wal depth:      {} durable record(s); {} unsealed -> \
             {} active segment(s) on next open{}",
            self.durable,
            self.active,
            self.active_segments,
            if self.torn_shards > 0 {
                format!("  [{} shard(s) with torn tails — truncated on recovery]", self.torn_shards)
            } else {
                String::new()
            }
        );
        if let Some(p) = &self.pool {
            println!(
                "buffer pool:    budget {} B, resident {} B, hit ratio {:.1}%, {:.2} evictions/s",
                p.budget_bytes,
                p.resident_bytes,
                p.hit_ratio() * 100.0,
                p.evictions_per_sec()
            );
        }
    }

    /// One flat JSON object — stable key set, no derived strings, so CI
    /// can assert on it without parsing the human table.
    fn to_json(&self) -> String {
        let (cfg, gen) = (&self.plan.cfg, &self.plan.gen);
        let block_json = match cfg.block {
            Some(b) => format!(
                "{{\"codec\":{},\"block_size\":{}}}",
                json_string(&b.codec.to_string()),
                b.block_size
            ),
            None => "null".into(),
        };
        let pool_json = match &self.pool {
            Some(p) => format!(
                "{{\"budget_bytes\":{},\"resident_bytes\":{},\"hits\":{},\"misses\":{},\
                 \"hit_ratio\":{:.4},\"evictions\":{},\"evictions_per_sec\":{:.4}}}",
                p.budget_bytes,
                p.resident_bytes,
                p.hits,
                p.misses,
                p.hit_ratio(),
                p.evictions,
                p.evictions_per_sec()
            ),
            None => "null".into(),
        };
        format!(
            "{{\"root\":{},\"wal_shards\":{},\"group_commit\":{},\"window_ns\":{},\
             \"generation\":{},\"compacted_seal\":{},\"compacted_wal_seq\":{},\
             \"staging_debris\":{},\"seal_markers\":{},\"segment_files\":{},\
             \"lag_seals\":{},\"lag_segment_files\":{},\"wal_durable_records\":{},\
             \"wal_unsealed_records\":{},\"active_segments\":{},\"torn_wal_shards\":{},\
             \"block\":{block_json},\"pool\":{pool_json}}}",
            json_string(&self.root),
            cfg.wal_shards,
            cfg.group_commit,
            cfg.window_ns,
            gen.generation,
            gen.last_seal_seq,
            gen.last_wal_seq,
            self.staging(),
            self.seals,
            self.seg_files,
            self.plan.seals.len(),
            self.lag_files(),
            self.durable,
            self.active,
            self.active_segments,
            self.torn_shards,
        )
    }
}

/// Read a live ingest root the way recovery would, without writing to it:
/// the generation and seals it would open, and the WAL records it would
/// replay on top.
fn ingest_stat(
    fs: &LocalStorage,
    root: &str,
    shown: &str,
    ctx: &mut IoCtx,
) -> Result<IngestStats, String> {
    let plan = Recovery::read(fs, root, ctx).map_err(|e| match e {
        BoraError::NotAContainer(_) => {
            format!("{shown}: not a live ingest root (no .boraingest marker)")
        }
        e => format!("{shown}: {e}"),
    })?;
    let (mut seals, mut seg_files) = (0, 0);
    for e in fs.read_dir(&layout::seg_dir(root), ctx).map_err(|e| e.to_string())? {
        match layout::parse_seg_name(&e.name) {
            Some((_, None)) => seals += 1,
            Some((_, Some(_))) => seg_files += 1,
            None => {}
        }
    }
    // WAL depth: the records recovery keeps. Those above what the
    // generation and the seals cover replay into the active segments.
    let covered = plan.covered_wal_seq();
    let (mut durable, mut active, mut torn_shards) = (0, 0, 0);
    let mut active_topics = std::collections::BTreeSet::new();
    for k in 0..plan.cfg.wal_shards.max(1) {
        let path = layout::wal_shard_path(root, k);
        if !fs.exists(&path, ctx) {
            continue;
        }
        let bytes = fs.read_all(&path, ctx).map_err(|e| e.to_string())?;
        let (records, good_len) = wal::scan(&bytes);
        torn_shards += (good_len < bytes.len()) as usize;
        durable += records.len() as u64;
        for r in records.into_iter().filter(|r| r.seq > covered) {
            active += 1;
            active_topics.insert(r.topic);
        }
    }
    Ok(IngestStats {
        root: shown.to_owned(),
        plan,
        seals,
        seg_files,
        durable,
        active,
        active_segments: active_topics.len(),
        torn_shards,
        pool: None,
    })
}

/// Scrape one serving node's `METRICS` and pull out the pool numbers.
/// Unreachable node or no pool → `None` (reported as `"pool":null`).
fn scrape_pool(addr: &str) -> Option<bora_cluster::PoolScrape> {
    use bora_serve::{ServeClient, TcpTransport};
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| {
            eprintln!("bad --node address {addr}: {e}");
            exit(2);
        })
        .unwrap();
    let report = ServeClient::connect(&TcpTransport::new(sock))
        .and_then(|mut c| c.metrics())
        .map_err(|e| eprintln!("warning: cannot scrape {addr}: {e}"))
        .ok()?;
    bora_cluster::PoolScrape::from_report(&report)
}

fn die<E: std::fmt::Display, T>(e: E) -> T {
    eprintln!("error: {e}");
    exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: bora-tool <import <src.bag> <dir> | info <dir> | topics <dir> | \
         query <dir> <sql> [--explain] [--json] [--no-pushdown] | \
         export <dir> <out.bag> | verify <dir> | \
         fsck <dir> [--repair [--source <src.bag>]] | \
         ingest-stat <dir> [--json] [--node <addr>] | \
         top <--nodes <addr,...> | --demo> [--json] | \
         chaos [--seed <n>] [--scenario <name>|all] [--replay] [--json]>"
    );
    exit(2);
}
