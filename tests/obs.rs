//! bora-obs integration: spans and metrics flow end to end through the
//! real stack — bag record, organizer import, baseline and BORA opens,
//! queries, and the serve layer's TRACE wire op.
//!
//! Tracing state (the enabled flag, ring buffers, drain) is process-wide,
//! so every test here serializes on one lock and keeps its assertions
//! inclusive (`contains`) rather than exact-count.

use bora_repro::*;

use bora::{BoraBag, BoraFs, BoraFsOptions};
use bora_serve::{MemTransport, ServeClient, Server, ServerConfig};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagReader, BagWriter, BagWriterOptions};
use simfs::{DeviceModel, IoCtx, MemStorage, Storage, TimedStorage};
use std::sync::{Arc, Mutex, MutexGuard};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn record_bag<S: Storage>(fs: &S, path: &str, ctx: &mut IoCtx) {
    let mut writer = BagWriter::create(fs, path, BagWriterOptions::default(), ctx).unwrap();
    for tick in 0..500u32 {
        let t = Time::from_nanos(1_000_000_000 * 50 + tick as u64 * 10_000_000);
        let mut imu = Imu::default();
        imu.header.seq = tick;
        imu.header.stamp = t;
        writer.write_ros_message("/imu", t, &imu, ctx).unwrap();
    }
    writer.close(ctx).unwrap();
}

#[test]
fn spans_cover_the_full_open_and_query_path() {
    let _guard = trace_lock();
    bora_obs::set_enabled(true);
    bora_obs::drain(); // discard anything a previous test left behind

    let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let mut ctx = IoCtx::new();
    record_bag(&fs, "/robot/obs.bag", &mut ctx);

    // Baseline open scans chunks; BORA open hashes the directory listing.
    let mut bctx = IoCtx::new();
    let reader = BagReader::open(&fs, "/robot/obs.bag", &mut bctx).unwrap();
    reader.read_messages(&["/imu"], &mut bctx).unwrap();

    let borafs =
        BoraFs::mount(&fs, "/mnt/bora", "/backend", BoraFsOptions::default(), &mut ctx).unwrap();
    borafs.import_bag(&fs, "/robot/obs.bag", "obs.bag", &mut ctx).unwrap();

    let before = bora_obs::snapshot();
    let mut octx = IoCtx::new();
    let bag = BoraBag::open(&fs, &borafs.container_root("obs.bag"), &mut octx).unwrap();
    let open_virt = octx.elapsed_ns();
    bag.read_topics_time(&["/imu"], Time::new(51, 0), Time::new(52, 0), &mut octx).unwrap();

    bora_obs::set_enabled(false);
    let events = bora_obs::drain();
    for required in [
        "rosbag.open",
        "rosbag.open.chunk_scan",
        "rosbag.open.index_build",
        "rosbag.read_messages",
        "bora.organize",
        "bora.open",
        "bora.open.tag_rebuild",
        "bora.open.meta_read",
        "bora.open.manifest_load",
        "bora.tindex.load",
        "bora.read_topics_time",
        "fs.read_at",
        "fs.append",
    ] {
        assert!(events.iter().any(|e| e.name == required), "missing span {required}");
    }

    // The acceptance criterion: the open's children partition its virtual
    // cost, and that cost is exactly what the cost model charged.
    let virt_of = |name: &str| -> u64 {
        events.iter().filter(|e| e.name == name).filter_map(|e| e.virt_ns).sum()
    };
    assert_eq!(
        virt_of("bora.open"),
        virt_of("bora.open.tag_rebuild")
            + virt_of("bora.open.meta_read")
            + virt_of("bora.open.manifest_load")
    );
    assert_eq!(virt_of("bora.open"), open_virt);

    // Nesting is visible in the recorded paths.
    assert!(events.iter().any(|e| e.path == "bora.open;bora.open.tag_rebuild"));
    assert!(events
        .iter()
        .any(|e| e.name == "fs.read_at" && e.path.starts_with("bora.read_topics_time;")));

    // Counters run even with tracing off; the open bumped them.
    let delta = bora_obs::snapshot().delta_since(&before);
    assert!(delta.counters.iter().any(|(k, v)| k == "bora.open.count" && *v >= 1));

    // Exporters accept the real event stream.
    let json = bora_obs::chrome_trace(&events, bora_obs::dropped());
    assert!(json.contains("\"bora.open.tag_rebuild\""));
    let folded = bora_obs::folded_stacks(&events);
    assert!(folded.contains("bora.open;bora.open.tag_rebuild"));
}

#[test]
fn serve_trace_op_returns_chrome_json_with_request_spans() {
    let _guard = trace_lock();
    bora_obs::set_enabled(true);
    bora_obs::drain();

    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    record_bag(&*fs, "/hs.bag", &mut ctx);
    bora::organizer::duplicate(
        &*fs,
        "/hs.bag",
        &*fs,
        "/srv0",
        &bora::OrganizerOptions::default(),
        &mut ctx,
    )
    .unwrap();

    let server = Server::start(Arc::clone(&fs), ServerConfig::default());
    let transport = MemTransport::new(Arc::clone(&server));
    let mut client = ServeClient::connect(&transport).unwrap();
    client.open("/srv0").unwrap();
    client.read("/srv0", &["/imu"]).unwrap();

    // TRACE is control-plane: answered inline, and it drains globally.
    let json = client.trace().unwrap();
    bora_obs::set_enabled(false);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"serve.open\""));
    assert!(json.contains("\"serve.read\""));

    // Queue-wait telemetry rides the METRICS scrape `stats()` projects.
    let snap = client.stats().unwrap();
    assert!(snap.queue_wait_p99_ns >= snap.queue_wait_mean_ns);

    client.shutdown().unwrap();
    server.shutdown();
}
