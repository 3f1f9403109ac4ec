//! Serving-layer walkthrough: one bora-serve process, many query clients.
//!
//! ```text
//! cargo run --example serve_queries
//! ```
//!
//! The paper's model is one analysis process opening one container. A
//! post-mission fleet workflow is the opposite shape — many analysts
//! hammering yesterday's few containers — and paying `BoraBag::open` per
//! query repays the tag-table build every time. bora-serve amortizes it:
//! this example stands up a server over three containers, runs a skewed
//! query mix through concurrent clients on the in-process transport, then
//! repeats a few queries over real TCP, and finally reads the server's
//! own numbers — `stats()`, the `STATS` view of one `METRICS` scrape — to
//! show the cache doing its job. It asserts that the cache both hit and
//! evicted, so a run that exits 0 is that claim checked.

use std::sync::Arc;

use bora_serve::{
    spawn_tcp_listener, MemTransport, ServeClient, Server, ServerConfig, TcpTransport,
};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::Time;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

fn main() {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();

    // --- 1. Three containers from one recorded mission. ---
    let mut writer = BagWriter::create(&*fs, "/mission.bag", BagWriterOptions::default(), &mut ctx)
        .expect("create bag");
    for tick in 0..2_000u32 {
        let t = Time::from_nanos(1_000_000_000 * 100 + tick as u64 * 10_000_000); // 100 Hz
        let mut imu = Imu::default();
        imu.header.seq = tick;
        imu.header.stamp = t;
        writer.write_ros_message("/imu", t, &imu, &mut ctx).expect("write imu");
    }
    writer.close(&mut ctx).expect("close bag");
    for day in 0..3 {
        bora::duplicate(
            &*fs,
            "/mission.bag",
            &*fs,
            &format!("/missions/day{day}"),
            &Default::default(),
            &mut ctx,
        )
        .expect("organize container");
    }

    // --- 2. Start the service: 4 workers, bounded queue, 2-slot cache. ---
    // The cache is deliberately smaller than the container count so the
    // numbers below show both hits and evictions.
    let server = Server::start(
        Arc::clone(&fs),
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let transport = MemTransport::new(Arc::clone(&server));

    // --- 3. A cold sweep, one container at a time: capacity is a hard
    // bound, so the third open evicts the first. Then concurrent clients,
    // 90% of traffic on day2 (the hot one).
    let mut sweeper = ServeClient::connect(&transport).expect("connect");
    for day in 0..3 {
        let (_, cached) = sweeper.open(&format!("/missions/day{day}")).expect("open");
        assert!(!cached, "day{day} opens cold");
    }
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let transport = &transport;
            scope.spawn(move || {
                let mut client = ServeClient::connect(transport).expect("connect");
                for round in 0..10 {
                    let root = if (worker + round) % 10 == 0 {
                        format!("/missions/day{}", round % 2) // the cold tail
                    } else {
                        "/missions/day2".to_owned()
                    };
                    let msgs = client.read(&root, &["/imu"]).expect("read");
                    assert_eq!(msgs.len(), 2_000);
                }
            });
        }
    });

    // --- 4. The same protocol over real TCP. ---
    let listener = spawn_tcp_listener(Arc::clone(&server), "127.0.0.1:0".parse().unwrap())
        .expect("bind listener");
    println!("serving on tcp://{}", listener.addr());
    let mut tcp_client =
        ServeClient::connect(&TcpTransport::new(listener.addr())).expect("tcp connect");
    let topics = tcp_client.topics("/missions/day2").expect("topics");
    let stat = tcp_client.stat("/missions/day2").expect("stat");
    println!(
        "over TCP: topics {:?}, {} messages, span [{} .. {}]",
        topics, stat.messages, stat.start, stat.end
    );
    let window = tcp_client
        .read_time("/missions/day2", &["/imu"], Time::new(105, 0), Time::new(106, 0))
        .expect("windowed read");
    println!("window [105 s, 106 s): {} messages", window.len());

    // --- 5. What the server saw: per-op latency and cache behaviour,
    // read over TCP as a `METRICS` scrape and projected. ---
    let snap = tcp_client.stats().expect("stats");
    assert!(snap.cache_hits > 0, "the hot container must hit the cache: {snap:?}");
    assert!(snap.cache_evictions > 0, "a 2-slot cache over 3 containers must evict: {snap:?}");
    println!(
        "served {} requests | cache: {} hits / {} misses / {} evictions (hit rate {:.0}%)",
        snap.total_requests(),
        snap.cache_hits,
        snap.cache_misses,
        snap.cache_evictions,
        snap.cache_hit_rate() * 100.0
    );
    for (op, s) in &snap.ops {
        if s.count > 0 {
            println!(
                "  {op:<6} n={:<3} wall mean {:>7.1} us  p99 {:>7.1} us",
                s.count,
                s.wall_mean_ns as f64 / 1e3,
                s.wall_p99_ns as f64 / 1e3
            );
        }
    }

    // --- 6. Clean shutdown: workers drain, the TCP acceptor exits. ---
    tcp_client.shutdown().expect("shutdown");
    listener.join();
    server.shutdown();
    println!("server stopped");
}
