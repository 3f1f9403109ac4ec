//! `bora-serve` — serve BORA container queries over TCP.
//!
//! The repo's storage backends are simulated (in-memory, cost-modeled),
//! so the binary seeds its own demo containers at startup and serves
//! them; it demonstrates the full network deployment shape (framed TCP,
//! worker pool, cache, metrics) rather than exporting a host directory.
//!
//! ```text
//! bora-serve [--listen 127.0.0.1:7540] [--workers 4] [--queue 64]
//!            [--cache 8] [--containers 4] [--messages 600]
//! ```
//!
//! Containers are mounted at `/c/bag0 … /c/bag{N-1}`. Stop the server
//! with the protocol's `SHUTDOWN` op (`ServeClient::shutdown`).

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;

use bora_serve::{spawn_tcp_listener, Server, ServerConfig};
use ros_msgs::{sensor_msgs::Imu, sensor_msgs::NavSatFix, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

struct Args {
    listen: SocketAddr,
    workers: usize,
    queue: usize,
    cache: usize,
    containers: usize,
    messages: u32,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: bora-serve [--listen ADDR:PORT] [--workers N] [--queue N] \
         [--cache N] [--containers N] [--messages N]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7540".parse().unwrap(),
        workers: 4,
        queue: 64,
        cache: 8,
        containers: 4,
        messages: 600,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--listen" => {
                let v = value("--listen");
                args.listen = v.parse().unwrap_or_else(|_| {
                    usage(&format!("bad --listen address {v:?} (want IP:PORT)"))
                });
            }
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers", 1),
            "--queue" => args.queue = parse_num(&value("--queue"), "--queue", 1),
            "--cache" => args.cache = parse_num(&value("--cache"), "--cache", 1),
            "--containers" => {
                args.containers = parse_num(&value("--containers"), "--containers", 1)
            }
            "--messages" => args.messages = parse_num(&value("--messages"), "--messages", 1) as u32,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn parse_num(v: &str, flag: &str, min: usize) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => usage(&format!("bad value {v:?} for {flag} (want integer >= {min})")),
    }
}

/// Write one demo bag (an IMU stream plus a low-rate GPS topic) and
/// organize it into a container.
fn seed_container(fs: &Arc<MemStorage>, idx: usize, messages: u32) -> String {
    let mut ctx = IoCtx::new();
    let bag_path = format!("/src/bag{idx}.bag");
    let root = format!("/c/bag{idx}");
    let mut w = BagWriter::create(&**fs, &bag_path, BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..messages {
        let t = Time::new(i / 10, (i % 10) * 100_000_000);
        let mut imu = Imu::default();
        imu.header.stamp = t;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        if i % 10 == 0 {
            let mut fix = NavSatFix::default();
            fix.header.stamp = t;
            fix.latitude = idx as f64 + i as f64 * 1e-6;
            w.write_ros_message("/gps/fix", t, &fix, &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&**fs, &bag_path, &**fs, &root, &Default::default(), &mut ctx).unwrap();
    root
}

fn main() {
    let args = parse_args();
    if bora_obs::init_from_env() {
        println!("tracing enabled (BORA_TRACE); drain with the TRACE op or ServeClient::trace");
    }
    let fs = Arc::new(MemStorage::new());

    println!("seeding {} demo container(s), {} messages each...", args.containers, args.messages);
    for i in 0..args.containers {
        let root = seed_container(&fs, i, args.messages);
        println!("  {root}");
    }

    let server = Server::start(
        Arc::clone(&fs),
        ServerConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            cache_capacity: args.cache,
            ..ServerConfig::default()
        },
    );
    let listener = match spawn_tcp_listener(Arc::clone(&server), args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", args.listen);
            exit(1);
        }
    };
    println!(
        "bora-serve listening on {} ({} workers, queue {}, cache {})",
        listener.addr(),
        args.workers,
        args.queue,
        args.cache
    );
    println!("stop with the SHUTDOWN op (ServeClient::shutdown)");

    listener.join();
    let snap = server.stats();
    server.shutdown();
    println!(
        "shutdown: served {} request(s), shed {}, cache hit rate {:.1}%",
        snap.total_requests(),
        snap.shed,
        snap.cache_hit_rate() * 100.0
    );
}
