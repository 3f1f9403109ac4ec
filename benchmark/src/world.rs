//! What every workload stands on: the generated `hs` data set, the
//! reference answers read from it with the paper's baseline reader, and a
//! running server behind TCP loopback.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bora::{BlockParams, OrganizerOptions};
use bora_serve::{
    spawn_tcp_listener, ServeClient, Server, ServerConfig, TcpConnection, TcpListenerHandle,
    TcpTransport,
};
use ros_msgs::Time;
use rosbag::{BagReader, MessageRecord};
use simfs::{EntryKind, IoCtx, MemStorage, Storage};
use workloads::tum::{self, topic, GenOptions};

pub type Fs = Arc<MemStorage>;
pub type Client = ServeClient<TcpConnection>;

pub const BAG: &str = "/hs.bag";

/// The five small topics (k=5 merge), in connection order so the
/// stream's `(time, lane)` tie-break is the baseline reader's
/// `(time, conn)`.
pub const SMALL_TOPICS: [&str; 5] =
    [topic::RGB_CAMERA_INFO, topic::DEPTH_CAMERA_INFO, topic::MARKER_ARRAY, topic::IMU, topic::TF];
/// The paper's HS application: the two image topics.
pub const IMAGE_TOPICS: [&str; 2] = [topic::DEPTH_IMAGE, topic::RGB_IMAGE];

/// Generate the `hs` bag: the paper's Handheld-SLAM mission at full
/// message count with payloads shrunk to 2% (60,987 messages, 73.7 MB).
/// `--quick` records a tenth of the mission.
pub fn generate(fs: &Fs, seed: u64, quick: bool) {
    let opts = GenOptions {
        count_scale: if quick { 0.1 } else { 1.0 },
        payload_scale: 0.02,
        seed,
        ..Default::default()
    };
    tum::generate_bag(&**fs, BAG, &opts, &mut IoCtx::new()).expect("generate hs bag");
}

/// Organise the bag into a container at `root`; returns payload bytes.
pub fn organise(fs: &Fs, root: &str, block: bool) -> u64 {
    let opts =
        OrganizerOptions { block: block.then(BlockParams::default), ..OrganizerOptions::default() };
    bora::duplicate(&**fs, BAG, &**fs, root, &opts, &mut IoCtx::new())
        .expect("organise hs bag")
        .payload_bytes
}

/// Bytes of every file under `root`.
pub fn tree_bytes(fs: &Fs, root: &str) -> u64 {
    let mut ctx = IoCtx::new();
    let mut total = 0;
    let mut stack = vec![root.to_owned()];
    while let Some(dir) = stack.pop() {
        for e in fs.read_dir(&dir, &mut ctx).expect("list container tree") {
            let path = format!("{dir}/{}", e.name);
            match e.kind {
                EntryKind::Dir => stack.push(path),
                EntryKind::File => total += fs.len(&path, &mut ctx).expect("file length"),
            }
        }
    }
    total
}

/// The mission as the baseline `rosbag` reader returns it: every answer
/// the benchmark checks is derived from this list, never from BORA.
pub struct Reference {
    /// All messages in `(time, conn)` order.
    pub mission: Vec<MessageRecord>,
    /// The bag's topics, sorted.
    pub topics: Vec<String>,
    pub datatypes: HashMap<String, String>,
    pub start: Time,
    pub end: Time,
    pub payload_bytes: u64,
    /// Wall clock of the baseline's own `open` and full read.
    pub rosbag_open_ms: f64,
    pub rosbag_read_ns_per_msg: f64,
}

impl Reference {
    pub fn read(fs: &Fs) -> Reference {
        let mut ctx = IoCtx::new();
        let t = Instant::now();
        let reader = BagReader::open(&**fs, BAG, &mut ctx).expect("baseline open");
        let rosbag_open_ms = t.elapsed().as_secs_f64() * 1e3;
        let topics: Vec<&str> = tum::TUM_TOPICS.iter().map(|t| t.name).collect();
        let t = Instant::now();
        let mission = reader.read_messages(&topics, &mut ctx).expect("baseline read");
        let rosbag_read_ns_per_msg = t.elapsed().as_nanos() as f64 / mission.len() as f64;
        let mut topics: Vec<String> =
            reader.index().topics().into_iter().map(String::from).collect();
        topics.sort();
        let datatypes = reader
            .index()
            .connections
            .iter()
            .map(|c| (c.topic.clone(), c.datatype.clone()))
            .collect();
        Reference {
            start: mission.first().expect("non-empty mission").time,
            end: mission.last().expect("non-empty mission").time,
            payload_bytes: mission.iter().map(|m| m.data.len() as u64).sum(),
            mission,
            topics,
            datatypes,
            rosbag_open_ms,
            rosbag_read_ns_per_msg,
        }
    }

    pub fn span_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }

    /// Messages of `topics` among the first `upto` of the mission with
    /// `start <= time < end`, in mission order.
    pub fn select(
        &self,
        topics: &[&str],
        range: Option<(Time, Time)>,
        upto: usize,
    ) -> Vec<&MessageRecord> {
        let (s, e) = range.unwrap_or((Time::ZERO, Time::MAX));
        let lo = self.mission[..upto].partition_point(|m| m.time < s);
        let hi = self.mission[..upto].partition_point(|m| m.time < e);
        self.mission[lo..hi].iter().filter(|m| topics.contains(&m.topic.as_str())).collect()
    }
}

/// One server over `fs` behind a TCP loopback listener.
pub struct Stack {
    pub server: Arc<Server<Fs>>,
    listener: TcpListenerHandle,
    transport: TcpTransport,
}

impl Stack {
    /// `cache_capacity` is the handle cache's; workers and queue are the
    /// benchmark's fixed serving configuration.
    pub fn start(fs: &Fs, cache_capacity: usize) -> Stack {
        let config =
            ServerConfig { workers: 2, queue_capacity: 64, cache_capacity, ..Default::default() };
        let server = Server::start(Arc::clone(fs), config);
        let addr = "127.0.0.1:0".parse().expect("loopback address");
        let listener = spawn_tcp_listener(Arc::clone(&server), addr).expect("bind loopback");
        let transport = TcpTransport::new(listener.addr());
        Stack { server, listener, transport }
    }

    pub fn connect(&self) -> Client {
        ServeClient::connect(&self.transport).expect("connect over loopback")
    }

    /// Stop the workers and the acceptor. Clients must be dropped first:
    /// a connection thread ends when its peer hangs up.
    pub fn stop(self) {
        self.server.shutdown();
        self.listener.join();
    }
}
