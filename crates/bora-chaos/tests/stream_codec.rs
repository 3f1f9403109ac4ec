//! The codec of each read chunk, as a client sees it on the wire: a
//! connection LZ-codes its chunks only when its link pays for it.
//!
//! A connection ships raw, and probes nothing, until a send blocks on a
//! full reply window. Over the in-process transport the link is faster
//! than the encoder, so at most one warm-up round's three probes go
//! LZ-coded, none before a blocked send. Over a link capped at 2 MB/s on
//! the serving side the same stream turns to LZ, and when the cap is
//! lifted mid-stream its codec re-opens a round and returns to raw — for
//! one server's own client and for a cluster stream alike. A second
//! stream on the connection ships what the first one chose, from its first
//! chunk on. Either way the messages delivered are `READ`'s, byte for
//! byte.

use std::io;
use std::sync::{Arc, Mutex};

use std::sync::RwLock;

use bora_chaos::ThrottledTransport;
use bora_cluster::{ClusterClient, ClusterClientConfig, Ring, RingConfig};
use bora_serve::metrics::STREAM_CODEC_REOPENS;
use bora_serve::{
    split_seq, Connection, MemTransport, Response, ServeClient, Server, ServerConfig, Transport,
    WireMessage,
};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use simfs::{IoCtx, MemStorage};

const ROOT: &str = "/c/codec";
/// Messages per chunk the server sends: 32 messages of [`PAYLOAD`] bytes
/// fill both of a chunk's floors, 32 messages and one 64 KiB block.
const CHUNK: usize = 32;
/// Bytes of each message's payload.
const PAYLOAD: usize = 2048;
/// Frames a stream's reply window holds: no send before chunk
/// `WINDOW + 1`'s — the window full, the connection writing one more —
/// can block.
const WINDOW: usize = 4;

/// The tests run one at a time. Each stream judges its link by its own
/// timings, and a sibling test building its container is CPU load those
/// timings would carry: with the connection thread starved of CPU, raw
/// and LZ cost the worker alike, and a few chunks may go either way.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A server over one container of `chunks` chunks of IMU messages, each
/// zero-padded to [`PAYLOAD`] bytes, which LZ-code well.
fn serve(chunks: usize) -> Arc<Server<Arc<MemStorage>>> {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let options = rosbag::BagWriterOptions::default();
    let mut w = rosbag::BagWriter::create(&*fs, "/stage.bag", options, &mut ctx).unwrap();
    let desc = MessageDescriptor {
        datatype: "test_msgs/PaddedImu".into(),
        md5sum: "0".repeat(32),
        definition: "uint8[] data\n".into(),
    };
    let conn = w.add_connection("/imu", &desc);
    for i in 0..(chunks * CHUNK) as u32 {
        let mut imu = Imu::default();
        imu.header.seq = i;
        imu.header.stamp = Time::new(1 + i / 100, i % 100 * 10_000_000);
        let mut data = imu.to_bytes();
        data.resize(PAYLOAD, 0);
        w.write_message(conn, imu.header.stamp, &data, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&*fs, "/stage.bag", &*fs, ROOT, &Default::default(), &mut ctx).unwrap();
    Server::start(fs, ServerConfig::default())
}

/// A client connection that notes, for every stream chunk it receives,
/// whether the chunk is LZ-coded (its block frame's codec byte).
struct Tap<C> {
    inner: C,
    lz: Arc<Mutex<Vec<bool>>>,
}

impl<C: Connection> Connection for Tap<C> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.inner.send_frame(parts)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv_frame()?;
        let resp = split_seq(&frame).and_then(|(_, rest)| Response::decode(rest));
        if let Ok(Response::StreamChunkLz(chunk)) = resp {
            self.lz.lock().unwrap().push(chunk[0] == bora::BlockCodec::Lzss.id());
        }
        Ok(frame)
    }
}

fn tapped<C: Connection>(inner: C) -> (ServeClient<Tap<C>>, Arc<Mutex<Vec<bool>>>) {
    let lz = Arc::new(Mutex::new(Vec::new()));
    (ServeClient::new(Tap { inner, lz: Arc::clone(&lz) }), lz)
}

fn lz_positions(lz: &[bool]) -> Vec<usize> {
    (0..lz.len()).filter(|&k| lz[k]).collect()
}

#[test]
fn a_fast_link_lz_codes_the_probes_alone() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = serve(201);
    let transport = MemTransport::new(Arc::clone(&server));
    // The read goes on a connection of its own: its chunks would be the
    // tapped connection's first 201.
    let read = ServeClient::connect(&transport).unwrap().read(ROOT, &["/imu"]).unwrap();
    let (mut c, lz) = tapped(transport.connect().unwrap());
    let streamed: Vec<WireMessage> =
        c.read_stream(ROOT, &["/imu"]).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(streamed, read);
    let lz = lz.lock().unwrap();
    assert_eq!(lz.len(), 201);
    // None, or a prefix of the one round a blocked send opens: chunks
    // b + 1, b + 5 and b + 9 after the first blocked send b.
    let probes = lz_positions(&lz);
    assert!(probes.len() <= 3, "LZ-coded chunks {probes:?}");
    if let Some(&first) = probes.first() {
        assert!(first > WINDOW, "chunk {first} LZ-coded before a send could block");
        assert!(probes.iter().enumerate().all(|(j, &k)| k == first + 4 * j), "{probes:?}");
    }
    server.shutdown();
}

#[test]
fn a_slow_link_turns_the_stream_to_lz_and_a_lifted_cap_back_to_raw() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const THROTTLED: usize = 200;
    const LIFTED: usize = 160;
    let server = serve(THROTTLED + LIFTED);
    let mut plain = ServeClient::connect(&MemTransport::new(Arc::clone(&server))).unwrap();
    let read = plain.read(ROOT, &["/imu"]).unwrap();

    let link = ThrottledTransport::new(Arc::clone(&server), 2_000_000);
    let (mut c, lz) = tapped(link.connect().unwrap());
    let mut streamed = Vec::with_capacity(read.len());
    for m in c.read_stream(ROOT, &["/imu"]).unwrap() {
        streamed.push(m.unwrap());
        if streamed.len() == THROTTLED * CHUNK {
            link.set_rate(0);
        }
    }
    assert_eq!(streamed, read);
    let lz = lz.lock().unwrap();
    assert_eq!(lz.len(), THROTTLED + LIFTED);

    // Every chunk up to the lift left under the cap. Once LZ has proved
    // itself, raw ships only as a probe.
    let throttled = &lz[..THROTTLED];
    let eighth = lz_positions(throttled)[7];
    let after = &throttled[eighth + 1..];
    let coded = after.iter().filter(|&&lz| lz).count();
    assert!(
        coded >= after.len() * 3 / 4,
        "{coded} of {} chunks after the 8th LZ one LZ-coded: {:?}",
        after.len(),
        lz_positions(throttled)
    );
    // Lifted: the probes of raw see a fast link again, and raw returns.
    let tail = &lz[lz.len() - LIFTED / 2..];
    let raw = tail.iter().filter(|&&lz| !lz).count();
    assert!(
        raw >= tail.len() * 3 / 4,
        "{raw} of the last {} chunks raw: {:?}",
        tail.len(),
        lz_positions(&lz[THROTTLED..])
    );
    // Raw's return took a re-opened round: LZ's wait fell below its
    // encode surcharge.
    let reopens = server.metrics_report().counter(STREAM_CODEC_REOPENS);
    println!("{reopens} re-opened rounds");
    assert!(reopens >= 1, "the codec never re-opened a round");
    server.shutdown();
}

/// A connection's streams are consecutive chunks of one link, with one
/// codec. Behind a slow link the second stream ships the LZ its first
/// chose from its first chunk, with no raw warm-up of its own. Over the
/// in-process transport the two streams together probe at most one
/// round — three chunks, four apart — so the second opens none of its
/// own once the first has probed (whether, and when, a send of the first
/// blocks there is the scheduler's call).
#[test]
fn a_connections_second_stream_ships_what_its_first_chose() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const CHUNKS: usize = 201;
    let server = serve(CHUNKS);
    let mem = MemTransport::new(Arc::clone(&server));
    let read = ServeClient::connect(&mem).unwrap().read(ROOT, &["/imu"]).unwrap();
    let twice = |conn| {
        let (mut c, lz) = tapped(conn);
        for _ in 0..2 {
            let streamed: Vec<WireMessage> =
                c.read_stream(ROOT, &["/imu"]).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(streamed, read);
        }
        let lz = lz.lock().unwrap().clone();
        assert_eq!(lz.len(), 2 * CHUNKS);
        lz
    };

    let slow = twice(ThrottledTransport::new(Arc::clone(&server), 2_000_000).connect().unwrap());
    let second = &slow[CHUNKS..];
    // No send of the second stream can block before its chunk WINDOW + 1,
    // so a codec of its own would ship all of these raw. Probes are four
    // apart: a round re-opened at the boundary makes at most two raw.
    let head = second[..=WINDOW].iter().filter(|&&lz| lz).count();
    assert!(head > WINDOW / 2, "{head} of the second stream's first chunks LZ-coded: {second:?}");
    let coded = second.iter().filter(|&&lz| lz).count();
    assert!(
        coded >= CHUNKS * 3 / 4,
        "{coded} of the second stream's {CHUNKS} chunks LZ-coded: {:?}",
        lz_positions(second)
    );

    let fast = twice(mem.connect().unwrap());
    let probes = lz_positions(&fast);
    assert!(probes.len() <= 3, "LZ-coded chunks {probes:?}");
    assert!(probes.iter().enumerate().all(|(j, &k)| k == probes[0] + 4 * j), "{probes:?}");
    server.shutdown();
}

/// A cluster stream is `ServeClient`'s stream plus a failover policy:
/// behind a slow link its chunks arrive LZ-coded and decode to `READ`'s
/// messages.
#[test]
fn a_cluster_stream_over_a_slow_link_decodes_lz_chunks() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = serve(40);
    let ring = Arc::new(RwLock::new(Ring::with_nodes(RingConfig::default(), 1)));
    let link = ThrottledTransport::new(Arc::clone(&server), 2_000_000);
    let client = ClusterClient::new(ring, [(0, link)], ClusterClientConfig::default());
    let read = client.read(ROOT, &["/imu"]).unwrap();
    let lz = bora_obs::counter("serve.stream_chunk_lz");
    let before = lz.get();
    let streamed: Vec<WireMessage> =
        client.read_stream(ROOT, &["/imu"]).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(streamed, read);
    // The window blocks behind the cap, so at least the warm-up round's
    // probes went LZ-coded.
    let coded = lz.get() - before;
    assert!(coded >= 3, "{coded} of 40 chunks LZ-coded");
    server.shutdown();
}
