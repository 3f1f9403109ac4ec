//! `ext_stream` — the streaming query pipeline: heap vs linear merge
//! scaling in k, parallel prefetch, and bounded residency.
//!
//! The old read path merged k per-topic streams with a linear scan over
//! all k cursors per output message (O(N·k) picks) and materialized the
//! whole result set. The streaming pipeline replaces that with a binary
//! heap (O(N·log k)) over bounded prefetching cursors. Because merge CPU
//! is charged on the virtual clock (`SORT_ELEMENT_NS` per comparison),
//! the scaling claim is *deterministic*: this experiment sweeps
//! k ∈ {1..64} topics and reports the measured per-message pick cost of
//! both merges — ~log₂k for the heap, ~k for the scan — plus what the
//! pipeline adds on top: makespan-charged parallel prefetch and a peak
//! resident footprint pinned to the readahead window instead of the
//! result size.

use crate::merge_ref::{merge_streams_heap, merge_streams_linear};
use bora::container::FUSE_DELIVERY_NS;
use bora::{BoraBag, StreamOptions};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{MessageDescriptor, RosMessage, Time};
use rosbag::reader::MessageRecord;
use rosbag::{BagWriter, BagWriterOptions};
use simfs::device::cpu;
use simfs::{DeviceModel, IoCtx, MemStorage, TimedStorage};

use crate::env::ScaleConfig;
use crate::report::{speedup, us, Table};

/// Topic counts swept; the container carries `K_SWEEP`'s maximum.
const K_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Messages recorded per topic.
const MSGS_PER_TOPIC: u32 = 256;
/// Streaming readahead window for the sweep — small enough that every
/// k forces refills, so bounded residency is exercised, not asserted
/// on a stream that fit in one fill.
const READAHEAD: usize = 16 * 1024;

type Fs = TimedStorage<MemStorage>;

/// Record a 64-topic bag (Imu payloads, interleaved chronologically) and
/// organize it into `/c`.
fn build_container(fs: &Fs, seed: u64) -> Vec<String> {
    let mut ctx = IoCtx::new();
    let topics: Vec<String> =
        (0..K_SWEEP[K_SWEEP.len() - 1]).map(|i| format!("/sensor/{i:02}")).collect();
    let mut w = BagWriter::create(
        fs,
        "/sweep.bag",
        BagWriterOptions { chunk_size: 64 * 1024, ..Default::default() },
        &mut ctx,
    )
    .unwrap();
    let desc = MessageDescriptor::of::<Imu>();
    let conns: Vec<u32> = topics.iter().map(|t| w.add_connection(t, &desc)).collect();
    for i in 0..MSGS_PER_TOPIC {
        for (ti, &conn) in conns.iter().enumerate() {
            let mut imu = Imu::default();
            imu.header.seq = i;
            imu.header.stamp = Time::new(i, ti as u32);
            imu.linear_acceleration.x = (seed ^ (i as u64) << 8 ^ ti as u64) as f64;
            w.write_message(conn, imu.header.stamp, &imu.to_bytes(), &mut ctx).unwrap();
        }
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(fs, "/sweep.bag", fs, "/c", &Default::default(), &mut ctx).unwrap();
    topics
}

/// Virtual nanoseconds a closure charges.
fn virt<R>(f: impl FnOnce(&mut IoCtx) -> R) -> (u64, R) {
    let mut ctx = IoCtx::new();
    let r = f(&mut ctx);
    (ctx.elapsed_ns(), r)
}

pub fn run(scales: &ScaleConfig) -> Vec<Table> {
    let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
    let topics = build_container(&fs, scales.seed);
    let mut ctx = IoCtx::new();
    let bag = BoraBag::open(&fs, "/c", &mut ctx).unwrap();

    let mut table = Table::new(
        "ext_stream",
        "Extension: streaming pipeline — heap vs linear k-way merge, parallel prefetch, bounded residency",
        &[
            "k topics",
            "messages",
            "linear merge / msg",
            "heap merge / msg",
            "merge speedup",
            "stream virt (end-to-end)",
            "prefetch I/O (serial)",
            "prefetch I/O (pool=4)",
            "prefetch speedup",
            "peak resident",
            "refills",
        ],
    );

    let mut heap_per_msg = Vec::new();
    let mut linear_per_msg = Vec::new();
    for &k in &K_SWEEP {
        let refs: Vec<&str> = topics[..k].iter().map(String::as_str).collect();

        // Materialized per-topic streams, merged both ways. The merge cost
        // is charged per pick on the virtual clock, so the k-scaling of
        // each algorithm is measured, not modeled.
        let per_topic: Vec<Vec<MessageRecord>> =
            refs.iter().map(|t| bag.read_topic(t, &mut ctx).unwrap()).collect();
        let total: u64 = per_topic.iter().map(|s| s.len() as u64).sum();
        let (linear_ns, _) = virt(|c| merge_streams_linear(per_topic.clone(), c));
        let (heap_ns, _) = virt(|c| merge_streams_heap(per_topic.clone(), c));
        linear_per_msg.push(linear_ns / total);
        heap_per_msg.push(heap_ns / total);

        // The full streaming pipeline, zero-copy consumption, with and
        // without the prefetch pool: the delta is the makespan-vs-sum
        // charging of per-topic I/O.
        let copied_before = bora_obs::counter("stream.bytes_copied").get();
        let run_stream = |threads: usize| {
            virt(|c| {
                let opts = StreamOptions { readahead_bytes: READAHEAD, prefetch_threads: threads };
                let mut stream = bag.stream_topics(&refs, opts, c).unwrap();
                let (mut n, mut bytes) = (0u64, 0u64);
                while let Some(m) = stream.next_msg(c).unwrap() {
                    bytes += m.payload().len() as u64; // borrow only: zero-copy
                    n += 1;
                }
                assert!(bytes > 0);
                (n, stream.stats())
            })
        };
        let (serial_ns, (n_serial, _)) = run_stream(1);
        let (pooled_ns, (n_pooled, stats)) = run_stream(4);
        assert_eq!(n_serial, total, "stream must yield every message (k={k})");
        assert_eq!(n_pooled, total);
        // End-to-end virtual time is dominated by the per-message delivery
        // charge (identical for both runs); subtract it to expose the
        // prefetch I/O the pool actually parallelizes.
        let log_k = if k > 1 { (usize::BITS - (k - 1).leading_zeros()) as u64 } else { 0 };
        let delivery_ns = total * (FUSE_DELIVERY_NS + log_k * cpu::SORT_ELEMENT_NS);
        let serial_io = serial_ns.saturating_sub(delivery_ns);
        let pooled_io = pooled_ns.saturating_sub(delivery_ns);
        if k >= 8 {
            assert!(
                pooled_io < serial_io,
                "pooled prefetch should beat serial: {pooled_io} vs {serial_io} ns (k={k})"
            );
        }
        assert_eq!(
            bora_obs::counter("stream.bytes_copied").get(),
            copied_before,
            "payload()-only consumption must copy nothing (k={k})"
        );
        let residency_bound = k * (2 * READAHEAD + 4096);
        assert!(
            stats.peak_resident_bytes <= residency_bound,
            "peak resident {} exceeds k×window bound {residency_bound} (k={k})",
            stats.peak_resident_bytes,
        );

        table.row(vec![
            k.to_string(),
            total.to_string(),
            format!("{} ns", linear_per_msg.last().unwrap()),
            format!("{} ns", heap_per_msg.last().unwrap()),
            speedup(linear_ns, heap_ns.max(1)),
            us(pooled_ns),
            us(serial_io),
            us(pooled_io),
            speedup(serial_io, pooled_io.max(1)),
            crate::report::size(stats.peak_resident_bytes as u64),
            stats.refills.to_string(),
        ]);
    }

    // The scaling claim, asserted on the measured per-message pick cost:
    // from k=4 to k=64 the linear scan grows ~16x (k) while the heap grows
    // ~3x (log₂k: 2 → 6). Generous slack keeps the assertion about the
    // growth *law*, not the constants.
    let (k4, k64) = (
        K_SWEEP.iter().position(|&k| k == 4).unwrap(),
        K_SWEEP.iter().position(|&k| k == 64).unwrap(),
    );
    let linear_growth = linear_per_msg[k64] as f64 / linear_per_msg[k4].max(1) as f64;
    let heap_growth = heap_per_msg[k64] as f64 / heap_per_msg[k4].max(1) as f64;
    assert!(
        linear_growth >= 8.0,
        "linear merge should scale ~k: 4→64 topics grew only {linear_growth:.1}x"
    );
    assert!(
        heap_growth <= 4.0,
        "heap merge should scale ~log k: 4→64 topics grew {heap_growth:.1}x"
    );

    table.note(format!(
        "container: {} topics × {MSGS_PER_TOPIC} Imu messages; merge cost is per-message \
         virtual CPU (SORT_ELEMENT_NS per comparison), so the k-scaling is deterministic",
        topics.len()
    ));
    table.note(format!(
        "measured growth k=4→64: linear {linear_growth:.1}x (~k/4=16), heap {heap_growth:.1}x \
         (~log64/log4=3); streaming peak residency stays within k×{READAHEAD}B windows \
         while the full result set is ~100x larger at k=64"
    ));
    table.note(
        "the end-to-end column runs the full pipeline (index load + prefetch + merge + \
         delivery); the prefetch I/O columns subtract the per-message delivery charge \
         (identical for both runs) — the pool=4 run charges each fill pass as per-thread \
         makespan over its topic lanes, mirroring the organizer's distributor accounting",
    );

    vec![table]
}
