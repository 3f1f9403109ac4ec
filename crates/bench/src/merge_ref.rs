//! Reference k-way merges over already-materialized per-topic streams.
//!
//! `bora`'s one merge is the incremental heap merge inside
//! `MessageStream`. These two stand-alone versions exist for measurement
//! and differential testing only: `ext_stream` charges the linear pick
//! against the heap pick on the virtual clock, and `tests/stream.rs` pins
//! the streaming merge against both.

use ros_msgs::Time;
use rosbag::reader::MessageRecord;
use simfs::device::cpu;
use simfs::IoCtx;

/// The retired linear-scan merge, kept as a reference implementation:
/// differential tests pin the streaming heap merge against it, and the
/// `ext_stream` experiment measures its O(N·k) pick (every output message
/// scans all k cursors) against the heap's O(N log k) — charged honestly
/// as N·k here, which the old in-line version understated as N·log k.
pub fn merge_streams_linear(
    mut streams: Vec<Vec<MessageRecord>>,
    ctx: &mut IoCtx,
) -> Vec<MessageRecord> {
    streams.retain(|s| !s.is_empty());
    match streams.len() {
        0 => Vec::new(),
        1 => streams.pop().unwrap(),
        k => {
            let total: usize = streams.iter().map(Vec::len).sum();
            ctx.charge_ns(total as u64 * k as u64 * cpu::SORT_ELEMENT_NS);
            let mut out = Vec::with_capacity(total);
            let mut cursors = vec![0usize; streams.len()];
            loop {
                let mut best: Option<(usize, Time)> = None;
                for (si, s) in streams.iter().enumerate() {
                    if let Some(m) = s.get(cursors[si]) {
                        if best.map(|(_, t)| m.time < t).unwrap_or(true) {
                            best = Some((si, m.time));
                        }
                    }
                }
                match best {
                    Some((si, _)) => {
                        out.push(streams[si][cursors[si]].clone());
                        cursors[si] += 1;
                    }
                    None => break,
                }
            }
            out
        }
    }
}

/// Binary-heap k-way merge over already-materialized streams, with the
/// same `(time, stream-position)` tie-break as `bora::MessageStream`. Used by
/// `ext_stream` and differential tests; the streaming path
/// performs the identical merge incrementally over cursors.
pub fn merge_streams_heap(streams: Vec<Vec<MessageRecord>>, ctx: &mut IoCtx) -> Vec<MessageRecord> {
    let k = streams.iter().filter(|s| !s.is_empty()).count();
    let total: usize = streams.iter().map(Vec::len).sum();
    if k > 1 {
        let logk = (usize::BITS - (k - 1).leading_zeros()) as u64;
        ctx.charge_ns(total as u64 * logk * cpu::SORT_ELEMENT_NS);
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::with_capacity(streams.len());
    let mut cursors = vec![0usize; streams.len()];
    for (lane, s) in streams.iter().enumerate() {
        if let Some(m) = s.first() {
            heap.push(std::cmp::Reverse((m.time.as_nanos(), lane)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(std::cmp::Reverse((_, lane))) = heap.pop() {
        out.push(streams[lane][cursors[lane]].clone());
        cursors[lane] += 1;
        if let Some(m) = streams[lane].get(cursors[lane]) {
            heap.push(std::cmp::Reverse((m.time.as_nanos(), lane)));
        }
    }
    out
}
