//! Reference k-way merges over already-materialized per-topic streams.
//!
//! `bora`'s one merge is `bora::stream::Merge`, which `MessageStream`
//! and the cluster router's merged stream both drive. These two
//! stand-alone versions are the oracle of the differential tests:
//! `tests/stream.rs` pins the streaming merge against both and the bare
//! `Merge` against the heap one.

use ros_msgs::Time;
use rosbag::reader::MessageRecord;

/// The retired linear-scan merge, kept as a reference implementation:
/// every output message scans all k cursors for the earliest head.
pub fn merge_streams_linear(mut streams: Vec<Vec<MessageRecord>>) -> Vec<MessageRecord> {
    streams.retain(|s| !s.is_empty());
    match streams.len() {
        0 => Vec::new(),
        1 => streams.pop().unwrap(),
        _ => {
            let total: usize = streams.iter().map(Vec::len).sum();
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
/// same `(time, stream-position)` tie-break as `bora::MessageStream`. The
/// streaming path performs the identical merge incrementally over cursors.
pub fn merge_streams_heap(streams: Vec<Vec<MessageRecord>>) -> Vec<MessageRecord> {
    let total: usize = streams.iter().map(Vec::len).sum();
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
