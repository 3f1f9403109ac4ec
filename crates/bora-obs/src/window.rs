//! [`WindowedHistogram`]: a sliding-window exponential histogram built as
//! a ring of time-sliced [`crate::ExpHistogram`]s.
//!
//! The cumulative histograms in [`crate::registry`] answer "what happened
//! since process start"; SLO questions need "what is the p99 *right
//! now*". A `WindowedHistogram` keeps `nslots` slots of `slot_ns` each
//! (e.g. 60 × 1 s); a sample lands in the slot owned by its timestamp,
//! and a snapshot merges every slot still inside the window. Memory is
//! fixed at construction: `nslots × (4 + BUCKETS)` u64 atomics (epoch,
//! count, sum, min + 64 buckets) — for the default 60 × 1 s window that
//! is ~32 KiB per histogram, independent of traffic.
//!
//! ## Concurrency
//!
//! Recording is lock-free in the steady state: a `fetch_add` into the
//! live slot. When the window advances onto a stale slot, the first
//! recorder to arrive claims it with a compare-exchange (a transient
//! `LOCKED` epoch), zeroes it and publishes the new epoch; concurrent
//! recorders spin for the handful of stores that takes. Samples older
//! than the window (a thread descheduled mid-record) are dropped rather
//! than pollute a newer slot.
//!
//! All time is explicit (`record_at` / `snapshot_at`, nanoseconds on the
//! caller's clock — use [`crate::now_ns`]), so tests are deterministic;
//! [`WindowedHistogram::record`] / [`WindowedHistogram::snapshot`] are
//! thin wrappers over the trace clock.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::hist::{ExpHistogram, HistSummary, BUCKETS};
use crate::trace::now_ns;

/// Transient epoch marker while a slot is being recycled.
const LOCKED: u64 = u64::MAX;

/// One time slice of the window. Epoch is stored as `slot_index + 1`
/// (0 = never used) so a fresh ring needs no initialization pass.
#[derive(Default)]
struct Slot {
    epoch: AtomicU64,
    hist: ExpHistogram,
}

// The module docs' memory bound: an epoch beside each slot's histogram.
const _: () = assert!(std::mem::size_of::<Slot>() == (4 + BUCKETS) * 8);

/// A sliding-window histogram: the last `nslots × slot_ns` nanoseconds of
/// samples, at slot granularity. See the module docs for semantics.
pub struct WindowedHistogram {
    slot_ns: u64,
    slots: Vec<Slot>,
}

impl WindowedHistogram {
    /// A window of `nslots` slices of `slot_ns` nanoseconds each. Both
    /// must be non-zero.
    pub fn new(nslots: usize, slot_ns: u64) -> Self {
        assert!(nslots > 0 && slot_ns > 0, "window needs at least one non-empty slot");
        WindowedHistogram { slot_ns, slots: (0..nslots).map(|_| Slot::default()).collect() }
    }

    /// The conventional 60 × 1 s window.
    pub fn per_second_minute() -> Self {
        Self::new(60, 1_000_000_000)
    }

    /// Total window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns.saturating_mul(self.slots.len() as u64)
    }

    /// Record `v` at explicit time `t_ns`. Samples older than the window
    /// relative to the newest epoch already seen are dropped.
    pub fn record_at(&self, t_ns: u64, v: u64) {
        let slot_idx = t_ns / self.slot_ns;
        let epoch = slot_idx + 1; // stored form; 0 = never used
        let slot = &self.slots[(slot_idx % self.slots.len() as u64) as usize];
        loop {
            let cur = slot.epoch.load(Relaxed);
            if cur == epoch {
                slot.hist.record(v);
                return;
            }
            if cur == LOCKED {
                std::hint::spin_loop();
                continue;
            }
            if cur > epoch {
                // The ring lapped this sample's slot: the sample is older
                // than the window. Drop it.
                return;
            }
            // Stale slot: claim, recycle, publish, record.
            if slot.epoch.compare_exchange(cur, LOCKED, Relaxed, Relaxed).is_ok() {
                slot.hist.reset();
                slot.epoch.store(epoch, Relaxed);
                slot.hist.record(v);
                return;
            }
        }
    }

    /// Merge every slot still inside the window ending at `t_ns` into one
    /// summary. A slot being concurrently recycled is skipped (its old
    /// samples are leaving the window anyway).
    pub fn snapshot_at(&self, t_ns: u64) -> HistSummary {
        let newest = t_ns / self.slot_ns + 1;
        let oldest = newest.saturating_sub(self.slots.len() as u64 - 1);
        let mut acc = HistSummary::default();
        for slot in &self.slots {
            let e = slot.epoch.load(Relaxed);
            if e != 0 && e != LOCKED && e >= oldest && e <= newest {
                acc = acc.merge(&slot.hist.snapshot());
            }
        }
        acc
    }

    /// [`Self::record_at`] on the trace clock.
    pub fn record(&self, v: u64) {
        self.record_at(now_ns(), v);
    }

    /// [`Self::snapshot_at`] on the trace clock.
    pub fn snapshot(&self) -> HistSummary {
        self.snapshot_at(now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000; // one second in ns

    #[test]
    fn samples_inside_window_are_visible() {
        let w = WindowedHistogram::new(60, S);
        w.record_at(0, 100);
        w.record_at(5 * S, 200);
        w.record_at(59 * S, 300);
        let s = w.snapshot_at(59 * S);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 600);
        assert_eq!(s.min, 100);
    }

    #[test]
    fn old_slots_age_out_as_the_window_slides() {
        let w = WindowedHistogram::new(60, S);
        w.record_at(0, 7); // slot 0
        assert_eq!(w.snapshot_at(30 * S).count, 1);
        // At t = 59 s slot 0 is the oldest live slot; at 60 s it is out.
        assert_eq!(w.snapshot_at(59 * S).count, 1);
        assert_eq!(w.snapshot_at(60 * S).count, 0);
        // The ring position is recycled by the next write that lands there.
        w.record_at(60 * S, 9);
        let s = w.snapshot_at(60 * S);
        assert_eq!((s.count, s.sum), (1, 9));
    }

    #[test]
    fn lapped_samples_are_dropped_not_misfiled() {
        let w = WindowedHistogram::new(4, S);
        // Slot index 8 and slot index 0 share ring position 0 (8 % 4).
        w.record_at(8 * S, 5); // establishes the late epoch at position 0
        w.record_at(0, 999); // lapped: same ring position, older epoch
        let s = w.snapshot_at(8 * S);
        assert_eq!(s.count, 1, "the lapped sample must be dropped, not misfiled");
        assert_eq!(s.sum, 5);
    }

    #[test]
    fn percentiles_track_the_window_not_history() {
        let w = WindowedHistogram::new(10, S);
        // A slow past: p99 ≈ 1 ms, all in the first 5 slots.
        for i in 0..5u64 {
            for _ in 0..100 {
                w.record_at(i * S, 1_000_000);
            }
        }
        // A fast present, slots 10..15 — past has fully aged out at t=14s.
        for i in 10..15u64 {
            for _ in 0..100 {
                w.record_at(i * S, 1_000);
            }
        }
        let s = w.snapshot_at(14 * S);
        assert_eq!(s.count, 500);
        assert!(s.percentile(0.99) < 2_048, "old slow samples leaked into the window");
    }

    #[test]
    fn window_memory_is_fixed() {
        // The documented bound: nslots × (4 + BUCKETS) u64 atomics.
        let per_slot = std::mem::size_of::<Slot>();
        assert_eq!(per_slot, (4 + BUCKETS) * 8);
        let w = WindowedHistogram::per_second_minute();
        assert_eq!(w.window_ns(), 60 * S);
        assert_eq!(w.slots.len() * per_slot, 60 * (4 + BUCKETS) * 8);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let w = std::sync::Arc::new(WindowedHistogram::new(8, 1_000));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let w = std::sync::Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        // All within one window: times in [0, 8000).
                        w.record_at((t * 997 + i) % 8_000, i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let s = w.snapshot_at(7_999);
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000);
    }
}
