//! Per-operation service metrics, exposed through the `STATS` and
//! `METRICS` ops.
//!
//! Latencies are recorded twice per request: **wall-clock** nanoseconds
//! (submit to response, what a real client experiences, including queue
//! wait) and **virtual** nanoseconds (what the storage cost model charged,
//! deterministic across hosts — the number the repro experiments compare).
//! The wall number is further split: the queue-wait histogram isolates
//! time spent parked in the bounded queue from the service time a worker
//! actually spent on the request.
//!
//! ## One source of truth
//!
//! Every number lives in a private [`bora_obs::Registry`] (private so
//! concurrent servers in one process do not mix their numbers), under
//! the names the telemetry plane scrapes (`serve.op.<op>.wall_ns`,
//! `serve.op.<op>.virt_ns`, `serve.queue_wait_ns`, `serve.shed`).
//! `STATS` ([`Metrics::snapshot_into`]) and `METRICS`
//! ([`Metrics::registry_snapshot`]) both read **the same handles** — the
//! two views are different projections of one atomic store and cannot
//! drift, which `STATS`' earlier private recorders could (and did).
//!
//! ## SLO windows
//!
//! Alongside the cumulative histograms, each op's wall latency also
//! feeds a sliding-window [`SloTracker`] (60 × 1 s) once a target is
//! registered, so "is read's p99 over target *right now*" is answerable
//! without resetting anything.

use bora_obs::{Counter, Histogram, MetricsSnapshot, Registry, SloStatus, SloTarget, SloTracker};

use crate::proto::{OpSummary, StatsSnapshot};

/// The metric op kinds, in the order `STATS` reports them.
pub const OP_NAMES: [&str; 9] =
    ["append", "meta", "open", "query", "read", "read_stream", "seal", "stat", "topics"];

fn op_index(name: &str) -> Option<usize> {
    OP_NAMES.iter().position(|n| *n == name)
}

/// Registry name of an op's wall-latency histogram.
pub fn wall_metric(op: &str) -> String {
    format!("serve.op.{op}.wall_ns")
}

/// Registry name of an op's virtual-latency histogram.
pub fn virt_metric(op: &str) -> String {
    format!("serve.op.{op}.virt_ns")
}

#[derive(Debug)]
struct OpHandles {
    wall: Histogram,
    virt: Histogram,
}

/// All service metrics. Everything is atomic; `stats`/`metrics`/
/// `shutdown`/`trace`/`ping` ops are control-plane and intentionally
/// unrecorded.
pub struct Metrics {
    registry: Registry,
    // Resolved once: recording is handle-hot, never a name lookup.
    ops: [OpHandles; 9],
    queue_wait: Histogram,
    shed: Counter,
    slo: SloTracker,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        let registry = Registry::new();
        let ops = std::array::from_fn(|i| OpHandles {
            wall: registry.histogram(&wall_metric(OP_NAMES[i])),
            virt: registry.histogram(&virt_metric(OP_NAMES[i])),
        });
        let queue_wait = registry.histogram("serve.queue_wait_ns");
        let shed = registry.counter("serve.shed");
        Metrics { registry, ops, queue_wait, shed, slo: SloTracker::per_second_minute() }
    }

    /// Record one completed request of kind `op_name`. Unknown names are a
    /// caller bug — the op table above and the protocol's `op_name` must
    /// agree — so they fail loudly under `debug_assertions` (tests) and
    /// drop silently in release builds.
    pub fn record(&self, op_name: &str, wall_ns: u64, virt_ns: u64) {
        let Some(i) = op_index(op_name) else {
            debug_assert!(false, "Metrics::record: unknown op name {op_name:?}");
            return;
        };
        self.ops[i].wall.record(wall_ns);
        self.ops[i].virt.record(virt_ns);
        self.slo.record(op_name, wall_ns);
    }

    /// Record how long one request sat in the bounded queue before a
    /// worker picked it up.
    pub fn record_queue_wait(&self, ns: u64) {
        self.queue_wait.record(ns);
    }

    /// Count one request rejected for backpressure.
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// Set (or update) the latency objective for one op; its wall
    /// samples start feeding the op's sliding window.
    pub fn set_slo_target(&self, op_name: &str, target: SloTarget) {
        debug_assert!(op_index(op_name).is_some(), "unknown op name {op_name:?}");
        self.slo.register(op_name, target);
    }

    /// Evaluate every registered SLO over its current window, bumping
    /// breach counters.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.slo.evaluate()
    }

    /// Point-in-time copy of the backing registry — the `METRICS`
    /// scrape's payload. Same handles `STATS` reads; see module docs.
    ///
    /// The per-op recorders live in this server's private registry, but
    /// subsystems the server *uses* (buffer pool `pool.*`, the stream
    /// chunks the server LZ-coded `serve.stream_chunk_lz` — raw ones are
    /// not counted; on a link faster than the encoder a stream of n
    /// chunks LZ-codes only its min(⌈n/4⌉, ⌈n/16⌉ + 2) probes —
    /// shed/evict counters) record
    /// into the process-wide `bora_obs` registry — one pool, one set of
    /// numbers. The scrape is the union of both; on a (by-convention
    /// impossible) name collision, the private registry wins. Multiple
    /// in-process servers therefore report the same process-wide
    /// subsystem counters — fine in production (one server per process)
    /// and documented here for in-process test fleets.
    pub fn registry_snapshot(&self) -> MetricsSnapshot {
        let global = bora_obs::snapshot();
        let private = self.registry.snapshot();
        merge_snapshots(global, private)
    }

    /// Assemble the wire-level snapshot. Queue and cache numbers are the
    /// server's to fill in; this owns only the op recorders, queue-wait
    /// histogram, and shed count.
    pub fn snapshot_into(&self, mut base: StatsSnapshot) -> StatsSnapshot {
        base.ops = OP_NAMES
            .iter()
            .zip(self.ops.iter())
            .map(|(name, rec)| {
                let wall = rec.wall.snapshot();
                let virt = rec.virt.snapshot();
                (
                    name.to_string(),
                    OpSummary {
                        count: wall.count,
                        wall_min_ns: wall.min_or_zero(),
                        wall_mean_ns: wall.mean(),
                        wall_p99_ns: wall.percentile(0.99),
                        virt_mean_ns: virt.mean(),
                    },
                )
            })
            .collect();
        let qw = self.queue_wait.snapshot();
        base.queue_wait_mean_ns = qw.mean();
        base.queue_wait_p99_ns = qw.percentile(0.99);
        base.shed = self.shed();
        base
    }
}

/// Union of two sorted snapshots; entries in `wins` shadow same-named
/// entries in `base`. Both inputs are sorted (registry invariant) and the
/// output stays sorted, so scrape consumers can keep binary-searching.
fn merge_snapshots(base: MetricsSnapshot, wins: MetricsSnapshot) -> MetricsSnapshot {
    fn merge<T>(base: Vec<(String, T)>, wins: Vec<(String, T)>) -> Vec<(String, T)> {
        let mut out: std::collections::BTreeMap<String, T> = base.into_iter().collect();
        out.extend(wins);
        out.into_iter().collect()
    }
    MetricsSnapshot {
        counters: merge(base.counters, wins.counters),
        gauges: merge(base.gauges, wins.gauges),
        hists: merge(base.hists, wins.hists),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op<'a>(snap: &'a StatsSnapshot, name: &str) -> Option<&'a OpSummary> {
        snap.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    #[test]
    fn summaries_aggregate() {
        let m = Metrics::new();
        m.record("read", 100, 10);
        m.record("read", 300, 30);
        m.record("open", 1_000, 0);
        m.record_shed();

        let snap = m.snapshot_into(StatsSnapshot::default());
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.total_requests(), 3);
        let read = op(&snap, "read").unwrap();
        assert_eq!(read.count, 2);
        assert_eq!(read.wall_min_ns, 100);
        assert_eq!(read.wall_mean_ns, 200);
        assert_eq!(read.virt_mean_ns, 20);
        assert!(op(&snap, "stats").is_none());
    }

    #[test]
    fn stats_and_registry_cannot_drift() {
        // The STATS-vs-registry parity the drift fix guarantees: both
        // views project the same atomic store, so every STATS number must
        // equal its registry counterpart exactly.
        let m = Metrics::new();
        for i in 0..50u64 {
            m.record("read", i * 1_000, i);
            m.record("append", 77, 7);
        }
        m.record_queue_wait(5_000);
        m.record_shed();
        m.record_shed();

        let stats = m.snapshot_into(StatsSnapshot::default());
        let reg = m.registry_snapshot();
        let reg_hist =
            |name: &str| reg.hists.iter().find(|(n, _)| n == name).map(|(_, h)| *h).unwrap();
        for (name, op) in &stats.ops {
            let wall = reg_hist(&wall_metric(name));
            let virt = reg_hist(&virt_metric(name));
            debug_assert_eq!(op.count, wall.count, "{name}: count drift");
            debug_assert_eq!(op.wall_min_ns, wall.min_or_zero(), "{name}: min drift");
            debug_assert_eq!(op.wall_mean_ns, wall.mean(), "{name}: mean drift");
            debug_assert_eq!(op.wall_p99_ns, wall.percentile(0.99), "{name}: p99 drift");
            debug_assert_eq!(op.virt_mean_ns, virt.mean(), "{name}: virt drift");
        }
        let qw = reg_hist("serve.queue_wait_ns");
        debug_assert_eq!(stats.queue_wait_mean_ns, qw.mean());
        debug_assert_eq!(stats.queue_wait_p99_ns, qw.percentile(0.99));
        let reg_shed = reg.counters.iter().find(|(n, _)| n == "serve.shed").unwrap().1;
        debug_assert_eq!(stats.shed, reg_shed);
        assert_eq!(stats.shed, 2);
    }

    #[test]
    fn slo_targets_feed_from_recorded_ops() {
        let m = Metrics::new();
        m.set_slo_target("read", SloTarget::p99(1_000));
        for _ in 0..10 {
            m.record("read", 1_000_000, 0); // 1 ms ≫ 1 µs target
        }
        let statuses = m.slo_statuses();
        let read = statuses.iter().find(|s| s.name == "read").unwrap();
        assert!(read.breached);
        assert_eq!(read.samples, 10);
        // Ops without a target are not tracked.
        assert!(!statuses.iter().any(|s| s.name == "open"));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unknown op name"))]
    fn unknown_op_fails_in_debug_builds() {
        // Control-plane names ("stats", "trace") and typos must never be
        // recorded; in release the sample is dropped silently.
        let m = Metrics::new();
        m.record("stats", 5, 5);
        // Only reached in release builds: the sample was dropped silently.
        assert_eq!(m.snapshot_into(StatsSnapshot::default()).total_requests(), 0);
    }

    #[test]
    fn queue_wait_split_is_reported() {
        let m = Metrics::new();
        m.record_queue_wait(1_000);
        m.record_queue_wait(3_000);
        let snap = m.snapshot_into(StatsSnapshot::default());
        assert_eq!(snap.queue_wait_mean_ns, 2_000);
        assert_eq!(snap.queue_wait_p99_ns, 4_095); // ceiling of bucket ilog2(3000)=11
    }

    #[test]
    fn p99_lands_in_tail_bucket() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record("read", 1_000, 0); // bucket ilog2(1000)=9 → ceiling 1023
        }
        m.record("read", 1 << 20, 0);
        let snap = m.snapshot_into(StatsSnapshot::default());
        let p99 = op(&snap, "read").unwrap().wall_p99_ns;
        // Rank 99 of 100 falls in the 1µs bucket; the 1ms outlier is p100.
        assert_eq!(p99, 1023);
        // All-equal distribution: p99 == the one bucket's ceiling.
        let m2 = Metrics::new();
        for _ in 0..10 {
            m2.record("open", 7, 0);
        }
        assert_eq!(op(&m2.snapshot_into(StatsSnapshot::default()), "open").unwrap().wall_p99_ns, 7);
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let m = Metrics::new();
        m.record("meta", 0, 0);
        m.record("meta", u64::MAX, u64::MAX);
        let s = m.snapshot_into(StatsSnapshot::default());
        assert_eq!(op(&s, "meta").unwrap().count, 2);
        assert_eq!(op(&s, "meta").unwrap().wall_p99_ns, u64::MAX);
    }
}
