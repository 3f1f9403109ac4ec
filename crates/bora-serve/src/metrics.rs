//! Per-operation service metrics: the registry the `METRICS` op scrapes,
//! and [`StatsSnapshot`], the summary `STATS` view projected from one
//! scrape ([`ServeClient::stats`](crate::ServeClient::stats) over the
//! wire, [`Server::stats`](crate::Server::stats) in process).
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
//! names declared once in this module: the data-op table ([`Op`]) and the
//! server-wide constants below. The handle cache counts into the same
//! registry. `METRICS` ships the registry; [`StatsSnapshot`] has one
//! builder, `From<&MetricsReport>`, so the summary cannot drift from the
//! scrape it is read from.
//!
//! ## SLO windows
//!
//! Alongside the cumulative histograms, each op's wall latency also
//! feeds a sliding-window [`SloTracker`] (60 × 1 s) once a target is
//! registered, so "is read's p99 over target *right now*" is answerable
//! without resetting anything.

use bora_obs::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, SloStatus, SloTarget, SloTracker,
};

use crate::proto::MetricsReport;

/// Declares the data-op table: each op's metric key, and from it the
/// span and histogram names — every one a `'static` string, so recording
/// never formats a name.
macro_rules! data_ops {
    ($($op:ident => $key:literal),* $(,)?) => {
        /// A data-plane op: what a worker runs, spans and records.
        /// Control-plane requests (`METRICS`, `TRACE`, `PING`, `SHUTDOWN`)
        /// are answered inline, never recorded, and have no `Op`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $($op),*
        }

        impl Op {
            /// Every data op, sorted by name: the order of
            /// [`StatsSnapshot::ops`].
            pub const ALL: &'static [Op] = &[$(Op::$op),*];

            /// The op's metric key (`read_stream`), also its slow-op and
            /// SLO name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Op::$op => $key),*
                }
            }

            /// The worker's span for the op, `serve.<name>`.
            pub const fn span(self) -> &'static str {
                match self {
                    $(Op::$op => concat!("serve.", $key)),*
                }
            }

            /// Registry name of the op's wall-latency histogram,
            /// `serve.op.<name>.wall_ns`.
            pub const fn wall_metric(self) -> &'static str {
                match self {
                    $(Op::$op => concat!("serve.op.", $key, ".wall_ns")),*
                }
            }

            /// Registry name of the op's virtual-latency histogram,
            /// `serve.op.<name>.virt_ns`.
            pub const fn virt_metric(self) -> &'static str {
                match self {
                    $(Op::$op => concat!("serve.op.", $key, ".virt_ns")),*
                }
            }
        }
    };
}

data_ops! {
    Append => "append",
    Meta => "meta",
    Open => "open",
    Query => "query",
    Read => "read",
    ReadStream => "read_stream",
    Seal => "seal",
    Stat => "stat",
    Topics => "topics",
}

/// Histogram of the time requests sat in the bounded queue.
pub const QUEUE_WAIT: &str = "serve.queue_wait_ns";
/// Counter of requests answered [`Response::Overloaded`](crate::Response::Overloaded)
/// or shed for a spent deadline.
pub const SHED: &str = "serve.shed";
/// Gauge: requests in the queue at the scrape.
pub const QUEUE_DEPTH: &str = "serve.queue_depth";
/// Gauge: bound of the request queue.
pub const QUEUE_CAPACITY: &str = "serve.queue_capacity";
/// Counter: handle-cache lookups that found the container open.
pub const CACHE_HITS: &str = "serve.cache_hits";
/// Counter: handle-cache lookups that opened the container.
pub const CACHE_MISSES: &str = "serve.cache_misses";
/// Counter: handles the cache closed to stay within its capacity.
pub const CACHE_EVICTIONS: &str = "serve.cache_evictions";
/// Gauge: handles the cache holds.
pub const CACHE_LEN: &str = "serve.cache_len";
/// Gauge: the cache's capacity.
pub const CACHE_CAPACITY: &str = "serve.cache_capacity";
/// Counter: warm-up rounds a `READ_STREAM2` stream's codec re-opened
/// after its first, each when the shipped mode's wait crossed LZ's
/// encode surcharge.
pub const STREAM_CODEC_REOPENS: &str = "serve.stream_codec_reopens";

/// Latency summary for one op kind inside a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpSummary {
    pub count: u64,
    /// Wall-clock nanoseconds, measured submit → response.
    pub wall_min_ns: u64,
    pub wall_mean_ns: u64,
    pub wall_p99_ns: u64,
    /// Virtual nanoseconds charged by the storage cost model.
    pub virt_mean_ns: u64,
}

/// Server-wide summary (`STATS`): a view of one [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// One summary per [`Op`], keyed by its name, sorted by name.
    pub ops: Vec<(String, OpSummary)>,
    /// Requests rejected with [`Response::Overloaded`](crate::Response::Overloaded)
    /// or shed for a spent deadline.
    pub shed: u64,
    /// Requests sitting in the queue at the scrape.
    pub queue_depth: u32,
    /// Bound of the request queue.
    pub queue_capacity: u32,
    /// Mean time requests spent parked in the queue before a worker took
    /// them (the queue-wait share of `wall_mean_ns`).
    pub queue_wait_mean_ns: u64,
    pub queue_wait_p99_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_len: u32,
    pub cache_capacity: u32,
}

impl StatsSnapshot {
    /// Total completed requests across all ops.
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.count).sum()
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The one way to a [`StatsSnapshot`]: read its numbers out of a scrape.
/// A name the report lacks reads as zero.
impl From<&MetricsReport> for StatsSnapshot {
    fn from(r: &MetricsReport) -> Self {
        let hist = |name: &str| r.hist(name).copied().unwrap_or_default();
        let gauge = |name: &str| r.gauge(name).unwrap_or(0) as u32;
        let queue_wait = hist(QUEUE_WAIT);
        StatsSnapshot {
            ops: Op::ALL
                .iter()
                .map(|op| {
                    let (wall, virt) = (hist(op.wall_metric()), hist(op.virt_metric()));
                    let summary = OpSummary {
                        count: wall.count,
                        wall_min_ns: wall.min_or_zero(),
                        wall_mean_ns: wall.mean(),
                        wall_p99_ns: wall.percentile(0.99),
                        virt_mean_ns: virt.mean(),
                    };
                    (op.name().to_owned(), summary)
                })
                .collect(),
            shed: r.counter(SHED),
            queue_depth: gauge(QUEUE_DEPTH),
            queue_capacity: gauge(QUEUE_CAPACITY),
            queue_wait_mean_ns: queue_wait.mean(),
            queue_wait_p99_ns: queue_wait.percentile(0.99),
            cache_hits: r.counter(CACHE_HITS),
            cache_misses: r.counter(CACHE_MISSES),
            cache_evictions: r.counter(CACHE_EVICTIONS),
            cache_len: gauge(CACHE_LEN),
            cache_capacity: gauge(CACHE_CAPACITY),
        }
    }
}

#[derive(Debug)]
struct OpHandles {
    wall: Histogram,
    virt: Histogram,
}

/// All service metrics. Everything is atomic; control-plane ops are
/// intentionally unrecorded.
pub struct Metrics {
    registry: Registry,
    // Resolved once: recording is handle-hot, never a name lookup.
    ops: [OpHandles; Op::ALL.len()],
    queue_wait: Histogram,
    shed: Counter,
    queue_depth: Gauge,
    codec_reopens: Counter,
    slo: SloTracker,
}

impl Metrics {
    /// The recorders of a server whose request queue holds
    /// `queue_capacity` jobs.
    pub fn new(queue_capacity: usize) -> Self {
        let registry = Registry::new();
        let ops = std::array::from_fn(|i| OpHandles {
            wall: registry.histogram(Op::ALL[i].wall_metric()),
            virt: registry.histogram(Op::ALL[i].virt_metric()),
        });
        registry.gauge(QUEUE_CAPACITY).set(queue_capacity as i64);
        Metrics {
            ops,
            queue_wait: registry.histogram(QUEUE_WAIT),
            shed: registry.counter(SHED),
            queue_depth: registry.gauge(QUEUE_DEPTH),
            codec_reopens: registry.counter(STREAM_CODEC_REOPENS),
            slo: SloTracker::per_second_minute(),
            registry,
        }
    }

    /// The server's private registry, which its handle cache counts into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Record one completed request of kind `op`.
    pub fn record(&self, op: Op, wall_ns: u64, virt_ns: u64) {
        let handles = &self.ops[op as usize];
        handles.wall.record(wall_ns);
        handles.virt.record(virt_ns);
        self.slo.record(op.name(), wall_ns);
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

    /// Count one warm-up round a stream's codec re-opened.
    pub fn record_codec_reopen(&self) {
        self.codec_reopens.inc();
    }

    /// Set (or update) the latency objective for one op; its wall
    /// samples start feeding the op's sliding window.
    pub fn set_slo_target(&self, op: Op, target: SloTarget) {
        self.slo.register(op.name(), target);
    }

    /// Evaluate every registered SLO over its current window, bumping
    /// breach counters.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.slo.evaluate()
    }

    /// Point-in-time copy of the backing registry, with the queue holding
    /// `queue_depth` jobs — the `METRICS` scrape's payload.
    ///
    /// The per-op recorders live in this server's private registry, but
    /// subsystems the server *uses* (buffer pool `pool.*`, the stream
    /// chunks the server LZ-coded `serve.stream_chunk_lz` — raw ones are
    /// not counted; a stream whose reply window never fills LZ-codes
    /// none, and one on a link faster than the encoder only its warm-up
    /// round's three probes —
    /// shed/evict counters) record
    /// into the process-wide `bora_obs` registry — one pool, one set of
    /// numbers. The scrape is the union of both; on a (by-convention
    /// impossible) name collision, the private registry wins. Multiple
    /// in-process servers therefore report the same process-wide
    /// subsystem counters — fine in production (one server per process)
    /// and documented here for in-process test fleets.
    pub fn registry_snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        self.queue_depth.set(queue_depth as i64);
        let global = bora_obs::snapshot();
        let private = self.registry.snapshot();
        merge_snapshots(global, private)
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

    /// What `STATS` reads: `m`'s scrape, projected.
    fn stats(m: &Metrics) -> StatsSnapshot {
        let snap = m.registry_snapshot(0);
        let report = MetricsReport {
            counters: snap.counters,
            gauges: snap.gauges,
            hists: snap.hists,
            ..MetricsReport::default()
        };
        StatsSnapshot::from(&report)
    }

    fn op<'a>(snap: &'a StatsSnapshot, name: &str) -> Option<&'a OpSummary> {
        snap.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    #[test]
    fn the_op_table_names_every_op_once() {
        let names: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted and distinct: {names:?}");
        assert_eq!(Op::ReadStream.name(), "read_stream");
        assert_eq!(Op::ReadStream.span(), "serve.read_stream");
        assert_eq!(Op::Read.wall_metric(), "serve.op.read.wall_ns");
        assert_eq!(Op::Topics.virt_metric(), "serve.op.topics.virt_ns");
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?} indexes its own recorders");
        }
    }

    #[test]
    fn summaries_aggregate() {
        let m = Metrics::new(64);
        m.record(Op::Read, 100, 10);
        m.record(Op::Read, 300, 30);
        m.record(Op::Open, 1_000, 0);
        m.record_shed();

        let snap = stats(&m);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.total_requests(), 3);
        let read = op(&snap, "read").unwrap();
        assert_eq!(read.count, 2);
        assert_eq!(read.wall_min_ns, 100);
        assert_eq!(read.wall_mean_ns, 200);
        assert_eq!(read.virt_mean_ns, 20);
        assert!(op(&snap, "stats").is_none());
        assert_eq!((snap.queue_depth, snap.queue_capacity), (0, 64));
        // A name the report lacks reads as zero: this registry has no cache.
        assert_eq!((snap.cache_hits, snap.cache_len, snap.cache_capacity), (0, 0, 0));
    }

    #[test]
    fn slo_targets_feed_from_recorded_ops() {
        let m = Metrics::new(64);
        m.set_slo_target(Op::Read, SloTarget::p99(1_000));
        for _ in 0..10 {
            m.record(Op::Read, 1_000_000, 0); // 1 ms ≫ 1 µs target
        }
        let statuses = m.slo_statuses();
        let read = statuses.iter().find(|s| s.name == "read").unwrap();
        assert!(read.breached);
        assert_eq!(read.samples, 10);
        // Ops without a target are not tracked.
        assert!(!statuses.iter().any(|s| s.name == "open"));
    }

    #[test]
    fn queue_wait_split_is_reported() {
        let m = Metrics::new(64);
        m.record_queue_wait(1_000);
        m.record_queue_wait(3_000);
        let snap = stats(&m);
        assert_eq!(snap.queue_wait_mean_ns, 2_000);
        assert_eq!(snap.queue_wait_p99_ns, 4_095); // ceiling of bucket ilog2(3000)=11
    }

    #[test]
    fn p99_lands_in_tail_bucket() {
        let m = Metrics::new(64);
        for _ in 0..99 {
            m.record(Op::Read, 1_000, 0); // bucket ilog2(1000)=9 → ceiling 1023
        }
        m.record(Op::Read, 1 << 20, 0);
        let p99 = op(&stats(&m), "read").unwrap().wall_p99_ns;
        // Rank 99 of 100 falls in the 1µs bucket; the 1ms outlier is p100.
        assert_eq!(p99, 1023);
        // All-equal distribution: p99 == the one bucket's ceiling.
        let m2 = Metrics::new(64);
        for _ in 0..10 {
            m2.record(Op::Open, 7, 0);
        }
        assert_eq!(op(&stats(&m2), "open").unwrap().wall_p99_ns, 7);
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let m = Metrics::new(64);
        m.record(Op::Meta, 0, 0);
        m.record(Op::Meta, u64::MAX, u64::MAX);
        let s = stats(&m);
        assert_eq!(op(&s, "meta").unwrap().count, 2);
        assert_eq!(op(&s, "meta").unwrap().wall_p99_ns, u64::MAX);
    }
}
