//! [`ClusterTelemetry`]: the fleet-wide metrics plane.
//!
//! Every node answers `METRICS` with its full registry (counters, gauges,
//! bucketed histograms) plus its slow-op tail; this module scrapes all
//! nodes through a [`ClusterClient`] and folds the reports into one
//! cluster view:
//!
//! * **counters** are summed — `cluster read count` is the sum of every
//!   node's;
//! * **histograms** are merged **bucket-wise** ([`bora_obs::HistSummary::merge`]),
//!   so a cluster-wide p99 is computed from the combined distribution —
//!   *not* an average of per-node percentiles, which has no statistical
//!   meaning;
//! * **gauges** keep their spread as `(min, max)` across nodes (summing a
//!   queue depth would hide one wedged node behind nine idle ones);
//! * **slow ops** concatenate, worst first.
//!
//! The poller also keeps the previous scrape per node and computes
//! **counter deltas**, so "what happened since the last poll" is a first
//! class answer — cumulative counters alone can't distinguish a busy
//! node from a long-lived one. Reports whose layout version is newer
//! than this poller understands are counted as unreachable rather than
//! misparsed.

use std::collections::BTreeMap;
use std::sync::Mutex;

use bora_obs::HistSummary;
use bora_serve::{MetricsReport, Op, SlowOpEntry, Transport, METRICS_REPORT_VERSION};

use crate::client::ClusterClient;
use crate::ring::NodeId;

/// Fleet-wide fold of per-node [`MetricsReport`]s. See the module docs
/// for the per-kind semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregatedMetrics {
    /// Reports folded in.
    pub nodes: usize,
    /// Summed across nodes, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(min, max)` across nodes, sorted by name.
    pub gauges: Vec<(String, (i64, i64))>,
    /// Bucket-wise merged, sorted by name.
    pub hists: Vec<(String, HistSummary)>,
    /// Concatenated slow-op tails, slowest first (wall + queue wait).
    pub slow_ops: Vec<SlowOpEntry>,
}

impl AggregatedMetrics {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Fold `reports` into one cluster view. Pure — testable without a
/// cluster, reusable on reports from any source.
pub fn aggregate_reports(reports: &[MetricsReport]) -> AggregatedMetrics {
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    let mut hists: BTreeMap<&str, HistSummary> = BTreeMap::new();
    let mut slow_ops: Vec<SlowOpEntry> = Vec::new();
    for r in reports {
        for (name, v) in &r.counters {
            *counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &r.gauges {
            gauges
                .entry(name)
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(*v);
                    *hi = (*hi).max(*v);
                })
                .or_insert((*v, *v));
        }
        for (name, h) in &r.hists {
            let acc = hists.entry(name).or_default();
            *acc = acc.merge(h);
        }
        slow_ops.extend(r.slow_ops.iter().cloned());
    }
    slow_ops.sort_by_key(|e| std::cmp::Reverse(e.wall_ns.saturating_add(e.queue_wait_ns)));
    AggregatedMetrics {
        nodes: reports.len(),
        counters: counters.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        gauges: gauges.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        hists: hists.into_iter().map(|(n, h)| (n.to_owned(), h)).collect(),
        slow_ops,
    }
}

/// One telemetry sweep over the fleet.
#[derive(Debug, Clone, Default)]
pub struct ClusterScrape {
    /// Nodes that answered with a report this poller understands.
    pub reports: Vec<(NodeId, MetricsReport)>,
    /// Nodes that did not answer (or answered a newer layout), with why.
    pub unreachable: Vec<(NodeId, String)>,
    /// Per-node counter deltas since the previous scrape of that node
    /// (first scrape: since the node started). Zero-delta counters are
    /// omitted.
    pub deltas: Vec<(NodeId, Vec<(String, u64)>)>,
    /// The fleet-wide fold of `reports`.
    pub aggregate: AggregatedMetrics,
}

/// Polls every node's `METRICS` through a [`ClusterClient`] and keeps
/// enough history for deltas. One instance per observer; scraping is
/// explicit (the caller picks the cadence).
pub struct ClusterTelemetry<T: Transport> {
    client: ClusterClient<T>,
    last: Mutex<BTreeMap<NodeId, MetricsReport>>,
}

impl<T: Transport + Send + Sync + 'static> ClusterTelemetry<T> {
    pub fn new(client: ClusterClient<T>) -> Self {
        ClusterTelemetry { client, last: Mutex::new(BTreeMap::new()) }
    }

    /// Scrape every node once. Unreachable nodes are reported, not
    /// fatal — a telemetry sweep that dies with its first dead node
    /// would be blind exactly when it matters.
    pub fn scrape(&self) -> ClusterScrape {
        let mut out = ClusterScrape::default();
        for (id, res) in self.client.metrics_all() {
            match res {
                Ok(r) if r.version > METRICS_REPORT_VERSION => {
                    out.unreachable
                        .push((id, format!("unsupported metrics report version {}", r.version)));
                }
                Ok(r) => out.reports.push((id, r)),
                Err(e) => out.unreachable.push((id, e.to_string())),
            }
        }
        let mut last = self.last.lock().unwrap();
        for (id, r) in &out.reports {
            let prev = last.get(id);
            let mut delta: Vec<(String, u64)> = Vec::new();
            for (name, v) in &r.counters {
                let before = prev.map(|p| p.counter(name)).unwrap_or(0);
                // A node restart resets counters; saturate instead of
                // reporting a wrapped delta.
                let d = v.saturating_sub(before);
                if d > 0 {
                    delta.push((name.clone(), d));
                }
            }
            // Histogram sample counts delta like counters do, exposed as
            // `<hist>.count` — "how many reads since the last poll" is
            // the question an operator actually asks.
            for (name, h) in &r.hists {
                let before = prev.and_then(|p| p.hist(name)).map(|p| p.count).unwrap_or(0);
                let d = h.count.saturating_sub(before);
                if d > 0 {
                    delta.push((format!("{name}.count"), d));
                }
            }
            out.deltas.push((*id, delta));
            last.insert(*id, r.clone());
        }
        drop(last);
        out.aggregate =
            aggregate_reports(&out.reports.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
        out
    }
}

// ------------------------------------------------------------- rendering

fn fmt_dur_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The op-latency rows (`(label, hist)` per node per op, cluster rows
/// labelled `*`) behind [`render_top`], exposed for tests.
fn op_rows(scrape: &ClusterScrape) -> Vec<(String, String, HistSummary)> {
    let nodes = scrape.reports.iter().map(|(id, r)| (id.to_string(), &r.hists));
    let mut rows = Vec::new();
    for (label, hists) in nodes.chain([("*".to_owned(), &scrape.aggregate.hists)]) {
        for op in Op::ALL {
            let wall = hists.iter().find(|(name, h)| name == op.wall_metric() && h.count > 0);
            if let Some((_, h)) = wall {
                rows.push((label.clone(), op.name().to_owned(), *h));
            }
        }
    }
    rows
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// One node's buffer-pool numbers as scraped from its `pool.*` metrics
/// (`None` when the node reports no pool budget — pre-pool peer or pool
/// disabled). Ratio/rate math lives here so `top` and `ingest-stat`
/// render identical numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolScrape {
    pub budget_bytes: u64,
    pub resident_bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub uptime_ns: u64,
}

impl PoolScrape {
    pub fn from_report(r: &MetricsReport) -> Option<Self> {
        let gauge = |name: &str| r.gauge(name).map(|v| v.max(0) as u64);
        Some(PoolScrape {
            budget_bytes: gauge("pool.budget_bytes")?,
            resident_bytes: gauge("pool.resident_bytes").unwrap_or(0),
            hits: r.counter("pool.hit"),
            misses: r.counter("pool.miss"),
            evictions: r.counter("pool.evict"),
            uptime_ns: r.uptime_ns,
        })
    }

    /// Hit ratio over all lookups so far, 0.0 when the pool is unused.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Evictions per second of uptime.
    pub fn evictions_per_sec(&self) -> f64 {
        if self.uptime_ns == 0 {
            0.0
        } else {
            self.evictions as f64 / (self.uptime_ns as f64 / 1e9)
        }
    }
}

/// Render a scrape as the `bora-tool top` table: one row per node per
/// op (plus cluster-wide `*` rows), the buffer-pool section, then the
/// slow-op tail.
pub fn render_top(scrape: &ClusterScrape) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<12} {:>10} {:>10} {:>10} {:>10}\n",
        "node", "op", "count", "mean", "p50", "p99"
    ));
    for (node, op, h) in op_rows(scrape) {
        out.push_str(&format!(
            "{:<5} {:<12} {:>10} {:>10} {:>10} {:>10}\n",
            node,
            op,
            h.count,
            fmt_dur_ns(h.mean()),
            fmt_dur_ns(h.percentile(0.50)),
            fmt_dur_ns(h.percentile(0.99)),
        ));
    }
    let pools: Vec<(NodeId, PoolScrape)> = scrape
        .reports
        .iter()
        .filter_map(|(id, r)| PoolScrape::from_report(r).map(|p| (*id, p)))
        .collect();
    if !pools.is_empty() {
        out.push_str(&format!(
            "\nbuffer pool:\n{:<5} {:>10} {:>10} {:>7} {:>9}\n",
            "node", "budget", "resident", "hit%", "evict/s"
        ));
        for (id, p) in &pools {
            out.push_str(&format!(
                "{:<5} {:>10} {:>10} {:>6.1}% {:>9.2}\n",
                id,
                fmt_bytes(p.budget_bytes),
                fmt_bytes(p.resident_bytes),
                p.hit_ratio() * 100.0,
                p.evictions_per_sec(),
            ));
        }
    }
    for (id, why) in &scrape.unreachable {
        out.push_str(&format!("node {id}: unreachable ({why})\n"));
    }
    let tail = &scrape.aggregate.slow_ops;
    if !tail.is_empty() {
        out.push_str("\nslow ops (worst first):\n");
        for e in tail.iter().take(16) {
            out.push_str(&format!(
                "  node {} {:<12} {:<24} wall {} queue {} trace {:#x}\n",
                e.server_id,
                e.op,
                e.container,
                fmt_dur_ns(e.wall_ns),
                fmt_dur_ns(e.queue_wait_ns),
                e.trace_id,
            ));
        }
        if tail.len() > 16 {
            out.push_str(&format!("  … {} more\n", tail.len() - 16));
        }
    }
    out
}

/// Render a scrape as a JSON document (`bora-tool top --json`): per-node
/// reports plus the cluster aggregate. Hand-rolled like the rest of the
/// workspace's JSON output — no serde in the dependency tree.
pub fn scrape_to_json(scrape: &ClusterScrape) -> String {
    use bora_obs::json_string as js;
    let hist_json = |h: &HistSummary| {
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            h.count,
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99)
        )
    };
    let slow_json = |e: &SlowOpEntry| {
        format!(
            "{{\"node\":{},\"op\":{},\"container\":{},\"wall_ns\":{},\"queue_wait_ns\":{},\"trace_id\":{}}}",
            e.server_id,
            js(&e.op),
            js(&e.container),
            e.wall_ns,
            e.queue_wait_ns,
            e.trace_id
        )
    };
    let report_json = |r: &MetricsReport| {
        let counters: Vec<String> =
            r.counters.iter().map(|(n, v)| format!("{}:{}", js(n), v)).collect();
        let gauges: Vec<String> =
            r.gauges.iter().map(|(n, v)| format!("{}:{}", js(n), v)).collect();
        let hists: Vec<String> =
            r.hists.iter().map(|(n, h)| format!("{}:{}", js(n), hist_json(h))).collect();
        let slow: Vec<String> = r.slow_ops.iter().map(slow_json).collect();
        format!(
            "{{\"version\":{},\"server_id\":{},\"uptime_ns\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":{{{}}},\"slow_ops\":[{}]}}",
            r.version,
            r.server_id,
            r.uptime_ns,
            counters.join(","),
            gauges.join(","),
            hists.join(","),
            slow.join(",")
        )
    };
    let nodes: Vec<String> = scrape
        .reports
        .iter()
        .map(|(id, r)| format!("{{\"node\":{},\"report\":{}}}", id, report_json(r)))
        .collect();
    let unreachable: Vec<String> = scrape
        .unreachable
        .iter()
        .map(|(id, why)| format!("{{\"node\":{},\"error\":{}}}", id, js(why)))
        .collect();
    let agg = &scrape.aggregate;
    let agg_counters: Vec<String> =
        agg.counters.iter().map(|(n, v)| format!("{}:{}", js(n), v)).collect();
    let agg_gauges: Vec<String> = agg
        .gauges
        .iter()
        .map(|(n, (lo, hi))| format!("{}:{{\"min\":{},\"max\":{}}}", js(n), lo, hi))
        .collect();
    let agg_hists: Vec<String> =
        agg.hists.iter().map(|(n, h)| format!("{}:{}", js(n), hist_json(h))).collect();
    let agg_slow: Vec<String> = agg.slow_ops.iter().map(slow_json).collect();
    format!(
        "{{\"nodes\":[{}],\"unreachable\":[{}],\"aggregate\":{{\"nodes\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":{{{}}},\"slow_ops\":[{}]}}}}",
        nodes.join(","),
        unreachable.join(","),
        agg.nodes,
        agg_counters.join(","),
        agg_gauges.join(","),
        agg_hists.join(","),
        agg_slow.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bora_obs::ExpHistogram;

    fn report(
        server_id: u32,
        samples: &[(&str, &[u64])],
        counters: &[(&str, u64)],
    ) -> MetricsReport {
        let hists = samples
            .iter()
            .map(|(name, vs)| {
                let h = ExpHistogram::new();
                for v in *vs {
                    h.record(*v);
                }
                ((*name).to_owned(), h.snapshot())
            })
            .collect();
        MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id,
            uptime_ns: 1,
            counters: counters.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect(),
            gauges: vec![("q".to_owned(), server_id as i64)],
            hists,
            slow_ops: vec![],
        }
    }

    #[test]
    fn aggregation_is_bucket_exact() {
        // Two nodes' histograms merged must equal the histogram of the
        // combined sample stream — bucket for bucket, not approximately.
        let a_samples: Vec<u64> = (0..100).map(|i| i * 37 + 1).collect();
        let b_samples: Vec<u64> = (0..250).map(|i| i * 91 + 5).collect();
        let a = report(0, &[("serve.op.read.wall_ns", &a_samples)], &[("serve.shed", 3)]);
        let b = report(1, &[("serve.op.read.wall_ns", &b_samples)], &[("serve.shed", 4)]);
        let agg = aggregate_reports(&[a, b]);

        let direct = ExpHistogram::new();
        for v in a_samples.iter().chain(&b_samples) {
            direct.record(*v);
        }
        let merged = agg.hist("serve.op.read.wall_ns").unwrap();
        assert_eq!(*merged, direct.snapshot(), "merge must be bucket-exact");
        assert_eq!(agg.counter("serve.shed"), 7, "counters sum");
        assert_eq!(agg.gauges, vec![("q".to_owned(), (0, 1))], "gauges keep min/max");
        assert_eq!(agg.nodes, 2);
    }

    #[test]
    fn aggregate_percentiles_come_from_combined_distribution() {
        // One fast node, one slow node, same sample count. The cluster
        // p99 must reflect the slow half — an average of per-node p99s
        // would sit far below it; an average of (fast p99, slow p99)
        // equals neither.
        let fast: Vec<u64> = vec![1_000; 100];
        let slow: Vec<u64> = vec![1_000_000; 100];
        let agg = aggregate_reports(&[
            report(0, &[("serve.op.read.wall_ns", &fast)], &[]),
            report(1, &[("serve.op.read.wall_ns", &slow)], &[]),
        ]);
        let h = agg.hist("serve.op.read.wall_ns").unwrap();
        assert_eq!(h.count, 200);
        assert!(h.percentile(0.99) >= 1_000_000, "p99 must see the slow node's samples");
        assert!(h.percentile(0.25) < 2_048, "p25 must see the fast node's samples");
    }

    #[test]
    fn slow_ops_concatenate_worst_first() {
        let mut a = report(0, &[], &[]);
        a.slow_ops.push(SlowOpEntry {
            trace_id: 1,
            op: "read".into(),
            container: "/c/a".into(),
            wall_ns: 5_000_000,
            queue_wait_ns: 0,
            server_id: 0,
        });
        let mut b = report(1, &[], &[]);
        b.slow_ops.push(SlowOpEntry {
            trace_id: 2,
            op: "read".into(),
            container: "/c/b".into(),
            wall_ns: 9_000_000,
            queue_wait_ns: 2_000_000,
            server_id: 1,
        });
        let agg = aggregate_reports(&[a, b]);
        assert_eq!(agg.slow_ops.len(), 2);
        assert_eq!(agg.slow_ops[0].trace_id, 2, "slowest (wall+queue) first");
    }

    #[test]
    fn pool_scrape_reads_the_metrics_and_renders() {
        let mut r = report(0, &[], &[("pool.hit", 300), ("pool.miss", 100), ("pool.evict", 4)]);
        r.uptime_ns = 2_000_000_000; // 2 s up → 2 evictions/s
        r.gauges = vec![
            ("pool.budget_bytes".to_owned(), 64 << 20),
            ("pool.resident_bytes".to_owned(), 10 << 20),
        ];
        let p = PoolScrape::from_report(&r).expect("pool gauges present");
        assert_eq!(p.budget_bytes, 64 << 20);
        assert_eq!(p.resident_bytes, 10 << 20);
        assert!((p.hit_ratio() - 0.75).abs() < 1e-9);
        assert!((p.evictions_per_sec() - 2.0).abs() < 1e-9);

        let scrape = ClusterScrape {
            reports: vec![(0, r.clone())],
            unreachable: vec![],
            deltas: vec![],
            aggregate: aggregate_reports(&[r]),
        };
        let table = render_top(&scrape);
        assert!(table.contains("buffer pool"), "missing pool section:\n{table}");
        assert!(table.contains("64.0MiB"), "missing budget column:\n{table}");
        assert!(table.contains("75.0%"), "missing hit ratio:\n{table}");
        let json = scrape_to_json(&scrape);
        assert!(json.contains("\"pool.hit\":300"), "pool counters must reach the JSON scrape");

        // A pre-pool peer (no pool gauges) contributes no pool row.
        let old = report(1, &[], &[("serve.shed", 1)]);
        assert!(PoolScrape::from_report(&old).is_none());
    }

    #[test]
    fn render_and_json_carry_the_rows() {
        let samples: Vec<u64> = vec![10_000; 5];
        let scrape = ClusterScrape {
            reports: vec![(0, report(0, &[("serve.op.read.wall_ns", &samples)], &[]))],
            unreachable: vec![(3, "connection refused".into())],
            deltas: vec![],
            aggregate: aggregate_reports(&[report(0, &[("serve.op.read.wall_ns", &samples)], &[])]),
        };
        let table = render_top(&scrape);
        assert!(table.contains("read"), "table lists the op:\n{table}");
        assert!(table.contains("node 3: unreachable"), "table lists dead nodes:\n{table}");
        let json = scrape_to_json(&scrape);
        assert!(json.contains("\"serve.op.read.wall_ns\""));
        assert!(json.contains("\"unreachable\":[{\"node\":3"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
