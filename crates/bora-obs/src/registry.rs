//! The named-metrics registry: process-wide counters, gauges, and
//! exponential histograms, addressed by string name.
//!
//! Handles are cheap `Arc` clones of the underlying atomics, so the
//! intended pattern is *resolve once, record many*: look a metric up by
//! name at construction time (or lazily in a cold path) and keep the
//! handle. Recording through a handle is a relaxed atomic op — always on,
//! independent of the [`crate::trace`] enable flag, because counters are
//! cheap enough to leave running and bench snapshots depend on them.
//!
//! [`snapshot`] produces a [`MetricsSnapshot`]: a sorted, immutable copy
//! that can be diffed against an earlier one ([`MetricsSnapshot::delta_since`])
//! to attribute activity to one experiment, rendered as key/value rows for
//! CSV embedding, or serialized as JSON for the bench telemetry archive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hist::{ExpHistogram, HistSummary};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-writer-wins signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Shared handle to a registered histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<ExpHistogram>);

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    pub fn snapshot(&self) -> HistSummary {
        self.0.snapshot()
    }
}

#[derive(Default)]
struct Inner {
    counters: HashMap<String, Counter>,
    gauges: HashMap<String, Gauge>,
    hists: HashMap<String, Histogram>,
    /// By-name lookups served so far ([`Registry::lookups`]).
    lookups: u64,
}

/// A metrics registry. Most code uses the process-wide [`global`] one;
/// owning a private `Registry` is useful for tests that must not observe
/// other tests' metrics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock();
        g.lookups += 1;
        g.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock();
        g.lookups += 1;
        g.gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock();
        g.lookups += 1;
        g.hists.entry(name.to_owned()).or_default().clone()
    }

    /// How many times a metric has been looked up by name
    /// ([`Registry::counter`], [`Registry::gauge`], [`Registry::histogram`]).
    /// Each lookup is this lock, a `String` and a hash — the cost the
    /// module's "resolve once, record many" rule exists to avoid — so a
    /// test can pin a hot path to a lookup count that does not grow with
    /// the messages it moves.
    pub fn lookups(&self) -> u64 {
        self.inner.lock().lookups
    }

    /// Sorted point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock();
        let mut counters: Vec<(String, u64)> =
            g.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut gauges: Vec<(String, i64)> =
            g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut hists: Vec<(String, HistSummary)> =
            g.hists.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, hists }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-create a counter in the [`global`] registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Get-or-create a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Get-or-create a histogram in the [`global`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Snapshot the [`global`] registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Immutable, sorted copy of a registry's metrics at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub hists: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Counters and histograms as activity *since* `earlier` (gauges keep
    /// their current value — they are levels, not flows). Metrics absent
    /// from `earlier` are passed through whole; zero-activity entries are
    /// dropped so per-experiment sections only list what the experiment
    /// actually touched.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let prev_c: HashMap<&str, u64> =
            earlier.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let prev_h: HashMap<&str, &HistSummary> =
            earlier.hists.iter().map(|(k, v)| (k.as_str(), v)).collect();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (k.clone(), v.saturating_sub(prev_c.get(k.as_str()).copied().unwrap_or(0)))
                })
                .filter(|(_, v)| *v > 0)
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| match prev_h.get(k.as_str()) {
                    Some(p) => (k.clone(), h.delta_since(p)),
                    None => (k.clone(), *h),
                })
                .filter(|(_, h)| h.count > 0)
                .collect(),
        }
    }

    /// Flatten to `(name, value)` rows for CSV embedding: counters and
    /// gauges verbatim, histograms as `.count/.mean/.p50/.p99/.min` rows.
    pub fn to_rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (k, v) in &self.counters {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, h) in &self.hists {
            rows.push((format!("{k}.count"), h.count.to_string()));
            rows.push((format!("{k}.min"), h.min_or_zero().to_string()));
            rows.push((format!("{k}.mean"), h.mean().to_string()));
            rows.push((format!("{k}.p50"), h.percentile(0.5).to_string()));
            rows.push((format!("{k}.p99"), h.percentile(0.99).to_string()));
        }
        rows
    }

    /// Hand-rolled JSON object (the workspace vendors no serde): counters
    /// and gauges as numbers, histograms as `{count, min, mean, p50, p99}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |out: &mut String, key: &str, value: String| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{}", json_string(key), value);
        };
        for (k, v) in &self.counters {
            field(&mut out, k, v.to_string());
        }
        for (k, v) in &self.gauges {
            field(&mut out, k, v.to_string());
        }
        for (k, h) in &self.hists {
            field(
                &mut out,
                k,
                format!(
                    "{{\"count\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                    h.count,
                    h.min_or_zero(),
                    h.mean(),
                    h.percentile(0.5),
                    h.percentile(0.99)
                ),
            );
        }
        out.push('}');
        out
    }
}

/// Quote `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(-5);
        assert_eq!(r.gauge("g").get(), -5);
        r.histogram("h").record(100);
        assert_eq!(r.histogram("h").snapshot().count, 1);
        // Seven lookups by name above; recording through a handle is none.
        assert_eq!(r.lookups(), 7);
    }

    #[test]
    fn snapshot_sorted_and_delta() {
        let r = Registry::new();
        r.counter("b").add(10);
        r.counter("a").add(1);
        r.histogram("h").record(50);
        let before = r.snapshot();
        assert_eq!(before.counters[0].0, "a");

        r.counter("b").add(5);
        r.histogram("h").record(70);
        let d = r.snapshot().delta_since(&before);
        // `a` had no activity in the interval → dropped from the delta.
        assert_eq!(d.counters, vec![("b".to_string(), 5)]);
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.hists[0].1.count, 1);
        assert_eq!(d.hists[0].1.sum, 70);
    }

    #[test]
    fn rows_and_json_render() {
        let r = Registry::new();
        r.counter("ops").add(3);
        r.gauge("depth").set(2);
        r.histogram("lat_ns").record(1000);
        let snap = r.snapshot();
        let rows = snap.to_rows();
        assert!(rows.contains(&("ops".to_string(), "3".to_string())));
        assert!(rows.contains(&("lat_ns.p99".to_string(), "1023".to_string())));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ops\":3"));
        assert!(json.contains("\"lat_ns\":{\"count\":1"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
