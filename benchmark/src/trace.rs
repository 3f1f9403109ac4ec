//! The harness's own spans: recorded around calls into each layer, kept
//! in memory, turned into self times and a Chrome `trace_event` file
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span that this one explains part of.
    pub parent: Option<usize>,
    /// Request of the list all spans of one peel share.
    pub req: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// What the call processed, in the unit its layer is rated in
    /// (messages, bytes, rows, pages); 0 where no rate is reported.
    pub work: u64,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Off for requests that are run but not sampled: calls still run,
    /// nothing is kept.
    pub on: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), on: true }
    }

    /// Time `f` as a span; returns the span's index (`None` while off)
    /// and `f`'s value. `f` reports the work it did alongside its value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> (T, u64),
    ) -> (Option<usize>, T) {
        let start = Instant::now();
        let (value, work) = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        (self.push(name, parent, req, start, dur_ns, work), value)
    }

    /// Keep a span the caller timed itself.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        start: Instant,
        dur_ns: u64,
        work: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { parent, req, name, start_ns, dur_ns, work });
        Some(self.spans.len() - 1)
    }
}

/// Per layer name: spans, total duration, total self time, total work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub spans: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Layer {
    pub fn mean_dur_ns(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.spans as f64
        }
    }

    /// Duration per unit of work.
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.work as f64
        }
    }

    /// Work units per microsecond — MB/s when work is bytes.
    pub fn work_per_us(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.work as f64 * 1e3 / self.dur_ns as f64
        }
    }
}

/// Self times by layer. The peel runs a request's layers one after the
/// other, not inside one another, so a span's children are subtracted by
/// duration: `self = dur - children` where the children fit. Where they
/// do not — client and server work on a stream at the same time — the
/// excess is returned as `overlap_ns`, never as a negative self time, so
/// that `sum(self) - overlap == sum(root durations)` exactly.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, Layer>, u64) {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut overlap_ns = 0;
    for (s, &covered) in spans.iter().zip(&children) {
        let l = layers.entry(s.name).or_default();
        l.spans += 1;
        l.dur_ns += s.dur_ns;
        l.self_ns += s.dur_ns.saturating_sub(covered);
        l.work += s.work;
        overlap_ns += covered.saturating_sub(s.dur_ns);
    }
    (layers, overlap_ns)
}

/// Chrome `trace_event` document: one complete event per span, one lane
/// per depth, the causing span and the request in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let depth = |mut i: usize| {
        let mut d = 0;
        while let Some(p) = spans[i].parent {
            (i, d) = (p, d + 1);
        }
        d
    };
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("peel")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(depth(i) as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("request", Json::Num(s.req as f64)),
                        ("work", Json::Num(s.work as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("displayTimeUnit", Json::str("ms")), ("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, dur_ns: u64) -> Span {
        Span { parent, req: 0, name, start_ns: 0, dur_ns, work: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(None, "client", 100),
            span(Some(0), "submit", 70),
            span(Some(1), "stream", 40),
            span(Some(0), "decode", 10),
        ];
        let (layers, overlap) = self_times(&spans);
        assert_eq!(overlap, 0);
        assert_eq!(layers["client"].self_ns, 20);
        assert_eq!(layers["submit"].self_ns, 30);
        assert_eq!(layers["stream"].self_ns, 40);
        assert_eq!(layers["decode"].self_ns, 10);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100, "self times sum to the root span");
    }

    #[test]
    fn pipelining_is_overlap_not_negative_self_time() {
        // Children measured alone add up to more than the request took:
        // the two sides overlapped by 30.
        let spans = [
            span(None, "client", 100),
            span(Some(0), "submit", 90),
            span(Some(0), "decode", 40),
            span(None, "client", 50),
            span(Some(3), "submit", 20),
        ];
        let (layers, overlap) = self_times(&spans);
        assert_eq!(overlap, 30);
        assert_eq!(layers["client"].self_ns, 30, "0 for the first request, 30 for the second");
        assert_eq!(layers["client"].spans, 2);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total - overlap, 150, "sum(self) - overlap == sum(roots)");
    }

    #[test]
    fn layer_rates() {
        let l = Layer { spans: 4, dur_ns: 2_000, self_ns: 0, work: 8_000 };
        assert_eq!(l.mean_dur_ns(), 500.0);
        assert_eq!(l.ns_per_work(), 0.25);
        assert_eq!(l.work_per_us(), 4_000.0);
        assert_eq!(Layer::default().ns_per_work(), 0.0);
    }

    #[test]
    fn chrome_trace_lanes_follow_depth() {
        let spans = [span(None, "a", 1), span(Some(0), "b", 1), span(Some(1), "c", 1)];
        let doc = chrome_trace(&spans);
        let tids: Vec<f64> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(tids, [0.0, 1.0, 2.0]);
    }
}
