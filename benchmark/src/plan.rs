//! The five workloads: their fixed request lists, drawn from the seed,
//! and the answer each request must give, derived from the baseline
//! reader's view of the mission.

use bora_serve::WireMessage;
use ros_msgs::Time;
use workloads::querymix::{self, QueryKind, QueryMixOptions};
use workloads::tum::topic;

use crate::stats::{Digest, SplitMix};
use crate::world::{Reference, IMAGE_TOPICS, SMALL_TOPICS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanSmallWarm,
    ScanLargeCold,
    WindowMix,
    QueryAgg,
    IngestMixed,
}

pub const KINDS: [Kind; 5] =
    [Kind::ScanSmallWarm, Kind::ScanLargeCold, Kind::WindowMix, Kind::QueryAgg, Kind::IngestMixed];

/// Block-framed container every static workload reads.
pub const BLK: &str = "/c/blk0";
/// `window_mix` roots: hot set first (one block-framed, one v1), so the
/// pooled path and the v1 path are both hot and both cold.
pub const MIX_ROOTS: [&str; 4] = [BLK, "/c/v1a", "/c/blk1", "/c/v1b"];
/// The live root of `ingest_mixed` (fresh storage per repetition).
pub const LIVE: &str = "/live";
/// What an analyst watches while the robot records.
pub const TAIL_TOPICS: [&str; 2] = [topic::IMU, topic::TF];

const APPEND_BATCH: usize = 64;
const TAIL_EVERY: usize = 8;
const SEAL_EVERY: usize = 32;
const COMPACT_EVERY_SEALS: usize = 3;
const TAIL_SPAN_NS: u64 = 2_000_000_000;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanSmallWarm => "scan_small_warm",
            Kind::ScanLargeCold => "scan_large_cold",
            Kind::WindowMix => "window_mix",
            Kind::QueryAgg => "query_agg",
            Kind::IngestMixed => "ingest_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// `BORA_POOL_BYTES` for the workload's process. Only the cold scan
    /// departs from the 64 MiB default: 8 MiB against a 57 MB working set
    /// (1 MiB against 5.7 MB under `--quick`).
    pub fn pool_bytes(self, quick: bool) -> Option<u64> {
        (self == Kind::ScanLargeCold).then_some(if quick { 1 << 20 } else { 8 << 20 })
    }

    /// Handle-cache capacity: one short of `window_mix`'s four roots, so
    /// the cold pair evict each other; the server default elsewhere.
    pub fn cache_capacity(self) -> usize {
        if self == Kind::WindowMix {
            3
        } else {
            8
        }
    }

    /// Requests per repetition. Sized so one repetition is about two
    /// seconds on the reference sandbox; `--quick` divides by ten (and
    /// records a tenth of the mission).
    fn list_len(self, quick: bool) -> usize {
        let full: usize = match self {
            Kind::ScanSmallWarm => 8,
            Kind::ScanLargeCold => 2,
            Kind::WindowMix => 2400,
            Kind::QueryAgg => 180,
            // Append batches; tail reads and seals ride on top.
            Kind::IngestMixed => 380,
        };
        if quick {
            full.div_ceil(10)
        } else {
            full
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// `read_stream` of whole topics.
    Scan {
        root: &'static str,
        topics: &'static [&'static str],
    },
    /// `read_time` of one topic over `[start, end)`.
    Window {
        root: &'static str,
        topic: String,
        start: Time,
        end: Time,
    },
    Topics {
        root: &'static str,
    },
    Stat {
        root: &'static str,
    },
    Query {
        root: &'static str,
        sql: String,
    },
    /// `append` of `Plan::batches[batch]` on the writer connection.
    Append {
        batch: usize,
    },
    /// `read_time` of the tail topics on the analyst connection.
    Tail {
        start: Time,
        end: Time,
    },
    Seal {
        compact: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Admin,
}

impl Req {
    pub fn class(&self) -> Class {
        match self {
            Req::Append { .. } => Class::Write,
            Req::Seal { .. } => Class::Admin,
            _ => Class::Read,
        }
    }

    /// The container the request addresses.
    pub fn root(&self) -> &'static str {
        match self {
            Req::Scan { root, .. }
            | Req::Window { root, .. }
            | Req::Topics { root }
            | Req::Stat { root }
            | Req::Query { root, .. } => root,
            Req::Append { .. } | Req::Tail { .. } | Req::Seal { .. } => LIVE,
        }
    }

    /// Which of a single-threaded list's connections carries the request:
    /// the analyst's (1) for tail reads, the first otherwise.
    pub fn conn(&self) -> usize {
        usize::from(matches!(self, Req::Tail { .. }))
    }
}

/// What a request must return: how many items (messages, rows, topics,
/// acknowledged appends) and, checked in the warm-up repetition, their
/// digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    pub items: u64,
    pub digest: u64,
}

pub struct Plan {
    pub kind: Kind,
    pub reqs: Vec<Req>,
    pub expect: Vec<Expect>,
    /// `ingest_mixed` only: the mission prefix cut into append batches.
    pub batches: Vec<Vec<WireMessage>>,
    /// Payload bytes of `batches`.
    pub batch_bytes: u64,
    /// Generator threads, each with its own connection; a single thread
    /// may still hold two connections (see [`Req::conn`]).
    pub threads: usize,
}

pub fn digest_messages<'a>(msgs: impl IntoIterator<Item = (&'a str, Time, &'a [u8])>) -> Expect {
    let mut d = Digest::default();
    let mut items = 0;
    for (topic, time, data) in msgs {
        d.message(topic, time.as_nanos(), data);
        items += 1;
    }
    Expect { items, digest: d.finish() }
}

/// What a read of `topics` over `range` must return once the first `upto`
/// messages of the mission are stored.
pub fn expect_read(
    reference: &Reference,
    topics: &[&str],
    range: Option<(Time, Time)>,
    upto: usize,
) -> Expect {
    let msgs = reference.select(topics, range, upto);
    digest_messages(msgs.into_iter().map(|m| (&*m.topic, m.time, &*m.data)))
}

pub fn digest_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Expect {
    let mut d = Digest::default();
    let mut items = 0;
    for n in names {
        d.bytes(n.as_bytes());
        items += 1;
    }
    Expect { items, digest: d.finish() }
}

pub fn digest_rows(rows: &[bora_query::Row]) -> Expect {
    let mut d = Digest::default();
    d.bytes(&bora_query::encode_rows(rows));
    Expect { items: rows.len() as u64, digest: d.finish() }
}

pub fn digest_stat(topics: u32, messages: u64, data_bytes: u64, start: Time, end: Time) -> Expect {
    let mut d = Digest::default();
    for v in [u64::from(topics), messages, data_bytes, start.as_nanos(), end.as_nanos()] {
        d.u64(v);
    }
    Expect { items: 1, digest: d.finish() }
}

impl Plan {
    pub fn build(kind: Kind, reference: &Reference, seed: u64, quick: bool) -> Plan {
        let n = kind.list_len(quick);
        let mut plan = Plan {
            kind,
            reqs: Vec::new(),
            expect: Vec::new(),
            batches: Vec::new(),
            batch_bytes: 0,
            threads: 1,
        };
        match kind {
            Kind::ScanSmallWarm => plan.scans(reference, &SMALL_TOPICS, n),
            Kind::ScanLargeCold => plan.scans(reference, &IMAGE_TOPICS, n),
            Kind::WindowMix => {
                plan.threads = 2;
                plan.window_mix(reference, seed, n);
            }
            Kind::QueryAgg => plan.queries(reference, seed, n),
            Kind::IngestMixed => plan.ingest(reference, n),
        }
        plan
    }

    fn push(&mut self, req: Req, expect: Expect) {
        self.reqs.push(req);
        self.expect.push(expect);
    }

    fn scans(&mut self, reference: &Reference, topics: &'static [&'static str], n: usize) {
        let expect = expect_read(reference, topics, None, reference.mission.len());
        for _ in 0..n {
            self.push(Req::Scan { root: BLK, topics }, expect);
        }
    }

    fn window_mix(&mut self, reference: &Reference, seed: u64, n: usize) {
        let mix = querymix::generate(&QueryMixOptions {
            containers: MIX_ROOTS.len(),
            hot_set: 2,
            hot_traffic: 0.9,
            queries: n,
            kind_weights: [0.1, 0.1, 0.8, 0.0],
            seed,
            zipf_s: None,
        });
        let all = reference.mission.len();
        let topics: Vec<&str> = reference.topics.iter().map(String::as_str).collect();
        let topics_expect = digest_names(topics.iter().copied());
        let stat_expect = digest_stat(
            topics.len() as u32,
            all as u64,
            reference.payload_bytes,
            reference.start,
            reference.end,
        );
        let (t0, span) = (reference.start.as_nanos(), reference.span_ns() as f64);
        for q in mix {
            let root = MIX_ROOTS[q.container];
            match q.kind {
                QueryKind::Topics => self.push(Req::Topics { root }, topics_expect),
                QueryKind::Stat => self.push(Req::Stat { root }, stat_expect),
                QueryKind::ReadWindow | QueryKind::ReadFull => {
                    let topic = topics[q.topic_index % topics.len()];
                    let start = t0 + (q.window_start * span) as u64;
                    let end = start + (q.window_frac * span) as u64;
                    let (start, end) = (Time::from_nanos(start), Time::from_nanos(end));
                    let expect = expect_read(reference, &[topic], Some((start, end)), all);
                    self.push(Req::Window { root, topic: topic.to_owned(), start, end }, expect);
                }
            }
        }
    }

    /// Three shapes on `/imu`, cycled: a full-topic one-second windowed
    /// aggregate; the same over a seeded fifth of the mission (time-range
    /// pushdown); a seeded selective filter with a projection.
    fn queries(&mut self, reference: &Reference, seed: u64, n: usize) {
        let mut rng = SplitMix::new(seed);
        let imu: Vec<_> = reference
            .select(&[topic::IMU], None, reference.mission.len())
            .into_iter()
            .cloned()
            .collect();
        let (t0, span) =
            (reference.start.as_nanos() as f64 * 1e-9, reference.span_ns() as f64 * 1e-9);
        const AGG: &str =
            "SELECT window, count(), mean(angular_velocity.x), max(linear_acceleration.y) \
                           FROM '/imu'";
        // Seeded draws are stratified: draw k of a shape's m falls in the
        // k-th m-th of its range (strata visited in a scattered order), so
        // that every seed's list asks for the same amount of work and
        // metrics differ between seeds by noise, not by luck of the draw.
        let per_shape = n.div_ceil(3);
        let mut draw = |i: usize, lo: f64, hi: f64| {
            let stratum = (i / 3 * 7) % per_shape;
            lo + (hi - lo) * (stratum as f64 + rng.range_f64(0.0, 1.0)) / per_shape as f64
        };
        let answer = |sql: &str| {
            let stmt = bora_query::parse(sql).expect("generated statement parses").stmt;
            let (_, rows) = bora_query::run_naive(&stmt, &imu, &reference.datatypes)
                .expect("reference interpreter runs the statement");
            digest_rows(&rows)
        };
        // The full-topic statement is the same every time: answer it once.
        let full = format!("{AGG} WINDOW 1s");
        let full_answer = answer(&full);
        for i in 0..n {
            let sql = match i % 3 {
                0 => {
                    self.push(Req::Query { root: BLK, sql: full.clone() }, full_answer);
                    continue;
                }
                1 => {
                    let lo = t0 + draw(i, 0.0, 0.8) * span;
                    format!(
                        "{AGG} WHERE time >= {lo:.3} AND time < {:.3} WINDOW 1s",
                        lo + 0.2 * span
                    )
                }
                _ => format!(
                    "SELECT time, angular_velocity.x, linear_acceleration.y FROM '/imu' \
                     WHERE angular_velocity.x > {:.3}",
                    draw(i, 4.0, 4.8)
                ),
            };
            let expect = answer(&sql);
            self.push(Req::Query { root: BLK, sql }, expect);
        }
    }

    /// Replay the first `n` batches of the mission: a tail read after
    /// every 8th batch, a seal every 32, a compaction on every 3rd seal,
    /// and a final seal + compaction.
    fn ingest(&mut self, reference: &Reference, n: usize) {
        let prefix = &reference.mission[..(n * APPEND_BATCH).min(reference.mission.len())];
        for (b, chunk) in prefix.chunks(APPEND_BATCH).enumerate() {
            self.batches.push(
                chunk
                    .iter()
                    .map(|m| WireMessage {
                        topic: m.topic.clone(),
                        time: m.time,
                        data: m.data.clone(),
                    })
                    .collect(),
            );
            self.batch_bytes += chunk.iter().map(|m| m.data.len() as u64).sum::<u64>();
            self.push(Req::Append { batch: b }, Expect { items: chunk.len() as u64, digest: 0 });
            let (done, upto) = (b + 1, b * APPEND_BATCH + chunk.len());
            if done.is_multiple_of(TAIL_EVERY) {
                let end = chunk.last().expect("non-empty batch").time.as_nanos() + 1;
                let (start, end) =
                    (Time::from_nanos(end.saturating_sub(TAIL_SPAN_NS)), Time::from_nanos(end));
                let expect = expect_read(reference, &TAIL_TOPICS, Some((start, end)), upto);
                self.push(Req::Tail { start, end }, expect);
            }
            if done.is_multiple_of(SEAL_EVERY) {
                let compact = (done / SEAL_EVERY).is_multiple_of(COMPACT_EVERY_SEALS);
                self.push(Req::Seal { compact }, Expect::default());
            }
        }
        self.push(Req::Seal { compact: true }, Expect::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in KINDS {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn quick_lists_are_a_tenth() {
        assert_eq!(Kind::WindowMix.list_len(true), 240);
        assert_eq!(Kind::ScanLargeCold.list_len(true), 1);
        assert_eq!(Kind::IngestMixed.list_len(true), 38);
    }
}
