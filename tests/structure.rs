//! Structure guards: what earlier simplifications removed stays removed.
//!
//! Each guard is a rule over `(path, source text)` — or, for the bench
//! ledgers, over a manifest and the ledger files it implies — so it can
//! be shown to fire on an in-memory snippet without editing product code.
//! `the_tree_holds_every_guard` then applies all of them to the checkout.
//!
//! 1. *One container writer*: outside `bora::writer` and the three modules
//!    that define them, no non-test source of `bora`, `bora-ingest` or
//!    `bora-tool` encodes an index, builds a time index or assembles a
//!    MANIFEST.
//! 2. *Compaction does not rewrite*: no non-test source of `bora-ingest`
//!    de-frames a `data` file.
//! 3. *Decode-free executor*: in non-test source of `bora-query` only
//!    `value.rs` (the oracle's reader) decodes a whole message, and
//!    `exec.rs` has no shared-mutable row.
//! 4. *One bench story*: every `[[bench]]` of `crates/bench` has its
//!    ledger at the repo root, one row per benchmark id, every row with
//!    its rate.
//! 5. *One audited `unsafe`*: `crates/bora/src/checksum.rs`.
//! 6. *The read core lends*: in non-test `bora/src/stream.rs` the merge
//!    heap is touched inside `impl Merge` alone, `MessageStream::lend_run`
//!    is the stream's one caller of `pick`, and `lend` (a run of one) and
//!    `next_msg` reach the merge through it; a cursor does not copy pool
//!    pages (`fetch_logical` is not
//!    called, and nothing between `DataSource::Blocked { map }` and the
//!    page push builds an `Arc` from bytes); and the file has no more
//!    code lines than when the stream began to lend runs.
//! 7. *One merge, one multi-container read*: `BinaryHeap` is named in one
//!    non-test source under `crates/` — `stream.rs`, whose `Merge` the
//!    cluster router drives too — not counting `crates/bench`, whose
//!    `merge_ref.rs` is the oracle; and the swarm backend trait, its
//!    fan-out and its cluster implementor are gone from `crates/`,
//!    `tests/` and `examples/`.
//! 8. *One byte codec*: under `crates/`, no non-test source outside
//!    `ros-msgs/src/wire.rs` implements a byte cursor, and none outside
//!    `bora/src/checksum.rs` checks a CRC32C trailer; `bora-tool` names
//!    no format magic and no ingest file name — it reads an ingest root
//!    through `bora-ingest` alone.
//! 9. *One codec choice*: a stream chunk's codec is measured, not asked
//!    for. In non-test `bora-serve` source the open chunk's `finish` —
//!    the one `finish` that takes arguments — is called from
//!    `compress_chunk` in `proto.rs` and from one site in `server.rs`, the
//!    stream's policy, alone, and no non-test source under `crates/` names
//!    the retired `chunk_frame`; `bora-serve` reads no environment
//!    variable, and `ServerConfig` has no codec field.
//! 10. *`repro` reproduces the paper*: `registry()` holds no `ext_` id,
//!     and no CI step runs `repro` on one. A fact an extension checked is
//!     a test; a kernel is timed by the wall-clock benchmark.
//! 11. *One executor path*: in non-test `bora-query/src/exec.rs` the
//!     per-row evaluator (`eval`), projection (`project`) and aggregate
//!     fold (`fold_row`) are called only from the oracle — `run_naive` and
//!     those three themselves. A cursor evaluates a batch at a time, and
//!     gathers a column at a time: nothing calls a per-message field
//!     reader (`read_fields`, `Accessor::read_at`), payloads are walked
//!     in `Batch::fill_fields` alone, and both `Batch::push` (the join's
//!     message, a run of one) and `Batch::push_run` gather through it.
//! 12. *One wire path*: `Connection` declares one send method and one
//!     receive method; in non-test `transport.rs` one call sends a frame
//!     and none joins a reply (`encode_seq`). The client's chunk path is
//!     `proto::stream_chunk`, which reads the chunk where it lies: non-test
//!     `client.rs` calls it and names neither `get_byte_array`, the
//!     copying `decode_frame` nor `StreamChunkLz` (a chunk decoded into
//!     that variant is a copy of its frame), and `stream_chunk` and
//!     `decompress_chunk` in `proto.rs` call neither `get_byte_array`,
//!     `decode_frame` nor `to_vec`.
//! 13. *One observation path*: `STATS` is a view of `METRICS`. Non-test
//!     `bora-serve` source has no `Stats` request or response variant,
//!     no `STATS` opcode and no `snapshot_into`, and builds a
//!     `StatsSnapshot` in one place: `impl From<&MetricsReport> for
//!     StatsSnapshot` in `metrics.rs`. The data ops' names stay in one
//!     table: each op key literal is written once, in `metrics.rs`; no
//!     source writes a `serve.<op>` span name, and only `metrics.rs` a
//!     `serve.op.` metric name — `bora-cluster`'s `telemetry.rs`, which
//!     renders the op rows, neither.
//! 14. *One read answer*: a read is a stream. In non-test `bora-serve`
//!     source `Response::Read(` and `Response::StreamChunk(` — the owned
//!     message replies — appear only in `proto.rs`'s codec
//!     (`Response::write` / `Response::decode`); `client.rs` has no
//!     `read_streamed*`, because `ServeClient::read` is the stream
//!     collected; the client decodes message answers (`stream_chunk` /
//!     `decompress_chunk`) in `ReadStream::fetch` alone; and a
//!     `ChunkCodec` is built only by the serve loop (`serve_connection`,
//!     one per connection) and `Server::submit_streamed` (one per call).
//! 15. *One read surface*: each source has one general stream constructor
//!     and the paper's `read_messages` pair. In non-test `container.rs`
//!     the `pub fn`s that return a `MessageStream` or a
//!     `Vec<MessageRecord>` are exactly `stream_topics`,
//!     `stream_topics_with_tails`, `read_topics` and `read_topics_time`;
//!     in non-test `snapshot.rs` exactly `stream` and `read_time_range`;
//!     and non-test `bora-query` source has no record feed
//!     (`cursor_records`, `Feed::Records`, `Pulled::Record`): a cursor's
//!     one input is a `MessageStream`.
//! 16. *One resilient client*: retrying is `ClusterClient`'s walk. In
//!     non-test source `bora-serve` names no `RetryClient` or
//!     `RetryPolicy` and its `client.rs` never sleeps; `bora-cluster`
//!     spends retry-budget tokens in one fn and sleeps in one place; and
//!     the `pub fn`s of `ClusterClient` that return messages or streams
//!     are exactly `read`, `read_stream` and `read_stream_multi` — a
//!     collected read is the stream, hedged at its first frame.
//! 17. *One scan path*: the stream is drained by runs. Non-test
//!     `bora-serve` source names no `StreamMessage` and calls no
//!     `next_msg`, and `scan` in `server.rs` drains the stream with
//!     `lend_run`: a lent message goes from its pool page into the open
//!     chunk, and nothing owns it on the way.
//! 18. *One commit record*: every container has a MANIFEST, and a byte is
//!     served, passed or adopted only if it lists it. No non-test source
//!     under `crates/` names `has_manifest` or `Option<Manifest>`;
//!     `Manifest::load` returns `BoraResult<Manifest>` (a root without one
//!     is `Corrupt`); and the body of `fn verify` in `manifest.rs` has no
//!     `return Ok(())` — an unlisted path is not waved through.
//! 19. *One generation open*: a live root opens each generation once, in
//!     `GenHandle::bag`, and recovery, snapshots and compaction share it.
//!     Non-test `bora-ingest` source calls `BoraBag::open(` exactly once
//!     and never decodes `.bora` raw (`ContainerMeta::decode(`); and
//!     non-test `stream.rs` calls no `.retain(` — a tail comes to the
//!     stream cut to its window, by the one who holds it.
//! 20. *One fill path*: a stream refills on its caller's thread, and its
//!     prefetch parallelism is the cost model's constant. Non-test
//!     `stream.rs` names no `thread::scope` or `thread::spawn`, and no
//!     source under `crates/`, `tests/` or `examples/` names the retired
//!     `prefetch_threads` option.
//! 21. *One page lifetime*: a pool page lives as long as its `Arc`. No
//!     non-test source under `crates/` names the retired lease
//!     (`PageRef`) or the raw-page knob (`with_page_size`), and non-test
//!     `bufpool.rs` declares no pin count or epoch (`pins:`, `epoch:`):
//!     the pool keeps pages, and a reader holds its bytes, not a pin.
//! 22. *One handle lifetime*: a served container lives as long as its
//!     clone. Non-test `bora-serve/src/cache.rs` declares no pin count or
//!     entry generation (`pins`, `generation`) and implements no `Drop`,
//!     and no source under `crates/` or `tests/` names the retired
//!     `cache_pins`: the cache keeps handles, and a worker holds its
//!     handle, not a pin.
//! 23. *A read finds damage, a handle does not remember it*: every read
//!     verifies what it reads, so damage answers `ChecksumMismatch`
//!     through any handle or snapshot, whenever it was taken. No source
//!     under `crates/`, `tests/` or `examples/` names the retired
//!     quarantine (`TopicDamaged`, `damaged_topics`, `check_not_damaged`,
//!     `.quarantine(`), and non-test `bora/src/container.rs` declares no
//!     `Mutex`, no per-topic side map (`conn_ids`, `block_maps`) and no
//!     hand-written `Clone for BoraBag`: an open topic is one record of
//!     the tag table.

use std::path::Path;

const CHECKSUM: &str = "crates/bora/src/checksum.rs";
const WIRE: &str = "crates/ros-msgs/src/wire.rs";
const STREAM: &str = "crates/bora/src/stream.rs";
const MANIFEST: &str = "crates/bora/src/manifest.rs";
const BUFPOOL: &str = "crates/bora/src/bufpool.rs";
const CACHE: &str = "crates/bora-serve/src/cache.rs";
const PROTO: &str = "crates/bora-serve/src/proto.rs";
const SERVER: &str = "crates/bora-serve/src/server.rs";
const CONTAINER: &str = "crates/bora/src/container.rs";
/// Code lines of `stream.rs` — non-blank, not a `//` comment, before
/// `#[cfg(test)]`: 462 when `Merge` held the merge for both read paths
/// (466 before the read core lent, 463 after), 42 more for `Run`,
/// `Merge::runner_up`, the cursor's run bound and `lend` as a run of one,
/// 4 fewer once a tail came cut to its window, 19 fewer once a fill
/// pass ran on the caller's thread (no thread pool, no per-cursor error
/// slot, no thread-count option), and 9 fewer once a cursor held its
/// topic's open record (no quarantine, one lookup per topic).
const STREAM_CODE_LINES: usize = 472;
const REGISTRY: &str = "crates/bench/src/experiments/mod.rs";
const EXEC: &str = "crates/bora-query/src/exec.rs";
/// The row-at-a-time functions of `exec.rs`, which only the oracle runs.
const PER_ROW: [&str; 3] = ["eval", "project", "fold_row"];
/// The retired per-message field readers: a row's fields read one by one.
const PER_MESSAGE_READS: [&str; 2] = ["read_fields", "read_at"];
/// The one column fill of `exec.rs`, and the gathers that go through it.
const COLUMN_FILL: &str = "fill_fields";
const GATHERS: [&str; 2] = ["push", "push_run"];
const CI: &str = ".github/workflows/ci.yml";
const TRANSPORT: &str = "crates/bora-serve/src/transport.rs";
const CLIENT: &str = "crates/bora-serve/src/client.rs";
/// What the client's chunk path may not call: each copies a whole frame.
const FRAME_COPIES: [&str; 2] = ["get_byte_array", "decode_frame("];
const SERVE_SRC: &str = "crates/bora-serve/src/";
const METRICS: &str = "crates/bora-serve/src/metrics.rs";
const TELEMETRY: &str = "crates/bora-cluster/src/telemetry.rs";
/// The data ops' metric keys, as `metrics.rs`'s op table declares them.
const OP_KEYS: [&str; 9] =
    ["append", "meta", "open", "query", "read", "read_stream", "seal", "stat", "topics"];
/// What the retired `STATS` wire op and its second builder were made of.
const STATS_OP: [&str; 7] = [
    "OP_STATS",
    "OP_OK_STATS",
    "Request::Stats",
    "Response::Stats",
    "Self::Stats",
    "Stats(StatsSnapshot)",
    "snapshot_into",
];
/// The one `StatsSnapshot` builder's header.
const PROJECTION: &str = "impl From<&MetricsReport> for StatsSnapshot {";
/// The owned message replies no server sends and no client decodes.
const OWNED_REPLIES: [&str; 2] = ["Response::Read(", "Response::StreamChunk("];
/// The functions that build a `ChunkCodec`: one per connection, one per
/// `submit_streamed` call.
const CODEC_BUILDERS: [&str; 2] = ["serve_connection", "submit_streamed"];

/// Each source's read surface: the `pub fn`s of a file that return a
/// stream or owned messages.
const READ_SURFACES: [(&str, &[&str]); 2] = [
    (
        "crates/bora/src/container.rs",
        &["stream_topics", "stream_topics_with_tails", "read_topics", "read_topics_time"],
    ),
    ("crates/bora-ingest/src/snapshot.rs", &["stream", "read_time_range"]),
];
const CLUSTER_SRC: &str = "crates/bora-cluster/src/";
const CLUSTER_CLIENT: &str = "crates/bora-cluster/src/client.rs";
/// The `ClusterClient` calls that return messages or streams.
const CLUSTER_READS: [&str; 3] = ["read", "read_stream", "read_stream_multi"];
const QUERY_SRC: &str = "crates/bora-query/src/";
const INGEST_SRC: &str = "crates/bora-ingest/src/";
/// The query cursor's retired second input.
const RECORD_FEED: [&str; 3] = ["cursor_records", "Feed::Records", "Pulled::Record"];

/// Where a source guard looks and what it refuses to find there.
struct SourceGuard {
    name: &'static str,
    /// Path prefixes (relative to the repo root) the guard covers.
    under: &'static [&'static str],
    exempt: &'static [&'static str],
    /// Stop at the first `#[cfg(test)]`, as the tests may do what the
    /// product may not.
    non_test_only: bool,
    patterns: &'static [&'static str],
}

const SOURCE_GUARDS: &[SourceGuard] = &[
    SourceGuard {
        name: "one container writer",
        under: &["crates/bora/src/", "crates/bora-ingest/src/", "crates/bora-tool/src/"],
        exempt: &[
            "crates/bora/src/writer.rs",
            "crates/bora/src/topic_index.rs",
            "crates/bora/src/time_index.rs",
            "crates/bora/src/manifest.rs",
        ],
        non_test_only: true,
        patterns: &["encode_entries(", "TimeIndex::build(", "Manifest::new("],
    },
    SourceGuard {
        name: "compaction does not rewrite",
        under: &["crates/bora-ingest/src/"],
        exempt: &[],
        non_test_only: true,
        patterns: &["read_logical(", "decode_frames("],
    },
    SourceGuard {
        name: "decode-free executor",
        under: &["crates/bora-query/src/"],
        exempt: &["crates/bora-query/src/value.rs"],
        non_test_only: true,
        patterns: &["AnyMessage::decode"],
    },
    SourceGuard {
        name: "decode-free executor",
        under: &["crates/bora-query/src/exec.rs"],
        exempt: &[],
        non_test_only: false,
        patterns: &["Rc<RefCell"],
    },
    SourceGuard {
        name: "one multi-container read",
        under: &["crates/", "tests/", "examples/"],
        exempt: &["tests/structure.rs"],
        non_test_only: false,
        patterns: &["SwarmBackend", "swarm_fan_out", "ClusterBackend"],
    },
    SourceGuard {
        name: "one byte codec",
        under: &["crates/"],
        exempt: &[WIRE],
        non_test_only: true,
        patterns: &["fn take(&mut self"],
    },
    SourceGuard {
        name: "one byte codec",
        under: &["crates/"],
        exempt: &[CHECKSUM],
        non_test_only: true,
        patterns: &["crc32c(body)", "len() - 4)", "split_last_chunk::<4>"],
    },
    SourceGuard {
        name: "one byte codec",
        under: &["crates/bora-tool/src/"],
        exempt: &[],
        non_test_only: true,
        patterns: &["_MAGIC", "shard-", ".seal\""],
    },
    SourceGuard {
        name: "one commit record",
        under: &["crates/"],
        exempt: &[],
        non_test_only: true,
        patterns: &["has_manifest", "Option<Manifest>"],
    },
    SourceGuard {
        name: "one fill path",
        under: &[STREAM],
        exempt: &[],
        non_test_only: true,
        patterns: &["thread::scope", "thread::spawn"],
    },
    SourceGuard {
        name: "one fill path",
        under: &["crates/", "tests/", "examples/"],
        exempt: &["tests/structure.rs"],
        non_test_only: false,
        patterns: &["prefetch_threads"],
    },
    SourceGuard {
        name: "one page lifetime",
        under: &["crates/"],
        exempt: &[],
        non_test_only: true,
        patterns: &["PageRef", "with_page_size"],
    },
    SourceGuard {
        name: "one page lifetime",
        under: &[BUFPOOL],
        exempt: &[],
        non_test_only: true,
        patterns: &["pins:", "epoch:"],
    },
    SourceGuard {
        name: "one handle lifetime",
        under: &[CACHE],
        exempt: &[],
        non_test_only: true,
        patterns: &["pins", "generation", "Drop for"],
    },
    SourceGuard {
        name: "one handle lifetime",
        under: &["crates/", "tests/"],
        exempt: &["tests/structure.rs"],
        non_test_only: false,
        patterns: &["cache_pins"],
    },
    SourceGuard {
        name: "a handle does not remember damage",
        under: &["crates/", "tests/", "examples/"],
        exempt: &["tests/structure.rs"],
        non_test_only: false,
        patterns: &["TopicDamaged", "damaged_topics", "check_not_damaged", ".quarantine("],
    },
    SourceGuard {
        name: "a handle does not remember damage",
        under: &[CONTAINER],
        exempt: &[],
        non_test_only: true,
        patterns: &["Mutex", "conn_ids", "block_maps", "Clone for BoraBag"],
    },
];

/// `unsafe` as a keyword: not part of a longer identifier (`unsafe_code`)
/// and not inside a `//` comment.
fn uses_unsafe(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, word)| {
        !code[..at].ends_with(ident) && !code[at + word.len()..].starts_with(ident)
    })
}

/// Every guard's findings in one file, as `guard: path:line: text`.
fn source_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut in_tests = false;
    for (i, line) in source.lines().enumerate() {
        in_tests |= line.contains("#[cfg(test)]");
        let mut flag = |guard: &str| found.push(format!("{guard}: {path}:{}: {line}", i + 1));
        for g in SOURCE_GUARDS {
            if g.under.iter().any(|p| path.starts_with(p))
                && !g.exempt.contains(&path)
                && !(g.non_test_only && in_tests)
                && g.patterns.iter().any(|p| line.contains(p))
            {
                flag(g.name);
            }
        }
        if path.starts_with("crates/") && path != CHECKSUM && uses_unsafe(line) {
            flag("one audited unsafe");
        }
    }
    found
}

/// The type an item header at column 0 implements or declares methods
/// for: `impl<'a, S: Storage> MessageStream<'a, S> {` → `MessageStream`;
/// `""` for any other item.
fn impl_type(line: &str) -> &str {
    let Some(mut rest) = line.strip_prefix("impl") else { return "" };
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += (c == '<') as i32 - (c == '>') as i32;
            depth == 0
        });
        rest = close.map_or("", |at| &rest[at + 1..]);
    }
    let rest = rest.rsplit(" for ").next().unwrap_or("").trim_start();
    rest.split(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap_or("")
}

/// Whether a line reads or writes a field called `heap`, of any value.
fn touches_heap(line: &str) -> bool {
    line.match_indices(".heap")
        .any(|(at, f)| !line[at + f.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Guard 6 over the text of `stream.rs`.
fn stream_violations(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let code = source.lines().enumerate().take_while(|(_, l)| !l.contains("#[cfg(test)]"));
    let code: Vec<(usize, &str, &str)> = code
        .map(|(i, l)| (i + 1, l, l.trim()))
        .filter(|(_, _, l)| !l.is_empty() && !l.starts_with("//"))
        .collect();
    let mut flag = |line: usize, what: &str| {
        found.push(format!("the read core lends: {STREAM}:{line}: {what}"))
    };
    // The item a line is in (the last one to open at column 0) and the
    // function (the last `fn` header at or above it).
    let (mut item, mut current) = ("", "");
    let (mut lend_runs, mut next_msg_lends, mut page_arm) = (false, false, false);
    for &(i, raw, line) in &code {
        if !raw.starts_with([' ', '}']) {
            item = impl_type(raw);
        }
        let header = ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| line.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
        }
        if touches_heap(line) && item != "Merge" {
            flag(i, "the merge heap is `Merge`'s alone");
        }
        if line.contains(".pick(") && (item, current) != ("MessageStream", "lend_run") {
            flag(i, "`MessageStream::lend_run` is the stream's one caller of `pick`");
        }
        lend_runs |=
            (item, current) == ("MessageStream", "lend") && line.contains("self.lend_run(");
        next_msg_lends |= current == "next_msg" && line.contains("self.lend(");
        if line.contains("fetch_logical(") {
            flag(i, "a cursor queues pages, it does not copy them out");
        }
        page_arm |= line.contains("DataSource::Blocked { map }");
        if page_arm && line.contains("Arc::from(") {
            flag(i, "a page is queued as the pool holds it");
        }
        page_arm &= !line.contains("blocks.push_back(");
    }
    if !lend_runs {
        flag(0, "`lend` is a run of one: it reaches the merge through `lend_run`");
    }
    if !next_msg_lends {
        flag(0, "`next_msg` is `lend`, then own");
    }
    if code.len() > STREAM_CODE_LINES {
        flag(0, &format!("{} code lines, {STREAM_CODE_LINES} with runs", code.len()));
    }
    found
}

/// Guard 9 over one file: calls of the open chunk's `finish` and names of
/// the retired `chunk_frame`, environment reads in `bora-serve` and the
/// fields of `ServerConfig`.
fn codec_choice_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let (mut current, mut in_config, mut calls) = ("", false, 0);
    for (i, line) in source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate() {
        let mut flag =
            |what: &str| found.push(format!("one codec choice: {path}:{}: {what}: {line}", i + 1));
        let code = line.trim_start();
        let header = ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| code.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
        }
        // `finish(` with arguments: the open chunk's, not a `Writer`'s or
        // a reader's `finish()`.
        let called = code.split("//").next().unwrap_or("");
        let finishes =
            called.match_indices("finish(").any(|(at, f)| !called[at + f.len()..].starts_with(')'));
        if finishes && header.is_none() && path.starts_with(SERVE_SRC) {
            calls += 1;
            let allowed = match path {
                PROTO => current == "compress_chunk",
                SERVER => calls == 1,
                _ => false,
            };
            if !allowed {
                flag(
                    "the open chunk is finished by `compress_chunk` and the stream's policy alone",
                );
            }
        }
        if called.contains("chunk_frame") && path.starts_with("crates/") {
            flag("the open chunk is the one place a chunk frame is laid out");
        }
        if path.starts_with("crates/bora-serve/")
            && (line.contains("env::var") || line.contains("var_os("))
        {
            flag("bora-serve reads no environment variable");
        }
        in_config |= line.starts_with("pub struct ServerConfig");
        let field = code.to_ascii_lowercase();
        if in_config
            && ["codec", "lz", "compress"].iter().any(|w| field.contains(w))
            && !code.starts_with("//")
        {
            flag("`ServerConfig` has no codec field");
        }
        in_config &= !line.starts_with('}');
    }
    found
}

/// Guard 11 over the text of `exec.rs`: each call of a per-row function
/// and the function it is in, which must be the oracle's; each call of a
/// per-message field reader; each walk outside the column fill; and the
/// gathers that do not go through it.
fn one_executor_violations(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let (mut current, mut filled) = ("", Vec::new());
    for (i, line) in source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate() {
        let code = line.split("//").next().unwrap_or("");
        let trimmed = code.trim_start();
        let header =
            ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| trimmed.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
            continue;
        }
        // An item ends at a `}` in column 0.
        if code.starts_with('}') {
            current = "";
        }
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        let called = |f: &str| {
            code.match_indices(&format!("{f}(")).any(|(at, _)| !code[..at].ends_with(ident))
        };
        for f in PER_ROW.into_iter().filter(|f| called(f)) {
            if current != "run_naive" && !PER_ROW.contains(&current) {
                found.push(format!(
                    "one executor path: {EXEC}:{}: `{f}` is called from `{current}`, not the oracle",
                    i + 1
                ));
            }
        }
        for f in PER_MESSAGE_READS.into_iter().filter(|f| called(f)) {
            found.push(format!(
                "one executor path: {EXEC}:{}: `{f}` in `{current}` reads a message's fields one \
                 by one; a batch gathers a column at a time",
                i + 1
            ));
        }
        if code.contains(".walk(") && current != COLUMN_FILL {
            found.push(format!(
                "one executor path: {EXEC}:{}: `{current}` walks a payload outside `{COLUMN_FILL}`",
                i + 1
            ));
        }
        if code.contains(&format!("self.{COLUMN_FILL}(")) {
            filled.push(current);
        }
    }
    for g in GATHERS.into_iter().filter(|g| !filled.contains(g)) {
        found.push(format!(
            "one executor path: {EXEC}: `{g}` does not gather through `{COLUMN_FILL}`"
        ));
    }
    found
}

/// Guard 12 over one file: the methods `Connection` declares and the
/// serve loop's sends in `transport.rs`, what `client.rs` calls on the
/// way to a chunk's messages, and what `proto.rs`'s chunk decoders call.
fn one_wire_path_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let lines = source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate();
    fn code(line: &str) -> &str {
        line.split("//").next().unwrap_or("")
    }
    let mut flag =
        |i: usize, what: &str| found.push(format!("one wire path: {path}:{}: {what}", i + 1));
    match path {
        TRANSPORT => {
            let (mut in_trait, mut sends, mut recvs, mut send_calls) = (false, 0, 0, 0);
            for (i, line) in lines {
                let code = code(line);
                in_trait |= code.starts_with("pub trait Connection");
                let method = code.trim_start();
                sends += usize::from(in_trait && method.starts_with("fn send"));
                recvs += usize::from(in_trait && method.starts_with("fn recv"));
                in_trait &= !code.starts_with('}');
                send_calls += code.matches(".send_frame(").count();
                if code.contains("encode_seq(") {
                    flag(i, "the serve loop sends a reply in parts, never joined");
                }
            }
            if (sends, recvs) != (1, 1) {
                flag(0, &format!("`Connection` declares {sends} send and {recvs} receive methods"));
            }
            if send_calls != 1 {
                flag(0, &format!("{send_calls} calls send a frame, not one"));
            }
        }
        CLIENT => {
            let mut chunk_path = false;
            for (i, line) in lines {
                let code = code(line);
                chunk_path |= code.contains("stream_chunk(");
                if FRAME_COPIES.iter().chain(&["StreamChunkLz"]).any(|c| code.contains(c)) {
                    flag(i, "the client reads a chunk where it lies");
                }
            }
            if !chunk_path {
                flag(0, "the client's chunk path is `stream_chunk`");
            }
        }
        PROTO => {
            let mut current = "";
            for (i, line) in lines {
                let code = code(line);
                let item = code.strip_prefix("pub fn ").or_else(|| code.strip_prefix("fn "));
                if let Some(item) = item {
                    current = item.split(['(', '<']).next().unwrap_or("");
                } else if code.starts_with('}') {
                    current = "";
                }
                let decoder = ["stream_chunk", "decompress_chunk"].contains(&current);
                if decoder && FRAME_COPIES.iter().chain(&["to_vec"]).any(|c| code.contains(c)) {
                    flag(i, "a chunk decoder copies no frame");
                }
            }
        }
        _ => {}
    }
    found
}

/// Guard 13 over one file: `STATS` as a wire op or a second
/// `StatsSnapshot` builder in `bora-serve`, and op names written outside
/// the op table there or in the cluster's `telemetry.rs`.
fn one_observation_path_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    if !path.starts_with(SERVE_SRC) && path != TELEMETRY {
        return found;
    }
    let mut flag = |i: usize, what: &str| {
        found.push(format!("one observation path: {path}:{}: {what}", i + 1))
    };
    let (mut keys, mut header) = ([0usize; OP_KEYS.len()], "");
    for (i, line) in source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if path == TELEMETRY {
            if code.contains("\"serve.op.") || code.contains(".wall_ns\"") {
                flag(i, "the op rows read the op table's metric names");
            }
            continue;
        }
        let item = code.trim();
        if STATS_OP.iter().any(|p| code.contains(p))
            || item == "Stats,"
            || item.starts_with("Stats(")
        {
            flag(i, "`STATS` is a view of `METRICS`, not a wire op");
        }
        if code.starts_with("impl") {
            header = code;
        }
        // A literal, not the type's declaration, an `impl` or a return type.
        let literal = code.match_indices("StatsSnapshot {").any(|(at, _)| {
            !matches!(code[..at].split_whitespace().last(), Some("struct" | "impl" | "->" | "for"))
        });
        let builds = literal
            || code.contains("StatsSnapshot::default()")
            || code.contains(" for StatsSnapshot");
        if builds && !(path == METRICS && header == PROJECTION) {
            flag(i, "a `StatsSnapshot` is built from a `MetricsReport`, in one place");
        }
        for (n, key) in keys.iter_mut().zip(OP_KEYS) {
            *n += code.matches(&format!("\"{key}\"")).count();
            if code.contains(&format!("\"serve.{key}\"")) {
                flag(i, "span names come from the op table");
            }
        }
        if path != METRICS && code.contains("\"serve.op.") {
            flag(i, "op metric names come from the op table");
        }
    }
    let want = usize::from(path == METRICS);
    for (n, key) in keys.into_iter().zip(OP_KEYS).filter(|(n, _)| *n != want) {
        flag(0, &format!("the op key \"{key}\" is written {n} times, not {want}"));
    }
    found
}

/// Guard 14 over one file: the owned read replies, the client's second
/// read path and where a `ChunkCodec` is built, in `bora-serve`.
fn one_read_answer_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    if !path.starts_with(SERVE_SRC) {
        return found;
    }
    let mut flag =
        |i: usize, what: &str| found.push(format!("one read answer: {path}:{}: {what}", i + 1));
    let mut current = "";
    for (i, line) in source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate() {
        let code = line.split("//").next().unwrap_or("");
        let trimmed = code.trim_start();
        let header =
            ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| trimmed.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
        }
        if OWNED_REPLIES.iter().any(|r| code.contains(r))
            && !(path == PROTO && ["write", "decode"].contains(&current))
        {
            flag(i, "a read is answered by chunks: no owned message reply outside the codec");
        }
        if path == CLIENT && code.contains("fn read_streamed") {
            flag(i, "`ServeClient::read` is the stream collected");
        }
        let decodes = ["stream_chunk(", "decompress_chunk("].iter().any(|d| code.contains(d));
        if path == CLIENT && decodes && current != "fetch" {
            flag(i, "message answers are decoded in `ReadStream::fetch` alone");
        }
        let literal = code.contains("ChunkCodec {")
            && !code.contains("struct ChunkCodec")
            && !trimmed.starts_with("impl")
            && current != "default";
        if literal || code.contains("ChunkCodec::default()") && !CODEC_BUILDERS.contains(&current) {
            flag(i, "a connection's reads share one codec, built by its serve loop");
        }
    }
    found
}

/// Guard 17 over one file: the owned stream message and the
/// message-at-a-time pull in non-test `bora-serve` source, and whether
/// `scan` in `server.rs` drains the stream by runs.
fn one_scan_path_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    if !path.starts_with(SERVE_SRC) {
        return found;
    }
    let (mut current, mut by_runs) = ("", false);
    for (i, line) in source.lines().take_while(|l| !l.contains("#[cfg(test)]")).enumerate() {
        let code = line.split("//").next().unwrap_or("");
        let trimmed = code.trim_start();
        let header =
            ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| trimmed.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
        }
        if code.contains("StreamMessage") || code.contains("next_msg(") {
            let at = format!("{path}:{}", i + 1);
            found
                .push(format!("one scan path: {at}: the stream lends, and nothing owns a message"));
        }
        by_runs |= path == SERVER && current == "scan" && code.contains(".lend_run(");
    }
    if path == SERVER && !by_runs {
        found.push(format!("one scan path: {path}: `scan` drains the stream by `lend_run`"));
    }
    found
}

/// Guard 15 over one file: a source's read surface, and the query
/// cursor's one input.
fn one_read_surface_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let code = source.lines().take_while(|l| !l.contains("#[cfg(test)]"));
    let code: Vec<&str> = code.map(|l| l.split("//").next().unwrap_or("")).collect();
    if path.starts_with(QUERY_SRC) {
        for (i, line) in code.iter().enumerate() {
            if RECORD_FEED.iter().any(|f| line.contains(f)) {
                let at = format!("{path}:{}", i + 1);
                found.push(format!("one read surface: {at}: a cursor reads a stream alone"));
            }
        }
    }
    let Some((_, kept)) = READ_SURFACES.iter().find(|(file, _)| *file == path) else {
        return found;
    };
    // Each `pub fn`'s header, up to its body, and the names of those
    // whose return type is a stream or owned messages.
    let mut readers = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub fn ") else { continue };
        let body =
            code[i..].iter().position(|l| l.ends_with(" {")).map_or(code.len(), |k| i + k + 1);
        let header = code[i..body].concat();
        let returns = header.rsplit_once("->").map_or("", |(_, r)| r);
        if returns.contains("MessageStream") || returns.contains("MessageRecord>") {
            readers.push(rest.split(['(', '<']).next().unwrap_or(""));
        }
    }
    if readers.len() != kept.len() || !kept.iter().all(|k| readers.contains(k)) {
        found.push(format!("one read surface: {path} reads through {readers:?}, not {kept:?}"));
    }
    found
}

/// Guard 16 over the sources of `bora-serve` and `bora-cluster`, as
/// `(path, text)`: retrying named in `bora-serve` or a sleep in its
/// `client.rs`; the `bora-cluster` fns that spend a retry-budget token
/// and the lines that sleep, one each; and `ClusterClient`'s read calls.
fn one_client_violations(files: &[(&str, &str)]) -> Vec<String> {
    let (mut found, mut spenders, mut sleeps, mut readers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (path, source) in files {
        let code = source.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        let code: Vec<&str> = code.map(|l| l.split("//").next().unwrap_or("")).collect();
        let (mut owner, mut current) = ("", "");
        for (i, line) in code.iter().enumerate() {
            let at = format!("{path}:{}", i + 1);
            if line.starts_with("impl") {
                owner = impl_type(line);
            } else if line.starts_with('}') {
                owner = "";
            }
            let trimmed = line.trim_start();
            let header =
                ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| trimmed.strip_prefix(p));
            if let Some(header) = header {
                current = header.split(['(', '<']).next().unwrap_or("");
            }
            if path.starts_with(SERVE_SRC) {
                if line.contains("RetryClient") || line.contains("RetryPolicy") {
                    found.push(format!("one resilient client: {at}: `bora-serve` does not retry"));
                }
                if *path == CLIENT && line.contains("sleep(") {
                    found.push(format!("one resilient client: {at}: `ServeClient` never sleeps"));
                }
            }
            if !path.starts_with(CLUSTER_SRC) {
                continue;
            }
            let spends = line.contains("budget.failover(")
                || line.contains(".try_spend(") && owner != "SharedBudget";
            let site = format!("{path}:{current}");
            if spends && !spenders.contains(&site) {
                spenders.push(site);
            }
            if line.contains("sleep(") {
                sleeps.push(at);
            }
            let Some(rest) = trimmed.strip_prefix("pub fn ") else { continue };
            if *path != CLUSTER_CLIENT || owner != "ClusterClient" {
                continue;
            }
            let body =
                code[i..].iter().position(|l| l.ends_with('{')).map_or(code.len(), |k| i + k + 1);
            let returns = code[i..body].concat();
            let returns = returns.rsplit_once("->").map_or("", |(_, r)| r);
            if returns.contains("WireMessage") || returns.contains("Stream") {
                readers.push(rest.split(['(', '<']).next().unwrap_or(""));
            }
        }
    }
    if !files.iter().any(|(p, _)| p.starts_with(CLUSTER_SRC)) {
        return found;
    }
    if spenders.len() != 1 {
        found.push(format!(
            "one resilient client: budget tokens are spent in {spenders:?}, not one fn"
        ));
    }
    if sleeps.len() != 1 {
        found.push(format!(
            "one resilient client: `bora-cluster` sleeps at {sleeps:?}, not one place"
        ));
    }
    let surface = files.iter().any(|(p, _)| *p == CLUSTER_CLIENT);
    if surface
        && (readers.len() != CLUSTER_READS.len()
            || !CLUSTER_READS.iter().all(|r| readers.contains(r)))
    {
        let what = format!("`ClusterClient` reads through {readers:?}, not {CLUSTER_READS:?}");
        found.push(format!("one resilient client: {what}"));
    }
    found
}

/// Guard 18 over `manifest.rs`: what `Manifest::load` returns, and
/// whether the body of `verify` lets a path through unchecked.
fn one_commit_record_violations(path: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    if path != MANIFEST {
        return found;
    }
    let code = source.lines().take_while(|l| !l.contains("#[cfg(test)]"));
    let code: Vec<&str> = code.map(|l| l.split("//").next().unwrap_or("")).collect();
    let mut load_returns = None;
    for (i, line) in code.iter().enumerate() {
        let trimmed = line.trim_start();
        let header =
            ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| trimmed.strip_prefix(p));
        let Some(header) = header else { continue };
        let open =
            code[i..].iter().position(|l| l.ends_with('{')).map_or(code.len(), |k| i + k + 1);
        match header.split(['(', '<']).next().unwrap_or("") {
            "load" => {
                let signature = code[i..open].concat();
                let returns = signature.rsplit_once("->").map_or("", |(_, r)| r);
                load_returns = Some(returns.trim_end_matches(['{', ' ']).trim().to_owned());
            }
            "verify" => {
                let close = format!("{}}}", &line[..line.len() - trimmed.len()]);
                let end =
                    code[open..].iter().position(|l| *l == close).map_or(code.len(), |k| open + k);
                if code[open..end].iter().any(|l| l.contains("return Ok(())")) {
                    found.push(format!(
                        "one commit record: {path}:{}: `verify` waves a path through",
                        i + 1
                    ));
                }
            }
            _ => {}
        }
    }
    match load_returns.as_deref() {
        Some("BoraResult<Self>" | "BoraResult<Manifest>") => {}
        other => found.push(format!(
            "one commit record: {path}: `Manifest::load` returns {other:?}, not a manifest"
        )),
    }
    found
}

/// Guard 19 over the non-test sources of `bora-ingest` and `stream.rs`:
/// how often a generation is opened, whether `.bora` is decoded raw, and
/// whether the stream filters a tail.
fn one_generation_open_violations(files: &[(&str, &str)]) -> Vec<String> {
    let (mut found, mut opens) = (Vec::new(), 0);
    for &(path, source) in files {
        let code = source.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for (i, line) in code.enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let mut flag =
                |what: &str| found.push(format!("one generation open: {path}:{}: {what}", i + 1));
            if path.starts_with(INGEST_SRC) {
                opens += code.matches("BoraBag::open(").count();
                if code.contains("ContainerMeta::decode(") {
                    flag("`.bora` is read through the generation's opened bag, not decoded raw");
                }
            }
            if path == STREAM && code.contains(".retain(") {
                flag("a tail comes cut to the stream's range; the stream filters none");
            }
        }
    }
    if opens != 1 {
        found.push(format!(
            "one generation open: {INGEST_SRC} calls `BoraBag::open(` {opens} times, not once"
        ));
    }
    found
}

/// Guard 7, first half: whether `path` is a source under `crates/`, not
/// under `crates/bench`, that names `BinaryHeap` before its tests.
fn names_the_heap(path: &str, source: &str) -> bool {
    let mut code = source.lines().take_while(|l| !l.contains("#[cfg(test)]"));
    path.starts_with("crates/")
        && !path.starts_with("crates/bench/")
        && code.any(|l| l.contains("BinaryHeap"))
}

/// Guard 7 over the sources that name the heap: `stream.rs`, alone.
fn one_merge_violations(heap_files: &[String]) -> Vec<String> {
    if heap_files == [STREAM] {
        return Vec::new();
    }
    vec![format!("one merge: `BinaryHeap` is named in {heap_files:?}, not in {STREAM} alone")]
}

/// `"key":<number>` in a ledger row — a flat JSON object per line, as
/// the criterion shim writes it.
fn num(row: &str, key: &str) -> Option<f64> {
    let rest = row.split_once(&format!("\"{key}\":"))?.1;
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Guard 4 over the bench manifest's text and a reader of root files.
fn ledger_violations(manifest: &str, read: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let mut found = Vec::new();
    let names: Vec<&str> =
        manifest.split("[[bench]]").skip(1).filter_map(|block| block.split('"').nth(1)).collect();
    if names.is_empty() {
        found.push("one bench story: no [[bench]] in the manifest".to_owned());
    }
    for name in names {
        let ledger = format!("BENCH_{}.json", name.trim_end_matches("_benches"));
        let Some(text) = read(&ledger) else {
            found.push(format!("one bench story: {name} has no {ledger} at the repo root"));
            continue;
        };
        let mut ids = Vec::new();
        for (i, row) in text.lines().enumerate() {
            let mut flag = |what: &str| {
                found.push(format!("one bench story: {ledger}:{}: {what}: {row}", i + 1))
            };
            let id = row.strip_prefix("{\"name\":\"").and_then(|r| r.split('"').next());
            let (Some(id), true, Some(_)) = (id, row.ends_with('}'), num(row, "mean_ns")) else {
                flag("does not parse");
                continue;
            };
            if ids.contains(&id) {
                flag("second row for one benchmark id");
            }
            ids.push(id);
            let rates: Vec<f64> = ["elem_per_s", "mb_per_s", "iter_per_s"]
                .iter()
                .filter_map(|k| num(row, k))
                .collect();
            if rates.len() != 1 || rates[0] <= 0.0 {
                flag("no rate");
            }
        }
        if ids.is_empty() {
            found.push(format!("one bench story: {ledger} holds no row"));
        }
    }
    found
}

/// Guard 10 over the registry's source and the CI workflow.
fn paper_only_violations(registry: &str, ci: &str) -> Vec<String> {
    let ids = registry.lines().filter(|l| l.contains("id: \"ext_"));
    let steps =
        ci.lines().filter(|l| l.split_once("repro --").is_some_and(|(_, a)| a.contains("ext_")));
    ids.chain(steps).map(|l| format!("paper experiments only: {}", l.trim())).collect()
}

fn walk(dir: &Path, visit: &mut impl FnMut(&Path)) {
    let mut entries: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, visit);
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path);
        }
    }
}

#[test]
fn the_tree_holds_every_guard() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    let (mut files, mut heap_files, mut clients) = (0, Vec::new(), Vec::new());
    let mut generation_readers = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        walk(&root.join(dir), &mut |path| {
            let rel = path.strip_prefix(root).unwrap().to_str().unwrap().replace('\\', "/");
            let source = std::fs::read_to_string(path).unwrap();
            found.extend(source_violations(&rel, &source));
            found.extend(codec_choice_violations(&rel, &source));
            found.extend(one_wire_path_violations(&rel, &source));
            found.extend(one_observation_path_violations(&rel, &source));
            found.extend(one_read_answer_violations(&rel, &source));
            found.extend(one_scan_path_violations(&rel, &source));
            found.extend(one_read_surface_violations(&rel, &source));
            found.extend(one_commit_record_violations(&rel, &source));
            if names_the_heap(&rel, &source) {
                heap_files.push(rel.clone());
            }
            if rel.starts_with(INGEST_SRC) || rel == STREAM {
                generation_readers.push((rel.clone(), source.clone()));
            }
            if rel.starts_with(SERVE_SRC) || rel.starts_with(CLUSTER_SRC) {
                clients.push((rel, source));
            }
            files += 1;
        });
    }
    assert!(files > 150, "the walk saw only {files} files under crates/, tests/ and examples/");
    found.extend(stream_violations(&std::fs::read_to_string(root.join(STREAM)).unwrap()));
    found.extend(one_executor_violations(&std::fs::read_to_string(root.join(EXEC)).unwrap()));
    found.extend(one_merge_violations(&heap_files));
    let clients: Vec<(&str, &str)> =
        clients.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    found.extend(one_client_violations(&clients));
    let generation_readers: Vec<(&str, &str)> =
        generation_readers.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    found.extend(one_generation_open_violations(&generation_readers));
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    found.extend(ledger_violations(&manifest, |f| std::fs::read_to_string(root.join(f)).ok()));
    let read = |f: &str| std::fs::read_to_string(root.join(f)).unwrap();
    found.extend(paper_only_violations(&read(REGISTRY), &read(CI)));
    assert!(found.is_empty(), "{} violation(s):\n{}", found.len(), found.join("\n"));
}

/// `(guard, path, source, fires)`: each guard on a violating snippet, and
/// on the same snippet where the guard does not apply.
#[test]
fn every_source_guard_fires() {
    let writer = "one container writer";
    let rewrite = "compaction does not rewrite";
    let decode = "decode-free executor";
    let audited = "one audited unsafe";
    let multi = "one multi-container read";
    let codec = "one byte codec";
    let tool = "crates/bora-tool/src/main.rs";
    let store = "crates/bora-ingest/src/store.rs";
    let exec = "crates/bora-query/src/exec.rs";
    let record = "one commit record";
    let fill = "one fill path";
    let page = "one page lifetime";
    let handle = "one handle lifetime";
    let damage = "a handle does not remember damage";
    let cases = [
        (writer, store, "let x = encode_entries(&e);", true),
        (writer, store, "let t = TimeIndex::build(&e, w);", true),
        (writer, "crates/bora-tool/src/main.rs", "let m = Manifest::new();", true),
        (writer, "crates/bora/src/writer.rs", "let m = Manifest::new();", false),
        (writer, "crates/bora-serve/src/server.rs", "let m = Manifest::new();", false),
        (writer, store, "#[cfg(test)]\nfn t() { Manifest::new(); }", false),
        (rewrite, store, "let old = read_logical(fs, &paths, ctx);", true),
        (rewrite, store, "let old = decode_frames(&data);", true),
        (rewrite, "crates/bora/src/block.rs", "let old = decode_frames(&data);", false),
        (rewrite, store, "#[cfg(test)]\nfn t() { decode_frames(&d); }", false),
        (decode, exec, "let m = AnyMessage::decode(dt, payload);", true),
        (decode, "crates/bora-query/src/plan.rs", "let m = AnyMessage::decode(dt, p);", true),
        (decode, "crates/bora-query/src/value.rs", "let m = AnyMessage::decode(dt, p);", false),
        (decode, exec, "#[cfg(test)]\nfn t() { AnyMessage::decode(dt, p); }", false),
        (decode, exec, "struct Feed { row: Rc<RefCell<Row>> }", true),
        (decode, exec, "#[cfg(test)]\nstruct Feed { row: Rc<RefCell<Row>> }", true),
        (decode, "crates/bora-query/src/plan.rs", "struct Feed { row: Rc<RefCell<Row>> }", false),
        (audited, "crates/shims/rand/src/lib.rs", "let f = unsafe { transmute(main) };", true),
        (audited, "crates/bora/tests/prop_block.rs", "unsafe fn erase() {}", true),
        (audited, store, "#[cfg(test)]\nmod tests { unsafe impl Send for Page {} }", true),
        (audited, CHECKSUM, "Some(unsafe { sse42(crc, bytes) })", false),
        (audited, "crates/bora/src/lib.rs", "#![deny(unsafe_code)]", false),
        (audited, store, "// safe code in crates that forbid `unsafe`", false),
        (audited, store, "let not_unsafe = 1; // unsafe { }", false),
        (multi, "crates/bora/src/lib.rs", "pub use multi::{swarm_fan_out, SwarmBackend};", true),
        (multi, "crates/bora-cluster/src/lib.rs", "pub use swarm::ClusterBackend;", true),
        (multi, "tests/cluster.rs", "let b = ClusterBackend { client: &client };", true),
        (multi, "examples/cluster_tour.rs", "#[cfg(test)]\nimpl SwarmBackend for F {}", true),
        (multi, "tests/structure.rs", "patterns: &[\"SwarmBackend\"],", false),
        (multi, "benchmark/src/plan.rs", "use bora::SwarmBackend;", false),
        (codec, "crates/bora-serve/src/proto.rs", "    fn take(&mut self, n: usize) -> R {", true),
        (codec, "crates/bora/src/block.rs", "fn take(&mut self, n: usize) -> Res<&[u8]>", true),
        (codec, WIRE, "    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError>;", false),
        (codec, "crates/bora/src/block.rs", "#[cfg(test)]\nfn take(&mut self, n: usize) {}", false),
        (codec, store, "if crc32c(body) != stored {", true),
        (codec, "crates/bora/src/manifest.rs", "let (b, t) = bytes.split_at(b.len() - 4);", true),
        (codec, tool, "let (body, tail) = bytes.split_last_chunk::<4>()?;", true),
        (codec, CHECKSUM, "if crc32c(body) != u32::from_le_bytes(*trailer) {", false),
        (codec, tool, "const INGEST_SEAL_MAGIC: u32 = 0x42_53_4C_31;", true),
        (codec, tool, "let p = format!(\"{root}/wal/shard-{k}.wal\");", true),
        (codec, tool, "let Some(stem) = e.name.strip_suffix(\".seal\") else { continue };", true),
        (codec, tool, "store.seal(ctx)?; let p = layout::wal_shard_path(root, k);", false),
        (
            codec,
            "crates/bora-ingest/src/layout.rs",
            "format!(\"{}/wal/shard-{shard}.wal\", r)",
            false,
        ),
        (codec, tool, "#[cfg(test)]\nconst GEN_MAGIC: u32 = 0;", false),
        (record, "crates/bora/src/container.rs", "pub fn has_manifest(&self) -> bool {", true),
        (record, tool, "if !report.has_manifest {", true),
        (
            record,
            "crates/bora/src/fsck.rs",
            "match Manifest::load(s, r, c) -> Option<Manifest>",
            true,
        ),
        (record, "crates/bora/src/container.rs", "    manifest: Arc<Option<Manifest>>,", true),
        (record, "crates/bora/src/fsck.rs", "#[cfg(test)]\nfn t() { r.has_manifest; }", false),
        (record, "tests/commit_record.rs", "assert!(!report.has_manifest);", false),
        (fill, STREAM, "let pass = std::thread::scope(|s| fill(s, lanes));", true),
        (fill, STREAM, "let h = std::thread::spawn(move || c.fill(bag));", true),
        (fill, STREAM, "#[cfg(test)]\nfn t() { std::thread::spawn(|| drain(s)); }", false),
        (fill, "crates/bora-serve/src/server.rs", "let w = thread::spawn(work);", false),
        (fill, "crates/bora-query/src/exec.rs", "StreamOptions { prefetch_threads: 1 }", true),
        (fill, "tests/stream.rs", "threads in 1usize..5, // prefetch_threads", true),
        (fill, "examples/quickstart.rs", "#[cfg(test)]\nlet o = o.prefetch_threads;", true),
        (fill, "tests/structure.rs", "patterns: &[\"prefetch_threads\"],", false),
        (fill, "benchmark/src/layers.rs", "StreamOptions { prefetch_threads: 4 }", false),
        (page, "crates/bora/src/lib.rs", "pub use bufpool::{BufferPool, PageRef};", true),
        (
            page,
            "crates/bora/src/container.rs",
            "let p: PageRef = pool.get_or_fill_file(f, n, g)?.0;",
            true,
        ),
        (
            page,
            "crates/bora/tests/block_pool.rs",
            "let p = BufferPool::with_page_size(b, 8192);",
            true,
        ),
        (page, BUFPOOL, "pub fn with_page_size(budget: u64, page: usize) -> Arc<Self> {", true),
        (page, BUFPOOL, "struct Frame {\n    key: Key,\n    pins: u32,\n}", true),
        (page, BUFPOOL, "    epoch: u64,", true),
        (page, BUFPOOL, "#[cfg(test)]\nfn t() { let r: PageRef = p; f.pins; epoch: 0 }", false),
        (page, "crates/bora-serve/src/cache.rs", "struct Entry {\n    pins: u32,\n}", false),
        (page, "crates/bora-obs/src/window.rs", "struct Slot {\n    epoch: u64,\n}", false),
        (page, "tests/structure.rs", "patterns: &[\"PageRef\", \"with_page_size\"],", false),
        (page, "benchmark/src/layers.rs", "let p: bora::PageRef = pool.get(k);", false),
        (handle, CACHE, "struct Entry<S> {\n    bag: BoraBag<S>,\n    pins: u32,\n}", true),
        (handle, CACHE, "    generation: u64,", true),
        (handle, CACHE, "    next_generation: u64,", true),
        (handle, CACHE, "    pub fn pins(&self, root: &str) -> u32 {", true),
        (handle, CACHE, "impl<S> Drop for PinnedBag<'_, S> {", true),
        (handle, CACHE, "#[cfg(test)]\nfn t() { e.pins; e.generation; }", false),
        (handle, CACHE, "pub struct PinnedBag<S> {\n    bag: BoraBag<S>,\n}", false),
        (handle, "crates/bora-ingest/src/store.rs", "    generation: u64,", false),
        (handle, BUFPOOL, "impl Drop for BufferPool {", false),
        (handle, SERVER, "    pub fn cache_pins(&self, c: &str) -> u32 {", true),
        (handle, "tests/serve.rs", "while server.cache_pins(&roots[0]) != 0 {", true),
        (handle, "crates/bora-serve/tests/x.rs", "#[cfg(test)]\nlet n = s.cache_pins(r);", true),
        (handle, "examples/serve_queries.rs", "let n = server.cache_pins(root);", false),
        (handle, "tests/structure.rs", "patterns: &[\"cache_pins\"],", false),
        (damage, "crates/bora/src/error.rs", "    TopicDamaged(String),", true),
        (damage, SERVER, "BoraError::TopicDamaged(_) => ErrorCode::Corrupt,", true),
        (damage, "crates/bora-ingest/src/store.rs", "b.damaged_topics().is_empty()", true),
        (damage, STREAM, "            bag.check_not_damaged(topic)?;", true),
        (damage, STREAM, "                    self.bag.quarantine(&c.topic);", true),
        (damage, "tests/commit_record.rs", "assert!(bag.damaged_topics().is_empty());", true),
        (damage, "examples/quickstart.rs", "#[cfg(test)]\nlet d = bag.damaged_topics();", true),
        (damage, "crates/bora/src/fsck.rs", "fn rebuildable_topics(r: &FsckReport) {", false),
        (damage, "tests/structure.rs", "patterns: &[\"TopicDamaged\"],", false),
        (damage, "benchmark/src/layers.rs", "Err(BoraError::TopicDamaged(_)) => {}", false),
        (damage, CONTAINER, "use parking_lot::Mutex;", true),
        (damage, CONTAINER, "    conn_ids: Arc<HashMap<Arc<str>, u32>>,", true),
        (damage, CONTAINER, "    block_maps: Arc<Mutex<HashMap<String, Arc<BlockMap>>>>,", true),
        (damage, CONTAINER, "impl<S: Clone> Clone for BoraBag<S> {", true),
        (damage, CONTAINER, "#[cfg(test)]\nfn t() { let m = Mutex::new(conn_ids); }", false),
        (damage, CONTAINER, "#[derive(Clone)]\npub struct BoraBag<S> {", false),
        (damage, "crates/bora-ingest/src/store.rs", "    bag: Mutex<Option<BoraBag<S>>>,", false),
    ];
    for (guard, path, source, fires) in cases {
        let fired = source_violations(path, source).iter().any(|v| v.starts_with(guard));
        assert_eq!(fired, fires, "{guard} on {path}: {source}");
    }
}

#[test]
fn the_read_core_guard_fires() {
    let good = "pub struct Merge {\n    heap: BinaryHeap<Reverse<(u64, usize)>>,\n}\n\
                impl Merge {\n    pub fn pick(&mut self) -> Option<usize> {\n        \
                self.heap.pop()\n    }\n}\n\
                impl<'a, S: Storage> MessageStream<'a, S> {\n    \
                pub(crate) fn new() {\n        stream.merge = Merge::new(heads);\n    }\n    \
                pub fn lend_run(&mut self) {\n        let lane = self.merge.pick()?;\n        \
                self.heap_ops += 1;\n    }\n    \
                pub fn lend(&mut self) {\n        self.lend_run(ctx, 1)\n    }\n    \
                pub fn next_msg(&mut self) {\n        self.lend(ctx)\n    }\n}\n\
                impl TopicCursor {\n    fn lend_run(&mut self) {\n        self.next += 1;\n    }\n    \
                fn fill(&mut self) {\n        match src {\n            \
                DataSource::RawDirect => blocks.push_back(Block { data: Arc::from(bytes) }),\n            \
                DataSource::Blocked { map } => {\n                blocks.push_back(Block { data });\n            }\n        }\n    }\n}\n\
                #[cfg(test)]\nfn t() { self.heap.clear(); m.pick(); bag.fetch_logical(a); }\n";
    assert_eq!(stream_violations(good), Vec::<String>::new());
    for (from, to, what) in [
        ("let lane = self.merge.pick()?;", "self.merge.heap.pop();", "`Merge`'s alone"),
        ("stream.merge = Merge::new(heads);", "stream.heap.push(k);", "`Merge`'s alone"),
        ("self.lend(ctx)", "self.merge.pick()", "one caller"),
        ("self.next += 1;", "self.next = merge.pick()?;", "one caller"),
        ("self.heap.pop()", "self.pick()", "one caller"),
        ("self.lend(ctx)", "self.pop_merged(ctx)", "then own"),
        ("self.lend(ctx)", "self.lend_run(ctx, 1)", "then own"),
        ("self.lend_run(ctx, 1)", "self.cursors[0].lend_run(0)", "a run of one"),
        ("self.lend_run(ctx, 1)", "self.merge.pick()", "one caller"),
        (
            "pub fn next_msg(&mut self) {",
            "pub fn lend_two(&mut self) {\n        self.merge.pick();\n    }\n    \
             pub fn next_msg(&mut self) {",
            "one caller",
        ),
        (
            "blocks.push_back(Block { data });",
            "blocks.push_back(Block { data: Arc::from(v) });",
            "as the pool holds it",
        ),
        (
            "DataSource::Blocked { map } => {",
            "DataSource::Blocked { map } => {\nlet v = bag.fetch_logical(map);",
            "does not copy",
        ),
        (
            "impl Merge {",
            &format!("impl Merge {{\n{}", "    const X: u8 = 0;\n".repeat(STREAM_CODE_LINES)),
            "code lines",
        ),
    ] {
        let bad = good.replacen(from, to, 1);
        assert!(stream_violations(&bad).iter().any(|v| v.contains(what)), "{what}:\n{bad}");
    }
}

#[test]
fn the_one_codec_choice_guard_fires() {
    let compress = "pub fn compress_chunk(m: &[WireMessage]) -> Response {\n    \
                    chunk.finish(BlockCodec::Lzss, ctx)\n}\n";
    let define = "impl OpenChunk {\n    \
                  pub(crate) fn finish(self, codec: BlockCodec, ctx: &mut IoCtx) -> Response {\n        \
                  let body = self.w.finish().expect(\"fits\");\n    }\n}\n";
    let sink = "fn handle() {\n    let frame = chunk.finish(codec.pick(), ctx);\n}\n";
    let config = "pub struct ServerConfig {\n    pub workers: usize,\n    \
                  /// Ops slower than this are logged.\n    pub slow_op_threshold_ns: u64,\n}\n";
    let client = "crates/bora-serve/src/client.rs";
    let cases = [
        (PROTO, format!("{compress}{define}"), false),
        (SERVER, format!("{config}{sink}"), false),
        (
            SERVER,
            format!("{sink}#[cfg(test)]\nfn t() {{ chunk.finish(BlockCodec::None, c); }}"),
            false,
        ),
        (SERVER, format!("{sink}fn encode() {{\n    let body = w.finish()?;\n}}\n"), false),
        (SERVER, format!("{sink}// `finish(mode, ctx)` builds the frame.\n"), false),
        ("crates/bora/src/writer.rs", "let meta = self.finish(ctx)?;".into(), false),
        (
            "crates/bora-tool/src/main.rs",
            "let v = std::env::var(\"BORA_POOL_BYTES\");".into(),
            false,
        ),
        ("crates/bora-serve/src/bin/bora-serve.rs", "let mut it = std::env::args();".into(), false),
        ("tests/serve.rs", "let f = chunk.finish(BlockCodec::None, c);".into(), false),
        (
            PROTO,
            format!("{compress}fn read_chunk() {{\n    chunk.finish(BlockCodec::None, c)\n}}\n"),
            true,
        ),
        (SERVER, format!("{sink}{sink}"), true),
        (client, "let f = chunk.finish(BlockCodec::None, c);".into(), true),
        (SERVER, "let f = chunk_frame(batch.iter(), mode, ctx);".into(), true),
        ("crates/bora-cluster/src/client.rs", "let f = chunk_frame(b, m, c);".into(), true),
        (SERVER, "let lz = std::env::var(\"BORA_WIRE_LZ\").is_ok();".into(), true),
        (client, "if std::env::var_os(\"BORA_RAW\").is_some() {}".into(), true),
        (
            SERVER,
            config.replace("pub workers", "pub stream_codec: BlockCodec,\n    pub workers"),
            true,
        ),
        (SERVER, config.replace("pub workers", "pub lz_chunks: bool,\n    pub workers"), true),
    ];
    for (path, source, fires) in cases {
        let found = codec_choice_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_merge_guard_fires() {
    let heap = "use std::collections::BinaryHeap;";
    let client = "crates/bora-cluster/src/client.rs";
    assert!(names_the_heap(STREAM, heap));
    assert!(names_the_heap(client, &format!("{heap}\n#[cfg(test)]\nmod tests {{}}")));
    assert!(!names_the_heap(client, &format!("use bora::stream::Merge;\n#[cfg(test)]\n{heap}")));
    assert!(!names_the_heap("crates/bench/src/merge_ref.rs", heap));
    assert!(!names_the_heap("tests/stream.rs", heap));

    assert_eq!(one_merge_violations(&[STREAM.to_owned()]), Vec::<String>::new());
    for files in [vec![], vec![STREAM, client], vec![client]] {
        let files: Vec<String> = files.into_iter().map(str::to_owned).collect();
        assert!(one_merge_violations(&files)[0].contains("not in"), "{files:?}");
    }
}

#[test]
fn one_bench_story_fires() {
    let manifest =
        "[[bin]]\nname = \"repro\"\n\n[[bench]]\nname = \"obs_benches\"\nharness = false\n";
    let with = |ledger: &str| {
        ledger_violations(manifest, |f| (f == "BENCH_obs.json").then(|| ledger.to_owned()))
    };
    let good = "{\"name\":\"a/b\",\"min_ns\":9,\"mean_ns\":10,\"iters\":3,\"elements\":5,\"elem_per_s\":500000000}\n\
                {\"name\":\"a/c\",\"min_ns\":9,\"mean_ns\":10,\"iters\":3,\"bytes\":64,\"mb_per_s\":6400.0}\n\
                {\"name\":\"a/d\",\"min_ns\":9,\"mean_ns\":10,\"iters\":3,\"iter_per_s\":100000000}\n";
    assert_eq!(with(good), Vec::<String>::new());

    assert!(ledger_violations(manifest, |_| None)[0].contains("has no BENCH_obs.json"));
    assert!(
        ledger_violations("[package]\nname = \"bench\"\n", |_| None)[0].contains("no [[bench]]")
    );
    for (ledger, what) in [
        ("", "holds no row"),
        ("{\"name\":\"a/b\",\"min_ns\":9,\"mean_ns\":10,\"iters\":3}\n", "no rate"),
        ("{\"name\":\"a/b\",\"mean_ns\":10,\"elem_per_s\":0}\n", "no rate"),
        ("{\"name\":\"a/b\",\"iter_per_s\":7}\n", "does not parse"),
        ("{\"name\":\"a/b\",\"mean_ns\":10,\"iter_per_s\":7\n", "does not parse"),
        ("{\"name\":\"a/b\",\"mean_ns\":ten,\"iter_per_s\":7}\n", "does not parse"),
        (&good.replace("a/c", "a/b"), "second row"),
    ] {
        assert!(with(ledger).iter().any(|v| v.contains(what)), "{what}: {ledger}");
    }
}

#[test]
fn the_paper_experiments_guard_fires() {
    let registry = "Experiment {\n    id: \"fig10\",\n},\nExperiment {\n    id: \"ext_pool\",\n},";
    let ci = "- name: Table I\n  run: cargo run -p bench --bin repro -- --tiny table1\n";
    assert_eq!(
        paper_only_violations(&registry.replace("ext_pool", "fig11"), ci),
        Vec::<String>::new()
    );
    assert_eq!(paper_only_violations(registry, ci), ["paper experiments only: id: \"ext_pool\","]);
    let step = "  run: BORA_POOL_BYTES=8 cargo run --release -p bench --bin repro -- ext_pool\n";
    let found = paper_only_violations("", &format!("{ci}{step}"));
    assert!(found.len() == 1 && found[0].ends_with("repro -- ext_pool"), "{found:?}");
}

#[test]
fn the_one_executor_guard_fires() {
    let oracle = "pub fn run_naive(stmt: &SelectStmt) -> Rows {\n    \
                  rows.retain(|r| eval(f, r).truthy());\n    \
                  rows.iter().for_each(|r| groups.fold_row(&exprs.agg_args, r));\n    \
                  rows.iter().map(|r| project(&exprs.items, r)).collect()\n}\n\
                  fn eval(e: &Ev<Decoded<'_>>, row: &InRow<'_>) -> Value {\n    \
                  Value::Bool(!eval(x, row).truthy())\n}\n\
                  fn project(items: &[Ev<Decoded<'_>>], row: &InRow<'_>) -> Row {\n    \
                  items.iter().map(|e| eval(e, row)).collect()\n}\n\
                  impl<'p> Groups<'p> {\n    \
                  fn fold_row(&mut self, args: &[Arg], row: &InRow<'_>) {\n        \
                  st.update(arg.as_ref().map(|a| eval(a, row)));\n    }\n\n    \
                  fn fold_batch(&mut self, args: &[Arg], sel: &[usize]) {\n        \
                  fold_run(st, arg.as_deref(), &rest[..run]);\n    }\n}\n";
    let batch = "impl Batch {\n    \
                 fn push(&mut self, s: usize, m: &Msg<'_>) {\n        \
                 self.fill_fields(s, m.lane, || [m.payload]);\n    }\n\n    \
                 fn push_run(&mut self, lane: usize, run: &Run<'_>) {\n        \
                 self.fill_fields(0, lane, || run.messages().map(|m| m.payload));\n    }\n\n    \
                 fn fill_fields<'p, I>(&mut self, s: usize, lane: usize, payloads: impl Fn() -> I) {\n        \
                 bodies.extend(payloads().into_iter().map(|p| walker.and_then(|w| w.walk(p))));\n        \
                 col.fill(a.as_ref(), payloads(), bodies);\n    }\n}\n";
    let cursor = "impl<'a, S: Storage> Cursor<'a, S> {\n    \
                  fn refill(&mut self) -> QueryResult<bool> {\n        \
                  let items: Vec<_> = self.exprs.items.iter().map(|e| self.batch.column(e)).collect();\n    \
                  }\n}\n\
                  #[cfg(test)]\nfn t() { eval(e, &row); project(i, &row); g.fold_row(a, &row); \
                  read_fields(f, r, p, b); a.read_at(p, b); a.walk(p); }\n";
    let good = format!("{oracle}{batch}{cursor}");
    assert_eq!(one_executor_violations(&good), Vec::<String>::new());
    let lookalikes = "fn fold_batch() {\n    retrieval(x); reproject(y); reread_at(z);\n}\n";
    assert_eq!(one_executor_violations(&format!("{lookalikes}{good}")), Vec::<String>::new());
    for (to, what) in [
        ("let items: Vec<_> = self.exprs.items.iter().map(|e| eval(e, &row)).collect();", "`eval`"),
        ("self.out = vec![project(&self.exprs.items, &row)].into_iter();", "`project`"),
        ("groups.fold_row(&self.exprs.agg_args, &row);", "`fold_row`"),
    ] {
        let bad = good.replacen(
            "let items: Vec<_> = self.exprs.items.iter().map(|e| self.batch.column(e)).collect();",
            to,
            1,
        );
        let found = one_executor_violations(&bad);
        assert!(
            found.iter().any(|v| v.contains(what) && v.contains("`refill`")),
            "{what}: {found:?}"
        );
    }
    // A per-row call outside any function is not the oracle's either.
    let stray = good.replace("}\nfn eval(", "}\nconst X: Value = eval(LIT, ROW);\nfn eval(");
    assert!(one_executor_violations(&stray).iter().any(|v| v.contains("from ``")), "stray");
    // A gather that reads a message's fields one by one, or walks its
    // payloads itself, instead of filling columns.
    let run_fill = "self.fill_fields(0, lane, || run.messages().map(|m| m.payload));";
    let one_fill = "self.fill_fields(s, m.lane, || [m.payload]);";
    for (from, to, what) in [
        (run_fill, "read_fields(&mut slot.fields, row, m.payload, body);", "`read_fields`"),
        (one_fill, "col.push(a.read_at(m.payload, body?));", "`read_at`"),
        (run_fill, "let body = walker.and_then(|w| w.walk(m.payload));", "walks a payload"),
        (one_fill, "self.fill(s, m.lane, || [m.payload]);", "`push` does not gather"),
        (
            run_fill,
            "self.fill_fields(0, lane, || run.messages().map(|m| m.payload));\n        \
                    read_fields(&mut slot.fields, row, m.payload, body);",
            "`read_fields`",
        ),
    ] {
        let found = one_executor_violations(&good.replacen(from, to, 1));
        assert!(found.iter().any(|v| v.contains(what)), "{what}: {found:?}");
    }
    let found = one_executor_violations(&good.replacen(run_fill, "", 1));
    assert!(found.iter().any(|v| v.contains("`push_run` does not gather")), "{found:?}");
}

#[test]
fn the_one_wire_path_guard_fires() {
    let connection = "pub trait Connection: Send {\n    \
                      fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()>;\n    \
                      fn recv_frame(&mut self) -> io::Result<Vec<u8>>;\n    \
                      fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {\n    }\n}\n";
    let send =
        "fn send_reply<C: Connection>(conn: &mut C, seq: u32, resp: &Response) -> bool {\n    \
                let (head, tail) = resp.encode_parts(seq)?;\n    \
                conn.send_frame(&[&head, tail]).is_ok()\n}\n";
    let fetch = "fn fetch(&mut self) -> ClientResult<()> {\n    \
                 // not a `StreamChunkLz` decoded by `Response::decode`\n    \
                 if let Some(msgs) = crate::proto::stream_chunk(body)? {}\n}\n";
    let decoder = "pub fn decompress_chunk(frame: &[u8]) -> ProtoResult<Vec<WireMessage>> {\n    \
                   let (body, used) = decode_frame_in_place(frame, \"c\", &mut ctx)?;\n}\n\
                   pub fn stream_chunk(body: &[u8]) -> ProtoResult<Option<Vec<WireMessage>>> {\n    \
                   let frame = r.take(len)?;\n}\n\
                   fn msgs(&mut self) -> ProtoResult<Vec<WireMessage>> {\n    \
                   data: self.get_byte_array()?,\n}\n";
    let tests = "#[cfg(test)]\nfn t() { conn.send_frame(&f); resp.encode_seq(1); x.to_vec(); }\n";
    let cases = [
        (TRANSPORT, format!("{connection}{send}{tests}"), false),
        (CLIENT, format!("{fetch}{tests}Response::StreamChunkLz(f) => get_byte_array()"), false),
        (PROTO, decoder.to_owned(), false),
        ("crates/bora-serve/src/server.rs", "let f = decode_frame(b, c, x);".to_owned(), false),
        (
            TRANSPORT,
            connection.replace("    fn recv_frame", "    fn send_parts(&mut self);\n    fn recv_frame")
                + send,
            true,
        ),
        (TRANSPORT, connection.replace("    fn recv_frame(&mut self) -> io::Result<Vec<u8>>;\n", "") + send, true),
        (TRANSPORT, format!("{connection}{send}{send}"), true),
        (
            TRANSPORT,
            format!("{connection}{}", send.replace("resp.encode_parts(seq)?", "(resp.encode_seq(seq)?, &[][..])")),
            true,
        ),
        (CLIENT, fetch.replace("crate::proto::stream_chunk(body)?", "None"), true),
        (
            CLIENT,
            format!("{fetch}fn recv() {{\n    Response::StreamChunkLz(frame) => decompress_chunk(&frame),\n}}\n"),
            true,
        ),
        (CLIENT, format!("{fetch}fn f() {{ let data = r.get_byte_array()?; }}\n"), true),
        (CLIENT, format!("{fetch}fn f() {{ let (b, _) = decode_frame(f, p, c)?; }}\n"), true),
        (PROTO, decoder.replace("decode_frame_in_place(", "decode_frame("), true),
        (PROTO, decoder.replace("r.take(len)?", "r.get_byte_array()?"), true),
        (PROTO, decoder.replace("r.take(len)?", "r.take(len)?.to_vec()"), true),
    ];
    for (path, source, fires) in cases {
        let found = one_wire_path_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_observation_path_guard_fires() {
    let table = "data_ops! {\n    Append => \"append\",\n    Meta => \"meta\",\n    \
                 Open => \"open\",\n    Query => \"query\",\n    Read => \"read\",\n    \
                 ReadStream => \"read_stream\",\n    Seal => \"seal\",\n    \
                 Stat => \"stat\",\n    Topics => \"topics\",\n}\n";
    let projection = format!(
        "pub struct StatsSnapshot {{\n    pub shed: u64,\n}}\n{PROJECTION}\n    \
         fn from(r: &MetricsReport) -> Self {{\n        \
         StatsSnapshot {{ shed: r.counter(SHED) }}\n    }}\n}}\n"
    );
    let metrics = format!("{table}{projection}");
    let tests = "#[cfg(test)]\nfn t() { let r = Request::Stats; let o = \"read\"; \
                 let s = StatsSnapshot::default(); }\n";
    let proto = "pub enum Request {\n    Stat { container: String },\n    Metrics,\n}\n";
    let rows = "fn op_rows() {\n    for op in Op::ALL {\n        \
                let wall = hists.iter().find(|(n, _)| n == op.wall_metric());\n    }\n}\n";
    let cases = [
        (METRICS, format!("{metrics}{tests}"), false),
        (PROTO, format!("{proto}{tests}"), false),
        (
            SERVER,
            "impl StatsSnapshot {\n}\npub fn stats(&self) -> StatsSnapshot {\n    \
             StatsSnapshot::from(&self.metrics_report())\n}\n"
                .to_owned(),
            false,
        ),
        (TELEMETRY, format!("{rows}{tests}const W: &str = \"serve.op.read.wall_ns\";\n"), false),
        ("crates/bora-tool/src/main.rs", "let op = \"read\";\n".to_owned(), false),
        (PROTO, proto.replace("    Metrics,", "    Stats,\n    Metrics,"), true),
        (PROTO, "Request::Stats => w.put_u8(OP_STATS),\n".to_owned(), true),
        (PROTO, "    Stats(StatsSnapshot),\n".to_owned(), true),
        (
            SERVER,
            "let base = StatsSnapshot { shed: 0, ..StatsSnapshot::default() };\n".to_owned(),
            true,
        ),
        (SERVER, "self.shared.metrics.snapshot_into(base)\n".to_owned(), true),
        (METRICS, format!("{metrics}impl Default for StatsSnapshot {{\n}}\n"), true),
        (
            METRICS,
            format!(
                "{table}{}",
                projection.replace(PROJECTION, "impl From<&Metrics> for StatsSnapshot {")
            ),
            true,
        ),
        (METRICS, format!("{}{projection}", table.replace("    Seal => \"seal\",\n", "")), true),
        (METRICS, format!("{metrics}const OP_NAMES: [&str; 1] = [\"read\"];\n"), true),
        (SERVER, "match op {\n    \"read_stream\" => \"serve.read_stream\",\n}\n".to_owned(), true),
        (SERVER, "let sp = bora_obs::span(\"serve.query\");\n".to_owned(), true),
        (SERVER, "let name = format!(\"serve.op.{op}.wall_ns\");\n".to_owned(), true),
        (TELEMETRY, format!("{rows}const PREFIX: &str = \"serve.op.\";\n"), true),
        (TELEMETRY, format!("{rows}const SUFFIX: &str = \".wall_ns\";\n"), true),
    ];
    for (path, source, fires) in cases {
        let found = one_observation_path_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_read_answer_guard_fires() {
    let codec = "pub(crate) fn submit_streamed_framed(&self) {\n}\n\
                 pub fn submit_streamed(&self, req: Request) -> bool {\n    \
                 let codec = Arc::new(Mutex::new(ChunkCodec::default()));\n}\n\
                 pub(crate) struct ChunkCodec {\n    chunks: usize,\n}\n\
                 impl Default for ChunkCodec {\n    fn default() -> Self {\n        \
                 ChunkCodec { chunks: 0 }\n    }\n}\n";
    let transport = "pub fn serve_connection<S, C>(server: &Server<S>, conn: &mut C) {\n    \
                     let codec = Arc::new(Mutex::new(ChunkCodec::default()));\n}\n";
    let codec_ = "fn decode(payload: &[u8]) -> ProtoResult<Response> {\n    \
                  OP_OK_READ => Response::Read(r.msgs()?),\n    \
                  OP_OK_STREAM_CHUNK => Response::StreamChunk(r.msgs()?),\n}\n\
                  fn write<'a>(&'a self, w: &mut Writer) -> &'a [u8] {\n    \
                  Response::Read(messages) => {}\n}\n";
    let client = "fn read_inner(&mut self) -> ClientResult<Vec<WireMessage>> {\n    \
                  ReadStream::start(self, &req)?.collect()\n}\n\
                  fn fetch(&mut self) -> ClientResult<()> {\n    \
                  if let Some(msgs) = crate::proto::stream_chunk(body)? {}\n}\n";
    let tests = "#[cfg(test)]\nfn t() { Step::Reply(Response::StreamChunk(m)); \
                 let c = ChunkCodec::default(); fn read_streamed() {} }\n";
    let cases = [
        (SERVER, format!("{codec}{tests}"), false),
        (TRANSPORT, transport.to_owned(), false),
        (PROTO, format!("{codec_}{tests}"), false),
        (CLIENT, format!("{client}{tests}"), false),
        ("crates/bora-cluster/src/client.rs", "fn f() { Response::Read(m) }\n".to_owned(), false),
        (SERVER, "fn handle() {\n    Response::Read(messages)\n}\n".to_owned(), true),
        (
            SERVER,
            "fn submit_streamed_framed() {\n    \
             matches!(resp, Response::StreamChunk(_) | Response::StreamChunkLz(_))\n}\n"
                .to_owned(),
            true,
        ),
        (
            PROTO,
            "pub fn owned_reply(m: Vec<WireMessage>) -> Response {\n    Response::Read(m)\n}\n"
                .to_owned(),
            true,
        ),
        (
            CLIENT,
            client.replace(
                "ReadStream::start(self, &req)?.collect()",
                "match self.roundtrip(&req)? {\n    Response::Read(m) => Ok(m),\n}",
            ),
            true,
        ),
        (
            CLIENT,
            client.replace(
                "if let Some",
                "Response::StreamChunk(msgs) => Ok(Some(msgs)),\n    if let Some",
            ),
            true,
        ),
        (CLIENT, format!("{client}    pub fn read_streamed(&mut self) {{\n    }}\n"), true),
        (CLIENT, format!("{client}    pub fn read_streamed_time(&mut self) {{\n    }}\n"), true),
        (
            CLIENT,
            format!("{client}fn recv() {{\n    let m = decompress_chunk(&frame)?;\n}}\n"),
            true,
        ),
        (
            CLIENT,
            client
                .replace("ReadStream::start(self, &req)?.collect()", "proto::stream_chunk(&body)"),
            true,
        ),
        (SERVER, codec.replace("fn submit_streamed(", "fn handle("), true),
        (
            SERVER,
            format!("{codec}fn handle() {{\n    let mut codec = ChunkCodec::default();\n}}\n"),
            true,
        ),
        (
            SERVER,
            format!("{codec}fn handle() {{\n    let c = ChunkCodec {{ chunks: 0 }};\n}}\n"),
            true,
        ),
        (TRANSPORT, transport.replace("serve_connection", "serve_one"), true),
    ];
    for (path, source, fires) in cases {
        let found = one_read_answer_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_scan_path_guard_fires() {
    let scan = "fn scan<S: Storage>(mut stream: MessageStream<'_, S>) -> BoraResult<u64> {\n    \
                while let Some(run) = stream.lend_run(ctx, usize::MAX)? {\n    }\n}\n";
    let tests = "#[cfg(test)]\nfn t() { let m: StreamMessage = s.next_msg(c)?; }\n";
    let cases = [
        (SERVER, format!("{scan}{tests}"), false),
        (
            CLIENT,
            "fn fetch() {\n    // Not a `StreamMessage`, nor `next_msg(ctx)`.\n}\n".into(),
            false,
        ),
        (EXEC, "let m: StreamMessage = stream.next_msg(ctx)?;".into(), false),
        (SERVER, scan.replace("stream.lend_run(ctx, usize::MAX)", "stream.next_msg(ctx)"), true),
        (
            SERVER,
            format!("{scan}fn handle() {{\n    let b: Vec<StreamMessage> = vec![];\n}}\n"),
            true,
        ),
        (SERVER, scan.replace("fn scan<", "fn drain<"), true),
        (SERVER, "fn handle() {\n    let run = stream.lend_run(ctx, 64)?;\n}\n".into(), true),
        (CLIENT, "use bora::StreamMessage;\n".into(), true),
        (PROTO, format!("fn f() {{\n    let m = stream.next_msg(ctx)?;\n}}\n{tests}"), true),
    ];
    for (path, source, fires) in cases {
        let found = one_scan_path_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_read_surface_guard_fires() {
    let [(container, _), (snapshot, _)] = READ_SURFACES;
    let bag = "impl<S: Storage> BoraBag<S> {\n    \
               pub fn stream_topics<'a>(\n        &'a self,\n        topics: &[&str],\n    \
               ) -> BoraResult<MessageStream<'a, S>> {\n    }\n    \
               pub fn stream_topics_with_tails<'a>(&'a self) -> MessageStream<'a, S> {\n    }\n    \
               pub fn read_topics(&self) -> BoraResult<Vec<MessageRecord>> {\n    }\n    \
               pub fn read_topics_time(\n        &self,\n        start: Time,\n    \
               ) -> BoraResult<Vec<MessageRecord>> {\n    }\n    \
               pub fn load_index(&self) -> BoraResult<Vec<TopicIndexEntry>> {\n    }\n}\n";
    let snap = "impl<S: Storage> Snapshot<S> {\n    \
                pub fn stream(&self) -> BoraResult<MessageStream<'_, S>> {\n    }\n    \
                pub fn read_time_range(\n        &self,\n    \
                ) -> BoraResult<Vec<MessageRecord>> {\n    }\n    \
                fn collect(&self) -> BoraResult<Vec<MessageRecord>> {\n    }\n}\n";
    let exec =
        "impl Prepared {\n    pub fn cursor_bag(&self) -> QueryResult<Cursor<'a, S>> {\n    }\n}\n";
    let tests = "#[cfg(test)]\nmod tests {\n    \
                 pub fn read_topic(&self) -> BoraResult<Vec<MessageRecord>> {}\n    \
                 fn f() { p.cursor_records(r) }\n}\n";
    let read_topic =
        "    pub fn read_topic(&self, topic: &str) -> BoraResult<Vec<MessageRecord>> {\n    }\n}\n";
    let cases = [
        (container, format!("{bag}{tests}"), false),
        (snapshot, format!("{snap}{tests}"), false),
        (EXEC, format!("{exec}{tests}"), false),
        ("crates/bora-cluster/src/client.rs", read_topic.to_owned(), false),
        ("crates/bench/src/oracle.rs", "fn f() { p.cursor_records(r) }\n".to_owned(), false),
        (container, bag.replace("    }\n}\n", &format!("    }}\n{read_topic}")), true),
        (container, bag.replace("pub fn read_topics_time(", "pub fn read_topic_time("), true),
        (container, bag.replace("pub fn read_topics(", "fn read_topics("), true),
        (
            container,
            bag.replace(
                "pub fn load_index(&self)",
                "pub fn stream_topics_time(&self) -> MessageStream<'_, S> {\n    }\n    \
                 pub fn load_index(&self)",
            ),
            true,
        ),
        (snapshot, snap.replace("fn collect(", "pub fn read_topics("), true),
        (snapshot, snap.replace("pub fn read_time_range(", "fn read_time_range("), true),
        (EXEC, format!("{exec}fn f() {{ p.cursor_records(r) }}\n"), true),
        ("crates/bora-query/src/distrib.rs", "    Feed::Records(it) => {}\n".to_owned(), true),
        (EXEC, "    Pulled::Record(r) => Msg::of_record(r, self.lane),\n".to_owned(), true),
    ];
    for (path, source, fires) in cases {
        let found = one_read_surface_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_resilient_client_guard_fires() {
    let walk = "impl<T> ClusterClient<T> {\n    \
                fn with_failover<R>(&self) -> ClientResult<R> {\n        \
                if hopped && !self.budget.failover() {\n        }\n        \
                std::thread::sleep(pause);\n    }\n    \
                pub fn read(&self, c: &str) -> ClientResult<Vec<WireMessage>> {\n    }\n    \
                pub fn read_stream(\n        &self,\n    \
                ) -> ClientResult<ClusterStream<T>> {\n    }\n    \
                pub fn read_stream_multi(&self) -> ClientResult<MergedStream<T>> {\n    }\n    \
                pub fn topics(&self, c: &str) -> ClientResult<Vec<String>> {\n    }\n}\n\
                impl SharedBudget {\n    fn failover(&self) -> bool {\n        \
                b.lock().try_spend()\n    }\n}\n\
                impl<T> ClusterStream<T> {\n    \
                pub fn stream(&self) -> ClientResult<ClusterStream<T>> {\n    }\n}\n";
    let tests = "#[cfg(test)]\nmod tests {\n    \
                 fn t() { sleep(d); RetryClient::new(t, p); c.budget.failover(); }\n}\n";
    let serve = "pub struct ServeClient<C> {\n    conn: C,\n}\n";
    let time = "use std::time::Duration;\n";
    let tree = |client: &str, serve: &str| -> bool {
        let files = [
            (CLUSTER_CLIENT, client),
            ("crates/bora-cluster/src/telemetry.rs", time),
            (CLIENT, serve),
            ("crates/bora-serve/src/server.rs", time),
        ];
        !one_client_violations(&files).is_empty()
    };
    let walk_ = |from: &str, to: &str| walk.replacen(from, to, 1);
    let hedged = "    pub fn read_hedged(&self) -> Vec<WireMessage> {\n    }\n    pub fn topics(";
    let cases = [
        (tree(&format!("{walk}{tests}"), &format!("{serve}{tests}")), false),
        (!one_client_violations(&[(CLIENT, serve), ("tests/serve.rs", tests)]).is_empty(), false),
        (tree(walk, &format!("{serve}pub struct RetryClient<T> {{\n}}\n")), true),
        (tree(walk, &format!("{serve}pub use client::RetryPolicy;\n")), true),
        (tree(walk, &format!("{serve}fn wait() {{\n    std::thread::sleep(d);\n}}\n")), true),
        (
            tree(&format!("{walk}fn metrics_all() {{\n    self.budget.failover();\n}}\n"), serve),
            true,
        ),
        (tree(&format!("{walk}fn resume() {{\n    self.budget.try_spend();\n}}\n"), serve), true),
        (tree(&walk_("        std::thread::sleep(pause);\n", ""), serve), true),
        (tree(&format!("{walk}fn retry() {{\n    std::thread::sleep(d);\n}}\n"), serve), true),
        (tree(&walk_("pub fn read(", "pub fn read_time("), serve), true),
        (tree(&walk_("pub fn read_stream_multi(", "fn read_stream_multi("), serve), true),
        (tree(&walk_("    pub fn topics(", hedged), serve), true),
    ];
    for (i, (fired, fires)) in cases.into_iter().enumerate() {
        assert_eq!(fired, fires, "case {i}");
    }
}

#[test]
fn the_one_commit_record_guard_fires() {
    let manifest = "impl Manifest {\n    \
                    fn committed(&self, rel_path: &str) -> BoraResult<&ManifestEntry> {\n    }\n\n    \
                    pub fn verify(&self, rel_path: &str, bytes: &[u8]) -> BoraResult<()> {\n        \
                    let entry = self.committed(rel_path)?;\n        \
                    if bytes.len() as u64 != entry.len {\n            \
                    return Err(mismatch);\n        }\n        Ok(())\n    }\n\n    \
                    pub fn load<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<Self> {\n        \
                    Manifest::decode(&storage.read_all(&path, ctx)?)\n    }\n\n    \
                    pub fn store(&self) -> BoraResult<()> {\n        \
                    if self.entries.is_empty() {\n            return Ok(());\n        }\n        \
                    Ok(())\n    }\n}\n";
    let tests = "#[cfg(test)]\nmod tests {\n    fn verify() {\n        return Ok(());\n    }\n}\n";
    let lenient = "        let Some(entry) = self.entry(rel_path) else {\n            \
                   return Ok(());\n        };\n";
    let cases = [
        (MANIFEST, format!("{manifest}{tests}"), false),
        ("crates/bora/src/fsck.rs", "fn verify() {\n    return Ok(());\n}\n".to_owned(), false),
        (MANIFEST, manifest.replace("-> BoraResult<Self> {", "-> BoraResult<Manifest> {"), false),
        (
            MANIFEST,
            manifest.replace("-> BoraResult<Self> {", "-> BoraResult<Option<Self>> {"),
            true,
        ),
        (MANIFEST, manifest.replace("pub fn load<", "pub fn load_or_none<"), true),
        (
            MANIFEST,
            manifest.replace("        let entry = self.committed(rel_path)?;\n", lenient),
            true,
        ),
    ];
    for (path, source, fires) in cases {
        let found = one_commit_record_violations(path, &source);
        assert_eq!(!found.is_empty(), fires, "{path}: {source}\n{found:?}");
    }
}

#[test]
fn the_one_generation_open_guard_fires() {
    let store = "crates/bora-ingest/src/store.rs";
    let snapshot = "crates/bora-ingest/src/snapshot.rs";
    let handle = "impl<S: Storage + Clone> GenHandle<S> {\n    \
                  fn bag(&self, storage: &S) -> BoraResult<BoraBag<S>> {\n        \
                  let bag = BoraBag::open(storage.clone(), &self.root, ctx)?;\n    }\n}\n";
    let tests = "#[cfg(test)]\nmod tests {\n    fn t() { BoraBag::open(fs, r, c); \
                 ContainerMeta::decode(&b); tail.retain(|m| m.time < end); }\n}\n";
    let cut =
        "fn new() {\n    // Not `tail.retain(..)`: the holder cut it.\n    let t = tail;\n}\n";
    let fires = |files: &[(&str, &str)]| !one_generation_open_violations(files).is_empty();
    let cases = [
        (vec![(store, format!("{handle}{tests}")), (STREAM, format!("{cut}{tests}"))], false),
        (
            vec![(store, handle.to_owned()), ("crates/bora-serve/src/server.rs", tests.into())],
            false,
        ),
        (vec![(store, handle.replace("BoraBag::open(", "BoraBag::reopen("))], true),
        (
            vec![
                (store, handle.to_owned()),
                (snapshot, "fn new() {\n    let bag = BoraBag::open(s, r, c)?;\n}\n".into()),
            ],
            true,
        ),
        (
            vec![
                (store, handle.to_owned()),
                (store, "fn open() {\n    let m = ContainerMeta::decode(&b)?;\n}\n".into()),
            ],
            true,
        ),
        (
            vec![
                (store, handle.to_owned()),
                (STREAM, "fn new() {\n    tail.retain(|m| m.time < end);\n}\n".into()),
            ],
            true,
        ),
        (
            vec![
                (store, handle.to_owned()),
                ("crates/bora/src/container.rs", "fn f() {\n    v.retain(|x| x > 0);\n}\n".into()),
            ],
            false,
        ),
    ];
    for (i, (files, want)) in cases.iter().enumerate() {
        let files: Vec<(&str, &str)> = files.iter().map(|(p, s)| (*p, s.as_str())).collect();
        assert_eq!(fires(&files), *want, "case {i}: {files:?}");
    }
}
