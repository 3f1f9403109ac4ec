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
//!    heap is touched by `lend` (and `new`) alone and `next_msg` goes
//!    through `lend`; a cursor does not copy pool pages (`fetch_logical`
//!    is not called, and nothing between `DataSource::Blocked { map }`
//!    and the page push builds an `Arc` from bytes); and the file has no
//!    more code lines than before it lent.

use std::path::Path;

const CHECKSUM: &str = "crates/bora/src/checksum.rs";
const STREAM: &str = "crates/bora/src/stream.rs";
/// Code lines of `stream.rs` — non-blank, not a `//` comment, before
/// `#[cfg(test)]` — at the commit before the read core lent (9928b0e).
const STREAM_CODE_LINES: usize = 466;

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

/// Guard 6 over the text of `stream.rs`.
fn stream_violations(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    let code = source.lines().enumerate().take_while(|(_, l)| !l.contains("#[cfg(test)]"));
    let code: Vec<(usize, &str)> = code
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with("//"))
        .collect();
    let mut flag = |line: usize, what: &str| {
        found.push(format!("the read core lends: {STREAM}:{line}: {what}"))
    };
    // The function a line is in: the last `fn` header at or above it.
    let mut current = "";
    let (mut next_msg_lends, mut page_arm) = (false, false);
    for &(i, line) in &code {
        let header = ["fn ", "pub fn ", "pub(crate) fn "].iter().find_map(|p| line.strip_prefix(p));
        if let Some(header) = header {
            current = header.split(['(', '<']).next().unwrap_or("");
        }
        if line.contains("self.heap") && !["lend", "new"].contains(&current) {
            flag(i, "the merge heap is `lend`'s alone");
        }
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
    if !next_msg_lends {
        flag(0, "`next_msg` is `lend`, then own");
    }
    if code.len() > STREAM_CODE_LINES {
        flag(0, &format!("{} code lines, {STREAM_CODE_LINES} before it lent", code.len()));
    }
    found
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
    let mut files = 0;
    walk(&root.join("crates"), &mut |path| {
        let rel = path.strip_prefix(root).unwrap().to_str().unwrap().replace('\\', "/");
        found.extend(source_violations(&rel, &std::fs::read_to_string(path).unwrap()));
        files += 1;
    });
    assert!(files > 100, "the walk saw only {files} files under crates/");
    found.extend(stream_violations(&std::fs::read_to_string(root.join(STREAM)).unwrap()));
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    found.extend(ledger_violations(&manifest, |f| std::fs::read_to_string(root.join(f)).ok()));
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
    let store = "crates/bora-ingest/src/store.rs";
    let exec = "crates/bora-query/src/exec.rs";
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
    ];
    for (guard, path, source, fires) in cases {
        let fired = source_violations(path, source).iter().any(|v| v.starts_with(guard));
        assert_eq!(fired, fires, "{guard} on {path}: {source}");
    }
}

#[test]
fn the_read_core_guard_fires() {
    let good = "impl M {\n    pub(crate) fn new() {\n        stream.heap.push(k);\n    }\n    \
                pub fn lend(&mut self) {\n        self.heap.pop();\n    }\n    \
                pub fn next_msg(&mut self) {\n        self.lend(ctx)\n    }\n    \
                fn fill(&mut self) {\n        match src {\n            \
                DataSource::RawDirect => blocks.push_back(Block { data: Arc::from(bytes) }),\n            \
                DataSource::Blocked { map } => {\n                blocks.push_back(Block { data });\n            }\n        }\n    }\n}\n\
                #[cfg(test)]\nfn t() { self.heap.clear(); bag.fetch_logical(a); }\n";
    assert_eq!(stream_violations(good), Vec::<String>::new());
    for (from, to, what) in [
        ("self.lend(ctx)", "self.heap.pop()", "`lend`'s alone"),
        ("self.lend(ctx)", "self.pop_merged(ctx)", "then own"),
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
            "impl M {",
            &format!("impl M {{\n{}", "    const X: u8 = 0;\n".repeat(STREAM_CODE_LINES)),
            "code lines",
        ),
    ] {
        let bad = good.replacen(from, to, 1);
        assert!(stream_violations(&bad).iter().any(|v| v.contains(what)), "{what}:\n{bad}");
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
