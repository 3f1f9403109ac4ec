//! **bora-obs** — the workspace's shared observability layer.
//!
//! The BORA paper's whole argument is a latency decomposition: where the
//! seven seconds of a 21 GB bag `open` go, and what the hash-lookup +
//! sequential-read path costs instead. This crate gives every layer of the
//! reproduction the same three primitives to make that decomposition
//! visible end to end:
//!
//! 1. **Spans** ([`trace`]) — structured begin/end regions with wall
//!    duration and an optional *virtual* (cost-model) charge, recorded
//!    into lock-cheap per-thread ring buffers with a global [`drain`].
//!    Sites are gated on one relaxed atomic load ([`enabled`]), so the
//!    disabled path — the default — costs a branch and nothing else.
//!    Enable with `BORA_TRACE=1` (see [`init_from_env`]) or
//!    programmatically via [`set_enabled`].
//! 2. **Metrics** ([`registry`]) — process-wide named counters, gauges,
//!    and the power-of-two exponential histograms ([`hist`]) generalized
//!    out of `bora-serve`; always on, snapshot-and-diffable so the bench
//!    harness can attribute activity to individual experiments.
//! 3. **Exporters** ([`export`]) — Chrome `trace_event` JSON (load in
//!    `about://tracing` / Perfetto) and folded stacks for flamegraphs.
//!    [`write_trace_if_enabled`] is the one-call flush binaries use at
//!    exit.
//!
//! The crate depends only on the workspace's vendored shims — it sits
//! below `simfs` in the dependency DAG so every other crate can use it.
//!
//! ```
//! bora_obs::set_enabled(true);
//! {
//!     let outer = bora_obs::span("demo.outer");
//!     let inner = bora_obs::span("demo.inner");
//!     inner.end_virt(1_000); // attach a cost-model charge
//!     outer.end();
//! }
//! bora_obs::set_enabled(false);
//! let events = bora_obs::drain();
//! assert!(events.iter().any(|e| e.path == "demo.outer;demo.inner"));
//! let json = bora_obs::chrome_trace(&events, bora_obs::dropped());
//! assert!(json.contains("demo.inner"));
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod trace;
pub mod window;

pub use export::{chrome_trace, folded_stacks, merge_chrome_traces};
pub use hist::{ExpHistogram, HistSummary, BUCKETS};
pub use registry::{
    counter, gauge, histogram, json_string, snapshot, Counter, Gauge, Histogram, MetricsSnapshot,
    Registry,
};
pub use slo::{SloStatus, SloTarget, SloTracker};
pub use trace::{
    adopt_context, current_context, drain, dropped, enabled, init_from_env, now_ns,
    out_path_from_env, record_complete, set_enabled, set_thread_node, span, ContextGuard, Span,
    SpanEvent, TraceContext, RING_CAPACITY,
};
pub use window::WindowedHistogram;

/// If tracing is enabled, drain everything recorded so far and write a
/// Chrome trace JSON to `BORA_TRACE_OUT` (or `default_path` when unset).
/// Returns the path written, if any. Binaries call this at exit.
pub fn write_trace_if_enabled(default_path: &str) -> std::io::Result<Option<std::path::PathBuf>> {
    if !enabled() {
        return Ok(None);
    }
    let path = out_path_from_env().unwrap_or_else(|| std::path::PathBuf::from(default_path));
    let events = drain();
    let json = chrome_trace(&events, dropped());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, json)?;
    Ok(Some(path))
}
