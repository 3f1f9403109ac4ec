//! Offline shim for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the slice of criterion's API its benches use: `Criterion`,
//! `benchmark_group` / `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter`, `Throughput::{Bytes, Elements}`, and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple: when the binary is invoked with
//! `--bench` (as `cargo bench` does) each benchmark runs for a fixed
//! wall-clock budget and reports min/mean per-iteration time. Under
//! `cargo test` (no `--bench` flag) every benchmark runs a single
//! iteration as a smoke test, keeping the tier-1 suite fast.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Work done by one iteration, so a row can be read as a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    /// Items (rows, messages) per iteration; printed as elements/s.
    Elements(u64),
}

/// Per-iteration timer handle passed to benchmark closures.
pub struct Bencher {
    /// Measure for real (`--bench`) or run once (test smoke mode).
    measure: bool,
    /// Wall-clock budget for one benchmark in measured mode.
    budget: Duration,
    /// Collected per-iteration nanoseconds.
    samples: Vec<u64>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if !self.measure {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed().as_nanos() as u64);
            return;
        }
        // Warmup.
        std::hint::black_box(routine());
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Benchmark registry and runner.
pub struct Criterion {
    measure: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let measure = std::env::args().any(|a| a == "--bench");
        Criterion { measure }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 100, throughput: None }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let name = id.into_id();
        run_one(self.measure, None, &name, 100, None, f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Kept for API compatibility; the shim scales its time budget with
    /// the requested sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Work per iteration of the benchmarks that follow; measured rows
    /// then also report a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let name = id.into_id();
        let (measure, t) = (self.criterion.measure, self.throughput);
        run_one(measure, Some(&self.name), &name, self.sample_size, t, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = id.into_id();
        let (measure, t) = (self.criterion.measure, self.throughput);
        run_one(measure, Some(&self.name), &name, self.sample_size, t, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    measure: bool,
    group: Option<&str>,
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let full_name = match group {
        Some(g) => format!("{g}/{name}"),
        None => name.to_owned(),
    };
    // ~2ms per requested sample, clamped: long enough to be indicative,
    // short enough that a full suite stays in seconds.
    let budget = Duration::from_millis((sample_size as u64 * 2).clamp(20, 500));
    let mut bencher = Bencher { measure, budget, samples: Vec::new() };
    f(&mut bencher);
    report(&full_name, measure, throughput, &bencher.samples);
}

fn report(name: &str, measured: bool, throughput: Option<Throughput>, samples: &[u64]) {
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    let min = *samples.iter().min().unwrap();
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    if measured {
        let rate = match throughput {
            // bytes/ns = GB/s; quoted at the mean, like criterion does.
            Some(Throughput::Bytes(n)) => format!("  {:>8.1} MB/s", n as f64 * 1e3 / mean as f64),
            Some(Throughput::Elements(n)) => {
                format!("  {:>8.2} Melem/s", n as f64 * 1e3 / mean as f64)
            }
            None => String::new(),
        };
        println!(
            "{name:<50} min {:>12}  mean {:>12}  ({} iters){rate}",
            fmt_ns(min),
            fmt_ns(mean),
            samples.len()
        );
        // Machine-readable sink for CI artifacts: one JSON object per
        // line, appended to the file named by `BENCH_JSON`.
        if let Ok(path) = std::env::var("BENCH_JSON") {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                // A row with a declared element count also states its rate.
                let rate = match throughput {
                    Some(Throughput::Elements(n)) => format!(
                        ",\"elements\":{n},\"elem_per_s\":{:.0}",
                        n as f64 * 1e9 / mean as f64
                    ),
                    _ => String::new(),
                };
                let _ = writeln!(
                    f,
                    "{{\"name\":\"{}\",\"min_ns\":{min},\"mean_ns\":{mean},\"iters\":{}{rate}}}",
                    name.replace('\\', "\\\\").replace('"', "\\\""),
                    samples.len()
                );
            }
        }
    } else {
        println!("{name:<50} smoke ok ({})", fmt_ns(min));
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Re-export so `use criterion::black_box` keeps working.
pub use std::hint::black_box;

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut c = Criterion { measure: false };
        let mut runs = 0u32;
        let mut group = c.benchmark_group("g");
        group.sample_size(10).bench_function("one", |b| b.iter(|| runs += 1));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u32, |b, &x| b.iter(|| runs += x));
        group.finish();
        // One warmup-free iteration each in smoke mode.
        assert_eq!(runs, 1 + 4);
    }

    #[test]
    fn measured_mode_collects_samples() {
        let mut c = Criterion { measure: true };
        let mut runs = 0u64;
        c.bench_function("tight", |b| b.iter(|| runs += 1));
        assert!(runs > 1, "measured mode should iterate");
    }
}
