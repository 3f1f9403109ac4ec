//! Offline shim for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the slice of criterion's API its benches use: `Criterion`,
//! `benchmark_group` / `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Bencher::{iter, iter_batched}`, `Throughput::{Bytes,
//! Elements}`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple: when the binary is invoked with
//! `--bench` (as `cargo bench` does) each benchmark runs for a fixed
//! wall-clock budget and reports min/mean per-iteration time. Under
//! `cargo test` (no `--bench` flag) every benchmark runs a single
//! iteration as a smoke test, keeping the tier-1 suite fast.
//!
//! With `BENCH_JSON=<path>` a measured run also writes one JSON object
//! per benchmark to `<path>`, replacing what an earlier run left there;
//! every row states its rate in the unit its `Throughput` declares.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::Write;
use std::sync::OnceLock;
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

/// Work done by one iteration, so a row can be read as a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    /// Items (rows, messages) per iteration; printed as elements/s.
    Elements(u64),
}

/// How many inputs `iter_batched` may hold at once. The shim always
/// makes one per iteration; kept so call sites read as criterion's.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
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
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Time `routine` on a fresh input per iteration: `setup` runs before
    /// the clock starts and the routine's output is dropped after it
    /// stops, so neither fixture construction nor teardown is measured.
    pub fn iter_batched<I, O, S: FnMut() -> I, F: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: F,
        _size: BatchSize,
    ) {
        let mut once = || {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            let ns = start.elapsed().as_nanos() as u64;
            drop(output);
            ns
        };
        if !self.measure {
            self.samples.push(once());
            return;
        }
        // Warmup.
        once();
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline {
            let ns = once();
            self.samples.push(ns);
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

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let (measure, t) = (self.criterion.measure, self.throughput);
        run_one(measure, &self.name, id, self.sample_size, t, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let (measure, t) = (self.criterion.measure, self.throughput);
        run_one(measure, &self.name, &id.id, self.sample_size, t, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    measure: bool,
    group: &str,
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let full_name = format!("{group}/{name}");
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
        if let Some(mut ledger) = ledger() {
            let _ = writeln!(ledger, "{}", ledger_row(name, min, mean, samples.len(), throughput));
        }
    } else {
        println!("{name:<50} smoke ok ({})", fmt_ns(min));
    }
}

/// The file named by `BENCH_JSON`, created (and so emptied) when the
/// process records its first row and appended to after: running the
/// documented regeneration command twice leaves one set of rows, not two.
fn ledger() -> Option<&'static File> {
    static LEDGER: OnceLock<Option<File>> = OnceLock::new();
    LEDGER.get_or_init(|| create_ledger(&std::env::var_os("BENCH_JSON")?)).as_ref()
}

fn create_ledger(path: &std::ffi::OsStr) -> Option<File> {
    File::create(path).ok()
}

/// One ledger line. The rate is quoted at the mean, in the declared
/// unit; a row that declares none is iterations per second.
fn ledger_row(
    name: &str,
    min: u64,
    mean: u64,
    iters: usize,
    throughput: Option<Throughput>,
) -> String {
    let per_s = |n: u64| n as f64 * 1e9 / mean.max(1) as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("\"bytes\":{n},\"mb_per_s\":{:.1}", per_s(n) / 1e6)
        }
        Some(Throughput::Elements(n)) => {
            format!("\"elements\":{n},\"elem_per_s\":{:.0}", per_s(n))
        }
        None => format!("\"iter_per_s\":{:.0}", per_s(1)),
    };
    format!(
        "{{\"name\":\"{}\",\"min_ns\":{min},\"mean_ns\":{mean},\"iters\":{iters},{rate}}}",
        name.replace('\\', "\\\\").replace('"', "\\\""),
    )
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
    fn batched_setup_and_teardown_run_once_per_iteration() {
        let mut c = Criterion { measure: false };
        let (mut made, mut used) = (0u32, 0u32);
        c.benchmark_group("g").bench_function("batched", |b| {
            b.iter_batched(
                || {
                    made += 1;
                    vec![7u8; 3]
                },
                |v| used += v.len() as u32,
                BatchSize::SmallInput,
            )
        });
        assert_eq!((made, used), (1, 3));
    }

    /// The value of `"key":<number>` in a ledger row.
    fn field(row: &str, key: &str) -> Option<f64> {
        let rest = row.split_once(&format!("\"{key}\":"))?.1;
        rest[..rest.find([',', '}'])?].parse().ok()
    }

    #[test]
    fn a_second_run_replaces_the_ledger_and_every_row_has_its_unit() {
        let path = std::env::temp_dir().join(format!("criterion-shim-{}.json", std::process::id()));
        let rows = [
            ("g/bytes", Some(Throughput::Bytes(2_000_000)), "mb_per_s", 1000.0),
            ("g/elems", Some(Throughput::Elements(500)), "elem_per_s", 250_000.0),
            ("g/plain", None, "iter_per_s", 500.0),
        ];
        for _run in 0..2 {
            let mut ledger = create_ledger(path.as_os_str()).unwrap();
            for (name, t, _, _) in rows {
                writeln!(ledger, "{}", ledger_row(name, 1_900_000, 2_000_000, 10, t)).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rows.len(), "two runs left one set of rows");
        for (line, (name, _, unit, rate)) in lines.iter().zip(rows) {
            assert!(line.starts_with(&format!("{{\"name\":\"{name}\",")) && line.ends_with('}'));
            assert_eq!(field(line, "mean_ns"), Some(2_000_000.0));
            assert_eq!(field(line, unit), Some(rate), "{line}");
        }
    }

    #[test]
    fn measured_mode_collects_samples() {
        let mut c = Criterion { measure: true };
        let mut runs = 0u64;
        c.benchmark_group("g").bench_function("tight", |b| b.iter(|| runs += 1));
        assert!(runs > 1, "measured mode should iterate");
    }
}
