//! The suite commands: `run` and `trace` (every workload, each in a
//! fresh child process of this binary, one report), `aa` (the suite
//! twice, compared with itself) and `diff` (two reports compared).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::host;
use crate::json::{self, Json};
use crate::plan::KINDS;
use crate::spec::{Metric, Spec};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

/// Where reports go unless `--out` says otherwise (ignored by git).
const OUT_DIR: &str = "benchmark/out";

/// Run every workload in a child process each — so the process-global
/// metrics registry, `BORA_POOL_BYTES` and `VmHWM` are per workload —
/// echoing each child's lines and collecting its result object.
fn suite(args: &SuiteArgs, trace: bool, trace_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    for kind in KINDS {
        println!(
            "== {} (seed {}, {} s, trace {})",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(trace)
        );
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if trace {
            cmd.arg("--out").arg(trace_dir);
        }
        // Waits for the child to end; its stderr passes straight through.
        let output = cmd.output().map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| json::parse(l).ok());
        let mut detail = Json::Obj(Vec::new());
        let mut top_layer = Json::Null;
        for line in lines {
            if let Some(d) = line.strip_prefix("detail ") {
                detail =
                    json::parse(d).map_err(|e| format!("{}: bad detail line: {e}", kind.name()))?;
            } else {
                if let Some(top) = line.strip_prefix("trace.top_layer ") {
                    top_layer = Json::str(top);
                }
                println!("  {line}");
            }
        }
        let Some(Json::Obj(mut fields)) = result else {
            return Err(format!("{} printed no result (exit {})", kind.name(), output.status));
        };
        fields.extend(detail.as_obj().iter().cloned());
        fields.push(("top_layer".into(), top_layer));
        workloads.push((kind.name().to_owned(), Json::Obj(fields)));
    }
    Ok(Json::obj([
        ("mode", Json::str(if trace { "trace" } else { "run" })),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("quick", Json::Bool(args.quick)),
        ("host", host::calibrate()),
        ("workloads", Json::Obj(workloads)),
    ]))
}

fn all_correct(report: &Json) -> bool {
    let workloads = report.get("workloads").map_or(&[][..], Json::as_obj);
    workloads.iter().all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true))
}

fn write_report(path: &Path, report: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, report.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(())
}

fn fail(message: String) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// `run` / `trace`.
pub fn run(args: &SuiteArgs, trace: bool) -> ExitCode {
    let mode = if trace { "trace" } else { "run" };
    let trace_dir = match (&args.out, trace) {
        (Some(dir), true) => dir.clone(),
        _ => PathBuf::from(OUT_DIR),
    };
    let path = match (&args.out, trace) {
        (Some(file), false) => file.clone(),
        _ => trace_dir.join(format!("{mode}-seed{}.json", args.seed)),
    };
    let report = match suite(args, trace, &trace_dir) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Err(e) = write_report(&path, &report) {
        return fail(e);
    }
    if all_correct(&report) {
        ExitCode::SUCCESS
    } else {
        fail("an output check failed".into())
    }
}

/// One (workload, metric) cell of a report.
fn cell(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// Per-layer metrics carry no bound: the ratio is all there is.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::NoBound => "-",
        }
    }
}

/// Share of `old` by which `new` is worse, given the metric's direction
/// (negative when it is better).
pub fn worse_by(m: &Metric, old: f64, new: f64) -> f64 {
    let change = (new - old) / old.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(m: &Metric, old: f64, new: f64) -> Verdict {
    match m.bound {
        None => Verdict::NoBound,
        Some(bound) if worse_by(m, old, new) > bound => Verdict::Worse,
        Some(bound) if worse_by(m, old, new) < -bound => Verdict::Better,
        Some(_) => Verdict::WithinBound,
    }
}

/// Why two reports must not be compared, if they must not.
pub fn incomparable(old: &Json, new: &Json) -> Option<String> {
    for key in ["mode", "seed", "seconds", "quick"] {
        if old.get(key) != new.get(key) {
            let show = |r: &Json| r.get(key).map_or("nothing".into(), Json::render);
            return Some(format!("{key} differs: {} against {}", show(old), show(new)));
        }
    }
    let host = |r: &Json, key: &str| r.get("host").and_then(|h| h.get(key)).cloned();
    for key in ["nproc", "transport", "storage"] {
        if host(old, key) != host(new, key) {
            return Some(format!("host {key} differs"));
        }
    }
    // Spin scores of one machine repeat within a few percent; a quarter
    // apart is another machine (or one too busy to measure on).
    let spin = |r: &Json| host(r, "spin_miters_per_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let (a, b) = (spin(old), spin(new));
    if a <= 0.0 || b <= 0.0 || (a - b).abs() / a.max(b) > 0.25 {
        return Some(format!("host spin score differs: {a} against {b} Miter/s"));
    }
    for kind in KINDS {
        let size =
            |r: &Json| r.get("workloads")?.get(kind.name())?.get("requests_per_rep")?.as_f64();
        if size(old) != size(new) {
            return Some(format!("{}: list sizes differ", kind.name()));
        }
    }
    None
}

/// Print one row per (workload, metric) both reports have; returns the
/// rows as (workload, metric, old, new, verdict).
fn compare(spec: &Spec, old: &Json, new: &Json) -> Vec<(String, Metric, f64, f64, Verdict)> {
    println!(
        "{:<16} {:<44} {:>14} {:>14} {:>8}  {:<7} verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    let mut rows = Vec::new();
    for kind in KINDS {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(a), Some(b)) =
                (cell(old, kind.name(), &m.name), cell(new, kind.name(), &m.name))
            else {
                continue;
            };
            // A metric that is 0 on both sides does not exist on this
            // workload; a ratio needs a base.
            if a == 0.0 {
                continue;
            }
            let v = verdict(m, a, b);
            println!(
                "{:<16} {:<44} {a:>14.4} {b:>14.4} {:>8.3}  {:<7} {}",
                kind.name(),
                m.name,
                b / a,
                m.bound.map_or("-".into(), |x| format!("{:.1}%", x * 100.0)),
                v.label()
            );
            rows.push((kind.name().to_owned(), m.clone(), a, b, v));
        }
    }
    rows
}

/// `diff <old.json> <new.json>`: exit 1 when any bounded cell is worse.
pub fn diff(spec: &Spec, old_path: &str, new_path: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    if let Some(why) = incomparable(&old, &new) {
        return fail(format!("refusing to compare: {why}"));
    }
    let rows = compare(spec, &old, &new);
    let worse = rows.iter().filter(|r| r.4 == Verdict::Worse).count();
    println!("{} cells compared, {worse} worse than their bound", rows.len());
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `aa`: the suite twice, back to back, on the same code. The benchmark
/// is only fit to judge a change if it agrees with itself: every bounded
/// cell within half its bound, every exact cell identical.
pub fn aa(spec: &Spec, args: &SuiteArgs) -> ExitCode {
    let dir = PathBuf::from(OUT_DIR);
    let (first, second) = match (suite(args, false, &dir), suite(args, false, &dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let rows = compare(spec, &first, &second);
    let mut disagree = 0;
    for (workload, m, a, b, _) in &rows {
        let bound = m.bound.expect("run reports hold bounded metrics only");
        let off = (b - a).abs() / a.abs();
        if off > bound / 2.0 {
            println!(
                "DISAGREE {workload} {}: {:.2}% apart, half-bound {:.2}%",
                m.name,
                off * 100.0,
                bound * 50.0
            );
            disagree += 1;
        }
        if m.name == "stored_bytes_per_user_byte" && a != b {
            println!("DISAGREE {workload} {}: an exact count changed", m.name);
            disagree += 1;
        }
    }
    let path = args.out.clone().unwrap_or_else(|| dir.join(format!("aa-seed{}.json", args.seed)));
    let report = Json::obj([
        ("mode", Json::str("aa")),
        ("agree", Json::Bool(disagree == 0)),
        ("first", first.clone()),
        ("second", second.clone()),
    ]);
    if let Err(e) = write_report(&path, &report) {
        return fail(e);
    }
    if !all_correct(&first) || !all_correct(&second) {
        return fail("an output check failed".into());
    }
    if disagree > 0 {
        return fail(format!("{disagree} cells disagree between two runs of the same code"));
    }
    println!("{} cells agree within half their bounds", rows.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: Option<f64>) -> Metric {
        Metric { name: "m".into(), unit: "x".into(), higher_is_better, bound }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let throughput = metric(true, Some(0.10));
        assert_eq!(verdict(&throughput, 100.0, 89.0), Verdict::Worse);
        assert_eq!(verdict(&throughput, 100.0, 91.0), Verdict::WithinBound);
        assert_eq!(verdict(&throughput, 100.0, 109.0), Verdict::WithinBound);
        assert_eq!(verdict(&throughput, 100.0, 111.0), Verdict::Better);
        let latency = metric(false, Some(0.10));
        assert_eq!(verdict(&latency, 10.0, 11.5), Verdict::Worse);
        assert_eq!(verdict(&latency, 10.0, 10.5), Verdict::WithinBound);
        assert_eq!(verdict(&latency, 10.0, 8.5), Verdict::Better);
        assert_eq!(verdict(&metric(false, None), 10.0, 100.0), Verdict::NoBound);
        assert!(
            (worse_by(&throughput, 200.0, 150.0) - 0.25).abs() < 1e-12,
            "base is the old value"
        );
    }

    fn report(seed: f64, spin: f64, size: f64) -> Json {
        let workloads = KINDS
            .map(|k| (k.name().to_owned(), Json::obj([("requests_per_rep", Json::Num(size))])));
        Json::obj([
            ("mode", Json::str("run")),
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
            ("quick", Json::Bool(false)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(2.0)),
                    ("spin_miters_per_s", Json::Num(spin)),
                    ("transport", Json::str("tcp-loopback")),
                    ("storage", Json::str("MemStorage")),
                ]),
            ),
            ("workloads", Json::Obj(workloads.to_vec())),
        ])
    }

    #[test]
    fn refuses_reports_that_differ_in_seed_sizes_or_host() {
        let base = report(1.0, 600.0, 8.0);
        assert_eq!(incomparable(&base, &report(1.0, 630.0, 8.0)), None);
        assert!(incomparable(&base, &report(2.0, 600.0, 8.0)).unwrap().contains("seed"));
        assert!(incomparable(&base, &report(1.0, 300.0, 8.0)).unwrap().contains("spin"));
        assert!(incomparable(&base, &report(1.0, 600.0, 80.0)).unwrap().contains("list sizes"));
    }
}
