//! Wall-clock serve benchmark for BORA-rs. See `benchmark/README.md`.

mod host;
mod json;
mod layers;
mod measure;
mod plan;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod world;

use std::process::ExitCode;

use json::Json;
use measure::{Args, Outcome};
use plan::Kind;
use spec::Spec;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]\n  \
         benchmark run   [--seed <n>] [--seconds <s>] [--quick] [--out <file>]\n  \
         benchmark trace [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]\n  \
         benchmark aa    [--seed <n>] [--seconds <s>] [--quick] [--out <file>]\n  \
         benchmark diff <old.json> <new.json>\n\
         workloads: {}",
        plan::KINDS.map(Kind::name).join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--quick`, after an optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a.strip_prefix("--")?;
            let value = if name == "quick" { "1".to_owned() } else { it.next()?.clone() };
            out.push((name.to_owned(), value));
        }
        Some(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Option<u64> {
        self.get(name).map_or(Some(default), |v| v.parse().ok())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    match argv.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => {
            let Some(args) = Flags::parse(&argv).and_then(|f| one_args(&f, &spec)) else {
                return usage();
            };
            one(&args, &spec)
        }
        Some(cmd @ ("run" | "trace" | "aa")) => {
            let Some(args) = Flags::parse(&argv[1..]).and_then(|f| suite_args(&f, &spec)) else {
                return usage();
            };
            match cmd {
                "aa" => suite::aa(&spec, &args),
                _ => suite::run(&args, cmd == "trace"),
            }
        }
        Some("diff") if argv.len() == 3 => suite::diff(&spec, &argv[1], &argv[2]),
        _ => usage(),
    }
}

fn suite_args(f: &Flags, spec: &Spec) -> Option<suite::SuiteArgs> {
    Some(suite::SuiteArgs {
        seed: f.num("seed", 1)?,
        seconds: f.num("seconds", spec.run_seconds)?,
        quick: f.get("quick").is_some(),
        out: f.get("out").map(Into::into),
    })
}

fn one_args(f: &Flags, spec: &Spec) -> Option<Args> {
    Some(Args {
        kind: Kind::from_name(f.get("workload")?)?,
        seed: f.num("seed", 1)?,
        seconds: f.num("seconds", spec.run_seconds)?,
        trace: f.num("trace", 0)? != 0,
        quick: f.get("quick").is_some(),
        out: f.get("out").map(Into::into),
    })
}

/// One run of one workload: every metric by name on its own line, then
/// the result object as the last line of standard output.
fn one(args: &Args, spec: &Spec) -> ExitCode {
    // First thing, while this is the only thread: what it starts inherits.
    let cpu = host::pin_to_one_cpu();
    let outcome = measure::run(args);
    let wanted = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for m in wanted {
        let Some((_, stat)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) else {
            eprintln!("harness bug: metric {} was not measured", m.name);
            return ExitCode::FAILURE;
        };
        println!(
            "{:<44} {:>16.4} {:<8} {} n={} min={:.4} max={:.4}",
            m.name,
            stat.value,
            m.unit,
            if m.higher_is_better { "higher-is-better" } else { "lower-is-better " },
            stat.n,
            stat.min,
            stat.max
        );
        let value = Json::obj([("value", Json::Num(stat.value)), ("unit", Json::str(&*m.unit))]);
        metrics.push((m.name.clone(), value));
    }
    if let Some(top) = &outcome.top_layer {
        println!("trace.top_layer {top}");
    }
    println!(
        "detail {}",
        Json::obj([
            ("reps", Json::Num(outcome.reps as f64)),
            ("requests_per_rep", Json::Num(outcome.requests_per_rep as f64)),
            ("pinned_cpu", cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
        ])
        .render()
    );
    let Outcome { attempted, failed, .. } = outcome;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
