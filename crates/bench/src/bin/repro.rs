//! `repro` — regenerate the BORA paper's tables and figures.
//!
//! ```text
//! repro list                       # show available experiments
//! repro all [options]              # run everything, in paper order
//! repro fig10 fig13 [options]      # run specific experiments
//!
//! options:
//!   --scale-small  F    image payload scale for 2.9 GB-class bags  (default 1/32)
//!   --scale-large  F    image payload scale for 21 GB-class bags   (default 1/128)
//!   --scale-swarm  F    image payload scale for 42 GB swarm bags   (default 1/512)
//!   --distinct-bags N   materialized bags per swarm                (default 2)
//!   --seed N            workload seed                              (default 0xB04A)
//!   --out DIR           CSV output directory                       (default results/)
//!   --tiny              preset: very small scales for smoke runs
//!   --quick             alias for --tiny
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use bench::env::ScaleConfig;
use bench::experiments::registry;

fn main() {
    bora_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }

    let mut scales = ScaleConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut run_all = false;

    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "list" => {
                for e in registry() {
                    println!("{:10} {:10} {}", e.id, e.paper_ref, e.description);
                }
                return;
            }
            "all" => run_all = true,
            "--tiny" | "--quick" => scales = ScaleConfig::tiny(),
            "--scale-small" => scales.small = take_f64(&mut it, "--scale-small"),
            "--scale-large" => scales.large = take_f64(&mut it, "--scale-large"),
            "--scale-swarm" => scales.swarm = take_f64(&mut it, "--scale-swarm"),
            "--distinct-bags" => {
                scales.swarm_distinct_bags = take_f64(&mut it, "--distinct-bags") as usize
            }
            "--seed" => scales.seed = take_f64(&mut it, "--seed") as u64,
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            id if !id.starts_with('-') => wanted.push(id.to_owned()),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }

    let all = registry();
    let selected: Vec<_> = if run_all {
        all.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &wanted {
            match all.iter().find(|e| e.id == *id) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment '{id}' — try `repro list`");
                    std::process::exit(2);
                }
            }
        }
        sel
    };
    if selected.is_empty() {
        usage();
        std::process::exit(2);
    }

    println!(
        "# BORA reproduction — scales: small={:.5} large={:.5} swarm={:.5} seed={:#x}",
        scales.small, scales.large, scales.swarm, scales.seed
    );
    let mut telemetry: Vec<String> = Vec::new();
    for exp in selected {
        let started = Instant::now();
        let metrics_before = bora_obs::snapshot();
        println!("\n### {} ({}) — {}", exp.id, exp.paper_ref, exp.description);
        let mut tables = (exp.run)(&scales);
        let delta = bora_obs::snapshot().delta_since(&metrics_before);
        let wall = started.elapsed().as_secs_f64();
        for t in &mut tables {
            t.metrics = delta.to_rows();
            println!("\n{}", t.render());
            if let Err(e) = t.save_csv(&out_dir) {
                eprintln!("warning: could not save {}.csv: {e}", t.id);
            }
        }
        telemetry.push(format!(
            "{{\"id\":{},\"wall_secs\":{:.3},\"metrics\":{}}}",
            bora_obs::json_string(exp.id),
            wall,
            delta.to_json()
        ));
        println!("[{} finished in {:.1}s]", exp.id, wall);
    }
    let telemetry_json = format!("[\n{}\n]\n", telemetry.join(",\n"));
    if std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join("telemetry.json"), telemetry_json))
        .is_ok()
    {
        println!("per-experiment metrics in {}", out_dir.join("telemetry.json").display());
    }
    match bora_obs::write_trace_if_enabled(&out_dir.join("trace.json").to_string_lossy()) {
        Ok(Some(p)) => println!("chrome trace in {}", p.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write trace: {e}"),
    }
    println!("\nCSV results in {}", out_dir.display());
}

fn take_f64(it: &mut std::iter::Peekable<std::vec::IntoIter<String>>, flag: &str) -> f64 {
    let v = it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    // Accept "1/128" fractions for convenience.
    if let Some((a, b)) = v.split_once('/') {
        let a: f64 = a.trim().parse().unwrap_or_else(|_| bad_value(flag, &v));
        let b: f64 = b.trim().parse().unwrap_or_else(|_| bad_value(flag, &v));
        return a / b;
    }
    v.parse().unwrap_or_else(|_| bad_value(flag, &v))
}

fn bad_value(flag: &str, v: &str) -> f64 {
    eprintln!("bad value for {flag}: {v}");
    std::process::exit(2);
}

fn usage() {
    println!(
        "usage: repro <list | all | EXPERIMENT...> [--tiny|--quick] [--scale-small F] \
         [--scale-large F] [--scale-swarm F] [--distinct-bags N] [--seed N] [--out DIR]"
    );
}
