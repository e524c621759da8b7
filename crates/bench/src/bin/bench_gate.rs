//! Perf-regression gate over the pinned benchmark suite.
//!
//! ```text
//! bench_gate [--incidents-diff] [--baseline PATH] [--out PATH] [--write]
//! bench_gate --diff A.json B.json
//! ```
//!
//! Runs the small deterministic suite in `exo_bench::gate`, writes the
//! readings to `BENCH_<date>.json` (or `--out`), and compares them
//! exactly to the committed `bench/baseline.json` (or `--baseline`).
//! Exits 1 when any case differs. `--write` instead re-pins the
//! baseline from this run — do that in the same change that moves a
//! number on purpose.
//!
//! `--incidents-diff` runs the incident-gate suite instead: the pinned
//! sort cases re-run with the `exo-watch` online detectors forced on,
//! writing `INCIDENTS_<date>.json` and comparing the detected incident
//! sets, by the same exact comparison, against `bench/incidents.json`.
//! Healthy cases must stay silent and the fault-injection case must
//! fire regardless of what the baseline says.
//!
//! `--diff A B` runs no benchmarks: it loads two profiled result files
//! (or bare `--profile=path` reports) and attributes the JCT delta to
//! bound-category shifts (see `exo_bench::profdiff`).

use std::path::{Path, PathBuf};
use std::process::exit;

use exo_bench::gate::{compare, compare_incidents, run_cases, run_incident_cases, today_string};
use exo_bench::profdiff::{diff_profiles, extract_profile, render_diff};
use exo_rt::trace::Json;

/// One gated suite: where its baseline lives, how its readings file is
/// named, how it runs and how its readings are checked.
struct Suite {
    baseline: &'static str,
    prefix: &'static str,
    run: fn() -> Json,
    check: fn(&Json, &Json) -> Vec<String>,
}

const METRICS: Suite = Suite {
    baseline: "bench/baseline.json",
    prefix: "BENCH",
    run: run_cases,
    check: compare,
};

const INCIDENTS: Suite = Suite {
    baseline: "bench/incidents.json",
    prefix: "INCIDENTS",
    run: run_incident_cases,
    check: compare_incidents,
};

const USAGE: &str = "usage: bench_gate [--incidents-diff] [--baseline PATH] [--out PATH] [--write]
       bench_gate --diff A.json B.json";

fn load_profile(path: &str) -> Json {
    let raw = std::fs::read_to_string(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        exit(2);
    });
    let doc = Json::parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: parsing {path}: {e}");
        exit(2);
    });
    match extract_profile(&doc) {
        Some(p) => p.clone(),
        None => {
            eprintln!(
                "error: {path} contains no profile — produce one with \
                 `--profile=<path>` or a results file from a profiled run"
            );
            exit(2);
        }
    }
}

fn run_diff(a_path: &str, b_path: &str) -> ! {
    let a = load_profile(a_path);
    let b = load_profile(b_path);
    match diff_profiles(&a, &b) {
        Ok(d) => {
            print!("{}", render_diff(&d));
            exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}

/// Runs `suite`, writes its readings (dated) to `out`, then either
/// re-pins `baseline` with them (`write`, no date, so the file is
/// byte-stable across regenerations that change nothing) or compares
/// them exactly against it.
fn gate(suite: &Suite, baseline: PathBuf, out: Option<PathBuf>, write: bool) -> ! {
    let date = today_string();
    let current = (suite.run)();

    let out = out.unwrap_or_else(|| PathBuf::from(format!("{}_{date}.json", suite.prefix)));
    write_file(&out, &current.clone().set("date", date).render_pretty());
    println!("bench_gate: wrote {}", out.display());

    if write {
        if let Some(dir) = baseline.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        write_file(&baseline, &current.render_pretty());
        println!("bench_gate: wrote baseline {}", baseline.display());
        exit(0);
    }

    let raw = std::fs::read_to_string(&baseline).unwrap_or_else(|e| {
        eprintln!(
            "error: reading baseline {}: {e}\nhint: generate one with --write",
            baseline.display()
        );
        exit(2);
    });
    let pinned = Json::parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: parsing {}: {e}", baseline.display());
        exit(2);
    });

    let violations = (suite.check)(&current, &pinned);
    if violations.is_empty() {
        println!(
            "bench_gate: PASS — every case equals {}",
            baseline.display()
        );
        exit(0);
    }
    eprintln!("bench_gate: FAIL — {} violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    eprintln!("if this change is intentional, re-pin the baseline by rerunning with --write");
    exit(1);
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: writing {}: {e}", path.display());
        exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--diff") {
        match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) if args.len() == 3 => run_diff(a, b),
            _ => {
                eprintln!("error: --diff takes exactly two profiled JSON files");
                exit(2);
            }
        }
    }
    let (suite, args) = match args.first().map(String::as_str) {
        Some("--incidents-diff") => (&INCIDENTS, &args[1..]),
        _ => (&METRICS, &args[..]),
    };
    let mut baseline = PathBuf::from(suite.baseline);
    let mut out = None;
    let mut write = false;
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        let mut path = || {
            PathBuf::from(flags.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a path");
                exit(2);
            }))
        };
        match flag.as_str() {
            "--baseline" => baseline = path(),
            "--out" => out = Some(path()),
            "--write" => write = true,
            other => {
                eprintln!("error: unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
    }
    gate(suite, baseline, out, write);
}
