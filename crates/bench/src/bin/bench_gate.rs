//! Perf-regression gate over the pinned benchmark suite.
//!
//! ```text
//! bench_gate [--baseline PATH] [--out PATH] [--write-baseline]
//! bench_gate --incidents-diff [--baseline PATH] [--out PATH] [--write-incidents]
//! bench_gate --diff A.json B.json
//! ```
//!
//! Runs the small deterministic suite in `exo_bench::gate`, writes the
//! readings to `BENCH_<date>.json` (or `--out`), and compares them to
//! the committed `bench/baseline.json` (or `--baseline`). Exits 1 on
//! any out-of-tolerance metric. `--write-baseline` instead regenerates
//! the baseline file from this run — do that in the same PR as an
//! intentional performance change.
//!
//! `--incidents-diff` runs the incident-gate suite instead: the pinned
//! sort cases re-run with the `exo-watch` online detectors forced on,
//! and the detected incident sets are compared **bit-for-bit** against
//! `bench/incidents.json` (detection is deterministic, so there are no
//! tolerances). Healthy cases must stay silent and the fault-injection
//! case must fire regardless of what the baseline says. Regenerate the
//! pinned sets with `--write-incidents` when a detector or threshold
//! change is intentional.
//!
//! `--diff A B` runs no benchmarks: it loads two profiled result files
//! (or bare `--profile=path` reports) and attributes the JCT delta to
//! bound-category shifts (see `exo_bench::profdiff`).

use std::path::{Path, PathBuf};
use std::process::exit;

use exo_bench::gate::{
    compare, compare_incidents, default_tolerances, run_cases, run_incident_cases, today_string,
};
use exo_bench::profdiff::{diff_profiles, extract_profile, render_diff};
use exo_rt::trace::Json;

/// Audit posture of the sources the numbers were taken from: total and
/// per-rule finding/exemption counts, and non-test lines per crate.
/// `None` when not run inside a workspace checkout. Returns the JSON
/// block plus the two totals for the summary line.
fn audit_snapshot() -> Option<(Json, usize, usize)> {
    let cwd = std::env::current_dir().ok()?;
    let root = exo_audit::find_workspace_root(&cwd)?;
    let report = exo_audit::audit_workspace(&root);
    let mut by_rule = Json::obj();
    for (rule, f, e) in report.by_rule() {
        by_rule = by_rule.set(rule, Json::obj().set("findings", f).set("exemptions", e));
    }
    let mut by_crate = Json::obj();
    for (krate, n) in &report.lines {
        by_crate = by_crate.set(krate, *n);
    }
    let lines = Json::obj()
        .set("total", report.lines.values().sum::<usize>())
        .set("by_crate", by_crate);
    let json = Json::obj()
        .set("findings", report.findings.len())
        .set("exemptions", report.exemptions.len())
        .set("by_rule", by_rule)
        .set("non_test_lines", lines);
    Some((json, report.findings.len(), report.exemptions.len()))
}

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

/// The `--incidents-diff` mode: run the watched suite, persist the
/// readings, and compare them bit-for-bit against the pinned baseline.
fn run_incidents_gate(args: &[String]) -> ! {
    let mut baseline_path = PathBuf::from("bench/incidents.json");
    let mut out_path: Option<PathBuf> = None;
    let mut write_incidents = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("error: --baseline requires a path");
                    exit(2);
                }));
            }
            "--out" => {
                i += 1;
                out_path = Some(PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    exit(2);
                })));
            }
            "--write-incidents" => write_incidents = true,
            other => {
                eprintln!(
                    "error: unknown flag {other}\n\
                     usage: bench_gate --incidents-diff [--baseline PATH] [--out PATH] \
                     [--write-incidents]"
                );
                exit(2);
            }
        }
        i += 1;
    }

    let date = today_string();
    let current = run_incident_cases();

    let out_path = out_path.unwrap_or_else(|| PathBuf::from(format!("INCIDENTS_{date}.json")));
    if let Err(e) = std::fs::write(&out_path, current.clone().set("date", date).render_pretty()) {
        eprintln!("error: writing {}: {e}", out_path.display());
        exit(2);
    }
    println!("bench_gate: wrote {}", out_path.display());

    if write_incidents {
        // No date stamp in the committed baseline: the file must be
        // byte-stable across regenerations that change nothing.
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&baseline_path, current.render_pretty()) {
            eprintln!("error: writing {}: {e}", baseline_path.display());
            exit(2);
        }
        println!(
            "bench_gate: wrote incident baseline {}",
            baseline_path.display()
        );
        exit(0);
    }

    let raw = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: reading incident baseline {}: {e}\n\
                 hint: generate one with `bench_gate --incidents-diff --write-incidents`",
                baseline_path.display()
            );
            exit(2);
        }
    };
    let baseline = match Json::parse(&raw) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: parsing {}: {e}", baseline_path.display());
            exit(2);
        }
    };

    let violations = compare_incidents(&current, &baseline);
    if violations.is_empty() {
        println!(
            "bench_gate: PASS — incident sets bit-identical to {}",
            baseline_path.display()
        );
        exit(0);
    }
    eprintln!(
        "bench_gate: FAIL — {} incident violation(s):",
        violations.len()
    );
    for v in &violations {
        eprintln!("  {v}");
    }
    eprintln!(
        "if this detector change is intentional, regenerate the pinned sets with \
         `cargo run --release --bin bench_gate -- --incidents-diff --write-incidents`"
    );
    exit(1);
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
    if args.first().is_some_and(|a| a == "--incidents-diff") {
        run_incidents_gate(&args[1..]);
    }
    let mut baseline_path = PathBuf::from("bench/baseline.json");
    let mut out_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("error: --baseline requires a path");
                    exit(2);
                }));
            }
            "--out" => {
                i += 1;
                out_path = Some(PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    exit(2);
                })));
            }
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!(
                    "error: unknown flag {other}\n\
                     usage: bench_gate [--baseline PATH] [--out PATH] [--write-baseline]\n\
                            bench_gate --incidents-diff [--write-incidents]\n\
                            bench_gate --diff A.json B.json"
                );
                exit(2);
            }
        }
        i += 1;
    }

    let date = today_string();
    let mut current = run_cases().set("date", date.clone());
    // The static-audit posture rides along in the readings, so a
    // BENCH_<date>.json records how many deliberate determinism/panic
    // exemptions the sources carried when the numbers were taken.
    let audit = audit_snapshot();
    if let Some((block, _, _)) = &audit {
        current = current.set("audit", block.clone());
    }

    let out_path = out_path.unwrap_or_else(|| PathBuf::from(format!("BENCH_{date}.json")));
    if let Err(e) = std::fs::write(&out_path, current.render_pretty()) {
        eprintln!("error: writing {}: {e}", out_path.display());
        exit(2);
    }
    println!("bench_gate: wrote {}", out_path.display());

    if write_baseline {
        let baseline = current.clone().set("tolerances", default_tolerances());
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&baseline_path, baseline.render_pretty()) {
            eprintln!("error: writing {}: {e}", baseline_path.display());
            exit(2);
        }
        println!("bench_gate: wrote baseline {}", baseline_path.display());
        return;
    }

    let raw = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: reading baseline {}: {e}\n\
                 hint: generate one with `bench_gate --write-baseline`",
                baseline_path.display()
            );
            exit(2);
        }
    };
    let baseline = match Json::parse(&raw) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: parsing {}: {e}", baseline_path.display());
            exit(2);
        }
    };

    let violations = compare(&current, &baseline);
    if violations.is_empty() {
        let audit_note = match &audit {
            Some((_, f, e)) => format!(" — audit: {f} finding(s), {e} exemption(s)"),
            None => String::new(),
        };
        println!(
            "bench_gate: PASS — all metrics within tolerance of {}{audit_note}",
            baseline_path.display()
        );
    } else {
        eprintln!("bench_gate: FAIL — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "if this change is intentional, regenerate the baseline with \
             `cargo run --release --bin bench_gate -- --write-baseline`"
        );
        exit(1);
    }
}
