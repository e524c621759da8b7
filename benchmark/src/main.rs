//! The repository benchmark: four fixed workloads, each run as fresh
//! child processes (one simulation at a time), measured end to end with
//! tracing off and layer by layer in a separate traced pass.
//!
//! ```text
//! cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
//!     [--out PATH] [--spans PATH]
//! cargo run --release -q --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Every timing is host time unless its unit is `sim_s` (simulated
//! seconds). The model is not validated on these configurations and
//! none of them is a paper figure: `sim_jct_s` guards the modelled
//! design against unintended change, it is not an accuracy figure. A
//! change meant only to speed up the simulator must leave it identical.
//!
//! # Workloads
//!
//! The seed (default 2026; 7 is held out) drives the sort key generator
//! and the multitenant arrival plan. A run draws three input instances
//! from it and cycles its iterations through them: simulated results
//! move by several percent between inputs, so the run reports them as a
//! median over the three. They repeat exactly per input, except on
//! multitenant (see [`Workload::repeats_exactly`]), where the median
//! runs over every iteration.
//!
//! - `xl_simple`: the CloudSort geometry — 100× d3.2xlarge, ES-simple,
//!   600 partitions, 18.75 TB logical, 50 MB of real records. Engine
//!   bound: ~1.2M dispatches, with the sort kernels a few percent of the
//!   wall. The run sits past the partition count where host time per
//!   dispatch starts to rise, so engine-core fixes show here.
//! - `spill_pushstar`: a fig 4a-shaped out-of-core ES-push*
//!   (`map_parallelism: 2`) on 20× d3.2xlarge, object store = data/5,
//!   8 TB logical over 1,600 partitions. Store spill, restore and fused
//!   writes dominate the modelled time with few dispatches, and the
//!   real-data map and reduce kernels dominate host time: a kernel
//!   speed-up shows here, an engine speed-up mostly does not.
//! - `multitenant`: `run_service` on 4× r6i.2xlarge with exo-watch as
//!   the quota auditor; three tenants (weights 2/1/1, cpu caps
//!   50/37.5/37.5%, store quotas 16/8/8 GB). 96 jobs arrive open-loop in
//!   virtual time (stratified exponential gaps, 2 s mean; stratified
//!   bounded-Pareto sizes, α 1.3, 1–6 GB), kinds rotating sort/agg/ml,
//!   every 7th in the priority lane. JCT runs from each job's due time.
//!   It is the only workload on the JobManager fair-share path; host
//!   time goes to per-job driver threads, with ~1 MB of real records per
//!   sort job.
//! - `ft_simple`: ES-simple on 20× d3.2xlarge, 400 partitions, 2 TB,
//!   with `kill_node(3)` at t=200 s and a restart 30 s later. The only
//!   workload that runs lineage reconstruction and object loss.
//!
//! # Metrics
//!
//! End to end, over untraced iterations: `wall_s` (host time from
//! iteration start to the return of `exo_rt::run`/`run_service`: setup,
//! simulation, output `get` and teardown; the fastest iteration, see
//! [`headline`]), and medians of `peak_rss_mb` (the
//! child's `VmHWM`), `setup_s` (iteration start — config, job and
//! arrival-plan build — to the first line of the driver closure; each
//! child sets up ten more times and reports the median), `sim_jct_s` and
//! `sim_jct_p75_s` (median and p75 per-job JCT; a single-job workload's
//! one JCT for both). With fewer than 20 iterations no tail percentile
//! of host time has ten samples beyond it, so only medians and quartiles
//! are reported.
//!
//! Per layer (`--trace 1`): the untraced iterations, then one with trace
//! retention on and one with live snapshots and exo-watch on. See
//! [`catalog::MOVES`] for the end-to-end metric and workload each should move.
//! `shuffle.driver_s` is host time inside `run_shuffle`; for push* it
//! includes the library's per-round waits. `rt.wait_s` sums `wait_all`
//! and, on multitenant, `JobHandle::join` across threads, so it can
//! exceed the wall there. The traced iteration's spans — recorded around
//! each public call the benchmark makes — go to `--spans` as Chrome-trace
//! JSON, and their self times are printed.
//!
//! Jobs fail when their output does not validate (sorted permutation of
//! the input; aggregation distribution summing to 1 ± 1e-9; every ML
//! epoch completed), when a child crashes (all its jobs), or per tenant
//! isolation violation.

mod arrivals;
mod catalog;
mod compare;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use exo_rt::trace::Json;

use catalog::{catalog, MetricDef, MOVES};
use spans::Span;
use stats::Summary;
use workloads::{Mode, Sample, Workload};

/// Input instances per run (see [`instance_seeds`]); also the fewest
/// iterations a run makes, so that each instance runs.
const INSTANCES: usize = 3;
const DEFAULT_SEED: u64 = 2026;

#[derive(Debug)]
enum Cmd {
    Run {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        traced: bool,
        out: String,
        spans: String,
    },
    Child {
        workload: Workload,
        seed: u64,
        mode: Mode,
    },
    Compare(String, String),
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--out PATH] [--spans PATH]\n       benchmark --compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = DEFAULT_SEED;
    let mut seconds = 0.0;
    let mut traced = false;
    let mut out = "target/benchmark/latest.json".to_string();
    let mut spans = "target/benchmark/spans.json".to_string();
    let mut child = None;
    let mut mode = Mode::Untraced;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = vec![Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?];
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => traced = true,
            "--out" => out = value()?,
            "--spans" => spans = value()?,
            "--compare" => {
                let a = value()?;
                let b = value()?;
                return Ok(Cmd::Compare(a, b));
            }
            "--child" => {
                let v = value()?;
                child = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--mode" => {
                let v = value()?;
                mode = Mode::from_name(&v).ok_or(format!("unknown mode {v}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(match child {
        Some(workload) => Cmd::Child {
            workload,
            seed,
            mode,
        },
        None => Cmd::Run {
            workloads,
            seed,
            seconds,
            traced,
            out,
            spans,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Child {
            workload,
            seed,
            mode,
        }) => {
            let s = workloads::run_iteration(workload, seed, mode);
            println!("{}", s.to_json().render());
            ExitCode::SUCCESS
        }
        Ok(Cmd::Compare(a, b)) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Cmd::Run {
            workloads,
            seed,
            seconds,
            traced,
            out,
            spans,
        }) => match run(&workloads, seed, seconds, traced, &out, &spans) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Runs one iteration in a fresh child process and waits for it. A
/// crash or unreadable output fails every job of the iteration.
fn child(w: Workload, seed: u64, mode: Mode) -> (Sample, f64) {
    let t0 = Instant::now();
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args([
            "--child",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--mode",
            mode.name(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let elapsed = t0.elapsed().as_secs_f64();
    let parsed = match &output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|j| Sample::from_json(&j))
            .ok_or_else(|| "child printed no sample".to_string()),
        Ok(o) => Err(format!("child exited with {}", o.status)),
        Err(e) => Err(format!("child did not start: {e}")),
    };
    let sample = parsed.unwrap_or_else(|e| Sample {
        attempted: w.jobs(),
        failed: w.jobs(),
        errors: vec![format!("{} {} iteration: {e}", w.name(), mode.name())],
        ..Sample::default()
    });
    (sample, elapsed)
}

/// Everything measured for one workload.
struct WorkloadResult {
    workload: Workload,
    /// Per metric, one value per iteration that reported it.
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Spans of the traced iteration.
    spans: Vec<Span>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| stats::median(v))
    }

    fn absorb(&mut self, s: &Sample) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.errors.extend(s.errors.iter().cloned());
    }
}

/// The seeds of a run's input instances: iteration `i` runs instance
/// `i % INSTANCES`. Simulated results are deterministic per input but
/// swing by several percent between inputs, so a run reports them as a
/// median over a fixed set of inputs drawn from its seed.
fn instance_seeds(seed: u64) -> [u64; INSTANCES] {
    let mut rng = exo_sim::SplitMix64::new(seed);
    std::array::from_fn(|_| rng.next_u64())
}

/// Metrics that depend only on the input where the simulation repeats
/// exactly (see [`Workload::repeats_exactly`]): reported once per
/// instance, and required to repeat when an instance runs again.
const DETERMINISTIC: [&str; 3] = ["sim_jct_s", "sim_jct_p75_s", "sim.dispatches"];

fn measure(w: Workload, seed: u64, seconds: f64, traced: bool) -> WorkloadResult {
    let seeds = instance_seeds(seed);
    let start = Instant::now();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    // Stop before an iteration would overrun the budget.
    while untraced.len() < INSTANCES
        || start.elapsed().as_secs_f64() + stats::median(&took) <= seconds
    {
        let (s, t) = child(w, seeds[untraced.len() % INSTANCES], Mode::Untraced);
        untraced.push(s);
        took.push(t);
    }
    let mut r = WorkloadResult {
        workload: w,
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        spans: Vec::new(),
    };
    for (i, s) in untraced.iter().enumerate() {
        r.absorb(s);
        for (k, v) in &s.metrics {
            let once = w.repeats_exactly() && DETERMINISTIC.contains(&k.as_str());
            if !once || i < INSTANCES {
                r.values.entry(k.clone()).or_default().push(*v);
            } else if untraced[i % INSTANCES].metrics.get(k) != Some(v) {
                r.errors
                    .push(format!("{k} differs across runs of one input: {v}"));
            }
        }
    }
    if traced {
        let base_wall = r.median("wall_s").unwrap_or(f64::NAN);
        let base_jct = untraced[0]
            .metrics
            .get("sim_jct_s")
            .copied()
            .unwrap_or(f64::NAN);
        let (t, _) = child(w, seeds[0], Mode::Traced);
        let (o, _) = child(w, seeds[0], Mode::Observed);
        r.absorb(&t);
        r.absorb(&o);
        for (s, mode) in [(&t, Mode::Traced), (&o, Mode::Observed)] {
            if let (true, Some(jct)) = (w.repeats_exactly(), s.metrics.get("sim_jct_s")) {
                if *jct != base_jct {
                    r.errors.push(format!(
                        "{} sim_jct_s {jct} differs from untraced {base_jct}",
                        mode.name()
                    ));
                }
            }
        }
        let mut one = |name: &str, v: Option<f64>| {
            if let Some(v) = v {
                r.values.insert(name.to_string(), vec![v]);
            }
        };
        for (k, v) in &t.metrics {
            let traced_only =
                k.starts_with("trace.") || k.starts_with("prof.") || k.ends_with("_kernel_s");
            if traced_only {
                one(k, Some(*v));
            }
        }
        one(
            "host.traced_peak_rss_mb",
            t.metrics.get("peak_rss_mb").copied(),
        );
        one(
            "trace.overhead_s",
            t.metrics.get("wall_s").map(|x| x - base_wall),
        );
        one(
            "obs.overhead_s",
            o.metrics.get("wall_s").map(|x| x - base_wall),
        );
        one("watch.incidents", o.metrics.get("watch.incidents").copied());
        if let Some(e) = tiling_error(&t.spans) {
            r.errors.push(e);
        }
        r.spans = t.spans;
    }
    r
}

/// The traced iteration's `setup`, `driver` and `teardown` spans must
/// cover its `iteration` span (within 5%), or host time is unattributed.
fn tiling_error(spans: &[Span]) -> Option<String> {
    let it = spans.iter().find(|s| s.name == "iteration")?;
    let parts: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(it.id))
        .map(Span::dur_us)
        .sum();
    let gap = (it.dur_us() - parts).abs() / it.dur_us();
    (gap > 0.05).then(|| {
        format!(
            "setup+driver+teardown leave {:.1}% of the iteration",
            gap * 100.0
        )
    })
}

pub(crate) fn fmt_num(x: f64) -> String {
    if x == 0.0 || (x.abs() >= 0.01 && x.abs() < 1e7) {
        format!("{x:.4}")
    } else {
        format!("{x:.4e}")
    }
}

/// The value a run reports for a metric, and the statistic it is. Host
/// interference only ever adds time to the deterministic work of an
/// iteration, and on a shared host it comes in phases longer than an
/// iteration: the fastest iteration measures the work itself and varies
/// between runs several times less than the median does.
fn headline(name: &str, v: &[f64]) -> (f64, &'static str) {
    if name == "wall_s" {
        (stats::nearest_rank(v, 0.0), "min")
    } else {
        (stats::median(v), "median")
    }
}

fn print_metric(w: &str, name: &str, unit: &str, v: &[f64], note: &str) {
    let s = Summary::of(v);
    let (value, stat) = headline(name, v);
    println!(
        "{w:<15} {name:<28} {stat:>6} {:>12} {unit:<6} (n={}, q1–q3 {}–{}){note}",
        fmt_num(value),
        s.n,
        fmt_num(s.q1),
        fmt_num(s.q3)
    );
}

fn run(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &str,
    spans_path: &str,
) -> Result<(), String> {
    let (e2e, layer) = catalog();
    let single = workloads.len() == 1;
    let mut results = Vec::new();
    for &w in workloads {
        eprintln!("benchmark: {} (seed {seed})", w.name());
        results.push(measure(w, seed, seconds, traced));
    }

    println!(
        "# benchmark, seed {seed}, {} host threads: one iteration per fresh child process. \
         With n < 20 no tail percentile has ten samples beyond it; none is reported.",
        host_threads()
    );
    let mut last = BTreeMap::new();
    for r in &results {
        let w = r.workload.name();
        let shown: Vec<&MetricDef> = if traced {
            e2e.iter().chain(&layer).collect()
        } else {
            e2e.iter().collect()
        };
        for m in shown {
            let Some(v) = r.values.get(&m.name) else {
                return Err(format!("{w}: no value for {}", m.name));
            };
            let note = MOVES
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(String::new(), |(_, moves)| format!("  -> {moves}"));
            print_metric(w, &m.name, &m.unit, v, &note);
            let reported = if traced {
                m.bound.is_none()
            } else {
                m.bound.is_some()
            };
            if reported {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{w}.{}", m.name)
                };
                last.insert(key, (headline(&m.name, v).0, m.unit.clone()));
            }
        }
        println!(
            "{w:<15} {:<28} {:>19} of {} jobs attempted{}",
            "jobs_failed",
            r.failed,
            r.attempted,
            if r.correct() { "" } else { "  INCORRECT" }
        );
        for e in &r.errors {
            println!("{w:<15} error: {e}");
        }
    }
    if traced {
        print_self_times(&results);
        write_spans(&results, spans_path)?;
    }
    write_out(&results, seed, traced, out, &e2e, &layer)?;

    let metrics = last.into_iter().fold(Json::obj(), |j, (k, (v, unit))| {
        j.set(&k, Json::obj().set("value", v).set("unit", unit.as_str()))
    });
    let line = Json::obj()
        .set("correct", results.iter().all(WorkloadResult::correct))
        .set(
            "attempted",
            results.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .set("failed", results.iter().map(|r| r.failed).sum::<u64>())
        .set("metrics", metrics);
    println!("{}", line.render());
    Ok(())
}

fn print_self_times(results: &[WorkloadResult]) {
    println!("# self time of the traced iteration's spans (host s)");
    for r in results {
        for (name, n, total, self_us) in spans::self_time_table(&r.spans) {
            println!(
                "{:<15} {name:<28} n={n:<4} total {:>10.4}  self {:>10.4}",
                r.workload.name(),
                total / 1e6,
                self_us / 1e6
            );
        }
    }
}

/// Threads the host can run at once, reported with every result: the
/// engine, driver and job threads share them.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn ensure_parent(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    ensure_parent(path)?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn write_spans(results: &[WorkloadResult], path: &str) -> Result<(), String> {
    let events: Vec<Json> = results
        .iter()
        .enumerate()
        .flat_map(|(i, r)| spans::chrome_events(&r.spans, i as u64 + 1, r.workload.name()))
        .collect();
    let doc = Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms");
    write_file(path, &doc.render())?;
    eprintln!("benchmark: spans written to {path}");
    Ok(())
}

fn write_out(
    results: &[WorkloadResult],
    seed: u64,
    traced: bool,
    path: &str,
    e2e: &[MetricDef],
    layer: &[MetricDef],
) -> Result<(), String> {
    let mut workloads = Json::obj();
    for r in results {
        let mut metrics = Json::obj();
        for m in e2e.iter().chain(layer) {
            let Some(v) = r.values.get(&m.name) else {
                continue;
            };
            let s = Summary::of(v);
            metrics = metrics.set(
                &m.name,
                Json::obj()
                    .set("unit", m.unit.as_str())
                    .set("median", s.median)
                    .set("q1", s.q1)
                    .set("q3", s.q3)
                    .set(
                        "values",
                        Json::Arr(v.iter().map(|x| Json::from(*x)).collect()),
                    ),
            );
        }
        let errors = r.errors.iter().map(|e| Json::from(e.as_str())).collect();
        workloads = workloads.set(
            r.workload.name(),
            Json::obj()
                .set("correct", r.correct())
                .set("attempted", r.attempted)
                .set("failed", r.failed)
                .set("errors", Json::Arr(errors))
                .set("metrics", metrics),
        );
    }
    let doc = Json::obj()
        .set("seed", seed)
        .set("traced", traced)
        .set("host_threads", host_threads())
        .set("workloads", workloads);
    write_file(path, &doc.render_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_a_single_workload_run() {
        let args: Vec<String> = "--workload ft_simple --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        match parse_args(&args) {
            Ok(Cmd::Run {
                workloads,
                seed,
                seconds,
                traced,
                ..
            }) => {
                assert_eq!(workloads, vec![Workload::FtSimple]);
                assert_eq!((seed, seconds, traced), (7, 12.0, true));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn tiling_check_flags_unattributed_time() {
        let s = |id, parent, name: &str, a: f64, b: f64| Span {
            id,
            parent,
            name: name.into(),
            start_us: a,
            end_us: b,
            tid: 1,
            job: None,
        };
        let tiled = [
            s(1, None, "iteration", 0.0, 100.0),
            s(2, Some(1), "setup", 0.0, 10.0),
            s(3, Some(1), "driver", 10.0, 90.0),
            s(4, Some(1), "teardown", 90.0, 100.0),
        ];
        assert_eq!(tiling_error(&tiled), None);
        let gappy = [tiled[0].clone(), tiled[2].clone()];
        assert!(tiling_error(&gappy).is_some());
    }
}
