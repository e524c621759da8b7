//! The perf-regression gate: a pinned suite of small, deterministic
//! simulations whose headline metrics (JCT / spilled bytes / network
//! bytes) are compared against a committed baseline with per-metric
//! tolerances. CI runs this via `scripts/bench_gate.sh`; a violation is
//! a hard failure.
//!
//! The simulator is deterministic, so the tolerances exist to absorb
//! *intentional* performance changes, not noise: small improvements
//! land by regenerating the baseline (`bench_gate --write-baseline`)
//! in the same PR, and anything beyond tolerance forces that
//! conversation to happen in review.

use std::time::{SystemTime, UNIX_EPOCH};

use exo_agg::{regular_aggregation, AggConfig, PageviewSpec};
use exo_ml::{exoshuffle_training, DatasetSpec, TrainConfig};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_shuffle::{ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};

use crate::runs::{run_es_sort, run_es_sort_watched, EsSortParams};

/// Relative tolerance per metric name; `default` covers the rest.
const TOLERANCES: &[(&str, f64)] = &[
    ("jct_s", 0.10),
    ("spilled_bytes", 0.15),
    ("net_bytes", 0.15),
    ("tasks_reexecuted", 0.15),
    ("default", 0.15),
];

/// Absolute floor under which differences never violate, per metric
/// family — keeps zero-valued baselines (e.g. in-memory spill) from
/// turning any nonzero reading into an infinite relative error.
fn metric_floor(metric: &str) -> f64 {
    if metric.ends_with("_bytes") {
        16e6 // 16 MB
    } else {
        0.5 // seconds
    }
}

/// One gated scenario: a name and the metrics it produces.
pub struct GateCase {
    pub name: &'static str,
    pub run: fn() -> Vec<(&'static str, f64)>,
}

fn sort_metrics(p: EsSortParams) -> Vec<(&'static str, f64)> {
    let r = run_es_sort(p);
    vec![
        ("jct_s", r.jct.as_secs_f64()),
        ("spilled_bytes", r.spilled as f64),
        ("net_bytes", r.net as f64),
    ]
}

/// Fig-4a-shaped: HDD nodes with a store small enough to force the
/// spill path (data:store 5:1 overall). The incident gate reruns these
/// exact parameters, so the metric and incident readings stay paired.
fn sort_hdd_small_params() -> EsSortParams {
    let data = 4_000_000_000u64;
    let nodes = 4;
    let variant = ShuffleVariant::PushStar { map_parallelism: 2 };
    EsSortParams {
        store_capacity: Some(data / 5 / nodes as u64),
        ..EsSortParams::new(NodeSpec::d3_2xlarge(), nodes, data, 32, variant)
    }
}

/// Fig-4c-shaped: SSD nodes, everything fits in memory, no spill.
fn sort_ssd_inmem_small_params() -> EsSortParams {
    EsSortParams {
        in_memory: true,
        ..EsSortParams::new(
            NodeSpec::i3_2xlarge(),
            4,
            2_000_000_000,
            16,
            ShuffleVariant::Simple,
        )
    }
}

/// Fig-4_ft-shaped: kill a worker mid-run and restart it, so lineage
/// reconstruction (and its extra network/re-execution cost) is pinned
/// alongside the clean paths.
fn sort_ft_small_params() -> EsSortParams {
    let variant = ShuffleVariant::PushStar { map_parallelism: 2 };
    EsSortParams {
        failure: Some((3, SimTime(2_000_000), SimDuration::from_secs(5))),
        ..EsSortParams::new(NodeSpec::d3_2xlarge(), 4, 2_000_000_000, 16, variant)
    }
}

fn sort_hdd_small() -> Vec<(&'static str, f64)> {
    sort_metrics(sort_hdd_small_params())
}

fn sort_ssd_inmem_small() -> Vec<(&'static str, f64)> {
    sort_metrics(sort_ssd_inmem_small_params())
}

fn sort_ft_small() -> Vec<(&'static str, f64)> {
    let r = run_es_sort(sort_ft_small_params());
    vec![
        ("jct_s", r.jct.as_secs_f64()),
        ("net_bytes", r.net as f64),
        ("tasks_reexecuted", r.reexecuted as f64),
    ]
}

fn agg_small() -> Vec<(&'static str, f64)> {
    // Fig-5-shaped: a few rounds of the pageview aggregation.
    let cfg = AggConfig {
        spec: PageviewSpec {
            data_bytes: 4_000_000_000,
            num_maps: 16,
            num_reduces: 8,
            entries_per_map: 2_000,
            pages: 50_000,
            seed: 3,
        },
        rounds: 3,
    };
    let rt_cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), 4));
    let (report, (t_batch, _truth)) =
        crate::runs::timed_run(rt_cfg, |rt| regular_aggregation(rt, &cfg));
    vec![
        ("jct_s", t_batch.as_secs_f64()),
        ("net_bytes", report.metrics.net_bytes as f64),
    ]
}

fn ml_loader_small() -> Vec<(&'static str, f64)> {
    // Fig-8-shaped: pipelined-shuffle training on the ml_loader cluster
    // (one g4dn.4xlarge trainer, two r6i.2xlarge feeders), small enough
    // to stay inside gate budget but large enough that the loader's
    // shuffle traffic dominates the metrics.
    let cfg = RtConfig::new(ClusterSpec::ml_loader(2));
    let train_cfg = TrainConfig {
        dataset: DatasetSpec::new(20_000, 16, 2023).with_logical_sample_bytes(2000),
        epochs: 5,
        batch_size: 128,
        lr: 0.5,
        variant: ShuffleVariant::Simple,
        window: ShuffleWindow::Full,
        gpu_ns_per_sample: 40_000.0,
    };
    let (report, out) = crate::runs::timed_run(cfg, |rt| exoshuffle_training(rt, &train_cfg));
    vec![
        ("jct_s", out.total_time.as_secs_f64()),
        ("net_bytes", report.metrics.net_bytes as f64),
    ]
}

/// Shuffle-as-a-service-shaped: the small multi-tenant arrival stream
/// (3 tenants, 6 mixed jobs) pinned end to end — stream-wide JCT
/// percentiles, network volume, and the hard invariants that the
/// scheduler never exceeded a cpu quota (`isolation_violations`) and
/// how often the store routed an over-quota tenant to fallback
/// (`quota_denials`).
fn multitenant_small() -> Vec<(&'static str, f64)> {
    let r = crate::service::run_multitenant(&crate::service::MtParams::gate_small());
    vec![
        ("jct_p50_s", r.jct_quantile_us(0.50) as f64 / 1e6),
        ("jct_p99_s", r.jct_quantile_us(0.99) as f64 / 1e6),
        ("net_bytes", r.metrics.net_bytes as f64),
        ("isolation_violations", r.isolation_violations as f64),
        ("quota_denials", r.metrics.store.quota_denials as f64),
    ]
}

/// The pinned gate suite. Append-only: removing or resizing a case
/// invalidates the committed baseline.
pub const CASES: &[GateCase] = &[
    GateCase {
        name: "sort_hdd_small",
        run: sort_hdd_small,
    },
    GateCase {
        name: "sort_ssd_inmem_small",
        run: sort_ssd_inmem_small,
    },
    GateCase {
        name: "sort_ft_small",
        run: sort_ft_small,
    },
    GateCase {
        name: "agg_small",
        run: agg_small,
    },
    GateCase {
        name: "ml_loader_small",
        run: ml_loader_small,
    },
    GateCase {
        name: "multitenant_small",
        run: multitenant_small,
    },
];

/// Runs every case and returns `{"cases": {name: {metric: value}}}`.
pub fn run_cases() -> Json {
    let mut cases = Json::obj();
    for case in CASES {
        eprintln!("bench_gate: running {} ...", case.name);
        let mut doc = Json::obj();
        for (metric, value) in (case.run)() {
            doc = doc.set(metric, value);
        }
        cases = cases.set(case.name, doc);
    }
    Json::obj().set("cases", cases)
}

/// The default tolerance table as JSON (committed into the baseline so
/// the gate and the file stay self-describing).
pub fn default_tolerances() -> Json {
    let mut t = Json::obj();
    for (name, tol) in TOLERANCES {
        t = t.set(name, *tol);
    }
    t
}

fn tolerance_for(baseline: &Json, metric: &str) -> f64 {
    let tols = baseline.get("tolerances");
    tols.and_then(|t| t.get(metric))
        .or_else(|| tols.and_then(|t| t.get("default")))
        .and_then(Json::as_f64)
        .unwrap_or(0.15)
}

/// Compares `current` against `baseline`; returns one human-readable
/// violation per out-of-tolerance metric (empty = gate passes).
/// Missing cases/metrics on either side are violations too: the suite
/// is pinned, so a silently dropped case must fail loudly.
pub fn compare(current: &Json, baseline: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let empty = Json::obj();
    let base_cases = baseline.get("cases").unwrap_or(&empty);
    let cur_cases = current.get("cases").unwrap_or(&empty);

    for (case, base_metrics) in base_cases.entries() {
        let Some(cur_metrics) = cur_cases.get(case) else {
            violations.push(format!("case {case}: missing from current run"));
            continue;
        };
        for (metric, base_v) in base_metrics.entries() {
            let Some(base) = base_v.as_f64() else {
                continue;
            };
            let Some(cur) = cur_metrics.get(metric).and_then(Json::as_f64) else {
                violations.push(format!("{case}.{metric}: missing from current run"));
                continue;
            };
            let tol = tolerance_for(baseline, metric);
            let allowed = tol * base.abs().max(metric_floor(metric));
            let diff = cur - base;
            if diff.abs() > allowed {
                violations.push(format!(
                    "{case}.{metric}: {cur:.4} vs baseline {base:.4} \
                     (diff {diff:+.4}, allowed ±{allowed:.4}, tol {:.0}%)",
                    tol * 100.0
                ));
            }
        }
    }
    for (case, _) in cur_cases.entries() {
        if base_cases.get(case).is_none() {
            violations.push(format!(
                "case {case}: not in baseline — regenerate it with --write-baseline"
            ));
        }
    }
    violations
}

/// One incident-gated scenario: a pinned workload run with the online
/// detectors forced on, plus whether the baseline expects it to fire.
pub struct IncidentCase {
    pub name: &'static str,
    pub params: fn() -> EsSortParams,
    /// `true`: the case must detect at least one incident (fault
    /// injection). `false`: a healthy run must stay silent.
    pub expect_incidents: bool,
}

/// The incident-gate suite. Reuses the exact parameter sets of the
/// metric gate so the two baselines describe the same runs. The fault
/// case must fire; the healthy cases pin the detectors' silence.
pub const INCIDENT_CASES: &[IncidentCase] = &[
    IncidentCase {
        name: "sort_hdd_small",
        params: sort_hdd_small_params,
        expect_incidents: false,
    },
    IncidentCase {
        name: "sort_ssd_inmem_small",
        params: sort_ssd_inmem_small_params,
        expect_incidents: false,
    },
    IncidentCase {
        name: "sort_ft_small",
        params: sort_ft_small_params,
        expect_incidents: true,
    },
];

/// Runs every incident case watched and returns
/// `{"cases": {name: <incident report>}}`.
pub fn run_incident_cases() -> Json {
    let mut cases = Json::obj();
    for case in INCIDENT_CASES {
        eprintln!("bench_gate: running {} (watched) ...", case.name);
        let (_, watch) = run_es_sort_watched((case.params)());
        cases = cases.set(case.name, watch.to_json());
    }
    Json::obj().set("cases", cases)
}

/// Compares the current incident sets against the committed baseline.
/// Unlike the metric gate there are no tolerances: detection is
/// deterministic, so the comparison is bit-for-bit — any drift in ids,
/// timestamps, peaks, or counts is a behavior change to review (and to
/// lock in via `--write-incidents` when intended). Also enforces the
/// structural expectations independent of the baseline: fault cases
/// must fire, healthy cases must stay silent.
pub fn compare_incidents(current: &Json, baseline: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let empty = Json::obj();
    let base_cases = baseline.get("cases").unwrap_or(&empty);
    let cur_cases = current.get("cases").unwrap_or(&empty);

    for case in INCIDENT_CASES {
        let total = cur_cases
            .get(case.name)
            .and_then(|c| c.get("total"))
            .and_then(Json::as_f64);
        match total {
            None => violations.push(format!("case {}: missing from current run", case.name)),
            Some(t) if case.expect_incidents && t == 0.0 => violations.push(format!(
                "case {}: fault run detected no incidents; expected a nonempty set",
                case.name
            )),
            Some(t) if !case.expect_incidents && t != 0.0 => violations.push(format!(
                "case {}: healthy run fired {t:.0} incident(s); expected none",
                case.name
            )),
            Some(_) => {}
        }
    }

    for (case, base_doc) in base_cases.entries() {
        match cur_cases.get(case) {
            None => {
                // Already reported above when the case is still pinned.
                if !INCIDENT_CASES.iter().any(|c| c.name == case) {
                    violations.push(format!("case {case}: missing from current run"));
                }
            }
            Some(cur_doc) if cur_doc.render() != base_doc.render() => {
                violations.push(format!(
                    "case {case}: incident set differs from baseline \
                     (regenerate with --write-incidents if intended)\n  \
                     baseline: {}\n  current:  {}",
                    base_doc.render(),
                    cur_doc.render()
                ));
            }
            Some(_) => {}
        }
    }
    for (case, _) in cur_cases.entries() {
        if base_cases.get(case).is_none() {
            violations.push(format!(
                "case {case}: not in incident baseline — regenerate with --write-incidents"
            ));
        }
    }
    violations
}

/// Today's UTC date as `YYYY-MM-DD` (no chrono in the tree; this is
/// Howard Hinnant's civil-from-days algorithm).
pub fn today_string() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs() as i64;
    let days = secs.div_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(jct: f64, spill: f64) -> Json {
        Json::obj().set(
            "cases",
            Json::obj().set(
                "sort",
                Json::obj().set("jct_s", jct).set("spilled_bytes", spill),
            ),
        )
    }

    fn with_tols(doc: Json) -> Json {
        doc.set("tolerances", default_tolerances())
    }

    #[test]
    fn identical_runs_pass() {
        let base = with_tols(doc(100.0, 5e9));
        assert!(compare(&doc(100.0, 5e9), &base).is_empty());
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = with_tols(doc(100.0, 5e9));
        // jct tolerance is 10%: 109 s passes, 115 s fails.
        assert!(compare(&doc(109.0, 5e9), &base).is_empty());
        let v = compare(&doc(115.0, 5e9), &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("sort.jct_s"), "{v:?}");
        // Improvements beyond tolerance also fail: they must be locked
        // in by regenerating the baseline, not silently absorbed.
        assert!(!compare(&doc(85.0, 5e9), &base).is_empty());
    }

    #[test]
    fn zero_baseline_uses_absolute_floor() {
        let base = with_tols(doc(100.0, 0.0));
        // 1 MB of stray spill against a 0 baseline: under the 16 MB
        // floor × 15% tolerance, so it passes...
        assert!(compare(&doc(100.0, 1e6), &base).is_empty());
        // ...but 100 MB of new spilling fails.
        assert!(!compare(&doc(100.0, 1e8), &base).is_empty());
    }

    #[test]
    fn missing_and_extra_cases_are_violations() {
        let base = with_tols(doc(100.0, 5e9));
        let empty = Json::obj().set("cases", Json::obj());
        let v = compare(&empty, &base);
        assert!(v.iter().any(|s| s.contains("missing")), "{v:?}");
        let extra = Json::obj().set(
            "cases",
            Json::obj()
                .set(
                    "sort",
                    Json::obj().set("jct_s", 100.0).set("spilled_bytes", 5e9),
                )
                .set("new_case", Json::obj().set("jct_s", 1.0)),
        );
        let v = compare(&extra, &base);
        assert!(v.iter().any(|s| s.contains("new_case")), "{v:?}");
    }

    #[test]
    fn baseline_round_trips_through_parser() {
        let base = with_tols(doc(12.5, 0.0)).set("date", "2026-08-05");
        let parsed = Json::parse(&base.render()).expect("parse");
        assert!(compare(&doc(12.5, 0.0), &parsed).is_empty());
        assert_eq!(
            parsed.get("date").and_then(Json::as_str),
            Some("2026-08-05")
        );
    }

    /// Builds `{"cases": {...}}` incident docs from (name, total) pairs;
    /// `detail` varies the per-case body to exercise the exact diff.
    fn inc_doc(cases: &[(&str, f64, &str)]) -> Json {
        let mut c = Json::obj();
        for (name, total, detail) in cases {
            c = c.set(
                name,
                Json::obj().set("total", *total).set("detail", *detail),
            );
        }
        Json::obj().set("cases", c)
    }

    fn inc_full(ft_detail: &str) -> Json {
        inc_doc(&[
            ("sort_hdd_small", 0.0, ""),
            ("sort_ssd_inmem_small", 0.0, ""),
            ("sort_ft_small", 2.0, ft_detail),
        ])
    }

    #[test]
    fn identical_incident_sets_pass() {
        let base = inc_full("cascade");
        assert!(compare_incidents(&inc_full("cascade"), &base).is_empty());
    }

    #[test]
    fn incident_drift_is_bit_exact_violation() {
        let base = inc_full("cascade");
        // Same totals, different body: still a violation — the diff is
        // on the rendered report, not on summary counts.
        let v = compare_incidents(&inc_full("cascade+straggler"), &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("sort_ft_small"), "{v:?}");
        assert!(v[0].contains("--write-incidents"), "{v:?}");
    }

    #[test]
    fn structural_expectations_hold_without_baseline_agreement() {
        // Healthy case firing + fault case silent both violate even when
        // the baseline matches the (broken) current run exactly.
        let broken = inc_doc(&[
            ("sort_hdd_small", 3.0, ""),
            ("sort_ssd_inmem_small", 0.0, ""),
            ("sort_ft_small", 0.0, ""),
        ]);
        let v = compare_incidents(&broken, &broken);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|s| s.contains("healthy run fired")), "{v:?}");
        assert!(
            v.iter().any(|s| s.contains("detected no incidents")),
            "{v:?}"
        );
    }

    #[test]
    fn missing_and_extra_incident_cases_are_violations() {
        let base = inc_full("cascade");
        let partial = inc_doc(&[
            ("sort_hdd_small", 0.0, ""),
            ("sort_ssd_inmem_small", 0.0, ""),
        ]);
        let v = compare_incidents(&partial, &base);
        // Exactly one "missing" per absent case, not one per loop.
        assert_eq!(
            v.iter().filter(|s| s.contains("missing")).count(),
            1,
            "{v:?}"
        );
        let extra = inc_full("cascade").remove("cases").set(
            "cases",
            inc_full("cascade")
                .get("cases")
                .cloned()
                .unwrap()
                .set("surprise", Json::obj().set("total", 1.0)),
        );
        let v = compare_incidents(&extra, &base);
        assert!(v.iter().any(|s| s.contains("surprise")), "{v:?}");
    }

    #[test]
    fn date_formatting_is_civil() {
        // The algorithm is pure in `days`; spot-check via the epoch.
        let s = today_string();
        assert_eq!(s.len(), 10, "{s}");
        assert_eq!(&s[4..5], "-");
        assert_eq!(&s[7..8], "-");
        let year: i64 = s[0..4].parse().expect("year");
        assert!((2024..2100).contains(&year), "{s}");
    }
}
