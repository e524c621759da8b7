//! Pin: behaviour-preserving refactors of the scheduler must keep the
//! gate cases *exactly* on the committed baseline readings (to the
//! 6-decimal precision the baseline file records), not merely within
//! the gate's tolerance bands. Single-job and multi-job cases alike run
//! through the job manager's ready pool and `DispatchPass` dispatcher,
//! so any change to pick order, placement or dispatch timing fails here.

use exo_bench::gate::CASES;

/// The committed `bench/baseline.json` readings for every gate case —
/// all six, including the heterogeneous `ml_loader_small` cluster and
/// the `multitenant_small` arrival stream, so an engine-core change
/// that perturbs any scheduling path fails here exactly rather than
/// merely drifting inside the tolerance gate's bands.
const PINNED: &[(&str, &[(&str, f64)])] = &[
    (
        "sort_hdd_small",
        &[
            ("jct_s", 10.229442),
            ("spilled_bytes", 2_123_296_000.0),
            ("net_bytes", 3_005_344_000.0),
        ],
    ),
    (
        "sort_ssd_inmem_small",
        &[
            ("jct_s", 1.617023),
            ("spilled_bytes", 0.0),
            ("net_bytes", 1_494_832_000.0),
        ],
    ),
    (
        "sort_ft_small",
        &[
            ("jct_s", 3.981010),
            ("net_bytes", 2_057_048_000.0),
            ("tasks_reexecuted", 11.0),
        ],
    ),
    (
        "agg_small",
        &[("jct_s", 7.714392), ("net_bytes", 2_976_559_488.0)],
    ),
    (
        "ml_loader_small",
        &[("jct_s", 4.055345), ("net_bytes", 125_000_000.0)],
    ),
    (
        "multitenant_small",
        &[
            ("jct_p50_s", 3.576761),
            ("jct_p99_s", 6.802835),
            ("net_bytes", 5_341_017_369.0),
            ("isolation_violations", 0.0),
            ("quota_denials", 0.0),
        ],
    ),
];

#[test]
fn homogeneous_gate_cases_match_pre_refactor_baseline_exactly() {
    for (name, expected) in PINNED {
        let case = CASES
            .iter()
            .find(|c| c.name == *name)
            .unwrap_or_else(|| panic!("gate case {name} missing"));
        let metrics = (case.run)();
        for (metric, want) in *expected {
            let got = metrics
                .iter()
                .find(|(m, _)| m == metric)
                .unwrap_or_else(|| panic!("{name}: metric {metric} missing"))
                .1;
            // Byte counters are integers and must match exactly; the JCT
            // is compared at the baseline file's 6-decimal precision.
            let slack = if metric.ends_with("_bytes") {
                0.0
            } else {
                5e-7
            };
            assert!(
                (got - want).abs() <= slack,
                "{name}.{metric}: got {got}, pinned baseline {want}"
            );
        }
    }
}
