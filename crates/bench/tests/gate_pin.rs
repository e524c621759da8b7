//! Pin: behaviour-preserving refactors of the scheduler must keep the
//! gate cases *exactly* on the committed `bench/baseline.json` readings
//! (to the 6-decimal precision the file records), not merely within
//! the gate's tolerance bands. Single-job and multi-job cases alike run
//! through the job manager's ready pool and `DispatchPass` dispatcher,
//! so any change to pick order, placement or dispatch timing fails here.
//! The baseline file is the one copy of the pinned numbers: every case
//! in [`CASES`] must have an entry, and every metric it lists is checked.

use std::path::Path;

use exo_bench::gate::CASES;
use exo_rt::trace::Json;

fn committed_baseline() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn homogeneous_gate_cases_match_pre_refactor_baseline_exactly() {
    let baseline = committed_baseline();
    let pinned = baseline.get("cases").expect("baseline has no \"cases\"");
    for case in CASES {
        let name = case.name;
        let expected = pinned
            .get(name)
            .unwrap_or_else(|| panic!("gate case {name} has no entry in bench/baseline.json"));
        assert!(
            !expected.entries().is_empty(),
            "gate case {name} pins no metric in bench/baseline.json"
        );
        let metrics = (case.run)();
        for (metric, want) in expected.entries() {
            let want = want
                .as_f64()
                .unwrap_or_else(|| panic!("{name}.{metric}: baseline value is not a number"));
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
