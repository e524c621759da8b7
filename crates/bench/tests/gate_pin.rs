//! Pin: every gate case must reproduce the committed
//! `bench/baseline.json` readings exactly, by the same comparison
//! `bench_gate` runs. Single-job and multi-job cases alike run through
//! the job manager's ready pool and `DispatchPass` dispatcher, so any
//! change to pick order, placement or dispatch timing fails here. The
//! baseline file is the one copy of the pinned numbers: every case in
//! [`CASES`](exo_bench::gate::CASES) must have an entry, and every
//! metric it lists is checked.

use std::path::Path;

use exo_bench::gate::{compare, run_cases};
use exo_rt::trace::Json;

fn committed_baseline() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn gate_cases_match_the_committed_baseline_exactly() {
    let violations = compare(&run_cases(), &committed_baseline());
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
