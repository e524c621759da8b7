//! # exo-bench — experiment harness regenerating every table and figure
//!
//! One binary per paper artefact (run with `cargo run --release -p
//! exo-bench --bin figXX`):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig4a` | 1 TB sort on 10 HDD nodes, JCT vs #partitions |
//! | `fig4b` | 1 TB sort on 10 SSD nodes |
//! | `fig4c` | In-memory sort on 10 SSD nodes (simple vs push*) |
//! | `fig4d` | 100 TB sort on 100 HDD nodes vs Spark / Spark-push |
//! | `fig4_ft` | Failure-injection runs (the semi-shaded bars) |
//! | `table1` | Lines-of-code comparison |
//! | `fig5` | Online aggregation progress + partial-result error |
//! | `fig6` | Dask vs Ray single-node DataFrame sort |
//! | `fig7` | Spill fusing + argument-prefetch microbenchmark |
//! | `fig8` | Single-node ML training (Exoshuffle vs Petastorm) |
//! | `fig9` | 4-node distributed training (full vs partial shuffle) |
//! | `ablations` | Design-choice ablations called out in DESIGN.md |
//! | `hetero` | Heterogeneous presets: mixed HDD+SSD sort, g4dn+r6i ML loader |
//! | `multitenant` | Shuffle-as-a-service: open-loop multi-tenant job stream |
//!
//! All binaries accept `--quick` to shrink the sweep for smoke-testing;
//! EXPERIMENTS.md records full-run outputs. Criterion microbenches for the
//! hot kernels live under `benches/`.

pub mod gate;
pub mod obs;
pub mod profdiff;
pub mod runs;
pub mod service;
pub mod table;
pub mod xl;

pub use obs::{
    claim_obs, export_trace_with_caps, live_flag, obs_not_applicable, sort_result_json,
    without_trace, write_results, Obs,
};
pub use runs::{
    peak_rss_bytes, perf_json, run_es_sort, run_es_sort_on, timed_run, timed_run_service,
    EsSortParams, SortRunResult,
};
pub use service::{run_multitenant, MtJobPlan, MtKind, MtParams, MtReport};
pub use table::Table;

/// True when `--quick` was passed (shrunken sweeps for smoke tests).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
