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
//! | `cloudsort` | CloudSort cost: $/TB per shuffle variant and the Spark baselines |
//! | `cloudsort_xl` | Engine at CloudSort geometry: 100 nodes, rerun bit-identity, scaling |
//!
//! All binaries accept `--quick` to shrink the sweep for smoke-testing
//! (see [`Scale`]). The sort figures whose table has one row per case
//! are case lists run by [`figure::run`], which renders each table from
//! the JSON rows it writes to `results/<name>.json`. Criterion
//! microbenches for the hot kernels live under `benches/`.

pub mod figure;
pub mod gate;
pub mod obs;
pub mod profdiff;
pub mod runs;
pub mod service;
pub mod table;
pub mod xl;

pub use figure::Scale;
pub use obs::{
    export_trace_with_caps, instrument, live_flag, obs_not_applicable, sort_result_json,
    without_trace, write_results, Obs,
};
pub use runs::{
    peak_rss_bytes, perf_json, run_es_sort, timed_run, timed_run_service, EsSortParams,
    SortRunResult,
};
pub use service::{run_multitenant, MtJobPlan, MtKind, MtParams, MtReport};
pub use table::Table;
