//! # exo-agg — online aggregation on a pageview workload (§5.2.1)
//!
//! Reproduces the paper's Wikipedia-pageview experiment: aggregate the
//! per-language view distribution (and top pages) over a large log, either
//! as one batch shuffle or as a *streaming* shuffle that surfaces partial
//! results every round. Quality of partial results is measured with the
//! same KL-divergence metric the paper uses
//! (`D_KL = Σ p·log(p/p̂)` over the true vs. estimated statistic).
//!
//! Substitution (per DESIGN.md): the 1 TB Wikipedia dump is replaced by a
//! deterministic zipf-distributed synthetic pageview generator — zipf
//! preserves the property that partial aggregates converge quickly toward
//! the true distribution, which is what Fig 5 demonstrates.

pub mod metrics;
pub mod runner;
pub mod workload;

pub use metrics::{kl_divergence, lang_distribution};
pub use runner::{regular_aggregation, streaming_aggregation, AggConfig, RoundSample};
pub use workload::{decode_entries, pageview_job, PageviewSpec, ENTRY_BYTES, NUM_LANGS};
