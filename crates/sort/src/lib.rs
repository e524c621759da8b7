//! # exo-sort — the Sort Benchmark workload (TeraSort / CloudSort)
//!
//! The paper's headline experiments (§5.1) run the Sort Benchmark:
//! gensort-style synthetic data of 100-byte records with 10-byte keys,
//! shuffled into globally sorted output. This crate provides
//!
//! - deterministic record generation ([`record`]),
//! - a uniform range partitioner over 10-byte keys ([`partition`]),
//! - copy-once sort, sort-and-cut and k-way-merge kernels ([`kernel`]),
//! - a [`ShuffleJob`](exo_shuffle::ShuffleJob) builder wiring these into
//!   any Exoshuffle variant at a configurable *scale factor* — real
//!   payloads are `1/scale` of logical size so 100 TB runs fit in memory
//!   while all performance accounting stays at full scale ([`job`]),
//! - valsort-style output validation ([`validate`]).

pub mod cost;
pub mod job;
pub mod kernel;
pub mod partition;
pub mod record;
pub mod validate;

pub use cost::{run_cost_usd, usd_per_tb, InstancePrice, D3_2XLARGE};
pub use job::{sort_job, SortSpec};
pub use kernel::{kway_merge, sort_and_cut, sort_records};
pub use partition::RangePartitioner;
pub use record::{gen_records, RECORD_SIZE};
pub use validate::{validate_sorted, SortCheck};
