//! # exo-prof — offline profiler for exo-trace streams
//!
//! Answers the three questions an Exoshuffle run report should open
//! with, all derived from the retained [`exo_trace::Event`] stream:
//!
//! 1. **What gated completion?** [`critical_path`] reconstructs the
//!    task/object dependency DAG from `Dep` edges and walks the
//!    longest-weighted chain backwards from the last task to finish,
//!    breaking each critical task into queue / staging / exec /
//!    fetch-wait time. [`longest_paths`] sharpens this with a DP-exact
//!    longest chain over all finished attempts plus slack-ranked
//!    near-critical chains for what-if analysis.
//! 2. **What was the run bound by?** [`attribute_all`] slices the run
//!    into intervals and classifies each as cpu / disk / net /
//!    alloc-stall / idle against the hardware capacities in
//!    [`exo_sim::DeviceCaps`], for the cluster and for each node,
//!    yielding a bound profile like `disk 61% / net 22% / cpu 9%`. The
//!    bound model itself ([`Bound`], the thresholds, the classification
//!    rule and the transmit replay) is exo-live's, shared with the live
//!    window.
//! 3. **Were there stragglers or skew?** [`stage_stats`] reports
//!    p50/p99/max execution time and output-bytes skew per stage label.
//! 4. **Did the scheduler place tasks well?** [`placement_quality`]
//!    replays object locations and charges each placement decision with
//!    the argument bytes it moved and the share a better-placed node
//!    would have kept local.
//!
//! [`profile`] bundles all three into a [`ProfileReport`] with a text
//! rendering and a JSON embedding; the bench bins expose it behind
//! `--profile`, and `bench_gate` regresses its headline metrics.

pub mod attribution;
pub mod critpath;
pub mod jobs;
pub mod placement;
pub mod report;
pub mod stages;

pub use attribution::{attribute_all, Bound, BoundProfile, Interval};
pub use critpath::{critical_path, longest_paths, CritPath, CritTask, NearPath, PathAnalysis};
pub use jobs::{job_stats, JobStat};
pub use placement::{placement_quality, PlacementQuality};
pub use report::{profile, ProfileReport};
pub use stages::{stage_stats, StageStats};
