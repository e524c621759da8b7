//! # exo-rt — a distributed-futures runtime (the shuffle data plane)
//!
//! This crate is the Ray-like substrate the paper's shuffle libraries run
//! on: a distributed-futures system with
//!
//! - **tasks** returning one or more [`ObjectRef`]s (§3.1), including
//!   remote-generator semantics (§4.3.1);
//! - a per-node **shared-memory object store** (via `exo-store`) with
//!   transparent spilling, restore, and fused writes (§4.2);
//! - **pipelined argument fetching** that overlaps I/O with execution
//!   (§4.2.2, ablated in Fig 7);
//! - **locality-aware, node-affinity and spread scheduling** (§4.3.2);
//! - **reference counting** of distributed futures, so dropping refs
//!   reduces write amplification (ES-push*'s `del`, §4.3.1);
//! - **lineage reconstruction** for fault tolerance (§4.2.3): lost objects
//!   are rebuilt by re-running their producer tasks.
//!
//! The runtime executes *real* task closures (real bytes flow through the
//! object table and come back out of `get`), but time is virtual: every
//! CPU, disk and network cost is charged against `exo-sim` device models.
//! Payloads carry a `logical` size that may exceed the real byte count, so
//! terabyte-scale experiments run with kilobyte-scale payloads while all
//! accounting (store capacity, spill volume, transfer time) happens at
//! paper scale.
//!
//! ## Quick start
//!
//! ```
//! use exo_rt::{RtConfig, Payload, TaskCtx};
//! use exo_sim::{ClusterSpec, NodeSpec};
//! use bytes::Bytes;
//!
//! let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4));
//! let (report, answer) = exo_rt::run(cfg, |rt| {
//!     // A task that doubles a number.
//!     let double = |ctx: TaskCtx| {
//!         let x = ctx.args[0].data[0];
//!         vec![Payload::inline(Bytes::from(vec![x * 2]))]
//!     };
//!     let refs = rt.task(double).arg_inline(Bytes::from(vec![21u8])).submit();
//!     rt.get(&refs).unwrap()[0].data[0]
//! });
//! assert_eq!(answer, 42);
//! assert!(report.end_time.as_secs_f64() >= 0.0);
//! ```

pub mod arena;
mod command;
mod compute;
mod directory;
mod driver;
mod ids;
mod jobs;
mod metrics;
mod object;
mod observe;
mod runtime;
mod scheduler;
mod task;

pub use command::RtError;
pub use driver::{
    run, run_service, JobHandle, JobResult, RtHandle, RunReport, ServiceHandle, TaskBuilder,
};
pub use ids::{JobId, NodeId, ObjectId, TaskId, TenantId};
pub use jobs::{JobParams, TenantQuota};
pub use metrics::{EngineTables, RtMetrics};
pub use object::{ObjectRef, Payload};
pub use observe::RunObserver;
pub use runtime::RtConfig;
pub use scheduler::{
    policy_from_name, BoundAware, Hybrid, LoadBalance, NodeSnapshot, Placed, PlacementPolicy,
};
pub use task::{CpuCost, SchedulingStrategy, TaskCtx, TaskOptions, TaskShape};

/// Re-export of the tracing crate so applications can configure and
/// consume traces without a separate dependency.
pub use exo_trace as trace;
pub use exo_trace::TraceConfig;

/// Re-export of the live-observability crate: configure streaming
/// snapshots via [`RtConfig::live`](crate::RtConfig) and consume the
/// resulting [`LiveSeries`](exo_live::LiveSeries) from `RunReport`.
pub use exo_live as live;
pub use exo_live::LiveConfig;

/// Re-export of the incident-detection crate: configure online
/// detectors via [`RtConfig::watch`](crate::RtConfig) and consume the
/// resulting [`WatchReport`](exo_watch::WatchReport) from `RunReport`
/// (or query [`RtHandle::incidents_now`] mid-run).
pub use exo_watch as watch;
pub use exo_watch::WatchConfig;
