//! # exo-trace — structured event tracing for the Exoshuffle stack
//!
//! A zero-cost-when-disabled event sink plus exporters, threaded through
//! the three layers that own the facts:
//!
//! - **exo-rt** emits the task lifecycle ([`TaskSpan`]: scheduled →
//!   dequeued → started → finished, with the scheduler's
//!   [`PlaceReason`]), object-plane events ([`ObjectEvent`]: created /
//!   transferred / reconstructed), raw disk I/O ([`IoEvent`]), failures,
//!   and periodic per-node [`ResourceSample`]s.
//! - **exo-store** emits the spill path (spilled / restored / fallback /
//!   evicted).
//! - **exo-sim** contributes device introspection (queue depth, bytes in
//!   flight) and renders the sink's recent-event ring into deadlock
//!   reports.
//!
//! The sink *always* folds events into [`TraceCounters`] — the single
//! source of truth behind `RtMetrics` — and keeps a tiny ring for
//! deadlock dumps; the full stream is retained only when
//! [`TraceConfig::enabled`] is set. Two exporters consume the stream:
//! [`chrome_trace_json`] (load in `chrome://tracing` or Perfetto; one
//! process per node, per-slot task lanes, one counter track per
//! node×resource) and [`jsonl_string`] (one JSON object per line).
//! [`summarize`] renders the end-of-run text report.

pub mod chrome;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod sink;
pub mod summary;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use event::{
    DepEvent, DepKind, Event, EventKind, FailureEvent, FailureKind, FetchWaitEvent, IncidentEvent,
    IncidentKind, IoDir, IoEvent, JobEvent, JobPhase, ObjectEvent, ObjectPhase, PlaceReason,
    Placement, ResourceSample, TaskPhase, TaskSpan,
};
pub use json::Json;
pub use jsonl::{jsonl_string, write_jsonl};
pub use sink::{Observer, TraceConfig, TraceCounters, TraceSink, RESOURCE_SAMPLE_US};
pub use summary::NodeCapacityLine;
pub use summary::{summarize, TraceSummary};
