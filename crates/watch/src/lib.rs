//! # exo-watch — online incident detection over the trace stream
//!
//! A fixed-memory anomaly detector over the trace stream. It keeps no
//! rolling state of its own: the runtime's one sink observer feeds one
//! [`Fold`](exo_live::Fold) — the [`RollingBounds`](exo_live::RollingBounds)
//! ring (which also carries the windowed spill bytes), the per-stage
//! quantile sketches, the queue-delay sketch, the tenant tally and the
//! in-flight task table — and hands each event to the [`Recorder`]
//! first. Five streaming detectors judge that fold and turn it into
//! typed [`Incident`]s:
//!
//! - **stragglers** — a running task's elapsed execution exceeds
//!   k× its stage's live p50 while enough peers have finished;
//! - **disk / net hotspots** — one node's rolling busy fraction pins
//!   above a threshold for a sustained interval while the cluster
//!   median stays low;
//! - **spill storms** — windowed spill+fallback bytes on one node cross
//!   a store-pressure threshold (a multiple of the node's store);
//! - **queue-delay blowups** — the windowed queue-delay p99 drifts k×
//!   above the run-so-far baseline
//!   ([`BaselineSketch`](exo_live::BaselineSketch));
//! - **reconstruction cascades** — lineage resubmits within a window
//!   after a failure exceed the failure's direct-loss set.
//!
//! ## Determinism
//!
//! Detection is driven *entirely by event timestamps*: detectors are
//! evaluated when the event stream crosses a virtual-time evaluation
//! boundary (every [`EVAL_INTERVAL_US`]), never from the
//! runtime's tick cadence or wall clock. Two runs that produce the same
//! event stream therefore produce bit-identical incident sets — ids,
//! open/close times, and severities included. All cross-incident
//! iteration orders are explicitly sorted so ids never depend on hash
//! order.
//!
//! The runtime drains open/close transitions out of the recorder and
//! re-emits them into the trace sink as
//! [`EventKind::Incident`](exo_trace::EventKind::Incident) events
//! (observers must not call back into the sink themselves), so
//! incidents land in the Chrome trace's `incidents` track and the live
//! JSONL stream as first-class events. The observer skips them: they
//! are detector output, never input.

pub mod detect;

pub use detect::Recorder;

use exo_trace::{IncidentEvent, IncidentKind, Json};

// Detector thresholds. All times are virtual-time microseconds. They
// are tuned so the pinned healthy benchmark cases (including the
// deliberately out-of-core `sort_hdd_small`) fire **zero** incidents
// while the pinned fault case fires a small, stable set. Every windowed
// detector reads exo-live's shared rolling window,
// `exo_live::WINDOW_US` in `exo_live::WINDOW_BUCKETS` buckets.

/// Virtual-time interval between detector evaluations. Boundaries are
/// crossed by event timestamps, so this does not change *what* the
/// detectors see — only how often conditions are tested.
pub const EVAL_INTERVAL_US: u64 = 100_000;
/// Straggler: elapsed execution must exceed this multiple of the
/// stage's live p50.
pub const STRAGGLER_RATIO: f64 = 3.0;
/// Straggler: suppress until this many peers of the same stage have
/// finished (the p50 is meaningless before that).
pub const STRAGGLER_MIN_PEERS: u64 = 4;
/// Straggler: absolute floor on the elapsed-time threshold, so short
/// uniform stages never flag.
pub const STRAGGLER_MIN_US: u64 = 500_000;
/// Hotspot: windowed device utilisation that counts as pinned.
pub const HOTSPOT_UTIL: f64 = 0.9;
/// Hotspot: the cluster median utilisation must be at or below this for
/// the pinned node to count as an outlier.
pub const HOTSPOT_MEDIAN_UTIL: f64 = 0.45;
/// Hotspot: the outlier condition must hold this long before an
/// incident opens.
pub const HOTSPOT_MIN_US: u64 = 1_500_000;
/// Spill storm: windowed spill+fallback bytes on a node must exceed this
/// multiple of the node's store capacity. 8× is calibrated against the
/// pinned spill-path gate case, which churns ~6.3× its deliberately
/// undersized store per window at peak in steady state: designed-in
/// spilling is normal, a storm is the store turning over many times
/// faster than even that.
pub const SPILL_WINDOW_FRAC: f64 = 8.0;
/// Queue blowup: windowed queue-delay p99 must exceed this multiple of
/// the run-so-far baseline p99.
pub const QUEUE_RATIO: f64 = 4.0;
/// Queue blowup: both window and baseline need this many samples.
pub const QUEUE_MIN_COUNT: u64 = 64;
/// Queue blowup: floor on the baseline p99, so microsecond-scale
/// baselines don't make ordinary jitter look like a blowup.
pub const QUEUE_MIN_US: u64 = 50_000;
/// Cascade: lineage resubmits are attributed to a failure for this long
/// after it.
pub const CASCADE_WINDOW_US: u64 = 5_000_000;

/// Incident-detection knobs, carried on `RtConfig`; the detector
/// thresholds are the constants above.
#[derive(Debug, Clone, Default)]
pub struct WatchConfig {
    /// Per-tenant concurrent CPU-slot quotas `(tenant, slots)`. At each
    /// evaluation boundary a tenant running more tasks than its quota
    /// opens an [`IncidentKind::IsolationViolation`]. Empty (the
    /// default) disables the detector.
    pub tenant_slot_quotas: Vec<(u32, u32)>,
}

/// One detected incident: a typed interval with scope and evidence.
/// `value` and `severity` track the *peak* observation while open.
#[derive(Debug, Clone, Copy)]
pub struct Incident {
    /// Unique within a run; pairs the open/close trace events.
    pub id: u32,
    pub kind: IncidentKind,
    pub t_open_us: u64,
    /// `None` while still open; [`Recorder::finish`] force-closes
    /// every open incident at the run's end time.
    pub t_close_us: Option<u64>,
    pub node: Option<u32>,
    pub stage: Option<&'static str>,
    pub task: Option<u64>,
    /// Tenant scope, for multi-tenant isolation incidents.
    pub tenant: Option<u32>,
    /// Peak observed value, in the detector's native unit.
    pub value: f64,
    /// The threshold the value is measured against.
    pub threshold: f64,
    /// Peak `value / threshold`.
    pub severity: f64,
}

impl Incident {
    /// The close-time used for reporting: the close edge, required.
    fn close_us(&self) -> u64 {
        self.t_close_us.unwrap_or(self.t_open_us)
    }

    /// Serialises one incident for the results document.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("id", u64::from(self.id))
            .set("kind", self.kind.name())
            .set("t_open_us", self.t_open_us)
            .set("t_close_us", self.close_us())
            .set("value", self.value)
            .set("threshold", self.threshold)
            .set("severity", self.severity);
        if let Some(node) = self.node {
            j = j.set("node", node);
        }
        if let Some(stage) = self.stage {
            j = j.set("stage", stage);
        }
        if let Some(task) = self.task {
            j = j.set("task", task);
        }
        if let Some(tenant) = self.tenant {
            j = j.set("tenant", tenant);
        }
        j
    }
}

/// The finished run's incident set, ordered by open time (id order).
#[derive(Debug, Clone, Default)]
pub struct WatchReport {
    pub incidents: Vec<Incident>,
}

impl WatchReport {
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// Incident counts per kind, in [`IncidentKind::ALL`] order,
    /// omitting zero entries.
    pub fn by_kind(&self) -> Vec<(IncidentKind, usize)> {
        IncidentKind::ALL
            .into_iter()
            .map(|k| (k, self.incidents.iter().filter(|i| i.kind == k).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// The `"incidents"` block for `results/<name>.json`.
    pub fn to_json(&self) -> Json {
        let mut by_kind = Json::obj();
        for (k, n) in self.by_kind() {
            by_kind = by_kind.set(k.name(), n);
        }
        Json::obj()
            .set("total", self.incidents.len())
            .set("by_kind", by_kind)
            .set(
                "incidents",
                Json::from(
                    self.incidents
                        .iter()
                        .map(Incident::to_json)
                        .collect::<Vec<_>>(),
                ),
            )
    }
}

/// A `[watch]` progress line for one incident transition, matching the
/// `[live]` line style so `--live-progress` interleaves cleanly.
pub fn progress_line(at_us: u64, ev: &IncidentEvent) -> String {
    let mut s = format!(
        "[watch] t={:.3}s {} {} sev={:.2}",
        at_us as f64 / 1e6,
        ev.kind.name(),
        if ev.open { "open" } else { "close" },
        ev.severity,
    );
    if let Some(node) = ev.node {
        s.push_str(&format!(" node={node}"));
    }
    if let Some(stage) = ev.stage {
        s.push_str(&format!(" stage={stage}"));
    }
    if let Some(task) = ev.task {
        s.push_str(&format!(" task={task}"));
    }
    if let Some(tenant) = ev.tenant {
        s.push_str(&format!(" tenant={tenant}"));
    }
    s
}
