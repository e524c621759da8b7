//! # exo-live — streaming, fixed-memory observability
//!
//! Where `exo-prof` analyzes a *retained* trace after the run, this
//! crate watches the trace stream *as it happens* through the sink's
//! [`Observer`] hook and keeps only fixed-size aggregates:
//!
//! - [`bounds`] — the workspace's one bound model: [`Bound`],
//!   [`classify`] and its threshold table, the dominant-bound rule and
//!   the FIFO transmit replay [`TxReplay`]. exo-prof's whole-run
//!   attribution and exo-watch's detectors use these primitives too.
//! - [`RollingBounds`] — sliding virtual-time window ([`WINDOW_US`] in
//!   [`WINDOW_BUCKETS`] buckets) of per-node
//!   cpu/disk/net/alloc-stall/idle attribution against [`NodeCaps`],
//!   queryable mid-run (the hook an adaptive placement policy needs).
//! - [`LatencySketches`] — deterministic log-bucketed histograms
//!   ([`QuantileSketch`]) of task durations, fetch-wait times, and
//!   queue delays: p50/p99/p999 without retaining events.
//! - [`MetricsSnapshot`] — the runtime folds both into a timestamped
//!   snapshot every `snapshot_interval_us` of virtual time, appended to
//!   a JSONL timeseries ([`LiveSeries`]).
//!
//! Memory is O(nodes × buckets + stages × buckets + sketch buckets),
//! independent of event count — it works with full trace retention off,
//! which is the point: CloudSort-scale runs cannot afford O(events)
//! anything.

pub mod bounds;
pub mod sketch;
pub mod snapshot;

pub use bounds::{
    classify, Bound, NodeWindow, RollingBounds, StageWindow, Transmit, TxReplay, WINDOW_BUCKETS,
    WINDOW_US,
};
pub use sketch::{BaselineSketch, LatencySketches, QuantileSketch, RELATIVE_ERROR};
pub use snapshot::{
    counters_from_json, counters_to_json, MetricsSnapshot, SketchStat, StageStat, TenantStat,
};

use std::sync::{Arc, Mutex};

use exo_sim::DeviceCaps;
#[allow(unused_imports)] // doc links
use exo_sim::NodeCaps;
use exo_trace::{Event, Json, Observer, TraceCounters};

/// Live-observability knobs, carried on `RtConfig` next to
/// `TraceConfig`. All times are virtual.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Interval between `MetricsSnapshot` emissions (µs).
    pub snapshot_interval_us: u64,
    /// Print a one-line progress summary at each snapshot (stderr).
    pub progress: bool,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            snapshot_interval_us: 250_000,
            progress: false,
        }
    }
}

/// The composite observer state: rolling bounds + latency sketches +
/// an independent counter fold (observers run under the sink lock and
/// cannot query the sink, so the fold is duplicated here — `apply` is
/// the same single definition either way).
#[derive(Debug)]
struct Recorder {
    bounds: RollingBounds,
    sketches: LatencySketches,
    counters: TraceCounters,
    last_counters: TraceCounters,
    snapshots: Vec<MetricsSnapshot>,
    progress: bool,
    /// Job → tenant, learned from [`exo_trace::JobEvent`]s.
    job_tenant: std::collections::HashMap<u32, u32>,
    /// Start time of in-flight tasks (removed at finish): bounded by
    /// task concurrency, not event count.
    started: std::collections::HashMap<u64, u64>,
    /// Cumulative per-tenant work. Jobs with no job event (pure
    /// single-job runs) bill tenant 0.
    by_tenant: std::collections::BTreeMap<u32, TenantStat>,
}

impl Recorder {
    fn observe(&mut self, ev: &Event) {
        self.counters.apply(&ev.kind);
        self.bounds.on_event(ev);
        self.sketches.on_event(ev);
        match &ev.kind {
            exo_trace::EventKind::Job(j) => {
                self.job_tenant.insert(j.job, j.tenant);
            }
            exo_trace::EventKind::Task(t) => match t.phase {
                exo_trace::TaskPhase::Started => {
                    self.started.insert(t.task, ev.at_us);
                }
                exo_trace::TaskPhase::Finished => {
                    let tenant = self.job_tenant.get(&t.job).copied().unwrap_or(0);
                    let stat = self.by_tenant.entry(tenant).or_insert(TenantStat {
                        tenant,
                        tasks_finished: 0,
                        exec_us: 0,
                    });
                    stat.tasks_finished += 1;
                    if let Some(start) = self.started.remove(&t.task) {
                        stat.exec_us += ev.at_us.saturating_sub(start);
                    }
                }
                _ => {}
            },
            exo_trace::EventKind::Object(_)
            | exo_trace::EventKind::Dep(_)
            | exo_trace::EventKind::FetchWait(_)
            | exo_trace::EventKind::Io(_)
            | exo_trace::EventKind::Resource(_)
            | exo_trace::EventKind::Failure(_)
            | exo_trace::EventKind::Incident(_) => {}
        }
    }

    fn take_snapshot(&mut self, at_us: u64) -> &MetricsSnapshot {
        let delta = self.counters.delta_since(&self.last_counters);
        self.last_counters = self.counters;
        let windows = self.bounds.stage_snapshot(at_us);
        let stages = self
            .sketches
            .stages()
            .into_iter()
            .map(|(label, sketch)| StageStat {
                label,
                finished: sketch.count(),
                window_busy_us: windows
                    .iter()
                    .find(|w| w.label == label)
                    .map(|w| w.busy_us)
                    .unwrap_or(0),
                exec: SketchStat::of(sketch),
            })
            .collect();
        // Emitted only in genuinely multi-tenant runs: single-tenant
        // timeseries stay byte-identical with pre-multi-job output.
        let tenants = if self.by_tenant.len() > 1 {
            self.by_tenant.values().copied().collect()
        } else {
            Vec::new()
        };
        self.snapshots.push(MetricsSnapshot {
            at_us,
            counters: self.counters,
            delta,
            nodes: self.bounds.snapshot(at_us),
            stages,
            tenants,
            task_us: SketchStat::of(&self.sketches.task_us),
            fetch_wait_us: SketchStat::of(&self.sketches.fetch_wait_us),
            queue_us: SketchStat::of(&self.sketches.queue_us),
        });
        self.snapshots.last().expect("just pushed")
    }
}

/// Handle to the live-observability state. One clone is boxed as the
/// sink observer; the runtime keeps another to drive snapshot ticks and
/// answer mid-run queries.
#[derive(Clone, Debug)]
pub struct LiveHandle {
    cfg: LiveConfig,
    inner: Arc<Mutex<Recorder>>,
}

struct LiveObserver(Arc<Mutex<Recorder>>);

impl Observer for LiveObserver {
    fn on_event(&mut self, ev: &Event) {
        self.0.lock().expect("live recorder poisoned").observe(ev);
    }
}

impl LiveHandle {
    pub fn new(cfg: LiveConfig, caps: &DeviceCaps) -> LiveHandle {
        let rec = Recorder {
            bounds: RollingBounds::new(caps, WINDOW_US, WINDOW_BUCKETS),
            sketches: LatencySketches::default(),
            counters: TraceCounters::default(),
            last_counters: TraceCounters::default(),
            snapshots: Vec::new(),
            progress: cfg.progress,
            job_tenant: std::collections::HashMap::new(),
            started: std::collections::HashMap::new(),
            by_tenant: std::collections::BTreeMap::new(),
        };
        LiveHandle {
            cfg,
            inner: Arc::new(Mutex::new(rec)),
        }
    }

    pub fn config(&self) -> &LiveConfig {
        &self.cfg
    }

    /// The observer half, for `TraceSink::register_observer`.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(LiveObserver(self.inner.clone()))
    }

    /// Takes a snapshot at virtual time `at_us` and appends it to the
    /// series. Returns the progress line when configured.
    pub fn tick(&self, at_us: u64) -> Option<String> {
        let mut rec = self.inner.lock().expect("live recorder poisoned");
        let progress = rec.progress;
        let snap = rec.take_snapshot(at_us);
        progress.then(|| snap.progress_line())
    }

    /// Mid-run query: the rolling per-node bound profile at `at_us`,
    /// without emitting a snapshot. This is the surface an adaptive
    /// `PlacementPolicy` consults.
    pub fn bounds_now(&self, at_us: u64) -> Vec<NodeWindow> {
        self.inner
            .lock()
            .expect("live recorder poisoned")
            .bounds
            .snapshot(at_us)
    }

    pub fn snapshot_count(&self) -> usize {
        self.inner
            .lock()
            .expect("live recorder poisoned")
            .snapshots
            .len()
    }

    /// Finalizes the series with one last snapshot at `end_us`. A tick
    /// that already fired at (or after) `end_us` is replaced so the
    /// series stays strictly monotonic with exactly one final line.
    pub fn finish(&self, end_us: u64) -> LiveSeries {
        let mut rec = self.inner.lock().expect("live recorder poisoned");
        while rec.snapshots.last().is_some_and(|s| s.at_us >= end_us) {
            let dropped = rec.snapshots.pop().expect("nonempty");
            // Fold the dropped line's delta back so the final delta
            // still telescopes to the cumulative counters.
            rec.last_counters = rec.last_counters.delta_since(&dropped.delta);
        }
        rec.take_snapshot(end_us);
        LiveSeries {
            interval_us: self.cfg.snapshot_interval_us,
            snapshots: std::mem::take(&mut rec.snapshots),
        }
    }
}

/// A finished run's snapshot timeseries.
#[derive(Debug, Clone)]
pub struct LiveSeries {
    pub interval_us: u64,
    pub snapshots: Vec<MetricsSnapshot>,
}

impl LiveSeries {
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Cumulative counters of the last snapshot — equals the run's
    /// `RtMetrics` counters exactly.
    pub fn final_counters(&self) -> TraceCounters {
        self.snapshots
            .last()
            .map(|s| s.counters)
            .unwrap_or_default()
    }

    /// Sums every snapshot's `delta` — must reproduce
    /// [`LiveSeries::final_counters`] exactly (the telescoping
    /// property the integration tests pin).
    pub fn fold_deltas(&self) -> TraceCounters {
        let mut c = TraceCounters::default();
        for s in &self.snapshots {
            c.add(&s.delta);
        }
        c
    }

    /// One JSON object per line, ready for `--live <path>`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_json().render());
            out.push('\n');
        }
        out
    }

    /// The end-of-run summary block embedded under `"live"` in bench
    /// results files.
    pub fn summary_json(&self) -> Json {
        let last = self.snapshots.last();
        let mut doc = Json::obj()
            .set("snapshots", self.len())
            .set("interval_us", self.interval_us)
            .set("window_us", WINDOW_US)
            .set("final_counters", counters_to_json(&self.final_counters()));
        if let Some(s) = last {
            doc = doc
                .set("end_us", s.at_us)
                .set("task_p50_us", s.task_us.p50_us)
                .set("task_p99_us", s.task_us.p99_us)
                .set("task_p999_us", s.task_us.p999_us)
                .set("fetch_wait_p99_us", s.fetch_wait_us.p99_us)
                .set("queue_p99_us", s.queue_us.p99_us)
                .set(
                    "dominant_bounds",
                    Json::Arr(
                        s.nodes
                            .iter()
                            .map(|n| Json::Str(n.dominant.name().to_string()))
                            .collect(),
                    ),
                );
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sim::NodeCaps;
    use exo_trace::{EventKind, IoDir, IoEvent, ObjectEvent, ObjectPhase, TraceSink};

    fn caps() -> DeviceCaps {
        DeviceCaps::uniform(
            NodeCaps {
                cpu_slots: 8,
                disk_seq_bw: 1e9,
                disk_random_iops: 1500.0,
                disk_devices: 6,
                nic_bw: 1e9,
                store_bytes: 1_000_000,
            },
            2,
        )
    }

    #[test]
    fn handle_observes_through_a_retentionless_sink() {
        let handle = LiveHandle::new(LiveConfig::default(), &caps());
        let sink = TraceSink::disabled();
        sink.register_observer(handle.observer());
        sink.set_now(10);
        sink.emit(EventKind::Object(ObjectEvent {
            object: 1,
            phase: ObjectPhase::Transferred,
            node: 1,
            src: Some(0),
            bytes: 128,
        }));
        sink.set_now(20);
        sink.emit(EventKind::Io(IoEvent {
            node: 0,
            dir: IoDir::Write,
            bytes: 64,
        }));
        assert!(sink.is_empty(), "no retention");
        handle.tick(100);
        let series = handle.finish(200);
        assert_eq!(series.len(), 2);
        let fin = series.final_counters();
        assert_eq!(fin.net_bytes, 128);
        assert_eq!(fin.disk_write_bytes, 64);
        assert_eq!(fin, sink.counters(), "observer fold matches sink fold");
        assert_eq!(series.fold_deltas(), fin, "deltas telescope");
    }

    #[test]
    fn finish_replaces_coincident_tick_and_stays_monotonic() {
        let handle = LiveHandle::new(LiveConfig::default(), &caps());
        handle.tick(100);
        handle.tick(200);
        let series = handle.finish(200);
        assert_eq!(series.len(), 2);
        assert!(series.snapshots.windows(2).all(|w| w[0].at_us < w[1].at_us));
        assert_eq!(series.snapshots.last().expect("final").at_us, 200);
        assert_eq!(series.fold_deltas(), series.final_counters());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_counters() {
        let handle = LiveHandle::new(LiveConfig::default(), &caps());
        let sink = TraceSink::disabled();
        sink.register_observer(handle.observer());
        for i in 0..5u64 {
            sink.set_now(i * 100);
            sink.emit(EventKind::Io(IoEvent {
                node: 0,
                dir: IoDir::Read,
                bytes: 10,
            }));
            // Like the runtime's LiveSnapshot arm: settle the sink's
            // pending block before snapshotting observer-fed state.
            sink.flush();
            handle.tick(i * 100 + 50);
        }
        let series = handle.finish(1000);
        let jsonl = series.to_jsonl();
        let mut folded = TraceCounters::default();
        let mut last_at = None;
        for line in jsonl.lines() {
            let j = Json::parse(line).expect("line parses");
            let at = j.get("at_us").and_then(Json::as_f64).expect("at_us") as u64;
            assert!(last_at.is_none_or(|p| at > p), "strictly monotonic");
            last_at = Some(at);
            folded
                .add(&counters_from_json(j.get("delta").expect("delta")).expect("delta counters"));
        }
        assert_eq!(folded, series.final_counters());
        assert_eq!(folded.disk_read_bytes, 50);
        let summary = series.summary_json();
        assert_eq!(
            summary.get("snapshots").and_then(Json::as_f64),
            Some(series.len() as f64)
        );
    }
}
