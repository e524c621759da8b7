//! # exo-live — streaming, fixed-memory observability
//!
//! Where `exo-prof` analyzes a *retained* trace after the run, this
//! crate watches the trace stream *as it happens* through the sink's
//! [`Observer`](exo_trace::Observer) hook and keeps only fixed-size
//! aggregates:
//!
//! - [`bounds`] — the workspace's one bound model: [`Bound`],
//!   [`classify`] and its threshold table, the dominant-bound rule and
//!   the FIFO transmit replay [`TxReplay`]. exo-prof's whole-run
//!   attribution and exo-watch's detectors use these primitives too.
//! - [`Fold`] — the one streaming fold the runtime's observer feeds:
//!   the in-flight task table, the per-tenant tally, a
//!   [`RollingBounds`] window ([`WINDOW_US`] in [`WINDOW_BUCKETS`]
//!   buckets of per-node cpu/disk/net/alloc-stall/idle attribution
//!   against [`NodeCaps`]) and deterministic log-bucketed
//!   [`QuantileSketch`]es of task durations, fetch-wait times and queue
//!   delays: p50/p99/p999 without retaining events. exo-watch's
//!   detectors read the same fold.
//! - [`MetricsSnapshot`] — the runtime snapshots the fold, with the
//!   sink's counters, every [`SNAPSHOT_INTERVAL_US`] of virtual time into
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
pub use sketch::{BaselineSketch, QuantileSketch, RELATIVE_ERROR};
pub use snapshot::{
    counters_from_json, counters_to_json, MetricsSnapshot, SketchStat, StageStat, TenantStat,
};

use std::collections::{BTreeMap, HashMap};

use exo_sim::DeviceCaps;
#[allow(unused_imports)] // doc links
use exo_sim::NodeCaps;
use exo_trace::{Event, EventKind, Json, TaskPhase, TraceCounters};

/// Virtual-time interval between `MetricsSnapshot` emissions (250 ms).
pub const SNAPSHOT_INTERVAL_US: u64 = 250_000;

/// Live-observability knobs, carried on `RtConfig` next to
/// `TraceConfig`.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Print a one-line progress summary at each snapshot (stderr).
    pub progress: bool,
}

/// One task the stream has scheduled and not yet finished.
#[derive(Debug, Clone, Copy)]
pub struct TaskState {
    /// Where it was scheduled, then where it started.
    pub node: u32,
    pub label: &'static str,
    /// Owning job.
    pub job: u32,
    pub scheduled_us: u64,
    pub started_us: Option<u64>,
}

/// The one streaming fold both views read: exo-live snapshots it at
/// each tick and exo-watch's detectors judge it at each evaluation
/// boundary. It holds the in-flight task table, the job → tenant map,
/// the per-tenant tally, the [`RollingBounds`] window and the latency
/// sketches. Counters are not folded here: the sink already folds them
/// ([`exo_trace::TraceSink::counters`]).
///
/// Memory is O(nodes × buckets + stages × buckets + in-flight tasks),
/// independent of run length.
#[derive(Debug)]
pub struct Fold {
    bounds: RollingBounds,
    tasks: HashMap<u64, TaskState>,
    job_tenant: HashMap<u32, u32>,
    /// Cumulative per-tenant work. Jobs with no job event (pure
    /// single-job runs) bill tenant 0.
    tenants: BTreeMap<u32, TenantStat>,
    /// Execution time (`Finished − Started`) across all tasks.
    task_us: QuantileSketch,
    /// Per-stage execution time.
    stages: HashMap<&'static str, QuantileSketch>,
    /// Argument fetch-wait intervals (remote fetch / restore / rebuild).
    fetch_wait_us: QuantileSketch,
    /// Open fetch-waits: (task, object) → begin time.
    open_fetch: HashMap<(u64, u64), u64>,
    /// Queue delay (`Dequeued − Scheduled`). exo-watch rotates its
    /// window into the baseline; the live view reads the merge of both,
    /// which is the cumulative sketch exactly.
    queue_us: BaselineSketch,
}

impl Fold {
    pub fn new(caps: &DeviceCaps) -> Fold {
        Fold {
            bounds: RollingBounds::new(caps, WINDOW_US, WINDOW_BUCKETS),
            tasks: HashMap::new(),
            job_tenant: HashMap::new(),
            tenants: BTreeMap::new(),
            task_us: QuantileSketch::new(),
            stages: HashMap::new(),
            fetch_wait_us: QuantileSketch::new(),
            open_fetch: HashMap::new(),
            queue_us: BaselineSketch::new(),
        }
    }

    /// Folds one event.
    pub fn apply(&mut self, ev: &Event) {
        self.bounds.on_event(ev);
        match &ev.kind {
            EventKind::Task(t) => match t.phase {
                TaskPhase::Scheduled => {
                    let old = self.tasks.insert(
                        t.task,
                        TaskState {
                            node: t.node,
                            label: t.label,
                            job: t.job,
                            scheduled_us: ev.at_us,
                            started_us: None,
                        },
                    );
                    // A reschedule (failure re-run or lineage resubmit)
                    // supersedes the old attempt; one that had started
                    // never gets a Finished edge, so release its slot.
                    if let Some(o) = old.filter(|o| o.started_us.is_some()) {
                        let stat = self.tenant_mut(o.job);
                        stat.running = stat.running.saturating_sub(1);
                    }
                }
                TaskPhase::Dequeued => {
                    if let Some(st) = self.tasks.get(&t.task) {
                        self.queue_us
                            .record(ev.at_us.saturating_sub(st.scheduled_us));
                    }
                }
                TaskPhase::Started => {
                    if let Some(st) = self.tasks.get_mut(&t.task) {
                        st.node = t.node;
                        st.started_us = Some(ev.at_us);
                        let job = st.job;
                        self.tenant_mut(job).running += 1;
                    }
                }
                TaskPhase::Finished => {
                    self.tenant_mut(t.job).tasks_finished += 1;
                    let Some(st) = self.tasks.remove(&t.task) else {
                        return;
                    };
                    let Some(started) = st.started_us else {
                        return;
                    };
                    let d = ev.at_us.saturating_sub(started);
                    self.bounds.on_stage_exec(st.label, started, ev.at_us);
                    self.task_us.record(d);
                    self.stages.entry(st.label).or_default().record(d);
                    let stat = self.tenant_mut(st.job);
                    stat.exec_us += d;
                    stat.running = stat.running.saturating_sub(1);
                }
            },
            EventKind::FetchWait(f) => {
                if f.begin {
                    self.open_fetch.insert((f.task, f.object), ev.at_us);
                } else if let Some(b) = self.open_fetch.remove(&(f.task, f.object)) {
                    self.fetch_wait_us.record(ev.at_us.saturating_sub(b));
                }
            }
            EventKind::Job(j) => {
                // Any lifecycle edge ties the job to its tenant; the
                // Admitted edge is the first one the runtime emits.
                self.job_tenant.insert(j.job, j.tenant);
            }
            // Device occupancy is the bounds' business (handled above);
            // deps, failures and incident edges feed nothing here.
            // Enumerated so a new variant is a compile error.
            EventKind::Object(_)
            | EventKind::Dep(_)
            | EventKind::Io(_)
            | EventKind::Resource(_)
            | EventKind::Failure(_)
            | EventKind::Incident(_) => {}
        }
    }

    /// `job`'s tenant's tally. Jobs with no job event bill tenant 0.
    fn tenant_mut(&mut self, job: u32) -> &mut TenantStat {
        let tenant = self.job_tenant.get(&job).copied().unwrap_or(0);
        self.tenants.entry(tenant).or_insert(TenantStat {
            tenant,
            tasks_finished: 0,
            exec_us: 0,
            running: 0,
        })
    }

    /// Tasks `tenant` has started and not yet finished.
    pub fn running(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |s| s.running)
    }

    /// The rolling per-node / per-stage bound window.
    pub fn bounds(&self) -> &RollingBounds {
        &self.bounds
    }

    /// In-flight tasks by id.
    pub fn tasks(&self) -> &HashMap<u64, TaskState> {
        &self.tasks
    }

    /// Run-so-far execution-time sketch of one stage.
    pub fn stage_exec(&self, label: &str) -> Option<&QuantileSketch> {
        self.stages.get(label)
    }

    pub fn queue_us(&self) -> &BaselineSketch {
        &self.queue_us
    }

    /// Folds the queue-delay window into its baseline (exo-watch's
    /// drift detector, after judging a window). The live view reads
    /// baseline ⊕ window, which no rotation changes.
    pub fn rotate_queue(&mut self) {
        self.queue_us.rotate();
    }

    /// The snapshot line at `at_us`, with the sink's cumulative
    /// `counters` and their `delta` since the previous line.
    pub fn snapshot(
        &self,
        at_us: u64,
        counters: TraceCounters,
        delta: TraceCounters,
    ) -> MetricsSnapshot {
        let windows = self.bounds.stage_snapshot(at_us);
        let mut stages: Vec<StageStat> = self
            .stages
            .iter()
            .map(|(&label, sketch)| StageStat {
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
        stages.sort_by_key(|s| s.label);
        // Only tenants with finished work count, and the block is
        // emitted only in genuinely multi-tenant runs: single-tenant
        // timeseries stay byte-identical with pre-multi-job output.
        let mut tenants: Vec<TenantStat> = self
            .tenants
            .values()
            .filter(|s| s.tasks_finished > 0)
            .copied()
            .collect();
        if tenants.len() < 2 {
            tenants.clear();
        }
        MetricsSnapshot {
            at_us,
            counters,
            delta,
            nodes: self.bounds.snapshot(at_us),
            stages,
            tenants,
            task_us: SketchStat::of(&self.task_us),
            fetch_wait_us: SketchStat::of(&self.fetch_wait_us),
            queue_us: SketchStat::of(&self.queue_us.cumulative()),
        }
    }
}

/// A run's snapshot timeseries: one line per [`SNAPSHOT_INTERVAL_US`]
/// tick, closed by [`LiveSeries::finish`].
#[derive(Debug, Clone, Default)]
pub struct LiveSeries {
    pub snapshots: Vec<MetricsSnapshot>,
}

impl LiveSeries {
    pub fn new() -> LiveSeries {
        LiveSeries::default()
    }

    /// Appends the snapshot of `fold` at `at_us`. `counters` are the
    /// sink's cumulative counters at that instant; the line's delta is
    /// taken against the previous line's.
    pub fn push(&mut self, fold: &Fold, counters: TraceCounters, at_us: u64) -> &MetricsSnapshot {
        let delta = counters.delta_since(&self.final_counters());
        self.snapshots.push(fold.snapshot(at_us, counters, delta));
        self.snapshots.last().expect("just pushed")
    }

    /// Closes the series with one last snapshot at `end_us`. A tick
    /// that already fired at (or after) `end_us` is replaced, so the
    /// series stays strictly monotonic with exactly one final line and
    /// the deltas still telescope to the final counters.
    pub fn finish(&mut self, fold: &Fold, counters: TraceCounters, end_us: u64) {
        while self.snapshots.last().is_some_and(|s| s.at_us >= end_us) {
            self.snapshots.pop();
        }
        self.push(fold, counters, end_us);
    }

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
            .set("interval_us", SNAPSHOT_INTERVAL_US)
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
    use exo_trace::{
        FetchWaitEvent, IoDir, IoEvent, ObjectEvent, ObjectPhase, Observer, TaskSpan, TraceSink,
    };
    use std::sync::{Arc, Mutex};

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

    /// Feeds a shared fold from the sink, like the runtime's observer.
    struct FoldObserver(Arc<Mutex<Fold>>);

    impl Observer for FoldObserver {
        fn on_block(&mut self, evs: &[Event]) {
            let mut fold = self.0.lock().expect("fold");
            for ev in evs {
                fold.apply(ev);
            }
        }
    }

    fn observed_sink() -> (TraceSink, Arc<Mutex<Fold>>) {
        let fold = Arc::new(Mutex::new(Fold::new(&caps())));
        let sink = TraceSink::disabled();
        sink.register_observer(Box::new(FoldObserver(fold.clone())));
        (sink, fold)
    }

    #[test]
    fn fold_observes_through_a_retentionless_sink() {
        let (sink, fold) = observed_sink();
        let mut series = LiveSeries::new();
        sink.set_now(10);
        sink.emit(EventKind::Object(ObjectEvent {
            object: 1,
            phase: ObjectPhase::Transferred,
            node: 1,
            src: Some(0),
            bytes: 128,
        }));
        // Reading the counters settles the sink's pending block, so the
        // fold has seen the transfer by the time it is snapshotted.
        let at_tick = sink.counters();
        series.push(&fold.lock().expect("fold"), at_tick, 15);
        sink.set_now(20);
        sink.emit(EventKind::Io(IoEvent {
            node: 0,
            dir: IoDir::Write,
            bytes: 64,
        }));
        assert!(sink.is_empty(), "no retention");
        let end = sink.counters();
        series.finish(&fold.lock().expect("fold"), end, 200);
        assert_eq!(series.len(), 2);
        let tick = &series.snapshots[0];
        assert_eq!(tick.counters.net_bytes, 128);
        assert_eq!(tick.counters.disk_write_bytes, 0, "later Io leaked back");
        assert!(
            tick.nodes.iter().all(|n| n.net_util > 0.0),
            "{:?}",
            tick.nodes
        );
        let fin = series.final_counters();
        assert_eq!(fin.net_bytes, 128);
        assert_eq!(fin.disk_write_bytes, 64);
        assert_eq!(series.fold_deltas(), fin, "deltas telescope");
    }

    #[test]
    fn finish_replaces_coincident_tick_and_stays_monotonic() {
        let fold = Fold::new(&caps());
        let mut series = LiveSeries::new();
        let zero = TraceCounters::default();
        series.push(&fold, zero, 100);
        series.push(&fold, zero, 200);
        series.finish(&fold, zero, 200);
        assert_eq!(series.len(), 2);
        assert!(series.snapshots.windows(2).all(|w| w[0].at_us < w[1].at_us));
        assert_eq!(series.snapshots.last().expect("final").at_us, 200);
        assert_eq!(series.fold_deltas(), series.final_counters());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_counters() {
        let (sink, fold) = observed_sink();
        let mut series = LiveSeries::new();
        for i in 0..5u64 {
            sink.set_now(i * 100);
            sink.emit(EventKind::Io(IoEvent {
                node: 0,
                dir: IoDir::Read,
                bytes: 10,
            }));
            // Like the runtime's LiveSnapshot arm: read the counters
            // (settling the pending block) before snapshotting the fold.
            let c = sink.counters();
            series.push(&fold.lock().expect("fold"), c, i * 100 + 50);
        }
        let c = sink.counters();
        series.finish(&fold.lock().expect("fold"), c, 1000);
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

    #[test]
    fn fold_tracks_task_lifecycle() {
        let span = |task, phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node: 0,
                label: "map",
                attempt: 0,
                retry: false,
                reason: None,
            }),
        };
        let fetch = |begin, at_us| Event {
            at_us,
            kind: EventKind::FetchWait(FetchWaitEvent {
                task: 1,
                object: 9,
                node: 0,
                begin,
            }),
        };
        let mut fold = Fold::new(&caps());
        fold.apply(&span(1, TaskPhase::Scheduled, 0));
        fold.apply(&span(1, TaskPhase::Dequeued, 10)); // queue 10
        fold.apply(&span(1, TaskPhase::Started, 15));
        assert_eq!(fold.running(0), 1);
        fold.apply(&fetch(true, 15));
        fold.apply(&fetch(false, 22));
        fold.apply(&span(1, TaskPhase::Finished, 40)); // exec 25
        assert_eq!(fold.queue_us().cumulative().quantile(0.5), 10);
        assert_eq!(fold.fetch_wait_us.quantile(0.5), 7);
        assert_eq!(fold.task_us.quantile(0.5), 25);
        let snap = fold.snapshot(40, TraceCounters::default(), TraceCounters::default());
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].label, "map");
        assert_eq!(snap.stages[0].finished, 1);
        assert_eq!(snap.stages[0].window_busy_us, 25);
        assert_eq!(fold.running(0), 0);
        // In-flight state drained: fixed memory across a long run.
        assert!(fold.tasks().is_empty());
        assert!(fold.open_fetch.is_empty());
    }
}
