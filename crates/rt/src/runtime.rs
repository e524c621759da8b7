//! The runtime proper: an `exo_sim::Simulation` implementing task
//! execution, the object directory, transfers, spilling, scheduling and
//! lineage reconstruction.
//!
//! All state lives on the engine thread. Every mutation flows through
//! [`Runtime::on_command`] / [`Runtime::on_event`], so behaviour is a
//! deterministic function of the driver program.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use exo_live::{LiveConfig, LiveHandle};
use exo_sim::engine::{Ctx, Reply};
use exo_sim::{
    ClusterSpec, DeviceCaps, IoKind, QueueFootprint, Resource, SimDuration, SimTime, Simulation,
    TableFootprint,
};
use exo_store::{AllocDecision, NodeStore, RestoreDecision, SpillBatch, StoreConfig};
use exo_trace::{
    DepEvent, DepKind, EventKind, FailureEvent, FailureKind, FetchWaitEvent, IoDir, IoEvent,
    ObjectEvent, ObjectPhase, Placement, ResourceSample, TaskPhase, TaskSpan, TraceConfig,
    TraceSink,
};
use exo_watch::{WatchConfig, WatchHandle};

use crate::arena::{DenseArena, SlotArena};
use crate::command::{RtCommand, RtError};
use crate::directory::{FetchState, ObjEntry};
use crate::ids::{job_of, JobId, NodeId, ObjectId, TaskId, TenantId, JOB_SEQ_BITS};
use crate::jobs::{Admission, JobManager, TenantQuota};
use crate::metrics::{EngineTables, ProgressSample, RtMetrics};
use crate::object::Payload;
use crate::scheduler::{place, LoadBalance, NodeSnapshot, PlacementPolicy};
use crate::task::{task_seed, ArgSpec, TaskCtx, TaskSpec};

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Override the per-node object-store capacity (defaults to the node
    /// spec's value).
    pub object_store_capacity: Option<u64>,
    /// Fuse small spill writes into large files (Fig 7 ablation).
    pub fuse_spill_writes: bool,
    /// Minimum fused spill-file size.
    pub fuse_min: u64,
    /// Pipelined argument prefetching for queued tasks (Fig 7 ablation).
    /// When off, a task's arguments are fetched only once it holds an
    /// execution slot, serialising I/O with execution.
    pub prefetch_args: bool,
    /// Record per-task completion samples (progress curves, Fig 5).
    pub record_progress: bool,
    /// Per-node CPU slowdown multipliers (straggler injection): a task's
    /// compute phase on node `i` is multiplied by `cpu_slowdown[i]`.
    pub cpu_slowdown: Vec<f64>,
    /// Structured event tracing (off by default). The sink always folds
    /// counters; enabling this retains the full stream for export and
    /// turns on periodic resource sampling.
    pub trace: TraceConfig,
    /// Streaming live observability (off by default). When set, a
    /// fixed-memory `exo-live` recorder observes the trace stream —
    /// independent of retention — and the runtime emits a
    /// `MetricsSnapshot` every `snapshot_interval_us` of virtual time.
    pub live: Option<LiveConfig>,
    /// Online incident detection (off by default). When set, a
    /// fixed-memory `exo-watch` recorder observes the trace stream and
    /// the runtime feeds its open/close verdicts back into the sink as
    /// [`EventKind::Incident`] events. Detection is driven by event
    /// timestamps (evaluation boundaries in virtual time), so the
    /// incident set is bit-identical across reruns of the same program.
    pub watch: Option<WatchConfig>,
    /// Placement policy for `Default`-strategy tasks (`Spread` and
    /// `NodeAffinity` are explicit application requests and bypass it).
    /// Defaults to [`LoadBalance`], the historical behaviour.
    pub placement: Arc<dyn PlacementPolicy>,
    /// Per-tenant quotas and fair-share weights for multi-job service
    /// mode. Tenants not listed get a default quota (weight 1, no caps).
    pub tenants: Vec<(TenantId, TenantQuota)>,
    /// Admission control: new non-priority jobs queue while any alive
    /// node's store utilisation exceeds this fraction, or while a
    /// spill-storm incident is open (requires [`RtConfig::watch`]).
    pub admission_pressure: f64,
}

impl RtConfig {
    /// Ray-like defaults on the given cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        RtConfig {
            cluster,
            object_store_capacity: None,
            fuse_spill_writes: true,
            fuse_min: 100 * 1000 * 1000,
            prefetch_args: true,
            record_progress: false,
            cpu_slowdown: Vec::new(),
            trace: TraceConfig::default(),
            live: None,
            watch: None,
            placement: Arc::new(LoadBalance),
            tenants: Vec::new(),
            admission_pressure: 0.9,
        }
    }

    /// Configure a tenant's quota and fair-share weight.
    pub fn with_tenant(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        self.tenants.retain(|(t, _)| *t != tenant);
        self.tenants.push((tenant, quota));
        self
    }

    /// Swap the placement policy for `Default`-strategy tasks.
    pub fn with_placement(mut self, policy: Arc<dyn PlacementPolicy>) -> Self {
        self.placement = policy;
        self
    }

    /// The capacity card the runtime actually runs: the cluster's
    /// nominal card with the `object_store_capacity` override applied
    /// to every node. Observers and offline profiles classify against
    /// this, so store occupancy is measured against the real store.
    pub fn device_caps(&self) -> DeviceCaps {
        let mut caps = self.cluster.device_caps();
        if let Some(cap) = self.object_store_capacity {
            for n in &mut caps.per_node {
                n.store_bytes = cap;
            }
        }
        caps
    }

    /// Mark node `i` as a straggler: its compute runs `factor`× slower.
    pub fn with_slow_node(mut self, node: usize, factor: f64) -> Self {
        if self.cpu_slowdown.len() < self.cluster.num_nodes() {
            self.cpu_slowdown.resize(self.cluster.num_nodes(), 1.0);
        }
        self.cpu_slowdown[node] = factor;
        self
    }
}

/// Panic early on nonsensical configs.
pub(crate) fn validate_config(cfg: &RtConfig) {
    assert!(cfg.cluster.num_nodes() >= 1, "need at least one node");
    if let Some(cap) = cfg.object_store_capacity {
        assert!(cap > 0, "object store capacity must be positive");
    }
}

/// Tag attached to queued store allocations so grants resume the right
/// work.
#[derive(Clone, Debug)]
enum AllocTag {
    Output {
        task: TaskId,
        idx: usize,
        epoch: u32,
    },
    Fetch {
        obj: ObjectId,
    },
    Restore {
        obj: ObjectId,
    },
}

/// Events the runtime schedules for itself.
pub enum RtEvent {
    TaskInputDone {
        task: TaskId,
        epoch: u32,
    },
    TaskCpuDone {
        task: TaskId,
        epoch: u32,
    },
    OutputReady {
        task: TaskId,
        idx: usize,
        epoch: u32,
    },
    OutputFallbackDone {
        task: TaskId,
        obj: ObjectId,
        epoch: u32,
    },
    OutputWriteDone {
        task: TaskId,
        epoch: u32,
    },
    SpillDone {
        node: NodeId,
        epoch: u32,
        batch: SpillBatch,
    },
    RestoreDone {
        node: NodeId,
        obj: ObjectId,
        epoch: u32,
    },
    FetchDone {
        node: NodeId,
        obj: ObjectId,
        src: NodeId,
        src_epoch: u32,
        epoch: u32,
    },
    WaitDeadline {
        waiter: u64,
    },
    SleepDone {
        reply: Reply<()>,
    },
    KillNode {
        node: NodeId,
        restart_after: Option<SimDuration>,
    },
    RestartNode {
        node: NodeId,
    },
    KillExecutors {
        node: NodeId,
    },
    /// Periodic per-node occupancy sampling (tracing only). Re-armed by
    /// real commands/events, never by itself, so a quiescent or
    /// deadlocked simulation still stalls out.
    SampleResources,
    /// Periodic live-metrics snapshot tick (only when [`RtConfig::live`]
    /// is set). Same re-arm discipline as `SampleResources`.
    LiveSnapshot,
    /// Periodic drain of detected incident transitions into the trace
    /// sink (only when [`RtConfig::watch`] is set). Detection itself
    /// happens inside the observer at virtual-time evaluation
    /// boundaries; this tick only moves already-decided verdicts into
    /// the event stream, so its cadence cannot change what is detected.
    WatchTick,
    /// Fair-share dispatch sweep (service mode only): drain the job
    /// manager's ready pools onto node queues, one pick per free slot.
    /// Deduplicated — at most one pass is in the queue at a time.
    DispatchPass,
}

struct Node {
    id: NodeId,
    alive: bool,
    /// Bumped on kill and restart; events carrying a stale epoch are void.
    epoch: u32,
    store: NodeStore<AllocTag>,
    disk: Resource,
    nic_tx: Resource,
    nic_rx: Resource,
    slots_free: usize,
    /// Assigned tasks not yet running, FIFO.
    queue: VecDeque<TaskId>,
    running: BTreeSet<TaskId>,
}

impl Node {
    fn load(&self) -> usize {
        self.queue.len() + self.running.len()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Some argument object has not been produced yet.
    WaitingArgs,
    /// Assigned to a node, waiting for a slot (and possibly staging).
    Queued,
    /// Executing (input read / compute / output allocation phases).
    Running,
    /// Finished.
    Done,
}

struct TaskEntry {
    spec: TaskSpec,
    /// Unique object args (deduplicated once at submit, `spec.args`
    /// order), cached so the arg scan and placement never re-hash `spec`.
    obj_args: Vec<ObjectId>,
    /// Arrival countdown while `WaitingArgs`: the object args found
    /// unavailable (and registered on) by the last full scan, minus the
    /// first-copy landings since. A landing that leaves it above zero
    /// skips the rescan, so a p-ary fan-in costs O(p), not O(p²).
    /// 0 (outside `WaitingArgs`, after a scan that found every arg, and
    /// after `kill_node` — the only way a landed arg can become
    /// unavailable again) makes the next landing rescan.
    args_missing: u32,
    outputs: Vec<ObjectId>,
    state: TaskState,
    attempt: u32,
    /// Bumped whenever the task is (re)assigned; in-flight events with an
    /// older epoch are void.
    epoch: u32,
    node: Option<NodeId>,
    /// Unique object args not yet pinned in local memory (ordered so
    /// staging I/O is issued deterministically).
    unstaged: BTreeSet<ObjectId>,
    /// Object args currently pinned locally (to unpin at completion).
    pinned: Vec<ObjectId>,
    /// True once staging has been kicked off for the current assignment.
    staging_started: bool,
    /// Slot already held while staging (prefetch-off mode).
    slot_held: bool,
    /// Closure outputs of the current attempt, parked here until sealed
    /// into the store. Empty before compute and after the last seal, so
    /// a finished task holds no buffer for its returns.
    pending_outputs: Vec<Option<Payload>>,
    outputs_pending: usize,
    cpu_done: bool,
    output_written: bool,
    /// Set by a lineage resubmission; consumed when the next `Scheduled`
    /// trace event is emitted so re-executions are counted exactly once
    /// (executor-failure re-runs do not set this).
    retry_pending: bool,
    /// True while this task is re-running to reconstruct lost outputs;
    /// sealed outputs emit `ObjectEvent::Reconstructed` while set.
    reconstructing: bool,
}

impl TaskEntry {
    /// Node this attempt is assigned to. Callers are execution-phase
    /// handlers, which run strictly after `try_schedule` placed the task;
    /// events from a stale assignment are discarded by epoch checks
    /// before the entry is consulted.
    fn node(&self) -> NodeId {
        // audit:allow(P01): placement precedes every execution phase —
        // see the doc comment above.
        self.node.expect("execution phases run after placement")
    }
}

enum Waiter {
    Get {
        objs: Vec<ObjectId>,
        reply: Reply<Result<Vec<Payload>, RtError>>,
    },
    Wait {
        objs: Vec<ObjectId>,
        num_ready: usize,
        reply: Reply<(Vec<usize>, Vec<usize>)>,
    },
}

/// The runtime simulation state.
pub struct Runtime {
    cfg: RtConfig,
    nodes: Vec<Node>,
    /// Object directory, arena-indexed by the packed id's `(job, seq)`.
    /// Entries are GC'd (tombstoned) and re-created via
    /// [`Runtime::ensure_obj_entry`].
    objects: SlotArena<ObjEntry>,
    /// Permanent object → producer map (survives entry GC so lineage can
    /// recreate entries).
    lineage: SlotArena<(TaskId, usize)>,
    /// Task table; entries are never removed (lineage reconstruction can
    /// re-execute any finished task), so the arena is append-only.
    tasks: DenseArena<TaskEntry>,
    waiters: SlotArena<Waiter>,
    /// Per-job state, id minting, tenant quotas, fair-share picking and
    /// admission control. While only one job has ever been live the
    /// manager stays in legacy mode and scheduling is inline.
    jobs: JobManager,
    rr_cursor: usize,
    /// The trace sink: single source of truth for the scalar counters in
    /// [`RtMetrics`] (derived by folding emitted events) and, when
    /// enabled, the full event stream for export.
    sink: TraceSink,
    /// Completion samples (kept out of the event fold: they carry
    /// `SimTime` and feed Fig 5 progress curves directly).
    progress: Vec<ProgressSample>,
    /// A `SampleResources` tick is already in the event queue.
    sampling_scheduled: bool,
    /// Live-observability recorder; one clone of its state is registered
    /// as a sink observer, this handle drives snapshot ticks and answers
    /// mid-run bound queries.
    live: Option<LiveHandle>,
    /// A `LiveSnapshot` tick is already in the event queue.
    live_scheduled: bool,
    /// Incident-detection recorder; one clone of its state is registered
    /// as a sink observer, this handle drains transitions and answers
    /// mid-run incident queries.
    watch: Option<WatchHandle>,
    /// A `WatchTick` is already in the event queue.
    watch_scheduled: bool,
    /// A `DispatchPass` is already in the event queue.
    dispatch_scheduled: bool,
    /// Parked `AwaitJob` replies, indexed by job id and resolved when
    /// the job finishes.
    job_waiters: Vec<Vec<Reply<()>>>,
    /// The event queue's footprint, handed over at engine shutdown.
    queue_footprint: QueueFootprint,
}

impl Runtime {
    /// Build the runtime for a cluster.
    pub fn new(cfg: RtConfig) -> Runtime {
        let sink = TraceSink::new(&cfg.trace);
        // Live observers must be registered before `sample_interval_us`
        // is read below: a registered observer is a sample consumer even
        // with retention off. Both observers classify against the
        // *effective* capacity card, including the `object_store_capacity`
        // override.
        let caps = cfg.device_caps();
        let live = cfg.live.clone().map(|lc| {
            let handle = LiveHandle::new(lc, &caps);
            sink.register_observer(handle.observer());
            handle
        });
        // Same for the incident detector.
        let watch = cfg.watch.clone().map(|wc| {
            let handle = WatchHandle::new(wc, &caps);
            sink.register_observer(handle.observer());
            handle
        });
        // Device occupancy bookkeeping is only paid for when resource
        // sampling will actually read it.
        let track_pending = sink.sample_interval_us() > 0;
        let nodes = (0..cfg.cluster.num_nodes())
            .map(|i| {
                // Each node is built from its *own* spec: heterogeneous
                // clusters get per-node disks, NICs, stores, and slots.
                let node_spec = cfg.cluster.node(i);
                let capacity = cfg
                    .object_store_capacity
                    .unwrap_or(node_spec.object_store_bytes);
                let mut disk = node_spec.disk.build(format!("disk[{i}]"));
                let mut nic_tx = node_spec.nic.build(format!("nic-tx[{i}]"));
                let mut nic_rx = node_spec.nic.build(format!("nic-rx[{i}]"));
                disk.set_tracking(track_pending);
                nic_tx.set_tracking(track_pending);
                nic_rx.set_tracking(track_pending);
                Node {
                    id: NodeId(i),
                    alive: true,
                    epoch: 0,
                    store: NodeStore::with_trace(
                        StoreConfig {
                            capacity,
                            fuse_min: cfg.fuse_min,
                            fuse_enabled: cfg.fuse_spill_writes,
                            spill_enabled: true,
                            fallback_enabled: true,
                        },
                        sink.clone(),
                        i as u32,
                    ),
                    disk,
                    nic_tx,
                    nic_rx,
                    slots_free: node_spec.cpus,
                    queue: VecDeque::new(),
                    running: BTreeSet::new(),
                }
            })
            .collect();
        let jobs = JobManager::new(&cfg.tenants);
        let mut rt = Runtime {
            cfg,
            nodes,
            objects: SlotArena::new(),
            lineage: SlotArena::new(),
            tasks: DenseArena::new(),
            waiters: SlotArena::new(),
            jobs,
            rr_cursor: 0,
            sink,
            progress: Vec::new(),
            sampling_scheduled: false,
            live,
            live_scheduled: false,
            watch,
            watch_scheduled: false,
            dispatch_scheduled: false,
            job_waiters: Vec::new(),
            queue_footprint: QueueFootprint::default(),
        };
        rt.apply_store_quotas();
        rt
    }

    /// Push configured per-tenant store-byte quotas into every node's
    /// store (owner-keyed by tenant id). Re-run after `kill_node`
    /// rebuilds a store.
    fn apply_store_quotas(&mut self) {
        let quotas: Vec<(u32, u64)> = self
            .cfg
            .tenants
            .iter()
            .filter_map(|(t, q)| q.store_bytes.map(|b| (t.0, b)))
            .collect();
        for n in &mut self.nodes {
            for &(owner, bytes) in &quotas {
                n.store.set_owner_quota(owner, bytes);
            }
        }
    }

    /// Tenant a task bills to (default tenant for unknown jobs).
    fn tenant_of(&self, task: TaskId) -> TenantId {
        self.jobs
            .job(task.job())
            .map(|j| j.tenant)
            .unwrap_or_default()
    }

    /// Tenant an object bills to.
    fn tenant_of_obj(&self, obj: ObjectId) -> TenantId {
        self.jobs
            .job(obj.job())
            .map(|j| j.tenant)
            .unwrap_or_default()
    }

    /// The live-observability handle, when configured. Mid-run callers
    /// (adaptive placement, diagnostics) can query
    /// [`LiveHandle::bounds_now`] through it.
    #[allow(dead_code)] // mid-run hook for a future adaptive PlacementPolicy
    pub fn live_handle(&self) -> Option<&LiveHandle> {
        self.live.as_ref()
    }

    /// Finalize the live snapshot series at the run's end time (empty
    /// unless [`RtConfig::live`] was set).
    pub(crate) fn take_live(&self, end: SimTime) -> Option<exo_live::LiveSeries> {
        self.live.as_ref().map(|h| h.finish(end.as_micros()))
    }

    /// The incident-detection handle, when configured. Mid-run callers
    /// can query [`WatchHandle::incidents_now`] through it.
    pub fn watch_handle(&self) -> Option<&WatchHandle> {
        self.watch.as_ref()
    }

    /// Finalize incident detection at the run's end time: run the
    /// remaining evaluation boundaries, force-close every still-open
    /// incident at `end`, and emit the outstanding open/close
    /// transitions into the sink. Must run *before* the trace stream is
    /// drained so the close edges appear in the export.
    pub(crate) fn take_watch(&self, end: SimTime) -> Option<exo_watch::WatchReport> {
        self.watch.as_ref().map(|h| {
            let report = h.finish(end.as_micros());
            self.drain_watch();
            report
        })
    }

    /// Move already-decided incident transitions out of the recorder and
    /// into the trace sink. Emitting re-enters every observer, so this
    /// must happen *outside* the recorder lock (the observer skips
    /// `Incident` events, but the lock is not re-entrant).
    fn drain_watch(&self) {
        let Some(watch) = &self.watch else { return };
        let transitions = watch.drain_transitions();
        let progress = self.live.as_ref().is_some_and(|l| l.config().progress);
        for (at, inc) in transitions {
            self.sink.emit_at(at, EventKind::Incident(inc));
            if progress {
                eprintln!("{}", exo_watch::progress_line(at, &inc));
            }
        }
    }

    /// Drain the retained trace-event stream (empty unless tracing was
    /// enabled in the config).
    pub(crate) fn take_trace(&self) -> Vec<exo_trace::Event> {
        self.sink.take_events()
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_task(
        &self,
        task: TaskId,
        phase: TaskPhase,
        node: NodeId,
        label: &'static str,
        attempt: u32,
        retry: bool,
        reason: Option<Placement>,
    ) {
        self.sink.emit(EventKind::Task(TaskSpan {
            task: task.0,
            job: (task.0 >> JOB_SEQ_BITS) as u32,
            phase,
            node: node.0 as u32,
            label,
            attempt,
            retry,
            reason,
        }));
    }

    /// Job lifecycle event (admitted / finished). Gated like fetch-waits:
    /// retained streams and live observers both consume these (observers
    /// build the job → tenant map from them); with neither, skip.
    fn emit_job(&self, job: JobId, phase: exo_trace::JobPhase) {
        if self.sink.retaining() || self.sink.observing() {
            let (tenant, label) = self
                .jobs
                .job(job)
                .map(|j| (j.tenant.0, j.label))
                .unwrap_or((0, "job"));
            self.sink.emit(EventKind::Job(exo_trace::JobEvent {
                job: job.0,
                tenant,
                phase,
                label,
            }));
        }
    }

    fn emit_io(&self, node: NodeId, dir: IoDir, bytes: u64) {
        if bytes > 0 {
            self.sink.emit(EventKind::Io(IoEvent {
                node: node.0 as u32,
                dir,
                bytes,
            }));
        }
    }

    /// Dependency edge (analysis-only; see exo-prof). Gated on retention
    /// so the always-on counter path stays free of per-edge work. Unlike
    /// fetch-waits, live observers don't consume dep edges, so this stays
    /// retention-only.
    fn emit_dep(&self, task: TaskId, object: ObjectId, kind: DepKind) {
        if self.sink.retaining() {
            self.sink.emit(EventKind::Dep(DepEvent {
                task: task.0,
                object: object.0,
                kind,
            }));
        }
    }

    /// Fetch-wait interval boundary: a queued/running task is blocked on
    /// an argument that isn't memory-resident locally yet (restore in
    /// flight, remote transfer, or allocation queueing). Analysis-only,
    /// but live observers consume these too (fetch-wait sketches), so the
    /// gate is retention *or* observation — with neither, the hot path is
    /// unchanged.
    fn emit_fetch_wait(&self, task: TaskId, object: ObjectId, node: NodeId, begin: bool) {
        if self.sink.retaining() || self.sink.observing() {
            self.sink.emit(EventKind::FetchWait(FetchWaitEvent {
                task: task.0,
                object: object.0,
                node: node.0 as u32,
                begin,
            }));
        }
    }

    fn fresh_obj(&mut self, job: JobId) -> ObjectId {
        ObjectId(self.jobs.ensure(job).fresh_obj_raw(job))
    }

    // ------------------------------------------------------------------
    // Submission & scheduling
    // ------------------------------------------------------------------

    fn submit(&mut self, ctx: &mut Ctx<'_, RtEvent>, job: JobId, spec: TaskSpec) -> Vec<ObjectId> {
        let task = self.jobs.ensure(job).fresh_task(job);
        let outputs: Vec<ObjectId> = (0..spec.opts.num_returns)
            .map(|_| self.fresh_obj(job))
            .collect();
        for (idx, &o) in outputs.iter().enumerate() {
            self.lineage.insert(o.0, (task, idx));
            self.objects.insert(o.0, ObjEntry::output());
        }
        let unique_args = spec.object_args();
        let entry = TaskEntry {
            pending_outputs: Vec::new(),
            obj_args: unique_args.clone(),
            args_missing: 0,
            spec,
            outputs: outputs.clone(),
            state: TaskState::WaitingArgs,
            attempt: 0,
            epoch: 0,
            node: None,
            unstaged: BTreeSet::new(),
            pinned: Vec::new(),
            staging_started: false,
            slot_held: false,
            outputs_pending: 0,
            cpu_done: false,
            output_written: false,
            retry_pending: false,
            reconstructing: false,
        };
        self.tasks.insert(task.0, entry);
        // Record the task's dependency edges for offline DAG analysis.
        for &o in &outputs {
            self.emit_dep(task, o, DepKind::Output);
        }
        // Hold the args on behalf of this consumer.
        for &a in &unique_args {
            self.emit_dep(task, a, DepKind::Arg);
            self.ensure_obj_entry(a).task_refs += 1;
        }
        self.enqueue_ready(ctx, task);
        outputs
    }

    /// Route a schedulable task: inline `try_schedule` in legacy mode
    /// (bit-identical to the single-job runtime), or park it in its
    /// job's ready pool for the fair-share dispatcher in service mode.
    fn enqueue_ready(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        if !self.jobs.service_mode() {
            self.try_schedule(ctx, task);
            return;
        }
        if self.task(task).state != TaskState::WaitingArgs || !self.scan_args(ctx, task) {
            return;
        }
        self.jobs.push_ready(task);
        self.schedule_dispatch(ctx);
    }

    fn obj_available(&self, obj: ObjectId) -> bool {
        self.objects.get(obj.0).is_some_and(ObjEntry::available)
    }

    /// Full argument scan of a `WaitingArgs` task. Returns true when every
    /// object arg is available; otherwise registers the task as a waiter
    /// on each missing arg (kicking lineage reconstruction where needed)
    /// and arms its arrival countdown.
    fn scan_args(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) -> bool {
        // Disarmed while scanning: landings nested inside the registration
        // loop (reconstruction can seal synchronously) must rescan too.
        self.task_mut(task).args_missing = 0;
        let missing: Vec<ObjectId> = self
            .task(task)
            .obj_args
            .iter()
            .copied()
            .filter(|&a| !self.obj_available(a))
            .collect();
        if missing.is_empty() {
            return true;
        }
        for &a in &missing {
            self.ensure_available(ctx, a);
            self.ensure_obj_entry(a).add_waiting_task(task);
        }
        // Count only args still missing: one that landed mid-loop poked
        // (or never needed) this task already. Args available at the
        // start cannot have been lost — kills are events, not nested.
        let still = missing.iter().filter(|&&a| !self.obj_available(a)).count() as u32;
        let entry = self.task_mut(task);
        if entry.state == TaskState::WaitingArgs {
            entry.args_missing = still;
        }
        false
    }

    /// Debug-build cross-check: a task's arrival countdown must always
    /// equal the full rescan it lets `on_object_available` skip.
    fn debug_check_args_missing(&self, task: TaskId) {
        let entry = self.task(task);
        debug_assert_eq!(
            entry.args_missing,
            entry
                .obj_args
                .iter()
                .filter(|&&a| !self.obj_available(a))
                .count() as u32,
            "arrival countdown of {task:?} diverged from its args"
        );
    }

    /// Arm a deduplicated `DispatchPass` at the current instant.
    fn schedule_dispatch(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        if self.dispatch_scheduled {
            return;
        }
        self.dispatch_scheduled = true;
        ctx.schedule(SimDuration::from_micros(0), RtEvent::DispatchPass);
    }

    /// Fair-share dispatch: while any alive node has a free cpu slot,
    /// pick the next task per the job manager's priority + weighted
    /// round-robin policy and place it. One pick per free slot keeps
    /// tasks centrally queued (where fair-share can reorder them)
    /// instead of committed to node queues.
    fn dispatch_pass(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        loop {
            let free: usize = self
                .nodes
                .iter()
                .filter(|n| n.alive)
                .map(|n| n.slots_free)
                .sum();
            if free == 0 {
                return;
            }
            let Some(task) = self.jobs.pick() else { return };
            self.try_schedule(ctx, task);
        }
    }

    /// Recreate a GC'd object entry from lineage (size/payload unknown
    /// until reproduced) and return it, so callers that need the entry
    /// right after ensuring it never have to re-look it up fallibly.
    fn ensure_obj_entry(&mut self, obj: ObjectId) -> &mut ObjEntry {
        self.objects.or_insert_with(obj.0, ObjEntry::default)
    }

    /// Look up a task entry. Task entries are created at submission and
    /// retained for the whole run (lineage reconstruction can re-execute
    /// any finished task), so a `TaskId` carried by an in-flight event or
    /// queue always resolves.
    fn task(&self, task: TaskId) -> &TaskEntry {
        // audit:allow(P01): task entries are never removed from the map
        // during a run — see the doc comment above.
        self.tasks
            .get(task.0)
            .expect("task entries are never removed")
    }

    /// Mutable variant of [`Runtime::task`]; same retention invariant.
    fn task_mut(&mut self, task: TaskId) -> &mut TaskEntry {
        // audit:allow(P01): task entries are never removed from the map
        // during a run — see `Runtime::task`.
        self.tasks
            .get_mut(task.0)
            .expect("task entries are never removed")
    }

    /// Try to move a task from WaitingArgs to a node queue.
    fn try_schedule(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        if self.task(task).state != TaskState::WaitingArgs || !self.scan_args(ctx, task) {
            return;
        }
        // Place: one pass over the args sums each one's bytes into every
        // node holding a copy (the per-node locality the policy scores).
        let args = self.task(task).obj_args.clone();
        let mut local = vec![0u64; self.nodes.len()];
        let mut total_arg_bytes = 0u64;
        for a in &args {
            if let Some(o) = self.objects.get(a.0) {
                total_arg_bytes += o.logical;
                for c in o.copies.iter() {
                    local[c.0] += o.logical;
                }
            }
        }
        let now = ctx.now();
        let snapshots: Vec<NodeSnapshot> = self
            .nodes
            .iter()
            .zip(local)
            .map(|(n, local_arg_bytes)| NodeSnapshot {
                id: n.id,
                alive: n.alive,
                load: n.load(),
                cpus: self.cfg.cluster.node(n.id.0).cpus,
                slots_free: n.slots_free,
                local_arg_bytes,
                caps: self.cfg.cluster.node(n.id.0).caps(),
                disk_backlog_us: n.disk.queue_delay(now).as_micros(),
                nic_tx_backlog_us: n.nic_tx.queue_delay(now).as_micros(),
            })
            .collect();
        let entry = self.task(task);
        let strategy = entry.spec.opts.strategy;
        let shape = entry.spec.opts.shape;
        let policy = Arc::clone(&self.cfg.placement);
        let Some(placed) = place(
            policy.as_ref(),
            strategy,
            shape,
            total_arg_bytes,
            &snapshots,
            &mut self.rr_cursor,
        ) else {
            return; // no node alive; retried when a node restarts
        };
        let node = placed.node;
        let tenant = self.tenant_of(task);
        self.jobs.task_scheduled(tenant);
        let entry = self.task_mut(task);
        entry.state = TaskState::Queued;
        entry.node = Some(node);
        entry.epoch += 1;
        entry.unstaged = args.into_iter().collect();
        entry.pinned.clear();
        entry.staging_started = false;
        entry.slot_held = false;
        entry.cpu_done = false;
        entry.output_written = false;
        entry.outputs_pending = 0;
        entry.pending_outputs = Vec::new();
        let retry = std::mem::take(&mut entry.retry_pending);
        let (label, attempt) = (entry.spec.opts.label, entry.attempt);
        // Record the capacity the scheduler saw on the chosen node, so the
        // placement trace is interpretable on heterogeneous clusters.
        let chosen = &snapshots[node.0];
        let placement = Placement {
            reason: placed.reason,
            policy: policy.name(),
            score: placed.score,
            slots_free: chosen.slots_free as u32,
            slots_total: chosen.cpus as u32,
        };
        self.nodes[node.0].queue.push_back(task);
        self.emit_task(
            task,
            TaskPhase::Scheduled,
            node,
            label,
            attempt,
            retry,
            Some(placement),
        );
        self.pump_node(ctx, node);
    }

    /// Ensure an object is available or on its way: trigger lineage
    /// reconstruction if its producer finished but the copies are gone.
    fn ensure_available(&mut self, ctx: &mut Ctx<'_, RtEvent>, obj: ObjectId) {
        let entry = self.ensure_obj_entry(obj);
        if entry.available() {
            return;
        }
        let Some(&(producer, _)) = self.lineage.get(obj.0) else {
            // A driver-put object with no lineage: unrecoverable.
            return;
        };
        let pstate = self.tasks.get(producer.0).map(|t| t.state);
        match pstate {
            Some(TaskState::Done) => self.resubmit(ctx, producer),
            Some(_) => {} // in flight; will seal
            None => {}
        }
    }

    /// Re-execute a finished task to reconstruct lost outputs (§4.2.3).
    fn resubmit(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        if entry.state != TaskState::Done {
            return; // already being re-run
        }
        entry.state = TaskState::WaitingArgs;
        entry.attempt += 1;
        entry.epoch += 1;
        entry.node = None;
        // Counted (via the next Scheduled event's `retry` flag) when the
        // re-execution is actually placed.
        entry.retry_pending = true;
        entry.reconstructing = true;
        // Re-acquire holds on the args.
        let args = entry.obj_args.clone();
        for &a in &args {
            self.ensure_obj_entry(a).task_refs += 1;
        }
        self.enqueue_ready(ctx, task);
    }

    // ------------------------------------------------------------------
    // Node pump: staging and slot assignment
    // ------------------------------------------------------------------

    /// Advance a node: kick staging per the prefetch policy and start any
    /// runnable tasks.
    fn pump_node(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        if !self.nodes[node.0].alive {
            return;
        }
        if self.cfg.prefetch_args {
            // Stage args ahead of execution for a bounded admission window
            // of queued tasks. The window bounds pinned memory (staged
            // args are pinned so concurrent tasks cannot evict each
            // other's arguments — the thrash Ray's pull manager likewise
            // prevents by capping in-flight task-arg pulls).
            let window = 2 * self.cfg.cluster.node(node.0).cpus;
            let queued: Vec<TaskId> = self.nodes[node.0]
                .queue
                .iter()
                .take(window)
                .copied()
                .collect();
            for t in queued {
                let started = self
                    .tasks
                    .get(t.0)
                    .map(|e| e.staging_started)
                    .unwrap_or(true);
                if !started {
                    self.start_staging(ctx, t);
                }
            }
            // Start tasks whose staging completed, FIFO-preferred; staged
            // args are already pinned.
            loop {
                if self.nodes[node.0].slots_free == 0 {
                    break;
                }
                let pos = self.nodes[node.0].queue.iter().position(|t| {
                    self.tasks
                        .get(t.0)
                        .map(|e| e.unstaged.is_empty())
                        .unwrap_or(false)
                });
                let Some(pos) = pos else { break };
                let t = self.nodes[node.0].queue[pos];
                let removed = self.nodes[node.0].queue.remove(pos);
                debug_assert_eq!(removed, Some(t));
                self.nodes[node.0].slots_free -= 1;
                if let Some(e) = self.tasks.get(t.0) {
                    self.emit_task(
                        t,
                        TaskPhase::Dequeued,
                        node,
                        e.spec.opts.label,
                        e.attempt,
                        false,
                        None,
                    );
                }
                self.start_exec(ctx, t);
            }
        } else {
            // No prefetch: the head task takes a slot first, then stages.
            loop {
                if self.nodes[node.0].slots_free == 0 {
                    break;
                }
                let Some(&head) = self.nodes[node.0].queue.front() else {
                    break;
                };
                let entry = self.task(head);
                if entry.unstaged.is_empty() {
                    self.nodes[node.0].queue.pop_front();
                    let e = self.task_mut(head);
                    if !e.slot_held {
                        self.nodes[node.0].slots_free -= 1;
                        let e = self.task(head);
                        self.emit_task(
                            head,
                            TaskPhase::Dequeued,
                            node,
                            e.spec.opts.label,
                            e.attempt,
                            false,
                            None,
                        );
                    }
                    self.start_exec(ctx, head);
                } else if !entry.slot_held {
                    self.nodes[node.0].slots_free -= 1;
                    let e = self.task_mut(head);
                    e.slot_held = true;
                    let (label, attempt) = (e.spec.opts.label, e.attempt);
                    self.emit_task(head, TaskPhase::Dequeued, node, label, attempt, false, None);
                    self.start_staging(ctx, head);
                    break;
                } else {
                    break; // head staging in progress
                }
            }
        }
    }

    fn start_staging(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        entry.staging_started = true;
        let args: Vec<ObjectId> = entry.unstaged.iter().copied().collect();
        for a in args {
            self.stage_arg(ctx, task, a);
        }
        // Zero-arg tasks become runnable immediately.
        if let Some(node) = self.tasks.get(task.0).and_then(|e| e.node) {
            if self
                .tasks
                .get(task.0)
                .map(|e| e.unstaged.is_empty())
                .unwrap_or(false)
            {
                self.try_start_staged(ctx, task, node);
            }
        }
    }

    /// Bring one argument into local memory and pin it.
    fn stage_arg(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, obj: ObjectId) {
        let Some(entry) = self.tasks.get(task.0) else {
            return;
        };
        let Some(node) = entry.node else { return };
        if !entry.unstaged.contains(&obj) {
            return;
        }
        if self.nodes[node.0].store.in_memory(obj.0) {
            // Resident: pin for this task so staged arguments cannot be
            // spilled out from under it (staging admission is bounded by
            // the per-node window, and the store overcommits stuck
            // restores, so pinning here cannot wedge the node).
            self.nodes[node.0].store.pin(obj.0);
            let e = self.task_mut(task);
            e.unstaged.remove(&obj);
            e.pinned.push(obj);
            self.try_start_staged(ctx, task, node);
            return;
        }
        if self.nodes[node.0].store.contains(obj.0) {
            // Spilled locally: restore. (The task holds a consumer ref on
            // the entry, so it cannot be GC'd while registered here.)
            self.ensure_obj_entry(obj).add_arg_waiter(node, task);
            let decision = self.nodes[node.0]
                .store
                .request_restore(obj.0, AllocTag::Restore { obj });
            match decision {
                RestoreDecision::InMemory => {
                    // Raced with another path; redo as memory-resident.
                    if let Some(o) = self.objects.get_mut(obj.0) {
                        o.remove_arg_waiter(node, task);
                    }
                    self.nodes[node.0].store.pin(obj.0);
                    let e = self.task_mut(task);
                    e.unstaged.remove(&obj);
                    e.pinned.push(obj);
                    self.try_start_staged(ctx, task, node);
                }
                RestoreDecision::Granted => {
                    self.emit_fetch_wait(task, obj, node, true);
                    let size = self.objects.get(obj.0).map(|o| o.logical).unwrap_or(0);
                    let end = self.nodes[node.0]
                        .disk
                        .submit(ctx.now(), size, IoKind::Random);
                    self.emit_io(node, IoDir::Read, size);
                    let epoch = self.nodes[node.0].epoch;
                    ctx.schedule_at(end, RtEvent::RestoreDone { node, obj, epoch });
                }
                RestoreDecision::InFlight => {
                    self.emit_fetch_wait(task, obj, node, true);
                }
                RestoreDecision::Queued => {
                    self.emit_fetch_wait(task, obj, node, true);
                    // The queued restore may need spills to proceed; kick
                    // the pump so a quiescent node still makes progress.
                    self.pump_store(ctx, node);
                }
                // audit:allow(P01): `Lost` is only returned when the store
                // has no record of the object, and `contains()` was checked
                // before requesting the restore above.
                RestoreDecision::Lost => unreachable!("contains() checked"),
            }
            return;
        }
        // Remote or missing: register interest, then fetch if possible.
        self.ensure_obj_entry(obj).add_arg_waiter(node, task);
        self.emit_fetch_wait(task, obj, node, true);
        let in_flight = self
            .objects
            .get(obj.0)
            .is_some_and(|o| o.fetch_state(node).is_some());
        if in_flight {
            return; // a fetch is already on its way
        }
        if !self.obj_available(obj) {
            self.ensure_available(ctx, obj);
            self.ensure_obj_entry(obj).add_waiting_task(task);
            return;
        }
        self.begin_fetch(ctx, node, obj);
    }

    /// Start pulling a remote object to `node` (allocation first).
    fn begin_fetch(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId, obj: ObjectId) {
        let size = self.objects.get(obj.0).map(|o| o.logical).unwrap_or(0);
        // Allocation priority: arguments of soon-to-run tasks are High;
        // deeper prefetch is Low so it only consumes spare memory.
        let near_head = {
            let n = &self.nodes[node.0];
            n.queue.iter().take(n.slots_free.max(1) * 2).any(|t| {
                self.tasks
                    .get(t.0)
                    .map(|e| e.unstaged.contains(&obj))
                    .unwrap_or(false)
            }) || n.queue.is_empty()
        };
        let prio = if near_head {
            exo_store::Priority::High
        } else {
            exo_store::Priority::Low
        };
        let owner = self.tenant_of_obj(obj).0;
        self.ensure_obj_entry(obj)
            .set_fetch_state(node, FetchState::AllocPending);
        let decision = self.nodes[node.0].store.request_create_owned(
            obj.0,
            size,
            AllocTag::Fetch { obj },
            prio,
            owner,
        );
        match decision {
            AllocDecision::Granted => self.start_transfer(ctx, node, obj),
            AllocDecision::Fallback => {
                // Incoming copy lands straight on disk; still costs the
                // network transfer.
                self.start_transfer(ctx, node, obj);
            }
            AllocDecision::Queued => {}
            AllocDecision::Fail => {
                self.fail_job(ctx, obj.job(), RtError::OutOfMemory { node });
            }
        }
        self.pump_store(ctx, node);
    }

    /// Charge the network (and source disk, if spilled) for a transfer.
    fn start_transfer(&mut self, ctx: &mut Ctx<'_, RtEvent>, dst: NodeId, obj: ObjectId) {
        let Some(o) = self.objects.get(obj.0) else {
            return;
        };
        // Prefer a source with a memory-resident copy.
        let mut src_mem = None;
        let mut src_disk = None;
        for c in o.copies.iter() {
            if c == dst || !self.nodes[c.0].alive {
                continue;
            }
            if self.nodes[c.0].store.in_memory(obj.0) {
                src_mem = Some(c);
                break;
            }
            src_disk.get_or_insert(c);
        }
        let Some(src) = src_mem.or(src_disk) else {
            // No live source: clean up and wait for reconstruction.
            self.abort_fetch(ctx, dst, obj);
            return;
        };
        let size = o.logical;
        let now = ctx.now();
        let from_disk = src_mem.is_none();
        let depart = if from_disk {
            // Spilled at the source: stream disk → network (sequentially
            // chained; the paper's NodeManager streams from disk over the
            // network without staging in memory).
            let read_end = self.nodes[src.0].disk.submit(now, size, IoKind::Random);
            self.emit_io(src, IoDir::Read, size);
            read_end
        } else {
            now
        };
        let tx_end = self.nodes[src.0]
            .nic_tx
            .submit(depart, size, IoKind::Sequential);
        let rx_end = self.nodes[dst.0]
            .nic_rx
            .submit(tx_end, 0, IoKind::Sequential);
        self.sink.emit(EventKind::Object(ObjectEvent {
            object: obj.0,
            phase: ObjectPhase::Transferred,
            node: dst.0 as u32,
            src: Some(src.0 as u32),
            bytes: size,
        }));
        let src_epoch = self.nodes[src.0].epoch;
        let epoch = self.nodes[dst.0].epoch;
        self.ensure_obj_entry(obj)
            .set_fetch_state(dst, FetchState::transferring(src, src_epoch));
        ctx.schedule_at(
            rx_end,
            RtEvent::FetchDone {
                node: dst,
                obj,
                src,
                src_epoch,
                epoch,
            },
        );
    }

    /// A fetch can no longer proceed (source died). Roll back the local
    /// allocation and requeue interest through reconstruction.
    fn abort_fetch(&mut self, ctx: &mut Ctx<'_, RtEvent>, dst: NodeId, obj: ObjectId) {
        let woken: Vec<TaskId> = match self.objects.get_mut(obj.0) {
            Some(o) => {
                o.clear_fetch_state(dst);
                o.arg_waiters(dst)
            }
            None => Vec::new(),
        };
        let n = &mut self.nodes[dst.0];
        if n.store.contains(obj.0) {
            n.store.unpin(obj.0); // creator pin
            n.store.forget(obj.0);
        }
        self.ensure_available(ctx, obj);
        if let Some(o) = self.objects.get_mut(obj.0) {
            for t in woken {
                o.add_waiting_task(t);
            }
        }
        self.pump_store(ctx, dst);
    }

    /// If the task's staging is complete, let the node try to run it.
    fn try_start_staged(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, node: NodeId) {
        let Some(entry) = self.tasks.get(task.0) else {
            return;
        };
        if entry.state != TaskState::Queued || !entry.unstaged.is_empty() {
            return;
        }
        if !self.cfg.prefetch_args && entry.slot_held {
            // Already holding its slot: run immediately.
            let pos = self.nodes[node.0].queue.iter().position(|t| *t == task);
            if let Some(pos) = pos {
                self.nodes[node.0].queue.remove(pos);
            }
            self.start_exec(ctx, task);
            return;
        }
        self.pump_node(ctx, node);
    }

    // ------------------------------------------------------------------
    // Execution phases
    // ------------------------------------------------------------------

    fn start_exec(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        let node = entry.node();
        entry.state = TaskState::Running;
        entry.slot_held = true;
        let epoch = entry.epoch;
        let reads = entry.spec.opts.reads_input;
        let (label, attempt) = (entry.spec.opts.label, entry.attempt);
        self.nodes[node.0].running.insert(task);
        self.emit_task(task, TaskPhase::Started, node, label, attempt, false, None);
        if reads > 0 {
            let end = self.nodes[node.0]
                .disk
                .submit(ctx.now(), reads, IoKind::Sequential);
            self.emit_io(node, IoDir::Read, reads);
            ctx.schedule_at(end, RtEvent::TaskInputDone { task, epoch });
        } else {
            self.exec_compute(ctx, task);
        }
    }

    /// Run the closure (real compute, zero virtual time) and schedule the
    /// modelled CPU phase.
    fn exec_compute(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task(task);
        let node = entry.node();
        let epoch = entry.epoch;
        let attempt = entry.attempt;
        // Resolve args.
        // audit:allow(P01): compute starts only after every object arg was
        // staged and pinned resident on the node, so each entry exists and
        // carries a payload.
        let args: Vec<Payload> = entry
            .spec
            .args
            .iter()
            .map(|a| match a {
                ArgSpec::Inline(p) => p.clone(),
                ArgSpec::Object(id) => {
                    let o = self.objects.get(id.0).expect("staged arg exists");
                    Payload {
                        data: o.payload.clone().expect("staged arg has payload"),
                        logical: o.logical,
                    }
                }
            })
            .collect();
        let in_logical: u64 =
            args.iter().map(|p| p.logical).sum::<u64>() + entry.spec.opts.reads_input;
        let tctx = TaskCtx {
            args,
            node,
            attempt,
            rng: task_seed(task),
        };
        let outputs = (entry.spec.func)(tctx);
        assert_eq!(
            outputs.len(),
            entry.spec.opts.num_returns,
            "task returned {} outputs but declared {}",
            outputs.len(),
            entry.spec.opts.num_returns
        );
        let out_logical: u64 = outputs.iter().map(|p| p.logical).sum();
        let slowdown = self.cfg.cpu_slowdown.get(node.0).copied().unwrap_or(1.0);
        let cpu = exo_sim::SimDuration::from_secs_f64(
            entry
                .spec
                .opts
                .cpu
                .eval(in_logical, out_logical)
                .as_secs_f64()
                * slowdown.max(0.01),
        );
        let generator = entry.spec.opts.generator;
        let n_out = outputs.len();
        let entry = self.task_mut(task);
        entry.pending_outputs = outputs.into_iter().map(Some).collect();
        entry.outputs_pending = n_out;
        entry.cpu_done = false;
        if generator && n_out > 0 {
            // Remote generator: outputs become available at evenly spaced
            // points of the compute phase.
            for i in 0..n_out {
                let frac = cpu * (i as u64 + 1) / (n_out as u64);
                ctx.schedule(
                    frac,
                    RtEvent::OutputReady {
                        task,
                        idx: i,
                        epoch,
                    },
                );
            }
        }
        ctx.schedule(cpu, RtEvent::TaskCpuDone { task, epoch });
    }

    /// Allocate + seal one output into the local store.
    fn alloc_output(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, idx: usize) {
        let entry = self.task(task);
        let node = entry.node();
        let epoch = entry.epoch;
        let obj = entry.outputs[idx];
        // audit:allow(P01): `exec_compute` parks every produced output in
        // `pending_outputs` before scheduling the alloc event for its index,
        // and the slot is only taken later by `seal_output`.
        let logical = entry.pending_outputs[idx]
            .as_ref()
            .expect("output produced")
            .logical;
        if self.nodes[node.0].store.contains(obj.0) {
            // Reconstruction produced an output that already has a local
            // copy (e.g. fetched here before the failure): nothing to
            // allocate. Pin it like a fresh creation so completion's
            // unpin balances.
            self.nodes[node.0].store.pin(obj.0);
            self.seal_output(ctx, task, idx);
            return;
        }
        let owner = self.tenant_of(task).0;
        match self.nodes[node.0].store.request_create_owned(
            obj.0,
            logical,
            AllocTag::Output { task, idx, epoch },
            exo_store::Priority::High,
            owner,
        ) {
            AllocDecision::Granted => self.seal_output(ctx, task, idx),
            AllocDecision::Fallback => {
                // Written straight to the filesystem (liveness path).
                let end = self.nodes[node.0]
                    .disk
                    .submit(ctx.now(), logical, IoKind::Sequential);
                self.emit_io(node, IoDir::Write, logical);
                ctx.schedule_at(end, RtEvent::OutputFallbackDone { task, obj, epoch });
            }
            AllocDecision::Queued => {}
            AllocDecision::Fail => self.fail_job(ctx, task.job(), RtError::OutOfMemory { node }),
        }
        self.pump_store(ctx, node);
    }

    /// Mark an output as sealed in its node's store and publish it.
    fn seal_output(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, idx: usize) {
        let entry = self.task_mut(task);
        let node = entry.node();
        let obj = entry.outputs[idx];
        // audit:allow(P01): each output index is sealed exactly once per
        // attempt — the alloc path fires one seal per parked payload, and a
        // dead attempt clears `pending_outputs` before any re-run.
        let payload = entry.pending_outputs[idx].take().expect("output pending");
        entry.outputs_pending -= 1;
        if entry.outputs_pending == 0 {
            entry.pending_outputs = Vec::new();
        }
        let reconstructing = entry.reconstructing;
        let store = &mut self.nodes[node.0].store;
        if store.contains(obj.0) && !store.sealed(obj.0) {
            store.seal(obj.0);
        }
        match self.objects.get_mut(obj.0) {
            Some(o) => {
                o.logical = payload.logical;
                o.payload = Some(payload.data);
                if reconstructing {
                    self.sink.emit(EventKind::Object(ObjectEvent {
                        object: obj.0,
                        phase: ObjectPhase::Reconstructed,
                        node: node.0 as u32,
                        src: None,
                        bytes: payload.logical,
                    }));
                }
                self.on_object_available(ctx, obj, node);
            }
            None => {
                // Nobody references this output any more (e.g. the losing
                // copy of a speculative task whose refs the driver already
                // dropped): discard it. The forget is deferred past the
                // creator pin, which `complete_task` releases.
                self.nodes[node.0].store.forget(obj.0);
            }
        }
        self.check_task_completion(ctx, task);
    }

    /// Object now has a copy on `node`: wake waiters and dependents.
    fn on_object_available(&mut self, ctx: &mut Ctx<'_, RtEvent>, obj: ObjectId, node: NodeId) {
        let (woken, first_copy) = {
            // audit:allow(P01): a copy only lands on behalf of a consumer
            // holding a reference (task_refs, driver_refs, or a registered
            // waiter), and referenced entries are never GC'd.
            let o = self.objects.get_mut(obj.0).expect("referenced entry");
            let first_copy = !o.available();
            o.copies.insert(node);
            (o.take_woken(), first_copy)
        };
        for t in woken.tasks {
            match self
                .tasks
                .get_mut(t.0)
                .map(|e| (e.state, &mut e.args_missing))
            {
                // Not the task's last missing arg: the rescan would find
                // the rest still missing and already registered — skip it.
                // Only a first copy counts; a later one is a stale
                // registration the countdown never included.
                Some((TaskState::WaitingArgs, n)) if first_copy && *n > 1 => {
                    *n -= 1;
                    self.debug_check_args_missing(t);
                }
                Some((TaskState::WaitingArgs, _)) => self.enqueue_ready(ctx, t),
                Some((TaskState::Queued | TaskState::Running, _)) => {
                    // Staging was blocked on availability: retry.
                    self.stage_arg(ctx, t, obj);
                }
                _ => {}
            }
        }
        for w in woken.waiters {
            self.check_waiter(ctx, w);
        }
        // Local tasks waiting for this object in memory can pin now.
        self.drain_arg_waiters(ctx, node, obj);
    }

    /// Pin a now-memory-resident object for every local task waiting on it.
    fn drain_arg_waiters(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId, obj: ObjectId) {
        if !self.nodes[node.0].store.in_memory(obj.0) {
            return;
        }
        let woken = match self.objects.get_mut(obj.0) {
            Some(o) => o.take_arg_waiters(node),
            None => return,
        };
        for t in woken {
            let Some(entry) = self.tasks.get_mut(t.0) else {
                continue;
            };
            if entry.node != Some(node) || !entry.unstaged.contains(&obj) {
                continue;
            }
            self.nodes[node.0].store.pin(obj.0);
            entry.unstaged.remove(&obj);
            entry.pinned.push(obj);
            self.emit_fetch_wait(t, obj, node, false);
            self.try_start_staged(ctx, t, node);
        }
    }

    fn check_task_completion(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task(task);
        if entry.state != TaskState::Running
            || !entry.cpu_done
            || entry.outputs_pending > 0
            || entry.output_written
        {
            return;
        }
        let writes = entry.spec.opts.writes_output;
        let node = entry.node();
        let epoch = entry.epoch;
        // `output_written` marks the final phase as initiated so this
        // function is idempotent while the write is in flight.
        self.task_mut(task).output_written = true;
        if writes > 0 {
            let end = self.nodes[node.0]
                .disk
                .submit(ctx.now(), writes, IoKind::Sequential);
            self.emit_io(node, IoDir::Write, writes);
            ctx.schedule_at(end, RtEvent::OutputWriteDone { task, epoch });
        } else {
            self.complete_task(ctx, task);
        }
    }

    fn complete_task(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        let node = entry.node();
        entry.state = TaskState::Done;
        entry.reconstructing = false;
        let label = entry.spec.opts.label;
        let attempt = entry.attempt;
        let pinned = std::mem::take(&mut entry.pinned);
        let outputs = entry.outputs.clone();
        let args = entry.obj_args.clone();
        self.nodes[node.0].running.remove(&task);
        self.nodes[node.0].slots_free += 1;
        // Unpin outputs (creator pins) — they stay sealed in the store.
        for &o in &outputs {
            if self.nodes[node.0].store.contains(o.0) {
                self.nodes[node.0].store.unpin(o.0);
            }
        }
        // Unpin args and release consumer holds.
        for &a in &pinned {
            if self.nodes[node.0].store.contains(a.0) {
                self.nodes[node.0].store.unpin(a.0);
            }
        }
        for &a in &args {
            if let Some(o) = self.objects.get_mut(a.0) {
                o.task_refs = o.task_refs.saturating_sub(1);
            }
            self.maybe_gc(a);
        }
        // The slot is released and the output flush (if any) has landed:
        // this is the task's true end. In-flight `OutputWriteDone` events
        // are drained on driver exit, so final-stage spans still land.
        self.emit_task(task, TaskPhase::Finished, node, label, attempt, false, None);
        if self.cfg.record_progress {
            self.progress.push(ProgressSample {
                at: ctx.now(),
                label,
            });
        }
        let tenant = self.tenant_of(task);
        self.jobs.task_unscheduled(tenant);
        if self.jobs.service_mode() && self.jobs.ready_len() > 0 {
            // A slot (and possibly a tenant quota slot) just freed up.
            self.schedule_dispatch(ctx);
        }
        self.pump_store(ctx, node);
        self.pump_node(ctx, node);
    }

    // ------------------------------------------------------------------
    // Reference counting / GC
    // ------------------------------------------------------------------

    fn maybe_gc(&mut self, obj: ObjectId) {
        let Some(o) = self.objects.get(obj.0) else {
            return;
        };
        if o.driver_refs > 0 || o.task_refs > 0 || o.watched() {
            return;
        }
        let copies = o.copies.to_vec();
        for c in copies {
            self.nodes[c.0].store.forget(obj.0);
        }
        // Removing the entry also drops any in-flight fetch state — a
        // fetch destination without a consumer ref can only exist on a
        // path that already has no live waiter.
        self.objects.remove(obj.0);
    }

    // ------------------------------------------------------------------
    // Store pump: spills, grants, failures
    // ------------------------------------------------------------------

    fn pump_store(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        if !self.nodes[node.0].alive {
            return;
        }
        // Loop to a fixpoint: dispatching grants can enqueue new
        // allocations that themselves need spills (and vice versa); if we
        // stopped after one pass a node with no further events in flight
        // could quiesce with work still queued.
        loop {
            let mut progress = false;
            // Spill writes. Large fused files stream sequentially; small
            // un-fused files pay the device's random-access penalty (file
            // creation + seek) — this asymmetry is the whole point of
            // write fusing (§4.2.2, Fig 7).
            while let Some(batch) = self.nodes[node.0].store.next_spill_batch() {
                let kind = if batch.bytes >= 4_000_000 {
                    IoKind::Sequential
                } else {
                    IoKind::Random
                };
                let end = self.nodes[node.0].disk.submit(ctx.now(), batch.bytes, kind);
                self.emit_io(node, IoDir::Write, batch.bytes);
                let epoch = self.nodes[node.0].epoch;
                ctx.schedule_at(end, RtEvent::SpillDone { node, epoch, batch });
                progress = true;
            }
            // Grants.
            let granted = self.nodes[node.0].store.take_granted();
            if !granted.is_empty() {
                progress = true;
            }
            self.dispatch_grants(ctx, node, granted);
            // Failures (only with fallback disabled; shared-memory mode
            // never fails). Each failed allocation fails its own job.
            let failed = self.nodes[node.0].store.take_failed();
            for (oid, _tag) in failed {
                self.fail_job(ctx, ObjectId(oid).job(), RtError::OutOfMemory { node });
            }
            if !progress {
                return;
            }
        }
    }

    fn dispatch_grants(
        &mut self,
        ctx: &mut Ctx<'_, RtEvent>,
        node: NodeId,
        granted: Vec<(u64, AllocTag, exo_store::GrantKind)>,
    ) {
        for (oid, tag, kind) in granted {
            let obj = ObjectId(oid);
            match tag {
                AllocTag::Output { task, idx, epoch } => {
                    let valid = self
                        .tasks
                        .get(task.0)
                        .map(|e| e.epoch == epoch && e.node == Some(node))
                        .unwrap_or(false);
                    if !valid {
                        self.nodes[node.0].store.unpin(obj.0);
                        self.nodes[node.0].store.forget(obj.0);
                        continue;
                    }
                    if kind == exo_store::GrantKind::CreateFallback {
                        let logical = self
                            .tasks
                            .get(task.0)
                            .and_then(|e| e.pending_outputs.get(idx)?.as_ref().map(|p| p.logical))
                            .unwrap_or(0);
                        let end =
                            self.nodes[node.0]
                                .disk
                                .submit(ctx.now(), logical, IoKind::Sequential);
                        self.emit_io(node, IoDir::Write, logical);
                        let tep = self.tasks.get(task.0).map(|e| e.epoch).unwrap_or(0);
                        ctx.schedule_at(
                            end,
                            RtEvent::OutputFallbackDone {
                                task,
                                obj,
                                epoch: tep,
                            },
                        );
                    } else {
                        self.seal_output(ctx, task, idx);
                    }
                }
                AllocTag::Fetch { obj: fobj } => {
                    debug_assert_eq!(obj, fobj);
                    let pending = self.objects.get(obj.0).and_then(|o| o.fetch_state(node))
                        == Some(FetchState::AllocPending);
                    if pending {
                        self.start_transfer(ctx, node, obj);
                    } else {
                        // Stale grant for an aborted fetch.
                        self.nodes[node.0].store.unpin(obj.0);
                        self.nodes[node.0].store.forget(obj.0);
                    }
                }
                AllocTag::Restore { obj: robj } => {
                    debug_assert_eq!(obj, robj);
                    let size = self.objects.get(obj.0).map(|o| o.logical).unwrap_or(0);
                    let end = self.nodes[node.0]
                        .disk
                        .submit(ctx.now(), size, IoKind::Random);
                    self.emit_io(node, IoDir::Read, size);
                    let epoch = self.nodes[node.0].epoch;
                    ctx.schedule_at(end, RtEvent::RestoreDone { node, obj, epoch });
                }
            }
        }
    }

    fn fail_job(&mut self, ctx: &mut Ctx<'_, RtEvent>, job: JobId, err: RtError) {
        let st = self.jobs.ensure(job);
        if st.failed.is_none() {
            st.failed = Some(err);
        }
        // Purge the failed job's parked ready tasks: the fair-share
        // dispatcher must never spend cluster slots on work whose job
        // can no longer finish.
        let stale: Vec<TaskId> = self
            .jobs
            .job_mut(job)
            .map(|st| st.ready.iter().copied().collect())
            .unwrap_or_default();
        for t in stale {
            self.jobs.remove_ready(t);
        }
        // Resolve the failed job's pending waiters so its driver sees the
        // failure instead of hanging — other jobs' waiters are untouched
        // (one tenant's OOM must not fail another's get). The arena's
        // per-job listing is ascending by id, matching the sorted order
        // the HashMap-based table had to produce explicitly.
        let wids: Vec<u64> = self.waiters.job_keys(job.0);
        for wid in wids {
            match self.waiters.remove(wid) {
                Some(Waiter::Get { reply, .. }) => {
                    // audit:allow(P01): `fail_job` stores the error into
                    // the job's `failed` before resolving any waiter.
                    let e = self
                        .jobs
                        .job(job)
                        .and_then(|j| j.failed.clone())
                        .expect("set above");
                    ctx.reply(reply, Err(e));
                }
                Some(w @ Waiter::Wait { .. }) => {
                    self.waiters.insert(wid, w);
                    self.finish_wait(ctx, wid);
                }
                None => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission control
    // ------------------------------------------------------------------

    /// Live store-pressure signal for admission control: any alive
    /// node's store utilisation above the configured fraction, or an
    /// open spill-storm incident from the online detectors.
    fn store_pressured(&self) -> bool {
        for n in &self.nodes {
            if !n.alive {
                continue;
            }
            let cap = n.store.config().capacity;
            if cap > 0 && n.store.used() as f64 / cap as f64 > self.cfg.admission_pressure {
                return true;
            }
        }
        self.watch.as_ref().is_some_and(|w| {
            w.incidents_now()
                .iter()
                .any(|i| i.kind == exo_trace::IncidentKind::SpillStorm && i.t_close_us.is_none())
        })
    }

    /// Re-evaluate parked registrations (FIFO) against current pressure
    /// and admit what now fits.
    fn drain_admission(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        if self.jobs.pending_admissions() == 0 {
            return;
        }
        let pressured = self.store_pressured();
        let now_us = ctx.now().as_micros();
        for (id, reply) in self.jobs.drain_admission(now_us, pressured) {
            self.emit_job(id, exo_trace::JobPhase::Admitted);
            ctx.reply(reply, id);
        }
    }

    // ------------------------------------------------------------------
    // Waiters
    // ------------------------------------------------------------------

    fn check_waiter(&mut self, ctx: &mut Ctx<'_, RtEvent>, wid: u64) {
        let Some(w) = self.waiters.get(wid) else {
            return;
        };
        match w {
            Waiter::Get { objs, .. } => {
                // Waiter ids are job-scoped; only the owning job's
                // failure fails this get.
                let failed = self.jobs.job(job_of(wid)).and_then(|j| j.failed.clone());
                if let Some(err) = failed {
                    if let Some(Waiter::Get { reply, .. }) = self.waiters.remove(wid) {
                        ctx.reply(reply, Err(err));
                    }
                    return;
                }
                let all = objs.iter().all(|o| self.obj_available(*o));
                if all {
                    let Some(Waiter::Get { objs, reply }) = self.waiters.remove(wid) else {
                        return;
                    };
                    // audit:allow(P01): this branch runs only when every
                    // watched object was just confirmed available, and an
                    // available object has an entry with a payload.
                    let payloads: Vec<Payload> = objs
                        .iter()
                        .map(|o| {
                            let e = self.objects.get(o.0).expect("available");
                            Payload {
                                data: e.payload.clone().expect("available object has payload"),
                                logical: e.logical,
                            }
                        })
                        .collect();
                    for o in objs {
                        if let Some(e) = self.objects.get_mut(o.0) {
                            e.remove_waiter(wid);
                        }
                        self.maybe_gc(o);
                    }
                    ctx.reply(reply, Ok(payloads));
                }
            }
            Waiter::Wait {
                objs, num_ready, ..
            } => {
                let ready = objs.iter().filter(|&&o| self.obj_available(o)).count();
                if ready >= *num_ready {
                    self.finish_wait(ctx, wid);
                }
            }
        }
    }

    fn finish_wait(&mut self, ctx: &mut Ctx<'_, RtEvent>, wid: u64) {
        let Some(Waiter::Wait { objs, reply, .. }) = self.waiters.remove(wid) else {
            return;
        };
        let mut ready = Vec::new();
        let mut pending = Vec::new();
        for (i, o) in objs.iter().enumerate() {
            if self.obj_available(*o) {
                ready.push(i);
            } else {
                pending.push(i);
            }
        }
        for o in objs {
            if let Some(e) = self.objects.get_mut(o.0) {
                e.remove_waiter(wid);
            }
            self.maybe_gc(o);
        }
        ctx.reply(reply, (ready, pending));
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    fn kill_node(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        let capacity = self.nodes[node.0].store.config().capacity;
        let cpus = self.cfg.cluster.node(node.0).cpus;
        let sink = self.sink.clone();
        let n = &mut self.nodes[node.0];
        if !n.alive {
            return;
        }
        n.alive = false;
        n.epoch += 1;
        sink.emit(EventKind::Failure(FailureEvent {
            node: node.0 as u32,
            kind: FailureKind::NodeKilled,
        }));
        // Rebuild the store (all objects on the node, memory or disk, are
        // lost — matching the paper's fail-and-restart of a whole worker).
        let cfg = *n.store.config();
        n.store = NodeStore::with_trace(StoreConfig { capacity, ..cfg }, sink, node.0 as u32);
        n.disk.reset(ctx.now());
        n.nic_tx.reset(ctx.now());
        n.nic_rx.reset(ctx.now());
        n.slots_free = cpus;
        let queued: Vec<TaskId> = n.queue.drain(..).collect();
        let mut running: Vec<TaskId> = std::mem::take(&mut n.running).into_iter().collect();
        running.sort();
        // Drop object copies hosted here, along with any fetch state or
        // arg-waiter registrations targeting the dead node. Arena
        // iteration is ascending by id, so `lost_with_interest` comes
        // out sorted by construction.
        let mut lost_with_interest = Vec::new();
        for (id, o) in self.objects.iter_mut() {
            o.forget_node(node);
            if o.copies.remove(node) && o.copies.is_empty() && (o.watched() || o.task_refs > 0) {
                lost_with_interest.push(ObjectId(id));
            }
        }
        // A landed arg may just have lost its last copy, which no arrival
        // countdown accounts for: every waiting task rescans on its next
        // landing (the requeued tasks below rescan right away).
        for (_, e) in self.tasks.iter_mut() {
            e.args_missing = 0;
        }
        // The rebuilt store starts without owner quotas; re-apply them.
        self.apply_store_quotas();
        // Requeue the node's tasks elsewhere.
        for t in queued.into_iter().chain(running) {
            let Some(e) = self.tasks.get_mut(t.0) else {
                continue;
            };
            if e.state == TaskState::Done {
                continue;
            }
            let was_in_service = matches!(e.state, TaskState::Queued | TaskState::Running);
            e.state = TaskState::WaitingArgs;
            e.node = None;
            e.epoch += 1;
            e.unstaged.clear();
            e.pinned.clear();
            e.slot_held = false;
            e.staging_started = false;
            e.pending_outputs = Vec::new();
            e.outputs_pending = 0;
            e.cpu_done = false;
            e.output_written = false;
            if was_in_service {
                let tenant = self.tenant_of(t);
                self.jobs.task_unscheduled(tenant);
            }
            self.enqueue_ready(ctx, t);
        }
        // Kick reconstruction for lost-but-needed objects. Only jobs
        // whose objects were actually lost see lineage resubmission —
        // `lost_with_interest` is exactly the set with no surviving copy
        // and a live consumer, so unaffected jobs are untouched.
        for obj in lost_with_interest {
            self.ensure_available(ctx, obj);
        }
        // In-flight fetches sourced from this node are detected lazily via
        // src_epoch checks in FetchDone.
    }

    /// Executor-process failure (§4.2.3): in-flight tasks on the node die
    /// and are re-run, but the object store lives in the NodeManager — no
    /// objects are lost and nothing needs lineage reconstruction.
    fn kill_executors(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        if !self.nodes[node.0].alive {
            return;
        }
        self.sink.emit(EventKind::Failure(FailureEvent {
            node: node.0 as u32,
            kind: FailureKind::ExecutorsKilled,
        }));
        // Invalidate in-flight execution events via the per-task epoch;
        // the store, its spilled files, and every sealed object survive.
        let mut running: Vec<TaskId> = std::mem::take(&mut self.nodes[node.0].running)
            .into_iter()
            .collect();
        running.sort();
        self.nodes[node.0].slots_free = self.cfg.cluster.node(node.0).cpus;
        for t in running {
            let Some(e) = self.tasks.get_mut(t.0) else {
                continue;
            };
            if e.state != TaskState::Running {
                continue;
            }
            // Unpin whatever the dead executor held.
            let pinned = std::mem::take(&mut e.pinned);
            for a in pinned {
                if self.nodes[node.0].store.contains(a.0) {
                    self.nodes[node.0].store.unpin(a.0);
                }
            }
            let e = self.task_mut(t);
            // Unsealed outputs created by the dead attempt are discarded.
            let outputs = e.outputs.clone();
            e.state = TaskState::WaitingArgs;
            e.node = None;
            e.epoch += 1;
            e.attempt += 1;
            e.unstaged.clear();
            e.slot_held = false;
            e.staging_started = false;
            e.pending_outputs = Vec::new();
            e.outputs_pending = 0;
            e.cpu_done = false;
            e.output_written = false;
            for o in outputs {
                let store = &mut self.nodes[node.0].store;
                if store.contains(o.0)
                    && !self
                        .objects
                        .get(o.0)
                        .map(|e| e.copies.contains(node))
                        .unwrap_or(false)
                {
                    store.unpin(o.0);
                    store.forget(o.0);
                }
            }
            // The dead attempt was Running, i.e. in service.
            let tenant = self.tenant_of(t);
            self.jobs.task_unscheduled(tenant);
            self.enqueue_ready(ctx, t);
        }
        self.pump_store(ctx, node);
        self.pump_node(ctx, node);
    }

    fn restart_node(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        let n = &mut self.nodes[node.0];
        n.alive = true;
        n.epoch += 1;
        if self.jobs.service_mode() && self.jobs.ready_len() > 0 {
            // Fresh capacity: let the fair-share dispatcher use it.
            self.schedule_dispatch(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Metrics computed after the engine has fully shut down (including
    /// the drain of in-flight output writes), used by `driver::run` so the
    /// report reflects the whole run rather than the driver's last call.
    pub(crate) fn final_metrics(&self) -> RtMetrics {
        self.snapshot_metrics()
    }

    /// The engine's table footprints at shutdown; read once, after the
    /// run, so it cannot feed back into simulation state.
    pub(crate) fn tables(&self) -> EngineTables {
        EngineTables {
            objects: self.objects.footprint(),
            lineage: self.lineage.footprint(),
            tasks: self.tasks.footprint(),
            store_slots: self
                .nodes
                .iter()
                .map(|n| {
                    let (capacity, bytes) = n.store.slot_capacity();
                    TableFootprint {
                        live: n.store.len(),
                        capacity,
                        bytes,
                    }
                })
                .fold(TableFootprint::default(), TableFootprint::plus),
            queue: self.queue_footprint,
        }
    }

    fn snapshot_metrics(&self) -> RtMetrics {
        let mut m = RtMetrics::from_counters(&self.sink.counters());
        for n in &self.nodes {
            m.add_store(n.store.metrics());
        }
        m.progress = self.progress.clone();
        m
    }

    // ------------------------------------------------------------------
    // Resource sampling
    // ------------------------------------------------------------------

    /// Arm the next [`RtEvent::SampleResources`] tick. Called from real
    /// commands and events only — the tick handler never re-arms itself,
    /// so a quiescent (or deadlocked) simulation still stalls out instead
    /// of spinning virtual time forever.
    fn maybe_schedule_sampling(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        let interval = self.sink.sample_interval_us();
        if interval == 0 || self.sampling_scheduled {
            return;
        }
        self.sampling_scheduled = true;
        ctx.schedule(SimDuration::from_micros(interval), RtEvent::SampleResources);
    }

    /// Arm the next [`RtEvent::LiveSnapshot`] tick. Same discipline as
    /// [`Runtime::maybe_schedule_sampling`]: only real commands/events
    /// arm it, so a quiescent run does not tick forever.
    fn maybe_schedule_live(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        let Some(live) = &self.live else { return };
        if self.live_scheduled {
            return;
        }
        self.live_scheduled = true;
        ctx.schedule(
            SimDuration::from_micros(live.config().snapshot_interval_us),
            RtEvent::LiveSnapshot,
        );
    }

    /// Arm the next [`RtEvent::WatchTick`]. Same discipline as
    /// [`Runtime::maybe_schedule_live`].
    fn maybe_schedule_watch(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        let Some(watch) = &self.watch else { return };
        if self.watch_scheduled {
            return;
        }
        self.watch_scheduled = true;
        ctx.schedule(
            SimDuration::from_micros(watch.config().eval_interval_us),
            RtEvent::WatchTick,
        );
    }

    /// Emit one [`ResourceSample`] per alive node: busy CPU slots, store
    /// bytes in use, disk ops queued, and NIC bytes in flight.
    fn emit_resource_samples(&self, now: SimTime) {
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            let cpus = self.cfg.cluster.node(i).cpus;
            let (disk_ops, _) = n.disk.pending_at(now);
            let (_, tx_bytes) = n.nic_tx.pending_at(now);
            let (_, rx_bytes) = n.nic_rx.pending_at(now);
            self.sink.emit(EventKind::Resource(ResourceSample {
                node: i as u32,
                cpu_slots_busy: cpus.saturating_sub(n.slots_free) as u32,
                cpu_slots_total: cpus as u32,
                store_used: n.store.used(),
                disk_queue_depth: disk_ops,
                nic_bytes_in_flight: tx_bytes + rx_bytes,
            }));
        }
    }

    // ------------------------------------------------------------------
    // Stall / deadlock diagnostics
    // ------------------------------------------------------------------

    /// Human-readable dump of what is stuck: task states, pending driver
    /// calls (get/wait waiters), per-node queues, and the most recent
    /// trace events. Shared by the deadlock eprintln dump and the
    /// [`exo_sim::Deadlock`] report handed back to drivers.
    fn stall_report(&self) -> Vec<String> {
        let mut lines = Vec::new();
        // BTreeMap: the counts are printed with `{:?}` below, and the
        // whole report must be reproducible across reruns.
        let mut by_state: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        let mut shown = 0;
        // Arena iteration is ascending by id — the sorted order the
        // report needs for reproducibility.
        for (id, t) in self.tasks.iter() {
            let id = TaskId(id);
            let k = match t.state {
                TaskState::WaitingArgs => "WaitingArgs",
                TaskState::Queued => "Queued",
                TaskState::Running => "Running",
                TaskState::Done => "Done",
            };
            *by_state.entry(k).or_default() += 1;
            if t.state != TaskState::Done && shown < 10 {
                shown += 1;
                lines.push(format!(
                    "{:?} state={:?} node={:?} unstaged={} outputs_pending={} cpu_done={} slot_held={}",
                    id,
                    k,
                    t.node,
                    t.unstaged.len(),
                    t.outputs_pending,
                    t.cpu_done,
                    t.slot_held
                ));
            }
        }
        lines.push(format!("task states: {by_state:?}"));
        if self.jobs.live_jobs() > 0 || self.jobs.pending_admissions() > 0 {
            lines.push(format!(
                "jobs: live={} queued_admissions={}",
                self.jobs.live_jobs(),
                self.jobs.pending_admissions()
            ));
            for (id, st) in self.jobs.iter() {
                lines.push(format!(
                    "{:?} tenant={} label={} admitted_at_us={} finished={} ready={} failed={:?}",
                    id,
                    st.tenant.0,
                    st.label,
                    st.admitted_at_us,
                    st.finished,
                    st.ready.len(),
                    st.failed
                ));
            }
        }
        for (wid, w) in self.waiters.iter() {
            match w {
                Waiter::Get { objs, .. } => {
                    let missing: Vec<_> =
                        objs.iter().filter(|&&o| !self.obj_available(o)).collect();
                    lines.push(format!("pending get (waiter {wid}): missing {missing:?}"));
                }
                Waiter::Wait {
                    objs, num_ready, ..
                } => {
                    let ready = objs.iter().filter(|&&o| self.obj_available(o)).count();
                    lines.push(format!(
                        "pending wait (waiter {wid}): {ready}/{num_ready} of {} ready",
                        objs.len()
                    ));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            lines.push(format!(
                "node{} alive={} slots_free={} queue={:?} demand={} store[{}]",
                i,
                n.alive,
                n.slots_free,
                n.queue,
                n.store.memory_demand(),
                n.store.debug_state()
            ));
        }
        let recent = self.sink.recent();
        if !recent.is_empty() {
            lines.push(format!("last {} trace events:", recent.len()));
            for ev in &recent {
                lines.push(format!("  {}", exo_trace::jsonl::event_json(ev)));
            }
        }
        lines
    }
}

impl Simulation for Runtime {
    type Event = RtEvent;
    type Command = RtCommand;

    fn on_command(&mut self, ctx: &mut Ctx<'_, RtEvent>, cmd: RtCommand) {
        self.sink.set_now(ctx.now().as_micros());
        self.maybe_schedule_sampling(ctx);
        self.maybe_schedule_live(ctx);
        self.maybe_schedule_watch(ctx);
        match cmd {
            RtCommand::RegisterJob { params, reply } => {
                let pressured = self.store_pressured();
                let now_us = ctx.now().as_micros();
                match self.jobs.register(params, reply, now_us, pressured) {
                    Admission::Admitted(id, reply) => {
                        self.emit_job(id, exo_trace::JobPhase::Admitted);
                        ctx.reply(reply, id);
                    }
                    Admission::Queued => {} // reply parked until pressure clears
                }
            }
            RtCommand::FinishJob { job, reply } => {
                self.jobs.finish(job);
                self.emit_job(job, exo_trace::JobPhase::Finished);
                let woken = self
                    .job_waiters
                    .get_mut(job.0 as usize)
                    .map(std::mem::take)
                    .unwrap_or_default();
                for w in woken {
                    ctx.reply(w, ());
                }
                self.drain_admission(ctx);
                ctx.reply(reply, ());
            }
            RtCommand::AwaitJob { job, reply } => {
                let finished = self.jobs.job(job).map(|j| j.finished).unwrap_or(true);
                if finished {
                    ctx.reply(reply, ());
                } else {
                    let slot = job.0 as usize;
                    if self.job_waiters.len() <= slot {
                        self.job_waiters.resize_with(slot + 1, Vec::new);
                    }
                    self.job_waiters[slot].push(reply);
                }
            }
            RtCommand::Submit { job, spec, reply } => {
                let ids = self.submit(ctx, job, spec);
                ctx.reply(reply, ids);
            }
            RtCommand::Put { job, value, reply } => {
                let id = self.fresh_obj(job);
                let owner = self.tenant_of_obj(id).0;
                // Driver-put values live on node 0 (the head node) with no
                // lineage; paper applications only put small config values.
                let logical = value.logical;
                self.objects
                    .insert(id.0, ObjEntry::put(logical, value.data, NodeId(0)));
                // Account for it in node 0's store so locality and memory
                // pressure see it.
                let n = &mut self.nodes[0];
                if matches!(
                    n.store.request_create_owned(
                        id.0,
                        logical,
                        AllocTag::Fetch { obj: id },
                        exo_store::Priority::High,
                        owner,
                    ),
                    AllocDecision::Granted | AllocDecision::Fallback
                ) {
                    n.store.seal(id.0);
                    n.store.unpin(id.0);
                }
                self.pump_store(ctx, NodeId(0));
                ctx.reply(reply, id);
            }
            RtCommand::Get { job, objs, reply } => {
                let failed = self.jobs.job(job).and_then(|j| j.failed.clone());
                if let Some(err) = failed {
                    ctx.reply(reply, Err(err));
                    return;
                }
                let wid = self.jobs.ensure(job).fresh_waiter(job);
                for &o in &objs {
                    if !self.ensure_obj_entry(o).available() {
                        self.ensure_available(ctx, o);
                    }
                    self.ensure_obj_entry(o).add_waiter(wid);
                }
                self.waiters.insert(wid, Waiter::Get { objs, reply });
                self.check_waiter(ctx, wid);
            }
            RtCommand::Wait {
                job,
                objs,
                num_ready,
                timeout,
                reply,
            } => {
                let wid = self.jobs.ensure(job).fresh_waiter(job);
                let num_ready = num_ready.min(objs.len());
                for &o in &objs {
                    if !self.ensure_obj_entry(o).available() {
                        self.ensure_available(ctx, o);
                    }
                    self.ensure_obj_entry(o).add_waiter(wid);
                }
                self.waiters.insert(
                    wid,
                    Waiter::Wait {
                        objs,
                        num_ready,
                        reply,
                    },
                );
                if let Some(t) = timeout {
                    ctx.schedule(t, RtEvent::WaitDeadline { waiter: wid });
                }
                self.check_waiter(ctx, wid);
            }
            RtCommand::Release { obj } => {
                if let Some(o) = self.objects.get_mut(obj.0) {
                    o.driver_refs = o.driver_refs.saturating_sub(1);
                }
                self.maybe_gc(obj);
            }
            RtCommand::Now { reply } => {
                let now = ctx.now();
                ctx.reply(reply, now);
            }
            RtCommand::Sleep { dur, reply } => {
                ctx.schedule(dur, RtEvent::SleepDone { reply });
            }
            RtCommand::Locations { obj, reply } => {
                let locs = self
                    .objects
                    .get(obj.0)
                    .map(|o| o.copies.to_vec())
                    .unwrap_or_default();
                ctx.reply(reply, locs);
            }
            RtCommand::KillNode {
                node,
                at,
                restart_after,
                reply,
            } => {
                ctx.schedule_at(
                    at,
                    RtEvent::KillNode {
                        node,
                        restart_after,
                    },
                );
                ctx.reply(reply, ());
            }
            RtCommand::KillExecutors { node, at, reply } => {
                ctx.schedule_at(at, RtEvent::KillExecutors { node });
                ctx.reply(reply, ());
            }
            RtCommand::Metrics { reply } => {
                let m = self.snapshot_metrics();
                ctx.reply(reply, m);
            }
            RtCommand::NumNodes { reply } => {
                let n = self.nodes.len();
                ctx.reply(reply, n);
            }
            RtCommand::IncidentsNow { reply } => {
                let incidents = self
                    .watch_handle()
                    .map(|w| w.incidents_now())
                    .unwrap_or_default();
                ctx.reply(reply, incidents);
            }
        }
    }

    fn on_stalled(&mut self, _ctx: &mut Ctx<'_, RtEvent>) -> bool {
        // Deadlock diagnostic: dump what is stuck before the engine gives
        // up. This only runs on a runtime bug or an impossible program.
        eprintln!("=== runtime stalled at deadlock ===");
        for line in self.stall_report() {
            eprintln!("  {line}");
        }
        false
    }

    fn deadlock_report(&self) -> Vec<String> {
        self.stall_report()
    }

    /// Final-stage output flushes are pure disk bookkeeping the driver
    /// never waits on; drain them on exit so disk-write completion,
    /// `Finished` spans, and progress samples cover the tail. Everything
    /// else (wait deadlines, scheduled failures, sampling ticks) is
    /// discarded.
    fn drains_on_shutdown(&self, ev: &RtEvent) -> bool {
        matches!(ev, RtEvent::OutputWriteDone { .. })
    }

    fn on_shutdown(&mut self, queue: QueueFootprint) {
        self.queue_footprint = queue;
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, RtEvent>, ev: RtEvent) {
        self.sink.set_now(ctx.now().as_micros());
        if !matches!(
            ev,
            RtEvent::SampleResources | RtEvent::LiveSnapshot | RtEvent::WatchTick
        ) {
            self.maybe_schedule_sampling(ctx);
            self.maybe_schedule_live(ctx);
            self.maybe_schedule_watch(ctx);
        }
        match ev {
            RtEvent::TaskInputDone { task, epoch } => {
                if self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch) {
                    self.exec_compute(ctx, task);
                }
            }
            RtEvent::TaskCpuDone { task, epoch } => {
                let valid = self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch);
                if !valid {
                    return;
                }
                let (generator, n_out) = {
                    let e = self.task(task);
                    (e.spec.opts.generator, e.outputs.len())
                };
                self.task_mut(task).cpu_done = true;
                if !generator {
                    for i in 0..n_out {
                        self.alloc_output(ctx, task, i);
                    }
                }
                self.check_task_completion(ctx, task);
            }
            RtEvent::OutputReady { task, idx, epoch } => {
                if self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch) {
                    self.alloc_output(ctx, task, idx);
                }
            }
            RtEvent::OutputFallbackDone { task, obj, epoch } => {
                let valid = self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch);
                if !valid {
                    return;
                }
                // audit:allow(P01): the event carries (task, obj) minted
                // together at submission — `obj` is one of `task`'s
                // declared outputs by construction.
                let idx = self
                    .task(task)
                    .outputs
                    .iter()
                    .position(|o| *o == obj)
                    .expect("output of task");
                self.seal_output(ctx, task, idx);
            }
            RtEvent::OutputWriteDone { task, epoch } => {
                if self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch) {
                    self.complete_task(ctx, task);
                }
            }
            RtEvent::SpillDone { node, epoch, batch } => {
                if self.nodes[node.0].epoch != epoch || !self.nodes[node.0].alive {
                    return;
                }
                self.nodes[node.0].store.spill_complete(&batch);
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
            RtEvent::RestoreDone { node, obj, epoch } => {
                if self.nodes[node.0].epoch != epoch || !self.nodes[node.0].alive {
                    return;
                }
                self.nodes[node.0].store.restore_complete(obj.0);
                self.drain_arg_waiters(ctx, node, obj);
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
            RtEvent::FetchDone {
                node,
                obj,
                src,
                src_epoch,
                epoch,
            } => {
                if self.nodes[node.0].epoch != epoch || !self.nodes[node.0].alive {
                    return;
                }
                let state = self.objects.get(obj.0).and_then(|o| o.fetch_state(node));
                if state != Some(FetchState::transferring(src, src_epoch)) {
                    return;
                }
                if self.nodes[src.0].epoch != src_epoch {
                    // Source died mid-transfer: retry / reconstruct.
                    self.abort_fetch(ctx, node, obj);
                    return;
                }
                if let Some(o) = self.objects.get_mut(obj.0) {
                    o.clear_fetch_state(node);
                }
                let store = &mut self.nodes[node.0].store;
                if store.contains(obj.0) {
                    store.seal(obj.0);
                    store.unpin(obj.0); // creator pin
                }
                self.on_object_available(ctx, obj, node);
                if !self.nodes[node.0].store.in_memory(obj.0) {
                    // Arrived via the fallback path (straight to disk);
                    // local waiters must go through restore.
                    let ws = match self.objects.get_mut(obj.0) {
                        Some(o) => o.take_arg_waiters(node),
                        None => Vec::new(),
                    };
                    for t in ws {
                        self.stage_arg(ctx, t, obj);
                    }
                }
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
            RtEvent::WaitDeadline { waiter } => {
                if self.waiters.contains(waiter) {
                    self.finish_wait(ctx, waiter);
                }
            }
            RtEvent::SleepDone { reply } => {
                ctx.reply(reply, ());
            }
            RtEvent::KillNode {
                node,
                restart_after,
            } => {
                self.kill_node(ctx, node);
                if let Some(d) = restart_after {
                    ctx.schedule(d, RtEvent::RestartNode { node });
                }
            }
            RtEvent::KillExecutors { node } => {
                self.kill_executors(ctx, node);
            }
            RtEvent::RestartNode { node } => {
                self.restart_node(ctx, node);
            }
            RtEvent::SampleResources => {
                self.sampling_scheduled = false;
                self.emit_resource_samples(ctx.now());
            }
            RtEvent::LiveSnapshot => {
                self.live_scheduled = false;
                if let Some(live) = &self.live {
                    // Snapshots read observer-fed state; settle the
                    // sink's pending block so the tick sees every event
                    // emitted before this virtual instant.
                    self.sink.flush();
                    if let Some(line) = live.tick(ctx.now().as_micros()) {
                        eprintln!("{line}");
                    }
                }
            }
            RtEvent::WatchTick => {
                self.watch_scheduled = false;
                self.sink.flush();
                self.drain_watch();
                // Store pressure may have cleared since a registration
                // was parked; ticks are the periodic re-check.
                self.drain_admission(ctx);
            }
            RtEvent::DispatchPass => {
                self.dispatch_scheduled = false;
                self.dispatch_pass(ctx);
            }
        }
    }
}
