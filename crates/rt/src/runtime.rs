//! The runtime proper: an `exo_sim::Simulation` implementing task
//! execution, the object directory, transfers, spilling, scheduling and
//! lineage reconstruction.
//!
//! All state lives on the engine thread. Every mutation flows through
//! [`Runtime::on_command`] / [`Runtime::on_event`], so behaviour is a
//! deterministic function of the driver program. Task closures are the
//! one exception to running on that thread: each is launched to a helper
//! when its args are pinned and its outputs land at the event that
//! consumes them (see `compute.rs`), which no thread timing can move.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use exo_live::{LiveConfig, SNAPSHOT_INTERVAL_US};
use exo_sim::engine::{Ctx, Reply};
use exo_sim::{
    ClusterSpec, DeviceCaps, IoKind, Resource, RingId, RingPool, SimDuration, SimTime, Simulation,
    TableFootprint,
};
use exo_store::{AllocDecision, NodeStore, RestoreDecision, SpillBatch, StoreConfig};
use exo_trace::{
    DepEvent, DepKind, EventKind, FetchWaitEvent, IoDir, IoEvent, ObjectEvent, ObjectPhase,
    Placement, ResourceSample, TaskPhase, TaskSpan, TraceConfig, TraceSink, RESOURCE_SAMPLE_US,
};
use exo_watch::WatchConfig;

use crate::arena::{DenseArena, SlotArena};
use crate::command::{RtCommand, RtError};
use crate::compute::{ComputePool, Pending};
use crate::directory::{FetchState, ObjEntry};
use crate::ids::{job_of, pack_id, JobId, NodeId, ObjectId, TaskId, TenantId, JOB_SEQ_BITS};
use crate::jobs::{Admission, JobManager, TenantQuota};
use crate::metrics::{EngineTables, RtMetrics};
use crate::object::Payload;
use crate::observe::RunObserver;
use crate::scheduler::{place, LoadBalance, NodeSnapshot, PlacementPolicy};
use crate::task::{task_seed, TaskCtx, TaskSpec};

mod fault;
pub(crate) use fault::Fault;

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
    /// Per-node CPU slowdown multipliers (straggler injection): a task's
    /// compute phase on node `i` is multiplied by `cpu_slowdown[i]`.
    pub cpu_slowdown: Vec<f64>,
    /// Structured event tracing (off by default). The sink always folds
    /// counters; enabling this retains the full stream for export and
    /// turns on periodic resource sampling.
    pub trace: TraceConfig,
    /// Streaming live observability (off by default). When set, the
    /// runtime's observer folds the trace stream in fixed memory —
    /// independent of retention — and the runtime emits a
    /// `MetricsSnapshot` every [`exo_live::SNAPSHOT_INTERVAL_US`] of
    /// virtual time.
    pub live: Option<LiveConfig>,
    /// Online incident detection (off by default). When set, `exo-watch`
    /// detectors judge the runtime observer's fold and the runtime
    /// feeds their open/close verdicts back into the sink as
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
}

/// Admission control: new non-priority jobs queue while any alive node's
/// store utilisation exceeds this fraction, or while a spill-storm
/// incident is open (requires [`RtConfig::watch`]).
const ADMISSION_PRESSURE: f64 = 0.9;

impl RtConfig {
    /// Ray-like defaults on the given cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        RtConfig {
            cluster,
            object_store_capacity: None,
            fuse_spill_writes: true,
            fuse_min: 100 * 1000 * 1000,
            prefetch_args: true,
            cpu_slowdown: Vec::new(),
            trace: TraceConfig::default(),
            live: None,
            watch: None,
            placement: Arc::new(LoadBalance),
            tenants: Vec::new(),
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
    assert!(
        cfg.cluster.num_nodes() <= 1 << 16,
        "node ids must fit the u16 of a fetch completion"
    );
    if let Some(cap) = cfg.object_store_capacity {
        assert!(cap > 0, "object store capacity must be positive");
    }
}

/// Tag attached to queued store allocations so grants resume the right
/// work. An output's task and index are derived from its object id
/// ([`Runtime::output_of`]); only the attempt's epoch is kept.
#[derive(Clone, Debug)]
enum AllocTag {
    Output { epoch: u32 },
    Fetch,
    Restore,
}

// The store queues hold hundreds of thousands of these at once.
const _: () = assert!(NodeStore::<AllocTag>::PENDING_BYTES <= 32);

/// The completion of a device op, held in its server's ring until it is
/// next to fire. A fetch completes on the destination's NIC receive
/// side; everything else on the node's disk.
pub enum DeviceDone {
    TaskInput {
        task: TaskId,
        epoch: u32,
    },
    /// An output written straight to disk; its task is the object's
    /// producer.
    OutputFallback {
        obj: ObjectId,
        epoch: u32,
    },
    OutputWrite {
        task: TaskId,
        epoch: u32,
    },
    Spill {
        /// Boxed to keep the record small.
        batch: Box<SpillBatch>,
    },
    Restore {
        obj: ObjectId,
    },
    Fetch {
        obj: ObjectId,
        /// The source node ([`validate_config`] caps node ids at `u16`).
        src: u16,
        src_epoch: u32,
    },
}

// A ring entry is this record plus `(end, seq)`, and the rings hold
// hundreds of thousands of them at once.
const _: () = assert!(std::mem::size_of::<DeviceDone>() <= 16);

/// Events the runtime schedules for itself.
pub enum RtEvent {
    /// The head op of a device ring on `node` completed (or an op left
    /// from before the node's kill, which is void).
    Device {
        node: u32,
        ring: RingId,
        done: DeviceDone,
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
    WaitDeadline {
        waiter: u64,
    },
    SleepDone {
        reply: Box<Reply<()>>,
    },
    Fault(Fault),
    /// Periodic observer tick, every [`RESOURCE_SAMPLE_US`], armed
    /// while the samples have a consumer or a job registration is
    /// parked. It emits per-node occupancy samples; with
    /// [`RtConfig::watch`] set it then drains the incident transitions
    /// the observer has decided into the trace sink (detection itself
    /// happens at virtual-time evaluation boundaries, so the tick's
    /// cadence cannot change what is detected); last it re-checks
    /// parked registrations against store pressure. Re-armed by real
    /// commands/events, never by itself, so a quiescent or deadlocked
    /// simulation still stalls out.
    ObserveTick,
    /// Periodic live-metrics snapshot tick (only when [`RtConfig::live`]
    /// is set). Same re-arm discipline as `ObserveTick`.
    LiveSnapshot,
    /// Fair-share dispatch sweep: drain the job manager's ready pools
    /// onto node queues, one pick per free slot.
    /// Deduplicated — at most one pass is in the queue at a time.
    DispatchPass,
}

// Every queued event is one heap entry of `(at, seq)` plus this enum,
// and each sift moves whole entries. `Device` sets the size; rarer large
// payloads go behind a `Box`.
const _: () = assert!(std::mem::size_of::<RtEvent>() <= 40);

/// The `RtEvent` a completion on `node`'s `ring` fires as.
fn device_event(node: NodeId) -> impl Fn(RingId, DeviceDone) -> RtEvent {
    move |ring, done| RtEvent::Device {
        node: node.0 as u32,
        ring,
        done,
    }
}

struct Node {
    id: NodeId,
    alive: bool,
    /// Bumped on kill and restart; a transfer whose source's epoch moved
    /// lost its source mid-flight.
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

    /// The device whose ring holds `done`.
    fn device(&mut self, done: &DeviceDone) -> &mut Resource {
        match done {
            DeviceDone::Fetch { .. } => &mut self.nic_rx,
            _ => &mut self.disk,
        }
    }
}

/// Where a task is in its life. Only the placed states carry an
/// [`Attempt`], so leaving one (completion, resubmission, a failure)
/// drops every per-placement field at once.
enum TaskState {
    /// Some argument object has not been produced yet.
    WaitingArgs {
        /// Arrival countdown: the object args found unavailable (and
        /// registered on) by the last full scan, minus the first-copy
        /// landings since. A landing that leaves it above zero skips the
        /// rescan, so a p-ary fan-in costs O(p), not O(p²). 0 (on entry,
        /// after a scan that found every arg, and after `kill_node` — the
        /// only way a landed arg can become unavailable again) makes the
        /// next landing rescan.
        missing: u32,
    },
    /// Assigned to a node, waiting for a slot (and possibly staging).
    Queued(Attempt),
    /// Executing (input read / compute / output allocation phases).
    Running(Attempt),
    /// Finished.
    Done,
}

impl TaskState {
    /// A task that has not yet scanned its args.
    const UNSCANNED: TaskState = TaskState::WaitingArgs { missing: 0 };

    /// The current attempt, when the task is placed on a node.
    fn attempt(&self) -> Option<&Attempt> {
        match self {
            TaskState::Queued(a) | TaskState::Running(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable variant of [`TaskState::attempt`].
    fn attempt_mut(&mut self) -> Option<&mut Attempt> {
        match self {
            TaskState::Queued(a) | TaskState::Running(a) => Some(a),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            TaskState::WaitingArgs { .. } => "WaitingArgs",
            TaskState::Queued(_) => "Queued",
            TaskState::Running(_) => "Running",
            TaskState::Done => "Done",
        }
    }
}

/// One placement of a task on a node: built by `try_schedule`, carried
/// from `Queued` into `Running`, and dropped with the state that owns it.
struct Attempt {
    node: NodeId,
    /// Unique object args not yet pinned in local memory (ordered so
    /// staging I/O is issued deterministically).
    unstaged: BTreeSet<ObjectId>,
    /// Object args currently pinned locally (to unpin at completion).
    pinned: Vec<ObjectId>,
    /// True once staging has been kicked off.
    staging_started: bool,
    /// Holds an execution slot: while staging in prefetch-off mode, and
    /// from the start of execution on.
    slot_held: bool,
    /// The closure, launched on the compute pool when the args were
    /// pinned and not yet landed into `pending_outputs`. Dropping it
    /// abandons a dead attempt's closure.
    compute: Option<Pending<Vec<Payload>>>,
    /// Closure outputs, parked here from their landing until sealed into
    /// the store. Empty before the landing and after the last seal.
    pending_outputs: Vec<Option<Payload>>,
    /// Outputs not yet sealed.
    outputs_pending: usize,
    cpu_done: bool,
    /// The modelled CPU phase, fixed when execution starts.
    cpu: SimDuration,
    /// The final output flush has been initiated.
    output_written: bool,
}

impl Attempt {
    fn new(node: NodeId, unstaged: BTreeSet<ObjectId>) -> Attempt {
        Attempt {
            node,
            unstaged,
            pinned: Vec::new(),
            staging_started: false,
            slot_held: false,
            compute: None,
            pending_outputs: Vec::new(),
            outputs_pending: 0,
            cpu_done: false,
            cpu: SimDuration::ZERO,
            output_written: false,
        }
    }
}

struct TaskEntry {
    spec: TaskSpec,
    /// Unique object args (deduplicated once at submit, `spec.args`
    /// order), cached so the arg scan and placement never re-hash `spec`.
    obj_args: Vec<ObjectId>,
    /// The first of the task's `spec.opts.num_returns` outputs, minted
    /// back to back at submission: output `i` is `first_output + i`.
    first_output: ObjectId,
    state: TaskState,
    attempt: u32,
    /// Bumped whenever the task is (re)assigned; in-flight events with an
    /// older epoch are void.
    epoch: u32,
    /// Set by a lineage resubmission; consumed when the next `Scheduled`
    /// trace event is emitted so re-executions are counted exactly once
    /// (node- and executor-loss re-runs do not set this).
    retry_pending: bool,
    /// True while this task is re-running to reconstruct lost outputs;
    /// sealed outputs emit `ObjectEvent::Reconstructed` while set.
    reconstructing: bool,
}

impl TaskEntry {
    fn output(&self, idx: usize) -> ObjectId {
        ObjectId(self.first_output.0 + idx as u64)
    }

    fn outputs(&self) -> impl Iterator<Item = ObjectId> {
        let first = self.first_output.0;
        (first..first + self.spec.opts.num_returns as u64).map(ObjectId)
    }
}

/// A parked `get` or `wait`. `counted` is never below the number of
/// `objs` entries that are available: it starts at the exact count and
/// each first-copy wake adds one, so only an object lost after it was
/// counted makes it too high. The exact recount runs only once `counted`
/// reaches the target, which keeps a wake O(1) until then.
enum Waiter {
    Get {
        objs: Vec<ObjectId>,
        counted: usize,
        reply: Reply<Result<Vec<Payload>, RtError>>,
    },
    Wait {
        objs: Vec<ObjectId>,
        counted: usize,
        num_ready: usize,
        reply: Reply<(Vec<usize>, Vec<usize>)>,
    },
}

impl Waiter {
    fn objs(&self) -> &[ObjectId] {
        match self {
            Waiter::Get { objs, .. } | Waiter::Wait { objs, .. } => objs,
        }
    }

    /// The running ready count and the count that resolves the waiter.
    fn tally(&mut self) -> (&mut usize, usize) {
        match self {
            Waiter::Get { objs, counted, .. } => (counted, objs.len()),
            Waiter::Wait {
                counted, num_ready, ..
            } => (counted, *num_ready),
        }
    }
}

/// The runtime simulation state.
pub struct Runtime {
    cfg: RtConfig,
    nodes: Vec<Node>,
    /// Object directory, arena-indexed by the packed id's `(job, seq)`.
    /// Entries are GC'd (tombstoned) and re-created via
    /// [`Runtime::ensure_obj_entry`].
    objects: SlotArena<ObjEntry>,
    /// Task table, and with it the lineage ([`Runtime::producer_of`]):
    /// entries are never removed, so the arena is append-only.
    tasks: DenseArena<TaskEntry>,
    waiters: SlotArena<Waiter>,
    /// Per-job state, id minting, tenant quotas, fair-share picking and
    /// admission control. Every ready task waits in its job's pool here
    /// until a `DispatchPass` picks it.
    jobs: JobManager,
    rr_cursor: usize,
    /// The trace sink: single source of truth for the scalar counters in
    /// [`RtMetrics`] (derived by folding emitted events) and, when
    /// enabled, the full event stream for export.
    sink: TraceSink,
    /// An `ObserveTick` is already in the event queue.
    observe_scheduled: bool,
    /// The one sink observer, when live observability or incident
    /// detection is on; this clone drives snapshot ticks, drains
    /// incident transitions and answers mid-run incident queries.
    observer: Option<RunObserver>,
    /// A `LiveSnapshot` tick is already in the event queue.
    live_scheduled: bool,
    /// A `DispatchPass` is already in the event queue.
    dispatch_scheduled: bool,
    /// Parked `AwaitJob` replies, indexed by job id and resolved when
    /// the job finishes.
    job_waiters: Vec<Vec<Reply<()>>>,
    /// The event queue's footprint, handed over at engine shutdown.
    queue_footprint: TableFootprint,
    /// Chunks of every node's device completion rings.
    rings: RingPool<DeviceDone>,
    /// Helper threads running task closures off the engine thread.
    /// Declared last so the task table drops first: its unlanded
    /// closures are abandoned before the pool joins its helpers.
    compute: ComputePool<Vec<Payload>>,
}

impl Runtime {
    /// Build the runtime for a cluster.
    pub fn new(cfg: RtConfig) -> Runtime {
        let sink = TraceSink::new(&cfg.trace);
        // The observer must be registered before `sampling` is read
        // below: a registered observer is a sample consumer even
        // with retention off. It classifies against the *effective*
        // capacity card, including the `object_store_capacity` override.
        let observer = RunObserver::new(cfg.live.as_ref(), cfg.watch.as_ref(), &cfg.device_caps());
        if let Some(obs) = &observer {
            sink.register_observer(Box::new(obs.clone()));
        }
        let nodes = (0..cfg.cluster.num_nodes())
            .map(|i| {
                // Each node is built from its *own* spec: heterogeneous
                // clusters get per-node disks, NICs, stores, and slots.
                let node_spec = cfg.cluster.node(i);
                let capacity = cfg
                    .object_store_capacity
                    .unwrap_or(node_spec.object_store_bytes);
                Node {
                    id: NodeId(i),
                    alive: true,
                    epoch: 0,
                    store: NodeStore::with_trace(
                        StoreConfig {
                            capacity,
                            fuse_min: cfg.fuse_min,
                            fuse_enabled: cfg.fuse_spill_writes,
                        },
                        sink.clone(),
                        i as u32,
                    ),
                    disk: node_spec.disk.build(format!("disk[{i}]")),
                    nic_tx: node_spec.nic.build(format!("nic-tx[{i}]")),
                    nic_rx: node_spec.nic.build(format!("nic-rx[{i}]")),
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
            tasks: DenseArena::new(),
            waiters: SlotArena::new(),
            jobs,
            rr_cursor: 0,
            sink,
            observe_scheduled: false,
            observer,
            live_scheduled: false,
            dispatch_scheduled: false,
            job_waiters: Vec::new(),
            queue_footprint: TableFootprint::default(),
            rings: RingPool::new(),
            compute: ComputePool::new(),
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

    /// Tenant a job's tasks and objects bill to (default tenant for
    /// unknown jobs).
    fn tenant_of(&self, job: JobId) -> TenantId {
        self.jobs.job(job).map(|j| j.tenant).unwrap_or_default()
    }

    /// Finalize the live snapshot series at the run's end time (empty
    /// unless [`RtConfig::live`] was set).
    pub(crate) fn take_live(&self, end: SimTime) -> Option<exo_live::LiveSeries> {
        let obs = self.observer.as_ref()?;
        // Read before locking the observer: the read flushes into it.
        let counters = self.sink.counters();
        obs.finish_live(counters, end.as_micros())
    }

    /// Finalize incident detection at the run's end time: run the
    /// remaining evaluation boundaries, force-close every still-open
    /// incident at `end`, and emit the outstanding open/close
    /// transitions into the sink. Must run *before* the trace stream is
    /// drained so the close edges appear in the export.
    pub(crate) fn take_watch(&self, end: SimTime) -> Option<exo_watch::WatchReport> {
        let report = self.observer.as_ref()?.finish_watch(end.as_micros())?;
        self.drain_watch();
        Some(report)
    }

    /// Incidents decided so far; empty when not watching.
    fn incidents_now(&self) -> Vec<exo_watch::Incident> {
        self.observer
            .as_ref()
            .map(RunObserver::incidents_now)
            .unwrap_or_default()
    }

    /// Move already-decided incident transitions out of the observer and
    /// into the trace sink. Emitting re-enters the observer, so this
    /// must happen *outside* its lock (the observer skips `Incident`
    /// events, but the lock is not re-entrant).
    fn drain_watch(&self) {
        let Some(obs) = &self.observer else { return };
        let transitions = obs.drain_transitions();
        let progress = self.live_progress();
        for (at, inc) in transitions {
            self.sink.emit_at(at, EventKind::Incident(inc));
            if progress {
                eprintln!("{}", exo_watch::progress_line(at, &inc));
            }
        }
    }

    /// Whether `--live-progress` lines are printed.
    fn live_progress(&self) -> bool {
        self.cfg.live.as_ref().is_some_and(|l| l.progress)
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

    /// Books an op on `node` whose completion `done` fires at its end,
    /// returned; `at` is when it is submitted (the current time, or a
    /// later one for a chained op).
    fn submit_done(
        &mut self,
        ctx: &mut Ctx<'_, RtEvent>,
        node: NodeId,
        at: SimTime,
        size: u64,
        kind: IoKind,
        done: DeviceDone,
    ) -> SimTime {
        debug_assert!(self.nodes[node.0].alive, "device op booked on a dead node");
        let dev = self.nodes[node.0].device(&done);
        dev.submit_timed(
            ctx,
            &mut self.rings,
            at,
            size,
            kind,
            done,
            device_event(node),
        )
    }

    /// Books an op that no event waits for on `dev`; it is remembered for
    /// resource sampling only while samples have a consumer.
    fn submit_untimed(
        sink: &TraceSink,
        dev: &mut Resource,
        at: SimTime,
        size: u64,
        kind: IoKind,
    ) -> SimTime {
        if sink.sampling() {
            dev.submit_tracked(at, size, kind)
        } else {
            dev.submit(at, size, kind)
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

    // ------------------------------------------------------------------
    // Submission & scheduling
    // ------------------------------------------------------------------

    fn submit(&mut self, ctx: &mut Ctx<'_, RtEvent>, job: JobId, spec: TaskSpec) -> Vec<ObjectId> {
        let st = self.jobs.ensure(job);
        let task = st.fresh_task(job);
        let first_output = st.fresh_objs(job, spec.opts.num_returns);
        // `producer_of` binary-searches on this order (`None` sorts first).
        let prev = self.tasks.job_entries(job.0).last().map(|t| t.first_output);
        debug_assert!(prev <= Some(first_output), "outputs minted out of order");
        let unique_args = spec.object_args();
        let entry = TaskEntry {
            obj_args: unique_args.clone(),
            spec,
            first_output,
            state: TaskState::UNSCANNED,
            attempt: 0,
            epoch: 0,
            retry_pending: false,
            reconstructing: false,
        };
        let outputs: Vec<ObjectId> = entry.outputs().collect();
        self.tasks.insert(task.0, entry);
        // Directory entries, and dependency edges for offline DAG analysis.
        for &o in &outputs {
            self.objects.insert(o.0, ObjEntry::output());
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

    /// Route a schedulable task: once its args are available, park it in
    /// its job's ready pool for the fair-share dispatcher.
    fn enqueue_ready(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        if !self.waiting_args(task) || !self.scan_args(ctx, task) {
            return;
        }
        self.jobs.push_ready(task);
        self.schedule_dispatch(ctx);
    }

    fn waiting_args(&self, task: TaskId) -> bool {
        matches!(self.task(task).state, TaskState::WaitingArgs { .. })
    }

    /// Set a `WaitingArgs` task's arrival countdown (a no-op in any other
    /// state).
    fn set_args_missing(&mut self, task: TaskId, n: u32) {
        if let TaskState::WaitingArgs { missing } = &mut self.task_mut(task).state {
            *missing = n;
        }
    }

    /// The current attempt of a placed task.
    fn attempt(&self, task: TaskId) -> Option<&Attempt> {
        self.tasks.get(task.0)?.state.attempt()
    }

    /// Mutable variant of [`Runtime::attempt`].
    fn attempt_mut(&mut self, task: TaskId) -> Option<&mut Attempt> {
        self.tasks.get_mut(task.0)?.state.attempt_mut()
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
        self.set_args_missing(task, 0);
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
        self.set_args_missing(task, still);
        false
    }

    /// Debug-build cross-check: a task's arrival countdown must always
    /// equal the full rescan it lets `on_object_available` skip.
    fn debug_check_args_missing(&self, task: TaskId) {
        let entry = self.task(task);
        let TaskState::WaitingArgs { missing } = entry.state else {
            return;
        };
        debug_assert_eq!(
            missing,
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

    /// Try to move a task the dispatcher picked from WaitingArgs to a
    /// node queue. Its args are rescanned: one may have lost its last
    /// copy while the task sat in the ready pool.
    fn try_schedule(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        if !self.waiting_args(task) || !self.scan_args(ctx, task) {
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
            // Unreachable: `dispatch_pass` picks only while a node is alive.
            return;
        };
        let node = placed.node;
        let tenant = self.tenant_of(task.job());
        self.jobs.task_scheduled(tenant);
        let entry = self.task_mut(task);
        entry.state = TaskState::Queued(Attempt::new(node, args.into_iter().collect()));
        entry.epoch += 1;
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
        let Some(producer) = self.producer_of(obj) else {
            // A driver-put object with no lineage: unrecoverable.
            self.fail_job(ctx, obj.job(), RtError::ObjectLost { obj });
            return;
        };
        // Re-runs a finished producer; one still in flight will seal it.
        self.resubmit(ctx, producer);
    }

    /// The task whose outputs include `obj`, or `None` for a driver `put`.
    fn producer_of(&self, obj: ObjectId) -> Option<TaskId> {
        self.output_of(obj).map(|(task, _)| task)
    }

    /// The task whose outputs include `obj` and `obj`'s index among them,
    /// or `None` for a driver `put`. `first_output` rises with task seq,
    /// so the only candidate is the last task starting at or below `obj`;
    /// a `put` falls past its range.
    fn output_of(&self, obj: ObjectId) -> Option<(TaskId, usize)> {
        let job = obj.job();
        let tasks = self.tasks.job_entries(job.0);
        let seq = tasks
            .partition_point(|t| t.first_output <= obj)
            .checked_sub(1)?;
        let t = &tasks[seq];
        let idx = obj.0 - t.first_output.0;
        (idx < t.spec.opts.num_returns as u64)
            .then(|| (TaskId(pack_id(job, seq as u64)), idx as usize))
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
        self.debug_check_slots(node);
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
                if self.attempt(t).is_some_and(|a| !a.staging_started) {
                    self.start_staging(ctx, t);
                }
            }
            // Start tasks whose staging completed, FIFO-preferred; staged
            // args are already pinned.
            loop {
                if self.nodes[node.0].slots_free == 0 {
                    break;
                }
                let pos = self.nodes[node.0]
                    .queue
                    .iter()
                    .position(|&t| self.attempt(t).is_some_and(|a| a.unstaged.is_empty()));
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
                let Some(a) = self.attempt(head) else { break };
                let (staged, slot_held) = (a.unstaged.is_empty(), a.slot_held);
                let e = self.task(head);
                let (label, attempt) = (e.spec.opts.label, e.attempt);
                if staged {
                    self.nodes[node.0].queue.pop_front();
                    if !slot_held {
                        self.nodes[node.0].slots_free -= 1;
                        self.emit_task(
                            head,
                            TaskPhase::Dequeued,
                            node,
                            label,
                            attempt,
                            false,
                            None,
                        );
                    }
                    self.start_exec(ctx, head);
                } else if !slot_held {
                    self.nodes[node.0].slots_free -= 1;
                    if let Some(a) = self.attempt_mut(head) {
                        a.slot_held = true;
                    }
                    self.emit_task(head, TaskPhase::Dequeued, node, label, attempt, false, None);
                    self.start_staging(ctx, head);
                    break;
                } else {
                    break; // head staging in progress
                }
            }
        }
    }

    /// Debug-build cross-check: every execution slot of a node is free,
    /// running a task, or held by a queued attempt staging its args.
    fn debug_check_slots(&self, node: NodeId) {
        let n = &self.nodes[node.0];
        debug_assert_eq!(
            n.slots_free
                + n.running.len()
                + n.queue
                    .iter()
                    .filter(|&&t| self.attempt(t).is_some_and(|a| a.slot_held))
                    .count(),
            self.cfg.cluster.node(node.0).cpus,
            "slot accounting of {node:?} diverged"
        );
    }

    fn start_staging(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let Some(a) = self.attempt_mut(task) else {
            return;
        };
        a.staging_started = true;
        let args: Vec<ObjectId> = a.unstaged.iter().copied().collect();
        for a in args {
            self.stage_arg(ctx, task, a);
        }
        // Zero-arg tasks become runnable immediately.
        if let Some(a) = self.attempt(task) {
            if a.unstaged.is_empty() {
                self.try_start_staged(ctx, task, a.node);
            }
        }
    }

    /// Bring one argument into local memory and pin it.
    fn stage_arg(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, obj: ObjectId) {
        let Some(a) = self.attempt(task) else {
            return;
        };
        let node = a.node;
        if !a.unstaged.contains(&obj) {
            return;
        }
        if self.nodes[node.0].store.in_memory(obj.0) {
            // Resident: pin for this task so staged arguments cannot be
            // spilled out from under it (staging admission is bounded by
            // the per-node window, and the store overcommits stuck
            // restores, so pinning here cannot wedge the node).
            self.pin_arg(task, node, obj);
            self.try_start_staged(ctx, task, node);
            return;
        }
        if self.nodes[node.0].store.contains(obj.0) {
            // Spilled locally: restore. (The task holds a consumer ref on
            // the entry, so it cannot be GC'd while registered here.)
            self.ensure_obj_entry(obj).add_arg_waiter(node, task);
            let decision = self.nodes[node.0]
                .store
                .request_restore(obj.0, AllocTag::Restore);
            match decision {
                RestoreDecision::InMemory => {
                    // Raced with another path; redo as memory-resident.
                    if let Some(o) = self.objects.get_mut(obj.0) {
                        o.remove_arg_waiter(node, task);
                    }
                    self.pin_arg(task, node, obj);
                    self.try_start_staged(ctx, task, node);
                }
                RestoreDecision::Granted => {
                    self.emit_fetch_wait(task, obj, node, true);
                    self.start_restore(ctx, node, obj);
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

    /// Read a spilled object back into its granted memory on `node`.
    fn start_restore(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId, obj: ObjectId) {
        let size = self.objects.get(obj.0).map(|o| o.logical).unwrap_or(0);
        let now = ctx.now();
        self.submit_done(
            ctx,
            node,
            now,
            size,
            IoKind::Random,
            DeviceDone::Restore { obj },
        );
        self.emit_io(node, IoDir::Read, size);
    }

    /// Pin a memory-resident arg on `node` for the task's attempt there.
    fn pin_arg(&mut self, task: TaskId, node: NodeId, obj: ObjectId) {
        self.nodes[node.0].store.pin(obj.0);
        if let Some(a) = self.attempt_mut(task) {
            a.unstaged.remove(&obj);
            a.pinned.push(obj);
        }
    }

    /// Start pulling a remote object to `node` (allocation first).
    fn begin_fetch(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId, obj: ObjectId) {
        let size = self.objects.get(obj.0).map(|o| o.logical).unwrap_or(0);
        // Allocation priority: arguments of soon-to-run tasks are High;
        // deeper prefetch is Low so it only consumes spare memory.
        let near_head = {
            let n = &self.nodes[node.0];
            n.queue
                .iter()
                .take(n.slots_free.max(1) * 2)
                .any(|&t| self.attempt(t).is_some_and(|a| a.unstaged.contains(&obj)))
                || n.queue.is_empty()
        };
        let prio = if near_head {
            exo_store::Priority::High
        } else {
            exo_store::Priority::Low
        };
        let owner = self.tenant_of(obj.job()).0;
        self.ensure_obj_entry(obj)
            .set_fetch_state(node, FetchState::AllocPending);
        let decision =
            self.nodes[node.0]
                .store
                .request_create(obj.0, size, AllocTag::Fetch, prio, owner);
        match decision {
            AllocDecision::Granted => self.start_transfer(ctx, node, obj),
            AllocDecision::Fallback => {
                // Incoming copy lands straight on disk; still costs the
                // network transfer.
                self.start_transfer(ctx, node, obj);
            }
            AllocDecision::Queued => {}
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
            let disk = &mut self.nodes[src.0].disk;
            let read_end = Self::submit_untimed(&self.sink, disk, now, size, IoKind::Random);
            self.emit_io(src, IoDir::Read, size);
            read_end
        } else {
            now
        };
        let tx = &mut self.nodes[src.0].nic_tx;
        let tx_end = Self::submit_untimed(&self.sink, tx, depart, size, IoKind::Sequential);
        let src_epoch = self.nodes[src.0].epoch;
        let fetch = DeviceDone::Fetch {
            obj,
            src: src.0 as u16,
            src_epoch,
        };
        self.submit_done(ctx, dst, tx_end, 0, IoKind::Sequential, fetch);
        self.sink.emit(EventKind::Object(ObjectEvent {
            object: obj.0,
            phase: ObjectPhase::Transferred,
            node: dst.0 as u32,
            src: Some(src.0 as u32),
            bytes: size,
        }));
        self.ensure_obj_entry(obj)
            .set_fetch_state(dst, FetchState::transferring(src, src_epoch));
    }

    /// A fetch can no longer proceed (source died). Roll back the local
    /// allocation and requeue interest through reconstruction, or, when
    /// a copy is already available elsewhere (lineage rebuilt it before
    /// this transfer's end), fetch again for `dst`'s staging tasks:
    /// nothing would wake a task parked on an object already available.
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
        if self.obj_available(obj) {
            let restage = match self.objects.get_mut(obj.0) {
                Some(o) => o.take_arg_waiters(dst),
                None => Vec::new(),
            };
            for t in restage {
                if self.attempt(t).is_some_and(|a| a.node == dst) {
                    self.stage_arg(ctx, t, obj);
                }
            }
        } else if let Some(o) = self.objects.get_mut(obj.0) {
            for t in woken {
                o.add_waiting_task(t);
            }
        }
        self.pump_store(ctx, dst);
    }

    /// If the task's staging is complete, let the node try to run it.
    fn try_start_staged(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, node: NodeId) {
        let Some(TaskState::Queued(a)) = self.tasks.get(task.0).map(|e| &e.state) else {
            return;
        };
        if !a.unstaged.is_empty() {
            return;
        }
        if !self.cfg.prefetch_args && a.slot_held {
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

    /// Start a task attempt on its node: its args are pinned, so launch
    /// the closure now, then model the input read (if any) and the CPU
    /// phase. The closure's outputs land at the CPU phase's end (or its
    /// first generator yield), whatever thread ran it.
    fn start_exec(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task(task);
        let TaskState::Queued(a) = &entry.state else {
            return;
        };
        let node = a.node;
        let tctx = self.task_ctx(task, node);
        let in_logical: u64 =
            tctx.args.iter().map(|p| p.logical).sum::<u64>() + entry.spec.opts.reads_input;
        let slowdown = self.cfg.cpu_slowdown.get(node.0).copied().unwrap_or(1.0);
        let cpu = SimDuration::from_secs_f64(
            entry.spec.opts.cpu.eval(in_logical).as_secs_f64() * slowdown.max(0.01),
        );
        let func = Arc::clone(&entry.spec.func);
        let pending = self.compute.launch(move || func(tctx));
        let entry = self.task_mut(task);
        entry.state = match std::mem::replace(&mut entry.state, TaskState::Done) {
            TaskState::Queued(a) => TaskState::Running(Attempt {
                compute: Some(pending),
                slot_held: true,
                cpu,
                ..a
            }),
            other => other,
        };
        let epoch = entry.epoch;
        let reads = entry.spec.opts.reads_input;
        let (label, attempt) = (entry.spec.opts.label, entry.attempt);
        self.nodes[node.0].running.insert(task);
        self.emit_task(task, TaskPhase::Started, node, label, attempt, false, None);
        if reads > 0 {
            let input = DeviceDone::TaskInput { task, epoch };
            let now = ctx.now();
            self.submit_done(ctx, node, now, reads, IoKind::Sequential, input);
            self.emit_io(node, IoDir::Read, reads);
        } else {
            self.exec_compute(ctx, task);
        }
    }

    /// The closure's input: its resolved args and the attempt's identity.
    fn task_ctx(&self, task: TaskId, node: NodeId) -> TaskCtx {
        let entry = self.task(task);
        // audit:allow(P01): a task starts only after every object arg was
        // staged and pinned resident on the node, so each entry exists and
        // carries a payload.
        let args: Vec<Payload> = entry
            .spec
            .args
            .iter()
            .map(|id| {
                let o = self.objects.get(id.0).expect("staged arg exists");
                Payload {
                    data: o.payload.clone().expect("staged arg has payload"),
                    logical: o.logical,
                }
            })
            .collect();
        TaskCtx {
            args,
            node,
            attempt: entry.attempt,
            rng: task_seed(task),
        }
    }

    /// Schedule the modelled CPU phase (the closure itself takes zero
    /// virtual time, wherever it runs).
    fn exec_compute(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        let epoch = entry.epoch;
        let generator = entry.spec.opts.generator;
        let n_out = entry.spec.opts.num_returns;
        let TaskState::Running(a) = &mut entry.state else {
            return;
        };
        let cpu = a.cpu;
        a.outputs_pending = n_out;
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

    /// Collect the current attempt's closure outputs into
    /// `pending_outputs`, at the first event that consumes them. Blocks
    /// (helping with other closures) if a helper is still running it.
    fn land_outputs(&mut self, task: TaskId) {
        let Some(pending) = self.attempt_mut(task).and_then(|a| a.compute.take()) else {
            return;
        };
        let outputs = self.compute.land(pending);
        let entry = self.task_mut(task);
        assert_eq!(
            outputs.len(),
            entry.spec.opts.num_returns,
            "task returned {} outputs but declared {}",
            outputs.len(),
            entry.spec.opts.num_returns
        );
        if let Some(a) = entry.state.attempt_mut() {
            a.pending_outputs = outputs.into_iter().map(Some).collect();
        }
    }

    /// Allocate + seal one output into the local store.
    fn alloc_output(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, idx: usize) {
        let entry = self.task(task);
        let TaskState::Running(a) = &entry.state else {
            return;
        };
        let node = a.node;
        let epoch = entry.epoch;
        let obj = entry.output(idx);
        // audit:allow(P01): the event that allocates an output index lands
        // the closure's outputs into `pending_outputs` first, and the slot
        // is only taken later by `seal_output`.
        let logical = a.pending_outputs[idx]
            .as_ref()
            .expect("output produced")
            .logical;
        let fetch = self.objects.get(obj.0).and_then(|o| o.fetch_state(node));
        if let Some(FetchState::Transferring { .. }) = fetch {
            // Reconstruction re-ran the producer here while a transfer of
            // this output to this node is in flight: the output supersedes
            // the copy. Its unsealed slot becomes the output's, creator
            // pin included, and the transfer's completion finds no fetch
            // state and is void; the bytes already sent stay charged.
            if let Some(o) = self.objects.get_mut(obj.0) {
                o.clear_fetch_state(node);
            }
            self.seal_output(ctx, task, idx);
            self.restage_if_on_disk(ctx, node, obj);
            return;
        }
        if self.nodes[node.0].store.contains(obj.0) {
            // Reconstruction produced an output that already has a local
            // copy (e.g. fetched here before the failure): nothing to
            // allocate. Pin it like a fresh creation so completion's
            // unpin balances.
            self.nodes[node.0].store.pin(obj.0);
            self.seal_output(ctx, task, idx);
            return;
        }
        let owner = self.tenant_of(task.job()).0;
        match self.nodes[node.0].store.request_create(
            obj.0,
            logical,
            AllocTag::Output { epoch },
            exo_store::Priority::High,
            owner,
        ) {
            AllocDecision::Granted => self.seal_output(ctx, task, idx),
            // Written straight to the filesystem (liveness path).
            AllocDecision::Fallback => self.write_fallback(ctx, node, obj, epoch, logical),
            AllocDecision::Queued => {}
        }
        self.pump_store(ctx, node);
    }

    /// Write output `obj` of the attempt with `epoch` straight to
    /// `node`'s disk; it seals when the write lands.
    fn write_fallback(
        &mut self,
        ctx: &mut Ctx<'_, RtEvent>,
        node: NodeId,
        obj: ObjectId,
        epoch: u32,
        logical: u64,
    ) {
        let done = DeviceDone::OutputFallback { obj, epoch };
        let now = ctx.now();
        self.submit_done(ctx, node, now, logical, IoKind::Sequential, done);
        self.emit_io(node, IoDir::Write, logical);
    }

    /// Mark an output as sealed in its node's store and publish it.
    fn seal_output(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, idx: usize) {
        let entry = self.task_mut(task);
        let obj = entry.output(idx);
        let reconstructing = entry.reconstructing;
        let TaskState::Running(a) = &mut entry.state else {
            return;
        };
        let node = a.node;
        // audit:allow(P01): each output index is sealed exactly once per
        // attempt — the alloc path fires one seal per parked payload, and a
        // dead attempt's `pending_outputs` is dropped with it.
        let payload = a.pending_outputs[idx].take().expect("output pending");
        a.outputs_pending -= 1;
        if a.outputs_pending == 0 {
            a.pending_outputs = Vec::new();
        }
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
            match self.tasks.get_mut(t.0).map(|e| &mut e.state) {
                // Not the task's last missing arg: the rescan would find
                // the rest still missing and already registered — skip it.
                // Only a first copy counts; a later one is a stale
                // registration the countdown never included.
                Some(TaskState::WaitingArgs { missing }) if first_copy && *missing > 1 => {
                    *missing -= 1;
                    self.debug_check_args_missing(t);
                }
                Some(TaskState::WaitingArgs { .. }) => self.enqueue_ready(ctx, t),
                Some(TaskState::Queued(_) | TaskState::Running(_)) => {
                    // Staging was blocked on availability: retry.
                    self.stage_arg(ctx, t, obj);
                }
                _ => {}
            }
        }
        // A waiter listing `obj` k times holds k registrations: wake it
        // once, in first-registration order, counting all k listings.
        let mut waiters = woken.waiters;
        while let Some(&w) = waiters.first() {
            let registered = waiters.len();
            waiters.retain(|&x| x != w);
            let listings = registered - waiters.len();
            self.check_waiter(ctx, w, if first_copy { listings } else { 0 });
        }
        // Local tasks waiting for this object in memory can pin now.
        self.drain_arg_waiters(ctx, node, obj);
    }

    /// A copy of `obj` that landed on `node` straight on disk (a fallback
    /// allocation) cannot be pinned: its local waiters go through
    /// restore.
    fn restage_if_on_disk(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId, obj: ObjectId) {
        if self.nodes[node.0].store.in_memory(obj.0) {
            return;
        }
        let ws = match self.objects.get_mut(obj.0) {
            Some(o) => o.take_arg_waiters(node),
            None => Vec::new(),
        };
        for t in ws {
            self.stage_arg(ctx, t, obj);
        }
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
            if !self
                .attempt(t)
                .is_some_and(|a| a.node == node && a.unstaged.contains(&obj))
            {
                continue;
            }
            self.pin_arg(t, node, obj);
            self.emit_fetch_wait(t, obj, node, false);
            self.try_start_staged(ctx, t, node);
        }
    }

    fn check_task_completion(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        let writes = entry.spec.opts.writes_output;
        let epoch = entry.epoch;
        let TaskState::Running(a) = &mut entry.state else {
            return;
        };
        if !a.cpu_done || a.outputs_pending > 0 || a.output_written {
            return;
        }
        let node = a.node;
        // `output_written` marks the final phase as initiated so this
        // function is idempotent while the write is in flight.
        a.output_written = true;
        if writes > 0 {
            let now = ctx.now();
            let done = DeviceDone::OutputWrite { task, epoch };
            self.submit_done(ctx, node, now, writes, IoKind::Sequential, done);
            self.emit_io(node, IoDir::Write, writes);
        } else {
            self.complete_task(ctx, task);
        }
    }

    fn complete_task(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        let entry = self.task_mut(task);
        let TaskState::Running(a) = &mut entry.state else {
            return;
        };
        let node = a.node;
        let pinned = std::mem::take(&mut a.pinned);
        entry.state = TaskState::Done;
        entry.reconstructing = false;
        let label = entry.spec.opts.label;
        let attempt = entry.attempt;
        let outputs = entry.outputs();
        let args = entry.obj_args.clone();
        self.nodes[node.0].running.remove(&task);
        self.nodes[node.0].slots_free += 1;
        // Unpin outputs (creator pins) — they stay sealed in the store.
        for o in outputs {
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
        // this is the task's true end. In-flight `OutputWrite` completions
        // are drained on driver exit, so final-stage spans still land.
        self.emit_task(task, TaskPhase::Finished, node, label, attempt, false, None);
        let tenant = self.tenant_of(task.job());
        self.jobs.task_unscheduled(tenant);
        if self.jobs.has_ready() {
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
    // Store pump: spills and grants
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
                let (now, bytes) = (ctx.now(), batch.bytes);
                let done = DeviceDone::Spill {
                    batch: Box::new(batch),
                };
                self.submit_done(ctx, node, now, bytes, kind, done);
                self.emit_io(node, IoDir::Write, bytes);
                progress = true;
            }
            // Grants.
            let granted = self.nodes[node.0].store.take_granted();
            if !granted.is_empty() {
                progress = true;
            }
            self.dispatch_grants(ctx, node, granted);
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
                AllocTag::Output { epoch } => {
                    // Live only for the attempt that asked, still placed here.
                    let placed = self.output_of(obj).filter(|&(task, _)| {
                        self.tasks.get(task.0).is_some_and(|e| e.epoch == epoch)
                            && self.attempt(task).is_some_and(|a| a.node == node)
                    });
                    let Some((task, idx)) = placed else {
                        self.nodes[node.0].store.unpin(obj.0);
                        self.nodes[node.0].store.forget(obj.0);
                        continue;
                    };
                    if kind == exo_store::GrantKind::CreateFallback {
                        let logical = self
                            .attempt(task)
                            .and_then(|a| a.pending_outputs.get(idx))
                            .and_then(Option::as_ref)
                            .map_or(0, |p| p.logical);
                        self.write_fallback(ctx, node, obj, epoch, logical);
                    } else {
                        self.seal_output(ctx, task, idx);
                    }
                }
                AllocTag::Fetch => {
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
                AllocTag::Restore => self.start_restore(ctx, node, obj),
            }
        }
    }

    fn fail_job(&mut self, ctx: &mut Ctx<'_, RtEvent>, job: JobId, err: RtError) {
        let st = self.jobs.ensure(job);
        let err = st.failed.get_or_insert(err).clone();
        // Purge the failed job's parked ready tasks: the fair-share
        // dispatcher must never spend cluster slots on work whose job
        // can no longer finish.
        st.ready.clear();
        // Resolve the failed job's pending waiters so its driver sees the
        // failure instead of hanging — other jobs' waiters are untouched
        // (one job's lost object must not fail another's get). The
        // arena's per-job listing is ascending by id, matching the sorted
        // order the HashMap-based table had to produce explicitly.
        let wids: Vec<u64> = self.waiters.job_keys(job.0);
        for wid in wids {
            match self.waiters.remove(wid) {
                Some(Waiter::Get { reply, .. }) => ctx.reply(reply, Err(err.clone())),
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
            if cap > 0 && n.store.used() as f64 / cap as f64 > ADMISSION_PRESSURE {
                return true;
            }
        }
        self.incidents_now()
            .iter()
            .any(|i| i.kind == exo_trace::IncidentKind::SpillStorm && i.t_close_us.is_none())
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

    /// Re-examines waiter `wid` right after registration or after one of
    /// its objects got a copy; `arrived` is how many of its listings that
    /// copy made available (0 unless it was the object's first).
    fn check_waiter(&mut self, ctx: &mut Ctx<'_, RtEvent>, wid: u64, arrived: usize) {
        let Some(w) = self.waiters.get_mut(wid) else {
            return;
        };
        let (counted, target) = w.tally();
        *counted += arrived;
        let counted = *counted;
        if cfg!(debug_assertions) {
            let ready = self
                .waiters
                .get(wid)
                .map_or(0, |w| self.ready_count(w.objs()));
            debug_assert!(
                counted >= ready,
                "waiter {wid} counted {counted} < {ready} ready"
            );
        }
        // Waiter ids are job-scoped; only the owning job's failure
        // resolves this waiter early.
        let failed = self.jobs.job(job_of(wid)).and_then(|j| j.failed.clone());
        if failed.is_none() && counted < target {
            return;
        }
        match (self.waiters.get(wid), failed) {
            (Some(Waiter::Get { .. }), Some(err)) => {
                if let Some(Waiter::Get { reply, .. }) = self.waiters.remove(wid) {
                    ctx.reply(reply, Err(err));
                }
            }
            (Some(Waiter::Get { objs, .. }), None) if self.ready_count(objs) == objs.len() => {
                let Some(Waiter::Get { objs, reply, .. }) = self.waiters.remove(wid) else {
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
            (
                Some(Waiter::Wait {
                    objs, num_ready, ..
                }),
                failed,
            ) if failed.is_some() || self.ready_count(objs) >= *num_ready => {
                self.finish_wait(ctx, wid);
            }
            _ => {}
        }
    }

    fn finish_wait(&mut self, ctx: &mut Ctx<'_, RtEvent>, wid: u64) {
        let Some(Waiter::Wait { objs, reply, .. }) = self.waiters.remove(wid) else {
            return;
        };
        let split = self.ready_split(&objs);
        for o in objs {
            if let Some(e) = self.objects.get_mut(o.0) {
                e.remove_waiter(wid);
            }
            self.maybe_gc(o);
        }
        ctx.reply(reply, split);
    }

    /// How many entries of `objs` are available (duplicates count twice).
    fn ready_count(&self, objs: &[ObjectId]) -> usize {
        objs.iter().filter(|&&o| self.obj_available(o)).count()
    }

    /// Indices of `objs` that are available, then of those that are not.
    fn ready_split(&self, objs: &[ObjectId]) -> (Vec<usize>, Vec<usize>) {
        (0..objs.len()).partition(|&i| self.obj_available(objs[i]))
    }

    /// A device op on `node` completed. `current` is false for an op
    /// booked before the node was last killed: its node-owned state
    /// died with the store, and a task-owned op's attempt was moved off
    /// the node, so it is void.
    fn on_device_done(
        &mut self,
        ctx: &mut Ctx<'_, RtEvent>,
        node: NodeId,
        current: bool,
        done: DeviceDone,
    ) {
        let task_epoch = |rt: &Runtime, task: TaskId| rt.tasks.get(task.0).map(|e| e.epoch);
        match done {
            DeviceDone::TaskInput { task, epoch } => {
                if task_epoch(self, task) == Some(epoch) {
                    self.exec_compute(ctx, task);
                }
            }
            DeviceDone::OutputFallback { obj, epoch } => {
                let out = self.output_of(obj);
                if let Some((task, idx)) = out.filter(|&(t, _)| task_epoch(self, t) == Some(epoch))
                {
                    self.seal_output(ctx, task, idx);
                }
            }
            DeviceDone::OutputWrite { task, epoch } => {
                if task_epoch(self, task) == Some(epoch) {
                    self.complete_task(ctx, task);
                }
            }
            _ if !current || !self.nodes[node.0].alive => {}
            DeviceDone::Spill { batch } => {
                self.nodes[node.0].store.spill_complete(&batch);
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
            DeviceDone::Restore { obj } => {
                self.nodes[node.0].store.restore_complete(obj.0);
                self.drain_arg_waiters(ctx, node, obj);
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
            DeviceDone::Fetch {
                obj,
                src,
                src_epoch,
            } => {
                let src = NodeId(src as usize);
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
                self.restage_if_on_disk(ctx, node, obj);
                self.pump_store(ctx, node);
                self.pump_node(ctx, node);
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// The engine's table footprints at shutdown; read once, after the
    /// run, so it cannot feed back into simulation state.
    pub(crate) fn tables(&self) -> EngineTables {
        EngineTables {
            objects: self.objects.footprint(),
            tasks: self.tasks.footprint(),
            store_slots: self
                .nodes
                .iter()
                .map(|n| n.store.slot_footprint())
                .fold(TableFootprint::default(), TableFootprint::plus),
            store_queues: self
                .nodes
                .iter()
                .map(|n| n.store.queue_footprint())
                .fold(TableFootprint::default(), TableFootprint::plus),
            queue: self.queue_footprint,
            rings: self.rings.footprint(),
        }
    }

    /// Metrics folded so far. `driver::run` reads them after the engine
    /// has fully shut down (including the drain of in-flight output
    /// writes), so the report covers the whole run rather than the
    /// driver's last call.
    pub(crate) fn metrics(&self) -> RtMetrics {
        let mut m = RtMetrics::from_counters(&self.sink.counters());
        for n in &self.nodes {
            m.store.merge(&n.store.metrics());
        }
        m
    }

    // ------------------------------------------------------------------
    // Observer ticks
    // ------------------------------------------------------------------

    /// Arm the next [`RtEvent::ObserveTick`] while resource samples have
    /// a consumer or a registration is parked. Called from real commands
    /// and events only — the tick handler never re-arms itself, so a
    /// quiescent (or deadlocked) simulation still stalls out instead of
    /// spinning virtual time forever.
    fn maybe_schedule_observe(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        if self.observe_scheduled || !(self.sink.sampling() || self.jobs.pending_admissions() > 0) {
            return;
        }
        self.observe_scheduled = true;
        ctx.schedule(
            SimDuration::from_micros(RESOURCE_SAMPLE_US),
            RtEvent::ObserveTick,
        );
    }

    /// Arm the next [`RtEvent::LiveSnapshot`] tick. Same discipline as
    /// [`Runtime::maybe_schedule_observe`].
    fn maybe_schedule_live(&mut self, ctx: &mut Ctx<'_, RtEvent>) {
        if self.cfg.live.is_none() || self.live_scheduled {
            return;
        }
        self.live_scheduled = true;
        ctx.schedule(
            SimDuration::from_micros(SNAPSHOT_INTERVAL_US),
            RtEvent::LiveSnapshot,
        );
    }

    /// Emit one [`ResourceSample`] per alive node: busy CPU slots, store
    /// bytes in use, disk ops queued, and NIC bytes in flight.
    fn emit_resource_samples(&mut self, now: SimTime) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if !n.alive {
                continue;
            }
            let cpus = self.cfg.cluster.node(i).cpus;
            let (disk_ops, _) = n.disk.pending_at(&self.rings, now);
            let (_, tx_bytes) = n.nic_tx.pending_at(&self.rings, now);
            let (_, rx_bytes) = n.nic_rx.pending_at(&self.rings, now);
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
            let k = t.state.name();
            *by_state.entry(k).or_default() += 1;
            if matches!(t.state, TaskState::Done) || shown >= 10 {
                continue;
            }
            shown += 1;
            lines.push(match t.state.attempt() {
                Some(a) => format!(
                    "{id:?} state={k:?} node={:?} unstaged={} outputs_pending={} cpu_done={} slot_held={}",
                    a.node,
                    a.unstaged.len(),
                    a.outputs_pending,
                    a.cpu_done,
                    a.slot_held
                ),
                None => format!("{id:?} state={k:?}"),
            });
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
                    let ready = self.ready_count(objs);
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
        self.maybe_schedule_observe(ctx);
        self.maybe_schedule_live(ctx);
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
                let id = self.jobs.ensure(job).fresh_objs(job, 1);
                let owner = self.tenant_of(id.job()).0;
                // Driver-put values live on node 0 (the head node) with no
                // lineage; paper applications only put small config values.
                let logical = value.logical;
                self.objects
                    .insert(id.0, ObjEntry::put(logical, value.data, NodeId(0)));
                // Account for it in node 0's store so locality and memory
                // pressure see it.
                let n = &mut self.nodes[0];
                if matches!(
                    n.store.request_create(
                        id.0,
                        logical,
                        AllocTag::Fetch,
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
                let counted = self.ready_count(&objs);
                self.waiters.insert(
                    wid,
                    Waiter::Get {
                        objs,
                        counted,
                        reply,
                    },
                );
                self.check_waiter(ctx, wid, 0);
            }
            RtCommand::Wait {
                job,
                objs,
                num_ready,
                timeout,
                reply,
            } => {
                // As `fail_job` resolves the waits it finds parked.
                if self.jobs.job(job).is_some_and(|j| j.failed.is_some()) {
                    ctx.reply(reply, self.ready_split(&objs));
                    return;
                }
                let wid = self.jobs.ensure(job).fresh_waiter(job);
                let num_ready = num_ready.min(objs.len());
                for &o in &objs {
                    if !self.ensure_obj_entry(o).available() {
                        self.ensure_available(ctx, o);
                    }
                    self.ensure_obj_entry(o).add_waiter(wid);
                }
                let counted = self.ready_count(&objs);
                self.waiters.insert(
                    wid,
                    Waiter::Wait {
                        objs,
                        counted,
                        num_ready,
                        reply,
                    },
                );
                if let Some(t) = timeout {
                    ctx.schedule(t, RtEvent::WaitDeadline { waiter: wid });
                }
                self.check_waiter(ctx, wid, 0);
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
                ctx.schedule(
                    dur,
                    RtEvent::SleepDone {
                        reply: Box::new(reply),
                    },
                );
            }
            RtCommand::Locations { obj, reply } => {
                let locs = self
                    .objects
                    .get(obj.0)
                    .map(|o| o.copies.to_vec())
                    .unwrap_or_default();
                ctx.reply(reply, locs);
            }
            RtCommand::Inject { at, fault, reply } => {
                ctx.schedule_at(at, RtEvent::Fault(fault));
                ctx.reply(reply, ());
            }
            RtCommand::Metrics { reply } => {
                let m = self.metrics();
                ctx.reply(reply, m);
            }
            RtCommand::NumNodes { reply } => {
                let n = self.nodes.len();
                ctx.reply(reply, n);
            }
            RtCommand::IncidentsNow { reply } => {
                let incidents = self.incidents_now();
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
    /// else (other completions, wait deadlines, scheduled failures,
    /// observer ticks) is discarded, though a discarded ring head still
    /// arms the op behind it, which may be a flush.
    fn drain_on_shutdown(&mut self, ctx: &mut Ctx<'_, RtEvent>, ev: RtEvent) -> bool {
        let RtEvent::Device { node, ring, done } = ev else {
            return false;
        };
        if let DeviceDone::OutputWrite { .. } = done {
            self.on_event(ctx, RtEvent::Device { node, ring, done });
            return true;
        }
        let node = NodeId(node as usize);
        let dev = self.nodes[node.0].device(&done);
        dev.fired(ctx, &mut self.rings, ring, device_event(node));
        false
    }

    fn on_shutdown(&mut self, queue: TableFootprint) {
        self.queue_footprint = queue;
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, RtEvent>, ev: RtEvent) {
        self.sink.set_now(ctx.now().as_micros());
        if !matches!(ev, RtEvent::ObserveTick | RtEvent::LiveSnapshot) {
            self.maybe_schedule_observe(ctx);
            self.maybe_schedule_live(ctx);
        }
        match ev {
            RtEvent::Device { node, ring, done } => {
                let node = NodeId(node as usize);
                let dev = self.nodes[node.0].device(&done);
                let current = dev.fired(ctx, &mut self.rings, ring, device_event(node));
                self.on_device_done(ctx, node, current, done);
            }
            RtEvent::TaskCpuDone { task, epoch } => {
                let valid = self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch);
                if !valid {
                    return;
                }
                self.land_outputs(task);
                let (generator, n_out) = {
                    let e = self.task(task);
                    (e.spec.opts.generator, e.spec.opts.num_returns)
                };
                if let Some(a) = self.attempt_mut(task) {
                    a.cpu_done = true;
                }
                if !generator {
                    for i in 0..n_out {
                        self.alloc_output(ctx, task, i);
                    }
                }
                self.check_task_completion(ctx, task);
            }
            RtEvent::OutputReady { task, idx, epoch } => {
                if self.tasks.get(task.0).map(|e| e.epoch) == Some(epoch) {
                    self.land_outputs(task);
                    self.alloc_output(ctx, task, idx);
                }
            }
            RtEvent::WaitDeadline { waiter } => {
                if self.waiters.contains(waiter) {
                    self.finish_wait(ctx, waiter);
                }
            }
            RtEvent::SleepDone { reply } => {
                ctx.reply(*reply, ());
            }
            RtEvent::Fault(fault) => self.on_fault(ctx, fault),
            RtEvent::ObserveTick => {
                self.observe_scheduled = false;
                if self.sink.sampling() {
                    self.emit_resource_samples(ctx.now());
                }
                if self.cfg.watch.is_some() {
                    self.sink.flush();
                    self.drain_watch();
                }
                // Store pressure may have cleared since a registration
                // was parked; ticks are the periodic re-check.
                self.drain_admission(ctx);
            }
            RtEvent::LiveSnapshot => {
                self.live_scheduled = false;
                if let Some(obs) = &self.observer {
                    // Reading the counters settles the sink's pending
                    // block, so the fold has seen every event emitted
                    // before this virtual instant when it is snapshotted.
                    let counters = self.sink.counters();
                    let now = ctx.now().as_micros();
                    if let Some(line) = obs.tick(counters, now, self.live_progress()) {
                        eprintln!("{line}");
                    }
                }
            }
            RtEvent::DispatchPass => {
                self.dispatch_scheduled = false;
                self.dispatch_pass(ctx);
            }
        }
    }
}
