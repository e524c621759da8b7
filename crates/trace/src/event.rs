//! Typed trace events. Every event is `Copy` and allocation-free so the
//! always-on ring buffer and fold stay cheap; timestamps are virtual-time
//! microseconds (the integer inside `exo_sim::SimTime`), kept as a plain
//! `u64` here so this crate has no dependencies and exporters can feed
//! Chrome's microsecond-based trace format directly.

/// Task lifecycle phases, in order. Queue wait is `Dequeued − Scheduled`,
/// argument staging is `Started − Dequeued`, execution is
/// `Finished − Started`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhase {
    /// Placed on a node's ready queue by the scheduler.
    Scheduled,
    /// Popped from the queue into a CPU slot (argument staging begins).
    Dequeued,
    /// Compute started (arguments resident).
    Started,
    /// Outputs sealed; slot released.
    Finished,
}

/// Why the scheduler chose the node it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceReason {
    /// Node already holds the largest share of the task's arguments.
    LocalityHit,
    /// Fell through to the least-loaded node.
    LeastLoaded,
    /// Hard node-affinity request was honoured.
    Affinity,
    /// Affinity target was dead; placed elsewhere.
    AffinityFallback,
    /// Round-robin spread placement.
    Spread,
    /// A bound-aware policy matched the task's resource shape against the
    /// node's hardware capacities.
    BoundMatch,
}

/// A placement decision: why the node was chosen, which policy chose it,
/// plus the capacity the scheduler saw on it at decision time.
/// Heterogeneous clusters have differing `slots_total` per node, so the
/// capacity considered is part of the record rather than recoverable
/// from a global constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    pub reason: PlaceReason,
    /// Name of the placement policy that made the decision
    /// (e.g. `"load_balance"`, `"bound_aware"`, `"hybrid"`).
    pub policy: &'static str,
    /// Policy-defined score of the winning node: estimated completion
    /// cost in microseconds for bound-aware policies, load-per-slot for
    /// load balancing. Comparable only within a single policy.
    pub score: f64,
    /// Free CPU slots on the chosen node when the decision was made.
    pub slots_free: u32,
    /// Total CPU slots on the chosen node.
    pub slots_total: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    pub task: u64,
    pub phase: TaskPhase,
    pub node: u32,
    /// Job the task belongs to (0 for single-job runs; the JSONL exporter
    /// omits the field when 0 so legacy traces are byte-identical).
    pub job: u32,
    pub label: &'static str,
    /// Execution attempt (0 for the first run; bumped on any retry,
    /// including executor-failure re-runs).
    pub attempt: u32,
    /// True on a `Scheduled` event only when the task was resubmitted
    /// through *lineage reconstruction* (a lost object forced a
    /// re-execution). Executor-failure re-runs keep this false — the
    /// fold counts only lineage resubmits as `tasks_reexecuted`.
    pub retry: bool,
    /// Present on `Scheduled` events only.
    pub reason: Option<Placement>,
}

/// Object lifecycle transitions in the plasma-style store and data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectPhase {
    /// Sealed into a node's store.
    Created,
    /// Copied over the network (`src` is the source node).
    Transferred,
    /// Written out to external storage under memory pressure.
    Spilled,
    /// Read back from external storage.
    Restored,
    /// Dropped from memory (refcount reached zero or unwritten evict).
    Evicted,
    /// Recreated by lineage re-execution after a failure.
    Reconstructed,
    /// Allocated directly in external storage (fallback allocation).
    Fallback,
}

#[derive(Debug, Clone, Copy)]
pub struct ObjectEvent {
    pub object: u64,
    pub phase: ObjectPhase,
    /// Node owning the object after this transition.
    pub node: u32,
    /// Source node for `Transferred`.
    pub src: Option<u32>,
    pub bytes: u64,
}

/// Direction of a task↔object dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// The task consumes the object as an argument.
    Arg,
    /// The task produces the object as one of its returns.
    Output,
}

/// One edge of the task/object dependency DAG, emitted at submission
/// time. `exo-prof` joins `Output` edges against `ObjectEvent::Created`
/// bytes and `Arg` edges against producer finish times to reconstruct
/// the DAG the critical-path analysis walks. Emitted only while the
/// sink retains the full stream — the always-on counter fold ignores
/// them.
#[derive(Debug, Clone, Copy)]
pub struct DepEvent {
    pub task: u64,
    pub object: u64,
    pub kind: DepKind,
}

/// Start/end of one task's wait for an argument object to become
/// memory-resident on its assigned node (remote fetch, spill restore, or
/// upstream reconstruction). The interval `end − begin` is the
/// fetch-wait time the critical-path report attributes to the task.
#[derive(Debug, Clone, Copy)]
pub struct FetchWaitEvent {
    pub task: u64,
    pub object: u64,
    pub node: u32,
    /// True on the wait's start, false when the object is pinned.
    pub begin: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    Read,
    Write,
}

/// One disk I/O completion attributed to a node. These carry the byte
/// counts that fold into `disk_read_bytes`/`disk_write_bytes`.
#[derive(Debug, Clone, Copy)]
pub struct IoEvent {
    pub node: u32,
    pub dir: IoDir,
    pub bytes: u64,
}

/// Periodic occupancy snapshot of one node's devices and queues.
#[derive(Debug, Clone, Copy)]
pub struct ResourceSample {
    pub node: u32,
    pub cpu_slots_busy: u32,
    /// Total CPU slots on the node, so consumers can compute occupancy
    /// without knowing the cluster spec.
    pub cpu_slots_total: u32,
    pub store_used: u64,
    pub disk_queue_depth: u32,
    pub nic_bytes_in_flight: u64,
}

/// Job lifecycle phases under the multi-job runtime. `Submitted` exists
/// for external producers (e.g. bench harnesses annotating arrival
/// times); the runtime itself emits `Admitted` (registration passed
/// admission control, ids assigned) and `Finished` (driver returned,
/// `FinishJob` processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Registration arrived (may still be queued by admission control).
    Submitted,
    /// Admission control let the job in; its id is now live.
    Admitted,
    /// The job's driver returned and the runtime retired it.
    Finished,
}

/// A job lifecycle edge. Ties a job id to its tenant and label so
/// downstream consumers (per-job critical paths, per-tenant snapshots,
/// isolation detectors) can group task spans without out-of-band state.
#[derive(Debug, Clone, Copy)]
pub struct JobEvent {
    pub job: u32,
    /// Tenant the job bills to.
    pub tenant: u32,
    pub phase: JobPhase,
    pub label: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Whole node killed (store contents lost).
    NodeKilled,
    /// Executors killed; store survives.
    ExecutorsKilled,
}

#[derive(Debug, Clone, Copy)]
pub struct FailureEvent {
    pub node: u32,
    pub kind: FailureKind,
}

/// What an online detector (`exo-watch`) decided was anomalous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// A task's execution time exceeded k× its stage's live p50 while
    /// enough peers had already finished.
    Straggler,
    /// One node's rolling disk-busy fraction pinned high while the
    /// cluster median stayed low.
    DiskHotspot,
    /// Same, for the network.
    NetHotspot,
    /// Windowed spill-byte rate crossed a store-pressure threshold.
    SpillStorm,
    /// Live queue-delay p99 drifted k× above its run-so-far baseline.
    QueueDelay,
    /// Re-executed tasks after a failure exceeded the direct-loss set.
    ReconstructionCascade,
    /// A tenant held more concurrent CPU slots than its configured quota
    /// at a detector evaluation boundary — the multi-tenant isolation
    /// guarantee was observably violated.
    IsolationViolation,
}

/// The open or close edge of one detected incident. Emitted into the
/// trace sink by the runtime (never by observers themselves) so the
/// detection layer's verdicts become first-class, exportable events:
/// Chrome traces render open/close pairs as spans on an `incidents`
/// track, and the JSONL stream carries them as `"type":"incident"`
/// lines. `id` pairs the two edges; evidence is the observed `value`
/// against the configured `threshold` at that edge, and `severity` is
/// their ratio.
#[derive(Debug, Clone, Copy)]
pub struct IncidentEvent {
    /// Detector-assigned id, unique within a run, pairing open ↔ close.
    pub id: u32,
    pub kind: IncidentKind,
    /// True on the incident's open edge, false on its close.
    pub open: bool,
    /// Evidence ratio `value / threshold` (peak-so-far on close).
    pub severity: f64,
    /// Node scope, when the incident is attributable to one node.
    pub node: Option<u32>,
    /// Stage scope (task label), e.g. for stragglers.
    pub stage: Option<&'static str>,
    /// Task scope, for per-task incidents.
    pub task: Option<u64>,
    /// Tenant scope, for multi-tenant isolation incidents.
    pub tenant: Option<u32>,
    /// The observed quantity that triggered (or peaked during) the
    /// incident, in the detector's native unit (µs, bytes, utilisation).
    pub value: f64,
    /// The configured threshold it is measured against.
    pub threshold: f64,
}

#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    Task(TaskSpan),
    Object(ObjectEvent),
    Dep(DepEvent),
    FetchWait(FetchWaitEvent),
    Io(IoEvent),
    Resource(ResourceSample),
    Failure(FailureEvent),
    Incident(IncidentEvent),
    Job(JobEvent),
}

/// A timestamped event. `at_us` is virtual time in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub at_us: u64,
    pub kind: EventKind,
}

impl TaskPhase {
    pub fn name(self) -> &'static str {
        match self {
            TaskPhase::Scheduled => "scheduled",
            TaskPhase::Dequeued => "dequeued",
            TaskPhase::Started => "started",
            TaskPhase::Finished => "finished",
        }
    }
}

impl PlaceReason {
    pub fn name(self) -> &'static str {
        match self {
            PlaceReason::LocalityHit => "locality_hit",
            PlaceReason::LeastLoaded => "least_loaded",
            PlaceReason::Affinity => "affinity",
            PlaceReason::AffinityFallback => "affinity_fallback",
            PlaceReason::Spread => "spread",
            PlaceReason::BoundMatch => "bound_match",
        }
    }
}

impl ObjectPhase {
    pub fn name(self) -> &'static str {
        match self {
            ObjectPhase::Created => "created",
            ObjectPhase::Transferred => "transferred",
            ObjectPhase::Spilled => "spilled",
            ObjectPhase::Restored => "restored",
            ObjectPhase::Evicted => "evicted",
            ObjectPhase::Reconstructed => "reconstructed",
            ObjectPhase::Fallback => "fallback",
        }
    }
}

impl DepKind {
    pub fn name(self) -> &'static str {
        match self {
            DepKind::Arg => "arg",
            DepKind::Output => "output",
        }
    }
}

impl JobPhase {
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Submitted => "submitted",
            JobPhase::Admitted => "admitted",
            JobPhase::Finished => "finished",
        }
    }
}

impl FailureKind {
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::NodeKilled => "node_killed",
            FailureKind::ExecutorsKilled => "executors_killed",
        }
    }
}

impl IncidentKind {
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Straggler => "straggler",
            IncidentKind::DiskHotspot => "disk_hotspot",
            IncidentKind::NetHotspot => "net_hotspot",
            IncidentKind::SpillStorm => "spill_storm",
            IncidentKind::QueueDelay => "queue_delay",
            IncidentKind::ReconstructionCascade => "reconstruction_cascade",
            IncidentKind::IsolationViolation => "isolation_violation",
        }
    }

    pub const ALL: [IncidentKind; 7] = [
        IncidentKind::Straggler,
        IncidentKind::DiskHotspot,
        IncidentKind::NetHotspot,
        IncidentKind::SpillStorm,
        IncidentKind::QueueDelay,
        IncidentKind::ReconstructionCascade,
        IncidentKind::IsolationViolation,
    ];
}
