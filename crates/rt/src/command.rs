//! Driver → runtime commands and runtime errors.

use exo_sim::engine::Reply;
use exo_sim::{SimDuration, SimTime};

use crate::ids::{JobId, NodeId, ObjectId};
use crate::jobs::JobParams;
use crate::metrics::RtMetrics;
use crate::object::Payload;
use crate::runtime::Fault;
use crate::task::TaskSpec;

/// Errors surfaced to the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// An object lost its last copy and has no lineage to rebuild it
    /// from: a driver `put` whose only copy lived on a node that died.
    /// Fails the object's job, so every later `get` of that job returns
    /// this error.
    ObjectLost {
        /// The unrecoverable object.
        obj: ObjectId,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::ObjectLost { obj } => write!(f, "object {obj:?} lost and unrecoverable"),
        }
    }
}

impl std::error::Error for RtError {}

/// Commands the driver can issue. Every command carries a reply so the
/// virtual-time engine can account for parked drivers deterministically.
pub enum RtCommand {
    /// Register a job with the runtime. The reply is parked until the
    /// job is *admitted* — under store pressure the job manager queues
    /// registrations, so this doubles as admission control's backpressure
    /// surface.
    RegisterJob {
        /// Tenant, priority and label for the new job.
        params: JobParams,
        /// The admitted job's id.
        reply: Reply<JobId>,
    },
    /// Mark a job finished: its driver has returned and no more commands
    /// will arrive for it. Unblocks queued admissions.
    FinishJob {
        /// The finished job.
        job: JobId,
        /// Ack.
        reply: Reply<()>,
    },
    /// Park until a job finishes (coordinator-side join that keeps the
    /// virtual clock advancing; replies immediately if already finished).
    AwaitJob {
        /// The job to wait for.
        job: JobId,
        /// Resolved at `FinishJob`.
        reply: Reply<()>,
    },
    /// Submit a task; replies with the ids of its return objects.
    Submit {
        /// Job submitting the task.
        job: JobId,
        /// Task to run.
        spec: TaskSpec,
        /// Return-object ids (one per declared return).
        reply: Reply<Vec<ObjectId>>,
    },
    /// Put an inline value into the cluster from the driver.
    Put {
        /// Job owning the new object.
        job: JobId,
        /// The value.
        value: Payload,
        /// The new object's id.
        reply: Reply<ObjectId>,
    },
    /// Block until all objects are available, then fetch their payloads.
    Get {
        /// Job issuing the get (scopes failure reporting).
        job: JobId,
        /// Objects to fetch.
        objs: Vec<ObjectId>,
        /// Payloads in request order, or an error.
        reply: Reply<Result<Vec<Payload>, RtError>>,
    },
    /// Block until `num_ready` of the objects are available or the timeout
    /// elapses; replies with (ready, pending) index lists.
    Wait {
        /// Job issuing the wait.
        job: JobId,
        /// Objects to watch.
        objs: Vec<ObjectId>,
        /// How many must be ready before returning (clamped to len).
        num_ready: usize,
        /// Optional timeout.
        timeout: Option<SimDuration>,
        /// Indices into `objs`: (ready, not-ready).
        reply: Reply<(Vec<usize>, Vec<usize>)>,
    },
    /// Drop one driver reference to an object (posted, no reply).
    Release {
        /// The object.
        obj: ObjectId,
    },
    /// Current virtual time.
    Now {
        /// The clock.
        reply: Reply<SimTime>,
    },
    /// Sleep for a virtual duration.
    Sleep {
        /// How long.
        dur: SimDuration,
        /// Wakes at the deadline.
        reply: Reply<()>,
    },
    /// Nodes currently holding a copy of an object (runtime introspection,
    /// §4.3.2 — used by Riffle-style locality grouping).
    Locations {
        /// The object.
        obj: ObjectId,
        /// Nodes with a copy (any residency).
        reply: Reply<Vec<NodeId>>,
    },
    /// Schedule a fault (node or executor failure injection, §4.2.3 and
    /// §5.1.5).
    Inject {
        /// When it strikes.
        at: SimTime,
        /// What fails.
        fault: Fault,
        /// Ack (immediate; the fault strikes later).
        reply: Reply<()>,
    },
    /// Snapshot of runtime metrics.
    Metrics {
        /// The counters.
        reply: Reply<RtMetrics>,
    },
    /// Number of nodes in the cluster.
    NumNodes {
        /// Count (including dead ones).
        reply: Reply<usize>,
    },
    /// Incidents the online detectors have decided so far — open and
    /// closed — when [`crate::RtConfig::watch`] is set; empty otherwise.
    /// The mid-run trigger surface for adaptive placement/variant logic.
    IncidentsNow {
        /// Decided incidents, in detection order.
        reply: Reply<Vec<exo_watch::Incident>>,
    },
}
