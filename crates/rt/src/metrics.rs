//! Cluster-wide runtime metrics.
//!
//! Since the tracing rework these are a *view*: the scalar counters are
//! derived by folding the runtime's trace-event stream
//! ([`exo_trace::TraceCounters`]), and only the per-store compatibility
//! metrics are merged in separately. [`RtMetrics::from_counters`] is the
//! one conversion point.

use exo_sim::TableFootprint;
use exo_store::StoreMetrics;
use exo_trace::TraceCounters;

/// Live entries and allocated capacity of the engine's largest tables,
/// read once at shutdown. The arenas never give capacity back, so their
/// capacity is the run's peak; only the stores of killed nodes (rebuilt
/// empty) shed theirs. The event queue has drained by then, so it
/// reports its peak entries and peak capacity instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTables {
    /// Object directory.
    pub objects: TableFootprint,
    /// Task table.
    pub tasks: TableFootprint,
    /// Object-store slot tables, summed over nodes.
    pub store_slots: TableFootprint,
    /// Event queue, at its peak.
    pub queue: TableFootprint,
    /// Device completion rings (the ops queued behind each server's
    /// head), at their peak.
    pub rings: TableFootprint,
}

/// Aggregated counters across all nodes.
#[derive(Clone, Debug, Default)]
pub struct RtMetrics {
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Task executions that were lineage-reconstruction re-runs.
    pub tasks_reexecuted: u64,
    /// Bytes moved over the network between nodes.
    pub net_bytes: u64,
    /// Network transfer operations.
    pub net_ops: u64,
    /// Bytes read from disk (restores, remote reads of spilled objects,
    /// job input).
    pub disk_read_bytes: u64,
    /// Bytes written to disk (spills, fallback allocations, job output).
    pub disk_write_bytes: u64,
    /// Sum of per-node store metrics.
    pub store: StoreMetrics,
    /// Objects reconstructed through lineage.
    pub objects_reconstructed: u64,
    /// Node failures injected.
    pub node_failures: u64,
    /// Executor-process failures injected (objects survive these).
    pub executor_failures: u64,
}

impl RtMetrics {
    /// Builds the scalar counters from a trace fold; the caller merges
    /// in each node's store metrics ([`StoreMetrics::merge`]).
    pub(crate) fn from_counters(c: &TraceCounters) -> RtMetrics {
        RtMetrics {
            tasks_completed: c.tasks_completed,
            tasks_reexecuted: c.tasks_reexecuted,
            net_bytes: c.net_bytes,
            net_ops: c.net_ops,
            disk_read_bytes: c.disk_read_bytes,
            disk_write_bytes: c.disk_write_bytes,
            store: StoreMetrics::default(),
            objects_reconstructed: c.objects_reconstructed,
            node_failures: c.node_failures,
            executor_failures: c.executor_failures,
        }
    }
}
