//! The `cloudsort_xl` case: CloudSort-record cluster geometry (100
//! d3.2xlarge nodes, 100 TB logical dataset — the scale at which
//! Exoshuffle-CloudSort set the 2022 record) with the partition count
//! scaled down proportionally so the engine still sees tens of millions
//! of tasks/objects rather than the record run's billions. This is the
//! workload the engine-core refactor (event queue, arena tables,
//! batched tracing) is sized against: the shared [`run_xl`] runner
//! reports sim-events/sec and wall-clock alongside the usual sort
//! metrics, and reruns must be bit-identical.

use std::time::Instant;

use exo_rt::trace::Json;
use exo_rt::EngineTables;
use exo_shuffle::ShuffleVariant;
use exo_sim::{NodeSpec, TableFootprint};

use crate::runs::{run_es_sort, EsSortParams, SortRunResult};

/// Nodes in the CloudSort geometry (matches fig4d / the record run).
pub const XL_NODES: usize = 100;

/// Logical dataset bytes: the full 100 TB CloudSort input.
pub const XL_DATA_BYTES: u64 = 100_000_000_000_000;

/// Sim-events/sec floor asserted by the bench gate on the smoke
/// geometry. The pre-refactor engine (every device completion queued
/// as its own event, HashMap tables, per-event tracing, per-call
/// arg-set rebuilds) measured ~21 k events/s on this case on the
/// reference machine; the refactored engine measures ~180 k. The floor
/// sits at ~4.7× the pre-refactor rate — far above any pre-refactor
/// regression, with ~45% headroom below the measured rate for slow CI
/// machines.
pub const XL_EVENTS_PER_SEC_FLOOR: f64 = 100_000.0;

/// Minimum ratio of events/s at [`XL_MID_PARTITIONS`] to events/s at
/// [`XL_SMOKE_PARTITIONS`], asserted by the smoke run: 2x partitions is
/// ~3.3x events, so near-linear per-event cost keeps the ratio near 1.
/// With each reducer rescanning its whole argument list on every
/// landing (O(maps × reducers²) per run) it measured 0.37 (274 k vs
/// 100 k events/s on a 2-vCPU host); with the arrival countdown,
/// 0.92–1.18 over three runs (e.g. 493 k vs 454 k on the same host).
pub const XL_SCALING_MIN_RATIO: f64 = 0.6;

/// Peak-RSS ceiling for the `--quick` mid run at [`XL_MID_PARTITIONS`]
/// (process VmHWM, which the mid run sets). With 168-byte directory
/// entries, four per-object vectors and task buffers kept at their
/// grown size it measured 691 MB; with the 96-byte entry, one wait list
/// and freed task buffers, 512 and 521 MB over two runs (same 2-vCPU
/// host); with every map's partition blocks sharing one sorted-run
/// allocation instead of a `Vec` and an `Arc` each, 444 and 446 MB
/// (519 and 523 MB with per-block allocations); with device
/// completions in 32-B ring entries instead of 56-B wheel entries, 429
/// and 431 MB. The ceiling sits 15% above the higher, so the per-block
/// layout (519–523 MB less the ~15 MB the rings save) fails it.
pub const XL_MID_RSS_CEILING_BYTES: u64 = 496_000_000;

/// Partition counts: the smoke pair CI runs, the mid run the scaling
/// ratio is judged on, and the full CloudSort-proportioned geometry.
pub const XL_SMOKE_PARTITIONS: usize = 400;
pub const XL_MID_PARTITIONS: usize = 800;
pub const XL_FULL_PARTITIONS: usize = 3200;

/// The xl sort parameters at `partitions` partitions: the same 100-node
/// cluster and the same data:store ratio per partition at every size,
/// so smaller geometries fit the bench gate's time budget; the full
/// geometry is what `results/cloudsort_xl.json` records.
pub fn xl_params(partitions: usize) -> EsSortParams {
    // Full: 3200 partitions → ~10 M shuffle-block transfers across the
    // all-to-all; smoke: 400 partitions → 160 k blocks, a few seconds.
    // The Simple (unfused, all-to-all) variant maximises engine-table
    // and event-queue churn per simulated second, which is exactly what
    // this case exists to stress.
    // Scale the dataset with the partition count so per-partition bytes
    // (and the data:store ratio driving the out-of-core spill behaviour)
    // stay at the record run's proportions.
    let data_bytes = XL_DATA_BYTES / XL_FULL_PARTITIONS as u64 * partitions as u64;
    let node = NodeSpec::d3_2xlarge();
    EsSortParams::new(
        node,
        XL_NODES,
        data_bytes,
        partitions,
        ShuffleVariant::Simple,
    )
}

/// One measured xl run: sort metrics plus engine throughput.
#[derive(Clone, Debug)]
pub struct XlStats {
    pub result: SortRunResult,
    /// Engine events + commands dispatched by this run.
    pub events: u64,
    /// Wall seconds for this run.
    pub wall_s: f64,
}

impl XlStats {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs the case once under event/wall accounting.
pub fn run_xl(p: EsSortParams) -> XlStats {
    let e0 = exo_sim::dispatch_total();
    let t0 = Instant::now();
    let result = run_es_sort(p);
    let wall_s = t0.elapsed().as_secs_f64();
    let events = exo_sim::dispatch_total() - e0;
    XlStats {
        result,
        events,
        wall_s,
    }
}

/// Metric-by-metric bit-identity check between two runs of the same
/// parameters; returns the differing metric names (empty = identical).
pub fn rerun_diffs(a: &SortRunResult, b: &SortRunResult) -> Vec<&'static str> {
    let mut diffs = Vec::new();
    if a.jct != b.jct {
        diffs.push("jct");
    }
    if a.spilled != b.spilled {
        diffs.push("spilled");
    }
    if a.net != b.net {
        diffs.push("net");
    }
    if a.disk_read != b.disk_read {
        diffs.push("disk_read");
    }
    if a.disk_write != b.disk_write {
        diffs.push("disk_write");
    }
    if a.reexecuted != b.reexecuted {
        diffs.push("reexecuted");
    }
    diffs
}

/// The engine's table footprints as the `"tables"` object of the
/// results JSON: `{live, capacity, bytes, written}` per table. The
/// `queue` and `device_rings` tables give their peak entries and peak
/// allocation, since they are empty at shutdown.
pub fn tables_json(t: &EngineTables) -> Json {
    let table = |f: TableFootprint| {
        Json::obj()
            .set("live", f.live as u64)
            .set("capacity", f.capacity as u64)
            .set("bytes", f.bytes as u64)
            .set("written", f.written as u64)
    };
    Json::obj()
        .set("objects", table(t.objects))
        .set("tasks", table(t.tasks))
        .set("store_slots", table(t.store_slots))
        .set("queue", table(t.queue))
        .set("device_rings", table(t.rings))
}
