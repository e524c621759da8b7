//! Shared experiment runners.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use exo_rt::trace::Json;
use exo_rt::{NodeId, ObjectRef, RtConfig, RtHandle, RunReport, ServiceHandle};
use exo_shuffle::{run_shuffle, ShuffleJob, ShuffleVariant};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};
use exo_sort::{sort_job, SortSpec};

/// Wall nanoseconds this process has spent inside engine runs (the
/// denominator of `sim_events_per_sec`); accumulated by [`timed_run`]
/// and [`timed_run_service`], paired with `exo_sim::dispatch_total()`
/// as the numerator.
static RUN_WALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// [`exo_rt::run`] under wall-clock accounting, so the bin's
/// `results/<name>.json` can report sim-events/sec (see [`perf_json`]).
/// All bench bins should enter the runtime through this (or
/// [`timed_run_service`]) rather than `exo_rt::run` directly.
pub fn timed_run<R: Send>(
    cfg: RtConfig,
    driver: impl FnOnce(&RtHandle) -> R + Send,
) -> (RunReport, R) {
    let t0 = Instant::now();
    let out = exo_rt::run(cfg, driver);
    RUN_WALL_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

/// [`timed_run`] hooked up to the observability flags, which the first
/// such run of a process takes (see [`crate::obs::instrument`]).
pub fn observed_run<R: Send>(
    mut cfg: RtConfig,
    driver: impl FnOnce(&RtHandle) -> R + Send,
) -> (RunReport, R) {
    let caps = cfg.device_caps();
    let obs = crate::obs::instrument(&mut cfg);
    let out = timed_run(cfg, driver);
    obs.finish(&out.0, &caps);
    out
}

/// [`exo_rt::run_service`] under the same wall-clock accounting as
/// [`timed_run`].
pub fn timed_run_service<R: Send>(
    cfg: RtConfig,
    coordinator: impl FnOnce(&ServiceHandle) -> R + Send,
) -> (RunReport, R) {
    let t0 = Instant::now();
    let out = exo_rt::run_service(cfg, coordinator);
    RUN_WALL_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// The process-wide perf block embedded under `"perf"` in every bench
/// bin's `results/<name>.json`: engine events dispatched, wall seconds
/// spent dispatching them, the resulting sim-events/sec, and peak RSS.
pub fn perf_json() -> Json {
    let events = exo_sim::dispatch_total();
    let wall_s = RUN_WALL_NANOS.load(Ordering::Relaxed) as f64 / 1e9;
    let eps = if wall_s > 0.0 {
        events as f64 / wall_s
    } else {
        0.0
    };
    Json::obj()
        .set("sim_events", events)
        .set("run_wall_s", wall_s)
        .set("sim_events_per_sec", eps)
        .set("peak_rss_bytes", peak_rss_bytes())
}

/// Parameters for one Exoshuffle sort run.
#[derive(Clone, Copy, Debug)]
pub struct EsSortParams {
    /// Node hardware.
    pub node: NodeSpec,
    /// Cluster size.
    pub nodes: usize,
    /// Logical dataset bytes.
    pub data_bytes: u64,
    /// Partition count (`M = R = partitions`, as in the paper's sweeps).
    pub partitions: usize,
    /// Payload scale factor (logical:real).
    pub scale: u64,
    /// Shuffle variant.
    pub variant: ShuffleVariant,
    /// Inject a node failure: (victim, at, restart_after).
    pub failure: Option<(usize, SimTime, SimDuration)>,
    /// In-memory mode: no input read / output write charges (Fig 4c).
    pub in_memory: bool,
    /// Override the per-node object-store capacity (scaled-down runs must
    /// also scale memory to preserve the paper's data:memory ratio).
    pub store_capacity: Option<u64>,
}

impl EsSortParams {
    /// A failure-free on-disk sort of `data_bytes` at [`default_scale`],
    /// with each node's stock object store.
    pub fn new(
        node: NodeSpec,
        nodes: usize,
        data_bytes: u64,
        partitions: usize,
        variant: ShuffleVariant,
    ) -> EsSortParams {
        EsSortParams {
            node,
            nodes,
            data_bytes,
            partitions,
            scale: default_scale(data_bytes),
            variant,
            failure: None,
            in_memory: false,
            store_capacity: None,
        }
    }
}

/// Result of one sort run.
#[derive(Clone, Debug)]
pub struct SortRunResult {
    /// Job completion time.
    pub jct: SimDuration,
    /// Bytes spilled to disk by the object stores.
    pub spilled: u64,
    /// Network bytes moved.
    pub net: u64,
    /// Total disk reads.
    pub disk_read: u64,
    /// Total disk writes.
    pub disk_write: u64,
    /// Lineage re-executions (failure runs).
    pub reexecuted: u64,
    /// Engine table footprints at shutdown.
    pub tables: exo_rt::EngineTables,
}

/// Execute a sort under the given parameters and return its metrics.
/// Output is validated when the run is failure-free (re-execution changes
/// nothing, but validation via `get` would distort JCT measurement, so
/// failure runs skip it here — the integration tests cover correctness
/// under failures).
pub fn run_es_sort(p: EsSortParams) -> SortRunResult {
    run_es_sort_inner(p, None, &|rt, job| run_shuffle(rt, job, p.variant)).0
}

/// Like [`run_es_sort`], but `shuffle` runs the job in place of
/// `p.variant`'s stock configuration (the ablations switch off one
/// optimisation of a variant).
pub fn run_es_sort_with(
    p: EsSortParams,
    shuffle: impl Fn(&RtHandle, &ShuffleJob) -> Vec<ObjectRef> + Sync,
) -> SortRunResult {
    run_es_sort_inner(p, None, &shuffle).0
}

/// Like [`run_es_sort`], but with the online incident detectors forced
/// on at their default thresholds, independent of the CLI flags —
/// returns the metrics plus the detected incident set. The incident
/// gate (`bench_gate --incidents-diff`) pins the latter bit-for-bit.
pub fn run_es_sort_watched(p: EsSortParams) -> (SortRunResult, exo_rt::watch::WatchReport) {
    let (result, watch) = run_es_sort_inner(p, Some(exo_rt::WatchConfig::default()), &|rt, job| {
        run_shuffle(rt, job, p.variant)
    });
    (result, watch.expect("watch was configured"))
}

fn run_es_sort_inner(
    p: EsSortParams,
    force_watch: Option<exo_rt::WatchConfig>,
    shuffle: &(dyn Fn(&RtHandle, &ShuffleJob) -> Vec<ObjectRef> + Sync),
) -> (SortRunResult, Option<exo_rt::watch::WatchReport>) {
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(p.node, p.nodes));
    cfg.object_store_capacity = p.store_capacity;
    let caps = cfg.device_caps();
    let obs = crate::obs::instrument(&mut cfg);
    if force_watch.is_some() {
        cfg.watch = force_watch;
    }
    let spec = SortSpec {
        data_bytes: p.data_bytes,
        num_maps: p.partitions,
        num_reduces: p.partitions,
        scale: p.scale,
        seed: 7,
    };
    let (report, jct) = timed_run(cfg, |rt| {
        if let Some((victim, at, restart)) = p.failure {
            rt.kill_node(NodeId(victim), at, Some(restart));
        }
        let mut job = sort_job(spec);
        if p.in_memory {
            job.map_input_bytes = 0;
            job.reduce_output_bytes = 0;
        }
        let t0 = rt.now();
        let outs = shuffle(rt, &job);
        rt.wait_all(&outs);
        rt.now() - t0
    });
    obs.finish(&report, &caps);
    (
        SortRunResult {
            jct,
            spilled: report.metrics.store.spilled_bytes,
            net: report.metrics.net_bytes,
            disk_read: report.metrics.disk_read_bytes,
            disk_write: report.metrics.disk_write_bytes,
            reexecuted: report.metrics.tasks_reexecuted,
            tables: report.tables,
        },
        report.incidents,
    )
}

/// Default payload scale factor for a dataset size: keeps real bytes in
/// the tens of megabytes so paper-scale runs stay fast.
pub fn default_scale(data_bytes: u64) -> u64 {
    (data_bytes / 50_000_000).max(1)
}

/// Variant display names matching the paper's legends.
pub fn variant_name(v: ShuffleVariant) -> &'static str {
    match v {
        ShuffleVariant::Simple => "ES-simple",
        ShuffleVariant::Merge { .. } => "ES-merge",
        ShuffleVariant::Push { .. } => "ES-push",
        ShuffleVariant::PushStar { .. } => "ES-push*",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sort_run_produces_sane_metrics() {
        let r = run_es_sort(EsSortParams {
            node: NodeSpec::i3_2xlarge(),
            nodes: 4,
            data_bytes: 1_000_000_000,
            partitions: 16,
            scale: 1000,
            variant: ShuffleVariant::PushStar { map_parallelism: 2 },
            failure: None,
            in_memory: false,
            store_capacity: None,
        });
        assert!(r.jct > SimDuration::ZERO);
        // External sort reads and writes at least 2 passes.
        assert!(r.disk_read >= 1_000_000_000);
        assert!(r.disk_write >= 1_000_000_000);
    }

    #[test]
    fn default_scale_keeps_real_data_small() {
        assert_eq!(default_scale(1_000_000), 1);
        assert_eq!(
            default_scale(100_000_000_000_000) * 50_000_000,
            100_000_000_000_000
        );
    }
}
