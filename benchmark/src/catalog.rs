//! The metric catalogue: units, directions and bounds come from
//! BENCHMARK.json, compiled in so the binary reports exactly what the
//! file declares; the table here adds which end-to-end metric each
//! per-layer one should move.

use exo_rt::trace::Json;

use crate::stats::Better;

/// The benchmark's definition: metric units, directions and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Each per-layer metric and the end-to-end metric and workloads it
/// should move.
pub const MOVES: [(&str, &str); 52] = [
    ("sim.dispatches", "wall_s on xl_simple, ft_simple"),
    (
        "sim.host_us_per_dispatch",
        "wall_s on xl_simple; flat on spill_pushstar",
    ),
    ("rt.wait_s", "wall_s on xl_simple, ft_simple"),
    ("rt.get_s", "wall_s on all"),
    ("rt.teardown_s", "wall_s on xl_simple"),
    (
        "rt.tasks_completed",
        "sim.dispatches; sim_jct_s on ft_simple",
    ),
    ("rt.tasks_reexecuted", "sim_jct_s on ft_simple"),
    ("rt.objects_reconstructed", "sim_jct_s on ft_simple"),
    ("rt.net_ops", "sim.dispatches; sim_jct_s on spill_pushstar"),
    ("rt.net_bytes", "sim_jct_s on spill_pushstar, ft_simple"),
    (
        "rt.disk_read_bytes",
        "sim_jct_s on spill_pushstar, ft_simple",
    ),
    (
        "rt.disk_write_bytes",
        "sim_jct_s on spill_pushstar, ft_simple",
    ),
    ("rt.admission_wait_p50_s", "sim_jct_p75_s on multitenant"),
    ("rt.priority_jct_p50_s", "sim_jct_p75_s on multitenant"),
    ("shuffle.driver_s", "wall_s on spill_pushstar"),
    ("store.spilled_bytes", "sim_jct_s on spill_pushstar"),
    ("store.spill_files", "sim_jct_s on spill_pushstar"),
    ("store.spilled_objects", "sim_jct_s on spill_pushstar"),
    ("store.restored_bytes", "sim_jct_s on spill_pushstar"),
    ("store.restore_ops", "sim_jct_s on spill_pushstar"),
    ("store.fallback_allocs", "sim_jct_s on spill_pushstar"),
    ("store.spill_writes_elided", "sim_jct_s on spill_pushstar"),
    ("store.evicted_unwritten", "sim_jct_s on spill_pushstar"),
    ("store.peak_used_bytes", "sim_jct_s on spill_pushstar"),
    ("store.restore_amplification", "sim_jct_s on spill_pushstar"),
    ("store.quota_denials", "sim_jct_p75_s on multitenant"),
    (
        "sort.map_kernel_s",
        "wall_s on spill_pushstar; ~3% of xl_simple",
    ),
    (
        "sort.reduce_kernel_s",
        "wall_s on spill_pushstar; ~3% of xl_simple",
    ),
    ("sort.validate_s", "none (outside wall_s)"),
    ("sort.real_mb", "sort kernels on all"),
    ("trace.events", "trace.overhead_s on all"),
    ("trace.overhead_s", "none (traced pass only)"),
    ("trace.chrome_s", "none (user-facing --trace export)"),
    ("trace.chrome_mb", "trace.chrome_s"),
    ("trace.jsonl_s", "none (user-facing --trace export)"),
    ("trace.jsonl_mb", "trace.jsonl_s"),
    ("trace.summary_s", "none (user-facing --trace summary)"),
    (
        "trace.kind.Task",
        "sim.dispatches; wall_s on all (always-on counter fold)",
    ),
    (
        "trace.kind.Object",
        "sim.dispatches; wall_s on all (always-on counter fold)",
    ),
    ("trace.kind.Dep", "trace.overhead_s (retention only)"),
    ("trace.kind.FetchWait", "trace.overhead_s (retention only)"),
    ("trace.kind.Io", "sim.dispatches; wall_s on spill_pushstar"),
    ("trace.kind.Resource", "trace.overhead_s (retention only)"),
    ("trace.kind.Failure", "sim_jct_s on ft_simple"),
    ("trace.kind.Incident", "obs.overhead_s"),
    ("trace.kind.Job", "wall_s on multitenant"),
    ("prof.profile_s", "none (user-facing --profile latency)"),
    ("obs.overhead_s", "none (live+watch pass only)"),
    ("watch.incidents", "wall_s on multitenant"),
    ("host.cpu_s", "wall_s on all (handoff and parking loss)"),
    (
        "host.cpu_per_wall",
        "wall_s on all (below 1: handoff or parking loss)",
    ),
    ("host.traced_peak_rss_mb", "none (traced pass only)"),
];

/// A metric as BENCHMARK.json defines it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// `Some` for end-to-end metrics.
    pub bound: Option<f64>,
}

fn parse_defs(j: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let Some(Json::Arr(items)) = j.get(key) else {
        return Err(format!("BENCHMARK.json: no `{key}` list"));
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let better = match s("better").as_deref() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("BENCHMARK.json: bad `better` {other:?}")),
            };
            Ok(MetricDef {
                name: s("name").ok_or("BENCHMARK.json: metric without name")?,
                unit: s("unit").ok_or("BENCHMARK.json: metric without unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// (end-to-end, per-layer) metric definitions.
pub fn catalog() -> (Vec<MetricDef>, Vec<MetricDef>) {
    let j = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let e2e = parse_defs(&j, "end_to_end").expect("end_to_end metrics");
    let layer = parse_defs(&j, "per_layer").expect("per_layer metrics");
    (e2e, layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_the_moves_table() {
        let (e2e, layer) = catalog();
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(e2e.iter().all(|m| m.bound.is_some()));
        let names: Vec<&str> = layer.iter().map(|m| m.name.as_str()).collect();
        let moves: Vec<&str> = MOVES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, moves);
    }
}
