//! Timestamped metrics snapshots and their JSONL serialization.
//!
//! One snapshot is one line of the `--live` timeseries. Counters are
//! carried twice: `counters` is the cumulative [`TraceCounters`] fold at
//! snapshot time (the final line equals the run's `RtMetrics` exactly),
//! and `delta` is the change since the previous line — so summing every
//! line's `delta` also reproduces the final counters, the live analogue
//! of `fold_matches_incremental_counters`.

use exo_trace::{Json, TraceCounters};

use crate::bounds::{Bound, NodeWindow};
use crate::sketch::QuantileSketch;

/// Fixed percentile summary of one sketch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SketchStat {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
    pub max_us: u64,
}

impl SketchStat {
    pub fn of(s: &QuantileSketch) -> SketchStat {
        SketchStat {
            count: s.count(),
            mean_us: s.mean(),
            p50_us: s.quantile(0.50),
            p99_us: s.quantile(0.99),
            p999_us: s.quantile(0.999),
            max_us: s.max(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("mean_us", self.mean_us)
            .set("p50_us", self.p50_us)
            .set("p99_us", self.p99_us)
            .set("p999_us", self.p999_us)
            .set("max_us", self.max_us)
    }
}

/// One stage's line in a snapshot: cumulative execution percentiles
/// plus its share of the recent window's compute.
#[derive(Debug, Clone)]
pub struct StageStat {
    pub label: &'static str,
    /// Tasks finished so far (cumulative).
    pub finished: u64,
    /// Execution µs that overlapped the sliding window.
    pub window_busy_us: u64,
    pub exec: SketchStat,
}

/// One tenant's cumulative line in a snapshot. Only populated when the
/// run has seen more than one tenant (multi-tenant service mode), so
/// single-job timeseries stay byte-identical with pre-multi-job output.
#[derive(Debug, Clone, Copy)]
pub struct TenantStat {
    pub tenant: u32,
    /// Tasks finished so far across all the tenant's jobs (cumulative).
    pub tasks_finished: u64,
    /// Total execution time (started → finished) so far, µs.
    pub exec_us: u64,
}

/// One line of the live timeseries.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Virtual time the snapshot was taken (strictly monotonic across a
    /// series).
    pub at_us: u64,
    /// Cumulative counter fold at `at_us`.
    pub counters: TraceCounters,
    /// Change since the previous snapshot (equals `counters` on the
    /// first line).
    pub delta: TraceCounters,
    /// Sliding-window bound profile, one entry per node.
    pub nodes: Vec<NodeWindow>,
    pub stages: Vec<StageStat>,
    /// Per-tenant cumulative work; empty unless >1 tenant was observed.
    pub tenants: Vec<TenantStat>,
    pub task_us: SketchStat,
    pub fetch_wait_us: SketchStat,
    pub queue_us: SketchStat,
}

pub fn counters_to_json(c: &TraceCounters) -> Json {
    Json::obj()
        .set("tasks_completed", c.tasks_completed)
        .set("tasks_reexecuted", c.tasks_reexecuted)
        .set("net_bytes", c.net_bytes)
        .set("net_ops", c.net_ops)
        .set("disk_read_bytes", c.disk_read_bytes)
        .set("disk_write_bytes", c.disk_write_bytes)
        .set("objects_reconstructed", c.objects_reconstructed)
        .set("node_failures", c.node_failures)
        .set("executor_failures", c.executor_failures)
}

/// Parses a counters object rendered by [`counters_to_json`]. Every
/// field must be present — a silent default would defeat the
/// bit-for-bit cross-checks built on this.
pub fn counters_from_json(j: &Json) -> Result<TraceCounters, String> {
    let field = |k: &str| -> Result<u64, String> {
        match j.get(k) {
            Some(Json::U64(n)) => Ok(*n),
            other => Err(format!("counters field {k:?}: expected u64, got {other:?}")),
        }
    };
    Ok(TraceCounters {
        tasks_completed: field("tasks_completed")?,
        tasks_reexecuted: field("tasks_reexecuted")?,
        net_bytes: field("net_bytes")?,
        net_ops: field("net_ops")?,
        disk_read_bytes: field("disk_read_bytes")?,
        disk_write_bytes: field("disk_write_bytes")?,
        objects_reconstructed: field("objects_reconstructed")?,
        node_failures: field("node_failures")?,
        executor_failures: field("executor_failures")?,
    })
}

impl MetricsSnapshot {
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let mut o = Json::obj()
                    .set("node", n.node)
                    .set("dominant", n.dominant.name());
                for (k, f) in Bound::ALL.iter().zip(n.fractions) {
                    o = o.set(k.name(), f);
                }
                o.set("cpu_util", n.cpu_util)
                    .set("disk_util", n.disk_util)
                    .set("net_util", n.net_util)
                    .set("store_frac", n.store_frac)
            })
            .collect::<Vec<_>>();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj()
                    .set("label", s.label)
                    .set("finished", s.finished)
                    .set("window_busy_us", s.window_busy_us)
                    .set("exec", s.exec.to_json())
            })
            .collect::<Vec<_>>();
        let mut doc = Json::obj()
            .set("at_us", self.at_us)
            .set("counters", counters_to_json(&self.counters))
            .set("delta", counters_to_json(&self.delta))
            .set("nodes", nodes)
            .set("stages", stages);
        if !self.tenants.is_empty() {
            let tenants = self
                .tenants
                .iter()
                .map(|t| {
                    Json::obj()
                        .set("tenant", t.tenant)
                        .set("tasks_finished", t.tasks_finished)
                        .set("exec_us", t.exec_us)
                })
                .collect::<Vec<_>>();
            doc = doc.set("tenants", tenants);
        }
        doc.set("task_us", self.task_us.to_json())
            .set("fetch_wait_us", self.fetch_wait_us.to_json())
            .set("queue_us", self.queue_us.to_json())
    }

    /// The single-line live progress printout.
    pub fn progress_line(&self) -> String {
        let dominant = self
            .nodes
            .iter()
            .map(|n| n.dominant)
            .fold(std::collections::HashMap::new(), |mut m, d| {
                *m.entry(d.name()).or_insert(0usize) += 1;
                m
            })
            .into_iter()
            .max_by_key(|(name, n)| (*n, std::cmp::Reverse(*name)))
            .map(|(name, _)| name)
            .unwrap_or("idle");
        format!(
            "[live] t={:.2}s tasks={} (+{}) net={:.2} GB disk r/w={:.2}/{:.2} GB p50/p99(task)={:.1}/{:.1} ms bound={}",
            self.at_us as f64 / 1e6,
            self.counters.tasks_completed,
            self.delta.tasks_completed,
            self.counters.net_bytes as f64 / 1e9,
            self.counters.disk_read_bytes as f64 / 1e9,
            self.counters.disk_write_bytes as f64 / 1e9,
            self.task_us.p50_us as f64 / 1e3,
            self.task_us.p99_us as f64 / 1e3,
            dominant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_through_json() {
        let c = TraceCounters {
            tasks_completed: 12,
            tasks_reexecuted: 1,
            net_bytes: u64::MAX - 7,
            net_ops: 3,
            disk_read_bytes: 4,
            disk_write_bytes: 5,
            objects_reconstructed: 6,
            node_failures: 0,
            executor_failures: 2,
        };
        let j = Json::parse(&counters_to_json(&c).render()).expect("parse");
        assert_eq!(counters_from_json(&j).expect("fields"), c);
    }

    #[test]
    fn counters_parse_rejects_missing_fields() {
        let j = Json::obj().set("tasks_completed", 1u64);
        assert!(counters_from_json(&j).is_err());
    }

    #[test]
    fn snapshot_renders_single_line_json() {
        let snap = MetricsSnapshot {
            at_us: 5,
            counters: TraceCounters::default(),
            delta: TraceCounters::default(),
            nodes: Vec::new(),
            stages: Vec::new(),
            tenants: Vec::new(),
            task_us: SketchStat::default(),
            fetch_wait_us: SketchStat::default(),
            queue_us: SketchStat::default(),
        };
        let line = snap.to_json().render();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid json");
        assert_eq!(parsed.get("at_us").and_then(Json::as_f64), Some(5.0));
        assert!(parsed.get("counters").is_some());
        assert!(!snap.progress_line().is_empty());
    }
}
