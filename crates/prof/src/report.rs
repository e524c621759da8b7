//! The combined profile report: critical path + bound profile + stage
//! stats, with a human rendering (`Display`) and a JSON embedding for
//! bench result files.

use std::fmt;

use exo_sim::DeviceCaps;
use exo_trace::{Event, Json};

use crate::attribution::{attribute_all, Bound, BoundProfile};
use crate::critpath::{critical_path, CritPath, CritTask};
use crate::dag::Dag;
use crate::jobs::{job_stats, JobStat};
use crate::placement::{placement_quality, PlacementQuality};
use crate::stages::{stage_stats, StageStats};

/// Everything exo-prof derives from one run's event stream.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The critical path, with up to three near-critical runners-up.
    pub critpath: CritPath,
    pub bounds: BoundProfile,
    /// One bound profile per node, classified against that node's own
    /// capacities. On homogeneous clusters these mostly echo `bounds`;
    /// on mixed clusters they are where the HDD/SSD asymmetry shows up.
    pub per_node_bounds: Vec<BoundProfile>,
    pub stages: Vec<StageStats>,
    /// How well the placement policy kept argument bytes local.
    pub placement: PlacementQuality,
    /// Per-job timing and critical paths. Rendered/serialised only
    /// when the trace carries more than one job, so single-job report
    /// output stays byte-identical.
    pub jobs: Vec<JobStat>,
}

/// Runs the full analysis over a retained trace stream.
pub fn profile(events: &[Event], caps: &DeviceCaps) -> ProfileReport {
    // One memoized scan yields both the cluster and the per-node bound
    // profiles; re-deriving them separately costs 1 + N stream passes.
    let (bounds, per_node_bounds) = attribute_all(events, caps);
    // One fold of the lifecycle, dependency and fetch-wait facts feeds
    // every path, stage, placement and per-job analysis.
    let dag = Dag::fold(events);
    ProfileReport {
        critpath: critical_path(&dag, None, 3),
        bounds,
        per_node_bounds,
        stages: stage_stats(&dag),
        placement: placement_quality(events, &dag),
        jobs: job_stats(events, &dag),
    }
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

impl ProfileReport {
    /// JSON document embedded under `"profile"` in bench result files.
    pub fn to_json(&self) -> Json {
        let (queue, stage, exec, fetch) = self.critpath.totals();
        let mut bounds = Json::obj();
        for b in Bound::ALL {
            bounds = bounds.set(b.name(), self.bounds.fraction(b));
        }
        let crit_tasks: Vec<Json> = self
            .critpath
            .tasks
            .iter()
            .map(|t| {
                Json::obj()
                    .set("task", t.task)
                    .set("label", t.label)
                    .set("node", t.node)
                    .set("attempt", t.attempt)
                    .set("queue_us", t.queue_us)
                    .set("stage_us", t.stage_us)
                    .set("exec_us", t.exec_us)
                    .set("fetch_wait_us", t.fetch_wait_us)
                    .set("contribution_us", t.contribution_us)
            })
            .collect();
        let stages: Vec<Json> = self
            .stages
            .iter()
            .map(|s| {
                Json::obj()
                    .set("label", s.label)
                    .set("tasks", s.tasks)
                    .set("p50_us", s.p50_us)
                    .set("p99_us", s.p99_us)
                    .set("max_us", s.max_us)
                    .set("straggler_ratio", s.straggler_ratio())
                    .set("mean_bytes", s.mean_bytes)
                    .set("max_bytes", s.max_bytes)
                    .set("bytes_skew", s.bytes_skew())
            })
            .collect();
        let per_node: Vec<Json> = self
            .per_node_bounds
            .iter()
            .enumerate()
            .map(|(node, p)| {
                let mut fractions = Json::obj();
                for b in Bound::ALL {
                    fractions = fractions.set(b.name(), p.fraction(b));
                }
                Json::obj()
                    .set("node", node as u64)
                    .set("dominant_bound", p.dominant().name())
                    .set("bound_profile", fractions)
            })
            .collect();
        let mut doc = Json::obj()
            .set("dominant_bound", self.bounds.dominant().name())
            .set("bound_profile", bounds)
            .set("per_node_bounds", per_node)
            .set("placement", self.placement.to_json());
        if self.jobs.len() > 1 {
            let jobs: Vec<Json> = self
                .jobs
                .iter()
                .map(|j| {
                    Json::obj()
                        .set("job", j.job)
                        .set("tenant", j.tenant)
                        .set("label", j.label)
                        .set("admitted_us", j.admitted_us)
                        .set("finished_us", j.finished_us)
                        .set("jct_us", j.jct_us())
                        .set("tasks_finished", j.tasks_finished)
                        .set(
                            "critical_path",
                            Json::obj()
                                .set("end_us", j.critpath.end_us)
                                .set("covered_us", j.critpath.covered_us)
                                .set("tasks_on_path", j.critpath.tasks.len()),
                        )
                })
                .collect();
            doc = doc.set("jobs", jobs);
        }
        doc.set(
            "critical_path",
            Json::obj()
                .set("end_us", self.critpath.end_us)
                .set("covered_us", self.critpath.covered_us)
                .set("coverage", self.critpath.coverage())
                .set("tasks_on_path", self.critpath.tasks.len())
                .set("queue_us", queue)
                .set("stage_us", stage)
                .set("exec_us", exec)
                .set("fetch_wait_us", fetch)
                .set("tasks", crit_tasks),
        )
        .set(
            "paths",
            Json::obj().set(
                "near",
                self.critpath
                    .near
                    .iter()
                    .map(|n| {
                        Json::obj()
                            .set("end_task", n.end_task)
                            .set("end_label", n.end_label)
                            .set("end_us", n.end_us)
                            .set("covered_us", n.covered_us)
                            .set("slack_us", n.slack_us)
                            .set(
                                "tasks",
                                n.tasks.iter().map(|&t| Json::from(t)).collect::<Vec<_>>(),
                            )
                    })
                    .collect::<Vec<_>>(),
            ),
        )
        .set("stages", stages)
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile: bound by {}", self.bounds.one_line())?;
        // Per-node lines only earn their space when they disagree with
        // each other — i.e. the cluster is effectively heterogeneous.
        let divergent = self
            .per_node_bounds
            .windows(2)
            .any(|w| w[0].dominant() != w[1].dominant());
        if divergent {
            for (node, p) in self.per_node_bounds.iter().enumerate() {
                writeln!(f, "    node{:<3} bound by {}", node, p.one_line())?;
            }
        }
        if self.placement.decisions > 0 {
            writeln!(
                f,
                "  placement ({}): {} decisions moved {:.1} MB of argument bytes, {:.1} MB avoidable ({:.0}%)",
                self.placement.policy.unwrap_or("none"),
                self.placement.decisions,
                self.placement.transfer_bytes as f64 / 1e6,
                self.placement.avoidable_bytes as f64 / 1e6,
                100.0 * self.placement.avoidable_fraction()
            )?;
        }
        let cp = &self.critpath;
        writeln!(
            f,
            "  critical path: {} tasks cover {:.2} s of {:.2} s makespan ({:.0}%)",
            cp.tasks.len(),
            secs(cp.covered_us),
            secs(cp.end_us),
            100.0 * cp.coverage()
        )?;
        // A near-critical chain earns a line when it is close enough
        // (< 20% slack) to matter for what-if analysis.
        for n in &cp.near {
            if cp.covered_us > 0 && (n.slack_us as f64) < 0.2 * cp.covered_us as f64 {
                writeln!(
                    f,
                    "    near-critical: {} tasks ending at {} task {} cover {:.2} s (slack {:.2} s)",
                    n.tasks.len(),
                    n.end_label,
                    n.end_task,
                    secs(n.covered_us),
                    secs(n.slack_us)
                )?;
            }
        }
        let (queue, stage, exec, fetch) = cp.totals();
        if !cp.tasks.is_empty() {
            writeln!(
                f,
                "    on-path time: exec {:.2} s, staging {:.2} s, queued {:.2} s, fetch-wait {:.2} s",
                secs(exec),
                secs(stage),
                secs(queue),
                secs(fetch)
            )?;
            // The head of the walk is job completion; show the top
            // contributors rather than the whole (possibly long) chain.
            let mut top: Vec<&CritTask> = cp.tasks.iter().collect();
            top.sort_by_key(|t| std::cmp::Reverse(t.contribution_us));
            writeln!(f, "    top critical tasks:")?;
            for t in top.iter().take(5) {
                writeln!(
                    f,
                    "      {:<20} node{:<3} task {:<8} owns {:>8.3} s (exec {:.3} s, fetch-wait {:.3} s)",
                    t.label,
                    t.node,
                    t.task,
                    secs(t.contribution_us),
                    secs(t.exec_us),
                    secs(t.fetch_wait_us)
                )?;
            }
        }
        if self.jobs.len() > 1 {
            writeln!(f, "  jobs:")?;
            for j in &self.jobs {
                writeln!(
                    f,
                    "    job{:<3} tenant{:<3} {:<16} jct {:>8.3} s  {:>5} tasks  critpath {:.3} s",
                    j.job,
                    j.tenant,
                    j.label,
                    secs(j.jct_us()),
                    j.tasks_finished,
                    secs(j.critpath.covered_us)
                )?;
            }
        }
        if !self.stages.is_empty() {
            writeln!(f, "  stages:")?;
            for s in &self.stages {
                write!(
                    f,
                    "    {:<20} {:>5} tasks  p50 {:>8.3} s  p99 {:>8.3} s  max {:>8.3} s  straggler x{:.2}",
                    s.label,
                    s.tasks,
                    secs(s.p50_us),
                    secs(s.p99_us),
                    secs(s.max_us),
                    s.straggler_ratio()
                )?;
                if s.mean_bytes > 0 {
                    write!(f, "  bytes-skew x{:.2}", s.bytes_skew())?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{DepEvent, DepKind, EventKind, TaskPhase, TaskSpan};

    fn caps() -> DeviceCaps {
        let node = exo_sim::NodeCaps {
            cpu_slots: 8,
            disk_seq_bw: 1e9,
            disk_random_iops: 1500.0,
            disk_devices: 1,
            nic_bw: 1e9,
            store_bytes: 1 << 30,
        };
        DeviceCaps {
            per_node: vec![node; 1],
        }
    }

    fn chain() -> Vec<Event> {
        let mut events = Vec::new();
        for (task, (s, e)) in [(0u64, (0u64, 40u64)), (1, (40, 100))].into_iter() {
            events.push(Event {
                at_us: 0,
                kind: EventKind::Dep(DepEvent {
                    task,
                    object: task + 1,
                    kind: DepKind::Output,
                }),
            });
            if task > 0 {
                events.push(Event {
                    at_us: 0,
                    kind: EventKind::Dep(DepEvent {
                        task,
                        object: task,
                        kind: DepKind::Arg,
                    }),
                });
            }
            for (phase, at) in [
                (TaskPhase::Scheduled, s),
                (TaskPhase::Started, s),
                (TaskPhase::Finished, e),
            ] {
                events.push(Event {
                    at_us: at,
                    kind: EventKind::Task(TaskSpan {
                        job: 0,
                        task,
                        phase,
                        node: 0,
                        label: if task == 0 { "map" } else { "reduce" },
                        attempt: 0,
                        retry: false,
                        reason: None,
                    }),
                });
            }
        }
        events
    }

    #[test]
    fn report_renders_and_serialises_consistently() {
        let events = chain();
        let r = profile(&events, &caps());
        assert_eq!(r.critpath.tasks.len(), 2);
        assert_eq!(r.stages.len(), 2);
        let text = r.to_string();
        assert!(text.contains("critical path: 2 tasks"), "{text}");
        assert!(text.contains("profile: bound by"), "{text}");
        let json = r.to_json().render();
        assert!(json.contains(r#""dominant_bound""#));
        assert!(json.contains(r#""coverage":1"#), "{json}");
        // The JSON round-trips through the parser.
        let parsed = Json::parse(&json).expect("parse");
        assert_eq!(
            parsed
                .get("critical_path")
                .and_then(|c| c.get("tasks_on_path"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
