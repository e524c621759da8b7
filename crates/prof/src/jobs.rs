//! Per-job statistics for multi-job traces: admission → finish timing
//! (job completion time), per-job task counts, and a per-job critical
//! path over just that job's attempts in the shared [`Dag`].
//!
//! Single-job traces (no [`exo_trace::JobEvent`]s, or only job 0) yield
//! a list the report layer suppresses, so legacy renderings stay
//! byte-identical.

use std::collections::BTreeMap;

use exo_trace::{Event, EventKind, JobPhase};

use crate::critpath::{critical_path, CritPath};
use crate::dag::Dag;

/// One job's derived statistics.
#[derive(Debug, Clone)]
pub struct JobStat {
    pub job: u32,
    pub tenant: u32,
    pub label: &'static str,
    /// When admission control admitted the job.
    pub admitted_us: u64,
    /// When the job's driver finished (falls back to the job's last
    /// task-finish when the trace ends before `FinishJob`).
    pub finished_us: u64,
    pub tasks_finished: u64,
    /// Critical path over this job's attempts only, without
    /// near-critical chains.
    pub critpath: CritPath,
}

impl JobStat {
    /// Job completion time: admission → finish, µs.
    pub fn jct_us(&self) -> u64 {
        self.finished_us.saturating_sub(self.admitted_us)
    }
}

struct Partial {
    tenant: u32,
    label: &'static str,
    admitted_us: Option<u64>,
    finished_us: Option<u64>,
}

/// Derives per-job stats from a retained event stream and its folded
/// `dag`. Empty when the stream carries no job lifecycle events
/// (pre-multi-job traces).
pub fn job_stats(events: &[Event], dag: &Dag) -> Vec<JobStat> {
    let mut jobs: BTreeMap<u32, Partial> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::Job(j) => {
                let p = jobs.entry(j.job).or_insert_with(|| Partial {
                    tenant: j.tenant,
                    label: j.label,
                    admitted_us: None,
                    finished_us: None,
                });
                p.tenant = j.tenant;
                p.label = j.label;
                match j.phase {
                    // `Submitted` only sets the admission time when no
                    // `Admitted` edge follows (it never should).
                    JobPhase::Submitted => {
                        p.admitted_us.get_or_insert(ev.at_us);
                    }
                    JobPhase::Admitted => p.admitted_us = Some(ev.at_us),
                    JobPhase::Finished => p.finished_us = Some(ev.at_us),
                }
            }
            EventKind::Task(_)
            | EventKind::Object(_)
            | EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Io(_)
            | EventKind::Resource(_)
            | EventKind::Failure(_)
            | EventKind::Incident(_) => {}
        }
    }
    let mut finished: BTreeMap<u32, u64> = BTreeMap::new();
    for r in dag.attempts.iter().filter(|r| r.finished.is_some()) {
        *finished.entry(r.job).or_default() += 1;
    }
    jobs.into_iter()
        .map(|(job, p)| {
            let critpath = critical_path(dag, Some(job), 0);
            JobStat {
                job,
                tenant: p.tenant,
                label: p.label,
                admitted_us: p.admitted_us.unwrap_or(0),
                // The path ends at the job's last task-finish.
                finished_us: p.finished_us.unwrap_or(critpath.end_us),
                tasks_finished: finished.get(&job).copied().unwrap_or(0),
                critpath,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{EventKind, JobEvent, TaskPhase, TaskSpan};

    fn task_span(at_us: u64, job: u32, task: u64, phase: TaskPhase) -> Event {
        Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                task,
                job,
                phase,
                node: 0,
                label: "t",
                attempt: 0,
                retry: false,
                reason: None,
            }),
        }
    }

    fn job_event(at_us: u64, job: u32, tenant: u32, phase: JobPhase) -> Event {
        Event {
            at_us,
            kind: EventKind::Job(JobEvent {
                job,
                tenant,
                phase,
                label: "j",
            }),
        }
    }

    #[test]
    fn empty_without_job_events() {
        let events = vec![
            task_span(0, 0, 1, TaskPhase::Started),
            task_span(10, 0, 1, TaskPhase::Finished),
        ];
        assert!(job_stats(&events, &Dag::fold(&events)).is_empty());
    }

    #[test]
    fn per_job_timing_counts_and_paths_are_sliced() {
        let t0 = 1u64 << 40; // job 1's first task under the packed-id scheme
        let events = vec![
            job_event(0, 0, 0, JobPhase::Admitted),
            job_event(5, 1, 2, JobPhase::Admitted),
            task_span(0, 0, 0, TaskPhase::Scheduled),
            task_span(0, 0, 0, TaskPhase::Started),
            task_span(40, 0, 0, TaskPhase::Finished),
            task_span(5, 1, t0, TaskPhase::Scheduled),
            task_span(5, 1, t0, TaskPhase::Started),
            task_span(100, 1, t0, TaskPhase::Finished),
            job_event(50, 0, 0, JobPhase::Finished),
            job_event(120, 1, 2, JobPhase::Finished),
        ];
        let stats = job_stats(&events, &Dag::fold(&events));
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].job, 0);
        assert_eq!(stats[0].jct_us(), 50);
        assert_eq!(stats[0].tasks_finished, 1);
        assert_eq!(stats[0].critpath.tasks.len(), 1);
        assert_eq!(stats[1].tenant, 2);
        assert_eq!(stats[1].jct_us(), 115);
        assert_eq!(stats[1].critpath.tasks.len(), 1);
        // Job 1's path ends at its own last finish, not the stream's.
        assert_eq!(stats[1].critpath.end_us, 100);
        assert_eq!(stats[0].critpath.end_us, 40);
    }
}
