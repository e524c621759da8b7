//! Critical-path analysis over the task/object dependency DAG.
//!
//! The [`Dag`] joins two kinds of facts: task attempts' lifecycle edges
//! (scheduled → dequeued → started → finished) and dependency edges
//! (task consumes object, task produces object). [`critical_path`] finds
//! the dependency chain ending at the last task to finish that covers the
//! most wall-clock — an exact longest-path DP over every finished attempt
//! — and ranks the chains that came closest behind it. Each critical
//! task's contribution is the wall-clock interval it exclusively owned on
//! that chain.

use std::collections::HashMap;

use exo_trace::AttemptRecord;

use crate::dag::Dag;

/// One task on the critical path, with its lifecycle breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct CritTask {
    pub task: u64,
    pub label: &'static str,
    pub node: u32,
    pub attempt: u32,
    /// When this attempt started executing (its finish time when the
    /// stream carries no `Started` edge, so the span is empty).
    pub started_us: u64,
    pub finished_us: u64,
    /// Scheduled → dequeued: time spent queued behind other tasks.
    pub queue_us: u64,
    /// Dequeued → started: argument staging (restore/fetch/pin).
    pub stage_us: u64,
    /// Started → finished: execution (CPU + output write).
    pub exec_us: u64,
    /// Wall-clock this task spent blocked on non-resident arguments:
    /// the union of matched fetch-wait begin/end intervals, so waits on
    /// many objects at once count the elapsed time only once.
    pub fetch_wait_us: u64,
    /// Wall-clock this task exclusively owns on the critical path:
    /// `finished − max(predecessor finish, scheduled)`.
    pub contribution_us: u64,
}

impl CritTask {
    /// Finished attempt `r` on a path, owning `contribution_us` of it.
    fn of(dag: &Dag, r: &AttemptRecord, contribution_us: u64) -> CritTask {
        let finished_us = r.finished.unwrap_or(0);
        CritTask {
            task: r.task,
            label: r.label,
            node: r.node,
            attempt: r.attempt,
            started_us: r.started.unwrap_or(finished_us),
            finished_us,
            queue_us: r.queue_us(),
            stage_us: r.stage_us(),
            exec_us: r.exec_us(),
            fetch_wait_us: dag.fetch_wait.get(&r.task).copied().unwrap_or(0),
            contribution_us,
        }
    }
}

/// The critical path, last task first, with its near-critical
/// runners-up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritPath {
    /// Tasks on the path, ordered from job completion backwards.
    pub tasks: Vec<CritTask>,
    /// Finish time of the last task (path end), microseconds.
    pub end_us: u64,
    /// Sum of per-task contributions.
    pub covered_us: u64,
    /// Top near-critical chains, ranked by ascending slack. Chains may
    /// share ancestry with the critical chain (most real chains share
    /// sources), but every entry ends at a distinct attempt and strict
    /// sub-chains of already-reported chains are suppressed.
    pub near: Vec<NearPath>,
}

impl CritPath {
    /// Fraction of the run's makespan explained by the path (0..=1).
    /// Below ~0.8 usually means the run was gated by resource queueing
    /// between tasks rather than by the dependency chain itself.
    pub fn coverage(&self) -> f64 {
        if self.end_us == 0 {
            return 0.0;
        }
        self.covered_us as f64 / self.end_us as f64
    }

    /// Summed breakdown across the path: (queue, stage, exec, fetch).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for c in &self.tasks {
            t.0 += c.queue_us;
            t.1 += c.stage_us;
            t.2 += c.exec_us;
            t.3 += c.fetch_wait_us;
        }
        t
    }
}

/// Summary of one near-critical chain: a dependency chain that almost
/// gated the run. Feeds what-if analysis — e.g. "if the critical chain
/// is sped up by more than `slack_us`, this chain gates instead".
#[derive(Debug, Clone, PartialEq)]
pub struct NearPath {
    /// Task the chain ends at.
    pub end_task: u64,
    pub end_label: &'static str,
    /// Finish time of the chain's last task, microseconds.
    pub end_us: u64,
    /// Total covered (exclusively-owned) time along the chain.
    pub covered_us: u64,
    /// Covered-time deficit vs the critical chain: how much faster the
    /// critical chain would have to get before this one gates the run.
    pub slack_us: u64,
    /// Task ids along the chain, end first.
    pub tasks: Vec<u64>,
}

/// The critical path of `job`'s finished attempts (every job's with
/// `None`), plus up to `top_k` near-critical chains. Tolerates partial
/// streams: unfinished attempts are never on a path, and unknown
/// producers end a chain.
///
/// A longest-path DP: for every finished attempt it considers every
/// finished producer attempt of every argument (so a consumer fed by an
/// early attempt of a later-retried task credits the attempt that
/// actually fed it) and keeps the chain with the largest
/// exclusively-owned wall-clock. The critical chain is the best one
/// ending at the last finisher. Processing attempts in finish-time order
/// makes the recurrence a DAG walk even on corrupt streams: edges only
/// ever point backwards.
pub fn critical_path(dag: &Dag, job: Option<u32>, top_k: usize) -> CritPath {
    // The finished attempts in a deterministic topological order: a
    // consumer attempt cannot finish before the producer attempt that
    // fed it, so sorting by (finish, task, attempt) lets the DP below
    // only look backwards.
    let mut nodes: Vec<&AttemptRecord> = dag
        .attempts
        .iter()
        .filter(|r| r.finished.is_some() && job.is_none_or(|j| r.job == j))
        .collect();
    nodes.sort_by_key(|r| (r.finished, r.task, r.attempt));
    if nodes.is_empty() {
        return CritPath::default();
    }

    // task -> indices of its finished attempts (ascending finish).
    let mut by_task: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in nodes.iter().enumerate() {
        by_task.entry(r.task).or_default().push(i);
    }

    // dp[i]: covered time of the longest chain ending at attempt i;
    // choice[i]: the producer attempt that chain comes through.
    let mut dp = vec![0u64; nodes.len()];
    let mut choice: Vec<Option<usize>> = vec![None; nodes.len()];
    for i in 0..nodes.len() {
        let tt = nodes[i];
        let fin = tt.finished.unwrap_or(0);
        let sched = tt.scheduled.unwrap_or(0).min(fin);
        // Base case: the chain is just this attempt.
        let mut best = fin - sched;
        let mut pred = None;
        for obj in dag.args.get(&tt.task).into_iter().flatten() {
            let Some(p) = dag.producer.get(obj) else {
                continue;
            };
            for &j in by_task.get(p).into_iter().flatten() {
                if j >= i {
                    // Sorted by finish time: a producer attempt that
                    // finished after us cannot have fed us.
                    continue;
                }
                let pfin = nodes[j].finished.unwrap_or(0);
                let own = fin - pfin.max(sched).min(fin);
                let cand = dp[j] + own;
                if cand > best {
                    best = cand;
                    pred = Some(j);
                }
            }
        }
        dp[i] = best;
        choice[i] = pred;
    }

    // Reconstruct the chain ending at attempt `end`, and its members.
    let build = |end: usize| -> (CritPath, Vec<usize>) {
        let mut path = CritPath {
            end_us: nodes[end].finished.unwrap_or(0),
            ..CritPath::default()
        };
        let mut members = Vec::new();
        let mut cur = end;
        loop {
            let tt = nodes[cur];
            let fin = tt.finished.unwrap_or(0);
            let sched = tt.scheduled.unwrap_or(0).min(fin);
            let own_start = match choice[cur] {
                Some(j) => nodes[j].finished.unwrap_or(0).max(sched).min(fin),
                None => sched,
            };
            let contribution = fin - own_start;
            path.covered_us += contribution;
            members.push(cur);
            path.tasks.push(CritTask::of(dag, tt, contribution));
            match choice[cur] {
                Some(j) => cur = j,
                None => break,
            }
        }
        (path, members)
    };

    // The critical chain ends at the last finisher (the last node in
    // finish order).
    let (mut path, main_members) = build(nodes.len() - 1);
    let mut used = vec![false; nodes.len()];
    for &i in &main_members {
        used[i] = true;
    }

    // Near-critical: rank every other attempt's chain by covered time
    // (descending == ascending slack), greedily claiming disjoint
    // chains. A chain covering more than the critical one would have
    // negative slack: it finished before the last finisher, so it is no
    // runner-up to that chain and is left out. Deterministic: ties
    // break on later finish, then task id.
    let mut order: Vec<usize> = (0..nodes.len())
        .filter(|&i| !used[i] && dp[i] <= path.covered_us)
        .collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(dp[i]),
            std::cmp::Reverse(nodes[i].finished),
            (nodes[i].task, nodes[i].attempt),
        )
    });
    for i in order {
        if path.near.len() >= top_k {
            break;
        }
        if used[i] {
            continue;
        }
        let (chain, members) = build(i);
        // Mark the whole chain: prefixes of a reported chain must not
        // re-emerge as "distinct" near-critical chains of their own.
        for &m in &members {
            used[m] = true;
        }
        path.near.push(NearPath {
            end_task: nodes[i].task,
            end_label: nodes[i].label,
            end_us: chain.end_us,
            covered_us: chain.covered_us,
            slack_us: path.covered_us - chain.covered_us,
            tasks: chain.tasks.iter().map(|t| t.task).collect(),
        });
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{DepEvent, DepKind, Event, EventKind, FetchWaitEvent, TaskPhase, TaskSpan};

    fn task_events(
        task: u64,
        label: &'static str,
        node: u32,
        sched: u64,
        start: u64,
        finish: u64,
    ) -> Vec<Event> {
        let mk = |phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node,
                label,
                attempt: 0,
                retry: false,
                reason: None,
            }),
        };
        vec![
            mk(TaskPhase::Scheduled, sched),
            mk(TaskPhase::Dequeued, sched),
            mk(TaskPhase::Started, start),
            mk(TaskPhase::Finished, finish),
        ]
    }

    fn dep(task: u64, object: u64, kind: DepKind) -> Event {
        Event {
            at_us: 0,
            kind: EventKind::Dep(DepEvent { task, object, kind }),
        }
    }

    /// Diamond DAG with a known answer:
    ///
    /// ```text
    ///        a (0..10)
    ///       / \
    ///  b (10..30)  c (10..80)     <- c is the slow branch
    ///       \ /
    ///        d (80..100)
    /// ```
    ///
    /// Critical path must be d ← c ← a, covering the full 100 µs.
    #[test]
    fn diamond_dag_follows_slow_branch() {
        // a produces obj 1; b consumes 1, produces 2; c consumes 1,
        // produces 3; d consumes 2 and 3, produces 4.
        let mut events = vec![
            dep(0, 1, DepKind::Output),
            dep(1, 1, DepKind::Arg),
            dep(1, 2, DepKind::Output),
            dep(2, 1, DepKind::Arg),
            dep(2, 3, DepKind::Output),
            dep(3, 2, DepKind::Arg),
            dep(3, 3, DepKind::Arg),
            dep(3, 4, DepKind::Output),
        ];
        events.extend(task_events(0, "a", 0, 0, 0, 10));
        events.extend(task_events(1, "b", 0, 10, 10, 30));
        events.extend(task_events(2, "c", 1, 10, 12, 80));
        events.extend(task_events(3, "d", 0, 80, 80, 100));
        events.sort_by_key(|e| e.at_us);

        let p = critical_path(&Dag::fold(&events), None, 3);
        let ids: Vec<u64> = p.tasks.iter().map(|t| t.task).collect();
        assert_eq!(ids, vec![3, 2, 0], "path should be d <- c <- a");
        assert_eq!(p.end_us, 100);
        // d owns 80..100, c owns 10..80, a owns 0..10: full coverage.
        assert_eq!(p.covered_us, 100);
        assert!((p.coverage() - 1.0).abs() < 1e-9);
        let c = &p.tasks[1];
        assert_eq!(c.label, "c");
        assert_eq!(c.queue_us, 0);
        assert_eq!(c.stage_us, 2);
        assert_eq!(c.exec_us, 68);
        assert_eq!(c.contribution_us, 70);
    }

    #[test]
    fn fetch_wait_intervals_attach_to_critical_tasks() {
        let mut events = Vec::new();
        events.push(dep(0, 1, DepKind::Output));
        events.push(dep(1, 1, DepKind::Arg));
        events.extend(task_events(0, "map", 0, 0, 0, 50));
        events.extend(task_events(1, "reduce", 1, 50, 65, 100));
        let fw = |at_us, begin| Event {
            at_us,
            kind: EventKind::FetchWait(FetchWaitEvent {
                task: 1,
                object: 1,
                node: 1,
                begin,
            }),
        };
        events.push(fw(52, true));
        events.push(fw(64, false));
        // Orphan begin: never ended; must not contribute.
        events.push(fw(70, true));
        events.sort_by_key(|e| e.at_us);

        let p = critical_path(&Dag::fold(&events), None, 3);
        assert_eq!(p.tasks[0].task, 1);
        assert_eq!(p.tasks[0].fetch_wait_us, 12);
    }

    #[test]
    fn concurrent_fetch_waits_count_elapsed_time_once() {
        let mut events = Vec::new();
        events.extend(task_events(1, "reduce", 0, 0, 40, 100));
        // Waits on objects 10/11/12 overlap: [5,25], [10,30], [28,35].
        // Union is [5,35] = 30 µs, not the 67 µs sum.
        for (obj, b, e) in [(10u64, 5u64, 25u64), (11, 10, 30), (12, 28, 35)] {
            for (at_us, begin) in [(b, true), (e, false)] {
                events.push(Event {
                    at_us,
                    kind: EventKind::FetchWait(FetchWaitEvent {
                        task: 1,
                        object: obj,
                        node: 0,
                        begin,
                    }),
                });
            }
        }
        events.sort_by_key(|e| e.at_us);
        let p = critical_path(&Dag::fold(&events), None, 3);
        assert_eq!(p.tasks[0].fetch_wait_us, 30);
    }

    #[test]
    fn retried_task_uses_finishing_attempt() {
        let mut events = Vec::new();
        events.push(dep(0, 1, DepKind::Output));
        // Attempt 0 never finishes (node died); attempt 1 does.
        events.push(Event {
            at_us: 0,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task: 0,
                phase: TaskPhase::Scheduled,
                node: 0,
                label: "map",
                attempt: 0,
                retry: false,
                reason: None,
            }),
        });
        events.extend(task_events_attempt(0, "map", 1, 1, 20, 25, 60));
        let p = critical_path(&Dag::fold(&events), None, 3);
        assert_eq!(p.tasks.len(), 1);
        assert_eq!(p.tasks[0].attempt, 1);
        assert_eq!(p.end_us, 60);
        // Contribution starts at its own scheduled time (20), not 0.
        assert_eq!(p.covered_us, 40);
    }

    fn task_events_attempt(
        task: u64,
        label: &'static str,
        node: u32,
        attempt: u32,
        sched: u64,
        start: u64,
        finish: u64,
    ) -> Vec<Event> {
        let mk = |phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node,
                label,
                attempt,
                retry: attempt > 0,
                reason: None,
            }),
        };
        vec![
            mk(TaskPhase::Scheduled, sched),
            mk(TaskPhase::Dequeued, sched),
            mk(TaskPhase::Started, start),
            mk(TaskPhase::Finished, finish),
        ]
    }

    #[test]
    fn empty_stream_yields_empty_path() {
        let p = critical_path(&Dag::default(), None, 3);
        assert!(p.tasks.is_empty());
        assert!(p.near.is_empty());
        assert_eq!(p.coverage(), 0.0);
    }

    /// A DAG where the latest-finishing producer is not on the critical
    /// path:
    ///
    /// ```text
    ///   a (0..10) -> b (10..70) \
    ///                            d (80..100)
    ///         c (75..80, short) /
    /// ```
    ///
    /// c finishes last among d's producers, but d <- c covers only
    /// 25 µs; the critical path is d <- b <- a (covered 90 µs).
    #[test]
    fn critical_path_skips_a_late_short_producer() {
        let mut events = vec![
            dep(0, 1, DepKind::Output),
            dep(1, 1, DepKind::Arg),
            dep(1, 2, DepKind::Output),
            dep(2, 3, DepKind::Output),
            dep(3, 2, DepKind::Arg),
            dep(3, 3, DepKind::Arg),
        ];
        events.extend(task_events(0, "a", 0, 0, 0, 10));
        events.extend(task_events(1, "b", 0, 10, 10, 70));
        events.extend(task_events(2, "c", 1, 75, 75, 80));
        events.extend(task_events(3, "d", 0, 80, 80, 100));
        events.sort_by_key(|e| e.at_us);

        let p = critical_path(&Dag::fold(&events), None, 3);
        let ids: Vec<u64> = p.tasks.iter().map(|t| t.task).collect();
        assert_eq!(ids, vec![3, 1, 0], "d <- b <- a");
        assert_eq!(p.covered_us, 90);
        assert_eq!(p.end_us, 100);
        // The skipped branch shows up as the top near-critical chain.
        assert_eq!(p.near.len(), 1);
        assert_eq!(p.near[0].end_task, 2);
        assert_eq!(p.near[0].covered_us, 5);
        assert_eq!(p.near[0].slack_us, 85);
    }

    /// The DP runs over *all* finished attempts: a consumer fed by an
    /// early attempt of a later-retried producer credits the attempt
    /// that actually fed it, not the late re-execution.
    #[test]
    fn dp_credits_the_attempt_that_fed_the_consumer() {
        let mut events = vec![dep(0, 1, DepKind::Output), dep(1, 1, DepKind::Arg)];
        // Producer attempt 0 finishes at 30; re-executed attempt 1 (say
        // the object was lost later) runs 40..100 — after the consumer
        // already finished at 50.
        events.extend(task_events(0, "map", 0, 0, 0, 30));
        events.extend(task_events_attempt(0, "map", 0, 1, 40, 40, 100));
        events.extend(task_events(1, "reduce", 1, 30, 30, 50));
        events.sort_by_key(|e| e.at_us);

        let a = critical_path(&Dag::fold(&events), None, 3);
        // Last finisher is map attempt 1, so the main chain is just it.
        assert_eq!(a.end_us, 100);
        assert_eq!(a.tasks.len(), 1);
        assert_eq!(a.covered_us, 60);
        // The consumer's chain goes through attempt 0 (finish 30), not
        // the future attempt: reduce owns 30..50, map#0 owns 0..30.
        let near: Vec<_> = a.near.iter().map(|n| (n.end_task, n.covered_us)).collect();
        assert_eq!(near, vec![(1, 50)]);
        assert_eq!(a.near[0].tasks, vec![1, 0]);
    }

    #[test]
    fn near_paths_are_disjoint_and_slack_ranked() {
        // One shared source, three independent tails of decreasing
        // length; tail0 is critical, tails 1 and 2 near-critical.
        let mut events = vec![dep(0, 1, DepKind::Output)];
        events.extend(task_events(0, "map", 0, 0, 0, 10));
        for (i, fin) in [(1u64, 100u64), (2, 80), (3, 60)] {
            events.push(dep(i, 1, DepKind::Arg));
            events.push(dep(i, 1 + i, DepKind::Output));
            events.extend(task_events(i, "reduce", i as u32, 10, 10, fin));
        }
        events.sort_by_key(|e| e.at_us);

        let a = critical_path(&Dag::fold(&events), None, 5);
        assert_eq!(a.covered_us, 100);
        let ids: Vec<u64> = a.tasks.iter().map(|t| t.task).collect();
        assert_eq!(ids, vec![1, 0]);
        // Both tails reported, longer (less slack) first; near chains
        // share the map source with the critical chain, and the map task
        // itself never re-emerges as a chain of its own.
        let near: Vec<_> = a
            .near
            .iter()
            .map(|n| (n.end_task, n.covered_us, n.slack_us))
            .collect();
        assert_eq!(near, vec![(2, 80, 20), (3, 60, 40)]);
        assert_eq!(a.near[0].tasks, vec![2, 0]);
        assert_eq!(a.near[1].tasks, vec![3, 0]);
    }
}
