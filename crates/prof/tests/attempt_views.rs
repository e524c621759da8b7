//! The rules every view of exo-trace's attempt table keeps: equal values
//! rank in the stream order of `Finished` edges, a requeued attempt shows
//! its latest edges, and a job's critical path reads only its own
//! attempts.

use exo_prof::{critical_path, job_stats, stage_stats, Dag};
use exo_trace::{
    chrome_trace_json, summarize, AttemptTable, DepEvent, DepKind, Event, EventKind,
    FetchWaitEvent, JobEvent, JobPhase, PlaceReason, Placement, TaskPhase, TaskSpan,
};

/// First task id of job 1 under the runtime's packed-id scheme.
const JOB1: u64 = 1 << 40;

fn edge(
    at_us: u64,
    task: u64,
    attempt: u32,
    node: u32,
    label: &'static str,
    phase: TaskPhase,
) -> Event {
    Event {
        at_us,
        kind: EventKind::Task(TaskSpan {
            task,
            phase,
            node,
            job: (task >> 40) as u32,
            label,
            attempt,
            retry: false,
            reason: (phase == TaskPhase::Scheduled).then_some(Placement {
                reason: PlaceReason::LeastLoaded,
                policy: "load_balance",
                score: 0.0,
                slots_free: 0,
                slots_total: 0,
            }),
        }),
    }
}

/// One uninterrupted run of an attempt: scheduled, dequeued and started
/// at `start`, finished at `finish`.
fn run(task: u64, attempt: u32, label: &'static str, start: u64, finish: u64) -> Vec<Event> {
    vec![
        edge(start, task, attempt, 0, label, TaskPhase::Scheduled),
        edge(start, task, attempt, 0, label, TaskPhase::Dequeued),
        edge(start, task, attempt, 0, label, TaskPhase::Started),
        edge(finish, task, attempt, 0, label, TaskPhase::Finished),
    ]
}

fn dep(task: u64, object: u64, kind: DepKind) -> Event {
    Event {
        at_us: 0,
        kind: EventKind::Dep(DepEvent { task, object, kind }),
    }
}

fn job(at_us: u64, job: u32, phase: JobPhase) -> Event {
    Event {
        at_us,
        kind: EventKind::Job(JobEvent {
            job,
            tenant: job,
            phase,
            label: "j",
        }),
    }
}

#[test]
fn equal_values_rank_in_finish_order() {
    // Six 10 µs executions finishing in the order 9, 5, 1, 4, 2, 3: not
    // the (task, attempt) order, and the one reduce finishes first.
    let mut events = Vec::new();
    for (i, (task, label)) in [
        (9, "reduce"),
        (5, "map"),
        (1, "map"),
        (4, "map"),
        (2, "map"),
        (3, "map"),
    ]
    .into_iter()
    .enumerate()
    {
        let start = 100 * i as u64;
        events.extend(run(task, 0, label, start, start + 10));
    }
    let top: Vec<u64> = summarize(&events).longest.iter().map(|t| t.task).collect();
    assert_eq!(top, vec![9, 5, 1, 4, 2]);
    let stages: Vec<&str> = stage_stats(&Dag::fold(&events))
        .iter()
        .map(|s| s.label)
        .collect();
    assert_eq!(stages, vec!["reduce", "map"]);
}

#[test]
fn a_requeued_attempt_shows_its_latest_edges() {
    // The node-kill shape the runtime emits: attempt 0 of task 7 is
    // scheduled, dequeued and started on node 0, abandoned, and runs
    // again on node 1 as attempt 1.
    let events = vec![
        edge(0, 7, 0, 0, "map", TaskPhase::Scheduled),
        edge(10, 7, 0, 0, "map", TaskPhase::Dequeued),
        edge(20, 7, 0, 0, "map", TaskPhase::Started),
        edge(100, 7, 1, 1, "map", TaskPhase::Scheduled),
        edge(130, 7, 1, 1, "map", TaskPhase::Dequeued),
        edge(160, 7, 1, 1, "map", TaskPhase::Started),
        edge(400, 7, 1, 1, "map", TaskPhase::Finished),
    ];
    let chrome = chrome_trace_json(&events);
    assert!(
        chrome.contains(
            r#""ph":"X","ts":160,"dur":240,"pid":1,"tid":0,"args":{"task":7,"attempt":1,"queue_wait_us":30,"stage_wait_us":30"#
        ),
        "{chrome}"
    );
    // The abandoned attempt never finished: it draws no span and is in
    // no view built from finished attempts.
    assert!(!chrome.contains(r#""task":7,"attempt":0"#), "{chrome}");
    let mut table = AttemptTable::default();
    for ev in &events {
        if let EventKind::Task(t) = &ev.kind {
            table.apply(ev.at_us, t);
        }
    }
    let finished: Vec<(u64, u32)> = table.finished().map(|r| (r.task, r.attempt)).collect();
    assert_eq!(finished, vec![(7, 1)]);

    let summary = summarize(&events);
    let long = &summary.longest[0];
    assert_eq!((long.node, long.start_us, long.dur_us), (1, 160, 240));

    let dag = Dag::fold(&events);
    let stage = &stage_stats(&dag)[0];
    assert_eq!((stage.tasks, stage.max_us), (1, 240));

    let path = critical_path(&dag, None, 3);
    let t = &path.tasks[0];
    assert_eq!(
        (t.node, t.queue_us, t.stage_us, t.exec_us),
        (1, 30, 30, 240)
    );
    // The path owns the task from its latest scheduling on.
    assert_eq!(t.contribution_us, 300);
}

#[test]
fn each_jobs_path_equals_the_path_of_its_own_events() {
    // Job 0: a (0..50) feeds b (60..200). Job 1: c's attempt 0 dies at
    // 40, attempt 1 runs 50..120 and feeds d (130..300); d waits on
    // its argument from 130 to 140. The jobs' edges interleave in time.
    let mut events = vec![
        job(0, 0, JobPhase::Admitted),
        job(0, 1, JobPhase::Admitted),
        dep(0, 100, DepKind::Output),
        dep(1, 100, DepKind::Arg),
        dep(JOB1, JOB1 + 100, DepKind::Output),
        dep(JOB1 + 1, JOB1 + 100, DepKind::Arg),
        edge(0, JOB1, 0, 1, "c", TaskPhase::Scheduled),
        edge(10, JOB1, 0, 1, "c", TaskPhase::Dequeued),
        edge(20, JOB1, 0, 1, "c", TaskPhase::Started),
    ];
    events.extend(run(0, 0, "a", 0, 50));
    events.extend(run(JOB1, 1, "c", 50, 120));
    events.extend(run(1, 0, "b", 60, 200));
    events.extend(run(JOB1 + 1, 0, "d", 130, 300));
    for (at_us, begin) in [(130, true), (140, false)] {
        events.push(Event {
            at_us,
            kind: EventKind::FetchWait(FetchWaitEvent {
                task: JOB1 + 1,
                object: JOB1 + 100,
                node: 0,
                begin,
            }),
        });
    }
    events.push(job(210, 0, JobPhase::Finished));
    events.push(job(310, 1, JobPhase::Finished));
    events.sort_by_key(|e| e.at_us);

    let stats = job_stats(&events, &Dag::fold(&events));
    assert_eq!(stats.len(), 2);
    for s in &stats {
        let own: Vec<Event> = events
            .iter()
            .filter(|ev| match &ev.kind {
                EventKind::Task(t) => t.job == s.job,
                EventKind::Dep(d) => d.task >> 40 == u64::from(s.job),
                EventKind::FetchWait(w) => w.task >> 40 == u64::from(s.job),
                _ => false,
            })
            .copied()
            .collect();
        assert_eq!(
            s.critpath,
            critical_path(&Dag::fold(&own), None, 0),
            "job {}",
            s.job
        );
    }
    let tasks = |j: usize| -> Vec<(u64, u32)> {
        stats[j]
            .critpath
            .tasks
            .iter()
            .map(|t| (t.task, t.attempt))
            .collect()
    };
    assert_eq!(tasks(0), vec![(1, 0), (0, 0)]);
    assert_eq!(tasks(1), vec![(JOB1 + 1, 0), (JOB1, 1)]);
    assert_eq!(stats[1].critpath.tasks[0].fetch_wait_us, 10);
}
