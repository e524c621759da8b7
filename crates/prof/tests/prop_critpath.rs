//! Property test for [`exo_prof::critical_path`] against a brute-force
//! oracle: on random task/dependency streams of up to eight tasks, the
//! reported path covers exactly as much as the best of every causal
//! chain ending at the last finisher, no near-critical chain covers
//! more, and every edge on a path is a producer → consumer edge.

use exo_prof::{critical_path, Dag};
use exo_trace::{DepEvent, DepKind, Event, EventKind, TaskPhase, TaskSpan};
use proptest::prelude::*;

/// One attempt: scheduled at `.0`, started `.1` later, finished `.2`
/// after that (never, when `None`).
type RawAttempt = (u64, u64, Option<u64>);

/// One task: a bitmask over the task ids whose outputs it consumes (any
/// task, itself and later ones included), and its attempts.
type RawTask = (u8, Vec<RawAttempt>);

/// A finished attempt as the oracle sees it.
#[derive(Clone, Copy)]
struct Node {
    task: u64,
    attempt: u32,
    scheduled: u64,
    finished: u64,
}

impl Node {
    /// The order attempts finish in; equal finish times break on
    /// (task, attempt).
    fn key(&self) -> (u64, u64, u32) {
        (self.finished, self.task, self.attempt)
    }
}

fn events_of(raw: &[RawTask]) -> Vec<Event> {
    let mut events = Vec::new();
    let dep = |task, object, kind| Event {
        at_us: 0,
        kind: EventKind::Dep(DepEvent { task, object, kind }),
    };
    for (task, (args, attempts)) in raw.iter().enumerate() {
        let task = task as u64;
        events.push(dep(task, 100 + task, DepKind::Output));
        for arg in (0..raw.len() as u64).filter(|a| (args >> a) & 1 == 1) {
            events.push(dep(task, 100 + arg, DepKind::Arg));
        }
        for (attempt, &(sched, wait, run)) in attempts.iter().enumerate() {
            let edge = |phase, at_us| Event {
                at_us,
                kind: EventKind::Task(TaskSpan {
                    job: 0,
                    task,
                    phase,
                    node: 0,
                    label: "t",
                    attempt: attempt as u32,
                    retry: attempt > 0,
                    reason: None,
                }),
            };
            events.push(edge(TaskPhase::Scheduled, sched));
            events.push(edge(TaskPhase::Dequeued, sched));
            events.push(edge(TaskPhase::Started, sched + wait));
            if let Some(run) = run {
                events.push(edge(TaskPhase::Finished, sched + wait + run));
            }
        }
    }
    events.sort_by_key(|e| e.at_us);
    events
}

/// Whether `consumer` takes an argument `producer` outputs.
fn consumes(raw: &[RawTask], consumer: u64, producer: u64) -> bool {
    (raw[consumer as usize].0 >> producer) & 1 == 1
}

/// Covered time of every causal chain ending at `end`, by enumerating
/// them all: each step back goes to a finished attempt of a task whose
/// output `end`'s task consumes, and which finished before `end` did.
fn chain_covers(raw: &[RawTask], nodes: &[Node], end: Node) -> Vec<u64> {
    let sched = end.scheduled.min(end.finished);
    let mut covers = vec![end.finished - sched];
    for p in nodes
        .iter()
        .filter(|p| p.key() < end.key() && consumes(raw, end.task, p.task))
    {
        let own = end.finished - p.finished.max(sched).min(end.finished);
        covers.extend(chain_covers(raw, nodes, *p).into_iter().map(|c| c + own));
    }
    covers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn critical_path_is_the_best_causal_chain_to_the_last_finisher(
        raw in proptest::collection::vec(
            (
                any::<u8>(),
                proptest::collection::vec(
                    // One attempt in six never finishes.
                    (0u64..100, 0u64..20, (0u64..60).prop_map(|r| (r < 50).then_some(r))),
                    1..=2,
                ),
            ),
            1..=8,
        ),
    ) {
        let nodes: Vec<Node> = raw
            .iter()
            .enumerate()
            .flat_map(|(task, (_, attempts))| {
                attempts.iter().enumerate().filter_map(move |(attempt, &(s, w, r))| {
                    Some(Node {
                        task: task as u64,
                        attempt: attempt as u32,
                        scheduled: s,
                        finished: s + w + r?,
                    })
                })
            })
            .collect();
        let p = critical_path(&Dag::fold(&events_of(&raw)), None, 3);

        let last = nodes.iter().copied().max_by_key(Node::key);
        let best = last.and_then(|l| chain_covers(&raw, &nodes, l).into_iter().max());
        prop_assert_eq!(p.covered_us, best.unwrap_or(0));
        prop_assert_eq!(p.end_us, last.map_or(0, |l| l.finished));
        prop_assert_eq!(
            p.tasks.first().map(|t| (t.task, t.attempt)),
            last.map(|l| (l.task, l.attempt))
        );
        prop_assert_eq!(p.covered_us, p.tasks.iter().map(|t| t.contribution_us).sum::<u64>());
        for w in p.tasks.windows(2) {
            let (consumer, producer) = (&w[0], &w[1]);
            prop_assert!(consumes(&raw, consumer.task, producer.task));
            prop_assert!(producer.finished_us <= consumer.finished_us);
        }

        prop_assert!(p.near.len() <= 3 && (last.is_some() || p.near.is_empty()));
        for n in &p.near {
            prop_assert!(n.covered_us <= p.covered_us, "near {} > critical {}", n.covered_us, p.covered_us);
            prop_assert_eq!(n.slack_us, p.covered_us - n.covered_us);
            for w in n.tasks.windows(2) {
                prop_assert!(consumes(&raw, w[0], w[1]));
            }
        }
    }
}
