//! The task/object dependency DAG, folded from a trace stream once.
//!
//! Nodes are task attempts: exo-trace's [`AttemptTable`], which pairs
//! each attempt's lifecycle edges. Edges come from [`DepKind::Arg`]
//! (task consumes object) and [`DepKind::Output`] (task produces object)
//! events, output sizes from `Created` object events, and each task's
//! blocked time from matched fetch-wait intervals. [`crate::profile`]
//! folds this once; the critical-path, stage and per-job analyses all
//! read it.

use std::collections::{BTreeMap, HashMap};

use exo_trace::{AttemptTable, DepKind, Event, EventKind, ObjectPhase};

/// The facts every path and stage analysis starts from.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    /// Every task attempt's lifecycle.
    pub(crate) attempts: AttemptTable,
    /// task -> distinct argument objects.
    pub(crate) args: HashMap<u64, Vec<u64>>,
    /// object -> producing task.
    pub(crate) producer: HashMap<u64, u64>,
    /// task -> produced objects. Ordered: stage stats group by it.
    pub(crate) outputs: BTreeMap<u64, Vec<u64>>,
    /// object -> bytes of its latest `Created` edge (reconstruction
    /// re-creates objects with the same size).
    pub(crate) obj_bytes: HashMap<u64, u64>,
    /// task -> unioned fetch-wait wall-clock.
    pub(crate) fetch_wait: HashMap<u64, u64>,
}

impl Dag {
    /// Folds `events` in one pass. Tolerates partial streams: unmatched
    /// fetch-wait begins are dropped.
    pub fn fold(events: &[Event]) -> Dag {
        let mut dag = Dag::default();
        // (task, object) -> open fetch-wait begin; task -> closed
        // intervals (ordered — unioned below by iterating).
        let mut open_wait: HashMap<(u64, u64), u64> = HashMap::new();
        let mut wait_ivals: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for ev in events {
            match &ev.kind {
                EventKind::Task(t) => dag.attempts.apply(ev.at_us, t),
                EventKind::Dep(d) => match d.kind {
                    DepKind::Arg => {
                        let args = dag.args.entry(d.task).or_default();
                        if !args.contains(&d.object) {
                            args.push(d.object);
                        }
                    }
                    DepKind::Output => {
                        dag.producer.insert(d.object, d.task);
                        dag.outputs.entry(d.task).or_default().push(d.object);
                    }
                },
                EventKind::FetchWait(w) => {
                    let key = (w.task, w.object);
                    if w.begin {
                        // Keep the earliest begin if the runtime re-registers.
                        open_wait.entry(key).or_insert(ev.at_us);
                    } else if let Some(b) = open_wait.remove(&key) {
                        if ev.at_us > b {
                            wait_ivals.entry(w.task).or_default().push((b, ev.at_us));
                        }
                    }
                }
                EventKind::Object(o) if o.phase == ObjectPhase::Created => {
                    dag.obj_bytes.insert(o.object, o.bytes);
                }
                // Other object phases, I/O, resource, failure, incident
                // and job events carry no DAG facts; enumerated so a new
                // variant is a compile error, not a silent drop.
                EventKind::Object(_)
                | EventKind::Io(_)
                | EventKind::Resource(_)
                | EventKind::Failure(_)
                | EventKind::Incident(_)
                | EventKind::Job(_) => {}
            }
        }
        // A task staging many arguments waits on them concurrently; its
        // blocked wall-clock is the union of the intervals, not their sum.
        dag.fetch_wait = wait_ivals
            .into_iter()
            .map(|(task, ivals)| (task, interval_union_us(ivals)))
            .collect();
        dag
    }
}

/// Total length covered by a set of possibly-overlapping intervals.
fn interval_union_us(mut ivals: Vec<(u64, u64)>) -> u64 {
    ivals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivals {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}
