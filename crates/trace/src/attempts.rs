//! The attempt table: how a task attempt's `Scheduled`, `Dequeued`,
//! `Started` and `Finished` edges pair up, for every post-hoc view (the
//! Chrome exporter, the text summary, exo-prof's paths, stage and job
//! stats). Keyed by `(task, attempt)`: every requeue is a new attempt,
//! so a key has one edge per phase and an abandoned attempt never
//! finishes. Should a stream repeat a phase, its *latest* edge is kept.

use std::collections::HashMap;

use crate::event::{Placement, TaskPhase, TaskSpan};

/// One task attempt's folded lifecycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttemptRecord {
    pub task: u64,
    pub attempt: u32,
    pub job: u32,
    /// Node of the latest edge.
    pub node: u32,
    /// Latest non-empty label.
    pub label: &'static str,
    /// Placement of the latest `Scheduled` edge.
    pub reason: Option<Placement>,
    pub scheduled: Option<u64>,
    pub dequeued: Option<u64>,
    pub started: Option<u64>,
    pub finished: Option<u64>,
}

impl AttemptRecord {
    /// Scheduled → dequeued: time queued behind other tasks.
    pub fn queue_us(&self) -> u64 {
        gap(self.scheduled, self.dequeued)
    }

    /// Dequeued → started: argument staging (restore/fetch/pin).
    pub fn stage_us(&self) -> u64 {
        gap(self.dequeued, self.started)
    }

    /// Started → finished: execution (CPU + output write).
    pub fn exec_us(&self) -> u64 {
        gap(self.started, self.finished)
    }
}

fn gap(from: Option<u64>, to: Option<u64>) -> u64 {
    from.zip(to).map(|(f, t)| t.saturating_sub(f)).unwrap_or(0)
}

/// Every attempt in a stream, plus the order its `Finished` edges
/// arrived in.
#[derive(Debug, Clone, Default)]
pub struct AttemptTable {
    /// In order of each attempt's first edge.
    records: Vec<AttemptRecord>,
    index: HashMap<(u64, u32), usize>,
    /// Records by the arrival of their first `Finished` edge.
    finish_order: Vec<usize>,
}

impl AttemptTable {
    /// Folds one task edge at `at_us`.
    pub fn apply(&mut self, at_us: u64, t: &TaskSpan) {
        let next = self.records.len();
        let i = *self.index.entry((t.task, t.attempt)).or_insert(next);
        if i == next {
            self.records.push(AttemptRecord {
                task: t.task,
                attempt: t.attempt,
                ..AttemptRecord::default()
            });
        }
        let r = &mut self.records[i];
        r.job = t.job;
        r.node = t.node;
        if !t.label.is_empty() {
            r.label = t.label;
        }
        match t.phase {
            TaskPhase::Scheduled => {
                r.scheduled = Some(at_us);
                r.reason = t.reason;
            }
            TaskPhase::Dequeued => r.dequeued = Some(at_us),
            TaskPhase::Started => r.started = Some(at_us),
            TaskPhase::Finished => {
                if r.finished.is_none() {
                    self.finish_order.push(i);
                }
                r.finished = Some(at_us);
            }
        }
    }

    /// Finished attempts, in the order their `Finished` edges arrived.
    pub fn finished(&self) -> impl Iterator<Item = &AttemptRecord> + '_ {
        self.finish_order.iter().map(|&i| &self.records[i])
    }

    /// Every attempt, in order of its first edge.
    pub fn iter(&self) -> impl Iterator<Item = &AttemptRecord> + '_ {
        self.records.iter()
    }
}
