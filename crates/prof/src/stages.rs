//! Per-stage straggler and skew statistics.
//!
//! A "stage" is the set of task executions sharing a label (`map`,
//! `reduce`, …). For each we report the execution-time distribution
//! (p50/p99/max — the straggler signal) and the output-bytes skew
//! (max/mean across tasks — the partitioning-quality signal, joined
//! from the [`Dag`]'s output edges and `Created` object sizes).

use std::collections::HashMap;

use crate::dag::Dag;

/// Distribution summary for one stage (label).
#[derive(Debug, Clone)]
pub struct StageStats {
    pub label: &'static str,
    /// Finished task executions (attempts count separately).
    pub tasks: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Mean / max output bytes per task (0 when sizes are unknown).
    pub mean_bytes: u64,
    pub max_bytes: u64,
}

impl StageStats {
    /// Straggler ratio: how much longer the slowest task ran vs the
    /// median. ~1 means a tight stage; > 2 means a long tail.
    pub fn straggler_ratio(&self) -> f64 {
        if self.p50_us == 0 {
            return 1.0;
        }
        self.max_us as f64 / self.p50_us as f64
    }

    /// Bytes skew: max / mean output bytes. 1 is perfectly balanced.
    pub fn bytes_skew(&self) -> f64 {
        if self.mean_bytes == 0 {
            return 1.0;
        }
        self.max_bytes as f64 / self.mean_bytes as f64
    }
}

/// Upper nearest-rank percentile: the smallest value with at least a
/// `p` fraction of samples ≤ it (ceil rank), so tail percentiles of
/// small stages surface stragglers instead of rounding them away.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).ceil() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Computes per-stage stats, ordered by each label's first `Finished`
/// edge in the stream.
pub fn stage_stats(dag: &Dag) -> Vec<StageStats> {
    // label -> durations, in finish order; task -> label.
    let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut order: Vec<&'static str> = Vec::new();
    let mut task_label: HashMap<u64, &'static str> = HashMap::new();
    for r in dag.attempts.finished() {
        if !durations.contains_key(r.label) {
            order.push(r.label);
        }
        durations.entry(r.label).or_default().push(r.exec_us());
        task_label.insert(r.task, r.label);
    }

    // Total output bytes per task, grouped by label.
    let mut bytes_by_label: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for (task, objs) in &dag.outputs {
        let Some(label) = task_label.get(task) else {
            continue;
        };
        let total: u64 = objs
            .iter()
            .filter_map(|o| dag.obj_bytes.get(o).copied())
            .sum();
        if total > 0 {
            bytes_by_label.entry(label).or_default().push(total);
        }
    }

    order
        .into_iter()
        .map(|label| {
            let mut durs = durations.remove(label).unwrap_or_default();
            durs.sort_unstable();
            let bytes = bytes_by_label.remove(label).unwrap_or_default();
            let (mean_bytes, max_bytes) = if bytes.is_empty() {
                (0, 0)
            } else {
                (
                    bytes.iter().sum::<u64>() / bytes.len() as u64,
                    *bytes.iter().max().expect("non-empty"),
                )
            };
            StageStats {
                label,
                tasks: durs.len() as u64,
                p50_us: percentile(&durs, 0.50),
                p99_us: percentile(&durs, 0.99),
                max_us: *durs.last().unwrap_or(&0),
                mean_bytes,
                max_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{
        DepEvent, DepKind, Event, EventKind, ObjectEvent, ObjectPhase, TaskPhase, TaskSpan,
    };

    fn run(task: u64, label: &'static str, start: u64, finish: u64) -> [Event; 2] {
        let mk = |phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node: 0,
                label,
                attempt: 0,
                retry: false,
                reason: None,
            }),
        };
        [
            mk(TaskPhase::Started, start),
            mk(TaskPhase::Finished, finish),
        ]
    }

    fn output(task: u64, object: u64, bytes: u64) -> [Event; 2] {
        [
            Event {
                at_us: 0,
                kind: EventKind::Dep(DepEvent {
                    task,
                    object,
                    kind: DepKind::Output,
                }),
            },
            Event {
                at_us: 1,
                kind: EventKind::Object(ObjectEvent {
                    object,
                    phase: ObjectPhase::Created,
                    node: 0,
                    src: None,
                    bytes,
                }),
            },
        ]
    }

    #[test]
    fn distribution_and_skew_per_label() {
        let mut events = Vec::new();
        for i in 0..9 {
            events.extend(run(i, "map", 0, 100));
        }
        events.extend(run(9, "map", 0, 400)); // the straggler
        events.extend(run(10, "reduce", 400, 450));
        events.extend(output(0, 100, 1_000));
        events.extend(output(1, 101, 1_000));
        events.extend(output(2, 102, 4_000));

        let stats = stage_stats(&Dag::fold(&events));
        assert_eq!(stats.len(), 2);
        let map = &stats[0];
        assert_eq!(map.label, "map");
        assert_eq!(map.tasks, 10);
        assert_eq!(map.p50_us, 100);
        assert_eq!(map.max_us, 400);
        assert!(map.straggler_ratio() > 3.9);
        // Bytes: 1000, 1000, 4000 -> mean 2000, max 4000, skew 2.
        assert_eq!(map.mean_bytes, 2_000);
        assert_eq!(map.max_bytes, 4_000);
        assert!((map.bytes_skew() - 2.0).abs() < 1e-9);
        assert_eq!(stats[1].label, "reduce");
        assert_eq!(stats[1].tasks, 1);
    }

    #[test]
    fn p99_tracks_the_tail() {
        let mut events = Vec::new();
        for i in 0..100 {
            let dur = if i == 99 { 1_000 } else { 10 };
            events.extend(run(i, "map", 0, dur));
        }
        let stats = stage_stats(&Dag::fold(&events));
        assert_eq!(stats[0].p50_us, 10);
        assert_eq!(stats[0].p99_us, 1_000);
    }
}
