//! End-of-run text summary derived from the event stream: top-5 longest
//! task executions, per-node busy fraction, and spill/restore totals.

use std::collections::BTreeMap;
use std::fmt;

use crate::attempts::AttemptTable;
use crate::event::{Event, EventKind, ObjectPhase};
use crate::sink::TraceCounters;

#[derive(Debug, Clone)]
pub struct LongTask {
    pub label: &'static str,
    pub node: u32,
    pub task: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

#[derive(Debug, Clone, Default)]
pub struct NodeBusy {
    pub node: u32,
    pub tasks: u64,
    pub busy_us: u64,
    /// Bytes this node spilled to / restored from disk.
    pub spilled_bytes: u64,
    pub restored_bytes: u64,
    /// `ResourceSample` aggregation: number of samples seen, the sum of
    /// busy-slot counts across them, and the node's slot capacity. Mean
    /// occupancy is `busy_slot_samples / samples` out of `slots_total`.
    pub samples: u64,
    pub busy_slot_samples: u64,
    pub slots_total: u32,
}

impl NodeBusy {
    /// Mean CPU-slot occupancy as a fraction of capacity (0..=1), from
    /// resource samples; `None` when sampling was off or capacity is 0.
    pub fn slot_occupancy(&self) -> Option<f64> {
        if self.samples == 0 || self.slots_total == 0 {
            return None;
        }
        Some(self.busy_slot_samples as f64 / self.samples as f64 / self.slots_total as f64)
    }
}

/// One node's hardware capacities, in plain units. This crate has no
/// dependency on the simulator, so callers that know the cluster spec
/// (e.g. exo-bench) convert it into these lines via
/// [`TraceSummary::with_capacities`]; the summary then prints a per-node
/// capacity section — essential context when the cluster is
/// heterogeneous and 40% busy on one node means something different than
/// on another.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeCapacityLine {
    pub node: u32,
    /// Concurrent task slots.
    pub cpu_slots: u32,
    /// Sequential disk bandwidth, bytes/second.
    pub disk_seq_bw: f64,
    /// Per-direction NIC bandwidth, bytes/second.
    pub nic_bw: f64,
    /// Object-store capacity, bytes.
    pub store_bytes: u64,
}

/// Aggregates computed by [`summarize`]; `Display` renders the report.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub end_us: u64,
    /// The stream's counter fold: tasks finished, network bytes,
    /// reconstructions and failures come from here.
    pub counters: TraceCounters,
    pub longest: Vec<LongTask>,
    pub per_node: Vec<NodeBusy>,
    /// Per-node hardware capacities, when the caller supplied them via
    /// [`TraceSummary::with_capacities`]; empty otherwise.
    pub capacities: Vec<NodeCapacityLine>,
    pub spilled_bytes: u64,
    pub spill_ops: u64,
    pub restored_bytes: u64,
    pub restore_ops: u64,
}

impl TraceSummary {
    /// Attach per-node capacity context for the report.
    pub fn with_capacities(mut self, capacities: Vec<NodeCapacityLine>) -> TraceSummary {
        self.capacities = capacities;
        self
    }
}

/// Folds the stream into a [`TraceSummary`].
pub fn summarize(events: &[Event]) -> TraceSummary {
    let mut s = TraceSummary::default();
    let mut attempts = AttemptTable::default();
    // Keyed by node id; ordered so `per_node` comes out sorted without a
    // separate pass and the report is independent of event order.
    let mut busy: BTreeMap<u32, NodeBusy> = BTreeMap::new();
    for ev in events {
        s.end_us = s.end_us.max(ev.at_us);
        s.counters.apply(&ev.kind);
        match &ev.kind {
            EventKind::Task(t) => attempts.apply(ev.at_us, t),
            EventKind::Object(o) => match o.phase {
                ObjectPhase::Spilled => {
                    s.spilled_bytes += o.bytes;
                    s.spill_ops += 1;
                    busy.entry(o.node).or_default().spilled_bytes += o.bytes;
                }
                ObjectPhase::Restored => {
                    s.restored_bytes += o.bytes;
                    s.restore_ops += 1;
                    busy.entry(o.node).or_default().restored_bytes += o.bytes;
                }
                _ => {}
            },
            EventKind::Resource(r) => {
                let e = busy.entry(r.node).or_default();
                e.samples += 1;
                e.busy_slot_samples += r.cpu_slots_busy as u64;
                e.slots_total = e.slots_total.max(r.cpu_slots_total);
            }
            // Failures reach the report through the counters; deps,
            // fetch-waits, I/O completions and incident edges carry
            // nothing it reports. Enumerated so a new variant is a
            // compile error, not a silent drop.
            EventKind::Failure(_)
            | EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Io(_)
            | EventKind::Incident(_)
            | EventKind::Job(_) => {}
        }
    }
    for r in attempts.finished() {
        let e = busy.entry(r.node).or_default();
        e.tasks += 1;
        e.busy_us += r.exec_us();
    }
    // Finish order breaks duration ties: the sort is stable.
    let mut longest: Vec<_> = attempts.finished().collect();
    longest.sort_by_key(|r| std::cmp::Reverse(r.exec_us()));
    s.longest = longest
        .into_iter()
        .take(5)
        .map(|r| LongTask {
            label: r.label,
            node: r.node,
            task: r.task,
            start_us: r.started.or(r.finished).unwrap_or(0),
            dur_us: r.exec_us(),
        })
        .collect();
    // BTreeMap iteration is already node-ordered.
    s.per_node = busy
        .into_iter()
        .map(|(node, mut nb)| {
            nb.node = node;
            nb
        })
        .collect();
    s
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace summary: {} tasks in {:.2} s virtual time",
            self.counters.tasks_completed,
            secs(self.end_us)
        )?;
        if !self.longest.is_empty() {
            writeln!(f, "  top-{} longest task executions:", self.longest.len())?;
            for t in &self.longest {
                writeln!(
                    f,
                    "    {:<20} node{:<3} task {:<8} {:>9.3} s (at {:.2} s)",
                    t.label,
                    t.node,
                    t.task,
                    secs(t.dur_us),
                    secs(t.start_us)
                )?;
            }
        }
        if !self.capacities.is_empty() {
            writeln!(f, "  per-node capacity:")?;
            for c in &self.capacities {
                writeln!(
                    f,
                    "    node{:<3} {:>3} slots  disk {:>7.1} MB/s  nic {:>7.1} MB/s  store {:>6.2} GB",
                    c.node,
                    c.cpu_slots,
                    c.disk_seq_bw / 1e6,
                    c.nic_bw / 1e6,
                    gb(c.store_bytes)
                )?;
            }
        }
        if !self.per_node.is_empty() && self.end_us > 0 {
            writeln!(f, "  per-node utilization:")?;
            for n in &self.per_node {
                write!(
                    f,
                    "    node{:<3} {:>5.1}% busy  ({} tasks)",
                    n.node,
                    100.0 * n.busy_us as f64 / self.end_us as f64,
                    n.tasks
                )?;
                if let Some(occ) = n.slot_occupancy() {
                    write!(
                        f,
                        "  slots {:>5.1}% ({:.1}/{} avg)",
                        100.0 * occ,
                        occ * n.slots_total as f64,
                        n.slots_total
                    )?;
                }
                if n.spilled_bytes > 0 || n.restored_bytes > 0 {
                    write!(
                        f,
                        "  spilled {:.2} GB / restored {:.2} GB",
                        gb(n.spilled_bytes),
                        gb(n.restored_bytes)
                    )?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "  spilled {:.2} GB in {} ops, restored {:.2} GB in {} ops, net {:.2} GB",
            gb(self.spilled_bytes),
            self.spill_ops,
            gb(self.restored_bytes),
            self.restore_ops,
            gb(self.counters.net_bytes)
        )?;
        let failures = self.counters.node_failures + self.counters.executor_failures;
        let reconstructed = self.counters.objects_reconstructed;
        if failures > 0 || reconstructed > 0 {
            writeln!(
                f,
                "  failures: {failures}, objects reconstructed: {reconstructed}"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::*;

    fn task_pair(task: u64, node: u32, start: u64, end: u64) -> [Event; 2] {
        let mk = |phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node,
                label: "map",
                attempt: 0,
                retry: false,
                reason: None,
            }),
        };
        [mk(TaskPhase::Started, start), mk(TaskPhase::Finished, end)]
    }

    #[test]
    fn summary_ranks_and_accounts() {
        let mut events = Vec::new();
        events.extend(task_pair(1, 0, 0, 50));
        events.extend(task_pair(2, 1, 10, 200));
        events.extend(task_pair(3, 0, 60, 80));
        events.push(Event {
            at_us: 90,
            kind: EventKind::Object(ObjectEvent {
                object: 7,
                phase: ObjectPhase::Spilled,
                node: 0,
                src: None,
                bytes: 1_000,
            }),
        });
        let s = summarize(&events);
        assert_eq!(s.counters.tasks_completed, 3);
        assert_eq!(s.longest[0].task, 2);
        assert_eq!(s.longest[0].dur_us, 190);
        assert_eq!(s.spilled_bytes, 1_000);
        assert_eq!(s.end_us, 200);
        let n0 = s.per_node.iter().find(|n| n.node == 0).unwrap();
        assert_eq!(n0.tasks, 2);
        assert_eq!(n0.busy_us, 70);
        assert_eq!(n0.spilled_bytes, 1_000);
        let text = s.to_string();
        assert!(text.contains("top-3 longest"));
        assert!(text.contains("node1"));
    }

    #[test]
    fn per_node_utilization_from_resource_samples() {
        let mut events: Vec<Event> = task_pair(1, 0, 0, 100).into();
        for (at_us, busy) in [(25u64, 2u32), (50, 4), (75, 6)] {
            events.push(Event {
                at_us,
                kind: EventKind::Resource(ResourceSample {
                    node: 0,
                    cpu_slots_busy: busy,
                    cpu_slots_total: 8,
                    store_used: 0,
                    disk_queue_depth: 0,
                    nic_bytes_in_flight: 0,
                }),
            });
        }
        events.push(Event {
            at_us: 90,
            kind: EventKind::Object(ObjectEvent {
                object: 3,
                phase: ObjectPhase::Restored,
                node: 0,
                src: None,
                bytes: 2_000_000_000,
            }),
        });
        let s = summarize(&events);
        let n0 = s.per_node.iter().find(|n| n.node == 0).unwrap();
        assert_eq!(n0.samples, 3);
        assert_eq!(n0.busy_slot_samples, 12);
        assert_eq!(n0.slots_total, 8);
        let occ = n0.slot_occupancy().unwrap();
        assert!((occ - 0.5).abs() < 1e-9, "{occ}");
        assert_eq!(n0.restored_bytes, 2_000_000_000);
        let text = s.to_string();
        assert!(text.contains("per-node utilization"), "{text}");
        assert!(text.contains("slots  50.0% (4.0/8 avg)"), "{text}");
        assert!(text.contains("restored 2.00 GB"), "{text}");
    }

    #[test]
    fn capacity_lines_render_per_node() {
        let events: Vec<Event> = task_pair(1, 0, 0, 100).into();
        let s = summarize(&events).with_capacities(vec![
            NodeCapacityLine {
                node: 0,
                cpu_slots: 8,
                disk_seq_bw: 1_153_433_600.0,
                nic_bw: 750_000_000.0,
                store_bytes: 20 * 1024 * 1024 * 1024,
            },
            NodeCapacityLine {
                node: 1,
                cpu_slots: 16,
                disk_seq_bw: 450_000_000.0,
                nic_bw: 2_500_000_000.0,
                store_bytes: 5 * 1024 * 1024 * 1024,
            },
        ]);
        let text = s.to_string();
        assert!(text.contains("per-node capacity:"), "{text}");
        assert!(text.contains("node0     8 slots"), "{text}");
        assert!(text.contains("node1    16 slots"), "{text}");
        assert!(text.contains("disk   450.0 MB/s"), "{text}");
    }
}
