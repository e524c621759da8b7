//! Placement-quality attribution: how many argument bytes the scheduler's
//! `Default`-strategy decisions pulled over the network, and how many of
//! those a better-informed placement would have kept local.
//!
//! For every `Scheduled` event whose [`exo_trace::PlaceReason`] marks a
//! *policy* decision (`LocalityHit`, `LeastLoaded`, `BoundMatch` — spread
//! and affinity placements are explicit application requests and not the
//! policy's to improve), we replay object locations up to that instant
//! and compare the argument bytes resident on the chosen node against
//! the best single node:
//!
//! - `transfer_bytes` — argument bytes *not* on the chosen node, i.e.
//!   bytes the decision committed to fetching.
//! - `avoidable_bytes` — `best_local − chosen_local` summed over
//!   decisions: bytes a placement on the byte-richest node would have
//!   kept local. Zero means every policy decision was locality-optimal
//!   (it may still have been right to trade locality for load or device
//!   fit — this is an attribution, not a verdict).
//!
//! Object locations are tracked from `Created` / `Transferred` /
//! `Restored` / `Reconstructed` / `Fallback` events. Copies are *not*
//! removed on evict/spill: a spilled object is still cheap to reach from
//! its node, and eviction racing a schedule decision is rare enough that
//! the approximation keeps the replay single-pass.

use std::collections::{HashMap, HashSet};

use exo_trace::{Event, EventKind, Json, ObjectPhase, PlaceReason, TaskPhase};

use crate::dag::Dag;

/// Aggregate placement quality for one run.
#[derive(Debug, Clone, Default)]
pub struct PlacementQuality {
    /// Name of the policy that made the decisions (from the trace);
    /// `None` when the stream contains no policy-made placements.
    pub policy: Option<&'static str>,
    /// Policy-made placement decisions (locality/load/bound reasons).
    pub decisions: u64,
    /// Decisions whose reason was `LocalityHit`.
    pub locality_hits: u64,
    /// Decisions whose reason was `BoundMatch`.
    pub bound_matches: u64,
    /// Argument bytes committed to remote fetches by those decisions.
    pub transfer_bytes: u64,
    /// Argument bytes a placement on the byte-richest node would have
    /// kept local, summed over decisions.
    pub avoidable_bytes: u64,
}

impl PlacementQuality {
    /// Fraction of argument bytes moved that a locality-optimal
    /// placement would have avoided (0 when nothing moved).
    pub fn avoidable_fraction(&self) -> f64 {
        if self.transfer_bytes == 0 {
            0.0
        } else {
            self.avoidable_bytes as f64 / self.transfer_bytes as f64
        }
    }

    /// JSON fragment embedded under `"placement"` in profile documents.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("policy", self.policy.unwrap_or("none"))
            .set("decisions", self.decisions)
            .set("locality_hits", self.locality_hits)
            .set("bound_matches", self.bound_matches)
            .set("transfer_bytes", self.transfer_bytes)
            .set("avoidable_bytes", self.avoidable_bytes)
            .set("avoidable_fraction", self.avoidable_fraction())
    }
}

/// Replays the event stream and attributes placement quality. Argument
/// edges come from the stream's folded `dag`: they are immutable per
/// task, and lineage retries re-schedule without re-emitting them.
pub fn placement_quality(events: &[Event], dag: &Dag) -> PlacementQuality {
    // Replay object locations in time order and score each policy-made
    // decision against the state the scheduler saw.
    let mut holders: HashMap<u64, (u64, HashSet<u32>)> = HashMap::new();
    let mut q = PlacementQuality::default();
    for ev in events {
        match &ev.kind {
            EventKind::Object(o) => match o.phase {
                ObjectPhase::Created
                | ObjectPhase::Transferred
                | ObjectPhase::Restored
                | ObjectPhase::Reconstructed
                | ObjectPhase::Fallback => {
                    let e = holders.entry(o.object).or_default();
                    e.0 = e.0.max(o.bytes);
                    e.1.insert(o.node);
                }
                ObjectPhase::Spilled | ObjectPhase::Evicted => {}
            },
            EventKind::Task(t) if t.phase == TaskPhase::Scheduled => {
                let Some(p) = t.reason else { continue };
                if !matches!(
                    p.reason,
                    PlaceReason::LocalityHit | PlaceReason::LeastLoaded | PlaceReason::BoundMatch
                ) {
                    continue;
                }
                q.decisions += 1;
                q.policy.get_or_insert(p.policy);
                match p.reason {
                    PlaceReason::LocalityHit => q.locality_hits += 1,
                    PlaceReason::BoundMatch => q.bound_matches += 1,
                    _ => {}
                }
                let Some(task_args) = dag.args.get(&t.task) else {
                    continue;
                };
                let mut total = 0u64;
                let mut per_node: HashMap<u32, u64> = HashMap::new();
                for obj in task_args {
                    let Some((bytes, nodes)) = holders.get(obj) else {
                        continue;
                    };
                    total += bytes;
                    for &n in nodes {
                        *per_node.entry(n).or_default() += bytes;
                    }
                }
                let local = per_node.get(&t.node).copied().unwrap_or(0);
                let best = per_node.values().copied().max().unwrap_or(0);
                q.transfer_bytes += total - local;
                q.avoidable_bytes += best - local;
            }
            // Non-Scheduled task phases and everything else carry no
            // placement evidence; enumerated so a new variant is a
            // compile error, not a silently unscored event.
            EventKind::Task(_)
            | EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Io(_)
            | EventKind::Resource(_)
            | EventKind::Failure(_)
            | EventKind::Incident(_)
            | EventKind::Job(_) => {}
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{DepEvent, DepKind, ObjectEvent, Placement, TaskSpan};

    fn created(object: u64, node: u32, bytes: u64, at_us: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Object(ObjectEvent {
                object,
                phase: ObjectPhase::Created,
                node,
                src: None,
                bytes,
            }),
        }
    }

    fn arg(task: u64, object: u64) -> Event {
        Event {
            at_us: 0,
            kind: EventKind::Dep(DepEvent {
                task,
                object,
                kind: DepKind::Arg,
            }),
        }
    }

    fn scheduled(task: u64, node: u32, reason: PlaceReason, at_us: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase: TaskPhase::Scheduled,
                node,
                label: "reduce",
                attempt: 0,
                retry: false,
                reason: Some(Placement {
                    reason,
                    policy: "load_balance",
                    score: 0.0,
                    slots_free: 0,
                    slots_total: 0,
                }),
            }),
        }
    }

    #[test]
    fn optimal_placement_has_no_avoidable_bytes() {
        let events = vec![
            arg(7, 1),
            arg(7, 2),
            created(1, 0, 100, 10),
            created(2, 0, 50, 10),
            scheduled(7, 0, PlaceReason::LocalityHit, 20),
        ];
        let q = placement_quality(&events, &Dag::fold(&events));
        assert_eq!(q.decisions, 1);
        assert_eq!(q.locality_hits, 1);
        assert_eq!(q.transfer_bytes, 0);
        assert_eq!(q.avoidable_bytes, 0);
    }

    #[test]
    fn misplacement_is_attributed() {
        // 100 B on node 0, 40 B on node 1; scheduling on node 1 moves
        // 100 B, of which 60 were avoidable by going to node 0.
        let events = vec![
            arg(7, 1),
            arg(7, 2),
            created(1, 0, 100, 10),
            created(2, 1, 40, 10),
            scheduled(7, 1, PlaceReason::LeastLoaded, 20),
        ];
        let q = placement_quality(&events, &Dag::fold(&events));
        assert_eq!(q.transfer_bytes, 100);
        assert_eq!(q.avoidable_bytes, 60);
        assert!((q.avoidable_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn spread_and_affinity_placements_are_ignored() {
        let events = vec![
            arg(7, 1),
            created(1, 0, 100, 10),
            scheduled(7, 1, PlaceReason::Spread, 20),
            scheduled(8, 1, PlaceReason::Affinity, 21),
        ];
        let q = placement_quality(&events, &Dag::fold(&events));
        assert_eq!(q.decisions, 0);
        assert_eq!(q.transfer_bytes, 0);
        assert_eq!(q.policy, None);
    }

    #[test]
    fn bound_match_decisions_are_counted_and_policy_named() {
        let events = vec![
            arg(7, 1),
            created(1, 0, 100, 10),
            Event {
                at_us: 20,
                kind: EventKind::Task(TaskSpan {
                    job: 0,
                    task: 7,
                    phase: TaskPhase::Scheduled,
                    node: 0,
                    label: "reduce",
                    attempt: 0,
                    retry: false,
                    reason: Some(Placement {
                        reason: PlaceReason::BoundMatch,
                        policy: "bound_aware",
                        score: 123.0,
                        slots_free: 8,
                        slots_total: 8,
                    }),
                }),
            },
        ];
        let q = placement_quality(&events, &Dag::fold(&events));
        assert_eq!(q.bound_matches, 1);
        assert_eq!(q.policy, Some("bound_aware"));
        let json = q.to_json().render();
        assert!(json.contains(r#""policy":"bound_aware""#), "{json}");
    }
}
