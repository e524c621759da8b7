//! Property tests for exo-prof over randomly generated event streams:
//! whatever the stream looks like, the derived aggregates must stay
//! internally consistent.

use exo_prof::{attribute_all, critical_path, Bound, Dag};
use exo_sim::{DeviceCaps, NodeCaps};
use exo_trace::{Event, EventKind, IoDir, IoEvent, ObjectEvent, ObjectPhase, ResourceSample};
use proptest::prelude::*;

fn caps(nodes: usize) -> DeviceCaps {
    let node = NodeCaps {
        cpu_slots: 8,
        disk_seq_bw: 500e6,
        disk_random_iops: 1500.0,
        disk_devices: 4,
        nic_bw: 1e9,
        store_bytes: 1 << 26,
    };
    DeviceCaps {
        per_node: vec![node; nodes],
    }
}

/// A deliberately lopsided capacity card: node capacities differ so the
/// per-node property is exercised against heterogeneity, not just the
/// uniform case.
fn mixed_caps(nodes: usize) -> DeviceCaps {
    let per_node = (0..nodes)
        .map(|i| NodeCaps {
            cpu_slots: 4 + 4 * (i % 3),
            disk_seq_bw: 100e6 * (1 + i as u64 % 5) as f64,
            disk_random_iops: 1500.0,
            disk_devices: 1 + i % 4,
            nic_bw: 1e9,
            store_bytes: 1 << (24 + i % 4),
        })
        .collect();
    DeviceCaps { per_node }
}

/// One random event: (selector, at_us, node, bytes-ish, busy-ish).
type RawEvent = (u8, u64, u32, u64, u32);

fn build(raw: &[RawEvent]) -> Vec<Event> {
    let mut events: Vec<Event> = raw
        .iter()
        .map(|&(sel, at_us, node, bytes, busy)| {
            let kind = match sel % 4 {
                0 => EventKind::Io(IoEvent {
                    node,
                    dir: if bytes % 2 == 0 {
                        IoDir::Read
                    } else {
                        IoDir::Write
                    },
                    bytes,
                }),
                1 => EventKind::Resource(ResourceSample {
                    node,
                    cpu_slots_busy: busy % 9,
                    cpu_slots_total: 8,
                    store_used: bytes,
                    disk_queue_depth: busy,
                    nic_bytes_in_flight: bytes,
                }),
                2 => EventKind::Object(ObjectEvent {
                    object: bytes % 64,
                    phase: if busy % 2 == 0 {
                        ObjectPhase::Transferred
                    } else {
                        ObjectPhase::Spilled
                    },
                    node,
                    src: None,
                    bytes,
                }),
                _ => EventKind::Object(ObjectEvent {
                    object: bytes % 64,
                    phase: ObjectPhase::Created,
                    node,
                    src: None,
                    bytes,
                }),
            };
            Event { at_us, kind }
        })
        .collect();
    events.sort_by_key(|e| e.at_us);
    events
}

proptest! {
    /// Interval fractions are a partition of the run: each lies in
    /// [0, 1] and together they never exceed 1 (they sum to exactly 1
    /// for non-empty runs, 0 for empty ones).
    #[test]
    fn attribution_fractions_sum_to_at_most_one(
        raw in proptest::collection::vec(
            (any::<u8>(), 1u64..2_000_000, 0u32..4, 0u64..100_000_000, any::<u32>()),
            0..200,
        ),
        nodes in 1usize..8,
    ) {
        let events = build(&raw);
        let p = attribute_all(&events, &caps(nodes)).0;
        let mut sum = 0.0;
        for b in Bound::ALL {
            let f = p.fraction(b);
            prop_assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
            sum += f;
        }
        prop_assert!(sum <= 1.0 + 1e-9, "fractions sum to {sum}");
        if !p.intervals.is_empty() {
            prop_assert!((sum - 1.0).abs() < 1e-9, "non-empty run must be fully classified, got {sum}");
            // Intervals tile [0, end_us] in order.
            prop_assert!(p.intervals.first().unwrap().start_us == 0);
            prop_assert!(p.intervals.last().unwrap().end_us == p.end_us);
            for w in p.intervals.windows(2) {
                prop_assert!(w[0].end_us == w[1].start_us, "intervals must be contiguous");
            }
        }
    }

    /// Per-node profiles share the cluster-wide slice grid: every node's
    /// intervals tile the same [0, end_us] makespan and its fractions
    /// sum to 1 — even when node capacities differ wildly.
    #[test]
    fn per_node_fractions_tile_the_makespan(
        raw in proptest::collection::vec(
            (any::<u8>(), 1u64..2_000_000, 0u32..4, 0u64..100_000_000, any::<u32>()),
            0..200,
        ),
        nodes in 1usize..8,
    ) {
        let events = build(&raw);
        let (cluster, per_node) = attribute_all(&events, &mixed_caps(nodes));
        prop_assert_eq!(per_node.len(), nodes);
        for p in &per_node {
            prop_assert_eq!(p.end_us, cluster.end_us, "per-node makespan must match cluster");
            let mut sum = 0.0;
            for b in Bound::ALL {
                let f = p.fraction(b);
                prop_assert!((0.0..=1.0).contains(&f), "fraction out of range: {}", f);
                sum += f;
            }
            if !p.intervals.is_empty() {
                prop_assert!((sum - 1.0).abs() < 1e-9, "per-node fractions must sum to 1, got {}", sum);
                prop_assert!(p.intervals.first().unwrap().start_us == 0);
                prop_assert!(p.intervals.last().unwrap().end_us == p.end_us);
                for w in p.intervals.windows(2) {
                    prop_assert!(w[0].end_us == w[1].start_us, "intervals must be contiguous");
                }
            }
        }
    }

    /// The critical path never claims more than the makespan, and a
    /// stream with no finished task yields an empty path.
    #[test]
    fn critical_path_coverage_is_bounded(
        raw in proptest::collection::vec(
            (any::<u8>(), 1u64..1_000_000, 0u32..4, 0u64..1_000_000, any::<u32>()),
            0..100,
        ),
    ) {
        let events = build(&raw);
        let p = critical_path(&Dag::fold(&events));
        // build() emits no Task events, so nothing can be on the path.
        prop_assert!(p.tasks.is_empty());
        prop_assert!(p.coverage() <= 1.0 + 1e-9);
    }
}
