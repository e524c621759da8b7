//! Property-based tests on core data structures and invariants.

use bytes::Bytes;
use exoshuffle::rt::Payload;
use exoshuffle::shuffle::{frame_blocks, unframe_blocks};
use exoshuffle::sim::{EventQueue, IoKind, Resource, SimDuration, SimTime};
use exoshuffle::sort::{kway_merge, sort_and_cut, sort_records, RangePartitioner, RECORD_SIZE};
use exoshuffle::store::{NodeStore, Priority, StoreConfig};
use proptest::prelude::*;

fn arb_records(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(|mut v| {
        v.truncate(v.len() / RECORD_SIZE * RECORD_SIZE);
        v
    })
}

/// Records whose keys come from a tiny alphabet: a key is 10 bytes each
/// drawn from `{0, 1}` with only the first and last byte varying, so
/// batches hold many equal keys told apart only by their bodies.
fn arb_tied_records(max_records: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        (
            0u8..2,
            0u8..2,
            proptest::collection::vec(any::<u8>(), RECORD_SIZE - 10),
        ),
        0..max_records,
    )
    .prop_map(|recs| {
        let mut out = Vec::with_capacity(recs.len() * RECORD_SIZE);
        for (first, last, body) in recs {
            out.push(first);
            out.extend_from_slice(&[0; 8]);
            out.push(last);
            out.extend_from_slice(&body);
        }
        out
    })
}

/// Reference: a stable sort of `records` by their 10-byte keys.
fn stable_sort_by_key(records: &[u8]) -> Vec<u8> {
    let mut recs: Vec<&[u8]> = records.chunks_exact(RECORD_SIZE).collect();
    recs.sort_by(|a, b| a[..10].cmp(&b[..10]));
    recs.concat()
}

proptest! {
    #[test]
    fn sort_records_is_a_stable_sort_on_tied_keys(recs in arb_tied_records(40)) {
        let mut sorted = recs.clone();
        sort_records(&mut sorted);
        prop_assert_eq!(sorted, stable_sort_by_key(&recs));
    }

    #[test]
    fn kway_merge_is_a_stable_sort_of_the_blocks_on_tied_keys(
        blocks in proptest::collection::vec(arb_tied_records(12), 0..6),
    ) {
        let sorted_blocks: Vec<Vec<u8>> = blocks.iter().map(|b| stable_sort_by_key(b)).collect();
        let views: Vec<&[u8]> = sorted_blocks.iter().map(|b| &b[..]).collect();
        prop_assert_eq!(kway_merge(&views), stable_sort_by_key(&sorted_blocks.concat()));
    }

    #[test]
    fn sort_records_sorts_and_preserves_multiset(mut recs in arb_records(3000)) {
        let mut expected: Vec<Vec<u8>> =
            recs.chunks_exact(RECORD_SIZE).map(|c| c.to_vec()).collect();
        sort_records(&mut recs);
        // Sorted by key.
        let keys: Vec<&[u8]> = recs.chunks_exact(RECORD_SIZE).map(|c| &c[..10]).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // Same multiset of records.
        let mut actual: Vec<Vec<u8>> =
            recs.chunks_exact(RECORD_SIZE).map(|c| c.to_vec()).collect();
        expected.sort();
        actual.sort();
        prop_assert_eq!(expected, actual);
    }

    #[test]
    fn kway_merge_equals_concat_sort(blocks in proptest::collection::vec(arb_records(800), 0..6)) {
        let mut sorted_blocks = blocks.clone();
        for b in &mut sorted_blocks {
            sort_records(b);
        }
        let views: Vec<&[u8]> = sorted_blocks.iter().map(|b| &b[..]).collect();
        let merged = kway_merge(&views);
        let mut reference: Vec<u8> = blocks.concat();
        sort_records(&mut reference);
        prop_assert_eq!(merged, reference);
    }

    #[test]
    fn sort_and_cut_is_one_sorted_run_cut_at_partition_boundaries(
        recs in arb_records(4000),
        parts in 1usize..300,
    ) {
        let part = RangePartitioner::new(parts);
        let (run, cuts) = sort_and_cut(&recs, &part);
        let mut reference = recs.clone();
        sort_records(&mut reference);
        prop_assert_eq!(&run, &reference);
        // The cuts are exactly the partitioner's boundaries: cut `p` is
        // the byte offset of the first sorted record in partition `p` or
        // above.
        let want: Vec<usize> = (0..=parts)
            .map(|p| {
                run.chunks_exact(RECORD_SIZE)
                    .take_while(|rec| part.partition_of(&rec[..10]) < p)
                    .count()
                    * RECORD_SIZE
            })
            .collect();
        prop_assert_eq!(cuts, want);
    }

    #[test]
    fn partitioner_is_monotone_and_in_range(
        a in proptest::collection::vec(any::<u8>(), 10),
        b in proptest::collection::vec(any::<u8>(), 10),
        parts in 1usize..500,
    ) {
        let p = RangePartitioner::new(parts);
        let (pa, pb) = (p.partition_of(&a), p.partition_of(&b));
        prop_assert!(pa < parts && pb < parts);
        if a <= b {
            prop_assert!(pa <= pb, "monotonicity violated: {:?} -> {}, {:?} -> {}", a, pa, b, pb);
        }
    }

    #[test]
    fn frame_blocks_roundtrips(
        blocks in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..200), any::<u32>()),
            0..20,
        )
    ) {
        let payloads: Vec<Payload> = blocks
            .iter()
            .map(|(data, logical)| Payload::scaled(Bytes::from(data.clone()), *logical as u64))
            .collect();
        let framed = frame_blocks(&payloads);
        prop_assert_eq!(
            framed.logical,
            payloads.iter().map(|p| p.logical).sum::<u64>()
        );
        let back = unframe_blocks(&framed);
        prop_assert_eq!(back.len(), payloads.len());
        for (orig, round) in payloads.iter().zip(&back) {
            prop_assert_eq!(&orig.data, &round.data);
            prop_assert_eq!(orig.logical, round.logical);
        }
    }

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..10_000, 0..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    #[test]
    fn resource_completions_are_causal_and_count_bytes(
        ops in proptest::collection::vec((1u64..10_000_000, any::<bool>()), 1..50)
    ) {
        let mut r = Resource::new(
            "d",
            3,
            100.0 * 1e6,
            SimDuration::from_millis(5),
            SimDuration::from_micros(10),
        );
        let mut total = 0u64;
        for &(size, random) in &ops {
            let kind = if random { IoKind::Random } else { IoKind::Sequential };
            let end = r.submit(SimTime::ZERO, size, kind);
            // An op can never complete before its own service time.
            prop_assert!(end >= SimTime::ZERO + r.service_time(size, kind));
            total += size;
        }
        prop_assert_eq!(r.bytes_served(), total);
        prop_assert_eq!(r.ops_served(), ops.len() as u64);
    }

    #[test]
    fn store_accounting_never_underflows(
        ops in proptest::collection::vec((0u8..5, 1u64..2_000_000), 1..120)
    ) {
        // Model-based test: random create/seal/unpin/forget/spill traffic;
        // internal accounting must stay consistent throughout.
        let mut store: NodeStore<u64> = NodeStore::new(StoreConfig::ray_default(4_000_000));
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new(); // created ids with creator pin
        let mut sealed: Vec<u64> = Vec::new();
        for (op, size) in ops {
            match op {
                0 => {
                    let id = next_id;
                    next_id += 1;
                    match store.request_create(id, size, id, Priority::High) {
                        exoshuffle::store::AllocDecision::Granted
                        | exoshuffle::store::AllocDecision::Fallback => live.push(id),
                        _ => {}
                    }
                }
                1 => {
                    if let Some(id) = live.pop() {
                        store.seal(id);
                        store.unpin(id);
                        sealed.push(id);
                    }
                }
                2 => {
                    if let Some(id) = sealed.pop() {
                        store.forget(id);
                    }
                }
                3 => {
                    while let Some(batch) = store.next_spill_batch() {
                        store.spill_complete(&batch);
                    }
                }
                _ => {
                    let _ = store.take_granted();
                }
            }
            // free() uses saturating arithmetic; used must track slots.
            let _ = store.free();
            prop_assert!(store.len() < 1000);
        }
    }
}

/// The live quantile sketch promises a one-sided relative-error bound:
/// for any stream of durations and any rank, the reported quantile is
/// at least the exact sorted value and overshoots it by at most the
/// bucket's relative width.
mod live_sketch {
    use super::*;
    use exoshuffle::live::{QuantileSketch, RELATIVE_ERROR};

    proptest! {
        #[test]
        fn sketch_percentiles_within_relative_error_of_exact(
            // Up to ~2^39.9 µs stays below the sketch's 2^40 saturation
            // cap, so the bound must hold with no carve-outs.
            vals in proptest::collection::vec(0u64..1_000_000_000_000, 1..400),
            q_millis in 0u64..1001,
        ) {
            let q = q_millis as f64 / 1000.0;
            let mut s = QuantileSketch::new();
            for &v in &vals {
                s.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for q in [q, 0.5, 0.99, 0.999] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let est = s.quantile(q);
                prop_assert!(est >= exact, "q={}: reported {} below exact {}", q, est, exact);
                prop_assert!(
                    est as f64 <= exact as f64 * (1.0 + RELATIVE_ERROR),
                    "q={}: reported {} overshoots exact {} beyond {}",
                    q, est, exact, RELATIVE_ERROR
                );
            }
            prop_assert_eq!(s.count(), vals.len() as u64);
            prop_assert_eq!(s.max(), *sorted.last().unwrap());
            prop_assert_eq!(s.min(), sorted[0]);
        }
    }
}

/// Merging sketches must preserve the same one-sided relative-error
/// bound as recording into one: for any split of a stream across two
/// sketches, the merged sketch answers every quantile within the bound
/// of the exact combined distribution.
mod sketch_merge {
    use super::*;
    use exoshuffle::live::{QuantileSketch, RELATIVE_ERROR};

    proptest! {
        #[test]
        fn merge_preserves_relative_error_bound(
            a in proptest::collection::vec(0u64..1_000_000_000_000, 0..300),
            b in proptest::collection::vec(0u64..1_000_000_000_000, 1..300),
        ) {
            let mut sa = QuantileSketch::new();
            for &v in &a {
                sa.record(v);
            }
            let mut sb = QuantileSketch::new();
            for &v in &b {
                sb.record(v);
            }
            sa.merge(&sb);

            let mut sorted: Vec<u64> = a.iter().chain(&b).copied().collect();
            sorted.sort_unstable();
            prop_assert_eq!(sa.count(), sorted.len() as u64);
            prop_assert_eq!(sa.max(), *sorted.last().unwrap());
            prop_assert_eq!(sa.min(), sorted[0]);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let est = sa.quantile(q);
                prop_assert!(est >= exact, "q={}: merged {} below exact {}", q, est, exact);
                prop_assert!(
                    est as f64 <= exact as f64 * (1.0 + RELATIVE_ERROR),
                    "q={}: merged {} overshoots exact {} beyond {}",
                    q, est, exact, RELATIVE_ERROR
                );
            }
        }
    }
}

/// Detector quiescence: a uniform, fault-free synthetic event stream —
/// evenly spread tasks with tightly banded execution times, modest
/// queue delays, no spills, no failures — must fire zero incidents at
/// the default thresholds, for any draw of the stream's shape.
mod watch_quiescence {
    use super::*;
    use exoshuffle::rt::RunObserver;
    use exoshuffle::sim::{DeviceCaps, NodeCaps};
    use exoshuffle::trace::{Event, EventKind, Observer, TaskPhase, TaskSpan};
    use exoshuffle::watch::WatchConfig;

    fn caps(nodes: usize) -> DeviceCaps {
        DeviceCaps::uniform(
            NodeCaps {
                cpu_slots: 8,
                disk_seq_bw: 1e8,
                disk_random_iops: 1500.0,
                disk_devices: 1,
                nic_bw: 1e8,
                store_bytes: 100_000_000,
            },
            nodes,
        )
    }

    fn task_ev(at_us: u64, task: u64, node: u32, phase: TaskPhase) -> Event {
        Event {
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
        }
    }

    proptest! {
        #[test]
        fn uniform_no_fault_stream_fires_zero_incidents(
            nodes in 2usize..8,
            tasks in 4u64..60,
            stride_us in 10_000u64..200_000,
            // Execution stays under the 500 ms straggler floor and the
            // band is narrower than the 3× ratio; queue delays stay
            // under the 50 ms baseline floor.
            exec_us in proptest::collection::vec(100_000u64..400_000, 60),
            delay_us in proptest::collection::vec(0u64..40_000, 60),
        ) {
            let handle = RunObserver::new(None, Some(&WatchConfig::default()), &caps(nodes))
                .expect("watching");
            let mut obs: Box<dyn Observer> = Box::new(handle.clone());
            let mut events = Vec::new();
            let mut end = 0u64;
            for i in 0..tasks {
                let at = i * stride_us;
                let node = (i % nodes as u64) as u32;
                let started = at + delay_us[i as usize % delay_us.len()];
                let finished = started + exec_us[i as usize % exec_us.len()];
                events.push(task_ev(at, i, node, TaskPhase::Scheduled));
                events.push(task_ev(started, i, node, TaskPhase::Started));
                events.push(task_ev(finished, i, node, TaskPhase::Finished));
                end = end.max(finished);
            }
            // Observers see the sink's stream in virtual-time order.
            events.sort_by_key(|e| e.at_us);
            obs.on_block(&events);
            let report = handle.finish_watch(end).expect("watching");
            prop_assert!(report.is_empty(), "incidents: {:?}", report.incidents);
        }
    }
}

/// Random small DAGs executed on the runtime must produce exactly the
/// values a direct (reference) evaluation produces — regardless of
/// topology, placement or payload sizes.
mod random_dags {
    use super::*;
    use exoshuffle::rt::{RtConfig, SchedulingStrategy, TaskCtx};
    use exoshuffle::sim::{ClusterSpec, NodeSpec};

    #[derive(Clone, Debug)]
    struct NodeSpecOp {
        /// Indices of earlier DAG nodes used as args.
        deps: Vec<usize>,
        /// Added constant.
        salt: u8,
        /// Placement choice.
        spread: bool,
    }

    fn arb_dag() -> impl Strategy<Value = Vec<NodeSpecOp>> {
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<bool>(),
                proptest::collection::vec(0usize..64, 0..4),
            ),
            1..24,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (salt, spread, deps))| NodeSpecOp {
                    deps: deps
                        .into_iter()
                        .map(|d| d % (i.max(1)))
                        .filter(|_| i > 0)
                        .collect(),
                    salt,
                    spread,
                })
                .collect()
        })
    }

    /// Reference semantics: value(node) = salt + sum(dep values), wrapping.
    fn reference(dag: &[NodeSpecOp]) -> Vec<u8> {
        let mut vals: Vec<u8> = Vec::with_capacity(dag.len());
        for op in dag {
            let mut v = op.salt;
            for &d in &op.deps {
                v = v.wrapping_add(vals[d]);
            }
            vals.push(v);
        }
        vals
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn runtime_matches_reference_semantics(dag in arb_dag()) {
            let expect = reference(&dag);
            let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 3));
            let (_rep, got) = exoshuffle::rt::run(cfg, |rt| {
                let mut refs: Vec<exoshuffle::rt::ObjectRef> = Vec::new();
                for op in &dag {
                    let salt = op.salt;
                    let mut b = rt
                        .task(move |ctx: TaskCtx| {
                            let mut v = salt;
                            for a in &ctx.args {
                                v = v.wrapping_add(a.data[0]);
                            }
                            vec![Payload::inline(Bytes::from(vec![v]))]
                        });
                    for &d in &op.deps {
                        b = b.arg(&refs[d]);
                    }
                    if op.spread {
                        b = b.strategy(SchedulingStrategy::Spread);
                    }
                    refs.push(b.submit_one());
                }
                rt.get(&refs).unwrap().iter().map(|p| p.data[0]).collect::<Vec<u8>>()
            });
            prop_assert_eq!(got, expect);
        }
    }
}
