//! Property-based tests on core data structures and invariants.

use bytes::Bytes;
use exoshuffle::rt::Payload;
use exoshuffle::shuffle::{frame_blocks, unframe_blocks};
use exoshuffle::sim::{EventQueue, IoKind, Resource, SimDuration, SimTime};
use exoshuffle::sort::record::checksum;
use exoshuffle::sort::{
    gen_records, kway_merge, sort_and_cut, sort_records, RangePartitioner, RECORD_SIZE,
};
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

/// Reference cuts of a sorted run: cut `p` is the byte offset of the
/// first record in partition `p` or above.
fn partition_cuts(run: &[u8], part: &RangePartitioner) -> Vec<usize> {
    (0..=part.partitions())
        .map(|p| {
            run.chunks_exact(RECORD_SIZE)
                .take_while(|rec| part.partition_of(&rec[..10]) < p)
                .count()
                * RECORD_SIZE
        })
        .collect()
}

/// Reference: the FNV-1a hash of one record.
fn fnv1a(rec: &[u8]) -> u64 {
    rec.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(seed, map, checksum, first record, last record)` of
/// `gen_records(seed, map, 2_500)`, as the byte-at-a-time generator and
/// the record-at-a-time checksum produced them.
const GOLDEN_RECORDS: [(u64, usize, u64, &str, &str); 4] = [
    (
        2026,
        0,
        0x60f1d87d286cfa0c,
        "238d949198559cdb5d4500000000000000000000000000000000238c96929c509adc2b849e9a945892d4339c86828c408acc3b948e8a844882c403acb6b2bc70bafc0ba4bebab478b2f413bca6a2ac60aaec1bb4aeaaa468a2e463ccd6d2dc10da9c6bc4",
        "c4629c374b9cf3b0f9880000000000000000c309000000000000c4639e344f99f5b7cc6b963c4791fdbfd4738e245f89e5a7dc7b862c5781edafe443be146fb9d597ec4bb61c67b1dd9ff453ae047fa9c587fc5ba60c77a1cd8f8423de740fd9b5f78c2b",
    ),
    (
        2026,
        1599,
        0x7ab25988ccd0db1d,
        "4dcb4e442df886b8dda43f0600000000000000000000000000004dca4c4729fd80bf45c2444f21f588b75dda5c5739ed90af55d2545f31e598a76dea6c6709dda09f65e2646f01d5a8977dfa7c7719cdb08f75f2747f11c5b8870d8a0c0769bdc0ff0582",
        "77c23006995ab7c42dbd3f06000000000000c30900000000000077c332059d5fb1c37fcb3a0d9557b9cb67d322158d4fa1d36fdb2a1d8547a9db57e31225bd7f91e35feb1a2db57799eb47f30235ad6f81f34ffb0a3da56789fb37837245dd1ff1833f8b",
    ),
    (
        7,
        3,
        0xcb058e124b9ed2be,
        "47e64436502f1ade4f2e0300000000000000000000000000000047e74635542a1cd94fef4e3d5c2214d157f75625443a0cc95fff5e2d4c3204c167c76615740a3cf96fcf6e1d7c0234f177d77605641a2ce97fdf7e0d6c1224e107a70675146a5c990faf",
        "a05daaf63b043a700b850300000000000000c309000000000000a05ca8f53f013c77a854a0fd3709347fb04cb8e52f112c67b844b0ed2719246f807c88d51f211c57887480dd1729145f906c98c50f310c47986490cd0739044fe01ce8b57f417c37e814",
    ),
    (
        0,
        0,
        0xb764f9269b2b8b50,
        "afcd1d7b39a820e2f46500000000000000000000000000000000afcc1f783dad26e5a7c4177035a52eedbfdc0f682dbd36f5b7d4076025b53efd8fec3f581d8d06c587e4375015850ecd9ffc2f480d9d16d597f4274005951eddef8c5f387ded66a5e784",
        "ec60b9198a039a91f5f60000000000000000c309000000000000ec61bb1a8e069c96e469b312860e949efc71ab0a9e168c86f479a302961e848ecc419b3aae26bcb6c4499332a62eb4bedc518b2abe36aca6d4598322b63ea4aeac21fb5ace46dcd6a429",
    ),
];

#[test]
fn generator_and_checksum_keep_their_golden_values() {
    for (seed, m, sum, first, last) in GOLDEN_RECORDS {
        let recs = gen_records(seed, m, 2_500);
        assert_eq!(recs.len(), 2_500 * RECORD_SIZE);
        assert_eq!(checksum(&recs), sum, "checksum of ({seed}, {m})");
        assert_eq!(
            hex(&recs[..RECORD_SIZE]),
            first,
            "first record of ({seed}, {m})"
        );
        assert_eq!(
            hex(&recs[recs.len() - RECORD_SIZE..]),
            last,
            "last record of ({seed}, {m})"
        );
    }
}

#[test]
fn frame_layout_keeps_its_golden_bytes() {
    let blocks = [
        Payload::scaled(Bytes::from_static(b"alpha"), 500),
        Payload::scaled(Bytes::from_static(b""), 0),
        Payload::scaled(Bytes::from_static(b"z"), 123),
    ];
    let framed = frame_blocks(&blocks);
    assert_eq!(framed.logical, 623);
    assert_eq!(
        hex(&framed.data),
        "03000000f401000000000000050000000000000000000000000000007b0000000000000001000000616c7068617a"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// More blocks than a `u16` block index, or a 32-bit position packing
    /// `(block, offset)`, can name (the full CloudSort geometry merges
    /// 3,200): a few tied records scattered over mostly empty blocks.
    #[test]
    fn kway_merge_of_more_blocks_than_a_u16_can_index(
        placed in proptest::collection::vec((0usize..70_001, arb_tied_records(3)), 0..12),
    ) {
        let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); 70_001];
        for (at, recs) in placed {
            blocks[at].extend_from_slice(&recs);
        }
        let sorted_blocks: Vec<Vec<u8>> = blocks.iter().map(|b| stable_sort_by_key(b)).collect();
        let views: Vec<&[u8]> = sorted_blocks.iter().map(|b| &b[..]).collect();
        prop_assert_eq!(kway_merge(&views), stable_sort_by_key(&sorted_blocks.concat()));
    }
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
    fn kway_merge_skips_empty_blocks(
        blocks in proptest::collection::vec(arb_tied_records(3), 0..40),
        empties in 0usize..4,
    ) {
        // Up to three extra empty blocks in front of, between and after
        // the generated ones (a third of which are empty already).
        let mut sorted_blocks: Vec<Vec<u8>> = vec![Vec::new(); empties];
        for b in &blocks {
            sorted_blocks.push(stable_sort_by_key(b));
            sorted_blocks.extend(std::iter::repeat_n(Vec::new(), empties));
        }
        let views: Vec<&[u8]> = sorted_blocks.iter().map(|b| &b[..]).collect();
        prop_assert_eq!(kway_merge(&views), stable_sort_by_key(&sorted_blocks.concat()));
    }

    #[test]
    fn checksum_is_the_wrapping_sum_of_per_record_fnv1a(recs in arb_records(3000)) {
        let want = recs
            .chunks_exact(RECORD_SIZE)
            .fold(0u64, |t, rec| t.wrapping_add(fnv1a(rec)));
        prop_assert_eq!(checksum(&recs), want);
    }

    #[test]
    fn sort_and_cut_with_every_key_in_one_partition(
        recs in arb_tied_records(60),
        parts in 1usize..2000,
        pick in any::<u32>(),
    ) {
        // Move every prefix into partition `p`'s range, keeping the
        // two-letter ties: the run is one bucket's stable sort.
        let part = RangePartitioner::new(parts);
        let p = pick as usize % parts;
        let mut recs = recs;
        for rec in recs.chunks_exact_mut(RECORD_SIZE) {
            let prefix = part.lower_bound(p) + u64::from(rec[0]);
            rec[..8].copy_from_slice(&prefix.to_be_bytes());
        }
        let (run, cuts) = sort_and_cut(&recs, &part);
        prop_assert_eq!(&run, &stable_sort_by_key(&recs));
        let want: Vec<usize> = (0..=parts)
            .map(|q| if q <= p { 0 } else { recs.len() })
            .collect();
        prop_assert_eq!(cuts, want);
    }

    #[test]
    fn sort_and_cut_with_more_partitions_than_records(
        recs in arb_records(10 * RECORD_SIZE),
        parts in 10usize..5000,
    ) {
        let part = RangePartitioner::new(parts);
        let (run, cuts) = sort_and_cut(&recs, &part);
        prop_assert_eq!(&run, &stable_sort_by_key(&recs));
        prop_assert_eq!(cuts, partition_cuts(&run, &part));
    }

    #[test]
    fn sort_and_cut_of_zero_or_one_record(
        rec in proptest::collection::vec(any::<u8>(), RECORD_SIZE),
        one in any::<bool>(),
        parts in 1usize..3000,
    ) {
        let recs = if one { rec } else { Vec::new() };
        let part = RangePartitioner::new(parts);
        let (run, cuts) = sort_and_cut(&recs, &part);
        prop_assert_eq!(&run, &recs);
        let home = recs.first().map_or(0, |_| part.partition_of(&recs[..10]));
        let want: Vec<usize> = (0..=parts)
            .map(|p| if p <= home { 0 } else { recs.len() })
            .collect();
        prop_assert_eq!(cuts, want);
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
        prop_assert_eq!(cuts, partition_cuts(&run, &part));
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
        let (mut work, mut longest, mut last) = (0u64, 0u64, SimTime::ZERO);
        for &(size, random) in &ops {
            let kind = if random { IoKind::Random } else { IoKind::Sequential };
            let service = r.service_time(size, kind);
            let end = r.submit(SimTime::ZERO, size, kind);
            // An op can never complete before its own service time.
            prop_assert!(end >= SimTime::ZERO + service);
            work += service.0;
            longest = longest.max(service.0);
            last = last.max(end);
        }
        // Every byte is charged once: three servers that start together
        // finish the booked work no sooner than a third of its sum, and
        // earliest-free booking leaves none idle for longer than one op.
        prop_assert!(3 * last.0 >= work);
        prop_assert!(last.0 <= work / 3 + longest);
    }

    #[test]
    fn store_accounting_never_underflows(
        ops in proptest::collection::vec((0u8..5, 1u64..2_000_000), 1..120)
    ) {
        // Model-based test: random create/seal/unpin/forget/spill traffic;
        // internal accounting must stay consistent throughout.
        let mut store: NodeStore<u64> = NodeStore::new(StoreConfig {
            capacity: 4_000_000,
            fuse_min: 100_000_000,
            fuse_enabled: true,
        });
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new(); // created ids with creator pin
        let mut sealed: Vec<u64> = Vec::new();
        for (op, size) in ops {
            match op {
                0 => {
                    let id = next_id;
                    next_id += 1;
                    match store.request_create(id, size, id, Priority::High, 0) {
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
        let node = NodeCaps {
            cpu_slots: 8,
            disk_seq_bw: 1e8,
            disk_random_iops: 1500.0,
            disk_devices: 1,
            nic_bw: 1e8,
            store_bytes: 100_000_000,
        };
        DeviceCaps {
            per_node: vec![node; nodes],
        }
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
