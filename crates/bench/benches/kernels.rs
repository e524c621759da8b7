//! Criterion microbenchmarks for the hot kernels: sort, merge, the
//! spill_pushstar map/merge/reduce kernel calls, partitioning, record
//! generation, framing, the event queue, the store allocation/spill
//! path, and small end-to-end shuffles of every variant.

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exo_rt::RtConfig;
use exo_shuffle::{frame_blocks, key_sum_job, run_shuffle, unframe_blocks, ShuffleVariant};
use exo_sim::{ClusterSpec, EventQueue, NodeSpec, SimTime};
use exo_sort::{
    gen_records, kway_merge, sort_and_cut, sort_records, RangePartitioner, RECORD_SIZE,
};
use exo_store::{NodeStore, Priority, StoreConfig};

fn bench_sort_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort_kernel");
    for &n in &[1_000usize, 10_000] {
        g.throughput(Throughput::Bytes((n * 100) as u64));
        g.bench_with_input(BenchmarkId::new("sort_records", n), &n, |b, &n| {
            let recs = gen_records(1, 0, n);
            b.iter(|| {
                let mut r = recs.clone();
                sort_records(&mut r);
                r
            });
        });
    }
    g.finish();
}

fn bench_kway_merge(c: &mut Criterion) {
    let mut blocks: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            let mut r = gen_records(2, i, 1000);
            sort_records(&mut r);
            r
        })
        .collect();
    blocks.sort();
    c.bench_function("kway_merge_8x1000", |b| {
        let views: Vec<&[u8]> = blocks.iter().map(|v| &v[..]).collect();
        b.iter(|| kway_merge(&views));
    });
}

/// One map's work as the sort job does it: sort and cut, freeze the run,
/// and slice one view per partition.
fn map_views(records: &[u8], part: &RangePartitioner) -> Vec<Bytes> {
    let (run, cuts) = sort_and_cut(records, part);
    let run = Bytes::from(run);
    cuts.windows(2).map(|c| run.slice(c[0]..c[1])).collect()
}

/// The kernel calls of one spill_pushstar map, merge and reduce: 2,500
/// records per map cut into 1,600 partitions, 40-map rounds.
fn bench_spill_pushstar_kernels(c: &mut Criterion) {
    const RECORDS: usize = 2_500;
    const PARTITIONS: usize = 1_600;
    const ROUND: usize = 40;
    let part = RangePartitioner::new(PARTITIONS);
    let mut g = c.benchmark_group("spill_pushstar");

    let recs = gen_records(5, 0, RECORDS);
    g.throughput(Throughput::Bytes((RECORDS * RECORD_SIZE) as u64));
    g.bench_function("map_2500_into_1600", |b| b.iter(|| map_views(&recs, &part)));

    // One merge task's inputs for one partition: that partition's view
    // of each of a round's map runs (~1.6 records each).
    let maps: Vec<Vec<Bytes>> = (0..ROUND)
        .map(|m| map_views(&gen_records(5, m, RECORDS), &part))
        .collect();
    let column: Vec<&[u8]> = maps
        .iter()
        .map(|blocks| &blocks[PARTITIONS / 2][..])
        .collect();
    let bytes: usize = column.iter().map(|b| b.len()).sum();
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("merge_40_blocks_of_1.6", |b| b.iter(|| kway_merge(&column)));

    // One reducer's inputs: a sorted block per round, 2,500 records in all.
    let rounds: Vec<Vec<u8>> = (0..ROUND)
        .map(|i| {
            let mut r = gen_records(6, i, RECORDS / ROUND + usize::from(i < RECORDS % ROUND));
            sort_records(&mut r);
            r
        })
        .collect();
    let views: Vec<&[u8]> = rounds.iter().map(|v| &v[..]).collect();
    g.throughput(Throughput::Bytes((RECORDS * RECORD_SIZE) as u64));
    g.bench_function("reduce_40_blocks_of_2500", |b| {
        b.iter(|| kway_merge(&views))
    });
    g.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let part = RangePartitioner::new(1000);
    let recs = gen_records(3, 0, 10_000);
    c.bench_function("range_partition_10k", |b| {
        b.iter(|| {
            let mut counts = vec![0u32; 1000];
            for i in 0..10_000 {
                counts[part.partition_of(&recs[i * 100..i * 100 + 10])] += 1;
            }
            counts
        });
    });
}

fn bench_gen_records(c: &mut Criterion) {
    let mut g = c.benchmark_group("gen_records");
    g.throughput(Throughput::Bytes(100 * 10_000));
    g.bench_function("10k", |b| b.iter(|| gen_records(4, 0, 10_000)));
    g.finish();
}

fn bench_framing(c: &mut Criterion) {
    let blocks: Vec<exo_rt::Payload> = (0..64)
        .map(|i| exo_rt::Payload::inline(vec![i as u8; 4096]))
        .collect();
    c.bench_function("frame_unframe_64x4k", |b| {
        b.iter(|| {
            let f = frame_blocks(&blocks);
            unframe_blocks(&f)
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_10k_push_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(SimTime(i * 7919 % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            sum
        });
    });
}

fn bench_store_spill_path(c: &mut Criterion) {
    c.bench_function("store_create_spill_cycle_1k", |b| {
        b.iter(|| {
            let mut s: NodeStore<u64> = NodeStore::new(StoreConfig {
                capacity: 1_000_000,
                fuse_min: 100_000_000,
                fuse_enabled: true,
            });
            for id in 0..1000u64 {
                let _ = s.request_create(id, 10_000, id, Priority::High, 0);
                if s.contains(id) {
                    s.seal(id);
                    s.unpin(id);
                }
                while let Some(batch) = s.next_spill_batch() {
                    s.spill_complete(&batch);
                }
                let _ = s.take_granted();
            }
            s.metrics()
        });
    });
}

fn bench_end_to_end_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("shuffle_e2e_small");
    g.sample_size(10);
    for (name, variant) in [
        ("simple", ShuffleVariant::Simple),
        ("merge", ShuffleVariant::Merge { factor: 4 }),
        ("push", ShuffleVariant::Push { factor: 4 }),
        ("push_star", ShuffleVariant::PushStar { map_parallelism: 2 }),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
                let (_rep, out) = exo_rt::run(cfg, |rt| {
                    let job = key_sum_job(8, 4, 100);
                    let outs = run_shuffle(rt, &job, variant);
                    rt.get(&outs).expect("outputs").len()
                });
                out
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    targets =
    bench_sort_kernel,
    bench_kway_merge,
    bench_spill_pushstar_kernels,
    bench_partitioner,
    bench_gen_records,
    bench_framing,
    bench_event_queue,
    bench_store_spill_path,
    bench_end_to_end_variants
}
criterion_main!(benches);
