//! Criterion microbenchmarks for the hot kernels: sort, merge, the
//! spill_pushstar map/merge/reduce kernel calls, multitenant's ML and
//! aggregation kernels, partitioning, record generation, framing, the
//! event queue, the store allocation/spill path, and small end-to-end
//! shuffles of every variant.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exo_agg::workload::fold_state;
use exo_agg::{pageview_job, PageviewSpec};
use exo_ml::dataset::SAMPLE_BYTES;
use exo_ml::trainer::reshuffle_job;
use exo_ml::{gen_block, DatasetSpec};
use exo_rt::{Payload, RtConfig};
use exo_shuffle::{
    frame_blocks, key_sum_job, merge_frames, run_shuffle, unframe_blocks, ShuffleVariant,
};
use exo_sim::{ClusterSpec, EventQueue, NodeSpec, SimTime, SplitMix64};
use exo_sort::{
    gen_records, kway_merge, sort_job, sort_records, RangePartitioner, SortSpec, RECORD_SIZE,
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

/// The kernel calls of one spill_pushstar map, merge and reduce, through
/// the sort job's own closures: 2,500 records per map cut into 1,600
/// partitions, 40-map rounds, 20 workers owning 80 partitions each
/// (worker `w` owns `w, w + 20, …`).
fn bench_spill_pushstar_kernels(c: &mut Criterion) {
    const RECORDS: usize = 2_500;
    const PARTITIONS: usize = 1_600;
    const ROUND: usize = 40;
    const WORKERS: usize = 20;
    let job = sort_job(SortSpec {
        data_bytes: 8_000_000_000_000,
        num_maps: PARTITIONS,
        num_reduces: PARTITIONS,
        scale: 20_000,
        seed: 5,
    });
    let map = |m: usize| (job.map)(m, PARTITIONS, &mut SplitMix64::new(0));
    let mut g = c.benchmark_group("spill_pushstar");

    // Generate, sort and cut one map's records into per-partition views.
    g.throughput(Throughput::Bytes((RECORDS * RECORD_SIZE) as u64));
    g.bench_function("map_2500_into_1600", |b| b.iter(|| map(0)));

    // One combine's inputs: one partition's view of each of a round's
    // map runs (~1.6 records each).
    let maps: Vec<Vec<Payload>> = (0..ROUND).map(map).collect();
    let column: Vec<&[u8]> = maps
        .iter()
        .map(|blocks| &blocks[PARTITIONS / 2].data[..])
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

    // Push*'s framing of one map's blocks, one frame per worker.
    let owned: Vec<Vec<usize>> = (0..WORKERS)
        .map(|w| (w..PARTITIONS).step_by(WORKERS).collect())
        .collect();
    let frame = |blocks: &[Payload], rs: &[usize]| frame_blocks(rs.iter().map(|&r| &blocks[r]));
    g.throughput(Throughput::Bytes((RECORDS * RECORD_SIZE) as u64));
    g.bench_function("frame_2500_for_20_workers", |b| {
        b.iter(|| {
            owned
                .iter()
                .map(|rs| frame(&maps[0], rs))
                .collect::<Vec<_>>()
        })
    });

    // Worker 0's merge task of one round: one frame from each of 40 maps.
    let frames: Vec<Payload> = maps.iter().map(|blocks| frame(blocks, &owned[0])).collect();
    let bytes: usize = frames.iter().map(|f| f.data.len()).sum();
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("merge_task_40_frames_of_80", |b| {
        b.iter(|| merge_frames(&frames, owned[0].len(), &job.combine))
    });
    g.finish();
}

/// One multitenant ML job's partition (10,000 samples over 8
/// partitions): its generation, and its reshuffle map, which generates
/// it and scatters it across 8 reducers.
fn bench_ml_kernels(c: &mut Criterion) {
    let spec = DatasetSpec::new(10_000, 8, 2026);
    let job = reshuffle_job(spec, 8, 8);
    let mut g = c.benchmark_group("ml");
    g.throughput(Throughput::Bytes(
        (spec.samples_per_partition() * SAMPLE_BYTES) as u64,
    ));
    g.bench_function("gen_block_1250", |b| b.iter(|| gen_block(&spec, 3)));
    g.bench_function("reshuffle_map_1250_into_8", |b| {
        b.iter(|| (job.map)(3, 8, &mut SplitMix64::new(1)))
    });
    g.finish();
}

/// One reduce of a 4 GB multitenant aggregation job: the column of 16
/// maps' blocks (1,000 entries each, 8 reducers) folded into one state.
fn bench_agg_kernels(c: &mut Criterion) {
    let job = pageview_job(PageviewSpec {
        data_bytes: 4_000_000_000,
        num_maps: 16,
        num_reduces: 8,
        entries_per_map: 1_000,
        pages: 20_000,
        seed: 2026,
    });
    let column: Vec<Payload> = (0..job.num_maps)
        .map(|m| (job.map)(m, job.num_reduces, &mut SplitMix64::new(0)).swap_remove(0))
        .collect();
    let mut g = c.benchmark_group("agg");
    g.throughput(Throughput::Bytes(
        column.iter().map(|p| p.data.len() as u64).sum(),
    ));
    g.bench_function("fold_state", |b| b.iter(|| fold_state(None, &column)));
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
    let blocks: Vec<Payload> = (0..64)
        .map(|i| Payload::inline(vec![i as u8; 4096]))
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
    bench_ml_kernels,
    bench_agg_kernels,
    bench_partitioner,
    bench_gen_records,
    bench_framing,
    bench_event_queue,
    bench_store_spill_path,
    bench_end_to_end_variants
}
criterion_main!(benches);
