//! Building a sort as an Exoshuffle job.

use std::sync::Arc;

use bytes::Bytes;
use exo_rt::{CpuCost, Payload};
use exo_shuffle::{CombineFn, MapFn, ReduceFn, ShuffleJob};

use crate::kernel::{kway_merge, sort_and_cut};
use crate::partition::RangePartitioner;
use crate::record::{gen_records, RECORD_SIZE};

/// Description of a sort benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct SortSpec {
    /// Logical dataset size in bytes (what the performance model sees).
    pub data_bytes: u64,
    /// Number of input partitions / map tasks (`M`).
    pub num_maps: usize,
    /// Number of output partitions / reduce tasks (`R`).
    pub num_reduces: usize,
    /// Scale factor: one real record stands for `scale` logical records.
    /// 1 = fully real data; 1000 = a 1 TB logical run carries ~1 GB of
    /// real records through the system.
    pub scale: u64,
    /// Seed for deterministic data generation.
    pub seed: u64,
}

impl SortSpec {
    /// Logical bytes per map partition.
    pub fn partition_bytes(&self) -> u64 {
        self.data_bytes / self.num_maps as u64
    }

    /// Real records generated per map task.
    pub fn real_records_per_map(&self) -> usize {
        let logical_records = self.partition_bytes() / RECORD_SIZE as u64;
        (logical_records / self.scale).max(1) as usize
    }

    /// Total real records across the run.
    pub fn total_real_records(&self) -> usize {
        self.real_records_per_map() * self.num_maps
    }
}

/// Build the sort as a [`ShuffleJob`] runnable under any variant.
///
/// - **map**: generates its partition's records (the simulation charges a
///   sequential disk read of the partition), sorts them once into one
///   run and returns one zero-copy view of the run per range partition.
///   The views share the run's single allocation, so it is freed when the
///   last of them is released.
/// - **combine**: k-way merge of sorted same-partition blocks.
/// - **reduce**: final k-way merge (the simulation charges the output
///   write).
pub fn sort_job(spec: SortSpec) -> ShuffleJob {
    let partitioner = RangePartitioner::new(spec.num_reduces);
    let per_map_logical = spec.partition_bytes();
    let n_real = spec.real_records_per_map();
    let scale = spec.scale;
    let seed = spec.seed;

    let map: MapFn = Arc::new(move |m, r_total, _rng| {
        debug_assert_eq!(r_total, partitioner.partitions());
        let (run, cuts) = sort_and_cut(&gen_records(seed, m, n_real), &partitioner);
        let run = Bytes::from(run);
        cuts.windows(2)
            .map(|c| Payload::scaled(run.slice(c[0]..c[1]), (c[1] - c[0]) as u64 * scale))
            .collect()
    });

    let combine: CombineFn = Arc::new(|blocks| {
        let views: Vec<&[u8]> = blocks.iter().map(|b| b.data).collect();
        let merged = kway_merge(&views);
        let logical = blocks.iter().map(|b| b.logical).sum();
        Payload::scaled(merged, logical)
    });

    let reduce: ReduceFn = Arc::new(|_r, blocks| {
        let views: Vec<&[u8]> = blocks.iter().map(|p| &p.data[..]).collect();
        let merged = kway_merge(&views);
        let logical = blocks.iter().map(|p| p.logical).sum();
        Payload::scaled(merged, logical)
    });

    // CPU model: sorting runs ~300 MB/s/core, merging ~600 MB/s/core —
    // fast enough that disk I/O dominates on the paper's hardware, as its
    // theoretical baseline assumes (§5.1.1).
    ShuffleJob::new(spec.num_maps, spec.num_reduces, map, combine, reduce)
        .with_io(per_map_logical, spec.data_bytes / spec.num_reduces as u64)
        .with_cpu(
            CpuCost::input_throughput(300.0 * 1e6),
            CpuCost::input_throughput(600.0 * 1e6),
            CpuCost::input_throughput(600.0 * 1e6),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_arithmetic() {
        let s = SortSpec {
            data_bytes: 1_000_000,
            num_maps: 10,
            num_reduces: 4,
            scale: 10,
            seed: 0,
        };
        assert_eq!(s.partition_bytes(), 100_000);
        assert_eq!(s.real_records_per_map(), 100);
        assert_eq!(s.total_real_records(), 1000);
    }

    #[test]
    fn map_blocks_carry_scaled_logical_sizes() {
        let s = SortSpec {
            data_bytes: 400_000,
            num_maps: 4,
            num_reduces: 2,
            scale: 5,
            seed: 3,
        };
        let job = sort_job(s);
        let mut rng = exo_sim::SplitMix64::new(0);
        let blocks = (job.map)(0, 2, &mut rng);
        assert_eq!(blocks.len(), 2);
        let real: u64 = blocks.iter().map(|b| b.data.len() as u64).sum();
        let logical: u64 = blocks.iter().map(|b| b.logical).sum();
        assert_eq!(real, s.real_records_per_map() as u64 * RECORD_SIZE as u64);
        assert_eq!(logical, real * 5);
    }

    /// A map's blocks are views of one allocation: each block's bytes
    /// start where the previous block's end.
    #[test]
    fn map_blocks_are_views_of_one_run() {
        let s = SortSpec {
            data_bytes: 3 * 833 * RECORD_SIZE as u64,
            num_maps: 3,
            num_reduces: 600,
            scale: 1,
            seed: 2026,
        };
        let job = sort_job(s);
        let mut rng = exo_sim::SplitMix64::new(0);
        let blocks = (job.map)(1, 600, &mut rng);
        assert_eq!(blocks.len(), 600);
        assert!(blocks.iter().filter(|b| b.data.is_empty()).count() > 0);
        for (p, w) in blocks.windows(2).enumerate() {
            let end = w[0].data.as_ptr() as usize + w[0].data.len();
            assert_eq!(
                end,
                w[1].data.as_ptr() as usize,
                "blocks {p} and {} apart",
                p + 1
            );
        }
        let first = blocks[0].data.as_ptr() as usize;
        let last = blocks[599].data.as_ptr() as usize + blocks[599].data.len();
        assert_eq!(last - first, 833 * RECORD_SIZE);
    }

    /// The map's blocks equal the scatter-then-sort reference: records
    /// scattered by `partition_of` in input order, each block then
    /// stable-sorted by key.
    #[test]
    fn map_blocks_equal_scatter_then_stable_sort() {
        // (records per map, partitions): spill_pushstar, xl_simple and
        // ft_simple geometry.
        for (n, r) in [(2_500usize, 1_600usize), (833, 600), (1_250, 400)] {
            for seed in [2026, 7] {
                let spec = SortSpec {
                    data_bytes: (n * RECORD_SIZE * 3) as u64,
                    num_maps: 3,
                    num_reduces: r,
                    scale: 1,
                    seed,
                };
                assert_eq!(spec.real_records_per_map(), n);
                let job = sort_job(spec);
                let part = RangePartitioner::new(r);
                for m in 0..spec.num_maps {
                    let recs = gen_records(seed, m, n);
                    let mut reference: Vec<Vec<&[u8]>> = vec![Vec::new(); r];
                    for rec in recs.chunks_exact(RECORD_SIZE) {
                        reference[part.partition_of(&rec[..10])].push(rec);
                    }
                    let mut rng = exo_sim::SplitMix64::new(0);
                    let blocks = (job.map)(m, r, &mut rng);
                    assert_eq!(blocks.len(), r);
                    for (p, (block, mut want)) in blocks.iter().zip(reference).enumerate() {
                        want.sort_by(|a, b| a[..10].cmp(&b[..10]));
                        assert_eq!(
                            block.data[..],
                            want.concat()[..],
                            "seed {seed}, {n} records → {r} partitions: map {m} block {p}"
                        );
                    }
                }
            }
        }
    }
}
