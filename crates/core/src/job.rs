//! The workload description every shuffle variant consumes.

use std::sync::Arc;

use exo_rt::{CpuCost, Payload, TaskShape};
use exo_sim::SplitMix64;

/// Produce one map task's output: `R` partition blocks for map `m`.
///
/// The RNG is derived deterministically from the task id, so re-executions
/// during lineage reconstruction reproduce identical blocks.
pub type MapFn = Arc<dyn Fn(usize, usize, &mut SplitMix64) -> Vec<Payload> + Send + Sync>;

/// Combine several blocks *of the same partition* into one block (used by
/// the merge stages of ES-merge, ES-push and ES-push*). The blocks are
/// borrowed, so a merge hands over slices of its argument payloads or
/// frames without building a payload per block.
pub type CombineFn = Arc<dyn Fn(&[Block<'_>]) -> Payload + Send + Sync>;

/// One block a combine reads: its bytes, borrowed from the payload or
/// frame that holds them, and the logical size they stand for.
#[derive(Clone, Copy, Debug)]
pub struct Block<'a> {
    /// The block's real bytes.
    pub data: &'a [u8],
    /// Size used for all performance accounting.
    pub logical: u64,
}

impl<'a> From<&'a Payload> for Block<'a> {
    fn from(p: &'a Payload) -> Block<'a> {
        Block {
            data: &p.data,
            logical: p.logical,
        }
    }
}

/// Produce the final output of partition `r` from all of its blocks.
pub type ReduceFn = Arc<dyn Fn(usize, &[Payload]) -> Payload + Send + Sync>;

/// A shuffle workload: the map/combine/reduce functions plus the cost
/// model the simulation charges for them.
#[derive(Clone)]
pub struct ShuffleJob {
    /// Number of map tasks (input partitions), `M`.
    pub num_maps: usize,
    /// Number of reduce tasks (output partitions), `R`.
    pub num_reduces: usize,
    /// Map function.
    pub map: MapFn,
    /// Same-partition block combiner.
    pub combine: CombineFn,
    /// Final reducer.
    pub reduce: ReduceFn,
    /// Bytes of job input each map task reads from local disk.
    pub map_input_bytes: u64,
    /// Bytes of job output each reduce task writes to local disk
    /// (0 = in-memory job, e.g. when results feed a downstream consumer).
    pub reduce_output_bytes: u64,
    /// CPU model for map tasks.
    pub map_cpu: CpuCost,
    /// CPU model for merge tasks.
    pub merge_cpu: CpuCost,
    /// CPU model for reduce tasks.
    pub reduce_cpu: CpuCost,
}

impl ShuffleJob {
    /// A job with uniform cost models derived from a processing
    /// throughput in bytes/second (typical for sort-like workloads).
    pub fn new(
        num_maps: usize,
        num_reduces: usize,
        map: MapFn,
        combine: CombineFn,
        reduce: ReduceFn,
    ) -> ShuffleJob {
        const THROUGHPUT: f64 = 500.0 * 1e6; // 500 MB/s per core
        ShuffleJob {
            num_maps,
            num_reduces,
            map,
            combine,
            reduce,
            map_input_bytes: 0,
            reduce_output_bytes: 0,
            map_cpu: CpuCost::input_throughput(THROUGHPUT),
            merge_cpu: CpuCost::input_throughput(2.0 * THROUGHPUT),
            reduce_cpu: CpuCost::input_throughput(THROUGHPUT),
        }
    }

    /// Set the per-map input read and per-reduce output write charges.
    pub fn with_io(mut self, map_input_bytes: u64, reduce_output_bytes: u64) -> Self {
        self.map_input_bytes = map_input_bytes;
        self.reduce_output_bytes = reduce_output_bytes;
        self
    }

    /// Override the CPU cost models.
    pub fn with_cpu(mut self, map: CpuCost, merge: CpuCost, reduce: CpuCost) -> Self {
        self.map_cpu = map;
        self.merge_cpu = merge;
        self.reduce_cpu = reduce;
        self
    }

    /// Resource shape a map task declares: CPU from the map cost model, a
    /// sequential partition read from disk, and its outputs leaving over
    /// the network (map outputs are consumed on other nodes in
    /// expectation). Argument fetch bytes are accounted by the policy.
    pub fn map_shape(&self) -> TaskShape {
        TaskShape::from_cost(self.map_cpu, self.map_input_bytes)
            .with_disk(self.map_input_bytes)
            .with_net(self.map_input_bytes)
    }

    /// Resource shape of a merge task combining roughly one map's worth of
    /// blocks: pure CPU — its inputs are argument objects (policy-counted)
    /// and its output stays in the object store.
    pub fn merge_shape(&self) -> TaskShape {
        TaskShape::from_cost(self.merge_cpu, self.map_input_bytes)
    }

    /// Resource shape of a reduce task: CPU over its partition's share of
    /// the shuffled data plus the sequential output write.
    pub fn reduce_shape(&self) -> TaskShape {
        let reduce_in =
            self.num_maps as u64 * self.map_input_bytes / self.num_reduces.max(1) as u64;
        TaskShape::from_cost(self.reduce_cpu, reduce_in).with_disk(self.reduce_output_bytes)
    }
}

impl std::fmt::Debug for ShuffleJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShuffleJob")
            .field("num_maps", &self.num_maps)
            .field("num_reduces", &self.num_reduces)
            .field("map_input_bytes", &self.map_input_bytes)
            .field("reduce_output_bytes", &self.reduce_output_bytes)
            .finish()
    }
}

/// Test/demo workload: each map emits `(key, count)` pairs as little-endian
/// u64 pairs routed by `key % R`; combine concatenates; reduce sums counts
/// per key and returns the total count encoded as 8 bytes. Used across the
/// crate's tests to verify that every variant computes the same result.
pub fn key_sum_job(num_maps: usize, num_reduces: usize, keys_per_map: usize) -> ShuffleJob {
    let map: MapFn = Arc::new(move |m, r_total, _rng| {
        let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); r_total];
        for k in 0..keys_per_map {
            let key = (m * keys_per_map + k) as u64;
            let count = 1u64;
            let block = &mut blocks[(key % r_total as u64) as usize];
            block.extend_from_slice(&key.to_le_bytes());
            block.extend_from_slice(&count.to_le_bytes());
        }
        blocks.into_iter().map(Payload::inline).collect()
    });
    let combine: CombineFn = Arc::new(|blocks| {
        let mut out = Vec::new();
        for b in blocks {
            out.extend_from_slice(b.data);
        }
        Payload::inline(out)
    });
    let reduce: ReduceFn = Arc::new(|_r, blocks| {
        let mut total = 0u64;
        for b in blocks {
            for chunk in b.data.chunks_exact(16) {
                total += u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
            }
        }
        Payload::inline(total.to_le_bytes().to_vec())
    });
    ShuffleJob::new(num_maps, num_reduces, map, combine, reduce)
}

/// Sum the `key_sum_job` reduce outputs back into one number.
pub fn key_sum_total(outputs: &[Payload]) -> u64 {
    outputs
        .iter()
        .map(|p| u64::from_le_bytes(p.data[..8].try_into().expect("8 bytes")))
        .sum()
}
