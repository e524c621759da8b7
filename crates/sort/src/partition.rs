//! Range partitioning over 10-byte keys.
//!
//! Gensort keys are uniform, so splitting the key space into `R` equal
//! ranges balances partitions without sampling (TeraSort's trie-based
//! partitioner converges to the same split for uniform data).

use crate::record::KEY_SIZE;

/// Maps 10-byte keys to one of `r` contiguous key ranges.
#[derive(Clone, Copy, Debug)]
pub struct RangePartitioner {
    partitions: u64,
}

impl RangePartitioner {
    /// Partitioner over `partitions` output ranges.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        RangePartitioner {
            partitions: partitions as u64,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions as usize
    }

    /// Partition index for a key (first 8 bytes are enough to split a
    /// uniform 10-byte key space billions of ways).
    // audit:allow(U01): the reference partitioning that the sort_and_cut,
    // validation and proptest partitioner oracles compare against.
    pub fn partition_of(&self, key: &[u8]) -> usize {
        debug_assert!(key.len() >= KEY_SIZE);
        self.partition_of_prefix(u64::from_be_bytes(
            key[..8].try_into().expect("8-byte prefix"),
        ))
    }

    /// Partition index for a key's big-endian 8-byte prefix. Monotone:
    /// a larger prefix never maps to a smaller partition, so a run of keys
    /// sorted by prefix splits into contiguous per-partition runs.
    pub fn partition_of_prefix(&self, prefix: u64) -> usize {
        ((prefix as u128 * self.partitions as u128) >> 64) as usize
    }

    /// The smallest key prefix belonging to partition `p` (for boundary
    /// checks in validation).
    // audit:allow(U01): lower_bounds_start_their_partitions checks the
    // cut points of partition_of_prefix against it.
    pub fn lower_bound(&self, p: usize) -> u64 {
        ((p as u128) << 64).div_ceil(self.partitions as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{gen_records, RECORD_SIZE};

    #[test]
    fn covers_all_partitions_and_respects_order() {
        let p = RangePartitioner::new(8);
        assert_eq!(p.partition_of(&[0u8; 10]), 0);
        assert_eq!(p.partition_of(&[0xFFu8; 10]), 7);
        // Monotone: larger keys never land in smaller partitions.
        let lo = p.partition_of(&[0x20, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let hi = p.partition_of(&[0xE0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(lo <= hi);
    }

    #[test]
    fn uniform_keys_balance_partitions() {
        let p = RangePartitioner::new(4);
        let recs = gen_records(9, 0, 4000);
        let mut counts = [0usize; 4];
        for rec in recs.chunks_exact(RECORD_SIZE) {
            counts[p.partition_of(rec)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn lower_bounds_start_their_partitions() {
        let p = RangePartitioner::new(1600);
        for i in 1..1600 {
            let lb = p.lower_bound(i);
            assert_eq!(p.partition_of_prefix(lb), i);
            assert_eq!(p.partition_of_prefix(lb - 1), i - 1);
        }
        assert_eq!(p.partition_of_prefix(u64::MAX), 1599);
    }

    #[test]
    fn lower_bounds_are_monotone() {
        let p = RangePartitioner::new(7);
        let bounds: Vec<u64> = (0..7).map(|i| p.lower_bound(i)).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds[0], 0);
    }
}
