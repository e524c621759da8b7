//! Sort kernels: block sort, map-side sort-and-cut, and k-way merge of
//! sorted blocks.
//!
//! All three are one mechanism: the records are laid out once in the
//! buffer they leave in, and that buffer is sorted in place. Each record
//! contributes one fixed-size sort key — its key's 8-byte prefix and
//! 2-byte suffix, plus its position — to a single array. The keys are
//! counting-sorted into buckets by a monotone function of the prefix, in
//! input order, and each bucket is then sorted on its own, so the array
//! ends up fully sorted while no sort call sees more than one bucket.
//! [`sort_and_cut`] buckets by the range partitioner, so its buckets are
//! its partitions; [`sort_records`] and [`kway_merge`] split the span of
//! their prefixes into equal-width buckets of a few keys each. The
//! buffer is then permuted into key order along the permutation's
//! cycles, each record moved once. The position breaks ties, so every
//! kernel orders equal keys by input position: each is a stable sort by
//! key.

use crate::partition::RangePartitioner;
use crate::record::{KEY_SIZE, RECORD_SIZE};

/// `(key prefix, key suffix, position)`: the key's first 8 and last 2
/// bytes read big endian, so tuple order is key order, then input order.
type SortKey = (u64, u16, u32);

/// The keys of a buffer's records, tagged with their positions, read
/// from the buffer on each pass.
fn position_keys(records: &[u8]) -> impl Iterator<Item = SortKey> + Clone + '_ {
    assert_eq!(records.len() % RECORD_SIZE, 0, "whole records only");
    assert!(
        records.len() / RECORD_SIZE <= u32::MAX as usize,
        "fewer than 2^32 records per kernel call"
    );
    records
        .chunks_exact(RECORD_SIZE)
        .zip(0u32..)
        .map(|(rec, pos)| {
            let prefix = u64::from_be_bytes(rec[..8].try_into().expect("8-byte prefix"));
            let suffix = u16::from_be_bytes(rec[8..KEY_SIZE].try_into().expect("2-byte suffix"));
            (prefix, suffix, pos)
        })
}

/// Counting-sort `keys` into `buckets` buckets by `bucket_of(prefix)`,
/// which must be monotone and below `buckets`, then sort each bucket.
/// Returns the keys in sorted order and `buckets + 1` starts: bucket `b`
/// holds `sorted[starts[b]..starts[b + 1]]`.
fn bucket_sort(
    keys: impl Iterator<Item = SortKey> + Clone,
    buckets: usize,
    bucket_of: impl Fn(u64) -> usize,
) -> (Vec<SortKey>, Vec<usize>) {
    let mut starts = vec![0usize; buckets + 1];
    for (prefix, _, _) in keys.clone() {
        starts[bucket_of(prefix) + 1] += 1;
    }
    for b in 1..=buckets {
        starts[b] += starts[b - 1];
    }
    let mut sorted = vec![(0, 0, 0); starts[buckets]];
    for key in keys {
        let next = &mut starts[bucket_of(key.0)];
        sorted[*next] = key;
        *next += 1;
    }
    // Each bucket's cursor now sits where the next bucket starts.
    starts.copy_within(..buckets, 1);
    starts[0] = 0;
    for w in starts.windows(2) {
        if w[1] - w[0] > 1 {
            sorted[w[0]..w[1]].sort_unstable();
        }
    }
    (sorted, starts)
}

/// Keys per bucket that [`range_sort`] aims for.
const KEYS_PER_BUCKET: usize = 4;

/// Sort `keys` through equal-width buckets over the span of their
/// prefixes: a power of two of them, about one per `KEYS_PER_BUCKET`
/// keys.
fn range_sort(keys: impl Iterator<Item = SortKey> + Clone) -> Vec<SortKey> {
    let (n, lo, hi) = keys.clone().fold((0, u64::MAX, 0), |(n, lo, hi), k| {
        (n + 1, lo.min(k.0), hi.max(k.0))
    });
    let lo = lo.min(hi);
    let bits = (n / KEYS_PER_BUCKET).max(1).ilog2();
    let span_bits = u64::BITS - (hi - lo).leading_zeros();
    let shift = span_bits.saturating_sub(bits).min(u64::BITS - 1);
    let buckets = ((hi - lo) >> shift) as usize + 1;
    bucket_sort(keys, buckets, |prefix| ((prefix - lo) >> shift) as usize).0
}

/// Reorder `records` in place into the order of `sorted`: slot `k`
/// takes the record at position `sorted[k].2`. Each cycle of the
/// permutation is followed once, moving every record once through a
/// one-record buffer; the positions are overwritten to mark slots done.
fn permute(records: &mut [u8], sorted: &mut [SortKey]) {
    let mut held = [0u8; RECORD_SIZE];
    for start in 0..sorted.len() {
        if sorted[start].2 as usize == start {
            continue;
        }
        held.copy_from_slice(&records[start * RECORD_SIZE..(start + 1) * RECORD_SIZE]);
        let mut k = start;
        loop {
            let from = sorted[k].2 as usize;
            sorted[k].2 = k as u32;
            let slot = k * RECORD_SIZE..(k + 1) * RECORD_SIZE;
            if from == start {
                records[slot].copy_from_slice(&held);
                break;
            }
            records.copy_within(from * RECORD_SIZE..(from + 1) * RECORD_SIZE, slot.start);
            k = from;
        }
    }
}

/// Sort a buffer of records by their 10-byte keys, in place; equal keys
/// keep their input order.
pub fn sort_records(records: &mut [u8]) {
    let mut sorted = range_sort(position_keys(records));
    permute(records, &mut sorted);
}

/// Sort a map's records once and cut the sorted run at the range
/// partitioner's boundaries. Returns the run, one exact-capacity buffer
/// equal to [`sort_records`] of `records`, and `partitions + 1` byte
/// offsets into it: partition `p`'s records are `run[cuts[p]..cuts[p + 1]]`
/// (empty when the two are equal), a stable sort by key of exactly the
/// records [`RangePartitioner::partition_of`] sends to `p`.
pub fn sort_and_cut(records: &[u8], partitioner: &RangePartitioner) -> (Vec<u8>, Vec<usize>) {
    // The partitioner is monotone in the prefix, so its partitions are
    // the buckets, and the bucket starts are the cuts.
    let (sorted, mut cuts) =
        bucket_sort(position_keys(records), partitioner.partitions(), |prefix| {
            partitioner.partition_of_prefix(prefix)
        });
    for c in &mut cuts {
        *c *= RECORD_SIZE;
    }
    let mut run = Vec::with_capacity(records.len());
    for (_, _, pos) in sorted {
        let at = pos as usize * RECORD_SIZE;
        run.extend_from_slice(&records[at..at + RECORD_SIZE]);
    }
    (run, cuts)
}

/// Merge record buffers into one sorted, exact-capacity buffer: the
/// blocks are copied once, back to back, and the copy is sorted in
/// place. Equal keys come out in `(block, offset)` order, the order of
/// their positions in the copy.
pub fn kway_merge(blocks: &[&[u8]]) -> Vec<u8> {
    let mut run = blocks.concat();
    sort_records(&mut run);
    run
}

/// True if a record buffer is sorted by key.
pub fn is_sorted(records: &[u8]) -> bool {
    let recs = records.chunks_exact(RECORD_SIZE);
    recs.clone()
        .zip(recs.skip(1))
        .all(|(a, b)| a[..KEY_SIZE] <= b[..KEY_SIZE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{checksum, gen_records};

    #[test]
    fn sort_orders_and_preserves_records() {
        let mut r = gen_records(11, 0, 500);
        let before = checksum(&r);
        sort_records(&mut r);
        assert!(is_sorted(&r));
        assert_eq!(checksum(&r), before, "sorting must not lose records");
    }

    #[test]
    fn kway_merge_equals_full_sort() {
        let mut a = gen_records(1, 0, 100);
        let mut b = gen_records(1, 1, 150);
        let mut c = gen_records(1, 2, 50);
        sort_records(&mut a);
        sort_records(&mut b);
        sort_records(&mut c);
        let merged = kway_merge(&[&a, &b, &c]);
        assert!(is_sorted(&merged));
        assert_eq!(merged.len(), (100 + 150 + 50) * RECORD_SIZE);
        let mut reference = [a, b, c].concat();
        sort_records(&mut reference);
        assert_eq!(merged, reference);
    }

    #[test]
    fn merge_handles_empty_blocks() {
        let mut a = gen_records(2, 0, 10);
        sort_records(&mut a);
        let merged = kway_merge(&[&a, &[], &[]]);
        assert_eq!(merged, a);
        assert!(kway_merge(&[]).is_empty());
    }

    #[test]
    fn equal_keys_keep_input_order() {
        // Three records with one key, told apart by their bodies.
        let mut recs = vec![0u8; 3 * RECORD_SIZE];
        for (i, rec) in recs.chunks_exact_mut(RECORD_SIZE).enumerate() {
            rec[..KEY_SIZE].fill(7);
            rec[KEY_SIZE] = i as u8;
        }
        let mut sorted = recs.clone();
        sort_records(&mut sorted);
        assert_eq!(sorted, recs);
        let (a, b) = recs.split_at(RECORD_SIZE);
        assert_eq!(kway_merge(&[b, a]), [b, a].concat());
    }

    #[test]
    fn is_sorted_compares_adjacent_keys_only() {
        let mut r = gen_records(3, 0, 50);
        assert!(is_sorted(&[]));
        assert!(is_sorted(&r[..RECORD_SIZE]));
        sort_records(&mut r);
        assert!(is_sorted(&r));
        // Bodies out of order do not matter; keys out of order do.
        r[RECORD_SIZE - 1] = 0xFF;
        assert!(is_sorted(&r));
        for j in 0..RECORD_SIZE {
            r.swap(j, RECORD_SIZE + j);
        }
        assert!(!is_sorted(&r));
    }

    #[test]
    fn run_is_exact_and_cuts_partition_it() {
        let part = RangePartitioner::new(64);
        let recs = gen_records(5, 1, 300);
        let (run, cuts) = sort_and_cut(&recs, &part);
        assert_eq!(run.capacity(), run.len(), "run over-allocated");
        let mut reference = recs.clone();
        sort_records(&mut reference);
        assert_eq!(run, reference);
        assert_eq!(cuts.len(), 65);
        assert_eq!((cuts[0], cuts[64]), (0, recs.len()));
        for (p, c) in cuts.windows(2).enumerate() {
            assert!(c[0] <= c[1] && c[0] % RECORD_SIZE == 0, "cut {p}: {c:?}");
            assert!(run[c[0]..c[1]]
                .chunks_exact(RECORD_SIZE)
                .all(|rec| part.partition_of(&rec[..KEY_SIZE]) == p));
        }
    }
}
