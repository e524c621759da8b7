//! Sort kernels: block sort, map-side sort-and-cut, and k-way merge of
//! sorted blocks.
//!
//! All three are one mechanism. Each record contributes one fixed-size
//! sort key — its key's 8-byte prefix and 2-byte suffix, plus its
//! position — to a single array that is sorted once; the output is then
//! gathered from the sorted array in one pass, copying every record
//! exactly once into an exact-capacity buffer. The position breaks ties,
//! so every kernel orders equal keys by input position: each is a stable
//! sort by key.

use crate::partition::RangePartitioner;
use crate::record::{KEY_SIZE, RECORD_SIZE};

/// `(key prefix, key suffix, record position)`: the key's first 8 and
/// last 2 bytes read big endian, so tuple order is key order, then input
/// order.
type SortKey = (u64, u16, u32);

/// Sort keys of `records` (each `RECORD_SIZE` bytes), in sorted order.
fn sorted_keys<'a>(records: impl Iterator<Item = &'a [u8]>) -> Vec<SortKey> {
    let mut keys: Vec<SortKey> = records
        .enumerate()
        .map(|(i, rec)| {
            let prefix = u64::from_be_bytes(rec[..8].try_into().expect("8-byte prefix"));
            let suffix = u16::from_be_bytes(rec[8..KEY_SIZE].try_into().expect("2-byte suffix"));
            let pos = u32::try_from(i).expect("fewer than 2^32 records per kernel call");
            (prefix, suffix, pos)
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Copy the records named by `keys`, in order, into one exact-capacity
/// buffer; `record(i)` returns the record at position `i`.
fn gather<'a>(keys: &[SortKey], record: impl Fn(usize) -> &'a [u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(keys.len() * RECORD_SIZE);
    for &(_, _, pos) in keys {
        out.extend_from_slice(record(pos as usize));
    }
    out
}

fn record_at(records: &[u8], i: usize) -> &[u8] {
    &records[i * RECORD_SIZE..(i + 1) * RECORD_SIZE]
}

/// Sort a buffer of records by their 10-byte keys; equal keys keep their
/// input order.
// audit:allow(U01): the reference stable sort that the sort_and_cut,
// kway_merge and validation oracles compare against.
pub fn sort_records(records: &mut Vec<u8>) {
    assert_eq!(records.len() % RECORD_SIZE, 0, "whole records only");
    let keys = sorted_keys(records.chunks_exact(RECORD_SIZE));
    *records = gather(&keys, |i| record_at(records, i));
}

/// Sort a map's records once and cut the sorted run at the range
/// partitioner's boundaries. Returns the run, one exact-capacity buffer
/// equal to [`sort_records`] of `records`, and `partitions + 1` byte
/// offsets into it: partition `p`'s records are `run[cuts[p]..cuts[p + 1]]`
/// (empty when the two are equal), a stable sort by key of exactly the
/// records [`RangePartitioner::partition_of`] sends to `p`.
pub fn sort_and_cut(records: &[u8], partitioner: &RangePartitioner) -> (Vec<u8>, Vec<usize>) {
    assert_eq!(records.len() % RECORD_SIZE, 0, "whole records only");
    let keys = sorted_keys(records.chunks_exact(RECORD_SIZE));
    // The partitioner is monotone in the prefix, so each partition is
    // one contiguous run of the sorted keys: partition `q` starts at the
    // first key it owns, and every partition skipped on the way to it
    // is empty and starts there too.
    let mut cuts = Vec::with_capacity(partitioner.partitions() + 1);
    cuts.push(0);
    for (i, &(prefix, _, _)) in keys.iter().enumerate() {
        let q = partitioner.partition_of_prefix(prefix);
        while cuts.len() <= q {
            cuts.push(i * RECORD_SIZE);
        }
    }
    cuts.resize(partitioner.partitions() + 1, records.len());
    (gather(&keys, |i| record_at(records, i)), cuts)
}

/// Merge already-sorted record buffers into one sorted buffer. Equal
/// keys come out in `(block, offset)` order.
pub fn kway_merge(blocks: &[&[u8]]) -> Vec<u8> {
    for b in blocks {
        assert_eq!(b.len() % RECORD_SIZE, 0, "whole records only");
    }
    // A key's position indexes the blocks' concatenation, so ordering by
    // position is ordering by (block, offset).
    let records: Vec<&[u8]> = blocks
        .iter()
        .flat_map(|b| b.chunks_exact(RECORD_SIZE))
        .collect();
    let keys = sorted_keys(records.iter().copied());
    gather(&keys, |i| records[i])
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
