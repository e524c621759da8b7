//! Gensort-style records: 100 bytes, the first 10 of which are the sort
//! key. Generation is deterministic in `(seed, map_index, record_index)` so
//! lineage re-execution reproduces identical data and validation can
//! recompute input checksums without storing the input.

use exo_sim::SplitMix64;

/// Bytes per record (Sort Benchmark convention).
pub const RECORD_SIZE: usize = 100;

/// Bytes of key at the front of each record.
pub const KEY_SIZE: usize = 10;

/// Deterministically generate `n` records for map partition `m`.
///
/// Keys are uniform random 10-byte strings (gensort's default
/// distribution); bodies carry the generator stream so records are
/// distinguishable and checksums meaningful.
pub fn gen_records(seed: u64, m: usize, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (m as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut out = vec![0u8; n * RECORD_SIZE];
    for i in 0..n {
        let rec = &mut out[i * RECORD_SIZE..(i + 1) * RECORD_SIZE];
        // Key: 10 random bytes.
        let a = rng.next_u64().to_le_bytes();
        let b = rng.next_u64().to_le_bytes();
        rec[..8].copy_from_slice(&a);
        rec[8..10].copy_from_slice(&b[..2]);
        // Body: a tag identifying (m, i) plus filler derived from the key.
        rec[10..18].copy_from_slice(&(m as u64).to_le_bytes());
        rec[18..26].copy_from_slice(&(i as u64).to_le_bytes());
        for (j, byte) in rec[26..].iter_mut().enumerate() {
            *byte = a[j % 8] ^ (j as u8);
        }
    }
    out
}

/// Order-insensitive checksum of a record buffer (for loss detection):
/// sum of per-record FNV-1a hashes, wrapping.
pub fn checksum(records: &[u8]) -> u64 {
    assert_eq!(records.len() % RECORD_SIZE, 0, "whole records only");
    let mut total = 0u64;
    for rec in records.chunks_exact(RECORD_SIZE) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in rec {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        total = total.wrapping_add(h);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_records(7, 3, 50), gen_records(7, 3, 50));
        assert_ne!(gen_records(7, 3, 50), gen_records(7, 4, 50));
        assert_ne!(gen_records(7, 3, 50), gen_records(8, 3, 50));
    }

    #[test]
    fn record_layout_is_100_bytes() {
        let r = gen_records(1, 0, 10);
        assert_eq!(r.len(), 1000);
    }

    #[test]
    fn keys_are_spread_out() {
        // With 1000 uniform 10-byte keys, the first byte should hit many
        // distinct values.
        let r = gen_records(42, 0, 1000);
        let mut seen = std::collections::HashSet::new();
        for rec in r.chunks_exact(RECORD_SIZE) {
            seen.insert(rec[0]);
        }
        assert!(seen.len() > 200, "only {} distinct first bytes", seen.len());
    }

    #[test]
    fn checksum_is_order_insensitive() {
        let r = gen_records(5, 1, 20);
        let mut swapped = r.clone();
        // Swap records 0 and 7.
        let (a, b) = (0, 7);
        for j in 0..RECORD_SIZE {
            swapped.swap(a * RECORD_SIZE + j, b * RECORD_SIZE + j);
        }
        assert_eq!(checksum(&r), checksum(&swapped));
        // But content changes alter it.
        let mut corrupted = r.clone();
        corrupted[55] ^= 0xFF;
        assert_ne!(checksum(&r), checksum(&corrupted));
    }
}
