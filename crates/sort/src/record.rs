//! Gensort-style records: 100 bytes, the first 10 of which are the sort
//! key. Generation is deterministic in `(seed, map_index, record_index)` so
//! lineage re-execution reproduces identical data and validation can
//! recompute input checksums without storing the input.
//!
//! Neither end of the data path works a byte at a time: [`gen_records`]
//! writes a record's 74-byte body as nine `u64` words and a two-byte
//! tail, and [`checksum`] hashes eight records in lockstep, so the
//! multiply chains of independent records overlap instead of running one
//! after another.

use exo_sim::SplitMix64;

/// Bytes per record (Sort Benchmark convention).
pub const RECORD_SIZE: usize = 100;

/// Bytes of key at the front of each record.
pub const KEY_SIZE: usize = 10;

/// Offset of the filler body, after the key and the `(m, i)` tag.
const BODY: usize = 26;

/// `FILL[k]` holds the little-endian bytes `8k, 8k + 1, …, 8k + 7`: body
/// byte `j` is `key[j % 8] ^ j`, so body word `k` is the key's first
/// eight bytes XOR `FILL[k]`.
const FILL: [u64; 10] = {
    let mut fill = [0u64; 10];
    let mut j = 0;
    while j < 80 {
        fill[j / 8] |= (j as u64) << (8 * (j % 8));
        j += 1;
    }
    fill
};

/// Deterministically generate `n` records for map partition `m`.
///
/// Keys are uniform random 10-byte strings (gensort's default
/// distribution); bodies carry the generator stream so records are
/// distinguishable and checksums meaningful. Each record is assembled
/// in a stack buffer and appended once to an exact-capacity vector.
pub fn gen_records(seed: u64, m: usize, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (m as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut out = Vec::with_capacity(n * RECORD_SIZE);
    let mut rec = [0u8; RECORD_SIZE];
    // Body: a tag identifying (m, i) plus filler derived from the key.
    rec[10..18].copy_from_slice(&(m as u64).to_le_bytes());
    for i in 0..n {
        // Key: 10 random bytes.
        let a = rng.next_u64();
        let b = rng.next_u64();
        rec[..8].copy_from_slice(&a.to_le_bytes());
        rec[8..KEY_SIZE].copy_from_slice(&b.to_le_bytes()[..2]);
        rec[18..BODY].copy_from_slice(&(i as u64).to_le_bytes());
        let (words, tail) = rec[BODY..].split_at_mut(72);
        for (w, fill) in words.chunks_exact_mut(8).zip(FILL) {
            w.copy_from_slice(&(a ^ fill).to_le_bytes());
        }
        tail.copy_from_slice(&(a ^ FILL[9]).to_le_bytes()[..2]);
        out.extend_from_slice(&rec);
    }
    out
}

/// Records [`checksum`] hashes side by side.
const LANES: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a hash of one record.
fn fnv1a(rec: &[u8]) -> u64 {
    rec.iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Order-insensitive checksum of a record buffer (for loss detection):
/// sum of per-record FNV-1a hashes, wrapping. Groups of eight
/// records are hashed byte position by byte position, one independent
/// FNV-1a state per record, which gives each record exactly its own
/// hash; the records past the last whole group are hashed one by one.
pub fn checksum(records: &[u8]) -> u64 {
    assert_eq!(records.len() % RECORD_SIZE, 0, "whole records only");
    let groups = records.chunks_exact(LANES * RECORD_SIZE);
    let rest = groups.remainder();
    let mut total = 0u64;
    for group in groups {
        let group: &[u8; LANES * RECORD_SIZE] = group.try_into().expect("whole group");
        let mut h = [FNV_OFFSET; LANES];
        for j in 0..RECORD_SIZE {
            for (l, h) in h.iter_mut().enumerate() {
                *h = (*h ^ group[l * RECORD_SIZE + j] as u64).wrapping_mul(FNV_PRIME);
            }
        }
        total = h.iter().fold(total, |t, &h| t.wrapping_add(h));
    }
    rest.chunks_exact(RECORD_SIZE)
        .fold(total, |t, rec| t.wrapping_add(fnv1a(rec)))
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
