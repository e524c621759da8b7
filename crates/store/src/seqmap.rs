//! `SeqMap` — an open-addressed slot table keyed by packed object ids.
//!
//! The store's slot table was a `HashMap<ObjId, Slot>`: every lookup
//! paid a SipHash-1-3 pass over the key plus a cold probe. Object ids
//! are already well-packed integers (`job << 40 | seq`), so a single
//! Fibonacci multiply spreads them perfectly; linear probing on a
//! power-of-two table then makes the common hit a one-cacheline read.
//!
//! Deletion uses tombstones; the table rehashes (dropping tombstones)
//! when live + tombstones exceed ~70% of capacity. A dense seq-indexed
//! arena was rejected here on memory grounds: a node's resident set is
//! *sparse* in seq space (reducers pin ~`p` object seqs scattered at
//! stride `p` across the whole job), so per-node dense/paged tables
//! would blow up to a page per live slot. Open addressing keeps memory
//! proportional to residency while still skipping SipHash.
//!
//! Iteration order is insertion-history dependent but fully
//! deterministic (no ambient randomness); the store only iterates for
//! order-free folds (`debug_state`, `any_spillable`).

/// Slot states. Keys are caller-provided packed ids; two high sentinel
/// values are reserved (a real id would need job `0xFF_FFFF`, far above
/// the runtime's dense job counter).
const EMPTY: u64 = u64::MAX;
const TOMB: u64 = u64::MAX - 1;

#[derive(Debug, Clone)]
struct Cell<V> {
    key: u64,
    val: Option<V>,
}

#[derive(Debug, Clone)]
pub struct SeqMap<V> {
    cells: Vec<Cell<V>>,
    live: usize,
    tombs: usize,
}

impl<V> Default for SeqMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SeqMap<V> {
    pub fn new() -> Self {
        SeqMap {
            cells: Vec::new(),
            live: 0,
            tombs: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocated cells (live, tombstoned and empty). The table never
    /// shrinks, so this is its peak.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Bytes of the cell array.
    pub fn cell_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Cell<V>>()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        debug_assert!(self.cells.len().is_power_of_two());
        let shift = 64 - self.cells.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Index of `key`'s live cell, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.cells[i].key;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| {
            // audit:allow(P01): `find` only returns indices of cells
            // whose key is neither EMPTY nor TOMB, and every such cell
            // holds Some — remove() tombstones the key when it takes
            // the value.
            self.cells[i]
                .val
                .as_ref()
                .expect("live seqmap cell holds a value")
        })
    }

    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| {
            // audit:allow(P01): see `get` — live keys always hold Some.
            self.cells[i]
                .val
                .as_mut()
                .expect("live seqmap cell holds a value")
        })
    }

    /// Inserts `key → value`, replacing and returning any previous value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        assert!(key < TOMB, "seqmap keys must leave sentinel headroom");
        self.reserve_one();
        let mask = self.cells.len() - 1;
        let mut i = self.slot_of(key);
        let mut first_tomb = None;
        loop {
            match self.cells[i].key {
                k if k == key => {
                    return self.cells[i].val.replace(value);
                }
                EMPTY => {
                    // Reuse the first tombstone passed, if any, to keep
                    // probe chains short.
                    let dst = match first_tomb {
                        Some(t) => {
                            self.tombs -= 1;
                            t
                        }
                        None => i,
                    };
                    self.cells[dst] = Cell {
                        key,
                        val: Some(value),
                    };
                    self.live += 1;
                    return None;
                }
                TOMB if first_tomb.is_none() => first_tomb = Some(i),
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        let v = self.cells[i].val.take();
        self.cells[i].key = TOMB;
        self.live -= 1;
        self.tombs += 1;
        v
    }

    /// Ensures room for one more entry, growing / rehashing when the
    /// occupied (live + tombstone) fraction passes ~70%.
    fn reserve_one(&mut self) {
        let cap = self.cells.len();
        if cap == 0 {
            self.rebuild(16);
        } else if (self.live + self.tombs + 1) * 10 > cap * 7 {
            // Grow only if the *live* set needs it; otherwise rebuild at
            // the same size purely to shed tombstones.
            let want = if (self.live + 1) * 10 > cap * 7 {
                cap * 2
            } else {
                cap
            };
            self.rebuild(want);
        }
    }

    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        let old = std::mem::replace(
            &mut self.cells,
            (0..cap)
                .map(|_| Cell {
                    key: EMPTY,
                    val: None,
                })
                .collect(),
        );
        self.live = 0;
        self.tombs = 0;
        for cell in old {
            if let (k, Some(v)) = (cell.key, cell.val) {
                if k < TOMB {
                    self.insert_fresh(k, v);
                }
            }
        }
    }

    /// Insert into a table known to have no tombstones and no `key`.
    fn insert_fresh(&mut self, key: u64, value: V) {
        let mask = self.cells.len() - 1;
        let mut i = self.slot_of(key);
        while self.cells[i].key != EMPTY {
            i = (i + 1) & mask;
        }
        self.cells[i] = Cell {
            key,
            val: Some(value),
        };
        self.live += 1;
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.cells.iter().filter_map(|c| c.val.as_ref())
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.cells
            .iter()
            .filter_map(|c| c.val.as_ref().map(|v| (c.key, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SeqMap::new();
        assert!(m.is_empty());
        for i in 0..100u64 {
            assert_eq!(m.insert(i * 7, i), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            assert_eq!(m.get(i * 7), Some(&i));
        }
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(7), Some(1));
        assert_eq!(m.remove(7), None);
        assert!(!m.contains_key(7));
        assert_eq!(m.len(), 99);
    }

    #[test]
    fn replace_returns_old() {
        let mut m = SeqMap::new();
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(5, "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(5), Some(&"b"));
    }

    #[test]
    fn tombstone_churn_stays_bounded() {
        // Insert/remove churn at a fixed live size must not grow the
        // table without bound: rehash sheds tombstones.
        let mut m = SeqMap::new();
        for round in 0..10_000u64 {
            m.insert(round, round);
            if round >= 8 {
                assert_eq!(m.remove(round - 8), Some(round - 8));
            }
        }
        assert_eq!(m.len(), 8);
        assert!(m.cells.len() <= 64, "table grew to {}", m.cells.len());
        // Survivors still resolve after all that churn.
        for k in 9_992..10_000u64 {
            assert_eq!(m.get(k), Some(&k));
        }
    }

    #[test]
    fn stride_heavy_keys_resolve() {
        // Packed ids from one job arrive at stride p (reducer inputs);
        // make sure clustering doesn't break lookup.
        let mut m = SeqMap::new();
        let p = 3_200u64;
        for i in 0..5_000u64 {
            m.insert((3u64 << 40) | (i * p), i);
        }
        for i in 0..5_000u64 {
            assert_eq!(m.get((3u64 << 40) | (i * p)), Some(&i));
        }
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.values().count(), 5_000);
    }
}
