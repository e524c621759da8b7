//! Dense per-job arenas indexed by packed ids.
//!
//! Every runtime id ([`TaskId`](crate::ids::TaskId),
//! [`ObjectId`](crate::ids::ObjectId), waiter ids) packs
//! `(job << JOB_SEQ_BITS) | seq` where each job mints its own dense
//! per-kind sequence counter starting at zero. That makes the id itself
//! a perfect arena index: the outer `Vec` is keyed by job, the inner
//! `Vec` by seq. Lookups are two bounds-checked indexing ops instead of
//! a SipHash probe, entries of one job are contiguous in memory, and
//! iteration order is exactly ascending raw-id order — the same order
//! the previous `HashMap`-based tables had to `sort()` into at every
//! deterministic iteration site.
//!
//! Two flavors:
//!
//! - [`DenseArena`]: append-only, no removal. Inserts must arrive in
//!   seq order per job (guaranteed by the per-job counters). Used for
//!   task entries, which are never removed.
//! - [`SlotArena`]: tombstoned slots (`Vec<Option<T>>`). Used for
//!   object entries and waiters, which are GC'd and (for objects)
//!   sometimes re-created.

use exo_sim::TableFootprint;

use crate::ids::JOB_SEQ_BITS;

const SEQ_MASK: u64 = (1u64 << JOB_SEQ_BITS) - 1;

#[inline]
fn split(raw: u64) -> (usize, usize) {
    ((raw >> JOB_SEQ_BITS) as usize, (raw & SEQ_MASK) as usize)
}

#[inline]
fn join(job: usize, seq: usize) -> u64 {
    ((job as u64) << JOB_SEQ_BITS) | seq as u64
}

/// Append-only per-job arena: entries are never removed and per-job
/// inserts arrive in dense seq order.
#[derive(Debug, Default)]
pub struct DenseArena<T> {
    jobs: Vec<Vec<T>>,
    len: usize,
}

impl<T> DenseArena<T> {
    pub fn new() -> Self {
        DenseArena {
            jobs: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, raw: u64) -> Option<&T> {
        let (job, seq) = split(raw);
        self.jobs.get(job)?.get(seq)
    }

    pub fn get_mut(&mut self, raw: u64) -> Option<&mut T> {
        let (job, seq) = split(raw);
        self.jobs.get_mut(job)?.get_mut(seq)
    }

    /// Inserts the next entry for `raw`'s job. Panics if `raw`'s seq is
    /// not exactly the next dense index — the per-job id counters make
    /// out-of-order inserts a runtime bug, not a recoverable state.
    pub fn insert(&mut self, raw: u64, value: T) {
        let (job, seq) = split(raw);
        if job >= self.jobs.len() {
            self.jobs.resize_with(job + 1, Vec::new);
        }
        assert_eq!(
            seq,
            self.jobs[job].len(),
            "dense arena insert out of seq order (job {job})"
        );
        self.jobs[job].push(value);
        self.len += 1;
    }

    /// `job`'s entries in seq order (empty for a job with none).
    pub fn job_entries(&self, job: u32) -> &[T] {
        self.jobs.get(job as usize).map_or(&[], Vec::as_slice)
    }

    /// All entries in ascending raw-id order (== ascending `(job, seq)`).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.jobs.iter().enumerate().flat_map(|(job, entries)| {
            entries
                .iter()
                .enumerate()
                .map(move |(seq, v)| (join(job, seq), v))
        })
    }

    /// Live entries and allocated slots, per-job vectors included.
    pub fn footprint(&self) -> TableFootprint {
        footprint(self.len, &self.jobs)
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.jobs.iter_mut().enumerate().flat_map(|(job, entries)| {
            entries
                .iter_mut()
                .enumerate()
                .map(move |(seq, v)| (join(job, seq), v))
        })
    }
}

/// Tombstoned per-job arena: slots can be vacated (`remove`) and later
/// re-filled, and seqs may be minted without ever inserting (holes).
#[derive(Debug, Default)]
pub struct SlotArena<T> {
    jobs: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> SlotArena<T> {
    pub fn new() -> Self {
        SlotArena {
            jobs: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_mut(&mut self, raw: u64) -> &mut Option<T> {
        let (job, seq) = split(raw);
        if job >= self.jobs.len() {
            self.jobs.resize_with(job + 1, Vec::new);
        }
        let entries = &mut self.jobs[job];
        if seq >= entries.len() {
            entries.resize_with(seq + 1, || None);
        }
        &mut entries[seq]
    }

    pub fn contains(&self, raw: u64) -> bool {
        self.get(raw).is_some()
    }

    pub fn get(&self, raw: u64) -> Option<&T> {
        let (job, seq) = split(raw);
        self.jobs.get(job)?.get(seq)?.as_ref()
    }

    pub fn get_mut(&mut self, raw: u64) -> Option<&mut T> {
        let (job, seq) = split(raw);
        self.jobs.get_mut(job)?.get_mut(seq)?.as_mut()
    }

    /// Fills `raw`'s slot, which must be vacant (same contract as the
    /// previous `HashMap::insert` sites, which never overwrote).
    pub fn insert(&mut self, raw: u64, value: T) {
        let slot = self.slot_mut(raw);
        assert!(slot.is_none(), "slot arena insert over a live entry");
        *slot = Some(value);
        self.len += 1;
    }

    pub fn remove(&mut self, raw: u64) -> Option<T> {
        let (job, seq) = split(raw);
        let v = self.jobs.get_mut(job)?.get_mut(seq)?.take();
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    pub fn or_insert_with(&mut self, raw: u64, f: impl FnOnce() -> T) -> &mut T {
        if self.slot_mut(raw).is_none() {
            self.insert(raw, f());
        }
        let (job, seq) = split(raw);
        // audit:allow(P01): the branch above either saw the slot live or
        // filled it via insert; re-resolving the same (job, seq) cannot
        // find it vacant.
        self.jobs[job][seq].as_mut().expect("slot filled above")
    }

    /// Live entries in ascending raw-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.jobs.iter().enumerate().flat_map(|(job, entries)| {
            entries
                .iter()
                .enumerate()
                .filter_map(move |(seq, v)| v.as_ref().map(|v| (join(job, seq), v)))
        })
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.jobs.iter_mut().enumerate().flat_map(|(job, entries)| {
            entries
                .iter_mut()
                .enumerate()
                .filter_map(move |(seq, v)| v.as_mut().map(|v| (join(job, seq), v)))
        })
    }

    /// Live entries and allocated slots (vacant ones included), per-job
    /// vectors included. Slots are never released, so this is the peak.
    pub fn footprint(&self) -> TableFootprint {
        footprint(self.len, &self.jobs)
    }

    /// Live raw ids belonging to `job`, ascending.
    pub fn job_keys(&self, job: u32) -> Vec<u64> {
        match self.jobs.get(job as usize) {
            None => Vec::new(),
            Some(entries) => entries
                .iter()
                .enumerate()
                .filter_map(|(seq, v)| v.as_ref().map(|_| join(job as usize, seq)))
                .collect(),
        }
    }
}

fn footprint<S>(live: usize, jobs: &[Vec<S>]) -> TableFootprint {
    let slots = jobs.iter().map(Vec::capacity).sum();
    let mut f = TableFootprint::of::<S>(live, slots);
    f.bytes += std::mem::size_of_val(jobs);
    f.written = jobs.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<S>()
        + std::mem::size_of_val(jobs);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(job: u64, seq: u64) -> u64 {
        (job << JOB_SEQ_BITS) | seq
    }

    #[test]
    fn dense_insert_get_iter() {
        let mut a = DenseArena::new();
        a.insert(raw(0, 0), "a");
        a.insert(raw(1, 0), "c");
        a.insert(raw(0, 1), "b");
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(raw(0, 1)), Some(&"b"));
        assert_eq!(a.get(raw(2, 0)), None);
        assert_eq!(a.get(raw(0, 2)), None);
        assert_eq!(a.job_entries(0), ["a", "b"]);
        assert!(a.job_entries(2).is_empty());
        let got: Vec<_> = a.iter().collect();
        assert_eq!(
            got,
            vec![(raw(0, 0), &"a"), (raw(0, 1), &"b"), (raw(1, 0), &"c")]
        );
    }

    #[test]
    #[should_panic(expected = "out of seq order")]
    fn dense_rejects_gaps() {
        let mut a = DenseArena::new();
        a.insert(raw(0, 1), "skip");
    }

    #[test]
    fn slot_lifecycle() {
        let mut a = SlotArena::new();
        a.insert(raw(0, 3), 30); // hole at seqs 0..3
        a.insert(raw(0, 1), 10);
        assert_eq!(a.len(), 2);
        assert!(a.contains(raw(0, 1)));
        assert!(!a.contains(raw(0, 0)));
        assert_eq!(a.remove(raw(0, 1)), Some(10));
        assert_eq!(a.remove(raw(0, 1)), None);
        assert_eq!(a.len(), 1);
        // re-create after removal
        *a.or_insert_with(raw(0, 1), || 11) += 1;
        assert_eq!(a.get(raw(0, 1)), Some(&12));
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![raw(0, 1), raw(0, 3)]);
        assert_eq!(a.job_keys(0), vec![raw(0, 1), raw(0, 3)]);
        assert_eq!(a.job_keys(7), Vec::<u64>::new());
    }

    #[test]
    fn slot_footprint_counts_vacant_slots_up_to_the_highest_seq() {
        let mut a = SlotArena::new();
        a.insert(raw(0, 9), 1u64);
        a.insert(raw(0, 2), 2u64);
        a.remove(raw(0, 9));
        let f = a.footprint();
        assert_eq!(f.live, 1);
        assert!(f.capacity >= 10, "slots 0..=9 stay allocated");
        assert_eq!(
            f.bytes,
            f.capacity * std::mem::size_of::<Option<u64>>()
                + std::mem::size_of::<Vec<Option<u64>>>()
        );
    }

    #[test]
    fn slot_iter_spans_jobs_in_raw_order() {
        let mut a = SlotArena::new();
        a.insert(raw(2, 0), 'z');
        a.insert(raw(0, 5), 'a');
        a.insert(raw(2, 4), 'y');
        let got: Vec<_> = a.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            got,
            vec![(raw(0, 5), 'a'), (raw(2, 0), 'z'), (raw(2, 4), 'y')]
        );
        for (_, v) in a.iter_mut() {
            *v = '!';
        }
        assert!(a.iter().all(|(_, v)| *v == '!'));
    }
}
