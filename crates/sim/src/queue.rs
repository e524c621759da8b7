//! A deterministic event queue.
//!
//! Events fire in `(time, insertion sequence)` order: ties on the virtual
//! clock break by insertion order, so a simulation's behaviour is a pure
//! function of the order in which events were scheduled — never of hash-map
//! iteration or heap internals.
//!
//! The queue is one binary min-heap keyed on `(time, sequence)`. Device
//! completions booked behind deep disk and NIC backlogs wait in their
//! server's ring ([`crate::Resource::submit_timed`]), not here, so the
//! queue holds one head per busy server plus the runtime's timers. Its
//! peak is 900, 1,100 and 1,101 entries at 400, 800 and 3,200
//! `cloudsort_xl` partitions: a heap that size stays in cache, and a
//! sift is about ten comparisons.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Live entries and allocated capacity of one in-memory table, for
/// footprint accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableFootprint {
    /// Entries held.
    pub live: usize,
    /// Entry slots allocated.
    pub capacity: usize,
    /// Bytes of those slots (inline entry size × capacity, plus any
    /// chunk links); heap blocks owned by the entries are not counted.
    pub bytes: usize,
    /// Bytes of the slots ever written: a `Vec`'s `len × size` where
    /// the table is `Vec`-backed, else `live × size`. The rest of
    /// `bytes` is capacity reserved by growth that a page-granular
    /// allocator may never have touched.
    pub written: usize,
}

impl TableFootprint {
    /// A table of `capacity` slots of `T`, `live` of them in use.
    pub fn of<T>(live: usize, capacity: usize) -> Self {
        TableFootprint {
            live,
            capacity,
            bytes: capacity * std::mem::size_of::<T>(),
            written: live * std::mem::size_of::<T>(),
        }
    }

    /// Sums two tables (e.g. the same table on several nodes).
    pub fn plus(self, other: TableFootprint) -> Self {
        TableFootprint {
            live: self.live + other.live,
            capacity: self.capacity + other.capacity,
            bytes: self.bytes + other.bytes,
            written: self.written + other.written,
        }
    }
}

/// A min-queue of timestamped events with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Most entries held at once.
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            peak: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
    }

    /// Takes the next sequence number without scheduling anything: an
    /// event scheduled later under it with
    /// [`EventQueue::schedule_reserved`] pops exactly where it would have
    /// had it been scheduled now.
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a number from
    /// [`EventQueue::reserve`]; each number must be used once.
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number was never reserved");
        self.heap.push(Entry { at, seq, event });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedule `event` to fire `delay` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Remove and return the earliest event with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Peak entries and allocated slots. The heap never gives capacity
    /// back, so the capacity it holds now is its peak.
    pub fn footprint(&self) -> TableFootprint {
        TableFootprint::of::<Entry<E>>(self.peak, self.heap.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime(100), SimDuration(25), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(125), ())));
        assert!(q.is_empty());
    }

    #[test]
    fn past_inserts_pop_before_future_work() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1_000_000), "future");
        assert_eq!(q.pop().map(|(_, e)| e), Some("future"));
        // An insert earlier than the last pop still pops first.
        q.schedule_at(SimTime(10), "past");
        q.schedule_at(SimTime(1_000_050), "near");
        assert_eq!(q.pop(), Some((SimTime(10), "past")));
        assert_eq!(q.pop(), Some((SimTime(1_000_050), "near")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn footprint_reports_peaks_after_drain() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime(i * 1_000_000), i);
        }
        q.pop();
        q.schedule_at(SimTime(5), 100);
        while q.pop().is_some() {}
        let f = q.footprint();
        assert_eq!(f.live, 100);
        assert!(f.capacity >= 100);
        let slot = std::mem::size_of::<Entry<u64>>();
        assert_eq!(f.bytes, f.capacity * slot);
        assert_eq!(f.written, 100 * slot);
    }
}
