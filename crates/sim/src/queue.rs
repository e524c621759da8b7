//! A deterministic event queue.
//!
//! Events fire in `(time, insertion sequence)` order: ties on the virtual
//! clock break by insertion order, so a simulation's behaviour is a pure
//! function of the order in which events were scheduled — never of hash-map
//! iteration or heap internals.
//!
//! # Structure: hierarchical (calendar) queue
//!
//! A single `BinaryHeap` pays `O(log n)` comparisons per operation on the
//! *whole* pending set; at engine scale (tens of millions of events,
//! queue depths in the tens of thousands) those comparisons dominate.
//! This queue splits the pending set by fire time into three tiers:
//!
//! - **hot** — a small min-heap holding every entry with `at <
//!   base + WIDTH` (the current bucket window, *including* anything
//!   scheduled at or before `base`). Pops come from here.
//! - **ring** — `BUCKETS` unsorted `Vec` buckets, bucket `i` covering
//!   `[base + i·WIDTH, base + (i+1)·WIDTH)` for `i in 1..=BUCKETS`.
//!   Inserts are an index computation and a push.
//! - **far** — an overflow min-heap for everything at or beyond the
//!   ring horizon `base + (BUCKETS+1)·WIDTH`.
//!
//! Popping drains the hot heap; when it empties, `base` advances bucket
//! by bucket, heapifying the next non-empty bucket into the hot heap.
//! Every advance first pulls newly-in-horizon entries out of the far
//! heap, maintaining the ordering invariant below. When hot and ring
//! are both empty the queue re-bases directly at the far heap's minimum
//! (long idle gaps cost one jump, not a bucket walk).
//!
//! # Determinism
//!
//! Pop order is *identical to the plain binary heap's* — bit for bit —
//! because the tiers partition the pending set by fire time:
//!
//! 1. every hot entry fires before every ring entry (`< base + WIDTH`
//!    vs `≥ base + WIDTH`),
//! 2. ring buckets are disjoint ascending windows, drained in order,
//!    and each bucket is min-heapified before any of it is popped,
//! 3. the far heap only ever holds entries at or beyond the horizon
//!    (enforced at insert *and* re-checked on every `base` advance), so
//!    it cannot hide an entry earlier than anything in hot/ring.
//!
//! Within a tier, ordering is the same `(at, seq)` comparison the old
//! heap used, so FIFO tie-breaking is preserved exactly. Bucket width
//! and count affect only *where* an entry waits, never *when* it pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Ring bucket count. With `WIDTH` this sets the near-future horizon
/// (`BUCKETS × WIDTH` ≈ 131 ms of virtual time): long enough that the
/// short-delay churn (transfers, CPU slices, store pumps) stays out of
/// the far heap, small enough that an idle cycle over the whole ring is
/// cheap.
const BUCKETS: usize = 2048;

/// Bucket width in `SimTime` ticks (µs). Matches the µs-scale gaps the
/// runtime schedules at: a bucket holds a handful of entries, so the
/// per-bucket heapify stays near-linear.
const WIDTH: u64 = 64;

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
    /// bucket headers); heap blocks owned by the entries are not counted.
    pub bytes: usize,
}

impl TableFootprint {
    /// A table of `capacity` slots of `T`, `live` of them in use.
    pub fn of<T>(live: usize, capacity: usize) -> Self {
        TableFootprint {
            live,
            capacity,
            bytes: capacity * std::mem::size_of::<T>(),
        }
    }

    /// Sums two tables (e.g. the same table on several nodes).
    pub fn plus(self, other: TableFootprint) -> Self {
        TableFootprint {
            live: self.live + other.live,
            capacity: self.capacity + other.capacity,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Footprint of an [`EventQueue`]'s three tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueFootprint {
    pub hot: TableFootprint,
    pub ring: TableFootprint,
    pub far: TableFootprint,
}

/// A min-queue of timestamped events with stable FIFO tie-breaking,
/// implemented as a hierarchical calendar queue (see module docs).
pub struct EventQueue<E> {
    /// Entries with `at < base + WIDTH` (including the past).
    hot: BinaryHeap<Entry<E>>,
    /// Bucket `i` (0-based slot, rotated by `head`) covers
    /// `[base + (i+1)·WIDTH, base + (i+2)·WIDTH)`.
    ring: Vec<Vec<Entry<E>>>,
    /// Rotation offset: ring slot `(head + i) % BUCKETS` is bucket `i`.
    head: usize,
    /// Entries in the ring (fast emptiness check for rotation).
    ring_len: usize,
    /// Entries at or beyond `horizon()`.
    far: BinaryHeap<Entry<E>>,
    /// Start of the hot window.
    base: SimTime,
    /// Total entries across all tiers.
    len: usize,
    seq: u64,
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
            hot: BinaryHeap::new(),
            ring: Vec::new(), // allocated lazily on first ring insert
            head: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            base: SimTime::ZERO,
            len: 0,
            seq: 0,
        }
    }

    /// First time at or beyond the ring: the far heap's domain.
    fn horizon(&self) -> u64 {
        self.base.0 + (BUCKETS as u64 + 1) * WIDTH
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry { at, seq, event });
    }

    /// Schedule `event` to fire `delay` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Files an entry into the tier its fire time selects.
    fn place(&mut self, e: Entry<E>) {
        if e.at.0 < self.base.0 + WIDTH {
            self.hot.push(e);
        } else if e.at.0 < self.horizon() {
            if self.ring.is_empty() {
                self.ring.resize_with(BUCKETS, Vec::new);
            }
            let i = ((e.at.0 - self.base.0) / WIDTH) as usize - 1;
            let slot = (self.head + i) % BUCKETS;
            self.ring[slot].push(e);
            self.ring_len += 1;
        } else {
            self.far.push(e);
        }
    }

    /// Remove and return the earliest event with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.hot.is_empty() {
            self.refill_hot();
        }
        let e = self.hot.pop()?;
        self.len -= 1;
        Some((e.at, e.event))
    }

    /// Advances `base` until the hot heap holds the earliest pending
    /// entries (no-op when the queue is empty).
    fn refill_hot(&mut self) {
        debug_assert!(self.hot.is_empty());
        while self.ring_len > 0 {
            // Advance one bucket: the head bucket's window becomes the
            // hot window. Drain it *before* pulling from the far heap —
            // the advance re-purposes the head slot as the ring's new
            // tail window, and a pull may file entries into that slot;
            // they must not ride into the hot heap with this window's.
            // (The far heap cannot hold anything for the new hot window
            // itself: its entries are at least a full ring beyond it.)
            self.base = SimTime(self.base.0 + WIDTH);
            let head = self.head;
            self.head = (self.head + 1) % BUCKETS;
            let taken = std::mem::take(&mut self.ring[head]);
            self.ring_len -= taken.len();
            self.pull_far_within_horizon();
            if !taken.is_empty() {
                self.hot.extend(taken);
                return;
            }
        }
        // Ring exhausted: jump straight to the far heap's minimum.
        if let Some(min) = self.far.peek() {
            self.base = SimTime(min.at.0 - min.at.0 % WIDTH);
            self.pull_far_within_horizon();
            debug_assert!(!self.hot.is_empty());
        }
    }

    /// Moves every far entry the current horizon covers into hot/ring,
    /// restoring the invariant that `far` starts at `horizon()`.
    fn pull_far_within_horizon(&mut self) {
        let horizon = self.horizon();
        while self.far.peek().is_some_and(|e| e.at.0 < horizon) {
            // audit:allow(P01): the loop condition just peeked Some on
            // this same heap; pop cannot return None here.
            let e = self.far.pop().expect("peeked entry pops");
            self.place(e);
        }
    }

    /// Fire time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.hot.peek() {
            return Some(e.at);
        }
        if self.ring_len > 0 {
            // First non-empty bucket is the earliest window; its minimum
            // is the global minimum (far starts at the horizon).
            for i in 0..BUCKETS {
                let bucket = &self.ring[(self.head + i) % BUCKETS];
                if let Some(t) = bucket.iter().map(|e| e.at).min() {
                    return Some(t);
                }
            }
        }
        self.far.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries and allocated slots per tier. The hot and far heaps never
    /// release capacity, so theirs is the peak; a ring bucket hands its
    /// buffer to the hot heap when its window comes up, so the ring's
    /// figure is what its buckets hold now.
    pub fn footprint(&self) -> QueueFootprint {
        let buckets = self.ring.iter().map(Vec::capacity).sum();
        let mut ring = TableFootprint::of::<Entry<E>>(self.ring_len, buckets);
        ring.bytes += self.ring.capacity() * std::mem::size_of::<Vec<Entry<E>>>();
        QueueFootprint {
            hot: TableFootprint::of::<Entry<E>>(self.hot.len(), self.hot.capacity()),
            ring,
            far: TableFootprint::of::<Entry<E>>(self.far.len(), self.far.capacity()),
        }
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
        assert_eq!(q.peek_time(), Some(SimTime(125)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// Reference implementation: the plain binary heap this queue
    /// replaced. The equivalence tests drive both with identical
    /// schedules and assert bit-identical pop streams.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn schedule_at(&mut self, at: SimTime, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }
    }

    /// Deterministic splitmix-style generator (no external randomness:
    /// the audit bans ambient RNG and the test must be reproducible).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 17
        }
    }

    fn equivalence_run(seed: u64, ops: usize, spread: impl Fn(u64) -> u64) {
        let mut rng = Lcg(seed);
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut now = 0u64;
        let mut id = 0u64;
        for _ in 0..ops {
            let r = rng.next();
            // Mixed workload: ~2 schedules per pop, like the engine.
            if !r.is_multiple_of(3) {
                let at = now + spread(rng.next());
                cal.schedule_at(SimTime(at), id);
                heap.schedule_at(SimTime(at), id);
                id += 1;
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e)),
                    "pop diverged from reference heap"
                );
                if let Some((t, _)) = a {
                    // The engine's clock: monotone across pops.
                    now = now.max(t.0);
                }
            }
        }
        // Drain both fully.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(
                a.as_ref().map(|(t, e)| (*t, *e)),
                b.as_ref().map(|(t, e)| (*t, *e))
            );
            if a.is_none() {
                break;
            }
        }
        assert!(cal.is_empty());
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn matches_reference_heap_uniform_short_delays() {
        // Delays inside the ring horizon; heavy tie density (mod 97).
        equivalence_run(1, 20_000, |r| r % 97);
    }

    #[test]
    fn matches_reference_heap_bursty_mixed_delays() {
        // Mostly sub-window delays with bursts far beyond the horizon
        // (disk-write-like seconds-ahead completions), exercising the
        // far heap, horizon pulls, and re-basing.
        equivalence_run(2, 20_000, |r| {
            if r % 16 == 0 {
                1_000_000 + r % 5_000_000
            } else {
                r % 4_096
            }
        });
    }

    #[test]
    fn matches_reference_heap_idle_jumps() {
        // Sparse far-apart events: every pop crosses an empty ring, so
        // the re-base jump path runs constantly.
        equivalence_run(3, 5_000, |r| 10_000_000 + r % 100_000_000);
    }

    #[test]
    fn past_inserts_pop_before_future_work() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1_000_000), "future");
        // Popping "future" re-bases the queue at t=1 000 000...
        assert_eq!(q.pop().map(|(_, e)| e), Some("future"));
        // ...but an insert earlier than the new base must still pop
        // first (the hot heap absorbs the past).
        q.schedule_at(SimTime(10), "past");
        q.schedule_at(SimTime(1_000_050), "near");
        assert_eq!(q.pop(), Some((SimTime(10), "past")));
        assert_eq!(q.pop(), Some((SimTime(1_000_050), "near")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_across_tiers() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 0); // hot
        q.schedule_at(SimTime(WIDTH * 10), 1); // ring
        q.schedule_at(SimTime(u64::MAX / 2), 2); // far
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(WIDTH * 10)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
