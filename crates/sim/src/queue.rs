//! A deterministic event queue.
//!
//! Events fire in `(time, insertion sequence)` order: ties on the virtual
//! clock break by insertion order, so a simulation's behaviour is a pure
//! function of the order in which events were scheduled — never of hash-map
//! iteration or heap internals.
//!
//! # Structure: hierarchical timing wheel
//!
//! Most pending events are I/O completions that `Resource::submit` books
//! behind deep disk and NIC backlogs. On the benchmark's `xl_simple`
//! (seed 2026) 47% of schedules land 10–100 s ahead and 50% land
//! 100–1,000 s ahead, with about 180k entries pending at a time. A
//! single `BinaryHeap` over that set pays a cache-missing sift of
//! `O(log n)` per operation. This queue is a Varghese–Lauck timing
//! wheel instead. Time is cut into 64 µs *ticks*, and the queue keeps a
//! current tick `tick`:
//!
//! - **hot** — a small min-heap holding every entry whose tick is at or
//!   before `tick` (the current tick, *including* anything scheduled in
//!   the past). Pops come from here.
//! - **levels** — `LEVELS` wheels of `SLOTS` (2048) unsorted `Vec`
//!   buckets. Level `k`'s buckets are `64 µs × 2048^k` wide, so the
//!   three levels reach about 6.4 days. An entry goes to the level of
//!   the highest 11-bit digit in which its tick differs from `tick`, in
//!   the bucket that digit names. Inserts are a `leading_zeros`, a
//!   shift and a push.
//! - **far** — an overflow min-heap for entries whose tick differs from
//!   `tick` above the top level.
//!
//! Each level keeps a 2048-bit occupancy bitmap with a 32-bit summary
//! word, so the next non-empty bucket is two `trailing_zeros` away.
//! When hot empties, the queue takes the first non-empty bucket of the
//! lowest non-empty level and moves `tick` to that bucket's start. A
//! level-0 bucket is one tick, so all of it goes into hot; a higher
//! bucket *cascades*: each entry is placed again against the new
//! `tick`, landing in a lower level or directly in hot. An entry moves
//! at most `LEVELS` times, so every operation is `O(1)` amortised. Only
//! when every level is empty does the queue jump `tick` to the far
//! heap's minimum and pull the entries that now share its top digits.
//!
//! Buckets hold their entries in fixed 16-entry chunks. Emptied chunks
//! and bucket lists go to a pool that later buckets draw from, and
//! nothing is freed. A cascade returns each chunk before taking the
//! next, so the buckets it fills reuse that memory, and the wheel stays
//! within one partly filled chunk per occupied bucket of its live
//! entries. (A `Vec` per bucket kept a doubled buffer for every bucket
//! it had filled, and held a whole drained bucket through its cascade.)
//!
//! # Determinism
//!
//! Pop order is *identical to the plain binary heap's* — bit for bit —
//! because the tiers partition the pending set by fire time:
//!
//! 1. every hot entry fires before every wheel entry: hot ticks are
//!    `≤ tick`, wheel ticks are `> tick`;
//! 2. a level-`k` entry shares every digit above `k` with `tick` and is
//!    larger at digit `k`, while a lower-level entry also shares digit
//!    `k`, so lower levels fire first; within a level, buckets are
//!    disjoint ascending windows, all beyond `tick`'s own digit, and the
//!    first set bit is the earliest;
//! 3. a far entry is larger than `tick` above the top level, so it is
//!    later than every wheel entry, and the far heap is read only when
//!    the wheel is empty;
//! 4. a bucket is moved into hot (heapified) in full before any of it
//!    pops, and hot orders by the same `(at, seq)` key the heap used.
//!
//! Level width and count affect only *where* an entry waits, never
//! *when* it pops: FIFO tie-breaking is preserved exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Tick width as a shift: a tick is `2^6 = 64` µs of virtual time, the
/// scale of the gaps the runtime schedules at, so a level-0 bucket holds
/// a handful of entries and its heapify stays near-linear.
const TICK_SHIFT: u32 = 6;

/// Bits of the tick each level resolves.
const BITS: u32 = 11;

/// Buckets per level.
const SLOTS: usize = 1 << BITS;

/// Bitmap words per level.
const WORDS: usize = SLOTS / 64;

/// Wheel levels. Three reach `64 µs × 2048³` ≈ 6.4 days, far past any
/// I/O backlog the runtime books; only timers beyond that use the far
/// heap.
const LEVELS: usize = 3;

/// Tick shift that leaves the digits above the top level.
const TOP_SHIFT: u32 = BITS * LEVELS as u32;

fn tick_of(at: SimTime) -> u64 {
    at.0 >> TICK_SHIFT
}

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

/// Peak footprint of an [`EventQueue`]'s three tiers over its life: the
/// most entries each tier held at once, and the slots and bytes it had
/// allocated at its largest. A run drains its queue before reporting,
/// so a read of what the tiers hold at that point would show nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueFootprint {
    /// The current-tick heap.
    pub hot: TableFootprint,
    /// The wheel levels' chunks (in buckets or pooled), with the bucket
    /// lists' headers.
    pub wheel: TableFootprint,
    /// The overflow heap beyond the top level.
    pub far: TableFootprint,
}

/// Entries per bucket chunk (896 B of 56-B entries): the most an
/// occupied bucket leaves unused.
const CHUNK: usize = 16;

/// Up to `CHUNK` entries of one bucket.
type Chunk<E> = Vec<Entry<E>>;

/// Emptied chunks and bucket lists, which buckets reuse before
/// allocating. The wheel's allocation is thus sized by the most entries
/// and occupied buckets it held at once.
struct Pool<E> {
    chunks: Vec<Chunk<E>>,
    lists: Vec<Vec<Chunk<E>>>,
}

/// One wheel level: `SLOTS` buckets and their occupancy bitmap.
struct Level<E> {
    /// Bucket `s` holds, in chunks, the entries whose tick has digit `s`
    /// at this level (allocated on the level's first insert).
    buckets: Vec<Vec<Chunk<E>>>,
    /// Bit `s % 64` of `words[s / 64]` is set iff bucket `s` is
    /// non-empty.
    words: [u64; WORDS],
    /// Bit `w` is set iff `words[w]` is non-zero.
    summary: u32,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            buckets: Vec::new(),
            words: [0; WORDS],
            summary: 0,
        }
    }

    /// Files `e` into bucket `slot`, taking a chunk (and, for an empty
    /// bucket, a list) from `pool` when the bucket's last chunk is full.
    fn push(&mut self, slot: usize, e: Entry<E>, pool: &mut Pool<E>) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(SLOTS, Vec::new);
        }
        let bucket = &mut self.buckets[slot];
        match bucket.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(e),
            _ => {
                if bucket.capacity() == 0 {
                    if let Some(list) = pool.lists.pop() {
                        *bucket = list;
                    }
                }
                let mut chunk = pool
                    .chunks
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push(e);
                bucket.push(chunk);
            }
        }
        self.words[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    /// The lowest non-empty bucket.
    fn first(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Empties bucket `slot`, returning its chunk list; hand the chunks
    /// and the list back to the pool once drained.
    fn take(&mut self, slot: usize) -> Vec<Chunk<E>> {
        let w = slot / 64;
        self.words[w] &= !(1 << (slot % 64));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
        std::mem::take(&mut self.buckets[slot])
    }
}

/// Most entries each tier has held at once.
#[derive(Default)]
struct Peaks {
    hot: usize,
    wheel: usize,
    far: usize,
}

/// A min-queue of timestamped events with stable FIFO tie-breaking,
/// implemented as a hierarchical timing wheel (see module docs).
pub struct EventQueue<E> {
    /// Entries whose tick is at or before `tick` (including the past).
    hot: BinaryHeap<Entry<E>>,
    /// Entries whose tick differs from `tick` first at digit `k` live in
    /// `levels[k]`.
    levels: [Level<E>; LEVELS],
    /// Entries whose tick differs from `tick` above the top level.
    far: BinaryHeap<Entry<E>>,
    /// Empty chunks and lists, shared by every level's buckets.
    pool: Pool<E>,
    /// The current tick: every wheel and far entry is later.
    tick: u64,
    /// Entries across the levels.
    wheel_len: usize,
    /// Total entries across all tiers.
    len: usize,
    seq: u64,
    peak: Peaks,
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
            levels: std::array::from_fn(|_| Level::new()),
            far: BinaryHeap::new(),
            pool: Pool {
                chunks: Vec::new(),
                lists: Vec::new(),
            },
            tick: 0,
            wheel_len: 0,
            len: 0,
            seq: 0,
            peak: Peaks::default(),
        }
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

    /// Files an entry into the tier its tick selects relative to `tick`.
    fn place(&mut self, e: Entry<E>) {
        let t = tick_of(e.at);
        if t <= self.tick {
            self.hot.push(e);
            self.peak.hot = self.peak.hot.max(self.hot.len());
            return;
        }
        let level = ((63 - (t ^ self.tick).leading_zeros()) / BITS) as usize;
        if level >= LEVELS {
            self.far.push(e);
            self.peak.far = self.peak.far.max(self.far.len());
            return;
        }
        let slot = (t >> (BITS * level as u32)) as usize & (SLOTS - 1);
        self.levels[level].push(slot, e, &mut self.pool);
        self.wheel_len += 1;
        self.peak.wheel = self.peak.wheel.max(self.wheel_len);
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

    /// Advances `tick` until the hot heap holds the earliest pending
    /// entries (no-op when the queue is empty).
    fn refill_hot(&mut self) {
        debug_assert!(self.hot.is_empty());
        while let Some((level, slot)) = self
            .levels
            .iter()
            .enumerate()
            .find_map(|(k, l)| l.first().map(|s| (k, s)))
        {
            // Move `tick` to the bucket's start: keep the digits above
            // `level`, set digit `level` to the bucket, zero the rest.
            // Every lower level is empty, so no entry is left behind.
            let shift = BITS * level as u32;
            self.tick = (self.tick >> (shift + BITS) << (shift + BITS)) | ((slot as u64) << shift);
            let mut bucket = self.levels[level].take(slot);
            self.wheel_len -= bucket.iter().map(Vec::len).sum::<usize>();
            if level == 0 {
                // One tick wide: the whole bucket is the current tick.
                self.hot.extend(bucket.iter_mut().flat_map(|c| c.drain(..)));
                self.peak.hot = self.peak.hot.max(self.hot.len());
                self.pool.chunks.append(&mut bucket);
            } else {
                for mut chunk in bucket.drain(..) {
                    for e in chunk.drain(..) {
                        self.place(e);
                    }
                    self.pool.chunks.push(chunk);
                }
            }
            self.pool.lists.push(bucket);
            if !self.hot.is_empty() {
                return;
            }
        }
        // Wheel empty: jump to the far heap's minimum and pull every entry
        // that now shares `tick`'s digits above the top level. The minimum
        // itself lands in hot.
        let Some(min) = self.far.peek() else {
            return;
        };
        self.tick = tick_of(min.at);
        let top = self.tick >> TOP_SHIFT;
        while self
            .far
            .peek()
            .is_some_and(|e| tick_of(e.at) >> TOP_SHIFT == top)
        {
            let Some(e) = self.far.pop() else { break };
            self.place(e);
        }
        debug_assert!(!self.hot.is_empty());
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak entries and allocated slots per tier. No tier ever frees a
    /// buffer — the heaps keep their capacity, and the wheel's chunks and
    /// bucket lists are recycled — so the capacity held now is the peak.
    pub fn footprint(&self) -> QueueFootprint {
        let header = std::mem::size_of::<Vec<Chunk<E>>>();
        let pool = &self.pool;
        let mut lists = pool.chunks.capacity() + pool.lists.capacity();
        lists += pool.lists.iter().map(Vec::capacity).sum::<usize>();
        let mut chunks = pool.chunks.len();
        for level in &self.levels {
            lists += level.buckets.iter().map(Vec::capacity).sum::<usize>();
            chunks += level.buckets.iter().map(Vec::len).sum::<usize>();
            // The slot array's own list headers.
            lists += level.buckets.capacity();
        }
        let mut wheel = TableFootprint::of::<Entry<E>>(self.peak.wheel, chunks * CHUNK);
        wheel.bytes += lists * header;
        QueueFootprint {
            hot: TableFootprint::of::<Entry<E>>(self.peak.hot, self.hot.capacity()),
            wheel,
            far: TableFootprint::of::<Entry<E>>(self.peak.far, self.far.capacity()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tick, and the widths of a level-1 and a level-2 bucket, in µs.
    const TICK: u64 = 1 << TICK_SHIFT;
    const L1: u64 = TICK << BITS;
    const L2: u64 = L1 << BITS;
    /// First time past the top level from zero: the far heap's domain.
    const TOP: u64 = L2 << BITS;

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

    /// The wheel and the reference heap fed the same schedule; every pop
    /// asserts both return the same `(time, id)`.
    struct Pair {
        wheel: EventQueue<u64>,
        heap: HeapQueue<u64>,
        next_id: u64,
        /// The engine's clock: the last popped time.
        now: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                wheel: EventQueue::new(),
                heap: HeapQueue::new(),
                next_id: 0,
                now: 0,
            }
        }

        fn schedule(&mut self, at: u64) {
            self.wheel.schedule_at(SimTime(at), self.next_id);
            self.heap.schedule_at(SimTime(at), self.next_id);
            self.next_id += 1;
        }

        fn pop(&mut self) -> Option<u64> {
            let a = self.wheel.pop();
            let b = self.heap.pop();
            assert_eq!(a, b, "pop diverged from reference heap");
            let (t, _) = a?;
            // The engine's clock is monotone across pops; past inserts
            // are exercised explicitly below.
            self.now = self.now.max(t.0);
            Some(t.0)
        }

        fn drain(mut self) {
            while self.pop().is_some() {}
            assert!(self.wheel.is_empty());
            assert_eq!(self.wheel.len(), 0);
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

    /// Schedules `prefill` entries, then runs `ops` mixed operations
    /// (~2 schedules per pop, like the engine), each schedule `spread`
    /// after the clock, then drains — all against the reference heap.
    fn equivalence_run(seed: u64, prefill: usize, ops: usize, spread: impl Fn(u64) -> u64) {
        let mut rng = Lcg(seed);
        let mut p = Pair::new();
        for _ in 0..prefill {
            p.schedule(spread(rng.next()));
        }
        for _ in 0..ops {
            if !rng.next().is_multiple_of(3) {
                p.schedule(p.now + spread(rng.next()));
            } else {
                p.pop();
            }
        }
        p.drain();
    }

    #[test]
    fn matches_reference_heap_uniform_short_delays() {
        // Delays inside one level-1 bucket; heavy tie density (mod 97).
        equivalence_run(1, 0, 20_000, |r| r % 97);
    }

    #[test]
    fn matches_reference_heap_bursty_mixed_delays() {
        // Mostly sub-tick delays with bursts seconds ahead (disk-write-like
        // completions), exercising levels 1 and 2 and their cascades.
        equivalence_run(2, 0, 20_000, |r| {
            if r % 16 == 0 {
                1_000_000 + r % 5_000_000
            } else {
                r % 4_096
            }
        });
    }

    #[test]
    fn matches_reference_heap_idle_jumps() {
        // Sparse far-apart events: most pops skip many empty buckets, so
        // the bitmap search and multi-level advances run constantly.
        equivalence_run(3, 0, 5_000, |r| 10_000_000 + r % 100_000_000);
    }

    #[test]
    fn matches_reference_heap_deep_backlog() {
        // The measured xl_simple shape: half the completions 10–100 s
        // ahead, half 100–1,000 s, over a backlog deeper than 100k.
        equivalence_run(4, 120_000, 60_000, |r| {
            if r.is_multiple_of(2) {
                10_000_000 + r % 90_000_000
            } else {
                100_000_000 + r % 900_000_000
            }
        });
    }

    #[test]
    fn matches_reference_heap_beyond_top_level() {
        // A quarter of the entries lie past the top level, several top
        // blocks apart, so the wheel empties and the queue jumps to the
        // far heap's minimum again and again; the rest spread over four
        // level-2 buckets, interleaving with the far entries each jump
        // pulls.
        equivalence_run(5, 2_000, 20_000, |r| {
            if r.is_multiple_of(4) {
                TOP + r % (8 * TOP)
            } else {
                r % (4 * L2)
            }
        });
    }

    #[test]
    fn far_jump_pulls_the_whole_top_block() {
        // After the jump to `a`, `b` shares its top block and must leave
        // the far heap with it: `c`, scheduled later, lands in level 2
        // and would otherwise pop before `b`.
        let mut p = Pair::new();
        let a = 3 * TOP + 10;
        p.schedule(a);
        p.schedule(a + 5 * L2);
        p.schedule(4 * TOP);
        assert_eq!(p.pop(), Some(a));
        p.schedule(a + 6 * L2);
        assert_eq!(p.pop(), Some(a + 5 * L2));
        p.drain();
    }

    #[test]
    fn past_inserts_pop_before_future_work() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1_000_000), "future");
        // Popping "future" advances the current tick to t=1 000 000...
        assert_eq!(q.pop().map(|(_, e)| e), Some("future"));
        // ...but an insert earlier than it must still pop first (the hot
        // heap absorbs the past).
        q.schedule_at(SimTime(10), "past");
        q.schedule_at(SimTime(1_000_050), "near");
        assert_eq!(q.pop(), Some((SimTime(10), "past")));
        assert_eq!(q.pop(), Some((SimTime(1_000_050), "near")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn past_inserts_right_after_a_jump() {
        // Jump to the far heap, and advance through a level-2 bucket; right
        // after each, insert entries before the new tick, on it, and in
        // every level above it.
        for first in [3 * TOP + 12_345, 5 * L2 + 777] {
            let mut p = Pair::new();
            p.schedule(first);
            p.schedule(first + 3 * L2);
            p.schedule(first + 9 * TOP);
            assert_eq!(p.pop(), Some(first));
            for at in [
                0,
                first - 1,
                first - TICK,
                first - L1,
                first - L2,
                first,
                first + 1,
                first + TICK,
                first + L1,
                first + L2,
                first + TOP,
            ] {
                p.schedule(at);
            }
            // Interleave pops with more past inserts at the popped time.
            while let Some(t) = p.pop() {
                if t % 3 == 0 && p.next_id < 40 {
                    p.schedule(t.saturating_sub(L1));
                    p.schedule(t);
                }
            }
            p.drain();
        }
    }

    #[test]
    fn ties_on_level_and_bucket_boundaries() {
        // Several entries exactly on, and one µs either side of, every
        // tick, level-1, level-2 and top-level boundary near a few
        // multiples — entries that share a bucket, straddle two buckets,
        // or sit at a level's last slot.
        let mut p = Pair::new();
        for width in [TICK, L1, L2, TOP] {
            for k in [1, 2, 3, 2047, 2048, 2049] {
                let edge = width * k;
                for at in [edge - 1, edge, edge, edge + 1, edge] {
                    p.schedule(at);
                }
            }
        }
        // Pop half, then repeat the same boundaries: now relative to a
        // later tick, so they land in different levels.
        for _ in 0..p.wheel.len() / 2 {
            p.pop();
        }
        for width in [TICK, L1, L2] {
            for k in [1, 2047, 2048] {
                let edge = p.now + width * k - p.now % width;
                for at in [edge - 1, edge, edge, edge + 1] {
                    p.schedule(at);
                }
            }
        }
        p.drain();
    }

    #[test]
    fn cascades_land_entries_directly_in_hot() {
        // Entries on the first tick of a level-1 or level-2 bucket are on
        // the new current tick when that bucket cascades, so they go
        // straight to hot alongside the bucket's later entries.
        let mut p = Pair::new();
        for base in [7 * L1, 5 * L2, 5 * L2 + 3 * L1] {
            for off in [TICK + 5, 0, 63, 1, 0, L1 - 1, 2 * TICK] {
                p.schedule(base + off);
            }
        }
        p.schedule(0);
        assert_eq!(p.pop(), Some(0));
        let q = &p.wheel;
        assert!(q.hot.is_empty());
        assert!(q.levels[1].summary != 0 && q.levels[2].summary != 0);
        // The next pop cascades level 1's bucket 7: its four entries on
        // the bucket's first tick go to hot, and one of them pops.
        assert_eq!(p.pop(), Some(7 * L1));
        assert_eq!(p.wheel.hot.len(), 3);
        p.drain();
    }

    #[test]
    fn len_tracks_across_tiers() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 0); // hot
        q.schedule_at(SimTime(TICK * 10), 1); // level 0
        q.schedule_at(SimTime(L2 * 10), 2); // level 2
        q.schedule_at(SimTime(u64::MAX / 2), 3); // far
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(TICK * 10), 1)));
        assert_eq!(q.pop(), Some((SimTime(L2 * 10), 2)));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX / 2), 3)));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn footprint_reports_peaks_after_drain() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime(i * 1_000_000), i);
        }
        q.schedule_at(SimTime(TOP * 2), 100);
        while q.pop().is_some() {}
        let f = q.footprint();
        // Entry at t=0 went to hot; the rest waited in the wheel, except
        // the one past the top level.
        assert_eq!(f.hot.live, 1);
        assert_eq!(f.wheel.live, 99);
        assert_eq!(f.far.live, 1);
        assert!(f.wheel.capacity >= 99);
        let slot = std::mem::size_of::<Entry<u64>>();
        assert!(f.wheel.bytes >= f.wheel.capacity * slot);
        assert_eq!(f.far.bytes, f.far.capacity * slot);
    }
}
