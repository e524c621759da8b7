//! Event-queue microbenches: the hierarchical timing wheel
//! (`exo_sim::EventQueue`) against the plain binary heap it replaced,
//! on the schedule shapes the engine actually produces.
//!
//! Patterns:
//! - `uniform`: short delays within one level-1 bucket (transfer/CPU
//!   churn), heavy tie density.
//! - `bursty`: mostly short delays with occasional seconds-ahead
//!   completions. Its queue stays a few tens of thousands deep, and
//!   the long delays are a sixteenth of the schedules, so it never
//!   reaches the backlog `xl_simple` builds.
//! - `sparse`: milliseconds-apart events at low queue depth, where
//!   most pops search past empty buckets.
//! - `backlogged`: the measured `xl_simple` shape: half the delays
//!   10–100 s ahead, half 100–1,000 s, about 180k pending (a 160k
//!   prefill that the mixed operations grow by ~33k).
//!
//! Run with `cargo bench -p exo-sim --bench queue`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use exo_sim::{EventQueue, SimTime};

/// The pre-refactor queue: one binary heap over the whole pending set.
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

struct HeapEntry {
    at: SimTime,
    seq: u64,
    event: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
    fn schedule_at(&mut self, at: SimTime, event: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }
}

/// Deterministic splitmix-style generator (benches must be reproducible
/// without ambient RNG).
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

const OPS: u64 = 100_000;

/// Drives a queue through `prefill` schedules and then `OPS` mixed
/// operations (~2 schedules per pop, like the engine) with delays drawn
/// from `spread`, then drains.
macro_rules! drive {
    ($queue:expr, $pattern:expr) => {{
        let mut q = $queue;
        let Pattern {
            spread, prefill, ..
        } = $pattern;
        let mut rng = Lcg(1);
        let mut now = 0u64;
        let mut acc = 0u64;
        for id in 0..prefill {
            q.schedule_at(SimTime(spread(rng.next())), OPS + id);
        }
        for id in 0..OPS {
            let r = rng.next();
            if r % 3 != 0 {
                q.schedule_at(SimTime(now + spread(rng.next())), id);
            } else if let Some((t, e)) = q.pop() {
                now = now.max(t.0);
                acc = acc.wrapping_add(e);
            }
        }
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    }};
}

fn uniform(r: u64) -> u64 {
    r % 4_096
}

fn bursty(r: u64) -> u64 {
    if r.is_multiple_of(16) {
        1_000_000 + r % 5_000_000
    } else {
        r % 256
    }
}

fn sparse(r: u64) -> u64 {
    1_000 + r % 20_000
}

fn backlogged(r: u64) -> u64 {
    if r.is_multiple_of(2) {
        10_000_000 + r % 90_000_000
    } else {
        100_000_000 + r % 900_000_000
    }
}

/// A schedule shape: delays drawn from `spread`, after `prefill`
/// schedules that set the queue's standing depth.
#[derive(Clone, Copy)]
struct Pattern {
    name: &'static str,
    spread: fn(u64) -> u64,
    prefill: u64,
}

const PATTERNS: [Pattern; 4] = [
    Pattern {
        name: "uniform",
        spread: uniform,
        prefill: 0,
    },
    Pattern {
        name: "bursty",
        spread: bursty,
        prefill: 0,
    },
    Pattern {
        name: "sparse",
        spread: sparse,
        prefill: 0,
    },
    Pattern {
        name: "backlogged",
        spread: backlogged,
        prefill: 160_000,
    },
];

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS));
    for p in PATTERNS {
        g.bench_function(format!("wheel/{}", p.name), |b| {
            b.iter(|| black_box(drive!(EventQueue::new(), p)))
        });
        g.bench_function(format!("heap/{}", p.name), |b| {
            b.iter(|| black_box(drive!(HeapQueue::new(), p)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
