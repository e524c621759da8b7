//! Event-queue microbenches: `exo_sim::EventQueue` on the schedule
//! shapes the engine produces.
//!
//! Patterns:
//! - `uniform`: delays up to 4 ms (transfer/CPU churn), heavy tie
//!   density.
//! - `bursty`: mostly short delays with occasional seconds-ahead
//!   completions. Its queue stays a few tens of thousands deep, and
//!   the long delays are a sixteenth of the schedules, so it never
//!   reaches the backlog `xl_simple` builds.
//! - `sparse`: milliseconds-apart events at low queue depth.
//!
//! `backlogged` is the shape `xl_simple` builds: some 180k device
//! completions booked 10–1,000 s ahead behind FIFO servers. It runs
//! through the engine against a toy simulation of 200 devices, once
//! with each completion held in its server's ring (`rings/`, what the
//! runtime does) and once with every completion scheduled as its own
//! event (`per_op/`, what it did before the rings). A 160k prefill is
//! grown by 100k more ops, two booked per completion, then drained.
//!
//! Run with `cargo bench -p exo-sim --bench queue`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use exo_sim::engine::{run_with_driver, Ctx, Reply, Simulation};
use exo_sim::{EventQueue, IoKind, Resource, RingId, RingPool, SimDuration, SimTime};

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

/// Drives a queue through `OPS` mixed operations (~2 schedules per pop,
/// like the engine) with delays drawn from `spread`, then drains.
fn drive(spread: fn(u64) -> u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = Lcg(1);
    let mut now = 0u64;
    let mut acc = 0u64;
    for id in 0..OPS {
        let r = rng.next();
        if !r.is_multiple_of(3) {
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

/// Devices of the backlogged shape: 200 single-server FIFO devices at
/// 100 MB/s, so an op of up to 200 MB (up to 2 s) lands 10–1,000 s
/// behind a per-device backlog of some 800 ops.
const DEVICES: usize = 200;
const PREFILL: u64 = 160_000;

/// The toy simulation: every completion books two more ops until `OPS`
/// have been booked, and the run ends when the last one completes.
struct Backlog {
    rings: bool,
    devs: Vec<Resource>,
    pool: RingPool<u64>,
    rng: Lcg,
    booked: u64,
    outstanding: u64,
    acc: u64,
    reply: Option<Reply<u64>>,
}

enum Ev {
    Ring { dev: usize, ring: RingId, rec: u64 },
    Op(u64),
}

impl Backlog {
    fn new(rings: bool) -> Self {
        Backlog {
            rings,
            devs: (0..DEVICES)
                .map(|i| {
                    Resource::new(
                        format!("d{i}"),
                        1,
                        100e6,
                        SimDuration::ZERO,
                        SimDuration(20),
                    )
                })
                .collect(),
            pool: RingPool::new(),
            rng: Lcg(1),
            booked: 0,
            outstanding: 0,
            acc: 0,
            reply: None,
        }
    }

    fn book(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let r = self.rng.next();
        let (dev, size, rec) = (r as usize % DEVICES, r % 200_000_000, self.booked);
        let now = ctx.now();
        if self.rings {
            let arm = move |ring, rec| Ev::Ring { dev, ring, rec };
            let kind = IoKind::Sequential;
            self.devs[dev].submit_timed(ctx, &mut self.pool, now, size, kind, rec, arm);
        } else {
            let end = self.devs[dev].submit(now, size, IoKind::Sequential);
            ctx.schedule_at(end, Ev::Op(rec));
        }
        self.booked += 1;
        self.outstanding += 1;
    }
}

impl Simulation for Backlog {
    type Event = Ev;
    type Command = Reply<u64>;

    fn on_command(&mut self, ctx: &mut Ctx<'_, Ev>, reply: Reply<u64>) {
        for _ in 0..PREFILL {
            self.book(ctx);
        }
        self.reply = Some(reply);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let rec = match ev {
            Ev::Ring { dev, ring, rec } => {
                let arm = move |ring, rec| Ev::Ring { dev, ring, rec };
                self.devs[dev].fired(ctx, &mut self.pool, ring, arm);
                rec
            }
            Ev::Op(rec) => rec,
        };
        self.acc = self.acc.wrapping_add(rec);
        self.outstanding -= 1;
        for _ in 0..2 {
            if self.booked < PREFILL + OPS {
                self.book(ctx);
            }
        }
        if self.outstanding == 0 {
            if let Some(reply) = self.reply.take() {
                ctx.reply(reply, self.acc);
            }
        }
    }
}

/// One backlogged run through the engine; returns the completion sum.
fn drive_backlog(rings: bool) -> u64 {
    run_with_driver(Backlog::new(rings), |conn| conn.call(|r| r)).2
}

/// A schedule shape: delays drawn from `spread`.
#[derive(Clone, Copy)]
struct Pattern {
    name: &'static str,
    spread: fn(u64) -> u64,
}

const PATTERNS: [Pattern; 3] = [
    Pattern {
        name: "uniform",
        spread: uniform,
    },
    Pattern {
        name: "bursty",
        spread: bursty,
    },
    Pattern {
        name: "sparse",
        spread: sparse,
    },
];

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS));
    for p in PATTERNS {
        g.bench_function(p.name, |b| b.iter(|| black_box(drive(p.spread))));
    }
    assert_eq!(drive_backlog(true), drive_backlog(false));
    g.throughput(Throughput::Elements(PREFILL + OPS));
    g.bench_function("rings/backlogged", |b| {
        b.iter(|| black_box(drive_backlog(true)))
    });
    g.bench_function("per_op/backlogged", |b| {
        b.iter(|| black_box(drive_backlog(false)))
    });
    g.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
