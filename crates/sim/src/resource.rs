//! k-server FIFO queueing resources.
//!
//! Disks and NIC directions are modelled as a bank of `k` identical servers
//! fed by a single FIFO queue. An operation's *service time* is
//! `seek + size / per_server_bandwidth`; its *completion time* additionally
//! includes whatever queueing delay the FIFO imposes.
//!
//! This is intentionally simple — no processor sharing, no reordering — but
//! it captures the two effects the paper's evaluation hinges on:
//!
//! 1. **Random-IOPS limits.** A 6-spindle HDD array with a ~4 ms seek tops
//!    out near `6 / 4ms = 1500` random IOPS regardless of bandwidth, so
//!    shuffling many small blocks collapses throughput (Fig 4a, Fig 7).
//! 2. **Contention.** Concurrent spill writes, restores and remote reads
//!    share the same servers, so overlapping I/O with compute (pipelining)
//!    shows up as real wins rather than free parallelism.
//!
//! # Completion rings
//!
//! A server is FIFO, so the ends of the ops booked on it never decrease:
//! `end = max(free_at, now) + service`, and `free_at` becomes that end.
//! [`Resource::submit_timed`] uses this to keep an op's completion out
//! of the engine's event queue until it is next. Each server keeps a
//! *ring* of `(end, seq, record)` entries, where `seq` is the engine
//! sequence number reserved at submit. The engine queue holds only the
//! ring's head, as the caller's event, scheduled at its `(end, seq)`.
//! When the head fires, [`Resource::fired`] schedules the next entry
//! under the sequence number it reserved. Every completion therefore
//! fires at the same `(time, seq)` as if it had been scheduled at submit,
//! and the engine's pop order is unchanged bit for bit. All rings of a
//! simulation draw 16-entry chunks from one [`RingPool`].

use std::collections::VecDeque;

use crate::engine::Ctx;
use crate::queue::TableFootprint;
use crate::time::{SimDuration, SimTime};

/// Whether an I/O op pays the device's random-access penalty.
///
/// Sequential ops model streaming reads/writes of large files (spill files
/// fused to ≥100 MB, TeraSort input partitions). Random ops model picking a
/// small block out of a large file (un-fused spills, shuffle block reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// Streaming access: pays only `size / bandwidth` plus a tiny fixed
    /// per-op overhead.
    Sequential,
    /// Random access: pays the device's full seek/access latency first.
    Random,
}

/// The ring a timed op's completion belongs to: one server of one
/// resource, between two resets. Carry it in the completion event and
/// hand it back to [`Resource::fired`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingId {
    server: u16,
    /// The resource's reset count when the op was booked.
    gen: u32,
}

/// One booked completion: its end, the engine sequence number reserved
/// for it, and the caller's record.
struct Completion<R> {
    end: SimTime,
    seq: u64,
    rec: R,
}

/// Entries per ring chunk: the most a non-empty ring leaves unused.
const CHUNK: usize = 16;

/// Chunks per pool page, the unit the pool allocates in (16 KiB of
/// 16-B-record entries).
const PAGE: usize = 32;

/// No chunk.
const NIL: u32 = u32::MAX;

/// Where a chunk's entries sit in its page, and which chunk follows it
/// in its ring (or, while pooled, on the free list).
#[derive(Clone, Copy)]
struct Link {
    next: u32,
    /// Index of the chunk's first entry.
    head: u8,
    /// Entries from `head` on.
    len: u8,
}

/// The chunks every ring of a simulation draws from, `PAGE` chunks to
/// an allocation. Emptied chunks go on a free list, so the pool is
/// sized by the most completions the rings held at once, never by the
/// sum of each ring's own peak, and nothing is freed.
pub struct RingPool<R> {
    pages: Vec<Box<[Option<Completion<R>>]>>,
    /// One per chunk allocated.
    links: Vec<Link>,
    /// Head of the free list.
    free: u32,
    /// Completions held now, and the most held at once.
    live: usize,
    peak: usize,
}

impl<R> Default for RingPool<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> RingPool<R> {
    /// An empty pool; it allocates on the first booking.
    pub fn new() -> Self {
        RingPool {
            pages: Vec::new(),
            links: Vec::new(),
            free: NIL,
            live: 0,
            peak: 0,
        }
    }

    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let c = self.free;
            self.free = std::mem::replace(&mut self.links[c as usize].next, NIL);
            return c;
        }
        let c = self.links.len();
        if c.is_multiple_of(PAGE) {
            self.pages.push((0..PAGE * CHUNK).map(|_| None).collect());
        }
        self.links.push(Link {
            next: NIL,
            head: 0,
            len: 0,
        });
        c as u32
    }

    /// Entry `i` of chunk `c`.
    fn slot(&mut self, c: u32, i: u8) -> &mut Option<Completion<R>> {
        let c = c as usize;
        &mut self.pages[c / PAGE][c % PAGE * CHUNK + i as usize]
    }

    /// Peak completions held, and the pages allocated with the chunk
    /// links. Nothing is freed, so this is the peak.
    pub fn footprint(&self) -> TableFootprint {
        let slots = self.pages.len() * PAGE * CHUNK;
        let mut f = TableFootprint::of::<Option<Completion<R>>>(self.peak, slots);
        let links = self.links.capacity() * std::mem::size_of::<Link>();
        f.bytes += links;
        f.written += links;
        f
    }
}

/// One server's completions behind its armed head, as a chain of pool
/// chunks.
struct Ring {
    head: u32,
    tail: u32,
    len: usize,
}

impl Ring {
    const EMPTY: Ring = Ring {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    fn push<R>(&mut self, pool: &mut RingPool<R>, c: Completion<R>) {
        let full = |l: Link| l.head as usize + l.len as usize == CHUNK;
        if self.tail == NIL || full(pool.links[self.tail as usize]) {
            let fresh = pool.alloc();
            match self.tail {
                NIL => self.head = fresh,
                tail => pool.links[tail as usize].next = fresh,
            }
            self.tail = fresh;
        }
        let link = &mut pool.links[self.tail as usize];
        let at = link.head + link.len;
        link.len += 1;
        *pool.slot(self.tail, at) = Some(c);
        self.len += 1;
        pool.live += 1;
        pool.peak = pool.peak.max(pool.live);
    }

    fn pop<R>(&mut self, pool: &mut RingPool<R>) -> Option<Completion<R>> {
        if self.head == NIL {
            return None;
        }
        let h = self.head;
        let c = pool.slot(h, pool.links[h as usize].head).take()?;
        let link = &mut pool.links[h as usize];
        link.head += 1;
        link.len -= 1;
        if link.len == 0 {
            link.head = 0;
            self.head = std::mem::replace(&mut link.next, pool.free);
            pool.free = h;
            if self.head == NIL {
                self.tail = NIL;
            }
        }
        self.len -= 1;
        pool.live -= 1;
        Some(c)
    }

    /// Entries at the front that end at or before `now`.
    fn ended_by<R>(&self, pool: &RingPool<R>, now: SimTime) -> usize {
        let mut n = 0;
        let mut at = self.head;
        while at != NIL {
            let link = pool.links[at as usize];
            let page = &pool.pages[at as usize / PAGE];
            let first = at as usize % PAGE * CHUNK + link.head as usize;
            let entries = &page[first..first + link.len as usize];
            let ended = entries
                .iter()
                .take_while(|c| c.as_ref().is_some_and(|c| c.end <= now))
                .count();
            n += ended;
            if ended < entries.len() {
                break;
            }
            at = link.next;
        }
        n
    }
}

/// One FIFO server of a [`Resource`].
struct Server {
    /// Earliest time the server is free.
    free_at: SimTime,
    /// End of the timed op whose completion event is in the engine
    /// queue (the ring's head), if any.
    armed: Option<SimTime>,
    /// Timed ops booked behind the armed one, in booking order.
    ring: Ring,
    /// Tracked untimed ops `(end, size)` not yet seen ended by
    /// [`Resource::pending_at`], in booking order.
    untimed: VecDeque<(SimTime, u64)>,
    /// Sum of the sizes in `untimed`.
    untimed_bytes: u64,
}

/// A bank of `k` identical FIFO servers with a shared queue.
///
/// `Resource` is bookkeeping over virtual time. [`Resource::submit`]
/// returns when an op will finish and leaves any completion event to
/// the caller; [`Resource::submit_timed`] also owns the op's completion
/// until it is next to fire (see the module docs).
pub struct Resource {
    /// Human-readable label for diagnostics (`"disk[3]"`, `"nic-tx[0]"`).
    label: String,
    /// Aggregate bandwidth in bytes/second across all servers.
    total_bw: f64,
    /// Seek / access latency charged to random ops.
    seek: SimDuration,
    /// Fixed per-op overhead charged to every op (request setup, interrupt).
    per_op: SimDuration,
    servers: Vec<Server>,
    /// Resets so far: the generation of the current rings.
    gen: u32,
}

impl Resource {
    /// Create a resource with `servers` parallel units sharing
    /// `total_bw_bytes_per_sec` of aggregate bandwidth.
    pub fn new(
        label: impl Into<String>,
        servers: usize,
        total_bw_bytes_per_sec: f64,
        seek: SimDuration,
        per_op: SimDuration,
    ) -> Self {
        assert!(servers >= 1, "resource needs at least one server");
        assert!(
            servers <= u16::MAX as usize,
            "server index must fit a RingId"
        );
        assert!(total_bw_bytes_per_sec > 0.0, "bandwidth must be positive");
        Resource {
            label: label.into(),
            total_bw: total_bw_bytes_per_sec,
            seek,
            per_op,
            servers: (0..servers)
                .map(|_| Server {
                    free_at: SimTime::ZERO,
                    armed: None,
                    ring: Ring::EMPTY,
                    untimed: VecDeque::new(),
                    untimed_bytes: 0,
                })
                .collect(),
            gen: 0,
        }
    }

    /// Service time of an op in isolation (no queueing).
    pub fn service_time(&self, size: u64, kind: IoKind) -> SimDuration {
        let per_server_bw = self.total_bw / self.servers.len() as f64;
        let xfer = SimDuration::from_secs_f64(size as f64 / per_server_bw);
        let latency = match kind {
            IoKind::Sequential => self.per_op,
            IoKind::Random => self.per_op + self.seek,
        };
        latency + xfer
    }

    /// Books an op of `size` bytes at `now` on the earliest-free server
    /// (the first, on a tie), FIFO behind previously booked ops, and
    /// returns that server and the op's completion time.
    fn book(&mut self, now: SimTime, size: u64, kind: IoKind) -> (usize, SimTime) {
        let service = self.service_time(size, kind);
        // audit:allow(P01): `new` asserts servers >= 1, so `servers` is
        // never empty and min always exists.
        let (idx, server) = self
            .servers
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, s)| s.free_at)
            .expect("at least one server");
        let end = server.free_at.max(now) + service;
        server.free_at = end;
        (idx, end)
    }

    /// Submit an op of `size` bytes at `now`; returns its completion time.
    ///
    /// The op occupies the earliest-free server starting no earlier than
    /// `now`, FIFO with respect to previously submitted ops.
    pub fn submit(&mut self, now: SimTime, size: u64, kind: IoKind) -> SimTime {
        self.book(now, size, kind).1
    }

    /// [`Resource::submit`] for an op whose end no event waits for,
    /// remembered until [`Resource::pending_at`] sees it end. Book such
    /// ops this way only while something samples `pending_at`.
    pub fn submit_tracked(&mut self, now: SimTime, size: u64, kind: IoKind) -> SimTime {
        let (idx, end) = self.book(now, size, kind);
        let server = &mut self.servers[idx];
        server.untimed.push_back((end, size));
        server.untimed_bytes += size;
        end
    }

    /// Submit an op whose completion fires as an engine event at its end;
    /// returns that end.
    ///
    /// `event` builds the event from the op's ring and `rec`, the record
    /// the caller wants back. The event fires at the op's end, ordered
    /// against every other event by a sequence number taken now, exactly
    /// as `ctx.schedule_at(end, ..)` would. Its handler must call
    /// [`Resource::fired`] with the same `pool` and builder.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_timed<R, E>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        pool: &mut RingPool<R>,
        now: SimTime,
        size: u64,
        kind: IoKind,
        rec: R,
        event: impl FnOnce(RingId, R) -> E,
    ) -> SimTime {
        let (idx, end) = self.book(now, size, kind);
        let ring = RingId {
            server: idx as u16,
            gen: self.gen,
        };
        let seq = ctx.reserve_seq();
        let server = &mut self.servers[idx];
        if server.armed.is_some() {
            server.ring.push(pool, Completion { end, seq, rec });
        } else {
            server.armed = Some(end);
            ctx.schedule_reserved(end, seq, event(ring, rec));
        }
        end
    }

    /// The completion event of an op booked on `ring` fired: arm the
    /// ring's next op. Returns false, and arms nothing, for an op booked
    /// before the last [`Resource::reset`].
    pub fn fired<R, E>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        pool: &mut RingPool<R>,
        ring: RingId,
        event: impl FnOnce(RingId, R) -> E,
    ) -> bool {
        if ring.gen != self.gen {
            return false;
        }
        let server = &mut self.servers[ring.server as usize];
        server.armed = server.ring.pop(pool).map(|c| {
            ctx.schedule_reserved(c.end, c.seq, event(ring, c.rec));
            c.end
        });
        true
    }

    /// Drop all queued/served state, e.g. when the owning node dies:
    /// every server is free at `now`. Timed ops still waiting in the
    /// rings go to the engine queue as events of their own, at their
    /// `(end, seq)`, where [`Resource::fired`] reports them stale.
    pub fn reset<R, E>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        pool: &mut RingPool<R>,
        now: SimTime,
        mut event: impl FnMut(RingId, R) -> E,
    ) {
        for (idx, server) in self.servers.iter_mut().enumerate() {
            let ring = RingId {
                server: idx as u16,
                gen: self.gen,
            };
            while let Some(c) = server.ring.pop(pool) {
                ctx.schedule_reserved(c.end, c.seq, event(ring, c.rec));
            }
            server.armed = None;
            server.free_at = now;
            server.untimed.clear();
            server.untimed_bytes = 0;
        }
        self.gen += 1;
    }

    /// `(ops_in_flight, bytes_in_flight)` at `now`: the ops booked since
    /// the last reset that end after `now`. Ops count the timed ops and
    /// the tracked untimed ones; bytes sum the sizes of the tracked
    /// untimed ops (a timed op's ring slot holds its record, not its
    /// size). An untracked [`Resource::submit`] is never counted.
    ///
    /// `now` must not decrease between calls: untimed ops seen ended are
    /// forgotten, so each is walked once.
    pub fn pending_at<R>(&mut self, pool: &RingPool<R>, now: SimTime) -> (u32, u64) {
        let mut ops = 0usize;
        let mut bytes = 0u64;
        for s in &mut self.servers {
            while let Some(&(end, size)) = s.untimed.front() {
                if end > now {
                    break;
                }
                s.untimed_bytes -= size;
                s.untimed.pop_front();
            }
            ops += s.untimed.len();
            bytes += s.untimed_bytes;
            // The armed op ends first; only ties with `now` have ended.
            match s.armed {
                Some(end) if end > now => ops += 1 + s.ring.len,
                Some(_) => ops += s.ring.len - s.ring.ended_by(pool, now),
                None => {}
            }
        }
        (ops as u32, bytes)
    }

    /// Earliest time any server is free (≥ `now` means fully busy).
    pub fn earliest_free(&self) -> SimTime {
        // audit:allow(P01): `new` asserts servers >= 1 — min always exists.
        self.servers
            .iter()
            .map(|s| s.free_at)
            .min()
            .expect("at least one server")
    }

    /// Queueing delay a newly submitted op would see at `now`: how far in
    /// the future the earliest-free server is booked. Zero while any
    /// server is idle, so it measures genuine backlog, not utilisation.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        let free = self.earliest_free();
        if free > now {
            free - now
        } else {
            SimDuration::ZERO
        }
    }

    /// Diagnostic label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    fn disk() -> Resource {
        // 2 servers, 200 MB/s aggregate => 100 MB/s each, 10 ms seek.
        Resource::new(
            "d",
            2,
            200.0 * 1e6,
            SimDuration::from_millis(10),
            SimDuration::from_micros(50),
        )
    }

    #[test]
    fn sequential_op_is_bandwidth_bound() {
        let mut d = disk();
        // 100 MB at 100 MB/s per server = 1 s + 50 µs overhead.
        let end = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        assert_eq!(end.as_micros(), 1_000_050);
    }

    #[test]
    fn random_op_pays_seek() {
        let mut d = disk();
        let end = d.submit(SimTime::ZERO, 0, IoKind::Random);
        assert_eq!(end.as_micros(), 10_050);
    }

    #[test]
    fn two_servers_run_in_parallel_then_queue() {
        let mut d = disk();
        let a = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        let b = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        // Both servers busy in parallel.
        assert_eq!(a, b);
        // Third op queues behind the earliest-free server.
        let c = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        assert_eq!(c.as_micros(), 2_000_100);
    }

    #[test]
    fn random_iops_emerge_from_seek() {
        // 6 spindles, 4 ms seek: ~1500 random IOPS.
        let mut d = Resource::new(
            "hdd",
            6,
            1100.0 * 1e6,
            SimDuration::from_millis(4),
            SimDuration::ZERO,
        );
        let n = 1500;
        let mut end = SimTime::ZERO;
        for _ in 0..n {
            end = d.submit(SimTime::ZERO, 0, IoKind::Random);
        }
        // 1500 ops * 4ms / 6 servers = 1.0 s.
        assert_eq!(end.as_micros(), 1_000_000);
    }

    #[test]
    fn pending_counts_timed_and_tracked_ops_only() {
        let (mut q, mut pool) = (EventQueue::new(), RingPool::new());
        let mut woken = 0;
        let mut ctx = Ctx::new(SimTime::ZERO, &mut q, &mut woken);
        let mut d = disk();
        // Untracked: never counted.
        d.submit(SimTime::ZERO, 1_000_000, IoKind::Sequential);
        assert_eq!(d.pending_at(&pool, SimTime::ZERO), (0, 0));
        let end = d.submit_tracked(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        assert_eq!(d.pending_at(&pool, SimTime::ZERO), (1, 100_000_000));
        // A timed op counts, but its record carries no size.
        let timed = d.submit_timed(
            &mut ctx,
            &mut pool,
            SimTime::ZERO,
            7,
            IoKind::Random,
            0u8,
            |_, r| r,
        );
        assert_eq!(d.pending_at(&pool, SimTime::ZERO), (2, 100_000_000));
        assert!(timed < end);
        assert_eq!(d.pending_at(&pool, timed), (1, 100_000_000));
        // After completion nothing is in flight.
        assert_eq!(d.pending_at(&pool, end), (0, 0));
    }

    #[test]
    fn queue_delay_reports_booked_time() {
        let mut d = disk();
        assert_eq!(d.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        // One op leaves the second server idle: still no queueing delay.
        d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        assert_eq!(d.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        // Both busy: a new op waits for the earliest-free server.
        let end = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        assert_eq!(d.queue_delay(SimTime::ZERO), end - SimTime::ZERO);
        assert_eq!(d.queue_delay(end), SimDuration::ZERO);
    }

    #[test]
    fn reset_frees_servers() {
        let (mut q, mut pool) = (EventQueue::<u8>::new(), RingPool::<u8>::new());
        let mut woken = 0;
        let mut ctx = Ctx::new(SimTime::ZERO, &mut q, &mut woken);
        let mut d = disk();
        d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        d.reset(&mut ctx, &mut pool, SimTime(5), |_, r| r);
        assert_eq!(d.earliest_free(), SimTime(5));
    }

    /// An event of the ring side of the equivalence test: a ring head, or
    /// a plain timer. Records and timer ids are the sequence numbers the
    /// reference assigns, so equal pop streams mean equal `(time, seq,
    /// event)` streams.
    enum Ev {
        Head { res: usize, ring: RingId, rec: u64 },
        Timer(u64),
    }

    /// Devices as the runtime books them: disk-like (3 servers), one NIC
    /// direction per side (1 server), and a 2-server device without
    /// per-op latency, whose empty ops take no time and so tie.
    fn devices() -> Vec<Resource> {
        vec![
            Resource::new(
                "disk",
                3,
                300e6,
                SimDuration::from_millis(4),
                SimDuration(20),
            ),
            Resource::new("tx", 1, 100e6, SimDuration::ZERO, SimDuration(30)),
            Resource::new("rx", 1, 100e6, SimDuration::ZERO, SimDuration(30)),
            Resource::new("ssd", 2, 500e6, SimDuration::ZERO, SimDuration::ZERO),
        ]
    }

    /// The per-op reference: every completion is its own event in one
    /// heap, and every op booked since a device's last reset is listed
    /// for `pending_at`.
    #[derive(Default)]
    struct Reference {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        seq: u64,
        /// Per op id: the device it was booked on and its generation
        /// (`None` for a timer).
        ops: Vec<Option<(usize, u32)>>,
        /// Per device: `(end, size, untimed)` since the last reset.
        booked: Vec<Vec<(SimTime, u64, bool)>>,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, op: Option<(usize, u32)>) -> u64 {
            let id = self.seq;
            self.seq += 1;
            self.heap.push(std::cmp::Reverse((at, id)));
            self.ops.push(op);
            id
        }

        fn pending(&self, dev: usize, now: SimTime) -> (u32, u64) {
            let live = self.booked[dev].iter().filter(|b| b.0 > now);
            let bytes = live.clone().filter(|b| b.2).map(|b| b.1).sum();
            (live.count() as u32, bytes)
        }
    }

    /// Drives the rings and the reference with one op script; every pop
    /// must agree on `(time, id)` and on whether the op is current.
    struct Harness {
        q: EventQueue<Ev>,
        pool: RingPool<u64>,
        devs: Vec<Resource>,
        gens: Vec<u32>,
        r: Reference,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            let devs = devices();
            Harness {
                q: EventQueue::new(),
                pool: RingPool::new(),
                gens: vec![0; devs.len()],
                r: Reference {
                    booked: vec![Vec::new(); devs.len()],
                    ..Reference::default()
                },
                devs,
                now: SimTime::ZERO,
            }
        }

        /// A timed op on `dev`, submitted at `at` (≥ now).
        fn timed(&mut self, dev: usize, at: SimTime, size: u64) -> SimTime {
            let rec = self.r.seq;
            let mut woken = 0;
            let mut ctx = Ctx::new(self.now, &mut self.q, &mut woken);
            let kind = if size.is_multiple_of(2) {
                IoKind::Sequential
            } else {
                IoKind::Random
            };
            let end = self.devs[dev].submit_timed(
                &mut ctx,
                &mut self.pool,
                at,
                size,
                kind,
                rec,
                |ring, rec| Ev::Head {
                    res: dev,
                    ring,
                    rec,
                },
            );
            let id = self.r.schedule(end, Some((dev, self.gens[dev])));
            assert_eq!(id, rec);
            self.r.booked[dev].push((end, size, false));
            end
        }

        fn untimed(&mut self, dev: usize, at: SimTime, size: u64) -> SimTime {
            let end = self.devs[dev].submit_tracked(at, size, IoKind::Sequential);
            self.r.booked[dev].push((end, size, true));
            end
        }

        fn timer(&mut self, delay: u64) {
            let at = self.now + SimDuration(delay);
            let id = self.r.schedule(at, None);
            self.q.schedule_at(at, Ev::Timer(id));
        }

        fn kill(&mut self, dev: usize) {
            let mut woken = 0;
            let mut ctx = Ctx::new(self.now, &mut self.q, &mut woken);
            self.devs[dev].reset(&mut ctx, &mut self.pool, self.now, |ring, rec| Ev::Head {
                res: dev,
                ring,
                rec,
            });
            self.gens[dev] += 1;
            self.r.booked[dev].clear();
        }

        /// Pops one event from both sides; `None` once both are empty.
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let want = self.r.heap.pop().map(|std::cmp::Reverse(e)| e);
            let Some((t, ev)) = self.q.pop() else {
                assert_eq!(want, None, "rings lost an event");
                return None;
            };
            assert!(t >= self.now, "time went backwards");
            self.now = t;
            let got = match ev {
                Ev::Timer(id) => id,
                Ev::Head { res, ring, rec } => {
                    let mut woken = 0;
                    let mut ctx = Ctx::new(t, &mut self.q, &mut woken);
                    let current =
                        self.devs[res].fired(&mut ctx, &mut self.pool, ring, |ring, rec| {
                            Ev::Head { res, ring, rec }
                        });
                    let (dev, gen) = self.r.ops[rec as usize].expect("a device op");
                    assert_eq!((dev, current), (res, gen == self.gens[res]), "op {rec}");
                    rec
                }
            };
            assert_eq!(
                Some((t, got)),
                want,
                "pop diverged from the per-op reference"
            );
            Some((t, got))
        }

        fn sample(&mut self) {
            for dev in 0..self.devs.len() {
                let got = self.devs[dev].pending_at(&self.pool, self.now);
                assert_eq!(
                    got,
                    self.r.pending(dev, self.now),
                    "pending_at on device {dev}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]
        #[test]
        fn rings_pop_exactly_like_per_op_events(
            script in proptest::collection::vec((0u8..10, 0u64..40_000_000), 1..600)
        ) {
            let mut h = Harness::new();
            for (op, x) in script {
                match op {
                    // Timed ops on every device, ties on equal sizes.
                    0..=2 => {
                        let now = h.now;
                        h.timed(op as usize % 4, now, x % 4 * 1_000_000);
                    }
                    3 => {
                        let now = h.now;
                        h.timed(3, now, x % 2 * x);
                    }
                    // A fetch: untimed send, then a timed receive chained
                    // at a future `now` (the send's end).
                    4 => {
                        let now = h.now;
                        let tx_end = h.untimed(1, now, x);
                        h.timed(2, tx_end, 0);
                    }
                    5 => h.timer(x % 2_000_000),
                    6 | 7 => {
                        h.pop();
                        if x.is_multiple_of(2) {
                            h.sample();
                        }
                    }
                    8 => h.kill(x as usize % 4),
                    _ => h.sample(),
                }
            }
            // The shutdown drain: a discarded head still arms the op
            // behind it, so the streams agree to the end.
            while h.pop().is_some() {}
            assert_eq!(h.pool.live, 0);
        }
    }

    #[test]
    fn a_kill_mid_backlog_leaves_old_ops_queued_and_stale() {
        let mut h = Harness::new();
        for size in [9_000_000, 1, 9_000_000, 1, 3_000_000] {
            let now = h.now;
            h.timed(0, now, size);
            h.timed(2, now, size);
        }
        h.pop();
        h.kill(0);
        // New ops on the reset disk end before the old backlog.
        let now = h.now;
        h.timed(0, now, 1);
        h.sample();
        while h.pop().is_some() {
            h.sample();
        }
    }
}
