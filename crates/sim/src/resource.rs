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

/// A bank of `k` identical FIFO servers with a shared queue.
///
/// `Resource` is pure bookkeeping over virtual time: `submit` returns when
/// the op will finish; the caller schedules its own completion event.
#[derive(Clone, Debug)]
pub struct Resource {
    /// Human-readable label for diagnostics (`"disk[3]"`, `"nic-tx[0]"`).
    label: String,
    /// Aggregate bandwidth in bytes/second across all servers.
    total_bw: f64,
    /// Seek / access latency charged to random ops.
    seek: SimDuration,
    /// Fixed per-op overhead charged to every op (request setup, interrupt).
    per_op: SimDuration,
    /// Earliest time each server is free.
    free_at: Vec<SimTime>,
    /// Total bytes served (for utilisation metrics).
    bytes: u64,
    /// Total ops served.
    ops: u64,
    /// Accumulated busy time across servers (for utilisation metrics).
    busy: SimDuration,
    /// When true, record per-op completion times so [`Resource::pending_at`]
    /// can report queue depth / bytes in flight. Off by default — resource
    /// sampling is a tracing feature and untraced runs must not grow state.
    track_pending: bool,
    /// `(completion_time, size)` per tracked op, pruned lazily.
    pending: Vec<(SimTime, u64)>,
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
        assert!(total_bw_bytes_per_sec > 0.0, "bandwidth must be positive");
        Resource {
            label: label.into(),
            total_bw: total_bw_bytes_per_sec,
            seek,
            per_op,
            free_at: vec![SimTime::ZERO; servers],
            bytes: 0,
            ops: 0,
            busy: SimDuration::ZERO,
            track_pending: false,
            pending: Vec::new(),
        }
    }

    /// Enable or disable pending-op tracking (used by resource sampling).
    pub fn set_tracking(&mut self, on: bool) {
        self.track_pending = on;
        if !on {
            self.pending = Vec::new();
        }
    }

    fn record_pending(&mut self, now: SimTime, end: SimTime, size: u64) {
        if !self.track_pending {
            return;
        }
        // Amortised prune: drop completed ops once the list gets long so
        // long traced runs stay bounded.
        if self.pending.len() >= 4096 {
            self.pending.retain(|&(t, _)| t > now);
        }
        self.pending.push((end, size));
    }

    /// Service time of an op in isolation (no queueing).
    pub fn service_time(&self, size: u64, kind: IoKind) -> SimDuration {
        let per_server_bw = self.total_bw / self.free_at.len() as f64;
        let xfer = SimDuration::from_secs_f64(size as f64 / per_server_bw);
        let latency = match kind {
            IoKind::Sequential => self.per_op,
            IoKind::Random => self.per_op + self.seek,
        };
        latency + xfer
    }

    /// Submit an op of `size` bytes at `now`; returns its completion time.
    ///
    /// The op occupies the earliest-free server starting no earlier than
    /// `now`, FIFO with respect to previously submitted ops.
    pub fn submit(&mut self, now: SimTime, size: u64, kind: IoKind) -> SimTime {
        let service = self.service_time(size, kind);
        // Earliest-free server.
        // audit:allow(P01): `new` asserts servers >= 1, so `free_at` is
        // never empty and min always exists.
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("at least one server");
        let start = free.max(now);
        let end = start + service;
        self.free_at[idx] = end;
        self.bytes += size;
        self.ops += 1;
        self.busy += service;
        self.record_pending(now, end, size);
        end
    }

    /// Drop all queued/served state, e.g. when the owning node dies. In-
    /// flight op completion events already scheduled by callers must be
    /// invalidated by the caller.
    pub fn reset(&mut self, now: SimTime) {
        for t in &mut self.free_at {
            *t = now;
        }
        self.pending.clear();
    }

    /// `(ops_in_flight, bytes_in_flight)` at `now` — ops submitted but not
    /// yet complete. Always `(0, 0)` unless tracking was enabled with
    /// [`Resource::set_tracking`].
    pub fn pending_at(&self, now: SimTime) -> (u32, u64) {
        let mut ops = 0u32;
        let mut bytes = 0u64;
        for &(end, size) in &self.pending {
            if end > now {
                ops += 1;
                bytes += size;
            }
        }
        (ops, bytes)
    }

    /// Earliest time any server is free (≥ `now` means fully busy).
    pub fn earliest_free(&self) -> SimTime {
        // audit:allow(P01): `new` asserts servers >= 1 — min always exists.
        *self.free_at.iter().min().expect("at least one server")
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

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes
    }

    /// Total ops served so far.
    pub fn ops_served(&self) -> u64 {
        self.ops
    }

    /// Accumulated service (busy) time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Diagnostic label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn metrics_accumulate() {
        let mut d = disk();
        d.submit(SimTime::ZERO, 1000, IoKind::Sequential);
        d.submit(SimTime::ZERO, 2000, IoKind::Random);
        assert_eq!(d.bytes_served(), 3000);
        assert_eq!(d.ops_served(), 2);
        assert!(d.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn pending_tracking_reports_in_flight_ops() {
        let mut d = disk();
        // Untracked: always (0, 0).
        d.submit(SimTime::ZERO, 1_000_000, IoKind::Sequential);
        assert_eq!(d.pending_at(SimTime::ZERO), (0, 0));
        d.set_tracking(true);
        let end = d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        let (ops, bytes) = d.pending_at(SimTime::ZERO);
        assert_eq!((ops, bytes), (1, 100_000_000));
        // After completion nothing is in flight.
        assert_eq!(d.pending_at(end), (0, 0));
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
        let mut d = disk();
        d.submit(SimTime::ZERO, 100_000_000, IoKind::Sequential);
        d.reset(SimTime(5));
        assert_eq!(d.earliest_free(), SimTime(5));
    }
}
