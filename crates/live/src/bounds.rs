//! The bound model — one [`Bound`] enum, one threshold table, one
//! classification rule ([`classify`]), one dominant-bound rule
//! ([`Bound::dominant`]) and one FIFO transmit replay ([`TxReplay`]) —
//! and the rolling per-node / per-stage bound profiles built on it.
//!
//! exo-prof's whole-run attribution and exo-watch's detectors use the
//! same primitives, so the live view and the post-hoc report agree on
//! what "bound" means.
//!
//! [`RollingBounds`] runs the classification incrementally over a ring
//! of fixed-width buckets so it can be queried *mid-run*: at every
//! live snapshot tick and every detector evaluation. Memory is
//! O(nodes × buckets + stages × buckets), independent of event count.
//!
//! Transfers are emitted at submit time, and staging submits whole
//! stages in bursts; a per-source FIFO transmit cursor replays when each
//! transfer actually occupied the wire and the bytes are smeared over
//! that service window. `cur`, the newest bucket any event's *emission
//! time* landed in, is advanced only by [`RollingBounds::on_event`].
//! Smeared credits that would land more than one window ahead of `cur`
//! are clamped into the furthest allowed bucket (the ring holds two
//! windows so future credits never collide with readable history), and
//! never drag `cur` forward: current-time credits always land in the
//! current bucket.

use std::collections::HashMap;

use exo_sim::DeviceCaps;
#[allow(unused_imports)] // doc links
use exo_sim::NodeCaps;
use exo_trace::{Event, EventKind, ObjectPhase};

/// What a stretch of time was limited by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// CPU slots were the scarce resource.
    Cpu,
    /// Disk bandwidth was the scarce resource.
    Disk,
    /// Network bandwidth was the scarce resource.
    Net,
    /// The object store was full and actively spilling/restoring:
    /// progress gated on allocation, not raw device speed.
    AllocStall,
    /// Nothing near capacity — scheduler gaps, dependency stalls, tail.
    Idle,
}

impl Bound {
    pub fn name(&self) -> &'static str {
        match self {
            Bound::Cpu => "cpu",
            Bound::Disk => "disk",
            Bound::Net => "net",
            Bound::AllocStall => "alloc-stall",
            Bound::Idle => "idle",
        }
    }

    pub const ALL: [Bound; 5] = [
        Bound::Disk,
        Bound::Net,
        Bound::Cpu,
        Bound::AllocStall,
        Bound::Idle,
    ];

    /// The dominant bound of a profile whose `fractions` are given in
    /// [`Bound::ALL`] order: the largest non-idle share, or idle when no
    /// non-idle share is positive.
    pub fn dominant(fractions: [f64; 5]) -> Bound {
        Bound::ALL
            .into_iter()
            .zip(fractions)
            .filter(|(b, f)| *b != Bound::Idle && *f > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(b, _)| b)
            .unwrap_or(Bound::Idle)
    }
}

/// A utilisation at or above this is "near capacity".
const BOUND_THRESHOLD: f64 = 0.4;
/// Store occupancy at or above this, with spill traffic, is an
/// allocation stall.
const STORE_FULL_FRAC: f64 = 0.95;

/// Classifies one stretch of time from its utilisations (against
/// [`NodeCaps`]), store occupancy fraction and spill/restore/fallback
/// count: a store at least `STORE_FULL_FRAC` full with spill traffic is
/// an allocation stall; otherwise the highest utilisation at or above
/// `BOUND_THRESHOLD` wins (an exact tie goes to the later of disk, net,
/// cpu), and nothing near capacity is idle.
pub fn classify(cpu: f64, disk: f64, net: f64, store_frac: f64, spill_ops: u64) -> Bound {
    if store_frac >= STORE_FULL_FRAC && spill_ops > 0 {
        return Bound::AllocStall;
    }
    [(Bound::Disk, disk), (Bound::Net, net), (Bound::Cpu, cpu)]
        .into_iter()
        .filter(|(_, u)| *u >= BOUND_THRESHOLD)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(b, _)| b)
        .unwrap_or(Bound::Idle)
}

/// Span of the rolling window exo-live and exo-watch read (µs).
pub const WINDOW_US: u64 = 2_000_000;
/// Buckets per rolling window.
pub const WINDOW_BUCKETS: usize = 20;

/// Per-source FIFO transmit replay. Transfer events carry their
/// *submit* time; replaying each source's transmit queue (transfers
/// serve back-to-back at the NIC's bandwidth, the runtime's model)
/// recovers when each transfer actually occupied the wire.
#[derive(Debug, Clone)]
pub struct TxReplay {
    nic_bw: Vec<f64>,
    /// Per-source time the wire next falls free (µs).
    free_us: Vec<u64>,
}

/// One transfer's replayed service window `[start_us, end_us)`.
#[derive(Debug, Clone, Copy)]
pub struct Transmit {
    pub start_us: u64,
    pub end_us: u64,
    pub bytes: u64,
}

impl TxReplay {
    pub fn new(caps: &DeviceCaps) -> TxReplay {
        TxReplay {
            nic_bw: caps.per_node.iter().map(|n| n.nic_bw.max(1.0)).collect(),
            free_us: vec![0; caps.nodes()],
        }
    }

    /// Queues a transfer of `bytes` submitted at `at_us` behind the
    /// source's earlier transfers. A source outside the capacity card
    /// (or none) occupies the single microsecond `[at_us, at_us + 1)`.
    pub fn transmit(&mut self, at_us: u64, src: Option<u32>, bytes: u64) -> Transmit {
        let (start_us, end_us) = match src.filter(|s| (*s as usize) < self.free_us.len()) {
            Some(s) => {
                let s = s as usize;
                let start = at_us.max(self.free_us[s]);
                let end = start + ((bytes as f64 * 1e6 / self.nic_bw[s]).ceil() as u64).max(1);
                self.free_us[s] = end;
                (start, end)
            }
            None => (at_us, at_us + 1),
        };
        Transmit {
            start_us,
            end_us,
            bytes,
        }
    }
}

impl Transmit {
    /// The pro-rata share of the bytes served inside `[from_us, to_us)`.
    pub fn share(&self, from_us: u64, to_us: u64) -> u64 {
        let overlap = self
            .end_us
            .min(to_us)
            .saturating_sub(self.start_us.max(from_us));
        (self.bytes as u128 * overlap as u128 / (self.end_us - self.start_us) as u128) as u64
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Bucket {
    /// Absolute bucket number this slot currently holds (ring tag).
    epoch: u64,
    cpu_busy: f64,
    cpu_total: f64,
    samples: u64,
    disk_bytes: u64,
    net_bytes: u64,
    spill_ops: u64,
    /// Spilled plus fallback-allocated bytes (restores excluded).
    spill_bytes: u64,
    store_peak: u64,
}

/// One node's view of the sliding window at snapshot time.
#[derive(Debug, Clone)]
pub struct NodeWindow {
    pub node: u32,
    pub dominant: Bound,
    /// Fraction of window buckets classified as each of
    /// [`Bound::ALL`], in that order; sums to 1.
    pub fractions: [f64; 5],
    /// Window means of the underlying utilisations.
    pub cpu_util: f64,
    pub disk_util: f64,
    pub net_util: f64,
    pub store_frac: f64,
}

/// One stage's share of recent compute.
#[derive(Debug, Clone)]
pub struct StageWindow {
    pub label: &'static str,
    /// Task-execution microseconds that overlapped the window.
    pub busy_us: u64,
    /// Tasks of this stage that finished inside the window.
    pub finished: u64,
}

/// Sliding-window bound profiler. [`Fold`](crate::Fold) feeds it every
/// event and each finished task's execution span, and both views call
/// [`RollingBounds::snapshot`] at any virtual time.
#[derive(Debug)]
pub struct RollingBounds {
    caps: DeviceCaps,
    bucket_us: u64,
    /// Buckets per window (the readable span). The ring holds `2×` this
    /// so FIFO-smeared future credits never overwrite readable history.
    window: usize,
    /// Per-node ring, `ring[node * ring_len + (bucket % ring_len)]`.
    ring: Vec<Bucket>,
    /// Per-stage execution-time ring, same geometry as `ring`.
    stage_ring: HashMap<&'static str, Vec<StageBucket>>,
    tx: TxReplay,
    /// Carry-forward store level per node (occupancy persists between
    /// samples).
    store_level: Vec<u64>,
    /// Carry-forward CPU occupancy per node.
    cpu_level: Vec<f64>,
    /// Newest absolute bucket any event's *emission time* landed in.
    /// Only [`RollingBounds::on_event`] advances it; smeared future
    /// credits never do.
    cur: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct StageBucket {
    epoch: u64,
    busy_us: u64,
    finished: u64,
}

impl RollingBounds {
    pub fn new(caps: &DeviceCaps, window_us: u64, window_buckets: usize) -> RollingBounds {
        let window = window_buckets.max(1);
        let bucket_us = (window_us / window as u64).max(1);
        let nodes = caps.nodes();
        RollingBounds {
            caps: caps.clone(),
            bucket_us,
            window,
            ring: vec![Bucket::default(); nodes * window * 2],
            stage_ring: HashMap::new(),
            tx: TxReplay::new(caps),
            store_level: vec![0; nodes],
            cpu_level: vec![0.0; nodes],
            cur: 0,
        }
    }

    fn ring_len(&self) -> usize {
        self.window * 2
    }

    /// `node`'s slots for the window ending at `now_us`, oldest first;
    /// `None` where the ring holds nothing for that bucket.
    fn window_slots(&self, node: usize, now_us: u64) -> impl Iterator<Item = Option<&Bucket>> {
        let now_b = now_us / self.bucket_us;
        let len = self.ring_len();
        (now_b.saturating_sub(self.window as u64 - 1)..=now_b).map(move |b| {
            let slot = &self.ring[node * len + (b % len as u64) as usize];
            (slot.epoch == b).then_some(slot)
        })
    }

    /// Mutable access to the slot for absolute bucket `b` on `node`,
    /// retagging (and zeroing) the slot if it still holds an older
    /// bucket. `b` is clamped to the ring's writable range
    /// `[cur − window + 1, cur + window]`. Never moves `cur`: only
    /// [`RollingBounds::on_event`] does, so a FIFO-smeared credit far
    /// ahead cannot push current-time credits out of the window.
    fn slot(&mut self, node: usize, b: u64) -> &mut Bucket {
        let lo = self.cur.saturating_sub(self.window as u64 - 1);
        let hi = self.cur + self.window as u64;
        let b = b.clamp(lo, hi);
        let len = self.ring_len();
        let slot = &mut self.ring[node * len + (b % len as u64) as usize];
        if slot.epoch != b {
            *slot = Bucket {
                epoch: b,
                ..Bucket::default()
            };
        }
        slot
    }

    fn stage_slot(&mut self, label: &'static str, b: u64) -> &mut StageBucket {
        let len = self.ring_len();
        let window = self.window as u64;
        let b = b.clamp(self.cur.saturating_sub(window - 1), self.cur + window);
        let ring = self
            .stage_ring
            .entry(label)
            .or_insert_with(|| vec![StageBucket::default(); len]);
        let slot = &mut ring[(b % len as u64) as usize];
        if slot.epoch != b {
            *slot = StageBucket {
                epoch: b,
                ..StageBucket::default()
            };
        }
        slot
    }

    pub fn on_event(&mut self, ev: &Event) {
        let b = ev.at_us / self.bucket_us;
        self.cur = self.cur.max(b);
        let nodes = self.caps.nodes();
        match &ev.kind {
            EventKind::Resource(r) if (r.node as usize) < nodes => {
                let node = r.node as usize;
                let busy = r.cpu_slots_busy as f64;
                let total = r.cpu_slots_total.max(1) as f64;
                let store = r.store_used;
                self.cpu_level[node] = busy / total;
                self.store_level[node] = store;
                let slot = self.slot(node, b);
                slot.cpu_busy += busy;
                slot.cpu_total += total;
                slot.samples += 1;
                slot.store_peak = slot.store_peak.max(store);
            }
            EventKind::Io(io) if (io.node as usize) < nodes => {
                self.slot(io.node as usize, b).disk_bytes += io.bytes;
            }
            EventKind::Object(o) => match o.phase {
                ObjectPhase::Transferred => self.on_transfer(ev.at_us, o.node, o.src, o.bytes),
                ObjectPhase::Spilled | ObjectPhase::Restored | ObjectPhase::Fallback
                    if (o.node as usize) < nodes =>
                {
                    let slot = self.slot(o.node as usize, b);
                    slot.spill_ops += 1;
                    if o.phase != ObjectPhase::Restored {
                        slot.spill_bytes += o.bytes;
                    }
                }
                _ => {}
            },
            // Task spans reach the stage rings through
            // `on_stage_exec`, once the fold has matched start to
            // finish. Deps, fetch-waits, failures, and incident edges
            // carry no device occupancy; enumerated so a new variant is
            // a compile error. (Out-of-range Resource/Io nodes fall here
            // via their guards — there is no bucket to credit them to.)
            EventKind::Task(_)
            | EventKind::Resource(_)
            | EventKind::Io(_)
            | EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Failure(_)
            | EventKind::Incident(_)
            | EventKind::Job(_) => {}
        }
    }

    /// Smears a transfer's bytes over its FIFO service window on the
    /// sender's wire, credited to both endpoints' buckets.
    fn on_transfer(&mut self, at_us: u64, dst: u32, src: Option<u32>, bytes: u64) {
        let nodes = self.caps.nodes();
        let tx = self.tx.transmit(at_us, src, bytes);
        let w = self.bucket_us;
        for b in tx.start_us / w..=(tx.end_us - 1) / w {
            let share = tx.share(b * w, (b + 1) * w);
            if let Some(s) = src.filter(|s| (*s as usize) < nodes) {
                self.slot(s as usize, b).net_bytes += share;
            }
            if (dst as usize) < nodes && src != Some(dst) {
                self.slot(dst as usize, b).net_bytes += share;
            }
        }
    }

    /// Credits a finished task's execution span `[started, finished)`
    /// to its stage's buckets, clamped to the window. Call it after
    /// [`RollingBounds::on_event`] has seen the `Finished` edge.
    pub fn on_stage_exec(&mut self, label: &'static str, started: u64, finished: u64) {
        let lo_bucket = self.cur.saturating_sub(self.window as u64 - 1);
        let started = started.max(lo_bucket * self.bucket_us);
        let finished = finished.max(started + 1);
        let (b0, b1) = (started / self.bucket_us, (finished - 1) / self.bucket_us);
        for b in b0..=b1 {
            let s = (b * self.bucket_us).max(started);
            let e = ((b + 1) * self.bucket_us).min(finished);
            let slot = self.stage_slot(label, b);
            slot.busy_us += e - s;
            if b == b1 {
                slot.finished += 1;
            }
        }
    }

    /// Classifies the window ending at `now_us`, one entry per node.
    /// Read mid-run by snapshot ticks and detector evaluations.
    pub fn snapshot(&self, now_us: u64) -> Vec<NodeWindow> {
        let bucket_secs = self.bucket_us as f64 / 1e6;
        let mut out = Vec::with_capacity(self.caps.nodes());
        for (node, caps) in self.caps.per_node.iter().enumerate() {
            let mut counts = [0usize; 5];
            let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64); // cpu, disk, net, store
            let mut buckets = 0usize;
            // Occupancy carries forward across unsampled buckets inside
            // the window, seeded from the node's last known level when
            // the window has no sample at all yet.
            let mut cpu_util = self.cpu_level[node];
            let mut store_used = self.store_level[node];
            for slot in self.window_slots(node, now_us) {
                if let Some(s) = slot.filter(|s| s.samples > 0) {
                    cpu_util = s.cpu_busy / s.cpu_total.max(1.0);
                    store_used = s.store_peak;
                }
                let (disk_bytes, net_bytes, spill_ops) =
                    slot.map_or((0, 0, 0), |s| (s.disk_bytes, s.net_bytes, s.spill_ops));
                let disk_util = disk_bytes as f64 / (caps.disk_seq_bw * bucket_secs).max(1.0);
                let net_util = net_bytes as f64 / (caps.nic_bw * bucket_secs).max(1.0);
                let store_frac = (store_used as f64 / caps.store_bytes.max(1) as f64).min(1.0);

                let bound = classify(cpu_util, disk_util, net_util, store_frac, spill_ops);
                counts[Bound::ALL.iter().position(|k| *k == bound).expect("in ALL")] += 1;
                sums.0 += cpu_util;
                sums.1 += disk_util;
                sums.2 += net_util;
                sums.3 += store_frac;
                buckets += 1;
            }
            let n = buckets.max(1) as f64;
            let fractions: [f64; 5] =
                std::array::from_fn(|i| counts[i] as f64 / buckets.max(1) as f64);
            out.push(NodeWindow {
                node: node as u32,
                dominant: Bound::dominant(fractions),
                fractions,
                cpu_util: sums.0 / n,
                disk_util: sums.1 / n,
                net_util: sums.2 / n,
                store_frac: sums.3 / n,
            });
        }
        out
    }

    /// Spilled plus fallback-allocated bytes on `node` in the window
    /// ending at `now_us`.
    pub fn spill_bytes(&self, node: usize, now_us: u64) -> u64 {
        self.window_slots(node, now_us)
            .flatten()
            .map(|s| s.spill_bytes)
            .sum()
    }

    /// Per-stage compute share of the window ending at `now_us`, sorted
    /// by busy time descending.
    pub fn stage_snapshot(&self, now_us: u64) -> Vec<StageWindow> {
        let now_b = now_us / self.bucket_us;
        let lo = now_b.saturating_sub(self.window as u64 - 1);
        let len = self.ring_len();
        let mut out: Vec<StageWindow> = self
            .stage_ring
            .iter()
            .map(|(label, ring)| {
                let (mut busy, mut finished) = (0u64, 0u64);
                for b in lo..=now_b {
                    let slot = &ring[(b % len as u64) as usize];
                    if slot.epoch == b {
                        busy += slot.busy_us;
                        finished += slot.finished;
                    }
                }
                StageWindow {
                    label,
                    busy_us: busy,
                    finished,
                }
            })
            .filter(|s| s.busy_us > 0 || s.finished > 0)
            .collect();
        out.sort_by(|a, b| b.busy_us.cmp(&a.busy_us).then(a.label.cmp(b.label)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_trace::{IoDir, IoEvent, ObjectEvent, ResourceSample, TaskPhase, TaskSpan};

    fn caps() -> DeviceCaps {
        let node = NodeCaps {
            cpu_slots: 8,
            disk_seq_bw: 1e9,
            disk_random_iops: 1500.0,
            disk_devices: 6,
            nic_bw: 1e9,
            store_bytes: 1_000_000,
        };
        DeviceCaps {
            per_node: vec![node; 2],
        }
    }

    fn io(node: u32, at_us: u64, bytes: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Io(IoEvent {
                node,
                dir: IoDir::Write,
                bytes,
            }),
        }
    }

    fn sample(node: u32, at_us: u64, busy: u32, store: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Resource(ResourceSample {
                node,
                cpu_slots_busy: busy,
                cpu_slots_total: 8,
                store_used: store,
                disk_queue_depth: 0,
                nic_bytes_in_flight: 0,
            }),
        }
    }

    fn rb() -> RollingBounds {
        // 10 buckets × 100 µs = 1 ms window.
        RollingBounds::new(&caps(), 1000, 10)
    }

    #[test]
    fn saturated_disk_reads_disk_bound() {
        let mut r = rb();
        // 1 GB/s × 100 µs bucket = 100 KB capacity; write 200 KB/bucket.
        for i in 0..10u64 {
            r.on_event(&io(0, i * 100 + 5, 200_000));
        }
        let w = r.snapshot(995);
        assert_eq!(w[0].dominant, Bound::Disk);
        assert!(w[0].disk_util > 1.0);
        assert_eq!(w[1].dominant, Bound::Idle, "node 1 saw nothing");
    }

    #[test]
    fn old_buckets_slide_out_of_the_window() {
        let mut r = rb();
        for i in 0..10u64 {
            r.on_event(&io(0, i * 100 + 5, 200_000));
        }
        assert_eq!(r.snapshot(995)[0].dominant, Bound::Disk);
        // Two windows later with no traffic: all idle again.
        r.on_event(&sample(0, 3000, 0, 0));
        let w = r.snapshot(3000);
        assert_eq!(w[0].dominant, Bound::Idle);
        assert!(w[0].disk_util < 1e-9);
    }

    #[test]
    fn busy_cpu_carries_forward_between_samples() {
        let mut r = rb();
        r.on_event(&sample(0, 50, 8, 0));
        // No further samples; occupancy persists across the window.
        let w = r.snapshot(950);
        assert_eq!(w[0].dominant, Bound::Cpu);
        assert!(w[0].cpu_util > 0.9);
    }

    #[test]
    fn full_store_with_spill_is_alloc_stall() {
        let mut r = rb();
        r.on_event(&sample(0, 50, 1, 999_000));
        r.on_event(&Event {
            at_us: 60,
            kind: EventKind::Object(ObjectEvent {
                object: 1,
                phase: ObjectPhase::Spilled,
                node: 0,
                src: None,
                bytes: 1000,
            }),
        });
        let w = r.snapshot(99);
        assert_eq!(w[0].dominant, Bound::AllocStall);
    }

    #[test]
    fn transfer_smears_over_service_window_on_both_endpoints() {
        let mut r = rb();
        // 1 GB/s wire: 500 KB takes 500 µs = 5 buckets from t=0.
        r.on_event(&Event {
            at_us: 0,
            kind: EventKind::Object(ObjectEvent {
                object: 1,
                phase: ObjectPhase::Transferred,
                node: 1,
                src: Some(0),
                bytes: 500_000,
            }),
        });
        let w = r.snapshot(499);
        for nw in &w {
            assert_eq!(nw.dominant, Bound::Net, "node {}", nw.node);
            assert!(nw.net_util > 0.4);
        }
    }

    #[test]
    fn stage_exec_time_lands_in_stage_windows() {
        let mut r = rb();
        let span = |phase, at_us| Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task: 7,
                phase,
                node: 0,
                label: "map",
                attempt: 0,
                retry: false,
                reason: None,
            }),
        };
        r.on_event(&span(TaskPhase::Started, 100));
        r.on_event(&span(TaskPhase::Finished, 400));
        r.on_stage_exec("map", 100, 400);
        let stages = r.stage_snapshot(500);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].label, "map");
        assert_eq!(stages[0].busy_us, 300);
        assert_eq!(stages[0].finished, 1);
        // A window later it has slid out.
        assert!(r.stage_snapshot(5000).is_empty());
    }

    #[test]
    fn backlogged_transfer_does_not_push_current_credits_ahead() {
        let mut r = rb();
        // 5 MB on a 1 GB/s wire occupies 5 ms = five windows from t=0.
        r.on_event(&Event {
            at_us: 0,
            kind: EventKind::Object(ObjectEvent {
                object: 1,
                phase: ObjectPhase::Transferred,
                node: 1,
                src: Some(0),
                bytes: 5_000_000,
            }),
        });
        r.on_event(&io(0, 105, 200_000));
        let w = r.snapshot(199);
        assert!(w[0].disk_util > 0.1, "current Io left the window: {w:?}");
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut r = rb();
        r.on_event(&io(0, 105, 200_000));
        r.on_event(&sample(1, 205, 8, 0));
        for w in r.snapshot(900) {
            let sum: f64 = w.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
