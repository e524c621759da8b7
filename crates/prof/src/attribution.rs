//! Bottleneck attribution: slice the run into fixed-width intervals and
//! classify each one by what the cluster was limited by, using the
//! periodic [`ResourceSample`](exo_trace::ResourceSample)s plus raw
//! I/O / transfer / spill events.
//!
//! The output is a *bound profile* — e.g. `disk 61% / net 22% / cpu 9% /
//! alloc-stall 5% / idle 3%` — the first thing to read when deciding
//! where optimisation effort goes. Utilisations are measured against the
//! hardware capacities in [`DeviceCaps`], so "disk-bound" means "the
//! disks were near their sequential ceiling", not "disk was the busiest
//! of an idle lot".

use exo_sim::DeviceCaps;
use exo_trace::{Event, EventKind, ObjectPhase};

pub use exo_live::Bound;
use exo_live::{classify, Transmit, TxReplay};

/// One classified slice of the run.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start_us: u64,
    pub end_us: u64,
    pub bound: Bound,
    /// Mean CPU-slot occupancy across samples in the slice (0..=1).
    pub cpu_util: f64,
    /// Disk bytes moved / what the cluster's disks could move (0..+).
    pub disk_util: f64,
    /// Transfer bytes moved / what the cluster's NICs could move (0..+).
    pub net_util: f64,
    /// Peak store occupancy across samples in the slice (0..=1).
    pub store_frac: f64,
}

/// The run's bound profile: classified intervals plus their histogram.
#[derive(Debug, Clone, Default)]
pub struct BoundProfile {
    pub intervals: Vec<Interval>,
    pub end_us: u64,
}

impl BoundProfile {
    /// Fraction of the run bound by `b` (0..=1). All fractions sum to
    /// 1 when the run is non-empty (every slice gets exactly one bound).
    pub fn fraction(&self, b: Bound) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        let n = self.intervals.iter().filter(|i| i.bound == b).count();
        n as f64 / self.intervals.len() as f64
    }

    /// The dominant bound, ignoring idle unless everything is idle.
    pub fn dominant(&self) -> Bound {
        Bound::dominant(Bound::ALL.map(|b| self.fraction(b)))
    }

    /// `disk 61% / net 22% / cpu 9% / alloc-stall 5% / idle 3%`, with
    /// zero-share bounds omitted.
    pub fn one_line(&self) -> String {
        let mut parts: Vec<(Bound, f64)> = Bound::ALL
            .into_iter()
            .map(|b| (b, self.fraction(b)))
            .filter(|(_, f)| *f > 0.0)
            .collect();
        parts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        if parts.is_empty() {
            return "no data".to_string();
        }
        parts
            .iter()
            .map(|(b, f)| format!("{} {:.0}%", b.name(), f * 100.0))
            .collect::<Vec<_>>()
            .join(" / ")
    }
}

/// Target number of slices; short runs get fewer (≥ 1 µs each).
const TARGET_SLICES: u64 = 120;

/// Classifies the run in `events`: the cluster profile (against the
/// per-node capacities in `caps` summed) and one profile per node in id
/// order, all from **one** scan of the event stream.
///
/// Each node's slices are classified against *that node's* capacities,
/// so on a mixed HDD+SSD cluster the same byte stream reads as
/// disk-bound on the slow nodes and idle (or net-bound) on the fast
/// ones. All profiles share the run's global end time and slice grid,
/// so each node's fractions tile the makespan and sum to 1.
pub fn attribute_all(events: &[Event], caps: &DeviceCaps) -> (BoundProfile, Vec<BoundProfile>) {
    let pass = AttributionPass::scan(events, caps);
    let per_node = (0..caps.nodes())
        .map(|n| pass.readout(caps, Some(n as u32)))
        .collect();
    (pass.readout(caps, None), per_node)
}

/// Per-slice accumulation for one node (or, for `net_cluster`, the whole
/// wire). All fields are exact-integer sums (CPU slot counts are small
/// integers widened to `f64`), so summing them across nodes at readout
/// is order-independent and reproduces the old event-order folds bit for
/// bit.
#[derive(Default, Clone, Copy)]
struct Acc {
    cpu_busy: f64,
    cpu_total: f64,
    samples: u64,
    disk_bytes: u64,
    net_bytes: u64,
    spill_ops: u64,
}

/// The memoized single pass behind [`attribute_all`]: one sweep over the
/// events fills per-slice, per-node accumulators plus a cluster-wide
/// transfer track; every view
/// (whole cluster or a single node) is then a cheap readout over the
/// accumulators. Previously each view re-scanned the full stream — the
/// per-node report on an N-node cluster cost N + 1 passes.
struct AttributionPass {
    end_us: u64,
    slice_us: u64,
    slices: usize,
    nodes: usize,
    /// `[slice * nodes + node]` — everything attributable to one node.
    /// Transfer bytes are credited to *both* endpoints' cells (their
    /// single-node views each count the wire), matching the old
    /// per-selection scan.
    per_node: Vec<Acc>,
    /// Per-slice transfer bytes counted **once** per transfer — the
    /// cluster view's net track (endpoints within the cluster share the
    /// same wire, so summing the per-node cells would double-count).
    net_cluster: Vec<u64>,
    /// Events whose node id falls outside the capacity card (possible in
    /// synthetic streams). The cluster view counts them — it always did;
    /// no single-node view can claim them.
    slop: Vec<Acc>,
    /// Per-slice, per-node peak store sample (`None` = node not sampled
    /// in that slice; its last known level carries forward at readout).
    store_peak: Vec<Option<u64>>,
}

impl AttributionPass {
    fn scan(events: &[Event], caps: &DeviceCaps) -> AttributionPass {
        let end_us = events.iter().map(|e| e.at_us).max().unwrap_or(0);
        let nodes = caps.nodes();
        if end_us == 0 {
            return AttributionPass {
                end_us,
                slice_us: 1,
                slices: 0,
                nodes,
                per_node: Vec::new(),
                net_cluster: Vec::new(),
                slop: Vec::new(),
                store_peak: Vec::new(),
            };
        }
        let slice_us = (end_us / TARGET_SLICES).max(1);
        let slices = end_us.div_ceil(slice_us) as usize;
        let mut pass = AttributionPass {
            end_us,
            slice_us,
            slices,
            nodes,
            per_node: vec![Acc::default(); slices * nodes],
            net_cluster: vec![0; slices],
            slop: vec![Acc::default(); slices],
            store_peak: vec![None; slices * nodes],
        };
        let idx = |at_us: u64| (((at_us.min(end_us - 1)) / slice_us) as usize).min(slices - 1);

        // Staging submits whole stages' transfers in bursts at a single
        // instant — crediting the bytes to the submit slice would read as
        // one absurd spike followed by silence. The FIFO transmit replay
        // recovers when each transfer actually occupied the wire, and
        // the bytes are smeared over that service window.
        let mut tx = TxReplay::new(caps);
        for ev in events {
            let i = idx(ev.at_us);
            match &ev.kind {
                EventKind::Resource(r) => {
                    if (r.node as usize) < nodes {
                        let cell = &mut pass.store_peak[i * nodes + r.node as usize];
                        *cell = Some(cell.unwrap_or(0).max(r.store_used));
                    }
                    let a = pass.cell(i, r.node);
                    a.cpu_busy += r.cpu_slots_busy as f64;
                    a.cpu_total += r.cpu_slots_total.max(1) as f64;
                    a.samples += 1;
                }
                // Restore reads + output/spill writes all queue on the
                // same disks; direction doesn't matter for saturation.
                EventKind::Io(io) => pass.cell(i, io.node).disk_bytes += io.bytes,
                EventKind::Object(o) => match o.phase {
                    // A transfer occupies the receiver's rx direction and
                    // the sender's tx direction: credit the service
                    // window's bytes to both endpoints' cells (each
                    // single-node view sees its share of the wire) and
                    // once to the cluster track.
                    ObjectPhase::Transferred => {
                        pass.spread(&tx.transmit(ev.at_us, o.src, o.bytes), o.node, o.src);
                    }
                    ObjectPhase::Spilled | ObjectPhase::Restored | ObjectPhase::Fallback => {
                        pass.cell(i, o.node).spill_ops += 1;
                    }
                    _ => {}
                },
                // Task lifecycle, deps, fetch-waits, failures, and
                // incident edges don't move bytes through the devices
                // this profile attributes; enumerated so a new variant is
                // a compile error.
                EventKind::Task(_)
                | EventKind::Dep(_)
                | EventKind::FetchWait(_)
                | EventKind::Failure(_)
                | EventKind::Incident(_)
                | EventKind::Job(_) => {}
            }
        }
        pass
    }

    /// Slice `i`'s cell for `node`, or the slice's slop cell when the
    /// node falls outside the capacity card.
    fn cell(&mut self, i: usize, node: u32) -> &mut Acc {
        if (node as usize) < self.nodes {
            &mut self.per_node[i * self.nodes + node as usize]
        } else {
            &mut self.slop[i]
        }
    }

    /// Adds a transfer's bytes to the slices its service window
    /// overlaps, pro rata and truncated at the run's end: once to the
    /// cluster track, once to each (distinct) endpoint's per-node cell.
    fn spread(&mut self, tx: &Transmit, dst: u32, src: Option<u32>) {
        let idx = |at_us: u64| {
            (((at_us.min(self.end_us - 1)) / self.slice_us) as usize).min(self.slices - 1)
        };
        let last = tx.end_us.min(self.end_us);
        for i in idx(tx.start_us)..=idx(last.saturating_sub(1)) {
            let slice_end = ((i as u64 + 1) * self.slice_us).min(self.end_us);
            let share = tx.share(i as u64 * self.slice_us, slice_end);
            self.net_cluster[i] += share;
            if (dst as usize) < self.nodes {
                self.per_node[i * self.nodes + dst as usize].net_bytes += share;
            }
            if let Some(s_node) = src {
                if s_node != dst && (s_node as usize) < self.nodes {
                    self.per_node[i * self.nodes + s_node as usize].net_bytes += share;
                }
            }
        }
    }

    /// The whole-cluster readout (`sel` = `None`) or one node's,
    /// classified against that node's capacities.
    fn readout(&self, caps: &DeviceCaps, sel: Option<u32>) -> BoundProfile {
        if self.end_us == 0 {
            return BoundProfile::default();
        }
        let selected = |node: u32| sel.is_none_or(|s| s == node);
        let nodes = self.nodes;

        // Capacities of the selected nodes per slice.
        let slice_secs = self.slice_us as f64 / 1e6;
        let sel_caps = || {
            caps.per_node
                .iter()
                .enumerate()
                .filter(|(n, _)| selected(*n as u32))
        };
        let disk_cap = sel_caps().map(|(_, c)| c.disk_seq_bw).sum::<f64>() * slice_secs;
        let net_cap = sel_caps().map(|(_, c)| c.nic_bw).sum::<f64>() * slice_secs;
        let store_cap = (sel_caps().map(|(_, c)| c.store_bytes).sum::<u64>() as f64).max(1.0);

        let mut profile = BoundProfile {
            intervals: Vec::with_capacity(self.slices),
            end_us: self.end_us,
        };
        let mut last_cpu = 0.0;
        let mut store_level: Vec<u64> = vec![0; nodes];
        for i in 0..self.slices {
            // Fold the selected nodes' cells. All fields are exact
            // integer sums, so this reproduces the old event-order
            // accumulation regardless of summation order.
            let mut a = Acc::default();
            for n in 0..nodes {
                if !selected(n as u32) {
                    continue;
                }
                let cell = &self.per_node[i * nodes + n];
                a.cpu_busy += cell.cpu_busy;
                a.cpu_total += cell.cpu_total;
                a.samples += cell.samples;
                a.disk_bytes += cell.disk_bytes;
                a.spill_ops += cell.spill_ops;
                a.net_bytes += cell.net_bytes;
            }
            if sel.is_none() {
                // Cluster view: each transfer counts once (not once per
                // endpoint), and out-of-card events count here — no
                // single-node view can claim them.
                a.net_bytes = self.net_cluster[i];
                let s = &self.slop[i];
                a.cpu_busy += s.cpu_busy;
                a.cpu_total += s.cpu_total;
                a.samples += s.samples;
                a.disk_bytes += s.disk_bytes;
                a.spill_ops += s.spill_ops;
            }
            // Samples arrive every `RESOURCE_SAMPLE_US`; slices without
            // one carry the previous slice's levels (they describe
            // occupancy, not flow).
            let cpu_util = if a.samples > 0 {
                a.cpu_busy / a.cpu_total.max(1.0)
            } else {
                last_cpu
            };
            last_cpu = cpu_util;
            // Store occupancy: sum each selected node's latest known
            // level.
            for (n, level) in store_level.iter_mut().enumerate() {
                if let Some(peak) = self.store_peak[i * nodes + n] {
                    *level = peak;
                }
            }
            let store_used: u64 = store_level
                .iter()
                .enumerate()
                .filter(|(n, _)| selected(*n as u32))
                .map(|(_, l)| *l)
                .sum();
            let store_frac = (store_used as f64 / store_cap).min(1.0);
            let disk_util = a.disk_bytes as f64 / disk_cap.max(1.0);
            let net_util = a.net_bytes as f64 / net_cap.max(1.0);

            profile.intervals.push(Interval {
                start_us: i as u64 * self.slice_us,
                end_us: ((i as u64 + 1) * self.slice_us).min(self.end_us),
                bound: classify(cpu_util, disk_util, net_util, store_frac, a.spill_ops),
                cpu_util,
                disk_util,
                net_util,
                store_frac,
            });
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sim::NodeCaps;
    use exo_trace::{IoDir, IoEvent, ObjectEvent, ResourceSample};

    fn node_caps() -> NodeCaps {
        NodeCaps {
            cpu_slots: 8,
            disk_seq_bw: 1e9,
            disk_random_iops: 1500.0,
            disk_devices: 6,
            nic_bw: 1e9,
            store_bytes: 1_000_000,
        }
    }

    fn caps() -> DeviceCaps {
        DeviceCaps {
            per_node: vec![node_caps(); 2],
        }
    }

    fn io_on(node: u32, at_us: u64, bytes: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Io(IoEvent {
                node,
                dir: IoDir::Write,
                bytes,
            }),
        }
    }

    fn io(at_us: u64, bytes: u64) -> Event {
        io_on(0, at_us, bytes)
    }

    fn sample_on(node: u32, at_us: u64, busy: u32, store_used: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Resource(ResourceSample {
                node,
                cpu_slots_busy: busy,
                cpu_slots_total: 8,
                store_used,
                disk_queue_depth: 0,
                nic_bytes_in_flight: 0,
            }),
        }
    }

    fn sample(at_us: u64, busy: u32, store_used: u64) -> Event {
        sample_on(0, at_us, busy, store_used)
    }

    #[test]
    fn saturated_disk_classifies_disk_bound() {
        // 1 ms run, 2 nodes × 1 GB/s: capacity is 2 MB over the run.
        // Write 4 MB spread across it: every slice well over threshold.
        // Events land every 10 µs against ~8 µs slices, so a few
        // slices stay empty (idle) — the profile is still disk-dominated.
        let events: Vec<Event> = (0..100).map(|i| io(i * 10 + 1, 40_000)).collect();
        let p = attribute_all(&events, &caps()).0;
        assert!(p.fraction(Bound::Disk) > 0.7, "{}", p.one_line());
        assert_eq!(p.dominant(), Bound::Disk);
    }

    #[test]
    fn full_store_with_spilling_is_alloc_stall() {
        // Both nodes' stores are sampled near-full: cluster occupancy is
        // the *sum* of per-node levels, not an extrapolation of one node.
        let mut events = vec![sample_on(0, 10, 1, 999_000), sample_on(1, 10, 1, 999_000)];
        events.push(Event {
            at_us: 12,
            kind: EventKind::Object(ObjectEvent {
                object: 1,
                phase: ObjectPhase::Spilled,
                node: 0,
                src: None,
                bytes: 1000,
            }),
        });
        events.push(sample(1000, 1, 999_000));
        let p = attribute_all(&events, &caps()).0;
        assert!(p.fraction(Bound::AllocStall) > 0.0, "{}", p.one_line());
        // The slice containing the sample+spill (t=10..12) must stall.
        let stalled = p
            .intervals
            .iter()
            .find(|i| i.start_us <= 12 && 12 < i.end_us)
            .expect("slice exists");
        assert_eq!(stalled.bound, Bound::AllocStall);
    }

    #[test]
    fn one_full_store_does_not_stall_the_cluster_view() {
        // Node 0 is wedged full and spilling; node 1's store is empty.
        // Cluster occupancy is 50% — below the stall threshold — so the
        // old "peak node × nodes" extrapolation would have been wrong.
        let events = vec![
            sample_on(0, 10, 1, 999_000),
            sample_on(1, 10, 1, 0),
            Event {
                at_us: 12,
                kind: EventKind::Object(ObjectEvent {
                    object: 1,
                    phase: ObjectPhase::Spilled,
                    node: 0,
                    src: None,
                    bytes: 1000,
                }),
            },
            sample(1000, 1, 999_000),
        ];
        let p = attribute_all(&events, &caps()).0;
        assert!(
            (p.fraction(Bound::AllocStall) - 0.0).abs() < 1e-9,
            "{}",
            p.one_line()
        );
        // The per-node view still sees node 0 stalled.
        let per_node = attribute_all(&events, &caps()).1;
        assert_eq!(per_node.len(), 2);
        assert!(
            per_node[0].fraction(Bound::AllocStall) > 0.0,
            "{}",
            per_node[0].one_line()
        );
        assert!(
            (per_node[1].fraction(Bound::AllocStall) - 0.0).abs() < 1e-9,
            "{}",
            per_node[1].one_line()
        );
    }

    #[test]
    fn per_node_profiles_diverge_on_heterogeneous_caps() {
        // Node 0 is a slow disk (100 MB/s), node 1 a fast one (10 GB/s).
        // The same write stream on each node saturates only the slow one.
        let slow = NodeCaps {
            disk_seq_bw: 1e8,
            ..node_caps()
        };
        let fast = NodeCaps {
            disk_seq_bw: 1e10,
            ..node_caps()
        };
        let caps = DeviceCaps {
            per_node: vec![slow, fast],
        };
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.push(io_on(0, i * 10 + 1, 10_000));
            events.push(io_on(1, i * 10 + 1, 10_000));
        }
        let per_node = attribute_all(&events, &caps).1;
        assert_eq!(per_node[0].dominant(), Bound::Disk, "slow node saturates");
        assert_eq!(per_node[1].dominant(), Bound::Idle, "fast node coasts");
        // Each node's fractions tile the shared makespan.
        for p in &per_node {
            let sum: f64 = Bound::ALL.iter().map(|b| p.fraction(*b)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert_eq!(p.end_us, 991);
        }
    }

    #[test]
    fn idle_run_is_idle_and_fractions_sum_to_one() {
        let events = vec![sample(10, 0, 0), sample(1000, 0, 0)];
        let p = attribute_all(&events, &caps()).0;
        assert_eq!(p.dominant(), Bound::Idle);
        let sum: f64 = Bound::ALL.iter().map(|b| p.fraction(*b)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_cpu_classifies_cpu_bound() {
        let events: Vec<Event> = (1..=20).map(|i| sample(i * 50, 8, 0)).collect();
        let p = attribute_all(&events, &caps()).0;
        assert_eq!(p.dominant(), Bound::Cpu, "{}", p.one_line());
        assert!(p.fraction(Bound::Cpu) > 0.5);
    }

    #[test]
    fn empty_stream_has_no_intervals() {
        let p = attribute_all(&[], &caps()).0;
        assert!(p.intervals.is_empty());
        assert_eq!(p.one_line(), "no data");
    }

    /// The pre-memoization implementation: one full stream scan per
    /// selection. Kept verbatim as the oracle for the single-pass
    /// rewrite — every view must match it bit for bit.
    fn naive_attribute_selected(
        events: &[Event],
        caps: &DeviceCaps,
        end_us: u64,
        sel: Option<u32>,
    ) -> BoundProfile {
        if end_us == 0 {
            return BoundProfile::default();
        }
        let slice_us = (end_us / TARGET_SLICES).max(1);
        let slices = end_us.div_ceil(slice_us) as usize;
        let selected = |node: u32| sel.is_none_or(|s| s == node);

        let mut acc = vec![Acc::default(); slices];
        let nodes = caps.nodes();
        let mut store_peak: Vec<Option<u64>> = vec![None; slices * nodes];
        let idx = |at_us: u64| (((at_us.min(end_us - 1)) / slice_us) as usize).min(slices - 1);
        let mut tx_replay = TxReplay::new(caps);
        let spread = |acc: &mut Vec<Acc>, tx: Transmit| {
            let last = tx.end_us.min(end_us);
            let (i0, i1) = (idx(tx.start_us), idx(last.saturating_sub(1)));
            for (i, slot) in acc.iter_mut().enumerate().take(i1 + 1).skip(i0) {
                slot.net_bytes +=
                    tx.share(i as u64 * slice_us, ((i as u64 + 1) * slice_us).min(end_us));
            }
        };
        for ev in events {
            let i = idx(ev.at_us);
            match &ev.kind {
                EventKind::Resource(r) if selected(r.node) => {
                    let a = &mut acc[i];
                    a.cpu_busy += r.cpu_slots_busy as f64;
                    a.cpu_total += r.cpu_slots_total.max(1) as f64;
                    a.samples += 1;
                    if (r.node as usize) < nodes {
                        let cell = &mut store_peak[i * nodes + r.node as usize];
                        *cell = Some(cell.unwrap_or(0).max(r.store_used));
                    }
                }
                EventKind::Io(io) if selected(io.node) => acc[i].disk_bytes += io.bytes,
                EventKind::Object(o) => match o.phase {
                    ObjectPhase::Transferred => {
                        let tx = tx_replay.transmit(ev.at_us, o.src, o.bytes);
                        if selected(o.node) || o.src.is_some_and(selected) {
                            spread(&mut acc, tx);
                        }
                    }
                    ObjectPhase::Spilled | ObjectPhase::Restored | ObjectPhase::Fallback
                        if selected(o.node) =>
                    {
                        acc[i].spill_ops += 1;
                    }
                    _ => {}
                },
                _ => {}
            }
        }

        let slice_secs = slice_us as f64 / 1e6;
        let sel_caps = || {
            caps.per_node
                .iter()
                .enumerate()
                .filter(|(n, _)| selected(*n as u32))
        };
        let disk_cap = sel_caps().map(|(_, c)| c.disk_seq_bw).sum::<f64>() * slice_secs;
        let net_cap = sel_caps().map(|(_, c)| c.nic_bw).sum::<f64>() * slice_secs;
        let store_cap = (sel_caps().map(|(_, c)| c.store_bytes).sum::<u64>() as f64).max(1.0);

        let mut profile = BoundProfile {
            intervals: Vec::with_capacity(slices),
            end_us,
        };
        let mut last_cpu = 0.0;
        let mut store_level: Vec<u64> = vec![0; nodes];
        for (i, a) in acc.iter().enumerate() {
            let cpu_util = if a.samples > 0 {
                a.cpu_busy / a.cpu_total.max(1.0)
            } else {
                last_cpu
            };
            last_cpu = cpu_util;
            for (n, level) in store_level.iter_mut().enumerate() {
                if let Some(peak) = store_peak[i * nodes + n] {
                    *level = peak;
                }
            }
            let store_used: u64 = store_level
                .iter()
                .enumerate()
                .filter(|(n, _)| selected(*n as u32))
                .map(|(_, l)| *l)
                .sum();
            let store_frac = (store_used as f64 / store_cap).min(1.0);
            let disk_util = a.disk_bytes as f64 / disk_cap.max(1.0);
            let net_util = a.net_bytes as f64 / net_cap.max(1.0);
            profile.intervals.push(Interval {
                start_us: i as u64 * slice_us,
                end_us: ((i as u64 + 1) * slice_us).min(end_us),
                bound: classify(cpu_util, disk_util, net_util, store_frac, a.spill_ops),
                cpu_util,
                disk_util,
                net_util,
                store_frac,
            });
        }
        profile
    }

    fn profiles_identical(a: &BoundProfile, b: &BoundProfile) -> bool {
        a.end_us == b.end_us
            && a.intervals.len() == b.intervals.len()
            && a.intervals.iter().zip(&b.intervals).all(|(x, y)| {
                x.start_us == y.start_us
                    && x.end_us == y.end_us
                    && x.bound == y.bound
                    && x.cpu_util.to_bits() == y.cpu_util.to_bits()
                    && x.disk_util.to_bits() == y.disk_util.to_bits()
                    && x.net_util.to_bits() == y.net_util.to_bits()
                    && x.store_frac.to_bits() == y.store_frac.to_bits()
            })
    }

    /// Deterministic generator for a large synthetic trace mixing every
    /// attributable event shape: bursty cross-node transfers (shared
    /// tx queues), disk traffic, resource samples, spills, and a few
    /// deliberately out-of-card node ids.
    fn synthetic_trace(n_events: u64, nodes: u32) -> Vec<Event> {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut events = Vec::new();
        for k in 0..n_events {
            // Bursty timestamps: many events share an instant, like a
            // stage submitting all its transfers at once.
            let at_us = 1 + (k / 7) * (1 + next() % 900);
            let node = (next() % (nodes as u64 + 2)) as u32; // sometimes out of card
            let bytes = next() % 200_000_000;
            let ev = match next() % 5 {
                0 => EventKind::Io(IoEvent {
                    node,
                    dir: if bytes % 2 == 0 {
                        IoDir::Read
                    } else {
                        IoDir::Write
                    },
                    bytes,
                }),
                1 => EventKind::Resource(ResourceSample {
                    node,
                    cpu_slots_busy: (next() % 9) as u32,
                    cpu_slots_total: 8,
                    store_used: bytes,
                    disk_queue_depth: 0,
                    nic_bytes_in_flight: 0,
                }),
                2 | 3 => EventKind::Object(ObjectEvent {
                    object: k,
                    phase: ObjectPhase::Transferred,
                    node,
                    src: if next() % 4 == 0 {
                        None
                    } else {
                        Some((next() % (nodes as u64 + 1)) as u32)
                    },
                    bytes,
                }),
                _ => EventKind::Object(ObjectEvent {
                    object: k,
                    phase: match next() % 3 {
                        0 => ObjectPhase::Spilled,
                        1 => ObjectPhase::Restored,
                        _ => ObjectPhase::Fallback,
                    },
                    node,
                    src: None,
                    bytes,
                }),
            };
            events.push(Event { at_us, kind: ev });
        }
        events.sort_by_key(|e| e.at_us);
        events
    }

    #[test]
    fn single_pass_matches_per_selection_scans_bit_for_bit() {
        let nodes = 7u32;
        let events = synthetic_trace(50_000, nodes);
        let caps = {
            let per_node = (0..nodes as usize)
                .map(|i| NodeCaps {
                    cpu_slots: 4 + 4 * (i % 3),
                    disk_seq_bw: 100e6 * (1 + i % 5) as f64,
                    disk_random_iops: 1500.0,
                    disk_devices: 1 + i % 4,
                    nic_bw: 250e6 * (1 + i % 3) as f64,
                    store_bytes: 1 << (27 + i % 3),
                })
                .collect();
            DeviceCaps { per_node }
        };
        let end_us = events.iter().map(|e| e.at_us).max().unwrap_or(0);
        let (cluster, per_node) = attribute_all(&events, &caps);
        assert!(
            profiles_identical(
                &cluster,
                &naive_attribute_selected(&events, &caps, end_us, None)
            ),
            "cluster profile diverged from the per-selection oracle"
        );
        assert_eq!(per_node.len(), nodes as usize);
        for (n, p) in per_node.iter().enumerate() {
            assert!(
                profiles_identical(
                    p,
                    &naive_attribute_selected(&events, &caps, end_us, Some(n as u32))
                ),
                "node {n} profile diverged from the per-selection oracle"
            );
        }
    }
}
