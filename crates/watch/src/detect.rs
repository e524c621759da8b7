//! The detector engine: one [`Recorder`] holding detector state only —
//! the incident table, open keys, transitions, hotspot timers,
//! cascades and the evaluation clock. Everything it judges (bounds,
//! in-flight tasks, stage sketches, the queue-delay sketch, tenant
//! tallies) it reads from the shared [`Fold`].
//!
//! Evaluation discipline: before an event at `t` is folded, every
//! virtual-time boundary `b ≤ t` (multiples of `eval_interval_us`) that
//! has not yet been evaluated is, in order — so detector verdicts
//! depend only on the event stream's timestamps, never on how often the
//! runtime happens to tick. Anything that iterates across tasks or open
//! incidents sorts first: incident ids must not depend on hash order.

use std::collections::HashMap;

use exo_live::{Fold, WINDOW_US};
use exo_sim::DeviceCaps;
use exo_trace::{Event, EventKind, IncidentEvent, IncidentKind, TaskPhase};

use crate::{Incident, WatchConfig, WatchReport};

/// Identity of an *open* incident, for matching a later close edge to
/// it. Ordered so force-close sweeps are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    /// Per running task.
    Straggler(u64),
    /// Per node; `true` = network, `false` = disk.
    Hotspot(u32, bool),
    /// Per node.
    Spill(u32),
    /// Cluster-wide (one queue-delay sketch).
    Queue,
    /// Per failure, by index into `cascades`.
    Cascade(u32),
    /// Per tenant: concurrent running tasks exceeded the slot quota.
    Isolation(u32),
}

/// One failure's reconstruction accounting.
#[derive(Debug, Clone, Copy)]
struct Cascade {
    node: u32,
    t_fail_us: u64,
    /// Tasks that were queued or running on the failed node — the set
    /// the failure loses *directly*. Lineage resubmits beyond this are
    /// the cascade.
    direct_loss: u64,
    retries: u64,
}

/// The detectors' own state. Feed it every event through
/// [`Recorder::observe`] *before* the fold applies that event.
#[derive(Debug)]
pub struct Recorder {
    cfg: WatchConfig,
    /// Per-node store capacity (spill-storm threshold base).
    store_bytes: Vec<u64>,
    /// When the fold's queue-delay window next rotates into its baseline.
    queue_next_rotate_us: u64,
    cascades: Vec<Cascade>,
    /// Since when the hotspot condition has held, per node × {disk,net}.
    hot_since: Vec<[Option<u64>; 2]>,
    incidents: Vec<Incident>,
    open: HashMap<Key, usize>,
    transitions: Vec<(u64, IncidentEvent)>,
    next_id: u32,
    next_eval_us: u64,
}

impl Recorder {
    pub fn new(cfg: WatchConfig, caps: &DeviceCaps) -> Recorder {
        Recorder {
            store_bytes: caps.per_node.iter().map(|n| n.store_bytes).collect(),
            queue_next_rotate_us: WINDOW_US,
            cascades: Vec::new(),
            hot_since: vec![[None; 2]; caps.nodes()],
            incidents: Vec::new(),
            open: HashMap::new(),
            transitions: Vec::new(),
            next_id: 0,
            next_eval_us: cfg.eval_interval_us,
            cfg,
        }
    }

    /// Every incident detected so far (open and closed), in open order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Takes the open/close transitions recorded since the last drain.
    /// The *runtime* re-emits these into the trace sink — an observer
    /// runs under the sink lock and must never do so itself.
    pub fn drain_transitions(&mut self) -> Vec<(u64, IncidentEvent)> {
        std::mem::take(&mut self.transitions)
    }

    /// Sees `ev` before `fold` applies it.
    pub fn observe(&mut self, fold: &mut Fold, ev: &Event) {
        // Catch up on every evaluation boundary this event's timestamp
        // crosses, *before* the event is folded: state at boundary `b`
        // is exactly the events strictly before `b` plus those at `b`
        // already seen, which is what an online monitor would have.
        while self.next_eval_us <= ev.at_us {
            let t = self.next_eval_us;
            self.evaluate(fold, t);
            self.next_eval_us = t + self.cfg.eval_interval_us;
        }
        match &ev.kind {
            EventKind::Task(t) => match t.phase {
                TaskPhase::Scheduled => {
                    if t.retry {
                        self.on_retry(ev.at_us);
                    }
                    // A reschedule (failure re-run or lineage resubmit)
                    // supersedes the old attempt; a straggler verdict
                    // on it closes here.
                    self.close(Key::Straggler(t.task), ev.at_us);
                }
                TaskPhase::Finished => self.close(Key::Straggler(t.task), ev.at_us),
                TaskPhase::Dequeued | TaskPhase::Started => {}
            },
            EventKind::Failure(f) => {
                let direct = fold.tasks().values().filter(|s| s.node == f.node).count() as u64;
                self.cascades.push(Cascade {
                    node: f.node,
                    t_fail_us: ev.at_us,
                    direct_loss: direct,
                    retries: 0,
                });
            }
            // Everything else reaches the detectors through the fold;
            // incident edges are detector *output*, never input.
            // Enumerated so a new variant is a compile error here.
            EventKind::Object(_)
            | EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Io(_)
            | EventKind::Resource(_)
            | EventKind::Incident(_)
            | EventKind::Job(_) => {}
        }
    }

    /// A lineage resubmit at `at_us`: credit it to every failure whose
    /// attribution window covers it, opening the cascade incident at
    /// the resubmit that first exceeds the direct-loss set.
    fn on_retry(&mut self, at_us: u64) {
        for i in 0..self.cascades.len() {
            let c = &mut self.cascades[i];
            if at_us > c.t_fail_us + self.cfg.cascade_window_us {
                continue;
            }
            c.retries += 1;
            let threshold = c.direct_loss.max(1) as f64;
            let (retries, node) = (c.retries as f64, c.node);
            if retries > threshold {
                self.open_or_peak(
                    Key::Cascade(i as u32),
                    at_us,
                    IncidentKind::ReconstructionCascade,
                    Some(node),
                    None,
                    None,
                    None,
                    retries,
                    threshold,
                );
            }
        }
    }

    /// One detector pass at virtual time `t` (an eval boundary).
    fn evaluate(&mut self, fold: &mut Fold, t: u64) {
        self.eval_hotspots(fold, t);
        self.eval_spill(fold, t);
        self.eval_queue(fold, t);
        self.eval_stragglers(fold, t);
        self.eval_cascades(t);
        self.eval_isolation(fold, t);
    }

    /// Concurrent-slot isolation: a tenant running more tasks than its
    /// configured quota at an evaluation boundary is a violation of the
    /// fair-share guarantee the scheduler is supposed to enforce.
    fn eval_isolation(&mut self, fold: &Fold, t: u64) {
        if self.cfg.tenant_slot_quotas.is_empty() {
            return;
        }
        let quotas = self.cfg.tenant_slot_quotas.clone();
        for (tenant, quota) in quotas {
            let running = fold.running(tenant);
            if running > quota as u64 {
                self.open_or_peak(
                    Key::Isolation(tenant),
                    t,
                    IncidentKind::IsolationViolation,
                    None,
                    None,
                    None,
                    Some(tenant),
                    running as f64,
                    quota as f64,
                );
            } else {
                self.close(Key::Isolation(tenant), t);
            }
        }
    }

    fn eval_hotspots(&mut self, fold: &Fold, t: u64) {
        let windows = fold.bounds().snapshot(t);
        // Median over nodes, per device. With a single pinned outlier
        // the median tracks the healthy majority.
        let median = |vals: &mut Vec<f64>| -> f64 {
            vals.sort_by(f64::total_cmp);
            vals.get(vals.len() / 2).copied().unwrap_or(0.0)
        };
        let mut disk: Vec<f64> = windows.iter().map(|w| w.disk_util).collect();
        let mut net: Vec<f64> = windows.iter().map(|w| w.net_util).collect();
        let med = [median(&mut disk), median(&mut net)];
        for w in &windows {
            for (dev, util) in [(0usize, w.disk_util), (1, w.net_util)] {
                let key = Key::Hotspot(w.node, dev == 1);
                let kind = if dev == 1 {
                    IncidentKind::NetHotspot
                } else {
                    IncidentKind::DiskHotspot
                };
                let pinned =
                    util >= self.cfg.hotspot_util && med[dev] <= self.cfg.hotspot_median_util;
                if pinned {
                    let since = *self.hot_since[w.node as usize][dev].get_or_insert(t);
                    if t - since >= self.cfg.hotspot_min_us {
                        self.open_or_peak(
                            key,
                            t,
                            kind,
                            Some(w.node),
                            None,
                            None,
                            None,
                            util,
                            self.cfg.hotspot_util,
                        );
                    }
                } else {
                    self.hot_since[w.node as usize][dev] = None;
                    self.close(key, t);
                }
            }
        }
    }

    fn eval_spill(&mut self, fold: &Fold, t: u64) {
        for node in 0..self.store_bytes.len() {
            let threshold = self.cfg.spill_window_frac * self.store_bytes[node] as f64;
            let bytes = fold.bounds().spill_bytes(node, t) as f64;
            if threshold > 0.0 && bytes > threshold {
                self.open_or_peak(
                    Key::Spill(node as u32),
                    t,
                    IncidentKind::SpillStorm,
                    Some(node as u32),
                    None,
                    None,
                    None,
                    bytes,
                    threshold,
                );
            } else {
                self.close(Key::Spill(node as u32), t);
            }
        }
    }

    fn eval_queue(&mut self, fold: &mut Fold, t: u64) {
        let queue = fold.queue_us();
        let base_p99 = queue.baseline().quantile(0.99).max(self.cfg.queue_min_us);
        let threshold = self.cfg.queue_ratio * base_p99 as f64;
        let window_p99 = queue.window().quantile(0.99) as f64;
        let blown = queue.window().count() >= self.cfg.queue_min_count
            && queue.baseline().count() >= self.cfg.queue_min_count
            && window_p99 > threshold;
        if blown {
            self.open_or_peak(
                Key::Queue,
                t,
                IncidentKind::QueueDelay,
                None,
                None,
                None,
                None,
                window_p99,
                threshold,
            );
        } else {
            self.close(Key::Queue, t);
        }
        // Rotate *after* judging, on window boundaries: the window just
        // judged becomes baseline.
        if t >= self.queue_next_rotate_us {
            fold.rotate_queue();
            self.queue_next_rotate_us = t + WINDOW_US;
        }
    }

    fn eval_stragglers(&mut self, fold: &Fold, t: u64) {
        // Sorted sweep: incident ids must not depend on hash order.
        let mut ids: Vec<u64> = fold.tasks().keys().copied().collect();
        ids.sort_unstable();
        for task in ids {
            let st = fold.tasks()[&task];
            let Some(started) = st.started_us else {
                continue;
            };
            let peers = fold
                .stage_exec(st.label)
                .map(|s| (s.count(), s.quantile(0.5)))
                .filter(|(n, _)| *n >= self.cfg.straggler_min_peers);
            let Some((_, p50)) = peers else { continue };
            let threshold =
                (self.cfg.straggler_ratio * p50 as f64).max(self.cfg.straggler_min_us as f64);
            let elapsed = (t - started) as f64;
            if elapsed > threshold {
                self.open_or_peak(
                    Key::Straggler(task),
                    t,
                    IncidentKind::Straggler,
                    Some(st.node),
                    Some(st.label),
                    Some(task),
                    None,
                    elapsed,
                    threshold,
                );
            }
            // No else-close: a straggler verdict stands until the task
            // finishes or is rescheduled (handled in `observe`).
        }
    }

    fn eval_cascades(&mut self, t: u64) {
        for i in 0..self.cascades.len() {
            if t > self.cascades[i].t_fail_us + self.cfg.cascade_window_us {
                self.close(Key::Cascade(i as u32), t);
            }
        }
    }

    /// Opens the incident for `key` (recording the open transition), or
    /// updates its peak evidence if already open.
    #[allow(clippy::too_many_arguments)]
    fn open_or_peak(
        &mut self,
        key: Key,
        t: u64,
        kind: IncidentKind,
        node: Option<u32>,
        stage: Option<&'static str>,
        task: Option<u64>,
        tenant: Option<u32>,
        value: f64,
        threshold: f64,
    ) {
        if let Some(&idx) = self.open.get(&key) {
            let inc = &mut self.incidents[idx];
            if value > inc.value {
                inc.value = value;
                inc.severity = value / inc.threshold.max(f64::MIN_POSITIVE);
            }
            return;
        }
        let severity = value / threshold.max(f64::MIN_POSITIVE);
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(key, self.incidents.len());
        self.incidents.push(Incident {
            id,
            kind,
            t_open_us: t,
            t_close_us: None,
            node,
            stage,
            task,
            tenant,
            value,
            threshold,
            severity,
        });
        self.transitions.push((
            t,
            IncidentEvent {
                id,
                kind,
                open: true,
                severity,
                node,
                stage,
                task,
                tenant,
                value,
                threshold,
            },
        ));
    }

    /// Closes the incident for `key` at `t`, if open, recording the
    /// close transition with the peak evidence.
    fn close(&mut self, key: Key, t: u64) {
        let Some(idx) = self.open.remove(&key) else {
            return;
        };
        let inc = &mut self.incidents[idx];
        inc.t_close_us = Some(t.max(inc.t_open_us));
        self.transitions.push((
            inc.t_close_us.expect("just set"),
            IncidentEvent {
                id: inc.id,
                kind: inc.kind,
                open: false,
                severity: inc.severity,
                node: inc.node,
                stage: inc.stage,
                task: inc.task,
                tenant: inc.tenant,
                value: inc.value,
                threshold: inc.threshold,
            },
        ));
    }

    /// Final flush at the run's end time: evaluate any boundaries the
    /// event stream never reached, then force-close everything still
    /// open at `end_us` (an open interval would otherwise be
    /// unrepresentable in the exporters). Drain the transitions
    /// afterwards to pick up the close edges.
    pub fn finish(&mut self, fold: &mut Fold, end_us: u64) -> WatchReport {
        while self.next_eval_us <= end_us {
            let t = self.next_eval_us;
            self.evaluate(fold, t);
            self.next_eval_us = t + self.cfg.eval_interval_us;
        }
        let mut keys: Vec<Key> = self.open.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            self.close(key, end_us);
        }
        WatchReport {
            incidents: self.incidents.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sim::NodeCaps;
    use exo_trace::{
        FailureEvent, FailureKind, IoDir, IoEvent, ObjectEvent, ObjectPhase, TaskSpan,
    };

    fn caps(nodes: usize) -> DeviceCaps {
        DeviceCaps::uniform(
            NodeCaps {
                cpu_slots: 8,
                disk_seq_bw: 1e8,
                disk_random_iops: 1500.0,
                disk_devices: 1,
                nic_bw: 1e8,
                store_bytes: 1_000_000,
            },
            nodes,
        )
    }

    fn cfg() -> WatchConfig {
        WatchConfig {
            eval_interval_us: 100_000,
            straggler_min_peers: 2,
            straggler_min_us: 100_000,
            hotspot_min_us: 300_000,
            queue_min_count: 4,
            ..WatchConfig::default()
        }
    }

    /// The detectors and the fold they read, fed in the runtime
    /// observer's order: detectors first, then the fold.
    struct Rig {
        rec: Recorder,
        fold: Fold,
    }

    impl Rig {
        fn observe(&mut self, ev: &Event) {
            self.rec.observe(&mut self.fold, ev);
            self.fold.apply(ev);
        }

        fn finish(&mut self, end_us: u64) {
            self.rec.finish(&mut self.fold, end_us);
        }

        fn incidents(&self) -> &[Incident] {
            self.rec.incidents()
        }

        fn drain_transitions(&mut self) -> Vec<(u64, IncidentEvent)> {
            self.rec.drain_transitions()
        }
    }

    fn rec() -> Rig {
        Rig {
            rec: Recorder::new(cfg(), &caps(4)),
            fold: Fold::new(&caps(4)),
        }
    }

    fn task(phase: TaskPhase, id: u64, node: u32, at_us: u64) -> Event {
        task_retry(phase, id, node, at_us, false)
    }

    fn task_retry(phase: TaskPhase, id: u64, node: u32, at_us: u64, retry: bool) -> Event {
        Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task: id,
                phase,
                node,
                label: "map",
                attempt: 0,
                retry,
                reason: None,
            }),
        }
    }

    fn run_task(r: &mut Rig, id: u64, node: u32, start: u64, exec: u64) {
        r.observe(&task(TaskPhase::Scheduled, id, node, start));
        r.observe(&task(TaskPhase::Dequeued, id, node, start));
        r.observe(&task(TaskPhase::Started, id, node, start));
        r.observe(&task(TaskPhase::Finished, id, node, start + exec));
    }

    #[test]
    fn straggler_fires_after_peers_finish_and_closes_on_finish() {
        let mut r = rec();
        for id in 0..4 {
            run_task(&mut r, id, 0, 1_000 * id, 50_000);
        }
        // Task 99 starts at 200 ms and runs far past 3× the 50 ms p50.
        r.observe(&task(TaskPhase::Scheduled, 99, 1, 200_000));
        r.observe(&task(TaskPhase::Started, 99, 1, 200_000));
        r.observe(&task(TaskPhase::Finished, 99, 1, 1_200_000));
        let open = r.incidents();
        assert_eq!(open.len(), 1, "exactly one straggler: {open:?}");
        let inc = open[0];
        assert_eq!(inc.kind, IncidentKind::Straggler);
        assert_eq!(inc.task, Some(99));
        assert_eq!(inc.stage, Some("map"));
        assert_eq!(inc.t_close_us, Some(1_200_000));
        assert!(inc.severity >= 1.0);
    }

    #[test]
    fn uniform_tasks_fire_nothing() {
        let mut r = rec();
        for id in 0..32 {
            run_task(&mut r, id, (id % 4) as u32, 10_000 * id, 60_000);
        }
        r.finish(2_000_000);
        assert!(r.incidents().is_empty(), "{:?}", r.incidents());
    }

    #[test]
    fn single_hot_disk_opens_and_closes() {
        let mut r = rec();
        // 1e8 B/s disk → 10 KB per 100 µs bucket capacity; node 0 writes
        // at ~2× capacity for 2.5 s while others are idle.
        for i in 0..25u64 {
            r.observe(&Event {
                at_us: i * 100_000,
                kind: EventKind::Io(IoEvent {
                    node: 0,
                    dir: IoDir::Write,
                    bytes: 20_000_000,
                }),
            });
        }
        // Quiet period long enough for the window to drain.
        r.observe(&Event {
            at_us: 6_000_000,
            kind: EventKind::Io(IoEvent {
                node: 1,
                dir: IoDir::Read,
                bytes: 1,
            }),
        });
        let incs = r.incidents();
        let hot: Vec<_> = incs
            .iter()
            .filter(|i| i.kind == IncidentKind::DiskHotspot)
            .collect();
        assert_eq!(hot.len(), 1, "{incs:?}");
        assert_eq!(hot[0].node, Some(0));
        assert!(hot[0].t_close_us.is_some());
    }

    #[test]
    fn disk_hotspot_fires_while_another_node_is_backlogged() {
        let mut r = rec();
        // Node 3 queues 1 GB on its 1e8 B/s wire at t=0: ten seconds of
        // transmit, far more than one window ahead of the present.
        r.observe(&Event {
            at_us: 0,
            kind: EventKind::Object(ObjectEvent {
                object: 1,
                phase: ObjectPhase::Transferred,
                node: 2,
                src: Some(3),
                bytes: 1_000_000_000,
            }),
        });
        for i in 0..25u64 {
            r.observe(&Event {
                at_us: i * 100_000,
                kind: EventKind::Io(IoEvent {
                    node: 0,
                    dir: IoDir::Write,
                    bytes: 20_000_000,
                }),
            });
        }
        r.finish(4_000_000);
        let incs = r.incidents();
        assert!(
            incs.iter()
                .any(|i| i.kind == IncidentKind::DiskHotspot && i.node == Some(0)),
            "{incs:?}"
        );
    }

    #[test]
    fn spill_storm_on_windowed_bytes() {
        let mut r = rec();
        // Store is 1 MB; default frac 8.0 → 8 MB/window threshold.
        // Spill 10 MB within half a window on node 2.
        for i in 0..10u64 {
            r.observe(&Event {
                at_us: 100_000 + i * 50_000,
                kind: EventKind::Object(ObjectEvent {
                    object: i,
                    phase: ObjectPhase::Spilled,
                    node: 2,
                    src: None,
                    bytes: 1_000_000,
                }),
            });
        }
        r.finish(1_000_000);
        let incs = r.incidents();
        assert_eq!(incs.len(), 1, "{incs:?}");
        assert_eq!(incs[0].kind, IncidentKind::SpillStorm);
        assert_eq!(incs[0].node, Some(2));
        assert_eq!(incs[0].t_close_us, Some(1_000_000), "force-closed at end");
    }

    #[test]
    fn cascade_counts_only_beyond_direct_loss() {
        let mut r = rec();
        // Two tasks live on node 3 at failure time → direct loss 2.
        r.observe(&task(TaskPhase::Scheduled, 1, 3, 10_000));
        r.observe(&task(TaskPhase::Scheduled, 2, 3, 11_000));
        r.observe(&task(TaskPhase::Scheduled, 3, 1, 12_000));
        r.observe(&Event {
            at_us: 20_000,
            kind: EventKind::Failure(FailureEvent {
                node: 3,
                kind: FailureKind::NodeKilled,
            }),
        });
        // Two lineage resubmits: at the direct-loss budget, no incident.
        r.observe(&task_retry(TaskPhase::Scheduled, 10, 1, 30_000, true));
        r.observe(&task_retry(TaskPhase::Scheduled, 11, 1, 31_000, true));
        assert!(r.incidents().is_empty());
        // The third exceeds it: cascade opens at that event's time.
        r.observe(&task_retry(TaskPhase::Scheduled, 12, 1, 32_000, true));
        let incs = r.incidents();
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].kind, IncidentKind::ReconstructionCascade);
        assert_eq!(incs[0].t_open_us, 32_000);
        assert_eq!(incs[0].node, Some(3));
        // Window expiry closes it.
        r.finish(20_000 + cfg().cascade_window_us + 200_000);
        assert!(r.incidents()[0].t_close_us.is_some());
    }

    #[test]
    fn queue_blowup_against_baseline() {
        let mut r = rec();
        let mut id = 0u64;
        // Baseline: ~10 ms queue delays over the first two windows.
        let mut t = 0u64;
        for _ in 0..40 {
            r.observe(&task(TaskPhase::Scheduled, id, 0, t));
            r.observe(&task(TaskPhase::Dequeued, id, 0, t + 10_000));
            id += 1;
            t += 50_000;
        }
        // Blowup: 400 ms delays (≥ 4× the 50 ms floor) in later windows.
        for _ in 0..40 {
            r.observe(&task(TaskPhase::Scheduled, id, 0, t));
            r.observe(&task(TaskPhase::Dequeued, id, 0, t + 400_000));
            id += 1;
            t += 50_000;
        }
        r.finish(t + 1_000_000);
        let incs = r.incidents();
        assert!(
            incs.iter().any(|i| i.kind == IncidentKind::QueueDelay),
            "{incs:?}"
        );
    }

    #[test]
    fn transitions_pair_and_drain_once() {
        let mut r = rec();
        for id in 0..4 {
            run_task(&mut r, id, 0, 1_000 * id, 50_000);
        }
        r.observe(&task(TaskPhase::Scheduled, 99, 1, 200_000));
        r.observe(&task(TaskPhase::Started, 99, 1, 200_000));
        r.observe(&task(TaskPhase::Finished, 99, 1, 1_200_000));
        let tr = r.drain_transitions();
        assert_eq!(tr.len(), 2);
        assert!(tr[0].1.open && !tr[1].1.open);
        assert_eq!(tr[0].1.id, tr[1].1.id);
        assert!(tr[0].0 <= tr[1].0);
        assert!(r.drain_transitions().is_empty());
    }
}
