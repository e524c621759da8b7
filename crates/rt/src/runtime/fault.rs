//! Fault handling: node and executor kills, node restarts, and
//! [`Runtime::abandon_attempt`], the one way to drop a task attempt.
//! Every requeue is a new attempt, so no `(task, attempt)` runs twice.

use exo_sim::engine::Ctx;
use exo_sim::SimDuration;
use exo_store::{NodeStore, StoreConfig};
use exo_trace::{EventKind, FailureEvent, FailureKind};

use super::{device_event, RtEvent, Runtime, TaskState};
use crate::ids::{NodeId, ObjectId, TaskId};

/// A fault-handling event: a failure the driver injects, or the restart
/// a node kill schedules.
pub enum Fault {
    /// Kill a node with its store; restart it after the delay, if given.
    KillNode(NodeId, Option<SimDuration>),
    /// Kill a node's executors; its store and objects survive.
    KillExecutors(NodeId),
    /// Bring a killed node back.
    RestartNode(NodeId),
}

/// Why [`Runtime::abandon_attempt`] drops an attempt.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// Its node died, and the store with it.
    NodeLost,
    /// Its node's executors died; the store survives.
    ExecutorsLost,
    /// The task finished and re-runs to rebuild lost outputs (§4.2.3).
    Reconstruct,
}

impl Runtime {
    /// Fire a fault at its instant.
    pub(super) fn on_fault(&mut self, ctx: &mut Ctx<'_, RtEvent>, fault: Fault) {
        match fault {
            Fault::KillNode(node, restart_after) => {
                // A kill of a node already down is a no-op, restart and all.
                let killed = self.kill_node(ctx, node);
                if let Some(d) = restart_after.filter(|_| killed) {
                    ctx.schedule(d, RtEvent::Fault(Fault::RestartNode(node)));
                }
            }
            Fault::KillExecutors(node) => self.kill_executors(ctx, node),
            Fault::RestartNode(node) => self.restart_node(ctx, node),
        }
    }

    /// Re-execute a finished task to reconstruct lost outputs (§4.2.3).
    /// A task not yet finished is already on its way to sealing them.
    pub(super) fn resubmit(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId) {
        self.abandon_attempt(ctx, task, Cause::Reconstruct);
    }

    /// Drop the task's attempt and send it back through the ready pool as
    /// the next one. A loss applies to a placed task and `Reconstruct` to
    /// a finished one; any other state is left as it is.
    fn abandon_attempt(&mut self, ctx: &mut Ctx<'_, RtEvent>, task: TaskId, cause: Cause) {
        let Some(e) = self.tasks.get_mut(task.0) else {
            return;
        };
        let abandoned = match cause {
            Cause::NodeLost | Cause::ExecutorsLost => e.state.attempt().is_some(),
            Cause::Reconstruct => matches!(e.state, TaskState::Done),
        };
        if !abandoned {
            return;
        }
        let old = std::mem::replace(&mut e.state, TaskState::UNSCANNED);
        // Voids the dead attempt's in-flight events.
        e.epoch += 1;
        e.attempt += 1;
        let outputs = e.outputs();
        if let Some(a) = old.attempt() {
            // Its pins and unsealed outputs go (no-ops after a node kill,
            // which rebuilt the store), and it leaves service.
            let store = &mut self.nodes[a.node.0].store;
            for arg in &a.pinned {
                if store.contains(arg.0) {
                    store.unpin(arg.0);
                }
            }
            for o in outputs {
                let sealed_here = self
                    .objects
                    .get(o.0)
                    .is_some_and(|e| e.copies.contains(a.node));
                if store.contains(o.0) && !sealed_here {
                    store.unpin(o.0);
                    store.forget(o.0);
                }
            }
            let tenant = self.tenant_of(task.job());
            self.jobs.task_unscheduled(tenant);
        }
        if cause == Cause::Reconstruct {
            // Counted (via the next Scheduled event's `retry` flag) when
            // the re-execution is placed; it holds its args again.
            let e = self.task_mut(task);
            e.retry_pending = true;
            e.reconstructing = true;
            for a in e.obj_args.clone() {
                self.ensure_obj_entry(a).task_refs += 1;
            }
        }
        self.enqueue_ready(ctx, task);
    }

    /// Kill `node` with its store; returns false, doing nothing, when it
    /// is already dead.
    fn kill_node(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) -> bool {
        let capacity = self.nodes[node.0].store.config().capacity;
        let cpus = self.cfg.cluster.node(node.0).cpus;
        let sink = self.sink.clone();
        let n = &mut self.nodes[node.0];
        if !n.alive {
            return false;
        }
        n.alive = false;
        n.epoch += 1;
        sink.emit(EventKind::Failure(FailureEvent {
            node: node.0 as u32,
            kind: FailureKind::NodeKilled,
        }));
        // Rebuild the store (all objects on the node, memory or disk, are
        // lost — matching the paper's fail-and-restart of a whole worker).
        let cfg = *n.store.config();
        n.store = NodeStore::with_trace(StoreConfig { capacity, ..cfg }, sink, node.0 as u32);
        // The dead node's booked completions stay queued, void, at their
        // `(end, seq)`.
        let now = ctx.now();
        for dev in [&mut n.disk, &mut n.nic_tx, &mut n.nic_rx] {
            dev.reset(ctx, &mut self.rings, now, device_event(node));
        }
        n.slots_free = cpus;
        let queued: Vec<TaskId> = n.queue.drain(..).collect();
        let running = std::mem::take(&mut n.running);
        // Drop object copies hosted here, along with any fetch state or
        // arg-waiter registrations targeting the dead node. Arena
        // iteration is ascending by id, so `lost_with_interest` comes
        // out sorted by construction.
        let mut lost_with_interest = Vec::new();
        for (id, o) in self.objects.iter_mut() {
            o.forget_node(node);
            if o.copies.remove(node) && o.copies.is_empty() && (o.watched() || o.task_refs > 0) {
                lost_with_interest.push(ObjectId(id));
            }
        }
        // A landed arg may just have lost its last copy, which no arrival
        // countdown accounts for: every waiting task rescans on its next
        // landing (the requeued tasks below rescan right away).
        for (_, e) in self.tasks.iter_mut() {
            if let TaskState::WaitingArgs { missing } = &mut e.state {
                *missing = 0;
            }
        }
        lost_with_interest.extend(self.rewatch_lost());
        lost_with_interest.sort_unstable();
        lost_with_interest.dedup();
        // The rebuilt store starts without owner quotas; re-apply them.
        self.apply_store_quotas();
        // Requeue the node's tasks elsewhere.
        for t in queued.into_iter().chain(running) {
            self.abandon_attempt(ctx, t, Cause::NodeLost);
        }
        // Kick reconstruction for lost-but-needed objects. Only jobs
        // whose objects were actually lost see lineage resubmission —
        // `lost_with_interest` is exactly the set with no surviving copy
        // and a live consumer, so unaffected jobs are untouched.
        for obj in lost_with_interest {
            self.ensure_available(ctx, obj);
        }
        // In-flight fetches sourced from this node are detected lazily via
        // src_epoch checks when their `Fetch` completes.
        true
    }

    /// A pending get or wait stops watching an object once it has counted
    /// its arrival, so a kill that then takes the object's last copy
    /// leaves it counted but lost, and nothing would reconstruct it. An
    /// unavailable listed object the waiter is not registered on is
    /// exactly such a one (registration lasts until arrival): un-count
    /// it, watch it again, and return it for reconstruction.
    fn rewatch_lost(&mut self) -> Vec<ObjectId> {
        let mut lost = Vec::new();
        let wids: Vec<u64> = self.waiters.iter().map(|(wid, _)| wid).collect();
        for wid in wids {
            let Some(w) = self.waiters.get(wid) else {
                continue;
            };
            // Every listing of such an object is collected before any
            // is registered again.
            let counted_lost: Vec<ObjectId> = w
                .objs()
                .iter()
                .copied()
                .filter(|o| {
                    self.objects
                        .get(o.0)
                        .is_some_and(|e| !e.available() && !e.has_waiter(wid))
                })
                .collect();
            if counted_lost.is_empty() {
                continue;
            }
            if let Some(w) = self.waiters.get_mut(wid) {
                *w.tally().0 -= counted_lost.len();
            }
            for o in counted_lost {
                self.ensure_obj_entry(o).add_waiter(wid);
                lost.push(o);
            }
        }
        lost
    }

    /// Executor-process failure (§4.2.3): in-flight tasks on the node die
    /// and are re-run, but the object store lives in the NodeManager — no
    /// objects are lost and nothing needs lineage reconstruction.
    fn kill_executors(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        if !self.nodes[node.0].alive {
            return;
        }
        self.sink.emit(EventKind::Failure(FailureEvent {
            node: node.0 as u32,
            kind: FailureKind::ExecutorsKilled,
        }));
        // Invalidate in-flight execution events via the per-task epoch;
        // the store, its spilled files, and every sealed object survive.
        let running = std::mem::take(&mut self.nodes[node.0].running);
        // Each dead attempt frees its slot; a queued attempt staging under
        // a held slot (prefetch off) keeps its own.
        self.nodes[node.0].slots_free += running.len();
        for t in running {
            self.abandon_attempt(ctx, t, Cause::ExecutorsLost);
        }
        self.pump_store(ctx, node);
        self.pump_node(ctx, node);
    }

    /// Bring a killed node back with an empty store; a no-op on a live
    /// node, whose epoch must not move under its in-flight fetches.
    fn restart_node(&mut self, ctx: &mut Ctx<'_, RtEvent>, node: NodeId) {
        let n = &mut self.nodes[node.0];
        if n.alive {
            return;
        }
        n.alive = true;
        n.epoch += 1;
        if self.jobs.has_ready() {
            // Fresh capacity: let the fair-share dispatcher use it.
            self.schedule_dispatch(ctx);
        }
    }
}
