//! The store state machine.

use std::collections::{BTreeMap, VecDeque};

use exo_trace::{EventKind, ObjectEvent, ObjectPhase, TraceSink};

use crate::metrics::StoreMetrics;
use crate::seqmap::SeqMap;

/// Object identifier. The runtime maps its own richer ids onto these.
pub type ObjId = u64;

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Shared-memory capacity in bytes.
    pub capacity: u64,
    /// Minimum fused spill-file size; small objects are coalesced into
    /// files of at least this size before hitting disk (Ray uses 100 MB).
    pub fuse_min: u64,
    /// Whether spill writes are fused at all (Fig 7 ablates this).
    pub fuse_enabled: bool,
}

impl StoreConfig {
    /// Ray-like defaults at a given capacity.
    pub fn ray_default(capacity: u64) -> Self {
        StoreConfig {
            capacity,
            fuse_min: 100 * 1000 * 1000,
            fuse_enabled: true,
        }
    }
}

/// Where an object's bytes currently live on this node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// In shared memory. `on_disk` records whether a still-valid spill
    /// copy also exists (objects are immutable, so a prior spill never
    /// goes stale — re-spilling such an object is free).
    Memory {
        /// A valid spilled copy also exists on disk.
        on_disk: bool,
    },
    /// In memory, spill write in flight.
    SpillingOut,
    /// Memory reserved, disk read in flight.
    Restoring,
    /// On disk only.
    Disk,
}

/// Allocation priority. High = allocations required for progress (task
/// outputs, assigned-task arguments, restores). Low = opportunistic
/// prefetch of queued tasks' arguments using spare memory (§4.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Required for forward progress; FIFO among themselves.
    High,
    /// Opportunistic; granted only when no high-priority request waits.
    Low,
}

/// Outcome of an allocation request.
#[derive(Debug)]
pub enum AllocDecision {
    /// Memory reserved immediately; caller may fill the object.
    Granted,
    /// Queued; will appear in [`NodeStore::take_granted`] later.
    Queued,
    /// Granted via the filesystem fallback path: no store memory consumed,
    /// the caller should charge a disk write and treat the object as
    /// spilled-on-arrival.
    Fallback,
}

/// Outcome of a restore request.
#[derive(Debug)]
pub enum RestoreDecision {
    /// Already in memory; nothing to do.
    InMemory,
    /// A restore for this object is already in flight; wait for it.
    InFlight,
    /// Memory reserved; caller charges the disk read then calls
    /// [`NodeStore::restore_complete`].
    Granted,
    /// Queued for memory; will appear in [`NodeStore::take_granted`].
    Queued,
    /// The object is not present on this node at all.
    Lost,
}

/// A set of objects picked for one fused spill write.
#[derive(Debug)]
pub struct SpillBatch {
    /// Spill file id (unique per store).
    pub file: u64,
    /// Objects in the batch.
    pub objects: Vec<ObjId>,
    /// Total bytes to write.
    pub bytes: u64,
}

/// What a granted queue entry was for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantKind {
    /// A create that got memory.
    Create,
    /// A create that fell back to the filesystem.
    CreateFallback,
    /// A restore that got memory; charge the read, then ack.
    Restore,
}

#[derive(Debug)]
struct Slot {
    size: u64,
    pins: u32,
    sealed: bool,
    residency: Residency,
    /// Set while the object's refcount is zero but pins keep it alive;
    /// freed at last unpin.
    doomed: bool,
    /// Whether this object has ever been written to disk (metrics).
    ever_on_disk: bool,
    /// Tenant the object's bytes bill to (0 = unowned/default tenant).
    owner: u32,
}

#[derive(Debug)]
struct Pending<T> {
    id: ObjId,
    size: u64,
    tag: T,
    kind: PendingKind,
    owner: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PendingKind {
    Create,
    Restore,
}

/// The per-node object store state machine. `T` is an opaque tag the
/// runtime attaches to queued allocations so it can resume the right work
/// when they are granted.
#[derive(Debug)]
pub struct NodeStore<T> {
    cfg: StoreConfig,
    /// Slot table, open-addressed on the packed id (see [`SeqMap`]):
    /// the ids are already well-distributed integers, so lookups skip
    /// SipHash entirely on this hottest of store paths.
    slots: SeqMap<Slot>,
    /// In-memory bytes (reserved + resident).
    used: u64,
    /// FIFO of waiting allocations, split by priority.
    queue_high: VecDeque<Pending<T>>,
    queue_low: VecDeque<Pending<T>>,
    /// Cached sum of queued request sizes (both queues) so
    /// `memory_demand` is O(1) — the queues can hold hundreds of
    /// thousands of entries during wide shuffles.
    queued_bytes: u64,
    /// Sealed objects in seal order — spill candidates (lazily cleaned).
    spill_order: VecDeque<ObjId>,
    /// Exact count of spillable slots (sealed, unpinned,
    /// memory-resident). `pump` consults `any_spillable` every time a
    /// queued allocation does not fit, so it must be O(1), not a scan
    /// of the slot table; every transition that changes a slot's
    /// spillability maintains this counter (cross-checked against the
    /// full scan by a `debug_assert`).
    spillable: usize,
    /// Bytes currently being spilled (in-flight writes).
    spilling_bytes: u64,
    /// Grants ready for the runtime to collect.
    granted: Vec<(ObjId, T, GrantKind)>,
    next_file: u64,
    metrics: StoreMetrics,
    /// Per-tenant live bytes on this node (any residency), keyed by
    /// owner id. Billed at admit, credited when the slot is removed.
    owner_used: BTreeMap<u32, u64>,
    /// Per-tenant cumulative bytes spilled from this node.
    owner_spilled: BTreeMap<u32, u64>,
    /// Per-tenant byte quotas. An over-quota create is routed to the
    /// filesystem fallback (disk speed, no shared-memory pressure).
    owner_quota: BTreeMap<u32, u64>,
    /// Trace sink (shares the runtime's stream when constructed with
    /// [`NodeStore::with_trace`]; a private disabled sink otherwise). The
    /// sink carries its own virtual-time clock, so the time-free store
    /// emits correctly stamped events.
    sink: TraceSink,
    /// Node id stamped on emitted object events.
    node: u32,
}

impl<T> NodeStore<T> {
    /// Create an empty store with a private (disabled) trace sink.
    pub fn new(cfg: StoreConfig) -> Self {
        NodeStore::with_trace(cfg, TraceSink::disabled(), 0)
    }

    /// Create an empty store that reports object lifecycle events to
    /// `sink`, stamped with `node`.
    pub fn with_trace(cfg: StoreConfig, sink: TraceSink, node: u32) -> Self {
        NodeStore {
            cfg,
            slots: SeqMap::new(),
            used: 0,
            queue_high: VecDeque::new(),
            queue_low: VecDeque::new(),
            queued_bytes: 0,
            spill_order: VecDeque::new(),
            spillable: 0,
            spilling_bytes: 0,
            granted: Vec::new(),
            next_file: 0,
            metrics: StoreMetrics::default(),
            owner_used: BTreeMap::new(),
            owner_spilled: BTreeMap::new(),
            owner_quota: BTreeMap::new(),
            sink,
            node,
        }
    }

    /// Set (or replace) the byte quota billed against `owner`.
    pub fn set_owner_quota(&mut self, owner: u32, bytes: u64) {
        self.owner_quota.insert(owner, bytes);
    }

    /// Live bytes currently billed to `owner` on this node.
    pub fn owner_used(&self, owner: u32) -> u64 {
        self.owner_used.get(&owner).copied().unwrap_or(0)
    }

    /// Cumulative bytes spilled from this node billed to `owner`.
    pub fn owner_spilled(&self, owner: u32) -> u64 {
        self.owner_spilled.get(&owner).copied().unwrap_or(0)
    }

    fn emit_obj(&self, id: ObjId, phase: ObjectPhase, bytes: u64) {
        self.sink.emit(EventKind::Object(ObjectEvent {
            object: id,
            phase,
            node: self.node,
            src: None,
            bytes,
        }));
    }

    /// Request memory for a brand-new local object (task output or an
    /// incoming remote/restored copy). On `Granted` the object exists
    /// unsealed with one pin (the creator's).
    pub fn request_create(
        &mut self,
        id: ObjId,
        size: u64,
        tag: T,
        priority: Priority,
    ) -> AllocDecision {
        self.request_create_owned(id, size, tag, priority, 0)
    }

    /// [`NodeStore::request_create`], billing the bytes to `owner`. When
    /// the owner has a quota and this allocation would exceed it, the
    /// object is routed to the filesystem fallback instead of shared
    /// memory — over-quota tenants degrade to disk speed rather than
    /// squeezing other tenants out of memory.
    pub fn request_create_owned(
        &mut self,
        id: ObjId,
        size: u64,
        tag: T,
        priority: Priority,
        owner: u32,
    ) -> AllocDecision {
        assert!(!self.slots.contains_key(id), "object {id} already present");
        if let Some(&quota) = self.owner_quota.get(&owner) {
            if self.owner_used(owner) + size > quota {
                self.metrics.quota_denials += 1;
                self.admit_fallback(id, size, owner);
                return AllocDecision::Fallback;
            }
        }
        if size <= self.free() && self.queue_high.is_empty() {
            self.admit(id, size, Residency::Memory { on_disk: false }, false, owner);
            return AllocDecision::Granted;
        }
        if size > self.cfg.capacity {
            // Waiting can never make room: straight to the filesystem.
            self.admit_fallback(id, size, owner);
            return AllocDecision::Fallback;
        }
        // Spilling will make room. (If the head of the queue later turns
        // out to be stuck — everything pinned and nothing spilling — the
        // pump resolves it via fallback to preserve liveness.)
        let p = Pending {
            id,
            size,
            tag,
            kind: PendingKind::Create,
            owner,
        };
        self.queued_bytes += size;
        match priority {
            Priority::High => self.queue_high.push_back(p),
            Priority::Low => self.queue_low.push_back(p),
        }
        AllocDecision::Queued
    }

    fn admit(&mut self, id: ObjId, size: u64, residency: Residency, sealed: bool, owner: u32) {
        self.used += size;
        self.metrics.peak_used = self.metrics.peak_used.max(self.used);
        *self.owner_used.entry(owner).or_insert(0) += size;
        self.emit_obj(id, ObjectPhase::Created, size);
        self.slots.insert(
            id,
            Slot {
                size,
                pins: 1,
                sealed,
                residency,
                doomed: false,
                ever_on_disk: false,
                owner,
            },
        );
    }

    fn admit_fallback(&mut self, id: ObjId, size: u64, owner: u32) {
        self.metrics.fallback_bytes += size;
        self.metrics.fallback_allocs += 1;
        *self.owner_used.entry(owner).or_insert(0) += size;
        self.emit_obj(id, ObjectPhase::Fallback, size);
        self.slots.insert(
            id,
            Slot {
                size,
                pins: 1,
                sealed: false,
                residency: Residency::Disk,
                doomed: false,
                ever_on_disk: true,
                owner,
            },
        );
    }

    /// Mark an object's payload complete. Sealed, unpinned objects become
    /// spill candidates.
    pub fn seal(&mut self, id: ObjId) {
        // audit:allow(P01): API contract — callers seal only ids this
        // store granted; an unknown id is a runtime accounting bug that
        // must stop the sim, not limp on with corrupt state.
        let slot = self.slots.get_mut(id).expect("seal of unknown object");
        assert!(!slot.sealed, "double seal of object {id}");
        slot.sealed = true;
        if matches!(slot.residency, Residency::Memory { .. }) {
            if slot.pins == 0 {
                self.spillable += 1;
            }
            self.spill_order.push_back(id);
        }
    }

    /// Pin an object (task argument or output in active use). Pinned
    /// objects are never spilled or freed.
    pub fn pin(&mut self, id: ObjId) {
        // audit:allow(P01): API contract — pinning an id this store
        // never granted is a runtime refcount bug; see `seal`.
        let slot = self.slots.get_mut(id).expect("pin of unknown object");
        slot.pins += 1;
        if slot.pins == 1 && slot.sealed && matches!(slot.residency, Residency::Memory { .. }) {
            self.spillable -= 1;
        }
    }

    /// Release one pin. If the object was doomed (refcount hit zero while
    /// pinned), the last unpin frees it.
    pub fn unpin(&mut self, id: ObjId) {
        // audit:allow(P01): API contract — unpin must pair with a pin on
        // a live slot; see `seal`.
        let slot = self.slots.get_mut(id).expect("unpin of unknown object");
        assert!(slot.pins > 0, "unpin without pin on object {id}");
        slot.pins -= 1;
        if slot.pins == 0 {
            let doomed = slot.doomed;
            let spillable = slot.sealed && matches!(slot.residency, Residency::Memory { .. });
            if spillable {
                // Counted even when doomed: `forget` below sees an
                // unpinned memory-resident slot and decrements.
                self.spillable += 1;
            }
            if doomed {
                self.forget(id);
            } else if spillable {
                // (Re-)register as spill candidate; duplicates are cleaned
                // lazily when popped.
                self.spill_order.push_back(id);
            }
        }
    }

    /// Drop an object from this node entirely (its cluster-wide refcount
    /// reached zero, or the copy is being evicted). Frees memory
    /// immediately unless pins hold it, in which case it is doomed and
    /// freed at last unpin.
    pub fn forget(&mut self, id: ObjId) {
        match self.slots.get_mut(id) {
            None => return,
            Some(slot) if slot.pins > 0 => {
                slot.doomed = true;
                return;
            }
            Some(_) => {}
        }
        // audit:allow(P01): the match above saw a live, unpinned slot;
        // this remove only re-resolves the same key.
        let slot = self.slots.remove(id).expect("slot checked above");
        if slot.sealed && matches!(slot.residency, Residency::Memory { .. }) {
            // Pins are zero here (checked above / drained by `unpin`).
            self.spillable -= 1;
        }
        if let Some(u) = self.owner_used.get_mut(&slot.owner) {
            *u = u.saturating_sub(slot.size);
        }
        match slot.residency {
            Residency::Memory { .. } | Residency::Restoring => {
                self.used -= slot.size;
                if !slot.ever_on_disk {
                    self.metrics.evicted_unwritten += 1;
                }
            }
            Residency::SpillingOut => {
                // The in-flight write will complete against a missing slot
                // and be ignored; free the memory now.
                self.used -= slot.size;
                self.spilling_bytes = self.spilling_bytes.saturating_sub(slot.size);
            }
            Residency::Disk => {}
        }
        self.emit_obj(id, ObjectPhase::Evicted, slot.size);
    }

    /// True if the object has a readable in-memory copy.
    pub fn in_memory(&self, id: ObjId) -> bool {
        matches!(
            self.slots.get(id).map(|s| s.residency),
            Some(Residency::Memory { .. }) | Some(Residency::SpillingOut)
        )
    }

    /// True if this node holds the object in any residency.
    pub fn contains(&self, id: ObjId) -> bool {
        self.slots.contains_key(id)
    }

    /// True if the object is present and sealed.
    pub fn sealed(&self, id: ObjId) -> bool {
        self.slots.get(id).map(|s| s.sealed).unwrap_or(false)
    }

    /// Residency of an object, if present.
    pub fn residency(&self, id: ObjId) -> Option<Residency> {
        self.slots.get(id).map(|s| s.residency)
    }

    /// Request that a spilled object be brought back to memory.
    pub fn request_restore(&mut self, id: ObjId, tag: T) -> RestoreDecision {
        let Some(slot) = self.slots.get(id) else {
            return RestoreDecision::Lost;
        };
        match slot.residency {
            Residency::Memory { .. } | Residency::SpillingOut => RestoreDecision::InMemory,
            Residency::Restoring => RestoreDecision::InFlight,
            Residency::Disk => {
                let size = slot.size;
                if size <= self.free() && self.queue_high.is_empty() {
                    self.used += size;
                    self.metrics.peak_used = self.metrics.peak_used.max(self.used);
                    // audit:allow(P01): the slot was fetched at the top of
                    // this match and nothing in between removes it; the
                    // refetch only converts the borrow to mutable.
                    self.slots.get_mut(id).expect("present").residency = Residency::Restoring;
                    RestoreDecision::Granted
                } else {
                    let owner = self.slots.get(id).map(|s| s.owner).unwrap_or(0);
                    self.queued_bytes += size;
                    self.queue_high.push_back(Pending {
                        id,
                        size,
                        tag,
                        kind: PendingKind::Restore,
                        owner,
                    });
                    RestoreDecision::Queued
                }
            }
        }
    }

    /// Acknowledge a finished restore read.
    pub fn restore_complete(&mut self, id: ObjId) {
        // audit:allow(P01): API contract — restore completions are only
        // scheduled for slots this store moved to Restoring; see `seal`.
        let slot = self
            .slots
            .get_mut(id)
            .expect("restore_complete of unknown object");
        assert_eq!(
            slot.residency,
            Residency::Restoring,
            "object {id} was not restoring"
        );
        slot.residency = Residency::Memory { on_disk: true };
        self.metrics.restored_bytes += slot.size;
        self.metrics.restore_ops += 1;
        let (sealed, pins, size) = (slot.sealed, slot.pins, slot.size);
        self.emit_obj(id, ObjectPhase::Restored, size);
        if sealed && pins == 0 {
            self.spillable += 1;
            self.spill_order.push_back(id);
        }
    }

    /// Ask the spilling subsystem for the next batch of objects to write
    /// out. Returns `None` when there is no memory pressure or nothing is
    /// spillable. Objects whose bytes are already on disk are freed
    /// in-place (no write) before a write batch is formed.
    pub fn next_spill_batch(&mut self) -> Option<SpillBatch> {
        loop {
            let demand = self.memory_demand();
            if demand == 0 {
                return None;
            }
            // First: free already-on-disk candidates — immutability means
            // their disk copies are still valid, so no write is needed.
            let mut freed_any = false;
            let mut batch_objs = Vec::new();
            let mut batch_bytes = 0u64;
            while let Some(id) = self.spill_order.pop_front() {
                let Some(slot) = self.slots.get_mut(id) else {
                    continue;
                };
                if slot.pins > 0 || !slot.sealed {
                    continue; // re-registered at unpin/seal
                }
                match slot.residency {
                    Residency::Memory { on_disk: true } => {
                        slot.residency = Residency::Disk;
                        self.spillable -= 1;
                        self.used -= slot.size;
                        self.metrics.spill_writes_elided += 1;
                        freed_any = true;
                        if self.memory_demand() == 0 {
                            break;
                        }
                    }
                    Residency::Memory { on_disk: false } => {
                        slot.residency = Residency::SpillingOut;
                        self.spillable -= 1;
                        slot.ever_on_disk = true;
                        batch_bytes += slot.size;
                        batch_objs.push(id);
                        let spilled_enough = batch_bytes >= demand;
                        let fused_enough =
                            !self.cfg.fuse_enabled || batch_bytes >= self.cfg.fuse_min;
                        if fused_enough && spilled_enough {
                            break;
                        }
                        if !self.cfg.fuse_enabled {
                            break; // one object per file without fusing
                        }
                    }
                    _ => continue,
                }
            }
            if !batch_objs.is_empty() {
                self.spilling_bytes += batch_bytes;
                self.metrics.spilled_bytes += batch_bytes;
                self.metrics.spill_files += 1;
                self.metrics.spilled_objects += batch_objs.len() as u64;
                let file = self.next_file;
                self.next_file += 1;
                return Some(SpillBatch {
                    file,
                    objects: batch_objs,
                    bytes: batch_bytes,
                });
            }
            if freed_any {
                self.pump();
                continue; // freed memory may have cleared the demand
            }
            return None;
        }
    }

    /// Acknowledge a finished spill write: the batch's memory is freed.
    pub fn spill_complete(&mut self, batch: &SpillBatch) {
        for &id in &batch.objects {
            let Some(slot) = self.slots.get_mut(id) else {
                continue;
            }; // forgotten mid-flight
            if slot.residency == Residency::SpillingOut {
                slot.residency = Residency::Disk;
                self.used -= slot.size;
                self.spilling_bytes = self.spilling_bytes.saturating_sub(slot.size);
                let (size, owner) = (slot.size, slot.owner);
                *self.owner_spilled.entry(owner).or_insert(0) += size;
                self.emit_obj(id, ObjectPhase::Spilled, size);
            }
        }
        self.debug_check_spillable();
        self.pump();
    }

    /// Collect queue grants produced by freed memory. Each entry reports
    /// what kind of request was granted.
    pub fn take_granted(&mut self) -> Vec<(ObjId, T, GrantKind)> {
        self.pump();
        std::mem::take(&mut self.granted)
    }

    /// Whether the store wants to spill right now (queued demand exceeds
    /// free memory and writes are not already covering it).
    pub fn memory_demand(&self) -> u64 {
        let covered = self.free() + self.spilling_bytes;
        self.queued_bytes.saturating_sub(covered)
    }

    /// Free shared memory.
    pub fn free(&self) -> u64 {
        self.cfg.capacity.saturating_sub(self.used)
    }

    /// Bytes currently held in memory (including reservations).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> StoreMetrics {
        self.metrics
    }

    /// Store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Number of objects currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the store tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot table's allocated cells and their bytes (footprint
    /// accounting; [`NodeStore::len`] is its live count).
    pub fn slot_capacity(&self) -> (usize, usize) {
        (self.slots.capacity(), self.slots.cell_bytes())
    }

    /// Drive the allocation queue: grant head-of-line requests that now
    /// fit. High-priority strictly first; low priority only when the high
    /// queue is empty.
    fn pump(&mut self) {
        loop {
            let from_high = !self.queue_high.is_empty();
            let queue = if from_high {
                &mut self.queue_high
            } else {
                &mut self.queue_low
            };
            let Some(head) = queue.front() else { return };
            if head.size > self.cfg.capacity.saturating_sub(self.used) {
                // Head does not fit. If nothing can ever free the memory,
                // resolve via fallback to preserve liveness.
                let stuck = self.spilling_bytes == 0 && !self.any_spillable();
                if !stuck {
                    return; // spilling in flight or possible; wait
                }
                let queue = if from_high {
                    &mut self.queue_high
                } else {
                    &mut self.queue_low
                };
                // audit:allow(P01): `front()` returned Some on this
                // same queue above; the re-select only re-borrows it.
                let p = queue.pop_front().expect("head checked");
                self.queued_bytes -= p.size;
                match p.kind {
                    PendingKind::Create => {
                        self.admit_fallback(p.id, p.size, p.owner);
                        self.granted.push((p.id, p.tag, GrantKind::CreateFallback));
                    }
                    PendingKind::Restore => {
                        // Everything in memory is pinned (or the object is
                        // larger than the store): grant by overcommitting.
                        // This mirrors Ray's fallback allocation "to ensure
                        // liveness" — usage transiently exceeds capacity and
                        // the spilling subsystem works the excess back down
                        // as pins release.
                        let Some(slot) = self.slots.get_mut(p.id) else {
                            continue;
                        };
                        if slot.residency != Residency::Disk {
                            continue;
                        }
                        slot.residency = Residency::Restoring;
                        self.used += p.size;
                        self.metrics.peak_used = self.metrics.peak_used.max(self.used);
                        self.granted.push((p.id, p.tag, GrantKind::Restore));
                    }
                }
                continue;
            }
            let queue = if from_high {
                &mut self.queue_high
            } else {
                &mut self.queue_low
            };
            // audit:allow(P01): `front()` returned Some on this same
            // queue above; the re-select only re-borrows it.
            let p = queue.pop_front().expect("head checked");
            self.queued_bytes -= p.size;
            match p.kind {
                PendingKind::Create => {
                    if self.slots.contains_key(p.id) {
                        // Forgotten-and-recreated or stale entry; skip.
                        continue;
                    }
                    self.admit(
                        p.id,
                        p.size,
                        Residency::Memory { on_disk: false },
                        false,
                        p.owner,
                    );
                    self.granted.push((p.id, p.tag, GrantKind::Create));
                }
                PendingKind::Restore => {
                    let Some(slot) = self.slots.get_mut(p.id) else {
                        continue;
                    };
                    if slot.residency != Residency::Disk {
                        continue; // restored or freed by other means
                    }
                    slot.residency = Residency::Restoring;
                    self.used += p.size;
                    self.metrics.peak_used = self.metrics.peak_used.max(self.used);
                    self.granted.push((p.id, p.tag, GrantKind::Restore));
                }
            }
        }
    }

    /// Diagnostic snapshot for deadlock dumps.
    pub fn debug_state(&self) -> String {
        let spillable = self
            .slots
            .values()
            .filter(|s| s.sealed && s.pins == 0 && matches!(s.residency, Residency::Memory { .. }))
            .count();
        let pinned = self.slots.values().filter(|s| s.pins > 0).count();
        let unsealed = self.slots.values().filter(|s| !s.sealed).count();
        let head_high = self.queue_high.front().map(|p| (p.size, p.kind));
        let head_low = self.queue_low.front().map(|p| (p.size, p.kind));
        format!(
            "spillable={} pinned={} unsealed={} order={} qh={} ql={} head_h={:?} head_l={:?} spilling={} used={} free={}",
            spillable,
            pinned,
            unsealed,
            self.spill_order.len(),
            self.queue_high.len(),
            self.queue_low.len(),
            head_high,
            head_low,
            self.spilling_bytes,
            self.used,
            self.free(),
        )
    }

    fn any_spillable(&self) -> bool {
        self.debug_check_spillable();
        self.spillable > 0
    }

    /// Debug-build cross-check: the O(1) spillable counter must always
    /// equal the full slot-table scan it replaced.
    fn debug_check_spillable(&self) {
        debug_assert_eq!(
            self.spillable,
            self.slots
                .values()
                .filter(|s| {
                    s.sealed && s.pins == 0 && matches!(s.residency, Residency::Memory { .. })
                })
                .count(),
            "spillable counter out of sync with slot table"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: u64) -> StoreConfig {
        StoreConfig {
            capacity,
            fuse_min: 100,
            fuse_enabled: true,
        }
    }

    fn store(capacity: u64) -> NodeStore<&'static str> {
        NodeStore::new(cfg(capacity))
    }

    #[test]
    fn create_within_capacity_grants_immediately() {
        let mut s = store(1000);
        assert!(matches!(
            s.request_create(1, 400, "a", Priority::High),
            AllocDecision::Granted
        ));
        assert_eq!(s.used(), 400);
        assert_eq!(s.free(), 600);
    }

    #[test]
    fn over_capacity_request_falls_back() {
        let mut s = store(1000);
        assert!(matches!(
            s.request_create(1, 5000, "big", Priority::High),
            AllocDecision::Fallback
        ));
        assert_eq!(s.used(), 0);
        assert_eq!(s.metrics().fallback_bytes, 5000);
        assert_eq!(s.residency(1), Some(Residency::Disk));
    }

    #[test]
    fn backlogged_create_queues_then_spills_then_grants() {
        let mut s = store(1000);
        // Fill with two sealed, unpinned objects.
        s.request_create(1, 600, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.request_create(2, 400, "b", Priority::High);
        s.seal(2);
        s.unpin(2);
        // Now request more than free.
        assert!(matches!(
            s.request_create(3, 500, "c", Priority::High),
            AllocDecision::Queued
        ));
        // Spill pump should produce a batch.
        let batch = s.next_spill_batch().expect("should spill under pressure");
        assert!(batch.bytes >= 500);
        assert!(
            s.take_granted().is_empty(),
            "not granted until write completes"
        );
        s.spill_complete(&batch);
        let granted = s.take_granted();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, 3);
        assert_eq!(granted[0].2, GrantKind::Create);
    }

    #[test]
    fn fusing_batches_small_objects_into_one_file() {
        let mut s = store(1000);
        for id in 0..10 {
            s.request_create(id, 100, "x", Priority::High);
            s.seal(id);
            s.unpin(id);
        }
        // Demand 500 with fuse_min 100: batch covers the demand.
        s.request_create(100, 500, "big", Priority::High);
        let batch = s.next_spill_batch().expect("pressure");
        assert!(batch.objects.len() >= 5, "fused batch, got {:?}", batch);
        assert_eq!(s.metrics().spill_files, 1);
    }

    #[test]
    fn no_fusing_means_one_object_per_file() {
        let mut c = cfg(1000);
        c.fuse_enabled = false;
        let mut s: NodeStore<&'static str> = NodeStore::new(c);
        for id in 0..10 {
            s.request_create(id, 100, "x", Priority::High);
            s.seal(id);
            s.unpin(id);
        }
        s.request_create(100, 500, "big", Priority::High);
        let mut files = 0;
        while let Some(b) = s.next_spill_batch() {
            assert_eq!(b.objects.len(), 1);
            s.spill_complete(&b);
            files += 1;
        }
        assert!(files >= 5);
    }

    #[test]
    fn pinned_objects_are_never_spilled() {
        let mut s = store(1000);
        s.request_create(1, 800, "a", Priority::High); // pinned by creator
        s.seal(1);
        s.request_create(2, 800, "b", Priority::High);
        assert!(s.next_spill_batch().is_none(), "only candidate is pinned");
        // Queue resolves via fallback to preserve liveness.
        let granted = s.take_granted();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].2, GrantKind::CreateFallback);
    }

    #[test]
    fn restore_roundtrip() {
        let mut s = store(1000);
        s.request_create(1, 600, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.request_create(2, 600, "b", Priority::High);
        let batch = s.next_spill_batch().expect("pressure");
        s.spill_complete(&batch);
        assert_eq!(s.residency(1), Some(Residency::Disk));
        s.take_granted();
        // Free object 2 to make room, then restore 1.
        s.seal(2);
        s.unpin(2);
        s.forget(2);
        assert!(matches!(
            s.request_restore(1, "r"),
            RestoreDecision::Granted
        ));
        s.restore_complete(1);
        assert_eq!(s.residency(1), Some(Residency::Memory { on_disk: true }));
        assert_eq!(s.metrics().restored_bytes, 600);
    }

    #[test]
    fn respill_of_restored_object_elides_the_write() {
        let mut s = store(1000);
        s.request_create(1, 600, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.request_create(2, 600, "b", Priority::High);
        let batch = s.next_spill_batch().expect("pressure");
        s.spill_complete(&batch);
        s.take_granted();
        s.seal(2);
        s.unpin(2);
        s.forget(2);
        s.request_restore(1, "r");
        s.restore_complete(1);
        // New pressure: object 1 (on disk already) should be freed without
        // a write batch.
        s.request_create(3, 800, "c", Priority::High);
        assert!(s.next_spill_batch().is_none(), "no write needed");
        assert_eq!(s.metrics().spill_writes_elided, 1);
        let granted = s.take_granted();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, 3);
    }

    #[test]
    fn forget_frees_memory_and_counts_unwritten_eviction() {
        let mut s = store(1000);
        s.request_create(1, 400, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.forget(1);
        assert_eq!(s.used(), 0);
        assert_eq!(s.metrics().evicted_unwritten, 1);
        assert!(!s.contains(1));
    }

    #[test]
    fn forget_while_pinned_defers_to_last_unpin() {
        let mut s = store(1000);
        s.request_create(1, 400, "a", Priority::High); // creator pin
        s.seal(1);
        s.forget(1);
        assert!(s.contains(1), "pinned object survives forget");
        s.unpin(1);
        assert!(!s.contains(1));
        assert_eq!(s.used(), 0);
    }

    #[test]
    fn forget_mid_spill_frees_immediately_and_ack_is_ignored() {
        let mut s = store(1000);
        s.request_create(1, 600, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.request_create(2, 600, "b", Priority::High);
        let batch = s.next_spill_batch().expect("pressure");
        assert_eq!(s.used(), 600);
        s.forget(1);
        assert_eq!(s.used(), 0);
        s.spill_complete(&batch); // must not underflow or panic
        assert!(!s.contains(1));
    }

    #[test]
    fn low_priority_waits_for_high() {
        let mut s = store(1000);
        s.request_create(1, 900, "hog", Priority::High);
        s.seal(1);
        s.unpin(1);
        // Low-priority prefetch and high-priority output both queued.
        assert!(matches!(
            s.request_create(2, 500, "low", Priority::Low),
            AllocDecision::Queued
        ));
        assert!(matches!(
            s.request_create(3, 500, "high", Priority::High),
            AllocDecision::Queued
        ));
        let batch = s.next_spill_batch().expect("pressure");
        s.spill_complete(&batch);
        let granted = s.take_granted();
        assert_eq!(granted[0].0, 3, "high priority granted first");
    }

    #[test]
    fn peak_used_tracks_high_water_mark() {
        let mut s = store(1000);
        s.request_create(1, 700, "a", Priority::High);
        s.seal(1);
        s.unpin(1);
        s.forget(1);
        s.request_create(2, 300, "b", Priority::High);
        assert_eq!(s.metrics().peak_used, 700);
    }
}
