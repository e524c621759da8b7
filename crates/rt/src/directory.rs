//! The object directory's per-object entry, laid out for footprint.
//!
//! ES-simple creates M·R shuffle blocks, and the directory holds one
//! entry per live block, so the entry's size is the engine's largest
//! per-object memory term at CloudSort scale. An [`ObjEntry`] is 64
//! bytes, and besides the payload it owns heap blocks only while
//! something waits on the object or it has more than three copies:
//!
//! - every registration of interest in the object (waiting tasks,
//!   get/wait waiters, inbound fetches and staging tasks) shares one
//!   [`WaitList`], an 8-byte handle to a list whose first allocation
//!   holds two entries and which is freed when it empties;
//! - the [`CopySet`] keeps up to three node ids inline.
//!
//! Both are storage choices only. Every operation filters the shared
//! list by kind and keeps each kind's relative order, so each wake,
//! drain, GC check and failure sweep sees the same items in the same
//! order as separate per-kind lists would.

use bytes::Bytes;

use crate::ids::{NodeId, TaskId};

/// Node ids as stored in the directory. Clusters are far below 2³²
/// nodes, and `u32::MAX` is reserved for an empty inline copy slot.
fn raw(node: NodeId) -> u32 {
    debug_assert!(node.0 < NO_NODE as usize, "node id out of u32 range");
    node.0 as u32
}

/// State of one inbound fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FetchState {
    /// Waiting for local memory.
    AllocPending,
    /// Bytes in flight from node `src`, sent in its epoch `src_epoch`.
    Transferring { src: u32, src_epoch: u32 },
}

impl FetchState {
    pub(crate) fn transferring(src: NodeId, src_epoch: u32) -> Self {
        FetchState::Transferring {
            src: raw(src),
            src_epoch,
        }
    }
}

/// Copies held inline before a [`CopySet`] moves to the heap. Three
/// `u32`s and the variant tag fill 16 bytes, as does the tag and the
/// spilled variant's thin pointer; measured peaks are two copies per
/// object on xl_simple, spill_pushstar and ft_simple (DESIGN.md §15.7).
const INLINE_COPIES: usize = 3;

/// An unused inline slot. It sorts after every real node id, so the
/// used slots are always a sorted prefix.
const NO_NODE: u32 = u32::MAX;

/// The nodes whose store holds a copy of an object, ascending and
/// unique. Up to [`INLINE_COPIES`] ids live inline; a larger set moves
/// to a boxed `Vec` and comes back inline when it shrinks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CopySet {
    Inline([u32; INLINE_COPIES]),
    // The box keeps the variant one pointer wide, so the set stays 16 B;
    // a bare `Vec` would make every entry 8 B larger.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<u32>>),
}

const _: () = assert!(std::mem::size_of::<CopySet>() == 16);

impl Default for CopySet {
    fn default() -> Self {
        CopySet::Inline([NO_NODE; INLINE_COPIES])
    }
}

impl CopySet {
    /// A set holding just `node`.
    pub(crate) fn one(node: NodeId) -> Self {
        let mut s = CopySet::default();
        s.insert(node);
        s
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            CopySet::Inline(ids) => {
                let n = ids
                    .iter()
                    .position(|&x| x == NO_NODE)
                    .unwrap_or(INLINE_COPIES);
                &ids[..n]
            }
            CopySet::Spilled(ids) => ids,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.as_slice().binary_search(&raw(node)).is_ok()
    }

    /// The nodes in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().map(|&n| NodeId(n as usize))
    }

    pub(crate) fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Adds `node`; false if it was already present.
    pub(crate) fn insert(&mut self, node: NodeId) -> bool {
        let id = raw(node);
        let ids = self.as_slice();
        let Err(at) = ids.binary_search(&id) else {
            return false;
        };
        let len = ids.len();
        match self {
            CopySet::Inline(slots) if len < INLINE_COPIES => {
                slots.copy_within(at..len, at + 1);
                slots[at] = id;
            }
            CopySet::Inline(slots) => {
                let mut grown = slots.to_vec();
                grown.insert(at, id);
                *self = CopySet::Spilled(Box::new(grown));
            }
            CopySet::Spilled(ids) => ids.insert(at, id),
        }
        true
    }

    /// Removes `node`; false if it was absent.
    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let ids = self.as_slice();
        let Ok(at) = ids.binary_search(&raw(node)) else {
            return false;
        };
        let len = ids.len();
        match self {
            CopySet::Inline(slots) => {
                slots.copy_within(at + 1..len, at);
                slots[len - 1] = NO_NODE;
            }
            CopySet::Spilled(ids) => {
                ids.remove(at);
                if ids.len() <= INLINE_COPIES {
                    let mut slots = [NO_NODE; INLINE_COPIES];
                    slots[..ids.len()].copy_from_slice(ids);
                    *self = CopySet::Inline(slots);
                }
            }
        }
        true
    }
}

/// One registration of interest in an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wait {
    /// A task to poke when the object becomes available anywhere.
    Task(TaskId),
    /// A get/wait waiter watching the object.
    Waiter(u64),
    /// An in-flight inbound fetch to a node (at most one per node).
    Fetch(u32, FetchState),
    /// A task on a node waiting for the object to be memory-resident
    /// there.
    Arg(u32, TaskId),
}

/// Every registration on one object, in registration order, behind one
/// thin pointer: most objects have none at any moment, so the entry
/// holds 8 bytes rather than a `Vec`'s 24. One block holds up to two
/// registrations: at most two are held at once on 99–100% of objects in
/// the measured workloads, and at most three on every one (DESIGN.md
/// §15.7). A third moves them into a `Vec` inside the block. A list
/// that empties gives its block back.
#[derive(Debug, Default)]
pub(crate) struct WaitList(Option<Box<Waits>>);

#[derive(Debug)]
enum Waits {
    One(Wait),
    Two([Wait; 2]),
    Many(Vec<Wait>),
}

impl WaitList {
    fn push(&mut self, w: Wait) {
        let Some(list) = &mut self.0 else {
            self.0 = Some(Box::new(Waits::One(w)));
            return;
        };
        match &mut **list {
            Waits::One(a) => **list = Waits::Two([*a, w]),
            Waits::Two([a, b]) => **list = Waits::Many(vec![*a, *b, w]),
            Waits::Many(ws) => ws.push(w),
        }
    }

    fn as_slice(&self) -> &[Wait] {
        match self.0.as_deref() {
            None => &[],
            Some(Waits::One(w)) => std::slice::from_ref(w),
            Some(Waits::Two(ws)) => ws,
            Some(Waits::Many(ws)) => ws,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Wait] {
        match self.0.as_deref_mut() {
            None => &mut [],
            Some(Waits::One(w)) => std::slice::from_mut(w),
            Some(Waits::Two(ws)) => ws,
            Some(Waits::Many(ws)) => ws,
        }
    }

    /// Keeps the entries `keep` accepts, in order; `keep` sees each
    /// entry once, in order.
    fn retain(&mut self, mut keep: impl FnMut(&Wait) -> bool) {
        let Some(list) = &mut self.0 else {
            return;
        };
        let empty = match &mut **list {
            Waits::One(a) => !keep(a),
            Waits::Two([a, b]) => match (keep(a), keep(b)) {
                (true, true) => false,
                (false, false) => true,
                (kept_a, _) => {
                    **list = Waits::One(if kept_a { *a } else { *b });
                    false
                }
            },
            Waits::Many(ws) => {
                ws.retain(keep);
                ws.is_empty()
            }
        };
        if empty {
            self.0 = None;
        }
    }
}

/// One object's directory entry.
#[derive(Default)]
pub(crate) struct ObjEntry {
    pub(crate) logical: u64,
    pub(crate) payload: Option<Bytes>,
    /// Nodes whose store currently holds the object (any residency).
    pub(crate) copies: CopySet,
    pub(crate) driver_refs: u32,
    /// In-flight consumer tasks.
    pub(crate) task_refs: u32,
    /// Tasks, waiters, inbound fetches and staging tasks registered on
    /// the object.
    waits: WaitList,
}

// The directory's arena holds one `Option<ObjEntry>` per object ever
// minted.
const _: () = assert!(std::mem::size_of::<Option<ObjEntry>>() <= 64);
const _: () = assert!(std::mem::size_of::<Wait>() <= 24);
// One heap block of at most 56 bytes (a 64-byte malloc chunk).
const _: () = assert!(std::mem::size_of::<Waits>() <= 56);

/// What an object's arrival wakes: registered tasks and waiters, each
/// in registration order.
#[derive(Default)]
pub(crate) struct Woken {
    pub(crate) tasks: Vec<TaskId>,
    pub(crate) waiters: Vec<u64>,
}

impl ObjEntry {
    /// A task output not yet produced, held by the submitting driver.
    pub(crate) fn output() -> Self {
        ObjEntry {
            driver_refs: 1,
            ..ObjEntry::default()
        }
    }

    /// A driver-put value resident on `node`, held by the driver.
    pub(crate) fn put(logical: u64, payload: Bytes, node: NodeId) -> Self {
        ObjEntry {
            logical,
            payload: Some(payload),
            copies: CopySet::one(node),
            ..ObjEntry::output()
        }
    }

    pub(crate) fn available(&self) -> bool {
        !self.copies.is_empty()
    }

    /// True while a task or a waiter is registered (either keeps the
    /// entry from being GC'd).
    pub(crate) fn watched(&self) -> bool {
        self.waits
            .as_slice()
            .iter()
            .any(|w| matches!(w, Wait::Task(_) | Wait::Waiter(_)))
    }

    /// Registers `task` to be poked on arrival, once.
    pub(crate) fn add_waiting_task(&mut self, task: TaskId) {
        if !self.waits.as_slice().contains(&Wait::Task(task)) {
            self.waits.push(Wait::Task(task));
        }
    }

    pub(crate) fn add_waiter(&mut self, wid: u64) {
        self.waits.push(Wait::Waiter(wid));
    }

    pub(crate) fn has_waiter(&self, wid: u64) -> bool {
        self.waits.as_slice().contains(&Wait::Waiter(wid))
    }

    pub(crate) fn remove_waiter(&mut self, wid: u64) {
        self.waits.retain(|w| *w != Wait::Waiter(wid));
    }

    /// Removes and returns every registered task and waiter.
    pub(crate) fn take_woken(&mut self) -> Woken {
        let mut woken = Woken::default();
        self.waits.retain(|w| match *w {
            Wait::Task(t) => {
                woken.tasks.push(t);
                false
            }
            Wait::Waiter(wid) => {
                woken.waiters.push(wid);
                false
            }
            Wait::Fetch(..) | Wait::Arg(..) => true,
        });
        woken
    }

    pub(crate) fn fetch_state(&self, node: NodeId) -> Option<FetchState> {
        let node = raw(node);
        self.waits.as_slice().iter().find_map(|w| match *w {
            Wait::Fetch(n, st) if n == node => Some(st),
            _ => None,
        })
    }

    pub(crate) fn set_fetch_state(&mut self, node: NodeId, st: FetchState) {
        let node = raw(node);
        let slot = self.waits.as_mut_slice().iter_mut().find_map(|w| match w {
            Wait::Fetch(n, slot) if *n == node => Some(slot),
            _ => None,
        });
        match slot {
            Some(slot) => *slot = st,
            None => self.waits.push(Wait::Fetch(node, st)),
        }
    }

    pub(crate) fn clear_fetch_state(&mut self, node: NodeId) {
        let node = raw(node);
        self.waits
            .retain(|w| !matches!(*w, Wait::Fetch(n, _) if n == node));
    }

    /// Registers `task` to pin the object once it is memory-resident on
    /// `node`.
    pub(crate) fn add_arg_waiter(&mut self, node: NodeId, task: TaskId) {
        self.waits.push(Wait::Arg(raw(node), task));
    }

    pub(crate) fn remove_arg_waiter(&mut self, node: NodeId, task: TaskId) {
        let gone = Wait::Arg(raw(node), task);
        self.waits.retain(|w| *w != gone);
    }

    /// `node`'s arg waiters, in registration (FIFO) order.
    pub(crate) fn arg_waiters(&self, node: NodeId) -> Vec<TaskId> {
        let node = raw(node);
        self.waits
            .as_slice()
            .iter()
            .filter_map(|w| match *w {
                Wait::Arg(n, t) if n == node => Some(t),
                _ => None,
            })
            .collect()
    }

    /// Removes and returns `node`'s arg waiters, in registration (FIFO)
    /// order.
    pub(crate) fn take_arg_waiters(&mut self, node: NodeId) -> Vec<TaskId> {
        let node = raw(node);
        let mut woken = Vec::new();
        self.waits.retain(|w| match *w {
            Wait::Arg(n, t) if n == node => {
                woken.push(t);
                false
            }
            _ => true,
        });
        woken
    }

    /// Drops the inbound fetch and the arg waiters of a dead node.
    pub(crate) fn forget_node(&mut self, node: NodeId) {
        let node = raw(node);
        self.waits
            .retain(|w| !matches!(*w, Wait::Fetch(n, _) | Wait::Arg(n, _) if n == node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(s: &CopySet) -> Vec<usize> {
        s.iter().map(|n| n.0).collect()
    }

    /// Entries the wait list's allocation has room for (0: none held).
    fn capacity(o: &ObjEntry) -> usize {
        match o.waits.0.as_deref() {
            None => 0,
            Some(Waits::One(_) | Waits::Two(_)) => 2,
            Some(Waits::Many(ws)) => ws.capacity(),
        }
    }

    #[test]
    fn copy_set_stays_sorted_and_unique_across_the_inline_boundary() {
        let mut s = CopySet::default();
        assert!(s.is_empty());
        for n in [7, 2, 9, 0, 5, 3, 8] {
            assert!(s.insert(NodeId(n)));
            assert!(!s.insert(NodeId(n)), "duplicate insert of {n}");
        }
        assert!(matches!(s, CopySet::Spilled(_)));
        assert_eq!(nodes(&s), [0, 2, 3, 5, 7, 8, 9]);
        assert!(s.contains(NodeId(5)));
        assert!(!s.contains(NodeId(4)));
        for n in [5, 0, 9] {
            assert!(s.remove(NodeId(n)));
            assert!(!s.remove(NodeId(n)), "double remove of {n}");
        }
        assert!(matches!(s, CopySet::Spilled(_)));
        assert!(s.remove(NodeId(3)));
        // Three left: back inline.
        assert!(matches!(s, CopySet::Inline(_)));
        assert_eq!(nodes(&s), [2, 7, 8]);
        assert!(s.insert(NodeId(1)));
        assert!(matches!(s, CopySet::Spilled(_)));
        assert_eq!(nodes(&s), [1, 2, 7, 8]);
        for n in [8, 1, 2, 7] {
            assert!(s.remove(NodeId(n)));
        }
        assert!(s.is_empty());
        assert_eq!(s, CopySet::default());
        assert_eq!(nodes(&CopySet::one(NodeId(6))), [6]);
    }

    #[test]
    fn copy_set_matches_a_sorted_vec_under_churn() {
        let mut s = CopySet::default();
        let mut reference: Vec<usize> = Vec::new();
        let mut x = 1u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = (x >> 33) as usize % 9;
            match reference.binary_search(&n) {
                Err(at) if (x >> 20) & 1 == 0 => {
                    reference.insert(at, n);
                    assert!(s.insert(NodeId(n)));
                }
                Ok(at) if (x >> 20) & 1 == 1 => {
                    reference.remove(at);
                    assert!(s.remove(NodeId(n)));
                }
                Ok(_) => assert!(!s.insert(NodeId(n))),
                Err(_) => assert!(!s.remove(NodeId(n))),
            }
            assert_eq!(nodes(&s), reference);
            assert_eq!(
                matches!(s, CopySet::Spilled(_)),
                reference.len() > INLINE_COPIES
            );
        }
    }

    #[test]
    fn wait_list_matches_a_vec_under_churn() {
        let mut list = WaitList::default();
        let mut reference: Vec<Wait> = Vec::new();
        let mut x = 3u64;
        for _ in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = Wait::Waiter((x >> 40) % 5);
            let third = (x >> 20) % 3;
            if third < 2 && reference.len() < 4 {
                list.push(w);
                reference.push(w);
            } else {
                // Drop every copy of `w`; `keep` must see each entry
                // once, in order.
                let mut seen = Vec::new();
                list.retain(|v| {
                    seen.push(*v);
                    *v != w
                });
                assert_eq!(seen, reference);
                reference.retain(|v| *v != w);
            }
            assert_eq!(list.as_slice(), reference.as_slice());
            assert_eq!(list.0.is_none(), reference.is_empty());
        }
    }

    #[test]
    fn interleaved_kinds_drain_per_kind_in_fifo_order() {
        let mut o = ObjEntry::default();
        o.add_waiting_task(TaskId(3));
        o.add_arg_waiter(NodeId(1), TaskId(10));
        o.add_waiter(100);
        o.set_fetch_state(NodeId(1), FetchState::AllocPending);
        o.add_waiting_task(TaskId(1));
        o.add_arg_waiter(NodeId(2), TaskId(20));
        o.add_waiter(99);
        o.add_arg_waiter(NodeId(1), TaskId(11));
        o.add_waiting_task(TaskId(3)); // already registered
        o.add_waiter(100); // a get listing the object twice
        o.set_fetch_state(NodeId(1), FetchState::transferring(NodeId(4), 2));
        o.set_fetch_state(NodeId(2), FetchState::AllocPending);
        assert!(o.watched());

        assert_eq!(o.arg_waiters(NodeId(1)), [TaskId(10), TaskId(11)]);
        let woken = o.take_woken();
        assert_eq!(woken.tasks, [TaskId(3), TaskId(1)]);
        assert_eq!(woken.waiters, [100, 99, 100]);
        assert!(!o.watched());
        let moving = Some(FetchState::transferring(NodeId(4), 2));
        assert_eq!(o.fetch_state(NodeId(1)), moving);
        assert_eq!(o.take_arg_waiters(NodeId(1)), [TaskId(10), TaskId(11)]);
        assert_eq!(o.take_arg_waiters(NodeId(1)), []);
        assert_eq!(o.fetch_state(NodeId(2)), Some(FetchState::AllocPending));
        o.forget_node(NodeId(2));
        assert_eq!(o.fetch_state(NodeId(2)), None);
        assert_eq!(o.arg_waiters(NodeId(2)), []);
        assert_eq!(o.fetch_state(NodeId(1)), moving);
    }

    #[test]
    fn emptying_the_wait_list_frees_its_allocation() {
        let mut o = ObjEntry::default();
        assert_eq!(capacity(&o), 0);
        o.add_waiter(1);
        assert_eq!(capacity(&o), 2, "first allocation fits two");
        o.add_arg_waiter(NodeId(0), TaskId(5));
        o.add_waiting_task(TaskId(6));
        o.remove_waiter(1);
        o.remove_arg_waiter(NodeId(0), TaskId(5));
        assert!(capacity(&o) > 0);
        assert_eq!(o.take_woken().tasks, [TaskId(6)]);
        assert_eq!(capacity(&o), 0);

        o.set_fetch_state(NodeId(3), FetchState::AllocPending);
        o.clear_fetch_state(NodeId(3));
        assert_eq!(capacity(&o), 0);
        o.add_arg_waiter(NodeId(3), TaskId(1));
        assert_eq!(o.take_arg_waiters(NodeId(3)), [TaskId(1)]);
        assert_eq!(capacity(&o), 0);
        o.add_arg_waiter(NodeId(3), TaskId(2));
        o.forget_node(NodeId(3));
        assert_eq!(capacity(&o), 0);
    }
}
