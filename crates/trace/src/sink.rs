//! The event sink: the one place every layer (sim, store, runtime)
//! reports facts to.
//!
//! Cost model: the sink *always* folds each event into a fixed set of
//! counters ([`TraceCounters`], the source of truth for `RtMetrics`) and
//! keeps a small ring of recent events for deadlock dumps — the same
//! cost class as the integer counter bumps it replaced. Full event
//! retention (what the exporters consume) only happens when
//! [`TraceConfig::enabled`] is set.
//!
//! The sink carries its own microsecond clock (`set_now`), updated by
//! the runtime at each simulation dispatch, so time-free components
//! like the object store can emit correctly stamped events.
//!
//! A streaming consumer plugs in through [`Observer`]: the registered
//! observer sees every event exactly once, in order, without the
//! stream being retained. With none registered the fan-out is a single
//! branch on an empty slot — the always-on cost class is unchanged.
//!
//! Emission is **batched**: `emit` appends to a pending block and the
//! counter fold, ring feed, retention copy and observer fan-out run
//! once per `BLOCK`-sized block. Every reader (`counters`, `recent`,
//! `len`, `take_events`, `with_events`) settles the block first, so the
//! batching is invisible downstream — the same events, counters and
//! ring contents fall out, bit for bit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind, IoDir, ObjectPhase, TaskPhase};

/// A streaming consumer of the event stream. The observer is invoked
/// synchronously from the sink's block flush while the sink lock is
/// held, so implementations must be cheap, must not block, and must not
/// call back into the sink. It sees every event exactly once, in
/// emission order, whether or not the full stream is retained — this is
/// how fixed-memory live observability (`exo-live`) taps the stream
/// without O(events) retention.
pub trait Observer: Send {
    /// Receives one flushed block of events in emission order: the
    /// block fills, or a reader forces a flush.
    fn on_block(&mut self, evs: &[Event]);
}

/// Virtual-time interval between `ResourceSample` emissions (100 ms).
/// Honoured whenever there is a sample consumer: full retention *or* a
/// registered observer.
pub const RESOURCE_SAMPLE_US: u64 = 100_000;

/// Capacity of the always-on recent-event ring (deadlock dumps).
const RING: usize = 64;

/// Tracing knobs, carried on `RtConfig`. Off by default.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Retain the full event stream for export.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true }
    }
}

/// Counters derived by folding the event stream; `RtMetrics` is a view
/// over these (plus per-store compatibility metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    pub tasks_completed: u64,
    pub tasks_reexecuted: u64,
    pub net_bytes: u64,
    pub net_ops: u64,
    pub disk_read_bytes: u64,
    pub disk_write_bytes: u64,
    pub objects_reconstructed: u64,
    pub node_failures: u64,
    pub executor_failures: u64,
}

impl TraceCounters {
    /// Folds one event. This is the single definition of how raw events
    /// become aggregate metrics; the integration tests assert that a
    /// fold over the retained stream reproduces these counters exactly.
    pub fn apply(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Task(t) => match t.phase {
                TaskPhase::Finished => self.tasks_completed += 1,
                TaskPhase::Scheduled if t.retry => self.tasks_reexecuted += 1,
                _ => {}
            },
            EventKind::Object(o) => match o.phase {
                ObjectPhase::Transferred => {
                    self.net_bytes += o.bytes;
                    self.net_ops += 1;
                }
                ObjectPhase::Reconstructed => self.objects_reconstructed += 1,
                _ => {}
            },
            EventKind::Io(io) => match io.dir {
                IoDir::Read => self.disk_read_bytes += io.bytes,
                IoDir::Write => self.disk_write_bytes += io.bytes,
            },
            EventKind::Failure(f) => match f.kind {
                crate::event::FailureKind::NodeKilled => self.node_failures += 1,
                crate::event::FailureKind::ExecutorsKilled => self.executor_failures += 1,
            },
            // Dependency edges, fetch-wait intervals and resource samples
            // exist for offline analysis (exo-prof) only; incident events
            // are detector *verdicts* about the stream, not facts of the
            // simulation — folding them would let observability perturb
            // the bit-identical counters the gate pins. None aggregate.
            EventKind::Dep(_)
            | EventKind::FetchWait(_)
            | EventKind::Resource(_)
            | EventKind::Incident(_)
            | EventKind::Job(_) => {}
        }
    }

    /// Folds a whole stream (used by tests and offline analysis).
    pub fn fold(events: &[Event]) -> TraceCounters {
        let mut c = TraceCounters::default();
        for e in events {
            c.apply(&e.kind);
        }
        c
    }

    /// Accumulates another counter set into this one (folding snapshot
    /// deltas back into a total).
    pub fn add(&mut self, other: &TraceCounters) {
        self.tasks_completed += other.tasks_completed;
        self.tasks_reexecuted += other.tasks_reexecuted;
        self.net_bytes += other.net_bytes;
        self.net_ops += other.net_ops;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.objects_reconstructed += other.objects_reconstructed;
        self.node_failures += other.node_failures;
        self.executor_failures += other.executor_failures;
    }

    /// The per-interval delta between two cumulative counter snapshots
    /// (`self` taken after `earlier`). Counters are monotonic, so plain
    /// subtraction is exact.
    pub fn delta_since(&self, earlier: &TraceCounters) -> TraceCounters {
        TraceCounters {
            tasks_completed: self.tasks_completed - earlier.tasks_completed,
            tasks_reexecuted: self.tasks_reexecuted - earlier.tasks_reexecuted,
            net_bytes: self.net_bytes - earlier.net_bytes,
            net_ops: self.net_ops - earlier.net_ops,
            disk_read_bytes: self.disk_read_bytes - earlier.disk_read_bytes,
            disk_write_bytes: self.disk_write_bytes - earlier.disk_write_bytes,
            objects_reconstructed: self.objects_reconstructed - earlier.objects_reconstructed,
            node_failures: self.node_failures - earlier.node_failures,
            executor_failures: self.executor_failures - earlier.executor_failures,
        }
    }
}

/// Pending-block capacity: emits cheaper than this just append; the
/// counter fold, ring feed, retention copy and observer fan-out all run
/// once per block instead of once per event.
const BLOCK: usize = 256;

struct SinkState {
    /// Events emitted but not yet settled into counters/ring/stream.
    pending: Vec<Event>,
    events: Vec<Event>,
    ring: VecDeque<Event>,
    counters: TraceCounters,
    observer: Option<Box<dyn Observer>>,
}

impl SinkState {
    /// Settles the pending block: folds counters, feeds the ring and the
    /// retained stream, and hands the observer the whole block. Every read
    /// accessor calls this first, so batching is invisible downstream.
    fn flush(&mut self, retain: bool) {
        if self.pending.is_empty() {
            return;
        }
        for ev in &self.pending {
            self.counters.apply(&ev.kind);
        }
        // Equivalent to pushing each event with pop-at-capacity: the ring
        // ends holding the last `RING` of (old ring ++ block).
        if self.pending.len() >= RING {
            self.ring.clear();
            let skip = self.pending.len() - RING;
            self.ring.extend(self.pending[skip..].iter().copied());
        } else {
            let excess = (self.ring.len() + self.pending.len()).saturating_sub(RING);
            for _ in 0..excess {
                self.ring.pop_front();
            }
            self.ring.extend(self.pending.iter().copied());
        }
        if retain {
            self.events.extend_from_slice(&self.pending);
        }
        if let Some(obs) = &mut self.observer {
            obs.on_block(&self.pending);
        }
        self.pending.clear();
    }
}

struct SinkInner {
    retain: bool,
    /// Mirrors `state.observer.is_some()` so gating decisions (resource
    /// sampling, fetch-wait emission) can be made without the lock.
    observing: AtomicBool,
    now_us: AtomicU64,
    state: Mutex<SinkState>,
}

/// Cloneable handle to the shared sink. All clones feed one stream.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl TraceSink {
    pub fn new(cfg: &TraceConfig) -> TraceSink {
        TraceSink {
            inner: Arc::new(SinkInner {
                retain: cfg.enabled,
                observing: AtomicBool::new(false),
                now_us: AtomicU64::new(0),
                state: Mutex::new(SinkState {
                    pending: Vec::with_capacity(BLOCK),
                    events: Vec::new(),
                    ring: VecDeque::with_capacity(RING),
                    counters: TraceCounters::default(),
                    observer: None,
                }),
            }),
        }
    }

    /// A sink that folds counters and keeps a small ring but retains
    /// nothing — the default for components constructed standalone.
    pub fn disabled() -> TraceSink {
        TraceSink::new(&TraceConfig::default())
    }

    /// Whether the full event stream is being retained for export.
    pub fn retaining(&self) -> bool {
        self.inner.retain
    }

    /// Whether a streaming [`Observer`] is registered.
    pub fn observing(&self) -> bool {
        self.inner.observing.load(Ordering::Relaxed)
    }

    /// Registers the sink's one streaming observer. It sees every event
    /// emitted from this point on, in order, under the sink lock. Any
    /// pending block is flushed first so pre-registration events stay
    /// invisible to it. Panics if an observer is already registered.
    pub fn register_observer(&self, obs: Box<dyn Observer>) {
        let mut st = self.lock_flushed();
        assert!(st.observer.is_none(), "a sink takes one observer");
        st.observer = Some(obs);
        self.inner.observing.store(true, Ordering::Relaxed);
    }

    /// Whether `ResourceSample`s have a consumer: full retention *or* a
    /// registered observer.
    pub fn sampling(&self) -> bool {
        self.inner.retain || self.observing()
    }

    /// Advances the sink clock (virtual-time microseconds). Called by
    /// the runtime before dispatching each command/event so components
    /// without a clock emit correctly stamped events.
    pub fn set_now(&self, us: u64) {
        self.inner.now_us.store(us, Ordering::Relaxed);
    }

    pub fn now_us(&self) -> u64 {
        self.inner.now_us.load(Ordering::Relaxed)
    }

    /// Records an event stamped with the sink clock.
    pub fn emit(&self, kind: EventKind) {
        self.emit_at(self.now_us(), kind);
    }

    /// Records an event with an explicit timestamp (used when a
    /// completion is known to happen at a future virtual time). The
    /// event lands in the pending block; counters, ring, retention and
    /// the observer are settled when the block fills or a reader flushes.
    pub fn emit_at(&self, at_us: u64, kind: EventKind) {
        let ev = Event { at_us, kind };
        let mut st = self.inner.state.lock().expect("trace sink poisoned");
        st.pending.push(ev);
        if st.pending.len() >= BLOCK {
            st.flush(self.inner.retain);
        }
    }

    /// Locks the sink state with the pending block settled — the entry
    /// point for every reader, so batching never changes what they see.
    fn lock_flushed(&self) -> std::sync::MutexGuard<'_, SinkState> {
        let mut st = self.inner.state.lock().expect("trace sink poisoned");
        st.flush(self.inner.retain);
        st
    }

    /// Forces the pending block out to counters, ring and observer.
    pub fn flush(&self) {
        drop(self.lock_flushed());
    }

    /// Current folded counters.
    pub fn counters(&self) -> TraceCounters {
        self.lock_flushed().counters
    }

    /// The most recent events (always available, even with retention
    /// off) — the deadlock dump source.
    pub fn recent(&self) -> Vec<Event> {
        self.lock_flushed().ring.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock_flushed().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the retained event stream.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.lock_flushed().events)
    }

    /// Runs `f` against the retained event stream by borrow, without
    /// cloning it — the O(1)-copy path exporters and tests should use.
    /// The sink lock is held for the duration of `f`, so `f` must not
    /// call back into the sink.
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        let st = self.lock_flushed();
        f(&st.events)
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("retain", &self.inner.retain)
            .field("now_us", &self.now_us())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::*;

    fn obj(phase: ObjectPhase, bytes: u64) -> EventKind {
        EventKind::Object(ObjectEvent {
            object: 1,
            phase,
            node: 0,
            src: None,
            bytes,
        })
    }

    #[test]
    fn fold_matches_incremental_counters() {
        let sink = TraceSink::new(&TraceConfig::on());
        sink.set_now(10);
        sink.emit(obj(ObjectPhase::Transferred, 100));
        sink.set_now(20);
        sink.emit(obj(ObjectPhase::Transferred, 50));
        sink.emit(EventKind::Io(IoEvent {
            node: 0,
            dir: IoDir::Write,
            bytes: 7,
        }));
        sink.emit(EventKind::Task(TaskSpan {
            job: 0,
            task: 1,
            phase: TaskPhase::Finished,
            node: 0,
            label: "t",
            attempt: 0,
            retry: false,
            reason: None,
        }));
        let c = sink.counters();
        assert_eq!(c.net_bytes, 150);
        assert_eq!(c.net_ops, 2);
        assert_eq!(c.disk_write_bytes, 7);
        assert_eq!(c.tasks_completed, 1);
        assert_eq!(sink.with_events(TraceCounters::fold), c);
    }

    #[test]
    fn observers_see_every_event_without_retention() {
        struct Tally(std::sync::Arc<Mutex<(u64, TraceCounters)>>);
        impl Observer for Tally {
            fn on_block(&mut self, evs: &[Event]) {
                let mut t = self.0.lock().unwrap();
                for ev in evs {
                    t.0 += 1;
                    t.1.apply(&ev.kind);
                }
            }
        }
        let sink = TraceSink::disabled();
        assert!(!sink.observing());
        assert!(
            !sink.sampling(),
            "no retention and no observers: sampling must stay off"
        );
        let tally = std::sync::Arc::new(Mutex::new((0u64, TraceCounters::default())));
        sink.register_observer(Box::new(Tally(tally.clone())));
        assert!(sink.observing());
        assert!(
            sink.sampling(),
            "a registered observer is a sample consumer"
        );
        sink.emit(obj(ObjectPhase::Transferred, 100));
        sink.emit(obj(ObjectPhase::Transferred, 50));
        assert!(sink.is_empty(), "retention stays off with observers");
        let t = tally.lock().unwrap();
        assert_eq!(t.0, 2);
        assert_eq!(t.1, sink.counters());
    }

    #[test]
    fn disabled_sink_folds_but_does_not_retain() {
        let sink = TraceSink::disabled();
        assert!(!sink.retaining());
        sink.emit(obj(ObjectPhase::Transferred, 9));
        assert_eq!(sink.counters().net_bytes, 9);
        assert!(sink.is_empty());
        assert_eq!(sink.recent().len(), 1);
    }

    #[test]
    fn ring_keeps_only_last_events() {
        let sink = TraceSink::disabled();
        let n = RING as u64 + 96;
        for i in 0..n {
            sink.set_now(i);
            sink.emit(obj(ObjectPhase::Created, i));
        }
        let recent = sink.recent();
        assert_eq!(recent.len(), RING);
        assert_eq!(recent[0].at_us, n - RING as u64);
        assert_eq!(recent[RING - 1].at_us, n - 1);
    }

    #[test]
    fn batched_emission_is_invisible_to_readers() {
        // Emit far more than one block and interleave reads; counters,
        // retained stream and ring must match an unbatched fold exactly.
        let sink = TraceSink::new(&TraceConfig::on());
        let mut expect = TraceCounters::default();
        for i in 0..(3 * BLOCK as u64 + 17) {
            sink.set_now(i);
            let ev = obj(ObjectPhase::Transferred, i);
            expect.apply(&ev);
            sink.emit(ev);
            if i == 100 {
                // A mid-stream read flushes a partial block.
                assert_eq!(sink.counters().net_ops, 101);
            }
        }
        assert_eq!(sink.counters(), expect);
        assert_eq!(sink.len(), 3 * BLOCK + 17);
        let recent = sink.recent();
        assert_eq!(recent.len(), RING);
        assert_eq!(recent.last().unwrap().at_us, 3 * BLOCK as u64 + 16);
        assert_eq!(sink.with_events(TraceCounters::fold), expect);
    }

    #[test]
    fn ring_feed_matches_per_event_semantics_across_blocks() {
        // Flush with a block smaller than the ring capacity: the ring
        // must behave as if each event were pushed individually.
        let sink = TraceSink::disabled();
        let first = RING as u64 - 24;
        let n = first + 48;
        for i in 0..first {
            sink.set_now(i);
            sink.emit(obj(ObjectPhase::Created, i));
        }
        sink.flush();
        for i in first..n {
            sink.set_now(i);
            sink.emit(obj(ObjectPhase::Created, i));
        }
        let recent = sink.recent();
        assert_eq!(recent.len(), RING);
        assert_eq!(recent[0].at_us, n - RING as u64);
        assert_eq!(recent[RING - 1].at_us, n - 1);
    }

    #[test]
    fn observer_blocks_preserve_event_order() {
        struct Blocks(std::sync::Arc<Mutex<(usize, Vec<u64>)>>);
        impl Observer for Blocks {
            fn on_block(&mut self, evs: &[Event]) {
                let mut t = self.0.lock().unwrap();
                t.0 += 1;
                t.1.extend(evs.iter().map(|e| e.at_us));
            }
        }
        let sink = TraceSink::disabled();
        let seen = std::sync::Arc::new(Mutex::new((0usize, Vec::new())));
        sink.register_observer(Box::new(Blocks(seen.clone())));
        let n = BLOCK as u64 + 3;
        for i in 0..n {
            sink.set_now(i);
            sink.emit(obj(ObjectPhase::Created, i));
        }
        sink.flush();
        let t = seen.lock().unwrap();
        assert_eq!(t.0, 2, "one full block plus one forced partial");
        assert_eq!(t.1, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn reexecution_and_reconstruction_fold() {
        let mut c = TraceCounters::default();
        c.apply(&EventKind::Task(TaskSpan {
            job: 0,
            task: 3,
            phase: TaskPhase::Scheduled,
            node: 1,
            label: "map",
            attempt: 1,
            retry: true,
            reason: Some(Placement::bare(PlaceReason::Spread)),
        }));
        c.apply(&obj(ObjectPhase::Reconstructed, 5));
        c.apply(&EventKind::Failure(FailureEvent {
            node: 1,
            kind: FailureKind::NodeKilled,
        }));
        assert_eq!(c.tasks_reexecuted, 1);
        assert_eq!(c.objects_reconstructed, 1);
        assert_eq!(c.node_failures, 1);
    }
}
