//! The runtime's one trace-stream observer.
//!
//! exo-live's snapshots and exo-watch's detectors read the same facts —
//! in-flight tasks, the rolling bound window, stage and queue-delay
//! sketches, tenant tallies — so one [`Fold`] holds them, behind one
//! lock, fed once per event. Counters are never folded here: ticks and
//! the final line read them from the sink.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use exo_live::{Fold, LiveConfig, LiveSeries};
use exo_sim::DeviceCaps;
use exo_trace::{Event, EventKind, IncidentEvent, Observer, TraceCounters};
use exo_watch::{Incident, Recorder, WatchConfig, WatchReport};

/// Everything the observer keeps.
struct Observed {
    fold: Fold,
    /// The snapshot series, when live observability is on.
    series: Option<LiveSeries>,
    /// The incident detectors, when watching is on.
    detectors: Option<Recorder>,
}

/// Shared handle to the observed state: one clone is the sink's only
/// observer, the runtime keeps another to tick snapshots, drain
/// incident transitions and finish both views.
#[derive(Clone)]
pub struct RunObserver(Arc<Mutex<Observed>>);

impl Observer for RunObserver {
    fn on_block(&mut self, evs: &[Event]) {
        let mut guard = self.lock();
        let st = &mut *guard;
        for ev in evs {
            // The runtime re-emits detector verdicts into the sink;
            // they are output, never input.
            if matches!(ev.kind, EventKind::Incident(_)) {
                continue;
            }
            // Detectors judge the boundaries `ev` crosses before the
            // fold applies it.
            if let Some(d) = &mut st.detectors {
                d.observe(&mut st.fold, ev);
            }
            st.fold.apply(ev);
        }
    }
}

impl RunObserver {
    /// `None` when neither view is configured. Register the result on
    /// the sink with `TraceSink::register_observer`.
    pub fn new(
        live: Option<&LiveConfig>,
        watch: Option<&WatchConfig>,
        caps: &DeviceCaps,
    ) -> Option<RunObserver> {
        if live.is_none() && watch.is_none() {
            return None;
        }
        Some(RunObserver(Arc::new(Mutex::new(Observed {
            fold: Fold::new(caps),
            series: live.map(|_| LiveSeries::new()),
            detectors: watch.map(|w| Recorder::new(w.clone(), caps)),
        }))))
    }

    fn lock(&self) -> MutexGuard<'_, Observed> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends the snapshot at `at_us` with the sink's `counters` (read
    /// first: reading them flushes the sink into this observer). Returns
    /// its progress line when `progress` is set.
    pub fn tick(&self, counters: TraceCounters, at_us: u64, progress: bool) -> Option<String> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let snap = st.series.as_mut()?.push(&st.fold, counters, at_us);
        progress.then(|| snap.progress_line())
    }

    /// Every incident detected so far (open and closed), in open order;
    /// empty when not watching.
    pub fn incidents_now(&self) -> Vec<Incident> {
        self.lock()
            .detectors
            .as_ref()
            .map(|d| d.incidents().to_vec())
            .unwrap_or_default()
    }

    /// Takes the incident transitions decided since the last drain.
    pub fn drain_transitions(&self) -> Vec<(u64, IncidentEvent)> {
        self.lock()
            .detectors
            .as_mut()
            .map(Recorder::drain_transitions)
            .unwrap_or_default()
    }

    /// Runs the detectors to `end_us` and force-closes what is open
    /// (see [`Recorder::finish`]); `None` when not watching.
    pub fn finish_watch(&self, end_us: u64) -> Option<WatchReport> {
        let mut guard = self.lock();
        let st = &mut *guard;
        Some(st.detectors.as_mut()?.finish(&mut st.fold, end_us))
    }

    /// Closes the snapshot series at `end_us` with the sink's final
    /// `counters`; `None` when live observability is off.
    pub fn finish_live(&self, counters: TraceCounters, end_us: u64) -> Option<LiveSeries> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let mut series = st.series.take()?;
        series.finish(&st.fold, counters, end_us);
        Some(series)
    }
}
