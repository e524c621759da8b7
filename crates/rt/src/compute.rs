//! Overlapped task compute: a small pool of helper threads that run task
//! closures while the engine thread keeps processing events.
//!
//! The engine [`launch`](ComputePool::launch)es a task body as soon as
//! its inputs are pinned and [`land`](ComputePool::land)s the result at
//! the event that consumes it. A landing joins its slot by three rules:
//!
//! - still queued: the engine takes the job and runs it inline;
//! - running on a helper: the engine runs other queued slots while it
//!   waits, so both cores stay busy;
//! - done: the engine takes the result. A panic caught on the helper is
//!   re-raised here, on the engine thread.
//!
//! Dropping a [`Pending`] abandons its slot: a helper that dequeues it
//! later skips it. Helpers (`available_parallelism() − 1` of them) are
//! spawned at the first launch, not when the pool is built, and joined
//! when it drops. With zero helpers every job runs at its landing.
//!
//! Nothing here reads a clock or decides an order the simulation can
//! see: which thread runs a job, and when, changes only host time.

use std::cell::OnceCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};

type Job<T> = Box<dyn FnOnce() -> T + Send>;

enum State<T> {
    /// Launched; no thread has taken the job yet.
    Queued(Job<T>),
    /// A helper (or a landing) took the job, or the slot was abandoned.
    Taken,
    /// A helper finished the job; a panic is kept to re-raise.
    Done(thread::Result<T>),
}

/// One launch: its job, then its result.
struct Slot<T> {
    state: Mutex<State<T>>,
    /// Signalled when a helper stores the result.
    done: Condvar,
}

fn lock<S>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    // Jobs run outside every lock and their panics are caught, so a
    // poisoned lock still guards consistent state.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Slot<T> {
    /// Runs the job if nobody has taken it, storing the result (or the
    /// caught panic) for the landing.
    fn run(&self) {
        // Each slot is queued once, so only its landing or an abandon can
        // have taken the job before this.
        let State::Queued(job) = std::mem::replace(&mut *lock(&self.state), State::Taken) else {
            return;
        };
        let result = panic::catch_unwind(AssertUnwindSafe(job));
        *lock(&self.state) = State::Done(result);
        self.done.notify_all();
    }
}

/// The engine's handle to one launched job. Dropping it unlanded
/// abandons the job.
pub(crate) struct Pending<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Drop for Pending<T> {
    fn drop(&mut self) {
        // Frees a queued job (and the inputs it captured) at once; a
        // running job's result goes when its helper lets go of the slot.
        // After a landing the state is already `Taken`.
        let abandoned = std::mem::replace(&mut *lock(&self.slot.state), State::Taken);
        drop(abandoned);
    }
}

struct Helpers<T> {
    /// Dropping it (with the pool) tells the helpers to exit.
    tx: Sender<Arc<Slot<T>>>,
    /// Shared by the helpers; the engine steals from it while it waits.
    rx: Arc<Mutex<Receiver<Arc<Slot<T>>>>>,
    threads: Vec<JoinHandle<()>>,
}

/// Helper threads plus the queue of launched jobs.
pub(crate) struct ComputePool<T> {
    /// Helper count to spawn at the first launch; `None` means
    /// `available_parallelism() − 1`.
    want: Option<usize>,
    /// Set at the first launch; `None` inside with zero helpers.
    helpers: OnceCell<Option<Helpers<T>>>,
}

impl<T: Send + 'static> ComputePool<T> {
    /// A pool sized to the host, spawning nothing until the first launch.
    pub(crate) fn new() -> Self {
        ComputePool {
            want: None,
            helpers: OnceCell::new(),
        }
    }

    /// Queues `job` for a helper. The result is collected by
    /// [`land`](Self::land).
    pub(crate) fn launch(&self, job: impl FnOnce() -> T + Send + 'static) -> Pending<T> {
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Queued(Box::new(job))),
            done: Condvar::new(),
        });
        if let Some(h) = self.helpers.get_or_init(|| self.spawn()) {
            // Helpers exit only once `tx` is dropped, so the send succeeds;
            // were it to fail, the landing would run the job inline.
            let _ = h.tx.send(Arc::clone(&slot));
        }
        Pending { slot }
    }

    /// The result of `pending`'s job, computing it here if no helper has
    /// started it. Re-raises a panic the job raised on a helper.
    pub(crate) fn land(&self, pending: Pending<T>) -> T {
        let slot = &pending.slot;
        loop {
            let mut state = lock(&slot.state);
            match std::mem::replace(&mut *state, State::Taken) {
                State::Queued(job) => {
                    drop(state);
                    return job();
                }
                State::Done(Ok(out)) => return out,
                State::Done(Err(panic)) => {
                    drop(state);
                    panic::resume_unwind(panic)
                }
                State::Taken => {
                    // A helper is running it: help with the queue, and
                    // block only when there is nothing left to help with.
                    drop(state);
                    if self.help_one() {
                        continue;
                    }
                    let mut state = lock(&slot.state);
                    while let State::Taken = *state {
                        state = slot
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }

    /// Runs one queued job on the calling thread; false when none could
    /// be taken (queue empty, or an idle helper is already receiving).
    fn help_one(&self) -> bool {
        let Some(Some(h)) = self.helpers.get() else {
            return false;
        };
        let rx = match h.rx.try_lock() {
            Ok(rx) => rx,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        let Ok(slot) = rx.try_recv() else {
            return false;
        };
        drop(rx);
        slot.run();
        true
    }

    fn spawn(&self) -> Option<Helpers<T>> {
        let n = self
            .want
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()) - 1);
        if n == 0 {
            return None;
        }
        let (tx, rx) = mpsc::channel::<Arc<Slot<T>>>();
        let rx = Arc::new(Mutex::new(rx));
        let threads: Vec<JoinHandle<()>> = (0..n)
            .map_while(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("exo-compute-{i}"))
                    .spawn(move || helper_loop(&rx))
                    .ok()
            })
            .collect();
        if threads.is_empty() {
            return None;
        }
        Some(Helpers { tx, rx, threads })
    }
}

fn helper_loop<T>(rx: &Mutex<Receiver<Arc<Slot<T>>>>) {
    loop {
        let next = lock(rx).recv();
        match next {
            Ok(slot) => slot.run(),
            Err(_) => return,
        }
    }
}

impl<T> Drop for ComputePool<T> {
    fn drop(&mut self) {
        if let Some(Some(Helpers { tx, threads, .. })) = self.helpers.take() {
            drop(tx);
            for t in threads {
                // Jobs run under `catch_unwind`, so a helper never panics.
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::sync_channel;

    fn pool(helpers: usize) -> ComputePool<usize> {
        ComputePool {
            want: Some(helpers),
            helpers: OnceCell::new(),
        }
    }

    #[test]
    fn queued_slot_joined_by_the_caller_runs_inline() {
        // The only helper is stuck on a gate, so the second job is still
        // queued when it is landed.
        let p = pool(1);
        let (open, gate) = sync_channel::<()>(0);
        let blocker = p.launch(move || {
            let _ = gate.recv();
            0
        });
        let caller = thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&ran_on);
        let queued = p.launch(move || {
            *lock(&seen) = Some(thread::current().id());
            7
        });
        assert_eq!(p.land(queued), 7);
        assert_eq!(*lock(&ran_on), Some(caller));
        open.send(()).unwrap();
        assert_eq!(p.land(blocker), 0);
    }

    #[test]
    fn running_slot_is_awaited_while_the_caller_helps() {
        let p = pool(1);
        let (started_tx, started) = sync_channel::<()>(1);
        let (open, gate) = sync_channel::<()>(0);
        let running = p.launch(move || {
            started_tx.send(()).unwrap();
            let _ = gate.recv();
            1
        });
        started.recv().unwrap();
        // Queued behind the running job; the caller picks them up while
        // it waits, and the last one releases the helper.
        let caller = thread::current().id();
        let helped: Vec<Pending<usize>> = (0..3)
            .map(|i| {
                let open = open.clone();
                p.launch(move || {
                    assert_eq!(thread::current().id(), caller);
                    if i == 2 {
                        open.send(()).unwrap();
                    }
                    10 + i
                })
            })
            .collect();
        assert_eq!(p.land(running), 1);
        let outs: Vec<usize> = helped.into_iter().map(|h| p.land(h)).collect();
        assert_eq!(outs, vec![10, 11, 12]);
    }

    #[test]
    fn zero_helpers_run_everything_at_the_join() {
        let p = pool(0);
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<Pending<usize>> = (0..4)
            .map(|i| {
                let runs = Arc::clone(&runs);
                p.launch(move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    i
                })
            })
            .collect();
        assert!(matches!(p.helpers.get(), Some(None)));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            0,
            "nothing runs before its landing"
        );
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(p.land(h), i);
            assert_eq!(runs.load(Ordering::SeqCst), 4 - i);
        }
    }

    #[test]
    fn slot_nobody_holds_is_skipped() {
        let p = pool(1);
        let (open, gate) = sync_channel::<()>(0);
        let blocker = p.launch(move || {
            let _ = gate.recv();
            0
        });
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        drop(p.launch(move || counted.fetch_add(1, Ordering::SeqCst)));
        open.send(()).unwrap();
        assert_eq!(p.land(blocker), 0);
        let after = p.launch(|| 5);
        assert_eq!(p.land(after), 5);
        drop(p);
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn helper_panic_is_reraised_at_the_landing() {
        let p = pool(1);
        let (done_tx, done) = sync_channel::<()>(1);
        let h = p.launch(move || {
            let _ = done_tx.send(());
            panic!("kernel blew up")
        });
        let _ = done.recv();
        let err = panic::catch_unwind(AssertUnwindSafe(|| p.land(h))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"kernel blew up"));
    }
}
